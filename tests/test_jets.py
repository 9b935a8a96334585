"""Forward-mode jets: the derivative rules against finite differences, and
batched jets of every order against single points, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from uccert.carleman import build_weight
from uccert.errors import ContractViolation
from uccert.expressions import expression_field
from uccert.fields import Jet, ScalarField, linear_combination, pullback_scalar, squared_field
from uccert.hypotheses import build_psi
from uccert.models import cone_surface_field, ik_model

from conftest import central_difference, fd_hess, linear_chart

LEAVES = st.one_of(st.sampled_from(["x1", "x2", "x3"]),
                   st.floats(-3.0, 3.0).map(lambda v: f"{v:.4g}"))
EXPONENTS = st.sampled_from(["0.5", "1.5", "2", "3", "-0.5", "-1"])


def _grow(sub):
    # every divisor, sqrt argument and ^ base is at least 1
    pair = st.tuples(sub, sub)
    return st.one_of(
        pair.map(lambda t: f"({t[0]} + {t[1]})"),
        pair.map(lambda t: f"({t[0]} - {t[1]})"),
        pair.map(lambda t: f"({t[0]}) * ({t[1]})"),
        pair.map(lambda t: f"({t[0]}) / (1 + ({t[1]})^2)"),
        st.tuples(sub, EXPONENTS).map(lambda t: f"(1 + ({t[0]})^2)^{t[1]}"),
        sub.map(lambda a: f"sqrt(1 + ({a})^2)"),
        pair.map(lambda t: f"norm({t[0]}, {t[1]}, 1)"),
    )


EXPRESSIONS = st.recursive(LEAVES, _grow, max_leaves=6)
COORD = st.floats(-1.5, 1.5)
POINT = st.tuples(COORD, COORD, COORD).map(np.array)
BATCH = st.lists(st.tuples(COORD, COORD, COORD), min_size=1, max_size=12).map(np.array)


def _same_bits(field, points):
    """Batched value, gradient and Hessian equal the stacked single-point
    jets of orders 0, 1 and 2, bit for bit."""
    for order in (0, 1, 2):
        batch = field.jet(points, order)
        single = [field.jet(p, order) for p in points]
        if order == 0:
            parts = [(batch, single)]
        else:
            if (batch.hess is None) != (order == 1):
                return False
            parts = [(getattr(batch, a), [getattr(j, a) for j in single])
                     for a in ("value", "grad", "hess")[:order + 1]]
        for got, ref in parts:
            ref = np.array(ref, dtype=float)
            if got.shape != ref.shape or got.tobytes() != ref.tobytes():
                return False
    return True


class TestExpressionJets:
    @settings(max_examples=80, deadline=None)
    @given(EXPRESSIONS, POINT)
    def test_jets_match_finite_differences(self, text, x):
        f = expression_field(text, 3)
        jet = f.jet(x, 2)
        first = f.jet(x, 1)
        assert jet.value == first.value == f(x)
        assert first.hess is None and np.array_equal(first.grad, jet.grad)
        # central differences: O(h^2) truncation, h = 1e-4, on the field's scale
        scale = 1.0 + max(abs(jet.value), np.max(np.abs(jet.grad)), np.max(np.abs(jet.hess)))
        assert_allclose(jet.grad, central_difference(f, x), rtol=0, atol=1e-6 * scale)
        assert_allclose(jet.hess, fd_hess(f, x), rtol=0, atol=1e-4 * scale)

    @settings(max_examples=80, deadline=None)
    @given(EXPRESSIONS, BATCH)
    def test_batched_values_equal_single_points_bit_for_bit(self, text, pts):
        f = expression_field(text, 3)
        assert _same_bits(f, pts)

    def test_constant_expression(self):
        f = expression_field("2 - 3 / 4", 2)
        assert_allclose(f.jet(np.zeros((3, 2)), 0), [1.25] * 3)
        assert np.array_equal(f.grad([1.0, 2.0]), np.zeros(2))
        assert np.array_equal(f.hess([1.0, 2.0]), np.zeros((2, 2)))

    def test_reflected_constants(self):
        f = expression_field("2 - 3 / x1", 1)
        jet = f.jet([2.0], 2)
        assert jet.value == 0.5
        assert_allclose(jet.grad, [3.0 / 4.0])
        assert_allclose(jet.hess, [[-6.0 / 8.0]])


class TestFieldJets:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 3, 4]), st.sampled_from([1.0, -1.0]),
           st.floats(-2.0, 2.0), st.integers(1, 40), st.integers(0, 10 ** 6))
    def test_cone_field_batch_bit_for_bit(self, d, s, a, k, seed):
        f = cone_surface_field(d, s, a)
        pts = np.random.default_rng(seed).uniform(-2.0, 2.0, (k, d + 1))
        assert _same_bits(f, pts)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([2, 3]), st.floats(0.25, 4.0), st.floats(0.25, 3.0),
           st.integers(0, 10 ** 6))
    def test_bent_field_and_weight_batch_bit_for_bit(self, d, lam, mu, seed):
        psi0, psi1 = build_psi(ik_model(d).geometry)
        bent = linear_combination([(1.0, psi1), (-lam, squared_field(psi0))])
        phi = build_weight(bent, mu).phi
        pts = np.random.default_rng(seed).uniform(-0.5, 1.5, (25, d + 1))
        assert _same_bits(bent, pts)
        assert _same_bits(phi, pts)

    def test_jet_field_batch_and_orders(self):
        def product(x, order):
            u, v = Jet.variables(x, order) if order else x.T
            return u * v

        f = ScalarField(product)
        pts = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert np.array_equal(f.jet(pts, 0), [2.0, -3.0])
        assert f.jet(pts[0], 1).hess is None
        assert np.array_equal(f.jet(pts[0], 2).hess, [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ContractViolation):
            f.jet(pts[0], 3)
        assert _same_bits(f, pts)
        chart = linear_chart([[2.0, 1.0], [0.0, 1.0]])
        assert _same_bits(pullback_scalar(f, chart), pts)
        assert _same_bits(pullback_scalar(expression_field("x1 / (1 + x2^2)", 2), chart), pts)
        with pytest.raises(ContractViolation):
            f.jet(pts[None], 1)

    def test_constant_and_coordinate_fields(self):
        pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        const = expression_field("2.5", 3)
        assert np.array_equal(const.jet(pts, 0), [2.5, 2.5])
        x2 = expression_field("x2", 3)
        assert np.array_equal(x2.jet(pts, 0), [2.0, 5.0])
        assert np.array_equal(x2.grad(pts[0]), [0.0, 1.0, 0.0])
        assert np.array_equal(const.hess(pts[0]), np.zeros((3, 3)))
        for f in (const, x2, expression_field("x2 + 1", 3)):
            assert _same_bits(f, pts)
        assert np.array_equal(x2.jet(pts, 2).grad, [[0.0, 1.0, 0.0]] * 2)


class TestJetRules:
    def test_chain_and_first_order(self):
        u, v = Jet.variables(np.array([0.3, -0.7]), 2)
        w = (u * v).chain(np.exp(-0.21), np.exp(-0.21), np.exp(-0.21))
        assert_allclose(w.grad, np.exp(-0.21) * np.array([-0.7, 0.3]))
        assert_allclose(w.hess, np.exp(-0.21) * np.array([[0.49, 0.79], [0.79, 0.09]]))
        u1, v1 = Jet.variables(np.array([0.3, -0.7]), 1)
        q = (u1 / v1) ** 2.0
        assert q.hess is None
        assert_allclose(q.grad, [2 * 0.3 / 0.49, 2 * 0.09 / 0.343])
