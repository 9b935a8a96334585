import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from uccert import (Chart, PhasePoint, constant_metric, expression_field, hp, hp2,
                    hp2_bracket, hp2_matrix, ik_model, lorentz_normal_form,
                    pullback_metric, pullback_metric_field, pullback_scalar,
                    signature, transport_covector)
from uccert.errors import ContractViolation, SignatureError
from uccert.fields import Jet
from uccert.models import bumpy_wave_metric, flattening_chart
from uccert.symbols import quadratic_form_values

from conftest import linear_chart

SQ2 = np.sqrt(2.0)


def radial_field():
    """psi = |y| - 1 on (t, y1, y2)."""
    m = ik_model(2)
    from uccert import build_psi
    return build_psi(m.geometry)[1]


def wave3():
    return constant_metric(np.diag([-1.0, 1.0, 1.0]))


class TestEvalSymbol:
    """The principal symbol p(x, xi) = xi^T Q(x) xi, as the certificate
    evaluates it on its sampled covectors."""

    def test_null_covector_of_flat_wave(self):
        q = wave3()
        xis = np.array([[1.0, 1.0, 0.0]])
        assert quadratic_form_values(q([0, 1, 0]), xis)[0] == pytest.approx(0.0, abs=1e-15)

    def test_zero_covector(self):
        q = wave3()
        assert quadratic_form_values(q([0.3, 1.1, -0.2]), np.zeros((1, 3)))[0] == 0.0

    def test_diagonal_null_direction(self):
        q = wave3()
        xis = np.array([[1 / SQ2, 0.0, 1 / SQ2]])
        assert quadratic_form_values(q([0, 1, 0]), xis)[0] == pytest.approx(0.0, abs=1e-14)


class TestSignature:
    def test_wave_diagonal(self):
        assert tuple(signature(np.diag([-1.0, 1.0, 1.0]))) == (2, 1, 0)

    def test_identity(self):
        assert tuple(signature(np.eye(3))) == (3, 0, 0)

    def test_zero_eigenvalue(self):
        assert tuple(signature(np.diag([1.0, 0.0, -1.0]))) == (1, 1, 1)

    def test_requires_symmetric(self):
        with pytest.raises(ContractViolation):
            signature(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


# eigenvalue signs (0 allowed) and magnitudes in [0.5, 2]
SPECTRA = st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=n, max_size=n),
    st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))


class TestSignatureProperties:
    @settings(max_examples=80, deadline=None)
    @given(SPECTRA, st.integers(0, 2 ** 32 - 1))
    def test_invariant_under_congruence(self, spectrum, seed):
        signs, mags = spectrum
        n = len(signs)
        rng = np.random.default_rng(seed)
        u = _orthogonal(rng, n)
        m = u @ np.diag(np.multiply(signs, mags)) @ u.T
        m = 0.5 * (m + m.T)
        # R = U1 diag(s) U2^T with singular values in [0.5, 2]: condition <= 4
        r = _orthogonal(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n)) @ _orthogonal(rng, n).T
        c = r.T @ m @ r
        c = 0.5 * (c + c.T)
        expected = (signs.count(1.0), signs.count(-1.0), signs.count(0.0))
        assert tuple(signature(m)) == tuple(signature(c)) == expected
        assert ((signature(m) == (n - 1, 1, 0)) == (signature(c) == (n - 1, 1, 0))
                == (expected == (n - 1, 1, 0)))
        stacked = signature(np.stack([m, c]))
        assert [list(v) for v in stacked] == [[v, v] for v in expected]
        if expected == (n - 1, 1, 0):
            nf = lorentz_normal_form(c)
            assert_allclose(nf.T @ c @ nf, np.diag([1.0] * (n - 1) + [-1.0]), atol=1e-9)


class TestNormalForm:
    def test_already_normal(self):
        m = np.diag([1.0, 1.0, -1.0])
        r = lorentz_normal_form(m)
        assert_allclose(r.T @ m @ r, np.diag([1.0, 1.0, -1.0]), atol=1e-12)

    def test_permutation_case(self):
        m = np.diag([-1.0, 1.0, 1.0])
        r = lorentz_normal_form(m)
        assert_allclose(r.T @ m @ r, np.diag([1.0, 1.0, -1.0]), atol=1e-12)

    def test_offdiagonal_2x2(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        r = lorentz_normal_form(m)
        assert_allclose(r.T @ m @ r, np.diag([1.0, -1.0]), atol=1e-12)

    def test_wrong_signature_raises(self):
        with pytest.raises(SignatureError):
            lorentz_normal_form(np.eye(3))

    def test_random_congruences(self, rng):
        # property: the normal-form defect stays below 1e-8 across random inputs
        for _ in range(25):
            n = int(rng.integers(2, 6))
            l = rng.normal(size=(n, n))
            while abs(np.linalg.det(l)) < 0.1:
                l = rng.normal(size=(n, n))
            d = np.diag([1.0] * (n - 1) + [-1.0])
            m = l.T @ d @ l
            r = lorentz_normal_form(m)
            target = np.diag([1.0] * (n - 1) + [-1.0])
            assert np.max(np.abs(r.T @ m @ r - target)) < 1e-8


class TestHamiltonianDerivatives:
    def test_hp_tangent_direction(self, ik2_fields):
        q, psi0, psi1 = ik2_fields
        xi = np.array([1 / SQ2, 0.0, 1 / SQ2])
        assert hp(q, psi1, PhasePoint([0, 1, 0], xi)) == pytest.approx(0.0, abs=1e-14)

    def test_hp_drift_direction(self, ik2_fields):
        q, psi0, psi1 = ik2_fields
        xi = np.array([1 / SQ2, 0.0, 1 / SQ2])
        assert hp(q, psi0, PhasePoint([0, 1, 0], xi)) == pytest.approx(-SQ2, rel=1e-12)

    def test_hp_constant_field(self, ik2_fields):
        q = ik2_fields[0]
        const = expression_field("3.7", 3)
        for xi in np.eye(3):
            assert hp(q, const, PhasePoint([0, 1, 0], xi)) == 0.0

    def test_hp_equals_directional_derivative_along_flow(self, ik2_fields, rng):
        # hp(psi) must match the finite difference of psi along dx/ds = 2 Q xi
        q, psi0, psi1 = ik2_fields
        for _ in range(10):
            x = np.array([0.1, 1.0, 0.0]) + 0.2 * rng.normal(size=3)
            xi = rng.normal(size=3)
            v = 2.0 * q(x) @ xi
            eps = 1e-6
            fd = (psi1(x + eps * v) - psi1(x - eps * v)) / (2 * eps)
            assert hp(q, psi1, PhasePoint(x, xi)) == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_hp2_curved_surface_value(self, ik2_fields):
        q, _, psi1 = ik2_fields
        xi = np.array([1 / SQ2, 0.0, 1 / SQ2])
        assert hp2(q, psi1, PhasePoint([0, 1, 0], xi)) == pytest.approx(2.0, rel=1e-12)

    def test_hp2_linear_field_vanishes(self, ik2_fields):
        q, psi0, _ = ik2_fields
        for xi in np.eye(3):
            assert hp2(q, psi0, PhasePoint([0, 1, 0], xi)) == pytest.approx(0.0, abs=1e-14)

    def test_hp2_is_quadratic_form(self, ik2_fields, rng):
        q, _, psi1 = ik2_fields
        x = np.array([0.0, 1.0, 0.0])
        for _ in range(10):
            xi = rng.normal(size=3)
            a = rng.uniform(0.1, 3.0)
            v1 = hp2(q, psi1, PhasePoint(x, a * xi))
            v2 = a * a * hp2(q, psi1, PhasePoint(x, xi))
            assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v2))

    def test_hp2_matrix_polarization(self, ik2_fields, rng):
        q, _, psi1 = ik2_fields
        x = np.array([0.05, 1.1, -0.1])
        m = hp2_matrix(q, psi1, x)
        xis = rng.normal(size=(20, 3))
        direct = np.array([hp2(q, psi1, PhasePoint(x, xi)) for xi in xis])
        assert_allclose(quadratic_form_values(m, xis), direct, rtol=1e-10, atol=1e-12)

    def test_bracket_oracle_agreement_variable_metric(self, rng):
        # closed-form assembly vs nested finite-difference bracket
        q = bumpy_wave_metric(2, amp=0.08)
        psi = radial_field()
        for _ in range(8):
            x = np.array([0.0, 1.0, 0.0]) + 0.15 * rng.normal(size=3)
            xi = rng.normal(size=3)
            a = hp2(q, psi, PhasePoint(x, xi))
            b = hp2_bracket(q, psi, PhasePoint(x, xi))
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a))


class TestPullback:
    def test_identity_chart(self, ik2_fields):
        q = ik2_fields[0]
        y = np.array([0.1, 1.0, -0.2])
        identity = Chart(lambda y: Jet.variables(y, 2), lambda x: x.copy())
        assert_allclose(pullback_metric(q, identity, y), q(y), atol=1e-14)

    def test_linear_chart_matches_matrix_identity(self, rng):
        q = constant_metric(np.diag([-1.0, 1.0, 1.0]))
        a = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        chart = linear_chart(a)
        y = rng.normal(size=3)
        expected = np.linalg.inv(a) @ q(y) @ np.linalg.inv(a).T
        assert_allclose(pullback_metric(q, chart, y), expected, atol=1e-12)

    def test_symbol_invariance_under_chart(self, rng):
        q = bumpy_wave_metric(2, amp=0.05)
        a = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
        chart = linear_chart(a)
        for _ in range(5):
            y = 0.3 * rng.normal(size=3)
            eta = rng.normal(size=3)
            xi = np.linalg.solve(a.T, eta)
            x = chart.forward(y)
            lhs = float(xi @ q(x) @ xi)
            qk = pullback_metric(q, chart, y)
            rhs = float(eta @ qk @ eta)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_flattening_chart_kills_corner_entries(self, ik2):
        chart = flattening_chart(ik2, ik2.x0)
        for y in ([0.0, 0.0, 0.0], [0.05, -0.02, 0.1], [-0.1, 0.08, -0.2]):
            qk = pullback_metric(ik2.geometry.Q, chart, np.array(y))
            assert abs(qk[0, 0]) < 1e-8
            assert abs(qk[1, 1]) < 1e-8

    def test_hp2_invariance_on_null_directions(self, ik2, ik2_fields):
        # tangential curvature computed in chart coordinates equals the
        # original value at the transported covector
        q, psi0, psi1 = ik2_fields
        chart = flattening_chart(ik2, ik2.x0)
        qk = pullback_metric_field(q, chart)
        psi1k = pullback_scalar(psi1, chart)
        y0 = chart.inverse(ik2.x0)
        xi = np.array([1 / SQ2, 0.0, 1 / SQ2])
        eta = transport_covector(chart, y0, xi)
        lhs = hp2(qk, psi1k, PhasePoint(y0, eta))
        rhs = hp2(q, psi1, PhasePoint(ik2.x0, xi))
        assert abs(lhs - rhs) <= 2e-5 * max(1.0, abs(rhs))
