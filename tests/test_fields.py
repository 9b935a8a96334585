import numpy as np
import pytest
from numpy.testing import assert_allclose

from uccert import (PhasePoint, constant_metric, expression_field,
                    linear_combination, product_field, pullback_scalar,
                    squared_field)
from uccert.errors import ChartError, ContractViolation
from uccert.fields import Chart, MetricField, ScalarField, power
from uccert.models import bumpy_wave_metric, flattening_chart, ik_model
from uccert.symbols import pullback_metric, pullback_metric_field


def smooth_test_field():
    def ev(x):
        return np.sin(x[0]) * np.cos(2 * x[1]) + x[2] ** 3

    def gr(x):
        return np.array([np.cos(x[0]) * np.cos(2 * x[1]),
                         -2 * np.sin(x[0]) * np.sin(2 * x[1]),
                         3 * x[2] ** 2])

    def he(x):
        h = np.zeros((3, 3))
        h[0, 0] = -np.sin(x[0]) * np.cos(2 * x[1])
        h[0, 1] = h[1, 0] = -2 * np.cos(x[0]) * np.sin(2 * x[1])
        h[1, 1] = -4 * np.sin(x[0]) * np.cos(2 * x[1])
        h[2, 2] = 6 * x[2]
        return h

    return ScalarField(ev, gr, he, name="smooth3")


class TestPhasePoint:
    def test_dim_check(self):
        with pytest.raises(ContractViolation):
            PhasePoint([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_immutable_arrays_coerced(self):
        pp = PhasePoint([1, 2, 3], [0, 1, 0])
        assert pp.dim == 3
        assert pp.x.dtype == float


class TestScalarFieldFallbacks:
    def test_fd_gradient_matches_analytic(self, rng):
        f = smooth_test_field()
        bare = ScalarField(f)
        for _ in range(10):
            x = rng.normal(size=3)
            assert_allclose(bare.grad(x), f.grad(x), rtol=1e-6, atol=1e-8)

    def test_fd_hessian_matches_analytic(self, rng):
        f = smooth_test_field()
        bare = ScalarField(f)
        for _ in range(5):
            x = rng.normal(size=3)
            assert_allclose(bare.hess(x), f.hess(x), rtol=2e-4, atol=1e-5)
            assert_allclose(bare.hess(x), bare.hess(x).T, atol=1e-10)

    def test_combinators(self, rng):
        f = smooth_test_field()
        g = expression_field("x1", 3)
        combo = linear_combination([(2.0, f), (-1.5, g)])
        prod = product_field(f, g)
        sq = squared_field(f)
        x = rng.normal(size=3)
        assert combo(x) == pytest.approx(2 * f(x) - 1.5 * x[0])
        assert_allclose(combo.grad(x), 2 * f.grad(x) - 1.5 * g.grad(x))
        assert prod(x) == pytest.approx(f(x) * x[0])
        assert_allclose(prod.grad(x), f(x) * g.grad(x) + x[0] * f.grad(x))
        assert_allclose(sq.hess(x),
                        2 * np.outer(f.grad(x), f.grad(x)) + 2 * f(x) * f.hess(x))

    def test_product_hessian_against_fd(self, rng):
        f = smooth_test_field()
        g = expression_field("x2", 3)
        prod = product_field(f, g)
        bare = ScalarField(prod)
        x = rng.normal(size=3)
        assert_allclose(prod.hess(x), bare.hess(x), rtol=2e-4, atol=1e-5)


class TestMetricField:
    def test_fd_derivative_matches_analytic(self, rng):
        q = bumpy_wave_metric(2, amp=0.1)
        q_fd = MetricField(3, q)
        assert not q_fd.analytic
        for _ in range(5):
            x = rng.normal(size=3) * 0.3
            for j in range(3):
                assert_allclose(q_fd.deriv(x, j), q.deriv(x, j), rtol=1e-6, atol=1e-8)

    def test_domain_box(self):
        box = np.array([[-1, 1], [-1, 1]], dtype=float)
        q = constant_metric(np.diag([-1.0, 1.0]), domain_box=box)
        assert q.in_domain([0.0, 0.0])
        assert not q.in_domain([0.0, 1.5])
        batch = np.array([[0.0, 0.0], [0.0, 1.5], [-1.0, 1.0], [np.nan, 0.0]])
        assert q.in_domain(batch).tolist() == [q.in_domain(x) for x in batch] == [True, False, True, False]
        assert constant_metric(np.diag([-1.0, 1.0])).in_domain(batch).all()


def _metric_cases():
    bumpy = bumpy_wave_metric(2, amp=0.1)
    m = ik_model(2)
    return {"constant": (constant_metric(np.diag([-1.0, 1.0, 1.0])), m.x0),
            "supplied": (MetricField(3, bumpy, bumpy.deriv), m.x0),
            "finite_difference": (MetricField(3, bumpy), m.x0),
            "pullback": (pullback_metric_field(m.geometry.Q, flattening_chart(m, m.x0)), np.zeros(3)),
            "bumpy": (bumpy, m.x0)}


METRICS = _metric_cases()


class TestMetricJet:
    """A batch jet is the stack of the point jets, bit for bit, for every kind of
    metric, the bumpy one included (its W(x) is one vector-matrix product per row)."""

    @pytest.mark.parametrize("name", sorted(METRICS))
    @pytest.mark.parametrize("k", [0, 1, 6])
    def test_batch_equals_stacked_point_jets(self, name, k, rng):
        q, centre = METRICS[name]
        xs = centre + 0.05 * rng.normal(size=(k, 3))
        q0 = q.jet(xs, 0)
        q1, dq1 = q.jet(xs, 1)
        assert q0.shape == q1.shape == (k, 3, 3) and dq1.shape == (k, 3, 3, 3)
        points = [q.jet(x, 1) for x in xs]
        assert np.array_equal(q0, np.reshape([q.jet(x, 0) for x in xs], (k, 3, 3)))
        assert np.array_equal(q1, np.reshape([p[0] for p in points], (k, 3, 3)))
        assert np.array_equal(dq1, np.reshape([p[1] for p in points], (k, 3, 3, 3)))

    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_call_and_deriv_read_the_jet(self, name, rng):
        q, centre = METRICS[name]
        x = centre + 0.05 * rng.normal(size=3)
        value, partials = q.jet(x, 1)
        assert np.array_equal(q(x), value)
        for j in range(3):
            assert np.array_equal(q.deriv(x, j), partials[j])

    def test_constant_jets_are_read_only_views(self):
        q, centre = METRICS["constant"]
        value, partials = q.jet(np.stack([centre, centre]), 1)
        assert not value.flags.writeable and not np.any(partials)

    def test_contract(self):
        q, _ = METRICS["bumpy"]
        with pytest.raises(ContractViolation):
            q.jet(np.zeros(2), 0)                 # wrong dimension
        with pytest.raises(ContractViolation):
            q.jet(np.zeros(3), 2)                 # no second order
        with pytest.raises(ContractViolation):
            MetricField(3, lambda x: np.eye(2))(np.zeros(3))     # supplier of the wrong shape


class TestChart:
    def test_singular_linear_chart_rejected(self):
        a = np.zeros((2, 2))
        chart = Chart(lambda y: a @ y, lambda x: x, lambda y: a)
        with pytest.raises(ChartError):
            pullback_metric(constant_metric(np.diag([-1.0, 1.0])), chart, [0.0, 1.0])

    def test_fd_jacobian(self):
        chart = Chart(lambda y: np.array([y[0] ** 2, y[1]]),
                      lambda x: np.array([np.sqrt(x[0]), x[1]]))
        jac = chart.jacobian(np.array([2.0, 1.0]))
        assert_allclose(jac, np.array([[4.0, 0.0], [0.0, 1.0]]), rtol=1e-7)

    def test_flattening_chart_roundtrip(self):
        m = ik_model(2)
        chart = flattening_chart(m, m.x0)
        for y in ([0.0, 0.0, 0.0], [0.1, -0.05, 0.2], [-0.07, 0.12, -0.3]):
            y = np.array(y)
            assert np.max(np.abs(chart.inverse(chart.forward(y)) - y)) < 1e-8
            x = chart.forward(y)
            # x-side roundtrip and the defining property of the first two
            # coordinates
            assert np.max(np.abs(chart.forward(chart.inverse(x)) - x)) < 1e-8
            assert m.geometry.phi_plus(x) == pytest.approx(y[0], abs=1e-12)
            assert m.geometry.phi_minus(x) == pytest.approx(y[1], abs=1e-12)

    def test_pullback_scalar_chain_rule(self, rng):
        f = smooth_test_field()
        a = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
        chart = Chart(lambda y: a @ y, lambda x: np.linalg.solve(a, x), lambda y: a)
        fk = pullback_scalar(f, chart)
        y = rng.normal(size=3)
        x = chart.forward(y)
        assert fk(y) == pytest.approx(f(x))
        assert_allclose(fk.grad(y), a.T @ f.grad(x), rtol=1e-10)
        assert_allclose(fk.hess(y), a.T @ f.hess(x) @ a, rtol=1e-5, atol=1e-7)

    def test_pullback_scalar_curved_chart(self):
        # quadratic chart exercises the second-derivative transport term
        def fwd(y):
            return np.array([y[0] + 0.3 * y[1] ** 2, y[1]])

        def inv(x):
            return np.array([x[0] - 0.3 * x[1] ** 2, x[1]])

        chart = Chart(fwd, inv)
        f = ScalarField(lambda x: x[0] ** 2 + x[0] * x[1],
                        lambda x: np.array([2 * x[0] + x[1], x[0]]),
                        lambda x: np.array([[2.0, 1.0], [1.0, 0.0]]))
        fk = pullback_scalar(f, chart)
        fk_fd = ScalarField(fk)
        y = np.array([0.4, -0.7])
        assert_allclose(fk.grad(y), fk_fd.grad(y), rtol=1e-6, atol=1e-8)
        assert_allclose(fk.hess(y), fk_fd.hess(y), rtol=1e-4, atol=1e-5)


def test_power_of_negative_float_is_nan_not_complex():
    # as np.float_power does on arrays; integer exponents keep their sign
    for base in (-0.1, np.float64(-0.1), -2):
        got = power(base, 0.5)
        assert isinstance(got, float) and np.isnan(got)
    with np.errstate(invalid="ignore"):
        assert np.isnan(power(np.array([-0.1]), 0.5)[0])
    assert power(-2.0, 3.0) == -8.0 and power(-2.0, -2.0) == 0.25
    assert power(0.3, 1.7) == 0.3 ** 1.7
