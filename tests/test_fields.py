import numpy as np
import pytest
from numpy.testing import assert_allclose

from uccert import (PhasePoint, constant_metric, expression_field,
                    linear_combination, product_field, pullback_scalar,
                    squared_field)
from uccert.errors import ChartError, ContractViolation
from uccert.fields import Chart, Jet, MetricField, ScalarField, power
from uccert.models import bumpy_wave_metric, flattening_chart, ik_model
from uccert.symbols import pullback_metric, pullback_metric_field

from conftest import central_difference, fd_hess, linear_chart


def smooth_test_field():
    """sin(x1) cos(2 x2) + x3^3 with its closed-form gradient and Hessian."""

    def jet(x, order):
        s0, c0 = np.sin(x[..., 0]), np.cos(x[..., 0])
        s1, c1 = np.sin(2 * x[..., 1]), np.cos(2 * x[..., 1])
        value = s0 * c1 + x[..., 2] ** 3
        if order == 0:
            return value
        grad = np.stack([c0 * c1, -2 * s0 * s1, 3 * x[..., 2] ** 2], axis=-1)
        if order == 1:
            return Jet(value, grad)
        h = np.zeros(x.shape + (3,))
        h[..., 0, 0] = -s0 * c1
        h[..., 0, 1] = h[..., 1, 0] = -2 * c0 * s1
        h[..., 1, 1] = -4 * s0 * c1
        h[..., 2, 2] = 6 * x[..., 2]
        return Jet(value, grad, h)

    return ScalarField(jet, name="smooth3")


class TestPhasePoint:
    def test_dim_check(self):
        with pytest.raises(ContractViolation):
            PhasePoint([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_immutable_arrays_coerced(self):
        pp = PhasePoint([1, 2, 3], [0, 1, 0])
        assert pp.dim == 3
        assert pp.x.dtype == float


class TestScalarFieldDerivatives:
    def test_gradient_matches_finite_differences(self, rng):
        f = smooth_test_field()
        for _ in range(10):
            x = rng.normal(size=3)
            assert_allclose(central_difference(f, x), f.grad(x), rtol=1e-6, atol=1e-8)

    def test_hessian_matches_finite_differences(self, rng):
        f = smooth_test_field()
        for _ in range(5):
            x = rng.normal(size=3)
            assert_allclose(fd_hess(f, x), f.hess(x), rtol=2e-4, atol=1e-5)
            assert_allclose(f.hess(x), f.hess(x).T, atol=1e-10)

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
        x = rng.normal(size=3)
        assert_allclose(prod.hess(x), fd_hess(prod, x), rtol=2e-4, atol=1e-5)


class TestMetricField:
    def test_derivative_matches_finite_differences(self, rng):
        q = bumpy_wave_metric(2, amp=0.1)
        for _ in range(5):
            x = rng.normal(size=3) * 0.3
            fd = central_difference(q, x)
            for j in range(3):
                assert_allclose(fd[..., j], q.deriv(x, j), rtol=1e-6, atol=1e-8)

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
            "pullback": (pullback_metric_field(m.geometry.Q, flattening_chart(m, m.x0)), np.zeros(3)),
            "pullback_bumpy": (pullback_metric_field(bumpy, flattening_chart(m, m.x0)), np.zeros(3)),
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
            MetricField(3, lambda x, order: np.eye(2))(np.zeros(3))     # jet of the wrong shape


class TestChart:
    def test_singular_linear_chart_rejected(self):
        chart = linear_chart(np.zeros((2, 2)))
        with pytest.raises(ChartError):
            pullback_metric(constant_metric(np.diag([-1.0, 1.0])), chart, [0.0, 1.0])

    def test_jacobian_and_partials_from_the_jet(self):
        def forward_jet(y):
            u, v = Jet.variables(y, 2)
            return [u * u, v]

        chart = Chart(forward_jet, lambda x: np.array([np.sqrt(x[0]), x[1]]))
        x, jac, djac = chart.jet(np.array([2.0, 1.0]))
        assert np.array_equal(x, [4.0, 1.0]) and np.array_equal(chart.forward([2.0, 1.0]), x)
        assert np.array_equal(jac, [[4.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(chart.jacobian([2.0, 1.0]), jac)
        want = np.zeros((2, 2, 2))
        want[0, 0, 0] = 2.0
        assert np.array_equal(djac, want)
        batch = chart.jet(np.array([[2.0, 1.0], [3.0, -1.0]]))
        assert [part.shape for part in batch] == [(2, 2), (2, 2, 2), (2, 2, 2, 2)]
        assert all(np.array_equal(part[0], point) for part, point in zip(batch, (x, jac, djac)))
        with pytest.raises(ContractViolation):
            chart.jet(np.zeros((1, 1, 2)))

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
        chart = linear_chart(a)
        fk = pullback_scalar(f, chart)
        y = rng.normal(size=3)
        x = chart.forward(y)
        assert fk(y) == pytest.approx(f(x))
        assert_allclose(fk.grad(y), a.T @ f.grad(x), rtol=1e-10)
        assert_allclose(fk.hess(y), a.T @ f.hess(x) @ a, rtol=1e-5, atol=1e-7)

    def test_pullback_scalar_curved_chart(self):
        # a quadratic chart exercises the second-derivative transport term
        def forward_jet(y):
            u, v = Jet.variables(y, 2)
            return [u + 0.3 * v * v, v]

        def quadratic(x, order):
            a, b = Jet.variables(x, order) if order else x.T
            return a * a + a * b

        chart = Chart(forward_jet, lambda x: np.array([x[0] - 0.3 * x[1] ** 2, x[1]]))
        fk = pullback_scalar(ScalarField(quadratic), chart)
        y = np.array([0.4, -0.7])
        assert_allclose(fk.grad(y), central_difference(fk, y), rtol=1e-6, atol=1e-8)
        assert_allclose(fk.hess(y), fd_hess(fk, y), rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("metric", ["wave", "bumpy"])
    def test_pullback_metric_partials_match_finite_differences(self, metric, rng):
        # d_j Q_y from the chain rule against central differences of Q_y; the
        # bumpy metric adds the term of Q's own partials
        m = ik_model(2)
        q = m.geometry.Q if metric == "wave" else bumpy_wave_metric(2, amp=0.1)
        chart = flattening_chart(m, m.x0)
        qk = pullback_metric_field(q, chart)
        for _ in range(4):
            y = rng.uniform(-0.15, 0.15, size=3)
            fd = central_difference(lambda p: pullback_metric(q, chart, p), y)
            value, partials = qk.jet(y, 1)
            assert np.array_equal(value, pullback_metric(q, chart, y))
            assert_allclose(np.moveaxis(fd, -1, 0), partials, rtol=0, atol=1e-7)

    def test_pullback_of_a_point_that_is_not_finite_is_a_chart_error(self, ik2):
        # np.linalg.cond raises LinAlgError on a Jacobian that is not finite,
        # so the finiteness gate comes first, on a point and on a batch
        chart = flattening_chart(ik2, ik2.x0)
        q = ik2.geometry.Q
        bad = np.array([0.1, 0.1, np.inf])
        with pytest.raises(ChartError):
            pullback_metric(q, chart, bad)
        with pytest.raises(ChartError):
            pullback_metric(q, chart, np.stack([np.zeros(3), bad]))
        with pytest.raises(ChartError):
            pullback_metric_field(q, chart).jet(np.array([0.0, np.nan, 0.0]), 1)


def test_power_of_negative_float_is_nan_not_complex():
    # as np.float_power does on arrays; integer exponents keep their sign
    for base in (-0.1, np.float64(-0.1), -2):
        got = power(base, 0.5)
        assert isinstance(got, float) and np.isnan(got)
    with np.errstate(invalid="ignore"):
        assert np.isnan(power(np.array([-0.1]), 0.5)[0])
    assert power(-2.0, 3.0) == -8.0 and power(-2.0, -2.0) == 0.25
    assert power(0.3, 1.7) == 0.3 ** 1.7
