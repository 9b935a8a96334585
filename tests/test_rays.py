import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from uccert import (Jet, PhasePoint, ScalarField, build_psi, certify, constant_metric, contact,
                    hp2, integrate, linear_combination, squared_field)
from uccert.cli import geometry_from_config, main
from uccert.errors import ContractViolation, FitError
from uccert.models import bumpy_wave_metric, get_model
from uccert.rays import DEFAULT_DS, ray_steps

SQ2 = np.sqrt(2.0)
CONTACT_KEYS = ("tangency", "side", "fitted_c2", "predicted_c2", "fitted_c1", "intercept", "rel_error_c2",
                "tol_tan")


def one_ray_contact(Q, psi, x0, xi) -> dict:
    """The contact of the one ray from x0 along xi, at the default step and
    fit window, as a dict of one value per quantity."""
    arrays, _ = contact(integrate(Q, x0, [xi], DEFAULT_DS, ray_steps()[0]), Q, psi)
    return {key: col[0] for key, col in arrays.items()}


class TestIntegrate:
    def test_flat_metric_straight_line(self, ik2):
        q = ik2.geometry.Q
        xi0 = np.array([1 / SQ2, 0.0, 1 / SQ2])
        traj = integrate(q, ik2.x0, [xi0], ds=1e-2, n_steps=50)
        # constant coefficients: x(s) = x0 + 2 s Q xi, xi constant
        v = 2.0 * q(ik2.x0) @ xi0
        for k in traj.launch_index + np.array([-50, -25, -10, 10, 25, 50]):
            assert_allclose(traj.xs[0, k], ik2.x0 + traj.s[k] * v, atol=1e-13)
            assert_allclose(traj.xis[0, k], xi0, atol=1e-14)

    def test_zero_covector_stationary(self, ik2):
        q = ik2.geometry.Q
        traj = integrate(q, ik2.x0, np.zeros((1, 3)), ds=1e-2, n_steps=20)
        assert_allclose(traj.xs, np.tile(ik2.x0, (1, 41, 1)), atol=1e-15)

    def test_invalid_args(self, ik2):
        q = ik2.geometry.Q
        xis = [[1.0, 0.0, 0.0]]
        with pytest.raises(ContractViolation):
            integrate(q, ik2.x0, xis, ds=-1e-3, n_steps=10)
        with pytest.raises(ContractViolation):
            integrate(q, ik2.x0, xis, ds=1e-3, n_steps=0)

    def test_conservation_on_variable_metric(self):
        q = bumpy_wave_metric(2, amp=0.08)
        x0 = np.array([0.0, 1.0, 0.0])
        xi0 = np.array([0.6, -0.3, 0.75])
        traj = integrate(q, x0, [xi0], ds=1e-3, n_steps=1000)
        assert traj.conservation_defect() < 1e-10

    def test_fourth_order_drift_reduction(self):
        # halving the step cuts the symbol drift by at least 8x; the step
        # sizes sit where truncation still dominates rounding
        q = bumpy_wave_metric(2, amp=0.15)
        x0 = np.array([0.05, 1.05, -0.1])
        xi0 = 1.5 * np.array([0.8, 0.45, -0.4])
        drifts = []
        for ds in (5e-2, 2.5e-2):
            traj = integrate(q, x0, [xi0], ds=ds, n_steps=int(round(1.0 / ds)))
            drifts.append(max(traj.conservation_defect(), 1e-17))
        assert drifts[0] / drifts[1] >= 8.0

    def test_null_launch_stays_null(self, ik2, ik2_fields):
        q, _, psi1 = ik2_fields
        qv = bumpy_wave_metric(2, amp=0.05)
        # build an exactly null covector for the variable metric at x0
        a = qv(ik2.x0)
        ev, vec = np.linalg.eigh(a)
        xi = vec[:, 0] / np.sqrt(-ev[0]) + vec[:, -1] / np.sqrt(ev[-1])
        assert abs(float(xi @ a @ xi)) < 1e-10
        traj = integrate(qv, ik2.x0, [xi], ds=1e-3, n_steps=1000)
        assert np.max(np.abs(traj.p_vals)) <= 1e-8

    def test_two_sided_window(self, ik2):
        q = ik2.geometry.Q
        xi0 = np.array([1 / SQ2, 0.0, 1 / SQ2])
        traj = integrate(q, ik2.x0, [xi0], ds=1e-3, n_steps=10)
        assert traj.s[0] == pytest.approx(-0.01)
        assert traj.s[-1] == pytest.approx(0.01)
        assert np.all(np.diff(traj.s) > 0)
        assert traj.s[traj.launch_index] == 0.0
        assert_allclose(traj.xs[0, traj.launch_index], ik2.x0, atol=1e-15)


class TestContact:
    def test_certified_surface_below(self, ik2, ik2_fields):
        q, psi0, psi1 = ik2_fields
        bent = linear_combination([(1.0, psi1), (-2.0, squared_field(psi0))])
        xi = np.array([1 / SQ2, 0.0, 1 / SQ2])
        rep = one_ray_contact(q, bent, ik2.x0, xi)
        assert rep["tangency"]
        assert rep["side"] == "below"
        assert rep["predicted_c2"] == pytest.approx(-3.0, rel=1e-9)
        assert rep["fitted_c2"] == pytest.approx(-3.0, rel=0.05)

    def test_uncorrected_surface_above(self, ik2, ik2_fields):
        q, _, psi1 = ik2_fields
        xi = np.array([1 / SQ2, 0.0, 1 / SQ2])
        rep = one_ray_contact(q, psi1, ik2.x0, xi)
        assert rep["tangency"]
        assert rep["side"] == "above"
        assert rep["fitted_c2"] == pytest.approx(1.0, rel=0.05)

    def test_transversal_ray_crossing(self, ik2, ik2_fields):
        q, psi0, _ = ik2_fields
        xi = np.array([1 / SQ2, 0.0, 1 / SQ2])
        rep = one_ray_contact(q, psi0, ik2.x0, xi)
        assert not rep["tangency"]
        assert rep["side"] == "crossing"

    def test_fit_matches_predicted_second_derivative(self, ik2, ik2_fields):
        # fitted curvature tracks hp2/2 for every constraint direction
        q, psi0, psi1 = ik2_fields
        from uccert import constraint_samples
        bent = linear_combination([(1.0, psi1), (-2.0, squared_field(psi0))])
        for xi in constraint_samples(q, psi1, ik2.x0, 400):
            rep = one_ray_contact(q, bent, ik2.x0, xi)
            pred = 0.5 * hp2(q, bent, PhasePoint(ik2.x0, xi))
            assert rep["fitted_c2"] == pytest.approx(pred, rel=0.05)
            assert rep["side"] == "below"

    def test_linear_slope_matches_hp(self, ik2, ik2_fields):
        # first derivative of psi along the ray equals hp at launch
        from uccert import hp
        q, psi0, _ = ik2_fields
        xi = np.array([1 / SQ2, 0.0, 1 / SQ2])
        traj = integrate(q, ik2.x0, [xi], ds=1e-3, n_steps=52)
        rep = contact(traj, q, psi0, s_fit=0.05)[0]
        assert rep["fitted_c1"][0] == pytest.approx(hp(q, psi0, PhasePoint(ik2.x0, xi)), rel=1e-6)

    def test_launch_off_level_set_rejected(self, ik2, ik2_fields):
        q, _, psi1 = ik2_fields
        xi = np.array([1 / SQ2, 0.0, 1 / SQ2])
        with pytest.raises(ContractViolation):
            one_ray_contact(q, psi1, [0.0, 1.3, 0.0], xi)

    def test_too_few_samples_fit_error(self, ik2, ik2_fields):
        q, _, psi1 = ik2_fields
        xi = np.array([1 / SQ2, 0.0, 1 / SQ2])
        traj = integrate(q, ik2.x0, [xi], ds=0.05, n_steps=1)
        with pytest.raises(FitError):
            contact(traj, q, psi1, s_fit=0.05)


# ---------------------------------------------------------------------------
# the batched march against the per-ray loop it replaced
# ---------------------------------------------------------------------------

def _point_flow(Q, x, xi):
    q, dq = Q.jet(x, 1)
    return 2.0 * q @ xi, -np.vecdot(xi @ dq, xi)


def _point_rk4_step(Q, x, xi, ds):
    k1x, k1p = _point_flow(Q, x, xi)
    k2x, k2p = _point_flow(Q, x + 0.5 * ds * k1x, xi + 0.5 * ds * k1p)
    k3x, k3p = _point_flow(Q, x + 0.5 * ds * k2x, xi + 0.5 * ds * k2p)
    k4x, k4p = _point_flow(Q, x + ds * k3x, xi + ds * k3p)
    xn = x + ds / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
    xin = xi + ds / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return xn, xin


def _point_march(Q, start, ds, n_steps):
    xs, xis = [start.x.copy()], [start.xi.copy()]
    for _ in range(n_steps):
        xn, xin = _point_rk4_step(Q, xs[-1], xis[-1], ds)
        xs.append(xn)
        xis.append(xin)
    return xs, xis


def _point_integrate(Q, start, ds, n_steps):
    """One ray at a time, one point per RK4 stage: the loop before batching."""
    fwd_x, fwd_xi = _point_march(Q, start, ds, n_steps)
    bwd_x, bwd_xi = _point_march(Q, start, -ds, n_steps)
    xs, xis = np.array(bwd_x[:0:-1] + fwd_x), np.array(bwd_xi[:0:-1] + fwd_xi)
    p_vals = np.array([xi @ Q(x) @ xi for x, xi in zip(xs, xis)])
    return -ds * (len(bwd_x) - 1) + ds * np.arange(len(xs)), xs, xis, p_vals


def _wave_matrix(n, rng):
    a = rng.normal(size=(n, n))
    return a.T @ np.diag(np.concatenate([[-1.0], np.ones(n - 1)])) @ a


def test_constant_metric_march_builds_its_jet_views_once(monkeypatch):
    # every RK4 stage reads the same batch shape, so its views are built once
    # (two broadcasts), and the symbol along the rays reads one more shape
    q = constant_metric(np.diag([-1.0, 1.0, 1.0]))
    broadcast, calls = np.broadcast_to, []

    def counted(*args, **kwargs):
        calls.append(args)
        return broadcast(*args, **kwargs)
    monkeypatch.setattr(np, "broadcast_to", counted)
    xis = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]) / SQ2
    rays = integrate(q, [0.0, 1.0, 0.0], xis, 1e-3, 52)
    assert rays.xs.shape == (3, 105, 3) and len(calls) <= 4


class TestBatchedRaysAgainstPointLoop:
    def assert_matches_loop(self, Q, x0, xis, ds, n_steps):
        rays = integrate(Q, x0, xis, ds, n_steps)
        assert rays.p_vals.shape == (len(xis), 2 * n_steps + 1)
        for i, xi in enumerate(xis):
            s, xs, xis_, p_vals = _point_integrate(Q, PhasePoint(x0, xi), ds, n_steps)
            for got, want in ((rays.s, s), (rays.xs[i], xs), (rays.xis[i], xis_)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            # p is u.(Q v) per row; the oracle's (xi @ Q) @ xi on one point is the same sum
            assert rays.p_vals[i].tobytes() == p_vals.tobytes()
        return rays

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["constant", "bumpy"])
    def test_bit_for_bit_on_metrics(self, d, kind):
        rng = np.random.default_rng(d)
        n = d + 1
        q = (constant_metric(_wave_matrix(n, rng)) if kind == "constant"
             else bumpy_wave_metric(d, amp=0.08))
        x0 = np.concatenate([[0.05], np.full(d, 0.3)])
        xis = rng.normal(size=(5, n))
        self.assert_matches_loop(q, x0, xis, 1e-2, 60)

    def test_a_ray_alone_equals_its_row_in_a_batch(self):
        q = bumpy_wave_metric(2, amp=0.08)
        x0, xi = np.array([0.0, 1.0, 0.0]), np.array([0.6, -0.3, 0.75])
        one = integrate(q, x0, [xi], 1e-2, 30)
        batch = integrate(q, x0, [[0.1, 0.2, 0.3], xi], 1e-2, 30)
        assert one.s.tobytes() == batch.s.tobytes()
        for attr in ("xs", "xis", "p_vals"):
            assert getattr(one, attr)[0].tobytes() == getattr(batch, attr)[1].tobytes()

    def test_contract(self, ik2, ik2_fields):
        q, _, psi1 = ik2_fields
        empty = integrate(q, ik2.x0, np.zeros((0, 3)), 1e-2, 5)
        assert empty.xs.shape == (0, 11, 3) and empty.conservation_defect() == 0.0
        arrays, values = contact(empty, q, psi1, s_fit=0.05)
        assert tuple(arrays) == CONTACT_KEYS and values.shape == (0, 11)
        assert all(col.shape == (0,) for col in arrays.values())
        assert arrays["tangency"].dtype == bool and arrays["side"].dtype.kind == "U"
        for x0, xis in ((ik2.x0, np.ones(3)), (ik2.x0, np.ones((2, 2))), (np.ones(2), np.ones((2, 3)))):
            with pytest.raises(ContractViolation):
                integrate(q, x0, xis, 1e-2, 5)


# ---------------------------------------------------------------------------
# the one fit of a batch against one fit per ray
# ---------------------------------------------------------------------------

_BUMPY = {"dim": "3", "metric": "bumpy_wave(2, 0.05)", "phi_plus": "norm(x2, x3) - 1 - x1",
          "phi_minus": "norm(x2, x3) - 1 + x1", "box": "-0.4:0.4, 0.6:1.4, -0.4:0.4", "x0": "0, 1, 0"}


def _rays_case(name):
    """(Q, (bent, psi1), rays) of the rays command at its defaults on a model."""
    model = geometry_from_config(_BUMPY) if name == "bumpy" else get_model(name)
    geo, x0, q = model.geometry, model.x0, model.geometry.Q
    xis = certify(geo, x0, lam=2.0, n=8, seed=0).samples[:8]
    psi0, psi1 = build_psi(geo)
    bent = linear_combination([(1.0, psi1), (-2.0, squared_field(psi0))], name="bent")
    rays = integrate(q, x0, xis, 1e-3, math.ceil(0.05 / 1e-3) + 2)
    return q, (bent, psi1), rays


def _one_ray_contact(rays, i, Q, psi, s_fit):
    """Ray i's fit as a per-ray loop makes it, one polyfit per ray: (coef,
    tangency, side, predicted_c2, tol_tan, psi values)."""
    i0 = rays.launch_index
    x0, xi0 = rays.xs[i, i0], rays.xis[i, i0]
    vals = psi.jet(rays.xs[i], 0)
    window = np.abs(rays.s) <= s_fit + 1e-15
    coef = np.polynomial.polynomial.polyfit(rays.s[window], vals[window], 4)
    tol_tan = 1e-6 * max(np.linalg.norm(psi.grad(x0)) * float(np.linalg.norm(2.0 * Q(x0) @ xi0)), 1e-30)
    tangent = abs(coef[1]) <= tol_tan
    side = "crossing" if not tangent else "below" if coef[2] < 0 else "above"
    return coef, tangent, side, 0.5 * hp2(Q, psi, PhasePoint(x0, xi0)), tol_tan, vals


@pytest.mark.parametrize("name", ["ik2", "ik3", "ik4", "bumpy"])
def test_one_fit_per_batch_equals_one_fit_per_ray(name):
    q, fields, rays = _rays_case(name)
    for psi in fields:
        arrays, values = contact(rays, q, psi, s_fit=0.05)
        assert tuple(arrays) == CONTACT_KEYS
        assert all(col.shape == (len(rays.xs),) for col in arrays.values())
        assert len(values) == len(rays.xs) > 0
        for i in range(len(rays.xs)):
            rep = {key: col[i] for key, col in arrays.items()}
            coef, tangent, side, predicted, tol_tan, vals = _one_ray_contact(rays, i, q, psi, 0.05)
            assert (rep["tangency"], rep["side"]) == (tangent, side)
            assert (rep["predicted_c2"], rep["tol_tan"]) == (predicted, tol_tan)
            assert values[i].tobytes() == vals.tobytes()
            assert_allclose([rep["intercept"], rep["fitted_c1"], rep["fitted_c2"]], coef[:3],
                            rtol=1e-13, atol=1e-15)


def test_rays_report_contacts_are_the_rows_of_the_contact_arrays(tmp_path):
    # ray-major, the bent surface's row before the surface's, each row the
    # arrays' entries at that ray
    q, (bent, psi1), rays = _rays_case("ik3")
    assert main(["rays", "--model", "ik3", "--lambda", "2", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "report.json") as f:
        contacts = json.load(f)["contacts"]
    arrays = {field: contact(rays, q, psi, s_fit=0.05)[0] for field, psi in (("bent", bent), ("surface", psi1))}
    assert [(c["ray"], c["field"]) for c in contacts] == [
        (ray, field) for ray in range(len(rays.xs)) for field in ("bent", "surface")]
    for c in contacts:
        assert c == {"ray": c["ray"], "field": c["field"],
                     **{key: col[c["ray"]].item() for key, col in arrays[c["field"]].items()}}


def _linear_field(a, c=0.0):
    """x -> a . x + c."""
    a = np.asarray(a, dtype=float)

    def jet(x, order):
        value = x @ a + c
        if order == 0:
            return value
        return Jet(value, np.broadcast_to(a, x.shape), np.zeros(x.shape + a.shape) if order == 2 else None)
    return ScalarField(jet, name="linear")


class TestContactGateThresholds:
    """A value on each side of every threshold of the contact classification."""

    @pytest.mark.parametrize("factor, launches", [(9.0, True), (11.0, False)])
    def test_launch_on_the_level_set(self, factor, launches):
        # |psi(x0)| is checked against 10 times tol_zero
        q = constant_metric(np.diag([-1.0, 1.0, 1.0]))
        rays = integrate(q, np.zeros(3), [[1.0, 1.0, 0.0]], 1e-3, 52)
        psi = _linear_field([0.0, 0.0, 1.0], factor * 1e-10)
        if launches:
            assert contact(rays, q, psi, tol_zero=1e-10)[0]["tangency"][0]
        else:
            with pytest.raises(ContractViolation, match="launch on the level set"):
                contact(rays, q, psi, tol_zero=1e-10)

    @pytest.mark.parametrize("factor, tangent", [(0.9, True), (1.1, False)])
    def test_tangency(self, factor, tangent):
        # on a constant metric the ray is the line s -> 2 s Q xi and psi = a . x
        # is linear along it, with slope 2 a . Q xi = |a| |2 Q xi| cos(angle),
        # which the fit reads exactly; tol_tan is 1e-6 |a| |2 Q xi|
        q = constant_metric(np.diag([-1.0, 1.0, 1.0]))
        rays = integrate(q, np.zeros(3), [[0.0, 1.0, 0.0]], 1e-3, 52)     # 2 Q xi = (0, 2, 0)
        t = factor * 1e-6
        rep = contact(rays, q, _linear_field([1.0, t / math.sqrt(1.0 - t * t), 0.0]))[0]
        assert rep["fitted_c1"][0] / rep["tol_tan"][0] == pytest.approx(factor, rel=1e-6)
        assert rep["tangency"].tolist() == [tangent] and (rep["side"][0] == "crossing") != tangent
