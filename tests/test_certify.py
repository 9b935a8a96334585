import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uccert import (PhasePoint, build_psi, certify, certify_fields, compute_lambda0,
                    compute_m0, constant_metric, constraint_samples, hp, hp2,
                    hp2_matrix, linear_combination, squared_field,
                    unit_sphere_seeds)
from uccert.certify import (EPS, KEY_IDENTITY_RTOL, _hyperplane, _null_cone_max, _pinned_metric,
                            _pinned_scalar, _two_line_max, null_cone_max)
from uccert.cli import _sample_table
from uccert.errors import (ContractViolation, DegenerateConstraintSet, InternalInconsistency,
                           NondegeneracyViolation)
from uccert.expressions import expression_field
from uccert.fields import Jet, MetricField, ScalarField, pullback_scalar
from uccert.hypotheses import DEFAULT_TOL_POS, GeometrySpec, sample_surface
from uccert.models import bumpy_wave_metric, flattening_chart, get_model, ik_model
from uccert.symbols import hp2_bracket, pullback_metric_field, quadratic_form_values

SQ2 = np.sqrt(2.0)


def brute_force_scan(Q, psi0, psi1, x0, n=10 ** 6, band=1e-3, seed=99):
    """Independent oracle: dense unit-sphere scan.

    Returns the scan maximum of the surface curvature form over the whole
    sphere and the scan minimum of |hp(psi0)| over the near-constraint band.
    Band membership uses |p| and |hp(psi1)| below ``band``; the minimum is
    then accurate to O(band) only, which is the price of independence.
    """
    a = Q(x0)
    xis = unit_sphere_seeds(n, Q.dim, seed=seed)
    p_vals = np.einsum("ki,ij,kj->k", xis, a, xis)
    b1 = 2.0 * a @ psi1.grad(x0)
    b0 = 2.0 * a @ psi0.grad(x0)
    m_surf = hp2_matrix(Q, psi1, x0)
    hp2_vals = quadratic_form_values(m_surf, xis)
    in_band = (np.abs(p_vals) <= band) & (np.abs(xis @ b1) <= band)
    drift = np.abs(xis[in_band] @ b0)
    return float(np.max(hp2_vals)), (float(np.min(drift)) if in_band.any() else np.inf)


class TestConstraintSamples:
    def test_model_clusters_at_four_sign_combos(self, ik2, ik2_fields):
        q, psi0, psi1 = ik2_fields
        samples = constraint_samples(q, psi1, ik2.x0, 2000)
        assert len(samples) == 4
        got = sorted(tuple(np.round(xi / (1 / SQ2)).astype(int)) for xi in samples)
        assert got == [(-1, 0, -1), (-1, 0, 1), (1, 0, -1), (1, 0, 1)]

    def test_residuals_below_eps(self, ik2, ik2_fields):
        q, _, psi1 = ik2_fields
        a = q(ik2.x0)
        b1 = 2.0 * a @ psi1.grad(ik2.x0)
        for xi in constraint_samples(q, psi1, ik2.x0, 500):
            assert abs(xi @ a @ xi) <= 1e-10
            assert abs(xi @ b1) <= 1e-10
            assert abs(np.linalg.norm(xi) - 1.0) <= 1e-12

    def test_zero_request_empty(self, ik2, ik2_fields):
        q, _, psi1 = ik2_fields
        assert constraint_samples(q, psi1, ik2.x0, 0).tolist() == []

    def test_characteristic_base_surface_rejected(self, ik2, ik2_fields):
        q, psi0, _ = ik2_fields
        with pytest.raises(ContractViolation):
            constraint_samples(q, psi0, ik2.x0, 100)

    def test_degenerate_set_detected(self):
        # elliptic coefficient matrix: the null cone is trivial
        q = constant_metric(np.eye(3))
        m = ik_model(2)
        _, psi1 = build_psi(m.geometry)
        with pytest.raises(DegenerateConstraintSet):
            constraint_samples(q, psi1, m.x0, 200)


class TestM0Lambda0:
    def test_m0_closed_form_d2(self, ik2, ik2_fields):
        q, psi0, psi1 = ik2_fields
        assert compute_m0(q, psi0, psi1, ik2.x0) == pytest.approx(SQ2, abs=1e-6)

    def test_m0_closed_form_d3(self, ik3):
        q = ik3.geometry.Q
        psi0, psi1 = build_psi(ik3.geometry)
        assert compute_m0(q, psi0, psi1, ik3.x0) == pytest.approx(SQ2, abs=1e-6)

    def test_m0_scales_linearly_in_metric(self, ik2, ik2_fields):
        q, psi0, psi1 = ik2_fields
        q2 = constant_metric(2.0 * q(ik2.x0))
        m1 = compute_m0(q, psi0, psi1, ik2.x0)
        m2 = compute_m0(q2, psi0, psi1, ik2.x0)
        assert m2 == pytest.approx(2.0 * m1, rel=1e-9)

    def test_m0_degenerate_inputs_flagged(self, ik2, ik2_fields):
        q, psi0, psi1 = ik2_fields
        # psi1 in place of psi0: the drift vanishes on the constraint set
        with pytest.raises(NondegeneracyViolation):
            compute_m0(q, psi1, psi1, ik2.x0)

    def test_lambda0_closed_form(self, ik2, ik2_fields):
        q, psi0, psi1 = ik2_fields
        m0 = compute_m0(q, psi0, psi1, ik2.x0)
        assert compute_lambda0(q, psi1, ik2.x0, m0) == pytest.approx(1.0, abs=1e-3)

    def test_lambda0_linear_surface_nonpositive(self, ik2, ik2_fields):
        q, psi0, _ = ik2_fields
        linear = expression_field("x2", 3)
        assert compute_lambda0(q, linear, ik2.x0, m0=1.0) <= 0.0


class TestCertify:
    def test_model_lambda_2(self, ik2):
        cert = certify(ik2.geometry, ik2.x0, lam=2.0)
        assert cert.status == "certified"
        assert cert.m0 == pytest.approx(SQ2, abs=1e-6)
        assert cert.lambda0 == pytest.approx(1.0, abs=1e-3)
        assert cert.worst_margin == pytest.approx(-6.0, abs=1e-3)
        assert cert.route_disagreement <= 1e-6

    def test_model_lambda_small_fails(self, ik2):
        cert = certify(ik2.geometry, ik2.x0, lam=0.5)
        assert cert.status == "failed"
        assert cert.worst_margin == pytest.approx(2.0 - 2.0 * 0.5 * 2.0, abs=1e-3)

    def test_model_lambda_just_above_threshold(self, ik2):
        cert = certify(ik2.geometry, ik2.x0, lam=1.01)
        assert cert.status == "certified"
        assert cert.worst_margin == pytest.approx(2.0 - 4.04, abs=1e-3)

    def test_lambda_default_choice(self, ik2):
        cert = certify(ik2.geometry, ik2.x0)
        assert cert.status == "certified"
        assert cert.lambda_used == pytest.approx(2.0 * cert.lambda0 + 1.0)

    def test_margin_monotone_in_lambda(self, ik2):
        margins = [certify(ik2.geometry, ik2.x0, lam=lam).worst_margin
                   for lam in (0.5, 1.0, 2.0, 4.0)]
        assert all(m2 < m1 for m1, m2 in zip(margins, margins[1:]))

    def test_scale_invariance_of_certificate_data(self, ik2, ik2_fields):
        # replacing psi0 by c*psi0 rescales m0 by c and lambda0 by 1/c^2, and
        # certify at lam matches certify at lam/c^2 for the scaled field
        q, psi0, psi1 = ik2_fields
        c = 3.0
        psi0c = linear_combination([(c, psi0)])
        cert = certify_fields(q, psi0, psi1, ik2.x0, lam=2.0)
        certc = certify_fields(q, psi0c, psi1, ik2.x0, lam=2.0 / c ** 2)
        assert certc.m0 == pytest.approx(c * cert.m0, rel=1e-9)
        assert certc.lambda0 == pytest.approx(cert.lambda0 / c ** 2, rel=1e-6)
        assert certc.status == cert.status
        assert certc.worst_margin == pytest.approx(cert.worst_margin, rel=1e-6)

    def test_degenerate_status_for_timelike_base(self, ik2, ik2_fields):
        q, psi0, psi1 = ik2_fields
        cert = certify_fields(q, psi1, psi0, ik2.x0, lam=2.0)
        assert cert.status == "degenerate"

    def test_brute_force_oracle_agreement(self, ik2, ik2_fields):
        # the constraint set is four isolated directions, so the scan band
        # must match the 1e6-point density for the band to be populated
        q, psi0, psi1 = ik2_fields
        cert = certify(ik2.geometry, ik2.x0, lam=2.0)
        scan_max, scan_m0 = brute_force_scan(q, psi0, psi1, ik2.x0, n=10 ** 6, band=3e-3)
        assert scan_max == pytest.approx(4.0, abs=1e-3)
        assert abs(scan_m0 - cert.m0) <= 5e-3

    def test_variable_metric_route_agreement(self):
        # margin via the algebraic reduction and via the direct second
        # derivative of the bent field, on a genuinely variable metric
        q = bumpy_wave_metric(2, amp=0.06)
        m = ik_model(2)
        psi0, psi1 = build_psi(m.geometry)
        cert = certify_fields(q, psi0, psi1, m.x0, lam=2.0, n=800)
        assert cert.route_disagreement <= 1e-6
        assert cert.n_samples >= 1


def _rows_per_sample(cert):
    """The per-sample rows that the array table of ``constraint_samples.csv`` replaced."""
    return [list(map(float, xi)) + [float(rp), float(rh), float(m), float(md)]
            for xi, rp, rh, m, md in zip(cert.samples, cert.res_p, cert.res_hp,
                                         cert.margins, cert.margins_direct)]


def _bumpy_config_geometry():
    """The bumpy-metric cone pair of the example config, certified at (0, 1, 0)."""
    return GeometrySpec(bumpy_wave_metric(2, 0.05),
                        expression_field("norm(x2, x3) - 1 - x1", 3),
                        expression_field("norm(x2, x3) - 1 + x1", 3),
                        box=np.array([[-0.4, 0.4], [0.6, 1.4], [-0.4, 0.4]]))


class TestSampleRows:
    @pytest.mark.parametrize("name", ["ik2", "ik3", "ik4", "bumpy"])
    def test_rows_match_the_per_sample_builder_bit_for_bit(self, name):
        if name == "bumpy":
            geo, x0 = _bumpy_config_geometry(), np.array([0.0, 1.0, 0.0])
        else:
            m = ik_model(int(name[2:]))
            geo, x0 = m.geometry, m.x0
        cert = certify(geo, x0, lam=2.0, seed=3)
        assert cert.status == "certified"
        a = geo.Q(x0)
        b1 = 2.0 * a @ build_psi(geo)[1].grad(x0)
        assert _bits(cert.res_p) == _bits(np.abs(quadratic_form_values(a, cert.samples)))
        assert _bits(cert.res_hp) == _bits(np.abs(cert.samples @ b1))
        table = _sample_table(cert)
        want = _rows_per_sample(cert)
        assert table.shape == (cert.n_samples, geo.dim + 4) and cert.n_samples == len(cert.samples) > 0
        assert table.dtype == np.float64
        assert _bits(table) == _bits(want)

    def test_degenerate_certificate_has_no_rows(self, ik2, ik2_fields):
        q, psi0, psi1 = ik2_fields
        cert = certify_fields(q, psi1, psi0, ik2.x0, lam=2.0)
        assert cert.status == "degenerate"
        assert len(_sample_table(cert)) == 0


class TestSoundnessGates:
    def test_base_point_off_the_surfaces_is_degenerate(self, ik2):
        cert = certify(ik2.geometry, [0.2, 1.3, 0.0], lam=2.0)
        assert cert.status == "degenerate"
        assert cert.notes["gate"] == ["on_surfaces"]
        assert cert.notes["on_surfaces"]["max_abs_phi"] == pytest.approx(0.5)
        assert cert.notes["on_surfaces"]["tol_zero"] == ik2.geometry.tol_zero

    def test_singular_jet_is_degenerate(self):
        # both cones of the vertex pair pass through x0 = 0, where |y| has no gradient
        geo = GeometrySpec(constant_metric(np.diag([-1.0, 1.0, 1.0])),
                           expression_field("norm(x2, x3) - x1", 3),
                           expression_field("norm(x2, x3) + x1", 3),
                           box=np.array([[-0.4, 0.4]] * 3))
        cert = certify(geo, [0.0, 0.0, 0.0], lam=2.0)
        assert cert.status == "degenerate"
        assert cert.notes["gate"] == ["jet"]
        assert cert.notes["jet"]["jet"] == "dphi_plus"

    def test_failed_certificate_names_the_lambda_threshold(self, ik2):
        cert = certify(ik2.geometry, ik2.x0, lam=1.0)
        assert cert.status == "failed"
        assert cert.worst_margin == pytest.approx(-2.0, abs=1e-9)
        assert cert.notes["gate"] == ["lambda_threshold"]
        assert cert.notes["lambda_threshold"] == {"lambda_used": 1.0, "lambda0": cert.lambda0}

    def test_failed_certificate_names_every_tripped_gate(self, ik2):
        cert = certify(ik2.geometry, ik2.x0, lam=0.5)
        assert cert.notes["gate"] == ["margin", "lambda_threshold"]
        assert cert.notes["margin"]["worst_margin"] == cert.worst_margin
        assert cert.notes["margin"]["required_below"] == -1e-6

    def test_certified_has_no_gate(self, ik2):
        assert "gate" not in certify(ik2.geometry, ik2.x0, lam=2.0).notes

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("lam, quantity", [(1e307, "worst_margin"), (1e308, "margins")])
    def test_overflow_names_the_arithmetic_gate(self, d, lam, quantity):
        # at 1e307 the margins are finite but the null-cone maximum is not
        # (ik2: its rounding allowance; ik3: the bisection's shifted forms); at
        # 1e308 the margins overflow.  Warnings are errors here, so none is
        # raised, and the report holds finite numbers only
        m = ik_model(d)
        cert = certify(m.geometry, m.x0, lam=lam)
        assert cert.status == "degenerate" and cert.notes["gate"] == ["arithmetic"]
        assert cert.notes["arithmetic"] == {"lambda_used": lam, "quantity": quantity}
        json.dumps(cert.to_dict(), allow_nan=False)

    def test_huge_finite_margins_stay_certified(self, ik2):
        cert = certify(ik2.geometry, ik2.x0, lam=1e300)
        assert cert.status == "certified"
        assert cert.worst_margin == pytest.approx(-4e300, rel=1e-12)

    @pytest.mark.xfail(strict=True, reason="certify has no characteristic gate: ctrl-a's phi_minus "
                                           "has unit-normalized residual 0.6 at x0")
    def test_non_characteristic_pair_is_not_certified(self):
        ctrl_a = get_model("ctrl-a")
        assert certify(ctrl_a.geometry, ctrl_a.x0, lam=2.0).status != "certified"


class TestGateThresholds:
    """Each certify gate on both sides of its threshold: an input 10x past
    it trips the gate, and one at 0.1x of it does not (lambda_threshold: at it,
    and one double above it)."""

    ONE = expression_field("1", 3)
    # zero value and gradient at ik2's x0 = (0, 1, 0), and hp2 nonzero there
    BOWL = expression_field("x1^2 + (x2 - 1)^2 + x3^2", 3)

    @pytest.mark.parametrize("scale, degenerate", [(10.0, True), (0.1, False)])
    def test_on_surfaces(self, ik2, scale, degenerate):
        geo = ik2.geometry
        off = scale * geo.tol_zero
        shifted = replace(geo, phi_plus=linear_combination([(1.0, geo.phi_plus), (off, self.ONE)]))
        cert = certify(shifted, ik2.x0, lam=2.0)
        if degenerate:
            assert cert.status == "degenerate" and cert.notes["gate"] == ["on_surfaces"]
            assert cert.notes["on_surfaces"]["max_abs_phi"] == pytest.approx(off, rel=1e-6)
        else:
            assert cert.status == "certified"

    @pytest.mark.parametrize("scale, degenerate", [(10.0, False), (0.1, True)])
    def test_space_like_base(self, ik2, ik2_fields, scale, degenerate):
        # ik2 has <Q dpsi1, dpsi1> = 1 at x0, so sqrt(s) psi1 has s there
        q, psi0, psi1 = ik2_fields
        target = scale * DEFAULT_TOL_POS
        cert = certify_fields(q, psi0, linear_combination([(math.sqrt(target), psi1)]), ik2.x0, lam=2.0)
        if degenerate:
            assert cert.status == "degenerate" and cert.notes["gate"] == ["space_like_base"]
            assert cert.notes["space_like_base"]["q_dpsi1_dpsi1"] == pytest.approx(target, rel=1e-9)
            assert cert.notes["space_like_base"]["tol_pos"] == DEFAULT_TOL_POS
        else:
            assert cert.status != "degenerate"

    def test_lambda_threshold_is_strict(self, ik2):
        # lambda0 does not depend on lam: lam = lambda0 fails, the next double passes
        lambda0 = certify(ik2.geometry, ik2.x0, lam=2.0).lambda0
        at = certify(ik2.geometry, ik2.x0, lam=lambda0)
        assert at.status == "failed" and at.notes["gate"] == ["lambda_threshold"]
        above = certify(ik2.geometry, ik2.x0, lam=float(np.nextafter(lambda0, np.inf)))
        assert above.status == "certified" and above.lambda0 == lambda0

    def test_route_disagreement_above_its_tolerance_raises(self, ik2, ik2_fields):
        # psi0 = c at x0 adds -2 lam c hp2(psi0) to the direct route only:
        # about 4.6 c relative on ik2 with the bowl, so c = 7e-6 puts the
        # disagreement between KEY_IDENTITY_RTOL and 1000 times it
        q, psi0, psi1 = ik2_fields
        off_base = linear_combination([(1.0, psi0), (7e-6, self.ONE), (1.0, self.BOWL)])
        with pytest.raises(InternalInconsistency) as info:
            certify_fields(q, off_base, psi1, ik2.x0, lam=2.0)
        disagreement = float(re.search(r"disagree by (\S+) relative", str(info.value)).group(1))
        assert KEY_IDENTITY_RTOL < disagreement < 1000.0 * KEY_IDENTITY_RTOL

    def test_consistent_routes_do_not_raise(self, ik2, ik2_fields):
        q, psi0, psi1 = ik2_fields
        on_base = linear_combination([(1.0, psi0), (1.0, self.BOWL)])
        cert = certify_fields(q, on_base, psi1, ik2.x0, lam=2.0)
        assert cert.status == "certified" and cert.route_disagreement <= KEY_IDENTITY_RTOL


class TestExactNullCone:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("lam, margin", [(2.0, -6.0), (1.0, -2.0), (0.5, 0.0)])
    def test_model_constants_to_1e_9(self, d, lam, margin):
        m = ik_model(d)
        cert = certify(m.geometry, m.x0, lam=lam)
        assert abs(cert.m0 - SQ2) <= 1e-9
        assert abs(cert.lambda0 - 1.0) <= 1e-9
        assert abs(cert.worst_margin - margin) <= 1e-9

    def test_listed_directions_are_exact(self, ik3):
        q = ik3.geometry.Q
        _, psi1 = build_psi(ik3.geometry)
        samples = constraint_samples(q, psi1, ik3.x0, 300)
        a = q(ik3.x0)
        b1 = 2.0 * a @ psi1.grad(ik3.x0)
        assert len(samples) == 300
        assert max(max(abs(xi @ a @ xi), abs(xi @ b1)) for xi in samples) <= 1e-14

    def test_empty_set_and_kernel(self):
        a = np.diag([-1.0, 1.0, 1.0])
        m = np.diag([3.0, 2.0, 1.0])
        # time-like normal: the hyperplane is space-like, no null direction
        assert null_cone_max(m, a, np.array([1.0, 0.0, 0.0])) is None
        # null normal: the restricted symbol is semidefinite, the set its kernel
        value, witness = null_cone_max(m, a, np.array([1.0, 1.0, 0.0]))
        assert value == pytest.approx(2.5)
        assert abs(witness @ a @ witness) <= 1e-12

    def test_calderon_fails_on_a_characteristic_surface(self, ik2):
        # dphi_plus is null, so the symbol restricted to the zero set of
        # hp(phi_plus) = b . xi is singular semidefinite: hp vanishes on its kernel
        q = ik2.geometry.Q
        a = q(ik2.x0)
        b = 2.0 * a @ ik2.geometry.phi_plus.grad(ik2.x0)
        found = null_cone_max(np.zeros_like(a), a, b)
        assert found is not None
        wit = found[1]
        assert abs(wit @ a @ wit) <= 1e-10
        assert abs(hp(q, ik2.geometry.phi_plus, PhasePoint(ik2.x0, wit))) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_three_dimensional_maximum_matches_closed_form(self, seed):
        # in R^3 the set is two antipodal pairs, found by solving a quadratic
        rng = np.random.default_rng(seed)
        ell = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        a = ell.T @ np.diag([-1.0, 1.0, 1.0]) @ ell
        m = rng.standard_normal((3, 3))
        m = m + m.T
        b = rng.standard_normal(3)
        basis = np.linalg.qr(np.column_stack([b, np.eye(3)]))[0][:, 1:3].T
        (p, q), (_, r) = basis @ a @ basis.T
        found = null_cone_max(m, a, b)
        if q * q - p * r <= 1e-9 * max(1.0, p * p + r * r):
            assert found is None or abs(q * q - p * r) <= 1e-6
            return
        ys = [np.array([1.0, s]) for s in np.roots([r, 2.0 * q, p]).real] if abs(r) > 1e-9 else \
            [np.array([0.0, 1.0]), np.array([2.0 * q, -p])]
        best = max(y @ basis @ m @ basis.T @ y / (y @ y) for y in ys)
        value, witness = found
        scale = 1.0 + np.max(np.abs(np.linalg.eigvalsh(m)))
        assert value == pytest.approx(best, abs=1e-9 * scale)
        assert abs(np.linalg.norm(witness) - 1.0) <= 1e-12
        assert abs(witness @ a @ witness) <= 1e-9 * np.max(np.abs(a))
        assert abs(witness @ b) <= 1e-12 * np.linalg.norm(b)
        assert witness @ m @ witness == pytest.approx(value, abs=1e-9 * scale)


def _scaled(q, c):
    def jet(x, order):
        return c * q.jet(x, 0) if order == 0 else tuple(c * part for part in q.jet(x, 1))

    return MetricField(q.dim, jet)


def hyperplane_scan(Q, psi0, psi1, x0, lam, n, band, seed=99):
    """Independent oracle: band maximum of the margin over a dense scan of the
    unit sphere of the tangent hyperplane, with |p| below ``band``."""
    a = Q(x0)
    b1 = a @ psi1.grad(x0)
    basis = np.linalg.qr(np.column_stack([b1, np.eye(Q.dim)]))[0][:, 1:Q.dim].T
    xis = unit_sphere_seeds(n, Q.dim - 1, seed=seed) @ basis
    in_band = np.abs(quadratic_form_values(a, xis)) <= band
    assert np.any(in_band), "oracle band is unpopulated"
    xis = xis[in_band]
    drift = 2.0 * a @ psi0.grad(x0)
    return float(np.max(quadratic_form_values(hp2_matrix(Q, psi1, x0), xis)
                        - 2.0 * lam * (xis @ drift) ** 2))


class TestCertificateProperties:
    amps = st.floats(0.0, 0.2)
    seeds = st.integers(0, 10 ** 6)

    @settings(max_examples=15, deadline=None)
    @given(amps, seeds)
    def test_exact_margin_bounds_listed_directions_and_matches_scan(self, amp, seed):
        m = ik_model(2)
        psi0, psi1 = build_psi(m.geometry)
        q = bumpy_wave_metric(2, amp=amp, seed=seed)
        cert = certify_fields(q, psi0, psi1, m.x0, lam=2.0)
        assert cert.worst_margin >= float(np.max(cert.margins)) - 1e-12
        band = 1e-3
        scan = hyperplane_scan(q, psi0, psi1, m.x0, 2.0, n=200000, band=band)
        assert abs(scan - cert.worst_margin) <= 30.0 * band

    @settings(max_examples=15, deadline=None)
    @given(amps, seeds, st.floats(0.25, 4.0), st.sampled_from([2, 3]))
    def test_positive_rescaling_of_the_symbol(self, amp, seed, c, d):
        m = ik_model(d)
        psi0, psi1 = build_psi(m.geometry)
        q = bumpy_wave_metric(d, amp=amp, seed=seed)
        cert = certify_fields(q, psi0, psi1, m.x0, lam=2.0, n=50)
        certc = certify_fields(_scaled(q, c), psi0, psi1, m.x0, lam=2.0, n=50)
        assert certc.m0 == pytest.approx(c * cert.m0, rel=1e-9)
        assert certc.lambda0 == pytest.approx(cert.lambda0, rel=1e-9)
        assert certc.worst_margin == pytest.approx(c * c * cert.worst_margin,
                                                   rel=1e-9, abs=1e-12 * c * c)
        assert certc.status == cert.status

    @settings(max_examples=15, deadline=None)
    @given(amps, seeds, seeds, st.sampled_from([2, 3, 4]))
    def test_certificate_does_not_depend_on_seed(self, amp, metric_seed, seed, d):
        m = ik_model(d)
        psi0, psi1 = build_psi(m.geometry)
        q = bumpy_wave_metric(d, amp=amp, seed=metric_seed)

        def key(s):
            cert = certify_fields(q, psi0, psi1, m.x0, lam=2.0, n=50, seed=s)
            return cert.m0, cert.lambda0, cert.worst_margin, cert.status
        assert key(seed) == key(0)

    @settings(max_examples=30, deadline=None)
    @given(amps, seeds, st.sampled_from([2, 3]), st.integers(0, 10 ** 6))
    def test_closed_form_hp2_matrix_matches_loop_and_bracket(self, amp, seed, d, xseed):
        m = ik_model(d)
        psi0, psi1 = build_psi(m.geometry)
        q = bumpy_wave_metric(d, amp=amp, seed=seed)
        rng = np.random.default_rng(xseed)
        x = m.x0 + 0.1 * rng.uniform(-1.0, 1.0, d + 1)
        bent = linear_combination([(1.0, psi1), (-2.0, squared_field(psi0))])
        for psi in (psi0, psi1, bent):
            mat = hp2_matrix(q, psi, x)
            assert np.array_equal(mat, mat.T)
            for xi in rng.standard_normal((3, d + 1)):
                pp = PhasePoint(x, xi)
                loop = hp2(q, psi, pp)
                assert xi @ mat @ xi == pytest.approx(loop, rel=1e-10, abs=1e-10)
                assert xi @ mat @ xi == pytest.approx(hp2_bracket(q, psi, pp), rel=1e-6, abs=1e-6)


class TestJetGate:
    """The gate reads each jet once and walks the finer reads only to name the
    first singular one."""

    @staticmethod
    def _geometry(phi_plus: str, q=None):
        return GeometrySpec(q or constant_metric(np.diag([-1.0, 1.0, 1.0])),
                            expression_field(phi_plus, 3),
                            expression_field("norm(x2, x3) - 1 + x1", 3),
                            box=np.array([[-0.4, 0.4], [0.6, 1.4], [-0.4, 0.4]]))

    def test_singular_hessian_alone(self):
        # x1^1.5 has value and slope 0 at x1 = 0, but its second derivative is singular
        cert = certify(self._geometry("x1^1.5 + norm(x2, x3) - 1"), [0.0, 1.0, 0.0], lam=2.0)
        assert cert.notes["gate"] == ["jet"]
        assert cert.notes["jet"]["jet"] == "d2phi_plus"

    def test_singular_value(self):
        cert = certify(self._geometry("1 / x1 + norm(x2, x3) - 1"), [0.0, 1.0, 0.0], lam=2.0)
        assert cert.notes["jet"]["jet"] == "phi_plus"

    def test_singular_value_alone(self):
        # a surface whose value at x0 is nan while its gradient and Hessian
        # are finite
        surface = expression_field("norm(x2, x3) - 1 - x1", 3)

        def jet(x, order):
            if order == 0:
                return math.nan
            finite = surface.jet(x, order)
            return Jet(math.nan, finite.grad, finite.hess)
        geo = self._geometry("norm(x2, x3) - 1 - x1")
        cert = certify(GeometrySpec(geo.Q, ScalarField(jet), geo.phi_minus, box=geo.box),
                       [0.0, 1.0, 0.0], lam=2.0)
        assert cert.notes["jet"] == {"jet": "phi_plus", "error": "not finite"}

    def test_singular_metric_derivative_alone(self):
        def jet(x, order):
            q = np.diag([-1.0, 1.0, 1.0])
            return q if order == 0 else (q, np.full((3, 3, 3), np.inf))
        q = MetricField(3, jet)
        cert = certify(self._geometry("norm(x2, x3) - 1 - x1", q), [0.0, 1.0, 0.0], lam=2.0)
        assert cert.notes["jet"] == {"jet": "dQ", "error": "not finite"}

    def test_expression_jets_read_per_certificate(self, monkeypatch):
        # the gate reads Q, phi_plus and phi_minus once each, and psi0 and
        # psi1 are built from the fields pinned to those reads, so a
        # certificate walks each expression and the metric only once
        geo = GeometrySpec(bumpy_wave_metric(2, 0.05),
                           expression_field("norm(x2, x3) - 1 - x1", 3),
                           expression_field("norm(x2, x3) - 1 + x1", 3),
                           box=np.array([[-0.4, 0.4], [0.6, 1.4], [-0.4, 0.4]]))
        calls = []
        for name in ("Q", "phi_plus", "phi_minus"):
            field = getattr(geo, name)
            def counted(x, order, jet=field._jet, name=name):
                calls.append((name, order))
                return jet(x, order)
            monkeypatch.setattr(field, "_jet", counted)
        cert = certify(geo, [0.0, 1.0, 0.0], lam=2.0)
        assert cert.status == "certified"
        assert sorted(calls) == [("Q", 1), ("phi_minus", 2), ("phi_plus", 2)]


def _pulled_back_fields(model):
    """Q, psi0 and psi1 of a model in its flattening chart, and the base point there."""
    chart = flattening_chart(model, model.x0)
    psi0, psi1 = build_psi(model.geometry)
    return (pullback_metric_field(model.geometry.Q, chart), pullback_scalar(psi0, chart),
            pullback_scalar(psi1, chart), chart.inverse(model.x0))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_flattening_chart_certificate_has_closed_forms(d):
    """At lam = 2 the chart certificate of ik<d> is exact to 1e-12.

    At x0 the flattening chart's Jacobian J has the columns (-1/2, yhat0/2),
    (1/2, yhat0/2) and (0, b_i), with (yhat0, b_i) orthonormal.  In x, the
    tangent null set is xi = (a, 0, xi_theta) with |xi_theta| = |a|: there
    hp(psi0)^2 = 4 a^2, hp2(psi1) = 4 |xi_theta|^2 = 4 a^2 and the margin
    4 a^2 - 2 lam 4 a^2 = -12 a^2.  Covectors transport by eta = J^T xi, and
    |J^T xi|^2 = a^2/4 + a^2/4 + a^2 = 3 a^2 / 2, so the chart's unit sphere
    has a^2 = 2/3: m0 = sqrt(8/3) and worst_margin = -8.  hp2(psi1) is
    4 ((J^-1 e_theta) . eta)^2 with |J^-1 e_theta| = 1, whose sphere maximum
    4 gives lambda0 = 4 / (2 m0^2) = 3/4."""
    cert = certify_fields(*_pulled_back_fields(ik_model(d)), lam=2.0)
    assert cert.status == "certified"
    assert abs(cert.worst_margin + 8.0) <= 1e-12
    assert abs(cert.lambda0 - 0.75) <= 1e-12
    assert abs(cert.m0 - np.sqrt(8.0 / 3.0)) <= 1e-12


def _certificate_cases():
    cases = []
    for d in (2, 3, 4):
        m = ik_model(d)
        psi0, psi1 = build_psi(m.geometry)
        cases.append((f"ik{d}", m.geometry.Q, psi0, psi1, m.x0))
        cases.append((f"bumpy{d}", bumpy_wave_metric(d, 0.05), psi0, psi1, m.x0))
    cases.append(("chart-ik2", *_pulled_back_fields(ik_model(2))))
    return cases


CERTIFICATE_CASES = _certificate_cases()


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


class TestPinnedJets:
    """certify reads its fields through fields pinned to their jets at x0; the
    public helpers on the original fields are the oracle."""

    @pytest.mark.parametrize("name, q, psi0, psi1, x0", CERTIFICATE_CASES,
                             ids=[c[0] for c in CERTIFICATE_CASES])
    def test_certificate_matches_the_helpers_on_the_fields(self, name, q, psi0, psi1, x0):
        cert = certify_fields(q, psi0, psi1, x0, lam=2.0, n=50)
        m0 = compute_m0(q, psi0, psi1, x0)
        bent = linear_combination([(1.0, psi1), (-2.0, squared_field(psi0))])
        a = q(x0)
        worst = null_cone_max(hp2_matrix(q, bent, x0), a, 2.0 * a @ psi1.grad(x0))[0]
        assert _bits(cert.m0) == _bits(m0)
        assert _bits(cert.lambda0) == _bits(compute_lambda0(q, psi1, x0, m0))
        assert _bits(cert.worst_margin) == _bits(worst)

    @pytest.mark.parametrize("name, q, psi0, psi1, x0", CERTIFICATE_CASES,
                             ids=[c[0] for c in CERTIFICATE_CASES])
    def test_pinned_jets_at_x0_are_the_fields_jets(self, name, q, psi0, psi1, x0):
        qm = _pinned_metric(q, *q.jet(x0, 1), x0)
        assert qm.name == q.name
        assert _bits(qm(x0)) == _bits(q(x0))
        assert all(_bits(u) == _bits(v) for u, v in zip(qm.jet(x0, 1), q.jet(x0, 1)))
        for f in (psi0, psi1):
            pinned = _pinned_scalar(f.name, f.jet(x0, 2), x0)
            assert pinned.name == f.name
            assert _bits(pinned(x0)) == _bits(f(x0))
            for order in (1, 2):
                got, want = pinned.jet(x0, order), f.jet(x0, order)
                assert _bits(got.value) == _bits(want.value) and _bits(got.grad) == _bits(want.grad)
            assert _bits(pinned.hess(x0)) == _bits(f.hess(x0))

    def test_signed_zeros_at_x0_are_kept(self):
        # x1 (0 - x2) at (0, 1, 0) has value -0.0 and gradient (-1, -0.0, -0.0)
        f = expression_field("x1 * (0 - x2)", 3)
        x0 = np.array([0.0, 1.0, 0.0])
        want = f.jet(x0, 2)
        pinned = _pinned_scalar(f.name, want, x0)
        got = pinned.jet(x0, 2)
        assert _bits(got.value) == _bits(pinned(x0)) == _bits(want.value) == _bits(-0.0)
        assert _bits(got.grad) == _bits(want.grad)
        q = constant_metric(np.diag([-1.0, 1.0, -0.0]))
        assert _bits(_pinned_metric(q, *q.jet(x0, 1), x0)(x0)) == _bits(q(x0))

    def test_pinned_fields_answer_at_x0_alone_with_read_only_arrays(self):
        f = expression_field("x1 * x2 + 3 * x3^2 - 2 * x1 + 0.5", 3)
        q = bumpy_wave_metric(2, 0.05)
        x0 = np.array([0.2, -0.4, 0.7])
        pinned, qm = _pinned_scalar(f.name, f.jet(x0, 2), x0), _pinned_metric(q, *q.jet(x0, 1), x0)
        for x in (x0 + np.array([0.0, 0.0, 1e-12]), np.stack([x0, x0]), x0[None, :]):
            for order in (0, 1, 2):
                with pytest.raises(ContractViolation, match="reads its fields at x0"):
                    pinned.jet(x, order)
            for order in (0, 1):
                with pytest.raises(ContractViolation, match="reads its fields at x0"):
                    qm.jet(x, order)
        with pytest.raises(ContractViolation, match=r"not at a batch of shape \(2, 3\)"):
            pinned.jet(np.stack([x0, x0]), 0)
        jet = pinned.jet(x0, 2)
        for part in (jet.grad, jet.hess, pinned.grad(x0), *qm.jet(x0, 1), qm(x0)):
            assert not part.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 1.0
        # an equal copy of x0 is x0
        assert _bits(pinned.jet(x0.copy(), 1).grad) == _bits(f.grad(x0))


def _bumpy_map():
    """The benchmark's certificate map: every 8th sampled intersection point
    of the double cone under the bumpy metric."""
    box = np.array([[-0.4, 0.4], [0.6, 1.4], [-0.4, 0.4]])
    geo = GeometrySpec(bumpy_wave_metric(2, 0.05), expression_field("norm(x2, x3) - 1 - x1", 3),
                       expression_field("norm(x2, x3) - 1 + x1", 3), box=box)
    return geo, sample_surface(geo, "intersection")[::8]


class TestComposedSplitJets:
    """certify composes the jets of psi0 and psi1 from the phi± jets its gate
    read; certify_fields on build_psi's fields is the oracle, bit for bit."""

    def assert_same(self, spec, x0, lam):
        got = certify(spec, x0, lam=lam)
        want = certify_fields(spec.Q, *build_psi(spec), x0, lam=lam)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        for name in ("x0", "margins", "margins_direct", "samples", "res_p", "res_hp"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        return got

    @pytest.mark.parametrize("lam", [None, 2.0])
    @pytest.mark.parametrize("name", ["ik2", "ik3", "ik4", "ctrl-a", "ctrl-b"])
    def test_models(self, name, lam):
        m = get_model(name)
        self.assert_same(m.geometry, m.x0, lam)

    def test_bumpy_map_points(self):
        geo, points = _bumpy_map()
        assert len(points) == 46
        for x0 in points:
            assert self.assert_same(geo, x0, 2.0).status == "certified"


def _bisect_max(mr, ar, ev):
    """Oracle of the multiplier search: (upper bound, witness, multiplier) of
    the null-cone maximum for an indefinite a_r with eigenvalues ev, by
    bisection of the S-lemma multiplier t to machine precision.

    f(t) = lambda_max(m_r + t a_r) is convex with slope v^T a_r v at its top
    eigenvector v, so t is bisected on the sign of that slope, each f(t) plus
    the eigensolver's rounding allowance; the witness is the null vector in
    the span of the top eigenvectors at the two ends.
    """
    def top(t):
        w, v = np.linalg.eigh(mr + t * ar)
        v = v[:, -1]
        return w[-1] + len(w) * EPS * max(-w[0], w[-1]), v, float(v @ ar @ v)

    # beyond these ends f exceeds 2 max|eig(m_r)| >= f(0), so the slope there
    # has the sign of the side
    scale = max(float(np.max(np.abs(np.linalg.eigvalsh(mr)))), EPS * float(np.max(np.abs(ev))))
    lo, hi = 3.0 * scale / ev[0], 3.0 * scale / ev[-1]
    ends = [top(lo), top(hi)]
    t_unit = scale / float(np.max(np.abs(ev)))
    while hi - lo > 4.0 * EPS * (abs(lo) + abs(hi) + t_unit):
        t = 0.5 * (lo + hi)
        e = top(t)
        if e[2] > 0:
            hi, ends[1] = t, e
        else:
            lo, ends[0] = t, e
    (f_lo, v_lo, s_lo), (f_hi, v_hi, s_hi) = ends
    # both end vectors lie in the top eigenspace at the minimum, with slopes
    # of opposite sign: the null vector of their span is the witness
    if v_lo @ v_hi < 0:
        v_hi = -v_hi
    cross = float(v_lo @ ar @ v_hi)
    root = math.sqrt(cross * cross - s_lo * s_hi)
    tau = -s_lo / (cross + root) if cross > 0 else (root - cross) / s_hi
    return float(min(f_lo, f_hi)), v_lo + tau * v_hi, 0.5 * (lo + hi)


def _exact_two_line_max(mpmath, mr, ar):
    """Maximum of y^T m_r y / y^T y over the null lines of a_r, and the S-lemma
    multiplier t that attains it, in 50-digit arithmetic on the float entries."""
    with mpmath.workdps(50):
        a00, a01, a11 = (mpmath.mpf(float(v)) for v in (ar[0, 0], ar[0, 1], ar[1, 1]))
        m00, m01, m11 = (mpmath.mpf(float(v)) for v in (mr[0, 0], mr[0, 1], mr[1, 1]))
        root = mpmath.sqrt(a01 * a01 - a00 * a11)
        if a00 == a11 == 0:
            lines = [(mpmath.mpf(1), mpmath.mpf(0)), (mpmath.mpf(0), mpmath.mpf(1))]
        elif abs(a00) >= abs(a11):
            lines = [((-a01 + s * root) / a00, mpmath.mpf(1)) for s in (1, -1)]
        else:
            lines = [(mpmath.mpf(1), (-a01 + s * root) / a11) for s in (1, -1)]
        best = None
        for c, s in lines:
            value = (m00 * c * c + 2 * m01 * c * s + m11 * s * s) / (c * c + s * s)
            t = -(m01 * (c * c - s * s) + (m11 - m00) * c * s) / (a01 * (c * c - s * s) + (a11 - a00) * c * s)
            if best is None or value > best[0]:
                best = (value, t)
        return best


class TestTwoLineClosedForm:
    """On a 2-D hyperplane the null set is two lines and the maximum is closed
    form; the bisection and a 50-digit maximum are its oracles."""

    @staticmethod
    def _forms(angle, log_scale, log_e0, log_e1, entries, log_m):
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        ar = rot @ np.diag([-10.0 ** (log_scale + log_e0), 10.0 ** (log_scale + log_e1)]) @ rot.T
        ar = 0.5 * (ar + ar.T)
        m00, m01, m11 = entries
        mr = 10.0 ** log_m * np.array([[m00, m01], [m01, m11]])
        ev, vec = np.linalg.eigh(ar)
        band = 1e-10 * max(1.0, float(np.max(np.abs(ev))))
        assume(ev[0] < -band and ev[1] > band)
        return mr, ar, ev, vec

    # (angle, log scale, log |e0|, log e1, entries of m_r, log scale of m_r);
    # tiny entries are flushed to zero, as the allowance holds away from underflow
    entries = st.floats(-1.0, 1.0).map(lambda v: v if abs(v) > 1e-100 else 0.0)
    forms = st.tuples(st.floats(0.0, np.pi), st.floats(-3.0, 3.0), st.floats(-9.9, 0.0),
                      st.floats(-9.9, 0.0), st.tuples(entries, entries, entries), st.floats(-3.0, 3.0))

    @settings(max_examples=300, deadline=None)
    @given(forms)
    @example((0.3, 0.0, -9.9, 0.0, (0.5, -0.7, 0.2), 0.0))       # nearly null normals:
    @example((1.1, 0.0, 0.0, -9.9, (0.5, -0.7, 0.2), 0.0))       # |e0| or e1 near the band
    @example((0.0, 0.0, -9.9, -9.9, (1.0, 0.0, -1.0), 2.0))
    def test_bounds_the_exact_maximum_within_the_allowance(self, form):
        mpmath = pytest.importorskip("mpmath")
        mr, ar, ev, vec = self._forms(*form)
        top, allowance, _ = _two_line_max(mr, ar, ev, vec)
        value = top + allowance
        exact, t = _exact_two_line_max(mpmath, mr, ar)
        assert mpmath.mpf(value) >= exact
        assert float(mpmath.mpf(value) - exact) <= 2.0 * allowance
        # the bisection carries 2 EPS max|eig(m_r + t a_r)| at t near t, and
        # its scale has the floor EPS max|a_r|
        size_m, size_a = float(np.max(np.abs(mr))), float(np.max(np.abs(ar)))
        slack = 8.0 * EPS * (size_m + (abs(float(t)) + EPS) * size_a)
        assert abs(value - _bisect_max(mr, ar, ev)[0]) <= 2.0 * allowance + slack

    @settings(max_examples=100, deadline=None)
    @given(forms)
    @example((0.3, 0.0, -9.9, 0.0, (0.5, -0.7, 0.2), 0.0))
    def test_witness_is_a_unit_null_vector(self, form):
        # the forms act on the plane x1 = 0 of R^3, whose basis is (e2, e3) exactly
        mr, ar, _, _ = self._forms(*form)
        m, a = np.zeros((3, 3)), np.zeros((3, 3))
        m[1:, 1:], a[1:, 1:] = mr, ar
        value, witness = null_cone_max(m, a, np.array([1.0, 0.0, 0.0]))
        assert witness[0] == 0.0
        assert abs(np.linalg.norm(witness) - 1.0) <= 4.0 * EPS
        assert abs(witness @ a @ witness) <= 8.0 * EPS * float(np.max(np.abs(ar)))
        assert value >= witness @ m @ witness - 8.0 * EPS * float(np.max(np.abs(mr)))


class TestMultiplierSearch:
    """On hyperplanes of dimension 3 or more the maximum is a bracketed search
    on the S-lemma multiplier; the bisection to machine precision is its
    oracle."""

    @staticmethod
    def _forms(d, seed):
        """An indefinite symbol a_r on R^d (both signs present) and a form m_r,
        at scales drawn over a few decades."""
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
        n_minus = int(rng.integers(1, d))
        sizes = 10.0 ** rng.uniform(-2.0, 2.0, d)
        ar = basis @ np.diag(np.where(np.arange(d) < n_minus, -sizes, sizes)) @ basis.T
        mr = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
        return 0.5 * (mr + mr.T), 0.5 * (ar + ar.T)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 5), st.integers(0, 2 ** 32 - 1))
    @example(4, 3931)       # an allowance of n EPS max|eig| left this value below the maximum
    def test_bounds_match_the_bisection_and_the_witness_is_a_unit_null_vector(self, d, seed):
        mr, ar = self._forms(d, seed)
        # the forms act on the plane x1 = 0 of R^(d+1), whose basis is exact
        m, a = np.zeros((d + 1, d + 1)), np.zeros((d + 1, d + 1))
        m[1:, 1:], a[1:, 1:] = mr, ar
        e1 = np.eye(d + 1)[0]
        basis, plane_ar, (ev, _) = _hyperplane(a, e1)
        assume(np.array_equal(np.abs(basis), np.eye(d + 1)[1:]))
        value, witness = null_cone_max(m, a, e1)
        oracle, _, t = _bisect_max(basis @ m @ basis.T, plane_ar, ev)
        size_m, size_a = float(np.max(np.abs(mr))), float(np.max(np.abs(ar)))
        # the search's allowance at the oracle's multiplier
        allowance = d * d * EPS * float(np.max(np.abs(np.linalg.eigvalsh(mr + t * ar))))
        slack = 8.0 * EPS * (size_m + (abs(t) + EPS) * size_a)
        assert oracle - slack <= value <= oracle + 2.0 * allowance + slack
        assert witness[0] == 0.0
        assert abs(np.linalg.norm(witness) - 1.0) <= 4.0 * EPS
        assert abs(witness @ a @ witness) <= 16.0 * d * EPS * size_a
        # and it attains the value to rounding
        assert value - 2.0 * allowance - slack <= witness @ m @ witness

    @pytest.mark.parametrize("d", [3, 4])
    def test_ik_searches_take_at_most_ten_eigensolves(self, d, monkeypatch):
        m = ik_model(d)
        q, (psi0, psi1), x0 = m.geometry.Q, build_psi(m.geometry), m.x0
        a = q(x0)
        plane = _hyperplane(a, 2.0 * a @ psi1.grad(x0))
        drift = 2.0 * a @ psi0.grad(x0)
        bent = linear_combination([(1.0, psi1), (-2.0, squared_field(psi0))])
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(*args, solve=getattr(np.linalg, name), **kwargs):
                calls.append(1)
                return solve(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        for form in (-np.outer(drift, drift), hp2_matrix(q, bent, x0)):
            calls.clear()
            assert _null_cone_max(form, plane) is not None
            assert 0 < len(calls) <= 10


def _bumpy_map():
    """The bumpy-wave geometry of the certificate map and every 8th of its
    sampled intersection points: 46 base points."""
    from uccert.hypotheses import sample_surface
    geo = GeometrySpec(bumpy_wave_metric(2, 0.05),
                       expression_field("norm(x2, x3) - 1 - x1", 3),
                       expression_field("norm(x2, x3) - 1 + x1", 3),
                       box=np.array([[-0.4, 0.4], [0.6, 1.4], [-0.4, 0.4]]))
    return geo, sample_surface(geo, "intersection")[::8]


def _certificate_bits(cert):
    arrays = (cert.x0, cert.margins, cert.margins_direct, cert.samples, cert.res_p, cert.res_hp)
    return json.dumps(cert.to_dict(), sort_keys=True), [(a.shape, _bits(a)) for a in arrays]


class TestComposedJets:
    """certify composes the split jets once and hands certify_fields pinned
    fields; the same certificate from the unpinned fields is its oracle."""

    def test_bumpy_map_certificates_match_the_unpinned_fields(self):
        geo, points = _bumpy_map()
        assert len(points) == 46
        psi0, psi1 = build_psi(geo)
        for x0 in points:
            cert = certify(geo, x0, lam=2.0, seed=3)
            assert cert.status == "certified"
            assert _certificate_bits(cert) == _certificate_bits(
                certify_fields(geo.Q, psi0, psi1, x0, lam=2.0, seed=3))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ik_certificates_match_the_unpinned_fields(self, d):
        m = ik_model(d)
        cert = certify(m.geometry, m.x0, lam=2.0)
        assert cert.status == "certified"
        assert _certificate_bits(cert) == _certificate_bits(
            certify_fields(m.geometry.Q, *build_psi(m.geometry), m.x0, lam=2.0))
