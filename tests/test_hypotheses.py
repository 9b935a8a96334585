import numpy as np
import pytest
from hypothesis import given, strategies as st

from uccert import hypotheses
from uccert import (GeometrySpec, build_psi, check_assumptions, ik_model,
                    sample_surface, verify_split_signs,
                    verify_sublevel_inclusion)
from uccert.errors import ContractViolation, InsufficientSamples
from uccert.fields import constant_metric
from uccert.expressions import expression_field
from uccert.grids import Grid
from uccert.hypotheses import _dedupe, _lowest, _project, _scan_resolution
from uccert.models import cone_surface_field, get_model, negative_controls


class TestSampling:
    def test_intersection_samples_on_both_surfaces(self, ik2):
        pts = sample_surface(ik2.geometry, "intersection")
        assert len(pts) >= ik2.geometry.n_surface_samples
        geo = ik2.geometry
        for p in pts:
            assert abs(geo.phi_plus(p)) <= geo.tol_zero
            assert abs(geo.phi_minus(p)) <= geo.tol_zero
            # the crossing set of the model is {t = 0, |y| = 1}
            assert abs(p[0]) < 1e-8
            assert abs(np.linalg.norm(p[1:]) - 1.0) < 1e-8

    def test_single_surface_samples(self, ik2):
        pts = sample_surface(ik2.geometry, "plus")
        geo = ik2.geometry
        assert len(pts) >= geo.n_surface_samples
        for p in pts[:50]:
            assert abs(np.linalg.norm(p[1:]) - 1.0 - p[0]) <= 1e-9

    def test_box_missing_surface_gives_empty(self):
        q = constant_metric(np.diag([-1.0, 1.0, 1.0]))
        box = np.array([[5.0, 6.0], [5.0, 6.0], [5.0, 6.0]])
        spec = GeometrySpec(q, cone_surface_field(2, 1.0, -1.0),
                            cone_surface_field(2, 1.0, 1.0), box,
                            n_surface_samples=20)
        assert len(sample_surface(spec, "plus")) == 0
        with pytest.raises(InsufficientSamples):
            check_assumptions(spec)

    def test_unknown_selector(self, ik2):
        with pytest.raises(ContractViolation):
            sample_surface(ik2.geometry, "both")

    def test_spec_validation(self, ik2):
        geo = ik2.geometry
        with pytest.raises(ContractViolation):
            GeometrySpec(geo.Q, geo.phi_plus, geo.phi_minus,
                         np.array([[0.0, -1.0]] * 3))
        with pytest.raises(ContractViolation):
            GeometrySpec(geo.Q, geo.phi_plus, geo.phi_minus, geo.box,
                         n_surface_samples=0)


class TestAssumptions:
    def test_model_passes_all(self, ik2):
        rep = check_assumptions(ik2.geometry)
        assert rep.passed()
        assert rep.failed_names() == []
        sign = rep.checks["sign_condition"]
        assert sign.values["min_value"] == pytest.approx(2.0, abs=1e-8)
        assert sign.values["max_value"] == pytest.approx(2.0, abs=1e-8)

    def test_model_d3_passes(self, ik3):
        rep = check_assumptions(ik3.geometry)
        assert rep.passed()
        sign = rep.checks["sign_condition"]
        assert sign.values["min_value"] == pytest.approx(2.0, abs=1e-8)

    def test_model_passes_in_other_boxes(self, ik2):
        # any box containing a patch of the crossing set works
        geo = ik2.geometry
        for box in (np.array([[-0.2, 0.3], [0.4, 1.2], [0.1, 0.9]]),
                    np.array([[-0.1, 0.1], [-1.3, -0.7], [-0.3, 0.3]])):
            spec = GeometrySpec(geo.Q, geo.phi_plus, geo.phi_minus, box,
                                n_surface_samples=80)
            assert check_assumptions(spec).passed()

    def test_noncharacteristic_second_surface_fails(self):
        # second surface |y| - 1 - 2t: raw characteristic residual -3
        q = constant_metric(np.diag([-1.0, 1.0, 1.0]))
        m = ik_model(2)
        spec = GeometrySpec(q, m.geometry.phi_plus,
                            cone_surface_field(2, 1.0, -2.0), m.geometry.box,
                            n_surface_samples=100)
        rep = check_assumptions(spec)
        assert "characteristic_minus" in rep.failed_names()
        wit = rep.checks["characteristic_minus"]
        assert wit.witness is not None
        assert wit.values["raw_at_witness"] == pytest.approx(-3.0, abs=1e-6)

    def test_equal_surfaces_fail_transversality(self):
        m = ik_model(2)
        spec = GeometrySpec(m.geometry.Q, m.geometry.phi_plus,
                            m.geometry.phi_plus, m.geometry.box,
                            n_surface_samples=100)
        rep = check_assumptions(spec)
        assert "transversality" in rep.failed_names()

    def test_refinement_never_flips_fail_to_pass(self):
        for ctl in negative_controls(n_surface_samples=100):
            coarse = check_assumptions(ctl.geometry)
            fine_geo = GeometrySpec(ctl.geometry.Q, ctl.geometry.phi_plus,
                                    ctl.geometry.phi_minus, ctl.geometry.box,
                                    n_surface_samples=200)
            fine = check_assumptions(fine_geo)
            assert set(coarse.failed_names()) <= set(fine.failed_names())


class TestSplitFields:
    def test_model_split(self, ik2):
        psi0, psi1 = build_psi(ik2.geometry)
        for p in ([0.1, 1.2, 0.3], [-0.2, 0.8, -0.1]):
            p = np.array(p)
            assert psi1(p) == pytest.approx(np.linalg.norm(p[1:]) - 1.0)
            assert psi0(p) == pytest.approx(p[0])

    def test_identical_surfaces_zero_difference(self, ik2):
        geo = ik2.geometry
        spec = GeometrySpec(geo.Q, geo.phi_plus, geo.phi_plus, geo.box)
        psi0, _ = build_psi(spec)
        assert psi0([0.1, 1.1, 0.0]) == 0.0

    def test_gradient_linearity(self, ik2, rng):
        geo = ik2.geometry
        psi0, psi1 = build_psi(geo)
        x = np.array([0.05, 1.1, -0.2])
        gp = geo.phi_plus.grad(x)
        gm = geo.phi_minus.grad(x)
        np.testing.assert_allclose(psi1.grad(x), 0.5 * (gp + gm), atol=1e-14)
        np.testing.assert_allclose(psi0.grad(x), 0.5 * (gm - gp), atol=1e-14)

    def test_split_sign_values(self, ik2):
        rep = verify_split_signs(ik2.geometry, sample_surface(ik2.geometry, "intersection"))
        assert rep["status"] == "pass"
        assert rep["surface_form_min"] == pytest.approx(1.0, abs=1e-8)
        assert rep["difference_form_max"] == pytest.approx(-1.0, abs=1e-8)
        assert rep["sum_identity_max"] <= 1e-8
        assert rep["cross_identity_max"] <= 1e-8

    def test_split_signs_scale_invariant(self, ik2):
        geo = ik2.geometry
        from uccert.fields import linear_combination
        scaled = GeometrySpec(geo.Q,
                              linear_combination([(3.0, geo.phi_plus)]),
                              linear_combination([(3.0, geo.phi_minus)]),
                              geo.box, n_surface_samples=100)
        rep = verify_split_signs(scaled, sample_surface(scaled, "intersection"))
        assert rep["status"] == "pass"


class TestSublevelInclusion:
    def test_model_included(self, ik2):
        rep = verify_sublevel_inclusion(ik2.geometry, sample_surface(ik2.geometry, "intersection"),
                                        lam=2.0, radius=0.1, n_samples=300, seed=3)
        assert rep["included"]
        assert rep["worst_margin"] > 0
        assert not rep["radius_exceeds_band"]

    def test_large_radius_flagged(self, ik2):
        rep = verify_sublevel_inclusion(ik2.geometry, sample_surface(ik2.geometry, "intersection"),
                                        lam=2.0, radius=0.6, n_samples=300, seed=3)
        assert rep["radius_exceeds_band"]

    def test_tiny_lam_always_included(self, ik2):
        rep = verify_sublevel_inclusion(ik2.geometry, sample_surface(ik2.geometry, "intersection"),
                                        lam=1e-6, radius=0.2, n_samples=200, seed=3)
        assert rep["included"]

    def test_nonpositive_lam_rejected(self, ik2):
        with pytest.raises(ContractViolation):
            verify_sublevel_inclusion(ik2.geometry, sample_surface(ik2.geometry, "intersection"),
                                      lam=0.0, radius=0.1, n_samples=10)

    @pytest.mark.parametrize("radius", [0.0, -0.1, np.inf, np.nan])
    def test_radius_not_finite_and_positive_rejected(self, ik2, radius):
        with pytest.raises(ContractViolation, match="radius"):
            verify_sublevel_inclusion(ik2.geometry, sample_surface(ik2.geometry, "intersection"),
                                      lam=2.0, radius=radius, n_samples=10)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_no_requested_samples_rejected(self, ik2, n_samples):
        with pytest.raises(ContractViolation, match="n_samples"):
            verify_sublevel_inclusion(ik2.geometry, sample_surface(ik2.geometry, "intersection"),
                                      lam=2.0, radius=0.1, n_samples=n_samples)

    @staticmethod
    def _loop_wedge_points(spec, radius, n_samples, seed, base):
        """A per-try rejection loop, one try at a time from the three streams."""
        centres, directions, radii = (np.random.default_rng(s)
                                      for s in np.random.SeedSequence(seed).spawn(3))
        pts, tries = [], 0
        while len(pts) < n_samples and tries < 50 * n_samples:
            tries += 1
            c = base[centres.integers(0, len(base))]
            u = directions.normal(size=spec.dim)
            u *= radius * radii.random() ** (1.0 / spec.dim) / np.linalg.norm(u)
            x = c + u
            if spec.phi_plus(x) > 0 and spec.phi_minus(x) > 0:
                pts.append(x)
        return np.array(pts).reshape(-1, spec.dim)

    @pytest.mark.parametrize("model, lam, radius, n_samples, seed", [
        ("ik2", 2.0, 0.1, 200, 0), ("ik3", 5.0, 0.3, 37, 3), ("ik4", 2.0, 0.1, 1, 7),
        ("ctrl-c", 1.0, 0.01, 50, 1)])
    def test_same_points_as_per_try_loop(self, model, lam, radius, n_samples, seed):
        spec = get_model(model, n_surface_samples=60).geometry
        base = sample_surface(spec, "intersection")
        rep = verify_sublevel_inclusion(spec, base, lam=lam, radius=radius, n_samples=n_samples,
                                        seed=seed)
        pts = self._loop_wedge_points(spec, radius, n_samples, seed, base)
        psi0, psi1 = build_psi(spec)
        margins = np.array([psi1(p) - lam * psi0(p) ** 2 for p in pts])
        assert rep["n_samples"] == len(pts)
        assert rep["worst_margin"] == pytest.approx(margins.min(), rel=1e-12, abs=1e-15)
        assert rep["witness"] == [float(v) for v in pts[int(np.argmin(margins))]]

    def test_empty_wedge_raises_after_every_try(self):
        spec = negative_controls()[1].geometry          # ctrl-b: phi_minus = -phi_plus
        with pytest.raises(InsufficientSamples):
            verify_sublevel_inclusion(spec, sample_surface(spec, "intersection"),
                                      lam=2.0, radius=0.1, n_samples=20, seed=0)


# ---------------------------------------------------------------------------
# the batched sampler and checks against the per-point loops they replaced
# ---------------------------------------------------------------------------

def _loop_project(fields, x, tol, max_iter=20):
    x = x.copy()
    if len(fields) == 1:
        phi = fields[0]
        for _ in range(max_iter):
            v = phi(x)
            if abs(v) <= tol:
                return x
            g = phi.grad(x)
            gg = float(g @ g)
            if gg < 1e-30:
                return None
            x -= (v / gg) * g
        return x if abs(phi(x)) <= tol else None
    for _ in range(max_iter):
        f = np.array([phi(x) for phi in fields])
        if np.max(np.abs(f)) <= tol:
            return x
        jac = np.stack([phi.grad(x) for phi in fields])
        x -= jac.T @ (np.linalg.pinv(jac @ jac.T, rcond=1e-12) @ f)
    f = np.array([phi(x) for phi in fields])
    return x if np.max(np.abs(f)) <= tol else None


def _loop_sample(spec, which):
    fields = {"plus": [spec.phi_plus], "minus": [spec.phi_minus],
              "intersection": [spec.phi_plus, spec.phi_minus]}[which]
    n = spec.n_surface_samples
    pts = Grid(spec.box, (_scan_resolution(n, spec.dim) - 1,) * spec.dim).points()
    res = np.max([[abs(phi(p)) for p in pts] for phi in fields], axis=0)
    slack = 1e-9 * float(np.max(np.abs(spec.box)))

    def land(x):
        x = _loop_project(fields, x, spec.tol_zero)
        inside = x is not None and np.all(x >= spec.box[:, 0] - slack) \
            and np.all(x <= spec.box[:, 1] + slack)
        return [x] if inside else []

    found = []
    for s in pts[np.argsort(res, kind="stable")[:max(4 * n, 64)]]:
        found += land(s)
    arr = _dedupe(np.array(found[:4 * n]).reshape(-1, spec.dim))
    rng = np.random.default_rng(0)
    width = float(np.max(spec.box[:, 1] - spec.box[:, 0]))
    for round_no in range(6):
        if not 0 < len(arr) < n:
            break
        delta = width / 2.0 ** (round_no + 1)
        fresh = list(arr)
        for x in arr:
            basis = np.linalg.svd(np.stack([phi.grad(x) for phi in fields]))[2][len(fields):]
            for _ in range(2 if basis.size else 0):
                direction = basis.T @ rng.standard_normal(basis.shape[0])
                nrm = np.linalg.norm(direction)
                if not nrm < 1e-14:
                    fresh += land(x + delta * direction / nrm)
        arr = _dedupe(np.array(fresh))
    return arr


def test_project_drops_rows_that_are_not_finite():
    # sqrt(x1) * 0 is nan where x1 < 0: those rows fail without reaching the
    # pseudo-inverse, and every other row lands bit for bit as it does alone
    box = np.array([[-0.4, 0.4], [0.6, 1.4], [-0.4, 0.4]])
    spec = GeometrySpec(constant_metric(np.diag([-1.0, 1.0, 1.0])),
                        expression_field("norm(x2, x3) - 1 - x1 + sqrt(x1)*0", 3),
                        expression_field("norm(x2, x3) - 1 + x1", 3), box=box)
    fields = [spec.phi_plus, spec.phi_minus]
    seeds = Grid(box, (6, 6, 6)).points()
    finite = seeds[:, 0] >= 0.0
    x, ok = _project(spec, fields, seeds, 1e-9)
    x_alone, ok_alone = _project(spec, fields, seeds[finite], 1e-9)
    assert not ok[~finite].any() and ok_alone.any()
    assert np.array_equal(ok[finite], ok_alone)
    assert np.array_equal(x[finite], x_alone)


def _unit(v):
    nv = float(np.linalg.norm(v))
    return v / nv if nv > 0 else v


def _oracle_geometries():
    from uccert.expressions import expression_field
    from uccert.models import bumpy_wave_metric
    box3 = np.array([[-0.4, 0.4], [0.6, 1.4], [-0.4, 0.4]])
    wave2 = constant_metric(np.diag([-1.0, 1.0]))
    wave3 = constant_metric(np.diag([-1.0, 1.0, 1.0]))
    cone_p = expression_field("norm(x2, x3) - 1 - x1", 3)
    cone_m = expression_field("norm(x2, x3) - 1 + x1", 3)
    return {
        "ik2": ik_model(2, n_surface_samples=60).geometry,
        "ctrl-b": negative_controls(n_surface_samples=40)[1].geometry,
        "bumpy": GeometrySpec(bumpy_wave_metric(2, 0.05), cone_p, cone_m, box3,
                              n_surface_samples=50),
        # a cap in the box corner: six densification rounds, still short
        "cap": GeometrySpec(wave3, expression_field(
            "(x1 - 0.5)^2 + (x2 - 1.5)^2 + (x3 - 0.5)^2 - 0.04", 3), cone_m, box3,
            n_surface_samples=30),
        # dimension 2: the intersection is a point, with no tangent directions
        "dim2": GeometrySpec(wave2, expression_field("x2 - 1 - x1", 2),
                             expression_field("norm(x2) - 1 + x1", 2),
                             box3[:2], n_surface_samples=40),
    }


ORACLE = _oracle_geometries()


class TestBatchedAgainstPointLoops:
    @pytest.mark.parametrize("name", sorted(ORACLE))
    @pytest.mark.parametrize("which", ["plus", "minus", "intersection"])
    def test_samples_bit_for_bit(self, name, which):
        spec = ORACLE[name]
        got, ref = sample_surface(spec, which), _loop_sample(spec, which)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", sorted(ORACLE))
    def test_check_scans_once_and_samples_as_the_public_call(self, name, monkeypatch):
        # one slab scan serves the three surfaces, and no array of every scan
        # node is formed; a surface none of whose seeds converges (the cap's
        # intersection) scans again for the rest of the nodes
        spec = ORACLE[name]
        want = {w: sample_surface(spec, w) for w in ("plus", "minus", "intersection")}
        got, scans = {}, []
        sample, scan = hypotheses.sample_surface, hypotheses._scan_residuals

        def recording(spec, which, **kw):
            got[which] = sample(spec, which, **kw)
            return got[which]

        def counting(spec, axes, selectors):
            scans.append(tuple(selectors))
            return scan(spec, axes, selectors)

        def no_points(self):
            raise AssertionError("the scan formed every node of its grid")

        monkeypatch.setattr(Grid, "points", no_points)
        monkeypatch.setattr(hypotheses, "sample_surface", recording)
        monkeypatch.setattr(hypotheses, "_scan_residuals", counting)
        if all(len(v) for v in want.values()):
            check_assumptions(spec)
        else:
            with pytest.raises(InsufficientSamples):
                check_assumptions(spec)
        assert scans == [("plus", "minus", "intersection")] + [(w,) for w, v in want.items() if not len(v)]
        for which, pts in want.items():
            assert got[which].shape == pts.shape and got[which].tobytes() == pts.tobytes()

    @pytest.mark.parametrize("name", ["ik2", "bumpy", "ctrl-b"])
    def test_checks_equal_point_loops(self, name):
        spec = ORACLE[name]
        rep = check_assumptions(spec)
        s_plus, s_minus, s_both = (rep.samples[k] for k in ("plus", "minus", "intersection"))
        checks = rep.checks
        norms = [np.linalg.norm(spec.phi_plus.grad(p)) for p in s_plus] \
            + [np.linalg.norm(spec.phi_minus.grad(p)) for p in s_minus]
        assert checks["nondegenerate_gradients"].margin == min(norms)
        for tag, phi, pts in (("characteristic_plus", spec.phi_plus, s_plus),
                              ("characteristic_minus", spec.phi_minus, s_minus)):
            res = [abs(float(_unit(phi.grad(p)) @ spec.Q(p) @ _unit(phi.grad(p)))) for p in pts]
            k = int(np.argmax(res))
            assert checks[tag].margin == res[k]
            g = phi.grad(pts[k])
            assert checks[tag].values["raw_at_witness"] == float(g @ spec.Q(pts[k]) @ g)
        sv = np.array([np.linalg.svd(np.stack([spec.phi_plus.grad(p), spec.phi_minus.grad(p)]),
                                     compute_uv=False)[-1] for p in s_both])
        assert checks["transversality"].margin == sv.min()
        trans = s_both[sv > 1e-6]
        if len(trans):
            vals = [float(spec.phi_plus.grad(p) @ spec.Q(p) @ spec.phi_minus.grad(p)) for p in trans]
            assert checks["sign_condition"].values["min_value"] == min(vals)
            assert checks["sign_condition"].values["max_value"] == max(vals)
        else:
            assert checks["sign_condition"].status == "skipped"
        psi0, psi1 = build_psi(spec)
        split = verify_split_signs(spec, s_both)
        e1 = [float(psi1.grad(p) @ spec.Q(p) @ psi1.grad(p)) for p in s_both]
        cross = [abs(float(psi1.grad(p) @ spec.Q(p) @ psi0.grad(p))) for p in s_both]
        assert split["surface_form_min"] == min(e1)
        assert split["cross_identity_max"] == max(cross)

    def test_signature_check_stops_at_first_wrong_point(self):
        # Q is Riemannian for t < -1e-3 and Lorentzian above; the check fails
        # at the first sample with the wrong signature
        from uccert.fields import MetricField

        def jet(x, order):
            q = np.zeros(x.shape[:-1] + (3, 3))
            q[..., 0, 0] = np.sign(x[..., 0] + 1e-3) * -1.0
            q[..., 1, 1] = q[..., 2, 2] = 1.0
            return q if order == 0 else (q, np.zeros(x.shape[:-1] + (3, 3, 3)))

        q = MetricField(3, jet)
        m = ik_model(2, n_surface_samples=30)
        spec = GeometrySpec(q, m.geometry.phi_plus, m.geometry.phi_minus, m.geometry.box,
                            n_surface_samples=30)
        rep = check_assumptions(spec)
        sig = rep.checks["signature"]
        pts = np.concatenate([rep.samples[k][:5] for k in ("plus", "minus", "intersection")])
        first = next(p for p in pts if p[0] + 1e-3 < 0)
        assert sig.status == "fail" and sig.witness == [float(v) for v in first]
        assert sig.margin == 0.0


_residuals = st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300, np.inf, -np.inf, np.nan])
                      | st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=60)


@given(res=_residuals)
def test_lowest_is_the_head_of_a_stable_argsort(res):
    # heavy ties from the sampled values, nan and inf, and every k up to past the length
    res = np.array(res)
    order = np.argsort(res, kind="stable")
    for k in range(1, len(res) + 3):
        got = _lowest(res, k)
        assert got.dtype.kind == "i" and got.tolist() == order[:k].tolist()
