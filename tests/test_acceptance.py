"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; each test also prints a summary line.  Runtime budgets are asserted
where the criterion states one.
"""

import json
import os
import time

import numpy as np
import pytest

from uccert import (build_psi, certify, certify_fields, hp, hp2, hp2_matrix,
                    linear_combination, pullback_metric, pullback_metric_field,
                    pullback_scalar, squared_field, transport_covector,
                    unit_sphere_seeds)
from uccert.carleman import build_weight, exponent_slopes, lambda_sweep
from uccert.cli import main as cli_main
from uccert.corner import (PairingTables, corner_corpus, detect_layer,
                           kink_profile_corpus, mollifier_commutator,
                           verify_extension_identities, verify_inequality_transfer)
from uccert.fields import PhasePoint
from uccert.grids import bump_corpus, bump_superposition_values, make_grid, unit_box
from uccert.models import (bumpy_wave_metric, carleman_section,
                           flattening_chart, ik_model, negative_controls)
from uccert.symbols import quadratic_form_values

SQ2 = np.sqrt(2.0)

# frozen residual constants: K fitted once per identity family on the
# analytic corpus (development measurement with ~3x headroom), reused
# unchanged at the refined resolution
WEAK_K = {"first": 0.4, "mixed_pair": 1.5, "edge": 0.3, "interior": 30.0}

# frozen empirical floor for the weighted-inequality ratio at lam >= 4
# (development measurement gave 4.78 at 256^2 and 4.82 at 512^2)
R_STAR_BOUND = 4.0


def banner(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def ik2_cert():
    m = ik_model(2)
    t0 = time.monotonic()
    cert = certify(m.geometry, m.x0, lam=2.0)
    return m, cert, time.monotonic() - t0


@pytest.fixture(scope="module")
def ik3_cert():
    m = ik_model(3)
    t0 = time.monotonic()
    cert = certify(m.geometry, m.x0, lam=2.0)
    return m, cert, time.monotonic() - t0


def sphere_scan_oracle(Q, psi0, psi1, x0, lam, n, band, seed=99):
    """Dense-scan oracle: sphere max of the curvature form, band minimum of
    the drift, and band maximum of the certification margin."""
    a = Q(x0)
    xis = unit_sphere_seeds(n, Q.dim, seed=seed)
    p_vals = np.einsum("ki,ij,kj->k", xis, a, xis)
    b1 = 2.0 * a @ psi1.grad(x0)
    b0 = 2.0 * a @ psi0.grad(x0)
    hp2_vals = quadratic_form_values(hp2_matrix(Q, psi1, x0), xis)
    in_band = (np.abs(p_vals) <= band) & (np.abs(xis @ b1) <= band)
    assert np.any(in_band), "oracle band is unpopulated; enlarge band or n"
    drift = np.abs(xis[in_band] @ b0)
    margins = hp2_vals[in_band] - 2.0 * lam * (xis[in_band] @ b0) ** 2
    return float(np.max(hp2_vals)), float(np.min(drift)), float(np.max(margins))


def test_criterion_01_model_sign_condition(tmp_path):
    """check --model ik2 reports the pairing value 2 +- 1e-8 everywhere."""
    out = str(tmp_path / "check")
    t0 = time.monotonic()
    rc = cli_main(["check", "--model", "ik2", "--out", out])
    elapsed = time.monotonic() - t0
    with open(os.path.join(out, "report.json")) as f:
        rep = json.load(f)
    sign = rep["hypotheses"]["checks"]["sign_condition"]
    ok = (rc == 0 and rep["passed"]
          and abs(sign["min_value"] - 2.0) <= 1e-8
          and abs(sign["max_value"] - 2.0) <= 1e-8
          and elapsed < 5.0)
    banner(1, "model sign condition", ok,
           f"(value in [{sign['min_value']:.10f}, {sign['max_value']:.10f}], {elapsed:.2f}s)")
    assert rc == 0 and rep["passed"]
    assert abs(sign["min_value"] - 2.0) <= 1e-8
    assert abs(sign["max_value"] - 2.0) <= 1e-8
    assert elapsed < 5.0


@pytest.mark.parametrize("fixture_name", ["ik2_cert", "ik3_cert"])
def test_criterion_02_model_certification(fixture_name, request):
    """m0 = sqrt(2) +- 1e-6, lambda0 = 1 +- 1e-3, margin = -6 +- 1e-3,
    cross-checked against a 1e6-point sphere scan; runtime < 30 s."""
    model, cert, elapsed = request.getfixturevalue(fixture_name)
    psi0, psi1 = build_psi(model.geometry)
    band = 3e-3 if model.d == 2 else 2e-2
    scan_max, scan_m0, scan_margin = sphere_scan_oracle(
        model.geometry.Q, psi0, psi1, model.x0, lam=2.0, n=10 ** 6, band=band)
    ok = (cert.status == "certified"
          and abs(cert.m0 - SQ2) <= 1e-6
          and abs(cert.lambda0 - 1.0) <= 1e-3
          and abs(cert.worst_margin - (-6.0)) <= 1e-3
          and elapsed < 30.0)
    banner(2, f"certification constants ({model.name})", ok,
           f"(m0={cert.m0:.8f}, lambda0={cert.lambda0:.6f}, "
           f"margin={cert.worst_margin:.6f}, {elapsed:.2f}s)")
    assert cert.status == "certified"
    assert abs(cert.m0 - SQ2) <= 1e-6
    assert abs(cert.lambda0 - 1.0) <= 1e-3
    assert abs(cert.worst_margin - (-6.0)) <= 1e-3
    assert elapsed < 30.0
    # oracle agreement at scan resolution
    assert abs(scan_max - 4.0) <= 1e-3
    assert abs(scan_m0 - cert.m0) <= 2.5 * band
    assert abs(scan_margin - cert.worst_margin) <= 30.0 * band


def test_criterion_03_key_identity_consistency(ik2_cert, ik3_cert):
    """margins via the algebraic reduction and via direct hp2 of the bent
    field agree to 1e-6 relative at every constraint sample."""
    worst = max(ik2_cert[1].route_disagreement, ik3_cert[1].route_disagreement)
    m = ik_model(2)
    psi0, psi1 = build_psi(m.geometry)
    qvar = bumpy_wave_metric(2, amp=0.06)
    cert_var = certify_fields(qvar, psi0, psi1, m.x0, lam=2.0, n=1200)
    worst = max(worst, cert_var.route_disagreement)
    ok = worst <= 1e-6 and cert_var.n_samples >= 1
    banner(3, "key-identity consistency", ok, f"(worst rel disagreement {worst:.2e})")
    assert cert_var.n_samples >= 1
    assert worst <= 1e-6


def test_criterion_04_negative_controls(tmp_path):
    """each control fails exactly its designated hypothesis; exit codes 1."""
    details = []
    ok = True
    for ctl in negative_controls():
        out = str(tmp_path / ctl.name)
        rc = cli_main(["check", "--model", ctl.name, "--out", out])
        with open(os.path.join(out, "report.json")) as f:
            rep = json.load(f)
        failed = rep["hypotheses"]["failed"]
        good = rc == 1 and failed == [ctl.designated_failure]
        ok = ok and good
        details.append(f"{ctl.name}->{failed}")
        assert rc == 1
        assert failed == [ctl.designated_failure]
    banner(4, "negative controls", ok, "(" + "; ".join(details) + ")")


def test_criterion_05_ray_contact(ik2_cert):
    """all certified constraint rays: tangent, below, curvature within 5% of
    -3; the uncorrected surface control is above within 5% of +1; < 10 s."""
    from uccert.rays import launch_and_classify
    model, cert, _ = ik2_cert
    psi0, psi1 = build_psi(model.geometry)
    bent = linear_combination([(1.0, psi1), (-2.0, squared_field(psi0))])
    q = model.geometry.Q
    t0 = time.monotonic()
    worst_bent = worst_surf = 0.0
    for xi in cert.samples:
        rep = launch_and_classify(q, bent, model.x0, xi)
        assert rep.tangency and rep.side == "below"
        assert abs(rep.fitted_c2 - (-3.0)) <= 0.05 * 3.0
        worst_bent = max(worst_bent, abs(rep.fitted_c2 + 3.0) / 3.0)
        rep1 = launch_and_classify(q, psi1, model.x0, xi)
        assert rep1.tangency and rep1.side == "above"
        assert abs(rep1.fitted_c2 - 1.0) <= 0.05
        worst_surf = max(worst_surf, abs(rep1.fitted_c2 - 1.0))
    elapsed = time.monotonic() - t0
    ok = elapsed < 10.0
    banner(5, "ray contact", ok,
           f"(bent err {worst_bent:.2%}, surface err {worst_surf:.2%}, {elapsed:.2f}s)")
    assert elapsed < 10.0


def test_criterion_06_corner_weak_identities():
    """analytic corpus, 20 test functions: residual <= K h^2 at h = 2/512,
    refinement shrink >= 3.5x, layer probe matches within 1%; the families
    that only exist in three dimensions are checked at a 64^3 smoke grid."""
    tests2 = bump_corpus(unit_box(2), 20, seed=42)
    g512 = make_grid(unit_box(2), 512)
    g1024 = make_grid(unit_box(2), 1024)
    tol512 = {k: v * float(np.max(g512.h)) ** 2 for k, v in WEAK_K.items()}
    tol1024 = {k: v * float(np.max(g1024.h)) ** 2 for k, v in WEAK_K.items()}

    corpus = corner_corpus(g512)
    assert len(corpus) >= 5
    tables512, tables1024 = PairingTables(g512, tests2), PairingTables(g1024, tests2)
    worst_ratio = np.inf
    for cf, cf_fine in zip(corpus, corner_corpus(g1024)):
        rep = verify_extension_identities(cf, tables512, tol_weak=tol512)
        assert rep["passed"], (cf.name, rep["family_max_residual"], tol512)
        rep_f = verify_extension_identities(cf_fine, tables1024, tol_weak=tol1024)
        assert rep_f["passed"], (cf.name, rep_f["family_max_residual"])
        for fam, r in rep["family_max_residual"].items():
            rf = rep_f["family_max_residual"][fam]
            if r > 1e-12:
                worst_ratio = min(worst_ratio, r / rf)
    assert worst_ratio >= 3.5

    # three-dimensional identity families (edge and interior blocks)
    tests3 = bump_corpus(unit_box(3), 8, seed=42)
    g64 = make_grid(unit_box(3), 64)
    tol64 = {k: v * float(np.max(g64.h)) ** 2 for k, v in WEAK_K.items()}
    tables3 = PairingTables(g64, tests3)
    for cf in corner_corpus(g64):
        rep3 = verify_extension_identities(cf, tables3, tol_weak=tol64)
        assert rep3["passed"], (cf.name, rep3["family_max_residual"])
        assert {"edge", "interior"} <= set(rep3["family_max_residual"])

    # layer probe on U = y1 y2: the mismatch against the analytic surface
    # integral stays below 1% of the layer magnitude, per test function
    layer = detect_layer(corpus[0], tables512)
    floor = 0.01 * layer["max_layer_magnitude"]
    rel_worst = 0.0
    for delta, s_phi in zip(layer["delta"], layer["surface_integral"], strict=True):
        mismatch = abs(delta - s_phi)
        if abs(s_phi) >= floor:
            rel = mismatch / abs(s_phi)
            rel_worst = max(rel_worst, rel)
            assert rel <= 0.01
        else:
            assert mismatch <= floor
    ok = worst_ratio >= 3.5 and rel_worst <= 0.01
    banner(6, "corner weak identities", ok,
           f"(shrink {worst_ratio:.2f}x, layer rel err {rel_worst:.2e})")


def test_criterion_07_inequality_transfer():
    """the constant measured on U, supplied back, holds for V at every node
    of the open quadrant off the box edges with zero violations."""
    g = make_grid(unit_box(2), 512)
    cf = corner_corpus(g)[1]          # the sine product
    b = [[0.0, 1.0], [1.0, 0.0]]
    measured = verify_inequality_transfer(cf, b)
    rep = verify_inequality_transfer(cf, b, C=measured["C"])
    ok = rep["violations"] == 0 and rep["nodes"] == measured["nodes"] == 255 ** 2
    banner(7, "inequality transfer", ok,
           f"(C={rep['C']:.3e}, {rep['nodes']} nodes, {rep['violations']} violations)")
    assert ok


def test_criterion_08_mollifier_commutator():
    """kink corpus: commutator norm decreases monotonically over 4 halvings
    of the smoothing width and ends <= 0.25x; constant multiplier <= 1e-12."""
    g = make_grid(unit_box(2), 512)
    hmax = float(np.max(g.h))
    eps = [0.32, 0.16, 0.08, 0.04, 0.02]
    assert eps[-1] >= 4.0 * hmax
    final_ratios = []
    for v in kink_profile_corpus(g, count=3, seed=5):
        norms = mollifier_commutator([0.4, 0.0], v, eps)
        assert all(n1 > n2 for n1, n2 in zip(norms, norms[1:]))
        assert norms[-1] <= 0.25 * norms[0]
        final_ratios.append(norms[-1] / norms[0])
    v0 = kink_profile_corpus(g, count=1, seed=5)[0]
    const_norms = mollifier_commutator([0.0, 0.0], v0, eps)
    assert max(const_norms) <= 1e-12
    banner(8, "mollifier commutator", True,
           f"(final/initial max {max(final_ratios):.3f}, const-a {max(const_norms):.1e})")


def test_criterion_09_carleman_sweep():
    """lam in {1,...,64} on a 50-bump corpus at 256^2: the ratio floor for
    lam >= 4 is positive and stable to 5% under h -> h/2; the wired lam
    exponents come back 1/2 and 3/2; runtime < 5 min."""
    q, bent, box = carleman_section(lam=2.0)
    weight = build_weight(bent, mu=1.0)
    lambdas = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    t0 = time.monotonic()
    floors = {}
    slopes = None
    for cells in (256, 512):
        grid = make_grid(box, cells)
        corpus = bump_superposition_values(grid, 50, seed=7)
        rep = lambda_sweep(q, weight, corpus, lambdas, grid)
        floors[cells] = rep.r_floor(4.0)
        if cells == 256:
            slopes = exponent_slopes(rep)
            assert not rep.decreasing_flags
    elapsed = time.monotonic() - t0
    drift = abs(floors[256] - floors[512]) / floors[512]
    ok = (floors[256] >= R_STAR_BOUND and drift <= 0.05
          and abs(slopes[0] - 0.5) <= 0.05 and abs(slopes[1] - 1.5) <= 0.05
          and elapsed < 300.0)
    banner(9, "carleman sweep", ok,
           f"(floor {floors[256]:.3f}, refinement drift {drift:.2%}, "
           f"slopes {slopes[0]:.3f}/{slopes[1]:.3f}, {elapsed:.1f}s)")
    assert floors[256] >= R_STAR_BOUND
    assert floors[512] >= R_STAR_BOUND
    assert drift <= 0.05
    assert abs(slopes[0] - 0.5) <= 0.05
    assert abs(slopes[1] - 1.5) <= 0.05
    assert elapsed < 300.0


def test_criterion_10_chart_invariance(ik2_cert):
    """certification redone in the flattening chart reproduces the certified
    status, the margins transport to within 1%, and the pulled-back (1,1)
    and (2,2) coefficient entries vanish to 1e-8."""
    model, cert, _ = ik2_cert
    chart = flattening_chart(model, model.x0)
    q = model.geometry.Q
    psi0, psi1 = build_psi(model.geometry)
    qk = pullback_metric_field(q, chart)
    psi0k = pullback_scalar(psi0, chart)
    psi1k = pullback_scalar(psi1, chart)
    y0 = chart.inverse(model.x0)

    rng = np.random.default_rng(21)
    worst_entry = 0.0
    for _ in range(25):
        y = rng.uniform(-0.15, 0.15, size=3)
        qky = pullback_metric(q, chart, y)
        worst_entry = max(worst_entry, abs(qky[0, 0]), abs(qky[1, 1]))
    assert worst_entry <= 1e-8

    cert_chart = certify_fields(qk, psi0k, psi1k, y0, lam=2.0, n=2000)
    assert cert_chart.status == "certified"

    # margin transport: evaluate the chart-side margin at the image of each
    # original constraint covector (no renormalization; the curvature form
    # is invariant pointwise on phase space, not on the unit sphere)
    worst_rel = 0.0
    for k, xi in enumerate(cert.samples):
        eta = transport_covector(chart, y0, xi)
        pp = PhasePoint(y0, eta)
        margin_chart = (hp2(qk, psi1k, pp)
                        - 2.0 * cert.lambda_used * hp(qk, psi0k, pp) ** 2)
        worst_rel = max(worst_rel, abs(margin_chart - cert.margins[k]) / abs(cert.margins[k]))
    ok = worst_rel <= 0.01 and cert_chart.status == "certified" and worst_entry <= 1e-8
    banner(10, "chart invariance", ok,
           f"(margin transport err {worst_rel:.2e}, corner entries {worst_entry:.1e}, "
           f"chart margin {cert_chart.worst_margin:.4f})")
    assert worst_rel <= 0.01
