import itertools

import numpy as np
import pytest
import scipy.fft
import scipy.signal
from numpy.testing import assert_allclose
from scipy.signal import fftconvolve

import uccert.corner

from uccert.corner import (LINEAR, ONE, SIN_PI, SQUARE, CornerField,
                           SampledField, _lab_weights, _mollifier_kernels, _second_order_form,
                           corner_corpus, detect_layer, extend_by_zero,
                           kink_profile_corpus, mollifier_commutator,
                           quadrant_mask, verify_extension_identities,
                           verify_inequality_transfer, weak_pairing)
from uccert.errors import HypothesisError, ResolutionError, SupportError
from uccert.grids import (Grid, ProductBump, bump_corpus, d1, d2, make_grid,
                          restricted_trapezoid, trapezoid, unit_box)

# residual bounds K*h^2, K fitted once on the analytic corpus (with headroom)
WEAK_K = {"first": 0.4, "mixed_pair": 1.5, "edge": 0.3, "interior": 30.0}


def _tols(grid):
    h2 = float(np.max(grid.h)) ** 2
    return {k: v * h2 for k, v in WEAK_K.items()}


def _axis_const(c):
    return (lambda u: np.full_like(np.asarray(u, dtype=float), c),
            lambda u: np.zeros_like(np.asarray(u, dtype=float)),
            lambda u: np.zeros_like(np.asarray(u, dtype=float)))


class TestExtendByZero:
    def test_constant_becomes_indicator(self):
        g = make_grid(unit_box(2), 32)
        cf = CornerField(g, [[_axis_const(1.0), _axis_const(1.0)]], "one")
        v = extend_by_zero(cf)
        assert_allclose(v, quadrant_mask(g).astype(float))

    def test_product_restricted(self):
        g = make_grid(unit_box(2), 32)
        cf = CornerField(g, [[LINEAR, LINEAR]], "xy")
        v = extend_by_zero(cf)
        mesh = g.meshgrid()
        assert_allclose(v, np.where((mesh[0] >= 0) & (mesh[1] >= 0),
                                    mesh[0] * mesh[1], 0.0))

    def test_vanishing_on_quadrant_gives_zero(self):
        g = make_grid(unit_box(2), 32)
        mesh = g.meshgrid()
        # 1 - H(y1) H(y2) with H the closed step
        step = (lambda u: (u >= 0.0) * 1.0, np.zeros_like, np.zeros_like)
        minus_step = (lambda u: (u >= 0.0) * -1.0, np.zeros_like, np.zeros_like)
        cf = CornerField(g, [[ONE, ONE], [minus_step, step]], "outside")
        assert np.array_equal(cf.values, np.where((mesh[0] < 0) | (mesh[1] < 0), 1.0, 0.0))
        assert np.all(extend_by_zero(cf) == 0.0)

    def test_face_condition_flags(self):
        g = make_grid(unit_box(2), 32)
        cf = CornerField(g, [[LINEAR, LINEAR]], "xy")
        assert max(cf.face_defects()) <= 1e-12
        # sin(pi y1) * 1 vanishes on face 1 (y1 = 0) but not on face 2
        face1, face2 = CornerField(g, [[SIN_PI, _axis_const(1.0)]], "sin1").face_defects()
        assert face1 <= 1e-12
        assert face2 > 1e-12


@pytest.mark.parametrize("box, cells", [
    (unit_box(2), 32), (np.array([[-1.0, 1.0], [-0.5, 2.0]]), (40, 30)), (unit_box(3), 12)])
@pytest.mark.parametrize("closed", [True, False])
def test_quadrant_mask_matches_meshgrid(box, cells, closed):
    g = make_grid(box, cells)
    mesh = g.meshgrid()
    want = ((mesh[0] >= 0.0) & (mesh[1] >= 0.0) if closed
            else (mesh[0] > 0.0) & (mesh[1] > 0.0))
    got = quadrant_mask(g, closed=closed)
    assert got.shape == g.shape and got.dtype == bool
    assert np.array_equal(got, want)


def _difference_partial(cf, alpha):
    """d^alpha U by d1/d2 differences of the grid values, on interior nodes."""
    out = cf.values
    for a, order in enumerate(alpha):
        if order:
            out = (d1, d2)[order - 1](out, a, cf.grid.h[a])
    return out[(slice(1, -1),) * cf.grid.dim]


@pytest.mark.parametrize("dim, cells", [(2, 64), (3, 24)])
def test_factor_partials_match_second_order_differences(dim, cells):
    # exact partials agree with the differences to rounding where those are
    # exact (low-degree polynomials), otherwise to O(h^2): about 4x per halving
    coarse, fine = (corner_corpus(make_grid(unit_box(dim), c)) for c in (cells, 2 * cells))
    ratios = []
    for cf_c, cf_f in zip(coarse, fine):
        for alpha in itertools.product(range(3), repeat=dim):
            err = [float(np.max(np.abs(cf.partial(alpha)[(slice(1, -1),) * dim]
                                       - _difference_partial(cf, alpha))))
                   for cf in (cf_c, cf_f)]
            if err[0] <= 1e-5:
                assert err[1] <= 1e-5, (cf_c.name, alpha, err)
            else:
                ratios.append(err[0] / err[1])
                assert 3.5 <= ratios[-1] <= 4.5, (cf_c.name, alpha, err)
    assert len(ratios) >= 20


class TestWeakPairing:
    def test_mixed_derivative_of_indicator_is_point_mass(self):
        # <d1 d2 (indicator), phi> = phi(0, 0); the indicator itself jumps at
        # the faces, so the node convention costs one order: error is O(h)
        errs = []
        for cells in (256, 512):
            g = make_grid(unit_box(2), cells)
            v = quadrant_mask(g).astype(float)
            worst = 0.0
            for phi in bump_corpus(unit_box(2), 6, seed=3):
                got = weak_pairing(v, g, (1, 1), phi)
                worst = max(worst, abs(got - phi([0.0, 0.0])))
                assert got == pytest.approx(phi([0.0, 0.0]), abs=float(g.h[0]))
            errs.append(worst)
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.3)

    def test_order_zero_is_plain_quadrature(self):
        g = make_grid(unit_box(2), 64)
        phi = ProductBump([0.2, -0.1], [0.4, 0.3])
        vals = np.ones(g.shape)
        from uccert.grids import trapezoid
        assert weak_pairing(vals, g, (0, 0), phi) == pytest.approx(
            trapezoid(phi.values_on_grid(g), g))

    def test_zero_field_pairs_to_zero(self):
        g = make_grid(unit_box(2), 64)
        phi = ProductBump([0.0, 0.0], [0.5, 0.5])
        for alpha in ((1, 0), (1, 1), (2, 0)):
            assert weak_pairing(np.zeros(g.shape), g, alpha, phi) == 0.0

    def test_support_touching_boundary_rejected(self):
        g = make_grid(unit_box(2), 64)
        phi = ProductBump([0.7, 0.0], [0.4, 0.4])
        with pytest.raises(SupportError):
            weak_pairing(np.ones(g.shape), g, (1, 0), phi)


class TestExtensionIdentities:
    def test_corpus_passes_at_two_resolutions(self):
        tests = bump_corpus(unit_box(2), 10, seed=42)
        for cells in (128, 256):
            g = make_grid(unit_box(2), cells)
            for cf in corner_corpus(g):
                rep = verify_extension_identities(cf, tests, tol_weak=_tols(g))
                assert rep["passed"], (cells, cf.name, rep["family_max_residual"])

    def test_residuals_shrink_second_order(self):
        tests = bump_corpus(unit_box(2), 10, seed=42)
        g1, g2 = make_grid(unit_box(2), 128), make_grid(unit_box(2), 256)
        r1 = verify_extension_identities(corner_corpus(g1)[1], tests)["family_max_residual"]
        r2 = verify_extension_identities(corner_corpus(g2)[1], tests)["family_max_residual"]
        for fam in r1:
            assert r1[fam] / r2[fam] >= 3.5

    def test_hypothesis_violation_rejected_and_large(self):
        g = make_grid(unit_box(2), 128)
        cf = CornerField(g, [[_axis_const(1.0), _axis_const(1.0)]], "one")
        with pytest.raises(HypothesisError):
            verify_extension_identities(cf, bump_corpus(unit_box(2), 3, seed=1))
        # the first-derivative identity fails by an O(1) amount for U = 1,
        # probed with a bump whose support straddles the face {y1 = 0, y2 > 0}
        phi = ProductBump([0.0, 0.3], [0.35, 0.35])
        v = extend_by_zero(cf)
        lhs = weak_pairing(v, g, (1, 0), phi)
        rhs = restricted_trapezoid(cf.partial((1, 0)) * phi.values_on_grid(g),
                                   g, half_axes=(0, 1))
        assert abs(lhs - rhs) > 1e-2

    def test_three_dimensional_families(self):
        tests = bump_corpus(unit_box(3), 5, seed=42)
        g = make_grid(unit_box(3), 32)
        cf = corner_corpus(g)[0]
        rep = verify_extension_identities(cf, tests, tol_weak=_tols(g))
        assert set(rep["family_max_residual"]) == {"first", "mixed_pair", "edge", "interior"}
        assert rep["passed"], rep["family_max_residual"]


class TestLayerProbe:
    def test_product_linear_has_layer(self):
        g = make_grid(unit_box(2), 256)
        tests = bump_corpus(unit_box(2), 10, seed=42)
        cf = corner_corpus(g)[0]          # U = y1 * y2
        rep = detect_layer(cf, tests)
        assert rep["max_layer_magnitude"] > 1e-3
        assert rep["max_mismatch"] <= 0.01 * rep["max_layer_magnitude"]
        # the face integral is analytically int_0^1 y phi(0, y) dy
        for row, phi in zip(rep["rows"], tests):
            ax = np.linspace(0.0, 1.0, 2001)
            density = ax * np.array([phi([0.0, y]) for y in ax])
            exact = np.trapezoid(density, ax)
            assert row["surface_integral"] == pytest.approx(exact, abs=1e-5)

    def test_square_normal_factor_kills_layer(self):
        g = make_grid(unit_box(2), 256)
        tests = bump_corpus(unit_box(2), 6, seed=2)
        cf = CornerField(g, [[SQUARE, LINEAR]], "sq")
        rep = detect_layer(cf, tests)
        assert rep["max_layer_magnitude"] <= 1e-10
        assert rep["max_mismatch"] <= _tols(g)["first"]

    @pytest.mark.parametrize("dim, cells", [(2, 128), (3, 24)])
    def test_face_values_from_profiles_equal_full_grid_row(self, dim, cells):
        g = make_grid(unit_box(dim), cells)
        tests = bump_corpus(unit_box(dim), 4, seed=5)
        cf = corner_corpus(g)[0]
        i0 = g.zero_index(0)
        du1 = cf.partial((1,) + (0,) * (dim - 1))
        face = Grid(g.box[1:], g.n_cells[1:])
        for row, phi in zip(detect_layer(cf, tests)["rows"], tests):
            full_row = phi.values_on_grid(g)[i0]
            assert row["surface_integral"] == pytest.approx(
                restricted_trapezoid(du1[i0] * full_row, face, half_axes=(0,)), rel=1e-12)

    def test_zero_field_trivial(self):
        g = make_grid(unit_box(2), 64)
        tests = bump_corpus(unit_box(2), 3, seed=2)
        cf = CornerField(g, [[_axis_const(0.0), _axis_const(0.0)]], "z")
        rep = detect_layer(cf, tests)
        assert rep["max_layer_magnitude"] == 0.0
        assert rep["max_mismatch"] == 0.0


def _straddling_bumps(box):
    """Bumps straddling face 1, face 2 and the corner, and one off the
    quadrant (every pairing with it is 0), all inside the box."""
    dim = len(box)
    rest = [0.5 * (lo + hi) for lo, hi in box[2:]]
    return [ProductBump([0.02, 0.4] + rest, 0.3, amplitude=1.3),
            ProductBump([0.4, -0.03] + rest, 0.3, amplitude=-0.8),
            ProductBump([0.05, 0.04] + rest, 0.25, amplitude=0.6),
            ProductBump([-0.5, -0.3] + rest, [0.3, 0.15] + [0.3] * (dim - 2))]


class TestSeparablePairing:
    """CornerField.pair against the full-grid quadratures it replaces."""

    @pytest.mark.parametrize("box, cells, names", [
        (unit_box(2), (40, 30), None),
        (np.array([[-1.0, 1.0], [-0.5, 2.0]]), (40, 30), None),
        (unit_box(3), (16, 20, 12), ("tapered_product",))])
    def test_matches_full_grid_quadrature(self, box, cells, names):
        g = make_grid(box, cells)
        dim = g.dim
        i0 = g.zero_index(0)
        face_grid = Grid(g.box[1:], g.n_cells[1:])
        quadrant = quadrant_mask(g)
        indices = list(itertools.product((0, 1, 2), repeat=dim))
        bumps = _straddling_bumps(box)
        fields = [cf for cf in corner_corpus(g) if names is None or cf.name in names]
        weak, quad, face = _lab_weights(fields[0], bumps)
        for phi in bumps:
            phi_beta = {beta: phi.partial_on_grid(g, beta) for beta in indices}
            for cf in fields:
                for alpha in indices:
                    du = cf.partial(alpha)
                    for beta in indices:
                        integrand = du * phi_beta[beta]
                        want = {"weak": trapezoid(np.where(quadrant, integrand, 0.0), g),
                                "quadrant": restricted_trapezoid(integrand, g, (0, 1)),
                                "face": restricted_trapezoid(integrand[i0], face_grid, (0,))}
                        for rule, w in (("weak", weak), ("quadrant", quad), ("face", face)):
                            got = cf.pair(phi, alpha, beta, w)
                            assert got == pytest.approx(want[rule], rel=1e-12), \
                                (cf.name, alpha, beta, rule)
                            if phi is bumps[-1]:
                                assert got == 0.0

    @pytest.mark.parametrize("dim, cells", [(2, 128), (3, 24)])
    def test_lab_forms_no_grid_array(self, monkeypatch, dim, cells):
        # run with the full-grid routes patched to raise, then check every
        # row against those routes
        g = make_grid(unit_box(dim), cells)
        tests = bump_corpus(unit_box(dim), 4, seed=42) + _straddling_bumps(unit_box(dim))[:3]
        corpus = corner_corpus(g)

        def forbidden(*args, **kwargs):
            raise AssertionError("the lab formed a grid array")
        monkeypatch.setattr(CornerField, "partial", forbidden)
        monkeypatch.setattr(ProductBump, "partial_on_grid", forbidden)
        monkeypatch.setattr(uccert.corner, "extend_by_zero", forbidden)
        got = [(verify_extension_identities(cf, tests, tol_weak=_tols(g)), detect_layer(cf, tests))
               for cf in corpus]
        monkeypatch.undo()
        i0 = g.zero_index(0)
        face_grid = Grid(g.box[1:], g.n_cells[1:])
        e0, e00 = (1,) + (0,) * (dim - 1), (2,) + (0,) * (dim - 1)
        for cf, (rep, layer) in zip(corpus, got):
            assert rep["passed"], (cf.name, rep["family_max_residual"])
            v = extend_by_zero(cf)
            for row in rep["rows"]:
                phi, alpha = tests[row["testfn"]], tuple(row["alpha"])
                rhs = restricted_trapezoid(cf.partial(alpha) * phi.values_on_grid(g), g, (0, 1))
                assert row["lhs"] == pytest.approx(weak_pairing(v, g, alpha, phi), rel=1e-12, abs=1e-16)
                assert row["rhs"] == pytest.approx(rhs, rel=1e-12, abs=1e-16)
            for row, phi in zip(layer["rows"], tests):
                delta = weak_pairing(v, g, e00, phi) - restricted_trapezoid(
                    cf.partial(e00) * phi.values_on_grid(g), g, (0, 1))
                s_phi = restricted_trapezoid((cf.partial(e0) * phi.values_on_grid(g))[i0],
                                             face_grid, (0,))
                assert row["delta"] == pytest.approx(delta, rel=1e-12, abs=1e-16)
                assert row["surface_integral"] == pytest.approx(s_phi, rel=1e-12, abs=1e-16)

    @pytest.mark.parametrize("lab", [verify_extension_identities, detect_layer])
    def test_support_touching_boundary_rejected(self, lab):
        g = make_grid(unit_box(2), 64)
        tests = bump_corpus(unit_box(2), 3, seed=1) + [ProductBump([0.7, 0.0], [0.4, 0.4])]
        with pytest.raises(SupportError):
            lab(corner_corpus(g)[0], tests)


class TestInequalityTransfer:
    def test_sinsin_zero_violations(self):
        g = make_grid(unit_box(2), 256)
        cf = corner_corpus(g)[1]          # product of sines
        b = [[0.0, 1.0], [1.0, 0.0]]
        rep = verify_inequality_transfer(cf, b, n_pts=10000, seed=1)
        assert rep["violations"] == 0
        assert rep["C"] > 0

    def test_supplied_constant_also_transfers(self):
        g = make_grid(unit_box(2), 128)
        cf = corner_corpus(g)[1]
        b = [[0.0, 1.0], [1.0, 0.0]]
        measured = verify_inequality_transfer(cf, b, n_pts=100, seed=1)["C"]
        rep = verify_inequality_transfer(cf, b, n_pts=5000, seed=2, C=measured)
        assert rep["violations"] == 0

    def test_second_order_matches_full_grid_entries(self):
        # each constant entry, spread over the grid as it once was, gives
        # the same sum bit for bit
        g = make_grid(unit_box(2), 64)
        cf = corner_corpus(g)[1]
        b = np.array([[0.0, 0.7], [0.7, 0.0]])
        want = np.zeros(g.shape)
        want += 2.0 * np.full(g.shape, 0.7) * cf.partial((1, 1))
        assert np.array_equal(_second_order_form(cf, b), want)

    def test_nonzero_corner_entry_rejected(self):
        g = make_grid(unit_box(2), 64)
        cf = corner_corpus(g)[1]
        b = [[1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(HypothesisError):
            verify_inequality_transfer(cf, b, n_pts=10)


class TestMollifier:
    def test_smooth_field_first_order_decay(self):
        # ~ O(eps) for twice-differentiable v; the grid must resolve the
        # smallest kernel comfortably or quadrature error pollutes the tail
        g = make_grid(unit_box(2), 512)
        mesh = g.meshgrid()
        a = SampledField(0.3 + 0.5 * mesh[0],
                         [0.5 * np.ones(g.shape), np.zeros(g.shape)])
        bump = ProductBump([0.0, 0.0], [0.45, 0.45])
        v = SampledField(bump.values_on_grid(g),
                         [bump.partial_on_grid(g, (1, 0)), bump.partial_on_grid(g, (0, 1))])
        eps = [0.32, 0.16, 0.08, 0.04]
        norms = mollifier_commutator(a, v, g, eps)
        assert all(n1 > n2 for n1, n2 in zip(norms, norms[1:]))
        # O(eps): three halvings shrink the norm by about 8 (first-order
        # behavior only sets in once eps is small against the field scale)
        assert norms[0] / norms[-1] >= 5.0
        assert norms[-2] / norms[-1] >= 1.7

    def test_kink_corpus_decays(self):
        g = make_grid(unit_box(2), 256)
        mesh = g.meshgrid()
        a = SampledField(0.5 + 0.4 * mesh[0],
                         [0.4 * np.ones(g.shape), np.zeros(g.shape)])
        eps = [0.32, 0.16, 0.08, 0.04]
        for v in kink_profile_corpus(g, count=2, seed=5):
            norms = mollifier_commutator(a, v, g, eps)
            assert all(n1 > n2 for n1, n2 in zip(norms, norms[1:]))

    def test_constant_multiplier_exact_zero(self):
        g = make_grid(unit_box(2), 256)
        a = SampledField(0.7 * np.ones(g.shape),
                         [np.zeros(g.shape), np.zeros(g.shape)])
        v = kink_profile_corpus(g, count=1, seed=5)[0]
        norms = mollifier_commutator(a, v, g, [0.2, 0.1, 0.05])
        assert max(norms) <= 1e-12

    def test_unresolved_eps_rejected(self):
        g = make_grid(unit_box(2), 64)
        v = kink_profile_corpus(g, count=1, seed=5)[0]
        a = SampledField(np.ones(g.shape), [np.zeros(g.shape)] * 2)
        with pytest.raises(ResolutionError):
            mollifier_commutator(a, v, g, [2.0 / 64])


def _kernels_inline(grid, eps):
    """The mollifier kernels with the bump formula written out: the oracle
    for _mollifier_kernels, which reads it from grids._bump."""
    h = grid.h
    offsets = [hh * np.arange(-int(np.floor(eps / hh)), int(np.floor(eps / hh)) + 1)
               for hh in h]
    mesh = np.meshgrid(*[o / eps for o in offsets], indexing="ij")
    s = 1.0 - sum(m * m for m in mesh)
    safe = s > 1e-8
    base = np.zeros(s.shape)
    base[safe] = np.exp(-1.0 / s[safe])
    z = float(np.sum(base)) * float(np.prod(h))
    kgrads = []
    for a in range(grid.dim):
        ka = np.zeros(s.shape)
        ka[safe] = base[safe] * (-2.0 * mesh[a][safe] / (s[safe] ** 2))
        kgrads.append(ka / (z * eps))
    return base / z, kgrads


@pytest.mark.parametrize("box, cells, eps", [
    (unit_box(2), 512, 0.04), (unit_box(2), 128, 0.25), (unit_box(2), 96, 1.0 / 12),
    (np.array([[-1.0, 1.0], [0.0, 3.0]]), (64, 80), 0.3), (unit_box(3), 48, 0.3)])
def test_mollifier_kernels_match_inline_formula(box, cells, eps):
    grid = make_grid(box, cells)
    k0, kg = _mollifier_kernels(grid, eps)
    o0, og = _kernels_inline(grid, eps)
    assert np.array_equal(k0, o0)
    assert len(kg) == len(og) == grid.dim
    assert all(np.array_equal(a, b) for a, b in zip(kg, og))


def _commutator_by_fftconvolve(a, v, grid, eps_list):
    """Three independent fftconvolve calls per (j, k): the oracle for the
    spectrum-reusing commutator."""
    cell = float(np.prod(grid.h))

    def conv(field, kernel):
        return fftconvolve(field, kernel, mode="same") * cell

    out = []
    for eps in eps_list:
        k0, kg = _mollifier_kernels(grid, eps)
        total = 0.0
        for j in range(grid.dim):
            for k in range(grid.dim):
                djk = (a.values * conv(v.grads[k], kg[j]) - conv(a.values * v.grads[k], kg[j])
                       + conv(a.grads[j] * v.grads[k], k0))
                total += trapezoid(djk * djk, grid)
        out.append(float(np.sqrt(total)))
    return out


class TestMollifierSpectra:
    EPS = [0.32, 0.16, 0.08, 0.04]

    @pytest.mark.parametrize("slope", [(0.4, 0.0), (0.4, -0.25)])
    def test_matches_three_convolution_formula(self, slope):
        g = make_grid(unit_box(2), 256)
        mesh = g.meshgrid()
        a = SampledField(0.5 + slope[0] * mesh[0] + slope[1] * mesh[1],
                         [np.full(g.shape, slope[0]), np.full(g.shape, slope[1])])
        v = kink_profile_corpus(g, count=1, seed=5)[0]
        got = mollifier_commutator(a, v, g, self.EPS)
        assert_allclose(got, _commutator_by_fftconvolve(a, v, g, self.EPS), rtol=1e-12)

    def test_makes_no_fftconvolve_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fftconvolve called")
        monkeypatch.setattr(uccert.corner, "fftconvolve", refuse)
        monkeypatch.setattr(scipy.signal, "fftconvolve", refuse)
        g = make_grid(unit_box(2), 64)
        a = SampledField(np.ones(g.shape), [np.zeros(g.shape)] * 2)
        v = kink_profile_corpus(g, count=1, seed=5)[0]
        assert len(mollifier_commutator(a, v, g, [0.25, 0.125])) == 2


class TestMollifierWindow:
    """The transforms run on the support window of v's gradients; the
    results must still match the whole-grid fftconvolve oracle."""

    @staticmethod
    def _record_rfftn(monkeypatch):
        calls = []
        rfftn = scipy.fft.rfftn

        def recording(x, s=None, *args, **kwargs):
            calls.append(tuple(s))
            return rfftn(x, s, *args, **kwargs)
        monkeypatch.setattr(scipy.fft, "rfftn", recording)
        return calls

    @staticmethod
    def _linear_multiplier(grid, slopes):
        mesh = grid.meshgrid()
        return SampledField(0.5 + sum(c * m for c, m in zip(slopes, mesh)),
                            [np.full(grid.shape, c) for c in slopes])

    def test_zero_gradients_give_zero(self, monkeypatch):
        calls = self._record_rfftn(monkeypatch)
        g = make_grid(unit_box(2), 64)
        a = self._linear_multiplier(g, (0.4, -0.25))
        v = SampledField(np.full(g.shape, 0.3), [np.zeros(g.shape)] * 2)
        eps = [0.25, 0.125]
        got = mollifier_commutator(a, v, g, eps)
        assert got == [0.0, 0.0] and not calls
        assert_allclose(got, _commutator_by_fftconvolve(a, v, g, eps), rtol=1e-12)
        with pytest.raises(ResolutionError):
            mollifier_commutator(a, v, g, [2.0 / 64])

    def test_support_reaching_the_edge_uses_the_whole_grid(self, monkeypatch):
        g = make_grid(unit_box(2), 128)
        x, y = g.meshgrid()
        a = self._linear_multiplier(g, (0.4, -0.25))
        v = SampledField(np.sin(2.0 * x) + y * y, [2.0 * np.cos(2.0 * x), 2.0 * y])
        eps = [0.25, 0.125]
        want = _commutator_by_fftconvolve(a, v, g, eps)
        calls = self._record_rfftn(monkeypatch)
        assert_allclose(mollifier_commutator(a, v, g, eps), want, rtol=1e-12)
        from scipy.fft import next_fast_len
        full = {tuple(next_fast_len(n + m - 1, real=True)
                      for n, m in zip(g.shape, _mollifier_kernels(g, e)[0].shape)) for e in eps}
        assert set(calls) == full

    def test_three_dimensional_kink(self):
        g = make_grid(unit_box(3), 48)
        a = self._linear_multiplier(g, (0.4, 0.0, 0.2))
        v = kink_profile_corpus(g, count=1, seed=5)[0]
        eps = [0.35, 0.175]
        assert_allclose(mollifier_commutator(a, v, g, eps),
                        _commutator_by_fftconvolve(a, v, g, eps), rtol=1e-12)

    def test_non_square_grid_off_centre_bump(self):
        g = make_grid(np.array([[-1.0, 1.0], [0.0, 3.0]]), (64, 80))
        a = self._linear_multiplier(g, (0.3, 0.15))
        bump = ProductBump([0.35, 2.1], [0.4, 0.6])
        v = SampledField(bump.values_on_grid(g),
                         [bump.partial_on_grid(g, (1, 0)), bump.partial_on_grid(g, (0, 1))])
        eps = [0.6, 0.3, 0.15]
        assert_allclose(mollifier_commutator(a, v, g, eps),
                        _commutator_by_fftconvolve(a, v, g, eps), rtol=1e-12)

    def test_transforms_are_smaller_than_the_padded_grid(self, monkeypatch):
        from scipy.fft import next_fast_len
        g = make_grid(unit_box(2), 256)
        a = self._linear_multiplier(g, (0.4, 0.0))
        v = kink_profile_corpus(g, count=1, seed=5)[0]
        support = (v.grads[0] != 0) | (v.grads[1] != 0)
        unfilled = [ax for ax in range(2) if not support.any(axis=1 - ax).all()]
        assert unfilled
        calls = self._record_rfftn(monkeypatch)
        for eps in [0.32, 0.16, 0.08, 0.04]:
            calls.clear()
            mollifier_commutator(a, v, g, [eps])
            kernel = _mollifier_kernels(g, eps)[0].shape
            assert calls
            for ax in unfilled:
                padded = next_fast_len(g.shape[ax] + kernel[ax] - 1, real=True)
                assert all(s[ax] < padded for s in calls)


def test_fftconvolve_forwards_to_scipy():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((37, 29))
    k = rng.standard_normal((9, 7))
    got = uccert.corner.fftconvolve(x, k, mode="same")
    assert np.array_equal(got, fftconvolve(x, k, mode="same"))
    assert np.array_equal(uccert.corner.fftconvolve(x, k[:1], axes=1),
                          fftconvolve(x, k[:1], axes=1))
