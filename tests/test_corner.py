import itertools
import re
import tracemalloc

import numpy as np
import pytest
import scipy.signal
from numpy.testing import assert_allclose
from scipy.signal import fftconvolve

import uccert.corner
import uccert.grids

from uccert.cli import _corner_layer, _corner_mollifier, _plan_corner, resolve_args
from uccert.corner import (LINEAR, ONE, SIN_PI, SQUARE, CornerField, PairingTables,
                           _lab_weights, _mollifier_kernels, corner_corpus,
                           detect_layer, extend_by_zero, identity_families,
                           kink_profile_corpus, mollifier_commutator,
                           quadrant_mask, verify_extension_identities,
                           verify_inequality_transfer, weak_pairing)
from uccert.errors import ContractViolation, HypothesisError, ResolutionError, SupportError
from uccert.grids import (Grid, ProductBump, bump_corpus, bump_profiles, d1, d2, make_grid,
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
            tables = PairingTables(g, tests)
            for cf in corner_corpus(g):
                rep = verify_extension_identities(cf, tables, tol_weak=_tols(g))
                assert rep["passed"], (cells, cf.name, rep["family_max_residual"])

    def test_residuals_shrink_second_order(self):
        tests = bump_corpus(unit_box(2), 10, seed=42)
        g1, g2 = make_grid(unit_box(2), 128), make_grid(unit_box(2), 256)
        r1, r2 = (verify_extension_identities(corner_corpus(g)[1], PairingTables(g, tests))
                  ["family_max_residual"] for g in (g1, g2))
        for fam in r1:
            assert r1[fam] / r2[fam] >= 3.5

    def test_hypothesis_violation_rejected_and_large(self):
        g = make_grid(unit_box(2), 128)
        cf = CornerField(g, [[_axis_const(1.0), _axis_const(1.0)]], "one")
        with pytest.raises(HypothesisError):
            verify_extension_identities(cf, PairingTables(g, bump_corpus(unit_box(2), 3, seed=1)))
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
        rep = verify_extension_identities(cf, PairingTables(g, tests), tol_weak=_tols(g))
        assert set(rep["family_max_residual"]) == {"first", "mixed_pair", "edge", "interior"}
        assert rep["passed"], rep["family_max_residual"]


class TestLayerProbe:
    def test_product_linear_has_layer(self):
        g = make_grid(unit_box(2), 256)
        tests = bump_corpus(unit_box(2), 10, seed=42)
        cf = corner_corpus(g)[0]          # U = y1 * y2
        rep = detect_layer(cf, PairingTables(g, tests))
        assert rep["max_layer_magnitude"] > 1e-3
        assert rep["max_mismatch"] <= 0.01 * rep["max_layer_magnitude"]
        assert rep["delta"].shape == rep["surface_integral"].shape == (len(tests),)
        # the face integral is analytically int_0^1 y phi(0, y) dy
        ax = np.linspace(0.0, 1.0, 2001)
        exact = np.array([np.trapezoid(ax * np.array([phi([0.0, y]) for y in ax]), ax) for phi in tests])
        assert rep["surface_integral"] == pytest.approx(exact, abs=1e-5)

    def test_square_normal_factor_kills_layer(self):
        g = make_grid(unit_box(2), 256)
        tests = bump_corpus(unit_box(2), 6, seed=2)
        cf = CornerField(g, [[SQUARE, LINEAR]], "sq")
        rep = detect_layer(cf, PairingTables(g, tests))
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
        got = detect_layer(cf, PairingTables(g, tests))["surface_integral"]
        for s_phi, phi in zip(got, tests, strict=True):
            full_row = phi.values_on_grid(g)[i0]
            assert s_phi == pytest.approx(
                restricted_trapezoid(du1[i0] * full_row, face, half_axes=(0,)), rel=1e-12)

    def test_zero_field_trivial(self):
        g = make_grid(unit_box(2), 64)
        tests = bump_corpus(unit_box(2), 3, seed=2)
        cf = CornerField(g, [[_axis_const(0.0), _axis_const(0.0)]], "z")
        rep = detect_layer(cf, PairingTables(g, tests))
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
        tables = PairingTables(g, bumps)
        for t, phi in enumerate(bumps):
            phi_beta = {beta: phi.partial_on_grid(g, beta) for beta in indices}
            for cf in fields:
                for alpha in indices:
                    du = cf.partial(alpha)
                    for beta in indices:
                        integrand = du * phi_beta[beta]
                        want = {"weak": trapezoid(np.where(quadrant, integrand, 0.0), g),
                                "quadrant": restricted_trapezoid(integrand, g, (0, 1)),
                                "face": restricted_trapezoid(integrand[i0], face_grid, (0,))}
                        for rule in ("weak", "quadrant", "face"):
                            got = cf.pair(tables, alpha, beta, rule)[t]
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
        partial = CornerField.partial

        def forbidden(*args, **kwargs):
            raise AssertionError("the lab formed a grid array")

        def below_grid_size(cf, alpha, idx=None):
            out = partial(cf, alpha, idx)
            if np.size(out) >= np.prod(g.shape):
                forbidden()
            return out
        monkeypatch.setattr(CornerField, "partial", below_grid_size)
        monkeypatch.setattr(ProductBump, "partial_on_grid", forbidden)
        monkeypatch.setattr(uccert.corner, "extend_by_zero", forbidden)
        tables = PairingTables(g, tests)
        got = [(verify_extension_identities(cf, tables, tol_weak=_tols(g)), detect_layer(cf, tables))
               for cf in corpus]
        monkeypatch.undo()
        i0 = g.zero_index(0)
        face_grid = Grid(g.box[1:], g.n_cells[1:])
        e0, e00 = (1,) + (0,) * (dim - 1), (2,) + (0,) * (dim - 1)
        alphas = [alpha for members in identity_families(dim).values() for alpha in members]
        for cf, (rep, layer) in zip(corpus, got):
            assert rep["passed"], (cf.name, rep["family_max_residual"])
            assert rep["lhs"].shape == rep["rhs"].shape == (len(alphas), len(tests))
            v = extend_by_zero(cf)
            for t, phi in enumerate(tests):
                for a, alpha in enumerate(alphas):
                    rhs = restricted_trapezoid(cf.partial(alpha) * phi.values_on_grid(g), g, (0, 1))
                    assert rep["lhs"][a, t] == pytest.approx(weak_pairing(v, g, alpha, phi),
                                                             rel=1e-12, abs=1e-16)
                    assert rep["rhs"][a, t] == pytest.approx(rhs, rel=1e-12, abs=1e-16)
                delta = weak_pairing(v, g, e00, phi) - restricted_trapezoid(
                    cf.partial(e00) * phi.values_on_grid(g), g, (0, 1))
                s_phi = restricted_trapezoid((cf.partial(e0) * phi.values_on_grid(g))[i0],
                                             face_grid, (0,))
                assert layer["delta"][t] == pytest.approx(delta, rel=1e-12, abs=1e-16)
                assert layer["surface_integral"][t] == pytest.approx(s_phi, rel=1e-12, abs=1e-16)

    def test_support_touching_boundary_rejected(self):
        g = make_grid(unit_box(2), 64)
        tests = bump_corpus(unit_box(2), 3, seed=1) + [ProductBump([0.7, 0.0], [0.4, 0.4])]
        with pytest.raises(SupportError):
            PairingTables(g, tests)

    def test_support_error_names_the_first_test_function_outside(self):
        g = make_grid(unit_box(2), 64)
        tests = (bump_corpus(unit_box(2), 3, seed=1)
                 + [ProductBump([0.7, 0.0], [0.4, 0.4]), ProductBump([0.0, -0.8], 0.3)])
        support = [[0.7 - 0.4, 0.7 + 0.4], [-0.4, 0.4]]
        want = f"test function 3 has support {support}, which is not inside the working box " \
               f"{[[-1.0, 1.0], [-1.0, 1.0]]}"
        with pytest.raises(SupportError, match=re.escape(want)):
            PairingTables(g, tests)

    @pytest.mark.parametrize("lab", [verify_extension_identities, detect_layer])
    @pytest.mark.parametrize("box, cells", [(unit_box(2), 32), (np.array([[-1.0, 1.0], [-2.0, 2.0]]), 64)],
                             ids=["other-shape", "other-box"])
    def test_tables_on_another_grid_rejected(self, lab, box, cells):
        tables = PairingTables(make_grid(box, cells), bump_corpus(unit_box(2), 3, seed=1))
        with pytest.raises(ContractViolation, match="another grid"):
            lab(corner_corpus(make_grid(unit_box(2), 64))[0], tables)

    @pytest.mark.parametrize("dim, cells, straddling", [(2, 512, False), (3, 24, False),
                                                         (2, 64, True), (3, 24, True)])
    def test_tables_equal_per_bump_profiles(self, dim, cells, straddling):
        # the routes the corpus-wide evaluation replaced: axis_profile, one bump
        # at a time, and the formula it once wrote out with a scalar radius
        g = make_grid(unit_box(dim), cells)
        bumps = _straddling_bumps(unit_box(dim)) if straddling else bump_corpus(unit_box(dim), 20, seed=42)
        tables = PairingTables(g, bumps)
        assert np.array_equal(tables.amplitudes, [phi.amplitude for phi in bumps])
        assert len(tables.profiles) == dim
        for a, x in enumerate(g.axes()):
            assert tables.profiles[a].shape == (3, len(bumps), x.size)
            for order in range(3):
                for t, phi in enumerate(bumps):
                    c, r = phi.center[a], phi.radius[a]
                    got = tables.profiles[a][order, t]
                    assert np.array_equal(got, phi.axis_profile(x, a, order)), (a, order, t)
                    assert np.array_equal(got, bump_profiles((x - c) / r, 1.0, order) / r ** order)
        want = _lab_weights(g)
        assert tables.weights.keys() == want.keys()
        for rule, weights in want.items():
            assert all(np.array_equal(w, v) for w, v in zip(tables.weights[rule], weights, strict=True))

    @pytest.mark.parametrize("dim, cells, exact", [(2, 512, True), (3, 32, True), (2, 100, False)])
    def test_pair_equals_weighted_tables(self, dim, cells, exact):
        # the tables pair once read: per rule and axis, the weights applied to
        # the bumps' profiles, (w * profile) @ factor.  Every weight is 0, 1, h
        # or h/2, so on power-of-two cell counts moving it to U's factor keeps
        # every product, and the sums, bit for bit
        g = make_grid(unit_box(dim), cells)
        bumps = bump_corpus(unit_box(dim), 20, seed=42) + _straddling_bumps(unit_box(dim))
        tables = PairingTables(g, bumps)
        indices = list(itertools.product((0, 1, 2), repeat=dim))
        for cf in corner_corpus(g):
            for rule, weights in _lab_weights(g).items():
                weighted = [w * p for w, p in zip(weights, tables.profiles)]
                for alpha in indices:
                    for beta in indices:
                        want, scale = 0.0, 0.0
                        for term in cf.tables:
                            piece, size = 1.0, 1.0
                            for a, table in enumerate(weighted):
                                piece = piece * (table[beta[a]] @ term[a][alpha[a]])
                                size = size * (np.abs(table[beta[a]]) @ np.abs(term[a][alpha[a]]))
                            want, scale = want + piece, scale + size
                        want = tables.amplitudes * want
                        got = cf.pair(tables, alpha, beta, rule)
                        if exact:
                            assert np.array_equal(got, want), (cf.name, rule, alpha, beta)
                        else:
                            # to rounding of the sum of the products' magnitudes, as a
                            # sum that cancels may lose every bit
                            err = np.abs(got - want)
                            assert np.all(err <= 1e-14 * np.abs(tables.amplitudes) * scale), \
                                (cf.name, rule, alpha, beta)

    def test_empty_corpus_rejected(self):
        # with no test function every identity would pass and the layer read 0
        g = make_grid(unit_box(2), 64)
        with pytest.raises(ContractViolation, match="at least one test function"):
            PairingTables(g, [])

    @pytest.mark.parametrize("dim, cells", [(2, 512), (3, 24)])
    def test_batched_pair_equals_windowed_dots(self, dim, cells):
        # the route pair replaced: per test function, axis and term of U, one
        # dot over the window where the bump's weighted factor is nonzero.  A
        # 1-D sum may cancel to far below its terms, so the two summation
        # orders are held to rounding of the sum of the products' magnitudes,
        # a dot product's error bound
        g = make_grid(unit_box(dim), cells)
        bumps = bump_corpus(unit_box(dim), 20, seed=42)
        tables = PairingTables(g, bumps)
        indices = list(itertools.product((0, 1, 2), repeat=dim))
        got, want, scale = [], [], []
        for cf in corner_corpus(g):
            for rule, weights in _lab_weights(g).items():
                # dots[t, a, beta_a, alpha_a, term] is the windowed dot and the dot of
                # magnitudes, both 0 where the weighted bump factor has no nonzero node
                dots = np.zeros((len(bumps), dim, 3, 3, len(cf.tables), 2))
                for t, phi in enumerate(bumps):
                    for a, (w, x) in enumerate(zip(weights, g.axes())):
                        for order in range(3):
                            factor = w * phi.axis_profile(x, a, order)
                            nz = np.flatnonzero(factor)
                            if nz.size == 0:
                                continue
                            on = slice(nz[0], nz[-1] + 1)
                            for k in range(3):
                                for i, term in enumerate(cf.tables):
                                    dots[t, a, order, k, i] = (factor[on] @ term[a][k][on],
                                                               np.abs(factor[on]) @ np.abs(term[a][k][on]))
                amplitudes = np.array([phi.amplitude for phi in bumps])
                for alpha in indices:
                    for beta in indices:
                        got.append(cf.pair(tables, alpha, beta, rule))
                        # per test and term the product over the axes in axis order,
                        # then the terms summed in order
                        sums = np.prod(dots[:, range(dim), beta, alpha], axis=1).sum(axis=1)
                        want.append(amplitudes * sums[:, 0])
                        scale.append(np.abs(amplitudes) * sums[:, 1])
        got, want, scale = np.concatenate(got), np.concatenate(want), np.concatenate(scale)
        np.testing.assert_array_less(np.abs(got - want), 1e-13 * scale + 1e-16)
        # and where no 1-D sum cancels, the values agree to 1e-13 relative
        exact = np.abs(want) >= 1e-3 * scale
        assert got[exact] == pytest.approx(want[exact], rel=1e-13, abs=1e-16)

    def test_pair_calls_do_not_grow_with_the_corpus(self, monkeypatch):
        g = make_grid(unit_box(2), 64)
        cf = corner_corpus(g)[0]
        pair = CornerField.pair
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return pair(*args)
        monkeypatch.setattr(CornerField, "pair", counted)
        counts = []
        for count in (4, 40):
            calls.clear()
            tables = PairingTables(g, bump_corpus(unit_box(2), count, seed=3))
            verify_extension_identities(cf, tables)
            detect_layer(cf, tables)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestInequalityTransfer:
    def test_sinsin_measured_constant(self):
        g = make_grid(unit_box(2), 256)
        cf = corner_corpus(g)[1]          # product of sines
        b = [[0.0, 1.0], [1.0, 0.0]]
        rep = verify_inequality_transfer(cf, b)
        assert rep["passed"] and rep["C"] > 0
        # the open quadrant's nodes off the box edges: 127 per axis
        assert rep["nodes"] == 127 ** 2 and set(rep) == {"field", "C", "nodes", "passed"}

    def test_supplied_constant_also_transfers(self):
        g = make_grid(unit_box(2), 128)
        cf = corner_corpus(g)[1]
        b = [[0.0, 1.0], [1.0, 0.0]]
        measured = verify_inequality_transfer(cf, b)
        rep = verify_inequality_transfer(cf, b, C=measured["C"])
        assert rep["violations"] == 0 and rep["nodes"] == measured["nodes"] == 63 ** 2

    def test_zero_field_leaves_no_constant_to_measure(self):
        # every denominator is 0 on the open quadrant (a ValueError from an
        # empty max before the transfer went to slabs)
        g = make_grid(unit_box(2), 64)
        cf = CornerField(g, [[_axis_const(0.0), _axis_const(0.0)]], "z")
        with pytest.raises(HypothesisError, match="void"):
            verify_inequality_transfer(cf, [[0.0, 1.0], [1.0, 0.0]])
        assert verify_inequality_transfer(cf, [[0.0, 1.0], [1.0, 0.0]], C=1.0)["passed"]

    def test_nonzero_corner_entry_rejected(self):
        g = make_grid(unit_box(2), 64)
        cf = corner_corpus(g)[1]
        b = [[1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(HypothesisError):
            verify_inequality_transfer(cf, b)


def _unit(dim, *axes):
    alpha = [0] * dim
    for a in axes:
        alpha[a] += 1
    return tuple(alpha)


def _partial_on_full_grid(cf, alpha):
    """d^alpha U on every node, each factor evaluated afresh on its axis."""
    out = np.zeros(cf.grid.shape)
    for term in cf.terms:
        piece = np.array(1.0)
        for a, axis in enumerate(cf.grid.axes()):
            piece = np.multiply.outer(piece, term[a][alpha[a]](axis))
        out += piece
    return out


def transfer_on_full_grid(cf, B, C=None, tol_char=1e-12):
    """The oracle for verify_inequality_transfer: the form, |grad U| + |U| and
    the open-quadrant mask off the box edges as arrays of the grid's shape,
    each gate, C and the check against a supplied C taken over the mask at
    once."""
    grid = cf.grid
    dim = grid.dim
    B = np.asarray(B, dtype=float)
    if max(abs(B[0, 0]), abs(B[1, 1])) > tol_char:
        raise HypothesisError("coefficient matrix has nonzero (1,1) or (2,2) entry")
    bu = np.zeros(grid.shape)
    for j in range(B.shape[0]):
        for k in range(j, B.shape[0]):
            if B[j, k] != 0.0:
                mult = 1.0 if j == k else 2.0
                bu += mult * float(B[j, k]) * _partial_on_full_grid(cf, _unit(dim, j, k))
    grad_mag = np.zeros(grid.shape)
    for a in range(dim):
        grad_mag += _partial_on_full_grid(cf, _unit(dim, a)) ** 2
    grad_mag = np.sqrt(grad_mag)
    denom = grad_mag + np.abs(_partial_on_full_grid(cf, _unit(dim)))

    interior = np.zeros(grid.shape, dtype=bool)
    interior[(slice(1, -1),) * dim] = True
    open_quadrant = quadrant_mask(grid, closed=False) & interior
    lhs = np.abs(bu)
    for what, bad in (("NaN form or denominator", np.isnan(lhs) | np.isnan(denom)),
                      ("zero denominator with nonzero second-order form", (denom <= 0) & (lhs > tol_char))):
        if np.any(bad & open_quadrant):
            w = np.argwhere(bad & open_quadrant)[0]
            raise HypothesisError(f"inequality hypothesis fails on the open quadrant: {what} at node {tuple(w)}")
    lhs, denom = lhs[open_quadrant], denom[open_quadrant]
    nodes = int(np.count_nonzero(open_quadrant))
    if C is None:
        ok = denom > 0
        if not np.any(ok):
            raise HypothesisError("inequality hypothesis is void")
        return {"field": cf.name, "C": float(np.max(lhs[ok] / denom[ok])), "nodes": nodes, "passed": True}
    rhs = C * denom
    violations = int(np.count_nonzero(lhs > rhs + 1e-12 * (1.0 + np.abs(rhs))))
    return {"field": cf.name, "C": float(C), "nodes": nodes, "violations": violations,
            "worst_excess": float(np.max(lhs - rhs, initial=-np.inf)), "passed": violations == 0}


SWAP = [[0.0, 1.0], [1.0, 0.0]]


class TestTransferOracle:
    """verify_inequality_transfer, in slabs, against the full-grid oracle:
    the reports are equal, every number bit for bit.
    A slab of 37 nodes holds at most one axis-0 row of these grids, so the
    second case takes the supremum row by row."""

    @pytest.mark.parametrize("slab_nodes", [uccert.corner.SLAB_NODES, 37])
    @pytest.mark.parametrize("box, cells, b", [
        (unit_box(2), 64, SWAP), (unit_box(2), 256, SWAP),
        (np.array([[-1.0, 1.0], [-0.5, 2.0]]), (40, 30), [[0.0, -0.6], [-0.6, 0.0]]),
        (unit_box(3), 48, [[0.0, 1.0, 0.3], [1.0, 0.0, 0.0], [0.3, 0.0, 0.5]])],
        ids=["64", "256", "non-square", "3d-48"])
    def test_report_equals_oracle(self, monkeypatch, box, cells, b, slab_nodes):
        monkeypatch.setattr(uccert.corner, "SLAB_NODES", slab_nodes)
        for cf in corner_corpus(make_grid(box, cells)):
            for kwargs in ({}, {"C": 0.9}):
                assert (verify_inequality_transfer(cf, b, **kwargs)
                        == transfer_on_full_grid(cf, b, **kwargs)), (cf.name, kwargs)

    @pytest.mark.parametrize("slab_nodes", [uccert.corner.SLAB_NODES, 37])
    def test_zero_denominator_names_the_oracle_node(self, monkeypatch, slab_nodes):
        # U = (y_1 - 1/2)(y_2 - 1/4): U and grad U vanish at that node of the
        # open quadrant, where d_1 d_2 U = 1
        monkeypatch.setattr(uccert.corner, "SLAB_NODES", slab_nodes)
        g = make_grid(unit_box(2), 64)
        shift = [(lambda u, c=c: u - c, np.ones_like, np.zeros_like) for c in (0.5, 0.25)]
        cf = CornerField(g, [shift], "saddle")
        nodes = []
        for transfer in (verify_inequality_transfer, transfer_on_full_grid):
            with pytest.raises(HypothesisError, match="zero denominator") as err:
                transfer(cf, SWAP)
            named = str(err.value).replace("np.int64", "").split("node")[1]
            nodes.append(re.findall(r"\d+", named))
        assert nodes[0] == nodes[1] == ["48", "40"]


class TestLabFootprint:
    def test_peak_memory_below_half_a_grid_array(self):
        # the corner run's stages before the mollifier on 97^3 nodes, where one
        # grid array of doubles is 7.3 MB
        g = make_grid(unit_box(3), 96)
        tests = bump_corpus(unit_box(3), 20, seed=42)
        b = np.zeros((3, 3))
        b[0, 1] = b[1, 0] = 1.0
        tracemalloc.start()
        try:
            corpus = corner_corpus(g)
            tables = PairingTables(g, tests)
            for cf in corpus:
                verify_extension_identities(cf, tables, tol_weak=_tols(g))
            detect_layer(corpus[0], tables)
            verify_inequality_transfer(corpus[1], b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * int(np.prod(g.shape)) / 2

    @pytest.mark.parametrize("dim", [2, 3])
    def test_pairing_tables_evaluate_bumps_once_per_axis_and_order(self, monkeypatch, dim):
        # the whole corpus in one bump evaluation per axis and order: a
        # per-bump loop would make the count grow with the corpus
        g = make_grid(unit_box(dim), 24)
        bump = uccert.grids._bump
        calls = []

        def counted(*args):
            calls.append(args)
            return bump(*args)
        monkeypatch.setattr(uccert.grids, "_bump", counted)
        counts = []
        for count in (4, 40):
            calls.clear()
            PairingTables(g, bump_corpus(unit_box(dim), count, seed=3))
            counts.append(len(calls))
        assert 0 < counts[0] == counts[1] <= 3 * dim


class TestMollifier:
    def test_smooth_field_first_order_decay(self):
        # ~ O(eps) for twice-differentiable v; the grid must resolve the
        # smallest kernel comfortably or quadrature error pollutes the tail
        g = make_grid(unit_box(2), 512)
        v = CornerField(g, [ProductBump([0.0, 0.0], [0.45, 0.45]).factors()])
        eps = [0.32, 0.16, 0.08, 0.04]
        norms = mollifier_commutator([0.5, 0.0], v, eps)
        assert all(n1 > n2 for n1, n2 in zip(norms, norms[1:]))
        # O(eps): three halvings shrink the norm by about 8 (first-order
        # behavior only sets in once eps is small against the field scale)
        assert norms[0] / norms[-1] >= 5.0
        assert norms[-2] / norms[-1] >= 1.7

    def test_kink_corpus_decays(self):
        g = make_grid(unit_box(2), 256)
        eps = [0.32, 0.16, 0.08, 0.04]
        for v in kink_profile_corpus(g, count=2, seed=5):
            norms = mollifier_commutator([0.4, 0.0], v, eps)
            assert all(n1 > n2 for n1, n2 in zip(norms, norms[1:]))

    def test_constant_multiplier_exact_zero(self):
        g = make_grid(unit_box(2), 256)
        v = kink_profile_corpus(g, count=1, seed=5)[0]
        eps = [0.2, 0.1, 0.05]
        assert mollifier_commutator([0.0, 0.0], v, eps) == [0.0] * len(eps)

    def test_lab_convolution_count(self, monkeypatch):
        # the 2-D lab's multiplier has one nonzero slope, b: per (j, k) and
        # term of v, one convolution with its moment kernel on axis b and one
        # on the other axis (the piece of slope b reads no plain one on b)
        grid, eps_list = _plan_corner(resolve_args(["corner"]))
        smooth = uccert.corner._smooth
        calls = []

        def counted(*args):
            calls.append(args)
            return smooth(*args)
        monkeypatch.setattr(uccert.corner, "_smooth", counted)
        report = _corner_mollifier(grid, eps_list, seed=0)
        assert report["passed"] and 0 < len(calls) <= 80

    def test_zero_multiplier_makes_no_convolution(self, monkeypatch):
        g = make_grid(unit_box(2), 64)
        v = kink_profile_corpus(g, count=1, seed=5)[0]

        def refused(*args):
            raise AssertionError("a constant multiplier convolved")
        monkeypatch.setattr(uccert.corner, "_smooth", refused)
        assert mollifier_commutator([0.0, 0.0], v, [0.25, 0.125]) == [0.0, 0.0]

    def test_zero_multiplier_gives_exact_zero(self):
        # no slope is nonzero, so no product is left
        g = make_grid(unit_box(2), 64)
        v = kink_profile_corpus(g, count=1, seed=5)[0]
        assert mollifier_commutator([0.0, 0.0], v, [0.25, 0.125]) == [0.0, 0.0]

    def test_unresolved_eps_rejected(self):
        g = make_grid(unit_box(2), 64)
        v = kink_profile_corpus(g, count=1, seed=5)[0]
        with pytest.raises(ResolutionError):
            mollifier_commutator([0.0, 0.0], v, [2.0 / 64])


def _kernels_inline(h, eps):
    """The 1-D mollifier kernels with the bump formula written out: the
    oracle for _mollifier_kernels, which reads it from grids._bump."""
    u = h * np.arange(-int(np.floor(eps / h)), int(np.floor(eps / h)) + 1) / eps
    s = 1.0 - u * u
    safe = s > 1e-8
    base = np.zeros(s.shape)
    base[safe] = np.exp(-1.0 / s[safe])
    z = float(np.sum(base)) * h
    grad = np.zeros(s.shape)
    grad[safe] = base[safe] * (-2.0 * u[safe] / (s[safe] ** 2))
    return base / z, grad / (z * eps)


@pytest.mark.parametrize("box, cells, eps", [
    (unit_box(2), 512, 0.04), (unit_box(2), 128, 0.25), (unit_box(2), 96, 1.0 / 12),
    (np.array([[-1.0, 1.0], [0.0, 3.0]]), (64, 80), 0.3), (unit_box(3), 48, 0.3)])
def test_mollifier_kernels_match_inline_formula(box, cells, eps):
    grid = make_grid(box, cells)
    for h in grid.h:
        k0, kg = _mollifier_kernels(h, eps)
        o0, og = _kernels_inline(h, eps)
        assert np.array_equal(k0, o0) and np.array_equal(kg, og)
        assert k0.size % 2 == 1 and np.sum(k0) * h == pytest.approx(1.0, rel=1e-14)


def _outer(vectors):
    out = np.array(1.0)
    for x in vectors:
        out = np.multiply.outer(out, x)
    return out


def _commutator_by_fftconvolve(offset, slopes, v, eps_list):
    """The oracle for the separable commutator: a(y) = offset + slopes . y,
    grad(a) and grad(v) sampled on the whole grid, the product kernel formed
    from the 1-D kernels, and three independent fftconvolve calls per (j, k)."""
    grid = v.grid
    dim, axes = grid.dim, grid.axes()

    def along(b, f):
        return _outer([f(x) if c == b else np.ones_like(x) for c, x in enumerate(axes)])

    a_values = offset + sum(along(b, lambda x, s=s: s * x) for b, s in enumerate(slopes))
    a_grads = [along(j, lambda x, s=s: np.full_like(x, s)) for j, s in enumerate(slopes)]
    v_grads = [sum(_outer([t[c][int(c == k)](x) for c, x in enumerate(axes)]) for t in v.terms)
               for k in range(dim)]
    cell = float(np.prod(grid.h))

    def conv(field, kernel):
        return fftconvolve(field, kernel, mode="same") * cell

    out = []
    for eps in eps_list:
        kernels = [_mollifier_kernels(h, eps) for h in grid.h]
        k0 = _outer([k[0] for k in kernels])
        kg = [_outer([k[int(c == j)] for c, k in enumerate(kernels)]) for j in range(dim)]
        total = 0.0
        for j, k in itertools.product(range(dim), repeat=2):
            djk = (a_values * conv(v_grads[k], kg[j]) - conv(a_values * v_grads[k], kg[j])
                   + conv(a_grads[j] * v_grads[k], k0))
            total += trapezoid(djk * djk, grid)
        out.append(float(np.sqrt(total)))
    return out


def _kink(grid):
    return kink_profile_corpus(grid, count=1, seed=5)[0]


def _off_centre_bump(grid):
    return CornerField(grid, [ProductBump([0.35, 2.1], [0.4, 0.6]).factors()])


def _edge_support(grid):
    # sin(pi x) + y^2: two terms, gradients nonzero up to the box edges
    return CornerField(grid, [[SIN_PI, ONE], [ONE, SQUARE]])


def _zero_gradients(grid):
    return CornerField(grid, [[_axis_const(0.3)] * grid.dim])


class TestSeparableCommutator:
    @pytest.mark.parametrize("box, cells, slopes, field, eps", [
        (unit_box(2), 256, (0.4, 0.0), _kink, [0.32, 0.16, 0.08, 0.04]),
        (unit_box(2), 256, (0.4, -0.25), _kink, [0.32, 0.16, 0.08, 0.04]),
        (unit_box(3), 48, (0.4, 0.0, 0.0), _kink, [0.35, 0.175]),
        (unit_box(3), 48, (0.4, -0.25, 0.2), _kink, [0.35, 0.175]),
        (np.array([[-1.0, 1.0], [0.0, 3.0]]), (64, 80), (0.3, 0.15), _off_centre_bump,
         [0.6, 0.3, 0.15]),
        (unit_box(2), 128, (0.4, -0.25), _edge_support, [0.25, 0.125]),
        (unit_box(2), 64, (0.4, -0.25), _zero_gradients, [0.25, 0.125]),
        (unit_box(3), 24, (0.4, -0.25, 0.0), _zero_gradients, [0.35])],
        ids=["2d-kink-slope0", "2d-kink-slope1", "3d-kink-slope0", "3d-kink-slope1",
             "non-square-off-centre-bump", "support-to-the-edge", "2d-zero-gradients",
             "3d-zero-gradients"])
    def test_matches_full_grid_product_kernel(self, box, cells, slopes, field, eps):
        # the oracle's multiplier has an offset; the commutator is the same
        # without it, since a(x) - a(x - u) = s . u whatever the offset
        g = make_grid(box, cells)
        v = field(g)
        got = mollifier_commutator(slopes, v, eps)
        want = _commutator_by_fftconvolve(0.5, slopes, v, eps)
        if field is _zero_gradients:
            assert got == [0.0] * len(eps) and want == [0.0] * len(eps)
        else:
            assert_allclose(got, want, rtol=1e-12)

    def test_forms_no_grid_array(self, monkeypatch):
        # a 3-D grid array of 97^3 doubles is 7.3 MB; the 1-D route needs
        # kilobytes, and no FFT
        import tracemalloc

        def refuse(*args, **kwargs):
            raise AssertionError("fftconvolve called")
        monkeypatch.setattr(uccert.corner, "fftconvolve", refuse)
        monkeypatch.setattr(scipy.signal, "fftconvolve", refuse)
        g = make_grid(unit_box(3), 96)
        v = _kink(g)
        tracemalloc.start()
        try:
            norms = mollifier_commutator([0.4, -0.25, 0.2], v, [0.35, 0.175, 0.0875])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(norms) == 3 and all(n > 0 for n in norms)
        assert peak < 8 * int(np.prod(g.shape)) / 20


def _corpus_bumps(grid, count, seed):
    """The product bumps kink_profile_corpus draws, in its order."""
    rng = np.random.default_rng(seed)
    width = grid.box[:, 1] - grid.box[:, 0]
    out = []
    for _ in range(count):
        radius = rng.uniform(0.3, 0.42) * width
        center = np.zeros(grid.dim)
        center[0] = rng.uniform(-0.05, 0.05)
        out.append(ProductBump(center, radius, amplitude=rng.uniform(0.8, 1.4)))
    return out


def test_kink_fields_are_ramp_times_bump():
    # the corpus's factors against the full-grid construction: V = max(0, y_1)
    # times a product bump, its gradient taken almost everywhere (0 on the kink)
    g = make_grid(unit_box(2), 128)
    x = g.axis(0)
    ramp = np.maximum(x, 0.0)[:, None]
    for v, bump in zip(kink_profile_corpus(g, count=3, seed=5),
                       _corpus_bumps(g, count=3, seed=5)):
        (term,) = v.terms
        assert_allclose(_outer([f[0](x) for f, x in zip(term, g.axes())]),
                        ramp * bump.values_on_grid(g), rtol=1e-13, atol=1e-300)
        grad0 = ramp * bump.partial_on_grid(g, (1, 0)) + (x > 0.0)[:, None] * bump.values_on_grid(g)
        grad1 = ramp * bump.partial_on_grid(g, (0, 1))
        for k, want in enumerate([grad0, grad1]):
            got = _outer([f[int(c == k)](x) for c, (f, x) in enumerate(zip(term, g.axes()))])
            assert_allclose(got, want, rtol=1e-13, atol=1e-300)


def test_fftconvolve_forwards_to_scipy():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((37, 29))
    k = rng.standard_normal((9, 7))
    got = uccert.corner.fftconvolve(x, k, mode="same")
    assert np.array_equal(got, fftconvolve(x, k, mode="same"))
    assert np.array_equal(uccert.corner.fftconvolve(x, k[:1], axes=1),
                          fftconvolve(x, k[:1], axes=1))


class TestLabGateThresholds:
    """Each gate of the corner lab on both sides of its threshold."""

    def test_identity_tolerance(self):
        g = make_grid(unit_box(2), 64)
        tables = PairingTables(g, bump_corpus(unit_box(2), 5, seed=42))
        cf = corner_corpus(g)[1]
        fam_max = verify_extension_identities(cf, tables)["family_max_residual"]
        assert all(r > 0.0 for r in fam_max.values())
        assert verify_extension_identities(cf, tables, tol_weak=fam_max)["passed"]
        for fam, r in fam_max.items():
            below = dict(fam_max, **{fam: np.nextafter(r, 0.0)})
            assert not verify_extension_identities(cf, tables, tol_weak=below)["passed"], fam

    def test_nan_off_the_faces_fails_the_identities(self):
        # U = y_1 y_2 with its axis-0 factor NaN at the node y_1 = -1/2, so U
        # is NaN on that line of nodes, outside the closed quadrant: the faces
        # stay 0, and the weak side of every identity reads the NaN
        g = make_grid(unit_box(2), 64)
        nan_linear = (lambda u: np.where(u == -0.5, np.nan, u), np.ones_like, np.zeros_like)
        cf = CornerField(g, [[nan_linear, LINEAR]], "nan_off_the_faces")
        assert np.count_nonzero(np.isnan(cf.tables[0][0][0])) == 1
        assert cf.face_defects() == (0.0, 0.0)
        tables = PairingTables(g, bump_corpus(unit_box(2), 5, seed=42))
        rep = verify_extension_identities(cf, tables, tol_weak={f: np.inf for f in WEAK_K})
        assert not rep["passed"]
        assert all(np.isnan(r) for r in rep["family_max_residual"].values())

    @pytest.mark.parametrize("magnitude", [1.0, 0.0], ids=["relative", "absolute"])
    def test_layer_probe_bound(self, monkeypatch, magnitude):
        # the bound is 1% of the layer's magnitude, or 10 h^2 where that is larger
        h2 = 1e-4
        bound = max(0.01 * magnitude, 10 * h2)
        for mismatch, passed in ((bound, True), (np.nextafter(bound, np.inf), False), (np.nan, False)):
            monkeypatch.setattr(uccert.cli, "detect_layer", lambda cf, tables: {
                "max_mismatch": mismatch, "max_layer_magnitude": magnitude})
            assert _corner_layer(None, None, h2)["passed"] is passed, mismatch

    def test_mollifier_decay_bound(self, monkeypatch):
        # three widths: the norms must fall strictly, the last to at most half the first
        g = make_grid(unit_box(2), 64)
        eps_list = [0.35, 0.175, 0.0875]
        for norms, passed in (([1.0, 0.7, 0.5], True), ([1.0, 0.7, np.nextafter(0.5, 1.0)], False),
                              ([1.0, 1.0, 0.5], False), ([1.0, 0.5, 0.5], False),
                              ([1.0, np.nan, 0.5], False)):
            monkeypatch.setattr(uccert.cli, "mollifier_commutator", lambda slopes, v, eps: norms)
            assert _corner_mollifier(g, eps_list, seed=0)["passed"] is passed, norms

    def test_transfer_constant_at_and_below_the_supremum(self):
        # every one of the 15 x 15 nodes of the open quadrant off the box
        # edges is checked, the node of the supremum among them
        g = make_grid(unit_box(2), 32)
        cf = corner_corpus(g)[1]
        measured = verify_inequality_transfer(cf, SWAP)
        assert measured["passed"] and measured["nodes"] == 15 ** 2
        at = verify_inequality_transfer(cf, SWAP, C=measured["C"])
        assert at["passed"] and at["violations"] == 0 and at["nodes"] == 15 ** 2
        below = verify_inequality_transfer(cf, SWAP, C=measured["C"] * (1 - 1e-9))
        assert not below["passed"] and below["violations"] > 0 and below["worst_excess"] > 0

    @pytest.mark.parametrize("slab_nodes", [uccert.corner.SLAB_NODES, 37])
    @pytest.mark.parametrize("supplied", [False, True], ids=["measured", "supplied"])
    def test_nan_in_the_open_quadrant_fails_the_transfer(self, monkeypatch, slab_nodes, supplied):
        # sin(pi y_1) sin(pi y_2) with every entry of its axis-0 factor NaN at
        # the node y_1 = 1/2, so the form and the denominator are NaN on that
        # line of the open quadrant; the first of its nodes in C order is named
        monkeypatch.setattr(uccert.corner, "SLAB_NODES", slab_nodes)
        g = make_grid(unit_box(2), 64)
        nan_sin = tuple(lambda u, f=f: np.where(u == 0.5, np.nan, f(u)) for f in SIN_PI)
        cf = CornerField(g, [[nan_sin, SIN_PI]], "nan_on_a_line")
        assert all(np.count_nonzero(np.isnan(entry)) == 1 for entry in cf.tables[0][0])
        C = verify_inequality_transfer(corner_corpus(g)[1], SWAP)["C"] if supplied else None
        for transfer in (verify_inequality_transfer, transfer_on_full_grid):
            with pytest.raises(HypothesisError, match="NaN form or denominator at node") as err:
                transfer(cf, SWAP, C=C)
            assert re.findall(r"\d+", str(err.value).replace("np.int64", "").split("node")[1]) == ["48", "33"]

    @pytest.mark.parametrize("dim, cells", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("slab_nodes", [uccert.corner.SLAB_NODES, 37])
    def test_measured_constant_leaves_no_violation(self, monkeypatch, dim, cells, slab_nodes):
        # the measured constant, supplied back, holds at every node it was taken over
        monkeypatch.setattr(uccert.corner, "SLAB_NODES", slab_nodes)
        g = make_grid(unit_box(dim), cells)
        b = np.zeros((dim, dim))
        b[0, 1] = b[1, 0] = 1.0
        for cf in corner_corpus(g):
            measured = verify_inequality_transfer(cf, b)
            rep = verify_inequality_transfer(cf, b, C=measured["C"])
            assert rep["violations"] == 0 and rep["nodes"] == measured["nodes"] > 0, cf.name
