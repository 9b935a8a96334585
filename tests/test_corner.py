import itertools

import numpy as np
import pytest
import scipy.signal
from numpy.testing import assert_allclose
from scipy.signal import fftconvolve

import uccert.corner

from uccert.corner import (LINEAR, ONE, SIN_PI, SQUARE, CornerField,
                           _lab_weights, _mollifier_kernels, _second_order_form, affine_multiplier,
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
        a = affine_multiplier(0.3, [0.5, 0.0])
        v = [ProductBump([0.0, 0.0], [0.45, 0.45]).factors()]
        eps = [0.32, 0.16, 0.08, 0.04]
        norms = mollifier_commutator(a, v, g, eps)
        assert all(n1 > n2 for n1, n2 in zip(norms, norms[1:]))
        # O(eps): three halvings shrink the norm by about 8 (first-order
        # behavior only sets in once eps is small against the field scale)
        assert norms[0] / norms[-1] >= 5.0
        assert norms[-2] / norms[-1] >= 1.7

    def test_kink_corpus_decays(self):
        g = make_grid(unit_box(2), 256)
        a = affine_multiplier(0.5, [0.4, 0.0])
        eps = [0.32, 0.16, 0.08, 0.04]
        for v in kink_profile_corpus(g, count=2, seed=5):
            norms = mollifier_commutator(a, v, g, eps)
            assert all(n1 > n2 for n1, n2 in zip(norms, norms[1:]))

    def test_constant_multiplier_exact_zero(self):
        g = make_grid(unit_box(2), 256)
        a = affine_multiplier(0.7, [0.0, 0.0])
        v = kink_profile_corpus(g, count=1, seed=5)[0]
        norms = mollifier_commutator(a, v, g, [0.2, 0.1, 0.05])
        assert max(norms) <= 1e-12

    def test_unresolved_eps_rejected(self):
        g = make_grid(unit_box(2), 64)
        v = kink_profile_corpus(g, count=1, seed=5)[0]
        a = affine_multiplier(1.0, [0.0, 0.0])
        with pytest.raises(ResolutionError):
            mollifier_commutator(a, v, g, [2.0 / 64])


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


def _commutator_by_fftconvolve(a, v, grid, eps_list):
    """The oracle for the separable commutator: a, grad(a) and grad(v) sampled
    on the whole grid, the product kernel formed from the 1-D kernels, and
    three independent fftconvolve calls per (j, k)."""
    dim, axes = grid.dim, grid.axes()

    def along(b, f):
        return _outer([f(x) if c == b else np.ones_like(x) for c, x in enumerate(axes)])

    a_values = sum(along(b, a[b][0]) for b in range(dim))
    a_grads = [along(j, a[j][1]) for j in range(dim)]
    v_grads = [sum(_outer([t[c][int(c == k)](x) for c, x in enumerate(axes)]) for t in v)
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
    return [ProductBump([0.35, 2.1], [0.4, 0.6]).factors()]


def _edge_support(grid):
    # sin(pi x) + y^2: two terms, gradients nonzero up to the box edges
    return [[SIN_PI, ONE], [ONE, SQUARE]]


def _zero_gradients(grid):
    return [[_axis_const(0.3)] * grid.dim]


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
        g = make_grid(box, cells)
        a, v = affine_multiplier(0.5, slopes), field(g)
        got = mollifier_commutator(a, v, g, eps)
        want = _commutator_by_fftconvolve(a, v, g, eps)
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
        a = affine_multiplier(0.5, [0.4, -0.25, 0.2])
        v = _kink(g)
        tracemalloc.start()
        try:
            norms = mollifier_commutator(a, v, g, [0.35, 0.175, 0.0875])
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
        (term,) = v
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
