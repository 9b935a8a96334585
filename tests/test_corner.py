import numpy as np
import pytest
import scipy.signal
from numpy.testing import assert_allclose
from scipy.signal import fftconvolve

import uccert.corner

from uccert.corner import (BMatrixField, CornerField, SampledField,
                           SeparableFunction, _mollifier_kernels, corner_corpus,
                           corner_field_from_separable, detect_layer,
                           extend_by_zero, kink_profile_corpus,
                           mollifier_commutator, quadrant_mask,
                           verify_extension_identities,
                           verify_inequality_transfer, weak_pairing)
from uccert.errors import HypothesisError, ResolutionError, SupportError
from uccert.grids import (Grid, ProductBump, bump_corpus, make_grid,
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


def _axis_identity():
    return (lambda u: np.asarray(u, dtype=float),
            lambda u: np.ones_like(np.asarray(u, dtype=float)),
            lambda u: np.zeros_like(np.asarray(u, dtype=float)))


def _axis_square():
    return (lambda u: np.asarray(u, dtype=float) ** 2,
            lambda u: 2.0 * np.asarray(u, dtype=float),
            lambda u: np.full_like(np.asarray(u, dtype=float), 2.0))


class TestExtendByZero:
    def test_constant_becomes_indicator(self):
        g = make_grid(unit_box(2), 32)
        cf = corner_field_from_separable(
            g, SeparableFunction([[_axis_const(1.0), _axis_const(1.0)]], "one"))
        v = extend_by_zero(cf)
        assert_allclose(v, quadrant_mask(g).astype(float))

    def test_product_restricted(self):
        g = make_grid(unit_box(2), 32)
        cf = corner_field_from_separable(
            g, SeparableFunction([[_axis_identity(), _axis_identity()]], "xy"))
        v = extend_by_zero(cf)
        mesh = g.meshgrid()
        assert_allclose(v, np.where((mesh[0] >= 0) & (mesh[1] >= 0),
                                    mesh[0] * mesh[1], 0.0))

    def test_vanishing_on_quadrant_gives_zero(self):
        g = make_grid(unit_box(2), 32)
        mesh = g.meshgrid()
        vals = np.where((mesh[0] < 0) | (mesh[1] < 0), 1.0, 0.0)
        cf = CornerField(g, vals)
        assert np.all(extend_by_zero(cf) == 0.0)

    def test_face_condition_flags(self):
        g = make_grid(unit_box(2), 32)
        cf = corner_field_from_separable(
            g, SeparableFunction([[_axis_identity(), _axis_identity()]], "xy"))
        assert cf.vanishes_on_face1 and cf.vanishes_on_face2
        # sin(pi y1) * 1 vanishes on face 1 (y1 = 0) but not on face 2
        sin_only = corner_field_from_separable(
            g, SeparableFunction([[(lambda u: np.sin(np.pi * np.asarray(u, dtype=float)),
                                    lambda u: np.pi * np.cos(np.pi * np.asarray(u, dtype=float)),
                                    lambda u: -np.pi ** 2 * np.sin(np.pi * np.asarray(u, dtype=float))),
                                   _axis_const(1.0)]], "sin1"))
        assert sin_only.vanishes_on_face1
        assert not sin_only.vanishes_on_face2


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
        cf = corner_field_from_separable(
            g, SeparableFunction([[_axis_const(1.0), _axis_const(1.0)]], "one"))
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
        cf = corner_field_from_separable(
            g, SeparableFunction([[_axis_square(), _axis_identity()]], "sq"))
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
            assert row["surface_integral"] == restricted_trapezoid(du1[i0] * full_row, face,
                                                                   half_axes=(0,))

    def test_zero_field_trivial(self):
        g = make_grid(unit_box(2), 64)
        tests = bump_corpus(unit_box(2), 3, seed=2)
        cf = CornerField(g, np.zeros(g.shape),
                         analytic=SeparableFunction([[_axis_const(0.0), _axis_const(0.0)]], "z"))
        rep = detect_layer(cf, tests)
        assert rep["max_layer_magnitude"] == 0.0
        assert rep["max_mismatch"] == 0.0


class TestInequalityTransfer:
    def test_sinsin_zero_violations(self):
        g = make_grid(unit_box(2), 256)
        cf = corner_corpus(g)[1]          # product of sines
        b = BMatrixField.from_matrix([[0.0, 1.0], [1.0, 0.0]])
        rep = verify_inequality_transfer(cf, b, n_pts=10000, seed=1)
        assert rep["violations"] == 0
        assert rep["C"] > 0

    def test_supplied_constant_also_transfers(self):
        g = make_grid(unit_box(2), 128)
        cf = corner_corpus(g)[1]
        b = BMatrixField.from_matrix([[0.0, 1.0], [1.0, 0.0]])
        measured = verify_inequality_transfer(cf, b, n_pts=100, seed=1)["C"]
        rep = verify_inequality_transfer(cf, b, n_pts=5000, seed=2, C=measured)
        assert rep["violations"] == 0

    def test_nonzero_corner_entry_rejected(self):
        g = make_grid(unit_box(2), 64)
        cf = corner_corpus(g)[1]
        b = BMatrixField.from_matrix([[1.0, 0.0], [0.0, 0.0]])
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


def test_fftconvolve_forwards_to_scipy():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((37, 29))
    k = rng.standard_normal((9, 7))
    got = uccert.corner.fftconvolve(x, k, mode="same")
    assert np.array_equal(got, fftconvolve(x, k, mode="same"))
    assert np.array_equal(uccert.corner.fftconvolve(x, k[:1], axes=1),
                          fftconvolve(x, k[:1], axes=1))
