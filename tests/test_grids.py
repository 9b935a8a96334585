import numpy as np
import pytest
from numpy.testing import assert_allclose

from uccert.errors import ContractViolation, SupportError
from uccert.grids import (Grid, ProductBump, bump_d1, bump_d2, bump_value,
                          bump_superposition_values, d1, d1d1, d2, make_grid,
                          restricted_trapezoid, bump_corpus,
                          trapezoid, trapezoid_richardson, unit_box)


class TestGrid:
    def test_nodes_include_endpoints_and_zero(self):
        g = make_grid(unit_box(2), 512)
        ax = g.axis(0)
        assert ax[0] == -1.0 and ax[-1] == 1.0
        assert g.zero_index(0) == 256
        assert ax[256] == 0.0
        assert g.h[0] == pytest.approx(2.0 / 512)

    @pytest.mark.parametrize("box, cells", [
        (unit_box(2), 64), (np.array([[-1.0, 1.0], [0.0, 3.0]]), (64, 80)), (unit_box(3), 7)])
    def test_axes_are_linspace_built_once_and_read_only(self, box, cells):
        g = make_grid(box, cells)
        for a in range(g.dim):
            ax = g.axis(a)
            assert np.array_equal(ax, np.linspace(box[a, 0], box[a, 1], g.n_cells[a] + 1))
            assert ax is g.axis(a) and ax is g.axes()[a]
            assert not ax.flags.writeable
            with pytest.raises(ValueError):
                ax[0] = 5.0

    @pytest.mark.parametrize("box, cells", [
        (unit_box(2), 64), (np.array([[-1.0, 1.0], [0.0, 3.0]]), (64, 80)), (unit_box(3), 7),
        (np.array([[-0.3, 0.7], [0.1, 1.1]]), (10, 10))])
    def test_zero_index_is_the_argmin_node(self, box, cells):
        g = make_grid(box, cells)
        for a in range(g.dim):
            i = int(np.argmin(np.abs(g.axis(a))))
            if abs(g.axis(a)[i]) <= 1e-12:
                assert g.zero_index(a) == i
            else:
                with pytest.raises(ContractViolation, match=f"axis {a} has no node at 0"):
                    g.zero_index(a)

    def test_refine_coarsen_roundtrip(self):
        g = make_grid(unit_box(2), 64)
        assert g.refine().n_cells == (128, 128)
        assert g.refine().coarsen().n_cells == (64, 64)

    def test_no_zero_node_raises(self):
        g = Grid(np.array([[0.1, 1.1]]), (10,))
        with pytest.raises(ContractViolation):
            g.zero_index(0)


class TestQuadrature:
    def test_trapezoid_separable_exact_on_linear(self):
        g = make_grid(unit_box(2), 64)
        mesh = g.meshgrid()
        # integral of (x+1)(y+1) over (-1,1)^2 = 4
        vals = (mesh[0] + 1.0) * (mesh[1] + 1.0)
        assert trapezoid(vals, g) == pytest.approx(4.0, rel=1e-12)

    def test_trapezoid_h2_convergence(self):
        exact = (1 - np.cos(2.0)) * (2.0 / 3.0) * np.sin(3.0)
        errs = []
        for cells in (32, 64):
            g = make_grid(unit_box(2), cells)
            mesh = g.meshgrid()
            vals = np.sin(mesh[0] + 1.0) * np.cos(3.0 * mesh[1])
            errs.append(abs(trapezoid(vals, g) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    def test_richardson_beats_trapezoid(self):
        exact = (1 - np.cos(2.0)) * (2.0 / 3.0) * np.sin(3.0)
        g = make_grid(unit_box(2), 64)
        mesh = g.meshgrid()
        vals = np.sin(mesh[0] + 1.0) * np.cos(3.0 * mesh[1])
        e_trap = abs(trapezoid(vals, g) - exact)
        e_rich = abs(trapezoid_richardson(vals, g) - exact)
        assert e_rich < e_trap / 50

    def test_restricted_trapezoid_quadrant(self):
        # integral of 1 over the quadrant of (-1,1)^2 is 1
        g = make_grid(unit_box(2), 128)
        ones = np.ones(g.shape)
        assert restricted_trapezoid(ones, g, (0, 1)) == pytest.approx(1.0, rel=1e-12)
        # x*y over the quadrant: 1/4
        mesh = g.meshgrid()
        assert restricted_trapezoid(mesh[0] * mesh[1], g, (0, 1)) == pytest.approx(0.25, rel=1e-12)

    def test_restricted_single_axis(self):
        g = make_grid(unit_box(2), 64)
        mesh = g.meshgrid()
        # x over {x >= 0} x (-1,1): 0.5 * 2 = 1
        assert restricted_trapezoid(mesh[0], g, (0,)) == pytest.approx(1.0, rel=1e-12)


class TestStencils:
    def test_d1_d2_on_polynomial(self):
        g = make_grid(unit_box(2), 64)
        mesh = g.meshgrid()
        vals = mesh[0] ** 2 * mesh[1]
        interior = (slice(2, -2), slice(2, -2))
        assert_allclose(d1(vals, 0, g.h[0])[interior],
                        (2 * mesh[0] * mesh[1])[interior], atol=1e-10)
        # three-point second difference is exact on quadratics
        assert_allclose(d2(vals, 0, g.h[0])[interior],
                        (2 * mesh[1])[interior], atol=1e-9)
        assert_allclose(d1d1(vals, 0, 1, g.h[0], g.h[1])[interior],
                        (2 * mesh[0])[interior], atol=1e-9)

    @pytest.mark.parametrize("shape", [(9,), (7, 8), (5, 6, 7)])
    def test_d2_leaves_edge_rows_zero(self, shape):
        vals = np.random.default_rng(2).uniform(1.0, 2.0, size=shape)
        for axis in range(len(shape)):
            out = d2(vals, axis, 0.1)
            edges = np.take(out, [0, -1], axis=axis)
            assert np.all(edges == 0.0)
            assert np.all(np.take(out, range(1, shape[axis] - 1), axis=axis) != 0.0)

    def test_mixed_matches_analytic_smooth(self):
        g = make_grid(unit_box(2), 256)
        mesh = g.meshgrid()
        vals = np.sin(mesh[0]) * np.cos(mesh[1])
        truth = -np.cos(mesh[0]) * np.sin(mesh[1])
        interior = (slice(4, -4), slice(4, -4))
        err = np.max(np.abs(d1d1(vals, 0, 1, g.h[0], g.h[1]) - truth)[interior])
        assert err < 5e-5


class TestBumps:
    def test_bump_derivatives_match_fd(self):
        u = np.linspace(-0.95, 0.95, 101)
        h = 1e-6
        fd1 = (bump_value(u + h) - bump_value(u - h)) / (2 * h)
        fd2 = (bump_value(u + h) - 2 * bump_value(u) + bump_value(u - h)) / h ** 2
        assert_allclose(bump_d1(u), fd1, atol=1e-7)
        assert_allclose(bump_d2(u), fd2, atol=2e-4)

    def test_bump_profiles_match_inline_formula(self):
        # the formulas each profile once wrote out, on both sides of the cutoff
        u = np.concatenate([np.linspace(-1.2, 1.2, 2401), [1.0 - 5e-9, -(1.0 - 4e-9)]])
        s = 1.0 - u * u
        safe = s > 1e-8
        us, ss = u[safe], s[safe]
        g1 = -2.0 * us / (ss * ss)
        g2 = (-2.0 - 6.0 * us * us) / (ss ** 3)
        for fn, inner in ((bump_value, np.exp(-1.0 / ss)),
                          (bump_d1, np.exp(-1.0 / ss) * g1),
                          (bump_d2, np.exp(-1.0 / ss) * (g2 + g1 * g1))):
            want = np.zeros_like(u)
            want[safe] = inner
            assert np.array_equal(fn(u), want)

    def test_bump_vanishes_outside_support(self):
        b = ProductBump([0.0, 0.0], [0.3, 0.3])
        assert b([0.31, 0.0]) == 0.0
        assert b([0.0, 0.0]) > 0.0

    def test_partial_on_grid_factorizes(self):
        g = make_grid(unit_box(2), 64)
        b = ProductBump([0.1, -0.2], [0.4, 0.5], amplitude=2.0)
        vals = b.partial_on_grid(g, (1, 0))
        ax0 = b.axis_profile(g.axis(0), 0, 1)
        ax1 = b.axis_profile(g.axis(1), 1, 0)
        assert_allclose(vals, 2.0 * np.multiply.outer(ax0, ax1), atol=1e-15)

    def test_factors_give_every_partial(self):
        b = ProductBump([0.1, -0.2, 0.3], [0.5, 0.4, 0.45], amplitude=-1.3)
        g = make_grid(unit_box(3), 24)
        for alpha in [(0, 0, 0), (1, 0, 2), (2, 1, 0), (0, 2, 1)]:
            got = np.array(1.0)
            for f, o, x in zip(b.factors(), alpha, g.axes()):
                got = np.multiply.outer(got, f[o](x))
            assert_allclose(got, b.partial_on_grid(g, alpha), rtol=1e-14, atol=1e-300)

    def test_support_check(self):
        b = ProductBump([0.8, 0.0], [0.3, 0.3])
        with pytest.raises(SupportError):
            b.check_support_inside(unit_box(2))

    def test_corpus_reproducible(self):
        c1 = bump_corpus(unit_box(2), 5, seed=42)
        c2 = bump_corpus(unit_box(2), 5, seed=42)
        for b1, b2 in zip(c1, c2):
            assert_allclose(b1.center, b2.center)
            assert_allclose(b1.radius, b2.radius)
            assert b1.amplitude == b2.amplitude

    def test_superposition_corpus_supported_inside(self):
        g = make_grid(np.array([[-0.4, 0.4], [0.6, 1.4]]), 64)
        corpus = bump_superposition_values(g, 10, seed=7)
        for vals in corpus:
            assert vals.shape == g.shape
            assert np.all(vals[0] == 0) and np.all(vals[-1] == 0)
            assert np.all(vals[:, 0] == 0) and np.all(vals[:, -1] == 0)
            assert np.max(np.abs(vals)) > 0

