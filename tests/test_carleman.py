import numpy as np
import pytest
from numpy.testing import assert_allclose

from uccert.carleman import (EXP_LIMIT, _dilate, _stencil, build_weight, exponent_slopes,
                             lambda_sweep, metric_on_grid)
from uccert.errors import ContractViolation, RangeError
from uccert.fields import ScalarField, constant_metric
from uccert.grids import (ProductBump, bump_superposition_values, d1, d1d1, d2, make_grid,
                          trapezoid, unit_box)
from uccert.models import bumpy_wave_metric, carleman_section

from conftest import fd_hess


@pytest.fixture(scope="module")
def section():
    q, bent, box = carleman_section(lam=2.0)
    return q, bent, box


@pytest.fixture(scope="module")
def section_grid(section):
    return make_grid(section[2], 128)


class TestWeight:
    def test_level_sets_match(self, section):
        _, bent, _ = section
        w = build_weight(bent, mu=1.5)
        for p in ([0.0, 1.0], [0.1, 1.0 + 2.0 * 0.01], [-0.2, 1.08]):
            p = np.array(p)
            assert np.sign(w.phi(p)) == np.sign(np.sign(bent(p)))

    def test_gradient_chain_rule(self, section, rng):
        _, bent, _ = section
        mu = 2.0
        w = build_weight(bent, mu=mu)
        for _ in range(5):
            p = np.array([rng.uniform(-0.3, 0.3), rng.uniform(0.7, 1.3)])
            assert_allclose(w.phi.grad(p),
                            mu * np.exp(mu * bent(p)) * bent.grad(p), rtol=1e-12)
            assert w.phi(p) == pytest.approx(np.expm1(mu * bent(p)), rel=1e-12)

    def test_hessian_against_fd(self, section):
        _, bent, _ = section
        w = build_weight(bent, mu=1.0)
        p = np.array([0.12, 1.07])
        assert_allclose(w.phi.hess(p), fd_hess(w.phi, p), rtol=1e-4, atol=1e-6)

    def test_nonpositive_mu_rejected(self, section):
        with pytest.raises(ContractViolation):
            build_weight(section[1], mu=0.0)


class TestApplyOperator:
    def test_zero_field(self, section, section_grid):
        q = section[0]
        out = _stencil(metric_on_grid(q, section_grid), np.zeros(section_grid.shape),
                       section_grid, None, None)
        assert np.all(out == 0.0)

    def test_flat_wave_against_analytic(self, section):
        q, _, box = section
        g = make_grid(box, 256)
        bump = ProductBump([0.0, 1.0], [0.25, 0.25])
        w = bump.values_on_grid(g)
        truth = -bump.partial_on_grid(g, (2, 0)) + bump.partial_on_grid(g, (0, 2))
        err = np.max(np.abs(_stencil(metric_on_grid(q, g), w, g, None, None) - truth))
        g2 = make_grid(g.box, 2 * 256)
        w2 = bump.values_on_grid(g2)
        truth2 = -bump.partial_on_grid(g2, (2, 0)) + bump.partial_on_grid(g2, (0, 2))
        err2 = np.max(np.abs(_stencil(metric_on_grid(q, g2), w2, g2, None, None) - truth2))
        assert err / err2 >= 3.5            # O(h^2) consistency
        assert err <= 0.05 * np.max(np.abs(truth))

    def test_stencil_exact_on_quadratics(self):
        q = constant_metric(np.array([[1.0, 0.5], [0.5, 2.0]]))
        g = make_grid(unit_box(2), 32)
        mesh = g.meshgrid()
        w = mesh[0] ** 2 + 3.0 * mesh[0] * mesh[1] - mesh[1] ** 2
        # <Q d, d> w = q11*2 + 2*q12*3 + q22*(-2), constant
        expected = 1.0 * 2 + 2 * 0.5 * 3 + 2.0 * (-2)
        out = _stencil(metric_on_grid(q, g), w, g, None, None)
        interior = (slice(2, -2), slice(2, -2))
        assert_allclose(out[interior], expected, atol=1e-10)

    def test_lower_order_terms(self, section, section_grid):
        q = section[0]
        g = section_grid
        mesh = g.meshgrid()
        bump = ProductBump([0.0, 1.0], [0.25, 0.25])
        w = bump.values_on_grid(g)
        b = np.stack([np.ones(g.shape), 2.0 * np.ones(g.shape)])
        c = 0.5 * mesh[0]
        base = _stencil(metric_on_grid(q, g), w, g, None, None)
        full = _stencil(metric_on_grid(q, g), w, g, b, c)
        from uccert.grids import d1
        expected = d1(w, 0, g.h[0]) + 2.0 * d1(w, 1, g.h[1]) + c * w
        assert_allclose(full - base, expected, atol=1e-12)

    def test_variable_metric_on_grid(self):
        q = bumpy_wave_metric(1, amp=0.1)
        g = make_grid(np.array([[-0.3, 0.3], [0.7, 1.3]]), 32)
        arrays = metric_on_grid(q, g)
        p = np.array([g.axis(0)[7], g.axis(1)[20]])
        assert_allclose(arrays[:, :, 7, 20], q(p), atol=1e-14)

    @pytest.mark.parametrize("q", [bumpy_wave_metric(1), constant_metric(np.diag([-1.0, 1.0]))])
    def test_metric_on_grid_equals_point_loop(self, q):
        # the per-node loop that the batched metric jet replaced, on the whole
        # grid; the bumpy metric matches it bit for bit
        g = make_grid(np.array([[-0.4, 0.4], [0.6, 1.4]]), 96)
        pts = np.stack([m.ravel() for m in g.meshgrid()], axis=1)
        loop = np.empty((2, 2, len(pts)))
        for i, p in enumerate(pts):
            loop[:, :, i] = q(p)
        assert np.array_equal(metric_on_grid(q, g), loop.reshape((2, 2) + g.shape))


    @pytest.mark.parametrize("q, box", [
        (bumpy_wave_metric(1), [[-0.4, 0.4], [0.6, 1.4]]),
        (constant_metric([[1.0, 0.5], [0.5, 2.0]]), [[-0.4, 0.4], [0.6, 1.4]]),
        (constant_metric(np.diag([-1.0, 1.0])), [[-0.4, 0.4], [0.6, 1.4]]),
        (constant_metric([[-1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1.0]]),
         [[-0.4, 0.4], [0.6, 1.4], [-0.4, 0.4]])])
    def test_operator_equals_full_stencil(self, q, box):
        # every second-order term, an all-zero off-diagonal entry included
        g = make_grid(np.array(box), 24)
        w = np.sin(3.0 * g.meshgrid()[0]) * np.cos(2.0 * g.meshgrid()[-1])
        arrays = metric_on_grid(q, g)
        full = np.zeros_like(w)
        for j in range(g.dim):
            full += arrays[j, j] * d2(w, j, g.h[j])
            for k in range(j + 1, g.dim):
                full += 2.0 * arrays[j, k] * d1d1(w, j, k, g.h[j], g.h[k])
        assert np.array_equal(_stencil(metric_on_grid(q, g), w, g, None, None), full)


class TestRatio:
    def test_empty_field_reported(self, section, section_grid):
        q, bent, _ = section
        weight = build_weight(bent, mu=1.0)
        r = lambda_sweep(q, weight, [np.zeros(section_grid.shape)], [4.0], section_grid).rows[0]
        assert r["empty"]
        assert np.isnan(r["ratio"])

    def test_homogeneity_in_w(self, section, section_grid):
        q, bent, _ = section
        weight = build_weight(bent, mu=1.0)
        w = bump_superposition_values(section_grid, 1, seed=3)[0]
        r1 = lambda_sweep(q, weight, [w], [8.0], section_grid).rows[0]
        r2 = lambda_sweep(q, weight, [2.0 * w], [8.0], section_grid).rows[0]
        assert r2["lhs"] == pytest.approx(2.0 * r1["lhs"], rel=1e-12)
        assert r2["rhs1"] == pytest.approx(2.0 * r1["rhs1"], rel=1e-12)
        assert r2["rhs2"] == pytest.approx(2.0 * r1["rhs2"], rel=1e-12)
        assert r2["ratio"] == pytest.approx(r1["ratio"], rel=1e-12)

    def test_weight_shift_invariance(self, section, section_grid):
        # adding a constant to the weight leaves every reported norm alone,
        # because the exponent is always re-based on the support minimum
        q, bent, _ = section
        w = bump_superposition_values(section_grid, 1, seed=4)[0]
        w1 = build_weight(bent, mu=1.0)
        shifted = ScalarField(lambda x, order: w1.phi.jet(x, order) + 5.0)
        from uccert.carleman import WeightSpec
        w2 = WeightSpec(bent, 1.0, shifted)
        r1 = lambda_sweep(q, w1, [w], [8.0], section_grid).rows[0]
        r2 = lambda_sweep(q, w2, [w], [8.0], section_grid).rows[0]
        for key in ("lhs", "rhs1", "rhs2", "ratio"):
            assert r2[key] == pytest.approx(r1[key], rel=1e-12)

    def test_unrepresentable_lambda_rejected(self, section, section_grid):
        q, bent, _ = section
        weight = build_weight(bent, mu=1.0)
        w = bump_superposition_values(section_grid, 1, seed=3)[0]
        with pytest.raises(RangeError):
            lambda_sweep(q, weight, [w], [1e7], section_grid)

    def test_nonpositive_lambda_rejected(self, section, section_grid):
        q, bent, _ = section
        weight = build_weight(bent, mu=1.0)
        w = bump_superposition_values(section_grid, 1, seed=3)[0]
        with pytest.raises(ContractViolation):
            lambda_sweep(q, weight, [w], [0.0], section_grid)


class TestSweep:
    def test_sweep_floor_and_slopes(self, section):
        q, bent, box = section
        g = make_grid(box, 128)
        corpus = bump_superposition_values(g, 12, seed=7)
        weight = build_weight(bent, mu=1.0)
        rep = lambda_sweep(q, weight, corpus, [1, 2, 4, 8, 16], g)
        assert rep.r_floor(4.0) > 0
        assert not rep.decreasing_flags
        s1, s2 = exponent_slopes(rep)
        assert s1 == pytest.approx(0.5, abs=1e-10)
        assert s2 == pytest.approx(1.5, abs=1e-10)

    def test_rhs_ratio_scales_linearly(self, section):
        # for fixed w, rhs2/rhs1 carries the extra factor lam
        q, bent, box = section
        g = make_grid(box, 128)
        w = bump_superposition_values(g, 1, seed=9)[0]
        weight = build_weight(bent, mu=1.0)
        vals = {}
        for lam in (4.0, 8.0):
            r = lambda_sweep(q, weight, [w], [lam], g).rows[0]
            vals[lam] = (r["rhs2"] / r["rhs1"]) / (lam * r["wnorm_w"] / r["wnorm_grad"])
        assert vals[4.0] == pytest.approx(1.0, rel=1e-12)
        assert vals[8.0] == pytest.approx(1.0, rel=1e-12)

    def test_bad_inputs(self, section, section_grid):
        q, bent, _ = section
        weight = build_weight(bent, mu=1.0)
        corpus = bump_superposition_values(section_grid, 2, seed=3)
        with pytest.raises(ContractViolation):
            lambda_sweep(q, weight, [], [1, 2], section_grid)
        with pytest.raises(ContractViolation):
            lambda_sweep(q, weight, corpus, [2, 1], section_grid)

    def test_slope_names_the_missing_requirement(self, section, section_grid):
        q, bent, _ = section
        weight = build_weight(bent, mu=1.0)
        w = bump_superposition_values(section_grid, 1, seed=3)[0]
        cases = [([w], [4.0], 0, "need at least two lam values for a slope, got 1"),
                 ([np.zeros_like(w), w], [4.0, 8.0], 0, "test function 0 is zero on the grid"),
                 ([w], [4.0, 8.0], 1, "test function 1 is not in the sweep")]
        for corpus, lambdas, testfn, message in cases:
            rep = lambda_sweep(q, weight, corpus, lambdas, section_grid)
            with pytest.raises(ContractViolation, match=message):
                exponent_slopes(rep, testfn)
        rep = lambda_sweep(q, weight, [np.zeros_like(w), w], [4.0, 8.0], section_grid)
        assert exponent_slopes(rep, 1) == pytest.approx((0.5, 1.5), abs=1e-10)

    def test_mu_sweep_all_positive(self, section):
        q, bent, box = section
        g = make_grid(box, 96)
        corpus = bump_superposition_values(g, 6, seed=11)
        for mu in (1.0, 2.0, 4.0):
            weight = build_weight(bent, mu=mu)
            rep = lambda_sweep(q, weight, corpus, [4, 8, 16], g)
            assert rep.r_floor(4.0) > 0


def _loop_ratio(q_arrays, phi_values, w, grid, lam, b=None, c=None):
    """One (w, lam) ratio computed from scratch, as the sweep did when lam was
    its outer loop: the oracle for the per-test-function pass."""
    w = np.asarray(w, dtype=float)
    support = np.abs(w) > 0.0
    if not np.any(support):
        return {"lhs": 0.0, "rhs1": 0.0, "rhs2": 0.0, "ratio": float("nan"),
                "wnorm_grad": 0.0, "wnorm_w": 0.0, "empty": True}
    region = _dilate(support, 2)
    shift = float(np.min(phi_values[region]))
    exponent = -lam * (phi_values - shift)
    if float(np.max(np.abs(exponent[region]))) > EXP_LIMIT:
        raise RangeError(f"weight exponent exceeds representable range at lam={lam:g}")
    wsq = np.where(region, np.exp(2.0 * np.clip(exponent, -EXP_LIMIT, 0.0)), 0.0)
    h = grid.h
    pw = np.zeros_like(w)
    for j in range(grid.dim):
        pw += q_arrays[j, j] * d2(w, j, h[j])
        for k in range(j + 1, grid.dim):
            pw += 2.0 * q_arrays[j, k] * d1d1(w, j, k, h[j], h[k])
    if b is not None:
        for j in range(grid.dim):
            pw += b[j] * d1(w, j, h[j])
    if c is not None:
        pw += c * w
    grad_sq = np.zeros_like(w)
    for a in range(grid.dim):
        grad_sq += d1(w, a, h[a]) ** 2
    lhs = float(np.sqrt(trapezoid(pw * pw * wsq, grid)))
    wnorm_grad = float(np.sqrt(trapezoid(grad_sq * wsq, grid)))
    wnorm_w = float(np.sqrt(trapezoid(w * w * wsq, grid)))
    rhs1 = np.sqrt(lam) * wnorm_grad
    rhs2 = lam ** 1.5 * wnorm_w
    denom = rhs1 + rhs2
    return {"lhs": lhs, "rhs1": rhs1, "rhs2": rhs2,
            "ratio": lhs / denom if denom > 0 else float("nan"),
            "wnorm_grad": wnorm_grad, "wnorm_w": wnorm_w, "empty": False}


def _loop_rows(q, weight, corpus, lambdas, grid, b=None, c=None):
    q_arrays = metric_on_grid(q, grid)
    phi_values = weight.phi_on_grid(grid)
    rows = []
    for lam in lambdas:
        for t_id, w in enumerate(corpus):
            r = _loop_ratio(q_arrays, phi_values, w, grid, lam, b=b, c=c)
            r["testfn"] = t_id
            r["lam"] = lam
            rows.append(r)
    return rows


def _bits(row):
    return [(k, np.float64(v).tobytes()) for k, v in row.items()]


class TestSweepAgainstLoop:
    """lambda_sweep forms the lam-free terms once per test function; the
    lam-outer loop that recomputed them is the oracle, row for row and bit
    for bit."""

    BOX = np.array([[-0.4, 0.4], [0.6, 1.4]])
    LADDERS = ([8.0], [1.0, 4.0, 16.0], [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])

    @pytest.fixture(scope="class")
    def setup(self, section):
        grid = make_grid(self.BOX, 64)
        corpus = bump_superposition_values(grid, 5, seed=13)
        corpus.insert(2, np.zeros(grid.shape))        # an empty test function
        return grid, corpus, build_weight(section[1], mu=1.0)

    @pytest.mark.parametrize("lambdas", LADDERS)
    @pytest.mark.parametrize("metric", ["section", "bumpy", "lower_order"])
    def test_rows_bit_for_bit(self, section, setup, metric, lambdas):
        grid, corpus, weight = setup
        q = bumpy_wave_metric(1) if metric == "bumpy" else section[0]
        b = c = None
        if metric == "lower_order":
            x, y = grid.meshgrid()
            b = np.stack([np.sin(3.0 * y), 0.5 + x * y])
            c = np.cos(2.0 * x) - y
        rows = lambda_sweep(q, weight, corpus, lambdas, grid, b=b, c=c).rows
        oracle = _loop_rows(q, weight, corpus, lambdas, grid, b=b, c=c)
        assert [_bits(r) for r in rows] == [_bits(r) for r in oracle]

    def test_single_ratio_bit_for_bit(self, section, setup):
        grid, corpus, weight = setup
        q = bumpy_wave_metric(1)
        for w in corpus:
            got = lambda_sweep(q, weight, [w], [16.0], grid).rows[0]
            want = _loop_rows(q, weight, [w], [16.0], grid)[0]
            assert _bits(got) == _bits(want)

    def test_range_error_names_the_oracle_lam(self, section):
        # test function 0 is narrow and overflows late; test function 1 is
        # wide and overflows first, so the error names its lam
        q, bent, _ = section
        grid = make_grid(self.BOX, 64)
        weight = build_weight(bent, mu=1.0)
        corpus = [ProductBump([0.0, 1.0], [0.05, 0.05]).values_on_grid(grid),
                  ProductBump([0.0, 1.0], [0.3, 0.3]).values_on_grid(grid)]
        ladder = [2.0 ** k for k in range(24)]

        def raised(fn, *args):
            with pytest.raises(RangeError) as info:
                fn(q, weight, *args, ladder, grid)
            return str(info.value)

        want = raised(_loop_rows, corpus)
        assert raised(lambda_sweep, corpus) == want
        assert raised(_loop_rows, corpus[:1]) != want


class TestDilation:
    """The numpy dilation against scipy.ndimage.binary_dilation as the oracle."""

    @staticmethod
    def oracle(mask):
        from scipy import ndimage
        return ndimage.binary_dilation(mask, iterations=2)

    def test_random_masks(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            shape = tuple(int(n) for n in rng.integers(1, 10, size=dim))
            mask = rng.random(shape) < rng.uniform(0.0, 0.3)
            got = _dilate(mask, 2)
            assert got.dtype == bool
            assert np.array_equal(got, self.oracle(mask)), shape

    @pytest.mark.parametrize("shape", [(7,), (6, 9), (4, 5, 6)])
    def test_special_masks(self, shape):
        empty = np.zeros(shape, dtype=bool)
        full = np.ones(shape, dtype=bool)
        centre = empty.copy()
        centre[tuple(n // 2 for n in shape)] = True
        corner = empty.copy()
        corner[(0,) * len(shape)] = True
        edge = empty.copy()
        edge[(slice(None),) + (-1,) * (len(shape) - 1)] = True
        for mask in (empty, full, centre, corner, edge):
            assert np.array_equal(_dilate(mask, 2), self.oracle(mask))
        assert not _dilate(empty, 2).any() and _dilate(full, 2).all()
