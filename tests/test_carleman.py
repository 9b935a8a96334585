import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from uccert.carleman import (EXP_LIMIT, _dilate, _stencil, build_weight, exponent_slopes,
                             lambda_sweep, metric_on_grid)
from uccert.cli import main
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
            assert np.sign(w(p)) == np.sign(np.sign(bent(p)))

    def test_gradient_chain_rule(self, section, rng):
        _, bent, _ = section
        mu = 2.0
        w = build_weight(bent, mu=mu)
        for _ in range(5):
            p = np.array([rng.uniform(-0.3, 0.3), rng.uniform(0.7, 1.3)])
            assert_allclose(w.grad(p),
                            mu * np.exp(mu * bent(p)) * bent.grad(p), rtol=1e-12)
            assert w(p) == pytest.approx(np.expm1(mu * bent(p)), rel=1e-12)

    def test_hessian_against_fd(self, section):
        _, bent, _ = section
        w = build_weight(bent, mu=1.0)
        p = np.array([0.12, 1.07])
        assert_allclose(w.hess(p), fd_hess(w, p), rtol=1e-4, atol=1e-6)

    def test_nonpositive_mu_rejected(self, section):
        with pytest.raises(ContractViolation):
            build_weight(section[1], mu=0.0)


class TestApplyOperator:
    def test_zero_field(self, section, section_grid):
        q = section[0]
        out = _stencil(metric_on_grid(q, section_grid), np.zeros(section_grid.shape),
                       section_grid)
        assert np.all(out == 0.0)

    def test_flat_wave_against_analytic(self, section):
        q, _, box = section
        g = make_grid(box, 256)
        bump = ProductBump([0.0, 1.0], [0.25, 0.25])
        w = bump.values_on_grid(g)
        truth = -bump.partial_on_grid(g, (2, 0)) + bump.partial_on_grid(g, (0, 2))
        err = np.max(np.abs(_stencil(metric_on_grid(q, g), w, g) - truth))
        g2 = make_grid(g.box, 2 * 256)
        w2 = bump.values_on_grid(g2)
        truth2 = -bump.partial_on_grid(g2, (2, 0)) + bump.partial_on_grid(g2, (0, 2))
        err2 = np.max(np.abs(_stencil(metric_on_grid(q, g2), w2, g2) - truth2))
        assert err / err2 >= 3.5            # O(h^2) consistency
        assert err <= 0.05 * np.max(np.abs(truth))

    def test_stencil_exact_on_quadratics(self):
        q = constant_metric(np.array([[1.0, 0.5], [0.5, 2.0]]))
        g = make_grid(unit_box(2), 32)
        mesh = g.meshgrid()
        w = mesh[0] ** 2 + 3.0 * mesh[0] * mesh[1] - mesh[1] ** 2
        # <Q d, d> w = q11*2 + 2*q12*3 + q22*(-2), constant
        expected = 1.0 * 2 + 2 * 0.5 * 3 + 2.0 * (-2)
        out = _stencil(metric_on_grid(q, g), w, g)
        interior = (slice(2, -2), slice(2, -2))
        assert_allclose(out[interior], expected, atol=1e-10)

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
        assert np.array_equal(_stencil(metric_on_grid(q, g), w, g), full)


class TestRatio:
    def test_empty_field_reported(self, section, section_grid):
        q, bent, _ = section
        weight = build_weight(bent, mu=1.0)
        rep = lambda_sweep(q, weight, [np.zeros(section_grid.shape)], [4.0], section_grid)
        assert rep.empty[0]
        assert np.isnan(rep.ratio[0, 0])
        assert rep.r_min == {4.0: np.inf}

    def test_homogeneity_in_w(self, section, section_grid):
        q, bent, _ = section
        weight = build_weight(bent, mu=1.0)
        w = bump_superposition_values(section_grid, 1, seed=3)[0]
        r1 = lambda_sweep(q, weight, [w], [8.0], section_grid)
        r2 = lambda_sweep(q, weight, [2.0 * w], [8.0], section_grid)
        assert r2.lhs[0, 0] == pytest.approx(2.0 * r1.lhs[0, 0], rel=1e-12)
        assert r2.rhs1[0, 0] == pytest.approx(2.0 * r1.rhs1[0, 0], rel=1e-12)
        assert r2.rhs2[0, 0] == pytest.approx(2.0 * r1.rhs2[0, 0], rel=1e-12)
        assert r2.ratio[0, 0] == pytest.approx(r1.ratio[0, 0], rel=1e-12)

    def test_weight_shift_invariance(self, section, section_grid):
        # adding a constant to the weight leaves every reported norm alone,
        # because the exponent is always re-based on the support minimum
        q, bent, _ = section
        w = bump_superposition_values(section_grid, 1, seed=4)[0]
        phi = build_weight(bent, mu=1.0)
        shifted = ScalarField(lambda x, order: phi.jet(x, order) + 5.0)
        r1 = lambda_sweep(q, phi, [w], [8.0], section_grid)
        r2 = lambda_sweep(q, shifted, [w], [8.0], section_grid)
        for key in ("lhs", "rhs1", "rhs2", "ratio"):
            assert getattr(r2, key)[0, 0] == pytest.approx(getattr(r1, key)[0, 0], rel=1e-12)

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
            r = lambda_sweep(q, weight, [w], [lam], g)
            vals[lam] = (r.rhs2[0, 0] / r.rhs1[0, 0]) / (lam * r.wnorm_w[0, 0] / r.wnorm_grad[0, 0])
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
        cases = [([w], [4.0], "need at least two lam values for a slope, got 1"),
                 ([np.zeros_like(w), w], [4.0, 8.0], "test function 0 is zero on the grid")]
        for corpus, lambdas, message in cases:
            rep = lambda_sweep(q, weight, corpus, lambdas, section_grid)
            with pytest.raises(ContractViolation, match=message):
                exponent_slopes(rep)

    def test_mu_sweep_all_positive(self, section):
        q, bent, box = section
        g = make_grid(box, 96)
        corpus = bump_superposition_values(g, 6, seed=11)
        for mu in (1.0, 2.0, 4.0):
            weight = build_weight(bent, mu=mu)
            rep = lambda_sweep(q, weight, corpus, [4, 8, 16], g)
            assert rep.r_floor(4.0) > 0


def _loop_ratio(q_arrays, phi_values, w, grid, lam):
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


def _loop_rows(q, phi, corpus, lambdas, grid):
    q_arrays = metric_on_grid(q, grid)
    phi_values = phi.jet(grid.points(), 0).reshape(grid.shape)
    rows = []
    for lam in lambdas:
        for t_id, w in enumerate(corpus):
            r = _loop_ratio(q_arrays, phi_values, w, grid, lam)
            r["testfn"] = t_id
            r["lam"] = lam
            rows.append(r)
    return rows


def _sweep_rows(rep):
    """The report's arrays as the oracle's rows: lam-major, one dict per
    (testfn, lam) with the oracle's keys in its order."""
    rows = []
    for k, lam in enumerate(rep.lambdas.tolist()):
        for t in range(len(rep.empty)):
            rows.append({key: getattr(rep, key)[t, k]
                         for key in ("lhs", "rhs1", "rhs2", "ratio", "wnorm_grad", "wnorm_w")})
            rows[-1].update(empty=rep.empty[t], testfn=t, lam=lam)
    return rows


# the sweep sums each norm as one matrix product and the loop as a trapezoid
# over the grid: the same terms, summed in another order
SUM_ORDER_RTOL = 1e-12


def _assert_rows_close(rows, oracle):
    """Row for row, the same keys in the same order, and every value within
    SUM_ORDER_RTOL of the oracle's (NaN where it is NaN)."""
    assert [list(r) for r in rows] == [list(r) for r in oracle]
    assert_allclose([list(r.values()) for r in rows], [list(r.values()) for r in oracle],
                    rtol=SUM_ORDER_RTOL, atol=0.0)


class TestSweepAgainstLoop:
    """lambda_sweep forms the lam-free terms once per test function and takes
    its norms at every lam in one product; the lam-outer loop that recomputed
    them is the oracle, row for row."""

    BOX = np.array([[-0.4, 0.4], [0.6, 1.4]])
    LADDERS = ([8.0], [1.0, 4.0, 16.0], [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])

    @pytest.fixture(scope="class")
    def setup(self, section):
        grid = make_grid(self.BOX, 64)
        corpus = bump_superposition_values(grid, 5, seed=13)
        corpus.insert(2, np.zeros(grid.shape))        # an empty test function
        return grid, corpus, build_weight(section[1], mu=1.0)

    @pytest.mark.parametrize("lambdas", LADDERS)
    @pytest.mark.parametrize("metric", ["section", "bumpy"])
    def test_rows_match_the_loop(self, section, setup, metric, lambdas):
        grid, corpus, weight = setup
        q = bumpy_wave_metric(1) if metric == "bumpy" else section[0]
        rows = _sweep_rows(lambda_sweep(q, weight, corpus, lambdas, grid))
        oracle = _loop_rows(q, weight, corpus, lambdas, grid)
        _assert_rows_close(rows, oracle)

    def test_single_ratio_matches_the_loop(self, section, setup):
        grid, corpus, weight = setup
        q = bumpy_wave_metric(1)
        for w in corpus:
            got = _sweep_rows(lambda_sweep(q, weight, [w], [16.0], grid))[0]
            want = _loop_rows(q, weight, [w], [16.0], grid)[0]
            _assert_rows_close([got], [want])

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


class TestCliAgainstLoop:
    """`carleman` writes the sweep's arrays through the CSV writer's array
    path: every cell, parsed back to a double, and the report's per-lam
    minimum match the loop oracle."""

    @pytest.mark.parametrize("cells, code", [(32, 0), (3, 1)])    # 3 cells: empty test functions
    def test_csv_and_r_min_match_the_loop(self, tmp_path, cells, code):
        out = str(tmp_path / "o")
        assert main(["carleman", "--grid", str(cells), "--out", out]) == code
        # the command's defaults: lambda 2, mu 1, 50 bumps at seed 0 + 7, lambdas 1..64
        q, bent, box = carleman_section(lam=2.0)
        grid = make_grid(box, cells)
        corpus = bump_superposition_values(grid, 50, seed=7)
        lambdas = [2.0 ** k for k in range(7)]
        oracle = _loop_rows(q, build_weight(bent, mu=1.0), corpus, lambdas, grid)
        with open(os.path.join(out, "carleman_ratios.csv"), newline="") as f:
            lines = f.read().split("\r\n")
        assert lines[0] == "testfn_id,lambda,lhs,rhs1,rhs2,ratio"
        assert lines[-1] == "" and len(lines) == len(oracle) + 2
        keys = ("lam", "lhs", "rhs1", "rhs2", "ratio")
        for line, row in zip(lines[1:-1], oracle):
            testfn, *numbers = line.split(",")
            assert int(testfn) == row["testfn"]
            assert_allclose([float(c) for c in numbers], [row[k] for k in keys],
                            rtol=SUM_ORDER_RTOL, atol=0.0)
        with open(os.path.join(out, "report.json")) as f:
            r_min = json.load(f)["sweep"]["r_min"]
        want = {str(lam): min((r["ratio"] for r in oracle if r["lam"] == lam
                               and not r["empty"] and np.isfinite(r["ratio"])), default=np.inf)
                for lam in lambdas}
        assert r_min.keys() == want.keys()
        assert_allclose([r_min[k] for k in want], list(want.values()), rtol=SUM_ORDER_RTOL, atol=0.0)


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
