import numpy as np
import pytest
from numpy.testing import assert_allclose

from uccert.carleman import (_dilate, apply_operator, build_weight, carleman_ratio,
                             exponent_slopes, lambda_sweep, metric_on_grid)
from uccert.errors import ContractViolation, RangeError
from uccert.fields import ScalarField, constant_metric
from uccert.grids import ProductBump, bump_superposition_values, make_grid, unit_box
from uccert.models import bumpy_wave_metric, carleman_section


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
        bare = ScalarField(w.phi._eval)
        p = np.array([0.12, 1.07])
        assert_allclose(w.phi.hess(p), bare.hess(p), rtol=1e-4, atol=1e-6)

    def test_nonpositive_mu_rejected(self, section):
        with pytest.raises(ContractViolation):
            build_weight(section[1], mu=0.0)


class TestApplyOperator:
    def test_zero_field(self, section, section_grid):
        q = section[0]
        out = apply_operator(q, np.zeros(section_grid.shape), section_grid)
        assert np.all(out == 0.0)

    def test_flat_wave_against_analytic(self, section):
        q, _, box = section
        g = make_grid(box, 256)
        bump = ProductBump([0.0, 1.0], [0.25, 0.25])
        w = bump.values_on_grid(g)
        truth = -bump.partial_on_grid(g, (2, 0)) + bump.partial_on_grid(g, (0, 2))
        err = np.max(np.abs(apply_operator(q, w, g) - truth))
        g2 = g.refine()
        w2 = bump.values_on_grid(g2)
        truth2 = -bump.partial_on_grid(g2, (2, 0)) + bump.partial_on_grid(g2, (0, 2))
        err2 = np.max(np.abs(apply_operator(q, w2, g2) - truth2))
        assert err / err2 >= 3.5            # O(h^2) consistency
        assert err <= 0.05 * np.max(np.abs(truth))

    def test_stencil_exact_on_quadratics(self):
        q = constant_metric(np.array([[1.0, 0.5], [0.5, 2.0]]))
        g = make_grid(unit_box(2), 32)
        mesh = g.meshgrid()
        w = mesh[0] ** 2 + 3.0 * mesh[0] * mesh[1] - mesh[1] ** 2
        # <Q d, d> w = q11*2 + 2*q12*3 + q22*(-2), constant
        expected = 1.0 * 2 + 2 * 0.5 * 3 + 2.0 * (-2)
        out = apply_operator(q, w, g)
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
        base = apply_operator(q, w, g)
        full = apply_operator(q, w, g, b=b, c=c)
        from uccert.grids import d1
        expected = d1(w, 0, g.h[0]) + 2.0 * d1(w, 1, g.h[1]) + c * w
        assert_allclose(full - base, expected, atol=1e-12)

    def test_variable_metric_on_grid(self):
        q = bumpy_wave_metric(1, amp=0.1)
        g = make_grid(np.array([[-0.3, 0.3], [0.7, 1.3]]), 32)
        arrays = metric_on_grid(q, g)
        p = np.array([g.axis(0)[7], g.axis(1)[20]])
        assert_allclose(arrays[:, :, 7, 20], q(p), atol=1e-14)


class TestRatio:
    def test_empty_field_reported(self, section, section_grid):
        q, bent, _ = section
        weight = build_weight(bent, mu=1.0)
        r = carleman_ratio(q, weight, np.zeros(section_grid.shape), section_grid, lam=4.0)
        assert r["empty"]
        assert np.isnan(r["ratio"])

    def test_homogeneity_in_w(self, section, section_grid):
        q, bent, _ = section
        weight = build_weight(bent, mu=1.0)
        w = bump_superposition_values(section_grid, 1, seed=3)[0]
        r1 = carleman_ratio(q, weight, w, section_grid, lam=8.0)
        r2 = carleman_ratio(q, weight, 2.0 * w, section_grid, lam=8.0)
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
        shifted = ScalarField(lambda x: w1.phi(x) + 5.0, w1.phi.grad, w1.phi.hess)
        from uccert.carleman import WeightSpec
        w2 = WeightSpec(bent, 1.0, shifted)
        r1 = carleman_ratio(q, w1, w, section_grid, lam=8.0)
        r2 = carleman_ratio(q, w2, w, section_grid, lam=8.0)
        for key in ("lhs", "rhs1", "rhs2", "ratio"):
            assert r2[key] == pytest.approx(r1[key], rel=1e-12)

    def test_unrepresentable_lambda_rejected(self, section, section_grid):
        q, bent, _ = section
        weight = build_weight(bent, mu=1.0)
        w = bump_superposition_values(section_grid, 1, seed=3)[0]
        with pytest.raises(RangeError):
            carleman_ratio(q, weight, w, section_grid, lam=1e7)

    def test_nonpositive_lambda_rejected(self, section, section_grid):
        q, bent, _ = section
        weight = build_weight(bent, mu=1.0)
        w = bump_superposition_values(section_grid, 1, seed=3)[0]
        with pytest.raises(ContractViolation):
            carleman_ratio(q, weight, w, section_grid, lam=0.0)


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
            r = carleman_ratio(q, weight, w, g, lam=lam)
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

    def test_mu_sweep_all_positive(self, section):
        q, bent, box = section
        g = make_grid(box, 96)
        corpus = bump_superposition_values(g, 6, seed=11)
        for mu in (1.0, 2.0, 4.0):
            weight = build_weight(bent, mu=mu)
            rep = lambda_sweep(q, weight, corpus, [4, 8, 16], g)
            assert rep.r_floor(4.0) > 0


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
