"""Weak-form verification of extension-by-zero across a characteristic corner.

V is U multiplied by the indicator of the closed quadrant {y_1 >= 0, y_2 >= 0}.
When U vanishes on the two quadrant faces, the first derivatives, the mixed
(1,2) derivative, and every second derivative not purely in the y_1 or y_2
direction pass through the indicator: each identity is tested in weak form by
pairing against smooth compactly supported test functions.  The pure second
derivative in a face-normal direction instead produces a surface-supported
term whose density is the normal derivative of U on the face; the layer probe
measures it.  The pointwise differential-inequality transfer from U to V and
the smoothing commutator that justifies applying weighted estimates to
low-regularity functions are verified on the same grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import ContractViolation, HypothesisError, ResolutionError
from .grids import Grid, ProductBump, d1, d2, restricted_trapezoid, trapezoid

FACE_TOL = 1e-12


def fftconvolve(in1, in2, mode="full", axes=None):
    """scipy.signal.fftconvolve, imported on call.

    Nothing here calls it, since the commutator reuses spectra; the name stays
    because the benchmark tracer (perfbench/tracer.py) wraps it in this
    module. Importing scipy.signal at module level would cost most of the
    start-up of every command.
    """
    from scipy.signal import fftconvolve as convolve
    return convolve(in1, in2, mode=mode, axes=axes)


class SeparableFunction:
    """Sum of products of 1-d factors with analytic derivatives up to order 2.

    terms[t][a] = (f, f', f'') for axis a; value = sum_t prod_a f(y_a).
    """

    def __init__(self, terms, name: str = ""):
        self.terms = terms
        self.name = name

    @property
    def dim(self) -> int:
        return len(self.terms[0])

    def partial_on_grid(self, grid: Grid, alpha: Sequence[int]) -> np.ndarray:
        alpha = tuple(alpha)
        out = np.zeros(grid.shape)
        for term in self.terms:
            piece = np.array(1.0)
            for a in range(grid.dim):
                piece = np.multiply.outer(piece, np.asarray(
                    term[a][alpha[a]](grid.axis(a)), dtype=float))
            out += piece
        return out

    def values_on_grid(self, grid: Grid) -> np.ndarray:
        return self.partial_on_grid(grid, (0,) * self.dim)


@dataclass
class CornerField:
    """A C^2 corner candidate: grid samples plus (optional) analytic partials."""

    grid: Grid
    values: np.ndarray
    analytic: Optional[SeparableFunction] = None
    name: str = ""

    def partial(self, alpha: Sequence[int]) -> np.ndarray:
        if self.analytic is not None:
            return self.analytic.partial_on_grid(self.grid, alpha)
        out = np.asarray(self.values, dtype=float)
        h = self.grid.h
        for a, order in enumerate(alpha):
            if order == 1:
                out = d1(out, a, h[a])
            elif order == 2:
                out = d2(out, a, h[a])
            elif order != 0:
                raise ContractViolation("finite-difference partials support order <= 2")
        return out

    def face_defects(self) -> tuple:
        """Max |U| on the two quadrant faces where vanishing is required.

        Face 1 is {y_1 = 0, y_2 >= 0}; face 2 is {y_2 = 0, y_1 >= 0}.
        """
        i0 = self.grid.zero_index(0)
        j0 = self.grid.zero_index(1)
        on_face1 = self.values[i0][j0:]
        on_face2 = np.take(self.values, j0, axis=1)[i0:]
        return (float(np.max(np.abs(on_face1))) if on_face1.size else 0.0,
                float(np.max(np.abs(on_face2))) if on_face2.size else 0.0)

    @property
    def vanishes_on_face1(self) -> bool:
        return self.face_defects()[0] <= FACE_TOL

    @property
    def vanishes_on_face2(self) -> bool:
        return self.face_defects()[1] <= FACE_TOL

    def satisfies_face_conditions(self, tol: float = FACE_TOL) -> bool:
        f1, f2 = self.face_defects()
        return f1 <= tol and f2 <= tol


def corner_field_from_separable(grid: Grid, fn: SeparableFunction, name: str = "") -> CornerField:
    return CornerField(grid, fn.values_on_grid(grid), analytic=fn, name=name or fn.name)


def quadrant_mask(grid: Grid, closed: bool = True) -> np.ndarray:
    """Indicator of the (closed by default) quadrant y_1 >= 0, y_2 >= 0."""
    mesh = grid.meshgrid()
    if closed:
        return (mesh[0] >= 0.0) & (mesh[1] >= 0.0)
    return (mesh[0] > 0.0) & (mesh[1] > 0.0)


def extend_by_zero(cf: CornerField) -> np.ndarray:
    """V = U on the closed quadrant, 0 elsewhere (nodes on the faces keep U)."""
    return np.where(quadrant_mask(cf.grid, closed=True), cf.values, 0.0)


def weak_pairing(v_values: np.ndarray, grid: Grid, alpha: Sequence[int],
                 testfn: ProductBump) -> float:
    """Distributional pairing <d^alpha V, phi> = (-1)^|alpha| integral V d^alpha phi."""
    testfn.check_support_inside(grid.box)
    sign = -1.0 if sum(alpha) % 2 else 1.0
    return sign * testfn.pair(v_values, grid, alpha)


def identity_families(dim: int) -> dict:
    """Multi-indices of the pass-through identities, grouped by family."""
    def e(*axes):
        a = [0] * dim
        for ax in axes:
            a[ax] += 1
        return tuple(a)

    fams = {
        "first": [e(0), e(1)],
        "mixed_pair": [e(0, 1)],
    }
    if dim >= 3:
        fams["edge"] = [e(0, j) for j in range(2, dim)] + [e(1, j) for j in range(2, dim)]
        fams["interior"] = [e(j, k) for j in range(2, dim) for k in range(j, dim)]
    return fams


def verify_extension_identities(cf: CornerField, tests: List[ProductBump],
                                tol_weak: Optional[dict] = None) -> dict:
    """Check every pass-through identity in weak form against a test corpus.

    For each identity d^alpha V = 1_quadrant d^alpha U and each test function,
    the residual is |<d^alpha V, phi> - integral_quadrant d^alpha U phi|.  The
    quadrant side is integrated with the restricted trapezoid rule, which is
    the second-order-accurate quadrature of the jump-extended integrand.
    """
    if not cf.satisfies_face_conditions(tol=1e-10):
        f1, f2 = cf.face_defects()
        raise HypothesisError(
            f"corner field does not vanish on the quadrant faces "
            f"(defects {f1:.2e}, {f2:.2e}); the identities are not expected to hold")
    grid = cf.grid
    v = extend_by_zero(cf)
    fams = identity_families(grid.dim)
    rows = []
    fam_max = {}
    for fam, alphas in fams.items():
        worst = 0.0
        for alpha in alphas:
            du = cf.partial(alpha)
            for t_id, phi in enumerate(tests):
                lhs = weak_pairing(v, grid, alpha, phi)
                rhs = phi.pair(du, grid, half_axes=(0, 1))
                res = abs(lhs - rhs)
                worst = max(worst, res)
                rows.append({"family": fam, "alpha": list(alpha), "testfn": t_id,
                             "lhs": lhs, "rhs": rhs, "residual": res})
        fam_max[fam] = worst
    report = {
        "field": cf.name,
        "h": float(np.max(grid.h)),
        "family_max_residual": fam_max,
        "rows": rows,
    }
    if tol_weak is not None:
        report["passed"] = all(fam_max[f] <= tol_weak[f] for f in fam_max)
        report["tolerances"] = {f: float(tol_weak[f]) for f in fam_max}
    return report


def detect_layer(cf: CornerField, tests: List[ProductBump]) -> dict:
    """Probe the face-normal second derivative for its surface-supported term.

    delta(phi) = <d1^2 V, phi> - integral_quadrant d1^2 U phi  should equal the
    face integral  S(phi) = integral_{y_1 = 0, y_2 >= 0} d1U(0, .) phi(0, .),
    whose density is the normal derivative of U on the face.
    """
    grid = cf.grid
    v = extend_by_zero(cf)
    alpha = tuple([2] + [0] * (grid.dim - 1))
    du2 = cf.partial(alpha)
    du1 = cf.partial(tuple([1] + [0] * (grid.dim - 1)))
    i0 = grid.zero_index(0)
    face_grid = Grid(grid.box[1:], grid.n_cells[1:])
    rows = []
    worst_mismatch = 0.0
    max_layer = 0.0
    for t_id, phi in enumerate(tests):
        delta = weak_pairing(v, grid, alpha, phi) - phi.pair(du2, grid, half_axes=(0, 1))
        # phi on the face: its other axis profiles, scaled by the axis-0 profile at y_1 = 0
        face_amp = phi.amplitude * phi.axis_profile(grid.axis(0)[i0:i0 + 1], 0, 0)[0]
        face_phi = ProductBump(phi.center[1:], phi.radius[1:], amplitude=face_amp)
        face_density = du1[i0] * face_phi.values_on_grid(face_grid)
        s_phi = restricted_trapezoid(face_density, face_grid, half_axes=(0,))
        rows.append({"testfn": t_id, "delta": delta, "surface_integral": s_phi,
                     "mismatch": abs(delta - s_phi)})
        worst_mismatch = max(worst_mismatch, abs(delta - s_phi))
        max_layer = max(max_layer, abs(s_phi))
    return {
        "field": cf.name,
        "max_mismatch": worst_mismatch,
        "max_layer_magnitude": max_layer,
        "rows": rows,
    }


class BMatrixField:
    """Symmetric coefficient matrix for the second-order form on the grid.

    Entries are callables on the grid (or constants); the (1,1) and (2,2)
    entries must vanish for the corner identities to apply.
    """

    def __init__(self, dim: int, entries: dict, name: str = ""):
        self.dim = dim
        self.entries = {}
        for (j, k), val in entries.items():
            self.entries[(min(j, k), max(j, k))] = val
        self.name = name

    @classmethod
    def from_matrix(cls, matrix, name: str = "") -> "BMatrixField":
        m = np.asarray(matrix, dtype=float)
        entries = {}
        for j in range(m.shape[0]):
            for k in range(j, m.shape[0]):
                if m[j, k] != 0.0:
                    entries[(j, k)] = float(m[j, k])
        return cls(m.shape[0], entries, name=name)

    def entry_on_grid(self, grid: Grid, j: int, k: int) -> np.ndarray:
        val = self.entries.get((min(j, k), max(j, k)), 0.0)
        if callable(val):
            return np.asarray(val(*grid.meshgrid()), dtype=float)
        return np.full(grid.shape, float(val))

    def corner_entries_max(self, grid: Grid) -> float:
        return max(float(np.max(np.abs(self.entry_on_grid(grid, 0, 0)))),
                   float(np.max(np.abs(self.entry_on_grid(grid, 1, 1)))))

    def apply_second_order(self, cf: CornerField) -> np.ndarray:
        """sum_{j,k} beta_jk d_j d_k U on the grid from analytic partials."""
        grid = cf.grid
        out = np.zeros(grid.shape)
        for (j, k), _ in self.entries.items():
            beta = self.entry_on_grid(grid, j, k)
            alpha = [0] * grid.dim
            alpha[j] += 1
            alpha[k] += 1
            mult = 1.0 if j == k else 2.0
            out += mult * beta * cf.partial(tuple(alpha))
        return out


def _interior_mask(grid: Grid) -> np.ndarray:
    mask = np.zeros(grid.shape, dtype=bool)
    mask[tuple(slice(1, -1) for _ in range(grid.dim))] = True
    return mask


def verify_inequality_transfer(cf: CornerField, B: BMatrixField,
                               n_pts: int = 10000, seed: int = 0,
                               C: Optional[float] = None,
                               tol_char: float = 1e-12) -> dict:
    """Transfer the pointwise differential inequality from U to V.

    The constant C is measured on the open quadrant (strict interior of the
    box) as the supremum of |<B d, d> U| / (|grad U| + |U|); the V-side
    inequality is then checked with the same C at random off-face interior
    points, with the V-side quantities obtained through the pass-through
    identities (the quadrant indicator scales both sides identically).
    """
    grid = cf.grid
    if B.corner_entries_max(grid) > tol_char:
        raise HypothesisError("coefficient matrix has nonzero (1,1) or (2,2) entry")
    bu = B.apply_second_order(cf)
    grad_mag = np.zeros(grid.shape)
    for a in range(grid.dim):
        alpha = [0] * grid.dim
        alpha[a] = 1
        grad_mag += cf.partial(tuple(alpha)) ** 2
    grad_mag = np.sqrt(grad_mag)
    denom = grad_mag + np.abs(cf.values)

    open_quadrant = quadrant_mask(grid, closed=False) & _interior_mask(grid)
    lhs_u = np.abs(bu)
    if C is None:
        bad = open_quadrant & (denom <= 0) & (lhs_u > tol_char)
        if np.any(bad):
            w = np.argwhere(bad)[0]
            raise HypothesisError(
                f"inequality hypothesis fails on the open quadrant: zero "
                f"denominator with nonzero second-order form at node {tuple(w)}")
        ok = open_quadrant & (denom > 0)
        C = float(np.max(lhs_u[ok] / denom[ok]))

    # off-face interior nodes, both inside and outside the quadrant
    rng = np.random.default_rng(seed)
    idx = []
    for a in range(grid.dim):
        lo, hi = 1, grid.shape[a] - 1
        col = rng.integers(lo, hi, size=n_pts)
        if a in (0, 1):
            z = grid.zero_index(a)
            col = np.where(col == z, z + 1, col)
        idx.append(col)
    idx = tuple(idx)
    hpart = quadrant_mask(grid, closed=True)[idx].astype(float)
    lhs_v = hpart * lhs_u[idx]
    rhs_v = C * hpart * denom[idx]
    slack = 1e-12 * (1.0 + np.abs(rhs_v))
    violations = int(np.sum(lhs_v > rhs_v + slack))
    worst = float(np.max(lhs_v - rhs_v)) if n_pts else 0.0
    return {
        "field": cf.name,
        "C": float(C),
        "n_points": int(n_pts),
        "violations": violations,
        "worst_excess": worst,
        "passed": violations == 0,
    }


# ---------------------------------------------------------------------------
# Smoothing commutator
# ---------------------------------------------------------------------------

@dataclass
class SampledField:
    """Grid samples of a function together with per-axis derivative samples."""

    values: np.ndarray
    grads: List[np.ndarray]

    @classmethod
    def from_callables(cls, grid: Grid, value_fn: Callable, grad_fns: Sequence[Callable]):
        mesh = grid.meshgrid()
        return cls(np.asarray(value_fn(*mesh), dtype=float),
                   [np.asarray(g(*mesh), dtype=float) for g in grad_fns])

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray):
        h = grid.h
        return cls(np.asarray(values, dtype=float),
                   [d1(values, a, h[a]) for a in range(grid.dim)])


def _mollifier_kernels(grid: Grid, eps: float) -> tuple:
    """Sampled bump kernel and its gradient kernels, normalized to unit mass.

    The discrete sum of the base kernel times the cell volume is exactly 1,
    so smoothing preserves constants.
    """
    h = grid.h
    offsets = [hh * np.arange(-int(np.floor(eps / hh)), int(np.floor(eps / hh)) + 1)
               for hh in h]
    mesh = np.meshgrid(*[o / eps for o in offsets], indexing="ij")
    r2 = sum(m * m for m in mesh)
    s = 1.0 - r2
    safe = s > 1e-8
    base = np.zeros(r2.shape)
    base[safe] = np.exp(-1.0 / s[safe])
    cell = float(np.prod(h))
    z = float(np.sum(base)) * cell
    k0 = base / z
    kgrads = []
    for a in range(grid.dim):
        ka = np.zeros(r2.shape)
        ka[safe] = base[safe] * (-2.0 * mesh[a][safe] / (s[safe] ** 2))
        kgrads.append(ka / (z * eps))
    return k0, kgrads


def mollifier_commutator(a: SampledField, v: SampledField, grid: Grid,
                         eps_list: Sequence[float]) -> list:
    """L2 size of  a * Hess(smooth(v)) - smooth(a * Hess(v))  per smoothing width.

    The Hessian of the smoothed field puts one derivative on the kernel and
    one on v; the second term is evaluated in weak form, which needs only
    grad(a) and grad(v):

        D_jk = a . (dK_j * v_k) - (dK_j * (a v_k)) + (K * (a_j v_k)),

    with v_k = d_k v and a_j = d_j a.  For constant a the last term vanishes
    and the first two cancel to rounding, so the commutator is zero to
    floating-point accuracy by construction.

    The convolutions are those of fftconvolve(..., mode="same") with the cell
    volume folded into the kernels, but each spectrum is computed once: the
    kernels per eps, v_k and a v_k per (eps, k), and the last two terms of
    D_jk are added in frequency space, so each D_jk costs two inverse
    transforms.
    """
    # imported on first use: no other command needs scipy, and it is slow to load
    from scipy.fft import irfftn, next_fast_len, rfftn

    hmax = float(np.max(grid.h))
    cell = float(np.prod(grid.h))
    for eps in eps_list:
        if eps < 4.0 * hmax:
            raise ResolutionError(f"eps = {eps:g} below resolution floor 4h = {4 * hmax:g}")
    out = []
    for eps in eps_list:
        k0, kg = _mollifier_kernels(grid, eps)
        fshape = [next_fast_len(n + m - 1, real=True) for n, m in zip(grid.shape, k0.shape)]
        crop = tuple(slice((m - 1) // 2, (m - 1) // 2 + n) for n, m in zip(grid.shape, k0.shape))

        def inverse(spec):
            return irfftn(spec, fshape)[crop]

        f_k0 = rfftn(k0 * cell, fshape)
        f_kg = [rfftn(kj * cell, fshape) for kj in kg]
        total = 0.0
        for k in range(grid.dim):
            f_v = rfftn(v.grads[k], fshape)
            f_av = rfftn(a.values * v.grads[k], fshape)
            for j in range(grid.dim):
                spec = -(f_kg[j] * f_av)
                ajvk = a.grads[j] * v.grads[k]
                if np.any(ajvk):
                    spec += f_k0 * rfftn(ajvk, fshape)
                djk = a.values * inverse(f_kg[j] * f_v) + inverse(spec)
                total += trapezoid(djk * djk, grid)
        out.append(float(np.sqrt(total)))
    return out


# ---------------------------------------------------------------------------
# Standard analytic corpus
# ---------------------------------------------------------------------------

def _axis_identity():
    return (lambda u: np.asarray(u, dtype=float),
            lambda u: np.ones_like(np.asarray(u, dtype=float)),
            lambda u: np.zeros_like(np.asarray(u, dtype=float)))


def _axis_square():
    return (lambda u: np.asarray(u, dtype=float) ** 2,
            lambda u: 2.0 * np.asarray(u, dtype=float),
            lambda u: np.full_like(np.asarray(u, dtype=float), 2.0))


def _axis_sin_pi():
    return (lambda u: np.sin(np.pi * np.asarray(u, dtype=float)),
            lambda u: np.pi * np.cos(np.pi * np.asarray(u, dtype=float)),
            lambda u: -np.pi ** 2 * np.sin(np.pi * np.asarray(u, dtype=float)))


def _axis_expm1():
    return (lambda u: np.expm1(np.asarray(u, dtype=float)),
            lambda u: np.exp(np.asarray(u, dtype=float)),
            lambda u: np.exp(np.asarray(u, dtype=float)))


def _axis_one():
    return (lambda u: np.ones_like(np.asarray(u, dtype=float)),
            lambda u: np.zeros_like(np.asarray(u, dtype=float)),
            lambda u: np.zeros_like(np.asarray(u, dtype=float)))


def _axis_cosh_taper():
    return (lambda u: 1.0 / np.cosh(np.asarray(u, dtype=float)),
            lambda u: -np.tanh(u) / np.cosh(np.asarray(u, dtype=float)),
            lambda u: (np.tanh(u) ** 2 - 1.0 / np.cosh(u) ** 2) / np.cosh(np.asarray(u, dtype=float)))


def corner_corpus(grid: Grid) -> list:
    """Analytic corner fields vanishing on both quadrant faces."""
    dim = grid.dim
    pad = [_axis_one() for _ in range(dim - 2)]

    def sep(name, *axis01, extra=None):
        term = list(axis01) + (extra if extra is not None else pad)
        return corner_field_from_separable(grid, SeparableFunction([term], name=name), name)

    fields = [
        sep("product_linear", _axis_identity(), _axis_identity()),
        sep("product_sin", _axis_sin_pi(), _axis_sin_pi()),
        sep("sin_times_linear", _axis_sin_pi(), _axis_identity()),
        sep("product_expm1", _axis_expm1(), _axis_expm1()),
        corner_field_from_separable(grid, SeparableFunction(
            [[_axis_identity(), _axis_identity()] + pad,
             [_axis_square(), _axis_identity()] + pad,
             [_axis_identity(), _axis_square()] + pad], name="cubic_mix"), "cubic_mix"),
    ]
    if dim >= 3:
        taper = [_axis_cosh_taper() for _ in range(dim - 2)]
        fields.append(sep("tapered_product", _axis_identity(), _axis_identity(), extra=taper))
    return fields


def kink_profile_corpus(grid: Grid, count: int = 3, seed: int = 5) -> list:
    """H^1-but-not-H^2 profiles: max(0, y_1) times a smooth bump.

    Gradients are supplied analytically almost everywhere (the kink line has
    measure zero and carries the grid value 0 from the max).
    """
    rng = np.random.default_rng(seed)
    out = []
    box = grid.box
    width = box[:, 1] - box[:, 0]
    mesh = grid.meshgrid()
    ramp = np.maximum(mesh[0], 0.0)
    for _ in range(count):
        radius = rng.uniform(0.3, 0.42) * width
        center = np.zeros(grid.dim)
        center[0] = rng.uniform(-0.05, 0.05)
        amp = rng.uniform(0.8, 1.4)
        b = ProductBump(center, radius, amplitude=amp)
        b.check_support_inside(box, margin=0.0)
        bump = b.values_on_grid(grid)
        grads = []
        for axis in range(grid.dim):
            alpha = [0] * grid.dim
            alpha[axis] = 1
            g = ramp * b.partial_on_grid(grid, tuple(alpha))
            if axis == 0:
                g = g + (mesh[0] > 0.0) * bump
            grads.append(g)
        out.append(SampledField(ramp * bump, grads))
    return out
