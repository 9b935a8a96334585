"""Weak-form verification of extension-by-zero across a characteristic corner.

V is U multiplied by the indicator of the closed quadrant {y_1 >= 0, y_2 >= 0}.
When U vanishes on the two quadrant faces, the first derivatives, the mixed
(1,2) derivative, and every second derivative not purely in the y_1 or y_2
direction pass through the indicator: each identity is tested in weak form by
pairing against smooth compactly supported test functions.  The pure second
derivative in a face-normal direction instead produces a surface-supported
term whose density is the normal derivative of U on the face; the layer probe
measures it.  U and the test bumps are products of 1-D factors, so each of
these integrals is, term by term of U, a product of 1-D sums (CornerField.pair)
and no grid array is formed.  The pointwise differential-inequality transfer
from U to V and the smoothing commutator that justifies applying weighted
estimates to low-regularity functions are verified on grid arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import HypothesisError, ResolutionError
from .grids import Grid, ProductBump, _axis_weights, _bump, trapezoid, window_trapezoid


def fftconvolve(in1, in2, mode="full", axes=None):
    """scipy.signal.fftconvolve, imported on call.

    Nothing here calls it, since the commutator reuses spectra; the name stays
    because the benchmark tracer (perfbench/tracer.py) wraps it in this
    module. Importing scipy.signal at module level would cost most of the
    start-up of every command.
    """
    from scipy.signal import fftconvolve as convolve
    return convolve(in1, in2, mode=mode, axes=axes)


class CornerField:
    """A C^2 corner candidate: a sum of products of 1-D factors on a grid.

    terms[t][a] = (f, f', f'') for axis a, so U(y) = sum_t prod_a f(y_a) and
    every partial derivative of order <= 2 per axis is exact.
    """

    def __init__(self, grid: Grid, terms: list, name: str = ""):
        self.grid = grid
        self.terms = terms
        self.name = name
        self.values = self.partial((0,) * grid.dim)

    def partial(self, alpha: Sequence[int]) -> np.ndarray:
        """d^alpha U on the grid, alpha[a] <= 2, from the factors' derivatives."""
        out = np.zeros(self.grid.shape)
        for term in self.terms:
            piece = np.array(1.0)
            for a, axis in enumerate(self.grid.axes()):
                piece = np.multiply.outer(piece, term[a][alpha[a]](axis))
            out += piece
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

    def pair(self, phi: ProductBump, alpha: Sequence[int], beta: Sequence[int],
             weights: Sequence[np.ndarray]) -> float:
        """sum over the nodes of prod_a weights[a] * d^alpha U * d^beta phi:
        per term of U a product over the axes of 1-D sums, each taken over the
        nodes where that axis's weighted bump factor is nonzero."""
        sums = []
        for a, (coords, w) in enumerate(zip(self.grid.axes(), weights)):
            factor = w * phi.axis_profile(coords, a, beta[a])
            nz = np.flatnonzero(factor)
            if nz.size == 0:
                return 0.0
            on = slice(nz[0], nz[-1] + 1)
            sums.append([factor[on] @ term[a][alpha[a]](coords[on]) for term in self.terms])
        return phi.amplitude * float(np.prod(sums, axis=0).sum())


def _multi_index(dim: int, *axes: int) -> tuple:
    """The multi-index with one derivative along each listed axis."""
    alpha = [0] * dim
    for a in axes:
        alpha[a] += 1
    return tuple(alpha)


def quadrant_mask(grid: Grid, closed: bool = True) -> np.ndarray:
    """Indicator of the (closed by default) quadrant y_1 >= 0, y_2 >= 0,
    a read-only broadcast of its (y_1, y_2) slice."""
    half = np.greater_equal if closed else np.greater
    mask = half(grid.axis(0), 0.0)[:, None] & half(grid.axis(1), 0.0)
    return np.broadcast_to(mask.reshape(mask.shape + (1,) * (grid.dim - 2)), grid.shape)


def extend_by_zero(cf: CornerField) -> np.ndarray:
    """V = U on the closed quadrant, 0 elsewhere (nodes on the faces keep U)."""
    return np.where(quadrant_mask(cf.grid, closed=True), cf.values, 0.0)


def weak_pairing(v_values: np.ndarray, grid: Grid, alpha: Sequence[int],
                 testfn: ProductBump) -> float:
    """Distributional pairing <d^alpha V, phi> = (-1)^|alpha| integral V d^alpha phi."""
    testfn.check_support_inside(grid.box)
    sign = -1.0 if sum(alpha) % 2 else 1.0
    return sign * trapezoid(v_values * testfn.partial_on_grid(grid, alpha), grid)


def _lab_weights(cf: CornerField, tests: List[ProductBump]) -> tuple:
    """Per-axis weights (weak, quadrant, face) of the lab's integrals, once
    every test function's support is checked to lie inside the box: weak
    integrates V = U on the closed quadrant by the full trapezoid rule,
    quadrant is restricted_trapezoid's rule (half weight at the zero node),
    face is the point y_1 = 0 on axis 0 and the quadrant rule elsewhere."""
    grid = cf.grid
    for phi in tests:
        phi.check_support_inside(grid.box)
    full = [_axis_weights(n, h) for n, h in zip(grid.shape, grid.h)]
    zeros = [grid.zero_index(a) for a in (0, 1)]
    weak = [np.where(np.arange(w.size) >= i0, w, 0.0) for w, i0 in zip(full, zeros)] + full[2:]
    quadrant = [np.concatenate([np.zeros(i0), _axis_weights(w.size - i0, h)])
                for w, i0, h in zip(full, zeros, grid.h)] + full[2:]
    face = [np.where(np.arange(grid.shape[0]) == zeros[0], 1.0, 0.0)] + quadrant[1:]
    return weak, quadrant, face


def identity_families(dim: int) -> dict:
    """Multi-indices of the pass-through identities, grouped by family."""
    def e(*axes):
        return _multi_index(dim, *axes)

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
    f1, f2 = cf.face_defects()
    if not (f1 <= 1e-10 and f2 <= 1e-10):
        raise HypothesisError(
            f"corner field does not vanish on the quadrant faces "
            f"(defects {f1:.2e}, {f2:.2e}); the identities are not expected to hold")
    weak, quadrant, _ = _lab_weights(cf, tests)
    zero = (0,) * cf.grid.dim
    rows = []
    fam_max = {}
    for fam, alphas in identity_families(cf.grid.dim).items():
        worst = 0.0
        for alpha in alphas:
            sign = -1.0 if sum(alpha) % 2 else 1.0
            for t_id, phi in enumerate(tests):
                lhs = sign * cf.pair(phi, zero, alpha, weak)
                rhs = cf.pair(phi, alpha, zero, quadrant)
                res = abs(lhs - rhs)
                worst = max(worst, res)
                rows.append({"family": fam, "alpha": list(alpha), "testfn": t_id,
                             "lhs": lhs, "rhs": rhs, "residual": res})
        fam_max[fam] = worst
    report = {
        "field": cf.name,
        "h": float(np.max(cf.grid.h)),
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
    weak, quadrant, face = _lab_weights(cf, tests)
    zero = (0,) * cf.grid.dim
    e0, e00 = _multi_index(cf.grid.dim, 0), _multi_index(cf.grid.dim, 0, 0)
    rows = []
    worst_mismatch = 0.0
    max_layer = 0.0
    for t_id, phi in enumerate(tests):
        delta = cf.pair(phi, zero, e00, weak) - cf.pair(phi, e00, zero, quadrant)
        s_phi = cf.pair(phi, e0, zero, face)
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


def _second_order_form(cf: CornerField, B: np.ndarray) -> np.ndarray:
    """sum_{j,k} B_jk d_j d_k U on the grid, read from the upper triangle of
    the symmetric matrix B."""
    out = np.zeros(cf.grid.shape)
    for j in range(B.shape[0]):
        for k in range(j, B.shape[0]):
            if B[j, k] != 0.0:
                mult = 1.0 if j == k else 2.0
                out += mult * float(B[j, k]) * cf.partial(_multi_index(cf.grid.dim, j, k))
    return out


def _interior_mask(grid: Grid) -> np.ndarray:
    mask = np.zeros(grid.shape, dtype=bool)
    mask[tuple(slice(1, -1) for _ in range(grid.dim))] = True
    return mask


def verify_inequality_transfer(cf: CornerField, B,
                               n_pts: int = 10000, seed: int = 0,
                               C: Optional[float] = None,
                               tol_char: float = 1e-12) -> dict:
    """Transfer the pointwise differential inequality from U to V.

    B is the constant symmetric coefficient matrix of the second-order form
    <B d, d> U; its (1,1) and (2,2) entries must vanish for the corner
    identities to apply.

    The constant C is measured on the open quadrant (strict interior of the
    box) as the supremum of |<B d, d> U| / (|grad U| + |U|); the V-side
    inequality is then checked with the same C at random off-face interior
    points, with the V-side quantities obtained through the pass-through
    identities (the quadrant indicator scales both sides identically).
    """
    grid = cf.grid
    B = np.asarray(B, dtype=float)
    if max(abs(B[0, 0]), abs(B[1, 1])) > tol_char:
        raise HypothesisError("coefficient matrix has nonzero (1,1) or (2,2) entry")
    bu = _second_order_form(cf, B)
    grad_mag = np.zeros(grid.shape)
    for a in range(grid.dim):
        grad_mag += cf.partial(_multi_index(grid.dim, a)) ** 2
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


def _mollifier_kernels(grid: Grid, eps: float) -> tuple:
    """Sampled bump kernel and its gradient kernels, normalized to unit mass.

    The discrete sum of the base kernel times the cell volume is exactly 1,
    so smoothing preserves constants.
    """
    h = grid.h
    offsets = [hh * np.arange(-int(np.floor(eps / hh)), int(np.floor(eps / hh)) + 1)
               for hh in h]
    mesh = np.meshgrid(*[o / eps for o in offsets], indexing="ij")
    s = 1.0 - sum(m * m for m in mesh)
    base = _bump(s)
    z = float(np.sum(base)) * float(np.prod(h))
    return base / z, [_bump(s, mesh[a], 1) / (z * eps) for a in range(grid.dim)]


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

    Every transformed input is zero outside the support window [lo, hi) of
    v's gradients, the per-axis node range outside which every v_k vanishes.
    So the transforms run on that window only, padded for a kernel of K
    nodes, and each D_jk is exactly zero outside the window dilated by the
    kernel half-width c = (K - 1) // 2, clipped to the grid.  The quadrature
    is the grid's trapezoid rule restricted to that dilated window: its axis
    weights are the full grid's, sliced.  A v with no nonzero gradient has
    an empty window and a zero commutator at every eps.
    """
    # imported on first use: no other command needs scipy, and it is slow to load
    from scipy.fft import irfftn, next_fast_len, rfftn

    hmax = float(np.max(grid.h))
    cell = float(np.prod(grid.h))
    for eps in eps_list:
        if eps < 4.0 * hmax:
            raise ResolutionError(f"eps = {eps:g} below resolution floor 4h = {4 * hmax:g}")
    support = np.zeros(grid.shape, dtype=bool)
    for vk in v.grads:
        support |= vk != 0
    if not support.any():
        return [0.0] * len(eps_list)
    lo, hi = [], []
    for ax in range(grid.dim):
        nodes = np.flatnonzero(support.any(axis=tuple(b for b in range(grid.dim) if b != ax)))
        lo.append(int(nodes[0]))
        hi.append(int(nodes[-1]) + 1)
    src = tuple(slice(l, u) for l, u in zip(lo, hi))
    v_k = [vk[src] for vk in v.grads]
    av_k = [a.values[src] * vk for vk in v_k]
    out = []
    for eps in eps_list:
        k0, kg = _mollifier_kernels(grid, eps)
        fshape = [next_fast_len(u - l + m - 1, real=True) for l, u, m in zip(lo, hi, k0.shape)]
        half = [(m - 1) // 2 for m in k0.shape]
        window = tuple(slice(max(l - c, 0), min(u + c, n))
                       for l, u, c, n in zip(lo, hi, half, grid.shape))
        # the window's place in the linear convolution of the cropped inputs
        crop = tuple(slice(w.start - l + c, w.stop - l + c) for w, l, c in zip(window, lo, half))
        a_win = a.values[window]

        def inverse(spec):
            return irfftn(spec, fshape)[crop]

        f_k0 = rfftn(k0 * cell, fshape)
        f_kg = [rfftn(kj * cell, fshape) for kj in kg]
        total = 0.0
        for k in range(grid.dim):
            f_v = rfftn(v_k[k], fshape)
            f_av = rfftn(av_k[k], fshape)
            for j in range(grid.dim):
                spec = -(f_kg[j] * f_av)
                ajvk = a.grads[j][src] * v_k[k]
                if np.any(ajvk):
                    spec += f_k0 * rfftn(ajvk, fshape)
                djk = a_win * inverse(f_kg[j] * f_v) + inverse(spec)
                total += window_trapezoid(djk * djk, grid, window)
        out.append(float(np.sqrt(total)))
    return out


# ---------------------------------------------------------------------------
# Standard analytic corpus
# ---------------------------------------------------------------------------

# 1-D factors (f, f', f'') of the corner fields, applied to grid axes
LINEAR = (lambda u: u, np.ones_like, np.zeros_like)
SQUARE = (lambda u: u ** 2, lambda u: 2.0 * u, lambda u: np.full_like(u, 2.0))
SIN_PI = (lambda u: np.sin(np.pi * u), lambda u: np.pi * np.cos(np.pi * u),
          lambda u: -np.pi ** 2 * np.sin(np.pi * u))
EXPM1 = (np.expm1, np.exp, np.exp)
ONE = (np.ones_like, np.zeros_like, np.zeros_like)
SECH = (lambda u: 1.0 / np.cosh(u), lambda u: -np.tanh(u) / np.cosh(u),
        lambda u: (np.tanh(u) ** 2 - 1.0 / np.cosh(u) ** 2) / np.cosh(u))


def corner_corpus(grid: Grid) -> list:
    """Analytic corner fields vanishing on both quadrant faces."""
    pad = [ONE] * (grid.dim - 2)

    def field(name, *terms):
        return CornerField(grid, [list(t) + pad for t in terms], name)

    fields = [
        field("product_linear", (LINEAR, LINEAR)),
        field("product_sin", (SIN_PI, SIN_PI)),
        field("sin_times_linear", (SIN_PI, LINEAR)),
        field("product_expm1", (EXPM1, EXPM1)),
        field("cubic_mix", (LINEAR, LINEAR), (SQUARE, LINEAR), (LINEAR, SQUARE)),
    ]
    if grid.dim >= 3:
        fields.append(CornerField(grid, [[LINEAR, LINEAR] + [SECH] * (grid.dim - 2)],
                                  "tapered_product"))
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
            g = ramp * b.partial_on_grid(grid, _multi_index(grid.dim, axis))
            if axis == 0:
                g = g + (mesh[0] > 0.0) * bump
            grads.append(g)
        out.append(SampledField(ramp * bump, grads))
    return out
