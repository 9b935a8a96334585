"""Weak-form verification of extension-by-zero across a characteristic corner.

V is U multiplied by the indicator of the closed quadrant {y_1 >= 0, y_2 >= 0}.
When U vanishes on the two quadrant faces, the first derivatives, the mixed
(1,2) derivative, and every second derivative not purely in the y_1 or y_2
direction pass through the indicator: each identity is tested in weak form by
pairing against smooth compactly supported test functions.  The pure second
derivative in a face-normal direction instead produces a surface-supported
term whose density is the normal derivative of U on the face; the layer probe
measures it.  U and the test bumps are products of 1-D factors, so each of
these integrals is, term by term of U, a product of 1-D sums over 1-D tables
built once per run: each field's factors on the grid axes (CornerField), and,
per axis, one array holding every test bump's profiles of order 0-2, with
each integration rule a weight vector per axis (PairingTables).  The profiles
take one bump evaluation per axis and order for the whole corpus
(grids.bump_profiles), after one array comparison checks every support.
CornerField.pair pairs a field with all test bumps at once, by one
matrix-vector product per axis and term of U, of the profiles with U's factor
times the rule's weights, so each side of an identity is a handful of
products whatever the corpus size.  The smoothing commutator that justifies
applying weighted estimates to low-regularity functions is separable too:
for an affine multiplier a with slopes s, a(x) (K * f)(x) - (K * (a f))(x) is
((s . u) K * f)(x) at every node, u the kernel tap's offset, so a product
kernel and a CornerField leave at most one 1-D convolution per axis and
nonzero slope, and 1-D sums: 80 convolutions in the 2-D lab, 162 in the 3-D
lab at 128 cells.  The pointwise differential-inequality transfer from U to
V reads the field's partials once, in axis-0 slabs of the grid.  So no
stage of the lab forms an array of the grid's shape: at 128 cells per axis,
`corner --dim 3` runs in about 0.03 s after start-up (0.22-0.24 s as a
whole process) and the process peaks at 39 MB resident on a 2-core x86-64
machine with one BLAS thread.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .errors import ContractViolation, HypothesisError, ResolutionError
from .grids import (Grid, ProductBump, _axis_weights, _bump, bump_profiles,
                    check_supports_inside, trapezoid)


def fftconvolve(in1, in2, mode="full", axes=None):
    """scipy.signal.fftconvolve, imported on call.

    Nothing here calls it, since the commutator convolves 1-D factors; the
    name stays because the benchmark tracer (perfbench/tracer.py) wraps it in
    this module. Importing scipy.signal at module level would cost most of the
    start-up of every command.
    """
    from scipy.signal import fftconvolve as convolve
    return convolve(in1, in2, mode=mode, axes=axes)


class CornerField:
    """A C^2 corner candidate: a sum of products of 1-D factors on a grid.

    terms[t][a] = (f, f', f'') for axis a, so U(y) = sum_t prod_a f(y_a) and
    every partial derivative of order <= 2 per axis is exact.  The factors are
    evaluated on the grid axes once, when the field is built: tables[t][a] is
    the triple of term t's factor on axis a and its two derivatives there.
    """

    def __init__(self, grid: Grid, terms: list, name: str = ""):
        self.grid = grid
        self.terms = terms
        self.name = name
        self.tables = [[tuple(f(x) for f in triple) for triple, x in zip(term, grid.axes())]
                       for term in terms]

    @property
    def values(self) -> np.ndarray:
        """U at every node, formed on each read."""
        return self.partial((0,) * self.grid.dim)

    def partial(self, alpha: Sequence[int], idx: Optional[tuple] = None) -> np.ndarray:
        """d^alpha U, alpha[a] <= 2, on the block of nodes idx selects, one
        slice per axis (by default the whole grid).

        Per term the factors are multiplied in axis order, and the terms are
        summed in order, so a node's value is the same bits in every block.
        """
        if idx is None:
            idx = (slice(None),) * self.grid.dim
        out = 0.0
        for term in self.tables:
            piece = np.array(1.0)
            for a, i in enumerate(idx):
                piece = np.multiply.outer(piece, term[a][alpha[a]][i])
            out += piece
        return out

    def face_defects(self) -> tuple:
        """Max |U| on the two quadrant faces where vanishing is required.

        Face 1 is {y_1 = 0, y_2 >= 0}; face 2 is {y_2 = 0, y_1 >= 0}.
        """
        i0 = self.grid.zero_index(0)
        j0 = self.grid.zero_index(1)
        zero = (0,) * self.grid.dim
        rest = (slice(None),) * (self.grid.dim - 2)
        on_face1 = self.partial(zero, (slice(i0, i0 + 1), slice(j0, None)) + rest)
        on_face2 = self.partial(zero, (slice(i0, None), slice(j0, j0 + 1)) + rest)
        return float(np.max(np.abs(on_face1))), float(np.max(np.abs(on_face2)))

    def pair(self, tables: "PairingTables", alpha: Sequence[int],
             beta: Sequence[int], rule: str) -> np.ndarray:
        """For every test bump phi_t of tables, the sum over the nodes of
        rule's weights * d^alpha U * d^beta phi_t, as a (T,) array: per term
        of U, the product over the axes (in axis order) of one matrix-vector
        product each, of the bumps' profiles with U's factor times the rule's
        weights; the terms summed in order, then scaled by the bumps'
        amplitudes."""
        out = 0.0
        for term in self.tables:
            piece = 1.0
            for a, (profiles, w) in enumerate(zip(tables.profiles, tables.weights[rule])):
                piece = piece * (profiles[beta[a]] @ (w * term[a][alpha[a]]))
            out = out + piece
        return tables.amplitudes * out


class PairingTables:
    """A test corpus's 1-D tables on one grid, for CornerField.pair.

    profiles[a] has shape (3, T, n_a): [order, t] is the order-th derivative
    of test bump t's factor on axis a, zero off the bump's support.  Each
    axis and order is one bump_profiles evaluation over the whole corpus, and
    every support is checked to lie inside the box first, in one comparison.
    weights[rule][a] is axis a's weight vector of the rule (_lab_weights).
    A corpus of no test function is refused, since every identity would pass
    on it.  Build one per grid and corpus; it holds nothing that outlives
    them.
    """

    def __init__(self, grid: Grid, tests: List[ProductBump]):
        if not tests:
            raise ContractViolation("a pairing needs at least one test function")
        centers = np.array([phi.center for phi in tests])
        radii = np.array([phi.radius for phi in tests])
        check_supports_inside(centers, radii, grid.box)
        self.grid = grid
        self.amplitudes = np.array([phi.amplitude for phi in tests], dtype=float)
        self.weights = _lab_weights(grid)
        self.profiles = []
        for a, x in enumerate(grid.axes()):
            r = radii[:, a:a + 1]
            u = (x - centers[:, a:a + 1]) / r
            table = np.empty((3,) + u.shape)
            for order in range(3):
                table[order] = bump_profiles(u, r, order)
            self.profiles.append(table)


def _check_grid(cf: CornerField, tables: PairingTables):
    """Refuse pairing tables built on a grid of another box or shape than cf's."""
    if tables.grid.shape != cf.grid.shape or not np.array_equal(tables.grid.box, cf.grid.box):
        raise ContractViolation("pairing tables were built on another grid")


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


def _lab_weights(grid: Grid) -> dict:
    """Per-axis weights of the lab's integrals by rule: weak integrates
    V = U on the closed quadrant by the full trapezoid rule, quadrant is
    restricted_trapezoid's rule (half weight at the zero node), face is the
    point y_1 = 0 on axis 0 and the quadrant rule elsewhere."""
    full = [_axis_weights(n, h) for n, h in zip(grid.shape, grid.h)]
    zeros = [grid.zero_index(a) for a in (0, 1)]
    weak = [np.where(np.arange(w.size) >= i0, w, 0.0) for w, i0 in zip(full, zeros)] + full[2:]
    quadrant = [np.concatenate([np.zeros(i0), _axis_weights(w.size - i0, h)])
                for w, i0, h in zip(full, zeros, grid.h)] + full[2:]
    face = [np.where(np.arange(grid.shape[0]) == zeros[0], 1.0, 0.0)] + quadrant[1:]
    return {"weak": weak, "quadrant": quadrant, "face": face}


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


def verify_extension_identities(cf: CornerField, tables: PairingTables,
                                tol_weak: Optional[dict] = None) -> dict:
    """Check every pass-through identity in weak form against the test corpus
    of tables, built on cf's grid.

    For each identity d^alpha V = 1_quadrant d^alpha U (in identity_families
    order) and test function, lhs is <d^alpha V, phi>, rhs is the integral of
    d^alpha U phi over the quadrant, by the restricted trapezoid rule (the
    second-order-accurate quadrature of the jump-extended integrand), and the
    residual is |lhs - rhs|; a NaN residual makes its family's maximum NaN,
    which fails the tolerance.
    """
    f1, f2 = cf.face_defects()
    if not (f1 <= 1e-10 and f2 <= 1e-10):
        raise HypothesisError(
            f"corner field does not vanish on the quadrant faces "
            f"(defects {f1:.2e}, {f2:.2e}); the identities are not expected to hold")
    _check_grid(cf, tables)
    zero = (0,) * cf.grid.dim
    fams = identity_families(cf.grid.dim)
    alphas = [alpha for members in fams.values() for alpha in members]
    lhs = np.array([(-1.0 if sum(alpha) % 2 else 1.0) * cf.pair(tables, zero, alpha, "weak")
                    for alpha in alphas])
    rhs = np.array([cf.pair(tables, alpha, zero, "quadrant") for alpha in alphas])
    blocks = np.split(np.abs(lhs - rhs), np.cumsum([len(m) for m in fams.values()])[:-1])
    fam_max = {fam: float(np.max(block)) for fam, block in zip(fams, blocks)}
    report = {
        "field": cf.name,
        "h": float(np.max(cf.grid.h)),
        "family_max_residual": fam_max,
        "lhs": lhs,
        "rhs": rhs,
    }
    if tol_weak is not None:
        report["passed"] = all(fam_max[f] <= tol_weak[f] for f in fam_max)
        report["tolerances"] = {f: float(tol_weak[f]) for f in fam_max}
    return report


def detect_layer(cf: CornerField, tables: PairingTables) -> dict:
    """Probe the face-normal second derivative for its surface-supported term,
    against the test corpus of tables, built on cf's grid.

    delta(phi) = <d1^2 V, phi> - integral_quadrant d1^2 U phi  should equal the
    face integral  S(phi) = integral_{y_1 = 0, y_2 >= 0} d1U(0, .) phi(0, .),
    whose density is the normal derivative of U on the face; both are (T,)
    arrays over the test functions.
    """
    _check_grid(cf, tables)
    zero = (0,) * cf.grid.dim
    e0, e00 = _multi_index(cf.grid.dim, 0), _multi_index(cf.grid.dim, 0, 0)
    delta = cf.pair(tables, zero, e00, "weak") - cf.pair(tables, e00, zero, "quadrant")
    s_phi = cf.pair(tables, e0, zero, "face")
    return {
        "field": cf.name,
        "max_mismatch": float(np.max(np.abs(delta - s_phi))),
        "max_layer_magnitude": float(np.max(np.abs(s_phi))),
        "delta": delta,
        "surface_integral": s_phi,
    }


# nodes per axis-0 slab of the transfer: the slab's few arrays stay near
# 256 kB each, whatever the grid
SLAB_NODES = 2 ** 15
# a (1,1) or (2,2) entry of B, or a second-order form at a node of zero
# denominator, counts as nonzero above this
TOL_CHAR = 1e-12


def _transfer_sides(cf: CornerField, B: np.ndarray, block: tuple) -> tuple:
    """|sum_{j,k} B_jk d_j d_k U| and |grad U| + |U| on the block of nodes
    (one slice per axis), B read from its upper triangle."""
    dim = cf.grid.dim
    u = cf.partial((0,) * dim, block)
    form = np.zeros(u.shape)
    for j in range(B.shape[0]):
        for k in range(j, B.shape[0]):
            if B[j, k] != 0.0:
                mult = 1.0 if j == k else 2.0
                form += mult * float(B[j, k]) * cf.partial(_multi_index(dim, j, k), block)
    grad_sq = np.zeros(u.shape)
    for a in range(dim):
        grad_sq += cf.partial(_multi_index(dim, a), block) ** 2
    denom = np.sqrt(grad_sq, out=grad_sq)
    denom += np.abs(u)
    return np.abs(form, out=form), denom


def verify_inequality_transfer(cf: CornerField, B, C: Optional[float] = None) -> dict:
    """Transfer the pointwise differential inequality
    |<B d, d> U| <= C (|grad U| + |U|) from U to V = 1_quadrant U.

    B is the constant symmetric coefficient matrix of the second-order form;
    its (1,1) and (2,2) entries must vanish for the corner identities to
    apply.  On the open quadrant V = U, and off the closed quadrant both
    sides are 0, so the inequality for V is the inequality for U at the open
    quadrant's nodes off the box edges.  One pass reads those nodes, in
    axis-0 slabs of about SLAB_NODES nodes, so no array of the grid's shape
    is formed.  A node there where the form or the denominator is NaN, or
    the denominator is 0 under a form above TOL_CHAR, fails the hypothesis;
    the first such node in C order is named.

    With C None, C is measured as the supremum of |<B d, d> U| / (|grad U| +
    |U|) over those nodes, so the inequality holds at every one of them by
    construction; a field with no nonzero denominator there leaves it void.
    With C supplied, every node is checked against it, with slack
    1e-12 (1 + C (|grad U| + |U|)): violations counts the nodes above it,
    and worst_excess is the largest |<B d, d> U| - C (|grad U| + |U|)
    (-inf over no node).  nodes is the count of nodes read.
    """
    grid = cf.grid
    B = np.asarray(B, dtype=float)
    if max(abs(B[0, 0]), abs(B[1, 1])) > TOL_CHAR:
        raise HypothesisError("coefficient matrix has nonzero (1,1) or (2,2) entry")
    lo = [1] * grid.dim
    for a in (0, 1):
        lo[a] = max(1, int(np.searchsorted(grid.axis(a), 0.0, side="right")))
    block = [slice(start, n - 1) for start, n in zip(lo, grid.shape)]
    row_nodes = math.prod(max(0, s.stop - s.start) for s in block[1:])
    rows = max(1, SLAB_NODES // max(1, row_nodes))
    nodes, slab_max, violations, worst = 0, [], 0, -np.inf
    for r0 in range(block[0].start, block[0].stop, rows):
        slab = (slice(r0, min(r0 + rows, block[0].stop)), *block[1:])
        lhs, denom = _transfer_sides(cf, B, slab)
        for what, bad in (("NaN form or denominator", np.isnan(lhs) | np.isnan(denom)),
                          ("zero denominator with nonzero second-order form",
                           (denom <= 0) & (lhs > TOL_CHAR))):
            if np.any(bad):
                node = tuple(int(i) for i in np.argwhere(bad)[0] + [s.start for s in slab])
                raise HypothesisError(f"inequality hypothesis fails on the open quadrant: "
                                      f"{what} at node {node}")
        nodes += lhs.size
        if C is None:
            ok = denom > 0
            if np.any(ok):
                slab_max.append(np.max(lhs[ok] / denom[ok]))
        else:
            rhs = C * denom
            violations += int(np.count_nonzero(lhs > rhs + 1e-12 * (1.0 + np.abs(rhs))))
            worst = float(np.max(lhs - rhs, initial=worst))
    if C is not None:
        return {"field": cf.name, "C": float(C), "nodes": nodes, "violations": violations,
                "worst_excess": worst, "passed": violations == 0}
    if not slab_max:
        raise HypothesisError("inequality hypothesis is void: no node of the open "
                              "quadrant off the box edges has a nonzero denominator")
    return {"field": cf.name, "C": float(np.max(slab_max)), "nodes": nodes, "passed": True}


# ---------------------------------------------------------------------------
# Smoothing commutator
# ---------------------------------------------------------------------------

def _mollifier_kernels(h: float, eps: float) -> tuple:
    """The 1-D bump kernel of width eps sampled at spacing h, and its
    derivative kernel, normalized to unit discrete mass.

    sum(k) * h is exactly 1, so the product of one kernel per axis, times the
    cell volume, sums to 1 and smoothing preserves constants.
    """
    u = h * np.arange(-int(np.floor(eps / h)), int(np.floor(eps / h)) + 1) / eps
    s = 1.0 - u * u
    base = _bump(s)
    z = float(np.sum(base)) * h
    return base / z, _bump(s, u, 1) / (z * eps)


def _smooth(f: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The discrete convolution of node samples f with an odd-length kernel
    centred on its middle tap, kept on f's nodes (fftconvolve's "same")."""
    c = (kernel.size - 1) // 2
    return np.convolve(f, kernel)[c:c + f.size]


def mollifier_commutator(slopes: Sequence[float], v: CornerField,
                         eps_list: Sequence[float]) -> list:
    """L2 size of  a * Hess(smooth(v)) - smooth(a * Hess(v))  per smoothing width,
    for an affine multiplier a(y) = offset + slopes . y, given by its slopes
    alone, since the offset cancels (below).

    The Hessian of the smoothed field puts one derivative on the kernel and
    one on v; the second term is evaluated in weak form, which needs only
    grad(a) = s, the slopes, and grad(v):

        D_jk = a (dK_j * v_k) - dK_j * (a v_k) + K * (s_j v_k),  v_k = d_k v.

    The convolutions are the grid's discrete ones (fftconvolve(..., mode=
    "same") times the cell volume).  At a node x the first two terms sum
    (a(x) - a(x - u)) dK_j(u) v_k(x - u) over the kernel's taps u, and
    a(x) - a(x - u) = s . u, so node for node, the cropped edges included,

        D_jk = sum_b s_b ((u_b dK_j) * v_k) + s_j (K * v_k):

    the offset cancels exactly, a constant multiplier gives exactly zero and
    a zero slope adds no term.  The kernel is K(y) = prod_c k(y_c / eps),
    each 1-D factor of unit discrete mass (_mollifier_kernels), so dK_j has
    k' on axis j and k elsewhere, and v is a CornerField, whose grid and
    tables of f and f' the convolutions read.  For a term of v_k with factor
    F_c on axis c, the part of D_jk from slope s_b is a product of one 1-D
    convolution per axis: F_c with dK_j's factor k_j on every axis c != b,
    and on axis b with the moment kernel s_b (u_b k_j + [b = j] k), where the
    term s_j (K * v_k) joins the b = j part.  The plain convolution on axis c
    is made only when a nonzero slope lies on another axis, so a constant
    multiplier makes none.  No array of the grid's shape is formed: the
    trapezoid integral of D_jk^2 is a Gram sum, over pairs of these products,
    of the product over the axes of their 1-D weighted inner products.  The
    kernels are built once per width and distinct spacing.
    """
    grid = v.grid
    hmax = float(np.max(grid.h))
    for eps in eps_list:
        if eps < 4.0 * hmax:
            raise ResolutionError(f"eps = {eps:g} below resolution floor 4h = {4 * hmax:g}")
    dim = grid.dim
    slopes = np.asarray(slopes, dtype=float)
    weights = [_axis_weights(n, h) for n, h in zip(grid.shape, grid.h)]
    spacings = grid.h.tolist()
    out = []
    for eps in eps_list:
        # per distinct spacing, the value and derivative kernels with the
        # spacing folded in, and their taps' offsets u
        by_spacing = {}
        for h in set(spacings):
            k0, k1 = (k * h for k in _mollifier_kernels(h, eps))
            by_spacing[h] = (k0, k1, h * (np.arange(k0.size) - k0.size // 2))
        kern = [by_spacing[h] for h in spacings]
        total = 0.0
        for j in range(dim):
            # the moment kernel s_b (u_b k_j + [b = j] k) of each nonzero slope
            moments = {b: slopes[b] * (kern[b][2] * kern[b][int(b == j)] + (kern[b][0] if b == j else 0.0))
                       for b in np.flatnonzero(slopes)}
            for k in range(dim):
                pieces = []
                for term in v.tables:
                    vk = [term[c][int(c == k)] for c in range(dim)]
                    # the piece of slope b reads conv[c] on every axis c != b
                    conv = [_smooth(vk[c], kern[c][int(c == j)]) if any(b != c for b in moments) else None
                            for c in range(dim)]
                    pieces.extend(conv[:b] + [_smooth(vk[b], m)] + conv[b + 1:] for b, m in moments.items())
                if not pieces:
                    continue
                gram = np.ones((len(pieces), len(pieces)))
                for c in range(dim):
                    rows = np.array([p[c] for p in pieces])
                    gram *= (rows * weights[c]) @ rows.T
                total += float(gram.sum())
        # a sum of Hadamard products of Gram matrices is >= 0 up to rounding
        out.append(float(np.sqrt(max(total, 0.0))))
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


def _kink(p: tuple) -> tuple:
    """The factor triple of max(0, u) p(u) from the triple of p; the
    derivatives are taken almost everywhere, 0 at the kink u = 0."""
    return (lambda u: np.maximum(u, 0.0) * p[0](u),
            lambda u: (u > 0.0) * p[0](u) + np.maximum(u, 0.0) * p[1](u),
            lambda u: (u > 0.0) * (2.0 * p[1](u) + u * p[2](u)))


def kink_profile_corpus(grid: Grid, count: int = 3, seed: int = 5) -> list:
    """H^1-but-not-H^2 profiles: max(0, y_1) times a smooth product bump.

    Each field is a CornerField of one term whose axis-0 factor carries the
    kink.
    """
    rng = np.random.default_rng(seed)
    out = []
    box = grid.box
    width = box[:, 1] - box[:, 0]
    for i in range(count):
        radius = rng.uniform(0.3, 0.42) * width
        center = np.zeros(grid.dim)
        center[0] = rng.uniform(-0.05, 0.05)
        amp = rng.uniform(0.8, 1.4)
        b = ProductBump(center, radius, amplitude=amp)
        b.check_support_inside(box)
        factors = b.factors()
        out.append(CornerField(grid, [[_kink(factors[0])] + factors[1:]], f"kink_{i}"))
    return out
