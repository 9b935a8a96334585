"""Standing-assumption checks for a pair of characteristic hypersurfaces.

Given a wave-type coefficient matrix Q and two level-set functions phi_plus,
phi_minus, this module samples the surfaces and their intersection inside an
axis-aligned box and verifies, on arrays of sample points:

  * nondegenerate differentials on each surface,
  * transversality of the two surfaces along the intersection,
  * that each surface is characteristic for the symbol,
  * positivity of <Q dphi_plus, dphi_minus> along the intersection,

plus the derived sign/orthogonality identities for the half-sum and
half-difference fields and the sublevel inclusion used to place a bent
surface under the wedge region.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional

import numpy as np

from .errors import ContractViolation, InsufficientSamples
from .fields import MetricField, ScalarField, linear_combination, squared_field
from .grids import Grid
from .symbols import _quadratic_forms, signature

DEFAULT_TOL_ZERO = 1e-10   # surface membership residual
DEFAULT_TOL_CHAR = 1e-8    # characteristic residual, unit-normalized gradients
DEFAULT_TOL_POS = 1e-6     # strict-sign threshold
DEFAULT_TOL_ID = 1e-8      # identity residual for derived checks
NEWTON_MAX_ITER = 20


@dataclass(frozen=True)
class GeometrySpec:
    """A symbol, a surface pair, and the sampling box."""

    Q: MetricField
    phi_plus: ScalarField
    phi_minus: ScalarField
    box: np.ndarray                  # shape (n, 2), [lo, hi] per axis
    n_surface_samples: int = 200
    tol_zero: float = DEFAULT_TOL_ZERO
    name: str = ""

    def __post_init__(self):
        box = np.asarray(self.box, dtype=float)
        object.__setattr__(self, "box", box)
        if box.ndim != 2 or box.shape != (self.Q.dim, 2):
            raise ContractViolation(f"box must have shape ({self.Q.dim}, 2)")
        if not (np.all(np.isfinite(box)) and np.all(box[:, 1] > box[:, 0])):
            raise ContractViolation(f"box must be finite with lo < hi on every axis, got {box.tolist()}")
        if self.n_surface_samples < 1:
            raise ContractViolation("n_surface_samples must be >= 1")

    @property
    def dim(self) -> int:
        return self.Q.dim


@dataclass
class CheckResult:
    status: str                       # "pass" | "fail" | "skipped"
    margin: Optional[float] = None
    witness: Optional[list] = None
    values: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"status": self.status, "margin": self.margin, "witness": self.witness}
        out.update(self.values)
        return out


@dataclass
class HypothesisReport:
    checks: Dict[str, CheckResult]
    n_samples: Dict[str, int]
    shortfall: Dict[str, int]
    samples: Dict[str, np.ndarray] = dc_field(default_factory=dict)   # not reported

    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks.values())

    def failed_names(self) -> List[str]:
        return [k for k, c in self.checks.items() if c.status == "fail"]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed(),
            "failed": self.failed_names(),
            "checks": {k: c.to_dict() for k, c in self.checks.items()},
            "n_samples": dict(self.n_samples),
            "sample_shortfall": dict(self.shortfall),
        }


# scan nodes evaluated at a time: no array of every node's coordinates is formed
_SCAN_SLAB_ROWS = 4096


def _scan_resolution(n_target: int, dim: int) -> int:
    per_axis = int(np.ceil((6.0 * n_target) ** (1.0 / dim)))
    return int(np.clip(per_axis, 8, 41))


def _scan_points(axes: list, rows: np.ndarray) -> np.ndarray:
    """The scan grid's nodes at the flat C-order indices ``rows``, one per row."""
    index = np.unravel_index(rows, tuple(len(ax) for ax in axes))
    return np.stack([ax[i] for ax, i in zip(axes, index)], axis=1)


def _scan_residuals(spec: GeometrySpec, axes: list, selectors) -> dict:
    """The level-set residual of each selector at every scan node, in C order.

    The grid is walked in slabs of ``_SCAN_SLAB_ROWS`` nodes; each level-set
    function that a selector needs is evaluated once per slab, and the
    intersection's residual is the larger of the two surfaces'.
    """
    n_nodes = int(np.prod([len(ax) for ax in axes]))
    phis = {"plus": spec.phi_plus, "minus": spec.phi_minus}
    needed = {s for sel in selectors for s in (("plus", "minus") if sel == "intersection" else (sel,))}
    res = {s: np.empty(n_nodes) for s in needed}
    for lo in range(0, n_nodes, _SCAN_SLAB_ROWS):
        pts = _scan_points(axes, np.arange(lo, min(lo + _SCAN_SLAB_ROWS, n_nodes)))
        for s in needed:
            res[s][lo:lo + len(pts)] = np.abs(phis[s].jet(pts, 0))
    return {sel: np.maximum(res["plus"], res["minus"]) if sel == "intersection" else res[sel]
            for sel in selectors}


def _lowest(res: np.ndarray, k: int) -> np.ndarray:
    """The first k (>= 1) indices of ``np.argsort(res, kind="stable")`` (ties
    in index order, nan last), found by partial selection."""
    if k >= len(res):
        return np.argsort(res, kind="stable")
    kth = np.partition(res, k - 1)[k - 1]
    nan = np.isnan(kth)
    head = np.flatnonzero(~np.isnan(res) if nan else res < kth)
    head = head[np.argsort(res[head], kind="stable")]
    ties = np.flatnonzero(np.isnan(res) if nan else res == kth)
    return np.concatenate([head, ties[:k - len(head)]])


def _scan_axes(spec: GeometrySpec) -> list:
    per_axis = _scan_resolution(spec.n_surface_samples, spec.dim)
    return Grid(spec.box, (per_axis - 1,) * spec.dim).axes()


def scan_nodes(spec: GeometrySpec) -> int:
    """The number of nodes of the box scan that sampling a surface of spec
    makes: its residual arrays hold a double per node."""
    return _scan_resolution(spec.n_surface_samples, spec.dim) ** spec.dim


def _n_seeds(spec: GeometrySpec) -> int:
    return max(4 * spec.n_surface_samples, 64)


# pinv's cutoff: an eigenvalue of a Gram at or below this share of the larger one counts as zero
GRAM_RCOND = 1e-12


def _pinv_gram2(gram: np.ndarray) -> np.ndarray:
    """The pseudo-inverse of each symmetric 2 x 2 matrix of a stack, in
    closed form, with numpy's pinv rule at rcond = GRAM_RCOND.

    The symmetric Schur decomposition (Golub & Van Loan, Matrix
    Computations, sec. 8.5) rotates [[a, b], [b, c]] by (cs, sn) = (1, t) /
    sqrt(1 + t^2), t the smaller root of t^2 + 2 tau t - 1 = 0 with
    tau = (c - a) / (2 b) (t = 0 when b = 0), to diag(a - t b, c + t b); its
    eigenvectors are (cs, -sn) and (sn, cs).  The pseudo-inverse inverts
    each eigenvalue larger in size than GRAM_RCOND times the larger one and
    drops the rest, as pinv does with singular values: so a rank-one Gram
    gets its one nonzero eigenvalue inverted and a zero Gram gives zero.
    """
    a, b, c = gram[..., 0, 0], gram[..., 0, 1], gram[..., 1, 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):    # b = 0 rows take t = 0
        tau = (c - a) / (2.0 * b)
        t = np.where(b == 0.0, 0.0, np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau)))
    cs = 1.0 / np.sqrt(1.0 + t * t)
    sn = t * cs
    ev = np.stack([a - t * b, c + t * b])
    size = np.abs(ev)
    inv = np.divide(1.0, ev, out=np.zeros_like(ev), where=size > GRAM_RCOND * np.max(size, axis=0))
    out = np.empty_like(gram)
    out[..., 0, 0] = inv[0] * (cs * cs) + inv[1] * (sn * sn)
    out[..., 0, 1] = out[..., 1, 0] = (inv[1] - inv[0]) * (cs * sn)
    out[..., 1, 1] = inv[0] * (sn * sn) + inv[1] * (cs * cs)
    return out


def _project(spec: GeometrySpec, fields: list, seeds: np.ndarray, slack: float):
    """Joint Newton projection of every seed (row) onto the common zero set of
    the level-set functions; returns the points and a mask of those that
    converged inside the box (widened by ``slack``).

    The simultaneous least-norm step J^T (J J^T)^+ f converges quadratically
    for transversal pairs at any crossing angle (strictly alternating
    projections slow to a crawl when the normals are far from orthogonal);
    the pseudo-inverse keeps it usable on degenerate pairs with parallel
    gradients, where it reduces to a single-surface projection; for a pair
    it is each row's 2 x 2 Gram in closed form (``_pinv_gram2``).  A row stops
    moving once it converges; a row whose single gradient vanishes does not
    move and fails, and so does a row whose residual or gradient is not
    finite, which leaves the iteration.
    """
    x = np.array(seeds, dtype=float)
    live = np.arange(len(x))
    singular = np.zeros(len(x), dtype=bool)
    for it in range(NEWTON_MAX_ITER + 1):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):   # rows dropped below
            jets = [phi.jet(x[live], 1) for phi in fields]
        f = np.stack([j.value for j in jets], axis=1)
        moving = ~(np.max(np.abs(f), axis=1) <= spec.tol_zero)
        live, f = live[moving], f[moving]
        if it == NEWTON_MAX_ITER or live.size == 0:
            break
        jac = np.stack([j.grad[moving] for j in jets], axis=1)
        finite = np.all(np.isfinite(f), axis=1) & np.all(np.isfinite(jac), axis=(1, 2))
        singular[live[~finite]] = True
        live, f, jac = live[finite], f[finite], jac[finite]
        gram = jac @ np.swapaxes(jac, 1, 2)
        if len(fields) == 1:    # the 1x1 pseudo-inverse as a division, f / |g|^2
            mu = np.divide(f[..., None], gram, out=np.zeros_like(gram), where=gram >= 1e-30)
        else:
            mu = _pinv_gram2(gram) @ f[..., None]
        x[live] -= (np.swapaxes(jac, 1, 2) @ mu)[..., 0]
    ok = np.all((x >= spec.box[:, 0] - slack) & (x <= spec.box[:, 1] + slack), axis=1)
    ok[live] = False
    ok[singular] = False
    return x, ok


def _dedupe(arr: np.ndarray) -> np.ndarray:
    """The rows of arr in order, less each row equal to an earlier one at a
    resolution of 1e-9: one stable sort of the rounded rows, and the first
    row of each run of equal rows kept."""
    if len(arr) == 0:
        return arr
    key = np.round(arr / 1e-9)
    order = np.lexsort(key.T[::-1])
    ranked = key[order]
    first = np.concatenate([[True], np.any(ranked[1:] != ranked[:-1], axis=1)])
    return arr[np.sort(order[first])]


def _level_fields(spec: GeometrySpec, which: str) -> list:
    """The level-set functions whose common zero set ``which`` names."""
    return {"plus": [spec.phi_plus], "minus": [spec.phi_minus],
            "intersection": [spec.phi_plus, spec.phi_minus]}[which]


def sample_surface(spec: GeometrySpec, which: str, *, residuals: Optional[np.ndarray] = None) -> np.ndarray:
    """Sample points of one surface, or of the intersection, inside the box.

    A coarse grid scan selects seeds with the smallest level-set residuals
    (the rest of the scan, in residual order, when none of them converges
    inside the box); each seed is refined by Newton projection (joint
    projection for the intersection), and shortfalls are filled by seeding
    tangential perturbations of the points already found.  Non-convergent
    seeds are discarded.  Returns an array of shape (k, n); k may fall short
    of the requested count when the surface barely meets the box, and is 0
    when it misses the box entirely.  The procedure is deterministic.
    ``residuals`` hands in the scan's residuals of ``which`` when a caller
    has scanned for several surfaces at once.
    """
    if which not in ("plus", "minus", "intersection"):
        raise ContractViolation(f"unknown surface selector {which!r}")
    fields = _level_fields(spec, which)
    n_target = spec.n_surface_samples
    cap = 4 * n_target
    axes = _scan_axes(spec)
    if residuals is None:
        residuals = _scan_residuals(spec, axes, (which,))[which]
    n_seeds = _n_seeds(spec)
    slack = 1e-9 * float(np.max(np.abs(spec.box)))
    x, ok = _project(spec, fields, _scan_points(axes, _lowest(residuals, n_seeds)), slack)
    found = [x[ok]]
    if not ok.any():
        # the lowest-residual scan points can all lie on the box faces, from
        # which Newton steps outward: project the rest in residual order, a
        # chunk of n_seeds nodes at a time, until cap points converge.  Each
        # row's projection is its own, so the chunks find the same points
        rest = np.argsort(residuals, kind="stable")[n_seeds:]
        for lo in range(0, len(rest), n_seeds):
            x, ok = _project(spec, fields, _scan_points(axes, rest[lo:lo + n_seeds]), slack)
            found.append(x[ok])
            if sum(map(len, found)) >= cap:
                break
    arr = _dedupe(np.concatenate(found)[:cap])

    # densify by perturbing known points tangentially and re-projecting, two
    # directions per point; a round adds at most 2 len(arr) points, so the
    # pool stays below 3 n_target and never reaches the cap
    rng = np.random.default_rng(0)
    width = float(np.max(spec.box[:, 1] - spec.box[:, 0]))
    n_tangent = spec.dim - len(fields)
    round_no = 0
    while 0 < len(arr) < n_target and round_no < 6 and n_tangent > 0:
        delta = width / 2.0 ** (round_no + 1)
        grads = np.stack([phi.jet(arr, 1).grad for phi in fields], axis=1)
        basis = np.linalg.svd(grads)[2][:, len(fields):]
        normals = rng.standard_normal((len(arr), 2, n_tangent))
        direction = (np.swapaxes(basis, 1, 2)[:, None] @ normals[..., None])[..., 0]
        direction = direction.reshape(-1, spec.dim)        # row 2 i + j: draw j at point i
        nrm = np.sqrt(np.vecdot(direction, direction))
        idx = np.flatnonzero(~(nrm < 1e-14))
        cand = arr[idx // 2] + delta * direction[idx] / nrm[idx, None]
        x, ok = _project(spec, fields, cand, slack)
        arr = _dedupe(np.concatenate([arr, x[ok]]))
        round_no += 1
    return arr


def check_assumptions(spec: GeometrySpec,
                      tol_char: float = DEFAULT_TOL_CHAR,
                      tol_pos: float = DEFAULT_TOL_POS) -> HypothesisReport:
    """Evaluate the four standing assumptions at sampled surface points.

    Characteristic residuals are computed with unit-normalized gradients so
    the tolerance is scale-invariant; the transversality margin is the
    smallest singular value of the stacked gradient pair; the sign condition
    uses raw gradients and is evaluated only at transversal intersection
    points (it degenerates to zero where the gradients are parallel).
    """
    selectors = ("plus", "minus", "intersection")
    # one scan for the three surfaces; each residual array is dropped once sampled
    residuals = _scan_residuals(spec, _scan_axes(spec), selectors)
    s_plus, s_minus, s_both = (sample_surface(spec, which, residuals=residuals.pop(which))
                               for which in selectors)
    if len(s_plus) == 0 or len(s_minus) == 0 or len(s_both) == 0:
        raise InsufficientSamples(
            f"surface sampling failed (plus={len(s_plus)}, minus={len(s_minus)}, "
            f"intersection={len(s_both)})")

    checks: Dict[str, CheckResult] = {}

    # metric symmetry + signature spot check on a sample subset, up to the
    # first point with a wrong signature
    sig_pts = np.concatenate([s_plus[:5], s_minus[:5], s_both[:5]])
    qs = spec.Q.jet(sig_pts, 0)
    scale = np.maximum(1.0, np.max(np.abs(qs), axis=(1, 2)))
    defect = np.max(np.abs(qs - np.swapaxes(qs, 1, 2)), axis=(1, 2)) / scale
    sig = signature(qs)
    bad = np.flatnonzero((sig.n_minus != 1) | (sig.n_zero != 0))
    upto = bad[0] + 1 if bad.size else len(sig_pts)
    worst_sym = float(np.max(defect[:upto]))
    checks["signature"] = CheckResult(
        "pass" if (not bad.size and worst_sym <= 1e-12) else "fail",
        margin=worst_sym, witness=[float(v) for v in sig_pts[bad[0]]] if bad.size else None)

    surfaces = [(s_plus, spec.phi_plus.jet(s_plus, 1).grad),
                (s_minus, spec.phi_minus.jet(s_minus, 1).grad)]
    norms = [np.sqrt(np.vecdot(g, g)) for _, g in surfaces]

    # nondegenerate differentials on both surfaces
    both = np.concatenate(norms)
    k = int(np.argmin(both))
    checks["nondegenerate_gradients"] = CheckResult(
        "pass" if both[k] > tol_pos else "fail",
        margin=float(both[k]), witness=[float(v) for v in np.concatenate([s_plus, s_minus])[k]])

    # characteristic residuals, one check per surface
    for tag, (samples, g), gn in zip(("characteristic_plus", "characteristic_minus"),
                                     surfaces, norms):
        qs = spec.Q.jet(samples, 0)
        gu = g / np.where(gn > 0, gn, 1.0)[:, None]
        residuals = np.abs(_quadratic_forms(gu, qs, gu))
        k = int(np.argmax(residuals))
        checks[tag] = CheckResult(
            "pass" if residuals[k] <= tol_char else "fail",
            margin=float(residuals[k]),
            witness=[float(v) for v in samples[k]],
            values={"raw_at_witness": float(_quadratic_forms(g, qs, g)[k])})

    # transversality along the intersection
    pair = np.stack([phi.jet(s_both, 1).grad for phi in (spec.phi_plus, spec.phi_minus)], axis=1)
    sv = np.linalg.svd(pair, compute_uv=False)[:, -1]
    k = int(np.argmin(sv))
    checks["transversality"] = CheckResult(
        "pass" if sv.min() > tol_pos else "fail",
        margin=float(sv.min()), witness=[float(v) for v in s_both[k]])

    # sign condition, evaluated where the surfaces are transversal
    trans_idx = np.flatnonzero(sv > tol_pos)
    if len(trans_idx) == 0:
        checks["sign_condition"] = CheckResult("skipped", values={
            "reason": "no transversal intersection samples"})
    else:
        pair = pair[trans_idx]
        qs = spec.Q.jet(s_both[trans_idx], 0)
        vals = _quadratic_forms(pair[:, 0], qs, pair[:, 1])
        k = int(np.argmin(vals))
        checks["sign_condition"] = CheckResult(
            "pass" if vals.min() > tol_pos else "fail",
            margin=float(vals.min()),
            witness=[float(v) for v in s_both[trans_idx[k]]],
            values={"min_value": float(vals.min()), "max_value": float(vals.max())})

    samples = {"plus": s_plus, "minus": s_minus, "intersection": s_both}
    counts = {k: len(v) for k, v in samples.items()}
    shortfall = {k: max(0, spec.n_surface_samples - v) for k, v in counts.items()}
    return HypothesisReport(checks=checks, n_samples=counts, shortfall=shortfall,
                            samples=samples)


def split_terms(plus, minus) -> tuple:
    """The (coefficient, part) terms of psi0 = (phi_minus - phi_plus)/2 and
    psi1 = (phi_plus + phi_minus)/2, with the parts phi_plus and phi_minus
    given as fields, or as their jets at one point."""
    return [(0.5, minus), (-0.5, plus)], [(0.5, plus), (0.5, minus)]


def build_psi(spec: GeometrySpec):
    """Half-sum and half-difference fields of the surface pair.

    Returns (psi0, psi1) of ``split_terms``, assembled by linearity so
    gradients and Hessians are exact whenever the inputs are.
    """
    terms0, terms1 = split_terms(spec.phi_plus, spec.phi_minus)
    return linear_combination(terms0, name="psi0"), linear_combination(terms1, name="psi1")


def bent_surface(psi0: ScalarField, psi1: ScalarField, lam: float) -> ScalarField:
    """The bent surface field psi1 - lam * psi0^2 of the split fields."""
    return linear_combination([(1.0, psi1), (-float(lam), squared_field(psi0))], name="bent_surface")


def verify_split_signs(spec: GeometrySpec, samples: np.ndarray,
                       tol_pos: float = DEFAULT_TOL_POS) -> dict:
    """Derived sign facts for the split fields at intersection samples.

    At each intersection point (a row of ``samples``):  <Q dpsi1, dpsi1> > 0,
    <Q dpsi0, dpsi0> < 0, the two add to zero, and <Q dpsi1, dpsi0> = 0.
    Violations indicate inconsistent inputs, since these facts follow
    algebraically from the standing assumptions.
    """
    if len(samples) == 0:
        raise InsufficientSamples("no intersection samples for split-sign check")
    psi0, psi1 = build_psi(spec)
    qs = spec.Q.jet(samples, 0)
    d1, d0 = psi1.jet(samples, 1).grad, psi0.jet(samples, 1).grad
    e1, e0, cross = (_quadratic_forms(d1, qs, d1), _quadratic_forms(d0, qs, d0),
                     _quadratic_forms(d1, qs, d0))
    bad = ~((e1 > tol_pos) & (e0 < -tol_pos)
            & (np.abs(e1 + e0) <= DEFAULT_TOL_ID) & (np.abs(cross) <= DEFAULT_TOL_ID))
    return {
        "status": "fail" if bad.any() else "pass",
        "surface_form_min": float(e1.min()),
        "difference_form_max": float(e0.max()),
        "sum_identity_max": float(np.abs(e1 + e0).max()),
        "cross_identity_max": float(np.abs(cross).max()),
        "witness": [float(v) for v in samples[int(np.argmax(bad))]] if bad.any() else None,
        "n_samples": int(len(samples)),
    }


def verify_sublevel_inclusion(spec: GeometrySpec, samples: np.ndarray, lam: float,
                              radius: float, n_samples: int, seed: int = 0) -> dict:
    """Check psi1 > lam * psi0^2 on wedge points near the intersection.

    Samples points with phi_plus > 0 and phi_minus > 0 within ``radius`` of
    the intersection points ``samples``.  The inclusion is only guaranteed
    where |psi0| < 1/lam; sampled points beyond that band are flagged.
    """
    if lam <= 0:
        raise ContractViolation("lam must be positive")
    if not 0 < radius < np.inf:
        raise ContractViolation(f"radius must be finite and positive, got {radius}")
    if n_samples < 1:
        raise ContractViolation(f"n_samples must be at least 1, got {n_samples}")
    if len(samples) == 0:
        raise InsufficientSamples("no intersection samples")
    psi0, psi1 = build_psi(spec)
    # a try's centre, direction and radius each come from their own stream,
    # so the tries do not depend on how they are split into blocks
    centres, directions, radii = (np.random.default_rng(s)
                                  for s in np.random.SeedSequence(seed).spawn(3))

    # the first n_samples wedge points among the first 50 n_samples tries,
    # drawn and tested a block at a time (about a quarter of them fall in the wedge)
    pts, tries = np.empty((0, spec.dim)), 0
    while len(pts) < n_samples and tries < 50 * n_samples:
        m = min(4 * (n_samples - len(pts)), 50 * n_samples - tries)
        c = samples[centres.integers(0, len(samples), size=m)]
        u = directions.normal(size=(m, spec.dim))
        u *= (radius * np.float_power(radii.random(m), 1.0 / spec.dim) / np.sqrt(np.vecdot(u, u)))[:, None]
        block = c + u
        tries += m
        wedge = (spec.phi_plus.jet(block, 0) > 0) & (spec.phi_minus.jet(block, 0) > 0)
        pts = np.concatenate([pts, block[wedge]])[:n_samples]
    if not len(pts):
        raise InsufficientSamples("no wedge points found within the given radius")
    p0 = psi0.jet(pts, 0)
    margins = psi1.jet(pts, 0) - lam * (p0 * p0)
    beyond_band = int(np.sum(np.abs(p0) >= 1.0 / lam))
    k = int(np.argmin(margins))
    return {
        "included": bool(np.all(margins > 0)),
        "worst_margin": float(margins.min()),
        "witness": [float(v) for v in pts[k]],
        "n_samples": int(len(pts)),
        "samples_beyond_band": beyond_band,
        "radius_exceeds_band": bool(radius > 1.0 / lam),
    }
