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
from .fields import MetricField, ScalarField, linear_combination
from .symbols import signature

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
        if np.any(box[:, 1] <= box[:, 0]):
            raise ContractViolation("box is empty on some axis")
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


def _scan_points(box: np.ndarray, per_axis: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _scan_resolution(n_target: int, dim: int) -> int:
    per_axis = int(np.ceil((6.0 * n_target) ** (1.0 / dim)))
    return int(np.clip(per_axis, 8, 41))


def _project(spec: GeometrySpec, fields: list, seeds: np.ndarray, slack: float):
    """Joint Newton projection of every seed (row) onto the common zero set of
    the level-set functions; returns the points and a mask of those that
    converged inside the box (widened by ``slack``).

    The simultaneous least-norm step J^T (J J^T)^+ f converges quadratically
    for transversal pairs at any crossing angle (strictly alternating
    projections slow to a crawl when the normals are far from orthogonal);
    the pseudo-inverse keeps it usable on degenerate pairs with parallel
    gradients, where it reduces to a single-surface projection.  A row stops
    moving once it converges; a row whose single gradient vanishes does not
    move and fails.
    """
    x = np.array(seeds, dtype=float)
    live = np.arange(len(x))
    for it in range(NEWTON_MAX_ITER + 1):
        jets = [phi.jet(x[live], 1) for phi in fields]
        f = np.stack([j.value for j in jets], axis=1)
        moving = ~(np.max(np.abs(f), axis=1) <= spec.tol_zero)
        live, f = live[moving], f[moving]
        if it == NEWTON_MAX_ITER or live.size == 0:
            break
        jac = np.stack([j.grad[moving] for j in jets], axis=1)
        gram = jac @ np.swapaxes(jac, 1, 2)
        if len(fields) == 1:    # the 1x1 pseudo-inverse as a division, f / |g|^2
            mu = np.divide(f[..., None], gram, out=np.zeros_like(gram), where=gram >= 1e-30)
        else:
            mu = np.linalg.pinv(gram, rcond=1e-12) @ f[..., None]
        x[live] -= (np.swapaxes(jac, 1, 2) @ mu)[..., 0]
    ok = np.all((x >= spec.box[:, 0] - slack) & (x <= spec.box[:, 1] + slack), axis=1)
    ok[live] = False
    return x, ok


def _dedupe(arr: np.ndarray) -> np.ndarray:
    if len(arr) == 0:
        return arr
    _, keep = np.unique(np.round(arr / 1e-9), axis=0, return_index=True)
    return arr[np.sort(keep)]


def _level_fields(spec: GeometrySpec, which: str) -> list:
    """The level-set functions whose common zero set ``which`` names."""
    return {"plus": [spec.phi_plus], "minus": [spec.phi_minus],
            "intersection": [spec.phi_plus, spec.phi_minus]}[which]


def sample_surface(spec: GeometrySpec, which: str) -> np.ndarray:
    """Sample points of one surface, or of the intersection, inside the box.

    A coarse grid scan selects seeds with the smallest level-set residuals;
    each seed is refined by Newton projection (joint projection for the
    intersection), and shortfalls are filled by seeding tangential
    perturbations of the points already found.  Non-convergent seeds are
    discarded.  Returns an array of shape (k, n); k may fall short of the
    requested count when the surface barely meets the box, and is 0 when it
    misses the box entirely.  The procedure is deterministic.
    """
    if which not in ("plus", "minus", "intersection"):
        raise ContractViolation(f"unknown surface selector {which!r}")
    fields = _level_fields(spec, which)
    n_target = spec.n_surface_samples
    cap = 4 * n_target
    per_axis = _scan_resolution(n_target, spec.dim)
    pts = _scan_points(spec.box, per_axis)
    res = np.max([np.abs(phi.jet(pts, 0)) for phi in fields], axis=0)
    order = np.argsort(res, kind="stable")
    seeds = pts[order[:min(len(order), max(cap, 64))]]
    slack = 1e-9 * float(np.max(np.abs(spec.box)))
    x, ok = _project(spec, fields, seeds, slack)
    arr = _dedupe(x[ok][:cap])

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


def _quadratic_forms(u: np.ndarray, qs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_i . Q_i v_i for each row, as (u @ Q) @ v on one point."""
    return np.vecdot((u[:, None] @ qs)[:, 0], v)


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
    s_plus = sample_surface(spec, "plus")
    s_minus = sample_surface(spec, "minus")
    s_both = sample_surface(spec, "intersection")
    if len(s_plus) == 0 or len(s_minus) == 0 or len(s_both) == 0:
        raise InsufficientSamples(
            f"surface sampling failed (plus={len(s_plus)}, minus={len(s_minus)}, "
            f"intersection={len(s_both)})")

    checks: Dict[str, CheckResult] = {}

    # metric symmetry + signature spot check on a sample subset, up to the
    # first point with a wrong signature
    sig_pts = np.concatenate([s_plus[:5], s_minus[:5], s_both[:5]])
    qs = np.stack([spec.Q(p) for p in sig_pts])
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
        qs = np.stack([spec.Q(p) for p in samples])
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
        qs = np.stack([spec.Q(p) for p in s_both[trans_idx]])
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


def build_psi(spec: GeometrySpec):
    """Half-sum and half-difference fields of the surface pair.

    Returns (psi0, psi1) with psi1 = (phi_plus + phi_minus)/2 and
    psi0 = (phi_minus - phi_plus)/2, assembled by linearity so gradients and
    Hessians are exact whenever the inputs are.
    """
    psi1 = linear_combination([(0.5, spec.phi_plus), (0.5, spec.phi_minus)], name="psi1")
    psi0 = linear_combination([(0.5, spec.phi_minus), (-0.5, spec.phi_plus)], name="psi0")
    return psi0, psi1


def verify_split_signs(spec: GeometrySpec,
                       samples: Optional[np.ndarray] = None,
                       tol_pos: float = DEFAULT_TOL_POS,
                       tol_id: float = DEFAULT_TOL_ID) -> dict:
    """Derived sign facts for the split fields at intersection samples.

    At each sampled intersection point:  <Q dpsi1, dpsi1> > 0,
    <Q dpsi0, dpsi0> < 0, the two add to zero, and <Q dpsi1, dpsi0> = 0.
    Violations indicate inconsistent inputs, since these facts follow
    algebraically from the standing assumptions.
    """
    if samples is None:
        samples = sample_surface(spec, "intersection")
    if len(samples) == 0:
        raise InsufficientSamples("no intersection samples for split-sign check")
    psi0, psi1 = build_psi(spec)
    qs = np.stack([spec.Q(p) for p in samples])
    d1, d0 = psi1.jet(samples, 1).grad, psi0.jet(samples, 1).grad
    e1, e0, cross = (_quadratic_forms(d1, qs, d1), _quadratic_forms(d0, qs, d0),
                     _quadratic_forms(d1, qs, d0))
    bad = ~((e1 > tol_pos) & (e0 < -tol_pos)
            & (np.abs(e1 + e0) <= tol_id) & (np.abs(cross) <= tol_id))
    return {
        "status": "fail" if bad.any() else "pass",
        "surface_form_min": float(e1.min()),
        "difference_form_max": float(e0.max()),
        "sum_identity_max": float(np.abs(e1 + e0).max()),
        "cross_identity_max": float(np.abs(cross).max()),
        "witness": [float(v) for v in samples[int(np.argmax(bad))]] if bad.any() else None,
        "n_samples": int(len(samples)),
    }


def verify_sublevel_inclusion(spec: GeometrySpec, lam: float, radius: float,
                              n_samples: int, seed: int = 0,
                              samples: Optional[np.ndarray] = None) -> dict:
    """Check psi1 > lam * psi0^2 on wedge points near the intersection.

    Samples points with phi_plus > 0 and phi_minus > 0 within ``radius`` of
    intersection points (``samples``, or sampled when None).  The inclusion
    is only guaranteed where |psi0| < 1/lam; sampled points beyond that band
    are flagged.
    """
    if lam <= 0:
        raise ContractViolation("lam must be positive")
    base = sample_surface(spec, "intersection") if samples is None else samples
    if len(base) == 0:
        raise InsufficientSamples("no intersection samples")
    psi0, psi1 = build_psi(spec)
    rng = np.random.default_rng(seed)
    pts = []
    tries = 0
    while len(pts) < n_samples and tries < 50 * n_samples:
        tries += 1
        c = base[rng.integers(0, len(base))]
        u = rng.normal(size=spec.dim)
        u *= radius * rng.random() ** (1.0 / spec.dim) / np.linalg.norm(u)
        x = c + u
        if spec.phi_plus(x) > 0 and spec.phi_minus(x) > 0:
            pts.append(x)
    if not pts:
        raise InsufficientSamples("no wedge points found within the given radius")
    pts = np.array(pts)
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
