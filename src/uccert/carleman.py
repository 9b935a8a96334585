"""Desk-scale weighted-inequality experiments for the certified surface.

Builds the convexified weight phi = exp(mu * psi) - 1 from a certified
surface field, discretizes the operator P = <Q d, d> + b . d + c on a uniform
grid, and measures the inequality ratio

    ||e^{-lam phi} P w||  /  ( lam^{1/2} ||e^{-lam phi} grad w||
                               + lam^{3/2} ||e^{-lam phi} w|| )

over a reproducible corpus of compactly supported bumps and a geometric
ladder of lam values.  The sweep reports the per-lam minimum ratio (a
positive floor is the empirical face of the weighted estimate) and enough
raw norms to audit the wired lam exponents from log-log slopes.

Only the weight depends on lam, so the sweep forms P w, |grad w|^2, w^2, the
dilated support and the weight shift once per test function; each lam adds
one exponential on the support and three trapezoid sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .errors import ContractViolation, RangeError
from .fields import MetricField, ScalarField
from .grids import Grid, d1, d1d1, d2, trapezoid

EXP_LIMIT = 700.0     # largest magnitude we allow in the weight exponent


@dataclass(frozen=True)
class WeightSpec:
    psi: ScalarField
    mu: float
    phi: ScalarField

    def phi_on_grid(self, grid: Grid) -> np.ndarray:
        return self.phi.jet(grid.points(), 0).reshape(grid.shape)


def build_weight(psi: ScalarField, mu: float) -> WeightSpec:
    """Convexified weight phi = exp(mu * psi) - 1.

    Shares the zero level set (and hence the sublevel sets) with psi exactly,
    and its differential is mu * exp(mu psi) * dpsi, nonzero wherever dpsi is.
    """
    if mu <= 0:
        raise ContractViolation("mu must be positive")

    def jet(x, order):
        u = mu * psi.jet(x, order)
        if not order:
            return np.expm1(u)
        e = np.exp(u.value)
        return u.chain(np.expm1(u.value), e, e)

    phi = ScalarField.from_jet(jet, name=f"expm1({mu:g}*psi)", analytic=psi.analytic)
    return WeightSpec(psi=psi, mu=float(mu), phi=phi)


def metric_on_grid(Q: MetricField, grid: Grid) -> np.ndarray:
    """Entries of Q at every node, shape (dim, dim) + grid.shape."""
    return np.moveaxis(Q.jet(grid.points(), 0), 0, -1).reshape((grid.dim, grid.dim) + grid.shape)


def _stencil(q_arrays: np.ndarray, w: np.ndarray, grid: Grid,
             b: Optional[np.ndarray], c: Optional[np.ndarray]) -> np.ndarray:
    """Second-order centered discretization of P w from the entries of Q on
    the grid (``metric_on_grid``).

    Pure second derivatives use the three-point stencil; mixed terms use
    successive centered first differences.  ``b`` has shape (dim,) + grid
    shape, ``c`` grid shape; None stands for zero.  Consistency is O(h^2) on
    smooth compactly supported w.
    """
    h = grid.h
    out = np.zeros_like(w)
    for j in range(grid.dim):
        out += q_arrays[j, j] * d2(w, j, h[j])
        for k in range(j + 1, grid.dim):
            if np.any(q_arrays[j, k]):          # an all-zero entry adds exactly zero
                out += 2.0 * q_arrays[j, k] * d1d1(w, j, k, h[j], h[k])
    if b is not None:
        for j in range(grid.dim):
            out += b[j] * d1(w, j, h[j])
    if c is not None:
        out += c * w
    return out


def _dilate(mask: np.ndarray, steps: int) -> np.ndarray:
    """Grow a boolean mask by `steps` cells along the axes (cross-shaped
    neighbourhood, cells outside the array count as empty)."""
    out = np.asarray(mask, dtype=bool)
    for _ in range(steps):
        grown = out.copy()
        for a in range(out.ndim):
            head = (slice(None),) * a + (slice(None, -1),)
            tail = (slice(None),) * a + (slice(1, None),)
            grown[tail] |= out[head]
            grown[head] |= out[tail]
        out = grown
    return out


def _ratio_table(Q: MetricField, weight: WeightSpec, corpus: Sequence[np.ndarray],
                 lambdas: Sequence[float], grid: Grid,
                 b: Optional[np.ndarray], c: Optional[np.ndarray]) -> list:
    """table[t][k]: the weighted norms and their ratio for corpus[t] at lambdas[k].

    The weight exponent is shifted so its minimum over the (slightly dilated)
    support of a test function is zero; this changes every norm by the same
    factor and keeps the exponential representable.  A zero test function
    yields NaN ratio with an "empty" flag.
    Every region and shift is found before any norm is taken, so an
    unrepresentable exponent is reported at the smallest lam that has one.
    """
    if any(lam <= 0 for lam in lambdas):
        raise ContractViolation("lam must be positive")
    phi_values = weight.phi_on_grid(grid)
    corpus = [np.asarray(w, dtype=float) for w in corpus]
    # the dilation of an empty support is empty
    regions = [_dilate(np.abs(w) > 0.0, 2) for w in corpus]
    shifts = [float(np.min(phi_values[r])) if r.any() else 0.0 for r in regions]
    # lam * max(phi - shift) rounds to the largest |exponent| on a region
    spans = [float(np.max(phi_values[r] - shift)) for r, shift in zip(regions, shifts) if r.any()]
    for lam in lambdas:
        if any(lam * span > EXP_LIMIT for span in spans):
            raise RangeError(f"weight exponent exceeds representable range at lam={lam:g}")

    q_arrays = metric_on_grid(Q, grid)
    table = []
    for w, region, shift in zip(corpus, regions, shifts):
        if not region.any():
            table.append([{"lhs": 0.0, "rhs1": 0.0, "rhs2": 0.0, "ratio": float("nan"),
                           "wnorm_grad": 0.0, "wnorm_w": 0.0, "empty": True}
                          for _ in lambdas])
            continue
        pw = _stencil(q_arrays, w, grid, b, c)
        pw_sq = pw * pw
        grad_sq = np.zeros_like(w)
        for a in range(grid.dim):
            grad_sq += d1(w, a, grid.h[a]) ** 2
        w_sq = w * w
        dphi = phi_values[region] - shift
        wsq = np.zeros_like(w)
        rows = []
        for lam in lambdas:
            wsq[region] = np.exp(2.0 * np.clip(-lam * dphi, -EXP_LIMIT, 0.0))
            lhs = float(np.sqrt(trapezoid(pw_sq * wsq, grid)))
            wnorm_grad = float(np.sqrt(trapezoid(grad_sq * wsq, grid)))
            wnorm_w = float(np.sqrt(trapezoid(w_sq * wsq, grid)))
            rhs1 = np.sqrt(lam) * wnorm_grad
            rhs2 = lam ** 1.5 * wnorm_w
            denom = rhs1 + rhs2
            rows.append({"lhs": lhs, "rhs1": rhs1, "rhs2": rhs2,
                         "ratio": lhs / denom if denom > 0 else float("nan"),
                         "wnorm_grad": wnorm_grad, "wnorm_w": wnorm_w, "empty": False})
        table.append(rows)
    return table


@dataclass
class CarlemanReport:
    mu: float
    lambdas: list
    rows: list                      # per (testfn, lam) dict
    r_min: dict                     # lam -> min ratio over corpus
    h: float
    decreasing_flags: list = dc_field(default_factory=list)

    def r_floor(self, lam_from: float) -> float:
        vals = [r for lam, r in self.r_min.items() if lam >= lam_from]
        return float(min(vals)) if vals else float("nan")

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "h": self.h,
            "lambdas": [float(v) for v in self.lambdas],
            "r_min": {str(k): float(v) for k, v in self.r_min.items()},
            "decreasing_flags": list(self.decreasing_flags),
            "n_rows": len(self.rows),
        }

    def csv_rows(self) -> list:
        return [[r["testfn"], r["lam"], r["lhs"], r["rhs1"], r["rhs2"], r["ratio"]]
                for r in self.rows]


def lambda_sweep(Q: MetricField, weight: WeightSpec, corpus: Sequence[np.ndarray],
                 lambdas: Sequence[float], grid: Grid,
                 b: Optional[np.ndarray] = None, c: Optional[np.ndarray] = None) -> CarlemanReport:
    """Full (testfn x lam) ratio table with the per-lam corpus minimum.

    Flags any lam step where the corpus minimum drops by more than half,
    which would signal the ratio decreasing toward zero instead of leveling
    at a positive floor.
    """
    if not len(corpus):
        raise ContractViolation("corpus must be nonempty")
    lambdas = [float(v) for v in lambdas]
    if any(l2 <= l1 for l1, l2 in zip(lambdas, lambdas[1:])):
        raise ContractViolation("lambdas must be strictly increasing")
    table = _ratio_table(Q, weight, corpus, lambdas, grid, b, c)
    rows, r_min = [], {}
    for k, lam in enumerate(lambdas):
        block = [dict(per_lam[k], testfn=t_id, lam=lam) for t_id, per_lam in enumerate(table)]
        ratios = [r["ratio"] for r in block if not r["empty"] and np.isfinite(r["ratio"])]
        r_min[lam] = float(min(ratios, default=np.inf))
        rows += block
    flags = [(l1, l2) for l1, l2 in zip(lambdas, lambdas[1:]) if r_min[l2] < 0.5 * r_min[l1]]
    return CarlemanReport(mu=weight.mu, lambdas=lambdas, rows=rows,
                          r_min=r_min, h=float(np.max(grid.h)),
                          decreasing_flags=flags)


def exponent_slopes(report: CarlemanReport, testfn: int = 0) -> tuple:
    """Log-log slopes of rhs1 and rhs2 against lam, normalized by the bare norms.

    rhs1 = lam^{1/2} ||e^{-lam phi} grad w|| and rhs2 = lam^{3/2} ||..w||, so
    the slopes of rhs/bare-norm recover the wired exponents 1/2 and 3/2.
    """
    if len(report.lambdas) < 2:
        raise ContractViolation(f"need at least two lam values for a slope, got {len(report.lambdas)}")
    rows = [r for r in report.rows if r["testfn"] == testfn]
    if not rows:
        raise ContractViolation(f"test function {testfn} is not in the sweep")
    if rows[0]["empty"]:
        raise ContractViolation(f"test function {testfn} is zero on the grid")
    lams, s1, s2 = [], [], []
    for r in rows:
        if r["wnorm_grad"] > 0 and r["wnorm_w"] > 0:
            lams.append(np.log(r["lam"]))
            s1.append(np.log(r["rhs1"] / r["wnorm_grad"]))
            s2.append(np.log(r["rhs2"] / r["wnorm_w"]))
    if len(lams) < 2:
        raise ContractViolation(f"test function {testfn} has nonzero weighted norms at "
                                f"{len(lams)} of {len(rows)} lam values; a slope needs two")
    a = np.vstack([np.ones(len(lams)), lams]).T
    c1 = np.linalg.lstsq(a, np.array(s1), rcond=None)[0][1]
    c2 = np.linalg.lstsq(a, np.array(s2), rcond=None)[0][1]
    return float(c1), float(c2)
