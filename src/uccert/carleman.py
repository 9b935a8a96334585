"""Desk-scale weighted-inequality experiments for the certified surface.

Builds the convexified weight phi = exp(mu * psi) - 1 from a certified
surface field, discretizes the principal part P = <Q d, d> on a uniform
grid, and measures the inequality ratio

    ||e^{-lam phi} P w||  /  ( lam^{1/2} ||e^{-lam phi} grad w||
                               + lam^{3/2} ||e^{-lam phi} w|| )

over a reproducible corpus of compactly supported bumps and a geometric
ladder of lam values.  The sweep reports the per-lam minimum ratio (a
positive floor is the empirical face of the weighted estimate) and enough
raw norms to audit the wired lam exponents from log-log slopes.

Only the weight depends on lam, so a test function's norms at every lam are
one matrix product: its integrands |P w|^2, |grad w|^2, w^2 times the trapezoid
weights on its dilated support R, (3, |R|), by the squared weights
e^{-2 lam (phi - shift)} on R, (|R|, L).  The sweep is a set of (T, L) arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolation, RangeError
from .fields import MetricField, ScalarField, power
from .grids import Grid, _axis_weights, d1, d1d1, d2

EXP_LIMIT = 700.0     # largest magnitude we allow in the weight exponent


def build_weight(psi: ScalarField, mu: float) -> ScalarField:
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

    return ScalarField(jet, name=f"expm1({mu:g}*psi)")


def metric_on_grid(Q: MetricField, grid: Grid) -> np.ndarray:
    """Entries of Q at every node, shape (dim, dim) + grid.shape."""
    return np.moveaxis(Q.jet(grid.points(), 0), 0, -1).reshape((grid.dim, grid.dim) + grid.shape)


def _stencil(q_arrays: np.ndarray, w: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order centered discretization of P w = <Q d, d> w from the
    entries of Q on the grid (``metric_on_grid``).

    Pure second derivatives use the three-point stencil; mixed terms use
    successive centered first differences.  Consistency is O(h^2) on smooth
    compactly supported w.
    """
    h = grid.h
    out = np.zeros_like(w)
    for j in range(grid.dim):
        out += q_arrays[j, j] * d2(w, j, h[j])
        for k in range(j + 1, grid.dim):
            if np.any(q_arrays[j, k]):          # an all-zero entry adds exactly zero
                out += 2.0 * q_arrays[j, k] * d1d1(w, j, k, h[j], h[k])
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


def _ratio_table(Q: MetricField, phi: ScalarField, corpus: Sequence[np.ndarray],
                 lambdas: np.ndarray, grid: Grid) -> tuple:
    """(lhs, wnorm_grad, wnorm_w, empty): the weighted norms of corpus[t] at
    lambdas[k] in entry [t, k] of three (T, L) arrays, and the (T,) mask of
    zero test functions, whose norms are all zero.

    The weight exponent is shifted so its minimum over the (slightly dilated)
    support of a test function is zero; this changes every norm by the same
    factor and keeps the exponential representable.  Each region is formed
    where its function's norms are taken, and an unrepresentable exponent is
    reported after the sweep, from the largest span, at the smallest lam that
    has one.
    """
    if any(lam <= 0 for lam in lambdas):
        raise ContractViolation("lam must be positive")
    phi_values = phi.jet(grid.points(), 0).reshape(grid.shape)
    q_arrays = metric_on_grid(Q, grid)
    weights = functools.reduce(np.multiply.outer, [_axis_weights(n, hh) for n, hh in zip(grid.shape, grid.h)])
    lhs, wnorm_grad, wnorm_w = (np.zeros((len(corpus), len(lambdas))) for _ in range(3))
    empty = np.ones(len(corpus), dtype=bool)
    largest_span = 0.0
    for t, w in enumerate(corpus):
        w = np.asarray(w, dtype=float)
        # the dilation of an empty support is empty
        region = _dilate(np.abs(w) > 0.0, 2)
        if not region.any():
            continue
        empty[t] = False
        phi_r = phi_values[region]
        phi_r -= np.min(phi_r)
        # lam * max(phi - shift) rounds to the largest |exponent| on the region
        largest_span = max(largest_span, float(np.max(phi_r)))
        grad_sq = sum(d1(w, a, grid.h[a]) ** 2 for a in range(grid.dim))
        integrands = np.stack([_stencil(q_arrays, w, grid)[region] ** 2, grad_sq[region], w[region] ** 2])
        # e^{-2 lam (phi - shift)} on the region, a column per lam; doubling is exact
        wsq = np.multiply.outer(phi_r, -2.0 * lambdas)
        np.exp(np.clip(wsq, -2.0 * EXP_LIMIT, 0.0, out=wsq), out=wsq)
        lhs[t], wnorm_grad[t], wnorm_w[t] = np.sqrt((integrands * weights[region]) @ wsq)
        del grad_sq, integrands, wsq        # freed before the next function's stencil
    for lam in lambdas:
        if lam * largest_span > EXP_LIMIT:
            raise RangeError(f"weight exponent exceeds representable range at lam={lam:g}")
    return lhs, wnorm_grad, wnorm_w, empty


@dataclass
class CarlemanReport:
    """The sweep as (T, L) arrays, row t for corpus[t] and column k for
    lambdas[k]; the right-hand sides, the ratio and its per-lam minimum are
    derived from them."""
    lambdas: np.ndarray             # (L,)
    lhs: np.ndarray                 # ||e^{-lam phi} P w||
    wnorm_grad: np.ndarray          # ||e^{-lam phi} grad w||
    wnorm_w: np.ndarray             # ||e^{-lam phi} w||
    empty: np.ndarray               # (T,) zero test functions
    h: float

    @property
    def rhs1(self) -> np.ndarray:
        return np.sqrt(self.lambdas) * self.wnorm_grad

    @property
    def rhs2(self) -> np.ndarray:
        return power(self.lambdas, 1.5) * self.wnorm_w

    @property
    def ratio(self) -> np.ndarray:
        """lhs / (rhs1 + rhs2), NaN where the denominator is zero."""
        denom = self.rhs1 + self.rhs2
        return np.divide(self.lhs, denom, out=np.full_like(denom, np.nan), where=denom > 0)

    @property
    def r_min(self) -> dict:
        """lam -> the least finite ratio over the nonzero test functions (inf
        when there is none)."""
        ratio = self.ratio
        mins = np.where(~self.empty[:, None] & np.isfinite(ratio), ratio, np.inf).min(axis=0)
        return dict(zip(self.lambdas.tolist(), mins.tolist()))

    @property
    def decreasing_flags(self) -> list:
        """The lam steps (l1, l2) where the corpus minimum drops by more than half."""
        r_min = self.r_min
        lams = list(r_min)
        return [(l1, l2) for l1, l2 in zip(lams, lams[1:]) if r_min[l2] < 0.5 * r_min[l1]]

    def r_floor(self, lam_from: float) -> float:
        vals = [r for lam, r in self.r_min.items() if lam >= lam_from]
        return float(min(vals)) if vals else float("nan")

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "lambdas": self.lambdas.tolist(),
            "r_min": {str(k): v for k, v in self.r_min.items()},
            "decreasing_flags": self.decreasing_flags,
            "n_rows": self.lhs.size,
        }


def lambda_sweep(Q: MetricField, phi: ScalarField, corpus: Sequence[np.ndarray],
                 lambdas: Sequence[float], grid: Grid) -> CarlemanReport:
    """The (testfn x lam) ratio table of the weight field phi.

    Its ``decreasing_flags`` name any lam step where the corpus minimum drops
    by more than half, which would signal the ratio decreasing toward zero
    instead of leveling at a positive floor.
    """
    if not len(corpus):
        raise ContractViolation("corpus must be nonempty")
    lambdas = np.array(lambdas, dtype=float)
    if np.any(lambdas[1:] <= lambdas[:-1]):
        raise ContractViolation("lambdas must be strictly increasing")
    lhs, wnorm_grad, wnorm_w, empty = _ratio_table(Q, phi, corpus, lambdas, grid)
    return CarlemanReport(lambdas=lambdas, lhs=lhs, wnorm_grad=wnorm_grad, wnorm_w=wnorm_w,
                          empty=empty, h=float(np.max(grid.h)))


def exponent_slopes(report: CarlemanReport) -> tuple:
    """Log-log slopes of rhs1 and rhs2 of test function 0 against lam,
    normalized by the bare norms.

    rhs1 = lam^{1/2} ||e^{-lam phi} grad w|| and rhs2 = lam^{3/2} ||..w||, so
    the slopes of rhs/bare-norm recover the wired exponents 1/2 and 3/2.
    """
    if len(report.lambdas) < 2:
        raise ContractViolation(f"need at least two lam values for a slope, got {len(report.lambdas)}")
    if report.empty[0]:
        raise ContractViolation("test function 0 is zero on the grid")
    grad, w = report.wnorm_grad[0], report.wnorm_w[0]
    keep = (grad > 0) & (w > 0)
    n = int(np.count_nonzero(keep))
    if n < 2:
        raise ContractViolation(f"test function 0 has nonzero weighted norms at "
                                f"{n} of {len(keep)} lam values; a slope needs two")
    a = np.vstack([np.ones(n), np.log(report.lambdas[keep])]).T
    c1 = np.linalg.lstsq(a, np.log(report.rhs1[0, keep] / grad[keep]), rcond=None)[0][1]
    c2 = np.linalg.lstsq(a, np.log(report.rhs2[0, keep] / w[keep]), rcond=None)[0][1]
    return float(c1), float(c2)
