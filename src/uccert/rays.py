"""Hamiltonian ray integration and level-set contact classification.

Rays solve  dx/ds = 2 Q(x) xi,  dxi_j/ds = -<d_j Q(x) xi, xi>  with a
classical fourth-order one-step scheme; the symbol value is conserved along
each ray up to the integrator error.  Contact analysis fits a quadratic to
psi along a ray and compares the fitted curvature with half the second
Hamiltonian derivative at launch: tangent rays of a certified surface bend
to the negative side.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import ContractViolation, FitError
from .fields import MetricField, PhasePoint, ScalarField
from .symbols import _quadratic_forms, hp, hp2

DEFAULT_TOL_TAN_REL = 1e-6
DEFAULT_TOL_ZERO = 1e-10


@dataclass
class RayTrajectory:
    s: np.ndarray                 # strictly increasing parameter values
    xs: np.ndarray                # (k, n) positions
    xis: np.ndarray               # (k, n) covectors
    p_vals: np.ndarray            # symbol values along the ray
    step: float
    truncated: bool = False
    psi_vals: Optional[np.ndarray] = None

    @property
    def launch_index(self) -> int:
        return int(np.argmin(np.abs(self.s)))

    def conservation_defect(self) -> float:
        return float(np.max(np.abs(self.p_vals - self.p_vals[self.launch_index])))

    def annotate(self, psi: "ScalarField") -> "RayTrajectory":
        """New trajectory carrying psi values along the ray; self is untouched."""
        vals = psi.jet(self.xs, 0)
        return RayTrajectory(s=self.s, xs=self.xs, xis=self.xis,
                             p_vals=self.p_vals, step=self.step,
                             truncated=self.truncated, psi_vals=vals)

    def rows(self) -> list:
        psi = np.full(len(self.s), np.nan) if self.psi_vals is None else self.psi_vals
        return np.column_stack([self.s, self.xs, self.xis, self.p_vals, psi]).tolist()


def _flow(Q: MetricField, x: np.ndarray, xi: np.ndarray):
    q, dq = Q.jet(x, 1)
    return 2.0 * q @ xi, -np.vecdot(xi @ dq, xi)


def _rk4_step(Q: MetricField, x, xi, ds):
    k1x, k1p = _flow(Q, x, xi)
    k2x, k2p = _flow(Q, x + 0.5 * ds * k1x, xi + 0.5 * ds * k1p)
    k3x, k3p = _flow(Q, x + 0.5 * ds * k2x, xi + 0.5 * ds * k2p)
    k4x, k4p = _flow(Q, x + ds * k3x, xi + ds * k3p)
    xn = x + ds / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
    xin = xi + ds / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return xn, xin


def _march(Q: MetricField, start: PhasePoint, ds: float, n_steps: int):
    """One-directional march; ds may be negative.  Stops at the domain box."""
    xs = [start.x.copy()]
    xis = [start.xi.copy()]
    truncated = False
    for _ in range(n_steps):
        xn, xin = _rk4_step(Q, xs[-1], xis[-1], ds)
        if not Q.in_domain(xn):
            truncated = True
            break
        xs.append(xn)
        xis.append(xin)
    return xs, xis, truncated


def integrate(Q: MetricField, start: PhasePoint, ds: float, n_steps: int,
              two_sided: bool = False) -> RayTrajectory:
    """Integrate a ray from ``start``.

    With ``two_sided`` the trajectory covers s in [-n_steps*ds, n_steps*ds],
    which contact analysis needs; otherwise s runs forward from 0.  A ray
    leaving the metric's domain box is truncated and flagged.
    """
    if ds <= 0:
        raise ContractViolation("ds must be positive")
    if n_steps < 1:
        raise ContractViolation("n_steps must be >= 1")
    if start.dim != Q.dim:
        raise ContractViolation("start point dimension mismatch")
    fwd_x, fwd_xi, trunc_f = _march(Q, start, ds, n_steps)
    if two_sided:
        bwd_x, bwd_xi, trunc_b = _march(Q, start, -ds, n_steps)
        xs = bwd_x[:0:-1] + fwd_x
        xis = bwd_xi[:0:-1] + fwd_xi
        s0 = -ds * (len(bwd_x) - 1)
        truncated = trunc_f or trunc_b
    else:
        xs, xis = fwd_x, fwd_xi
        s0 = 0.0
        truncated = trunc_f
    s = s0 + ds * np.arange(len(xs))
    xs = np.array(xs)
    xis = np.array(xis)
    p_vals = _quadratic_forms(xis, Q.jet(xs, 0), xis)
    return RayTrajectory(s=s, xs=xs, xis=xis, p_vals=p_vals, step=ds, truncated=truncated)


@dataclass
class ContactReport:
    tangency: bool
    side: str                     # "below" | "above" | "crossing"
    fitted_c2: float
    predicted_c2: float
    fitted_c1: float
    intercept: float
    rel_error_c2: float
    tol_tan: float
    notes: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "tangency": bool(self.tangency), "side": self.side,
            "fitted_c2": float(self.fitted_c2), "predicted_c2": float(self.predicted_c2),
            "fitted_c1": float(self.fitted_c1), "intercept": float(self.intercept),
            "rel_error_c2": float(self.rel_error_c2), "tol_tan": float(self.tol_tan),
        }


def contact(traj: RayTrajectory, Q: MetricField, psi: ScalarField,
            s_fit: float = 0.05, tol_zero: float = DEFAULT_TOL_ZERO,
            tol_tan_rel: float = DEFAULT_TOL_TAN_REL) -> ContactReport:
    """Classify the contact of a ray with the level set {psi = 0}.

    Least-squares quadratic fit of psi along the ray over |s| <= s_fit.
    Tangency holds when the linear coefficient is below a scale-invariant
    threshold; a tangent ray lies below (above) the surface when the fitted
    curvature is negative (positive).  The curvature is compared against
    the launch-point prediction, half of hp2(psi).
    """
    i0 = traj.launch_index
    x0, xi0 = traj.xs[i0], traj.xis[i0]
    if abs(psi(x0)) > 10 * max(tol_zero, 1e-14):
        raise ContractViolation(
            f"ray must launch on the level set: |psi(x0)| = {abs(psi(x0)):.2e}")
    mask = np.abs(traj.s) <= s_fit + 1e-15
    if int(np.sum(mask)) < 5:
        raise FitError(f"only {int(np.sum(mask))} samples inside the fit window")
    s = traj.s[mask]
    vals = psi.jet(traj.xs[mask], 0)
    coef = np.polynomial.polynomial.polyfit(s, vals, 2)
    intercept, c1, c2 = float(coef[0]), float(coef[1]), float(coef[2])

    pp = PhasePoint(x0, xi0)
    speed = float(np.linalg.norm(2.0 * Q(x0) @ xi0))
    tol_tan = tol_tan_rel * max(np.linalg.norm(psi.grad(x0)) * speed, 1e-30)
    tangent = abs(c1) <= tol_tan
    predicted = 0.5 * hp2(Q, psi, pp)
    if not tangent:
        side = "crossing"
    elif c2 < 0:
        side = "below"
    else:
        side = "above"
    rel = abs(c2 - predicted) / abs(predicted) if predicted != 0 else abs(c2)
    return ContactReport(
        tangency=tangent, side=side, fitted_c2=c2, predicted_c2=predicted,
        fitted_c1=c1, intercept=intercept, rel_error_c2=rel, tol_tan=tol_tan,
        notes={"hp_at_launch": hp(Q, psi, pp), "n_fit": int(np.sum(mask))})


def launch_and_classify(Q: MetricField, psi: ScalarField, x0, xi,
                        ds: float = 1e-3, s_fit: float = 0.05,
                        tol_zero: float = DEFAULT_TOL_ZERO) -> ContactReport:
    """Convenience wrapper: integrate a two-sided ray and classify contact."""
    n_steps = int(np.ceil(s_fit / ds)) + 2
    traj = integrate(Q, PhasePoint(x0, xi), ds, n_steps, two_sided=True)
    return contact(traj, Q, psi, s_fit=s_fit, tol_zero=tol_zero)
