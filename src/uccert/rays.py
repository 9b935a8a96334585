"""Hamiltonian ray integration and level-set contact classification.

Rays solve  dx/ds = 2 Q(x) xi,  dxi_j/ds = -<d_j Q(x) xi, xi>  with a
classical fourth-order one-step scheme; the symbol value is conserved along
each ray up to the integrator error.  ``integrate`` marches every ray from
one launch point as one batch, a ``RayTrajectory`` on one shared parameter
grid.  ``contact`` fits a quartic to psi along every ray of a batch with one
least-squares solve and compares each curvature with half the second
Hamiltonian derivative at launch: tangent rays of a certified surface bend
to the negative side.  It returns one (R,) array per quantity of the
contact, a ray to an entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, FitError
from .fields import MetricField, ScalarField, as_point
from .hypotheses import DEFAULT_TOL_ZERO
from .symbols import _hp2_closed_form, _matvec, _quadratic_forms

DEFAULT_TOL_TAN_REL = 1e-6
FIT_POINTS = 5                    # a quartic has five coefficients
DEFAULT_DS = 1e-3                 # the RK4 step of a ray
DEFAULT_S_FIT = 0.05              # the contact fit's window, |s| <= s_fit


@dataclass
class RayTrajectory:
    """A batch of rays from one launch point on one shared parameter grid."""
    s: np.ndarray                 # (S,) strictly increasing, 0 at launch_index
    xs: np.ndarray                # (R, S, n) positions
    xis: np.ndarray               # (R, S, n) covectors
    p_vals: np.ndarray            # (R, S) symbol values

    @property
    def launch_index(self) -> int:
        return len(self.s) // 2

    def conservation_defect(self) -> float:
        """The largest drift of the symbol from its launch value over every ray; 0 for no ray."""
        return float(np.max(np.abs(self.p_vals - self.p_vals[:, self.launch_index, None]), initial=0.0))

    def annotate(self, psi: "ScalarField") -> np.ndarray:
        """The (R, S) values of psi at every point of every ray."""
        return psi.jet(self.xs.reshape(-1, self.xs.shape[2]), 0).reshape(self.p_vals.shape)


def _flow(Q: MetricField, y: np.ndarray) -> np.ndarray:
    """The Hamiltonian vector field of p at each row of the (m, 2n) states
    y = (x, xi), written into one new array."""
    n = y.shape[1] // 2
    x, xi = y[:, :n], y[:, n:]
    q, dq = Q.jet(x, 1)
    out = np.empty_like(y)
    np.multiply(2.0, _matvec(q, xi), out=out[:, :n])
    np.negative(np.vecdot((xi[:, None, None, :] @ dq)[:, :, 0, :], xi[:, None, :]), out=out[:, n:])
    return out


def _rk4_step(Q: MetricField, y: np.ndarray, h: np.ndarray, half: np.ndarray,
              sixth: np.ndarray) -> np.ndarray:
    """One RK4 step of every row of the states y, row i with its own signed
    step h[i, 0]; half and sixth are 0.5 h and h / 6."""
    k1 = _flow(Q, y)
    k2 = _flow(Q, y + half * k1)
    k3 = _flow(Q, y + half * k2)
    k4 = _flow(Q, y + h * k3)
    return y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)


def _march(Q: MetricField, y: np.ndarray, h: np.ndarray, n_steps: int) -> np.ndarray:
    """March every row of the (m, 2n) states y = (x, xi) ``n_steps`` times,
    row i by its own signed step h[i, 0].  Returns the stacked states, shape
    (n_steps + 1, m, 2n)."""
    ys = np.empty((n_steps + 1,) + y.shape)
    ys[0] = y
    half, sixth = 0.5 * h, h / 6.0
    for i in range(n_steps):
        ys[i + 1] = _rk4_step(Q, ys[i], h, half, sixth)
    return ys


def _ray_parameters(ds: float, n_steps: int) -> np.ndarray:
    """The parameter values every ray shares: s in [-n_steps*ds, n_steps*ds]."""
    return -ds * n_steps + ds * np.arange(2 * n_steps + 1)


def _fit_window(s: np.ndarray, s_fit: float) -> np.ndarray:
    """The points of a ray that the contact fit reads: |s| <= s_fit."""
    return np.abs(s) <= s_fit + 1e-15


def ray_steps(ds: float = DEFAULT_DS, s_fit: float = DEFAULT_S_FIT, max_steps: float = np.inf) -> tuple:
    """The RK4 steps per side of a ray that the contact fit over |s| <= s_fit
    reads at step ds, ceil(s_fit / ds) + 2 (inf when the quotient
    overflows), and the ray points inside that window.  The count is None,
    and no ray's parameters are formed, when the steps exceed max_steps."""
    ratio = s_fit / ds              # both finite and positive; the quotient may overflow
    n_steps = int(np.ceil(ratio)) + 2 if np.isfinite(ratio) else np.inf
    if n_steps > max_steps:
        return n_steps, None
    return n_steps, int(np.sum(_fit_window(_ray_parameters(ds, n_steps), s_fit)))


def integrate(Q: MetricField, x0, xis, ds: float, n_steps: int) -> RayTrajectory:
    """Integrate one ray from ``x0`` for each covector row of ``xis``.

    All rays march as one batch, forward and backward, each RK4 stage one
    metric jet over every row.  Every ray covers s in
    [-n_steps*ds, n_steps*ds], which contact analysis needs.
    """
    if ds <= 0:
        raise ContractViolation("ds must be positive")
    if n_steps < 1:
        raise ContractViolation("n_steps must be >= 1")
    x0, xis = as_point(x0), np.asarray(xis, dtype=float)
    if x0.size != Q.dim or xis.ndim != 2 or xis.shape[1] != Q.dim:
        raise ContractViolation("start point dimension mismatch")
    n_rays, n = xis.shape
    steps = np.repeat([ds, -ds], n_rays)[:, None]       # forward rows, then backward rows
    start = np.hstack([np.tile(x0, (2 * n_rays, 1)), np.tile(xis, (2, 1))])
    all_x, all_xi = np.split(_march(Q, start, steps, n_steps), 2, axis=2)
    p = _quadratic_forms(all_xi, Q.jet(all_x.reshape(-1, n), 0).reshape(all_x.shape + (n,)), all_xi)
    # each backward row reversed, without its launch point, then the forward row
    xs, xis_, p = (np.concatenate([a[:0:-1, n_rays:], a[:, :n_rays]]).swapaxes(0, 1)
                   for a in (all_x, all_xi, p))
    return RayTrajectory(s=_ray_parameters(ds, n_steps), xs=xs, xis=xis_, p_vals=p)


def _classify(coef: np.ndarray, predicted: np.ndarray, tol_tan: np.ndarray) -> dict:
    """The contact quantities of each ray from its fitted (intercept, c1, c2)
    columns, its predicted curvature and its tangency threshold."""
    intercept, c1, c2 = coef
    tangency = np.abs(c1) <= tol_tan
    with np.errstate(all="ignore"):     # as float arithmetic; predicted = 0 rows take |c2|
        rel = np.where(predicted != 0, np.abs(c2 - predicted) / np.abs(predicted), np.abs(c2))
    return {"tangency": tangency, "side": np.where(tangency, np.where(c2 < 0, "below", "above"), "crossing"),
            "fitted_c2": c2, "predicted_c2": predicted, "fitted_c1": c1, "intercept": intercept,
            "rel_error_c2": rel, "tol_tan": tol_tan}


def contact(traj: RayTrajectory, Q: MetricField, psi: ScalarField, s_fit: float = DEFAULT_S_FIT,
            tol_zero: float = DEFAULT_TOL_ZERO) -> tuple:
    """Classify the contact of each ray of a batch with the level set {psi = 0}.

    Least-squares quartic fit of psi along each ray over |s| <= s_fit, of
    which the constant, linear and quadratic coefficients are read (a
    quadratic fit over the symmetric window would fold about
    (3/5) s_fit^2 times the cubic coefficient into the linear one).
    Tangency holds when the linear coefficient is below a scale-invariant
    threshold; a tangent ray lies below (above) the surface when the fitted
    curvature is negative (positive), and any other ray is "crossing".  The
    curvature is compared against the launch-point prediction, half of
    hp2(psi).

    Q and psi's second-order jet are read once at the shared launch point,
    psi once on every point of every ray, and every ray is fitted by one
    least-squares solve over the shared window.  Returns a dict of (R,)
    arrays, "tangency", "side", "fitted_c2", "predicted_c2", "fitted_c1",
    "intercept", "rel_error_c2" and "tol_tan", and the (R, S) psi values.
    """
    if not len(traj.xs):
        return _classify(np.empty((3, 0)), np.empty(0), np.empty(0)), np.empty(traj.p_vals.shape)
    i0 = traj.launch_index
    x0, xi0 = traj.xs[0, i0], traj.xis[:, i0]
    q, dq = Q.jet(x0, 1)
    jet = psi.jet(x0, 2)            # the launch point's value, gradient, hp and hp2
    if abs(jet.value) > 10 * max(tol_zero, 1e-14):
        raise ContractViolation(
            f"ray must launch on the level set: |psi(x0)| = {abs(jet.value):.2e}")
    window = _fit_window(traj.s, s_fit)
    n_fit = int(np.sum(window))
    if n_fit < FIT_POINTS:
        raise FitError(f"only {n_fit} samples inside the fit window")
    vals = traj.annotate(psi)
    coef = np.polynomial.polynomial.polyfit(traj.s[window], vals[:, window].T, 4)
    velocity = _matvec(2.0 * q, xi0)
    speed = np.sqrt(np.vecdot(velocity, velocity))      # per ray as np.linalg.norm of one vector
    tol_tan = DEFAULT_TOL_TAN_REL * np.maximum(np.linalg.norm(jet.grad) * speed, 1e-30)
    return _classify(coef[:3], 0.5 * _hp2_closed_form(q, dq, jet, xi0), tol_tan), vals
