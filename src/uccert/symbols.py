"""Principal-symbol geometry for second-order operators with matrix coefficients.

The symbol is the quadratic form p(x, xi) = <Q(x) xi, xi>.  This module
evaluates the first and second derivatives of scalar fields along the
Hamiltonian flow of p, eigenvalue signatures, the normal form of a
(n-1, 1)-signature matrix, and the transformation of Q under a chart.

All functions are pure; nothing here caches state.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ChartError, ContractViolation, SignatureError
from .fields import Chart, MetricField, PhasePoint, ScalarField, as_point


ZERO_BAND = 1e-10   # half-width of signature()'s zero band, relative to the eigenvalues


class Signature(NamedTuple):
    n_plus: int
    n_minus: int
    n_zero: int


def signature(M) -> Signature:
    """Counts of eigenvalues above, below, and inside the zero band.

    The band half-width is ZERO_BAND times the largest absolute
    eigenvalue (at least 1), which makes the zero test scale-invariant.
    For a stack of matrices, shape (k, n, n), the counts are arrays of
    length k.
    """
    return _signature_of(np.linalg.eigvalsh(_symmetric_part(M)))


def _symmetric_part(M) -> np.ndarray:
    """(M + M^T) / 2 of a matrix, or of each of a stack, that is symmetric to rounding."""
    m = np.asarray(M, dtype=float)
    mt = np.swapaxes(m, -1, -2)
    scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
    if np.any(np.max(np.abs(m - mt), axis=(-2, -1)) > 1e-10 * scale):
        raise ContractViolation("signature() requires a symmetric matrix")
    return 0.5 * (m + mt)


def _signature_of(ev: np.ndarray) -> Signature:
    """The signature counts of the eigenvalues ev (last axis)."""
    band = np.expand_dims(ZERO_BAND * np.maximum(1.0, np.max(np.abs(ev), axis=-1)), -1)
    n_plus = np.sum(ev > band, axis=-1)
    n_minus = np.sum(ev < -band, axis=-1)
    if ev.ndim == 1:
        n_plus, n_minus = int(n_plus), int(n_minus)
    return Signature(n_plus, n_minus, ev.shape[-1] - n_plus - n_minus)


def lorentz_normal_form(M) -> np.ndarray:
    """Invertible R with R^T M R = diag(1, ..., 1, -1).

    Built from the symmetric eigendecomposition with column rescaling and a
    reordering that places the negative direction last; no Gram-Schmidt on
    the indefinite form is ever performed.  The one eigendecomposition gives
    both the signature check and R.
    """
    ev, vec = np.linalg.eigh(_symmetric_part(M))
    n = len(ev)
    sig = _signature_of(ev)
    if sig != Signature(n - 1, 1, 0):
        raise SignatureError(f"normal form requires signature ({n - 1},1,0), got {tuple(sig)}")
    r = vec / np.sqrt(np.abs(ev))[None, :]
    order = np.concatenate([np.flatnonzero(ev > 0), np.flatnonzero(ev < 0)])
    return r[:, order]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for one vector v or for each row of a stack, one product per row."""
    return (m @ v[..., None])[..., 0]


def _quadratic_forms(u: np.ndarray, qs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . Q v for one point, or for each row of stacks, as (u @ Q) @ v on one point."""
    return np.vecdot((u[..., None, :] @ qs)[..., 0, :], v)


def _hp_closed_form(q: np.ndarray, grad: np.ndarray, xi: np.ndarray):
    """2 <Q xi, dpsi>, for one point and covector or row by row on stacks of them."""
    return 2.0 * np.vecdot(_matvec(q, xi), grad)


def _hp2_closed_form(q: np.ndarray, dq: np.ndarray, jet, xi: np.ndarray):
    """hp2 at one point from Q, its partials dq[j] = dQ/dx_j and a second-order
    jet of psi, for one covector xi or each row of a (k, n) stack:
        2 [ sum_j (dp/dxi_j) ( < d_j Q xi, dpsi > + < Q xi, d(d_j psi) > )
            - < d_x Q xi, xi > . Q dpsi ],
    where dp/dxi = 2 Q xi and the last dot pairs the covector with components
    <d_j Q xi, xi> against the vector Q dpsi.
    """
    v = _matvec(q, xi)                               # dp/dxi = 2 v
    hv = _matvec(jet.hess, v)                        # component j: <Q xi, d(d_j psi)>
    dq_xi = _matvec(dq, xi[..., None, :])            # row j: d_j Q xi
    xi_dq_xi = _quadratic_forms(xi[..., None, :], dq, xi[..., None, :])     # <d_j Q xi, xi>
    term1 = np.sum(2.0 * v * (np.vecdot(dq_xi, jet.grad) + hv), axis=-1)
    term2 = np.sum(xi_dq_xi * (q @ jet.grad), axis=-1)
    return 2.0 * (term1 - term2)


def hp(Q: MetricField, psi: ScalarField, pp: PhasePoint) -> float:
    """Derivative of psi along the Hamiltonian flow of p: 2 <Q(x) xi, dpsi(x)>."""
    if pp.dim != Q.dim:
        raise ContractViolation(f"phase point dim {pp.dim} != metric dim {Q.dim}")
    return float(_hp_closed_form(Q(pp.x), psi.grad(pp.x), pp.xi))


def hp2(Q: MetricField, psi: ScalarField, pp: PhasePoint) -> float:
    """Second derivative of psi along the Hamiltonian flow of p, a quadratic form in xi."""
    if pp.dim != Q.dim:
        raise ContractViolation(f"phase point dim {pp.dim} != metric dim {Q.dim}")
    q, dq = Q.jet(pp.x, 1)
    return float(_hp2_closed_form(q, dq, psi.jet(pp.x, 2), pp.xi))


def hp2_bracket(Q: MetricField, psi: ScalarField, pp: PhasePoint) -> float:
    """Independent route to hp2 via the nested bracket with finite differences.

    Writes hp2 = {p, hp(psi)} and differentiates p and hp(psi) in x by central
    differences of step 1e-5 (the xi-derivatives of both are exact
    polynomials).  Used as a cross-check oracle against the closed-form
    assembly.
    """
    x, xi, n, step = pp.x, pp.xi, pp.dim, 1e-5
    q = Q(x)
    dp_dxi, dg_dxi = 2.0 * (q @ xi), 2.0 * (q @ psi.grad(x))
    shifted = np.concatenate([x + step * np.eye(n), x - step * np.eye(n)])     # x +- step e_j
    qs = Q.jet(shifted, 0)
    p, g = _quadratic_forms(xi, qs, xi), _hp_closed_form(qs, psi.jet(shifted, 1).grad, xi)
    dp_dx, dg_dx = (p[:n] - p[n:]) / (2 * step), (g[:n] - g[n:]) / (2 * step)
    return float(dp_dxi @ dg_dx - dg_dxi @ dp_dx)


def hp2_matrix(Q: MetricField, psi: ScalarField, x0) -> np.ndarray:
    """Symmetric matrix M with hp2(Q, psi, (x0, xi)) = xi^T M xi.

    Term by term, the ``hp2`` closed form is 4 xi^T Q P xi + 4 xi^T Q H Q xi
    - 2 xi^T (sum_j (Q dpsi)_j d_j Q) xi with P[j, k] = (d_j Q dpsi)_k and H the
    Hessian of psi, so the matrix takes one second-order jet of psi and one
    stack of metric partials (``hp2`` and ``hp2_bracket`` stay independent routes).
    It makes sphere maxima an eigenvalue problem and lets large sample
    batches be evaluated with one einsum.
    """
    x0 = as_point(x0)
    q, dq = Q.jet(x0, 1)
    jet = psi.jet(x0, 2)
    g = jet.grad
    qp = q @ np.einsum("jik,i->jk", dq, g)
    m = 2.0 * (qp + qp.T) + 4.0 * q @ jet.hess @ q - 2.0 * np.einsum("j,jab->ab", q @ g, dq)
    return 0.5 * (m + m.T)


def quadratic_form_values(M, xis: np.ndarray) -> np.ndarray:
    """Batch evaluation xi^T M xi over rows of ``xis``."""
    return np.einsum("ki,ij,kj->k", xis, np.asarray(M, dtype=float), xis)


def pullback_metric_field(Q: MetricField, chart: Chart, name: str = "") -> MetricField:
    """The coefficient matrix of the symbol in chart coordinates, as a metric
    field over them: Q_y = J^-1 Q J^-T, with J the chart Jacobian, and its
    partials by the chain rule on the metric's jet and the chart's jet (x, J, dJ):
        d_j Q_y = J^-1 (sum_i d_i Q J_ij) J^-T - A_j - A_j^T,  A_j = J^-1 d_j J Q_y.

    Raises ChartError where the chart's jet is not finite, its Jacobian is
    near-singular, or Q_y has another eigenvalue signature than Q.
    """

    def jet(y, order):
        with np.errstate(all="ignore"):          # a jet that is not finite is gated next
            x, jac, djac = chart.jet(y)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(jac))):
            raise ChartError(f"chart jet not finite at {y}")
        cond = np.linalg.cond(jac)
        if not np.all(cond <= 1e12):
            raise ChartError(f"chart Jacobian near-singular at {y} (cond={np.max(cond):.3e})")
        jinv = np.linalg.inv(jac)
        jinv_t = np.swapaxes(jinv, -1, -2)
        q, dq = Q.jet(x, 1) if order else (Q.jet(x, 0), None)
        qk = jinv @ q @ jinv_t
        qk = 0.5 * (qk + np.swapaxes(qk, -1, -2))
        if np.any(np.array(signature(qk)) != np.array(signature(q))):
            raise ChartError("pullback changed the eigenvalue signature")
        if order == 0:
            return qk
        n, lead = Q.dim, y.shape[:-1]
        # sum_i d_i Q J_ij, axis j ahead of the matrix axes, as in the metric's own jet
        dq_y = (np.swapaxes(jac, -1, -2) @ dq.reshape(lead + (n, n * n))).reshape(lead + (n, n, n))
        a = jinv[..., None, :, :] @ np.moveaxis(djac, -1, -3) @ qk[..., None, :, :]
        dqk = jinv[..., None, :, :] @ dq_y @ jinv_t[..., None, :, :] - a - np.swapaxes(a, -1, -2)
        return qk, 0.5 * (dqk + np.swapaxes(dqk, -1, -2))

    return MetricField(Q.dim, jet, name=name or (Q.name + "_chart" if Q.name else ""))


def pullback_metric(Q: MetricField, chart: Chart, y) -> np.ndarray:
    """Coefficient matrix of the symbol in chart coordinates, at a point or at
    each row of a (k, n) batch, with the gates of ``pullback_metric_field``;
    the eigenvalue signature is preserved and checked."""
    return pullback_metric_field(Q, chart).jet(y, 0)


def transport_covector(chart: Chart, y, xi) -> np.ndarray:
    """Covector transport eta = J(y)^T xi matching p_chart(y, eta) = p(k(y), xi)."""
    return chart.jacobian(as_point(y)).T @ as_point(xi)
