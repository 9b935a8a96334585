"""Principal-symbol geometry for second-order operators with matrix coefficients.

The symbol is the quadratic form p(x, xi) = <Q(x) xi, xi>.  This module
evaluates p, the first and second derivatives of scalar fields along the
Hamiltonian flow of p, eigenvalue signatures, the normal form of a
(n-1, 1)-signature matrix, and the transformation of Q under a chart.

All functions are pure; nothing here caches state.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ChartError, ContractViolation, SignatureError
from .fields import Chart, MetricField, PhasePoint, ScalarField, as_point


def eval_symbol(Q: MetricField, pp: PhasePoint) -> float:
    """Quadratic form <Q(x) xi, xi>."""
    if pp.dim != Q.dim:
        raise ContractViolation(f"phase point dim {pp.dim} != metric dim {Q.dim}")
    return float(pp.xi @ Q(pp.x) @ pp.xi)


class Signature(NamedTuple):
    n_plus: int
    n_minus: int
    n_zero: int


def signature(M, tol_eig: float | None = None) -> Signature:
    """Counts of eigenvalues above, below, and inside the zero band.

    The band half-width defaults to 1e-10 times the largest absolute
    eigenvalue, which makes the zero test scale-invariant.  For a stack of
    matrices, shape (k, n, n), the counts are arrays of length k.
    """
    m = np.asarray(M, dtype=float)
    mt = np.swapaxes(m, -1, -2)
    scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
    if np.any(np.max(np.abs(m - mt), axis=(-2, -1)) > 1e-10 * scale):
        raise ContractViolation("signature() requires a symmetric matrix")
    ev = np.linalg.eigvalsh(0.5 * (m + mt))
    if tol_eig is None:
        tol_eig = 1e-10 * np.maximum(1.0, np.max(np.abs(ev), axis=-1))
    band = np.expand_dims(tol_eig, -1)
    n_plus = np.sum(ev > band, axis=-1)
    n_minus = np.sum(ev < -band, axis=-1)
    if m.ndim == 2:
        n_plus, n_minus = int(n_plus), int(n_minus)
    return Signature(n_plus, n_minus, m.shape[-1] - n_plus - n_minus)


def has_wave_signature(M, tol_eig: float | None = None) -> bool:
    n = np.asarray(M).shape[0]
    return signature(M, tol_eig=tol_eig) == Signature(n - 1, 1, 0)


def lorentz_normal_form(M) -> np.ndarray:
    """Invertible R with R^T M R = diag(1, ..., 1, -1).

    Built from the symmetric eigendecomposition with column rescaling and a
    reordering that places the negative direction last; no Gram-Schmidt on
    the indefinite form is ever performed.
    """
    m = np.asarray(M, dtype=float)
    n = m.shape[0]
    sig = signature(m)
    if sig != Signature(n - 1, 1, 0):
        raise SignatureError(f"normal form requires signature ({n - 1},1,0), got {tuple(sig)}")
    ev, vec = np.linalg.eigh(0.5 * (m + m.T))
    r = vec / np.sqrt(np.abs(ev))[None, :]
    order = np.concatenate([np.flatnonzero(ev > 0), np.flatnonzero(ev < 0)])
    return r[:, order]


def hp(Q: MetricField, psi: ScalarField, pp: PhasePoint) -> float:
    """Derivative of psi along the Hamiltonian flow of p: 2 <Q(x) xi, dpsi(x)>."""
    if pp.dim != Q.dim:
        raise ContractViolation(f"phase point dim {pp.dim} != metric dim {Q.dim}")
    return 2.0 * float((Q(pp.x) @ pp.xi) @ psi.grad(pp.x))


def hp2(Q: MetricField, psi: ScalarField, pp: PhasePoint) -> float:
    """Second derivative of psi along the Hamiltonian flow of p.

    Assembled from the closed form
        2 [ sum_j (dp/dxi_j) ( < d_j Q xi, dpsi > + < Q xi, d(d_j psi) > )
            - < d_x Q xi, xi > . Q dpsi ],
    where dp/dxi = 2 Q xi and the last dot pairs the covector with components
    <d_j Q xi, xi> against the vector Q dpsi.  The result is a quadratic form
    in xi.
    """
    if pp.dim != Q.dim:
        raise ContractViolation(f"phase point dim {pp.dim} != metric dim {Q.dim}")
    x, xi = pp.x, pp.xi
    q = Q(x)
    dq = Q.deriv_all(x)          # dq[j] = dQ/dx_j
    jet = psi.jet(x, 2)
    g = jet.grad
    v = q @ xi                   # dp/dxi = 2 v
    hv = jet.hess @ v            # component j: <Q xi, d(d_j psi)>
    term1 = 0.0
    term2 = 0.0
    for j in range(Q.dim):
        term1 += 2.0 * v[j] * ((dq[j] @ xi) @ g + hv[j])
        term2 += (xi @ dq[j] @ xi) * (q @ g)[j]
    return 2.0 * (term1 - term2)


def hp2_bracket(Q: MetricField, psi: ScalarField, pp: PhasePoint, step: float = 1e-5) -> float:
    """Independent route to hp2 via the nested bracket with finite differences.

    Writes hp2 = {p, hp(psi)} and differentiates p and hp(psi) in x by central
    differences (the xi-derivatives of both are exact polynomials).  Used as a
    cross-check oracle against the closed-form assembly.
    """
    x, xi = pp.x, pp.xi
    n = x.size
    q = Q(x)
    dp_dxi = 2.0 * (q @ xi)
    dg_dxi = 2.0 * (q @ psi.grad(x))
    out = 0.0
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        dg_dx = (hp(Q, psi, PhasePoint(x + e, xi)) - hp(Q, psi, PhasePoint(x - e, xi))) / (2 * step)
        dp_dx = (eval_symbol(Q, PhasePoint(x + e, xi)) - eval_symbol(Q, PhasePoint(x - e, xi))) / (2 * step)
        out += dp_dxi[j] * dg_dx - dg_dxi[j] * dp_dx
    return float(out)


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
    q = Q(x0)
    dq = Q.deriv_all(x0)
    jet = psi.jet(x0, 2)
    g = jet.grad
    qp = q @ np.einsum("jik,i->jk", dq, g)
    m = 2.0 * (qp + qp.T) + 4.0 * q @ jet.hess @ q - 2.0 * np.einsum("j,jab->ab", q @ g, dq)
    return 0.5 * (m + m.T)


def quadratic_form_values(M, xis: np.ndarray) -> np.ndarray:
    """Batch evaluation xi^T M xi over rows of ``xis``."""
    return np.einsum("ki,ij,kj->k", xis, np.asarray(M, dtype=float), xis)


def pullback_metric(Q: MetricField, chart: Chart, y) -> np.ndarray:
    """Coefficient matrix of the symbol in chart coordinates.

    Q_chart(y) = J(y)^-1 Q(k(y)) J(y)^-T with J the chart Jacobian; the
    eigenvalue signature is preserved and checked.
    """
    y = as_point(y)
    jac = chart.jacobian(y)
    cond = np.linalg.cond(jac)
    if not np.isfinite(cond) or cond > 1e12:
        raise ChartError(f"chart Jacobian near-singular at {y} (cond={cond:.3e})")
    jinv = np.linalg.inv(jac)
    q = Q(chart.forward(y))
    qk = jinv @ q @ jinv.T
    qk = 0.5 * (qk + qk.T)
    if signature(qk) != signature(q):
        raise ChartError("pullback changed the eigenvalue signature")
    return qk


def pullback_metric_field(Q: MetricField, chart: Chart, name: str = "") -> MetricField:
    """The pulled-back coefficient matrix as a metric field over chart coordinates.

    Derivatives fall back to finite differences (the chart makes the pullback
    genuinely variable even for constant Q).
    """
    return MetricField(Q.dim, lambda y: pullback_metric(Q, chart, y),
                       name=name or (Q.name + "_chart" if Q.name else ""))


def transport_covector(chart: Chart, y, xi) -> np.ndarray:
    """Covector transport eta = J(y)^T xi matching p_chart(y, eta) = p(k(y), xi)."""
    return chart.jacobian(as_point(y)).T @ as_point(xi)
