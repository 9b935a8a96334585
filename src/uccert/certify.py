"""Pointwise pseudo-convexity certification for the bent surface family.

At a base point x0 on the surface intersection, the tangent null set
N = {|xi| = 1 : p(x0, xi) = 0, b1 . xi = 0}, b1 = 2 Q dpsi1, is cut out by a
quadratic form and a hyperplane, and every certified quantity is a quadratic
form in xi maximized over N.  ``null_cone_max`` computes such maxima exactly
(S-lemma; Finsler 1937, Polik & Terlaky, SIAM Review 49(3), 2007): in closed
form where N lies in a plane (two lines), by a bracketed search on the
multiplier in higher dimension, each with a rounding allowance that keeps the
value above the exact maximum.

All of this depends only on the 1-jet of Q and the 2-jets of psi0, psi1 at x0
(Hormander, The Analysis of Linear Partial Differential Operators IV,
ch. 28).  So the certifier reads Q and the surface pair once each, with
float errors raising (a singular jet makes the certificate degenerate),
composes the jets of psi0 and psi1 from them, and hands every later step Q
(first order) and psi0, psi1 (second order) pinned to those jets: fields that
answer at x0 alone, with the jets as read, and raise anywhere else.  The
certifier

  1. takes the floor m0 of |hp(psi0)| over N (strictly positive for
     consistent inputs),
  2. computes the bending threshold lambda0 = max_sphere hp2(psi1) / (2 m0^2),
  3. certifies that the maximum of hp2(psi1 - lam * psi0^2) over N is negative,
  4. evaluates that margin on explicit directions of N through two
     independent routes that are required to agree: the algebraic reduction
         hp2(psi1) - 2 lam hp(psi0)^2     (valid since psi0(x0) = 0)
     and a direct hp2 of the composed field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import (ContractViolation, DegenerateConstraintSet,
                     InternalInconsistency, NondegeneracyViolation, SignatureError)
from .fields import Jet, MetricField, ScalarField, as_point
from .hypotheses import (DEFAULT_TOL_CHAR, DEFAULT_TOL_POS, GeometrySpec, apply_gates, bent_surface,
                         gate_rows, split_terms)
from .symbols import (ZERO_BAND, _hp2_closed_forms, _hp_closed_form, _signature_of, hp2_matrix,
                      lorentz_normal_form, quadratic_form_values)

KEY_IDENTITY_RTOL = 1e-6    # required agreement between the two margin routes
EPS = np.finfo(float).eps


def unit_sphere_seeds(n: int, dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors.

    dim 3 uses the Fibonacci spiral lattice; other dimensions fall back to
    seeded normalized Gaussians (the spiral has no canonical analog there).
    """
    if n <= 0:
        return np.empty((0, dim))
    if dim == 3:
        i = np.arange(n, dtype=float)
        z = 1.0 - 2.0 * (i + 0.5) / n
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        theta = i * math.pi * (3.0 - math.sqrt(5.0))
        return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _hyperplane(a: np.ndarray, b: np.ndarray) -> tuple:
    """The hyperplane b . xi = 0 for the form a: (rows of an orthonormal basis
    B, the restricted form a_r = B a B^T made symmetric, the eigenpairs of
    a_r).  A certificate builds it once and reads it for its directions (the
    eigenpairs are those ``lorentz_normal_form`` would compute), m0 and the
    worst margin."""
    basis = np.linalg.svd(b.reshape(1, -1))[2][1:]
    ar = basis @ a @ basis.T
    ar = 0.5 * (ar + ar.T)
    return basis, ar, np.linalg.eigh(ar)


def null_cone_max(m: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Maximum of xi^T m xi over unit xi with xi^T a xi = 0 and b . xi = 0.

    With m_r, a_r the forms on the hyperplane, the maximum is min_t f(t),
    f(t) = lambda_max(m_r + t a_r) (S-lemma): every t gives an upper bound,
    as xi^T m xi = xi^T (m + t a) xi on null xi.  Returns (value, a unit null
    witness attaining it to rounding), or None when a_r is definite (empty
    set).  When a_r is semidefinite and singular, the set is its kernel.
    Otherwise the value is the maximum plus an allowance for rounding, so
    that, away from underflow, it is never below the exact maximum over the
    forms m_r, a_r:

    * On a 2-D hyperplane (every 3-D certificate) the set is two lines.  With
      eigenpairs (e0 < 0 < e1; v0, v1) of a_r they are y = sqrt(e1) v0
      +- sqrt(-e0) v1, and the maximum is the larger of the two form values,
      (e1 n00 - e0 n11 + 2 sqrt(-e0 e1) |n01|) / (e1 - e0) with n the matrix
      of m_r in the basis (v0, v1).  Without eigenvectors: write the
      symmetric parts as m_r = h0 I + [[p0, q0], [q0, -p0]] and a_r = h1 I
      + [[p1, q1], [q1, -p1]], let w0 = (p0, q0), n1 = |(p1, q1)|,
      P = p0 p1 + q0 q1, X = p0 q1 - q0 p1 and g = n1 - |h1| = min(-e0, e1);
      then -e0 e1 = g (n1 + |h1|) and the maximum is
          h0 + (sqrt(g (n1 + |h1|)) |X| - h1 P) / n1^2,
      the minimum of f(t) = h0 + h1 t + |w0 + t (p1, q1)|.  Its rounding, in
      u = EPS / 2 and to first order: h0, p, q err by u (relative); n1 by
      3u (hypot errs below 1 ulp); P and X by 4u |w0| n1; g by 5u n1, so the
      square root by (2.5 n1 / g + 3.5) u relative; the numerator by
      u |w0| n1 (7 |h1| + 9.5 sqrt(-e0 e1)) <= 11.9 u |w0| n1^2 plus
      2.5 u (n1 / g) sqrt(-e0 e1) |X|; the quotient by 23.2 u |w0| +
      2.5 u R, R = sqrt((n1 + |h1|) / g) |X| / n1; the two last sums by
      2u |h0| + 2.9u |w0|.  In all u (3 |h0| + 26.1 |w0| + 2.5 R), below the
      allowance 2 EPS (|h0| + 8 |w0| + R).  R is the only term that grows
      as the normal nears the null cone (g -> 0), and only where the
      maximum itself moves with g: at a kink of f (both lines of equal
      value) X = 0.
    * On hyperplanes of dimension 3 or more, f is minimized by a bracketed
      search (``_multiplier_search``) that stops when an upper and a lower
      bound of min f meet within the eigensolver's rounding allowance.  The
      value is f at an evaluated t plus that allowance, which bounds the
      exact maximum from above however early the search stops.
    """
    plane = _hyperplane(a, b)
    found = _null_cone_max(m, plane)
    if found is None:
        return None
    value, y = found
    return value, plane[0].T @ y / np.linalg.norm(y)


def _null_cone_max(m: np.ndarray, plane: tuple):
    """``null_cone_max`` on a hyperplane built by ``_hyperplane``, the
    witness as a vector of the hyperplane's coordinates, not normalized."""
    basis, ar, (ev, vec) = plane
    mr = basis @ m @ basis.T
    low, high = float(ev[0]), float(ev[-1])          # eigh sorts ascending
    band = ZERO_BAND * max(1.0, -low, high)
    if low >= -band or high <= band:
        kernel = vec[:, np.abs(ev) <= band]
        if kernel.shape[1] == 0:
            return None
        w, u = np.linalg.eigh(kernel.T @ mr @ kernel)
        return float(w[-1]), kernel @ u[:, -1]
    if len(ev) > 2:
        return _multiplier_search(mr, ar, ev)
    top, allowance, y = _two_line_max(mr, ar, ev, vec)
    return top + allowance, y


def _two_line_max(mr: np.ndarray, ar: np.ndarray, ev: np.ndarray, vec: np.ndarray):
    """(maximum, rounding allowance, maximizing line) over the two null lines
    of an indefinite 2 x 2 form a_r with eigenpairs (ev, vec), in the
    notation of ``null_cone_max``."""
    e0, e1 = float(ev[0]), float(ev[1])
    v0, v1 = vec[:, 0], vec[:, 1]
    # on the line sqrt(e1) v0 + s sqrt(-e0) v1 the form is e1 n00 - e0 n11
    # + 2 s sqrt(-e0 e1) n01: the larger is the line with s the sign of n01
    line = math.sqrt(e1) * v0 + math.copysign(math.sqrt(-e0), float(v0 @ mr @ v1)) * v1
    (m00, m01), (m10, m11) = mr.tolist()
    (a00, a01), (a10, a11) = ar.tolist()
    h0, p0, q0 = 0.5 * (m00 + m11), 0.5 * (m00 - m11), 0.5 * (m01 + m10)
    h1, p1, q1 = 0.5 * (a00 + a11), 0.5 * (a00 - a11), 0.5 * (a01 + a10)
    n1 = math.hypot(p1, q1)
    along, across = p0 * p1 + q0 * q1, p0 * q1 - q0 * p1
    gap, room = n1 - abs(h1), n1 + abs(h1)
    top = h0 + (math.sqrt(gap * room) * abs(across) - h1 * along) / (n1 * n1)
    allowance = 2.0 * EPS * (abs(h0) + 8.0 * math.hypot(p0, q0) + math.sqrt(room / gap) * abs(across) / n1)
    return top, allowance, line


def _multiplier_search(mr: np.ndarray, ar: np.ndarray, ev: np.ndarray):
    """(upper bound, witness) of the null-cone maximum for an indefinite a_r
    with eigenvalues ev: the minimum of the convex f(t) = lambda_max(m_r +
    t a_r), by a bracketed search on the S-lemma multiplier t.

    f's slope at t is v^T a_r v at its top eigenvector v, and each f(t)
    carries the eigensolver's rounding allowance, n^2 EPS max|eig| for an
    n x n form.  (The backward error bound of Householder tridiagonalization
    grows as n^2 EPS; n EPS max|eig| fell short: over the 62,000 forms the
    search evaluated on random 3-5-D pairs, the top eigenvalue erred from
    its 34-digit value by up to 6.1 EPS max|eig|, and by more than
    n EPS max|eig| in 0.03-0.15% of them.)  The search keeps ends lo < hi of
    slope <= 0 and > 0, so the minimum lies between them, and two bounds of
    it: the upper bound, the smaller f at the ends, and the lower
    bound, the height where the ends' tangent lines cross (f is convex, so it
    lies above both).  Each step evaluates f at the secant root of the slope
    through the two latest evaluations when that root lies inside the
    bracket (exact where the slope is linear, near a smooth minimum), else
    where the ends' tangent lines cross (exact where f is two lines, at a
    kink), and at the midpoint instead when the bracket has not halved in the
    last three steps; the new point replaces the end of its slope's sign.
    The search stops when the bounds meet within the larger allowance at the
    ends, or when the bracket is within rounding of a point.  The value is
    the upper bound, f at an evaluated t plus its allowance, so it stays
    above the exact maximum however the search stops; the witness is the
    null vector in the span of the top eigenvectors at the two ends.
    """
    def top(t):
        w, v = np.linalg.eigh(mr + t * ar)
        v = v[:, -1]
        allowance = len(w) ** 2 * EPS * max(-w[0], w[-1])
        return w[-1] + allowance, allowance, v, float(v @ ar @ v)

    # beyond these ends f exceeds 2 max|eig(m_r)| >= f(0), so the slope there
    # has the sign of the side
    scale = max(float(np.max(np.abs(np.linalg.eigvalsh(mr)))), EPS * float(np.max(np.abs(ev))))
    lo, hi = 3.0 * scale / ev[0], 3.0 * scale / ev[-1]
    ends = [top(lo), top(hi)]
    t_unit = scale / float(np.max(np.abs(ev)))
    latest = [(lo, ends[0][3]), (hi, ends[1][3])]      # (t, slope) of the two latest evaluations
    widths = [math.inf] * 3                            # the bracket's width before each step
    while True:
        (f_lo, tol_lo, _, s_lo), (f_hi, tol_hi, _, s_hi) = ends
        cross = (f_hi - f_lo + s_lo * lo - s_hi * hi) / (s_lo - s_hi)
        lower = f_lo + s_lo * (cross - lo)
        # written so that a nan stops the search
        if not (min(f_lo, f_hi) - lower > max(tol_lo, tol_hi)
                and hi - lo > 4.0 * EPS * (abs(lo) + abs(hi) + t_unit)):
            break
        (t1, s1), (t2, s2) = latest
        t = t2 - s2 * (t2 - t1) / (s2 - s1) if s2 != s1 else cross
        if not lo < t < hi:
            t = cross
        if not lo < t < hi or hi - lo > 0.5 * widths[-3]:
            t = 0.5 * (lo + hi)
        widths.append(hi - lo)
        e = top(t)
        latest = [latest[1], (t, e[3])]
        if e[3] > 0:
            hi, ends[1] = t, e
        else:
            lo, ends[0] = t, e
    (f_lo, _, v_lo, s_lo), (f_hi, _, v_hi, s_hi) = ends
    # near the minimum both end vectors lie in the top eigenspace, with slopes
    # of opposite sign: the null vector of their span is the witness
    if v_lo @ v_hi < 0:
        v_hi = -v_hi
    cross = float(v_lo @ ar @ v_hi)
    root = math.sqrt(cross * cross - s_lo * s_hi)
    tau = -s_lo / (cross + root) if cross > 0 else (root - cross) / s_hi
    return float(min(f_lo, f_hi)), v_lo + tau * v_hi


def constraint_samples(Q: MetricField, psi1: ScalarField, x0, n: int, seed: int = 0,
                       tol_pos: float = DEFAULT_TOL_POS, plane: Optional[tuple] = None) -> np.ndarray:
    """Unit covectors satisfying p = 0 and hp(psi1) = 0 at x0, listed exactly
    as the rows of a (k, dim) array.

    On the hyperplane b1 . xi = 0 (orthonormal basis B, dimension d) the
    restricted symbol A_r = B A B^T has signature (d-1, 1), so with
    R = lorentz_normal_form(A_r) every null direction is xi ~ B^T R (u, 1) with
    u on the sphere S^{d-2}.  For d = 2 that sphere is u = +-1, and with both
    signs of xi the set is its four points; for d >= 3, n seeded points u are
    listed.  ``plane``, the hyperplane from ``_hyperplane`` when the caller
    has built it, skips reading Q and psi1 and their space-like check.
    """
    x0 = as_point(x0)
    if n == 0:
        return np.empty((0, Q.dim))
    if plane is None:
        a = Q(x0)
        g1 = psi1.grad(x0)
        if float(g1 @ a @ g1) <= tol_pos:
            raise ContractViolation(
                "surface field is not space-like at x0 (<Q dpsi1, dpsi1> <= 0); "
                "the base surface must be non-characteristic")
        plane = _hyperplane(a, 2.0 * a @ g1)
    basis, ar, eig = plane
    try:
        r = lorentz_normal_form(ar, eig=eig)
    except SignatureError:
        sig = _signature_of(eig[0])
        if sig.n_zero == 0 and 0 in (sig.n_plus, sig.n_minus):
            raise DegenerateConstraintSet(
                "the null cone does not meet the tangent hyperplane: empty constraint set") from None
        raise
    d = ar.shape[0]
    if d == 2:
        u1 = np.array([[-1.0, 1.0], [1.0, 1.0]])
    else:
        u = unit_sphere_seeds(n, d - 1, seed=seed)
        u1 = np.hstack([u, np.ones((len(u), 1))])
    xis = u1 @ r.T @ basis
    xis /= np.sqrt(np.add.reduce(xis * xis, axis=1, keepdims=True))      # np.linalg.norm's sum
    return np.concatenate([xis, -xis]) if d == 2 else xis


def compute_m0(Q: MetricField, psi0: ScalarField, psi1: ScalarField, x0,
               tol_pos: float = DEFAULT_TOL_POS, plane: Optional[tuple] = None) -> float:
    """Floor of |hp(psi0)| over the tangent null set of psi1 at x0.

    hp(psi0) = c . xi with the drift covector c = 2 Q dpsi0, so its square is
    the form c c^T and m0^2 = -max(-c c^T) over the set, computed exactly.
    The value is strictly positive for consistent inputs; at or below
    tolerance it flags an inconsistency in the geometry.  ``plane`` is the
    tangent hyperplane from ``_hyperplane`` when the caller has built it.
    """
    x0 = as_point(x0)
    a = Q(x0)
    c = 2.0 * a @ psi0.grad(x0)
    if plane is None:
        plane = _hyperplane(a, 2.0 * a @ psi1.grad(x0))
    found = _null_cone_max(-np.outer(c, c), plane)
    if found is None:
        raise DegenerateConstraintSet(
            "the null cone does not meet the tangent hyperplane: empty constraint set")
    m0 = math.sqrt(max(0.0, -found[0]))
    if m0 <= tol_pos:
        raise NondegeneracyViolation(
            f"constrained drift floor m0 = {m0:.3e} <= {tol_pos:g}: "
            "inputs violate the strict-sign facts the certificate relies on")
    return m0


def compute_lambda0(Q: MetricField, psi1: ScalarField, x0, m0: float) -> float:
    """Bending threshold: (max over the whole unit sphere of hp2(psi1)) / (2 m0^2).

    hp2 is a quadratic form in xi, so the sphere maximum is the largest
    eigenvalue of its matrix.
    """
    if m0 <= 0:
        raise ContractViolation("m0 must be positive")
    top = float(np.linalg.eigvalsh(hp2_matrix(Q, psi1, as_point(x0)))[-1])
    return top / (2.0 * m0 * m0)


@dataclass
class Certificate:
    x0: np.ndarray
    m0: float
    lambda0: float
    lambda_used: float
    worst_margin: float
    n_samples: int
    status: str                         # "certified" | "failed" | "degenerate"
    margins: np.ndarray = dc_field(default_factory=lambda: np.empty(0))
    margins_direct: np.ndarray = dc_field(default_factory=lambda: np.empty(0))
    samples: np.ndarray = dc_field(default_factory=lambda: np.empty((0, 0)))   # (k, n) directions
    res_p: np.ndarray = dc_field(default_factory=lambda: np.empty(0))           # |xi^T Q xi|
    res_hp: np.ndarray = dc_field(default_factory=lambda: np.empty(0))          # |xi . b1|
    route_disagreement: float = 0.0
    notes: dict = dc_field(default_factory=dict)
    hypotheses_at_x0: Optional[dict] = None     # certify's GATES at x0, {name: {status, margin}}

    def to_dict(self) -> dict:
        return {
            "x0": [float(v) for v in np.atleast_1d(self.x0)],
            "m0": float(self.m0) if np.isfinite(self.m0) else None,
            "lambda0": float(self.lambda0) if np.isfinite(self.lambda0) else None,
            "lambda_used": float(self.lambda_used) if np.isfinite(self.lambda_used) else None,
            "worst_margin": float(self.worst_margin) if np.isfinite(self.worst_margin) else None,
            "n_samples": int(self.n_samples),
            "status": self.status,
            "route_disagreement": float(self.route_disagreement),
            "notes": dict(self.notes),
            "hypotheses_at_x0": self.hypotheses_at_x0,
        }


def _degenerate(x0, gate: str, numbers: dict) -> Certificate:
    return Certificate(x0=x0, m0=math.nan, lambda0=math.nan, lambda_used=math.nan, worst_margin=math.nan,
                       n_samples=0, status="degenerate", notes={"gate": [gate], gate: numbers})


_RAISE = dict(divide="raise", over="raise", invalid="raise")


def _singular_jet(Q: MetricField, fields: dict, x0) -> Optional[dict]:
    """The first jet at x0 (metric, then value, gradient and Hessian of each
    field) that raises an arithmetic error or is not finite, or None."""
    jets = [("Q", Q), ("dQ", lambda x: Q.jet(x, 1)[1])]
    for name, f in fields.items():
        jets += [(name, f), ("d" + name, f.grad), ("d2" + name, f.hess)]
    for name, jet in jets:
        try:
            with np.errstate(**_RAISE):
                value = jet(x0)
        except ArithmeticError as e:
            return {"jet": name, "error": str(e)}
        if not np.all(np.isfinite(value)):
            return {"jet": name, "error": "not finite"}
    return None


def _read_jets(Q: MetricField, fields: dict, x0):
    """The metric jet (Q, dQ) and a second-order jet of each field at x0,
    each read once with float errors raising.

    Returns (jets keyed "Q" and by field name, None), or (None, the first
    singular jet) when a read raises or is not finite; only then are the
    finer reads walked (``_singular_jet``), whose last reads are these.
    """
    try:
        with np.errstate(**_RAISE):
            jets = {"Q": Q.jet(x0, 1), **{name: f.jet(x0, 2) for name, f in fields.items()}}
        parts = [*jets["Q"]] + [part for name in fields for part in (jets[name].grad, jets[name].hess)]
        values = [jets[name].value for name in fields]
        if np.isfinite(np.concatenate([part.ravel() for part in parts] + [values])).all():
            return jets, None
    except ArithmeticError:
        pass
    return None, _singular_jet(Q, fields, x0)


def _frozen(part) -> np.ndarray:
    """A read-only copy, so that no caller can change a pinned jet's numbers."""
    part = np.array(part, dtype=float)
    part.flags.writeable = False
    return part


def _require_x0(x: np.ndarray, x0: np.ndarray) -> None:
    """Raise unless x is the point x0 (a nan coordinate matching a nan)."""
    if x is not x0 and not np.array_equal(x, x0, equal_nan=True):
        where = x.tolist() if x.ndim == 1 else f"a batch of shape {x.shape}"
        raise ContractViolation(f"a certificate reads its fields at x0 = {x0.tolist()} only, not at {where}")


def _pinned_metric(Q: MetricField, q, dq, x0: np.ndarray) -> MetricField:
    """Q, with its name, pinned to its jet (q, dq) read at x0: it answers at
    x0 alone, with read-only arrays."""
    q, dq = _frozen(q), _frozen(dq)

    def jet(x, order):
        _require_x0(x, x0)
        return q if order == 0 else (q, dq)

    return MetricField(Q.dim, jet, name=Q.name)


def _pinned_scalar(name: str, jet: Jet, x0: np.ndarray) -> ScalarField:
    """A field named ``name`` pinned to a second-order jet at x0: it answers
    at x0 alone, with read-only arrays and the value as given (-0.0 kept)."""
    v, g, h = jet.value, _frozen(jet.grad), _frozen(jet.hess)

    def pinned(x, order):
        _require_x0(x, x0)
        return v if order == 0 else Jet(v, g, h if order == 2 else None)

    return ScalarField(pinned, name=name)


def certify_fields(Q: MetricField, psi0: ScalarField, psi1: ScalarField, x0,
                   lam: Optional[float] = None, n: int = 2000,
                   tol_pos: float = DEFAULT_TOL_POS, seed: int = 0) -> Certificate:
    """Certify the bent surface psi1 - lam * psi0^2 at x0 from explicit fields.

    Q, psi0 and psi1 are read at x0 once each for the jet gate, and the later
    steps read them at x0 again; ``certify`` hands in fields pinned to their
    jets there, for which those reads cost nothing.  The bent surface's jet is
    composed once, and the steps that read it read a field pinned to it.  A
    lam so large that the margins overflow gives a degenerate certificate
    under the arithmetic gate.
    """
    x0 = as_point(x0)
    if lam is not None and lam <= 0:
        raise ContractViolation("lam must be positive")
    if n < 1:
        raise ContractViolation("n must be at least 1")
    jets, singular = _read_jets(Q, {"psi0": psi0, "psi1": psi1}, x0)
    if singular:
        return _degenerate(x0, "jet", singular)
    (a, dq), j0, j1 = jets["Q"], jets["psi0"], jets["psi1"]
    g1 = j1.grad
    space_like = float(g1 @ a @ g1)
    if space_like <= tol_pos:
        return _degenerate(x0, "space_like_base", {"q_dpsi1_dpsi1": space_like, "tol_pos": tol_pos})
    b1 = 2.0 * a @ g1
    plane = _hyperplane(a, b1)
    xis = constraint_samples(Q, psi1, x0, n, seed=seed, tol_pos=tol_pos, plane=plane)
    m0 = compute_m0(Q, psi0, psi1, x0, tol_pos=tol_pos, plane=plane)
    lambda0 = compute_lambda0(Q, psi1, x0, m0)
    lam_used = float(lam) if lam is not None else 2.0 * max(lambda0, 0.0) + 1.0

    drift = 2.0 * a @ j0.grad
    # both routes are quadratic forms in xi; evaluate them in batch through
    # their polarized matrices, then spot-check the closed forms of hp and hp2
    # on 25 directions, from the metric jet and one jet of each field.  A huge
    # lam overflows them without a warning, and the first certificate
    # quantity that is not finite names the arithmetic gate
    with np.errstate(over="ignore", invalid="ignore"):
        bent = bent_surface(psi0, psi1, lam_used)
        bent_jet = bent.jet(x0, 2)
        bent = _pinned_scalar(bent.name, bent_jet, x0)
        m_surface = hp2_matrix(Q, psi1, x0)
        m_bent = hp2_matrix(Q, bent, x0)
        margins = quadratic_form_values(m_surface, xis) - 2.0 * lam_used * (xis @ drift) ** 2
        margins_direct = quadratic_form_values(m_bent, xis)
        spot = np.arange(len(xis)) if len(xis) <= 25 else np.linspace(0, len(xis) - 1, 25).astype(int)
        d0 = _hp_closed_form(a, j0.grad, xis[spot])
        surface, direct = _hp2_closed_forms(a, dq, (j1, bent_jet), xis[spot])
        via_identity = surface - 2.0 * lam_used * d0 * d0
        m, m_direct = margins[spot], margins_direct[spot]
        # each pair's relative difference, the four pairs as one array; a nan
        # here stays nan
        worst_rel = float(np.max(
            np.abs(np.concatenate([margins, via_identity, direct, via_identity])
                   - np.concatenate([margins_direct, m, m_direct, direct]))
            / (1.0 + np.abs(np.concatenate([margins, m, m, via_identity])))))
        try:
            worst = _null_cone_max(m_bent, plane)[0]
        except np.linalg.LinAlgError:           # an eigensolver met an overflowed form
            worst = math.nan
    # worst_rel is finite only where both margin arrays are, so two floats
    # tell whether any certificate quantity is not finite
    if not (math.isfinite(worst_rel) and math.isfinite(worst)):
        quantities = {"margins": margins, "margins_direct": margins_direct,
                      "route_disagreement": worst_rel, "worst_margin": worst}
        overflowed = next(name for name, value in quantities.items() if not np.all(np.isfinite(value)))
        return _degenerate(x0, "arithmetic", {"lambda_used": lam_used, "quantity": overflowed})
    if not worst_rel <= KEY_IDENTITY_RTOL:
        raise InternalInconsistency(
            f"margin routes disagree by {worst_rel:.3e} relative "
            f"(> {KEY_IDENTITY_RTOL:g}); derivative suppliers are inconsistent")
    tripped = {}
    if not worst < -tol_pos:
        tripped["margin"] = {"worst_margin": worst, "required_below": -tol_pos}
    if not lam_used > lambda0:
        tripped["lambda_threshold"] = {"lambda_used": lam_used, "lambda0": lambda0}
    notes = {"seed": seed, "n_seeds": n}
    if tripped:
        notes.update(gate=list(tripped), **tripped)
    return Certificate(
        x0=x0, m0=m0, lambda0=lambda0, lambda_used=lam_used,
        worst_margin=worst, n_samples=len(xis),
        status="failed" if tripped else "certified",
        margins=margins, margins_direct=margins_direct, samples=xis,
        res_p=np.abs(quadratic_form_values(a, xis)), res_hp=np.abs(xis @ b1),
        route_disagreement=worst_rel, notes=notes)


def certify(spec: GeometrySpec, x0, lam: Optional[float] = None, n: int = 2000,
            tol_pos: float = DEFAULT_TOL_POS, seed: int = 0) -> Certificate:
    """Certify pseudo-convexity of the bent surface built from a surface pair.

    The base point must lie on both surfaces to spec.tol_zero, and every jet
    the certificate uses must be finite there; otherwise the certificate is
    degenerate and its notes name the gate.  The gate reads Q and phi± once
    each, and the surface values come from those jets; so do the margins of
    ``hypotheses.GATES`` at x0, hypotheses_at_x0, which the status does not
    follow yet.  The jets of psi0 and psi1 are composed from phi±'s by
    ``split_terms``, as ``build_psi``'s fields compose them, and
    ``certify_fields`` gets Q, psi0 and psi1 pinned to their jets, so the
    surface expressions and the metric are evaluated once each.
    """
    x0 = as_point(x0)
    jets, singular = _read_jets(spec.Q, {"phi_plus": spec.phi_plus,
                                         "phi_minus": spec.phi_minus}, x0)
    if singular:
        return _degenerate(x0, "jet", singular)
    off = float(max(abs(jets["phi_plus"].value), abs(jets["phi_minus"].value)))
    if off > spec.tol_zero:
        return _degenerate(x0, "on_surfaces", {"max_abs_phi": off, "tol_zero": spec.tol_zero})
    at_x0 = gate_rows(x0[None], jets["Q"][0][None], jets["phi_plus"].grad[None], jets["phi_minus"].grad[None])
    gates = apply_gates(dict.fromkeys(("plus", "minus", "intersection"), at_x0), DEFAULT_TOL_CHAR, tol_pos)
    psi0, psi1 = (_pinned_scalar(name, sum(c * jet for c, jet in terms), x0)
                  for name, terms in zip(("psi0", "psi1"), split_terms(jets["phi_plus"], jets["phi_minus"])))
    cert = certify_fields(_pinned_metric(spec.Q, *jets["Q"], x0), psi0, psi1, x0,
                          lam=lam, n=n, tol_pos=tol_pos, seed=seed)
    cert.hypotheses_at_x0 = {name: {"status": c.status, "margin": c.margin} for name, c in gates.items()}
    return cert
