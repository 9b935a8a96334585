"""Core geometric data types: metric fields, scalar fields, phase points, charts.

All types are immutable after construction and hold pure callables; they are
safe to evaluate concurrently.  Each field evaluates through one jet function,
at one point or on a (k, n) batch of points: a scalar field gives its value,
or its value with gradient and Hessian as a forward-mode ``Jet``, and derived
fields are jet arithmetic on their parts; a metric field gives its matrix,
or the matrix with its partial derivatives.  Analytic derivative suppliers are
optional: when absent, central finite differences with a step proportional to
the local coordinate scale are used and the field is flagged as non-analytic
so callers can record the fallback in their reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractViolation

# Relative step for central finite differences; O(h^2) error is far below
# the certification tolerances used downstream.
FD_REL_STEP = 1e-4


def _fd_step(x: np.ndarray) -> float:
    return FD_REL_STEP * max(1.0, float(np.max(np.abs(x))))


def _partial(fn: Callable, x: np.ndarray, j: int):
    """d fn / dx_j at x by central differences."""
    e = np.zeros_like(x)
    e[j] = h = _fd_step(x)
    return (fn(x + e) - fn(x - e)) / (2.0 * h)


def _central_difference(fn: Callable, x: np.ndarray) -> np.ndarray:
    """All partials of fn at x by central differences, stacked along the last axis."""
    return np.stack([_partial(fn, x, j) for j in range(x.size)], axis=-1)


def as_point(x) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise ContractViolation(f"point must be a 1-d vector, got shape {p.shape}")
    return p


@dataclass(frozen=True)
class PhasePoint:
    """A position/covector pair (x, xi)."""

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", as_point(self.x))
        object.__setattr__(self, "xi", as_point(self.xi))
        if self.x.shape != self.xi.shape:
            raise ContractViolation(
                f"x and xi must have equal dimension, got {self.x.shape} vs {self.xi.shape}"
            )

    @property
    def dim(self) -> int:
        return self.x.size


class MetricField:
    """x -> symmetric n x n coefficient matrix Q(x) of a second-order symbol.

    ``jet(x, order)`` is the only evaluation path, at one point or on a (k, n)
    batch: order 0 gives Q, of shape (n, n) or (k, n, n), order 1 the pair
    (Q, dQ) with dQ[..., j, :, :] = dQ/dx_j; ``__call__`` and ``deriv`` read
    it.  Build a field from a jet function with ``from_jet``, or from a
    matrix supplier of one point and an optional partial supplier
    ``deriv_fn(x, j)``, run row by row on a batch (without ``deriv_fn`` the
    partials are central finite differences on the matrix).
    """

    def __init__(
        self,
        dim: int,
        eval_fn: Callable[[np.ndarray], np.ndarray],
        deriv_fn: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
        domain_box: Optional[np.ndarray] = None,
        name: str = "",
    ):
        if dim < 1:
            raise ContractViolation("dim must be >= 1")

        def value(x):
            return np.asarray(eval_fn(x), dtype=float)

        partial = deriv_fn or (lambda x, j: _partial(value, x, j))

        def point_jet(x, order):
            q = value(x)
            return q if order == 0 else (q, np.array([partial(x, j) for j in range(x.size)], dtype=float))

        self.dim = int(dim)
        self._jet = _rowwise(point_jet, rank=2)
        self.analytic = deriv_fn is not None
        self.domain_box = None if domain_box is None else np.asarray(domain_box, dtype=float)
        self.name = name

    @classmethod
    def from_jet(cls, dim: int, jet_fn: Callable, domain_box=None, name: str = "") -> "MetricField":
        """Field from an exact ``jet_fn(x, order)``, which takes one point or a
        (k, n) batch at orders 0 and 1 and returns what ``jet`` returns."""
        field = cls(dim, None, domain_box=domain_box, name=name)
        field._jet, field.analytic = jet_fn, True
        return field

    def jet(self, x, order: int = 1):
        """Q (order 0) or the pair (Q, dQ) (order 1), at a point or at each row of a batch."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ContractViolation(f"x must be a point or a (k, {self.dim}) batch, got shape {x.shape}")
        if order not in (0, 1):
            raise ContractViolation(f"metric jet order must be 0 or 1, got {order}")
        out = self._jet(x, order)
        for i, part in enumerate((out,) if order == 0 else out):
            if np.shape(part) != x.shape[:-1] + (self.dim,) * (2 + i):
                raise ContractViolation(f"metric jet part {i} has shape {np.shape(part)} at x of shape {x.shape}")
        return out

    def __call__(self, x) -> np.ndarray:
        return self.jet(as_point(x), 0)

    def deriv(self, x, j: int) -> np.ndarray:
        return self.jet(as_point(x), 1)[1][j]

    def in_domain(self, x):
        """Whether a point lies in the domain box, or a bool array over the rows of a batch."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2):
            raise ContractViolation(f"x must be a point or a batch, got shape {x.shape}")
        inside = np.ones(x.shape[:-1], dtype=bool)
        if self.domain_box is not None:
            inside = np.all((x >= self.domain_box[:, 0]) & (x <= self.domain_box[:, 1]), axis=-1)
        return bool(inside) if x.ndim == 1 else inside


def constant_metric(matrix, domain_box=None, name: str = "") -> MetricField:
    """A constant matrix; its jets are read-only broadcast views."""
    m = np.asarray(matrix, dtype=float)
    zero = np.zeros(m.shape[:1] + m.shape)

    def jet(x, order):
        q = np.broadcast_to(m, x.shape[:-1] + m.shape)
        return q if order == 0 else (q, np.broadcast_to(zero, x.shape[:-1] + zero.shape))

    return MetricField.from_jet(m.shape[0], jet, domain_box=domain_box, name=name)


def power(base, p: float):
    """base ** p; on arrays libm ``pow`` per element, as ``**`` on one float
    (``**`` on an array takes sqrt or SIMD routes that differ in the last bit).
    A negative base to a non-integer power is nan, as on arrays (``**`` on one
    float would give a complex)."""
    if isinstance(base, np.ndarray):
        return np.float_power(base, p)
    if isinstance(base, (int, float)) and base < 0 and not float(p).is_integer():
        return float("nan")
    return base ** p


def _lift(v, axes: int):
    """A per-point scalar (a number, or a (k,) array on a batch) with ``axes``
    trailing axes, so that it scales per-point vectors (1) or matrices (2)."""
    return v[(...,) + (None,) * axes] if isinstance(v, np.ndarray) else v


class Jet:
    """Value, gradient and Hessian of a scalar (forward mode) at one point, or
    with a leading axis of length k at each point of a (k, n) batch.

    ``hess`` is None in first-order jets.  The arithmetic operators and
    ``chain`` are the only place where the sum, product, quotient, power and
    chain rules are written (Griewank & Walther, Evaluating Derivatives,
    2008); derived fields get their derivatives by running ordinary
    arithmetic on jets, the same on every row of a batch.  Plain numbers act
    as constants.
    """

    __slots__ = ("value", "grad", "hess")
    __array_ufunc__ = None          # numpy scalars defer to the reflected operators

    def __init__(self, value, grad: np.ndarray, hess: Optional[np.ndarray] = None):
        self.value, self.grad, self.hess = value, grad, hess

    @classmethod
    def variables(cls, x: np.ndarray, order: int) -> list:
        """The coordinates of the point x, or of each row of a (k, n) batch,
        as jets of the given order."""
        n = x.shape[-1]
        if x.ndim == 1:
            values, eye, zero = x.tolist(), np.eye(n), np.zeros((n, n))
        else:
            values, zero = x.T, np.broadcast_to(0.0, x.shape + (n,))
            eye = np.broadcast_to(np.eye(n)[:, None, :], (n,) + x.shape)
        return [cls(v, eye[i], zero if order > 1 else None) for i, v in enumerate(values)]

    @classmethod
    def constant(cls, value, x: np.ndarray, order: int) -> "Jet":
        """A constant as a jet at the point x, or at each row of a batch."""
        return cls(float(value) if x.ndim == 1 else np.full(len(x), float(value)), np.zeros(x.shape),
                   np.zeros(x.shape + x.shape[-1:]) if order > 1 else None)

    def chain(self, f0, f1, f2=None) -> "Jet":
        """Jet of f(u), given f, f' and f'' at u = self.value."""
        g = self.grad
        if self.hess is None:
            return Jet(f0, _lift(f1, 1) * g)
        return Jet(f0, _lift(f1, 1) * g,
                   _lift(f2, 2) * (g[..., :, None] * g[..., None, :]) + _lift(f1, 2) * self.hess)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.value + other, self.grad, self.hess)
        hess = None if self.hess is None else self.hess + other.hess
        return Jet(self.value + other.value, self.grad + other.grad, hess)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.value - other, self.grad, self.hess)
        hess = None if self.hess is None else self.hess - other.hess
        return Jet(self.value - other.value, self.grad - other.grad, hess)

    def __rsub__(self, c):
        return -1.0 * self + c            # bit for bit c - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.value * other, self.grad * other,
                       None if self.hess is None else self.hess * other)
        a, b = self, other
        grad = _lift(a.value, 1) * b.grad + _lift(b.value, 1) * a.grad
        if a.hess is None:
            return Jet(a.value * b.value, grad)
        cross = a.grad[..., :, None] * b.grad[..., None, :]       # np.outer per point
        return Jet(a.value * b.value, grad, _lift(a.value, 2) * b.hess + _lift(b.value, 2) * a.hess
                   + cross + np.swapaxes(cross, -1, -2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.value / other, self.grad / other,
                       None if self.hess is None else self.hess / other)
        # a * (1/b) by the product and chain rules; the value stays a / b
        v = other.value
        q = self * other.chain(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))
        return Jet(self.value / v, q.grad, q.hess)

    def __rtruediv__(self, c):
        return Jet.constant(c, self.grad, 1 if self.hess is None else 2) / self

    def __pow__(self, p: float):
        v = self.value
        f2 = None if self.hess is None else p * (p - 1.0) * power(v, p - 2.0)
        return self.chain(power(v, p), p * power(v, p - 1.0), f2)


def _rowwise(point_jet: Callable, rank: int = 0) -> Callable:
    """A jet function of one point, extended to a (k, n) batch row by row: the
    value of a field of tensor rank ``rank`` (0 for a scalar, 2 for a matrix)
    and its derivative of order i are stacked to shape (k,) + (n,) * (rank + i),
    and come back as a ``Jet`` for a scalar, as a tuple for a matrix."""

    def jet(x, order):
        if x.ndim == 1:
            return point_jet(x, order)
        rows = [point_jet(p, order) for p in x]
        if order == 0:
            rows = [(r,) for r in rows]
        elif rank == 0:
            rows = [(r.value, r.grad, r.hess) for r in rows]
        parts = [np.array([r[i] for r in rows], dtype=float).reshape(x.shape[:1] + x.shape[1:] * (rank + i))
                 for i in range(order + 1)]
        if order == 0:
            return parts[0]
        return Jet(*parts) if rank == 0 else tuple(parts)

    return jet


class ScalarField:
    """x -> psi(x), with gradient and Hessian, through one jet function.

    ``jet(x, order)`` is the only evaluation path, for one point or a (k, n)
    batch of points: order 0 gives the value (a float, or a (k,) array),
    orders 1 and 2 give a ``Jet``; ``__call__``, ``grad`` and ``hess`` read
    it.  Build a field from a jet function with ``from_jet``, or from value,
    gradient and Hessian suppliers of one point (a batch then runs them row
    by row); missing suppliers fall back to central finite differences on
    the value (gradient) or on the gradient (Hessian, symmetrized).
    """

    def __init__(
        self,
        eval_fn: Callable[[np.ndarray], float],
        grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        hess_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        name: str = "",
    ):
        def value(x):
            return float(eval_fn(x))

        def supplied_grad(x):
            if grad_fn is None:
                return _central_difference(value, x)
            return np.asarray(grad_fn(x), dtype=float)

        def supplied_hess(x):
            if hess_fn is None:
                m = _central_difference(supplied_grad, x)
                return 0.5 * (m + m.T)
            return np.asarray(hess_fn(x), dtype=float)

        def point_jet(x, order):
            if order == 0:
                return value(x)
            return Jet(value(x), supplied_grad(x), supplied_hess(x) if order == 2 else None)

        self._jet = _rowwise(point_jet)
        self.analytic = grad_fn is not None and hess_fn is not None
        self.name = name

    @classmethod
    def from_jet(cls, jet_fn: Callable, name: str = "", analytic: bool = True) -> "ScalarField":
        """Field from ``jet_fn(x, order)``, which takes one point or a (k, n)
        batch at every order and may return a plain number for a constant."""
        field = cls.__new__(cls)
        field._jet = jet_fn
        field.analytic = analytic
        field.name = name
        return field

    def jet(self, x, order: int = 2):
        """Order 0: the value at a point, or the values at the rows of a (k, n)
        batch; order 1 or 2: a ``Jet`` with the gradient (and the Hessian)."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2):
            raise ContractViolation(f"x must be a point or a (k, n) batch, got shape {x.shape}")
        if order not in (0, 1, 2):
            raise ContractViolation(f"jet order must be 0, 1 or 2, got {order}")
        out = self._jet(x, order)
        if order:
            return out if isinstance(out, Jet) else Jet.constant(out, x, order)
        if x.ndim == 1:
            return float(out)
        return np.full(len(x), float(out)) if np.ndim(out) == 0 else out

    def __call__(self, x) -> float:
        return float(self._jet(as_point(x), 0))

    def grad(self, x) -> np.ndarray:
        return self.jet(x, 1).grad

    def hess(self, x) -> np.ndarray:
        return self.jet(x, 2).hess


def linear_combination(terms: Sequence[tuple], name: str = "") -> ScalarField:
    """Weighted sum of scalar fields."""
    terms = [(float(c), f) for c, f in terms]
    return ScalarField.from_jet(lambda x, order: sum(c * f.jet(x, order) for c, f in terms),
                                name=name, analytic=all(f.analytic for _, f in terms))


def product_field(f: ScalarField, g: ScalarField, name: str = "") -> ScalarField:
    """Pointwise product of two scalar fields."""
    return ScalarField.from_jet(lambda x, order: f.jet(x, order) * g.jet(x, order),
                                name=name, analytic=f.analytic and g.analytic)


def squared_field(f: ScalarField, name: str = "") -> ScalarField:
    return product_field(f, f, name=name or (f.name + "^2" if f.name else ""))


class Chart:
    """Local diffeomorphism y -> x with Jacobian and inverse.

    ``jacobian(y)`` has columns dx/dy_i.  When no analytic Jacobian is given
    it is produced by central differences on ``forward``.  Second derivatives
    of the component maps (needed to transport Hessians) always come from
    central differences on the Jacobian.
    """

    def __init__(
        self,
        forward: Callable[[np.ndarray], np.ndarray],
        inverse: Callable[[np.ndarray], np.ndarray],
        jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        name: str = "",
    ):
        self._forward = forward
        self._inverse = inverse
        self._jacobian = jacobian
        self.name = name

    def forward(self, y) -> np.ndarray:
        return np.asarray(self._forward(as_point(y)), dtype=float)

    def inverse(self, x) -> np.ndarray:
        return np.asarray(self._inverse(as_point(x)), dtype=float)

    def jacobian(self, y) -> np.ndarray:
        y = as_point(y)
        if self._jacobian is not None:
            return np.asarray(self._jacobian(y), dtype=float)
        return _central_difference(self.forward, y)

    def jacobian_partial(self, y, j: int) -> np.ndarray:
        """d/dy_j of the Jacobian matrix, by central differences."""
        return _partial(self.jacobian, as_point(y), j)


def pullback_scalar(f: ScalarField, chart: Chart, name: str = "") -> ScalarField:
    """Compose a scalar field with a chart, transporting gradient and Hessian.

    grad(f o k)(y) = J(y)^T grad f(k(y));  the Hessian picks up the extra
    curvature term sum_k (d_k f) Hess(k_k) from the chart's second derivatives.
    """

    def jet(y, order):
        fx = f.jet(chart.forward(y), order)
        if order == 0:
            return fx
        jac = chart.jacobian(y)
        grad = jac.T @ fx.grad
        if order == 1:
            return Jet(fx.value, grad)
        hout = jac.T @ fx.hess @ jac
        for j in range(y.size):
            # jacobian_partial[:, i][k] = d^2 k_k / dy_j dy_i
            hout[j, :] += chart.jacobian_partial(y, j).T @ fx.grad
        return Jet(fx.value, grad, 0.5 * (hout + hout.T))

    return ScalarField.from_jet(_rowwise(jet), name=name or (f.name + "_chart" if f.name else ""),
                                analytic=f.analytic)
