"""Core geometric data types: metric fields, scalar fields, phase points, charts.

All types are immutable after construction and hold pure callables; they are
safe to evaluate concurrently.  Each field evaluates through one jet function,
at one point or on a (k, n) batch of points: a scalar field gives its value,
or its value with gradient and Hessian as a forward-mode ``Jet``, and derived
fields are jet arithmetic on their parts; a metric field gives its matrix,
or the matrix with its partial derivatives.  A chart is one jet function as
well, so a field pulled back through it is the chain rule on exact jets.  No
derivative in this module is a finite difference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractViolation


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

    The field is one jet function ``jet_fn(x, order)``, which takes one point
    or a (k, n) batch: order 0 gives Q, of shape (n, n) or (k, n, n), order 1
    the pair (Q, dQ) with dQ[..., j, :, :] = dQ/dx_j.  ``jet`` checks the
    shapes it returns; ``__call__`` and ``deriv`` read it.
    """

    def __init__(self, dim: int, jet_fn: Callable, name: str = ""):
        if dim < 1:
            raise ContractViolation("dim must be >= 1")
        self.dim = int(dim)
        self._jet = jet_fn
        self.name = name

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


CONSTANT_JET_SHAPES = 8     # batch shapes whose jet views a constant metric keeps


def constant_metric(matrix, name: str = "") -> MetricField:
    """A constant matrix; its jets are read-only broadcast views.

    The views of a batch shape are built on its first read and kept for the
    ``CONSTANT_JET_SHAPES`` shapes read last, so a march that reads one batch
    shape at every stage builds them once.
    """
    m = np.asarray(matrix, dtype=float)
    zero = np.zeros(m.shape[:1] + m.shape)

    @functools.lru_cache(maxsize=CONSTANT_JET_SHAPES)
    def views(lead):
        return np.broadcast_to(m, lead + m.shape), np.broadcast_to(zero, lead + zero.shape)

    def jet(x, order):
        pair = views(x.shape[:-1])
        return pair[0] if order == 0 else pair

    return MetricField(m.shape[0], jet, name=name)


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


class ScalarField:
    """x -> psi(x), with gradient and Hessian, through one jet function.

    The field is one jet function ``jet_fn(x, order)``, which takes one point
    or a (k, n) batch at every order and may return a plain number for a
    constant.  ``jet`` gives, at order 0, the value (a float, or a (k,)
    array), and at orders 1 and 2 a ``Jet``; ``__call__``, ``grad`` and
    ``hess`` read it.
    """

    def __init__(self, jet_fn: Callable, name: str = ""):
        self._jet = jet_fn
        self.name = name

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
    return ScalarField(lambda x, order: sum(c * f.jet(x, order) for c, f in terms), name=name)


def squared_field(f: ScalarField, name: str = "") -> ScalarField:
    """Pointwise square of a scalar field, reading f once per jet."""

    def jet(x, order):
        j = f.jet(x, order)
        return j * j

    return ScalarField(jet, name=name or (f.name + "^2" if f.name else ""))


class Chart:
    """Local diffeomorphism y -> x, written once as a jet function.

    ``forward_jet(y)`` takes one point or a (k, n) batch and returns the
    components of x as second-order jets in y, that is, arithmetic on
    ``Jet.variables(y, 2)``; ``inverse(x)`` maps one point back.  The point x,
    the Jacobian J[..., i, j] = dx_i/dy_j and its partials
    dJ[..., i, j, l] = d^2 x_i / dy_j dy_l are all read from that one jet.
    """

    def __init__(self, forward_jet: Callable, inverse: Callable, name: str = ""):
        self._forward_jet = forward_jet
        self._inverse = inverse
        self.name = name

    def jet(self, y):
        """(x, J, dJ) at the point y, or at each row of a (k, n) batch."""
        y = np.asarray(y, dtype=float)
        if y.ndim not in (1, 2):
            raise ContractViolation(f"y must be a point or a (k, n) batch, got shape {y.shape}")
        xs = self._forward_jet(y)
        return (np.stack([c.value for c in xs], axis=-1), np.stack([c.grad for c in xs], axis=-2),
                np.stack([c.hess for c in xs], axis=-3))

    def forward(self, y) -> np.ndarray:
        return self.jet(y)[0]

    def jacobian(self, y) -> np.ndarray:
        return self.jet(y)[1]

    def inverse(self, x) -> np.ndarray:
        return np.asarray(self._inverse(as_point(x)), dtype=float)


def pullback_scalar(f: ScalarField, chart: Chart, name: str = "") -> ScalarField:
    """Compose a scalar field with a chart, by the chain rule on jets.

    With g and H the gradient and Hessian of f at x = k(y):
    grad(f o k)(y) = J^T g and Hess(f o k)(y) = J^T H J + sum_i g_i d^2 x_i.
    """

    def jet(y, order):
        if order == 0:
            return f.jet(chart.forward(y), 0)
        x, jac, djac = chart.jet(y)
        fx = f.jet(x, order)
        jt = np.swapaxes(jac, -1, -2)
        grad = (jt @ fx.grad[..., None])[..., 0]
        if order == 1:
            return Jet(fx.value, grad)
        n, lead = y.shape[-1], y.shape[:-1]
        curvature = (fx.grad[..., None, :] @ djac.reshape(lead + (n, n * n))).reshape(lead + (n, n))
        hess = jt @ fx.hess @ jac + curvature
        return Jet(fx.value, grad, 0.5 * (hess + np.swapaxes(hess, -1, -2)))

    return ScalarField(jet, name=name or (f.name + "_chart" if f.name else ""))
