"""Uniform tensor grids, trapezoid quadrature, difference stencils, bump fields.

The labs work on node-centered grids that include the box endpoints, so a
box (-1, 1)^n with 512 cells per axis has 513 nodes and the coordinate 0 is
an exact node.  Quadrature is tensor trapezoid with an optional Richardson
level; restricted quadrature over closed half-spaces {y_a >= 0} places the
standard half-weights on the restriction boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ContractViolation, SupportError


@dataclass(frozen=True)
class Grid:
    box: np.ndarray            # (n, 2)
    n_cells: tuple             # cells per axis; nodes = cells + 1

    def __post_init__(self):
        object.__setattr__(self, "box", np.asarray(self.box, dtype=float))
        object.__setattr__(self, "n_cells", tuple(int(c) for c in np.atleast_1d(self.n_cells)))
        if self.box.shape != (len(self.n_cells), 2):
            raise ContractViolation("box shape must match number of axes")
        axes = tuple(np.linspace(lo, hi, c + 1) for (lo, hi), c in zip(self.box, self.n_cells))
        for ax in axes:
            ax.flags.writeable = False
        object.__setattr__(self, "_axes", axes)
        zeros = tuple(int(np.argmin(np.abs(ax))) for ax in axes)
        object.__setattr__(self, "_zeros", tuple(i if abs(ax[i]) <= 1e-12 else None
                                                 for ax, i in zip(axes, zeros)))

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def shape(self) -> tuple:
        return tuple(c + 1 for c in self.n_cells)

    @property
    def h(self) -> np.ndarray:
        return (self.box[:, 1] - self.box[:, 0]) / np.array(self.n_cells, dtype=float)

    def axis(self, a: int) -> np.ndarray:
        """The node coordinates along axis a, built once and read-only."""
        return self._axes[a]

    def axes(self) -> list:
        return list(self._axes)

    def meshgrid(self) -> list:
        return np.meshgrid(*self.axes(), indexing="ij")

    def points(self) -> np.ndarray:
        """Every node as a row, in C order of the grid shape."""
        return np.stack([m.ravel() for m in self.meshgrid()], axis=1)

    def zero_index(self, a: int) -> int:
        """The node at coordinate 0 along axis a, found once."""
        if self._zeros[a] is None:
            raise ContractViolation(f"axis {a} has no node at 0")
        return self._zeros[a]

    def coarsen(self) -> "Grid":
        if any(c % 2 for c in self.n_cells):
            raise ContractViolation("cannot coarsen an odd cell count")
        return Grid(self.box, tuple(c // 2 for c in self.n_cells))


def make_grid(box, n_cells) -> Grid:
    box = np.asarray(box, dtype=float)
    if np.isscalar(n_cells):
        n_cells = (int(n_cells),) * box.shape[0]
    return Grid(box, tuple(n_cells))


def unit_box(dim: int) -> np.ndarray:
    return np.array([[-1.0, 1.0]] * dim)


def _axis_weights(n_nodes: int, h: float) -> np.ndarray:
    w = np.full(n_nodes, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _tensor_sum(values: np.ndarray, weights: Sequence[np.ndarray]) -> float:
    """Contract each axis of values with its 1-D weights, last axis first."""
    out = np.asarray(values, dtype=float)
    for a in range(len(weights) - 1, -1, -1):
        out = np.tensordot(out, weights[a], axes=(a, 0))
    return float(out)


def trapezoid(values: np.ndarray, grid: Grid) -> float:
    """Tensor trapezoid quadrature over the full box."""
    return _tensor_sum(values, [_axis_weights(n, hh) for n, hh in zip(np.shape(values), grid.h)])


def trapezoid_richardson(values: np.ndarray, grid: Grid) -> float:
    """One Richardson level: (4 T(h) - T(2h)) / 3.  Needs even cell counts."""
    t_h = trapezoid(values, grid)
    if any(c % 2 for c in grid.n_cells):
        raise ContractViolation("Richardson level needs even cell counts")
    sub = values[tuple(slice(None, None, 2) for _ in range(values.ndim))]
    t_2h = trapezoid(sub, grid.coarsen())
    return (4.0 * t_h - t_2h) / 3.0


def restricted_trapezoid(values: np.ndarray, grid: Grid, half_axes: Sequence[int]) -> float:
    """Trapezoid over the region {y_a >= 0 for a in half_axes}.

    Implements the correct quadrature of an integrand supported on the closed
    quadrant: the subgrid starting at the 0-node gets its own half-weights on
    the restriction faces (a full-grid trapezoid of the jump-extended
    integrand would only be first-order accurate).
    """
    idx = [slice(None)] * grid.dim
    weights = []
    h = grid.h
    for a in range(grid.dim):
        if a in half_axes:
            i0 = grid.zero_index(a)
            idx[a] = slice(i0, None)
            weights.append(_axis_weights(grid.shape[a] - i0, h[a]))
        else:
            weights.append(_axis_weights(grid.shape[a], h[a]))
    return _tensor_sum(np.asarray(values, dtype=float)[tuple(idx)], weights)


def d1(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order first difference: central interior, one-sided edges."""
    return np.gradient(values, h, axis=axis, edge_order=2)


def d2(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Standard three-point second difference; the two edge rows along `axis`
    are left at zero, so P w vanishes there whatever w does."""
    v = np.asarray(values, dtype=float)
    out = np.zeros_like(v)
    hi = [slice(None)] * v.ndim
    lo = [slice(None)] * v.ndim
    mid = [slice(None)] * v.ndim
    hi[axis] = slice(2, None)
    lo[axis] = slice(None, -2)
    mid[axis] = slice(1, -1)
    out[tuple(mid)] = (v[tuple(hi)] - 2.0 * v[tuple(mid)] + v[tuple(lo)]) / (h * h)
    return out


def d1d1(values: np.ndarray, ax1: int, ax2: int, h1: float, h2: float) -> np.ndarray:
    """Mixed second derivative by successive centered first differences."""
    return d1(d1(values, ax2, h2), ax1, h1)


# ---------------------------------------------------------------------------
# Smooth compactly supported bump machinery
# ---------------------------------------------------------------------------

def _bump(s: np.ndarray, u: Optional[np.ndarray] = None, order: int = 0) -> np.ndarray:
    """exp(-1/s) times its order-th derivative factor in u for s = 1 - |u|^2,
    where s > 1e-8, and zero elsewhere; u is the coordinate differentiated."""
    safe = s > 1e-8
    out = np.zeros_like(s)
    ss = s[safe]
    e = np.exp(-1.0 / ss)
    if order:
        us = u[safe]
        g1 = -2.0 * us / (ss * ss)
        e = e * (g1 if order == 1 else (-2.0 - 6.0 * us * us) / (ss ** 3) + g1 * g1)
    out[safe] = e
    return out


def bump_profiles(u: np.ndarray, radius, order: int) -> np.ndarray:
    """The order-th derivative of y -> bump((y - c) / radius) at the centred,
    scaled coordinates u = (y - c) / radius, where bump(u) = exp(-1/(1-u^2))
    inside |u| < 1.  For a corpus, u is (T, n) and radius (T, 1): one row per
    bump, in one evaluation.  radius ** order is C's pow (np.float_power)
    for an array and a scalar alike, where numpy's ** squares an array by a
    product, so a row has the bits of the one-bump case."""
    return _bump(1.0 - u * u, u, order) / np.float_power(radius, order)


def check_supports_inside(centers: np.ndarray, radii: np.ndarray, box) -> None:
    """Raise SupportError unless every support box [c - r, c + r], one per
    row of the (T, dim) centers and radii, lies inside box (faces included),
    naming the first test function whose support does not."""
    lo, hi = centers - radii, centers + radii
    box = np.asarray(box, dtype=float)
    outside = np.any(lo < box[:, 0], axis=1) | np.any(hi > box[:, 1], axis=1)
    if np.any(outside):
        t = int(np.argmax(outside))
        support = np.stack([lo[t], hi[t]], axis=1).tolist()
        raise SupportError(f"test function {t} has support {support}, which is not inside "
                           f"the working box {box.tolist()}")


class ProductBump:
    """Smooth compactly supported product bump with analytic derivatives.

    value(y) = amp * prod_a bump((y_a - c_a)/r_a); partial derivatives up to
    order 2 per axis come from the closed-form 1-d bump derivatives.
    """

    def __init__(self, center, radius, amplitude: float = 1.0):
        self.center = np.asarray(center, dtype=float)
        self.radius = np.asarray(radius, dtype=float) * np.ones_like(self.center)
        self.amplitude = float(amplitude)
        if np.any(self.radius <= 0):
            raise ContractViolation("bump radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    def check_support_inside(self, box: np.ndarray):
        check_supports_inside(self.center[None], self.radius[None], box)

    def axis_profile(self, coords: np.ndarray, a: int, order: int) -> np.ndarray:
        """The order-th derivative of the bump's axis-a factor at coords: the
        one-row case of bump_profiles."""
        u = (np.asarray(coords, dtype=float) - self.center[a]) / self.radius[a]
        return bump_profiles(u, self.radius[a], order)

    def factors(self) -> list:
        """Per-axis factor triples (f, f', f'') of the bump, as a corner field
        term takes them, with the amplitude carried by axis 0."""
        def factor(a, scale):
            return tuple(lambda u, o=o: scale * self.axis_profile(u, a, o) for o in range(3))
        return [factor(a, self.amplitude if a == 0 else 1.0) for a in range(self.dim)]

    def partial_on_grid(self, grid: Grid, alpha: Sequence[int]) -> np.ndarray:
        alpha = tuple(alpha)
        if len(alpha) != grid.dim or any(o < 0 or o > 2 for o in alpha):
            raise ContractViolation("alpha must give a per-axis order in {0,1,2}")
        out = np.array(self.amplitude)
        for a in range(grid.dim):
            prof = self.axis_profile(grid.axis(a), a, alpha[a])
            out = np.multiply.outer(out, prof)
        return out

    def values_on_grid(self, grid: Grid) -> np.ndarray:
        return self.partial_on_grid(grid, (0,) * grid.dim)

    def __call__(self, y) -> float:
        y = np.asarray(y, dtype=float)
        out = self.amplitude
        for a in range(self.dim):
            out *= float(self.axis_profile(np.array([y[a]]), a, 0)[0])
        return out


def bump_corpus(box, count: int, seed: int) -> list:
    """Reproducible corpus of product bumps supported strictly inside the box,
    at least 0.02 from its faces.

    Each centre is drawn at least its radius plus 0.02 from the faces, which
    places every support inside a box at least 0.08 wide on each axis (a
    radius is at most a quarter of the width), so no bump needs a check.
    """
    box = np.asarray(box, dtype=float)
    width = box[:, 1] - box[:, 0]
    if np.any(width < 0.08):
        raise SupportError(f"box widths {width.tolist()} leave no room for a bump corpus: "
                           f"every axis must be at least 0.08 wide")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        radius = rng.uniform(0.12, 0.25) * width
        lo = box[:, 0] + radius + 0.02
        hi = box[:, 1] - radius - 0.02
        # the draws and the bits of uniform(lo, hi) and choice([-1.0, 1.0]),
        # without their per-call argument handling
        center = lo + (hi - lo) * rng.random(lo.size)
        amp = rng.uniform(0.5, 2.0) * (-1.0, 1.0)[rng.integers(0, 2)]
        out.append(ProductBump(center, radius, amplitude=amp))
    return out


def bump_superposition_values(grid: Grid, count: int, seed: int) -> list:
    """Corpus of grid functions, each a superposition of one to five product
    bumps kept 4% of the box width from its faces."""
    rng = np.random.default_rng(seed)
    box = grid.box
    width = box[:, 1] - box[:, 0]
    out = []
    for _ in range(count):
        k = int(rng.integers(1, 6))
        vals = np.zeros(grid.shape)
        for _ in range(k):
            radius = rng.uniform(0.10, 0.22) * width
            lo = box[:, 0] + radius + 0.04 * width
            hi = box[:, 1] - radius - 0.04 * width
            center = rng.uniform(lo, hi)
            amp = rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])
            vals += ProductBump(center, radius, amplitude=amp).values_on_grid(grid)
        out.append(vals)
    return out
