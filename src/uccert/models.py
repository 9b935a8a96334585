"""Ready-made geometries: the double light-cone model and its negative controls.

The reference model lives in R x R^d coordinates x = (t, y): the flat
wave-type matrix diag(-1, I_d) together with the two cone surfaces
|y| - 1 -+ t.  Its certification constants have closed forms, recorded in
``known_constants`` so the toolkit can be validated against them.  Negative
controls perturb exactly one hypothesis each.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import ChartError, ContractViolation
from .fields import (Chart, Jet, MetricField, ScalarField, constant_metric,
                     linear_combination, squared_field)
from .hypotheses import GeometrySpec, build_psi


def cone_surface_field(d: int, radial_sign: float, t_coeff: float) -> ScalarField:
    """Scalar field  s*(|y| - 1) + a*t  on R x R^d, as a closed-form jet."""
    s, a = float(radial_sign), float(t_coeff)
    eye = np.eye(d)

    def jet(x, order):
        y = x[..., 1:]
        r = np.sqrt(np.vecdot(y, y))    # on one point, bit for bit np.linalg.norm(y)
        value = s * (r - 1.0) + a * x[..., 0]
        if order == 0:
            return value
        g = np.empty(x.shape)
        g[..., 0] = a
        g[..., 1:] = s * y / r[..., None]
        if order == 1:
            return Jet(value, g)
        yhat = y / r[..., None]
        h = np.zeros(x.shape + (d + 1,))
        h[..., 1:, 1:] = s * (eye - yhat[..., :, None] * yhat[..., None, :]) / r[..., None, None]
        return Jet(value, g, h)

    return ScalarField(jet, name=f"{s:+g}*(|y|-1){a:+g}*t")


def _default_box(d: int) -> np.ndarray:
    box = np.tile((-0.4, 0.4), (d + 1, 1))
    box[1] = (0.6, 1.4)
    return box


def _wave_metric(d: int) -> MetricField:
    """The flat wave-type matrix diag(-1, I_d)."""
    return constant_metric(np.diag([-1.0] + [1.0] * d), name=f"wave{d}")


@dataclass(frozen=True)
class ModelSpec:
    name: str
    d: int
    geometry: GeometrySpec
    x0: np.ndarray
    known_constants: dict = dc_field(default_factory=dict)
    designated_failure: Optional[str] = None


def ik_model(d: int, n_surface_samples: int = 200) -> ModelSpec:
    """Flat double-cone model in d space dimensions.

    Closed-form constants at the base point x0 = (0, e_1):
    <Q dphi_plus, dphi_minus> = 2 on the intersection, the constrained
    drift floor m0 = sqrt(2), the bending threshold lambda0 = 1, and the
    certification margin -6 at lambda = 2.  All are dimension-independent.
    """
    if d < 2:
        raise ContractViolation("need d >= 2: the surface intersection degenerates below")
    geo = GeometrySpec(_wave_metric(d), cone_surface_field(d, +1.0, -1.0),
                       cone_surface_field(d, +1.0, +1.0), _default_box(d),
                       n_surface_samples=n_surface_samples, name=f"ik{d}")
    constants = {
        "sign_condition_value": 2.0,
        "m0": float(np.sqrt(2.0)),
        "lambda0": 1.0,
        "margin_at_lambda_2": -6.0,
        "tangent_curvature_at_lambda_2": -3.0,
        "tangent_curvature_surface_only": 1.0,
    }
    return ModelSpec(f"ik{d}", d, geo, np.eye(d + 1)[1], constants)


def negative_controls(n_surface_samples: int = 200) -> list:
    """Controls in d = 2 that each violate exactly one standing assumption.

    ctrl-a: second surface |y|-1+2t is not characteristic (raw residual -3);
            the sign pairing becomes +3, so only the characteristic check fails.
    ctrl-b: second surface is the negation of the first; the gradients are
            parallel, so only transversality fails (the sign pairing is not
            evaluable at non-transversal points and is reported as skipped).
    ctrl-c: second surface negated in the radial part flips the sign pairing
            to -2 while staying characteristic and transversal.
    """
    d = 2
    q = _wave_metric(d)
    phi_plus = cone_surface_field(d, +1.0, -1.0)
    box = _default_box(d)

    variants = [
        ("ctrl-a", cone_surface_field(d, +1.0, +2.0), "characteristic_minus"),
        ("ctrl-b", cone_surface_field(d, -1.0, +1.0), "transversality"),
        ("ctrl-c", cone_surface_field(d, -1.0, -1.0), "sign_condition"),
    ]
    out = []
    for name, phi_minus, failure in variants:
        geo = GeometrySpec(q, phi_plus, phi_minus, box,
                           n_surface_samples=n_surface_samples, name=name)
        out.append(ModelSpec(name, d, geo, np.eye(d + 1)[1],
                             known_constants={}, designated_failure=failure))
    return out


def get_model(name: str, n_surface_samples: int = 200) -> ModelSpec:
    """Resolve a model by CLI name: ik2, ik3, ..., ctrl-a, ctrl-b, ctrl-c."""
    if name.startswith("ik"):
        try:
            d = int(name[2:])
        except ValueError:
            raise ContractViolation(f"unknown model {name!r}")
        return ik_model(d, n_surface_samples=n_surface_samples)
    for m in negative_controls(n_surface_samples=n_surface_samples):
        if m.name == name:
            return m
    raise ContractViolation(f"unknown model {name!r}")


def flattening_chart(model: ModelSpec, x0) -> Chart:
    """Chart whose first two coordinates are the two surface functions.

    Valid near a point of the surface intersection.  The remaining
    coordinates parametrize the sphere direction around the base direction
    (projective angles), which keeps the chart smooth away from y = 0.  In
    the pulled-back coefficient matrix the (1,1) and (2,2) entries vanish on
    the whole chart domain because both cone functions solve the eikonal
    equation globally.  The inverse covers the open half-space of points
    whose spatial part has a positive component along the base direction,
    and raises ChartError elsewhere.
    """
    x0 = np.asarray(x0, dtype=float)
    geo = model.geometry
    if abs(geo.phi_plus(x0)) > 1e-8 or abs(geo.phi_minus(x0)) > 1e-8:
        raise ContractViolation("chart base point must lie on the surface intersection")
    d = model.d
    y0 = x0[1:]
    yhat0 = y0 / np.linalg.norm(y0)
    # orthonormal completion of yhat0
    basis = np.linalg.svd(yhat0.reshape(1, -1))[2][1:]

    def forward_jet(y):
        y1, y2, *z = Jet.variables(y, 2)
        r = 1.0 + 0.5 * (y1 + y2)
        w = [yhat0[a] + sum(basis[i, a] * z[i] for i in range(d - 1)) for a in range(d)]
        scale = r * sum(c * c for c in w) ** -0.5
        return [0.5 * (y2 - y1)] + [scale * c for c in w]

    def inverse(x):
        t, yy = x[0], x[1:]
        along = float(yy @ yhat0)
        if not along > 0.0:
            raise ChartError(f"{x} is not in the chart's half-space: its spatial part has "
                             f"component {along:.3e} along the base direction")
        r = np.linalg.norm(yy)
        direction = yy / r
        out = np.empty(d + 1)
        out[0] = r - 1.0 - t
        out[1] = r - 1.0 + t
        out[2:] = (basis @ direction) / float(direction @ yhat0)
        return out

    return Chart(forward_jet, inverse, name=f"flatten-{model.name}")


def carleman_section(lam: float = 2.0):
    """One-time-plus-one-space section of the model for the weighted sweep.

    Returns (Q, bent_field, box): the 2-d wave form diag(-1, 1), the bent
    surface field psi1 - lam * psi0^2 restricted to the section (smooth on
    the box, which stays away from y = 0), and the working box around the
    point (0, 1) where the surfaces cross.
    """
    q = _wave_metric(1)
    box = np.array([[-0.4, 0.4], [0.6, 1.4]])
    psi0, psi1 = build_psi(GeometrySpec(q, cone_surface_field(1, +1.0, -1.0),
                                        cone_surface_field(1, +1.0, +1.0), box))
    bent = linear_combination([(1.0, psi1), (-float(lam), squared_field(psi0))],
                              name=f"bent_2d(lam={lam:g})")
    return q, bent, box


def bumpy_wave_metric(d: int, amp: float = 0.05, seed: int = 11) -> MetricField:
    """Variable-coefficient matrix with guaranteed wave signature.

    Q(x) = L(x)^T D L(x) with D = diag(-1, I_d) and L(x) = I + amp * W(x),
    W linear in x with fixed pseudo-random coefficient slabs.  Congruence
    preserves the signature wherever L is invertible; derivatives are exact.
    """
    n = d + 1
    rng = np.random.default_rng(seed)
    slabs = rng.uniform(-0.5, 0.5, size=(n, n, n))   # slabs[j] = dW/dx_j
    dmat = np.diag(np.concatenate([[-1.0], np.ones(d)]))
    dl = amp * slabs                                  # dl[j] = dL/dx_j

    def jet(x, order):
        # W(x) as one vector-matrix product per row, so that a batch row is
        # bit for bit its point
        w = (x[..., None, :] @ slabs.reshape(n, n * n))[..., 0, :].reshape(x.shape[:-1] + (n, n))
        l = np.eye(n) + amp * w
        ltd = np.swapaxes(l, -1, -2) @ dmat
        q = ltd @ l
        if order == 0:
            return q
        # dQ/dx_j = dL_j^T D L + L^T D dL_j, axis j ahead of the matrix axes
        return q, np.swapaxes(dl, -1, -2) @ dmat @ l[..., None, :, :] + ltd[..., None, :, :] @ dl

    return MetricField(n, jet, name=f"bumpy_wave{d}(amp={amp:g})")
