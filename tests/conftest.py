import numpy as np
import pytest
from hypothesis import settings

from uccert import build_psi, ik_model
from uccert.fields import Chart, Jet

# a failing property prints its @reproduce_failure line, so that an example
# that fails once in many runs can be replayed after the run
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


@pytest.fixture(scope="session")
def ik2():
    return ik_model(2)


@pytest.fixture(scope="session")
def ik3():
    return ik_model(3)


@pytest.fixture(scope="session")
def ik2_fields(ik2):
    psi0, psi1 = build_psi(ik2.geometry)
    return ik2.geometry.Q, psi0, psi1


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def central_difference(fn, x):
    """All partials of fn at the point x by central differences, stacked along
    the last axis; the step is 1e-4 times the coordinate scale, so the O(h^2)
    truncation error is far below the tolerances of the tests that use it.
    The package itself has no finite-difference derivative but its bracket
    oracle, so the tests keep this one as their own independent route."""
    x = np.asarray(x, dtype=float)
    h = 1e-4 * max(1.0, float(np.max(np.abs(x))))
    return np.stack([(fn(x + h * e) - fn(x - h * e)) / (2.0 * h) for e in np.eye(x.size)], axis=-1)


def fd_hess(f, x):
    """Hessian of a scalar function at x by central differences of its central
    differences, symmetrized: a route that reads the values only."""
    m = central_difference(lambda p: central_difference(f, p), x)
    return 0.5 * (m + m.T)


def linear_chart(a):
    """The chart y -> a y, written on jets."""
    a = np.asarray(a, dtype=float)

    def forward_jet(y):
        v = Jet.variables(y, 2)
        return [sum(a[i, j] * v[j] for j in range(len(v))) for i in range(len(a))]

    return Chart(forward_jet, lambda x: np.linalg.solve(a, x))
