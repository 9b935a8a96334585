import numpy as np
import pytest
from hypothesis import settings

from uccert import build_psi, ik_model

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
