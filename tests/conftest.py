import math

import pytest

from lvsync import (
    Grid,
    ModelParams,
    solve_logistic,
    synchronized_state,
    verify_theorem,
)


@pytest.fixture(scope="session")
def grid200():
    return Grid("interval", (math.pi,), (200,))


@pytest.fixture(scope="session")
def grid400():
    return Grid("interval", (math.pi,), (400,))


@pytest.fixture(scope="session")
def theta200(grid200):
    return solve_logistic(grid200, 2.0, tol=1e-10)


@pytest.fixture(scope="session")
def theta400(grid400):
    return solve_logistic(grid400, 2.0, tol=1e-10)


@pytest.fixture(scope="session")
def params_default():
    return ModelParams(a=2.0, b=0.5, c=1.0)


@pytest.fixture(scope="session")
def steady200(params_default, theta200):
    return synchronized_state(params_default, theta200)


@pytest.fixture(scope="session")
def report200(params_default, grid200):
    return verify_theorem(params_default, grid200, 6, tol=1e-10)
