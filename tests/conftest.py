import math

import pytest
import scipy.sparse.linalg as spla

from lvsync import (
    Field,
    Grid,
    ModelParams,
    solve_logistic,
    synchronized_state,
    verify_theorem,
)
from lvsync.linstab import coupled_window, predicted_spectrum, theta_half


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


@pytest.fixture(scope="session")
def predicted_window():
    """window(grid, params, k): verify's coupled window for k = 2·(k / 2) coupled
    values at the synchronized state, from the prediction of both families."""
    def window(grid, params, k):
        half = theta_half(Field.constant(grid, params.a), grid, k // 2, tol=1e-10)
        _, spectra = predicted_spectrum(grid, half.logistic.a, half.logistic.theta,
                                        params.b, params.c, half.two, tol=1e-10)
        return coupled_window(k, spectra)

    return window


@pytest.fixture(params=["schur-reordering", "no-convergence"])
def arpack_error(request):
    """Each way ARPACK itself fails: dneupd's error 1, seen on two 2D locus
    draws of the coupled solve, and no convergence, a subclass."""
    if request.param == "schur-reordering":
        return spla.ArpackError(1, {1: "The Schur form computed by LAPACK routine dlahqr "
                                       "could not be reordered by LAPACK routine dtrsen."})
    return spla.ArpackNoConvergence(
        "No convergence (301 iterations, 0/12 eigenvectors converged)", [], [])
