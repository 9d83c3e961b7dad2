import functools

import pytest

import trisect.curves as cv
from trisect.selftest import reference_curve


@functools.cache
def jacobian(genus):
    """(curve, periods, kappa) of the reference curve of this genus."""
    curve = reference_curve(genus)
    periods = cv.period_matrix(curve)
    kappa, _ = cv.riemann_constant(curve, periods)
    return curve, periods, kappa


@pytest.fixture(scope="session")
def jac2():
    return jacobian(2)


@pytest.fixture(scope="session")
def jac3():
    return jacobian(3)


@pytest.fixture(scope="session")
def jac4():
    return jacobian(4)


@pytest.fixture(scope="session")
def jac5():
    return jacobian(5)
