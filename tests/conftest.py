import pytest

import trisect.curves as cv
from trisect.selftest import reference_curve


@pytest.fixture(scope="session")
def jac2():
    curve = reference_curve(2)
    periods = cv.period_matrix(curve)
    kappa, _ = cv.riemann_constant(curve, periods)
    return curve, periods, kappa


@pytest.fixture(scope="session")
def jac3():
    curve = reference_curve(3)
    periods = cv.period_matrix(curve)
    kappa, _ = cv.riemann_constant(curve, periods)
    return curve, periods, kappa


@pytest.fixture(scope="session")
def jac4():
    curve = reference_curve(4)
    periods = cv.period_matrix(curve)
    kappa, _ = cv.riemann_constant(curve, periods)
    return curve, periods, kappa


@pytest.fixture(scope="session")
def jac5():
    curve = reference_curve(5)
    periods = cv.period_matrix(curve)
    kappa, _ = cv.riemann_constant(curve, periods)
    return curve, periods, kappa
