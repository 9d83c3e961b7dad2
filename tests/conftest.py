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


def random_curve_point(curve, rng):
    x = (rng.uniform(curve.roots[0] + 0.3, curve.roots[-1] - 0.3)
         + 1j * rng.uniform(0.3, 0.3 * curve.span))
    return curve.point(x, 1 if rng.integers(2) == 0 else -1)
