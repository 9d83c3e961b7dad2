import numpy as np
import pytest

import trisect.curves as cv
import trisect.gamma00 as g00
import trisect.geometry as geo
import trisect.secants as sec
from trisect.errors import InvalidInput, PreconditionFailed
from trisect.theta import RiemannMatrix, theta_batch, second_order_basis
from trisect.curves import random_curve_point

TAU2 = np.array([[1.0j, 0.3 + 0.1j], [0.3 + 0.1j, 0.2 + 1.5j]])


class TestSections:

    def test_addition_identity(self):
        """The coefficient vector of s_x pairs with the basis at z to give
        theta(z+x) theta(z-x)."""
        rm = RiemannMatrix(TAU2)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2) * 0.3 + 0.2j * rng.standard_normal(2)
        (s,), _, _ = second_order_basis(rm, x)
        for _ in range(4):
            z = rng.standard_normal(2) * 0.3 + 0.2j * rng.standard_normal(2)
            (basis,), _, _ = second_order_basis(rm, z)
            lhs = complex(np.sum(s * basis))
            (tp,), _, _ = theta_batch(rm, z + x)
            (tm,), _, _ = theta_batch(rm, z - x)
            rhs = complex(tp) * complex(tm)
            assert abs(lhs - rhs) < 1e-9 * abs(rhs)

    def test_even_in_x(self):
        rm = RiemannMatrix(TAU2)
        x = np.array([0.2 + 0.1j, -0.3 + 0.2j])
        (sp,), _, _ = second_order_basis(rm, x)
        (sm,), _, _ = second_order_basis(rm, -x)
        assert np.max(np.abs(sp - sm)) < 1e-10 * np.max(np.abs(sp))

    def test_zero_section_rejected(self):
        with pytest.raises(InvalidInput):
            g00.SectionCoefficients(np.zeros(4))


class TestTaylorConditions:

    def test_linearity(self):
        rm = RiemannMatrix(TAU2)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        ca = g00.taylor_conditions(rm, a).values
        cb = g00.taylor_conditions(rm, b).values
        cab = g00.taylor_conditions(rm, 2.0 * a - 3.0j * b).values
        assert np.allclose(cab, 2.0 * ca - 3.0j * cb, rtol=1e-12)

    def test_value_row_vanishes_on_theta(self):
        """For x on the divisor, s_x(0) = theta(x) theta(-x) = 0; the value
        entry of the conditions drops while Hessian entries stay generic."""
        rm = RiemannMatrix(TAU2)
        rng = np.random.default_rng(2)
        x = geo.theta_divisor_point(rm, rng)
        (s,), _, _ = second_order_basis(rm, x)
        conds = g00.taylor_conditions(rm, s)
        norm = np.linalg.norm(s)
        assert abs(conds.values[0]) < 1e-8 * norm
        assert np.max(np.abs(conds.values[1:])) > 1e-4 * norm

    def test_generic_section_violates_conditions(self):
        rm = RiemannMatrix(TAU2)
        x = np.array([0.21 + 0.13j, -0.17 + 0.08j])
        (s,), _, _ = second_order_basis(rm, x)
        assert g00.taylor_conditions(rm, s).relative_residual > 1e-4

    def test_singular_point_gives_order_4(self, jac3):
        """s_x for a double point x of the theta divisor lies in the
        order-4 subspace: value, gradient and Hessian of theta vanish at
        x, killing the whole second-order Taylor expansion of s_x at 0."""
        curve, periods, kappa = jac3
        p = curve.point(1.8 + 0.7j, 1)
        d = cv.Divisor.of(p, cv.involution(p))
        x = cv.abel_jacobi_divisor(curve, d, periods) - kappa
        (s,), _, _ = second_order_basis(periods.tau, x.z)
        conds = g00.taylor_conditions(periods.tau, s)
        assert conds.relative_residual < 1e-9

    def test_random_smooth_points_not_in_gamma00(self, jac3):
        _, periods, kappa = jac3
        rm = periods.tau
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = geo.theta_divisor_point(rm, rng)
            (s,), _, _ = second_order_basis(rm, x)
            assert g00.taylor_conditions(rm, s).relative_residual > 1e-5


class TestDimension:

    @pytest.mark.parametrize("g,expected", [(2, 0), (3, 1), (4, 5)])
    def test_exact_dimensions(self, g, expected, jac2, jac3, jac4):
        _, periods, _ = {2: jac2, 3: jac3, 4: jac4}[g]
        dim, nullspace, cert = g00.gamma00_dimension(periods.tau)
        assert dim == expected
        assert nullspace.shape == (2 ** g, expected)
        assert cert.decided_rank == 2 ** g - expected

    def test_nullspace_satisfies_conditions(self, jac4):
        _, periods, _ = jac4
        dim, nullspace, _ = g00.gamma00_dimension(periods.tau)
        for k in range(dim):
            conds = g00.taylor_conditions(periods.tau, nullspace[:, k])
            assert conds.relative_residual < 1e-9


class TestCombination:

    def test_lambda_is_gamma_squared(self, jac3):
        """For two fiber points with one Gauss image, the combination with
        lambda = gamma^2 vanishes to order 4."""
        curve, periods, kappa = jac3
        sample = cv.sample_B_ell(curve, 3, seed=31)
        p, q, r, s = sample.labeled_pqrs
        x1 = cv.abel_jacobi_divisor(curve, cv.Divisor.of(p, r),
                                    periods) - kappa
        x2 = cv.abel_jacobi_divisor(curve, cv.Divisor.of(p, s),
                                    periods) - kappa
        combo, lam, gamma, conds = g00.gamma00_combination(periods.tau,
                                                           x1, x2)
        assert lam == pytest.approx(gamma ** 2)
        assert conds.relative_residual < 1e-8

    def test_trivial_pair(self):
        """x2 = -x1 gives gamma = -1 (odd gradient), lambda = 1, and the
        combination degenerates to the zero section."""
        rm = RiemannMatrix(TAU2)
        rng = np.random.default_rng(5)
        x = geo.theta_divisor_point(rm, rng)
        combo, lam, gamma, _ = g00.gamma00_combination(rm, x, -np.asarray(x))
        assert gamma == pytest.approx(-1.0, abs=1e-9)
        assert lam == pytest.approx(1.0, abs=1e-9)
        (s,), _, _ = second_order_basis(rm, x)
        scale = np.linalg.norm(s)
        assert np.linalg.norm(combo.coeffs) < 1e-10 * scale

    def test_equal_sections_cancel_to_the_zero_section(self):
        # the pair x, -x: equal sections and opposite gradients give
        # gamma = -1, lambda = 1 and an exactly zero combination
        rm = RiemannMatrix(TAU2)
        rng = np.random.default_rng(8)
        grad = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        section = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        combo, lam, gamma, conds = g00._combination(
            rm, np.stack([grad, -grad]), np.stack([section, section]))
        assert gamma == -1.0 and lam == 1.0
        assert not np.any(combo.coeffs)
        assert not np.any(conds.values)
        assert conds.relative_residual == 0.0

    def test_different_gauss_images_rejected(self, jac3):
        curve, periods, kappa = jac3
        rng = np.random.default_rng(6)
        pts = [random_curve_point(curve, rng) for _ in range(4)]
        x1 = cv.abel_jacobi_divisor(curve, cv.Divisor.of(*pts[:2]),
                                    periods) - kappa
        x2 = cv.abel_jacobi_divisor(curve, cv.Divisor.of(*pts[2:]),
                                    periods) - kappa
        with pytest.raises(PreconditionFailed):
            g00.gamma00_combination(periods.tau, x1, x2)


class TestTrisecantCriterion:

    def test_trisecant_scores_one(self, jac3):
        curve, periods, kappa = jac3
        sample = cv.sample_B_ell(curve, 3, seed=99)
        tri = sec.theta_trisecant_construct(curve, periods, sample, kappa)
        dim, info = g00.trisecant_gamma00_test(periods.tau, tri.a.z,
                                               tri.b.z, tri.c.z)
        assert dim == 1
        assert info["span_rank"] >= 2

    def test_random_divisor_triple_scores_zero(self, jac3):
        curve, periods, kappa = jac3
        rm = periods.tau
        rng = np.random.default_rng(8)
        xs = [geo.theta_divisor_point(rm, rng) for _ in range(3)]
        dim, info = g00.trisecant_gamma00_test(rm, *xs)
        assert dim == 0
        assert not info["degenerate_span"]

    def test_generic_triple_scores_zero(self, jac3):
        _, periods, _ = jac3
        rng = np.random.default_rng(9)
        xs = [rng.standard_normal(3) * 0.3 + 0.2j * rng.standard_normal(3)
              for _ in range(3)]
        dim, _ = g00.trisecant_gamma00_test(periods.tau, *xs)
        assert dim == 0


class TestFiberSpan:

    def test_g3_span_fills_gamma00(self, jac3):
        curve, periods, kappa = jac3
        sample = cv.sample_B_ell(curve, 3, seed=13)
        inner, outer, total, details = g00.span_VpWp(curve, periods,
                                                     sample, kappa)
        assert total == 1
        assert inner == 1
        assert outer == 1
        assert details["n_fiber_entries"] == 6
        assert details["n_special"] == 2
