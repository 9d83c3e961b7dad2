import sys

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from trisect.errors import InvalidInput
from trisect.theta import (RiemannMatrix, HalfCharacteristic, theta,
                           theta_batch, theta_gradient, theta_hessian,
                           second_order_basis,
                           all_epsilons, eps_from_index, index_from_eps)

TAU1 = np.array([[1.0j]])
TAU2 = np.array([[1.0j, 0.3 + 0.1j], [0.3 + 0.1j, 0.2 + 1.5j]])
TAU3 = np.array([[1.2j, 0.2 + 0.1j, -0.1],
                 [0.2 + 0.1j, 1.5j, 0.3 + 0.2j],
                 [-0.1, 0.3 + 0.2j, 0.1 + 1.8j]])


def brute_theta(tau, z, a=None, b=None, box=12, deriv=0):
    """Independent oracle: direct box sum over the integer lattice.

    deriv=2 gives the z-Hessian, the sum weighted by (2 pi i)^2 n n^T.
    """
    tau = np.asarray(tau, dtype=complex)
    z = np.asarray(z, dtype=complex)
    g = len(z)
    a = np.zeros(g) if a is None else np.asarray(a, dtype=float)
    b = np.zeros(g) if b is None else np.asarray(b, dtype=float)
    ranges = [np.arange(-box, box + 1)] * g
    grids = np.meshgrid(*ranges, indexing="ij")
    n = np.stack([grid.ravel() for grid in grids], axis=1) + a
    expo = (1j * np.pi * np.einsum("tg,gh,th->t", n, tau, n)
            + 2j * np.pi * n @ (z + b))
    terms = np.exp(expo)
    if deriv == 2:
        return (2j * np.pi) ** 2 * np.einsum("t,tg,th->gh", terms, n, n)
    return complex(np.sum(terms))


def second_order_theta(tau, z, eps, deriv=0):
    """Oracle: theta[eps/2, 0](2 tau, 2 z) as a box sum on the matrix 2 tau.

    deriv=2 gives its z-Hessian, 4 x the Hessian of theta(2 tau) at 2 z.
    """
    value = brute_theta(2.0 * np.asarray(tau), 2.0 * np.asarray(z),
                        a=np.asarray(eps) / 2.0, deriv=deriv)
    return value if deriv == 0 else 4.0 * value


class TestAgainstBruteForce:

    @pytest.mark.parametrize("tau", [TAU1, TAU2, TAU3],
                             ids=["g1", "g2", "g3"])
    def test_value_matches_box_sum(self, tau):
        rng = np.random.default_rng(len(tau))
        z = rng.standard_normal(len(tau)) * 0.4 \
            + 0.2j * rng.standard_normal(len(tau))
        expected = brute_theta(tau, z)
        got = theta(tau, z, tol=1e-12)
        assert abs(got.value - expected) < 1e-11 * max(abs(expected), 1.0)

    def test_characteristics_match_box_sum(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal(2) * 0.3 + 0.2j * rng.standard_normal(2)
        for eps_p in all_epsilons(2):
            for eps_pp in all_epsilons(2):
                char = HalfCharacteristic(eps_p, eps_pp)
                expected = brute_theta(TAU2, z, a=char.a, b=char.b)
                got = theta(TAU2, z, char=char, tol=1e-12)
                assert abs(got.value - expected) < 1e-10

    def test_known_value_lemniscatic(self):
        # theta(0; tau=i) = pi^(1/4) / Gamma(3/4)
        expected = np.pi ** 0.25 / gamma_fn(0.75)
        got = theta(TAU1, [0.0], tol=1e-13)
        assert got.value == pytest.approx(expected, abs=1e-12)

    def test_far_argument_reduced_exactly(self):
        z = np.array([0.13 + 0.07j, -0.2 + 0.11j])
        m = np.array([2.0, -3.0])
        p = np.array([1.0, 2.0])
        shift = m + TAU2 @ p
        direct = theta(TAU2, z + shift, tol=1e-12).value
        factor = np.exp(-1j * np.pi * (p @ TAU2 @ p) - 2j * np.pi * (p @ z))
        base = theta(TAU2, z, tol=1e-12).value
        assert abs(direct - factor * base) < 1e-12 * abs(factor * base)


class TestParityAndIdentities:

    @pytest.mark.parametrize("tau", [TAU2, TAU3], ids=["g2", "g3"])
    def test_all_characteristic_parities(self, tau):
        g = len(tau)
        rng = np.random.default_rng(g)
        z = rng.standard_normal(g) * 0.3 + 0.2j * rng.standard_normal(g)
        origin = np.zeros(g)
        for eps_p in all_epsilons(g):
            for eps_pp in all_epsilons(g):
                char = HalfCharacteristic(eps_p, eps_pp)
                vp, _, _ = theta_batch(tau, z, char=char)
                vm, _, _ = theta_batch(tau, -z, char=char)
                sign = (-1.0) ** char.parity
                assert abs(vm - sign * vp) < 1e-9 * max(abs(vp), 1e-6)
                if char.parity == 1:
                    v0, _, _ = theta_batch(tau, origin, char=char)
                    assert abs(v0) < 1e-10

    def test_addition_formula(self):
        rng = np.random.default_rng(11)
        rm = RiemannMatrix(TAU3)
        Z = rng.standard_normal((30, 3)) + 0.2j * rng.standard_normal((30, 3))
        W = rng.standard_normal((30, 3)) + 0.2j * rng.standard_normal((30, 3))
        lhs = np.einsum("ne,ne->n", second_order_basis(rm, Z),
                        second_order_basis(rm, W))
        tp, _, _ = theta_batch(rm, Z + W)
        tm, _, _ = theta_batch(rm, Z - W)
        assert np.max(np.abs(lhs - tp * tm) / np.abs(tp * tm)) < 1e-9

    @pytest.mark.parametrize("deriv", [0, 2])
    @pytest.mark.parametrize("tau", [TAU2, TAU3], ids=["g2", "g3"])
    def test_second_order_basis_matches_delegation(self, tau, deriv):
        g = len(tau)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(g) * 0.3 + 0.2j * rng.standard_normal(g)
        m = np.array([2.0, -1.0, 3.0])[:g]
        p = np.array([1.0, -2.0, -1.0])[:g]
        # a tau/2-lattice reduction would permute the parity classes at the
        # half-period shift, whose tau/2 coordinates p are odd
        for arg in (z, z + m + tau @ p, z + tau @ p / 2.0):
            basis = second_order_basis(tau, arg, deriv=deriv)
            expected = np.array([second_order_theta(tau, arg, eps, deriv)
                                 for eps in all_epsilons(g)])
            assert np.max(np.abs(basis - expected)) \
                < 1e-10 * np.max(np.abs(expected))


class TestDerivatives:

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(5):
            z = rng.standard_normal(2) * 0.4 + 0.2j * rng.standard_normal(2)
            grad = theta_gradient(TAU2, z)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (theta(TAU2, z + e).value
                      - theta(TAU2, z - e).value) / (2 * h)
                assert abs(fd - grad[i]) < 1e-8 * max(abs(grad[i]), 1.0)

    def test_hessian_vs_gradient_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-5
        z = rng.standard_normal(2) * 0.4 + 0.2j * rng.standard_normal(2)
        hess = theta_hessian(TAU2, z)
        assert np.allclose(hess, hess.T)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (theta_gradient(TAU2, z + e)
                  - theta_gradient(TAU2, z - e)) / (2 * h)
            assert np.max(np.abs(fd - hess[i])) \
                < 1e-7 * max(np.max(np.abs(hess[i])), 1.0)

    def test_gradient_at_far_argument(self):
        # derivative picks up the extra prefactor term under reduction
        z = np.array([0.1 + 0.05j, 0.2 - 0.1j])
        p = np.array([0.0, 1.0])
        shift = TAU2 @ p
        h = 1e-6
        grad = theta_gradient(TAU2, z + shift)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (theta(TAU2, z + shift + e).value
                  - theta(TAU2, z + shift - e).value) / (2 * h)
            assert abs(fd - grad[i]) < 1e-6 * max(abs(grad[i]), 1.0)


class TestErrorControl:

    def test_tail_bound_is_honest(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            z = rng.standard_normal(3) * 0.5 + 0.3j * rng.standard_normal(3)
            loose = theta(TAU3, z, tol=1e-6)
            tight = theta(TAU3, z, tol=1e-13)
            assert abs(loose.value - tight.value) <= loose.bound_on_tail \
                + 1e-13 * abs(tight.value)
            assert loose.bound_on_tail < 1e-6

    def test_tolerance_validation(self):
        with pytest.raises(InvalidInput):
            theta(TAU2, [0.0, 0.0], tol=1e-20)
        with pytest.raises(InvalidInput):
            theta(TAU2, [0.0, 0.0], tol=0.5)

    def test_riemann_matrix_validation(self):
        with pytest.raises(InvalidInput):
            RiemannMatrix(np.array([[1.0j, 0.5], [0.2, 1.0j]]))
        with pytest.raises(InvalidInput):
            RiemannMatrix(np.array([[-1.0j]]))
        with pytest.raises(InvalidInput):
            theta(TAU2, [0.0, 0.0, 0.0])
        for bad in ([np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(InvalidInput):
                second_order_basis(TAU2, bad)

    def test_lattice_points_prefix_matches_fresh_enumeration(self):
        grown = RiemannMatrix(TAU3)
        grown.lattice_points(4.0)
        for radius in (1.3, 2.6):
            fresh = RiemannMatrix(TAU3).lattice_points(radius)
            got = grown.lattice_points(radius)
            assert len(got) == len(fresh)
            assert {tuple(n) for n in got} == {tuple(n) for n in fresh}

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    def test_blocked_sums_match_one_block(self, monkeypatch, deriv):
        # blocks of two or three points split every class of the sums and
        # every enumeration of the point set into many slabs
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        points = RiemannMatrix(TAU3).lattice_points(3.0)
        whole = (theta_batch(TAU3, Z, deriv=deriv)[0],
                 second_order_basis(TAU3, Z, deriv=deriv))
        theta_module = sys.modules[RiemannMatrix.__module__]
        monkeypatch.setattr(theta_module, "_BLOCK", 40)
        np.testing.assert_array_equal(
            RiemannMatrix(TAU3).lattice_points(3.0), points)
        blocked = (theta_batch(TAU3, Z, deriv=deriv)[0],
                   second_order_basis(TAU3, Z, deriv=deriv))
        for got, want in zip(blocked, whole):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)))


#: unimodular U (det 1); tau' = U^T tau U is the same lattice in a skewed
#: basis, on which the +-1 box overestimates the shortest vector
UNIMODULAR = [[[3, 1], [2, 1]], [[5, 2], [2, 1]], [[1, -3], [0, 1]],
              [[0, 1], [-1, 0]]]


class TestSkewedTau:

    @pytest.mark.parametrize("U", UNIMODULAR, ids=lambda u: str(u))
    def test_rho_invariant_under_unimodular_change(self, jac2, U):
        tau = jac2[1].tau.entries
        U = np.asarray(U)
        skewed = RiemannMatrix(U.T @ tau @ U)
        # oracle: the shortest sqrt(pi n^T Y n) over a wide box
        box = np.stack(np.meshgrid(*[np.arange(-8, 9)] * 2,
                                   indexing="ij"), axis=-1).reshape(-1, 2)
        box = box[np.any(box != 0, axis=1)]
        shortest = np.sqrt(np.pi * np.min(np.einsum(
            "ng,gh,nh->n", box, tau.imag, box)))
        assert RiemannMatrix(tau)._rho == pytest.approx(shortest, rel=1e-13)
        assert skewed._rho == pytest.approx(shortest, rel=1e-13)

    @pytest.mark.parametrize("U", UNIMODULAR, ids=lambda u: str(u))
    def test_theta_invariant_under_unimodular_change(self, jac2, U):
        # theta(z; tau) = theta(U^T z; U^T tau U), summed as n = U k
        tau = jac2[1].tau.entries
        U = np.asarray(U)
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((6, 2)) + 0.4j * rng.standard_normal((6, 2))
        want, _, tail = theta_batch(tau, Z)
        got, _, tail_skewed = theta_batch(U.T @ tau @ U, Z @ U)
        rounding = 1e-13 * np.max(np.abs(want))
        assert np.all(np.abs(got - want) <= tail + tail_skewed + rounding)


class TestCharacteristicIndexing:

    def test_lexicographic_order(self):
        assert all_epsilons(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_index_roundtrip(self):
        for g in (1, 2, 3, 4):
            for idx in range(2 ** g):
                assert index_from_eps(eps_from_index(idx, g)) == idx

    def test_characteristic_validation(self):
        with pytest.raises(InvalidInput):
            HalfCharacteristic((0, 2), (0, 0))
        with pytest.raises(InvalidInput):
            HalfCharacteristic((0, 1), (0,))
