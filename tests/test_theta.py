import functools
import itertools
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as gamma_fn, gammaincc

from trisect.curves import period_matrix
from trisect.errors import InvalidInput
from trisect.selftest import reference_curve
from trisect.theta import (RiemannMatrix, HalfCharacteristic, theta_batch,
                           second_order_basis,
                           all_epsilons, eps_from_index, index_from_eps,
                           DEFAULT_THETA_TOL, _gammaincc_half,
                           _nearest_translates, _pick_radius, _series,
                           _theta)

TAU1 = np.array([[1.0j]])
TAU2 = np.array([[1.0j, 0.3 + 0.1j], [0.3 + 0.1j, 0.2 + 1.5j]])
TAU3 = np.array([[1.2j, 0.2 + 0.1j, -0.1],
                 [0.2 + 0.1j, 1.5j, 0.3 + 0.2j],
                 [-0.1, 0.3 + 0.2j, 0.1 + 1.8j]])


def brute_theta(tau, z, a=None, b=None, box=12, deriv=0):
    """Independent oracle: direct box sum over the integer lattice.

    deriv=1 gives the z-gradient, the sum weighted by 2 pi i n, and deriv=2
    the z-Hessian, the sum weighted by (2 pi i)^2 n n^T.
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
    if deriv == 1:
        return 2j * np.pi * terms @ n
    if deriv == 2:
        return (2j * np.pi) ** 2 * np.einsum("t,tg,th->gh", terms, n, n)
    return complex(np.sum(terms))


def second_order_theta(tau, z, eps, deriv=0):
    """Oracle: theta[eps/2, 0](2 tau, 2 z) as a box sum on the matrix 2 tau.

    deriv=1 and 2 give its z-gradient and z-Hessian, 2^deriv x those of
    theta(2 tau) at 2 z.
    """
    value = brute_theta(2.0 * np.asarray(tau), 2.0 * np.asarray(z),
                        a=np.asarray(eps) / 2.0, deriv=deriv)
    return 2.0 ** deriv * value


class TestAgainstBruteForce:

    @pytest.mark.parametrize("tau", [TAU1, TAU2, TAU3],
                             ids=["g1", "g2", "g3"])
    def test_value_matches_box_sum(self, tau):
        rng = np.random.default_rng(len(tau))
        z = rng.standard_normal(len(tau)) * 0.4 \
            + 0.2j * rng.standard_normal(len(tau))
        expected = brute_theta(tau, z)
        (got,), _, _ = theta_batch(tau, z, tol=1e-12)
        assert abs(got - expected) < 1e-11 * max(abs(expected), 1.0)

    def test_characteristics_match_box_sum(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal(2) * 0.3 + 0.2j * rng.standard_normal(2)
        for eps_p in all_epsilons(2):
            for eps_pp in all_epsilons(2):
                char = HalfCharacteristic(eps_p, eps_pp)
                expected = brute_theta(TAU2, z, a=char.a, b=char.b)
                (got,), _, _ = theta_batch(TAU2, z, char=char, tol=1e-12)
                assert abs(got - expected) < 1e-10

    def test_known_value_lemniscatic(self):
        # theta(0; tau=i) = pi^(1/4) / Gamma(3/4)
        expected = np.pi ** 0.25 / gamma_fn(0.75)
        (got,), _, _ = theta_batch(TAU1, [0.0], tol=1e-13)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_far_argument_reduced_exactly(self):
        z = np.array([0.13 + 0.07j, -0.2 + 0.11j])
        m = np.array([2.0, -3.0])
        p = np.array([1.0, 2.0])
        shift = m + TAU2 @ p
        (direct,), _, _ = theta_batch(TAU2, z + shift, tol=1e-12)
        factor = np.exp(-1j * np.pi * (p @ TAU2 @ p) - 2j * np.pi * (p @ z))
        (base,), _, _ = theta_batch(TAU2, z, tol=1e-12)
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
                (vp,), _, _ = theta_batch(tau, z, char=char)
                (vm,), _, _ = theta_batch(tau, -z, char=char)
                sign = (-1.0) ** char.parity
                assert abs(vm - sign * vp) < 1e-9 * max(abs(vp), 1e-6)
                if char.parity == 1:
                    (v0,), _, _ = theta_batch(tau, origin, char=char)
                    assert abs(v0) < 1e-10

    def test_addition_formula(self):
        rng = np.random.default_rng(11)
        rm = RiemannMatrix(TAU3)
        Z = rng.standard_normal((30, 3)) + 0.2j * rng.standard_normal((30, 3))
        W = rng.standard_normal((30, 3)) + 0.2j * rng.standard_normal((30, 3))
        (bz,), _, _ = second_order_basis(rm, Z)
        (bw,), _, _ = second_order_basis(rm, W)
        lhs = np.einsum("ne,ne->n", bz, bw)
        (tp,), _, _ = theta_batch(rm, Z + W)
        (tm,), _, _ = theta_batch(rm, Z - W)
        assert np.max(np.abs(lhs - tp * tm) / np.abs(tp * tm)) < 1e-9

    @pytest.mark.parametrize("deriv", [0, 2])
    @pytest.mark.parametrize("tau", [TAU2, TAU3], ids=["g2", "g3"])
    def test_second_order_basis_matches_delegation(self, tau, deriv):
        g = len(tau)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(g) * 0.3 + 0.2j * rng.standard_normal(g)
        m = np.array([2.0, -1.0, 3.0])[:g]
        p = np.array([1.0, -2.0, -1.0])[:g]
        # z + tau p / 2 has odd tau/2 coordinates p: its reduction modulo
        # tau/2 relabels the parity classes
        for arg in (z, z + m + tau @ p, z + tau @ p / 2.0):
            basis = second_order_basis(tau, arg, deriv=deriv)[0][deriv]
            expected = np.array([second_order_theta(tau, arg, eps, deriv)
                                 for eps in all_epsilons(g)])
            assert np.max(np.abs(basis - expected)) \
                < 1e-10 * np.max(np.abs(expected))


def half_period_arguments(tau, seed):
    """(q, z + tau q / 2, z + tau q / 2 + m + tau p) for a small z and
    every q in {0,1}^g."""
    g = len(tau)
    rng = np.random.default_rng(seed)
    z = rng.uniform(-0.2, 0.2, g) + 0.1j * rng.uniform(-1.0, 1.0, g)
    m = np.array([2.0, -1.0, 3.0])[:g]
    p = np.array([1.0, -2.0, -1.0])[:g]
    for q in itertools.product((0.0, 1.0), repeat=g):
        half = z + tau @ np.asarray(q) / 2.0
        yield q, z, half, half + m + tau @ p


class TestHalfPeriodReduction:
    """second_order_basis reduces modulo tau/2 and relabels the classes."""

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    @pytest.mark.parametrize("tau", [TAU2, TAU3], ids=["g2", "g3"])
    def test_relabelled_classes_match_box_sum(self, tau, deriv):
        g = len(tau)
        for q, _, half, far in half_period_arguments(tau, 4):
            for arg in (half, far):
                basis = second_order_basis(tau, arg, deriv=deriv)[0][deriv]
                expected = np.array([second_order_theta(tau, arg, eps, deriv)
                                     for eps in all_epsilons(g)])
                assert np.max(np.abs(basis - expected)) \
                    < 1e-10 * np.max(np.abs(expected)), q

    @pytest.mark.parametrize("tau", [TAU2, TAU3], ids=["g2", "g3"])
    def test_radius_does_not_grow_with_the_cell(self, tau):
        for q, z, _, far in half_period_arguments(tau, 5):
            _, radius, _ = second_order_basis(tau, z, deriv=2)
            _, far_radius, _ = second_order_basis(tau, far, deriv=2)
            assert far_radius == pytest.approx(radius, abs=1e-9), q

    def test_quadratic_form_cache_follows_reenumeration(self):
        rm = RiemannMatrix(TAU3)
        char = HalfCharacteristic((1, 0, 1), (0, 1, 1))
        z = np.array([0.1 + 0.05j, -0.2 + 0.1j, 0.3 - 0.1j])
        theta_batch(rm, z, char=char)
        radius = rm._points_radius
        # a tighter tolerance and a Hessian need a larger point set
        theta_batch(rm, z, char=char, tol=1e-14, deriv=2)
        assert rm._points_radius > radius
        (got,), _, _ = theta_batch(rm, z, char=char)
        (want,), _, _ = theta_batch(RiemannMatrix(TAU3), z, char=char)
        assert abs(got - want) <= 1e-13 * abs(want)


class TestDerivatives:

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(5):
            z = rng.standard_normal(2) * 0.4 + 0.2j * rng.standard_normal(2)
            (_, grad), _, _ = theta_batch(TAU2, z, deriv=1)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                (vp,), _, _ = theta_batch(TAU2, z + e)
                (vm,), _, _ = theta_batch(TAU2, z - e)
                fd = (vp - vm) / (2 * h)
                assert abs(fd - grad[i]) < 1e-8 * max(abs(grad[i]), 1.0)

    def test_hessian_vs_gradient_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-5
        z = rng.standard_normal(2) * 0.4 + 0.2j * rng.standard_normal(2)
        (_, _, hess), _, _ = theta_batch(TAU2, z, deriv=2)
        assert np.allclose(hess, hess.T)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            (_, gp), _, _ = theta_batch(TAU2, z + e, deriv=1)
            (_, gm), _, _ = theta_batch(TAU2, z - e, deriv=1)
            fd = (gp - gm) / (2 * h)
            assert np.max(np.abs(fd - hess[i])) \
                < 1e-7 * max(np.max(np.abs(hess[i])), 1.0)

    def test_gradient_at_far_argument(self):
        # derivative picks up the extra prefactor term under reduction
        z = np.array([0.1 + 0.05j, 0.2 - 0.1j])
        p = np.array([0.0, 1.0])
        shift = TAU2 @ p
        h = 1e-6
        (_, grad), _, _ = theta_batch(TAU2, z + shift, deriv=1)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            (vp,), _, _ = theta_batch(TAU2, z + shift + e)
            (vm,), _, _ = theta_batch(TAU2, z + shift - e)
            fd = (vp - vm) / (2 * h)
            assert abs(fd - grad[i]) < 1e-6 * max(abs(grad[i]), 1.0)


class TestErrorControl:

    def test_tail_bound_is_honest(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            z = rng.standard_normal(3) * 0.5 + 0.3j * rng.standard_normal(3)
            (loose,), _, loose_tail = theta_batch(TAU3, z, tol=1e-6)
            (tight,), _, _ = theta_batch(TAU3, z, tol=1e-13)
            assert abs(loose - tight) <= loose_tail + 1e-13 * abs(tight)
            assert loose_tail < 1e-6

    def test_tolerance_validation(self):
        with pytest.raises(InvalidInput):
            theta_batch(TAU2, [0.0, 0.0], tol=1e-20)
        with pytest.raises(InvalidInput):
            theta_batch(TAU2, [0.0, 0.0], tol=0.5)
        with pytest.raises(InvalidInput):
            theta_batch(TAU2, [0.0, 0.0], deriv=3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_offset_past_floating_range_is_refused(self):
        # exp(||T c||^2) overflows: the series is refused, not an exception
        # from the arithmetic
        tau = np.array([[4000j]])
        with pytest.raises(InvalidInput):
            theta_batch(tau, [1960j])
        with pytest.raises(InvalidInput):
            second_order_basis(tau, [980j])

    @pytest.mark.parametrize("g", [1, 3, 5])
    def test_pick_radius_equals_the_stepping_loop(self, g):
        # the first of r0, r0 + 0.4, ... whose tail bound is below tol, as
        # the stepping loop in numpy arithmetic found it
        rm = RiemannMatrix(random_tau(g, g))

        def stepped(tol, offset, deriv):
            radius = float(rm._rho / 2.0 + offset
                           + np.sqrt(max(-np.log(tol), 1.0)))
            for _ in range(200):
                arg = max(radius - offset - rm._rho / 2.0, 0.0) ** 2
                eps = rm._tail_scale * gammaincc(rm.g / 2.0, arg)
                if deriv:
                    eps *= (2.0 * np.pi * (radius + 1.0) / rm._smin) ** deriv
                if eps < tol:
                    return radius
                radius += 0.4

        for tol in (5e-4, 1e-7, 1e-10, 3e-13, 1e-14, 2e-15, 1e-40):
            for offset in (0.0, 0.37, 1.35, 2.69, 6.0):
                for deriv in (0, 1, 2):
                    assert _pick_radius(rm, tol, offset, deriv) \
                        == stepped(tol, offset, deriv)
        # a budget that left floating range is refused
        with pytest.raises(InvalidInput):
            _pick_radius(rm, 0.0, 1.0, 0)

    @pytest.mark.parametrize("g", range(1, 9))
    def test_gammaincc_half_matches_mpmath(self, g):
        # the closed form of Q(g/2, x) against mpmath's regularized upper
        # incomplete gamma function, on through the underflow of e^-x; at
        # g = 1 erfc(fl(sqrt x)) alone is 9e-14 off near x = 700
        xs = np.concatenate([[0.0], np.geomspace(1e-6, 750.0, 241),
                             np.linspace(680.0, 750.0, 36)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [_gammaincc_half(g, float(x)) for x in xs]
        with mpmath.workdps(40):
            for x, q in zip(xs, got):
                exact = mpmath.gammainc(mpmath.mpf(g) / 2, mpmath.mpf(x),
                                        regularized=True)
                if exact > 1e-300:
                    assert abs(q - exact) <= 1e-14 * exact, x
                else:
                    assert 0.0 <= q <= 2e-300, x

    def test_riemann_matrix_validation(self):
        with pytest.raises(InvalidInput):
            RiemannMatrix(np.array([[1.0j, 0.5], [0.2, 1.0j]]))
        with pytest.raises(InvalidInput):
            RiemannMatrix(np.array([[-1.0j]]))
        with pytest.raises(InvalidInput):
            theta_batch(TAU2, [0.0, 0.0, 0.0])
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

    @pytest.mark.parametrize("half", [False, True], ids=["tau", "tau/2"])
    @pytest.mark.parametrize("g, grown_to", [(3, 9.0), (4, 8.0), (5, 6.5)])
    def test_grown_cache_is_bitwise_a_fresh_enumeration(self, g, grown_to,
                                                       half):
        """Every prefix of a cache grown to R is, to the bit, the cache a
        fresh matrix builds at that radius: points, norms, representatives,
        weights and the heads _lines reads.  rho, taken at construction
        from an enumeration of norms only, is the shortest nonzero norm."""
        tau = random_tau(g, g) / (2.0 if half else 1.0)
        grown = RiemannMatrix(tau)
        grown.lattice_points(grown_to)
        assert grown._rho == grown._point_norms[1] > 0.0
        for radius in (1.0, 2.3, 4.5, grown_to - 1.3, grown_to - 0.25):
            fresh = RiemannMatrix(tau)
            want = fresh.lattice_points(radius)
            got = grown.lattice_points(radius)
            stop = len(got)
            count = np.searchsorted(grown._reps, stop)
            np.testing.assert_array_equal(got, want)
            assert fresh._rho == grown._rho
            for name in ("_point_norms", "_reps", "_weights", "_head"):
                cut = stop if name == "_point_norms" else count
                assert np.array_equal(getattr(grown, name)[:cut],
                                      getattr(fresh, name)), name
            assert len(fresh._reps) == count
            heads = grown._head[:count].max() + 1
            assert np.array_equal(grown._heads[:heads], fresh._heads)

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    def test_blocked_sums_match_one_block(self, monkeypatch, deriv):
        # blocks of two or three points split every class of the sums and
        # every enumeration of the point set into many slabs
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        points = RiemannMatrix(TAU3).lattice_points(3.0)
        whole = theta_batch(TAU3, Z, deriv=deriv)[0] \
            + second_order_basis(TAU3, Z, deriv=deriv)[0]
        sums = absolute_sums(TAU3, Z, deriv)
        theta_module = sys.modules[RiemannMatrix.__module__]
        monkeypatch.setattr(theta_module, "_BLOCK", 40)
        np.testing.assert_array_equal(
            RiemannMatrix(TAU3).lattice_points(3.0), points)
        blocked = theta_batch(TAU3, Z, deriv=deriv)[0] \
            + second_order_basis(TAU3, Z, deriv=deriv)[0]
        for got, want in zip(blocked, whole):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)))
        np.testing.assert_allclose(absolute_sums(TAU3, Z, deriv), sums,
                                   rtol=1e-13)


def absolute_sums(tau, Z, deriv):
    """The absolute sums A_0..A_deriv (N,) of _theta at the rows of Z."""
    _, sums, _, _ = _theta(RiemannMatrix(tau), Z, None, DEFAULT_THETA_TOL,
                           deriv, True)
    return np.stack(sums)


def random_tau(g, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(g, g))
    X = rng.normal(size=(g, g)) * 0.3
    return X + X.T + 1j * (1.5 * np.eye(g) + 0.3 * A @ A.T / g)


@functools.lru_cache(maxsize=None)
def box_ball(g, seed, half):
    """Test-local enumeration of the integer points n with ||T n|| <= 13,
    T the Cholesky factor of pi Im(tau), tau = random_tau(g, seed) or its
    half, from a box that holds them all.  Returns (n, T n)."""
    tau = random_tau(g, seed) / (2.0 if half else 1.0)
    chol = np.linalg.cholesky(np.pi * tau.imag).T
    widths = np.floor(13.0 * np.linalg.norm(np.linalg.inv(chol), axis=1))
    box = np.indices(2 * widths.astype(int) + 1, dtype=np.int16)
    box = box.reshape(g, -1).T - widths.astype(np.int16)
    image = box @ chol.T
    keep = np.linalg.norm(image, axis=1) <= 13.0
    return box[keep], image[keep]


def point_keys(points):
    """One integer per point, equal for equal points (|entries| < 64)."""
    return (points.astype(np.int64) + 64) @ (128 ** np.arange(
        points.shape[1], dtype=np.int64))


class TestSummedPointSet:
    """The summed set lattice_points(radius) holds every point the tail
    bound does not cover, and each pair {n, -n} is summed once."""

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    @pytest.mark.parametrize("tol", [1e-10, 1e-14])
    @pytest.mark.parametrize("g", [3, 4, 5])
    @pytest.mark.parametrize("half", [False, True],
                             ids=["theta_batch", "second_order_basis"])
    def test_centred_balls_lie_in_the_summed_set(self, half, g, tol, deriv):
        tau = random_tau(g, g)
        rng = np.random.default_rng(17 * g + deriv)
        Z = rng.uniform(-0.5, 0.5, (6, g)) \
            + rng.uniform(-0.5, 0.5, (6, g)) @ (tau / (1 + half)).T
        rm = RiemannMatrix(tau)
        if half:
            _, got_radius, _ = second_order_basis(rm, Z, tol=tol,
                                                  deriv=deriv)
            rm = rm._half
        else:
            _, got_radius, _ = theta_batch(rm, Z, tol=tol, deriv=deriv)
        chol = np.linalg.cholesky(np.pi * rm.entries.imag).T
        to_image = np.linalg.inv(rm.entries.imag).T @ chol.T
        rounded = np.linalg.norm(rm.reduce(Z)[0].imag @ to_image, axis=1)
        # the centres of the rows the kernel sums: its nearest translates
        Z_red, _, _, _ = _nearest_translates(rm, Z)
        centres = Z_red.imag @ np.linalg.inv(rm.entries.imag).T
        offsets = np.linalg.norm(centres @ chol.T, axis=1)
        assert np.all(offsets <= rounded * (1 + 1e-12))
        offset = np.max(offsets)
        # the terms carry exp(||T c||^2) = exp(pi y^T Im(tau)^-1 y)
        radius = _pick_radius(rm, tol / max(np.exp(offset ** 2), 1.0),
                              offset, deriv) + deriv
        assert radius == pytest.approx(got_radius, rel=1e-12)
        assert radius <= 13.0
        # the call on a fresh matrix enumerated the whole ball it sums
        assert rm._points_radius >= radius
        points, image = box_ball(g, g, half)
        # every lattice point within radius - offset of some row's centre
        near = np.zeros(len(points), dtype=bool)
        for c in centres @ chol.T:
            near |= np.linalg.norm(image + c, axis=1) <= radius - offset
        near = point_keys(points[near])
        assert np.all(np.isin(near, point_keys(rm.lattice_points(radius))))
        # the bound would not hold for the ball it needs: radius - offset
        assert not np.all(np.isin(
            near, point_keys(rm.lattice_points(radius - offset))))

    def test_representatives_pair_up_the_point_set(self):
        rm = RiemannMatrix(random_tau(5, 5))
        rm.lattice_points(9.0)
        for r in (1.0, 3.3, 6.0, 9.0):
            points = rm.lattice_points(r)
            reps = rm._points[rm._reps[
                :np.searchsorted(rm._reps, len(points))]]
            as_set = {tuple(n) for n in points}
            assert {tuple(n) for n in reps} | {tuple(-n) for n in reps} \
                == as_set
            assert 2 * len(reps) - 1 == len(as_set) == len(points)
            assert np.sum(~reps.any(axis=1)) == 1
        reps = rm._points[rm._reps]
        first = reps[np.arange(len(reps)), np.argmax(reps != 0, axis=1)]
        assert np.all((first > 0) | ~reps.any(axis=1))
        # each representative is (its head, m), the heads are distinct, and
        # its class is 2 class(head) + (m mod 2)
        np.testing.assert_array_equal(rm._heads[rm._head], reps[:, :-1])
        assert len({tuple(h) for h in rm._heads}) == len(rm._heads)
        for n, h in zip(reps, rm._heads[rm._head].astype(int)):
            assert index_from_eps(n % 2) \
                == 2 * index_from_eps(h % 2) + n[-1] % 2
        # heads are numbered by first appearance: the heads of every prefix
        # are the ids 0..k
        seen = np.maximum.accumulate(rm._head)
        assert rm._head[0] == 0 and np.all(np.diff(seen) <= 1)
        assert seen[-1] == len(rm._heads) - 1

    @pytest.mark.parametrize("by_parity", [False, True],
                             ids=["one-class", "by-parity"])
    @pytest.mark.parametrize("deriv", [0, 1, 2])
    def test_paired_sums_match_unpaired_sums(self, deriv, by_parity):
        # g=5, where the mpmath oracle is too slow: the plain sum of
        # exp(i pi n^T tau n + 2 pi i n^T z) over the same point set
        tau = random_tau(5, 5)
        rm = RiemannMatrix(tau)
        rng = np.random.default_rng(deriv)
        Z_red, _, offset_sq, _ = _nearest_translates(
            rm, rng.uniform(-0.5, 0.5, (4, 5))
            + rng.uniform(-0.5, 0.5, (4, 5)) @ tau.T)
        outs, moduli, radius, _ = _series(rm, Z_red, offset_sq, 1e-10,
                                          deriv, by_parity, not by_parity)
        n = rm.lattice_points(radius).astype(float)
        terms = np.exp(1j * np.pi * np.einsum("tg,gh,th->t", n, tau, n)
                       + 2j * np.pi * Z_red @ n.T)
        classes = np.array([index_from_eps(k % 2) for k in n.astype(int)]) \
            if by_parity else np.zeros(len(n), dtype=int)
        onehot = classes[:, None] == np.arange(outs[0].shape[1])
        weights = [onehot,
                   2j * np.pi * n[:, None, :] * onehot[..., None],
                   (2j * np.pi) ** 2 * (n[:, :, None] * n[:, None, :])[
                       :, None] * onehot[..., None, None]]
        for got, weight in zip(outs, weights):
            want = np.tensordot(terms, weight, axes=1)
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-13 * np.max(np.abs(want)))
        # the absolute sums: the same sums on the moduli of the terms and
        # of the weights, of the one-class series only
        assert (moduli is None) == by_parity
        for got, weight in zip(moduli or [], weights):
            want = np.tensordot(np.abs(terms), np.abs(weight), axes=1)
            np.testing.assert_allclose(got, want, rtol=1e-13)


#: unimodular U (det 1); tau' = U^T tau U is the same lattice in a skewed
#: basis, on which the +-1 box overestimates the shortest vector
UNIMODULAR = [[[3, 1], [2, 1]], [[5, 2], [2, 1]], [[1, -3], [0, 1]],
              [[0, 1], [-1, 0]]]


class TestAbsoluteSums:
    """The absolute sums A_0 and A_1 of _theta against numpy box sums of
    the moduli of the terms, |exp(i pi n^T tau n + 2 pi i n^T w)|, over the
    test-local box_ball."""

    @staticmethod
    def box_moduli(tau, n, w):
        """(sum of |term|, norm of the sums of 2 pi |n_i| |term|) at w."""
        moduli = np.exp(-np.pi * np.einsum("tg,gh,th->t", n, tau.imag, n)
                        - 2.0 * np.pi * n @ w.imag)
        return moduli.sum(), np.linalg.norm(2.0 * np.pi * np.abs(n).T
                                            @ moduli)

    @pytest.mark.parametrize("g", [3, 4, 5])
    def test_absolute_sums_match_a_box_sum(self, g):
        tau = random_tau(g, g)
        n = box_ball(g, g, False)[0].astype(float)
        rng = np.random.default_rng(30 + g)
        z = rng.uniform(-0.5, 0.5, g) + tau @ rng.uniform(-0.25, 0.25, g)
        p = np.array([1.0, -1.0, 1.0, 0.0, -1.0])[:g]
        far = z + rng.integers(-3, 4, g) + tau @ p
        rm = RiemannMatrix(tau)
        _, (a0, a1), _, tail = _theta(rm, z[None], None, DEFAULT_THETA_TOL,
                                      1, True)
        _, (far_a0, far_a1), _, far_tail = _theta(
            rm, far[None], None, DEFAULT_THETA_TOL, 1, True)
        want_a0, want_a1 = self.box_moduli(tau, n, z)
        assert abs(a0[0] - want_a0) <= tail
        assert abs(a1[0] - want_a1) <= tail
        # the terms at z + m + tau p are those at z, reindexed n -> n - p
        # and scaled by |prefactor| = exp(pi p^T Im tau p + 2 pi p^T Im z)
        want_a0, want_a1 = self.box_moduli(tau, n, far)
        scale = np.exp(np.pi * p @ tau.imag @ p + 2.0 * np.pi * p @ z.imag)
        assert scale > 1e3
        assert abs(scale * a0[0] - want_a0) <= far_tail
        assert abs(far_a0[0] - want_a0) <= far_tail
        # the gradient's moduli at the far argument are those of the
        # product rule, 2 pi |n_i - p_i| <= 2 pi |n_i| + 2 pi |p_i|: no
        # smaller than the box sum, and larger by at most 2 pi ||p|| A_0
        assert want_a1 - far_tail <= far_a1[0]
        assert far_a1[0] <= want_a1 + 2.0 * np.pi * np.linalg.norm(p) \
            * 2.0 * want_a0 + far_tail


@pytest.fixture
def head_widths(monkeypatch):
    """The number of head coordinates of every theta sum: g - 1 where the
    sum is split at the last coordinate, g where it is not."""
    theta_module = sys.modules[RiemannMatrix.__module__]
    real, widths = theta_module._lines, []

    def spy(*args):
        heads, lines, top = real(*args)
        widths.append(heads.shape[1])
        return heads, lines, top

    monkeypatch.setattr(theta_module, "_lines", spy)
    return widths


class TestSplitBound:
    """The sum splits each exponential at the last coordinate only while
    every factor stays in floating range."""

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_split_on_the_reference_curves(self, g, head_widths):
        tau = period_matrix(reference_curve(g)).tau.entries
        rng = np.random.default_rng(g)
        Z = rng.uniform(-0.5, 0.5, (8, g)) \
            + rng.uniform(-0.5, 0.5, (8, g)) @ tau.T
        rm = RiemannMatrix(tau)
        for tol in (1e-10, 1e-14):
            for deriv in (0, 1, 2):
                for z in Z:
                    theta_batch(rm, z, tol=tol, deriv=deriv)
                second_order_basis(rm, Z, tol=tol, deriv=deriv)
        assert head_widths == [g - 1] * len(head_widths)

    @pytest.mark.parametrize("U", UNIMODULAR[:2], ids=lambda u: str(u))
    def test_no_split_on_a_skewed_tau(self, U, head_widths):
        # theta(z; tau) = theta(U^T z; U^T tau U).  Each row is summed
        # around its nearest translate, whose offset no basis changes, so
        # it takes U^2 for the skew alone to pass _SPLIT_REACH.  tau and z
        # on a 2^-8 grid make U^T tau U and U^T z exact, so the two calls
        # share their inputs and must agree within both tail bounds.
        tau = np.round(TAU2 * 256.0) / 256.0
        U = np.linalg.matrix_power(np.asarray(U), 2)
        rng = np.random.default_rng(5)
        Z = np.round(256.0 * (rng.standard_normal((6, 2))
                              + 0.4j * rng.standard_normal((6, 2)))) / 256.0
        (want,), _, tail = theta_batch(tau, Z)
        (got,), _, tail_skewed = theta_batch(U.T @ tau @ U, Z @ U)
        assert head_widths == [1, 2]
        assert np.all(np.abs(got - want) <= tail + tail_skewed)

    @pytest.mark.parametrize("by_parity", [False, True],
                             ids=["one-class", "by-parity"])
    @pytest.mark.parametrize("deriv", [0, 1, 2])
    def test_unsplit_sums_match_split_sums(self, monkeypatch, head_widths,
                                           deriv, by_parity):
        rm = RiemannMatrix(random_tau(4, 4))
        rng = np.random.default_rng(deriv)
        Z_red, _, offset_sq, _ = _nearest_translates(
            rm, rng.uniform(-0.5, 0.5, (5, 4))
            + rng.uniform(-0.5, 0.5, (5, 4)) @ rm.entries.T)
        split, moduli, radius, tail = _series(rm, Z_red, offset_sq, 1e-10,
                                              deriv, by_parity, not by_parity)
        theta_module = sys.modules[RiemannMatrix.__module__]
        monkeypatch.setattr(theta_module, "_SPLIT_REACH", -1.0)
        whole = _series(rm, Z_red, offset_sq, 1e-10, deriv, by_parity,
                        not by_parity)
        assert whole[2:] == (radius, tail)
        assert head_widths == [3, 4]
        for got, want in zip(whole[0], split):
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-13 * np.max(np.abs(want)))
        for got, want in zip(whole[1] or [], moduli or []):
            np.testing.assert_allclose(got, want, rtol=1e-13)


def near_corner_arguments(tau, seed, rows):
    """Points x + tau p of the cell, p within 0.05 of the corner s / 2,
    s in {-1, 1}^g, farthest from the origin in the ||T .|| metric, moved
    by a lattice vector: rounding keeps the centre p near that corner,
    although another corner, a translate of it, is nearer whenever
    Im(tau) is not diagonal."""
    g = len(tau)
    rng = np.random.default_rng(seed)
    signs = np.array(list(itertools.product((-0.5, 0.5), repeat=g)))
    chol = np.linalg.cholesky(np.pi * np.asarray(tau).imag).T
    corner = signs[np.argmax(np.linalg.norm(signs @ chol.T, axis=1))]
    x = 0.5 + rng.uniform(-0.05, 0.05, (rows, g))
    p = corner * rng.uniform(0.9, 1.0, (rows, g))
    shift = rng.integers(-2, 3, (rows, g)) \
        + rng.integers(-2, 3, (rows, g)) @ np.asarray(tau).T
    return x + p @ np.asarray(tau).T + shift


#: (tau, a characteristic other than zero) per genus
CASES = {
    "g1": (TAU1, ((1,), (1,))),
    "g2": (TAU2, ((1, 0), (1, 1))),
    "g3": (TAU3, ((1, 0, 1), (0, 1, 1))),
    "g3-random": (random_tau(3, 3), ((0, 1, 1), (1, 1, 0))),
    "g2-skewed": (np.asarray(UNIMODULAR[0]).T @ TAU2
                  @ np.asarray(UNIMODULAR[0]), ((0, 1), (1, 0))),
}


@functools.lru_cache(maxsize=None)
def second_order_oracle(case):
    """mp_theta_jet of theta[eps/2, 0](2 tau, 2 z) per eps, for each row z
    of near_corner_arguments(tau / 2, 20 + g, 2), tau = CASES[case][0]."""
    tau = CASES[case][0]
    g = len(tau)
    return [[mp_theta_jet(2.0 * tau, 2.0 * row, np.asarray(eps) / 2.0,
                          np.zeros(g)) for eps in all_epsilons(g)]
            for row in near_corner_arguments(tau / 2.0, 20 + g, 2)]


class TestNearestTranslate:
    """Each row is summed around the lattice translate whose Gaussian
    centre is nearest the origin in the ||T .|| metric."""

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_a_box_search(self, case):
        tau = CASES[case][0]
        g = len(tau)
        rm = RiemannMatrix(tau)
        rng = np.random.default_rng(g)
        Z = np.concatenate([
            near_corner_arguments(tau, g, 6),
            rng.uniform(-3, 3, (10, g)) + rng.uniform(-3, 3, (10, g)) @ tau.T])
        Z_red, _, _ = rm.reduce(Z)
        moved, p_moved, offset_sq, shift = _nearest_translates(rm, Z)
        chol = np.linalg.cholesky(np.pi * tau.imag).T
        # the offsets of every translate Z_red - tau n, n in {-2..2}^g
        box = np.stack(np.meshgrid(*[np.arange(-2, 3)] * g, indexing="ij"),
                       axis=-1).reshape(-1, g)
        centres = Z_red.imag @ np.linalg.inv(tau.imag).T
        offsets = np.linalg.norm(
            (centres[:, None, :] - box) @ chol.T, axis=2)
        nearest = offsets.min(axis=1)
        got = np.linalg.norm(
            moved.imag @ np.linalg.inv(tau.imag).T @ chol.T, axis=1)
        np.testing.assert_allclose(got, nearest, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.sqrt(offset_sq), got, rtol=0,
                                   atol=1e-12)
        # at g = 1 rounding is the nearest translate; above it, not always
        assert g == 1 or np.any(nearest < offsets[:, len(box) // 2] - 1e-3)
        # the same point: Z = moved + m' + tau p_moved, m' and p_moved
        # integers, and moved has real parts in the cell
        np.testing.assert_array_equal(p_moved, np.round(p_moved))
        rest = Z - moved - p_moved @ tau.T
        np.testing.assert_allclose(rest.imag, 0.0, atol=1e-12)
        np.testing.assert_allclose(rest.real, np.round(rest.real),
                                   atol=1e-12)
        assert np.all(np.abs(moved.real) <= 0.5 + 1e-12)
        # theta(Z) = exp(shift) theta(moved)
        np.testing.assert_allclose(np.exp(shift), np.exp(
            -1j * np.pi * np.einsum("ng,gh,nh->n", p_moved, tau, p_moved)
            - 2j * np.pi * np.einsum("ng,ng->n", p_moved, moved)),
            rtol=1e-12)

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    @pytest.mark.parametrize("case", ["g2", "g3"])
    def test_second_order_basis_matches_mpmath_near_the_corner(self, case,
                                                               deriv):
        # near a corner of the tau/2 cell
        tau = CASES[case][0]
        g = len(tau)
        Z = near_corner_arguments(tau / 2.0, 20 + g, 2)
        rm = RiemannMatrix(tau)
        half = RiemannMatrix(tau / 2.0)
        assert not np.array_equal(_nearest_translates(half, Z)[1],
                                  half.reduce(Z)[2])
        jet, _, tail = second_order_basis(rm, Z, deriv=deriv)
        for k, oracles in enumerate(second_order_oracle(case)):
            for e, oracle in enumerate(oracles):
                for order, (got, want) in enumerate(zip(jet, oracle)):
                    want = 2.0 ** order * want
                    assert np.max(np.abs(got[k, e] - want)) \
                        <= tail + 1e-13 * np.max(np.abs(want))


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
        (want,), _, tail = theta_batch(tau, Z)
        (got,), _, tail_skewed = theta_batch(U.T @ tau @ U, Z @ U)
        rounding = 1e-13 * np.max(np.abs(want))
        assert np.all(np.abs(got - want) <= tail + tail_skewed + rounding)


#: terms below exp(-R2) of the largest one lie outside the oracle's box
R2 = 80.0


def mp_theta_jet(tau, z, a, b):
    """(value, gradient, Hessian) of theta[a; b](z; tau) as complex numpy,
    summed with mpmath at 30 digits."""
    tau = np.asarray(tau, dtype=complex)
    z = np.asarray(z, dtype=complex)
    g = len(z)
    Y = tau.imag
    # |term n| = exp(-pi (n + a - c)^T Y (n + a - c)) up to a common factor
    center = -np.linalg.solve(Y, z.imag) - a
    half = np.sqrt(R2 / np.pi * np.diag(np.linalg.inv(Y)))
    ranges = [range(int(np.floor(c - h)), int(np.ceil(c + h)) + 1)
              for c, h in zip(center, half)]
    with mpmath.workdps(30):
        T = [[mpmath.mpc(complex(tau[i, j])) for j in range(g)]
             for i in range(g)]
        w = [mpmath.mpc(complex(z[i])) + mpmath.mpf(b[i]) for i in range(g)]
        ipi = mpmath.mpc(0, 1) * mpmath.pi
        value = mpmath.mpc(0)
        grad = [mpmath.mpc(0)] * g
        hess = [[mpmath.mpc(0)] * g for _ in range(g)]
        for n in itertools.product(*ranges):
            x = [mpmath.mpf(n[i]) + mpmath.mpf(a[i]) for i in range(g)]
            quad = sum(x[i] * T[i][j] * x[j]
                       for i in range(g) for j in range(g))
            term = mpmath.exp(ipi * (quad + 2 * sum(x[i] * w[i]
                                                    for i in range(g))))
            value += term
            for i in range(g):
                grad[i] += term * x[i]
                for j in range(g):
                    hess[i][j] += term * x[i] * x[j]
        two_pi_i = 2 * ipi
        return (complex(value),
                np.array([complex(two_pi_i * v) for v in grad]),
                np.array([[complex(two_pi_i ** 2 * v) for v in row]
                          for row in hess]))


class TestMpmathOracle:
    """theta_batch against mp_theta_jet, which shares no code with it."""

    @pytest.mark.parametrize("nonzero", [False, True], ids=["zero", "char"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_jet_matches_mpmath_box_sum(self, case, nonzero):
        tau, bits = CASES[case]
        g = len(tau)
        char = HalfCharacteristic(*bits) if nonzero \
            else HalfCharacteristic.zero(g)
        rng = np.random.default_rng(g)
        z = rng.uniform(-0.5, 0.5, g) + 0.3j * rng.standard_normal(g)
        m = np.array([2.0, -1.0, 3.0])[:g]
        p = np.array([1.0, -1.0, 1.0])[:g]
        # one reduced argument, one far one, z + m + tau p, and two near a
        # corner of the cell, where the nearest translate can differ from
        # the rounded one (it does on g2, g3-random and g2-skewed), in one
        # call
        Z = np.concatenate([[z, z + m + tau @ p],
                            near_corner_arguments(tau, 10 + g, 2)])
        jet, _, tail = theta_batch(tau, Z, char=char, deriv=2)
        oracle = [mp_theta_jet(tau, row, char.a, char.b) for row in Z]
        for order, got in enumerate(jet):
            for k, want in enumerate(o[order] for o in oracle):
                assert got[k].shape == np.shape(want)
                assert np.max(np.abs(got[k] - want)) \
                    <= tail + 1e-13 * np.max(np.abs(want))


    def test_tail_bound_holds_at_far_argument(self):
        # z + m + tau p with p = (1, -1): the quasi-periodic prefactor
        # scales the value, 1.2e5 here, and its errors by about 1e5
        z = np.array([-0.23838787 - 0.12391906j, -0.20150886 - 0.73244021j])
        Z = z + np.array([2.0, -1.0]) + TAU2 @ np.array([1.0, -1.0])
        char = HalfCharacteristic.zero(2)
        jet, _, tail = theta_batch(TAU2, Z, deriv=2)
        oracle = mp_theta_jet(TAU2, Z, char.a, char.b)
        for got, want in zip(jet, oracle):
            assert np.max(np.abs(got - want)) <= tail


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


def test_theta_module_import_is_the_module():
    # the package once exported a function named theta, which this binds
    import trisect.theta as th
    assert th.theta_batch is theta_batch
