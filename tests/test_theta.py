import functools
import itertools
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as gamma_fn, gammaincc

from trisect.curves import period_matrix
from trisect.errors import InvalidInput, NumericalFailure
from trisect.gamma00 import gamma00_dimension
from trisect.selftest import reference_curve
from trisect.theta import (RiemannMatrix, HalfCharacteristic, theta_batch,
                           second_order_basis,
                           all_epsilons, eps_from_index, index_from_eps,
                           DEFAULT_THETA_TOL, _class_index,
                           _first_appearance, _gammaincc_half,
                           _nearest_translates, _norms, _pick_radius,
                           _representatives, _series, _theta)

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
        stop = max(key[1] for key in rm._tables)
        # a tighter tolerance and a Hessian need a larger point set, whose
        # sum drops the tables of the smaller one
        theta_batch(rm, z, char=char, tol=1e-14, deriv=2)
        assert min(key[1] for key in rm._tables) > stop
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

    def test_row_norms_are_numpys(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        for rows in (x, x.real, x[:, ::2], x[:0]):
            assert_bitwise(_norms(rows), np.linalg.norm(rows, axis=1))

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
            RiemannMatrix(np.zeros((0, 0)))
        with pytest.raises(InvalidInput):
            theta_batch(TAU2, [0.0, 0.0, 0.0])
        for f in (theta_batch, second_order_basis):
            with pytest.raises(InvalidInput):
                f(TAU2, np.zeros((0, 2)))
        for bad in ([np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(InvalidInput):
                second_order_basis(TAU2, bad)

    def test_one_factorization_and_no_svd(self, monkeypatch):
        """Building a RiemannMatrix factors pi Im(tau) once, for both the
        norms and the walk, and takes sigma_min without an SVD."""
        calls = []

        def spy(name):
            real = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return counted

        for name in ("cholesky", "svd"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        for tau in (TAU1, TAU2, TAU3, random_tau(5, 5)):
            calls.clear()
            RiemannMatrix(tau)
            assert calls == ["cholesky"]

    @pytest.mark.parametrize("half", [False, True], ids=["tau", "tau/2"])
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_factor_and_least_singular_value(self, g, half):
        """T = _chol is lower-triangular with T^T T = pi Im(tau) to
        rounding, and _smin is its least singular value within a few ulps
        (np.linalg.svd the oracle)."""
        rm = RiemannMatrix(random_tau(g, g) / (2.0 if half else 1.0))
        lower = rm._chol
        assert np.array_equal(lower, np.tril(lower))
        form = np.pi * rm.entries.imag
        assert np.abs(lower.T @ lower - form).max() \
            <= 4.0 * 2.0 ** -52 * np.abs(form).max()
        smin = np.linalg.svd(lower, compute_uv=False)[-1]
        assert abs(rm._smin - smin) <= 8.0 * np.spacing(smin)

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
        weights and the heads _lines reads; and the representatives, weights
        and heads of the prefix are those of the whole cache, cut at it.
        rho, taken at construction from an enumeration of norms only, is
        the shortest nonzero norm."""
        tau = random_tau(g, g) / (2.0 if half else 1.0)
        grown = RiemannMatrix(tau)
        whole = _representatives(grown, len(grown.lattice_points(grown_to)))
        numbered = _first_appearance(whole[0][:, :-1])
        assert grown._rho == grown._norms[1] > 0.0
        for radius in (1.0, 2.3, 4.5, grown_to - 1.3, grown_to - 0.25):
            fresh = RiemannMatrix(tau)
            want = fresh.lattice_points(radius)
            got = grown.lattice_points(radius)
            stop = len(got)
            np.testing.assert_array_equal(got, want)
            assert fresh._rho == grown._rho
            assert np.array_equal(grown._norms[:stop], fresh._norms[:stop])
            reps, weights = _representatives(grown, stop)
            assert_bitwise((reps, weights), _representatives(fresh, stop))
            count = len(reps)
            assert_bitwise((reps, weights), (whole[0][:count],
                                             whole[1][:count]))
            head, heads = _first_appearance(reps[:, :-1])
            assert_bitwise(head, numbered[0][:count])
            assert_bitwise(heads, numbered[1][:head.max() + 1])

    @pytest.mark.parametrize("split", [True, False],
                             ids=["split", "unsplit"])
    @pytest.mark.parametrize("tol", [1e-10, 1e-14])
    def test_warm_tables_are_bitwise_fresh_ones(self, monkeypatch,
                                                head_widths, tol, split):
        """Sums on a matrix whose kernel tables are warm from calls at
        other keys, orders and parities equal, to the bit, each sum on a
        fresh matrix: at a small key, then at a larger one, whose growth
        of the point sets drops the tables, then at the small key again."""
        if not split:
            theta_module = sys.modules[RiemannMatrix.__module__]
            monkeypatch.setattr(theta_module, "_SPLIT_REACH", -1.0)
        g = 4
        tau = random_tau(g, 4)
        small = np.full((2, g), 0.05) + np.array([[0.0], [0.1j]])
        large = np.vstack([near_corner_arguments(tau, 5, 2),
                           near_corner_arguments(tau / 2.0, 6, 2)])
        calls = [functools.partial(f, tol=tol, deriv=deriv)
                 for deriv in (0, 1, 2)
                 for f in (theta_batch, second_order_basis)]
        calls += [lambda rm, Z, deriv=deriv: _theta(rm, Z, None, tol, deriv,
                                                    True)
                  for deriv in (0, 1)]
        warm = RiemannMatrix(tau)
        stops = []
        for Z in (small, large, small):
            for call in calls:
                assert_bitwise(call(warm, Z), call(RiemannMatrix(tau), Z))
            stops.append([max(key[1] for key in m._tables)
                          for m in (warm, warm._half)])
        # the large arguments drop the tables; the small ones again drop
        # none
        assert stops[0][0] < stops[1][0] and stops[0][1] < stops[1][1]
        assert stops[2] == stops[1]
        assert head_widths == [g - 1 if split else g] * (2 * 3 * len(calls))

    def test_one_table_per_key_and_split(self, monkeypatch):
        """A matrix holds one lines table per (stop, split) of the sums run
        on it, for its absolute sums the moduli of those lines, for its
        split sums the heads' entries in the power tables per stop and,
        for its by-parity sums, the one-hot classes of the heads of each
        lines table.  The first sum takes the largest stop, so no later one
        drops them."""
        theta_module = sys.modules[RiemannMatrix.__module__]
        tau = random_tau(3, 3)
        rm = RiemannMatrix(tau)
        rm._half = half = RiemannMatrix(tau / 2.0)
        for m in (rm, half):   # no sum below grows the point sets
            m.lattice_points(12.0)
        Z = near_corner_arguments(tau, 3, 2)
        want, moduli = {rm: set(), half: set()}, set()
        for split in (True, False):
            monkeypatch.setattr(theta_module, "_SPLIT_REACH",
                                600.0 if split else -1.0)
            for tol in (1e-14, 1e-10, 1e-6):
                for deriv in (2, 1, 0):
                    for f, m in ((theta_batch, rm),
                                 (second_order_basis, half)):
                        _, radius, _ = f(rm, Z, tol=tol, deriv=deriv)
                        want[m].add(("lines", len(m.lattice_points(radius)),
                                     split))
                    radius = _theta(rm, Z, None, tol, deriv, True)[2]
                    stop = len(rm.lattice_points(radius))
                    want[rm].add(("lines", stop, split))
                    moduli.add(("moduli", stop, split))
        for m in (rm, half):
            assert m._radius == 12.0
            assert {k for k in m._tables if k[0] == "lines"} == want[m]
            assert {k for k in m._tables if k[0] == "powers"} \
                == {("powers", k[1]) for k in want[m] if k[2]}
            assert {k for k in m._tables if k[0] == "top"} \
                == {("top", k[1]) for k in want[m]}
        assert len(want[half]) > 2
        assert {k for k in rm._tables if k[0] == "moduli"} == moduli
        assert not [k for k in half._tables if k[0] == "moduli"]
        assert not [k for k in rm._tables if k[0] == "onehot"]
        assert {k for k in half._tables if k[0] == "onehot"} \
            == {("onehot",) + k[1:] for k in want[half]}
        for _, stop, split in want[half]:
            heads = half._tables["lines", stop, split][0]
            onehot = half._tables["onehot", stop, split]
            assert heads.shape[1] == (2 if split else 3)
            assert onehot.dtype == bool
            assert onehot.shape == (2 ** heads.shape[1], len(heads))
            assert np.all(onehot.sum(axis=0) == 1)
            assert np.array_equal(onehot.argmax(axis=0), _class_index(heads))
        assert {k[0] for k in half._tables} \
            == {"top", "lines", "onehot", "powers"}

    def test_gamma00_leaves_no_head_weight_table(self, monkeypatch):
        """gamma00_dimension runs its one deriv-2 by-parity sum once per
        matrix, so at g = 5 the one-hot classes of tau/2 are kept as bool
        (2^(g-1), heads), and no product of them with the head weights 1,
        h and h h^T (336 rows per head) is kept."""
        theta_module = sys.modules[RiemannMatrix.__module__]
        real, orders = theta_module._series, []

        def spy(*args, **kwargs):
            orders.append((args[4], kwargs.get("by_parity", False)))
            return real(*args, **kwargs)

        monkeypatch.setattr(theta_module, "_series", spy)
        tau = period_matrix(reference_curve(5)).tau
        for _ in range(2):
            gamma00_dimension(tau)
        assert orders == [(2, True)]
        half = tau._half
        assert {k[0] for k in half._tables} \
            == {"top", "lines", "onehot", "powers"}
        (stop,) = [k[1] for k in half._tables if k[0] == "lines"]
        assert list(k for k in half._tables if k[0] == "onehot") \
            == [("onehot", stop, True)]
        onehot = half._tables["onehot", stop, True]
        heads = half._tables["lines", stop, True][0]
        assert onehot.dtype == bool and onehot.shape == (16, len(heads))

    def test_lattice_points_changes_only_the_points(self):
        """lattice_points grows _points, _norms and _radius and leaves
        every other attribute, the kernel tables among them, as it was."""
        rm = RiemannMatrix(TAU3)
        second_order_basis(rm, near_corner_arguments(TAU3, 1, 3), deriv=1)
        _theta(rm, near_corner_arguments(TAU3, 2, 3), None, 1e-10, 1, True)
        before = dict(vars(rm))
        tables = dict(rm._tables)
        assert tables
        for radius in (2.0, rm._radius + 3.0, 1.0):
            rm.lattice_points(radius)
        assert len(rm._points) > len(before["_points"])
        assert vars(rm).keys() == before.keys()
        for name, value in vars(rm).items():
            if name not in ("_points", "_norms", "_radius"):
                assert value is before[name], name
        assert rm._tables.keys() == tables.keys()
        assert all(rm._tables[key] is table for key, table in tables.items())

    def test_a_stop_past_every_kept_one_drops_the_tables(self):
        """A sum at a stop past every kept one drops the tables; a sum at
        a smaller stop drops none."""
        rm = RiemannMatrix(TAU3)
        Z = near_corner_arguments(TAU3, 4, 3)
        stops = []
        for tol, deriv in ((1e-6, 0), (1e-14, 2), (1e-10, 1)):
            _, radius, _ = theta_batch(rm, Z, tol=tol, deriv=deriv)
            stops.append(len(rm.lattice_points(radius)))
        assert stops[0] < stops[2] < stops[1]
        assert {key[1] for key in rm._tables} == set(stops[1:])
        _, radius, _ = theta_batch(rm, Z, tol=2e-15, deriv=2)
        stop = len(rm.lattice_points(radius))
        assert stop > stops[1]
        assert {key[1] for key in rm._tables} == {stop}

    @pytest.mark.parametrize("split", [True, False],
                             ids=["split", "unsplit"])
    def test_rebuilt_tables_are_bitwise_the_first_build(self, monkeypatch,
                                                        split):
        """The tables of a stop, dropped by a sum at a larger one and built
        again, equal their first build to the bit: every kind of table."""
        if not split:
            monkeypatch.setattr(sys.modules[RiemannMatrix.__module__],
                                "_SPLIT_REACH", -1.0)
        tau = random_tau(4, 4)
        small = near_corner_arguments(tau, 5, 2)
        rm = RiemannMatrix(tau)

        def tables(tol):
            second_order_basis(rm, small, tol=tol, deriv=2)
            _theta(rm, small, None, tol, 1, True)
            return {m: dict(m._tables) for m in (rm, rm._half)}

        first = tables(1e-6)
        powers = {"powers"} if split else set()
        assert {k[0] for k in first[rm._half]} \
            == {"top", "lines", "onehot"} | powers
        assert {k[0] for k in first[rm]} == {"top", "lines", "moduli"} \
            | powers
        assert {k[2] for k in first[rm] if k[0] == "lines"} == {split}
        tables(1e-14)
        assert all(key not in m._tables for m in first for key in first[m])
        again = tables(1e-6)
        for m in first:
            assert again[m].keys() >= first[m].keys()
            for key, table in first[m].items():
                assert again[m][key] is not table
                assert_bitwise(again[m][key], table)

    @pytest.mark.parametrize("deriv", [0, 1, 2])
    def test_blocked_sums_match_one_block(self, monkeypatch, deriv):
        # blocks of two or three points split every class of the sums into
        # many blocks; the point set does not depend on the block size
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


def assert_bitwise(got, want):
    """got and want, nested lists and tuples of arrays and floats, are
    equal to the bit."""
    if isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_bitwise(a, b)
    else:
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


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
    def test_centred_balls_lie_in_the_points_a_sum_reads(self, half, g, tol,
                                                         deriv):
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
        # the call on a fresh matrix enumerated the whole ball it sums, and
        # built its tables for that prefix
        assert rm._radius >= radius
        assert ("top", len(rm.lattice_points(radius))) in rm._tables
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
        whole = _representatives(rm, len(rm.lattice_points(9.0)))[0]
        for r in (1.0, 3.3, 6.0, 9.0):
            points = rm.lattice_points(r)
            reps = _representatives(rm, len(points))[0]
            # the representatives of a prefix are a prefix of the whole's
            assert np.array_equal(reps, whole[:len(reps)])
            as_set = {tuple(n) for n in points}
            assert {tuple(n) for n in reps} | {tuple(-n) for n in reps} \
                == as_set
            assert 2 * len(reps) - 1 == len(as_set) == len(points)
            assert np.sum(~reps.any(axis=1)) == 1
        reps = whole
        first = reps[np.arange(len(reps)), np.argmax(reps != 0, axis=1)]
        assert np.all((first > 0) | ~reps.any(axis=1))
        # each representative is (its head, m), the heads are distinct, and
        # its class is 2 class(head) + (m mod 2)
        head, heads = _first_appearance(reps[:, :-1])
        np.testing.assert_array_equal(heads[head], reps[:, :-1])
        assert len({tuple(h) for h in heads}) == len(heads)
        for n, h in zip(reps, heads[head].astype(int)):
            assert index_from_eps(n % 2) \
                == 2 * index_from_eps(h % 2) + n[-1] % 2
        # heads are numbered by first appearance: the heads of every prefix
        # are the ids 0..k
        seen = np.maximum.accumulate(head)
        assert head[0] == 0 and np.all(np.diff(seen) <= 1)
        assert seen[-1] == len(heads) - 1

    @pytest.mark.parametrize("half", [False, True], ids=["tau", "tau/2"])
    @pytest.mark.parametrize("g", [3, 4, 5])
    def test_shells_match_the_box_oracle(self, g, half):
        """The cache grown in shells holds, after each shell, the points of
        the test-local box_ball with ||T n|| <= R, ordered by ||T n|| (to
        the bit) and lexicographically on ties; its representatives are the
        origin and the n lexicographically after -n, and its heads are
        numbered by first appearance among them."""
        rm = RiemannMatrix(random_tau(g, g) / (2.0 if half else 1.0))
        box = box_ball(g, g, half)[0]
        norms = np.linalg.norm(box @ rm._chol.T, axis=1)
        for radius in (3.0, 4.75, 6.5):
            got = rm.lattice_points(radius)
            inside = np.flatnonzero(norms <= radius + 1e-12)
            # by norm, then by the first coordinate, the second, ...
            want = inside[np.lexsort((*box[inside].T[::-1], norms[inside]))]
            np.testing.assert_array_equal(got, box[want])
            assert rm._norms[:len(got)].tobytes() \
                == norms[want].tobytes()
            reps = [i for i, n in enumerate(got.tolist())
                    if n >= [-c for c in n]]
            chosen = _representatives(rm, len(got))[0]
            assert chosen.tolist() == got[reps].tolist()
            first = {}
            for n in got[reps, :-1].tolist():
                first.setdefault(tuple(n), len(first))
            head, heads = _first_appearance(chosen[:, :-1])
            assert head.tolist() \
                == [first[tuple(n)] for n in got[reps, :-1].tolist()]
            assert heads.tolist() == [list(h) for h in first]

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


def jacobi_theta_at_zero(t):
    """theta(0; i t) at g=1 by Jacobi's transform t^(-1/2) theta(0; i / t),
    whose nome exp(-pi / t) mpmath.jtheta sums at once for small t."""
    with mpmath.workdps(30):
        return complex(mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi / t))
                       / mpmath.sqrt(t))


class TestIntegerRange:
    """Lattice points are int16; a sum whose points could leave that range
    is refused before they are enumerated.  Near the range the value
    meets the printed tail plus a rounding allowance: summing N terms
    errs by at most about N u A_0, A_0 the sum of their moduli (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Sec. 4.2),
    which the printed bound does not cover."""

    @staticmethod
    def allowance(rm, Z, radius):
        _, (a0,), _, _ = _theta(rm, np.asarray(Z, dtype=complex), None,
                                DEFAULT_THETA_TOL, 0, True)
        return 2 * len(rm.lattice_points(radius)) * 2.0 ** -53 * a0[0]

    def test_last_coordinates_past_the_int16_half_range(self):
        """The last coordinates summed reach 32,440, past 16,383, where
        m + top left int16 and the weights landed in the wrong columns
        (the sum read 9345.73 against 1e4)."""
        rm = RiemannMatrix([[1e-8j]])
        (value,), radius, tail = theta_batch(rm, [0.0])
        assert np.abs(rm.lattice_points(radius)).max() > 2 ** 14
        error = abs(value - jacobi_theta_at_zero(1e-8))
        assert tail < error <= tail + self.allowance(rm, [[0.0]], radius)

    def test_points_past_the_int16_range_are_refused(self):
        with pytest.raises(NumericalFailure):
            theta_batch([[1e-9j]], [0.0])

    def test_diagonal_g2_is_a_product_or_refused(self):
        """theta(0; diag(1e-8 i, i)) = theta(0; 1e-8 i) theta(0; i): the
        sum meets the same rule, or it is refused, as the radius at g=2
        takes the first coordinate to the int16 range."""
        rm = RiemannMatrix([[1e-8j, 0.0], [0.0, 1.0j]])
        try:
            (value,), radius, tail = theta_batch(rm, [0.0, 0.0])
        except NumericalFailure:
            return
        want = jacobi_theta_at_zero(1e-8) * jacobi_theta_at_zero(1.0)
        assert abs(value - want) \
            <= tail + self.allowance(rm, [[0.0, 0.0]], radius)


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

    def test_no_split_past_the_tables_bound(self, monkeypatch, head_widths):
        # U^T tau U skews the head coordinates alone, U = [[11, 4], [8, 3]]
        # on the first two.  The split factors stay far inside
        # _SPLIT_REACH, but the power tables of the heads would hold
        # exp(x) with |Re x| up to 2 pi sum_c top_c max |Im z_c| past it,
        # even with top_c the largest |n_c| summed: the sum runs unsplit.
        # tau and z on a 2^-8 grid make U^T tau U and U^T z exact.
        theta_module = sys.modules[RiemannMatrix.__module__]
        real, reach = theta_module._lines, []

        def spy(rm, stop, offset, y_max):
            n = np.abs(rm._points[:stop])
            reach.append((2.0 * rm._norms[stop - 1] * offset
                          + 4.0 * np.pi * n[:, -1].max() * y_max[-1],
                          2.0 * np.pi * (n[:, :-1].max(axis=0)
                                         @ y_max[:-1])))
            return real(rm, stop, offset, y_max)

        monkeypatch.setattr(theta_module, "_lines", spy)
        tau = np.round(TAU3 * 256.0) / 256.0
        U = np.eye(3, dtype=int)
        U[:2, :2] = [[11, 4], [8, 3]]
        rng = np.random.default_rng(3)
        Z = np.round(256.0 * (rng.standard_normal((4, 3))
                              + 0.4j * rng.standard_normal((4, 3)))) / 256.0
        (want,), _, tail = theta_batch(tau, Z)
        (got,), _, tail_skewed = theta_batch(U.T @ tau @ U, Z @ U)
        assert head_widths == [2, 3]
        assert reach[1][0] <= 600.0 < reach[1][1]
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


def direct_jets(rm, Z, radius, deriv, by_parity):
    """The jets _series sums at the reduced arguments Z (rows, g) over
    lattice_points(radius), each term exp(i pi n^T tau n + 2 pi i n^T z)
    formed by one exp of its whole exponent, and per row the largest
    modulus of an exponent and the sums A_k of |term| (2 pi max |n_i|)^k
    over the points."""
    n = rm.lattice_points(radius).astype(float)
    g = n.shape[1]
    tau = rm.entries
    expo = 1j * np.pi * np.einsum("ng,gh,nh->n", n, tau, n)[:, None] \
        + 2j * np.pi * n @ Z.T
    terms = np.exp(expo)
    classes = (n % 2) @ (2.0 ** np.arange(g)[::-1]) if by_parity \
        else np.zeros(len(n))
    onehot = classes[:, None] == np.arange(2 ** g if by_parity else 1)
    jets = [terms.T @ onehot]
    if deriv >= 1:
        jets.append(2j * np.pi * np.stack(
            [(terms * n[:, [i]]).T @ onehot for i in range(g)], axis=-1))
    if deriv >= 2:
        jets.append((2j * np.pi) ** 2 * np.stack(
            [np.stack([(terms * (n[:, i] * n[:, j])[:, None]).T @ onehot
                       for j in range(g)], axis=-1) for i in range(g)],
            axis=-2))
    scale = 2.0 * np.pi * np.abs(n).max(axis=1)[:, None]
    sums = [(np.abs(terms) * scale ** k).sum(axis=0)
            for k in range(deriv + 1)]
    return jets, np.abs(expo).max(axis=0), sums


class TestHeadFactors:
    """Split sums, whose head factors come from per-coordinate power
    tables, against sums that form every term with one exp."""

    @pytest.mark.parametrize("half", [False, True], ids=["tau", "tau/2"])
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_jets_match_direct_exp(self, g, half, head_widths):
        """Every entry of order k agrees within 2 u |x| A_k, u the unit
        roundoff, |x| the largest modulus of an exponent and A_k the sum
        of the moduli of the order-k terms: each side rounds every term
        by about u |x| of its size (the largest ratio measured is 0.22).
        The rows compared lie either side of the first block boundary of
        the 130-row calls and of row 128."""
        theta_module = sys.modules[RiemannMatrix.__module__]
        tau = period_matrix(reference_curve(g)).tau.entries
        rm = RiemannMatrix(tau / 2.0 if half else tau)
        rng = np.random.default_rng(g)
        Z = rng.uniform(-0.5, 0.5, (130, g)) \
            + rng.uniform(-0.5, 0.5, (130, g)) @ rm.entries.T
        Z_red, _, offset_sq, _ = _nearest_translates(rm, Z)
        u = np.finfo(float).eps / 2.0
        for by_parity in (False, True):
            for deriv in (0, 1, 2):
                jet, _, radius, _ = _series(rm, Z_red, offset_sq, 1e-8,
                                            deriv, by_parity)
                # a block holds _BLOCK / (8 S) rows, at most 128, S the
                # entries of the power tables
                stop = len(rm.lattice_points(radius))
                size = rm._tables["powers", stop][3].shape[1]
                block = min(128, theta_module._BLOCK // (8 * size))
                rows = sorted({0, block - 1, block, 127, 128, 129})
                want, reach, sums = direct_jets(rm, Z_red[rows], radius,
                                                deriv, by_parity)
                for k, (got, w) in enumerate(zip(jet, want)):
                    err = np.abs(got[rows] - w).reshape(len(w), -1)
                    bound = 2.0 * u * reach * sums[k]
                    assert np.all(err.max(axis=1) <= bound), (by_parity,
                                                             deriv, k)
        assert head_widths == [g - 1] * 6


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

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_ties_do_not_read_the_last_bits_of_the_norms(self, g):
        """At a half period tau n / 2 the centres n / 2 and -n / 2 are
        equally near the origin when no other translate is nearer.  The
        translate taken is the same however the last bit of each cached
        norm ||T n|| falls."""
        tau = random_tau(g, g)
        rm = RiemannMatrix(tau)
        points = rm.lattice_points(5.5)
        # every point past rho up to 5, one of each pair
        halves = points[(rm._norms[:len(points)] > 1.1 * rm._rho)
                        & (rm._norms[:len(points)] <= 5.0)][::2]
        Z = 0.1 + halves @ tau.T / 2.0
        _, want, offset_sq, _ = _nearest_translates(rm, Z)
        quarter = np.pi * np.einsum("ng,gh,nh->n", halves, tau.imag,
                                    halves) / 4.0
        assert np.all(offset_sq <= quarter * (1.0 + 1e-12))
        tied = offset_sq >= quarter * (1.0 - 1e-12)
        assert tied.sum() >= 2
        norms = rm._norms
        rng = np.random.default_rng(g)
        for _ in range(8):
            rm._norms = np.nextafter(norms, norms + rng.choice(
                [-1.0, 1.0], len(norms)))
            assert np.array_equal(_nearest_translates(rm, Z)[1], want)
        rm._norms = norms

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
    # of the box, the points whose terms are within exp(-R2) of the largest
    box = np.array(list(itertools.product(*ranges)), dtype=float)
    dist = box + a - center
    box = box[np.pi * np.einsum("ng,gh,nh->n", dist, Y, dist) <= R2]
    with mpmath.workdps(30):
        T = [[mpmath.mpc(complex(tau[i, j])) for j in range(g)]
             for i in range(g)]
        w = [mpmath.mpc(complex(z[i])) + mpmath.mpf(b[i]) for i in range(g)]
        ipi = mpmath.mpc(0, 1) * mpmath.pi
        value = mpmath.mpc(0)
        grad = [mpmath.mpc(0)] * g
        hess = [[mpmath.mpc(0)] * g for _ in range(g)]
        for n in box:
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


    @pytest.mark.parametrize("g", [4, 5])
    def test_jet_matches_mpmath_on_the_reference_curve(self, g):
        # one point of the cell, summed from power tables of 3 and 4 head
        # coordinates in two groups
        tau = period_matrix(reference_curve(g)).tau.entries
        rng = np.random.default_rng(g)
        z = rng.uniform(-0.5, 0.5, g) + rng.uniform(-0.5, 0.5, g) @ tau.T
        jet, _, tail = theta_batch(tau, z, deriv=2)
        zero = np.zeros(g)
        for got, want in zip(jet, mp_theta_jet(tau, z, zero, zero)):
            assert np.max(np.abs(got - want)) \
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
