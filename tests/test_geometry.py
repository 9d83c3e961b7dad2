import itertools
import math

import numpy as np
import pytest

import trisect.curves as cv
import trisect.geometry as geo
from trisect.errors import InvalidInput, NotOnTheta, NumericalFailure
from trisect.theta import RiemannMatrix, theta_batch
from trisect.curves import random_curve_point
from trisect.selftest import reference_curve

TAU2 = np.array([[1.0j, 0.3 + 0.1j], [0.3 + 0.1j, 0.2 + 1.5j]])
SEARCH_SEED = 20260823
#: Riemann matrices with a small Im tau_11 (0.15 and 0.2), so a large
#: (Im tau)^-1_11: the line search's Fourier model on axis 0 needs more
#: samples, and aliasing shows first there if too few are taken
SMALL_IMAG = {1: np.array([[0.3 + 0.15j]]),
              2: np.array([[0.1 + 0.2j, 0.05 + 0.05j], [0.05 + 0.05j, 1.0j]])}


def random_tau(g):
    """A Riemann matrix with unit-scale, non-diagonal real and imaginary
    parts."""
    rng = np.random.default_rng(100 + g)
    A = rng.normal(size=(g, g))
    X = rng.normal(size=(g, g)) * 0.3
    return X + X.T + 1j * (np.eye(g) + 0.3 * A @ A.T / g)


class TestKummerMap:

    def test_evenness(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(2) * 0.4 + 0.3j * rng.standard_normal(2)
        kp = geo.kummer_map(TAU2, z)
        km = geo.kummer_map(TAU2, -z)
        assert kp.angle_to(km) < 1e-9

    def test_quasi_periodic_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(2) * 0.4 + 0.3j * rng.standard_normal(2)
        base = geo.kummer_map(TAU2, z)
        for m, n in [((1, 0), (0, 0)), ((0, -2), (1, 0)), ((1, 1), (-1, 2))]:
            shift = np.array(m, dtype=float) + TAU2 @ np.array(n, dtype=float)
            assert base.angle_to(geo.kummer_map(TAU2, z + shift)) < 1e-9

    def test_never_identically_zero_on_grid(self):
        tau = np.array([[1.0j]])
        ts = np.linspace(0.0, 0.95, 7)
        for u in ts:
            for v in ts:
                z = np.array([u + 1j * v * tau[0, 0].imag])
                kp = geo.kummer_map(tau, z)
                assert np.max(np.abs(kp.coords)) == pytest.approx(1.0)
                assert kp.raw_scale > 1e-6

    def test_normalization(self):
        kp = geo.kummer_map(TAU2, [0.1 + 0.2j, -0.3 + 0.1j])
        assert np.max(np.abs(kp.coords)) == pytest.approx(1.0)
        assert kp.g == 2
        assert kp.raw_scale > 0


class TestOnTheta:

    def test_divisor_points_are_members(self):
        rng = np.random.default_rng(2)
        rm = RiemannMatrix(TAU2)
        for _ in range(3):
            z = geo.theta_divisor_point(rm, rng)
            member, residual = geo.on_theta(rm, z)
            assert member
            assert residual < 1e-9

    def test_generic_point_is_not(self):
        rng = np.random.default_rng(3)
        rm = RiemannMatrix(TAU2)
        z = rng.standard_normal(2) * 0.3 + 0.2j * rng.standard_normal(2)
        member, residual = geo.on_theta(rm, z)
        assert not member
        assert residual > 1e-4

    def test_translated_member(self):
        rng = np.random.default_rng(4)
        rm = RiemannMatrix(TAU2)
        z = geo.theta_divisor_point(rm, rng)
        shift = np.array([3.0, -2.0]) + TAU2 @ np.array([1.0, 2.0])
        member, _ = geo.on_theta(rm, z + shift)
        assert member

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_point_moved_off_the_divisor_is_refused(self, g):
        """A point of the divisor moved 1e-6 along conj(grad theta), the
        direction in which |theta| grows fastest, is not a member."""
        rm = RiemannMatrix(random_tau(g))
        z = geo.theta_divisor_point(rm, np.random.default_rng(g))
        member, _ = geo.on_theta(rm, z)
        assert member
        (_, grad), _, _ = theta_batch(rm, z, deriv=1)
        moved = z + 1e-6 * grad.conj() / np.linalg.norm(grad)
        member, residual = geo.on_theta(rm, moved)
        assert not member
        assert residual > 10.0 * geo.ON_THETA_TOL

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_residual_is_invariant_under_lattice_translation(self, g):
        """|theta| and A_0 pick up the same |prefactor| at z + m + tau p."""
        rm = RiemannMatrix(random_tau(g))
        rng = np.random.default_rng(10 + g)
        z = rng.uniform(-0.5, 0.5, g) \
            + rm.entries @ rng.uniform(-0.5, 0.5, g)
        far = z + rng.integers(-3, 4, g) \
            + rm.entries @ rng.integers(-2, 3, g)
        _, near = geo.on_theta(rm, z)
        _, moved = geo.on_theta(rm, far)
        assert near > 1e-4
        assert abs(moved - near) <= 1e-12 * near


class TestGaussMap:

    def test_defined_and_even(self):
        rng = np.random.default_rng(5)
        rm = RiemannMatrix(TAU2)
        z = geo.theta_divisor_point(rm, rng)
        img = geo.gauss_map(rm, z)
        assert img.defined
        assert img.gradient_norm > img.threshold
        img_neg = geo.gauss_map(rm, -np.asarray(z))
        assert img.angle_to(img_neg) < 1e-8

    def test_raises_off_divisor(self):
        rm = RiemannMatrix(TAU2)
        with pytest.raises(NotOnTheta):
            geo.gauss_map(rm, np.array([0.21 + 0.11j, 0.05 - 0.17j]))

    def test_singular_point_is_undefined(self, jac3):
        """zeta(P + sigma P) - kappa is a double point of the g=3 divisor."""
        curve, periods, kappa = jac3
        p = curve.point(1.4 + 0.9j, 1)
        d = cv.Divisor.of(p, cv.involution(p))
        x = cv.abel_jacobi_divisor(curve, d, periods) - kappa
        img = geo.gauss_map(periods.tau, x)
        assert not img.defined
        assert geo.vanishing_order(periods.tau, x) == 2

    def test_vanishing_order_smooth(self, jac3):
        curve, periods, kappa = jac3
        rng = np.random.default_rng(6)
        p = random_curve_point(curve, rng)
        q = random_curve_point(curve, rng)
        x = cv.abel_jacobi_divisor(curve, cv.Divisor.of(p, q), periods) - kappa
        assert geo.vanishing_order(periods.tau, x) == 1


class TestCanonicalDirection:

    def test_infinity_is_last_basis_direction(self, jac2):
        curve, periods, _ = jac2
        v = geo.canonical_direction(curve, periods,
                                    cv.CurvePoint.infinity())
        w = periods.normalization @ np.array([0.0, 1.0])
        assert geo.hyperplane_residual(v, w) >= 0  # well-formed
        from trisect.numeric import projective_angle
        assert projective_angle(v, w) < 1e-12

    def test_unit_norm(self, jac3):
        curve, periods, _ = jac3
        v = geo.canonical_direction(curve, periods, curve.point(2.3 + 1j, 1))
        assert np.linalg.norm(v) == pytest.approx(1.0)


class TestGaussHyperplane:

    def test_gradient_annihilates_fiber_points(self, jac3):
        """At x = zeta(D) - kappa for generic degree-2 D, the canonical
        images of the points of D lie on the hyperplane of grad theta."""
        curve, periods, kappa = jac3
        rng = np.random.default_rng(7)
        for _ in range(4):
            p = random_curve_point(curve, rng)
            q = random_curve_point(curve, rng)
            d = cv.Divisor.of(p, q)
            x = cv.abel_jacobi_divisor(curve, d, periods) - kappa
            img = geo.gauss_map(periods.tau, x)
            assert img.defined
            for point in (p, q):
                v = geo.canonical_direction(curve, periods, point)
                assert geo.hyperplane_residual(img.direction, v) < 1e-6

    def test_fiber_points_share_one_hyperplane(self, jac3):
        """At g = 3 the canonical curve is a plane quartic and K0 is a line
        section, so every smooth subdivisor of K0 has the same Gauss image:
        the line itself."""
        curve, periods, kappa = jac3
        sample = cv.sample_B_ell(curve, 3, seed=13)
        dirs = []
        for divisor, _ in fiber_subdivisors(sample.k0, curve.genus):
            if cv.divisor_is_special(curve, divisor):
                continue
            x = cv.abel_jacobi_divisor(curve, divisor, periods) - kappa
            img = geo.gauss_map(periods.tau, x)
            if img.defined:
                dirs.append(img.direction)
        assert len(dirs) >= 3
        from trisect.numeric import numerical_rank
        assert numerical_rank(np.stack(dirs)).decided_rank == 1


def fiber_subdivisors(k0, genus):
    """(subdivisor, multiplicity) over the Gauss fiber of the Divisor K0,
    each subdivisor built from K0's points as span_VpWp builds it."""
    points, mults = zip(*k0.terms)
    return [(cv.Divisor.of(*zip(points, l)), m)
            for l, m in geo.gauss_fiber_enumerate(mults, genus)]


def product_filter(mults, genus):
    """Reference Gauss fiber: every vector of the box 0 <= l_i <= n_i, in
    itertools.product order, kept when it sums to g-1."""
    return [(l, math.prod(math.comb(n, li) for n, li in zip(mults, l)))
            for l in itertools.product(*[range(n + 1) for n in mults])
            if sum(l) == genus - 1]


def compositions(total):
    """Every sequence of positive integers summing to total."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


class TestFiberEnumeration:

    def test_four_fold_point_g3(self):
        fiber = geo.gauss_fiber_enumerate([4], genus=3)
        assert len(fiber) == 1
        assert fiber[0][1] == 6
        assert sum(m for _, m in fiber) == 6

    def test_generic_simple_k0(self):
        for g in (2, 3, 4):
            fiber = geo.gauss_fiber_enumerate([1] * (2 * g - 2), genus=g)
            assert len(fiber) == math.comb(2 * g - 2, g - 1)
            assert all(m == 1 for _, m in fiber)
            assert sum(m for _, m in fiber) == math.comb(2 * g - 2, g - 1)

    def test_mixed_multiplicities(self):
        # K0 = p + q + r + s + 2Q at g = 4; D = Q + p + s appears with
        # multiplicity C(2,1) = 2
        fiber = geo.gauss_fiber_enumerate([1, 1, 1, 1, 2], genus=4)
        assert sum(m for _, m in fiber) == 20
        lone_q = [m for l, m in fiber if l[4] == 1]
        assert lone_q and all(m == 2 for m in lone_q)

    def test_degree_validation(self):
        with pytest.raises(InvalidInput):
            geo.gauss_fiber_enumerate([1, 1, 1], genus=3)
        with pytest.raises(InvalidInput):
            geo.gauss_fiber_enumerate([0, 4], genus=3)

    def test_matches_product_filter(self):
        """Entries and order equal the box filter's on every K0 up to genus
        6 and on seeded random ones up to MAX_FIBER_GENUS."""
        cases = [(mults, g) for g in range(1, 7)
                 for mults in compositions(2 * g - 2)]
        rng = np.random.default_rng(25)
        for g in range(7, geo.MAX_FIBER_GENUS + 1):
            for _ in range(10):
                cuts = np.flatnonzero(rng.integers(2, size=2 * g - 3)) + 1
                cases.append((np.diff([0, *cuts, 2 * g - 2]).tolist(), g))
        for mults, g in cases:
            assert geo.gauss_fiber_enumerate(mults, g) \
                == product_filter(mults, g), (mults, g)

    def test_specialness_from_curve(self, jac3):
        curve, _, _ = jac3
        p = curve.point(1.7 + 0.6j, 1)
        q = cv.involution(p)
        r = curve.point(3.2 + 0.4j, 1)
        s = cv.involution(r)
        fiber = fiber_subdivisors(cv.Divisor.of(p, q, r, s), curve.genus)
        assert sum(m for _, m in fiber) == 6
        specials = [d for d, _ in fiber if cv.divisor_is_special(curve, d)]
        assert len(specials) == 2  # the two conjugate pairs p+q and r+s

    @pytest.mark.parametrize("g, seed", [(3, 13), (4, 1)])
    def test_oracle_matches_vanishing_order(self, g, seed, jac3, jac4):
        """On B3 samples the conjugate-pair oracle marks an entry special
        exactly when theta vanishes to order >= 2 at AJ(entry) - kappa."""
        curve, periods, kappa = {3: jac3, 4: jac4}[g]
        sample = cv.sample_B_ell(curve, 3, seed=seed)
        divisors = [d for d, _ in fiber_subdivisors(sample.k0, g)]
        special = [cv.divisor_is_special(curve, d) for d in divisors]
        assert any(special) and not all(special)
        for divisor, is_special in zip(divisors, special):
            x = cv.abel_jacobi_divisor(curve, divisor, periods) - kappa
            assert (geo.vanishing_order(periods.tau, x) >= 2) == is_special


class TestLineRootSearch:
    """theta_divisor_point: the roots of a coordinate line's Fourier model,
    polished by Newton's method on the line, one draw per attempt."""

    TAUS = [("reference", g) for g in range(1, 6)] \
        + [("random", g) for g in range(1, 6)] \
        + [("small-imag", 1), ("small-imag", 2)]

    @staticmethod
    def riemann_matrix(kind, g):
        if kind == "reference":
            return cv.period_matrix(reference_curve(g)).tau
        return RiemannMatrix(random_tau(g) if kind == "random"
                             else SMALL_IMAG[g])

    @staticmethod
    def drawn_lines(monkeypatch):
        """The (z0, j) of every draw theta_divisor_point makes."""
        lines = []
        draw = geo._draw_line

        def recording(rng, g):
            lines.append(draw(rng, g))
            return lines[-1]
        monkeypatch.setattr(geo, "_draw_line", recording)
        return lines

    @pytest.mark.parametrize("kind, g", TAUS)
    def test_fourier_model_matches_theta_between_samples(self, kind, g):
        """The N-sample model reproduces theta_batch at s = (k + 1/2) / N,
        midway between the samples, so the coefficients it drops are below
        rounding."""
        rm = self.riemann_matrix(kind, g)
        rng = np.random.default_rng(SEARCH_SEED)
        for _ in range(4):
            z0, _ = geo._draw_line(rng, g)
            for j in range(g):
                coeffs = geo._line_fourier(rm, z0, j)
                n = len(coeffs)
                Z = np.repeat(z0[None], 2 * n, axis=0)
                Z[:, j] += np.arange(2 * n) / (2 * n)
                (values,), _, _ = theta_batch(rm, Z)
                samples, midway = values[::2], values[1::2]
                s = (np.arange(n) + 0.5) / n
                m = np.arange(n) - n // 2
                model = np.exp(2j * np.pi * np.outer(s, m)) @ coeffs
                assert np.max(np.abs(model - midway)) \
                    <= 1e-12 * np.max(np.abs(samples))

    @pytest.mark.parametrize("kind, g", [("reference", 4), ("random", 3),
                                         ("small-imag", 2)])
    def test_root_is_the_np_roots_root(self, kind, g):
        """_line_root takes the eigenvalues of the companion matrix of the
        kept coefficients, as np.roots does, to the bit."""
        rm = self.riemann_matrix(kind, g)
        rng = np.random.default_rng(SEARCH_SEED)
        for _ in range(3):
            z0, j = geo._draw_line(rng, g)
            coeffs = geo._line_fourier(rm, z0, j)
            kept = np.flatnonzero(
                np.abs(coeffs) > geo._ROUNDING * np.abs(coeffs).max())
            s = np.log(np.roots(coeffs[kept[0]:kept[-1] + 1][::-1])) \
                / (2j * np.pi)
            s = s[np.abs(s.imag) <= 1.0]
            want = complex(s[np.argmin(np.abs(s.imag))]) if len(s) else None
            got = geo._line_root(rm, z0, j)
            assert got == want
            if got is not None:
                assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_small_imaginary_part_takes_more_samples(self):
        rm = RiemannMatrix(SMALL_IMAG[2])
        z0 = np.zeros(2, dtype=complex)
        assert len(geo._line_fourier(rm, z0, 0)) \
            > 1.5 * len(geo._line_fourier(rm, z0, 1))

    @pytest.mark.parametrize("kind, g", [("reference", 3), ("random", 4),
                                         ("random", 5), ("small-imag", 2)])
    def test_point_lies_on_its_line(self, kind, g, monkeypatch):
        rm = self.riemann_matrix(kind, g)
        lines = self.drawn_lines(monkeypatch)
        rng = np.random.default_rng(SEARCH_SEED)
        for _ in range(6):
            z = geo.theta_divisor_point(rm, rng)
            z0, j = lines[-1]
            off_axis = np.arange(g) != j
            assert np.array_equal(z[off_axis], z0[off_axis])
            assert abs((z[j] - z0[j]).imag) <= 1.0
            member, residual = geo.on_theta(rm, z)
            assert member
            assert residual < 1e-12

    def test_consecutive_failures_raise(self, monkeypatch):
        """With no root qualifying, every attempt takes exactly one draw
        and the MAX_ATTEMPTS-th consecutive failure raises."""
        rm = RiemannMatrix(random_tau(3))
        draw = geo._draw_line
        lines = self.drawn_lines(monkeypatch)
        monkeypatch.setattr(geo, "_line_root", lambda rm, z0, j: None)
        rng = np.random.default_rng(SEARCH_SEED)
        with pytest.raises(NumericalFailure):
            geo.theta_divisor_point(rm, rng)
        assert geo.MAX_ATTEMPTS == 8
        assert len(lines) == geo.MAX_ATTEMPTS
        reference = np.random.default_rng(SEARCH_SEED)
        for z0, j in lines:
            z0_ref, j_ref = draw(reference, 3)
            assert np.array_equal(z0, z0_ref) and j == j_ref
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_last_attempt_may_succeed(self, monkeypatch):
        """Seven failures, then a point on the eighth line."""
        rm = RiemannMatrix(random_tau(3))
        lines = self.drawn_lines(monkeypatch)
        line_root = geo._line_root
        monkeypatch.setattr(
            geo, "_line_root", lambda rm, z0, j: line_root(rm, z0, j)
            if len(lines) == geo.MAX_ATTEMPTS else None)
        z = geo.theta_divisor_point(rm, np.random.default_rng(SEARCH_SEED))
        assert len(lines) == geo.MAX_ATTEMPTS
        z0, j = lines[-1]
        assert np.array_equal(np.delete(z, j), np.delete(z0, j))
        assert geo.on_theta(rm, z)[0]
