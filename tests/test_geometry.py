import numpy as np
import pytest

import trisect.curves as cv
import trisect.geometry as geo
from trisect.errors import InvalidInput, NotOnTheta, NumericalFailure
from trisect.theta import RiemannMatrix, theta_batch, DEFAULT_THETA_TOL
from trisect.curves import random_curve_point

TAU2 = np.array([[1.0j, 0.3 + 0.1j], [0.3 + 0.1j, 0.2 + 1.5j]])
CALIBRATION_SEED = 20260823


def serial_theta_divisor_points(rm, rng, n, tol=DEFAULT_THETA_TOL,
                                max_tries=8):
    """Reference: the one-point-at-a-time Newton search, one single-row
    theta_batch call per step.  Returns the points and the number of
    attempts each needed."""
    points, attempts = [], []
    for _ in range(n):
        for attempt in range(1, max_tries + 1):
            z0 = (rng.standard_normal(rm.g)
                  + 1j * rng.standard_normal(rm.g)) * 0.25
            d = rng.standard_normal(rm.g) + 1j * rng.standard_normal(rm.g)
            d /= np.linalg.norm(d)
            t, ok = 0.1 + 0.1j, False
            for _ in range(60):
                if not np.isfinite(t) or abs(t) > 4.0:
                    break
                (val, grad), _, _ = theta_batch(rm, z0 + t * d, tol=tol,
                                                deriv=1)
                dd = complex(grad @ d)
                if not np.isfinite(dd) or abs(dd) < 1e-14:
                    break
                step = complex(val) / dd
                if abs(step) > 0.5:
                    step *= 0.5 / abs(step)
                t = t - step
                if abs(step) < 1e-14 * max(1.0, abs(t)):
                    ok = True
                    break
            if ok:
                (val, grad), _, _ = theta_batch(rm, z0 + t * d, tol=tol,
                                                deriv=1)
                if abs(complex(val)) < 1e-9 * np.linalg.norm(grad):
                    points.append(z0 + t * d)
                    attempts.append(attempt)
                    break
        else:
            raise NumericalFailure("serial Newton search failed")
    return np.array(points), attempts


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

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_probe_offsets_are_drawn_once_per_genus(self, g):
        rng = np.random.default_rng(7)
        want = 0.2 * (rng.standard_normal((6, g))
                      + 1j * rng.standard_normal((6, g)))
        got = geo._probe_offsets(g)
        np.testing.assert_array_equal(got, want)
        assert geo._probe_offsets(g) is got
        assert not got.flags.writeable


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
        entries = geo.gauss_fiber_enumerate(sample.k0, curve.genus,
                                            curve=curve)
        dirs = []
        for entry in entries:
            if entry.special:
                continue
            x = cv.abel_jacobi_divisor(curve, entry.subdivisor,
                                       periods) - kappa
            img = geo.gauss_map(periods.tau, x)
            if img.defined:
                dirs.append(img.direction)
        assert len(dirs) >= 3
        from trisect.numeric import numerical_rank
        assert numerical_rank(np.stack(dirs)).decided_rank == 1


class TestFiberEnumeration:

    def test_four_fold_point_g3(self):
        entries = geo.gauss_fiber_enumerate([4], genus=3)
        assert len(entries) == 1
        assert entries[0].multiplicity == 6
        assert geo.fiber_total_multiplicity(entries) == 6

    def test_generic_simple_k0(self):
        for g in (2, 3, 4):
            entries = geo.gauss_fiber_enumerate([1] * (2 * g - 2), genus=g)
            from math import comb
            assert len(entries) == comb(2 * g - 2, g - 1)
            assert all(e.multiplicity == 1 for e in entries)
            assert geo.fiber_total_multiplicity(entries) == comb(2 * g - 2,
                                                                 g - 1)

    def test_mixed_multiplicities(self):
        # K0 = p + q + r + s + 2Q at g = 4; D = Q + p + s appears with
        # multiplicity C(2,1) = 2
        entries = geo.gauss_fiber_enumerate([1, 1, 1, 1, 2], genus=4)
        assert geo.fiber_total_multiplicity(entries) == 20
        lone_q = [e for e in entries
                  if dict(e.subdivisor).get(4, 0) == 1]
        assert all(e.multiplicity == 2 for e in lone_q)

    def test_degree_validation(self):
        with pytest.raises(InvalidInput):
            geo.gauss_fiber_enumerate([1, 1, 1], genus=3)
        with pytest.raises(InvalidInput):
            geo.gauss_fiber_enumerate([0, 4], genus=3)

    def test_specialness_from_curve(self, jac3):
        curve, _, _ = jac3
        p = curve.point(1.7 + 0.6j, 1)
        q = cv.involution(p)
        r = curve.point(3.2 + 0.4j, 1)
        s = cv.involution(r)
        k0 = cv.Divisor.of(p, q, r, s)
        entries = geo.gauss_fiber_enumerate(k0, curve.genus, curve=curve)
        assert geo.fiber_total_multiplicity(entries) == 6
        specials = [e for e in entries if e.special]
        assert len(specials) == 2  # the two conjugate pairs p+q and r+s

    @pytest.mark.parametrize("g, seed", [(3, 13), (4, 1)])
    def test_oracle_matches_vanishing_order(self, g, seed, jac3, jac4):
        """On B3 samples the conjugate-pair oracle marks an entry special
        exactly when theta vanishes to order >= 2 at AJ(entry) - kappa."""
        curve, periods, kappa = {3: jac3, 4: jac4}[g]
        sample = cv.sample_B_ell(curve, 3, seed=seed)
        entries = geo.gauss_fiber_enumerate(sample.k0, g, curve=curve)
        assert any(e.special for e in entries)
        assert not all(e.special for e in entries)
        for entry in entries:
            x = cv.abel_jacobi_divisor(curve, entry.subdivisor,
                                       periods) - kappa
            assert (geo.vanishing_order(periods.tau, x) >= 2) \
                == entry.special


class TestBatchedNewton:
    """_theta_divisor_points runs the calibration's Newton searches as one
    batch; it must return the serial search's points and leave the rng in
    the serial search's state, retries included."""

    # roots of y^2 = f(x); the calibration of the first (the g=3 reference
    # curve) retries once, of the second twice, of the third never
    ROOTS = {"reference-g3": [0, 1, 2, 3, 4, 5, 6],
             "two-retries": [-0.3, 1.1, 1.9, 3.2, 3.9, 4.8, 5.7],
             "no-retry": [0.2, 0.8, 1.9, 3.1, 3.8, 5.1, 5.9]}

    @staticmethod
    def riemann_matrix(roots):
        curve = cv.HyperellipticCurve(np.poly(roots)[::-1].tolist())
        return cv.period_matrix(curve).tau

    @pytest.mark.parametrize("name", list(ROOTS))
    def test_matches_serial_search(self, name):
        rm = self.riemann_matrix(self.ROOTS[name])
        rng_serial = np.random.default_rng(CALIBRATION_SEED)
        rng_batch = np.random.default_rng(CALIBRATION_SEED)
        rng_single = np.random.default_rng(CALIBRATION_SEED)
        serial, attempts = serial_theta_divisor_points(rm, rng_serial, 12)
        batch = geo._theta_divisor_points(rm, rng_batch, 12)
        single = np.array([geo.theta_divisor_point(rm, rng_single)
                           for _ in range(12)])
        assert sum(a > 1 for a in attempts) == {
            "reference-g3": 1, "two-retries": 2, "no-retry": 0}[name]
        for points in (batch, single):
            assert points.shape == (12, 3)
            assert np.max(np.abs(points - serial)) < 1e-12
        state = rng_serial.bit_generator.state
        assert rng_batch.bit_generator.state == state
        assert rng_single.bit_generator.state == state

    @pytest.mark.parametrize("name", ["reference-g3", "two-retries"])
    def test_consecutive_failures_raise(self, name):
        # every failure in these calibrations is a single attempt, followed
        # by a success: one failure on the reference curve, two apart on
        # the other
        rm = self.riemann_matrix(self.ROOTS[name])
        for search in (geo._theta_divisor_points,
                       serial_theta_divisor_points):
            with pytest.raises(NumericalFailure):
                search(rm, np.random.default_rng(CALIBRATION_SEED), 12,
                       max_tries=1)
        points = geo._theta_divisor_points(
            rm, np.random.default_rng(CALIBRATION_SEED), 12, max_tries=2)
        serial, _ = serial_theta_divisor_points(
            rm, np.random.default_rng(CALIBRATION_SEED), 12, max_tries=2)
        assert np.max(np.abs(points - serial)) < 1e-12
