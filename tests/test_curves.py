import numpy as np
import pytest

import trisect.curves as cv
from trisect.errors import AmbiguousConstant, InvalidInput, IllConditionedCurve
from trisect.curves import random_curve_point
from trisect.theta import theta_batch
from conftest import reference_curve


def agm(a, b):
    for _ in range(80):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        if abs(a - b) < 1e-16 * abs(a):
            break
    return a


def half_period_search(curve, periods):
    """Oracle for the Riemann constant: scan all 4^g half-periods
    (m + tau n) / 2, m, n in {0,1}^g, for the unique one on which
    theta(AJ(D) - kappa) vanishes for twenty random effective D of degree
    g-1, drawn with a seed of their own."""
    g = curve.genus
    tau = periods.tau.entries
    cands = []
    for idx in range(4 ** g):
        bits = [(idx >> k) & 1 for k in range(2 * g)]
        m = np.array(bits[:g], dtype=float)
        n = np.array(bits[g:], dtype=float)
        cands.append(((m + tau @ n) / 2.0, m.astype(int), n.astype(int)))
    kappas = np.stack([c[0] for c in cands])
    alive = np.arange(len(cands))
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = cv.random_effective_divisor(curve, g - 1, rng)
        pts = cv.abel_jacobi_divisor(curve, d, periods).z[None, :] \
            - kappas[alive]
        (vals, grads), _, _ = theta_batch(periods.tau, pts, tol=1e-10,
                                          deriv=1)
        newt = np.abs(vals) / np.maximum(np.linalg.norm(grads, axis=1),
                                         1e-300)
        alive = alive[newt < 1e-7]
    assert len(alive) == 1
    return cands[int(alive[0])]


class TestCurveValidation:

    def test_reference_curves_parse(self):
        for g in (1, 2, 3, 4, 5):
            curve = reference_curve(g)
            assert curve.genus == g
            assert len(curve.roots) == 2 * g + 1

    def test_even_degree_rejected(self):
        with pytest.raises(InvalidInput):
            cv.HyperellipticCurve((0.0, 1.0, 2.0, 1.0, 1.0))

    def test_repeated_roots_rejected(self):
        # x^3 - 2x^2 + x = x (x-1)^2
        with pytest.raises(IllConditionedCurve):
            cv.HyperellipticCurve((0.0, 1.0, -2.0, 1.0))

    def test_complex_roots_rejected(self):
        with pytest.raises(InvalidInput):
            cv.HyperellipticCurve((1.0, 0.0, 0.0, 1.0))  # x^3 + 1

    def test_from_json(self):
        curve = cv.HyperellipticCurve.from_json_dict(
            {"f_coeffs": [0, -1, 0, 1]})
        assert curve.genus == 1
        with pytest.raises(InvalidInput):
            cv.HyperellipticCurve.from_json_dict({"coeffs": [1]})

    def test_point_validation(self):
        curve = reference_curve(2)
        good = curve.point(1.5 + 0.5j, -1)
        curve.validate_point(good)
        with pytest.raises(InvalidInput):
            curve.validate_point(cv.CurvePoint(x=1.5, y=100.0))

    def test_involution(self):
        curve = reference_curve(2)
        p = curve.point(2.5 + 1.0j, 1)
        assert cv.involution(cv.involution(p)) == p
        w = curve.weierstrass_point(3)
        assert cv.involution(w) == w
        inf = cv.CurvePoint.infinity()
        assert cv.involution(inf) == inf


class TestDivisors:

    def test_dedup_and_degree(self):
        curve = reference_curve(2)
        p = curve.point(1.5 + 1.0j, 1)
        d = cv.Divisor.of(p, p, (p, 2))
        assert d.degree == 4
        assert len(d.terms) == 1
        assert len(d.expanded()) == 4

    def test_addition(self):
        curve = reference_curve(2)
        p = curve.point(1.5 + 1.0j, 1)
        q = cv.involution(p)
        assert (cv.Divisor.of(p) + cv.Divisor.of(q)).degree == 2


class TestPeriods:

    def test_elliptic_agm_oracle(self):
        """tau for y^2 = x^3 - x against an independent AGM computation."""
        curve = cv.HyperellipticCurve((0.0, -1.0, 0.0, 1.0))
        periods = cv.period_matrix(curve)
        tau = complex(periods.tau.entries[0, 0])
        e1, e2, e3 = curve.roots
        m = (e2 - e1) / (e3 - e1)
        K = np.pi / (2.0 * agm(1.0, np.sqrt(1.0 - m)))
        Kp = np.pi / (2.0 * agm(1.0, np.sqrt(m)))
        assert abs(tau - 1j * Kp / K) < 1e-9
        assert abs(tau - 1j) < 1e-9   # equianharmonic cross-ratio m = 1/2

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_bilinear_relations(self, g):
        periods = cv.period_matrix(reference_curve(g))
        assert periods.bilinear_residual() < 1e-9
        imag = periods.tau.entries.imag
        assert np.linalg.eigvalsh(imag).min() > 0


class TestAbelJacobi:

    def test_base_point_is_zero(self, jac2):
        curve, periods, _ = jac2
        z = cv.abel_jacobi(curve, cv.CurvePoint.infinity(), periods)
        assert np.linalg.norm(z.z) == 0.0
        d = cv.Divisor.of((cv.CurvePoint.infinity(), 2))
        zd = cv.abel_jacobi_divisor(curve, d, periods)
        assert np.linalg.norm(zd.z) == 0.0

    def test_conjugate_pairs_are_lattice_vectors(self, jac3):
        curve, periods, _ = jac3
        rng = np.random.default_rng(2)
        for _ in range(4):
            p = random_curve_point(curve, rng)
            zp = cv.abel_jacobi(curve, p, periods)
            zq = cv.abel_jacobi(curve, cv.involution(p), periods)
            assert (zp + zq).lattice_distance() < 1e-8

    def test_weierstrass_points_are_half_periods(self, jac2):
        curve, periods, _ = jac2
        for i in range(5):
            z = cv.abel_jacobi(curve, curve.weierstrass_point(i), periods)
            assert (2.0 * z).lattice_distance() < 1e-10
            assert z.lattice_distance() > 1e-3   # but not lattice vectors

    def test_linearly_equivalent_fibers(self, jac2):
        """Pullbacks of any two degree-1 divisors on the line are
        linearly equivalent; their images differ by a lattice vector."""
        curve, periods, _ = jac2
        for x1, x2 in [(1.3 + 0.8j, 2.6 + 1.1j), (0.4 + 0.5j, 3.7 + 0.2j)]:
            p = curve.point(x1, 1)
            q = curve.point(x2, 1)
            d1 = cv.Divisor.of(p, cv.involution(p))
            d2 = cv.Divisor.of(q, cv.involution(q))
            z1 = cv.abel_jacobi_divisor(curve, d1, periods)
            z2 = cv.abel_jacobi_divisor(curve, d2, periods)
            assert z1.lattice_distance(z2) < 1e-8

    def test_divisor_map_is_additive_on_lifts(self, jac2):
        curve, periods, _ = jac2
        rng = np.random.default_rng(4)
        p = random_curve_point(curve, rng)
        q = random_curve_point(curve, rng)
        zp = cv.abel_jacobi(curve, p, periods)
        zq = cv.abel_jacobi(curve, q, periods)
        zd = cv.abel_jacobi_divisor(curve, cv.Divisor.of(p, q), periods)
        assert np.allclose(zd.z, (zp + zq).z, atol=0)

    def test_determinism(self, jac3):
        curve, periods, _ = jac3
        p = curve.point(1.7 + 0.9j, -1)
        z1 = cv.abel_jacobi(curve, p, periods)
        z2 = cv.abel_jacobi(curve, p, periods)
        assert np.array_equal(z1.z, z2.z)


class TestRiemannConstant:

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_kappa_matches_half_period_search(self, g):
        curve = reference_curve(g)
        periods = cv.period_matrix(curve)
        kappa, info = cv.riemann_constant(curve, periods)
        z, m, n = half_period_search(curve, periods)
        assert np.array_equal(kappa.z, z)
        assert info["m"] == m.tolist() and info["n"] == n.tolist()

    def test_refuses_kappa_that_fails_the_certificate(self, jac2):
        curve, periods, _ = jac2
        with pytest.raises(AmbiguousConstant) as exc:
            cv.riemann_constant(curve, periods, tol=1e-30)
        assert exc.value.details["residual"] >= 1e-30

    @pytest.mark.parametrize("g", [2, 3])
    def test_kappa_annihilates_fresh_divisors(self, g, jac2, jac3):
        curve, periods, kappa = {2: jac2, 3: jac3}[g]
        rng = np.random.default_rng(555 + g)
        for _ in range(20):
            d = cv.random_effective_divisor(curve, g - 1, rng)
            z = (cv.abel_jacobi_divisor(curve, d, periods) - kappa).z
            (val, grad), _, _ = theta_batch(periods.tau, z, deriv=1)
            assert abs(complex(val)) / np.linalg.norm(grad) < 1e-7

    def test_kappa_is_half_period(self, jac3):
        _, _, kappa = jac3
        assert (2.0 * kappa).lattice_distance() < 1e-10

    def test_two_kappa_is_canonical(self, jac3):
        curve, periods, kappa = jac3
        sample = cv.sample_B_ell(curve, 2, seed=8)
        zk = cv.abel_jacobi_divisor(curve, sample.k0, periods)
        assert (2.0 * kappa - zk).lattice_distance() < 1e-7


class TestCanonicalSampling:

    def test_shape_and_degree(self, jac4):
        curve, periods, _ = jac4
        g = curve.genus
        for ell in (2, 3, 4):
            sample = cv.sample_B_ell(curve, ell, seed=5)
            assert sample.k0.degree == 2 * g - 2
            assert len(sample.simple_points) == 2 * ell - 2
            assert len(sample.double_points) == g - ell
            # simple part comes in conjugate pairs
            for i in range(0, 2 * ell - 2, 2):
                p, q = sample.simple_points[i], sample.simple_points[i + 1]
                assert q == cv.involution(p)

    def test_ell_range_enforced(self, jac3):
        curve, _, _ = jac3
        with pytest.raises(InvalidInput):
            cv.sample_B_ell(curve, 1, seed=0)
        with pytest.raises(InvalidInput):
            cv.sample_B_ell(curve, 4, seed=0)

    def test_determinism(self, jac3):
        curve, _, _ = jac3
        s1 = cv.sample_B_ell(curve, 3, seed=77)
        s2 = cv.sample_B_ell(curve, 3, seed=77)
        assert s1.simple_points == s2.simple_points
        assert s1.double_points == s2.double_points

    def test_pqrs_labels(self, jac3):
        curve, _, _ = jac3
        sample = cv.sample_B_ell(curve, 3, seed=77)
        p, q, r, s = sample.labeled_pqrs
        assert q == cv.involution(p)
        assert s == cv.involution(r)
        with pytest.raises(InvalidInput):
            cv.sample_B_ell(curve, 2, seed=0).labeled_pqrs


class TestSpecialness:

    def test_pair_count_oracle(self, jac3):
        curve, _, _ = jac3
        rng = np.random.default_rng(1)
        p = random_curve_point(curve, rng)
        q = random_curve_point(curve, rng)
        assert not cv.divisor_is_special(curve, cv.Divisor.of(p, q))
        assert cv.divisor_is_special(
            curve, cv.Divisor.of(p, cv.involution(p)))
        w = curve.weierstrass_point(2)
        assert cv.divisor_is_special(curve, cv.Divisor.of((w, 2)))
        assert not cv.divisor_is_special(curve, cv.Divisor.of(w, p))

    def test_infinity_pairs(self, jac3):
        curve, _, _ = jac3
        inf = cv.CurvePoint.infinity()
        assert cv.divisor_is_special(curve, cv.Divisor.of((inf, 2)))
