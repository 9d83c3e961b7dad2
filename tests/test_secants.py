from itertools import combinations

import numpy as np
import pytest

import trisect.curves as cv
import trisect.geometry as geo
import trisect.secants as sec
from trisect.errors import InvalidInput
from trisect.numeric import numerical_rank
from trisect.selftest import DEFAULT_SEED
from trisect.theta import second_order_basis, ON_THETA_TOL
from trisect.curves import random_curve_point


def four_points(curve, seed):
    rng = np.random.default_rng(seed)
    return [random_curve_point(curve, rng) for _ in range(4)]


class TestFayConstruction:

    def test_lift_identities_exact(self, jac2):
        curve, periods, _ = jac2
        p, q, r, s = four_points(curve, 10)
        tri = sec.fay_construct(curve, periods, p, q, r, s)
        zp, zq, zr, zs = (cv.abel_jacobi(curve, pt, periods)
                          for pt in (p, q, r, s))
        assert np.allclose((tri.a + tri.b).z, (zp - zq).z, atol=1e-14)
        assert np.allclose((tri.a + tri.c).z, (zp - zr).z, atol=1e-14)
        assert np.allclose((tri.b + tri.c).z, (zp - zs).z, atol=1e-14)

    @pytest.mark.parametrize("g,seed", [(2, 21), (2, 22), (3, 23)])
    def test_certificate_passes(self, g, seed, jac2, jac3):
        curve, periods, _ = {2: jac2, 3: jac3}[g]
        p, q, r, s = four_points(curve, seed)
        tri = sec.fay_construct(curve, periods, p, q, r, s)
        cert = sec.certify_secant(periods.tau, tri.lifts)
        assert cert.passes
        assert cert.rank_cert.decided_rank == 2
        assert cert.rank_cert.gap_ratio < 1e-9
        assert all(cert.general_position)

    def test_random_triple_is_not_collinear(self, jac2):
        _, periods, _ = jac2
        rng = np.random.default_rng(1)
        lifts = rng.standard_normal((3, 2)) * 0.4 \
            + 0.3j * rng.standard_normal((3, 2))
        cert = sec.certify_secant(periods.tau, list(lifts))
        assert not cert.passes
        assert cert.rank_cert.decided_rank == 3

    def test_translation_invariance(self, jac2):
        """Shifting every lift by one common lattice vector leaves the
        projective certificate unchanged."""
        curve, periods, _ = jac2
        p, q, r, s = four_points(curve, 30)
        tri = sec.fay_construct(curve, periods, p, q, r, s)
        tau = periods.tau.entries
        lam = np.array([2.0, -1.0]) + tau @ np.array([1.0, 1.0])
        base = sec.certify_secant(periods.tau, tri.lifts)
        shifted = sec.certify_secant(
            periods.tau, [l.z + lam for l in tri.lifts])
        assert shifted.passes == base.passes
        assert shifted.rank_cert.decided_rank == base.rank_cert.decided_rank
        assert shifted.general_position == base.general_position

    def test_repeated_point_is_refused(self, jac2):
        """The four points must be distinct, as for every Gunning secant."""
        curve, periods, _ = jac2
        p, q, r, _ = four_points(curve, 31)
        with pytest.raises(InvalidInput):
            sec.fay_construct(curve, periods, p, q, r, q)


@pytest.fixture(scope="module")
def triple(jac3):
    curve, periods, kappa = jac3
    sample = cv.sample_B_ell(curve, 3, seed=99)
    tri = sec.theta_trisecant_construct(curve, periods, sample, kappa)
    cert = sec.certify_secant(periods.tau, tri.lifts)
    return tri, cert


class TestThetaTrisecant:

    def test_points_lie_on_theta(self, triple):
        _, cert = triple
        assert all(t < 1e-8 for t in cert.theta_residuals)
        assert cert.on_theta
        assert "on_theta" not in cert.to_dict()
        assert "gradients" not in cert.to_dict()

    def test_collinear_and_general(self, triple):
        _, cert = triple
        assert cert.passes
        assert cert.rank_cert.decided_rank == 2

    def test_points_distinct(self, triple):
        tri, _ = triple
        for u, v in [(tri.a, tri.b), (tri.a, tri.c), (tri.b, tri.c)]:
            assert u.lattice_distance(v) > 1e-3

    def test_third_point_is_singular(self, triple):
        """c = z(p) + z(sigma p) + z(D) - kappa collapses to -kappa, a
        double point, so only one smooth Gauss angle exists."""
        tri, cert = triple
        assert (tri.c + tri.data["zetas"][0] * 0.0).lattice_distance() \
            > 1e-3  # c itself is not a lattice vector
        assert len(cert.gauss_angles) == 1
        assert cert.gauss_angles[0] < 1e-6

    def test_merged_pair_breaks_general_position(self, triple, jac3):
        """Two equal lifts leave a pair of Kummer rows of rank 1, so the
        certificate refuses the triple however collinear it is."""
        _, periods, _ = jac3
        tri, _ = triple
        cert = sec.certify_secant(periods.tau, [tri.a, tri.a, tri.c])
        assert not all(cert.general_position)
        assert not cert.passes

    def test_general_position_is_the_per_subset_rank(self, triple, jac3):
        """The subset verdicts of one stacked SVD are those of the loop
        they replaced, numerical_rank on each (r-1)-subset of the
        normalized Kummer rows, on a triple and on a merged pair."""
        _, periods, _ = jac3
        tri, _ = triple
        for lifts in (tri.lifts, [tri.a, tri.a, tri.c]):
            cert = sec.certify_secant(periods.tau, lifts)
            Z, _, _ = periods.tau.reduce(np.stack([l.z for l in lifts]))
            (raw,), _, _ = second_order_basis(periods.tau, Z)
            rows = raw / np.max(np.abs(raw), axis=1, keepdims=True)
            want = tuple(numerical_rank(rows[list(subset)]).decided_rank == 2
                         for subset in combinations(range(3), 2))
            assert cert.general_position == want
        assert want == (False, True, True)

    @pytest.mark.parametrize("g", [3, 4])
    def test_is_the_ell_3_multisecant(self, g, jac3, jac4):
        """The theta trisecant (a, b, c) is the multisecant of partition
        (1, 2, 3) with its lifts reversed."""
        curve, periods, kappa = {3: jac3, 4: jac4}[g]
        sample = cv.sample_B_ell(curve, 3, seed=99)
        tri = sec.theta_trisecant_construct(curve, periods, sample, kappa)
        lifts, _ = sec.multisecant_from_Bl(curve, periods, sample, kappa,
                                           (1, 2, 3))
        for got, want in zip(tri.lifts, lifts[::-1]):
            assert np.array_equal(got.z, want.z)

    def test_requires_ell_3(self, jac3):
        curve, periods, kappa = jac3
        sample = cv.sample_B_ell(curve, 2, seed=5)
        with pytest.raises(InvalidInput):
            sec.theta_trisecant_construct(curve, periods, sample, kappa)


class TestGunning:

    def test_matches_fay_relabeled(self, jac2):
        """The l = 3 case is the four-point construction: with p-points
        (s, r, q) and q-point (p) the lifts are (a, b, c) of the four-point
        triple, exactly, and with p-points (s, q, r) they come out as
        (a, c, b)."""
        curve, periods, _ = jac2
        p, q, r, s = four_points(curve, 44)
        tri = sec.fay_construct(curve, periods, p, q, r, s)
        lifts, cert = sec.gunning_construct(curve, periods, [s, r, q], [p])
        for got, want in zip(lifts, tri.lifts):
            assert np.array_equal(got.z, want.z)
        assert cert.passes
        lifts, cert = sec.gunning_construct(curve, periods, [s, q, r], [p])
        for got, want in zip(lifts, (tri.a, tri.c, tri.b)):
            assert np.allclose(got.z, want.z, atol=1e-12)
        assert cert.passes

    def test_validation(self, jac2):
        curve, periods, _ = jac2
        p, q, r, s = four_points(curve, 45)
        with pytest.raises(InvalidInput):
            sec.gunning_construct(curve, periods, [p, q], [])
        with pytest.raises(InvalidInput):
            sec.gunning_construct(curve, periods, [p, q, r], [s, s])
        with pytest.raises(InvalidInput):
            sec.gunning_construct(curve, periods, [p, q, p], [r])


class TestMultisecant:

    def test_g3_partition_certificates(self, jac3):
        curve, periods, kappa = jac3
        sample = cv.sample_B_ell(curve, 3, seed=7)
        parts = sec.all_partitions(sample)
        assert len(parts) == 4       # C(4, 3)
        for part in parts[:2]:
            lifts, cert = sec.multisecant_from_Bl(curve, periods, sample,
                                                  kappa, part)
            assert len(lifts) == 3
            assert cert.passes
            assert all(t < 1e-8 for t in cert.theta_residuals)

    def test_g5_sweep_has_fourteen_distinct_points(self, jac5):
        """The 15 partitions of a B4 sample at g=5 give 14 distinct points:
        partitions whose remaining points hold a conjugate pair collapse
        to one class."""
        curve, periods, kappa = jac5
        sample = cv.sample_B_ell(curve, 4, seed=20260823)
        certs, distinct = sec.multisecant_sweep(curve, periods, sample, kappa)
        assert len(certs) == 15
        assert len(distinct) == 14

    def test_partition_validation(self, jac3):
        curve, periods, kappa = jac3
        sample = cv.sample_B_ell(curve, 3, seed=7)
        for bad in [(0, 1), (0, 1, 1), (0, 1, 9)]:
            with pytest.raises(InvalidInput):
                sec.multisecant_from_Bl(curve, periods, sample, kappa, bad)


class TestOuterProductIdentity:

    def test_taken_at_the_first_smooth_lift(self, jac3):
        """A partition whose first lift is a singular theta point satisfies
        the identity at its first smooth lift; a Fay line lies off the
        theta divisor, where the identity does not apply."""
        curve, periods, kappa = jac3
        sample = cv.sample_B_ell(curve, 3, seed=20260823)
        certs, _ = sec.multisecant_sweep(curve, periods, sample, kappa)
        singular_first = [cert for cert in certs if not cert.smooth[0]]
        assert singular_first
        for cert in singular_first:
            assert cert.outer_product_residual < 1e-8
        _, fay = sec.fay_trisecant(curve, periods, np.random.default_rng(1))
        assert fay.outer_product_residual is None
        assert not fay.on_theta
        assert fay.to_dict()["outer_product_residual"] is None
        # two smooth lifts on the divisor and one moved off it
        a, b, _ = certs[0].lifts
        mixed = sec.certify_secant(periods.tau, [a, b, a + 0.1])
        assert mixed.theta_residuals[2] > 1e-3
        assert mixed.outer_product_residual is None


class TestSmoothness:

    @pytest.mark.parametrize("g", [3, 4, 5])
    def test_singular_third_lift_is_never_smooth(self, g, jac3, jac4, jac5):
        """The third lift of the theta trisecant of the B3 sample of seed 1
        is a singular point of the divisor (its gradient is rounding, about
        1e-13): neither the certificate nor the Gauss map calls it smooth,
        and both call the other two smooth."""
        curve, periods, kappa = {3: jac3, 4: jac4, 5: jac5}[g]
        sample = cv.sample_B_ell(curve, 3, seed=1)
        triple, cert, _ = sec.theta_trisecant(curve, periods, sample, kappa)
        assert cert.smooth == (True, True, False)
        assert cert.to_dict()["smooth"] == [True, True, False]
        assert all(t < 1e-8 for t in cert.theta_residuals)
        images = [geo.gauss_map(periods.tau, lift) for lift in triple.lifts]
        assert [image.defined for image in images] == [True, True, False]
        assert images[2].gradient_norm <= images[2].threshold
        assert geo.vanishing_order(periods.tau, triple.c) == 2

    def test_gradient_norms_below_threshold_where_not_smooth(self, jac5):
        """On the B4 sample of `trisect multisecant --ell 4` at g=5, each
        certificate prints beside every gradient norm its threshold
        SMOOTHNESS_THRESHOLD A_1, and a lift on the divisor has its norm
        below that threshold exactly where it is not smooth."""
        curve, periods, kappa = jac5
        sample = cv.sample_B_ell(curve, 4, seed=DEFAULT_SEED)
        certs, _ = sec.multisecant_sweep(curve, periods, sample, kappa)
        flags = []
        for cert in certs:
            shown = cert.to_dict()
            assert shown["gradient_thresholds"] \
                == list(cert.gradient_thresholds)
            assert len(cert.gradient_thresholds) == cert.r
            for norm, threshold, smooth, residual in zip(
                    cert.gradient_norms, cert.gradient_thresholds,
                    cert.smooth, cert.theta_residuals):
                assert residual < ON_THETA_TOL
                assert (norm < threshold) == (not smooth)
                flags.append(smooth)
        assert True in flags and False in flags


class TestIgusaSpan:

    def test_repeated_directions(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cert = sec.igusa_span_check([v, w, 2.0 * v, -1j * w])
        assert cert.decided_rank == 2

    def test_needs_two(self):
        with pytest.raises(InvalidInput):
            sec.igusa_span_check([np.ones(3)])

