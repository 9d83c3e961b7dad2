import numpy as np
import pytest

import trisect.curves as cv
import trisect.secants as sec
from trisect.errors import InvalidInput
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
        cert = sec.certify_secant(periods.tau, tri.lifts,
                                  expect_on_theta=False)
        assert cert.passes
        assert cert.rank_cert.decided_rank == 2
        assert cert.rank_cert.gap_ratio < 1e-9
        assert all(cert.general_position)

    def test_random_triple_is_not_collinear(self, jac2):
        _, periods, _ = jac2
        rng = np.random.default_rng(1)
        lifts = rng.standard_normal((3, 2)) * 0.4 \
            + 0.3j * rng.standard_normal((3, 2))
        cert = sec.certify_secant(periods.tau, list(lifts),
                                  expect_on_theta=False)
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
        base = sec.certify_secant(periods.tau, tri.lifts,
                                  expect_on_theta=False)
        shifted = sec.certify_secant(
            periods.tau, [l.z + lam for l in tri.lifts],
            expect_on_theta=False)
        assert shifted.passes == base.passes
        assert shifted.rank_cert.decided_rank == base.rank_cert.decided_rank
        assert shifted.general_position == base.general_position


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
        assert cert.expect_on_theta

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

    def test_requires_ell_3(self, jac3):
        curve, periods, kappa = jac3
        sample = cv.sample_B_ell(curve, 2, seed=5)
        with pytest.raises(InvalidInput):
            sec.theta_trisecant_construct(curve, periods, sample, kappa)


class TestGunning:

    def test_matches_fay_relabeled(self, jac2):
        """The l = 3 case reduces to the four-point construction: with
        p-points (s, q, r) and q-point (p) the lifts come out as
        (a, c, b) of the four-point triple, exactly."""
        curve, periods, _ = jac2
        p, q, r, s = four_points(curve, 44)
        tri = sec.fay_construct(curve, periods, p, q, r, s)
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

    def test_partition_validation(self, jac3):
        curve, periods, kappa = jac3
        sample = cv.sample_B_ell(curve, 3, seed=7)
        for bad in [(0, 1), (0, 1, 1), (0, 1, 9)]:
            with pytest.raises(InvalidInput):
                sec.multisecant_from_Bl(curve, periods, sample, kappa, bad)


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


class TestDegenerateTrisecant:

    def test_tangent_line(self, jac3):
        curve, periods, kappa = jac3
        sample = cv.sample_B_ell(curve, 2, seed=42)
        tri, report = sec.degenerate_trisecant(curve, periods, sample, kappa)
        assert report["merged_lattice_distance"] < 1e-12
        assert tri.a.lattice_distance(tri.b) < 1e-12
        line = report["line_rank_cert"]
        assert line.decided_rank == 2
        assert line.gap_ratio < 1e-8
        assert all(r < 1e-8
                   for r in report["gauss_containment_residuals"])

    def test_merged_pair_breaks_general_position(self, jac3):
        curve, periods, kappa = jac3
        sample = cv.sample_B_ell(curve, 2, seed=42)
        tri, _ = sec.degenerate_trisecant(curve, periods, sample, kappa)
        cert = sec.certify_secant(periods.tau, tri.lifts)
        assert not all(cert.general_position)
        assert not cert.passes

    def test_requires_ell_2(self, jac3):
        curve, periods, kappa = jac3
        sample = cv.sample_B_ell(curve, 3, seed=1)
        with pytest.raises(InvalidInput):
            sec.degenerate_trisecant(curve, periods, sample, kappa)
