import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import warnings
from itertools import combinations

from trisect.curves import JacobianLift
from trisect.errors import InvalidInput, NumericalFailure
from trisect.numeric import (numerical_rank, projective_angle,
                             quadrature_nodes, _decided_ranks, _norm)
from trisect.theta import RiemannMatrix

TAU2 = np.array([[1.0j, 0.3 + 0.1j], [0.3 + 0.1j, 0.2 + 1.5j]])
RM2 = RiemannMatrix(TAU2)


class TestNumericalRank:

    def test_exact_rank_deficiency(self):
        v = np.array([1.0, 2.0, 3.0 + 1.0j])
        m = np.stack([v, 2.0 * v, np.array([0.0, 1.0, 0.0])])
        cert = numerical_rank(m)
        assert cert.decided_rank == 2
        assert cert.gap_ratio < 1e-12
        assert cert.decided_rank < len(cert.singular_values)

    def test_full_rank_identity(self):
        cert = numerical_rank(np.eye(4))
        assert cert.decided_rank == 4
        assert cert.decided_rank == len(cert.singular_values)
        assert cert.gap_ratio == 0.0

    def test_spectrum_is_returned_sorted(self):
        m = np.diag([3.0, 1.0, 2.0])
        cert = numerical_rank(m)
        assert np.all(np.diff(cert.singular_values) <= 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInput):
            numerical_rank(np.zeros((0, 3)))
        with pytest.raises(InvalidInput):
            numerical_rank(np.array([[np.nan, 1.0]]))
        with pytest.raises(InvalidInput):
            numerical_rank(np.eye(2), tol=2.0)

    @given(st.integers(0, 3), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_constructed_rank_recovered(self, rank, extra):
        rng = np.random.default_rng(rank * 10 + extra)
        n = rank + extra
        basis = rng.standard_normal((rank, n)) \
            + 1j * rng.standard_normal((rank, n))
        coeffs = rng.standard_normal((n, rank))
        m = coeffs @ basis if rank else np.zeros((n, n), dtype=complex)
        assert numerical_rank(m).decided_rank == rank

    @pytest.mark.parametrize("tol", [1e-7, 1e-3])
    def test_stacked_ranks_are_numerical_ranks(self, tol):
        """_decided_ranks of one stacked SVD decides each matrix of the
        stack as numerical_rank decides it alone: full, rank-deficient and
        zero matrices."""
        rng = np.random.default_rng(21)
        rows = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        rows[3] = (1.0 + 2.0j) * rows[1]
        stack = np.concatenate(
            [rows[list(combinations(range(4), 3))], np.zeros((1, 3, 16))])
        got = _decided_ranks(np.linalg.svd(stack, compute_uv=False), tol)
        want = [numerical_rank(m, tol=tol).decided_rank for m in stack]
        assert got.tolist() == want
        assert sorted(set(want)) == [0, 2, 3]

    def test_to_dict_roundtrips_floats(self):
        d = numerical_rank(np.eye(2)).to_dict()
        assert d["decided_rank"] == 2
        assert isinstance(d["singular_values"][0], float)


def box_minimum(z, tau, width=2):
    """Test-local oracle: the shortest z - m - tau n over the integer box
    of half-width ``width`` around the rounded real coordinates of z in
    the basis (I, tau), searched exhaustively."""
    g = len(z)
    n_real = np.linalg.solve(tau.imag, z.imag)
    centre = np.round(np.concatenate([z.real - tau.real @ n_real, n_real]))
    ticks = np.arange(-width, width + 1)
    grids = np.meshgrid(*([ticks] * (2 * g)), indexing="ij")
    box = centre + np.stack([grid.ravel() for grid in grids], axis=1)
    lattice = box[:, :g] + box[:, g:] @ tau.T
    return float(np.min(np.linalg.norm(z - lattice, axis=1)))


def exact_radius(tau):
    """1 / (2 ||B^-1||), B the real basis [[I, X], [0, Y]] of the lattice:
    below this distance the rounding residual is the nearest one."""
    g = len(tau)
    basis = np.block([[np.eye(g), tau.real], [np.zeros((g, g)), tau.imag]])
    return 0.5 / np.linalg.norm(np.linalg.inv(basis), 2)


def rounded_reduce(tau, Z):
    """The np.round spelling that RiemannMatrix.reduce replaced: finiteness
    checked first, then the rounding under np.errstate."""
    Z = np.asarray(Z, dtype=complex)
    if not np.all(np.isfinite(Z)):
        raise InvalidInput("non-finite argument")
    imag_inv = np.linalg.inv(tau.imag)
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.round(Z.imag @ imag_inv.T)
        m = np.round(Z.real - p @ tau.real.T)
        Z_red = Z - m - p @ tau.T
        cell = np.maximum(np.abs(Z_red.real), np.abs(Z_red.imag @ imag_inv.T))
    if not np.all(cell <= 0.5 + 1e-6):
        raise NumericalFailure("argument is too far from the fundamental "
                               "cell to reduce exactly")
    return Z_red, m, p


def outcome(func, *args):
    """func(*args), or the type of the error it raises."""
    try:
        return func(*args)
    except (InvalidInput, NumericalFailure) as exc:
        return type(exc)


class TestLatticeReduction:

    def test_reduce_matches_the_rounded_spelling(self):
        """Bitwise the same residuals and lattice parts, strided arguments
        and one just inside the reach included, and the same refusals:
        NumericalFailure on two arguments far from the cell (a shift too
        large to be exact, and one that overflows), InvalidInput on a
        non-finite entry; no RuntimeWarning on any of them."""
        rng = np.random.default_rng(11)
        rows = (rng.standard_normal((40, 2))
                + 1j * rng.standard_normal((40, 2))) * 3.0
        cases = [rows, rows[0], rows[:1], rows[::3], rows[:, ::-1],
                 np.array([0.99 * RM2._reach, 0.3 - 0.2j]),
                 np.array([3e17 + 1e17j, 0.5]),
                 np.array([1e300 + 1e300j, 0.5]),
                 np.array([[0.1, 0.2], [np.inf, 0.3]]),
                 np.array([0.1, complex(0.0, np.nan)]),
                 np.array([-np.inf * 1j, 0.2])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for Z in cases:
                got = outcome(RM2.reduce, Z)
                want = outcome(rounded_reduce, TAU2, Z)
                if isinstance(want, type):
                    assert got is want
                    continue
                for a, b in zip(got, want):
                    assert (a.dtype, a.shape) == (b.dtype, b.shape)
                    assert a.tobytes() == b.tobytes()
        assert outcome(RM2.reduce, cases[6]) is NumericalFailure
        assert outcome(RM2.reduce, cases[7]) is NumericalFailure
        assert all(outcome(RM2.reduce, Z) is InvalidInput
                   for Z in cases[8:])

    @pytest.mark.parametrize("z", [[0.5, 1e300j], [1.7e308j, 1.7e308j]])
    def test_shift_that_cannot_be_exact_is_refused(self, z):
        """The rounded spelling returns a zero residual here, so the
        lattice distance read 0: the products m + tau p round by more than
        the cell and cancel.  reduce refuses such an argument from its
        size, before any product, and warns of nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            residual, _, _ = rounded_reduce(TAU2, np.array(z))
        assert not residual.any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure):
                RM2.reduce(np.array(z))
            with pytest.raises(NumericalFailure):
                JacobianLift(np.array(z), RM2).lattice_distance()

    def test_lattice_distance_is_the_norm_of_the_residual(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            z, w = (rng.standard_normal((2, 2))
                    + 1j * rng.standard_normal((2, 2))) * 2.0
            dist = JacobianLift(z, RM2).lattice_distance(JacobianLift(w, RM2))
            assert dist == float(np.linalg.norm(RM2.reduce(z - w)[0]))
            assert JacobianLift(z, RM2).lattice_distance() \
                == float(np.linalg.norm(RM2.reduce(z)[0]))

    def test_vector_norm_is_numpys(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
        for vec in (v[0], v[:, 1], v[2, ::2], v[:0, 0]):
            assert _norm(vec) == float(np.linalg.norm(vec))

    @given(st.integers(-3, 3), st.integers(-3, 3),
           st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_recovers_planted_lattice_vector(self, m1, m2, n1, n2):
        m = np.array([m1, m2], dtype=float)
        n = np.array([n1, n2], dtype=float)
        small = np.array([0.05 + 0.02j, -0.03 + 0.04j])
        z = small + m + TAU2 @ n
        red, m_got, p_got = RM2.reduce(z)
        assert np.allclose(red, small, atol=1e-12)
        assert np.array_equal(m_got, m) and np.array_equal(p_got, n)
        assert np.allclose(red + m_got + TAU2 @ p_got, z, atol=1e-12)

    def test_idempotent(self):
        z = np.array([0.9 + 1.3j, -2.0 + 0.4j])
        first, _, _ = RM2.reduce(z)
        second, m, p = RM2.reduce(first)
        assert not np.any(m) and not np.any(p)
        assert np.array_equal(second, first)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            RM2.reduce(np.zeros(3))
        with pytest.raises(InvalidInput):
            RM2.reduce(np.zeros((4, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf * 1j,
                                     complex(0.0, np.nan)])
    def test_non_finite(self, bad):
        with pytest.raises(InvalidInput):
            RM2.reduce(np.array([0.1, bad]))
        with pytest.raises(InvalidInput):
            RM2.reduce(np.array([[0.1, 0.2], [0.3, bad]]))

    @given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
           st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           st.floats(0.0, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_distance_is_box_minimum_below_exact_radius(self, shift,
                                                         direction, frac):
        d = np.asarray(direction)
        assume(np.linalg.norm(d) > 1e-3)
        d = frac * exact_radius(TAU2) * d / np.linalg.norm(d)
        small = d[:2] + 1j * d[2:]
        z = small + np.asarray(shift[:2]) + TAU2 @ np.asarray(shift[2:])
        dist = JacobianLift(z, RM2).lattice_distance()
        assert dist == pytest.approx(box_minimum(z, TAU2), abs=1e-12)
        assert dist == pytest.approx(np.linalg.norm(small), abs=1e-12)

    @given(st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_distance_never_below_box_minimum(self, coords):
        z = np.asarray(coords[:2]) + 1j * np.asarray(coords[2:])
        dist = JacobianLift(z, RM2).lattice_distance()
        assert dist >= box_minimum(z, TAU2) - 1e-12


class TestProjectiveAngle:

    def test_proportional_vectors(self):
        v = np.array([1.0 + 2.0j, -0.5j, 3.0])
        assert projective_angle(v, (2.0 - 1.0j) * v) < 1e-12

    def test_orthogonal_vectors(self):
        assert projective_angle([1, 0], [0, 1]) == pytest.approx(np.pi / 2)

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInput):
            projective_angle([0, 0], [1, 0])

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_range(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = projective_angle(v, w)
        assert abs(a - projective_angle(w, v)) < 1e-12
        assert 0.0 <= a <= np.pi / 2 + 1e-12


class TestQuadratureNodes:

    def test_inverse_sqrt_weight_integrals(self):
        nodes, weights = quadrature_nodes(40)
        # int (1-t^2)^(-1/2) dt = pi; with t^2 in the numerator: pi/2
        assert np.sum(weights) == pytest.approx(np.pi, abs=1e-12)
        assert np.sum(weights * nodes ** 2) == pytest.approx(np.pi / 2,
                                                             abs=1e-12)
        assert np.sum(weights * nodes ** 4) == pytest.approx(3 * np.pi / 8,
                                                             abs=1e-12)

    def test_too_few_nodes(self):
        with pytest.raises(InvalidInput):
            quadrature_nodes(1)
