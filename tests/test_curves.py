import mpmath as mp
import numpy as np
import pytest

import trisect.curves as cv
from trisect.errors import (AmbiguousConstant, InvalidInput,
                            IllConditionedCurve, NumericalFailure,
                            PathDegenerate)
from trisect.curves import random_curve_point
from trisect.geometry import on_theta
from trisect.theta import theta_batch, ON_THETA_TOL
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


def segment(curve, x_from, x_to, y_start, endpoint_branch, tol=1e-10):
    """Reference: int x^{k-1} dx / y over the straight segment
    x_from -> x_to by Gauss-Legendre node doubling, the branch continued
    from y_start on a dense grid; returns (integral, y at x_to).
    endpoint_branch=True substitutes t = 2s - s^2, which absorbs an
    inverse-square-root singularity at x_to."""
    g = curve.genus
    delta = x_to - x_from
    dense = np.linspace(0.0, 1.0, 513)

    def estimate(n):
        s, w = np.polynomial.legendre.leggauss(n)
        s, w = 0.5 * (s + 1.0), 0.5 * w
        ts, jac = (2.0 * s - s * s, 2.0 * (1.0 - s)) if endpoint_branch \
            else (s, np.ones_like(s))
        grid = np.unique(np.concatenate((dense, ts)))
        xs = x_from + grid * delta
        ys = np.sqrt(curve.f(xs))
        for k in range(1, len(ys)):       # continuity, point by point
            if abs(ys[k] - ys[k - 1]) > abs(ys[k] + ys[k - 1]):
                ys[k:] = -ys[k:]
        if abs(ys[0] - y_start) > abs(ys[0] + y_start):
            ys = -ys
        at = np.searchsorted(grid, ts)
        vals = xs[at][None, :] ** np.arange(g)[:, None] \
            * (delta * jac / ys[at])[None, :]
        return vals @ w, ys[-1]

    prev, n = None, 32
    while True:
        est, y_end = estimate(n)
        if prev is not None and np.max(np.abs(est - prev)) \
                < tol * max(1.0, np.max(np.abs(est))):
            return est, y_end
        prev, n = est, 2 * n


def single_point_lift(curve, point, periods, tol=1e-10):
    """Reference: the Abel-Jacobi lift of one point by its own polyline
    quadrature (anchor -> anchor + ih -> x + ih -> x, each leg a
    `segment`, the last one with the endpoint substitution at a branch
    point; a lift that lands on the conjugate point takes the loop
    anchor -> e_{2g+1} -> anchor), sharing no quadrature code with
    trisect.curves."""
    g = curve.genus
    if point.at_infinity:
        return np.zeros(g, dtype=complex)
    is_branch = curve.is_branch_x(point.x) and abs(point.y) < 1e-9
    height = 0.75 * curve.span + 1.0
    corners = [periods.anchor, periods.anchor + 1j * height,
               point.x + 1j * height, point.x]
    y_anchor = complex(curve.y_branch(np.asarray(periods.anchor,
                                                 dtype=complex)))
    y = y_anchor
    path = np.zeros(g, dtype=complex)
    for i in range(3):
        est, y = segment(curve, corners[i], corners[i + 1], y,
                         i == 2 and is_branch, tol)
        path = path + est
    if not is_branch and abs(y - point.y) > abs(y + point.y):
        loop = 2.0 * segment(curve, periods.anchor, curve.roots[-1],
                             y_anchor, True, tol)[0]
        path = loop - path
    return periods.normalization @ (periods._leg_infinity + path)


def table_curves():
    """The reference curves g=1..5, two g=3 curves with roots
    k + U(-0.3, 0.3), and the g=3 reference curve with f scaled by 3 and
    by -1."""
    curves = {f"reference-g{g}": reference_curve(g) for g in range(1, 6)}
    rng = np.random.default_rng(4242)
    for i in range(2):
        roots = np.arange(7) + rng.uniform(-0.3, 0.3, 7)
        curves[f"sweep-g3-{i}"] = cv.HyperellipticCurve(
            [float(c) for c in np.poly(roots)[::-1]])
    for scale in (3.0, -1.0):
        curves[f"reference-g3-times{scale:+g}"] = cv.HyperellipticCurve(
            scale * reference_curve(3).f_coeffs)
    return curves


TABLE_CURVES = table_curves()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(InvalidInput):
            cv.HyperellipticCurve((0.0, 1.0, bad, 1.0))

    def test_from_json(self):
        curve = cv.HyperellipticCurve.from_json_dict(
            {"f_coeffs": [0, -1, 0, 1]})
        assert curve.genus == 1
        with pytest.raises(InvalidInput):
            cv.HyperellipticCurve.from_json_dict({"coeffs": [1]})

    def test_point_validation(self):
        curve = reference_curve(2)
        good = curve.point(1.5 + 0.5j, -1)
        curve.validate_points(np.array([good.x]), np.array([good.y]))
        with pytest.raises(InvalidInput):
            curve.validate_points(np.array([1.5 + 0j]),
                                  np.array([100.0 + 0j]))

    @pytest.mark.parametrize("x, y", [(1.5 + 0.5j, complex(np.nan)),
                                      (complex(np.nan), 1.0),
                                      (complex(np.inf), 1.0)],
                             ids=["nan-y", "nan-x", "inf-x"])
    def test_non_finite_point_is_refused(self, jac2, x, y):
        """NaN compares False, so a defect test that refuses only
        defect > tol lets a NaN through; the lift refuses it instead."""
        curve, periods, _ = jac2
        with pytest.raises(InvalidInput):
            cv.abel_jacobi(curve, cv.CurvePoint(x=x, y=y), periods)

    def test_involution(self):
        curve = reference_curve(2)
        p = curve.point(2.5 + 1.0j, 1)
        assert cv.involution(cv.involution(p)) == p
        w = curve.weierstrass_point(3)
        assert cv.involution(w) == w
        inf = cv.CurvePoint.infinity()
        assert cv.involution(inf) == inf


def loop_f(curve, x):
    """The per-root loop that HyperellipticCurve.f replaced."""
    x = np.asarray(x, dtype=complex)
    out = np.full(x.shape, complex(curve.leading), dtype=complex)
    for e in curve.roots:
        out = out * (x - e)
    return out


def loop_y_branch(curve, x):
    """The per-root loop that HyperellipticCurve.y_branch replaced."""
    x = np.asarray(x, dtype=complex)
    out = np.full(x.shape, np.sqrt(complex(curve.leading)), dtype=complex)
    for e in curve.roots:
        out = out * np.sqrt(x - e)
    return out


class TestRootProducts:
    """f and y_branch multiply their root factors by one product over a
    stacked axis, in the order of the loop they replaced, to the bit."""

    @pytest.mark.parametrize("g", [1, 5])
    @pytest.mark.parametrize("shape", [(), (9,), (3, 4)])
    def test_products_match_the_per_root_loop(self, g, shape):
        curve = reference_curve(g)
        rng = np.random.default_rng(g)
        x = rng.uniform(-1.0, 2 * g + 1.0, shape) \
            + 1j * rng.uniform(-1.0, 1.0, shape)
        if shape:
            # a branch point, and both signs of a zero imaginary part
            x.flat[0] = curve.roots[-1]
            x.flat[1] = complex(0.5, -0.0)
        for product, loop in ((curve.f, loop_f),
                              (curve.y_branch, loop_y_branch)):
            got, want = product(x), loop(curve, x)
            assert type(got) is type(want)
            assert np.array_equal(got, want)
            got, want = np.asarray(got), np.asarray(want)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


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

    def test_curve_left_of_the_origin(self):
        """Roots -10..-4: the anchor stays right of the roots and positive,
        so the leg from infinity comes in along the positive axis."""
        curve = cv.HyperellipticCurve(np.poly(np.arange(-10, -3))[::-1])
        periods = cv.period_matrix(curve)
        assert periods.anchor > max(curve.roots[-1], 0.0)
        tau = periods.tau.entries
        assert np.array_equal(tau, tau.T)
        assert np.linalg.eigvalsh(tau.imag).min() > 0
        assert periods.bilinear_residual() < cv.BILINEAR_TOL
        _, info = cv.riemann_constant(curve, periods)
        assert info["residual"] < ON_THETA_TOL

    def test_anchor_of_a_curve_right_of_the_origin(self):
        """A largest root >= 0 keeps the anchor roots[-1] + max(1, span/4)."""
        for g in (1, 3):
            curve = reference_curve(g)
            assert cv.period_matrix(curve).anchor \
                == curve.roots[-1] + max(1.0, 0.25 * curve.span)


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

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_zeros_of_y_minus_p_sum_to_a_lattice_vector(self, g):
        """Abel's theorem: for a real polynomial p of degree <= g, y - p(x)
        has divisor sum (x_i, p(x_i)) - (2g+1) inf over the 2g+1 roots x_i
        of f - p^2, so the lifts of those zeros sum to a lattice vector.
        The roots come in conjugate pairs, about half of them below the
        real axis.  A draw is skipped when a zero lies below the polyline's
        height or has Re x within 0.05 span of a branch point, so that
        every path keeps that distance from the branch points."""
        curve = reference_curve(g)
        periods = cv.period_matrix(curve)
        height = 0.75 * curve.span + 1.0
        poly = np.polynomial.Polynomial
        # p(x) = s r((x - m) / span), r with standard normal coefficients
        u = poly([-0.5 * (curve.roots[0] + curve.roots[-1]), 1.0]) \
            / curve.span
        s = np.sqrt(curve.leading * curve.span ** (2 * g + 1))
        rng = np.random.default_rng(17)
        under_cut, draws = 0, 0
        while draws < 3:
            p = s * poly(rng.normal(size=g + 1))(u)
            xs = (poly(curve.f_coeffs) - p * p).roots()
            if np.min(xs.imag) < -height or np.min(np.abs(
                    xs.real[:, None] - curve.roots)) < 0.05 * curve.span:
                continue
            draws += 1
            under_cut += sum(x.imag < 0 and np.sum(curve.roots > x.real) % 2
                             for x in xs)
            points = [cv.CurvePoint(x=complex(x), y=complex(p(x)))
                      for x in xs]
            total = cv._abel_jacobi_points(curve, points, periods).sum(axis=0)
            assert cv.JacobianLift(total, periods.tau).lattice_distance() \
                < 1e-9
        assert under_cut > 0

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

    @pytest.mark.parametrize("g", [2, 3])
    def test_batch_matches_single_point_quadrature(self, g, jac2, jac3):
        curve, periods, _ = {2: jac2, 3: jac3}[g]
        rng = np.random.default_rng(11)
        points = []
        for _ in range(4):
            p = random_curve_point(curve, rng)
            points += [p, cv.involution(p)]          # both sheets
        points += [curve.point(0.5 - 0.7j, 1),       # below the real axis
                   curve.point(curve.roots[-1] + 2.0, -1),   # the anchor line
                   curve.weierstrass_point(2), cv.CurvePoint.infinity()]
        gap = 0.5 * (curve.roots[0] + curve.roots[1])    # inside (e_1, e_2)
        cut = 0.5 * (curve.roots[1] + curve.roots[2])    # inside (e_2, e_3)
        on_cut = 0.5 * (curve.roots[3] + curve.roots[4])
        height = 0.75 * curve.span + 1.0
        for x in (cut - 0.6j,                        # below a cut
                  curve.roots[0] - 0.5 - 0.4j,       # below (-inf, e_1]
                  # below a gap, but so far below that the leg to x + ih
                  # crosses the axis first, inside the cut at Re = cut
                  gap - 1j * height * (periods.anchor - gap)
                  / (periods.anchor - cut),
                  complex(on_cut, 0.0),              # on a cut, from above
                  complex(on_cut, -0.0)):            # and written with -0.0
            p = curve.point(x, 1)
            points += [p, cv.involution(p)]
        batch = cv._abel_jacobi_points(curve, points, periods)
        for point, lift in zip(points, batch):
            reference = single_point_lift(curve, point, periods)
            assert np.max(np.abs(lift - reference)) < 1e-13
            assert np.max(np.abs(cv.abel_jacobi(curve, point, periods).z
                                 - reference)) < 1e-13

    @pytest.mark.parametrize("name", list(TABLE_CURVES))
    def test_branch_points_are_table_half_periods(self, name):
        """Each branch point's lift is its _branch_halves row, equal to the
        lift by quadrature itself, not only modulo the lattice."""
        curve = TABLE_CURVES[name]
        periods = cv.period_matrix(curve)
        g = curve.genus
        m, n = cv._branch_halves(g, range(2 * g + 1))
        table = (m + n @ periods.tau.entries) / 2.0
        for k in range(2 * g + 1):
            point = curve.weierstrass_point(k)
            lift = cv.abel_jacobi(curve, point, periods).z
            assert np.array_equal(lift, table[k])
            reference = single_point_lift(curve, point, periods)
            assert np.max(np.abs(lift - reference)) < 1e-10

    @pytest.mark.parametrize("name", list(TABLE_CURVES))
    def test_sheet_flip_is_twice_the_path_to_the_last_root(self, name):
        curve = TABLE_CURVES[name]
        periods = cv.period_matrix(curve)
        y_anchor = complex(curve.y_branch(np.asarray(periods.anchor,
                                                     dtype=complex)))
        half, _ = segment(curve, periods.anchor, curve.roots[-1], y_anchor,
                          True)
        flip = periods._sheet_flip
        assert np.max(np.abs(flip - 2.0 * half)) \
            < 1e-10 * np.max(np.abs(flip))

    def test_point_over_a_branch_x_off_the_branch_raises(self, jac2):
        curve, periods, _ = jac2
        point = cv.CurvePoint(x=complex(curve.roots[2]), y=1e-5)
        curve.validate_points(np.array([point.x]), np.array([point.y]))
        with pytest.raises(PathDegenerate):
            cv.abel_jacobi(curve, point, periods)

    def test_batch_with_a_degenerate_path_raises(self, jac2):
        curve, periods, _ = jac2
        good = curve.point(1.5 + 0.8j, 1)
        # the last leg runs straight down from x + ih and meets e_2 = 1
        through_root = curve.point(1.0 - 0.5j, 1)
        with pytest.raises(PathDegenerate):
            cv._abel_jacobi_points(curve, [good, through_root], periods)


def mp_y(curve, x):
    """y_+(x) at mpmath precision: per-factor principal square roots."""
    y = mp.sqrt(mp.mpc(curve.leading))
    for e in curve.roots:
        y *= mp.sqrt(x - mp.mpf(e))
    return y


def mp_leg_integrand(curve, sign):
    """The g values x^{k-1} / y at mpmath precision, y continued below the
    axis as sign * y_+ (the closed-form crossing of trisect.curves)."""
    def f(x):
        y = mp_y(curve, x)
        y = sign * y if mp.im(x) < 0 else y
        return [x ** k / y for k in range(curve.genus)]
    return f


def mp_quad(f, a, b, breaks, g):
    """Integrals over the segment a -> b of the g values f(x) by mpmath.quad
    in t in [0, 1], split at the fractions breaks; f is evaluated once per
    node for all g."""
    a, b = mp.mpmathify(a), mp.mpmathify(b)
    cuts = sorted({0.0, 1.0, *(min(1.0, max(0.0, float(t)))
                               for t in breaks)})
    memo = {}

    def h(k):
        def at(t):
            if t not in memo:
                memo[t] = f(a + t * (b - a))
            return (b - a) * memo[t][k]
        return at
    return np.array([complex(mp.quad(h(k), cuts)) for k in range(g)])


def mp_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [0, 1] at mpmath
    precision: the float nodes polished by Newton steps on P_n."""
    def legendre(t):
        p0, p1 = mp.mpf(1), t
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * t * p1 - k * p0) / (k + 1)
        return p1, n * (t * p1 - p0) / (t * t - 1)

    nodes, weights = [], []
    for t in np.polynomial.legendre.leggauss(n)[0]:
        t = mp.mpf(t)
        for _ in range(3):
            p, dp = legendre(t)
            t -= p / dp
        dp = legendre(t)[1]
        nodes.append((t + 1) / 2)
        weights.append(1 / ((1 - t * t) * dp * dp))
    return nodes, weights


def mp_legendre_rule(f, pieces, g):
    """The pieces' Gauss-Legendre rules (lo, hi, row, n, bound) summed at
    mpmath precision: the quadrature without its float rounding."""
    total = [mp.mpc(0)] * g
    for lo, hi, _, n, _ in zip(*pieces):
        lo, hi = mp.mpmathify(lo), mp.mpmathify(hi)
        for t, w in zip(*mp_legendre(int(n))):
            for k, value in enumerate(f(lo + t * (hi - lo))):
                total[k] += (hi - lo) * w * value
    return np.array([complex(v) for v in total])


def loop_legendre_sum(pieces, rows, g, integrand):
    """The per-rule loop that curves._legendre_sum replaced: per distinct
    node count, one integrand call on its pieces' nodes and one np.add.at
    of their rules' sums into the rows.  Returns the sums and, per row and
    coordinate, the sum of the moduli of the terms."""
    lo, hi, row, nodes, _ = pieces
    est = np.zeros((rows, g), dtype=complex)
    scale = np.zeros((rows, g))
    for n in sorted(set(nodes.tolist())):
        k = np.flatnonzero(nodes == n)
        t, w = np.polynomial.legendre.leggauss(n)
        t, w = 0.5 * (t + 1.0), 0.5 * w
        step = (hi - lo)[k, None]
        values = integrand((lo[k, None] + t * step).ravel(), None) \
            .reshape(len(k), n, g).transpose(0, 2, 1)
        np.add.at(est, row[k], values @ w * step)
        np.add.at(scale, row[k], np.abs(values) @ w * np.abs(step))
    return est, scale


@pytest.fixture
def digits30():
    """mpmath at 30 digits for one test."""
    with mp.workdps(30):
        yield


class TestQuadrature:

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_truncation_error_is_within_the_bound(self, g, digits30):
        """On seeded lift legs, the 2g period segments and the leg
        infinity -> anchor: |the one-pass rule at 30 digits - mpmath.quad
        at 30 digits| <= the bound the code used <= tol.  The float
        estimate is that rule up to rounding, which the bound does not
        cover."""
        curve = reference_curve(g)
        periods = cv.period_matrix(curve)
        roots = curve.roots
        rng = np.random.default_rng(300 + g)
        height = 0.75 * curve.span + 1.0
        top = periods.anchor + 1j * height
        xs = [random_curve_point(curve, rng).x,
              complex(rng.uniform(roots[0], roots[-1]),
                      -rng.uniform(0.2, 1.0) * curve.span)]
        legs = [(periods.anchor, top, periods.anchor)]
        for x in xs:
            cross = periods.anchor + (x.real - periods.anchor) \
                * height / max(-x.imag, height)
            legs += [(top, x + 1j * height, cross),
                     (x + 1j * height, x, cross)]
        for a, b, cross in legs:
            lo, hi = np.array([a]), np.array([b])
            est, _ = cv._segment_quadrature(curve, lo, hi, np.array([cross]))
            pieces = cv._legendre_pieces(
                lo, hi, lambda p, q: cv._leg_bound(curve, p, q),
                cv._LIFT_TOL)
            sign = -1 if np.sum(roots > cross) % 2 else 1
            f = mp_leg_integrand(curve, sign)
            # split at the point of the leg nearest its nearest root
            near = roots[np.argmin(np.abs(np.subtract.outer(
                a + np.linspace(0, 1, 65) * (b - a), roots)).min(axis=0))]
            exact = mp_quad(f, a, b, [((near - a) / (b - a)).real], g)
            rule = mp_legendre_rule(f, pieces, g)
            bound = np.sum(pieces[4])
            assert np.max(np.abs(rule - exact)) <= bound <= cv._LIFT_TOL
            assert np.max(np.abs(est[0] - rule)) \
                < 1e-13 * max(1.0, np.max(np.abs(exact)))

        tol = 1e-11
        for j in range(2 * g):
            est, n, bound = cv._segment_integrals(curve, j, tol)
            lo, hi = mp.mpf(roots[j]), mp.mpf(roots[j + 1])
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            others = np.delete(roots, [j, j + 1])

            def on_cut(theta):
                # x = mid + half cos(theta) takes dx / y to d theta / (i
                # sqrt(lc) prod_other sqrt(x - e_i)) on the upper lip
                x = mid + half * mp.cos(theta)
                y = 1j * mp.sqrt(mp.mpc(curve.leading))
                for e in others:
                    y *= mp.sqrt(x - mp.mpf(e))
                return [x ** k / y for k in range(g)]
            exact = mp_quad(on_cut, 0, mp.pi, (), g)
            rule = [mp.mpc(0)] * g
            for i in range(1, n + 1):
                s = mp.cos((2 * i - 1) * mp.pi / (2 * n))
                x = mid + half * s
                smooth = half * mp.sqrt(1 - s * s) / mp_y(curve, x)
                for k in range(g):
                    rule[k] += mp.pi / n * x ** k * smooth
            rule = np.array([complex(v) for v in rule])
            assert np.max(np.abs(rule - exact)) <= bound <= tol
            assert np.max(np.abs(est - rule)) \
                < 1e-13 * max(1.0, np.max(np.abs(exact)))

        anchor = mp.mpf(periods.anchor)

        def tail(v):           # x = anchor / v^2, dx = -2 anchor dv / v^3
            x = anchor / (v * v)
            return [x ** k * -2 * anchor / (v ** 3 * mp_y(curve, x))
                    for k in range(g)]
        est, pieces = cv._integral_to_anchor(curve, periods.anchor, tol)
        exact = mp_quad(tail, 0, 1, (), g)
        rule = mp_legendre_rule(tail, pieces, g)
        assert np.max(np.abs(rule - exact)) <= np.sum(pieces[4]) <= tol
        assert np.max(np.abs(est - rule)) \
            < 1e-13 * max(1.0, np.max(np.abs(exact)))
        assert periods.quadrature["max_bound"] <= tol

    def test_rule_table_holds_each_rule(self):
        t, w, start = cv._leg_table()
        for n in cv._LEG_RULES.tolist():
            tn, wn = np.polynomial.legendre.leggauss(n)
            assert t[start[n]:start[n] + n].tobytes() \
                == (0.5 * (tn + 1.0)).tobytes()
            assert w[start[n]:start[n] + n].tobytes() == (0.5 * wn).tobytes()

    @pytest.mark.parametrize("g, targets", [(3, 40), (5, 7)])
    def test_one_pass_sum_matches_the_per_rule_loop(self, g, targets):
        """One integrand call over every node, summed per piece and then
        per row, against the loop over distinct rules it replaced (one
        call and one np.add.at per rule), on the same pieces: the legs of
        an Abel-Jacobi batch, anchor -> anchor + i h -> x + i h -> x, one
        target 1e-4 above a root so that its last leg is bisected.  Only
        the order of the sums differs, so they agree within a few
        roundings of the sum of the moduli of the terms, per row and
        coordinate."""
        curve = reference_curve(g)
        rng = np.random.default_rng(g)
        x = rng.uniform(curve.roots[0], curve.roots[-1], targets) \
            + 1j * rng.uniform(0.2, 0.6, targets) * curve.span
        x[0] = curve.roots[2] + 1e-4j
        anchor = curve.roots[-1] + 1.0
        top, over = anchor + 1j * (0.75 * curve.span + 1.0), \
            x + 1j * (0.75 * curve.span + 1.0)
        lo = np.concatenate(([anchor], np.repeat(top, targets), over))
        hi = np.concatenate(([top], over, x))
        pieces = cv._legendre_pieces(
            lo, hi, lambda a, b: cv._leg_bound(curve, a, b), cv._LIFT_TOL)
        assert len(set(pieces[3].tolist())) > 1
        assert len(pieces[0]) > len(lo)

        def integrand(nodes, _):
            return nodes[:, None] ** np.arange(g) \
                / curve.y_branch(nodes)[:, None]

        got = cv._legendre_sum(pieces, len(lo), g, integrand)
        want, scale = loop_legendre_sum(pieces, len(lo), g, integrand)
        assert np.all(np.abs(got - want) <= 8 * 2.0 ** -53 * scale)

    def test_bisection_gives_up_at_the_piece_cap(self):
        """A bound that no rule ever meets ends in NumericalFailure once
        more than _MAX_PENDING pieces per leg are pending."""
        def never(lo, hi):
            return np.full((len(lo), len(cv._LEG_RULES)), np.inf)

        with pytest.raises(NumericalFailure):
            cv._legendre_pieces(np.zeros(1), np.ones(1), never, 1e-10)

    def test_lift_near_a_root_matches_mpmath(self, jac3, digits30):
        """A target 1e-4 above e_3 on the g=3 reference curve: its last leg
        is bisected toward the root, and the lift matches mpmath.quad along
        the same legs within _LIFT_TOL."""
        curve, periods, _ = jac3
        point = curve.point(curve.roots[2] + 1e-4j, 1)
        lift = cv.abel_jacobi(curve, point, periods).z
        height = 0.75 * curve.span + 1.0
        corners = [periods.anchor, periods.anchor + 1j * height,
                   point.x + 1j * height, point.x]
        f = mp_leg_integrand(curve, 1)
        path = sum(mp_quad(f, a, b, (*((curve.roots - a) / (b - a)).real,
                                     0.9999, 0.99999), curve.genus)
                   for a, b in zip(corners, corners[1:]))
        reference = periods.normalization @ (periods._leg_infinity + path)
        assert np.max(np.abs(lift - reference)) < cv._LIFT_TOL

    def test_far_below_axis_target_satisfies_riemann_vanishing(self, jac4):
        """x = 4.517 - 7.694j on the g=4 reference curve: its second leg
        crosses the axis 0.01 from e_6 and is bisected there.  theta
        vanishes at AJ(P + Q + R) - kappa for random Q, R."""
        curve, periods, kappa = jac4
        rng = np.random.default_rng(48)
        divisors = [cv.Divisor.of(curve.point(4.517 - 7.694j, sheet))
                    + cv.random_effective_divisor(curve, 2, rng)
                    for sheet in (1, -1, 1)]
        assert cv._kappa_residual(
            periods, kappa.z, cv._divisor_lifts(curve, divisors, periods)) \
            < ON_THETA_TOL


class TestRiemannConstant:

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_kappa_matches_half_period_search(self, g):
        curve = reference_curve(g)
        periods = cv.period_matrix(curve)
        kappa, info = cv.riemann_constant(curve, periods)
        z, m, n = half_period_search(curve, periods)
        assert np.array_equal(kappa.z, z)
        assert info["m"] == m.tolist() and info["n"] == n.tolist()

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_kappa_from_single_point_lifts(self, g):
        """kappa is the half-period class of AJ(e_2) + ... + AJ(e_2g); with
        the branch points lifted one by one it is the same array."""
        curve = reference_curve(g)
        periods = cv.period_matrix(curve)
        kappa, info = cv.riemann_constant(curve, periods)
        total = sum(single_point_lift(curve, curve.weierstrass_point(i),
                                      periods) for i in range(1, 2 * g, 2))
        _, m, n = periods.tau.reduce(2.0 * total)
        m, n = np.mod(m, 2.0), np.mod(n, 2.0)
        assert np.array_equal(kappa.z, (m + periods.tau.entries @ n) / 2.0)
        assert info["m"] == m.astype(int).tolist()
        assert info["n"] == n.astype(int).tolist()

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_refuses_kappa_that_fails_the_certificate(self, g, monkeypatch):
        """A kappa with one bit of m or n flipped is another half-period;
        theta stays far from zero on its certificate divisors (the smallest
        residual over g = 1..5 and every bit is 0.17)."""
        curve = reference_curve(g)
        periods = cv.period_matrix(curve)
        table = cv._branch_halves
        for which in range(2):
            for i in range(g):
                def flipped(g_, k, which=which, i=i):
                    halves = [v.copy() for v in table(g_, k)]
                    halves[which][0, i] += 1
                    return tuple(halves)

                monkeypatch.setattr(cv, "_branch_halves", flipped)
                with pytest.raises(AmbiguousConstant) as exc:
                    cv.riemann_constant(curve, periods)
                assert exc.value.details["residual"] >= 0.1

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_certificate_residual_is_the_on_theta_residual(self, g):
        """The certificate and on_theta are one judge: info["residual"] is
        the worst on_theta residual over the certificate's divisors."""
        curve = reference_curve(g)
        periods = cv.period_matrix(curve)
        kappa, info = cv.riemann_constant(curve, periods)
        rng = np.random.default_rng(cv._KAPPA_SEED)
        worst = max(on_theta(periods.tau, (cv.abel_jacobi_divisor(
            curve, cv.random_effective_divisor(curve, g - 1, rng), periods)
            - kappa).z)[1] for _ in range(cv._KAPPA_DIVISORS))
        assert info["residual"] == pytest.approx(worst, rel=1e-12)
        assert info["residual"] < ON_THETA_TOL

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
        # P = sigma P only at a branch point: 2P elsewhere holds no fiber
        assert not cv.divisor_is_special(curve, cv.Divisor.of((p, 2)))

    def test_infinity_pairs(self, jac3):
        curve, _, _ = jac3
        inf = cv.CurvePoint.infinity()
        assert cv.divisor_is_special(curve, cv.Divisor.of((inf, 2)))
