"""Hyperelliptic curve engine: period matrix, Abel-Jacobi map, Riemann
constant, involution and sampling of canonical divisors with prescribed
simple/double structure.

Only odd real models y^2 = f(x) with deg f = 2g+1 and distinct real roots
are accepted.  This makes the homology classical, the base point at
infinity a Weierstrass point, the Riemann constant a half-period, and all
period integrals real or purely imaginary.

Branch convention: y_+(x) = sqrt(lc) * prod_j sqrt(x - e_j) with principal
square roots per factor.  Its cuts lie on (-inf, e_1] and on the intervals
[e_{2i}, e_{2i+1}], i = 1..g; y_+ is continuous on the closed upper half
plane minus those cuts and real positive for x > e_{2g+1} (lc > 0).

Homology: a_i loops around the cut [e_{2i}, e_{2i+1}]; b_i runs along the
upper lip of the real axis from e_1 to e_{2i} and back on the second sheet.
The global b-orientation is fixed by requiring Im(tau) positive definite.

Abel-Jacobi paths are canonical and deterministic: from infinity along the
real axis to an anchor x0 right of the largest root, then a rectangular
polyline anchor -> anchor + ih -> x + ih -> x.  y_+ is continuous off the
real axis, so y = y_+ on the polyline until it crosses the axis, at most
once, downwards at a point c; there exactly the factors sqrt(x - e_j) with
e_j > c change sign, so below the axis y = -y_+ when an odd number of roots
lie right of c.  A sheet-flip loop anchor -> e_{2g+1} -> anchor is inserted
when the continued branch lands on the conjugate point; its value is
2 (AJ(e_{2g+1}) - L) = -omega_b[:, g-1] - 2 L, unnormalized, with L the
integral from infinity to x0.

Branch points are not integrated: the canonical-path lift of e_k is the
half-period (m + tau n) / 2 of the closed-form table _branch_halves.
"""

from dataclasses import dataclass, field
import functools
import itertools

import numpy as np

from .errors import (AmbiguousConstant, IllConditionedCurve, InvalidInput,
                     NumericalFailure, PathDegenerate)
from .numeric import _norm, quadrature_nodes
from .theta import RiemannMatrix, _judged, ON_THETA_TOL

#: Bound on the quadrature error of each leg of an Abel-Jacobi lift.
_LIFT_TOL = 1e-10
#: Gauss-Legendre rule sizes of a leg; a leg that no rule meets is bisected.
_LEG_RULES = np.array([8, 12, 16, 20, 24, 32, 48, 64])
#: The quadrature bounds are taken on the ellipses E_r, r = rho ** power.
_RADIUS_POWERS = np.array([0.5, 0.7, 0.85, 0.95])
#: Most bisections of a leg, and most pieces pending per leg, before a
#: quadrature is refused.
_MAX_HALVINGS = 60
_MAX_PENDING = 64
#: The Riemann constant's certificate: its number of random W_{g-1}
#: divisors and their seed.
_KAPPA_DIVISORS = 20
_KAPPA_SEED = 20260823
#: A nonreal root whose imaginary part is within this factor of its
#: perturbation scale (HyperellipticCurve) is taken as an unresolved real one.
_ROOT_NOISE = 100.0
#: Largest Riemann bilinear residual of a period matrix that is accepted.
BILINEAR_TOL = 1e-9


@dataclass(frozen=True)
class CurvePoint:
    """A point on the curve: finite (x, y) or the single point at infinity."""

    x: complex = 0.0
    y: complex = 0.0
    at_infinity: bool = False

    @classmethod
    def infinity(cls):
        return cls(at_infinity=True)

    def __repr__(self):
        if self.at_infinity:
            return "CurvePoint(inf)"
        return f"CurvePoint(x={self.x:.6g}, y={self.y:.6g})"


def involution(point):
    """Hyperelliptic involution (x, y) -> (x, -y); fixes branch points and
    the point at infinity."""
    if point.at_infinity:
        return point
    return CurvePoint(x=point.x, y=-point.y)


@dataclass(frozen=True)
class Divisor:
    """Formal integer combination of curve points with deduplicated support."""

    terms: tuple

    @classmethod
    def of(cls, *entries):
        """Build from (point, mult) pairs or bare points (mult 1)."""
        acc = []
        for entry in entries:
            point, mult = entry if isinstance(entry, tuple) else (entry, 1)
            for i, (q, m) in enumerate(acc):
                if q == point:
                    acc[i] = (q, m + mult)
                    break
            else:
                acc.append((point, int(mult)))
        return cls(terms=tuple((p, m) for p, m in acc if m != 0))

    def __add__(self, other):
        return Divisor.of(*self.terms, *other.terms)

    @property
    def degree(self):
        return sum(m for _, m in self.terms)

    def expanded(self):
        """Support points repeated by multiplicity (positive parts only)."""
        out = []
        for point, mult in self.terms:
            out.extend([point] * max(mult, 0))
        return out


class HyperellipticCurve:
    """Odd real model y^2 = f(x), deg f = 2g+1, distinct real roots."""

    def __init__(self, f_coeffs):
        fc = np.asarray(f_coeffs, dtype=float)
        if fc.ndim != 1 or len(fc) < 4 or len(fc) % 2 != 0:
            raise InvalidInput(
                "f must have odd degree 2g+1 >= 3 (even number of "
                "ascending coefficients)", n_coeffs=len(np.atleast_1d(fc)))
        if not np.all(np.isfinite(fc)):
            raise InvalidInput("f coefficients must be finite")
        if fc[-1] == 0.0:
            raise InvalidInput("leading coefficient must be nonzero")
        self.f_coeffs = fc
        self.genus = (len(fc) - 2) // 2
        roots = np.roots(fc[::-1])
        span = roots.real.max() - roots.real.min()
        span = max(span, 1.0)
        imag = np.abs(roots.imag)
        if np.max(imag) > 1e-8 * span:
            # rounding the coefficients moves a root r by up to about
            # n u sum |a_i| |r|^i / |f'(r)| (Wilkinson, Numer. Math. 1
            # (1959)); imaginary parts within _ROOT_NOISE of that scale are
            # real roots the expanded coefficients do not resolve
            with np.errstate(over="ignore", invalid="ignore"):
                slope = np.abs(np.polyval(np.polyder(fc[::-1]), roots))
                scale = (len(fc) - 1) * np.finfo(float).eps / 2.0 \
                    * np.polyval(np.abs(fc[::-1]), np.abs(roots))
                noise = np.all(imag * slope <= _ROOT_NOISE * scale)
            if noise:
                raise IllConditionedCurve(
                    "branch points are real to rounding but not resolved "
                    "by the coefficients", max_imag=float(np.max(imag)))
            raise InvalidInput("branch points must be real",
                               max_imag=float(np.max(imag)))
        roots = np.sort(roots.real)
        if np.min(np.diff(roots)) <= 1e-8 * span:
            raise IllConditionedCurve("branch points too close",
                                      min_gap=float(np.min(np.diff(roots))))
        self.roots = roots
        self.span = float(roots[-1] - roots[0])
        self.leading = float(fc[-1])

    @classmethod
    def from_json_dict(cls, data):
        coeffs = data.get("f_coeffs") if isinstance(data, dict) else None
        # JSON true/false are Python bools, which numpy reads as 1 and 0
        if not isinstance(coeffs, list) or not all(
                type(c) in (int, float) and abs(c) <= np.finfo(float).max
                for c in coeffs):
            raise InvalidInput(
                "curve JSON must hold 'f_coeffs', a list of finite numbers")
        return cls(coeffs)

    def f(self, x):
        # product form over the computed roots: stable near branch points,
        # where the expanded-coefficient Horner evaluation cancels badly
        factors = self._factors(x, complex(self.leading))
        return np.multiply.reduce(factors, axis=0)

    def y_branch(self, x):
        """The fixed branch y_+ (per-factor principal square roots)."""
        factors = self._factors(x, np.sqrt(complex(self.leading)))
        np.sqrt(factors[1:], out=factors[1:])
        return np.multiply.reduce(factors, axis=0)

    def _factors(self, x, first):
        """(2g + 2, *x.shape) complex: ``first``, then x - e for each root
        e.  A product over axis 0 (np.multiply.reduce) multiplies them in
        this order, from the left, as a loop over the roots would."""
        x = np.asarray(x, dtype=complex)
        factors = np.empty((len(self.roots) + 1,) + x.shape, dtype=complex)
        factors[0] = first
        np.subtract(x, self.roots.reshape((-1,) + (1,) * x.ndim),
                    out=factors[1:])
        return factors

    def point(self, x, sheet=+1):
        """The curve point over x on the given sheet of y_+."""
        y = complex(self.y_branch(np.asarray(x, dtype=complex)))
        return CurvePoint(x=complex(x), y=sheet * y)

    def weierstrass_point(self, i):
        return CurvePoint(x=complex(self.roots[i]), y=0.0)

    def validate_points(self, x, y):
        """Refuse the first of the finite points (x, y) (arrays) that does
        not satisfy y^2 = f(x)."""
        with np.errstate(invalid="ignore", over="ignore"):
            scale = max(np.maximum.reduce(abs(self.f_coeffs)), 1.0) \
                * np.maximum(1.0, np.abs(x)) ** (2 * self.genus + 1)
            defect = np.abs(y * y - self.f(x))
        # NaN compares False: a non-finite x or y is refused too
        bad = np.flatnonzero(~((defect <= 1e-10 * scale) & np.isfinite(x)))
        if len(bad):
            raise InvalidInput("point does not satisfy y^2 = f(x)",
                               defect=float(defect[bad[0]]))

    def is_branch_x(self, x):
        """Whether x (a scalar, or each entry of an array) lies within
        1e-8 span of a branch point."""
        near = np.minimum.reduce(abs(np.subtract.outer(x, self.roots)),
                                 axis=-1) \
            <= 1e-8 * self.span
        return near if near.ndim else bool(near)


@dataclass(frozen=True)
class JacobianLift:
    """A point of C^g on the universal cover of the Jacobian."""

    z: np.ndarray
    tau: RiemannMatrix

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex).reshape(-1)
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    def __add__(self, other):
        if isinstance(other, JacobianLift):
            return JacobianLift(self.z + other.z, self.tau)
        return JacobianLift(self.z + np.asarray(other, dtype=complex),
                            self.tau)

    def __sub__(self, other):
        if isinstance(other, JacobianLift):
            return JacobianLift(self.z - other.z, self.tau)
        return JacobianLift(self.z - np.asarray(other, dtype=complex),
                            self.tau)

    def __mul__(self, scalar):
        return JacobianLift(self.z * scalar, self.tau)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return JacobianLift(self.z / scalar, self.tau)

    def __neg__(self):
        return JacobianLift(-self.z, self.tau)

    def lattice_distance(self, other=None):
        """Norm of the residual of self (minus other) under
        RiemannMatrix.reduce.

        It equals the distance from the period lattice whenever that
        distance is below 1 / (2 ||B^-1||), B the real period basis
        [[I, Re tau], [0, Im tau]], and bounds the distance from above
        otherwise; the package's coincidence thresholds (1e-12 to 1e-3)
        lie in the exact range.
        """
        z = self.z if other is None else self.z - other.z
        return _norm(self.tau._reduce(z)[0])


@dataclass
class PeriodData:
    """Periods of the unnormalized basis x^{k-1} dx / y and derived data.

    ``normalization`` maps unnormalized Abel-Jacobi integrals to the
    normalized coordinates in which the period lattice is Z^g + tau Z^g.
    """

    omega_a: np.ndarray
    omega_b: np.ndarray
    tau: RiemannMatrix
    normalization: np.ndarray
    curve: HyperellipticCurve
    anchor: float
    _leg_infinity: np.ndarray = field(default=None, repr=False)
    _sheet_flip: np.ndarray = field(default=None, repr=False)
    #: node counts of the period integrals and of the leg infinity ->
    #: anchor, and the largest of their error bounds
    quadrature: dict = field(default=None, repr=False)

    def bilinear_residual(self):
        s = self.omega_a @ self.omega_b.T - self.omega_b @ self.omega_a.T
        return float(np.linalg.norm(s)
                     / max(np.linalg.norm(self.omega_a
                                          @ self.omega_b.T), 1e-300))


@functools.cache
def _leg_table():
    """The Gauss-Legendre rules of _LEG_RULES on [0, 1], concatenated:
    their nodes and weights, and where each rule starts in them, indexed
    by its node count.  Built on first use."""
    t, w = (np.concatenate(part) for part in zip(
        *(np.polynomial.legendre.leggauss(n) for n in _LEG_RULES.tolist())))
    start = np.zeros(_LEG_RULES[-1] + 1, dtype=np.intp)
    start[_LEG_RULES] = _LEG_RULES.cumsum() - _LEG_RULES
    return 0.5 * (t + 1.0), 0.5 * w, start


def _ellipses(lo, hi, poles):
    """The Bernstein ellipses E_r of the intervals lo -> hi (rows) that
    hold none of the poles (rows, J): radii r (rows, P), r = rho **
    _RADIUS_POWERS with rho the least Joukowski radius of the poles, the
    largest |x| on each E_r (rows, P), and lower bounds (rows, P, J) on the
    distances from the poles to E_r.

    In the interval's coordinate s in [-1, 1], E_r is the image of |u| = r
    under J(u) = (u + 1/u) / 2.  A pole s_j = J(w_j), |w_j| = rho_j, lies
    |w_j - u| |1 - 1/(w_j u)| / 2 >= (rho_j - r) (1 - 1/(r rho_j)) / 2 from
    J(u), which x scales by |hi - lo| / 2.
    """
    mid, half = 0.5 * (hi + lo)[:, None], 0.5 * (hi - lo)[:, None]
    s = (poles - mid) / half
    axis = 0.5 * (np.abs(s - 1.0) + np.abs(s + 1.0))
    rho = axis + np.sqrt(axis * axis - 1.0)
    r = np.minimum.reduce(rho, axis=1)[:, None] ** _RADIUS_POWERS
    reach = np.abs(mid) + np.abs(half) * 0.5 * (r + 1.0 / r)
    rho, r3 = rho[:, None, :], r[:, :, None]
    gap = np.abs(half)[:, :, None] * 0.5 * (rho - r3) \
        * (1.0 - 1.0 / (r3 * rho))
    return r, reach, gap


def _legendre_bound(r, M):
    """Bounds (rows, len(_LEG_RULES)) on the error of each Gauss-Legendre
    rule on [0, 1] for an integrand analytic with |f| <= M (rows, P) on
    the ellipses E_r: (64/15) M r^-2n / (r^2 - 1) on [-1, 1] (Trefethen,
    Approximation Theory and Approximation Practice, SIAM 2013,
    Thm 19.3), halved on [0, 1], and the least over the radii."""
    r, M = r[:, :, None], M[:, :, None]
    return np.minimum.reduce(32.0 / 15.0 * M * r ** (-2.0 * _LEG_RULES)
                             / (r * r - 1.0), axis=1)


def _legendre_pieces(lo, hi, bound, tol):
    """Pieces of the intervals lo -> hi (rows), each with the smallest rule
    of _LEG_RULES whose bound(lo, hi) (pieces, len(_LEG_RULES)) meets the
    piece's share of tol, tol times its fraction of its row.  An interval
    that no rule meets is bisected.  Returns the pieces' lo, hi, row, node
    count and bound; a row's pieces depend on that row alone.  Raises
    NumericalFailure after _MAX_HALVINGS bisections, or when more than
    _MAX_PENDING pieces per row are pending.
    """
    rows = len(lo)
    row = np.arange(rows)
    share = np.full(rows, float(tol))
    done = []
    for _ in range(_MAX_HALVINGS):
        if len(lo) > _MAX_PENDING * rows:
            break
        # a pole on an interval gives r = 1 and an infinite or NaN bound
        with np.errstate(divide="ignore", invalid="ignore"):
            bounds = bound(lo, hi)
        fits = bounds <= share[:, None]
        ok = fits.any(axis=1)
        rule = np.argmax(fits, axis=1)[ok]
        done.append((lo[ok], hi[ok], row[ok], _LEG_RULES[rule],
                     bounds[ok, rule]))
        if ok.all():
            return [np.concatenate(column) for column in zip(*done)]
        lo, hi = lo[~ok], hi[~ok]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        row = np.tile(row[~ok], 2)
        share = np.tile(0.5 * share[~ok], 2)
    raise NumericalFailure("quadrature did not converge", tol=tol)


def _legendre_sum(pieces, rows, g, integrand):
    """Sums (rows, g) of the pieces' Gauss-Legendre rules, each piece's
    integral added to its row.  integrand(x, row) gives the values (M, g)
    at the nodes x (M,) of all pieces, concatenated, each node of row
    ``row`` (M,): one call for every rule.  Each piece's sum is one
    np.add.reduceat segment, and each row's another, over its pieces in
    their given order; every row has a piece (_legendre_pieces).
    """
    lo, hi, row, nodes, _ = pieces
    order = row.argsort(kind="stable")
    lo, hi, row, nodes = lo[order], hi[order], row[order], nodes[order]
    t, w, start = _leg_table()
    ends = nodes.cumsum()
    firsts = ends - nodes
    index = np.arange(ends[-1]) + (start[nodes] - firsts).repeat(nodes)
    step = hi - lo
    x = lo.repeat(nodes) + t[index] * step.repeat(nodes)
    values = integrand(x, row.repeat(nodes)) * w[index, None]
    sums = np.add.reduceat(values, firsts, axis=0) * step[:, None]
    return np.add.reduceat(sums, row.searchsorted(np.arange(rows)), axis=0)


def _segment_integrals(curve, j, tol):
    """Integrals of x^{k-1}/y_+ over [e_j, e_{j+1}] (0-based j) between
    consecutive roots, with the node count and error bound of their
    Gauss-Chebyshev rule.

    With x = mid + half s, sqrt(x - e_j) sqrt(x - e_{j+1}) = i half
    sqrt(1 - s^2) on the upper lip, so the integral is that of
    h(s) (1 - s^2)^(-1/2), h = x^{k-1} / (i sqrt(lc) prod_other
    sqrt(x - e_i)), which is analytic off the other roots and is evaluated
    without the endpoint cancellation of y_+.  For |h| <= M on E_r the
    n-point rule errs by at most 2 pi M r^-2n / (1 - r^-2n), the aliased
    Chebyshev coefficients, each at most 2 M r^-m; n is the least that
    meets tol.
    """
    g = curve.genus
    lo, hi = curve.roots[j], curve.roots[j + 1]
    others = np.delete(curve.roots, [j, j + 1])
    r, reach, gap = _ellipses(np.array([lo]), np.array([hi]),
                              others[None, :])
    M = np.maximum(reach, 1.0) ** (g - 1) \
        / (np.sqrt(abs(curve.leading)) * np.prod(np.sqrt(gap), axis=2))
    n = max(2, int(np.ceil(np.min(np.log1p(2.0 * np.pi * M / tol)
                                  / (2.0 * np.log(r))))))
    q = r ** (-2.0 * n)
    bound = float(np.min(2.0 * np.pi * M * q / (1.0 - q)))

    t, w = quadrature_nodes(n)
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
    h = 1.0 / (1j * np.sqrt(complex(curve.leading)) * np.prod(
        np.sqrt(x[:, None] - others + 0j), axis=1))
    return (x[None, :] ** np.arange(g)[:, None] * h) @ w, n, bound


def period_matrix(curve, tol=1e-11):
    """Period matrices over the classical homology basis and normalized tau.

    tol bounds the truncation error of each period integral and of the
    integral from infinity to the anchor; ``quadrature`` records their
    node counts and the largest bound.  Raises NumericalFailure when the
    computed tau violates the Riemann matrix invariants (symmetry,
    positive definite imaginary part).
    """
    if not 0.0 < tol < 1.0:
        raise InvalidInput("period tolerance must lie in (0, 1)", tol=tol)
    g = curve.genus
    roots = curve.roots
    segs, nodes, bounds = zip(*(_segment_integrals(curve, j, tol)
                                for j in range(2 * g)))
    omega_a = np.zeros((g, g), dtype=complex)
    omega_b = np.zeros((g, g), dtype=complex)
    for i in range(1, g + 1):
        omega_a[:, i - 1] = 2.0 * segs[2 * i - 1]
        # the cut portions of the b path cancel between the two sheets;
        # only the free intervals [e_{2j-1}, e_{2j}], j <= i, contribute
        omega_b[:, i - 1] = 2.0 * np.sum(segs[0:2 * i - 1:2], axis=0)

    norm = np.linalg.inv(omega_a)
    tau = norm @ omega_b
    sym = np.linalg.norm(tau - tau.T) / max(np.linalg.norm(tau), 1e-300)
    if sym > 1e-9:
        raise NumericalFailure("computed tau is not symmetric",
                               residual=float(sym))
    tau = 0.5 * (tau + tau.T)
    eigs = np.linalg.eigvalsh(tau.imag)
    if eigs.min() < 0 < eigs.max():
        raise NumericalFailure("Im(tau) is indefinite",
                               eigs=[float(e) for e in eigs])
    if eigs.max() <= 0:
        omega_b = -omega_b
        tau = -tau
    rm = RiemannMatrix(tau)

    # right of every root by the margin, and never left of the margin, so
    # that the leg x = anchor / v^2 comes in along the positive axis
    margin = max(1.0, 0.25 * curve.span)
    anchor = max(roots[-1] + margin, margin)
    periods = PeriodData(omega_a=omega_a, omega_b=omega_b, tau=rm,
                         normalization=norm, curve=curve, anchor=anchor)
    if periods.bilinear_residual() > BILINEAR_TOL:
        raise NumericalFailure("Riemann bilinear relation violated",
                               residual=periods.bilinear_residual())
    periods._leg_infinity, pieces = _integral_to_anchor(curve, anchor, tol)
    # twice the path anchor -> e_{2g+1}, whose lift is -tau[:, g-1] / 2
    periods._sheet_flip = -omega_b[:, g - 1] - 2.0 * periods._leg_infinity
    periods.quadrature = {"period_nodes": list(nodes),
                          "infinity_nodes": int(np.sum(pieces[3])),
                          "max_bound": float(max(*bounds,
                                                 np.sum(pieces[4])))}
    return periods


def _integral_to_anchor(curve, anchor, tol):
    """Integral of x^{k-1} dx / y_+ from infinity to the anchor along the
    real axis, and its _legendre_pieces in v.

    With x = anchor / v^2 the integrand is the regular
    -2 anchor^k v^(2g-2k) / (sqrt(lc) prod_i sqrt(anchor - e_i v^2)) on
    v in (0, 1], whose poles are v = +-sqrt(anchor / e_i).
    """
    g = curve.genus
    k = np.arange(1, g + 1)
    e = curve.roots
    nonzero = e != 0.0
    pole = np.sqrt(anchor / e[nonzero] + 0j)
    # a root at 0 leaves the constant factor sqrt|anchor| in |y|
    scale = np.sqrt(abs(curve.leading)) \
        * abs(anchor) ** (0.5 * np.sum(~nonzero))

    def bound(lo, hi):
        r, reach, gap = _ellipses(lo, hi, np.concatenate((pole, -pole))
                                  [None, :])
        pair = np.abs(e[nonzero]) * gap[..., :len(pole)] \
            * gap[..., len(pole):]
        M = 2.0 * np.abs(hi - lo)[:, None] * max(1.0, abs(anchor)) ** g \
            * np.maximum(reach, 1.0) ** (2 * g - 2) \
            / (scale * np.prod(np.sqrt(pair), axis=2))
        return _legendre_bound(r, M)

    def integrand(v, _):
        denom = np.sqrt(complex(curve.leading)) * np.prod(
            np.sqrt(anchor - e[:, None] * v * v + 0j), axis=0)
        return -2.0 * anchor ** k * v[:, None] ** (2 * g - 2 * k) \
            / denom[:, None]

    pieces = _legendre_pieces(np.zeros(1), np.ones(1), bound, tol)
    return _legendre_sum(pieces, 1, g, integrand)[0], pieces


def _leg_bound(curve, lo, hi):
    """Bounds (rows, len(_LEG_RULES)) on the Gauss-Legendre error of the
    integrals of x^{k-1} dx / y over the segments lo -> hi: x^{k-1} / y
    is analytic in every ellipse E_r that holds no root, with
    |x^{k-1} / y| <= max(1, |x|)^(g-1) / (sqrt|lc| prod dist(e_j, E_r)^(1/2))
    on it, and the integrand in t in [0, 1] carries the factor hi - lo."""
    r, reach, gap = _ellipses(lo, hi, curve.roots[None, :])
    M = np.abs(hi - lo)[:, None] \
        * np.maximum(reach, 1.0) ** (curve.genus - 1) \
        / (np.sqrt(abs(curve.leading)) * np.prod(np.sqrt(gap), axis=2))
    return _legendre_bound(r, M)


def _segment_quadrature(curve, x_from, x_to, cross):
    """Integrate x^{k-1} dx / y along R straight segments x_from -> x_to of
    paths that cross the real axis at most once, downwards, at the real
    points cross; returns (integrals (R, g), y at each x_to).

    y is continued from y_+ above the axis (module docstring): below it
    y = -y_+ when an odd number of roots lie right of cross.  A zero
    imaginary part, -0.0 included, is read as +0, so a segment ending on
    the real axis takes the limit from above.  No segment may pass a
    branch point.  Each segment runs one Gauss-Legendre rule, or one per
    piece of its bisection, that _legendre_pieces takes from its bound,
    so its integral is within _LIFT_TOL whatever batch it is in.
    """
    g = curve.genus
    delta = x_to - x_from
    moving = delta != 0

    # degeneracy check: distance from each segment to each root
    roots = curve.roots[None, :]
    t_star = np.clip(((roots - x_from[:, None])
                      / np.where(moving, delta, 1.0)[:, None]).real, 0.0, 1.0)
    dist = np.abs(x_from[:, None] + t_star * delta[:, None] - roots)
    bad = moving[:, None] & (dist <= 1e-8 * curve.span)
    if bad.any():
        k, j = np.argwhere(bad)[0]
        raise PathDegenerate("integration path passes a branch point",
                             root=float(curve.roots[j]),
                             distance=float(dist[k, j]))

    sign = np.where(np.sum(roots > cross[:, None], axis=1) % 2, -1.0, 1.0)

    def branch(x, s):
        x = x + 0.0                 # -0.0 imaginary parts become +0
        return np.where(x.imag < 0, s, 1.0) * curve.y_branch(x)

    rows = np.flatnonzero(moving)
    powers = np.arange(g)

    def integrand(x, row):
        return x[:, None] ** powers / branch(x, sign[rows[row]])[:, None]

    est = np.zeros((len(x_from), g), dtype=complex)
    pieces = _legendre_pieces(x_from[rows], x_to[rows],
                              lambda lo, hi: _leg_bound(curve, lo, hi),
                              _LIFT_TOL)
    est[rows] = _legendre_sum(pieces, len(rows), g, integrand)
    return est, branch(x_to, sign)


def _branch_halves(g, k):
    """Integer vectors m, n (len(k), g) with the canonical-path lift of
    roots[k] equal to (m + tau n) / 2 (Mumford, Tata Lectures on Theta II,
    Ch. IIIa, for the cuts and homology of this module)."""
    k = np.asarray(k)[:, None]
    i = np.arange(g)[None, :]
    m = -(i >= k // 2).astype(int)
    n = -((k >= 1) & (i == (k - 1) // 2)).astype(int)
    return m, n


def _branch_targets(curve, x, y):
    """Which finite points (x, y) (arrays) are branch points.  A point over
    a branch x that is not one is left to the quadrature, whose degeneracy
    check refuses its path."""
    branch = curve.is_branch_x(x)
    branch[branch] = np.abs(y[branch]) <= 1e-6 * np.maximum(1.0, np.abs(
        curve.y_branch(x[branch] + 0.01j * curve.span)))
    return branch


def _abel_jacobi_points(curve, points, periods):
    """Normalized Abel-Jacobi lifts (K, g) of K curve points, base point
    infinity: infinity lifts to 0, the finite points through
    _abel_jacobi_xy."""
    lifts = np.zeros((len(points), curve.genus), dtype=complex)
    finite = np.array([k for k, point in enumerate(points)
                       if not point.at_infinity], dtype=int)
    lifts[finite] = _abel_jacobi_xy(
        curve, np.array([points[k].x for k in finite], dtype=complex),
        np.array([points[k].y for k in finite], dtype=complex), periods)
    return lifts


def _abel_jacobi_xy(curve, x, y, periods):
    """Normalized Abel-Jacobi lifts (K, g) of the finite curve points
    (x, y) (arrays, K), base point infinity: branch points from the
    _branch_halves table, the others from one batched polyline quadrature.

    The points are validated, and the branch points picked out, by one
    array check each.  All legs run in one _segment_quadrature: the leg
    anchor -> anchor + i h, shared by every target, is one row, then K rows
    -> x + i h and K rows -> x.  A row's nodes follow from its own bound,
    so a lift agrees with its single-point lift to rounding.
    """
    curve.validate_points(x, y)
    lifts = np.zeros((len(x), curve.genus), dtype=complex)
    branch = _branch_targets(curve, x, y)
    if branch.any():
        m, n = _branch_halves(curve.genus, np.argmin(
            np.abs(x[branch, None] - curve.roots), axis=1))
        lifts[branch] = (m + n @ periods.tau.entries) / 2.0
    rows = ~branch
    x, y = x[rows], y[rows]
    K = len(x)
    if not K:
        return lifts

    height = 0.75 * curve.span + 1.0
    top = periods.anchor + 1j * height
    over = x + 1j * height
    # the path crosses the real axis on the last leg, at Re x, or on the
    # leg top -> over when Im x < -height puts over below the axis
    cross = periods.anchor + (x.real - periods.anchor) \
        * height / np.maximum(-x.imag, height)
    legs, y_end = _segment_quadrature(
        curve, np.concatenate(([periods.anchor], np.repeat(top, K), over)),
        np.concatenate(([top], over, x)),
        np.concatenate(([periods.anchor], cross, cross)))
    path = legs[0] + legs[1:K + 1] + legs[K + 1:]
    y_end = y_end[K + 1:]
    same_sheet = np.abs(y_end - y) <= np.abs(y_end + y)
    raw = periods._leg_infinity + np.where(
        same_sheet[:, None], path, periods._sheet_flip - path)
    lifts[rows] = raw @ periods.normalization.T
    return lifts


def _divisor_lifts(curve, divisors, periods):
    """Lifts (D, g) of D divisors: their support points are lifted once,
    in one _abel_jacobi_points call, and summed with multiplicities."""
    index = {}
    for divisor in divisors:
        for point, _ in divisor.terms:
            index.setdefault(point, len(index))
    K = _abel_jacobi_points(curve, list(index), periods)
    out = np.zeros((len(divisors), curve.genus), dtype=complex)
    for i, divisor in enumerate(divisors):
        for point, mult in divisor.terms:
            out[i] = out[i] + mult * K[index[point]]
    return out


def abel_jacobi(curve, point, periods):
    """Normalized Abel-Jacobi lift of a curve point, base point infinity.

    The path system is canonical, so equal points always produce the
    identical lift.
    """
    return JacobianLift(_abel_jacobi_points(curve, [point], periods)[0],
                        periods.tau)


def abel_jacobi_divisor(curve, divisor, periods):
    """Linear extension of the Abel-Jacobi map to divisors (on lifts)."""
    return JacobianLift(_divisor_lifts(curve, [divisor], periods)[0],
                        periods.tau)


def random_curve_point(curve, rng):
    """A curve point over a random x in the upper half plane, on a random
    sheet (x is drawn first, then the sheet)."""
    x = (rng.uniform(curve.roots[0] + 0.3, curve.roots[-1] - 0.3)
         + 1j * rng.uniform(0.3, 0.3 * curve.span))
    return curve.point(x, 1 if rng.integers(2) == 0 else -1)


def random_effective_divisor(curve, degree, rng):
    """Effective divisor of generic points with complex x off the real axis
    (_random_points)."""
    x, y = _random_points(curve, degree, rng)
    return Divisor.of(*(CurvePoint(x=complex(a), y=complex(b))
                        for a, b in zip(x, y)))


def _random_points(curve, count, rng):
    """count points (x, y) (arrays) with x off the real axis: each point
    draws x, then its sheet, and y comes from one y_branch call."""
    xs, sheets = [], []
    for _ in range(count):
        xs.append(rng.uniform(curve.roots[0], curve.roots[-1])
                  + 1j * rng.uniform(0.2, 0.6) * curve.span)
        sheets.append(1 if rng.integers(2) == 0 else -1)
    x = np.array(xs, dtype=complex)
    return x, np.array(sheets) * curve.y_branch(x)


def riemann_constant(curve, periods):
    """The Riemann constant kappa for base point infinity.

    For the odd model kappa is the half-period AJ(e_2) + AJ(e_4) + ...
    + AJ(e_2g), branch points e_1 < ... < e_{2g+1} counted from 1
    (Mumford, Tata Lectures on Theta II, Ch. IIIa).  It is returned as the
    lift (m + tau n) / 2 with m, n in {0,1}^g, the sum of their
    _branch_halves rows mod 2, in closed form: m = (1, 0, 1, 0, ...) and
    n = (1, ..., 1).  The certificate requires theta(AJ(D) - kappa) to
    vanish on _KAPPA_DIVISORS seeded random effective divisors D of degree
    g-1: the worst residual |theta| / A_0 (_kappa_residual) must lie below
    ON_THETA_TOL, else AmbiguousConstant is raised.
    """
    g = curve.genus
    tau = periods.tau
    m, n = (np.mod(v.sum(axis=0), 2).astype(float)
            for v in _branch_halves(g, range(1, 2 * g, 2)))
    kappa = (m + tau.entries @ n) / 2.0

    residual = _kappa_residual(periods, kappa, _random_divisor_lifts(
        curve, periods, _KAPPA_DIVISORS, np.random.default_rng(_KAPPA_SEED)))
    info = {"residual": residual, "m": m.astype(int).tolist(),
            "n": n.astype(int).tolist()}
    if not residual < ON_THETA_TOL:
        raise AmbiguousConstant(
            "theta(AJ(D) - kappa) does not vanish on W_{g-1}", **info)
    return JacobianLift(kappa, tau), info


def _random_divisor_lifts(curve, periods, count, rng):
    """Lifts (count, g) of count random effective divisors of degree g-1,
    drawn as random_effective_divisor draws them, one after another: their
    points are lifted in one _abel_jacobi_xy call and summed per divisor."""
    g = curve.genus
    x, y = _random_points(curve, count * (g - 1), rng)
    return _abel_jacobi_xy(curve, x, y, periods).reshape(
        count, g - 1, g).sum(axis=1)


def _kappa_residual(periods, kappa, lifts):
    """The worst theta-divisor residual |theta| / A_0 (theta._judged) of
    AJ(D) - kappa over the divisor lifts AJ(D) (D, g)."""
    return float(np.max(_judged(periods.tau, lifts - kappa, 0)[2]))


def divisor_is_special(curve, divisor):
    """Hyperelliptic oracle: an effective divisor of degree <= g-1+k is
    special iff it contains a full fiber P + sigma P of the degree-2 map to
    the line: two of its points, repeats counted, conjugate to 1e-8 span
    (so 2P at a branch point or at infinity is special)."""
    tol = 1e-8 * curve.span
    return any(p.at_infinity == q.at_infinity and (p.at_infinity or (
        abs(q.x - p.x) < tol and abs(q.y + p.y) < tol * max(1.0, abs(p.y))))
        for p, q in itertools.combinations(divisor.expanded(), 2))


@dataclass(frozen=True)
class BellSample:
    """A sampled canonical divisor with 2l-2 simple points and g-l double
    points, plus the simple part labeled fiber by fiber."""

    k0: Divisor
    simple_points: tuple
    double_points: tuple
    ell: int
    seed: int

    @property
    def labeled_pqrs(self):
        """For ell = 3: the four simple points labeled (p, q, r, s) with
        q = sigma(p) and s = sigma(r)."""
        if self.ell != 3:
            raise InvalidInput("pqrs labels exist only for ell = 3")
        return self.simple_points


def sample_B_ell(curve, ell, seed):
    """Sample a canonical divisor of shape sum P_i + 2 sum Q_j.

    The canonical class of the odd model is a sum of g-1 fibers of the
    double cover; g-ell fibers are placed at Weierstrass points (the
    doubled part) and ell-1 fibers at generic complex x-values (the 2l-2
    simple points, pairwise distinct).
    """
    g = curve.genus
    if not 2 <= ell <= g:
        raise InvalidInput("ell must satisfy 2 <= ell <= g", ell=ell, g=g)
    rng = np.random.default_rng(seed)

    double_idx = rng.choice(2 * g + 1, size=g - ell, replace=False)
    doubles = tuple(curve.weierstrass_point(int(i)) for i in double_idx)

    simples = []
    xs = []
    while len(xs) < ell - 1:
        x = (rng.uniform(curve.roots[0], curve.roots[-1])
             + 1j * rng.uniform(0.25, 0.7) * curve.span)
        if all(abs(x - prev) > 1e-3 * curve.span for prev in xs):
            xs.append(x)
    for x in xs:
        p = curve.point(x, +1)
        simples.extend([p, involution(p)])

    k0 = Divisor.of(*simples, *((q, 2) for q in doubles))
    return BellSample(k0=k0, simple_points=tuple(simples),
                      double_points=doubles, ell=ell, seed=seed)
