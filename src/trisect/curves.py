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
polyline through the upper half plane to the target x, with the y-branch
tracked by continuity.  A documented sheet-flip loop around e_{2g+1} is
inserted when the tracked branch lands on the conjugate point.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (AmbiguousConstant, IllConditionedCurve, InvalidInput,
                     NumericalFailure, PathDegenerate)
from .numeric import quadrature_nodes
from .theta import RiemannMatrix, theta_batch

_MAX_NODES = 1 << 14


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
        if fc[-1] == 0.0:
            raise InvalidInput("leading coefficient must be nonzero")
        self.f_coeffs = fc
        self.genus = (len(fc) - 2) // 2
        roots = np.roots(fc[::-1])
        span = roots.real.max() - roots.real.min()
        span = max(span, 1.0)
        if np.max(np.abs(roots.imag)) > 1e-8 * span:
            raise InvalidInput("branch points must be real",
                               max_imag=float(np.max(np.abs(roots.imag))))
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
        x = np.asarray(x, dtype=complex)
        out = np.full(x.shape, complex(self.leading), dtype=complex)
        for e in self.roots:
            out = out * (x - e)
        return out

    def y_branch(self, x):
        """The fixed branch y_+ (per-factor principal square roots)."""
        x = np.asarray(x, dtype=complex)
        out = np.full(x.shape, np.sqrt(complex(self.leading)), dtype=complex)
        for e in self.roots:
            out = out * np.sqrt(x - e)
        return out

    def point(self, x, sheet=+1):
        """The curve point over x on the given sheet of y_+."""
        y = complex(self.y_branch(np.asarray(x, dtype=complex)))
        return CurvePoint(x=complex(x), y=sheet * y)

    def weierstrass_point(self, i):
        return CurvePoint(x=complex(self.roots[i]), y=0.0)

    def validate_point(self, point):
        if point.at_infinity:
            return
        scale = max(np.max(np.abs(self.f_coeffs)), 1.0) \
            * max(1.0, abs(point.x)) ** (2 * self.genus + 1)
        if abs(point.y ** 2 - self.f(point.x)) > 1e-10 * scale:
            raise InvalidInput("point does not satisfy y^2 = f(x)",
                               defect=float(abs(point.y ** 2
                                                - self.f(point.x))))

    def is_branch_x(self, x, tol_factor=1e-8):
        return bool(np.min(np.abs(self.roots - x)) <= tol_factor * self.span)


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
        return float(np.linalg.norm(self.tau.reduce(z)[0]))


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
    tol: float
    _leg_infinity: np.ndarray = field(default=None, repr=False)
    _sheet_flip: np.ndarray = field(default=None, repr=False)

    def bilinear_residual(self):
        s = self.omega_a @ self.omega_b.T - self.omega_b @ self.omega_a.T
        return float(np.linalg.norm(s)
                     / max(np.linalg.norm(self.omega_a
                                          @ self.omega_b.T), 1e-300))


_LEGGAUSS_CACHE = {}


def _leggauss01(n):
    if n not in _LEGGAUSS_CACHE:
        t, w = np.polynomial.legendre.leggauss(n)
        _LEGGAUSS_CACHE[n] = (0.5 * (t + 1.0), 0.5 * w)
    return _LEGGAUSS_CACHE[n]


def _node_doubling(func, tol, rule=_leggauss01):
    """Quadrature of func(t) (vector-valued) with the nodes and weights
    rule(n); n doubles from 32 until two successive estimates agree."""
    prev = None
    n = 32
    while n <= _MAX_NODES:
        t, w = rule(n)
        est = func(t) @ w
        if prev is not None and np.max(np.abs(est - prev)) \
                < tol * max(1.0, float(np.max(np.abs(est)))):
            return est
        prev = est
        n *= 2
    raise NumericalFailure("quadrature did not converge", tol=tol)


def _segment_integrals(curve, lo, hi, tol):
    """Integrals of x^{k-1}/y_+ over [lo, hi] between consecutive roots.

    Gauss-Chebyshev nodes absorb the inverse-square-root endpoint
    singularities.
    """
    g = curve.genus
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    def integrand(t):
        x = mid + half * t
        smooth = np.sqrt(1.0 - t * t) / curve.y_branch(x)
        return half * (x[None, :] ** np.arange(g)[:, None] * smooth[None, :])

    return _node_doubling(integrand, tol, quadrature_nodes)


def period_matrix(curve, tol=1e-11):
    """Period matrices over the classical homology basis and normalized tau.

    Raises NumericalFailure when the computed tau violates the Riemann
    matrix invariants (symmetry, positive definite imaginary part).
    """
    if not 0.0 < tol < 1.0:
        raise InvalidInput("period tolerance must lie in (0, 1)", tol=tol)
    g = curve.genus
    roots = curve.roots
    segs = [_segment_integrals(curve, roots[j], roots[j + 1], tol)
            for j in range(2 * g)]
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

    anchor = roots[-1] + max(1.0, 0.25 * curve.span)
    periods = PeriodData(omega_a=omega_a, omega_b=omega_b, tau=rm,
                         normalization=norm, curve=curve, anchor=anchor,
                         tol=tol)
    if periods.bilinear_residual() > 1e-9:
        raise NumericalFailure("Riemann bilinear relation violated",
                               residual=periods.bilinear_residual())
    periods._leg_infinity = _integral_to_anchor(curve, anchor, tol)
    periods._sheet_flip = _sheet_flip_vector(curve, anchor, tol)
    return periods


def _integral_to_anchor(curve, anchor, tol):
    """Integral of x^{k-1} dx / y_+ from infinity to the anchor along the
    real axis (substitution x = anchor / v^2 regularizes the tail)."""
    g = curve.genus

    def integrand(v):
        x = anchor / (v * v)
        y = curve.y_branch(x)
        vand = x[None, :] ** np.arange(g)[:, None]
        return vand * (-2.0 * anchor / (v ** 3 * y))[None, :]

    return _node_doubling(integrand, tol)


def _sheet_flip_vector(curve, anchor, tol):
    """Integral along the loop anchor -> e_{2g+1} -> anchor that lands on
    the opposite sheet: -2 * int_{e_max}^{anchor} x^{k-1} dx / y_+."""
    g = curve.genus
    e = curve.roots[-1]
    c = anchor - e

    def integrand(u):
        x = e + c * u * u
        y = curve.y_branch(x)
        vand = x[None, :] ** np.arange(g)[:, None]
        return vand * (2.0 * c * u / y)[None, :]

    return -2.0 * _node_doubling(integrand, tol)


def _tracked_branch(curve, xs, y_start):
    """y values along the ordered points xs with branch continuity from
    y_start; xs[0] must be the path start."""
    w = np.sqrt(curve.f(np.asarray(xs, dtype=complex)).astype(complex))
    flips = np.abs(np.diff(w)) > np.abs(w[1:] + w[:-1])
    signs = np.cumprod(np.concatenate(([1.0], np.where(flips, -1.0, 1.0))))
    if abs(w[0] - y_start) > abs(w[0] + y_start):
        signs = -signs
    return signs * w


def _segment_quadrature(curve, x_from, x_to, y_start, tol, endpoint_branch):
    """Integrate x^{k-1} dx / y along the straight segment with continuous
    branch; returns (integral vector, y at segment end).

    endpoint_branch=True applies the t = 2s - s^2 substitution so an
    inverse-square-root singularity at the target is absorbed.
    """
    g = curve.genus
    delta = x_to - x_from
    if delta == 0:
        return np.zeros(g, dtype=complex), y_start

    # degeneracy check: distance from the segment to each root
    for e in curve.roots:
        t_star = np.clip(((e - x_from) / delta).real, 0.0, 1.0)
        closest = x_from + t_star * delta
        d = abs(closest - e)
        if d <= 1e-8 * curve.span and not (
                endpoint_branch and abs(x_to - e) <= 1e-8 * curve.span):
            raise PathDegenerate("integration path passes a branch point",
                                 root=float(e), distance=float(d))

    dense = np.linspace(0.0, 1.0, 513)

    def eval_at(ts):
        # continuity tracking over the merged dense+quadrature grid
        merged = np.unique(np.concatenate((dense, ts)))
        xs = x_from + merged * delta
        ys = _tracked_branch(curve, xs, y_start)
        idx = np.searchsorted(merged, ts)
        return xs[idx], ys[idx], ys[-1]

    state = {}

    def integrand(ss):
        if endpoint_branch:
            ts = 2.0 * ss - ss * ss
            jac = 2.0 * (1.0 - ss)
        else:
            ts = ss
            jac = np.ones_like(ss)
        xs, ys, y_end = eval_at(ts)
        state["y_end"] = y_end
        vand = xs[None, :] ** np.arange(g)[:, None]
        return vand * (delta * jac / ys)[None, :]

    est = _node_doubling(integrand, tol)
    return est, state["y_end"]


def _polyline_integral(curve, anchor, target_x, tol, target_is_branch):
    """Integral of x^{k-1} dx / y along the canonical polyline from the
    anchor to target_x, starting on the y_+ sheet."""
    height = 0.75 * curve.span + 1.0
    waypoints = [complex(anchor), complex(anchor) + 1j * height,
                 complex(target_x) + 1j * height, complex(target_x)]
    total = np.zeros(curve.genus, dtype=complex)
    y_cur = complex(curve.y_branch(np.asarray(anchor, dtype=complex)))
    for i in range(3):
        est, y_cur = _segment_quadrature(
            curve, waypoints[i], waypoints[i + 1], y_cur, tol,
            endpoint_branch=(i == 2 and target_is_branch))
        total += est
    return total, y_cur


def abel_jacobi(curve, point, periods, tol=1e-10):
    """Normalized Abel-Jacobi lift of a curve point, base point infinity.

    The path system is canonical, so equal points always produce the
    identical lift.
    """
    if point.at_infinity:
        return JacobianLift(np.zeros(curve.genus), periods.tau)
    curve.validate_point(point)
    is_branch = curve.is_branch_x(point.x) and abs(point.y) \
        <= 1e-6 * max(1.0, abs(curve.y_branch(
            np.asarray(point.x + 0.01j * curve.span, dtype=complex))))
    if curve.is_branch_x(point.x) and not is_branch:
        raise PathDegenerate("target too close to a branch point",
                             x=complex(point.x))
    leg2, y_end = _polyline_integral(curve, periods.anchor, point.x, tol,
                                     target_is_branch=is_branch)
    raw = periods._leg_infinity.copy()
    if is_branch or abs(y_end - point.y) <= abs(y_end + point.y):
        raw += leg2
    else:
        raw += periods._sheet_flip - leg2
    return JacobianLift(periods.normalization @ raw, periods.tau)


def abel_jacobi_divisor(curve, divisor, periods, tol=1e-10):
    """Linear extension of the Abel-Jacobi map to divisors (on lifts)."""
    z = np.zeros(curve.genus, dtype=complex)
    for point, mult in divisor.terms:
        z = z + mult * abel_jacobi(curve, point, periods, tol).z
    return JacobianLift(z, periods.tau)


def random_curve_point(curve, rng):
    """A curve point over a random x in the upper half plane, on a random
    sheet (x is drawn first, then the sheet)."""
    x = (rng.uniform(curve.roots[0] + 0.3, curve.roots[-1] - 0.3)
         + 1j * rng.uniform(0.3, 0.3 * curve.span))
    return curve.point(x, 1 if rng.integers(2) == 0 else -1)


def random_effective_divisor(curve, degree, rng):
    """Effective divisor of generic points with complex x off the real axis."""
    points = []
    for _ in range(degree):
        x = (rng.uniform(curve.roots[0], curve.roots[-1])
             + 1j * rng.uniform(0.2, 0.6) * curve.span)
        sheet = 1 if rng.integers(2) == 0 else -1
        points.append(curve.point(x, sheet))
    return Divisor.of(*points)


def riemann_constant(curve, periods, tol=1e-7, n_divisors=20, seed=20260823):
    """The Riemann constant kappa for base point infinity.

    For the odd model kappa is the half-period AJ(e_2) + AJ(e_4) + ...
    + AJ(e_2g), branch points e_1 < ... < e_{2g+1} counted from 1
    (Mumford, Tata Lectures on Theta II, Ch. IIIa).  It is returned as the
    lift (m + tau n) / 2 with m, n in {0,1}^g.  The certificate requires
    theta(AJ(D) - kappa) to vanish on n_divisors random effective divisors
    D of degree g-1: the worst Newton residual |theta| / ||grad theta||
    must lie below tol, else AmbiguousConstant is raised.
    """
    g = curve.genus
    tau = periods.tau
    branch_sum = sum(abel_jacobi(curve, curve.weierstrass_point(i), periods).z
                     for i in range(1, 2 * g, 2))
    _, m, n = tau.reduce(2.0 * branch_sum)
    m, n = np.mod(m, 2.0), np.mod(n, 2.0)
    kappa = (m + tau.entries @ n) / 2.0

    rng = np.random.default_rng(seed)
    Z = np.stack([abel_jacobi_divisor(
        curve, random_effective_divisor(curve, g - 1, rng), periods).z
        for _ in range(n_divisors)]) - kappa
    # Newton residual: an estimate of the distance from the theta divisor,
    # invariant under the quasi-periodic scale of theta
    (vals, grads), _, _ = theta_batch(tau, Z, tol=1e-10, deriv=1)
    residual = float(np.max(np.abs(vals) / np.maximum(
        np.linalg.norm(grads, axis=1), 1e-300)))
    info = {"residual": residual, "m": m.astype(int).tolist(),
            "n": n.astype(int).tolist()}
    if not residual < tol:
        raise AmbiguousConstant(
            "theta(AJ(D) - kappa) does not vanish on W_{g-1}", **info)
    return JacobianLift(kappa, tau), info


def count_conjugate_pairs(curve, divisor):
    """Number of g^1_2 fibers (P + sigma P, branch points counted double)
    contained in the divisor; positive count marks a special divisor."""
    pts = divisor.expanded()
    used = [False] * len(pts)
    pairs = 0
    tol = 1e-8 * curve.span
    for i, p in enumerate(pts):
        if used[i] or p.at_infinity:
            continue
        if curve.is_branch_x(p.x) and abs(p.y) < tol:
            # branch point: needs multiplicity 2
            for j in range(i + 1, len(pts)):
                if not used[j] and not pts[j].at_infinity \
                        and abs(pts[j].x - p.x) < tol:
                    used[i] = used[j] = True
                    pairs += 1
                    break
            continue
        for j in range(i + 1, len(pts)):
            q = pts[j]
            if used[j] or q.at_infinity:
                continue
            if abs(q.x - p.x) < tol and abs(q.y + p.y) < tol * max(
                    1.0, abs(p.y)):
                used[i] = used[j] = True
                pairs += 1
                break
    # infinity is a Weierstrass point: 2*inf is also a fiber
    inf_count = sum(1 for p in pts if p.at_infinity)
    pairs += inf_count // 2
    return pairs


def divisor_is_special(curve, divisor):
    """Hyperelliptic oracle: an effective divisor of degree <= g-1+k is
    special iff it contains a full fiber of the degree-2 map to the line."""
    return count_conjugate_pairs(curve, divisor) > 0


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
