"""Kummer embedding, Gauss map, theta-divisor membership and Gauss-fiber
combinatorics.

Projective objects (Kummer points, Gauss directions) are returned
max-modulus normalized.  Membership and smoothness are theta._judged's
verdicts against the series' absolute sums.
"""

from dataclasses import dataclass
import itertools
import math

import numpy as np

from .errors import InvalidInput, NumericalFailure, NotOnTheta
from .numeric import _norm, projective_angle
from .theta import (theta_batch, second_order_basis, _as_complex, _as_rm,
                    _judged, ON_THETA_TOL, SMOOTHNESS_THRESHOLD)

#: consecutive failed attempts after which theta_divisor_point gives up.
MAX_ATTEMPTS = 8
#: float64 unit roundoff u: Fourier coefficients below u relative are rounding.
_ROUNDING = 2.0 ** -53
#: Newton steps allowed to the polish of a line's root.
_POLISH_CALLS = 4
#: Largest genus gauss_fiber_enumerate takes: C(2g-2, g-1) = 48,620 at g = 10
#: bounds both the number of its entries and each multiplicity.
MAX_FIBER_GENUS = 10


@dataclass(frozen=True)
class KummerPoint:
    """Image of a Jacobian point under the 2-theta (Kummer) embedding."""

    coords: np.ndarray          # 2^g values, max-modulus coordinate = 1
    raw_scale: float            # modulus of the normalizing coordinate

    @property
    def g(self):
        return int(np.log2(len(self.coords)))

    def angle_to(self, other):
        return projective_angle(self.coords, other.coords)


@dataclass(frozen=True)
class GaussImage:
    """Projectivized theta gradient at a point of the divisor, ``defined``
    when gradient_norm > threshold = SMOOTHNESS_THRESHOLD A_1 there."""

    direction: np.ndarray       # g-vector, unit norm (zero when undefined)
    defined: bool
    gradient_norm: float
    threshold: float

    def angle_to(self, other):
        dir2 = other.direction if isinstance(other, GaussImage) else other
        return projective_angle(self.direction, dir2)


def _as_points(points, g):
    """The points, each a lift (its .z) or g numbers, as one (N, g) complex
    array.  A point of another length, or with an entry that is not a
    number, is refused with InvalidInput."""
    rows = []
    for k, z in enumerate(points):
        z = _as_complex(getattr(z, "z", z)).reshape(-1)
        if len(z) != g:
            raise InvalidInput("point dimension does not match genus",
                               point=k, got=len(z), genus=g)
        rows.append(z)
    return np.array(rows, dtype=complex).reshape(len(rows), g)


def _reduced(rm, x):
    """The point x reduced modulo the period lattice, as one row (1, g)."""
    return rm.reduce(_as_points([x], rm.g))[0]


def kummer_map(tau, z):
    """Kummer image: all 2^g second-order theta values, projectively.

    The argument is reduced to the fundamental cell first; since the
    quasi-periodic factor of the 2-theta system is a common scalar, this
    does not move the projective point but avoids overflow far from the
    cell.
    """
    rm = _as_rm(tau)
    (coords,), _, _ = second_order_basis(rm, _reduced(rm, z)[0])
    scale = float(np.max(np.abs(coords)))
    if scale < 1e-13:
        raise NumericalFailure(
            "all second-order theta coordinates vanish; tau is broken",
            scale=scale)
    pivot = int(np.argmax(np.abs(coords)))
    coords = coords / coords[pivot]
    coords.setflags(write=False)
    return KummerPoint(coords=coords, raw_scale=scale)


def theta_divisor_point(tau, rng):
    """A point of the theta divisor, a root of theta on a coordinate line.

    An attempt draws z0 and an axis j (_draw_line), takes the root s of the
    line's Fourier model with the least |Im s| (_line_root) and polishes it
    by Newton's method, one deriv-1 theta_batch call a step.  It returns
    the point of the call whose step is below 1e-14 max(1, |s|) if there
    |theta| < 1e-9 ||grad theta||.  MAX_ATTEMPTS consecutive failed
    attempts, one draw each, raise NumericalFailure.
    """
    rm = _as_rm(tau)
    for _ in range(MAX_ATTEMPTS):
        z0, j = _draw_line(rng, rm.g)
        z, s = z0.copy(), _line_root(rm, z0, j)
        for _ in range(0 if s is None else _POLISH_CALLS):
            z[j] = z0[j] + s
            (val, grad), _, _ = theta_batch(rm, z, deriv=1)
            step = val / grad[j]
            if abs(step) < 1e-14 * max(1.0, abs(s)):
                if abs(val) < 1e-9 * _norm(grad):
                    return z
                break
            s -= step
            if not abs(s.imag) <= 1.0:
                break
    raise NumericalFailure("no theta-divisor point on %d consecutive lines"
                           % MAX_ATTEMPTS)


def _draw_line(rng, g):
    """An attempt's draw: a base point z0 near the origin and an axis j."""
    z0 = (rng.standard_normal(g) + 1j * rng.standard_normal(g)) * 0.25
    return z0, int(rng.integers(g))


def _line_fourier(rm, z0, j):
    """Coefficients P_m, m = -h..h, of theta(z0 + s e_j) = sum_m P_m
    e^{2 pi i m s}, the FFT of one theta_batch call at s = k / N, N = 2h + 1.

    e_j is a period, and the terms of P_m are those with n_j = m: with
    Y = Im tau they are at most e^{pi c^T Y c - pi (m - c_j)^2 / (Y^-1)_jj}
    in modulus, c = -Y^-1 Im z0.  So h = |c_j| + sqrt((Y^-1)_jj ln(1/u) / pi),
    rounded up, leaves the coefficients that alias onto |m| <= h below
    _ROUNDING u relative to the largest.
    """
    y_inv = rm._imag_inv
    h = math.ceil(abs(y_inv[j] @ z0.imag)
                  + math.sqrt(-y_inv[j, j] * math.log(_ROUNDING) / math.pi))
    n = 2 * h + 1
    Z = z0[None].repeat(n, axis=0)
    Z[:, j] += np.arange(n) / n
    (values,), _, _ = theta_batch(rm, Z)
    coeffs = np.fft.fft(values)  # P_0..P_h, then P_-h..P_-1
    return np.concatenate((coeffs[h + 1:], coeffs[:h + 1])) / n


def _line_root(rm, z0, j):
    """The root s of the Fourier model of theta(z0 + s e_j) with the least
    |Im s|, None if that is above 1: the Laurent polynomial in e^{2 pi i s},
    its end coefficients below _ROUNDING of the largest trimmed, solved as
    np.roots solves it, by the eigenvalues of its companion matrix."""
    coeffs = _line_fourier(rm, z0, j)
    moduli = abs(coeffs)
    kept = (moduli > _ROUNDING * np.maximum.reduce(moduli)).nonzero()[0]
    p = coeffs[kept[0]:kept[-1] + 1][::-1]  # highest power first
    if len(p) < 2:
        return None
    companion = np.eye(len(p) - 1, k=-1, dtype=complex)
    companion[0] = -p[1:] / p[0]
    s = np.log(np.linalg.eigvals(companion)) / (2j * np.pi)
    s = s[abs(s.imag) <= 1.0]
    return complex(s[abs(s.imag).argmin()]) if len(s) else None


def on_theta(tau, x):
    """Theta-divisor membership and its residual |theta(x)| / A_0(x), the
    same at every lattice translate of x; not a proven distance to the divisor.
    """
    rm = _as_rm(tau)
    _, _, (residual,), _ = _judged(rm, _as_points([x], rm.g), 0)
    return bool(residual < ON_THETA_TOL), float(residual)


def gauss_map(tau, x):
    """Projectivized theta gradient at x reduced to the fundamental cell;
    not ``defined`` at singular points, where ||grad theta|| is rounding
    (<= SMOOTHNESS_THRESHOLD A_1).  Raises NotOnTheta off the divisor."""
    rm = _as_rm(tau)
    return _gauss_image(*_judged(rm, _reduced(rm, x), 1))


def _gauss_image(jet, sums, residuals, smooth):
    """gauss_map from the one-point output of _judged."""
    if not residuals[0] < ON_THETA_TOL:
        raise NotOnTheta("point is not on the theta divisor",
                         residual=float(residuals[0]))
    grad = jet[1][0]
    gnorm = _norm(grad)
    defined = bool(smooth[0])
    direction = grad / gnorm if defined else np.zeros_like(grad)
    direction.setflags(write=False)
    return GaussImage(direction=direction, defined=defined,
                      gradient_norm=gnorm,
                      threshold=SMOOTHNESS_THRESHOLD * float(sums[1][0]))


def vanishing_order(tau, x):
    """Order of vanishing of theta at x: 1, 2, or 3 meaning ">= 3".

    Orders above 2 are not resolved (third derivatives are out of scope);
    the return value 3 only asserts that gradient and Hessian are both
    rounding: a singular point with ||H|| <= SMOOTHNESS_THRESHOLD A_2.
    """
    rm = _as_rm(tau)
    judged = _judged(rm, _reduced(rm, x), 2)
    if _gauss_image(*judged).defined:
        return 1
    (_, _, hess), (_, _, a_2), _, _ = judged
    return 2 if np.linalg.norm(hess[0]) > SMOOTHNESS_THRESHOLD * a_2[0] else 3


def canonical_direction(curve, periods, point):
    """Canonical-embedding image of a curve point, in normalized coordinates.

    Projectively this is (omega_1 : ... : omega_g) evaluated at the point;
    the common 1/y factor drops out, and the point at infinity maps to the
    image of the highest monomial.
    """
    g = curve.genus
    if point.at_infinity:
        mono = np.zeros(g)
        mono[g - 1] = 1.0
    else:
        mono = np.array([point.x ** k for k in range(g)], dtype=complex)
    direction = periods.normalization @ mono
    n = np.linalg.norm(direction)
    if n == 0.0:
        raise NumericalFailure("canonical direction degenerated")
    return direction / n


def hyperplane_residual(gradient, direction):
    """Relative bilinear pairing |<grad, v>| / (|grad| |v|).

    Zero iff the canonical point lies on the hyperplane cut out by the
    gradient; the pairing is bilinear (no conjugation), matching the
    tangent-hyperplane condition.
    """
    gradient = np.asarray(gradient, dtype=complex).reshape(-1)
    direction = np.asarray(direction, dtype=complex).reshape(-1)
    num = abs(np.sum(gradient * direction))
    den = np.linalg.norm(gradient) * np.linalg.norm(direction)
    if den == 0.0:
        raise InvalidInput("zero vector in hyperplane pairing")
    return float(num / den)


def gauss_fiber_enumerate(mults, genus):
    """The Gauss fiber over the hyperplane of K0 = sum n_i P_i: every
    degree-(g-1) subdivisor sum l_i P_i, 0 <= l_i <= n_i, with its
    multiplicity prod C(n_i, l_i), as (l, multiplicity) pairs in
    lexicographic order of l.

    Each l_i runs only over the values that the later n_j can complete to
    degree g-1, so each of the k steps builds at most as many prefixes as
    there are entries.  genus is at most MAX_FIBER_GENUS.
    """
    if genus > MAX_FIBER_GENUS:
        raise InvalidInput("fiber genus is at most %d" % MAX_FIBER_GENUS,
                           genus=genus)
    if any(n <= 0 for n in mults):
        raise InvalidInput("multiplicities must be positive")
    if sum(mults) != 2 * genus - 2:
        raise InvalidInput("K0 must have canonical degree 2g-2",
                           degree=sum(mults), genus=genus)
    # (l so far, its multiplicity, degree still to place)
    fiber = [((), 1, genus - 1)]
    # rest: the degree of the n_j after n_i
    for n, rest in zip(mults, [2 * genus - 2 - s
                               for s in itertools.accumulate(mults)]):
        fiber = [(l + (j,), m * math.comb(n, j), left - j)
                 for l, m, left in fiber
                 for j in range(max(0, left - rest), min(n, left) + 1)]
    return [(l, m) for l, m, _ in fiber]
