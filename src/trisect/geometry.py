"""Kummer embedding, Gauss map, theta-divisor membership and Gauss-fiber
combinatorics.

Projective objects (Kummer points, Gauss directions) are returned
max-modulus normalized; all membership and smoothness decisions are
relative, calibrated against sampled points of the theta divisor, because
absolute theta magnitudes vary over many orders with tau.
"""

from dataclasses import dataclass
from math import comb
import functools
import itertools

import numpy as np

from .errors import InvalidInput, NumericalFailure, NotOnTheta
from .numeric import projective_angle
from .curves import Divisor, divisor_is_special
from .theta import RiemannMatrix, theta_batch, second_order_basis

#: Relative |theta| threshold below which a point counts as on the divisor.
ON_THETA_TOL = 1e-8
#: Relative gradient-norm threshold separating smooth from singular points.
SMOOTHNESS_THRESHOLD = 1e-6
#: The per-matrix calibration: its number of theta-divisor points and seed.
_CALIBRATION_POINTS = 12
_CALIBRATION_SEED = 20260823


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
    """Projectivized theta gradient at a smooth divisor point."""

    direction: np.ndarray       # g-vector, unit norm (zero when undefined)
    defined: bool
    gradient_norm: float
    threshold: float

    def angle_to(self, other):
        dir2 = other.direction if isinstance(other, GaussImage) else other
        return projective_angle(self.direction, dir2)


@dataclass(frozen=True)
class GaussFiberEntry:
    """One degree-(g-1) subdivisor of K0 in the fiber of the Gauss map."""

    subdivisor: object          # Divisor, or tuple of (label, l_i) pairs
    multiplicity: int
    special: object             # True/False, or None when undecidable


def _as_rm(tau):
    return tau if isinstance(tau, RiemannMatrix) else RiemannMatrix(tau)


def _as_vector(z, g):
    if hasattr(z, "z"):
        z = z.z
    z = np.asarray(z, dtype=complex).reshape(-1)
    if len(z) != g:
        raise InvalidInput("point dimension does not match genus",
                           got=len(z), genus=g)
    return z


def _reduced(rm, x):
    """The point x reduced modulo the period lattice."""
    return rm.reduce(_as_vector(x, rm.g))[0]


def kummer_map(tau, z):
    """Kummer image: all 2^g second-order theta values, projectively.

    The argument is reduced to the fundamental cell first; since the
    quasi-periodic factor of the 2-theta system is a common scalar, this
    does not move the projective point but avoids overflow far from the
    cell.
    """
    rm = _as_rm(tau)
    (coords,), _, _ = second_order_basis(rm, _reduced(rm, z))
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
    """A point of the theta divisor found by Newton iteration on a line.

    Draws a random base point and complex direction, then solves
    theta(z0 + t d) = 0 for scalar t.  Retries with fresh draws if the
    iteration stalls.
    """
    return _theta_divisor_points(_as_rm(tau), rng, 1)[0]


def _theta_divisor_points(rm, rng, n, max_tries=8):
    """n points (n, g) of the theta divisor: theta_divisor_point n times,
    with every pending Newton iteration in one theta_batch call per step.

    Whether an attempt succeeds depends only on its own draw of z0 and d,
    so attempts are drawn from rng in stream order, only as many as points
    are still missing: the successes in stream order are the points that
    n successive theta_divisor_point calls return, and rng ends in the
    same state.  max_tries consecutive failed attempts raise
    NumericalFailure.
    """
    g = rm.g
    found = []
    failures = 0
    while len(found) < n:
        k = n - len(found)
        Z0 = np.empty((k, g), dtype=complex)
        D = np.empty((k, g), dtype=complex)
        for i in range(k):
            Z0[i] = (rng.standard_normal(g)
                     + 1j * rng.standard_normal(g)) * 0.25
            d = rng.standard_normal(g) + 1j * rng.standard_normal(g)
            D[i] = d / np.linalg.norm(d)
        t = np.full(k, 0.1 + 0.1j)
        live = np.ones(k, dtype=bool)
        converged = np.zeros(k, dtype=bool)
        for _ in range(60):
            live &= np.isfinite(t) & (np.abs(t) <= 4.0)
            idx = np.flatnonzero(live)
            if not len(idx):
                break
            Z = Z0[idx] + t[idx, None] * D[idx]
            (val, grad), _, _ = theta_batch(rm, Z, deriv=1)
            dd = np.einsum("ij,ij->i", grad, D[idx])
            stalled = ~np.isfinite(dd) | (np.abs(dd) < 1e-14)
            live[idx[stalled]] = False
            idx, val, dd = idx[~stalled], val[~stalled], dd[~stalled]
            step = val / dd
            big = np.abs(step) > 0.5
            step[big] *= 0.5 / np.abs(step[big])
            t[idx] -= step
            done = np.abs(step) < 1e-14 * np.maximum(1.0, np.abs(t[idx]))
            converged[idx[done]] = True
            live[idx[done]] = False
        Z = Z0 + t[:, None] * D
        ok = converged.copy()
        if ok.any():
            (val, grad), _, _ = theta_batch(rm, Z[converged], deriv=1)
            ok[converged] = np.abs(val) < 1e-9 * np.linalg.norm(grad, axis=1)
        for z, success in zip(Z, ok):
            if failures >= max_tries:
                break
            if success:
                found.append(z)
                failures = 0
            else:
                failures += 1
        if failures >= max_tries:
            raise NumericalFailure(
                "Newton search for a theta-divisor point failed")
    return np.array(found)


def _theta_scales(rm):
    """Median |theta| near and |grad theta| on the divisor, cached on rm.

    These calibrate all relative membership/smoothness thresholds for this
    Riemann matrix.
    """
    if rm._theta_scales is not None:
        return rm._theta_scales
    rng = np.random.default_rng(_CALIBRATION_SEED)
    pts = _theta_divisor_points(rm, rng, _CALIBRATION_POINTS)
    (_, grads), _, _ = theta_batch(rm, pts, deriv=1)
    grad_scale = float(np.median(np.linalg.norm(grads, axis=1)))
    probes = pts + 0.2 * (rng.standard_normal(pts.shape)
                          + 1j * rng.standard_normal(pts.shape))
    (vals,), _, _ = theta_batch(rm, probes)
    val_scale = float(np.median(np.abs(vals)))
    scales = (val_scale, grad_scale)
    rm._theta_scales = scales
    return scales


def on_theta(tau, x):
    """Theta-divisor membership with an explicit relative residual.

    The scale is the larger of the median |theta| over generic probes and
    the local probe values around x, so the test is meaningful both near
    and far from the fundamental cell.
    """
    rm = _as_rm(tau)
    vec = _reduced(rm, x)
    (val,), _, _ = theta_batch(rm, vec)
    members, residuals = _on_theta(rm, vec[None], val[None])
    return bool(members[0]), float(residuals[0])


@functools.lru_cache(maxsize=None)
def _probe_offsets(g):
    """The six probe offsets of _on_theta at genus g, drawn once."""
    rng = np.random.default_rng(7)
    offsets = 0.2 * (rng.standard_normal((6, g))
                     + 1j * rng.standard_normal((6, g)))
    offsets.setflags(write=False)
    return offsets


def _on_theta(rm, vecs, vals):
    """on_theta at reduced points vecs (N, g) with theta values vals (N,):
    (members, residuals), from one probe call at the same six offsets
    around every point."""
    val_scale, _ = _theta_scales(rm)
    probes = (vecs[:, None, :] + _probe_offsets(rm.g)).reshape(-1, rm.g)
    (pvals,), _, _ = theta_batch(rm, probes)
    scales = np.maximum(val_scale,
                        np.max(np.abs(pvals).reshape(len(vecs), 6), axis=1))
    residuals = np.abs(vals) / scales
    return residuals < ON_THETA_TOL, residuals


def gauss_map(tau, x):
    """Projectivized theta gradient at a point of the theta divisor.

    ``defined`` is False at singular points, decided by a relative
    gradient-norm threshold calibrated on sampled smooth divisor points.
    """
    rm = _as_rm(tau)
    vec = _reduced(rm, x)
    jet, _, _ = theta_batch(rm, vec, deriv=1)
    return _gauss_map(rm, vec, jet)


def _gauss_map(rm, vec, jet):
    """gauss_map at a reduced point vec with its theta jet (value,
    gradient, ...)."""
    val, grad = jet[:2]
    members, residuals = _on_theta(rm, vec[None], val[None])
    if not members[0]:
        raise NotOnTheta("point is not on the theta divisor",
                         residual=float(residuals[0]))
    gnorm = float(np.linalg.norm(grad))
    _, grad_scale = _theta_scales(rm)
    threshold = SMOOTHNESS_THRESHOLD * grad_scale
    if gnorm <= threshold:
        return GaussImage(direction=np.zeros(rm.g, dtype=complex),
                          defined=False, gradient_norm=gnorm,
                          threshold=threshold)
    direction = grad / gnorm
    direction.setflags(write=False)
    return GaussImage(direction=direction, defined=True,
                      gradient_norm=gnorm, threshold=threshold)


def vanishing_order(tau, x):
    """Order of vanishing of theta at x: 1, 2, or 3 meaning ">= 3".

    Orders above 2 are not resolved (third derivatives are out of scope);
    the return value 3 only asserts that value, gradient and Hessian are
    all below their relative thresholds.
    """
    rm = _as_rm(tau)
    vec = _reduced(rm, x)
    jet, _, _ = theta_batch(rm, vec, deriv=2)
    if _gauss_map(rm, vec, jet).defined:
        return 1
    hess = jet[2]
    _, grad_scale = _theta_scales(rm)
    # a nonzero Hessian on the scale of the generic gradient marks order 2
    if np.linalg.norm(hess) > SMOOTHNESS_THRESHOLD * grad_scale:
        return 2
    return 3


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


def _multiplicity_vector(k0):
    """(labels, n_i) from a Divisor or a bare sequence of multiplicities."""
    if hasattr(k0, "terms"):
        labels = [p for p, _ in k0.terms]
        mults = [m for _, m in k0.terms]
    else:
        labels = list(range(len(k0)))
        mults = [int(n) for n in k0]
    if any(n <= 0 for n in mults):
        raise InvalidInput("multiplicities must be positive")
    return labels, mults


def gauss_fiber_enumerate(k0, genus, curve=None):
    """All degree-(g-1) subdivisors of K0 with their fiber multiplicities.

    For K0 with multiplicity vector (n_1, ..., n_k) the entries are the
    integer vectors 0 <= l_i <= n_i with sum l_i = g-1, each weighted by
    prod C(n_i, l_i).  Specialness of an entry comes from the
    conjugate-pair oracle when the curve is supplied, and is left
    undecided for purely symbolic input.
    """
    labels, mults = _multiplicity_vector(k0)
    if sum(mults) != 2 * genus - 2:
        raise InvalidInput("K0 must have canonical degree 2g-2",
                           degree=sum(mults), genus=genus)
    target = genus - 1
    entries = []
    for lvec in itertools.product(*[range(n + 1) for n in mults]):
        if sum(lvec) != target:
            continue
        mult = 1
        for n, l in zip(mults, lvec):
            mult *= comb(n, l)
        sub = tuple((lab, l) for lab, l in zip(labels, lvec) if l > 0)
        special = None
        if curve is not None and hasattr(k0, "terms"):
            sub = Divisor.of(*sub)
            special = divisor_is_special(curve, sub)
        entries.append(GaussFiberEntry(subdivisor=sub, multiplicity=mult,
                                       special=special))
    return entries


def fiber_total_multiplicity(entries):
    """Sum of the multiplicities; equals C(2g-2, g-1) for every K0."""
    return sum(e.multiplicity for e in entries)
