"""Construction and certification of trisecants and multisecants of the
Kummer variety.

All constructions work on lifts in C^g under one fixed path system, so
half-points are literal divisions by two and the linear compatibility
identities hold exactly on lifts; only the geometric claims (rank drops,
divisor membership, Gauss-map constancy) carry numerical residuals, which
are collected into auditable certificates.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import InvalidInput
from .numeric import (numerical_rank, projective_angle, _decided_ranks,
                      DEFAULT_RANK_TOL)
from .theta import (second_order_basis, _as_rm, _judged, _norms,
                    ON_THETA_TOL, SMOOTHNESS_THRESHOLD)
from .curves import (JacobianLift, Divisor, _abel_jacobi_points,
                     _divisor_lifts, random_curve_point)
from .geometry import _as_points

#: Largest halving residual of a theta trisecant that is accepted.
HALVING_TOL = 1e-7


@dataclass(frozen=True)
class SecantCertificate:
    """Numerical evidence that r Kummer images span an (r-2)-plane."""

    lifts: tuple
    rank_cert: object                     # RankCertificate, claim <= r-1
    general_position: tuple               # bool per (r-1)-subset
    theta_residuals: tuple
    gauss_angles: tuple                   # pairwise, smooth points only
    gradient_norms: tuple
    gradient_thresholds: tuple            # SMOOTHNESS_THRESHOLD A_1 per lift
    smooth: tuple                         # bool per lift: on Theta, smooth
    outer_product_residual: object        # float, or None: no identity
    # (r, g) theta gradients at the reduced lifts; not printed
    gradients: np.ndarray = field(repr=False, compare=False)

    @property
    def r(self):
        return len(self.lifts)

    @property
    def on_theta(self):
        """Every lift lies on the theta divisor."""
        return all(t < ON_THETA_TOL for t in self.theta_residuals)

    @property
    def passes(self):
        return (self.rank_cert.decided_rank <= self.r - 1
                and all(self.general_position))

    def to_dict(self):
        return {
            "rank": self.rank_cert.to_dict(),
            "general_position": [bool(b) for b in self.general_position],
            "theta_residuals": [float(t) for t in self.theta_residuals],
            "gauss_angles": [float(a) for a in self.gauss_angles],
            "gradient_norms": [float(n) for n in self.gradient_norms],
            "gradient_thresholds": list(self.gradient_thresholds),
            "smooth": [bool(s) for s in self.smooth],
            "outer_product_residual": (
                None if self.outer_product_residual is None
                else float(self.outer_product_residual)),
            "passes": bool(self.passes),
        }


@dataclass(frozen=True)
class TrisecantTriple:
    """Three Jacobian lifts whose Kummer images are claimed collinear."""

    a: JacobianLift
    b: JacobianLift
    c: JacobianLift

    data: dict = field(default_factory=dict, repr=False)

    @property
    def lifts(self):
        return (self.a, self.b, self.c)


def fay_construct(curve, periods, p, q, r, s):
    """Fay trisecant from four distinct curve points: the l = 3 Gunning
    secant with p-points (s, r, q) and q-point p.

    a = (z(p)-z(q)-z(r)+z(s))/2 and cyclic relabelings; the pairwise-sum
    identities a+b = z(p)-z(q), a+c = z(p)-z(r) then hold exactly.
    """
    return TrisecantTriple(*_gunning_lifts(curve, periods, (s, r, q), (p,)),
                           data={"points": (p, q, r, s)})


def fay_trisecant(curve, periods, rng, rank_tol=DEFAULT_RANK_TOL):
    """The Fay trisecant of four random curve points with distinct x and
    its certificate (off the theta divisor).  Returns (triple, cert)."""
    pts = []
    while len(pts) < 4:
        pt = random_curve_point(curve, rng)
        if all(abs(pt.x - other.x) > 1e-6 for other in pts):
            pts.append(pt)
    triple = fay_construct(curve, periods, *pts)
    cert = certify_secant(periods.tau, triple.lifts, rank_tol=rank_tol)
    return triple, cert


def theta_trisecant_construct(curve, periods, sample, kappa):
    """Trisecant through three theta-divisor points from a B3 canonical
    divisor K0 = p+q+r+s+2D: the l = 3 multisecant of partition (1, 2, 3).

    a = z(p)+z(s)+z(D)-kappa, b = z(p)+z(r)+z(D)-kappa,
    c = z(p)+z(q)+z(D)-kappa, with q = sigma(p), s = sigma(r).
    """
    if sample.ell != 3:
        raise InvalidInput("theta trisecant needs an ell=3 sample",
                           ell=sample.ell)
    zs, zQ = _sample_lifts(curve, periods, sample)
    c, b, a = _multisecant_lifts(periods, kappa, zs, zQ, (1, 2, 3))
    return TrisecantTriple(a=a, b=b, c=c, data={
        "sample": sample,
        "zetas": tuple(JacobianLift(z, periods.tau) for z in zs)})


def theta_trisecant(curve, periods, sample, kappa,
                    rank_tol=DEFAULT_RANK_TOL):
    """The theta-divisor trisecant of a B3 sample, its certificate and its
    halving residual: the lattice distance of 2a from z(p)-z(q)-z(r)+z(s),
    which is AJ(K0) - 2 kappa and so vanishes modulo the lattice.

    Returns (triple, cert, halving residual).
    """
    triple = theta_trisecant_construct(curve, periods, sample, kappa)
    cert = certify_secant(periods.tau, triple.lifts, rank_tol=rank_tol)
    zp, zq, zr, zs = triple.data["zetas"]
    halving = (2.0 * triple.a - (zp - zq - zr + zs)).lattice_distance()
    return triple, cert, halving


def certify_secant(tau, lifts, rank_tol=DEFAULT_RANK_TOL):
    """Full numerical certificate for an r-secant claim (rank <= r-1).

    Assembles the r x 2^g matrix of Kummer coordinates, its rank
    certificate and all (r-1)-subset general-position checks, per-point
    theta residuals and gradient data, pairwise Gauss angles over smooth
    divisor points, and the outer-product gradient identity residual with
    beta recovered by least squares from the raw coordinate dependency.
    The identity holds only when every lift lies on the theta divisor; it
    is taken at the first smooth lift, and the residual is None when some
    lift is off the divisor or none is smooth.
    """
    rm = _as_rm(tau)
    if len(lifts) < 3:
        raise InvalidInput("a secant certificate needs at least 3 points",
                           got=len(lifts))
    # every figure is taken at the reduced lifts: a lattice shift scales a
    # point's Kummer row by s^2 and, on the divisor, its gradient by s, so
    # rank, angles and the outer-product identity do not see it, and the
    # gradient norms are those of the fundamental cell
    Z, _, _ = rm.reduce(_as_points(lifts, rm.g))
    r = len(lifts)

    (raw,), _, _ = second_order_basis(rm, Z)  # (r, 2^g)
    rows = raw / abs(raw).max(axis=1, keepdims=True)
    rank_cert = numerical_rank(rows, tol=rank_tol)  # checks rows and tol
    # the (r-1)-subsets' spectra, by one stacked SVD
    spectra = np.linalg.svd(rows[list(combinations(range(r), r - 1))],
                            compute_uv=False)
    general = _decided_ranks(spectra, rank_tol) == r - 1

    (_, grads), (_, a_1), theta_res, smooth_flags = _judged(rm, Z, 1)
    members = theta_res < ON_THETA_TOL
    gnorms = _norms(grads)
    smooth = list(np.flatnonzero(smooth_flags))
    angles = [projective_angle(grads[i], grads[j])
              for i, j in combinations(smooth, 2)]

    # beta from the raw coordinate dependency row_j = sum beta_k row_k at
    # the first smooth lift j, then the outer-product gradient identity of
    # the collinearity proof
    outer_res = None
    if smooth and all(members):
        j, others = smooth[0], [k for k in range(r) if k != smooth[0]]
        beta, *_ = np.linalg.lstsq(raw[others].T, raw[j], rcond=None)
        outer_j = np.outer(grads[j], grads[j])
        outer_sum = np.einsum("k,kg,kh->gh", beta, grads[others],
                              grads[others])
        outer_res = float(np.linalg.norm(outer_j - outer_sum)
                          / max(np.linalg.norm(outer_j), 1e-300))

    return SecantCertificate(
        lifts=tuple(lifts),
        rank_cert=rank_cert,
        general_position=tuple(general.tolist()),
        theta_residuals=tuple(float(t) for t in theta_res),
        gauss_angles=tuple(angles),
        gradient_norms=tuple(float(n) for n in gnorms),
        gradient_thresholds=tuple((SMOOTHNESS_THRESHOLD * a_1).tolist()),
        smooth=tuple(bool(s) for s in smooth_flags),
        outer_product_residual=outer_res,
        gradients=grads)


def gunning_construct(curve, periods, ps, qs, rank_tol=DEFAULT_RANK_TOL):
    """Gunning (l-1)-secant: l lifts whose Kummer images span an
    (l-2)-plane, from l points p_j and l-2 points q_i.

    a_j = (2 z(p_j) + sum z(q_i) - sum z(p_i)) / 2, halving uniformly on
    the universal cover.
    """
    lifts = _gunning_lifts(curve, periods, ps, qs)
    return lifts, certify_secant(periods.tau, lifts, rank_tol=rank_tol)


def _gunning_lifts(curve, periods, ps, qs):
    """The lifts of gunning_construct, in p-point order."""
    ell = len(ps)
    if ell < 3:
        raise InvalidInput("need at least 3 p-points", got=ell)
    if len(qs) != ell - 2:
        raise InvalidInput("need exactly l-2 q-points",
                           got=len(qs), expected=ell - 2)
    seen = [pt for pt in (*ps, *qs)]
    for i, u in enumerate(seen):
        for v in seen[i + 1:]:
            if not u.at_infinity and not v.at_infinity \
                    and abs(u.x - v.x) < 1e-12 and abs(u.y - v.y) < 1e-12:
                raise InvalidInput("construction points must be distinct")
    zs = [JacobianLift(z, periods.tau) for z in
          _abel_jacobi_points(curve, (*ps, *qs), periods)]
    zps, zqs = zs[:ell], zs[ell:]
    total = sum(zqs[1:], zqs[0]) - sum(zps[1:], zps[0]) if zqs \
        else -sum(zps[1:], zps[0])
    return [(2.0 * zp + total) / 2.0 for zp in zps]


def multisecant_from_Bl(curve, periods, sample, kappa, partition,
                        rank_tol=DEFAULT_RANK_TOL):
    """Theta-divisor (l-1)-secant from a B_l canonical divisor and a
    labeled partition of its 2l-2 simple points into l p's and l-2 q's.

    a_j = z(p_j) + sum z(q_i) + sum z(Q) - kappa, Q the doubled part.
    """
    ell = sample.ell
    simples = sample.simple_points
    part = tuple(sorted(int(i) for i in partition))
    if len(part) != ell or len(set(part)) != ell \
            or any(not 0 <= i < len(simples) for i in part):
        raise InvalidInput("partition must select l distinct simple points",
                           partition=partition, ell=ell)
    zs, zQ = _sample_lifts(curve, periods, sample)
    return _multisecant(periods, kappa, zs, zQ, part, rank_tol)


def _sample_lifts(curve, periods, sample):
    """Lifts of a B_l sample's simple points (2l-2, g) and of its doubled
    part (g,), from one batched quadrature."""
    divisors = [Divisor.of(pt) for pt in sample.simple_points]
    divisors.append(Divisor.of(*sample.double_points))
    lifts = _divisor_lifts(curve, divisors, periods)
    return lifts[:-1], lifts[-1]


def _multisecant(periods, kappa, zs, zQ, part, rank_tol):
    """multisecant_from_Bl from the lifts zs of the simple points and zQ
    of the doubled part."""
    lifts = _multisecant_lifts(periods, kappa, zs, zQ, part)
    return lifts, certify_secant(periods.tau, lifts, rank_tol=rank_tol)


def _multisecant_lifts(periods, kappa, zs, zQ, part):
    """The lifts of _multisecant, in partition order."""
    q_idx = [i for i in range(len(zs)) if i not in part]
    base = JacobianLift(sum(zs[q_idx]) + zQ, periods.tau) - kappa
    return [base + zs[i] for i in part]


def all_partitions(sample):
    """Every admissible p-selection of the 2l-2 simple points."""
    n = len(sample.simple_points)
    return list(combinations(range(n), sample.ell))


def multisecant_sweep(curve, periods, sample, kappa,
                      rank_tol=DEFAULT_RANK_TOL):
    """multisecant_from_Bl over every partition of the sample.

    Returns the certificates in all_partitions order and the distinct
    points among all lifts: a lift within 1e-6 of an earlier one modulo
    the lattice counts once.  Each lift is compared with all distinct
    points by one reduction of its differences from them, stacked, and
    the norms of the residuals, as JacobianLift.lattice_distance takes.
    """
    zs, zQ = _sample_lifts(curve, periods, sample)
    certs = []
    distinct = []
    points = np.empty((0, periods.tau.g), dtype=complex)
    for part in all_partitions(sample):
        lifts, cert = _multisecant(periods, kappa, zs, zQ, part, rank_tol)
        certs.append(cert)
        for lift in lifts:
            residuals, _, _ = periods.tau.reduce(lift.z - points)
            if not (_norms(residuals) < 1e-6).any():
                distinct.append(lift)
                points = np.concatenate((points, lift.z[None]))
    return certs, distinct


def igusa_span_check(gradients):
    """Rank certificate for the projective span of theta gradients.

    For r collinear Kummer points the span has dimension at most
    floor(r/2); the caller compares decided_rank against that bound.
    """
    G = np.stack([np.asarray(g, dtype=complex).reshape(-1)
                  for g in gradients])
    if len(G) < 2:
        raise InvalidInput("need at least 2 gradients")
    norms = np.linalg.norm(G, axis=1, keepdims=True)
    return numerical_rank(G / np.maximum(norms, 1e-300))

