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
from .numeric import numerical_rank, projective_angle, DEFAULT_RANK_TOL
from .theta import theta_batch, second_order_basis, DEFAULT_THETA_TOL
from .geometry import (_as_rm, _on_theta, _theta_scales, kummer_map,
                       canonical_direction, hyperplane_residual,
                       SMOOTHNESS_THRESHOLD, DEFAULT_ON_THETA_TOL)
from .curves import (JacobianLift, Divisor, abel_jacobi,
                     abel_jacobi_divisor, random_curve_point)


@dataclass(frozen=True)
class SecantCertificate:
    """Numerical evidence that r Kummer images span an (r-2)-plane."""

    lifts: tuple
    kummer_matrix_spectrum: np.ndarray
    rank_cert: object                     # RankCertificate, claim <= r-1
    general_position: tuple               # bool per (r-1)-subset
    theta_residuals: tuple
    gauss_angles: tuple                   # pairwise, smooth points only
    gradient_norms: tuple
    outer_product_residual: float
    beta: np.ndarray = field(repr=False, default=None)
    expect_on_theta: bool = True

    @property
    def r(self):
        return len(self.lifts)

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
            "outer_product_residual": float(self.outer_product_residual),
            "passes": bool(self.passes),
        }


@dataclass(frozen=True)
class TrisecantTriple:
    """Three Jacobian lifts whose Kummer images are claimed collinear."""

    a: JacobianLift
    b: JacobianLift
    c: JacobianLift

    source: str = "fay"
    data: dict = field(default_factory=dict, repr=False)

    @property
    def lifts(self):
        return (self.a, self.b, self.c)


def fay_construct(curve, periods, p, q, r, s, tol=1e-10):
    """Fay trisecant from four curve points via literal lift halving.

    a = (z(p)-z(q)-z(r)+z(s))/2 and cyclic relabelings; the pairwise-sum
    identities a+b = z(p)-z(q), a+c = z(p)-z(r) then hold exactly.
    """
    zp, zq, zr, zs = (abel_jacobi(curve, pt, periods, tol)
                      for pt in (p, q, r, s))
    a = (zp - zq - zr + zs) / 2.0
    b = (zp - zq + zr - zs) / 2.0
    c = (zp + zq - zr - zs) / 2.0
    return TrisecantTriple(a=a, b=b, c=c, source="fay",
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
    cert = certify_secant(periods.tau, triple.lifts, expect_on_theta=False,
                          rank_tol=rank_tol)
    return triple, cert


def theta_trisecant_construct(curve, periods, sample, kappa, tol=1e-10):
    """Trisecant through three theta-divisor points from a B3 canonical
    divisor K0 = p+q+r+s+2D.

    a = z(p)+z(s)+z(D)-kappa, b = z(p)+z(r)+z(D)-kappa,
    c = z(p)+z(q)+z(D)-kappa, with q = sigma(p), s = sigma(r).
    """
    if sample.ell != 3:
        raise InvalidInput("theta trisecant needs an ell=3 sample",
                           ell=sample.ell)
    p, q, r, s = sample.labeled_pqrs
    zp, zq, zr, zs = (abel_jacobi(curve, pt, periods, tol)
                      for pt in (p, q, r, s))
    zD = abel_jacobi_divisor(curve, Divisor.of(*sample.double_points),
                             periods, tol)
    a = zp + zs + zD - kappa
    b = zp + zr + zD - kappa
    c = zp + zq + zD - kappa
    return TrisecantTriple(a=a, b=b, c=c, source="theta",
                           data={"sample": sample,
                                 "zetas": (zp, zq, zr, zs)})


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


def _lift_array(lifts, g):
    Z = np.stack([np.asarray(l.z if isinstance(l, JacobianLift) else l,
                             dtype=complex).reshape(-1) for l in lifts])
    if Z.shape[1] != g:
        raise InvalidInput("lift dimension does not match genus",
                           got=Z.shape[1], genus=g)
    return Z


def certify_secant(tau, lifts, expect_on_theta=True,
                   rank_tol=DEFAULT_RANK_TOL, theta_tol=DEFAULT_THETA_TOL,
                   on_theta_tol=DEFAULT_ON_THETA_TOL):
    """Full numerical certificate for an r-secant claim (rank <= r-1).

    Assembles the r x 2^g matrix of Kummer coordinates, its rank
    certificate and all (r-1)-subset general-position checks, per-point
    theta residuals and gradient data, pairwise Gauss angles over smooth
    divisor points, and the outer-product gradient identity residual with
    beta recovered by least squares from the raw coordinate dependency.
    """
    rm = _as_rm(tau)
    if len(lifts) < 3:
        raise InvalidInput("a secant certificate needs at least 3 points",
                           got=len(lifts))
    # every figure is taken at the reduced lifts: a lattice shift scales a
    # point's Kummer row by s^2 and, on the divisor, its gradient by s, so
    # rank, angles and the outer-product identity do not see it, and the
    # gradient norms are on the calibrated scale
    Z, _, _ = rm.reduce(_lift_array(lifts, rm.g))
    r = len(lifts)

    (raw,), _, _ = second_order_basis(rm, Z, tol=theta_tol)  # (r, 2^g)
    rows = raw / np.max(np.abs(raw), axis=1, keepdims=True)
    rank_cert = numerical_rank(rows, tol=rank_tol)
    general = []
    for subset in combinations(range(r), r - 1):
        sub_cert = numerical_rank(rows[list(subset)], tol=rank_tol)
        general.append(sub_cert.decided_rank == r - 1)

    (vals, grads), _, _ = theta_batch(rm, Z, tol=theta_tol, deriv=1)
    members, theta_res = _on_theta(rm, Z, vals, on_theta_tol, theta_tol)
    gnorms = np.linalg.norm(grads, axis=1)
    _, grad_scale = _theta_scales(rm, tol=theta_tol)
    smooth = [i for i in range(r)
              if members[i] and gnorms[i] > SMOOTHNESS_THRESHOLD * grad_scale]
    angles = [projective_angle(grads[i], grads[j])
              for i, j in combinations(smooth, 2)]

    # beta from the raw coordinate dependency row_0 = sum beta_k row_k,
    # then the outer-product gradient identity of the collinearity proof
    beta, *_ = np.linalg.lstsq(raw[1:].T, raw[0], rcond=None)
    outer0 = np.outer(grads[0], grads[0])
    outer_sum = np.einsum("k,kg,kh->gh", beta, grads[1:], grads[1:])
    denom = max(np.linalg.norm(outer0), 1e-300)
    outer_res = float(np.linalg.norm(outer0 - outer_sum) / denom)

    return SecantCertificate(
        lifts=tuple(lifts),
        kummer_matrix_spectrum=rank_cert.singular_values,
        rank_cert=rank_cert,
        general_position=tuple(general),
        theta_residuals=tuple(float(t) for t in theta_res),
        gauss_angles=tuple(angles),
        gradient_norms=tuple(float(n) for n in gnorms),
        outer_product_residual=outer_res,
        beta=beta,
        expect_on_theta=expect_on_theta)


def gunning_construct(curve, periods, ps, qs, tol=1e-10,
                      rank_tol=DEFAULT_RANK_TOL):
    """Gunning (l-1)-secant: l lifts whose Kummer images span an
    (l-2)-plane, from l points p_j and l-2 points q_i.

    a_j = (2 z(p_j) + sum z(q_i) - sum z(p_i)) / 2, halving uniformly on
    the universal cover.
    """
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
    zps = [abel_jacobi(curve, pt, periods, tol) for pt in ps]
    zqs = [abel_jacobi(curve, pt, periods, tol) for pt in qs]
    total = sum(zqs[1:], zqs[0]) - sum(zps[1:], zps[0]) if zqs \
        else -sum(zps[1:], zps[0])
    lifts = [(2.0 * zp + total) / 2.0 for zp in zps]
    cert = certify_secant(periods.tau, lifts, expect_on_theta=False,
                          rank_tol=rank_tol, theta_tol=tol)
    return lifts, cert


def multisecant_from_Bl(curve, periods, sample, kappa, partition,
                        tol=1e-10, rank_tol=DEFAULT_RANK_TOL):
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
    q_idx = [i for i in range(len(simples)) if i not in part]
    zq_sum = None
    for i in q_idx:
        zi = abel_jacobi(curve, simples[i], periods, tol)
        zq_sum = zi if zq_sum is None else zq_sum + zi
    zQ = abel_jacobi_divisor(curve, Divisor.of(*sample.double_points),
                             periods, tol)
    base = zQ - kappa if zq_sum is None else zq_sum + zQ - kappa
    lifts = [abel_jacobi(curve, simples[i], periods, tol) + base
             for i in part]
    cert = certify_secant(periods.tau, lifts, expect_on_theta=True,
                          rank_tol=rank_tol, theta_tol=tol)
    return lifts, cert


def all_partitions(sample):
    """Every admissible p-selection of the 2l-2 simple points."""
    n = len(sample.simple_points)
    return list(combinations(range(n), sample.ell))


def multisecant_sweep(curve, periods, sample, kappa,
                      rank_tol=DEFAULT_RANK_TOL):
    """multisecant_from_Bl over every partition of the sample.

    Returns the certificates in all_partitions order and the distinct
    points among all lifts: a lift within 1e-6 of an earlier one modulo
    the lattice counts once.
    """
    certs = []
    distinct = []
    for part in all_partitions(sample):
        lifts, cert = multisecant_from_Bl(curve, periods, sample, kappa,
                                          part, rank_tol=rank_tol)
        certs.append(cert)
        for lift in lifts:
            if not any(lift.lattice_distance(o) < 1e-6 for o in distinct):
                distinct.append(lift)
    return certs, distinct


def igusa_span_check(gradients, tol=DEFAULT_RANK_TOL):
    """Rank certificate for the projective span of theta gradients.

    For r collinear Kummer points the span has dimension at most
    floor(r/2); the caller compares decided_rank against that bound.
    """
    G = np.stack([np.asarray(g, dtype=complex).reshape(-1)
                  for g in gradients])
    if len(G) < 2:
        raise InvalidInput("need at least 2 gradients")
    norms = np.linalg.norm(G, axis=1, keepdims=True)
    return numerical_rank(G / np.maximum(norms, 1e-300), tol=tol)


def degenerate_trisecant(curve, periods, sample, kappa, tol=1e-10,
                         rank_tol=DEFAULT_RANK_TOL):
    """Tangent line of the Kummer variety from a B2 canonical divisor.

    The ell=3 construction with the fiber r+s collapsed onto a doubled
    Weierstrass point W forces a = b, so the trisecant degenerates into a
    line tangent to the Kummer image at Km(a).  The tangency report
    checks that the merged lifts coincide, that the remaining point stays
    on the line spanned by Km(a) and the tangent direction, and the Gauss
    hyperplane containment of the constructing divisor.
    """
    if sample.ell != 2:
        raise InvalidInput("degenerate trisecant needs an ell=2 sample",
                           ell=sample.ell)
    p, q = sample.simple_points
    W = sample.double_points[0]
    rest = sample.double_points[1:]
    zp = abel_jacobi(curve, p, periods, tol)
    zq = abel_jacobi(curve, q, periods, tol)
    zW = abel_jacobi(curve, W, periods, tol)
    zD = None
    if rest:
        zD = abel_jacobi_divisor(curve, Divisor.of(*rest), periods, tol)
    shift = (zD - kappa) if zD is not None else -kappa

    a = zp + zW + shift            # r = s = W merged
    b = zp + zW + shift
    c = zp + zq + shift
    triple = TrisecantTriple(a=a, b=b, c=c, source="degenerate",
                             data={"sample": sample})

    rm = periods.tau
    merged_dist = a.lattice_distance(b)

    # tangent direction of the Kummer curve: the doubled point moves along
    # the curve with velocity given by its canonical direction, so the
    # tangent is the basis gradient at za contracted with it
    v = canonical_direction(curve, periods, W)
    za = a.z
    (_, basis_grad), _, _ = second_order_basis(rm, za, tol=tol, deriv=1)
    tangent = basis_grad @ v

    ka = kummer_map(rm, a, tol=tol).coords
    kc = kummer_map(rm, c, tol=tol).coords
    rows = np.stack([ka, kc, tangent / np.max(np.abs(tangent))])
    line_cert = numerical_rank(rows, tol=rank_tol)

    (_, grad), _, _ = theta_batch(rm, za, tol=tol, deriv=1)
    containment = []
    for point, _ in sample.k0.terms:
        d = canonical_direction(curve, periods, point)
        containment.append(hyperplane_residual(grad, d))

    report = {
        "merged_lattice_distance": float(merged_dist),
        "line_rank_cert": line_cert,
        "gauss_containment_residuals": [float(x) for x in containment],
    }
    return triple, report
