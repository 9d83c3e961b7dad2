"""Sections of twice the theta divisor in the second-order theta basis,
and the subspace with vanishing order four at the origin.

A section is a 2^g coefficient vector; since every basis function is even,
order-4 vanishing at 0 reduces to 1 + g(g+1)/2 linear conditions (the
value and the upper Hessian).  Everything downstream is finite-dimensional
linear algebra with shared rank-tolerance policy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, IndeterminateRank, PreconditionFailed
from .numeric import numerical_rank, projective_angle, DEFAULT_RANK_TOL
from .theta import theta_batch, second_order_basis, _as_rm, _norms
from .geometry import (_as_points, theta_divisor_point,
                       gauss_fiber_enumerate)
from .curves import Divisor, divisor_is_special, _divisor_lifts

#: Largest projective angle between the Gauss images of two points that
#: gamma00_combination accepts as one Gauss fiber.
GAUSS_FIBER_ANGLE = 1e-6


@dataclass(frozen=True)
class SectionCoefficients:
    """A section of the second-order system as a 2^g coefficient vector."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        if np.all(c == 0):
            raise InvalidInput("section coefficients are identically zero")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _computed(cls, coeffs):
        """A section computed from others, which may cancel exactly: the
        pair x, -x gives s_x - s_{-x} = 0.  Only a section given as input
        is refused when zero."""
        section = object.__new__(cls)
        c = np.array(coeffs, dtype=complex).reshape(-1)
        c.setflags(write=False)
        object.__setattr__(section, "coeffs", c)
        return section


@dataclass(frozen=True)
class TaylorConditions:
    """Value at 0 followed by the upper-triangular Hessian entries at 0."""

    values: np.ndarray
    relative_residual: float


def _condition_data(rm):
    """The (1 + g(g+1)/2) x 2^g matrix of order-4 vanishing conditions.

    Row 0: basis values at the origin; remaining rows: upper Hessian
    entries.  Cached on the Riemann matrix together with a row-normalized
    copy used for all rank and residual decisions.
    """
    if rm._gamma00_conditions is not None:
        return rm._gamma00_conditions
    g = rm.g
    origin = np.zeros(g, dtype=complex)
    # values (2^g,) and Hessians (2^g, g, g) from one pass
    (values, _, hess), _, _ = second_order_basis(rm, origin, deriv=2)
    rows = [values]
    for i in range(g):
        for j in range(i, g):
            rows.append(hess[:, i, j])
    matrix = np.stack(rows)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    normalized = matrix / np.maximum(norms, 1e-300)
    data = (matrix, normalized)
    rm._gamma00_conditions = data
    return data


def taylor_conditions(tau, section):
    """Order-4 vanishing conditions applied to a section.

    ``relative_residual`` uses row-normalized conditions and a normalized
    coefficient vector, so it is comparable across sections and tau.
    """
    rm = _as_rm(tau)
    matrix, normalized = _condition_data(rm)
    coeffs = section.coeffs if isinstance(section, SectionCoefficients) \
        else np.asarray(section, dtype=complex).reshape(-1)
    values = matrix @ coeffs
    rel = float(np.max(np.abs(normalized @ coeffs))
                / max(np.linalg.norm(coeffs), 1e-300))
    return TaylorConditions(values=values, relative_residual=rel)


def expected_gamma00_dimension(g):
    """2^g - g(g+1)/2 - 1: the order-4 space when its 1 + g(g+1)/2
    conditions are independent."""
    return 2 ** g - g * (g + 1) // 2 - 1


def gamma00_dimension(tau, rank_tol=DEFAULT_RANK_TOL):
    """Dimension of the order-4 subspace as the nullity of the condition
    matrix, with a nullspace basis and the rank certificate.

    A singular-value ratio inside [rank_tol, 10 rank_tol] is treated as
    undecidable and raises IndeterminateRank rather than guessing.
    """
    rm = _as_rm(tau)
    _, normalized = _condition_data(rm)
    cert = numerical_rank(normalized, tol=rank_tol)
    ratios = cert.singular_values / cert.singular_values[0]
    borderline = (ratios >= rank_tol) & (ratios <= 10.0 * rank_tol)
    if np.any(borderline):
        raise IndeterminateRank("singular values inside the undecidable band",
                                ratios=[float(r) for r in ratios[borderline]])
    _, _, vh = np.linalg.svd(normalized)
    nullspace = vh[cert.decided_rank:].conj().T        # (2^g, nullity)
    dimension = 2 ** rm.g - cert.decided_rank
    return dimension, nullspace, cert


def gamma00_combination(tau, x1, x2):
    """The order-4 combination s_{x1} - lambda s_{x2} for two smooth
    divisor points in one Gauss fiber, with lambda the squared gradient
    ratio.  Gauss images more than GAUSS_FIBER_ANGLE apart raise
    PreconditionFailed.

    Returns (section, lambda, gamma, conditions).
    """
    rm = _as_rm(tau)
    X = _as_points((x1, x2), rm.g)
    (_, grads), _, _ = theta_batch(rm, X, deriv=1)
    (sections,), _, _ = second_order_basis(rm, X)
    return _combination(rm, grads, sections)


def _combination(rm, grads, sections):
    """gamma00_combination from the theta gradients (2, g) and the
    sections (2, 2^g) of its two points."""
    g1, g2 = grads
    angle = projective_angle(g1, g2)
    if angle > GAUSS_FIBER_ANGLE:
        raise PreconditionFailed("points have different Gauss images",
                                 angle=float(angle))
    gamma = complex(np.sum(g2 * g1) / np.sum(g2 * g2))
    lam = gamma ** 2
    combo = SectionCoefficients._computed(sections[0] - lam * sections[1])
    conds = taylor_conditions(rm, combo)
    return combo, lam, gamma, conds


def trisecant_gamma00_test(tau, x1, x2, x3, rank_tol=DEFAULT_RANK_TOL):
    """Dimension of the intersection of the order-4 subspace with the span
    of the three point sections; value 1 characterizes a trisecant.

    Returns (dimension, {"span_rank", "degenerate_span", ...}).
    """
    rm = _as_rm(tau)
    X = _as_points((x1, x2, x3), rm.g)
    (sections,), _, _ = second_order_basis(rm, X)
    S = (sections / _norms(sections)[:, None]).T
    _, normalized = _condition_data(rm)
    span_cert = numerical_rank(S, tol=rank_tol)
    ms_cert = numerical_rank(normalized @ S, tol=rank_tol)
    dimension = span_cert.decided_rank - ms_cert.decided_rank
    info = {
        "span_rank": span_cert.decided_rank,
        "conditions_rank": ms_cert.decided_rank,
        "degenerate_span": span_cert.decided_rank < 3,
        "span_cert": span_cert,
        "conditions_cert": ms_cert,
    }
    return dimension, info


def gamma00_controls(tau, rng, n_triples, rank_tol=DEFAULT_RANK_TOL):
    """trisecant_gamma00_test dimensions of n_triples triples of random
    theta-divisor points, three theta_divisor_point calls on rng per
    triple; a non-trisecant triple gives 0."""
    rm = _as_rm(tau)
    triples = ([theta_divisor_point(rm, rng) for _ in range(3)]
               for _ in range(n_triples))
    return [trisecant_gamma00_test(rm, *pts, rank_tol=rank_tol)[0]
            for pts in triples]


def span_VpWp(curve, periods, sample, kappa, rank_tol=DEFAULT_RANK_TOL):
    """Dimensions of the fiber-combination spans inside the order-4 space.

    The inner span comes from combinations over smooth fiber points of
    the sampled canonical divisor; the outer span adds the sections of
    the special (singular-image) fiber points.  Returns
    (dim inner, dim outer, dim order-4 space, details).
    """
    g = curve.genus
    rm = periods.tau
    points, mults = zip(*sample.k0.terms)
    subdivisors = [Divisor.of(*zip(points, l))
                   for l, _ in gauss_fiber_enumerate(mults, g)]
    lifts = _divisor_lifts(curve, subdivisors, periods) \
        - _as_points([kappa], g)
    special = np.array([divisor_is_special(curve, d) for d in subdivisors])
    smooth_lifts, special_lifts = lifts[~special], lifts[special]

    # every section from one call, every smooth gradient from another
    n_smooth = len(smooth_lifts)
    (sections,), _, _ = second_order_basis(
        rm, np.concatenate([smooth_lifts, special_lifts]))
    norms = np.linalg.norm(sections, axis=1)
    combos = []
    if n_smooth > 1:
        (_, grads), _, _ = theta_batch(rm, smooth_lifts, deriv=1)
    for k in range(1, n_smooth):
        combo, lam, _, _ = _combination(rm, grads[[0, k]], sections[[0, k]])
        norm = np.linalg.norm(combo.coeffs)
        if norm < 1e-6 * max(norms[0], abs(lam) * norms[k]):
            # the two sections were proportional (e.g. the fiber point
            # opposite to the base); the combination is trivially zero
            continue
        combos.append(combo.coeffs / norm)
    dim_inner = 0
    if combos:
        dim_inner = numerical_rank(np.stack(combos), tol=rank_tol).decided_rank

    outer_rows = combos + list(sections[n_smooth:] / norms[n_smooth:, None])
    dim_outer = 0
    if outer_rows:
        dim_outer = numerical_rank(np.stack(outer_rows),
                                   tol=rank_tol).decided_rank

    dim_gamma00, _, _ = gamma00_dimension(rm, rank_tol=rank_tol)
    details = {
        "n_fiber_entries": len(subdivisors),
        "n_smooth": len(smooth_lifts),
        "n_special": len(special_lifts),
    }
    return dim_inner, dim_outer, dim_gamma00, details
