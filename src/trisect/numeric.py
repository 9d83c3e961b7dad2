"""Shared numerical utilities: rank certification, projective comparison
and singular-endpoint quadrature nodes.  Lattice reduction lives with the
period lattice, in trisect.theta.RiemannMatrix.reduce.

All functions are pure and operate on plain numpy arrays; tolerances are
explicit arguments with documented defaults.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import InvalidInput

#: Default relative singular-value threshold used across the package.
DEFAULT_RANK_TOL = 1e-7


@dataclass(frozen=True)
class RankCertificate:
    """Auditable outcome of a numerical rank decision.

    ``gap_ratio`` is sigma_{r+1} / sigma_1 (0.0 when the matrix is decided
    full rank), so a confident rank-deficiency decision shows a ratio well
    below ``tolerance_used``.
    """

    singular_values: np.ndarray
    decided_rank: int
    gap_ratio: float
    tolerance_used: float

    def to_dict(self):
        return {
            "singular_values": [float(s) for s in self.singular_values],
            "decided_rank": int(self.decided_rank),
            "gap_ratio": float(self.gap_ratio),
            "tolerance_used": float(self.tolerance_used),
        }


def numerical_rank(matrix, tol=DEFAULT_RANK_TOL):
    """Decide the rank of a complex matrix from its singular spectrum.

    Rank = number of singular values exceeding ``tol * sigma_1``.  The whole
    spectrum is returned so callers can audit the decision.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise InvalidInput("numerical_rank expects a non-empty 2-d matrix")
    if not np.isfinite(a).all():
        raise InvalidInput("matrix contains non-finite entries")
    if not 0.0 < tol < 1.0:
        raise InvalidInput("rank tolerance must lie in (0, 1)", tol=tol)
    s = np.linalg.svd(a, compute_uv=False)
    smax = s[0]
    rank = int(_decided_ranks(s, tol))
    full = min(a.shape)
    gap = 0.0 if rank == full else float(s[rank] / smax) if smax > 0 else 0.0
    return RankCertificate(singular_values=s, decided_rank=rank,
                           gap_ratio=gap, tolerance_used=tol)


def _decided_ranks(s, tol):
    """The ranks numerical_rank decides from singular spectra s (..., k),
    each in descending order: the count of sigma > tol * sigma_1, which is
    0 for a zero spectrum."""
    return np.count_nonzero(s > tol * s[..., :1], axis=-1)


def projective_angle(v, w):
    """Fubini-Study angle between the lines spanned by v and w, in [0, pi/2].

    Zero iff the vectors are proportional over C.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    nv = _norm(v)
    nw = _norm(w)
    if nv == 0.0 or nw == 0.0:
        raise InvalidInput("projective_angle of a zero vector is undefined")
    v = v / nv
    w = w / nw
    inner = np.vdot(w, v)
    # sine from the orthogonal component: accurate for tiny angles where
    # the arccos formulation loses half the digits
    perp = v - inner * w
    return float(np.arctan2(_norm(perp), abs(inner)))


def _norm(v):
    """np.linalg.norm of a complex vector v, its sum of squares without the
    wrapper: sqrt(Re v . Re v + Im v . Im v)."""
    v = v.ravel(order="K")
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def quadrature_nodes(n):
    """Gauss-Chebyshev nodes and weights on (-1, 1).

    The rule integrates h(t) (1 - t^2)^(-1/2); the weight absorbs
    inverse-square-root singularities at both endpoints.  It is exact for
    polynomials h of degree < 2n, and for h analytic with |h| <= M in the
    Bernstein ellipse E_r it errs by at most 2 pi M r^-2n / (1 - r^-2n),
    the bound from which curves._segment_integrals takes n.
    """
    if n < 2:
        raise InvalidInput("need at least 2 quadrature nodes", n=n)
    k = np.arange(1, n + 1)
    nodes = np.cos((2 * k - 1) * np.pi / (2 * n))
    weights = np.full(n, np.pi / n)
    return nodes, weights
