"""Error-controlled Riemann theta functions with half-integer characteristics.

The series is truncated over the ellipsoid ||T(n + center)|| <= R, with T the
Cholesky factor of pi * Im(tau); R is chosen from the Gaussian tail estimate
so the omitted mass is below the requested tolerance.  Arguments are first
reduced modulo the period lattice and the exact quasi-periodicity prefactor
is reapplied, with its product-rule terms for derivatives, so returned values
and derivatives are the true (unreduced) ones at any argument.

Derivative series reuse the value-series ellipsoid enlarged by a fixed
margin, since the polynomial prefactors grow slower than the Gaussian decays.

The second-order basis theta[eps/2, 0](2 tau, 2 z) is the part of
theta(z; tau/2) summed over m = eps (mod 2): one series on tau/2 grouped by
parity.  Its arguments are reduced modulo the tau lattice, whose shifts are
even on the tau/2 lattice and so keep every class in place.

Characteristic ordering convention: eps in {0,1}^g is indexed
lexicographically with eps_1 most significant.  Every other module and the
CLI file formats rely on this ordering.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gamma as gamma_fn

from .errors import InvalidInput, NumericalFailure

TOL_FLOOR = 1e-15
TOL_CEIL = 1e-3
DEFAULT_THETA_TOL = 1e-10

_TWO_PI_I = 2j * np.pi


#: Lattice points x (rows + term weights) per block of a theta sum, and box
#: points per enumeration slab: a call's memory is bounded at any radius.
_BLOCK = 1 << 16


def _box(half_widths, start, stop):
    """The integer points n with |n_i| <= half_widths[i], numbered in
    lexicographic order, from number start up to stop (exclusive)."""
    shape = 2 * np.asarray(half_widths, dtype=int) + 1
    index = np.arange(start, min(stop, np.prod(shape)))
    return np.stack(np.unravel_index(index, shape), axis=1) - shape // 2


class RiemannMatrix:
    """A g x g complex symmetric matrix with positive definite imaginary part.

    Caches the Cholesky data and the lattice points used by the theta
    series, and per-matrix results of other modules; the entries are
    immutable.
    """

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvalidInput("Riemann matrix must be square",
                               shape=entries.shape)
        if not np.all(np.isfinite(entries)):
            raise InvalidInput("Riemann matrix has non-finite entries")
        scale = max(np.linalg.norm(entries), 1.0)
        if np.linalg.norm(entries - entries.T) > 1e-10 * scale:
            raise InvalidInput("Riemann matrix is not symmetric",
                               asym=float(np.linalg.norm(entries - entries.T)))
        eigs = np.linalg.eigvalsh(entries.imag)
        if eigs.min() <= 0:
            raise InvalidInput("imaginary part is not positive definite",
                               min_eig=float(eigs.min()))
        entries = 0.5 * (entries + entries.T)
        entries.setflags(write=False)
        self.entries = entries
        self.g = entries.shape[0]
        self._imag_inv = np.linalg.inv(entries.imag)
        # T with ||T v||^2 = pi v^T Im(tau) v
        self._chol = np.linalg.cholesky(np.pi * entries.imag).T
        self._chol_inv = np.linalg.inv(self._chol)
        self._points = np.zeros((0, self.g), dtype=np.int16)  # by ||T n||
        self._point_norms = np.zeros(0)
        self._points_radius = -1.0  # _points is complete up to this norm
        self._classes = []  # indices into _points by n mod 2
        # shortest vector of T Z^g, exactly: no basis vector is shorter, so
        # the enumeration up to the shortest one holds it after the origin
        self.lattice_points(np.min(np.linalg.norm(self._chol, axis=0)))
        self._rho = float(self._point_norms[1])
        self._half = None  # RiemannMatrix(tau / 2), for second_order_basis
        self._theta_scales = None  # geometry._theta_scales
        self._gamma00_conditions = None  # gamma00._condition_data

    def lattice_points(self, radius):
        """Integer points n (int16) with ||T n|| <= radius (rounded up to a
        quarter step), sorted by ||T n||: a prefix of the one cached point set,
        which only a larger radius re-enumerates.
        """
        key = float(np.ceil(radius * 4.0) / 4.0)
        if key > self._points_radius:
            widths = np.floor(key * np.linalg.norm(self._chol_inv, axis=1))
            pts, norms = [], []
            for lo in range(0, int(np.prod(2 * widths + 1)), _BLOCK):
                slab = _box(widths, lo, lo + _BLOCK)
                slab_norms = np.linalg.norm(slab @ self._chol.T, axis=1)
                keep = slab_norms <= key + 1e-12
                pts.append(slab[keep].astype(np.int16))
                norms.append(slab_norms[keep])
            pts, norms = np.concatenate(pts), np.concatenate(norms)
            order = np.argsort(norms, kind="stable")
            self._points = pts[order]
            self._points.setflags(write=False)
            self._point_norms = norms[order]
            del pts, norms, order  # before the class indices are built
            self._points_radius = key
            parity = (self._points % 2) @ (1 << np.arange(self.g)[::-1])
            self._classes = [np.flatnonzero(parity == c).astype(np.int32)
                             for c in range(2 ** self.g)]
        stop = np.searchsorted(self._point_norms, key + 1e-12, side="right")
        return self._points[:stop]

    def reduce(self, Z):
        """Reduce points modulo the lattice Z^g + tau Z^g by rounding.

        Rounds p = Y^-1 Im z, then m = Re z - X p (tau = X + iY), the cell
        reduction of Deconinck et al., Math. Comp. 73 (2004).  Z is one
        point (g,) or a batch (N, g); returns (Z_reduced, m, p) of its shape
        with Z = Z_reduced + m + tau p.  The residual Z_reduced is the
        offset from the nearest lattice point whenever that offset is
        shorter than 1 / (2 ||B^-1||), B the real basis [[I, X], [0, Y]] of
        the lattice, and the offset from some lattice point otherwise.
        """
        Z = np.asarray(Z, dtype=complex)
        if Z.ndim not in (1, 2) or Z.shape[-1] != self.g:
            raise InvalidInput("argument dimension does not match genus",
                               got=Z.shape[-1] if Z.ndim else 0,
                               genus=self.g)
        if not np.all(np.isfinite(Z)):
            raise InvalidInput("non-finite argument")
        p = np.round(Z.imag @ self._imag_inv.T)
        m = np.round(Z.real - p @ self.entries.real.T)
        return Z - m - p @ self.entries.T, m, p


@dataclass(frozen=True)
class HalfCharacteristic:
    """Half-integer characteristic [eps'/2; eps''/2], eps vectors in {0,1}^g."""

    eps_prime: tuple
    eps_dblprime: tuple

    def __post_init__(self):
        for v in (self.eps_prime, self.eps_dblprime):
            if not all(e in (0, 1) for e in v):
                raise InvalidInput("characteristic entries must be 0 or 1")
        if len(self.eps_prime) != len(self.eps_dblprime):
            raise InvalidInput("characteristic halves have unequal length")

    @classmethod
    def zero(cls, g):
        return cls((0,) * g, (0,) * g)

    @property
    def g(self):
        return len(self.eps_prime)

    @property
    def parity(self):
        """0 for even characteristics, 1 for odd."""
        return int(np.dot(self.eps_prime, self.eps_dblprime)) % 2

    @property
    def a(self):
        return np.asarray(self.eps_prime, dtype=float) / 2.0

    @property
    def b(self):
        return np.asarray(self.eps_dblprime, dtype=float) / 2.0


@dataclass(frozen=True)
class ThetaValue:
    value: complex
    truncation_radius: float
    bound_on_tail: float


def eps_from_index(idx, g):
    """Inverse of index_from_eps: binary digits, eps_1 most significant."""
    return tuple((idx >> (g - 1 - i)) & 1 for i in range(g))


def index_from_eps(eps):
    g = len(eps)
    return sum(int(e) << (g - 1 - i) for i, e in enumerate(eps))


def all_epsilons(g):
    return [eps_from_index(i, g) for i in range(2 ** g)]


def _prepare(tau, Z, tol):
    """Validated RiemannMatrix, the (N, g) arguments reduced as
    (Z_reduced, m, p) by RiemannMatrix.reduce, and whether Z was one point."""
    rm = tau if isinstance(tau, RiemannMatrix) else RiemannMatrix(tau)
    if not TOL_FLOOR < tol < TOL_CEIL:
        raise InvalidInput("theta tolerance must lie in (1e-15, 1e-3)",
                           tol=tol)
    Z = np.asarray(Z, dtype=complex)
    return rm, rm.reduce(np.atleast_2d(Z)), Z.ndim == 1


def _tail_bound(rm, radius, offset, deriv_order):
    g = rm.g
    rho = rm._rho
    arg = max(radius - offset - rho / 2.0, 0.0) ** 2
    eps = (g / 2.0) * (2.0 / rho) ** g * gamma_fn(g / 2.0) \
        * gammaincc(g / 2.0, arg)
    if deriv_order:
        smin = np.linalg.svd(rm._chol, compute_uv=False)[-1]
        eps *= (2.0 * np.pi * (radius + 1.0) / smin) ** deriv_order
    return eps


def _pick_radius(rm, tol, offset, deriv_order):
    radius = rm._rho / 2.0 + offset + np.sqrt(max(-np.log(tol), 1.0))
    for _ in range(200):
        if _tail_bound(rm, radius, offset, deriv_order) < tol:
            return radius
        radius += 0.4
    raise InvalidInput("theta series does not converge at this tolerance",
                       tol=tol)


def _series(rm, Z_red, a, b, tol, deriv, by_parity=False):
    """Truncated theta sums at reduced points, all orders 0..deriv at once.

    Z_red: (N, g) reduced arguments; a, b: characteristic shifts.  The terms
    are summed into one class, or with ``by_parity`` into the 2^g classes of
    n mod 2 in the eps order.  Returns (results, radius, tail_bound) where
    results lists the values (N, C), then gradients (N, C, g) and Hessians
    (N, C, g, g) as needed.
    """
    tau = rm.entries
    yinv_y = Z_red.imag @ rm._imag_inv.T
    centers = a[None, :] + yinv_y
    offset = float(np.max(np.linalg.norm(centers @ rm._chol.T, axis=1),
                          initial=0.0))
    # omitted terms carry the factor exp(pi y^T Y^{-1} y)
    boost = float(np.exp(np.pi * np.max(
        np.einsum("ng,ng->n", Z_red.imag, yinv_y), initial=0.0)))
    margin = float(deriv)
    radius = _pick_radius(rm, tol / max(boost, 1.0), offset, deriv) + margin
    pts = rm.lattice_points(radius + offset)
    n_rows, g = Z_red.shape
    # index arrays of the classes of the points, or one slice of them all
    groups = [idx[:np.searchsorted(idx, len(pts))] for idx in rm._classes] \
        if by_parity else [slice(None)]
    n_weights = 1 + (deriv >= 1) * g + (deriv >= 2) * g * g
    step = max(_BLOCK // (min(n_rows, 128) + n_weights), 1)
    sums = np.zeros((n_rows, len(groups), n_weights), dtype=complex)
    for c, group in enumerate(groups):
        members = pts[group]
        for lo in range(0, len(members), step):
            shifted = members[lo:lo + step] + a[None, :]
            quad = 1j * np.pi * np.einsum("tg,gh,th->t", shifted, tau,
                                          shifted)
            # weights 1, n_k and n_k n_l of the value, gradient, Hessian terms
            weights = [np.ones((1, len(shifted)))]
            if deriv >= 1:
                weights.append(shifted.T)
            if deriv >= 2:
                weights.append((shifted.T[:, None] * shifted.T)
                               .reshape(g * g, -1))
            weights = np.concatenate(weights)
            for start in range(0, n_rows, 128):
                block = slice(start, min(start + 128, n_rows))
                lin = _TWO_PI_I * shifted @ (Z_red[block] + b[None, :]).T
                terms = np.exp(quad[:, None] + lin).view(float)
                sums[block, c] += (weights @ terms).view(complex).T
    outs = [sums[..., 0]]
    if deriv >= 1:
        outs.append(_TWO_PI_I * sums[..., 1:g + 1])
    if deriv >= 2:
        outs.append(_TWO_PI_I ** 2 * sums[..., g + 1:].reshape(
            sums.shape[:2] + (g, g)))
    tail = boost * _tail_bound(rm, radius - margin, offset, deriv)
    return outs, radius, tail


@np.errstate(over="ignore", invalid="ignore")
def _unreduce(rm, a, b, m, p, Z_red, outs, deriv):
    """Theta or its derivatives at Z = Z_red + m + tau p from _series output.

    Applies the quasi-periodicity factor and, for derivatives, the
    product-rule terms of its z-dependence.  Shapes are those of ``outs``.
    Raises NumericalFailure, and issues no floating-point warning, when a
    value overflows.
    """
    tau = rm.entries
    quad = np.einsum("ng,gh,nh->n", p, tau, p)
    pre = np.exp(_TWO_PI_I * (m @ a - p @ b)
                 - 1j * np.pi * quad
                 - _TWO_PI_I * np.einsum("ng,ng->n", p, Z_red))[:, None]
    shift = (-_TWO_PI_I * p)[:, None, :]
    if deriv == 0:
        out = pre * outs[0]
    elif deriv == 1:
        out = pre[..., None] * (outs[1] + shift * outs[0][..., None])
    else:
        out = pre[..., None, None] * (
            outs[2]
            + shift[..., :, None] * outs[1][..., None, :]
            + shift[..., None, :] * outs[1][..., :, None]
            + shift[..., :, None] * shift[..., None, :]
            * outs[0][..., None, None])
    if not np.all(np.isfinite(out)):
        raise NumericalFailure("theta value is not finite: the argument is "
                               "too far from the fundamental cell")
    return out


def theta_batch(tau, Z, char=None, tol=DEFAULT_THETA_TOL, deriv=0):
    """Evaluate theta (or its first/second z-derivatives) at many points.

    Returns (values, radius, tail_bound); values shaped (N,), (N, g) or
    (N, g, g) according to ``deriv``.  Exact quasi-periodic reduction is
    applied internally, so the returned values correspond to the raw
    (unreduced) arguments.
    """
    rm, (Z_red, m, p), squeeze = _prepare(tau, Z, tol)
    char = char or HalfCharacteristic.zero(rm.g)
    if char.g != rm.g:
        raise InvalidInput("characteristic length does not match genus")
    a, b = char.a, char.b
    outs, radius, tail = _series(rm, Z_red, a, b, tol, deriv)
    out = _unreduce(rm, a, b, m, p, Z_red, outs, deriv)[:, 0]
    return (out[0] if squeeze else out), radius, tail


def theta(tau, z, char=None, tol=DEFAULT_THETA_TOL):
    """Riemann theta with half-integer characteristic at a single point."""
    vals, radius, tail = theta_batch(tau, z, char, tol, deriv=0)
    return ThetaValue(value=complex(vals), truncation_radius=float(radius),
                      bound_on_tail=float(tail))


def theta_gradient(tau, z, char=None, tol=DEFAULT_THETA_TOL):
    """Gradient of theta in the z variables, same tail-bound discipline."""
    vals, _, _ = theta_batch(tau, z, char, tol, deriv=1)
    return vals


def theta_hessian(tau, z, char=None, tol=DEFAULT_THETA_TOL):
    """Hessian of theta in the z variables; symmetric by construction."""
    vals, _, _ = theta_batch(tau, z, char, tol, deriv=2)
    return 0.5 * (vals + np.swapaxes(vals, -1, -2))


def second_order_basis(tau, Z, tol=DEFAULT_THETA_TOL, deriv=0):
    """All 2^g second-order theta values at each point, in the fixed eps order.

    theta[eps/2, 0](2 tau, 2 z) is the sum of exp(i pi m^T tau m / 2
    + 2 pi i m^T z) over m = eps (mod 2), so the 2^g functions sum to
    theta(z; tau/2) and are computed as that one theta series, its terms
    grouped by m mod 2.  Z is reduced modulo the tau lattice (not the tau/2
    lattice, whose odd shifts would permute the classes) and the exact
    prefactor reapplied, so values and derivatives hold at any argument.
    deriv=0 returns (N, 2^g) values, deriv=1 (N, 2^g, g) gradients and
    deriv=2 (N, 2^g, g, g) Hessians.
    """
    rm, (Z_red, m, p), squeeze = _prepare(tau, Z, tol)
    if rm._half is None:
        rm._half = RiemannMatrix(rm.entries / 2.0)
    zero = np.zeros(rm.g)
    outs, _, _ = _series(rm._half, Z_red, zero, zero, tol, deriv,
                         by_parity=True)
    out = _unreduce(rm._half, zero, zero, m, 2.0 * p, Z_red, outs, deriv)
    return out[0] if squeeze else out
