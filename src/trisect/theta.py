"""Error-controlled Riemann theta functions with half-integer characteristics.

Every sum runs at zero characteristic over the origin-centred point set
||T n|| <= R, with T the Cholesky factor of pi * Im(tau).  R is chosen from
the Gaussian tail estimate so that the omitted mass is below the requested
tolerance; the estimate charges the offset of each row's Gaussian centre
from the origin once, and that ball around the origin contains every
centred ball the estimate leaves unbounded.  A characteristic [a, b] is
folded into the argument, theta[a, b](z) = exp(i pi a^T tau a
+ 2 pi i a^T (z + b)) theta(z + b + tau a).  Arguments are reduced modulo
the period lattice and the exact prefactors are reapplied, with their
product-rule terms for derivatives, so returned values and derivatives are
the true (unreduced) ones at any argument.

One pass over the lattice points returns the whole jet up to the requested
order: values, gradients and Hessians come from the same sums (the
derivative-from-one-summation form of Deconinck et al., Math. Comp. 73
(2004)), so a caller that needs a value and its gradient makes one call.
Derivative series reuse the value-series ball enlarged by a fixed margin,
since the polynomial prefactors grow slower than the Gaussian decays.  The
point set is symmetric and n^T tau n is even in n (Mumford, Tata Lectures
on Theta I, Ch. II), so each pair {n, -n} is summed once, from one exp.

The second-order basis theta[eps/2, 0](2 tau, 2 z) is the part of
theta(z; tau/2) summed over m = eps (mod 2): one series on tau/2 grouped by
parity.  Its arguments are reduced modulo the tau/2 lattice.  A shift by
(tau/2) q maps class eps to class eps + q (mod 2) with the exact prefactor
of the whole series (the half-period action, Mumford, Tata Lectures on
Theta I, Ch. II 1), so the classes are relabelled after the sum.

Returned tail bounds hold at the raw arguments: the bound at the reduced
arguments is scaled by the largest prefactor and by its product-rule
growth for derivatives.

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
        # one point of each pair {n, -n}: the origin and every n whose first
        # nonzero entry is positive, as ascending indices into _points
        self._reps = np.zeros(0, dtype=np.int32)
        self._quad = np.zeros(0, dtype=complex)  # i pi n^T tau n per _reps
        self._classes = []  # indices into _reps by n mod 2
        # shortest vector of T Z^g, exactly: no basis vector is shorter, so
        # the enumeration up to the shortest one holds it after the origin
        self.lattice_points(np.min(np.linalg.norm(self._chol, axis=0)))
        self._rho = float(self._point_norms[1])
        # least singular value of T, for the derivative tail bounds
        self._smin = float(np.linalg.svd(self._chol, compute_uv=False)[-1])
        self._half = None  # RiemannMatrix(tau / 2), for second_order_basis
        self._theta_scales = None  # geometry._theta_scales
        self._gamma00_conditions = None  # gamma00._condition_data

    def lattice_points(self, radius):
        """Integer points n (int16) with ||T n|| <= radius (rounded up to a
        quarter step), sorted by ||T n||: a prefix of the one cached point set,
        which only a larger radius re-enumerates.  The set is symmetric under
        n -> -n; its representatives _reps, their quadratic forms
        i pi n^T tau n (_quad) and their classes by n mod 2 (_classes) are
        rebuilt with it.
        """
        key = float(np.ceil(radius * 4.0) / 4.0)
        if key > self._points_radius:
            widths = np.floor(key * np.linalg.norm(self._chol_inv, axis=1))
            pts, norms, quads = [], [], []
            for lo in range(0, int(np.prod(2 * widths + 1)), _BLOCK):
                slab = _box(widths, lo, lo + _BLOCK)
                slab_norms = np.linalg.norm(slab @ self._chol.T, axis=1)
                keep = slab_norms <= key + 1e-12
                kept, kept_norms = slab[keep], slab_norms[keep]
                pts.append(kept.astype(np.int16))
                norms.append(kept_norms)
                # Re(i pi n^T tau n) = -pi n^T Im(tau) n = -||T n||^2
                quads.append(-kept_norms ** 2 + 1j * np.pi * np.einsum(
                    "tg,gh,th->t", kept, self.entries.real, kept))
            pts, norms = np.concatenate(pts), np.concatenate(norms)
            order = np.argsort(norms, kind="stable")
            self._points = pts[order]
            self._points.setflags(write=False)
            self._point_norms = norms[order]
            first = self._points[np.arange(len(order)),
                                 np.argmax(self._points != 0, axis=1)]
            self._reps = np.flatnonzero(first >= 0).astype(np.int32)
            self._quad = np.concatenate(quads)[order[self._reps]]
            del pts, norms, quads, order  # before the class indices are built
            self._points_radius = key
            parity = _class_index(self._points[self._reps])
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
        Raises NumericalFailure when Z is too large for floating point to
        shift it into the cell.
        """
        Z = np.asarray(Z, dtype=complex)
        if Z.ndim not in (1, 2) or Z.shape[-1] != self.g:
            raise InvalidInput("argument dimension does not match genus",
                               got=Z.shape[-1] if Z.ndim else 0,
                               genus=self.g)
        if not np.all(np.isfinite(Z)):
            raise InvalidInput("non-finite argument")
        with np.errstate(over="ignore", invalid="ignore"):
            p = np.round(Z.imag @ self._imag_inv.T)
            m = np.round(Z.real - p @ self.entries.real.T)
            Z_red = Z - m - p @ self.entries.T
            # rounding leaves both coordinates in [-1/2, 1/2]; past that,
            # the argument is too large for its shift to be exact
            cell = np.maximum(np.abs(Z_red.real),
                              np.abs(Z_red.imag @ self._imag_inv.T))
        if not np.all(cell <= 0.5 + 1e-6):
            raise NumericalFailure("argument is too far from the "
                                   "fundamental cell to reduce exactly")
        return Z_red, m, p


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


def eps_from_index(idx, g):
    """Inverse of index_from_eps: binary digits, eps_1 most significant."""
    return tuple((idx >> (g - 1 - i)) & 1 for i in range(g))


def index_from_eps(eps):
    g = len(eps)
    return sum(int(e) << (g - 1 - i) for i, e in enumerate(eps))


def all_epsilons(g):
    return [eps_from_index(i, g) for i in range(2 ** g)]


def _class_index(n):
    """index_from_eps(n mod 2) of every row of the integer-valued n."""
    return np.mod(n, 2).astype(int) @ (1 << np.arange(n.shape[-1])[::-1])


def _prepare(tau, Z, tol, deriv):
    """Validated RiemannMatrix, the arguments as (N, g) and whether Z was
    one point."""
    rm = tau if isinstance(tau, RiemannMatrix) else RiemannMatrix(tau)
    if not TOL_FLOOR < tol < TOL_CEIL:
        raise InvalidInput("theta tolerance must lie in (1e-15, 1e-3)",
                           tol=tol)
    if deriv not in (0, 1, 2):
        raise InvalidInput("derivative order must be 0, 1 or 2", got=deriv)
    Z = np.asarray(Z, dtype=complex)
    squeeze, Z = Z.ndim == 1, np.atleast_2d(Z)
    # checked before the characteristic is added to Z
    if Z.ndim != 2 or Z.shape[1] != rm.g:
        raise InvalidInput("argument dimension does not match genus",
                           got=Z.shape[-1], genus=rm.g)
    return rm, Z, squeeze


def _tail_bound(rm, radius, offset, deriv_order):
    g = rm.g
    rho = rm._rho
    arg = max(radius - offset - rho / 2.0, 0.0) ** 2
    eps = (g / 2.0) * (2.0 / rho) ** g * gamma_fn(g / 2.0) \
        * gammaincc(g / 2.0, arg)
    if deriv_order:
        eps *= (2.0 * np.pi * (radius + 1.0) / rm._smin) ** deriv_order
    return eps


def _pick_radius(rm, tol, offset, deriv_order):
    radius = rm._rho / 2.0 + offset + np.sqrt(max(-np.log(tol), 1.0))
    for _ in range(200):
        if _tail_bound(rm, radius, offset, deriv_order) < tol:
            return radius
        radius += 0.4
    raise InvalidInput("theta series does not converge at this tolerance",
                       tol=tol)


def _series(rm, Z_red, tol, deriv, by_parity=False):
    """Truncated theta sums at reduced points, all orders 0..deriv at once.

    Z_red: (N, g) reduced arguments, summed at zero characteristic.  The
    terms are summed into one class, or with ``by_parity`` into the 2^g
    classes of n mod 2 in the eps order.  Returns (results, radius,
    tail_bound) where results lists the values (N, C), then gradients
    (N, C, g) and Hessians (N, C, g, g) as needed.

    The terms of row z are Gaussian in n around -c, c = Im(tau)^-1 Im z,
    and the tail bound covers the n with ||T (n + c)|| > radius - offset,
    offset the largest ||T c|| of the rows.  Every other n has
    ||T n|| <= ||T (n + c)|| + ||T c|| <= radius, so summing
    lattice_points(radius) leaves out only points the bound covers.

    n and -n share i pi n^T tau n and the class n mod 2, and their linear
    terms are L and -L, L = 2 pi i n^T z.  So each pair is summed once from
    one exp: e^q (e^L + e^-L) against the weights 1 and n n^T of the values
    and Hessians, e^q (e^L - e^-L) against the weight n of the gradients,
    with weight 1/2 at the origin.  |Re L| <= 2 radius offset keeps e^L and
    e^-L finite.
    """
    yinv_y = Z_red.imag @ rm._imag_inv.T
    offset = float(np.max(np.linalg.norm(yinv_y @ rm._chol.T, axis=1),
                          initial=0.0))
    # omitted terms carry the factor exp(pi y^T Y^{-1} y)
    boost = float(np.exp(np.pi * np.max(
        np.einsum("ng,ng->n", Z_red.imag, yinv_y), initial=0.0)))
    margin = float(deriv)
    radius = _pick_radius(rm, tol / max(boost, 1.0), offset, deriv) + margin
    stop = len(rm.lattice_points(radius))  # may rebuild rm._reps
    count = np.searchsorted(rm._reps, stop)
    n_rows, g = Z_red.shape
    # positions in _reps of the classes of the points, or all of them
    groups = [idx[:np.searchsorted(idx, count)] for idx in rm._classes] \
        if by_parity else [slice(count)]
    # weights 1 and n_k n_l of the even sums, n_k of the odd ones
    n_even = 1 + (deriv >= 2) * g * g
    n_odd = (deriv >= 1) * g
    step = max(_BLOCK // (min(n_rows, 128) + n_even + n_odd), 1)
    sums = np.zeros((n_rows, len(groups), n_even + n_odd), dtype=complex)
    for c, group in enumerate(groups):
        members, quads = rm._points[rm._reps[group]], rm._quad[group]
        for lo in range(0, len(members), step):
            n = members[lo:lo + step].astype(float)
            scale = np.exp(quads[lo:lo + step])[:, None]
            even = [np.where(n.any(axis=1), 1.0, 0.5)[None, :]]
            if deriv >= 2:
                even.append((n.T[:, None] * n.T).reshape(g * g, -1))
            even = np.concatenate(even)
            for start in range(0, n_rows, 128):
                block = slice(start, min(start + 128, n_rows))
                # keep an elementwise op between the BLAS product and exp: exp
                # fed straight from it ran 3-4x slower on 2-vCPU x86 (AVX-SSE)
                e = np.exp(_TWO_PI_I * (n @ Z_red[block].T))
                inv = 1.0 / e
                sums[block, c, :n_even] += (
                    even @ (scale * (e + inv)).view(float)).view(complex).T
                if deriv >= 1:
                    sums[block, c, n_even:] += (
                        n.T @ (scale * (e - inv)).view(float)).view(complex).T
    outs = [sums[..., 0]]
    if deriv >= 1:
        outs.append(_TWO_PI_I * sums[..., n_even:])
    if deriv >= 2:
        outs.append(_TWO_PI_I ** 2 * sums[..., 1:n_even].reshape(
            sums.shape[:2] + (g, g)))
    tail = boost * _tail_bound(rm, radius - margin, offset, deriv)
    return outs, radius, tail


def _lattice_exponent(rm, p, Z_red):
    """log theta(Z_red + m + tau p) - log theta(Z_red), tau = rm.entries:
    -i pi p^T tau p - 2 pi i p^T Z_red per row."""
    return -1j * np.pi * np.einsum("ng,gh,nh->n", p, rm.entries, p) \
        - _TWO_PI_I * np.einsum("ng,ng->n", p, Z_red)


@np.errstate(over="ignore", invalid="ignore")
def _unreduce(log_pre, shift, outs, tail):
    """The jet of exp(log_pre) f from the jet ``outs`` of f, and its tail
    bound, where log_pre (N,) is affine in z with gradient shift (N, g).

    Applies the prefactor to every order, with the product-rule terms of
    its z-dependence for the derivatives.  Each product-rule term
    multiplies an order whose error is below ``tail`` by entries of shift,
    so the error of the jet is below |prefactor| (1 + ||shift||)^deriv
    tail.  Returns (jet, tail_bound), jet a list of the shapes of
    ``outs``.  Raises NumericalFailure, and issues no floating-point
    warning, when any entry overflows.
    """
    pre = np.exp(log_pre)[:, None]
    growth = np.abs(pre[:, 0]) * (1.0 + np.linalg.norm(
        shift, axis=1)) ** (len(outs) - 1)
    shift = shift[:, None, :]
    jet = [pre * outs[0]]
    if len(outs) > 1:
        jet.append(pre[..., None] * (outs[1] + shift * outs[0][..., None]))
    if len(outs) > 2:
        jet.append(pre[..., None, None] * (
            outs[2]
            + shift[..., :, None] * outs[1][..., None, :]
            + shift[..., None, :] * outs[1][..., :, None]
            + shift[..., :, None] * shift[..., None, :]
            * outs[0][..., None, None]))
    tail = tail * float(np.max(growth))
    if not (np.isfinite(tail)
            and all(np.all(np.isfinite(order)) for order in jet)):
        raise NumericalFailure("theta value is not finite: the argument is "
                               "too far from the fundamental cell")
    return jet, tail


def theta_batch(tau, Z, char=None, tol=DEFAULT_THETA_TOL, deriv=0):
    """Theta and its z-derivatives up to order ``deriv`` at many points.

    Returns (jet, radius, tail_bound): jet is a tuple of deriv + 1 arrays,
    the values (N,), gradients (N, g) and Hessians (N, g, g), all from one
    pass over the lattice points; a single point Z of shape (g,) drops the
    leading axis.  The characteristic is folded into the argument,

        theta[a, b](z) = exp(i pi a^T tau a + 2 pi i a^T (z + b)) theta(w),

    w = z + b + tau a, and w is reduced exactly, so the jet is that of the
    raw (unreduced) arguments.  tail_bound bounds the truncation error of
    every entry of every order at the raw arguments.
    """
    rm, Z, squeeze = _prepare(tau, Z, tol, deriv)
    char = char or HalfCharacteristic.zero(rm.g)
    if char.g != rm.g:
        raise InvalidInput("characteristic length does not match genus")
    a, b = char.a, char.b
    tau = rm.entries
    W_red, _, p = rm.reduce(Z + b + tau @ a)
    outs, radius, tail = _series(rm, W_red, tol, deriv)
    log_pre = 1j * np.pi * (a @ tau @ a) + _TWO_PI_I * ((Z + b) @ a) \
        + _lattice_exponent(rm, p, W_red)
    jet, tail = _unreduce(log_pre, _TWO_PI_I * (a - p), outs, tail)
    return tuple(o[0, 0] if squeeze else o[:, 0] for o in jet), radius, tail


def second_order_basis(tau, Z, tol=DEFAULT_THETA_TOL, deriv=0):
    """All 2^g second-order theta values at each point, in the fixed eps
    order, with their z-derivatives up to order ``deriv``.

    theta[eps/2, 0](2 tau, 2 z) is the sum of exp(i pi m^T tau m / 2
    + 2 pi i m^T z) over m = eps (mod 2), so the 2^g functions sum to
    theta(z; tau/2) and are computed as that one theta series, its terms
    grouped by m mod 2.  Z is reduced modulo the tau/2 lattice,
    Z = Z_red + m + (tau/2) q.  Substituting m -> n - q in the series gives

        theta_eps(Z) = exp(-i pi q^T (tau/2) q - 2 pi i q^T Z_red)
                       * theta_{eps + q mod 2}(Z_red),

    so the classes summed at Z_red are relabelled by q mod 2 and the
    exact prefactor reapplied: values and derivatives hold at any
    argument.  Returns (jet, radius, tail_bound) like theta_batch, with
    the values (N, 2^g), gradients (N, 2^g, g) and Hessians
    (N, 2^g, g, g).
    """
    rm, Z, squeeze = _prepare(tau, Z, tol, deriv)
    if rm._half is None:
        rm._half = RiemannMatrix(rm.entries / 2.0)
    Z_red, _, q = rm._half.reduce(Z)
    outs, radius, tail = _series(rm._half, Z_red, tol, deriv, by_parity=True)
    # class eps at Z is class eps XOR (q mod 2) at Z_red
    classes = np.arange(2 ** rm.g)[None, :] ^ _class_index(q)[:, None]
    rows = np.arange(len(Z))[:, None]
    outs = [o[rows, classes] for o in outs]
    jet, tail = _unreduce(_lattice_exponent(rm._half, q, Z_red),
                          -_TWO_PI_I * q, outs, tail)
    return tuple(o[0] if squeeze else o for o in jet), radius, tail
