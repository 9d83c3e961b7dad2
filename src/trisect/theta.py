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

The offset sets both R and the factor exp(||T c||^2) that the tail bound
carries, so each row is summed at its nearest lattice translate in the
||T .|| metric, not where rounding the coordinates left it: near the
corners of the rounding cell, where half-periods sit, the two differ
(the 20 rows of the genus-5 Riemann-constant certificate: largest offset
3.10 after rounding, 1.53 at the nearest translates).  Rounding stays
the one reduction; the nearest translate is an exact search over the
cached points with ||T n|| <= 2 ||T c|| (the short-vector search of
Fincke & Pohst, Math. Comp. 44 (1985)), needed only for rows farther
than rho / 2, half the shortest lattice vector: nearer rows are nearest
already.  The translate is applied to the reduction's lattice part, so
the exact prefactors and the tau/2 class relabelling follow it.  The
basis does not enter the translate, the radius or the summed set; on a
skewed tau only the coordinates of n and of the lattice part p grow, and
the products in i pi n^T tau n and tau p then cancel, so both are formed
exactly (_split).

One pass over the lattice points returns the whole jet up to the requested
order: values, gradients and Hessians come from the same sums (the
derivative-from-one-summation form of Deconinck et al., Math. Comp. 73
(2004)), so a caller that needs a value and its gradient makes one call.
Derivative series reuse the value-series ball enlarged by a fixed margin,
since the polynomial prefactors grow slower than the Gaussian decays.  The
point set is symmetric and n^T tau n is even in n (Mumford, Tata Lectures
on Theta I, Ch. II), so each pair {n, -n} is summed once.

The sum runs one lattice line at a time, the recursive one-coordinate form
of the ellipsoid sum of Deconinck et al.: n = (h, m) splits into its head h
(the first g - 1 coordinates) and m, so exp(2 pi i n^T z) = E w^m with one
exp E per head and row and w = exp(2 pi i z_g); the sum over m is a complex
matrix product with the powers of w, and the pair {n, -n} is paired at the
head, E (...) + E^-1 (...).  The split factors can leave floating range on
a skewed tau (Frauendiener, Jaber & Klein, J. Geom. Phys. 141 (2019),
reduce such a tau first), so a proven bound on their exponents guards the
split: past it, each representative is its own head, one exp per pair.

The second-order basis theta[eps/2, 0](2 tau, 2 z) is the part of
theta(z; tau/2) summed over m = eps (mod 2): one series on tau/2 grouped by
parity.  Its arguments are reduced modulo the tau/2 lattice.  A shift by
(tau/2) q maps class eps to class eps + q (mod 2) with the exact prefactor
of the whole series (the half-period action, Mumford, Tata Lectures on
Theta I, Ch. II 1), so the classes are relabelled after the sum.

Returned tail bounds hold at the raw arguments: the bound at the reduced
arguments, the nearest translates, is scaled by the largest prefactor and
by its product-rule growth for derivatives.  So the bound follows |theta|
at the nearest translate; it exceeds a bound summed where rounding left
an argument by the ratio of the two prefactors.

Characteristic ordering convention: eps in {0,1}^g is indexed
lexicographically with eps_1 most significant.  Every other module and the
CLI file formats rely on this ordering.
"""

import functools
import math
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


#: Integral vectors with entries up to this size, the int16 range of the
#: lattice points, multiply the split of tau cached on the matrix (_split).
_EXACT_SIZE = 2.0 ** 15


def _split(rm, size):
    """tau = coarse + fine for integral vectors with entries up to ``size``,
    as one real (g, 4g) array [coarse | fine], each part holding the real
    and imaginary part of every entry side by side: n @ split, reshaped to
    (N, 2, 2g) and viewed as complex, is (n^T coarse, n^T fine).

    coarse is tau rounded to a grid 2^k so fine that for such n and p every
    product n_g coarse_gh p_h, and every partial sum of them, is an integer
    multiple of the grid below 2^51 grids: n^T coarse and n^T coarse p are
    exact, summed in any order.  fine is at most half the grid, so its
    products are small and carry roundings of their own size.  Where
    n^T tau n or tau p cancel, as they do on a skewed tau, the sum of the
    two parts keeps the relative accuracy that a plain product loses.
    Cached on rm for size <= _EXACT_SIZE.
    """
    cached = size <= _EXACT_SIZE
    if cached and rm._split is not None:
        return rm._split
    size = max(size, _EXACT_SIZE)
    parts = rm.entries.view(float)
    grid = 2.0 ** (math.ceil(math.log2(size * size * np.abs(parts).sum()))
                   - 50)
    coarse = np.round(parts / grid) * grid
    split = np.concatenate([coarse, parts - coarse], axis=1)
    if cached:
        rm._split = split
    return split


def _split_products(rm, n):
    """(N, 2, g) complex: n^T coarse and n^T fine (_split) of every row of
    the integral n, (N, g)."""
    split = _split(rm, float(np.abs(n).max(initial=0)))
    return (n @ split).reshape(len(n), 2, 2 * len(split)).view(complex)


def _i_pi_quadratic(rm, n):
    """i pi n^T tau n for each row of the integral n, its phase
    pi n^T Re(tau) n reduced modulo 2 pi exactly (_split)."""
    whole, rest = np.vecdot(n[:, None, :], _split_products(rm, n)).T
    return np.pi * (1j * (np.fmod(whole.real, 2.0) + rest.real)
                    - (whole.imag + rest.imag))


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
        self._split = None  # _split of tau for the int16 range
        self._search = None  # _search_points
        self._points = np.zeros((0, self.g), dtype=np.int16)  # by ||T n||
        self._point_norms = np.zeros(0)
        self._points_radius = -1.0  # _points is complete up to this norm
        # one point of each pair {n, -n}: the origin and every n whose first
        # nonzero entry is positive, as ascending indices into _points
        self._reps = np.zeros(0, dtype=np.int32)
        # exp(i pi n^T tau n) per _reps, the origin's halved
        self._weights = np.zeros(0, dtype=complex)
        # the head of n = (h, m) is h, its first g - 1 coordinates: _head
        # numbers the heads of _reps by first appearance, _heads lists them
        self._head = np.zeros(0, dtype=np.int32)
        self._heads = np.zeros((0, self.g - 1))
        # shortest vector of T Z^g, exactly: no basis vector is shorter, so
        # the enumeration up to the shortest one holds it after the origin
        self.lattice_points(np.min(np.linalg.norm(self._chol, axis=0)))
        self._rho = float(self._point_norms[1])
        # least singular value of T, for the derivative tail bounds
        self._smin = float(np.linalg.svd(self._chol, compute_uv=False)[-1])
        # the factor of the tail bound that depends on the matrix only
        self._tail_scale = (self.g / 2.0) * (2.0 / self._rho) ** self.g \
            * gamma_fn(self.g / 2.0)
        self._half = None  # RiemannMatrix(tau / 2), for second_order_basis
        self._theta_scales = None  # geometry._theta_scales
        self._gamma00_conditions = None  # gamma00._condition_data

    def lattice_points(self, radius):
        """Integer points n (int16) with ||T n|| <= radius (rounded up to a
        quarter step), sorted by ||T n||: a prefix of the one cached point set,
        which only a larger radius re-enumerates.  The set is symmetric under
        n -> -n; its representatives _reps, their weights exp(i pi n^T tau n)
        (_weights) and their heads (_head, _heads) are rebuilt with it.
        """
        key = math.ceil(radius * 4.0) / 4.0
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
                quads.append(_i_pi_quadratic(self, kept))
            pts, norms = np.concatenate(pts), np.concatenate(norms)
            order = np.argsort(norms, kind="stable")
            self._points = pts[order]
            self._points.setflags(write=False)
            self._point_norms = norms[order]
            first = self._points[np.arange(len(order)),
                                 np.argmax(self._points != 0, axis=1)]
            self._reps = np.flatnonzero(first >= 0).astype(np.int32)
            self._weights = np.exp(np.concatenate(quads)[order[self._reps]])
            self._weights[0] = 0.5  # the origin, the pair {0, -0}
            del pts, norms, quads, order  # before the heads are numbered
            self._points_radius = key
            reps = self._points[self._reps]
            # a head's index in the box of the first g - 1 coordinates, the
            # box index of n over 2 widths[-1] + 1
            keys = np.zeros(len(reps), dtype=np.int64)
            for i in range(self.g - 1):
                keys = keys * int(2 * widths[i] + 1) \
                    + (reps[:, i] + int(widths[i]))
            firsts = np.full(int(np.prod(2 * widths[:-1] + 1)), len(reps),
                             dtype=np.int32)
            np.minimum.at(firsts, keys, np.arange(len(reps), dtype=np.int32))
            firsts = firsts[keys]  # where each rep's head first appears
            new = firsts == np.arange(len(reps))
            self._head = (np.cumsum(new, dtype=np.int32) - 1)[firsts]
            self._heads = reps[new, :-1].astype(float)
        stop = self._point_norms.searchsorted(key + 1e-12, side="right")
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
    arg = max(radius - offset - rm._rho / 2.0, 0.0) ** 2
    eps = rm._tail_scale * gammaincc(rm.g / 2.0, arg)
    if deriv_order:
        eps *= (2.0 * math.pi * (radius + 1.0) / rm._smin) ** deriv_order
    return eps


def _pick_radius(rm, tol, offset, deriv_order):
    """The first of 200 radii, r0 and then steps of 0.4, r0 = rho / 2
    + offset + sqrt(max(-log tol, 1)), whose tail bound is below tol.

    Scalar arithmetic throughout: most calls stop within four steps, and an
    array form over the candidates costs more in numpy calls than it saves
    in gammaincc calls.
    """
    if not tol > 0.0:  # the budget left floating range
        raise InvalidInput("theta series does not converge at this "
                           "tolerance", tol=tol)
    radius = rm._rho / 2.0 + offset + math.sqrt(max(-math.log(tol), 1.0))
    for _ in range(200):
        if _tail_bound(rm, radius, offset, deriv_order) < tol:
            return radius
        radius += 0.4
    raise InvalidInput("theta series does not converge at this tolerance",
                       tol=tol)


def _search_points(rm, radius):
    """(n, 2 pi n^T, ||T n||^2) of the n with ||T n|| <= radius: a float
    copy of a lattice_points prefix, kept on rm for the nearest-translate
    search and rebuilt only for a larger radius."""
    if rm._search is None or rm._search[0] < radius:
        points = rm.lattice_points(radius)
        norms = rm._point_norms[:len(points)]
        rm._search = (math.ceil(radius * 4.0) / 4.0, points.copy(),
                      np.ascontiguousarray(2.0 * np.pi * points.T),
                      norms.copy(), norms ** 2)
    _, points, scaled, norms, norms_sq = rm._search
    stop = norms.searchsorted(radius + 1e-12, side="right")
    return points[:stop], scaled[:, :stop], norms_sq[:stop]


def _nearest_translates(rm, W):
    """Reduce the arguments W (N, g) modulo the lattice Z^g + tau Z^g to
    the translates whose Gaussian centres are nearest the origin.

    RiemannMatrix.reduce rounds first.  The terms of its residual z are
    Gaussian in n around -c, c = Im(tau)^-1 Im z, and the translate
    z - tau n has centre c - n; its offset ||T (c - n)|| sets the radius
    and the boost of the sum.  A row with ||T c|| <= rho / 2 is already
    nearest, since every other translate is at least rho - rho / 2 away.
    For the others the optimum n has ||T n|| <= ||T (c - n)|| + ||T c||
    <= 2 ||T c||, so the search over the points of that norm is exact: it
    maximises ||T c||^2 - ||T (c - n)||^2 = 2 pi n^T Im z - ||T n||^2.

    Unless every row is near and its lattice part zero, the residual
    W_red = W - m - tau p is then formed again with tau p exact (_split),
    so it carries roundings of its own size, not of |tau p|: summed with
    lattice points n, an error d in it is a phase error 2 pi n^T d, and on
    a skewed tau both n and tau p are large.

    Returns (W_red, p, offset_sq, shift): W = W_red + m + tau p with m
    and p integral and the real parts of W_red in [-1/2, 1/2]; offset_sq
    (N,) the squared offset ||T c||^2 = pi y^T Im(tau)^-1 y, y = Im W_red,
    of every row; and shift (N,) = log theta(W) - log theta(W_red)
    = -i pi p^T tau p - 2 pi i p^T W_red, its phase reduced exactly.
    """
    W_red, _, p = rm.reduce(W)
    y = W_red.imag
    offset_sq = np.pi * np.vecdot(y, y @ rm._imag_inv.T)
    far = np.flatnonzero(offset_sq > rm._rho * rm._rho / 4.0)
    moved = False
    if len(far):
        points, scaled, norms_sq = _search_points(
            rm, 2.0 * math.sqrt(offset_sq[far].max()))
        step = max(_BLOCK // len(points), 1)
        for lo in range(0, len(far), step):
            rows = far[lo:lo + step]
            n = points[np.argmax(y[rows] @ scaled - norms_sq, axis=1)]
            p[rows] += n
            moved = moved or n.any()
    if not moved and not p.any():  # W_red = W - m exactly
        return W_red, p, offset_sq, np.zeros(len(W), dtype=complex)
    tau_p = _split_products(rm, p)
    W_red = (W - tau_p[:, 0]) - tau_p[:, 1]  # tau symmetric: (tau p)^T
    W_red -= np.round(W_red.real)
    quad = np.vecdot(p[:, None, :], tau_p)
    np.fmod(quad.real[:, 0], 2.0, out=quad.real[:, 0])
    shift = -1j * np.pi * (quad.sum(axis=1) + 2.0 * np.vecdot(p, W_red))
    if moved:
        y = W_red.imag
        offset_sq = np.pi * np.vecdot(y, y @ rm._imag_inv.T)
    return W_red, p, offset_sq, shift


#: The largest |Re x| of a factor exp(x) that a split sum may form, inside
#: floating range (exp overflows past 709).
_SPLIT_REACH = 600.0


def _lines(rm, stop, offset, y_last):
    """The summed representatives, those in lattice_points(...)[:stop], as
    lattice lines: (heads, lines, top), the representative (heads[j], m)
    with weight lines[j, top + m], -top <= m <= top.

    The heads are the first g - 1 coordinates while 2 R offset + 4 pi top
    y_last, R the largest ||T n|| summed, offset the largest ||T c|| and
    y_last the largest |Im z_g| of the rows, is at most _SPLIT_REACH (the
    intermediate bound of _series).  Otherwise each representative is its
    own head of all g coordinates and top = 0.
    """
    count = rm._reps.searchsorted(stop)
    head, m = rm._head[:count], rm._points[rm._reps[:count], -1]
    top = int(np.abs(m).max())
    reach = 2.0 * rm._point_norms[stop - 1] * offset \
        + 4.0 * np.pi * top * y_last
    if reach > _SPLIT_REACH:
        heads = rm._points[rm._reps[:count]].astype(float)
        head, m, top = np.arange(count), 0, 0
    else:
        heads = rm._heads[:head.max() + 1]
    lines = np.zeros((len(heads), 2 * top + 1), dtype=complex)
    lines[head, m + top] = rm._weights[:count]
    return heads, lines, top


@functools.lru_cache(maxsize=None)
def _inner_weights(top, n_pow, n_par):
    """(ms, weights) over -top <= m <= top: ms (2 top + 1, 2, 1) holds
    2 pi i m and -2 pi i m, and weights (2 top + 1, n_pow n_par, 1, 1)
    holds m^k (m mod n_par == p), k-major."""
    ms = np.arange(-top, top + 1)
    weights = (ms ** np.arange(n_pow)[:, None])[:, None] \
        * (ms % n_par == np.arange(n_par)[:, None])
    weights = weights.reshape(-1, len(ms)).T[..., None, None].astype(float)
    ms = _TWO_PI_I * np.stack([ms, -ms], axis=1)[..., None]
    ms.setflags(write=False)
    weights.setflags(write=False)
    return ms, weights


@functools.lru_cache(maxsize=None)
def _pair_signs(n_hc, d, deriv, n_pow, n_par):
    """(-1)^(order) of each head weight (1, h_k, h_k h_l per class of h)
    times each inner weight m^k (k-major, per parity), shaped
    (head weights, inner weights, 1)."""
    degree = np.repeat([0, 1, 2], [1, (deriv >= 1) * d, (deriv >= 2) * d * d])
    degree = np.tile(degree, n_hc)[:, None] + np.repeat(np.arange(n_pow),
                                                        n_par)
    signs = 1.0 - 2.0 * (degree[..., None] % 2)
    signs.setflags(write=False)
    return signs


def _series(rm, Z_red, offset_sq, tol, deriv, by_parity=False):
    """Truncated theta sums at reduced points, all orders 0..deriv at once.

    Z_red: (N, g) reduced arguments, summed at zero characteristic, and
    offset_sq (N,) their squared offsets ||T c||^2 (_nearest_translates).  The
    terms are summed into one class, or with ``by_parity`` into the 2^g
    classes of n mod 2 in the eps order.  Returns (results, radius,
    tail_bound) where results lists the values (N, C), then gradients
    (N, C, g) and Hessians (N, C, g, g) as needed.

    The terms of row z are Gaussian in n around -c, c = Im(tau)^-1 Im z,
    and the tail bound covers the n with ||T (n + c)|| > radius - offset,
    offset the largest ||T c|| of the rows.  Every other n has
    ||T n|| <= ||T (n + c)|| + ||T c|| <= radius, so summing
    lattice_points(radius) leaves out only points the bound covers.

    n and -n share the weight e^q = exp(i pi n^T tau n) and the class n mod
    2, and their linear terms are e and 1/e, e = exp(2 pi i n^T z).  So
    each pair is summed once, from one representative (the origin's weight
    halved): a weight of order k (1, n_k or n_k n_l) is even in n for even
    k, so the pair contributes e^q (e + (-1)^k / e) times the weight.

    Two-level sum: a representative is n = (h, m), its head h the first
    g - 1 coordinates, and z = (z', z_g), so e = E w^m with E = exp(2 pi i
    h^T z') and w = exp(2 pi i z_g).  With C[h, m] = e^q (zero where (h, m)
    is not summed) and V[m, r] = w_r^m over -M <= m <= M, the pairs of
    head h sum at row r to E (C V) + (-1)^k E^-1 (C V[::-1]), V[::-1] the
    powers w^-m: one exp per head and row, and complex matrix products for
    the inner sums.  A weight splits into a head weight (1, h_k, h_k h_l)
    and an inner weight (1, m, m^2), which scales the columns of C; the
    head weights reduce over the heads in one real matrix product.  With
    ``by_parity`` the class of (h, m) is 2 class(h) + (m mod 2): the
    columns of C are masked by the parity of m, and the head weights are
    taken once per class of h.

    Intermediate bound: every factor E, E^-1 and w^(+-m), and every product
    of them, is exp(x) with |Re x| <= 2 R offset + 4 pi M max |Im z_g|,
    R the largest ||T n|| summed, since |2 pi n^T Im z| <= 2 ||T n|| ||T c||.
    The split is taken only while that bound is at most _SPLIT_REACH = 600,
    inside floating range.  Otherwise each representative is its own head
    of all g coordinates and the inner range is {0}: the same code with one
    exp per pair, whose exponents stay below 2 R offset.
    """
    y = Z_red.imag
    largest = float(offset_sq.max(initial=0.0))
    offset = math.sqrt(largest)
    # omitted terms carry the factor exp(||T c||^2) = exp(pi y^T Y^-1 y)
    # inf past floating range: refused
    boost = math.exp(largest) if largest < 709.0 else math.inf
    margin = float(deriv)
    radius = _pick_radius(rm, tol / max(boost, 1.0), offset, deriv) + margin
    stop = len(rm.lattice_points(radius))  # may rebuild the caches
    heads, lines, top = _lines(rm, stop, offset,
                               float(np.abs(y[:, -1]).max(initial=0.0)))
    n_rows, g = Z_red.shape
    d = heads.shape[1]
    # the inner weights m^k (k <= deriv on a split sum, only 1 on an
    # unsplit one) under the masks of m mod n_par (every m without
    # by_parity); the class of (h, m) is (class of h) n_par + m mod n_par
    n_pow = deriv + 1 if d < g else 1
    n_par = 2 ** (g - d) if by_parity else 1
    ms, inner = _inner_weights(top, n_pow, n_par)  # w^(+-m) = exp(ms z_g)
    n_up = inner.shape[1]
    # the head weights 1, h_k and h_k h_l, per class of h with by_parity
    n_mono = 1 + (deriv >= 1) * d + (deriv >= 2) * d * d
    n_hc = 2 ** d if by_parity else 1
    signs = _pair_signs(n_hc, d, deriv, n_pow, n_par)
    n_cls = n_hc * n_par
    outs = [np.empty((n_rows, n_cls) + (g,) * k, dtype=complex)
            for k in range(deriv + 1)]
    step = max(_BLOCK // (n_up * (min(n_rows, 128) + len(ms))), 1)
    for start in range(0, n_rows, 128):
        rows = slice(start, min(start + 128, n_rows))
        n_b = rows.stop - start
        # w^m, then w^-m, of each row under every inner weight
        V = (inner * np.exp(ms * Z_red[rows, -1])[:, None]).reshape(
            len(ms), -1)
        e = np.empty((min(step, len(heads)), 1, 2 * n_b), dtype=complex)
        acc = np.zeros((n_hc * n_mono, n_up, 2, n_b), dtype=complex)
        for lo in range(0, len(heads), step):
            h = heads[lo:lo + step]
            k = len(h)
            # keep an elementwise op between the BLAS product and exp: exp
            # fed straight from it ran 3-4x slower on 2-vCPU x86 (AVX-SSE)
            e[:k, 0, :n_b] = np.exp(_TWO_PI_I * (h @ Z_red[rows, :d].T))
            np.divide(1.0, e[:k, 0, :n_b], out=e[:k, 0, n_b:])
            # E (C V) and E^-1 (C V[::-1]) under every inner weight
            terms = (lines[lo:lo + step] @ V).reshape(k, n_up, -1) * e[:k]
            mono = np.ones((n_mono, k))
            if deriv >= 1:
                mono[1:1 + d] = h.T
            if deriv >= 2:
                mono[1 + d:] = (h.T[:, None] * h.T).reshape(d * d, k)
            if by_parity:
                onehot = _class_index(h) == np.arange(n_hc)[:, None]
                mono = (onehot[:, None] * mono).reshape(-1, k)
            acc += (mono @ terms.reshape(k, -1).view(float)).view(complex) \
                .reshape(acc.shape)
        # the pair {n, -n} under a weight of order k: the E term plus
        # (-1)^k the E^-1 term; as (row, class, power of m, head weight)
        sums = (acc[:, :, 0] + signs * acc[:, :, 1]).reshape(
            n_hc, n_mono, n_pow, n_par, n_b).transpose(4, 0, 3, 2, 1) \
            .reshape(n_b, n_cls, n_pow, n_mono)
        outs[0][rows] = sums[..., 0, 0]
        if deriv >= 1:
            outs[1][rows, :, :d] = sums[..., 0, 1:1 + d]
        if deriv >= 2:
            outs[2][rows, :, :d, :d] = sums[..., 0, 1 + d:].reshape(
                n_b, n_cls, d, d)
        if d < g and deriv >= 1:
            outs[1][rows, :, -1] = sums[..., 1, 0]
        if d < g and deriv >= 2:
            outs[2][rows, :, :d, -1] = outs[2][rows, :, -1, :d] \
                = sums[..., 1, 1:1 + d]
            outs[2][rows, :, -1, -1] = sums[..., 2, 0]
    for k in range(1, deriv + 1):
        outs[k] *= _TWO_PI_I ** k
    tail = boost * _tail_bound(rm, radius - margin, offset, deriv)
    return outs, radius, tail


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
    growth = np.abs(pre[:, 0])
    if len(outs) > 1:
        growth = growth * (1.0 + np.sqrt(np.vecdot(shift, shift).real)) \
            ** (len(outs) - 1)
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
    if char is not None and char.g != rm.g:
        raise InvalidInput("characteristic length does not match genus")
    if char is None or not any(char.eps_prime + char.eps_dblprime):
        W, log_pre, a = Z, 0.0, 0.0
    else:
        a, b, tau = char.a, char.b, rm.entries
        W = Z + b + tau @ a
        log_pre = 1j * np.pi * (a @ tau @ a) + _TWO_PI_I * ((Z + b) @ a)
    W_red, p, offset_sq, shift = _nearest_translates(rm, W)
    outs, radius, tail = _series(rm, W_red, offset_sq, tol, deriv)
    jet, tail = _unreduce(log_pre + shift, _TWO_PI_I * (a - p), outs, tail)
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
    Z_red, q, offset_sq, shift = _nearest_translates(rm._half, Z)
    outs, radius, tail = _series(rm._half, Z_red, offset_sq, tol, deriv,
                                 by_parity=True)
    # class eps at Z is class eps XOR (q mod 2) at Z_red
    classes = np.arange(2 ** rm.g)[None, :] ^ _class_index(q)[:, None]
    rows = np.arange(len(Z))[:, None]
    outs = [o[rows, classes] for o in outs]
    jet, tail = _unreduce(shift, -_TWO_PI_I * q, outs, tail)
    return tuple(o[0] if squeeze else o for o in jet), radius, tail
