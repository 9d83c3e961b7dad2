"""Error-controlled Riemann theta functions with half-integer characteristics.

Every sum runs at zero characteristic over the origin-centred point set
||T n|| <= R, with T the Cholesky factor of pi * Im(tau).  R is chosen from
the Gaussian tail estimate so that the omitted mass is below the requested
tolerance; the estimate charges the offset of each row's Gaussian centre
from the origin once, and that ball around the origin contains every
centred ball the estimate leaves unbounded.  The estimate (Deconinck et
al., Math. Comp. 73 (2004)) is (g/2) (2/rho)^g Gamma(g/2) Q(g/2, x),
x = (R - offset - rho/2)^2, rho the shortest ||T n|| and Q the regularized
upper incomplete gamma function.  Its order g/2 is an integer or a
half-integer, where Q has a closed form (NIST DLMF 8.4): Q(k, x) = e^-x
times the sum of x^j / j! over j < k, and Q(1/2, x) = erfc(sqrt x) raised
by Q(s + 1, x) = Q(s, x) + x^s e^-x / Gamma(s + 1) (_gammaincc_half).

A characteristic [a, b] is folded into the argument, theta[a, b](z)
= exp(i pi a^T tau a + 2 pi i a^T (z + b)) theta(z + b + tau a).
Arguments are reduced modulo the period lattice and the exact prefactors
are reapplied, with their product-rule terms for derivatives, so returned
values and derivatives are the true (unreduced) ones at any argument.

The offset sets both R and the factor exp(||T c||^2) that the tail bound
carries, so each row is summed at its nearest lattice translate in the
||T .|| metric, not where rounding the coordinates left it: near the
corners of the rounding cell, where half-periods sit, the two differ
(the 20 rows of the genus-5 Riemann-constant certificate: largest offset
3.10 after rounding, 1.53 at the nearest translates).  Rounding stays
the one reduction; the nearest translate is an exact search over the
lattice points with ||T n|| <= 2 ||T c|| (the short-vector search of
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

Theta-divisor membership and smoothness have one judge, _judged, at the
point against the series' own absolute sums A_k, the norm of the order-k
sums of the moduli of the terms: a computed sum is zero to working
precision relative to them (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., Ch. 3-4).  A point is on the divisor when its
residual |theta| / A_0 is below ON_THETA_TOL, and smooth when
||grad theta|| > SMOOTHNESS_THRESHOLD A_1.  The residual is a relative
size, not a proven distance to the divisor.

Characteristic ordering convention: eps in {0,1}^g is indexed
lexicographically with eps_1 most significant.  Every other module and the
CLI file formats rely on this ordering.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure

TOL_FLOOR = 1e-15
TOL_CEIL = 1e-3
DEFAULT_THETA_TOL = 1e-10
#: |theta| / A_0 below which a point counts as on the divisor (_judged).
ON_THETA_TOL = 1e-8
#: ||grad theta|| / A_1 (||H|| / A_2) above which a point is smooth (order 2).
SMOOTHNESS_THRESHOLD = 1e-6

_TWO_PI_I = 2j * np.pi
_SQRT_PI = math.sqrt(math.pi)


#: Lattice points x (rows + term weights) per block of a theta sum, and box
#: points per enumeration slab: a call's memory is bounded at any radius.
_BLOCK = 1 << 16


def _quarter(radius):
    """radius rounded up to a quarter step: the key of a point set."""
    return math.ceil(radius * 4.0) / 4.0


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
    immutable.  A tau symmetric to 1e-10 relative is accepted and stored
    as the average 0.5 (tau + tau^T), and theta is that of the stored
    average.  So a tau symmetric only up to rounding (U^T tau U formed in
    floating point, say) is taken at that average, which can differ from a
    sum over its entries as given by more than the tail bound.
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
        # ||T n|| <= r bounds |n_i| by r times the norm of row i of T^-1
        self._box_rates = np.linalg.norm(np.linalg.inv(self._chol),
                                         axis=1).tolist()
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
        # the enumeration up to the shortest one holds it after the origin;
        # its norms alone, the cached point set is built for the sums
        self._rho = float(self._ball(_quarter(np.min(np.linalg.norm(
            self._chol, axis=0))))[1][1])
        # least singular value of T, for the derivative tail bounds
        self._smin = float(np.linalg.svd(self._chol, compute_uv=False)[-1])
        # the factor of the tail bound that depends on the matrix only
        self._tail_scale = (self.g / 2.0) * (2.0 / self._rho) ** self.g \
            * math.gamma(self.g / 2.0)
        self._half = None  # RiemannMatrix(tau / 2), for second_order_basis
        self._gamma00_conditions = None  # gamma00._condition_data

    def _ball(self, key):
        """(points, norms, index, shape): the integer points n (int16) with
        ||T n|| <= key and their norms, sorted by ||T n|| (a stable sort of
        the box order, so ties keep it), with their lexicographic indices
        in their bounding box of that shape.  The box is scanned in slabs
        of _BLOCK points, so the memory is bounded at any radius; the
        points of a smaller key are a prefix, bitwise, of a larger key's.
        """
        shape = tuple(2 * math.floor(key * rate) + 1
                      for rate in self._box_rates)
        size, centre = math.prod(shape), np.array(shape) // 2
        points, norms, index = [], [], []
        for lo in range(0, size, _BLOCK):
            slab = np.stack(np.unravel_index(
                np.arange(lo, min(lo + _BLOCK, size)), shape), axis=1) \
                - centre
            slab_norms = np.linalg.norm(slab @ self._chol.T, axis=1)
            keep = np.flatnonzero(slab_norms <= key + 1e-12)
            points.append(slab[keep].astype(np.int16))
            norms.append(slab_norms[keep])
            index.append(keep + lo)
        norms = np.concatenate(norms)
        order = np.argsort(norms, kind="stable")
        return (np.concatenate(points)[order], norms[order],
                np.concatenate(index)[order], shape)

    def lattice_points(self, radius):
        """Integer points n (int16) with ||T n|| <= radius (rounded up to a
        quarter step), sorted by ||T n||: a prefix of the one cached point set,
        which only a larger radius re-enumerates.  The set is symmetric under
        n -> -n; its representatives _reps, their weights exp(i pi n^T tau n)
        (_weights) and their heads (_head, _heads) are rebuilt with it.
        """
        key = _quarter(radius)
        if key > self._points_radius:
            self._build(key)
        stop = self._point_norms.searchsorted(key + 1e-12, side="right")
        return self._points[:stop]

    def _build(self, key):
        """Enumerate the cached point set up to ``key`` (_ball) and derive
        its representatives, their weights and their heads."""
        points, norms, index, shape = self._ball(key)
        size = math.prod(shape)
        points.setflags(write=False)
        self._points, self._point_norms = points, norms
        self._points_radius = key
        # n is lexicographically after -n, its first nonzero entry positive,
        # exactly when its box index is past the box centre's
        self._reps = np.flatnonzero(index >= size // 2).astype(np.int32)
        reps = points[self._reps]
        self._weights = np.exp(_i_pi_quadratic(self, reps))
        self._weights[0] = 0.5  # the origin, the pair {0, -0}
        # a head's index in the box of the first g - 1 coordinates is the
        # box index of n over the last width
        keys = index[self._reps] // shape[-1]
        firsts = np.full(size // shape[-1], len(reps), dtype=np.int32)
        np.minimum.at(firsts, keys, np.arange(len(reps), dtype=np.int32))
        firsts = firsts[keys]  # where each rep's head first appears
        new = firsts == np.arange(len(reps))
        self._head = (np.cumsum(new, dtype=np.int32) - 1)[firsts]
        self._heads = reps[new, :-1].astype(float)

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
        return self._reduce(Z)[:3]

    def _reduce(self, Z):
        """reduce(Z) and the Gaussian centres Y^-1 Im Z_reduced of its
        rows, which the cell check forms."""
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
            centres = Z_red.imag @ self._imag_inv.T
            cell = np.maximum(np.abs(Z_red.real), np.abs(centres))
        if not np.all(cell <= 0.5 + 1e-6):
            raise NumericalFailure("argument is too far from the "
                                   "fundamental cell to reduce exactly")
        return Z_red, m, p, centres


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


def _gammaincc_half(g, x):
    """Q(g / 2, x) = Gamma(g / 2, x) / Gamma(g / 2) for x >= 0, in the
    closed form of the module docstring.  Every term is positive, so the
    sum keeps their relative accuracy; where e^-x underflows they are 0.
    """
    e = math.exp(-x)
    if g % 2 == 0:
        total, term, s = 0.0, e, 1.0
    else:
        t = math.sqrt(x)
        total, term, s = math.erfc(t), 2.0 * t * e / _SQRT_PI, 1.5
        if g == 1 and x:
            # erfc(t) is Q(1/2, t^2), and t^2 misses x by r = x - t^2, up
            # to an ulp of x; to first order that moves Q by -term r / (2 x),
            # relatively about r at large x (1e-13 near x = 700).  r comes
            # accurately from the halves of t (Veltkamp's split, Dekker's
            # product).  At g >= 3 the erfc term is about 1 / (2 x) of Q
            # there, and the slip stays at rounding level.
            c = 134217729.0 * t
            hi = c - (c - t)
            lo = t - hi
            r = ((x - hi * hi) - 2.0 * hi * lo) - lo * lo
            total -= term * r / (2.0 * x)
    for j in range(g // 2):
        total += term
        term *= x / (s + j)
    return total


def _tail_bound(rm, radius, offset, deriv_order):
    arg = max(radius - offset - rm._rho / 2.0, 0.0) ** 2
    eps = rm._tail_scale * _gammaincc_half(rm.g, arg)
    if deriv_order:
        eps *= (2.0 * math.pi * (radius + 1.0) / rm._smin) ** deriv_order
    return eps


def _pick_radius(rm, tol, offset, deriv_order):
    """The first of 200 radii, r0 and then steps of 0.4, r0 = rho / 2
    + offset + sqrt(max(-log tol, 1)), whose tail bound is below tol.

    Scalar arithmetic throughout: most calls stop within four or five
    steps of about 1 us each, the closed form _gammaincc_half on math
    scalars, and an array form over the candidates costs more in numpy
    calls than those steps.
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
    """(n, 2 pi n^T, ||T n||^2) of the n with ||T n|| <= radius, kept on rm
    for the nearest-translate search and rebuilt only for a larger radius:
    a copy of a lattice_points prefix when the cached set covers the
    radius, else the points and norms alone of their own enumeration
    (RiemannMatrix._ball), the same arrays bitwise."""
    if rm._search is None or rm._search[0] < radius:
        key = _quarter(radius)
        if key <= rm._points_radius:
            points = rm.lattice_points(key).copy()
            norms = rm._point_norms[:len(points)].copy()
        else:
            points, norms, _, _ = rm._ball(key)
        rm._search = (key, points,
                      np.ascontiguousarray(2.0 * np.pi * points.T),
                      norms, norms ** 2)
    _, points, scaled, norms, norms_sq = rm._search
    stop = norms.searchsorted(radius + 1e-12, side="right")
    return points[:stop], scaled[:, :stop], norms_sq[:stop]


def _nearest_translates(rm, W):
    """Reduce the arguments W (N, g) modulo the lattice Z^g + tau Z^g to
    the translates whose Gaussian centres are nearest the origin.

    RiemannMatrix._reduce rounds first, as reduce does, and returns the
    centres c = Im(tau)^-1 Im z of its residuals z, which its cell check
    forms.  The terms of z are Gaussian in n around -c, and the translate
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
    W_red, _, p, centres = rm._reduce(W)
    y = W_red.imag
    offset_sq = np.pi * np.vecdot(y, centres)
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


def _series(rm, Z_red, offset_sq, tol, deriv, by_parity=False,
            absolute=False):
    """Truncated theta sums at reduced points, all orders 0..deriv at once.

    Z_red: (N, g) reduced arguments, summed at zero characteristic, and
    offset_sq (N,) their squared offsets ||T c||^2 (_nearest_translates).  The
    terms are summed into one class, or with ``by_parity`` into the 2^g
    classes of n mod 2 in the eps order.  results lists the values (N, C),
    then gradients (N, C, g) and Hessians (N, C, g, g) as needed.

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

    With ``absolute`` (one class only) the pass also sums the moduli of the
    terms, (2 pi)^k |n_i ...| |term| per entry of order k: over a pair
    |e^q| (|e| + 1/|e|), the same sums on |C|, |V|, |E| and |weight|.  They
    add a quarter to a one-row call, so only callers that read them ask.
    Returns (results, moduli or None, radius, tail_bound).
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
    moduli = [np.empty((n_rows, 1) + (g,) * k)
              for k in range(deriv + 1)] if absolute else None
    step = max(_BLOCK // (n_up * (min(n_rows, 128) + len(ms))), 1)
    for start in range(0, n_rows, 128):
        rows = slice(start, min(start + 128, n_rows))
        n_b = rows.stop - start
        # w^m, then w^-m, of each row under every inner weight
        V = (inner * np.exp(ms * Z_red[rows, -1])[:, None]).reshape(
            len(ms), -1)
        e = np.empty((min(step, len(heads)), 1, 2 * n_b), dtype=complex)
        acc = np.zeros((n_hc * n_mono, n_up, 2, n_b), dtype=complex)
        if absolute:
            abs_lines, abs_V = np.abs(lines), np.abs(V)
            abs_acc = np.zeros((n_mono,) + acc.shape[1:])
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
            if absolute:
                mods = (abs_lines[lo:lo + step] @ abs_V).reshape(
                    k, n_up, -1) * np.abs(e[:k])
                abs_acc += (np.abs(mono) @ mods.reshape(k, -1)).reshape(
                    abs_acc.shape)
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
        _place(outs, rows, sums, d)
        if absolute:
            _place(moduli, rows,
                   abs_acc.sum(axis=2).transpose(2, 1, 0)[:, None], d)
    for k in range(1, deriv + 1):
        outs[k] *= _TWO_PI_I ** k
        if absolute:
            moduli[k] *= (2.0 * np.pi) ** k
    tail = boost * _tail_bound(rm, radius - margin, offset, deriv)
    return outs, moduli, radius, tail


def _place(outs, rows, sums, d):
    """Write block sums (rows, classes, powers of m, head weights) of
    _series into the jet ``outs`` at ``rows``."""
    outs[0][rows] = sums[..., 0, 0]
    if len(outs) > 1:
        outs[1][rows, :, :d] = sums[..., 0, 1:1 + d]
    if len(outs) > 2:
        outs[2][rows, :, :d, :d] = sums[..., 0, 1 + d:].reshape(
            sums.shape[:2] + (d, d))
    if len(outs) > 1 and d < outs[1].shape[-1]:
        outs[1][rows, :, -1] = sums[..., 1, 0]
    if len(outs) > 2 and d < outs[1].shape[-1]:
        outs[2][rows, :, :d, -1] = outs[2][rows, :, -1, :d] \
            = sums[..., 1, 1:1 + d]
        outs[2][rows, :, -1, -1] = sums[..., 2, 0]


@np.errstate(over="ignore", invalid="ignore")
def _unreduce(log_pre, shift, outs, moduli, tail):
    """The jet of exp(log_pre) f from the jet ``outs`` of f, and its tail
    bound, where log_pre (N,) is affine in z with gradient shift (N, g).

    Applies the prefactor to every order, with the product-rule terms of
    its z-dependence for the derivatives.  Each product-rule term
    multiplies an order whose error is below ``tail`` by entries of shift,
    so the error of the jet is below |prefactor| (1 + ||shift||)^deriv
    tail.  The absolute sums ``moduli`` (or None) take the product rule on
    |prefactor| and |shift|.  Returns (jet, moduli, tail_bound).  Raises
    NumericalFailure, and issues no floating-point warning, when any entry
    overflows.
    """
    pre = np.exp(log_pre)[:, None]
    growth = np.abs(pre[:, 0])
    if len(outs) > 1:
        growth = growth * (1.0 + np.sqrt(np.vecdot(shift, shift).real)) \
            ** (len(outs) - 1)
    shift = shift[:, None, :]
    jet = _product_rule(pre, shift, outs)
    if moduli is not None:
        moduli = _product_rule(np.abs(pre), np.abs(shift), moduli)
    tail = tail * float(np.max(growth))
    if not (np.isfinite(tail)
            and all(np.all(np.isfinite(order))
                    for order in jet + (moduli or []))):
        raise NumericalFailure("theta value is not finite: the argument is "
                               "too far from the fundamental cell")
    return jet, moduli, tail


def _product_rule(pre, shift, outs):
    """The jet of pre(z) f(z) from the jet ``outs`` (N, C, g, ...) of f,
    where pre (N, 1) has gradient pre shift, shift (N, 1, g) constant."""
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
    return jet


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
    jet, _, radius, tail = _theta(rm, Z, char, tol, deriv, False)
    return tuple(o[0] if squeeze else o for o in jet), radius, tail


def _theta(rm, Z, char, tol, deriv, absolute):
    """theta_batch at the arguments Z (N, g) of the RiemannMatrix rm:
    (jet, sums, radius, tail_bound), sums None or, with ``absolute``, the
    A_k (N,), k <= deriv: the norm over the order-k entries of the sums of
    the moduli of their terms at the raw arguments (_series, _unreduce)."""
    if char is None or not any(char.eps_prime + char.eps_dblprime):
        W, log_pre, a = Z, 0.0, 0.0
    else:
        a, b, tau = char.a, char.b, rm.entries
        W = Z + b + tau @ a
        log_pre = 1j * np.pi * (a @ tau @ a) + _TWO_PI_I * ((Z + b) @ a)
    W_red, p, offset_sq, shift = _nearest_translates(rm, W)
    outs, moduli, radius, tail = _series(rm, W_red, offset_sq, tol, deriv,
                                         absolute=absolute)
    jet, moduli, tail = _unreduce(log_pre + shift, _TWO_PI_I * (a - p),
                                  outs, moduli, tail)
    sums = moduli and [np.linalg.norm(m.reshape(len(m), -1), axis=1)
                       for m in moduli]
    return [o[:, 0] for o in jet], sums, radius, tail


def _judged(rm, Z, deriv):
    """(jet, sums, residuals, smooth): the theta jet at the points Z (N, g)
    up to order ``deriv``, its absolute sums A_k (_theta), the residuals
    |theta| / A_0 and, at deriv >= 1, the smoothness verdicts.  A point is
    on the divisor when its residual is below ON_THETA_TOL."""
    jet, sums, _, _ = _theta(rm, Z, None, DEFAULT_THETA_TOL, deriv, True)
    residuals = np.abs(jet[0]) / sums[0]
    smooth = deriv and (residuals < ON_THETA_TOL) & (
        np.linalg.norm(jet[1], axis=1) > SMOOTHNESS_THRESHOLD * sums[1])
    return jet, sums, residuals, smooth


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
    outs, _, radius, tail = _series(rm._half, Z_red, offset_sq, tol, deriv,
                                    by_parity=True)
    # class eps at Z is class eps XOR (q mod 2) at Z_red
    classes = np.arange(2 ** rm.g)[None, :] ^ _class_index(q)[:, None]
    rows = np.arange(len(Z))[:, None]
    outs = [o[rows, classes] for o in outs]
    jet, _, tail = _unreduce(shift, -_TWO_PI_I * q, outs, None, tail)
    return tuple(o[0] if squeeze else o for o in jet), radius, tail
