"""The acceptance battery: twelve named criteria over the reference curves.

Each criterion is a function returning a details dict with a ``passed``
flag and the measured residuals, so both the test suite and the command
line runner report the same numbers.  Expensive data is shared through
a lazy context: the periods and Riemann constant of each genus, and the
theta trisecant of each (genus, seed).
"""

import time
from itertools import combinations
from math import comb

import numpy as np

from . import curves as cv
from . import geometry as ge
from . import secants as se
from . import gamma00 as g00
from .errors import InvalidInput
from .theta import (theta_batch, second_order_basis, all_epsilons,
                    HalfCharacteristic, ON_THETA_TOL)

DEFAULT_SEED = 20260823


def reference_curve(genus):
    """y^2 = x(x-1)...(x-2g), the fixed test family."""
    coeffs = np.poly(range(2 * genus + 1))[::-1]
    return cv.HyperellipticCurve(tuple(float(c) for c in coeffs))


class Context:
    """Lazy per-genus cache of periods and Riemann constant of the
    reference curves, and of the theta trisecant per (genus, seed)."""

    def __init__(self):
        self._periods = {}
        self._kappa = {}
        self._trisecants = {}

    def curve(self, g):
        return reference_curve(g)

    def periods(self, g):
        if g not in self._periods:
            self._periods[g] = cv.period_matrix(self.curve(g))
        return self._periods[g]

    def kappa(self, g):
        if g not in self._kappa:
            self._kappa[g] = cv.riemann_constant(self.curve(g),
                                                 self.periods(g))[0]
        return self._kappa[g]

    def theta_trisecant(self, g, seed):
        """(triple, certificate, report figures) of the theta trisecant of
        the B3 sample with this seed, built once per (g, seed)."""
        if (g, seed) not in self._trisecants:
            curve = self.curve(g)
            sample = cv.sample_B_ell(curve, 3, seed=seed)
            tri, cert, halving = se.theta_trisecant(
                curve, self.periods(g), sample, self.kappa(g))
            dists = [u.lattice_distance(v)
                     for u, v in combinations(tri.lifts, 2)]
            self._trisecants[(g, seed)] = tri, cert, {
                "theta_residuals": list(cert.theta_residuals),
                "collinearity_gap": cert.rank_cert.gap_ratio,
                "gauss_angles": list(cert.gauss_angles),
                "halving_residual": float(halving),
                "pairwise_distances": [float(d) for d in dists],
            }
        return self._trisecants[(g, seed)]


def _agm(a, b):
    for _ in range(80):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        if abs(a - b) < 1e-16 * abs(a):
            break
    return a


def criterion_elliptic_periods(ctx, seed):
    """Genus-1 period ratio against an arithmetic-geometric-mean oracle."""
    t0 = time.time()
    periods = ctx.periods(1)
    tau = complex(periods.tau.entries[0, 0])
    e1, e2, e3 = ctx.curve(1).roots
    m = (e2 - e1) / (e3 - e1)
    K = np.pi / (2.0 * _agm(1.0, np.sqrt(1.0 - m)))
    Kp = np.pi / (2.0 * _agm(1.0, np.sqrt(m)))
    oracle = 1j * Kp / K
    err = abs(tau - oracle)
    runtime = time.time() - t0
    return {"passed": bool(err < 1e-9 and runtime < 1.0),
            "tau": tau, "oracle": complex(oracle),
            "error": float(err)}


def criterion_theta_identities(ctx, seed):
    """Addition formula, quasi-periodicity and characteristic parity."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    worst_add = 0.0
    worst_qp = 0.0
    worst_par = 0.0
    for g in (2, 3):
        rm = ctx.periods(g).tau
        Z = rng.standard_normal((100, g)) + 0.25j * rng.standard_normal((100, g))
        W = rng.standard_normal((100, g)) + 0.25j * rng.standard_normal((100, g))
        (bz,), _, _ = second_order_basis(rm, Z)
        (bw,), _, _ = second_order_basis(rm, W)
        lhs = np.einsum("ne,ne->n", bz, bw)
        (tp,), _, _ = theta_batch(rm, Z + W)
        (tm,), _, _ = theta_batch(rm, Z - W)
        rhs = tp * tm
        worst_add = max(worst_add, float(np.max(np.abs(lhs - rhs)
                                                / np.abs(rhs))))

        # quasi-periodicity with the exact automorphy factor
        m = rng.integers(-2, 3, size=g).astype(float)
        p = rng.integers(-2, 3, size=g).astype(float)
        shift = m + rm.entries @ p
        (v0,), _, _ = theta_batch(rm, Z[:20])
        (v1,), _, _ = theta_batch(rm, Z[:20] + shift)
        factor = np.exp(-1j * np.pi * (p @ rm.entries @ p)
                        - 2j * np.pi * (Z[:20] @ p))
        worst_qp = max(worst_qp, float(np.max(
            np.abs(v1 - factor * v0) / np.abs(factor * v0))))

        # odd characteristics vanish at 0; theta(-z) = (-1)^parity theta(z)
        origin = np.zeros(g)
        z = Z[0]
        for eps_p in all_epsilons(g):
            for eps_pp in all_epsilons(g):
                char = HalfCharacteristic(eps_p, eps_pp)
                (vp,), _, _ = theta_batch(rm, z, char=char)
                (vm,), _, _ = theta_batch(rm, -z, char=char)
                sign = (-1.0) ** char.parity
                worst_par = max(worst_par, float(
                    abs(vm - sign * vp) / max(abs(vp), 1e-12)))
                if char.parity == 1:
                    (v0c,), _, _ = theta_batch(rm, origin, char=char)
                    worst_par = max(worst_par, float(abs(v0c)))
    runtime = time.time() - t0
    return {"passed": bool(worst_add < 1e-9 and worst_qp < 1e-9
                           and worst_par < 1e-9 and runtime < 30.0),
            "addition_residual": worst_add,
            "quasi_periodicity_residual": worst_qp,
            "parity_residual": worst_par}


def criterion_derivatives(ctx, seed):
    """Gradient and Hessian against central finite differences (genus 2),
    all read off one jet at z and the four points z +- h e_i."""
    rng = np.random.default_rng(seed)
    rm = ctx.periods(2).tau
    h = 1e-5
    steps = h * np.eye(2)
    worst = 0.0
    for _ in range(20):
        z = rng.standard_normal(2) + 0.25j * rng.standard_normal(2)
        (vals, grads, hess), _, _ = theta_batch(
            rm, np.concatenate([z[None], z + steps, z - steps]), deriv=2)
        grad, hess = grads[0], hess[0]
        for i in range(2):
            fd = (vals[1 + i] - vals[3 + i]) / (2 * h)
            worst = max(worst, abs(fd - grad[i]) / max(abs(grad[i]), 1.0))
            fdh = (grads[1 + i] - grads[3 + i]) / (2 * h)
            for j in range(2):
                worst = max(worst, abs(fdh[j] - hess[i, j])
                            / max(abs(hess[i, j]), 1.0))
    return {"passed": bool(worst < 1e-7), "worst_residual": float(worst)}


def criterion_riemann_constant(ctx, seed):
    """The branch-point kappa makes theta vanish on twenty fresh divisors
    of degree g-1, drawn with seeds other than its own certificate's."""
    worst = 0.0
    for g in (2, 3, 4):
        curve = ctx.curve(g)
        periods = ctx.periods(g)
        worst = max(worst, cv._kappa_residual(
            periods, ctx.kappa(g).z, cv._random_divisor_lifts(
                curve, periods, 20, np.random.default_rng(seed + 17 * g))))
    return {"passed": bool(worst < ON_THETA_TOL), "worst_residual": worst}


def criterion_fay(ctx, seed):
    """Rank-drop certificates for ten random quadruples, and full rank for
    ten random control triples."""
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    controls_fail = True
    for g in (2, 3):
        curve = ctx.curve(g)
        periods = ctx.periods(g)
        for _ in range(10):
            _, cert = se.fay_trisecant(curve, periods, rng)
            if not (cert.rank_cert.decided_rank <= 2
                    and all(cert.general_position)):
                return {"passed": False, "failed_at": ("fay", g)}
            worst_gap = max(worst_gap, cert.rank_cert.gap_ratio)
        for _ in range(10):
            lifts = [cv.JacobianLift(rng.standard_normal(g)
                                     + 0.3j * rng.standard_normal(g),
                                     periods.tau) for _ in range(3)]
            cert = se.certify_secant(periods.tau, lifts)
            if cert.rank_cert.decided_rank != 3:
                controls_fail = False
    return {"passed": bool(worst_gap < 1e-6 and controls_fail),
            "worst_gap_ratio": float(worst_gap),
            "controls_full_rank": bool(controls_fail)}


def criterion_theta_trisecant(ctx, seed):
    """Theta-divisor trisecants from canonical-divisor samples, g=3 and 4."""
    t0 = time.time()
    out = {}
    ok = True
    for g in (3, 4):
        _, cert, rep = ctx.theta_trisecant(g, seed + g)
        ok = ok and cert.on_theta \
            and rep["collinearity_gap"] < 1e-6 \
            and (not rep["gauss_angles"]
                 or max(rep["gauss_angles"]) < 1e-6) \
            and rep["halving_residual"] < se.HALVING_TOL \
            and min(rep["pairwise_distances"]) > 1e-3 \
            and cert.passes
        out[f"g{g}"] = rep
    out["passed"] = bool(ok and time.time() - t0 < 120.0)
    return out


def criterion_gauss_hyperplane(ctx, seed):
    """Gradient-hyperplane containment of the constructing divisor."""
    worst = 0.0
    for g in (3, 4):
        curve = ctx.curve(g)
        periods = ctx.periods(g)
        tri, _, _ = ctx.theta_trisecant(g, seed + g)
        sample = tri.data["sample"]
        p, q, r, s = sample.labeled_pqrs
        supports = {"a": (p, s), "b": (p, r)}
        for name, lift in (("a", tri.a), ("b", tri.b)):
            image = ge.gauss_map(periods.tau, lift)
            if not image.defined:
                return {"passed": False, "failed_at": (g, name)}
            for pt in (*supports[name], *sample.double_points):
                d = ge.canonical_direction(curve, periods, pt)
                worst = max(worst,
                            ge.hyperplane_residual(image.direction, d))
    return {"passed": bool(worst < 1e-6), "worst_residual": float(worst)}


def criterion_fiber_multiplicity(ctx, seed):
    """Fiber combinatorics: the 4P0 fiber and the binomial identity."""
    fiber = ge.gauss_fiber_enumerate([4], genus=3)
    single = fiber == [((2,), 6)]
    rng = np.random.default_rng(seed)
    identity = True
    for _ in range(50):
        g = int(rng.integers(2, 7))
        parts = []
        left = 2 * g - 2
        while left > 0:
            n = int(rng.integers(1, left + 1))
            parts.append(n)
            left -= n
        total = sum(m for _, m in ge.gauss_fiber_enumerate(parts, g))
        if total != comb(2 * g - 2, g - 1):
            identity = False
    return {"passed": bool(single and identity),
            "single_entry_mult6": single, "binomial_identity": identity}


def criterion_multisecant(ctx, seed):
    """Quadrisecant battery at genus 5: rank, divisor membership, Gauss
    constancy, and the distinct-point count over all partitions.

    The count assertion (20 points) encodes the generic-position count;
    on hyperelliptic curves the simple points pair under the involution
    and subsets containing a full pair give one divisor class, so the
    observed count is 2^(l-1) + (2l-2) = 14.  The criterion is reported
    honestly and fails on that sub-check.
    """
    t0 = time.time()
    g, ell = 5, 4
    curve = ctx.curve(g)
    periods = ctx.periods(g)
    kappa = ctx.kappa(g)
    rng = np.random.default_rng(seed)
    ps = [cv.random_curve_point(curve, rng) for _ in range(ell)]
    qs = [cv.random_curve_point(curve, rng) for _ in range(ell - 2)]
    _, gcert = se.gunning_construct(curve, periods, ps, qs)
    gunning_ok = (gcert.rank_cert.decided_rank <= ell - 1
                  and gcert.rank_cert.gap_ratio < 1e-5
                  and all(gcert.general_position))

    sample = cv.sample_B_ell(curve, ell, seed=seed)
    certs, distinct = se.multisecant_sweep(curve, periods, sample, kappa)
    ranks_ok = all(c.rank_cert.decided_rank <= ell - 1 for c in certs)
    worst_gap = max(c.rank_cert.gap_ratio for c in certs)
    worst_theta = max(max(c.theta_residuals) for c in certs)
    worst_angle = max(max(c.gauss_angles, default=0.0) for c in certs)
    runtime = time.time() - t0
    expected = comb(2 * ell - 2, ell - 1)
    count_ok = (len(distinct) == expected)
    passed = (gunning_ok and ranks_ok and worst_gap < 1e-5
              and worst_theta < 1e-6 and worst_angle < 1e-5
              and count_ok and runtime < 600.0)
    return {"passed": bool(passed),
            "gunning_gap_ratio": float(gcert.rank_cert.gap_ratio),
            "worst_partition_gap": float(worst_gap),
            "worst_theta_residual": float(worst_theta),
            "worst_gauss_angle": float(worst_angle),
            "distinct_points": len(distinct),
            "expected_distinct": expected,
            "count_ok": bool(count_ok)}


def criterion_gamma00_dimension(ctx, seed):
    """Kernel dimension of the order-4 conditions for genus 2, 3, 4."""
    worst_gap = 0.0
    dims = {}
    ok = True
    for g in (2, 3, 4):
        rm = ctx.periods(g).tau
        dim, _, cert = g00.gamma00_dimension(rm)
        expected = g00.expected_gamma00_dimension(g)
        dims[f"g{g}"] = (dim, expected)
        ok = ok and dim == expected
        worst_gap = max(worst_gap, cert.gap_ratio)
    return {"passed": bool(ok and worst_gap < 1e-6),
            "dimensions": dims, "worst_gap_ratio": float(worst_gap)}


def criterion_gamma00_trisecant(ctx, seed):
    """Order-4 combination residuals and the intersection-dimension test."""
    rm3 = ctx.periods(3).tau
    tri3, _, _ = ctx.theta_trisecant(3, seed + 3)
    combo, lam, _, conds = g00.gamma00_combination(rm3, tri3.a, tri3.b)
    combo_ok = conds.relative_residual < 1e-6

    rm4 = ctx.periods(4).tau
    tri4, _, _ = ctx.theta_trisecant(4, seed + 4)
    dim4, _ = g00.trisecant_gamma00_test(rm4, tri4.a.z, tri4.b.z, tri4.c.z)

    controls_ok = all(dim == 0 for dim in g00.gamma00_controls(
        rm4, np.random.default_rng(seed), 10))
    return {"passed": bool(combo_ok and dim4 == 1 and controls_ok),
            "combination_residual": float(conds.relative_residual),
            "trisecant_dimension": int(dim4),
            "controls_all_zero": bool(controls_ok)}


def criterion_outer_product(ctx, seed):
    """Outer-product gradient identity and the gradient-span bound on
    every passing trisecant certificate of this battery."""
    worst_outer = 0.0
    span_ok = True
    for g in (3, 4):
        _, cert, _ = ctx.theta_trisecant(g, seed + g)
        if not cert.passes or cert.outer_product_residual is None:
            return {"passed": False, "failed_at": g}
        worst_outer = max(worst_outer, cert.outer_product_residual)
        smooth = cert.gradients[np.array(cert.smooth)]
        if len(smooth) >= 2:
            rank = se.igusa_span_check(smooth).decided_rank
            span_ok = span_ok and rank <= 1
    return {"passed": bool(worst_outer < 1e-6 and span_ok),
            "worst_outer_residual": float(worst_outer),
            "span_bound_ok": bool(span_ok)}


CRITERIA = {
    "elliptic-periods": criterion_elliptic_periods,
    "theta-identities": criterion_theta_identities,
    "derivative-check": criterion_derivatives,
    "riemann-constant": criterion_riemann_constant,
    "fay-trisecant": criterion_fay,
    "theta-trisecant": criterion_theta_trisecant,
    "gauss-hyperplane": criterion_gauss_hyperplane,
    "fiber-multiplicity": criterion_fiber_multiplicity,
    "multisecant": criterion_multisecant,
    "gamma00-dimension": criterion_gamma00_dimension,
    "gamma00-trisecant": criterion_gamma00_trisecant,
    "outer-product": criterion_outer_product,
}


def run_selftest(seed=DEFAULT_SEED, only=None):
    """Run the battery (optionally a single criterion) and collect results."""
    names = list(CRITERIA)
    if only is not None:
        if only not in CRITERIA:
            raise InvalidInput("unknown criterion", name=only,
                               known=names)
        names = [only]
    ctx = Context()
    results = {}
    for name in names:
        t0 = time.perf_counter()
        details = CRITERIA[name](ctx, seed)
        details["runtime_ms"] = int(1000 * (time.perf_counter() - t0))
        results[name] = details
    return {
        "seed": seed,
        "criteria": results,
        "pass": all(r["passed"] for r in results.values()),
    }
