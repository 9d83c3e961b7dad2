"""The three benchmark workloads.

Each workload draws its inputs from the seed it is given and hands the
program only those inputs.  `setup` does everything a user pays once per
curve before the first certificate; `prepare` runs after it, untimed: it
verifies the set-up with checks that share no code with it and writes any
input files; `items` yields one input per op; `op` runs one certificate and raises `CheckFailed` when any
correctness check on its output fails.

Workloads call only names exported by `trisect` and `trisect.cli.run`,
looked up at call time so that the traced run's wrappers are seen.
"""

import contextlib
import io
import itertools
import json
import os
import shutil
import tempfile

import numpy as np

import trisect as ts
import trisect.cli as cli


class CheckFailed(Exception):
    """A correctness check on a set-up or op result failed."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def reference_curve(genus):
    """y^2 = x(x-1)...(x-2g), the package's reference family."""
    coeffs = np.poly(range(2 * genus + 1))[::-1]
    return ts.HyperellipticCurve([float(c) for c in coeffs])


def check_kappa(curve, periods, kappa, tol=1e-8):
    """Independent Riemann-constant oracle: for the odd model with base
    point at infinity, kappa = AJ(e_2) + AJ(e_4) + ... + AJ(e_2g) modulo
    the lattice (branch points e_1 < ... < e_2g+1).  It uses no half-period
    search, so it checks any rewrite of that search."""
    total = ts.abel_jacobi(curve, curve.weierstrass_point(1), periods)
    for i in range(3, 2 * curve.genus, 2):
        total = total + ts.abel_jacobi(curve, curve.weierstrass_point(i),
                                       periods)
    distance = (kappa - total).lattice_distance()
    _require(distance < tol, f"kappa oracle distance {distance:.3e}")


def _seeds(rng):
    while True:
        yield int(rng.integers(1, 2 ** 31))


def distinct_classes(partitions, n_simple):
    """Expected number of distinct multisecant points over the partitions.

    The lift of p_j for p-set P is the class of the 3-point divisor
    S = {j} + (simple points not in P).  The simple points are conjugate
    pairs (2k, 2k+1); a pair sums to the hyperelliptic class, so an S that
    contains one is determined by its remaining point, and every other S
    is its own class.  Over all 15 partitions at l = 4 this gives 14.
    """
    keys = set()
    for part in partitions:
        rest = set(range(n_simple)) - set(part)
        for j in part:
            s = rest | {j}
            pair = next((k for k in range(0, n_simple, 2)
                         if {k, k + 1} <= s), None)
            keys.add(("pair", min(s - {pair, pair + 1}))
                     if pair is not None else frozenset(s))
    return len(keys)


class G5Multisecant:
    """Quadrisecants of the genus-5 reference curve, the paper's g=5 result.

    One op is the multisecant certificate of one of the 15 partitions of
    a B4 sample, plus deduplication of its lifts against the partitions
    certified before it.  The seed orders the partitions; after all 15 a
    new seeded order starts.  The sample is the selftest's (seed
    20260823): op cost and memory depend mostly on the sample's points,
    and across seeded samples they differ by up to 40%, which a run of
    six or seven ops cannot average out.  The Riemann matrix is shared by all
    ops, so its caches are warm.
    """

    name = "g5-multisecant"
    setups = 1          # one set-up is ~25 s, mostly kappa
    traced_ops = 2
    genus, ell = 5, 4
    sample_seed = 20260823
    full_sample_distinct = 14

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self._seen = {}

    def setup(self):
        curve = reference_curve(self.genus)
        periods = ts.period_matrix(curve)
        kappa, _ = ts.riemann_constant(curve, periods)
        ts.on_theta(periods.tau, np.zeros(self.genus))   # calibration
        self.curve, self.periods, self.kappa = curve, periods, kappa

    def prepare(self):
        check_kappa(self.curve, self.periods, self.kappa)

    def items(self):
        sample = ts.sample_B_ell(self.curve, self.ell, seed=self.sample_seed)
        parts = ts.all_partitions(sample)
        _require(len(parts) == 15, f"{len(parts)} partitions")
        for round_ in itertools.count():
            order = [parts[i] for i in self.rng.permutation(len(parts))]
            for k in range(len(order)):
                yield sample, order, round_, k

    def op(self, item):
        sample, order, round_, k = item
        lifts, cert = ts.multisecant_from_Bl(
            self.curve, self.periods, sample, self.kappa, order[k])
        seen = list(self._seen.get((round_, k - 1), ()))
        for lift in lifts:
            if not any(lift.lattice_distance(o) < 1e-6 for o in seen):
                seen.append(lift)
        self._seen.pop((round_, k - 2), None)
        self._seen[(round_, k)] = seen
        rank = cert.rank_cert
        _require(rank.decided_rank <= self.ell - 1,
                 f"rank {rank.decided_rank}")
        _require(rank.gap_ratio < 1e-5, f"gap {rank.gap_ratio:.3e}")
        worst = max(cert.theta_residuals)
        _require(worst < 1e-6, f"theta residual {worst:.3e}")
        expected = distinct_classes(order[:k + 1], len(sample.simple_points))
        _require(len(seen) == expected,
                 f"{len(seen)} distinct points, expected {expected}")
        if k == len(order) - 1:
            _require(len(seen) == self.full_sample_distinct,
                     f"{len(seen)} distinct points in a full sample")


class G3CurveSweep:
    """`trisect trisecant` through the CLI entry point on fresh curves.

    Every op builds a new genus-3 curve (roots k + U(-0.3, 0.3), k = 0..6)
    and so pays periods, kappa and calibration on a new Riemann matrix:
    per-matrix caches never hit.
    """

    name = "g3-curve-sweep"
    setups = 1
    traced_ops = 12
    files_per_second = 30

    def __init__(self, seed, seconds, workdir):
        self.rng = np.random.default_rng(seed)
        self.n_files = max(64, self.files_per_second * seconds)
        self.workdir = workdir
        self.dir = None

    def setup(self):
        """Nothing: every op sets up its own curve, and the import is
        timed by the caller."""

    def prepare(self):
        """Write the curve files.  This is the benchmark's input, not the
        program's set-up, so it is not timed: creating hundreds of files
        took from 0.1 s to 0.5 s on the same machine from run to run."""
        os.makedirs(self.workdir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="g3-curves-", dir=self.workdir)
        self.files = []
        for i in range(self.n_files):
            roots = np.arange(7) + self.rng.uniform(-0.3, 0.3, 7)
            path = os.path.join(self.dir, f"curve{i}.json")
            with open(path, "w") as fh:
                json.dump({"f_coeffs": [float(c)
                                        for c in np.poly(roots)[::-1]]}, fh)
            self.files.append((path, int(self.rng.integers(1, 2 ** 31))))

    def items(self):
        # the CLI keeps no state between calls, so a second pass over the
        # files (only if ops get ~10x faster) is still cold
        return itertools.cycle(self.files)

    def op(self, item):
        path, seed = item
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(["trisecant", "--curve", path,
                            "--seed", str(seed)])
        _require(code == 0, f"exit code {code}")
        try:
            report = json.loads(out.getvalue())
        except ValueError as exc:
            raise CheckFailed(f"output is not JSON: {exc}") from None
        results = report["results"]
        _require(report["pass"] is True, "pass is not true")
        rank = results["certificate"]["rank"]["decided_rank"]
        _require(rank <= 2, f"rank {rank}")
        halving = results["halving_residual"]
        _require(halving < 1e-7, f"halving residual {halving:.3e}")

    def close(self):
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


class G4Gamma00:
    """Gamma00 tests on the genus-4 reference curve.

    Each op takes a seeded B3 sample and checks that the intersection
    dimension is 1 on its theta trisecant and 0 on three random
    theta-divisor points, and that the Gauss map is defined at the
    trisecant's first lift.  Theta is used through single-point Newton
    calls and small second-order batches, so per-call cost dominates.
    """

    name = "g4-gamma00"
    setups = 3
    traced_ops = 12
    genus = 4

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def setup(self):
        curve = reference_curve(self.genus)
        periods = ts.period_matrix(curve)
        kappa, _ = ts.riemann_constant(curve, periods)
        self.dimension, _, _ = ts.gamma00_dimension(periods.tau)
        ts.on_theta(periods.tau, np.zeros(self.genus))   # calibration
        self.curve, self.periods, self.kappa = curve, periods, kappa

    def prepare(self):
        g = self.genus
        expected = 2 ** g - g * (g + 1) // 2 - 1
        _require(self.dimension == expected,
                 f"gamma00 dimension {self.dimension}, expected {expected}")
        check_kappa(self.curve, self.periods, self.kappa)

    def items(self):
        seeds = _seeds(self.rng)
        while True:
            yield next(seeds), next(seeds)

    def op(self, item):
        sample_seed, control_seed = item
        tau = self.periods.tau
        sample = ts.sample_B_ell(self.curve, 3, seed=sample_seed)
        triple = ts.theta_trisecant_construct(self.curve, self.periods,
                                              sample, self.kappa)
        dim, _ = ts.trisecant_gamma00_test(tau, triple.a.z, triple.b.z,
                                           triple.c.z)
        _require(dim == 1, f"trisecant dimension {dim}")
        rng = np.random.default_rng(control_seed)
        controls = [ts.theta_divisor_point(tau, rng) for _ in range(3)]
        dim, _ = ts.trisecant_gamma00_test(tau, *controls)
        _require(dim == 0, f"control dimension {dim}")
        _require(ts.gauss_map(tau, triple.a).defined,
                 "Gauss map undefined at the trisecant")


def make(name, seed, seconds, workdir):
    if name == G3CurveSweep.name:
        return G3CurveSweep(seed, seconds, workdir)
    return {G5Multisecant.name: G5Multisecant,
            G4Gamma00.name: G4Gamma00}[name](seed)


NAMES = (G5Multisecant.name, G3CurveSweep.name, G4Gamma00.name)
