"""Command line front end: curve ingestion, experiment orchestration and
JSON certificate reports.

Every command prints exactly one JSON document, assembled and timed by
`run` from the (results, passed) its function returns and the inputs and
tolerances it declares in `build_parser`.
Exit codes: 0 the claim passed, 1 certified failure, 2 invalid input,
3 numerical failure.
Complex numbers are serialized as [re, im] pairs; second-order theta
coordinates follow the lexicographic epsilon order with the first entry
most significant.
"""

import argparse
import functools
import hashlib
import json
import re
import sys
import time

import numpy as np

from . import curves as cv
from . import geometry as ge
from . import secants as se
from . import gamma00 as g00
from .errors import TrisectError, InvalidInput, NumericalFailure
from .theta import theta_batch, HalfCharacteristic, DEFAULT_THETA_TOL
from .numeric import DEFAULT_RANK_TOL
from .selftest import run_selftest, CRITERIA, DEFAULT_SEED

SCHEMA_VERSION = 1


def _c2j(value):
    """Serialize numbers/arrays with complex entries as [re, im] pairs."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.complexfloating,)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_c2j(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_c2j(v) for v in value]
    if isinstance(value, dict):
        return {k: _c2j(v) for k, v in value.items()}
    return value


def _digest(payload):
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _load_curve(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read curve file: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidInput(f"curve file is not valid JSON: {exc}")
    return cv.HyperellipticCurve.from_json_dict(data), data


def _cmd_periods(args, curve):
    periods = cv.period_matrix(curve, tol=args.tol)
    residual = periods.bilinear_residual()
    return {
        "genus": curve.genus,
        "tau": periods.tau.entries,
        "bilinear_residual": residual,
        "im_tau_min_eigenvalue":
            float(np.linalg.eigvalsh(periods.tau.entries.imag).min()),
        "quadrature": periods.quadrature,
    }, residual < cv.BILINEAR_TOL


def _parse_z(text):
    try:
        pairs = json.loads(text)
        if any(isinstance(v, bool) for pair in pairs for v in pair):
            raise TypeError("true and false are not numbers")
        return np.asarray([complex(re_, im_) for re_, im_ in pairs])
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise InvalidInput("--z must be a JSON list of [re, im] pairs",
                           reason=str(exc))


def _cmd_theta(args, curve):
    periods = cv.period_matrix(curve)
    z = _parse_z(args.z)
    char = None
    if args.char is not None:
        bits = args.char.split(";")
        if len(bits) != 2 or not all(set(b) <= {"0", "1"} for b in bits):
            raise InvalidInput("characteristic must be 'bits;bits' with "
                               "bits 0 or 1", char=args.char)
        char = HalfCharacteristic(*(tuple(map(int, b)) for b in bits))
    (value,), radius, tail = theta_batch(periods.tau, z, char=char,
                                         tol=args.tol)
    return {"value": complex(value), "truncation_radius": float(radius),
            "bound_on_tail": float(tail)}, True


def _cmd_fay(args, curve):
    periods = cv.period_matrix(curve)
    triple, cert = se.fay_trisecant(curve, periods,
                                    np.random.default_rng(args.seed),
                                    rank_tol=args.rank_tol)
    return {
        "points_x": [p.x for p in triple.data["points"]],
        "lifts": [l.z for l in triple.lifts],
        "certificate": cert.to_dict(),
    }, cert.passes


def _theta_divisor_setup(args, curve, ell):
    """(curve, periods, B_ell sample of args.seed, kappa), the arguments of
    a theta-divisor construction.  The sample is drawn before the periods,
    so a curve of genus < 3 or an invalid ell is refused first."""
    if curve.genus < 3:
        raise InvalidInput("theta-divisor constructions need genus >= 3",
                           genus=curve.genus)
    sample = cv.sample_B_ell(curve, ell, seed=args.seed)
    periods = cv.period_matrix(curve)
    kappa, _ = cv.riemann_constant(curve, periods)
    return curve, periods, sample, kappa


def _cmd_trisecant(args, curve):
    triple, cert, halving = se.theta_trisecant(
        *_theta_divisor_setup(args, curve, 3), rank_tol=args.rank_tol)
    return {
        "lifts": [l.z for l in triple.lifts],
        "certificate": cert.to_dict(),
        "halving_residual": halving,
    }, cert.passes and cert.on_theta and halving < se.HALVING_TOL


def _cmd_multisecant(args, curve):
    certs, distinct = se.multisecant_sweep(
        *_theta_divisor_setup(args, curve, args.ell), rank_tol=args.rank_tol)
    return {
        "ell": args.ell,
        "n_partitions": len(certs),
        "distinct_points": len(distinct),
        "certificates": [cert.to_dict() for cert in certs],
    }, all(cert.passes and cert.on_theta for cert in certs)


_K0_TERM = re.compile(r"(\d+)([A-Za-z]\w*)?")


def _parse_k0(text):
    """'4P0' or '2P0,1P1,1P2' or bare multiplicities '2,1,1', the i-th
    labelled P{i}.  Each label names one point: a repeat is refused."""
    labels, mults = [], []
    for token in text.split(","):
        match = _K0_TERM.fullmatch(token.strip())
        if not match:
            raise InvalidInput("cannot parse K0 term", term=token.strip())
        label = match.group(2) or f"P{len(labels)}"
        if label in labels:
            raise InvalidInput("repeated K0 label", label=label)
        mults.append(int(match.group(1)))
        labels.append(label)
    return labels, mults


def _cmd_fiber(args, curve):
    labels, mults = _parse_k0(args.k0)
    fiber = ge.gauss_fiber_enumerate(mults, args.genus)
    return {
        "k0": [[lab, n] for lab, n in zip(labels, mults)],
        "entries": [{"subdivisor": [[p, k] for p, k in zip(labels, l) if k],
                     "multiplicity": m} for l, m in fiber],
        "total_multiplicity": sum(m for _, m in fiber),
    }, True


def _cmd_gamma00_dim(args, curve):
    periods = cv.period_matrix(curve)
    dim, _, cert = g00.gamma00_dimension(periods.tau, rank_tol=args.rank_tol)
    expected = g00.expected_gamma00_dimension(curve.genus)
    return {
        "dimension": dim,
        "expected": expected,
        "rank_certificate": cert.to_dict(),
    }, dim == expected


def _cmd_gamma00_trisecant(args, curve):
    curve, periods, sample, kappa = _theta_divisor_setup(args, curve, 3)
    triple = se.theta_trisecant_construct(curve, periods, sample, kappa)
    dim, info = g00.trisecant_gamma00_test(periods.tau, *triple.lifts,
                                           rank_tol=args.rank_tol)
    (dim_control,) = g00.gamma00_controls(
        periods.tau, np.random.default_rng(args.seed + 1), 1,
        rank_tol=args.rank_tol)
    return {
        "trisecant_dimension": dim,
        "control_dimension": dim_control,
        "span_rank": info["span_rank"],
        "degenerate_span": info["degenerate_span"],
    }, dim == 1 and dim_control == 0


def _cmd_span(args, curve):
    dim_inner, dim_outer, dim_g00, details = g00.span_VpWp(
        *_theta_divisor_setup(args, curve, args.ell), rank_tol=args.rank_tol)
    return {
        "dim_inner_span": dim_inner,
        "dim_outer_span": dim_outer,
        "dim_gamma00": dim_g00,
        "fiber": details,
    }, dim_inner <= dim_outer <= dim_g00


def _cmd_selftest(args, curve):
    report = run_selftest(seed=args.seed, only=args.only)
    return {
        "criteria": report["criteria"],
        "summary": {name: ("PASS" if det["passed"] else "FAIL")
                    for name, det in report["criteria"].items()},
    }, report["pass"]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InvalidInput, so they
    are reported as JSON with exit code 2 like every other bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInput(f"{self.prog}: {message}")


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return seed


@functools.lru_cache(maxsize=None)
def build_parser():
    """The CLI parser, built once per process: parse_args leaves it as it
    was, and building its ten subparsers costs more than a parse."""
    parser = _Parser(
        prog="trisect",
        description="trisecants and multisecants of theta divisors of "
                    "hyperelliptic Jacobians, with numerical certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, inputs=(), tolerances=(), **extra):
        """A command whose report digests the curve, if it takes one, and
        the options in inputs, and reports the options tolerances names."""
        p = sub.add_parser(name)
        tolerances = dict(tolerances)
        if extra.get("curve", True):
            p.add_argument("--curve", required=True,
                           help="JSON file with ascending f_coeffs")
        if extra.get("seed"):
            p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
            inputs += ("seed",)
        if extra.get("rank_tol"):
            p.add_argument("--rank-tol", dest="rank_tol", type=float,
                           default=DEFAULT_RANK_TOL)
            tolerances["rank_tol"] = "rank_tol"
        p.set_defaults(func=func, inputs=inputs, tolerances=tolerances)
        return p

    p = add("periods", _cmd_periods, ("tol",), {"period_tol": "tol"})
    p.add_argument("--tol", type=float, default=1e-11)

    p = add("theta", _cmd_theta, ("z", "char"), {"theta_tol": "tol"})
    p.add_argument("--z", required=True,
                   help="JSON list of [re, im] pairs, length g")
    p.add_argument("--char", default=None,
                   help="half characteristic as bits;bits, e.g. 01;10")
    p.add_argument("--tol", type=float, default=DEFAULT_THETA_TOL)

    add("fay", _cmd_fay, seed=True, rank_tol=True)
    add("trisecant", _cmd_trisecant, seed=True, rank_tol=True)

    p = add("multisecant", _cmd_multisecant, ("ell",), seed=True,
            rank_tol=True)
    p.add_argument("--ell", type=int, default=4)

    p = add("fiber", _cmd_fiber, ("k0", "genus"), curve=False)
    p.add_argument("--k0", required=True,
                   help="multiplicity list, e.g. '4P0' or '2P0,1P1,1P2'")
    p.add_argument("--genus", type=int, required=True)

    add("gamma00-dim", _cmd_gamma00_dim, rank_tol=True)
    add("gamma00-trisecant", _cmd_gamma00_trisecant, seed=True,
        rank_tol=True)

    p = add("span", _cmd_span, ("ell",), seed=True, rank_tol=True)
    p.add_argument("--ell", type=int, default=3)

    p = add("selftest", _cmd_selftest, ("only",), curve=False, seed=True)
    p.add_argument("--only", default=None, choices=sorted(CRITERIA))
    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except InvalidInput as exc:
        return _print_error(exc, 2)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        curve, raw = (_load_curve(args.curve) if "curve" in args
                      else (None, None))
        results, passed = args.func(args, curve)
    except InvalidInput as exc:
        return _print_error(exc, 2)
    except TrisectError as exc:
        return _print_error(exc, 3)
    inputs = {"curve": raw} if "curve" in args else {}
    inputs.update((name, getattr(args, name)) for name in args.inputs)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs_digest": _digest(inputs),
        "seed": getattr(args, "seed", None),
        "tolerances": {report_name: getattr(args, option) for
                       report_name, option in args.tolerances.items()},
        "timings_ms": {"total": int((time.perf_counter() - t0) * 1000)},
        "results": _c2j(results),
        "pass": bool(passed),
    }
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError as exc:
        return _print_error(NumericalFailure(
            "report holds a non-finite number", reason=str(exc)), 3)
    print(text)
    return 0 if report["pass"] else 1


def _print_error(exc, exit_code):
    # strict JSON: a non-finite detail is written as "NaN" or "Infinity"
    details = json.loads(json.dumps(_c2j(exc.details)), parse_constant=str)
    print(json.dumps({"schema_version": SCHEMA_VERSION,
                      "error": str(exc), "code": exc.code,
                      "details": details}, indent=2, allow_nan=False))
    return exit_code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
