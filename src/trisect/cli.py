"""Command line front end: curve ingestion, experiment orchestration and
JSON certificate reports.

Every command prints exactly one JSON document, assembled and timed by
`run` from the (inputs, results, tolerances, passed) its function returns.
Exit codes: 0 the claim passed, 1 certified failure, 2 invalid input,
3 numerical failure.
Complex numbers are serialized as [re, im] pairs; second-order theta
coordinates follow the lexicographic epsilon order with the first entry
most significant.
"""

import argparse
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


def _cmd_periods(args):
    curve, raw = _load_curve(args.curve)
    periods = cv.period_matrix(curve, tol=args.tol)
    residual = periods.bilinear_residual()
    results = {
        "genus": curve.genus,
        "tau": periods.tau.entries,
        "bilinear_residual": residual,
        "im_tau_min_eigenvalue":
            float(np.linalg.eigvalsh(periods.tau.entries.imag).min()),
    }
    passed = residual < 1e-9
    return ({"curve": raw, "tol": args.tol}, results,
            {"period_tol": args.tol}, passed)


def _parse_z(text):
    try:
        pairs = json.loads(text)
        if any(isinstance(v, bool) for pair in pairs for v in pair):
            raise TypeError("true and false are not numbers")
        return np.asarray([complex(re_, im_) for re_, im_ in pairs])
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise InvalidInput("--z must be a JSON list of [re, im] pairs",
                           reason=str(exc))


def _cmd_theta(args):
    curve, raw = _load_curve(args.curve)
    periods = cv.period_matrix(curve)
    z = _parse_z(args.z)
    char = None
    if args.char:
        bits = args.char.split(";")
        if len(bits) != 2:
            raise InvalidInput("characteristic must be 'bits;bits'")
        char = HalfCharacteristic(tuple(int(b) for b in bits[0]),
                                  tuple(int(b) for b in bits[1]))
    (value,), radius, tail = theta_batch(periods.tau, z, char=char,
                                         tol=args.tol)
    results = {
        "value": complex(value),
        "truncation_radius": float(radius),
        "bound_on_tail": float(tail),
    }
    return ({"curve": raw, "z": args.z, "char": args.char}, results,
            {"theta_tol": args.tol}, True)


def _cmd_fay(args):
    curve, raw = _load_curve(args.curve)
    periods = cv.period_matrix(curve)
    triple, cert = se.fay_trisecant(curve, periods,
                                    np.random.default_rng(args.seed),
                                    rank_tol=args.rank_tol)
    results = {
        "points_x": [p.x for p in triple.data["points"]],
        "lifts": [l.z for l in triple.lifts],
        "certificate": cert.to_dict(),
    }
    return ({"curve": raw, "seed": args.seed}, results,
            {"rank_tol": args.rank_tol}, cert.passes)


def _theta_divisor_setup(args, ell):
    """Curve, raw curve JSON, periods, kappa and the B_ell sample of
    args.seed for a theta-divisor command.  The sample is drawn before the
    periods, so a curve of genus < 3 or an invalid ell is refused first.
    """
    curve, raw = _load_curve(args.curve)
    if curve.genus < 3:
        raise InvalidInput("theta-divisor constructions need genus >= 3",
                           genus=curve.genus)
    sample = cv.sample_B_ell(curve, ell, seed=args.seed)
    periods = cv.period_matrix(curve)
    kappa, _ = cv.riemann_constant(curve, periods)
    return curve, raw, periods, kappa, sample


def _cmd_trisecant(args):
    curve, raw, periods, kappa, sample = _theta_divisor_setup(args, 3)
    triple, cert, halving = se.theta_trisecant(curve, periods, sample, kappa,
                                               rank_tol=args.rank_tol)
    results = {
        "lifts": [l.z for l in triple.lifts],
        "certificate": cert.to_dict(),
        "halving_residual": halving,
    }
    passed = cert.passes and max(cert.theta_residuals) < 1e-7 \
        and halving < 1e-7
    return ({"curve": raw, "seed": args.seed}, results,
            {"rank_tol": args.rank_tol}, passed)


def _cmd_multisecant(args):
    curve, raw, periods, kappa, sample = _theta_divisor_setup(args, args.ell)
    certs, distinct = se.multisecant_sweep(curve, periods, sample, kappa,
                                           rank_tol=args.rank_tol)
    passed = all(cert.passes and max(cert.theta_residuals) < 1e-6
                 for cert in certs)
    results = {
        "ell": args.ell,
        "n_partitions": len(certs),
        "distinct_points": len(distinct),
        "certificates": [cert.to_dict() for cert in certs],
    }
    return ({"curve": raw, "seed": args.seed, "ell": args.ell}, results,
            {"rank_tol": args.rank_tol}, passed)


_K0_TERM = re.compile(r"^(\d+)([A-Za-z]\w*)$")


def _parse_k0(text):
    """'4P0' or '2P0,1P1,1P2' or bare multiplicities '2,1,1'."""
    labels, mults = [], []
    for token in text.split(","):
        token = token.strip()
        match = _K0_TERM.match(token)
        if match:
            mults.append(int(match.group(1)))
            labels.append(match.group(2))
        elif token.isdigit():
            mults.append(int(token))
            labels.append(f"P{len(labels)}")
        else:
            raise InvalidInput("cannot parse K0 term", term=token)
    return labels, mults


def _cmd_fiber(args):
    labels, mults = _parse_k0(args.k0)
    entries = ge.gauss_fiber_enumerate(mults, genus=args.genus)
    results = {
        "k0": [[lab, n] for lab, n in zip(labels, mults)],
        "entries": [
            {"subdivisor": [[labels[i], l]
                            for i, (_, l) in enumerate(e.subdivisor)],
             "multiplicity": e.multiplicity}
            for e in entries
        ],
        "total_multiplicity": ge.fiber_total_multiplicity(entries),
    }
    return {"k0": args.k0, "genus": args.genus}, results, {}, True


def _cmd_gamma00_dim(args):
    curve, raw = _load_curve(args.curve)
    periods = cv.period_matrix(curve)
    dim, _, cert = g00.gamma00_dimension(periods.tau, tol=args.rank_tol)
    expected = g00.expected_gamma00_dimension(curve.genus)
    results = {
        "dimension": dim,
        "expected": expected,
        "rank_certificate": cert.to_dict(),
    }
    return ({"curve": raw}, results, {"rank_tol": args.rank_tol},
            dim == expected)


def _cmd_gamma00_trisecant(args):
    curve, raw, periods, kappa, sample = _theta_divisor_setup(args, 3)
    triple = se.theta_trisecant_construct(curve, periods, sample, kappa)
    dim, info = g00.trisecant_gamma00_test(
        periods.tau, triple.a.z, triple.b.z, triple.c.z,
        tol=args.rank_tol)
    (dim_control,) = g00.gamma00_controls(
        periods.tau, np.random.default_rng(args.seed + 1), 1,
        tol=args.rank_tol)
    results = {
        "trisecant_dimension": dim,
        "control_dimension": dim_control,
        "span_rank": info["span_rank"],
        "degenerate_span": info["degenerate_span"],
    }
    passed = dim == 1 and dim_control == 0
    return ({"curve": raw, "seed": args.seed}, results,
            {"rank_tol": args.rank_tol}, passed)


def _cmd_span(args):
    curve, raw, periods, kappa, sample = _theta_divisor_setup(args,
                                                              args.ell)
    dim_inner, dim_outer, dim_g00, details = g00.span_VpWp(
        curve, periods, sample, kappa, tol=args.rank_tol)
    results = {
        "dim_inner_span": dim_inner,
        "dim_outer_span": dim_outer,
        "dim_gamma00": dim_g00,
        "fiber": details,
    }
    passed = dim_inner <= dim_outer <= dim_g00
    return ({"curve": raw, "seed": args.seed, "ell": args.ell}, results,
            {"rank_tol": args.rank_tol}, passed)


def _cmd_selftest(args):
    report = run_selftest(seed=args.seed, only=args.only)
    results = {
        "criteria": {name: _c2j(det)
                     for name, det in report["criteria"].items()},
        "summary": {name: ("PASS" if det["passed"] else "FAIL")
                    for name, det in report["criteria"].items()},
    }
    return {"seed": args.seed, "only": args.only}, results, {}, report["pass"]


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


def build_parser():
    parser = _Parser(
        prog="trisect",
        description="trisecants and multisecants of theta divisors of "
                    "hyperelliptic Jacobians, with numerical certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **extra):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        if extra.get("curve", True):
            p.add_argument("--curve", required=True,
                           help="JSON file with ascending f_coeffs")
        if extra.get("seed"):
            p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
        if extra.get("rank_tol"):
            p.add_argument("--rank-tol", dest="rank_tol", type=float,
                           default=DEFAULT_RANK_TOL)
        return p

    p = add("periods", _cmd_periods)
    p.add_argument("--tol", type=float, default=1e-11)

    p = add("theta", _cmd_theta)
    p.add_argument("--z", required=True,
                   help="JSON list of [re, im] pairs, length g")
    p.add_argument("--char", default=None,
                   help="half characteristic as bits;bits, e.g. 01;10")
    p.add_argument("--tol", type=float, default=DEFAULT_THETA_TOL)

    add("fay", _cmd_fay, seed=True, rank_tol=True)
    add("trisecant", _cmd_trisecant, seed=True, rank_tol=True)

    p = add("multisecant", _cmd_multisecant, seed=True, rank_tol=True)
    p.add_argument("--ell", type=int, default=4)

    p = add("fiber", _cmd_fiber, curve=False)
    p.add_argument("--k0", required=True,
                   help="multiplicity list, e.g. '4P0' or '2P0,1P1,1P2'")
    p.add_argument("--genus", type=int, required=True)

    add("gamma00-dim", _cmd_gamma00_dim, rank_tol=True)
    add("gamma00-trisecant", _cmd_gamma00_trisecant, seed=True,
        rank_tol=True)

    p = add("span", _cmd_span, seed=True, rank_tol=True)
    p.add_argument("--ell", type=int, default=3)

    p = add("selftest", _cmd_selftest, curve=False, seed=True)
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
    t0 = time.time()
    try:
        inputs, results, tolerances, passed = args.func(args)
    except InvalidInput as exc:
        return _print_error(exc, 2)
    except TrisectError as exc:
        return _print_error(exc, 3)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs_digest": _digest(_c2j(inputs)),
        "seed": getattr(args, "seed", None),
        "tolerances": tolerances,
        "timings_ms": {"total": int((time.time() - t0) * 1000)},
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
