"""Command line front end: curve ingestion, experiment orchestration and
JSON certificate reports.

Every command prints exactly one JSON document.  Exit codes: 0 the claim
passed, 1 certified failure, 2 invalid input, 3 numerical failure.
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
from .theta import theta, HalfCharacteristic, DEFAULT_THETA_TOL
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
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"curve file is not valid JSON: {exc}")
    return cv.HyperellipticCurve.from_json_dict(data), data


def _report(args, inputs, results, tolerances, timings, passed):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs_digest": _digest(_c2j(inputs)),
        "seed": getattr(args, "seed", None),
        "tolerances": tolerances,
        "timings_ms": {k: int(v * 1000) for k, v in timings.items()},
        "results": _c2j(results),
        "pass": bool(passed),
    }


def _cmd_periods(args):
    t0 = time.time()
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
    return _report(args, {"curve": raw, "tol": args.tol}, results,
                   {"period_tol": args.tol},
                   {"total": time.time() - t0}, passed)


def _parse_z(text):
    try:
        return np.asarray([complex(re_, im_) for re_, im_ in json.loads(text)])
    except (ValueError, TypeError) as exc:
        raise InvalidInput("--z must be a JSON list of [re, im] pairs",
                           reason=str(exc))


def _cmd_theta(args):
    t0 = time.time()
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
    value = theta(periods.tau, z, char=char, tol=args.tol)
    results = {
        "value": value.value,
        "truncation_radius": value.truncation_radius,
        "bound_on_tail": value.bound_on_tail,
    }
    return _report(args, {"curve": raw, "z": args.z, "char": args.char},
                   results, {"theta_tol": args.tol},
                   {"total": time.time() - t0}, True)


def _cmd_fay(args):
    t0 = time.time()
    curve, raw = _load_curve(args.curve)
    periods = cv.period_matrix(curve)
    rng = np.random.default_rng(args.seed)
    pts = []
    while len(pts) < 4:
        x = (rng.uniform(curve.roots[0] + 0.3, curve.roots[-1] - 0.3)
             + 1j * rng.uniform(0.3, 0.3 * curve.span))
        if all(abs(x - p.x) > 1e-6 for p in pts):
            pts.append(curve.point(x, 1 if rng.integers(2) == 0 else -1))
    triple = se.fay_construct(curve, periods, *pts)
    cert = se.certify_secant(periods.tau, triple.lifts,
                             expect_on_theta=False, rank_tol=args.rank_tol)
    results = {
        "points_x": [p.x for p in pts],
        "lifts": [l.z for l in triple.lifts],
        "certificate": cert.to_dict(),
    }
    return _report(args, {"curve": raw, "seed": args.seed}, results,
                   {"rank_tol": args.rank_tol},
                   {"total": time.time() - t0}, cert.passes)


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
    t0 = time.time()
    curve, raw, periods, kappa, sample = _theta_divisor_setup(args, 3)
    triple = se.theta_trisecant_construct(curve, periods, sample, kappa)
    cert = se.certify_secant(periods.tau, triple.lifts,
                             rank_tol=args.rank_tol)
    zp, zq, zr, zs = triple.data["zetas"]
    halving = (2.0 * triple.a - (zp - zq - zr + zs)).lattice_distance()
    results = {
        "lifts": [l.z for l in triple.lifts],
        "certificate": cert.to_dict(),
        "halving_residual": halving,
    }
    passed = cert.passes and max(cert.theta_residuals) < 1e-7 \
        and halving < 1e-7
    return _report(args, {"curve": raw, "seed": args.seed}, results,
                   {"rank_tol": args.rank_tol},
                   {"total": time.time() - t0}, passed)


def _cmd_multisecant(args):
    t0 = time.time()
    ell = args.ell
    curve, raw, periods, kappa, sample = _theta_divisor_setup(args, ell)
    seen = []
    partitions = se.all_partitions(sample)
    certs = []
    passed = True
    for part in partitions:
        lifts, cert = se.multisecant_from_Bl(curve, periods, sample,
                                             kappa, part,
                                             rank_tol=args.rank_tol)
        certs.append(cert.to_dict())
        passed = passed and cert.passes \
            and max(cert.theta_residuals) < 1e-6
        for lift in lifts:
            if not any(lift.lattice_distance(o) < 1e-6 for o in seen):
                seen.append(lift)
    results = {
        "ell": ell,
        "n_partitions": len(partitions),
        "distinct_points": len(seen),
        "certificates": certs,
    }
    return _report(args, {"curve": raw, "seed": args.seed, "ell": ell},
                   results, {"rank_tol": args.rank_tol},
                   {"total": time.time() - t0}, passed)


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
    t0 = time.time()
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
    return _report(args, {"k0": args.k0, "genus": args.genus}, results,
                   {}, {"total": time.time() - t0}, True)


def _cmd_gamma00_dim(args):
    t0 = time.time()
    curve, raw = _load_curve(args.curve)
    periods = cv.period_matrix(curve)
    dim, _, cert = g00.gamma00_dimension(periods.tau, tol=args.rank_tol)
    g = curve.genus
    expected = 2 ** g - g * (g + 1) // 2 - 1
    results = {
        "dimension": dim,
        "expected": expected,
        "rank_certificate": cert.to_dict(),
    }
    return _report(args, {"curve": raw}, results,
                   {"rank_tol": args.rank_tol},
                   {"total": time.time() - t0}, dim == expected)


def _cmd_gamma00_trisecant(args):
    t0 = time.time()
    curve, raw, periods, kappa, sample = _theta_divisor_setup(args, 3)
    triple = se.theta_trisecant_construct(curve, periods, sample, kappa)
    dim, info = g00.trisecant_gamma00_test(
        periods.tau, triple.a.z, triple.b.z, triple.c.z,
        tol=args.rank_tol)
    rng = np.random.default_rng(args.seed + 1)
    control_pts = [ge.theta_divisor_point(periods.tau, rng)
                   for _ in range(3)]
    dim_control, _ = g00.trisecant_gamma00_test(periods.tau, *control_pts,
                                                tol=args.rank_tol)
    results = {
        "trisecant_dimension": dim,
        "control_dimension": dim_control,
        "span_rank": info["span_rank"],
        "degenerate_span": info["degenerate_span"],
    }
    passed = dim == 1 and dim_control == 0
    return _report(args, {"curve": raw, "seed": args.seed}, results,
                   {"rank_tol": args.rank_tol},
                   {"total": time.time() - t0}, passed)


def _cmd_span(args):
    t0 = time.time()
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
    return _report(args, {"curve": raw, "seed": args.seed,
                          "ell": args.ell},
                   results, {"rank_tol": args.rank_tol},
                   {"total": time.time() - t0}, passed)


def _cmd_selftest(args):
    t0 = time.time()
    report = run_selftest(seed=args.seed, only=args.only)
    results = {
        "criteria": {name: _c2j(det)
                     for name, det in report["criteria"].items()},
        "summary": {name: ("PASS" if det["passed"] else "FAIL")
                    for name, det in report["criteria"].items()},
    }
    return _report(args, {"seed": args.seed, "only": args.only}, results,
                   {}, {"total": time.time() - t0}, report["pass"])


def build_parser():
    parser = argparse.ArgumentParser(
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
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = args.func(args)
    except InvalidInput as exc:
        return _print_error(exc, 2)
    except TrisectError as exc:
        return _print_error(exc, 3)
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
