"""trisect benchmark: certificate throughput, latency, set-up time and memory.

Usage, from the root of a checkout:

    python3 bench/run.py --workload g5-multisecant --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One run sets up the workload, then runs ops (one certificate each, every
output checked) for --seconds seconds, and prints as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run traces a fixed set
of ops, each once traced and once untraced, and reports per-layer metrics.
`--workload all` runs every workload in its own process and prints a table.
See bench/NOTES.md for the workloads and metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("g5-multisecant", "g3-curve-sweep", "g4-gamma00")
#: Not used while the benchmark or a change is tuned; confirm claims on it.
HELD_OUT_SEED = 7919
E2E_UNITS = {"setup_s": "s", "certs_per_s": "1/s", "cert_p50_s": "s",
             "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "trisect").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_record():
    """BLAS library and thread count, read from this process's mappings."""
    import ctypes
    import numpy as np
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": name.get("name"), "version": name.get("version"),
              "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def environment(args):
    import numpy as np
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "held_out_seed": HELD_OUT_SEED,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_record(),
            "git_commit": commit, "source_sha256": source_digest()}


def import_program():
    """Import trisect from this checkout's src/, and nowhere else."""
    if not (SRC / "trisect" / "__init__.py").is_file():
        sys.exit(f"bench: no trisect source under {SRC}")
    sys.path.insert(0, str(SRC))
    import trisect
    import trisect.cli  # noqa: F401
    if SRC not in Path(trisect.__file__).resolve().parents:
        sys.exit(f"bench: trisect imported from {trisect.__file__}")


def run_op(wl, item, failures):
    """Run one op; returns (seconds, ok).  An op fails if it raises or if
    a check on its output fails."""
    import workloads
    start = time.perf_counter()
    try:
        wl.op(item)
        ok = True
    except workloads.CheckFailed as exc:
        failures.append(f"check: {exc}")
        ok = False
    except Exception as exc:  # noqa: BLE001 -- a raising op is a failed op
        failures.append(f"raised {type(exc).__name__}: {exc}")
        ok = False
    return time.perf_counter() - start, ok


def timed_phase(wl, seconds, failures):
    items = wl.items()
    latencies, n_ok = [], 0
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        dt, ok = run_op(wl, next(items), failures)
        latencies.append(dt)
        n_ok += ok
    return latencies, n_ok, time.perf_counter() - start


def traced_phase(wl, tracer, failures):
    """Each of the fixed traced ops runs once untraced and once traced,
    alternating which goes first; returns (attempted, ok, overhead)."""
    items = wl.items()
    plain, traced, n_ok = 0.0, 0.0, 0
    for k in range(wl.traced_ops):
        item = next(items)
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            tracer.enabled, tracer.op = on, k
            dt, ok = run_op(wl, item, failures)
            tracer.enabled = False
            n_ok += ok
            if on:
                traced += dt
            else:
                plain += dt
    return 2 * wl.traced_ops, n_ok, traced / plain


def check_counts(args, counts, digest):
    """Compare the traced counts with an earlier traced run of the same
    seed on the same source; any difference fails the run."""
    path = OUT / "counts" / f"{args.workload}-seed{args.seed}-{digest[:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        diff = {k: (earlier.get(k), v) for k, v in counts.items()
                if earlier.get(k) != v}
        if diff:
            print(f"bench: traced counts differ from {path}: {diff}",
                  file=sys.stderr)
            return False
        return True
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return True


def run_workload(args):
    import_program()
    import_s = time.perf_counter() - T_START
    sys.path.insert(0, str(BENCH_DIR))
    import tracer as tracing
    import workloads

    env = environment(args)
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
        tracer.enabled = True
    wl = workloads.make(args.workload, args.seed, args.seconds, OUT)
    failures = []
    try:
        setup_runs = []
        for _ in range(1 if args.trace else wl.setups):
            start = time.perf_counter()
            wl.setup()
            setup_runs.append(time.perf_counter() - start)
        tracer.enabled = False
        wl.prepare()
        if args.trace:
            attempted, n_ok, overhead = traced_phase(wl, tracer, failures)
        else:
            latencies, n_ok, elapsed = timed_phase(wl, args.seconds,
                                                   failures)
            attempted = len(latencies)
    except workloads.CheckFailed as exc:
        sys.exit(f"bench: set-up check failed: {exc}")
    finally:
        if hasattr(wl, "close"):
            wl.close()

    failed = attempted - n_ok
    correct = failed == 0
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = tracer.layer_metrics(overhead)
        tracer.write(OUT / f"spans-{tag}.jsonl")
        counts = tracing.counts_of(metrics)
        correct = check_counts(args, counts, env["source_sha256"]) \
            and correct
        report = {"missing": tracer.missing, "spans": len(tracer.spans)}
        if tracer.missing:
            print(f"bench: missing traced functions: {tracer.missing}",
                  file=sys.stderr)
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_runs),
            "certs_per_s": n_ok / elapsed,
            "cert_p50_s": statistics.median(latencies),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": n_ok / attempted,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in metrics.items()}
        report = {"failed_ratio": failed / attempted,
                  "op_max_s": max(latencies), "ops": attempted,
                  "import_s": import_s, "setup_runs_s": setup_runs,
                  "timed_s": elapsed}
    expected = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())[
            "per_layer" if args.trace else "end_to_end"]}
    if expected != set(metrics):
        sys.exit(f"bench: metrics {sorted(set(metrics) ^ expected)} "
                 "disagree with BENCHMARK.json")
    for failure in failures[:20]:
        print(f"bench: op failed: {failure}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"env": env, "report": report, "failures": failures, **result},
        indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}")
            status = 1
        if len(lines) < 2:
            continue
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"]
        rows.append((name, result, report))
    for name, result, report in rows:
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:<58} {metric['value']:>14.6g} {metric['unit']}")
        if not args.trace:
            print(f"  {'failed_ratio':<58} {report['failed_ratio']:>14.6g} "
                  "ratio")
            print(f"  {'op_max_s':<58} {report['op_max_s']:>14.6g} s")
    return status


def main():
    args = parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
