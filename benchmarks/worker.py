"""One benchmark process: import symqfi from src/, warm up, measure one workload.

run.py starts this in a fresh interpreter for every launch, so each
measurement pays its own import and lazy-cache set-up:

    python3 benchmarks/worker.py --workload di_dense --seed 1 --seconds 30 --trace 0
    python3 benchmarks/worker.py --workload di_dense --seed 1 --setup-only

The last line of stdout is one JSON object with raw (unit-less) numbers.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOAD_NAMES, Oracle, make_workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

MIN_OPS = 100  # p90 then has at least 10 samples beyond it
PERCENTILES = ("50", "90", "99", "99.9")
MAX_LISTED_FAILURES = 20

# Host speed drifts by tens of percent over minutes on shared machines, and an
# operation slows with it.  Timings are therefore scaled to a host on which the
# workload's reference pass takes REFERENCE_PASS_S[workload], using the passes
# run beside them (see make_reference_pass).
REFERENCE_PASS_S = {"di_dense": 10e-3, "rotation_opt": 5e-3, "steady_map": 4e-3}
PACE_HALF_WIDTH = 2
SETUP_PASSES = 9

# Operations and reference passes are timed in CPU time of the one thread that
# runs them (BLAS is pinned to that thread), so time the scheduler gives to
# other processes, or the hypervisor to other guests, is not counted.
cpu_clock = time.thread_time


def tail_percentile(samples: int, candidates=PERCENTILES) -> Fraction | None:
    """Highest candidate percentile with at least 10 samples beyond it."""
    supported = [Fraction(p) for p in candidates if samples * (100 - Fraction(p)) >= 1000]
    return max(supported, default=None)


def percentile(values, p, steps: int = 64) -> float:
    """Harrell-Davis estimate of the p-th percentile (0 < p < 100).

    The mean of all ordered values, weighted by how much of a
    Beta(q(n+1), (1-q)(n+1)) distribution, q = p/100, falls on each rank
    (integrated by the midpoint rule with `steps` points per rank).  Each
    round of a workload repeats the same few dozen cell kinds, so latencies
    form clusters; a single order statistic jumps from one cluster to the
    next as the host noise reorders operations near it, a weighted mean of
    its neighbours does not.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    q = float(p) / 100.0
    t = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (q * (n + 1) - 1) * np.log(t) + ((1 - q) * (n + 1) - 1) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(weights @ x / weights.sum())


def import_symqfi():
    """Import symqfi from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import symqfi
    import symqfi.cli  # noqa: F401  (the steady_map workload drives the CLI)

    if Path(symqfi.__file__).resolve().parent != SRC / "symqfi":
        raise SystemExit(f"symqfi was imported from {symqfi.__file__}, not from {SRC}")
    return symqfi


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def interpreter_provenance(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads()}


def _attempt(call):
    try:
        return call()
    except Exception as exc:  # an operation that raises is a failed operation
        return exc


def _symmetric(np, d: int):
    r = np.arange(float(d))
    a = np.cos(np.add.outer(r, 2.0 * r))
    return a + a.T


def make_reference_pass(name: str):
    """A function that runs the workload's reference kernel once and returns
    its CPU seconds.

    The kernel is fixed work of the kind the workload's operations spend their
    time in, and calls nothing from symqfi: host slowdowns hit small numpy
    calls, small eigh and large eigh by different amounts, and a kernel of the
    same kind tracks the operations beside it best.
    """
    import numpy as np

    w1, w2, m2 = np.linspace(0.0, 1.0, 15), np.linspace(1.0, 2.0, 18), np.arange(18) - 8.5
    small, dense = _symmetric(np, 120), _symmetric(np, 300)

    def small_numpy(repeats: int):
        """The closed forms' work: numpy calls on arrays of a few dozen entries."""
        for _ in range(repeats):
            s0, s1 = np.convolve(w1, w2), np.convolve(w1, w2 * m2)
            keep = s0 > 1e-3
            float(np.sum(s1[keep] - s0[keep] ** 2))

    def timed(*work):
        def one_pass() -> float:
            start = cpu_clock()
            for step in work:
                step()
            return cpu_clock() - start
        return one_pass

    if name == "di_dense":  # the O(d^3) dense path
        return timed(lambda: np.linalg.eigh(dense))
    if name == "rotation_opt":  # many pipeline evaluations at d <= 36
        return timed(lambda: small_numpy(100), lambda: np.linalg.eigh(small),
                     lambda: np.linalg.eigh(small))
    if name == "steady_map":
        return timed(lambda: small_numpy(200))
    raise ValueError(f"unknown workload {name!r}")


def measure(sq, workload, rounds, reference_pass, seconds: float, min_ops: int):
    """Run whole rounds until `seconds` have passed and min_ops operations are done.

    A reference pass runs before every operation and once after the last, so
    paces[i] and paces[i + 1] bracket operation i.
    """
    done, latencies, paces = [], [], []
    start = time.perf_counter()
    while True:
        for cell in next(rounds):
            call = workload.prepare(sq, cell)
            paces.append(reference_pass())
            t = cpu_clock()
            out = _attempt(call)
            latencies.append(cpu_clock() - t)
            done.append((cell, out))
        if time.perf_counter() - start >= seconds and len(done) >= min_ops:
            paces.append(reference_pass())
            return done, latencies, paces


def replay(sq, workload, cells, reference_pass, tracer, root_span: str):
    """Run the given cells again, each inside a root span, with reference
    passes placed as measure() places them."""
    done, latencies, paces = [], [], []
    for cell in cells:
        call = tracer.wrap(workload.prepare(sq, cell), root_span)
        paces.append(reference_pass())
        t = cpu_clock()
        done.append((cell, _attempt(call)))
        latencies.append(cpu_clock() - t)
    paces.append(reference_pass())
    return done, latencies, paces


def check_all(sq, workload, done, oracle: Oracle) -> list[str]:
    """Reasons for every failed operation: raised, wrong or failed its oracle."""
    reasons = []
    for cell, out in done:
        if isinstance(out, Exception):
            reason = f"raised {out!r}"
        else:
            try:
                reason = workload.check(sq, cell, out, oracle)
            except Exception as exc:  # a malformed output is a failed operation
                reason = f"check raised {exc!r}"
        if reason:
            reasons.append(f"{json.dumps(cell)}: {reason}")
    return reasons


def pace_factors(paces: list[float], reference_s: float,
                 half_width: int = PACE_HALF_WIDTH) -> list[float]:
    """reference_s over the mean reference pass near each operation:
    operation i gets the passes from i - half_width to i + 1 + half_width,
    the two that bracket it and their neighbours.  A mean, not a median,
    because a slow spell that stretches one pass also stretches the
    operations next to it."""
    return [reference_s / statistics.fmean(paces[max(0, i - half_width):i + 2 + half_width])
            for i in range(len(paces) - 1)]


def timed_run(sq, workload, rounds, reference_pass, reference_s: float, seconds: float) -> dict:
    done, latencies, paces = measure(sq, workload, rounds, reference_pass, seconds, MIN_OPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    oracle = Oracle()
    failures = check_all(sq, workload, done, oracle)
    lat_ms = [1e3 * x * f for x, f in zip(latencies, pace_factors(paces, reference_s))]
    tail = tail_percentile(len(lat_ms))
    metrics = {
        "ops_per_s": 1e3 * len(done) / sum(lat_ms),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "ok_frac": 1.0 - len(failures) / len(done),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {"samples": len(lat_ms), "tail_percentile": float(tail),
               "latency_tail_ms": percentile(lat_ms, tail), "max_norm_dev": oracle.max_norm_dev,
               "raw_ops_per_s": len(done) / sum(latencies),
               "raw_latencies_ms": [1e3 * x for x in latencies],
               "reference_passes_ms": [1e3 * x for x in paces], "latencies_ms": lat_ms}
    return {"attempted": len(done), "failed": len(failures),
            "failures": failures[:MAX_LISTED_FAILURES], "metrics": metrics, "details": details}


def traced_run(sq, workload, rounds, reference_pass, reference_s: float, seconds: float,
               trace_path: Path) -> dict:
    """Untraced pass for seconds/2, then the same cells again with every layer traced."""
    import numpy as np
    from tracing import ROOT_SPAN, SPAN_NAMES, Tracer

    done, latencies, paces = measure(sq, workload, rounds, reference_pass, seconds / 2.0, 1)
    untraced_s = sum(x * f for x, f in zip(latencies, pace_factors(paces, reference_s)))
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_lat, traced_paces = replay(sq, workload, [cell for cell, _ in done],
                                                  reference_pass, tracer, ROOT_SPAN)
    finally:
        tracer.uninstall()
    oracle = Oracle()
    failures = check_all(sq, workload, done + traced, oracle)

    stats = tracer.layer_stats()
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = stats[name]["calls"]
        metrics[f"{name}.self_s"] = stats[name]["self_s"]
    metrics.update(tracer.counters)
    optimizer_calls = stats["schemes.optimize_rotation"]["calls"]
    evals = tracer.child_calls("schemes.optimize_rotation", "schemes.scheme_qfi")
    metrics["schemes.optimize_rotation.evals_per_call"] = (
        evals / optimizer_calls if optimizer_calls else 0.0)
    metrics["cli.bytes_written"] = sum(os.path.getsize(out[1]) for _, out in traced
                                       if isinstance(out, tuple))
    metrics["check.max_norm_dev"] = oracle.max_norm_dev
    # both runs scaled to the reference host speed, so host drift between them cancels
    traced_factors = pace_factors(traced_paces, reference_s)
    scaled_traced_s = sum(x * f for x, f in zip(traced_lat, traced_factors))
    metrics["trace.overhead_frac"] = scaled_traced_s / untraced_s - 1.0
    traced_s = sum(traced_lat)
    metrics["trace.self_sum_frac"] = sum(s["self_s"] for s in stats.values()) / traced_s

    np.savez_compressed(trace_path, **tracer.arrays())
    details = {"untraced_ops_s": untraced_s, "traced_ops_s": scaled_traced_s,
               "raw_traced_ops_s": traced_s, "spans": len(tracer.start),
               "missing_layers": tracer.missing, "trace_file": trace_path.name,
               "max_norm_dev": oracle.max_norm_dev}
    return {"attempted": len(done) + len(traced), "failed": len(failures),
            "failures": failures[:MAX_LISTED_FAILURES], "metrics": metrics, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only import and warm up, then report the set-up time")
    args = parser.parse_args(argv)

    RESULTS.mkdir(exist_ok=True)
    start = time.process_time()  # CPU time, like the operations; counts every thread
    sq = import_symqfi()
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    try:
        workload = make_workload(args.workload, out_dir)
        workload.warm_up(sq)
        setup_s = time.process_time() - start
        reference_pass = make_reference_pass(args.workload)
        reference_s = REFERENCE_PASS_S[args.workload]
        passes = [reference_pass() for _ in range(SETUP_PASSES)]
        if args.setup_only:
            result = {}
        else:
            rounds = workload.rounds(args.seed)
            if args.trace:
                trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.npz"
                result = traced_run(sq, workload, rounds, reference_pass, reference_s,
                                    args.seconds, trace_path)
            else:
                result = timed_run(sq, workload, rounds, reference_pass, reference_s,
                                   args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    import numpy as np

    result["setup_s"] = setup_s * reference_s / statistics.median(passes)
    result["raw_setup_s"] = setup_s
    result["provenance"] = interpreter_provenance(np)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
