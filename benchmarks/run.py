"""symqfi benchmark: measure one workload for one seed and print one JSON line.

    python3 benchmarks/run.py --workload di_dense --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout that holds src/symqfi; nothing needs to
be built or installed.  Every measurement is a fresh interpreter running
benchmarks/worker.py, with BLAS pinned to one thread, one process at a time:

- --trace 0: SETUP_LAUNCHES set-up-only launches plus the measuring launch
  give setup_s as a median; the measuring launch reports the other
  end-to-end metrics with no tracing installed.  Timings are CPU time of the
  measuring thread, scaled to a reference host speed (worker.REFERENCE_PASS_S,
  see benchmarks/README.md).
- --trace 1: one launch wraps every layer in spans and reports the
  per-layer metrics.

The last stdout line is {"correct", "attempted", "failed", "metrics"} with
the metrics and units listed in BENCHMARK.json.  The line before it holds
the provenance, and benchmarks/results/ receives a detail file (provenance,
failure reasons, sample counts) and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import RESULTS, SRC
from workloads import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_LAUNCHES = 5
DEADLINE_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def launch_worker(options: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("benchmark ran out of time before starting a worker")
    env = dict(os.environ, **SINGLE_THREAD)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *options], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "symqfi").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "symqfi" / "__init__.py").is_file():
        print(f"error: no symqfi sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    deadline = time.monotonic() + DEADLINE_S
    options = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    launches = []
    if not args.trace:
        launches = [launch_worker(options + ["--setup-only"], deadline)
                    for _ in range(SETUP_LAUNCHES)]
    measured = launch_worker(options, deadline)
    launches.append(measured)
    setup = [launch["setup_s"] for launch in launches]

    values = dict(measured["metrics"], setup_s=statistics.median(setup))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": measured["failed"] == 0, "attempted": measured["attempted"],
              "failed": measured["failed"], "metrics": metrics}
    provenance = dict(measured["provenance"], workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, git_commit=git_commit(),
                      source_sha256=source_sha256(), nproc=os.cpu_count(),
                      affinity_cpus=len(os.sched_getaffinity(0)), load_processes=1)

    RESULTS.mkdir(exist_ok=True)
    detail = dict(result, provenance=provenance, setup_samples_s=setup,
                  raw_setup_samples_s=[launch["raw_setup_s"] for launch in launches],
                  failures=measured["failures"], details=measured["details"])
    detail_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
