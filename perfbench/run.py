"""The uta-check benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src`` directory, and the run fails without printing a
result when that is missing.  Workloads and metrics are described in
README.md beside this file.

--trace 0 starts set-up probes and one untraced workload process and
reports the end-to-end metrics.  --trace 1 starts an untraced workload
process for one pass and then a traced one, and reports the per-layer
metrics; the traced process writes its spans to out/.  Every process is waited for.  The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# set-up is timed in this many fresh processes, the workload process included
SETUP_SAMPLES = 7
# a run must end within 180 s
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "check_s": "s",
    "model_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "format.parse_s": "s",
    "format.model_bytes": "bytes",
    "analysis.compute_gmap_s": "s",
    "analysis.sweeps": "count",
    "analysis.atoms": "count",
    "analysis.diverged_share": "ratio",
    "search.reach_self_s": "s",
    "search.successors_self_s": "s",
    "search.dequeued": "count",
    "search.generated": "count",
    "search.pruned_exact": "count",
    "search.pruned_sim": "count",
    "search.max_frontier": "count",
    "search.rss_per_dequeued_kb": "KB",
    "dbm.successor_s": "s",
    "dbm.successor_calls": "count",
    "dbm.empty_share": "ratio",
    "simulation.prepare_s": "s",
    "simulation.prepare_calls": "count",
    "simulation.batch_s": "s",
    "simulation.batch_candidates": "count",
    "simulation.batch_refuted_share": "ratio",
    "simulation.diag_s": "s",
    "simulation.diag_calls": "count",
    "simulation.diag_covered_share": "ratio",
    "trace_overhead_share": "ratio",
}


class BenchError(Exception):
    pass


def _worker(args, deadline: float, *extra: str, seconds=None) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds if seconds is None else seconds),
           *extra,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"workload process passed the {RUN_BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise BenchError(f"workload process failed ({proc.returncode}):\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stamp(args, doc: dict) -> dict:
    """Where and on what the run was made."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "uta").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": doc["python"],
        "numpy": doc["numpy"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args) -> tuple[dict, dict, list]:
    """(metrics, stamp, worker documents) of one run."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace == 0:
        probes = [_worker(args, deadline, "--setup-only")
                  for _ in range(SETUP_SAMPLES - 1)]
        main = _worker(args, deadline)
        metrics = {
            "check_s": main["check_s"],
            "model_p95_ms": main["model_p95_ms"],
            "setup_s": statistics.median(
                [p["setup_s"] for p in probes] + [main["setup_s"]]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        docs = [main]
    else:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        # one untraced pass is the reference for the tracing overhead
        main = _worker(args, deadline, seconds=0)
        traced = _worker(args, deadline, "--trace", str(spans))
        metrics = dict(traced["layers"])
        metrics["search.rss_per_dequeued_kb"] = main["rss_per_dequeued_kb"]
        metrics["trace_overhead_share"] = traced["check_s"] / main["check_s"] - 1.0
        docs = [main, traced]
    units = END_TO_END_UNITS if args.trace == 0 else PER_LAYER_UNITS
    return ({name: {"value": metrics[name], "unit": unit}
             for name, unit in units.items()},
            _stamp(args, main), docs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 + ", ".join(WORKLOADS))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "uta" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'uta'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        metrics, stamp, docs = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    for d in docs:
        for line in d["failures"]:
            print(f"failed: {line}", file=sys.stderr)
    record = {"stamp": stamp, "metrics": metrics, "workers": docs}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
