"""One workload process: set-up, timed passes over the models, the oracle.

run.py starts this script in a fresh process per workload, so that its peak
RSS is its own.  The load is a closed loop with one client: the next model
is checked only after the previous verdict, pass after pass, until
--seconds have gone by (at least one pass).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --spawned-at T [--setup-only | --trace SPANS.npz]

--spawned-at is the parent's time.monotonic() just before it started this
process; on Linux that clock is system-wide, so set-up time counts
interpreter start-up too.  The last line of standard output is one JSON
document.
"""
import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _p95(values: list) -> float:
    """Nearest-rank 95th percentile (the maximum below 20 values)."""
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def _import_uta():
    sys.path.insert(0, str(ROOT / "src"))
    import uta.cli  # what the command line loads before it reads a model

    if Path(uta.cli.__file__).resolve().parent != ROOT / "src" / "uta":
        raise SystemExit(f"imported uta from {uta.cli.__file__}, "
                         f"not from {ROOT / 'src'}")


def run_passes(models, nets, seconds: float, tracer=None) -> dict:
    """Check every model, pass after pass, and hold each result to its
    known answer right after it, outside the timed span."""
    check = workloads.check
    if tracer is not None:
        check = tracer.span("check", check)
    passes, failures, counters = [], [], []
    latencies_ms = [[] for _ in models]  # per model, one entry per pass
    attempted = dequeued = 0
    rss_search_kb = 0
    rss_before = _maxrss_kb()
    loop_start = time.monotonic()
    while True:
        pass_s = 0.0
        for model, net, lat in zip(models, nets, latencies_ms):
            if tracer is not None:
                tracer.check_id = attempted
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = check(model, net)
            except Exception:  # a crash fails this check; the run goes on
                out = workloads.Outcome(net, [], error=traceback.format_exc())
            seconds_used = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
            pass_s += seconds_used
            lat.append(seconds_used * 1000.0)
            attempted += 1
            if not passes and out.stats is not None:
                dequeued += out.stats.nodes
            try:
                reason = workloads.verify(model, out)
            except Exception:
                reason = traceback.format_exc()
            if reason is not None:
                failures.append(f"pass {len(passes) + 1}: {model.name}: {reason}")
            del out  # a uta process holds one result at a time
        if not passes:
            rss_search_kb = _maxrss_kb() - rss_before
        passes.append(pass_s)
        if tracer is not None:
            counters.append(tracer.take_counters())
        if time.monotonic() - loop_start >= seconds:
            break
    return {
        "passes_s": passes,
        "check_s": statistics.median(passes),
        # each model's median over the passes, so that one slow pass of a
        # workload with few models does not set its tail
        "model_p95_ms": _p95([statistics.median(lat) for lat in latencies_ms]),
        "latencies_ms": latencies_ms,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "rss_per_dequeued_kb": rss_search_kb / dequeued if dequeued else 0.0,
        "counters": counters,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", metavar="SPANS.npz", default=None)
    args = ap.parse_args(argv)

    _import_uta()
    imported = time.monotonic()
    import numpy
    from uta import format

    import tracing

    models = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace is not None:
        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.monotonic()
    nets = [format.parse(m.text, filename=m.name) for m in models]
    parsed = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
        setup_counters = tracer.take_counters()
    # The parsed models of the whole workload live for the whole run, where
    # a uta process holds one.  Freezing them keeps every full collection
    # from scanning them again.
    gc.collect()
    gc.freeze()
    doc = {
        # model generation stands in for reading model files, so it is
        # left out of set-up
        "setup_s": (imported - args.spawned_at) + (parsed - t0),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if not args.setup_only:
        doc["models"] = [
            {"name": m.name, "expected": m.expected, "source": m.source}
            for m in models]
        doc.update(run_passes(models, nets, args.seconds, tracer))
        doc["peak_rss_mb"] = _maxrss_kb() / 1024.0
        counters = doc.pop("counters")
        if tracer is not None:
            sums = tracing.span_sums(tracer, len(models), len(counters))
            layers = tracing.median_metrics(
                [tracing.pass_metrics(s, c) for s, c in zip(sums, counters)])
            layers["format.parse_s"] = tracing.setup_parse_seconds(tracer)
            layers["format.model_bytes"] = setup_counters["format.model_bytes"]
            doc["layers"] = layers
            doc["spans"] = len(tracer.name)
            tracer.save(args.trace)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
