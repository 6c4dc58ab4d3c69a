"""Paired benchmark runs of the working tree against a parent commit.

    python3 tools/bench_pairs.py --label N [--pairs 10] [--scratch DIR]

Copies the parent commit, HEAD (``git archive``), and the working tree (its
tracked and untracked files, ignored ones left out) into fresh
directories under --scratch, so that both sides start without caches or
old results.  Each pair runs ``perfbench/run.py --trace 0`` once per
workload of BENCHMARK.json on each side, for its run length, workloads
interleaved within the pair and the side that runs first alternating.
Before the pairs it takes the dequeued, pruned, kernel and stored counts
of the EDF rows, the slow flower row included, the search's and the
analysis's seconds, the process's peak RSS and the bytes of the packed
zones, from ``uta reach --format json`` on each side, and the per-layer
metrics of three alternating pairs of traced runs per workload
(``perfbench/run.py --trace 1``, seeds 1 to 3), which are recorded, with
each side's median, and never compared.  Beside the layers the runs
report, it reads ``analysis.report_json_s`` from each traced run's span
file.  It also records the sha256 of ``tools/dump_reports.py``'s output on
each side, the working tree's script run over each side's program, and
the line count (``wc -l``) of each ``src/uta/*.py`` file per side, with
their total, and per side ``import_s``: the median over IMPORT_RUNS fresh
processes, the sides alternating, of the seconds that ``import uta.cli``
takes inside the process, which set-up time counts along with the
interpreter's start.

Writes BENCH_<label>.json at the repository root, after every pair, so that
an interrupted run keeps what it measured: per workload and end-to-end
metric of BENCHMARK.json, the median and q1-q3 of each side and the pairs
the change wins, then every run, the search counts, the layer split and
the host stamp.
Standard library only, and numpy to read the span files.
"""
import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

# (row, `uta gen edf` arguments) of the rows whose search counts are kept
EDF_ROWS = (
    ("mine-pump", ["--preset", "mine-pump"]),
    ("flower (1,10)^2+(1,4)", ["--tasks", "1:10,1:10,1:4", "--release", "flower"]),
    ("flower (1,3)^4", ["--tasks", "1:3,1:3,1:3,1:3", "--release", "flower"]),
    # the slow row, a minute a side
    ("flower (1,10)^3+(1,4)",
     ["--tasks", "1:10,1:10,1:10,1:4", "--release", "flower"]),
)
COUNTS = ("verdict", "nodes", "pruned_exact", "pruned_sim", "pruned_subtree",
          "max_frontier", "kernel_candidates", "diag_calls", "stored")
# measured per row beside the counts, and left out of their comparison
MEASURED = ("search_seconds", "analysis_seconds", "peak_rss_mb", "zone_bytes")
# traced pairs per workload in the layer split
LAYER_PAIRS = 3
# fresh processes per side that time `import uta.cli`
IMPORT_RUNS = 7
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import uta.cli; "
                 "print(time.perf_counter() - t)")


def _quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, better: dict) -> dict:
    """Per metric of better (name -> "lower" or "higher"): each side's
    median and q1/q3 over runs, the pairs where the change is strictly
    better, and the change of the median relative to the parent's.  Each
    run maps each side to its metric values."""
    out = {}
    for name, direction in better.items():
        sides = {side: [run[side][name] for run in runs] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        won = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        stats = {side: _quartiles(values) for side, values in sides.items()}
        out[name] = {
            **stats,
            "change_better_pairs": won,
            "median_change_ratio": stats["change"]["median"] / stats["parent"]["median"] - 1,
        }
    return out


def same_counts(parent: dict, change: dict) -> bool:
    """Whether both sides' rows agree on every count that both report:
    a counter that one side does not have (None) is not compared."""
    if parent.keys() != change.keys():
        return False
    for row, p in parent.items():
        c = change[row]
        for k in p.keys() | c.keys():
            if k in MEASURED or p.get(k) is None or c.get(k) is None:
                continue
            if p[k] != c[k]:
                return False
    return True


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def _copy_parent(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def _copy_change(dest: Path) -> None:
    for rel in _git("ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").split("\0"):
        if rel and (ROOT / rel).is_file():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / rel, dest / rel)


def _env(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(tree / "src")
    return env


def report_json_seconds(tree: Path, workload: str, seed: int) -> float:
    """The median over the passes of a traced run of the seconds spent in
    ``analysis.report_json``, read from the span file and the result that
    `perfbench/run.py --trace 1` leaves in the tree's ``perfbench/out``."""
    import numpy as np

    out = tree / "perfbench" / "out"
    result = json.loads((out / f"result-{workload}-seed{seed}-trace1.json").read_text())
    traced = result["workers"][-1]
    n_models, n_passes = len(traced["models"]), len(traced["passes_s"])
    with np.load(out / f"spans-{workload}-seed{seed}.npz") as spans:
        names = list(spans["names"])
        check = spans["check"]
        sel = (spans["name"] == names.index("analysis.report_json")) & (check >= 0)
        seconds = np.bincount(check[sel] // n_models,
                              weights=(spans["end"] - spans["start"])[sel],
                              minlength=n_passes)
    return float(statistics.median(seconds.tolist()))


def _run_bench(tree: Path, workload: str, seed: int, seconds: int,
               trace: int = 0) -> tuple[dict, dict]:
    """(result line, stamp) of one `perfbench/run.py` run; a traced run's
    metrics gain ``analysis.report_json_s``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=_env(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if trace:
        result["metrics"]["analysis.report_json_s"] = {
            "value": report_json_seconds(tree, workload, seed), "unit": "s"}
    return result, json.loads(lines[-2])["stamp"]


def src_lines(tree: Path) -> dict:
    """`wc -l` of each ``src/uta/*.py`` file of the tree, and their total."""
    files = {p.name: p.read_bytes().count(b"\n")
             for p in sorted((tree / "src" / "uta").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def _import_seconds(tree: Path) -> float:
    """Seconds that ``import uta.cli`` takes in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=_env(tree),
                          check=True, capture_output=True, text=True)
    return float(proc.stdout)


def import_seconds(trees: dict) -> dict:
    """Per side, every `_import_seconds` of IMPORT_RUNS fresh processes, the
    side that runs first alternating, and their median."""
    runs = {side: [] for side in SIDES}
    for k in range(IMPORT_RUNS):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[side].append(_import_seconds(trees[side]))
    return {side: {"median": statistics.median(r), "runs": r}
            for side, r in runs.items()}


def _dump_sha256(tree: Path, script: Path) -> str:
    """sha256 of `tools/dump_reports.py`'s output over the tree's program."""
    proc = subprocess.run([sys.executable, str(script)], env=_env(tree),
                          check=True, capture_output=True)
    return hashlib.sha256(proc.stdout).hexdigest()


def _search_counts(tree: Path, work: Path) -> dict:
    """Verdict, counts and path of each EDF row on one side, through the
    command line, with the search's and the analysis's seconds and the
    peak RSS beside them."""
    out = {}
    for row, gen_args in EDF_ROWS:
        model = work / f"{tree.name}-{len(out)}.uta"
        cli = [sys.executable, "-m", "uta.cli"]
        subprocess.run([*cli, "gen", "edf", *gen_args, "-o", str(model)],
                       env=_env(tree), check=True, capture_output=True)
        proc = subprocess.run([*cli, "reach", str(model), "--target", "error",
                               "--format", "json"],
                              env=_env(tree), capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"{tree.name} {row}: {proc.stderr[-2000:]}")
        doc = json.loads(proc.stdout)
        # doc.get: a parent without a counter reports None for it
        out[row] = {**{k: doc.get(k) for k in COUNTS},
                    "path_steps": len(doc["path"]) if "path" in doc else None,
                    "path_sha256": hashlib.sha256(
                        json.dumps(doc.get("path")).encode()).hexdigest(),
                    "model_sha256": hashlib.sha256(model.read_bytes()).hexdigest(),
                    "search_seconds": doc["seconds"],
                    **{k: doc.get(k) for k in MEASURED[1:]}}
    return out


def layer_split(trees: dict, workloads: list, seconds: int) -> dict:
    """Per workload, the per-layer metrics of LAYER_PAIRS pairs of
    `perfbench/run.py --trace 1` runs, pair p with seed p + 1, ordered as
    the untraced pairs are: workloads interleaved within a pair, the side
    that runs first alternating.  Keeps every run and each side's median
    of each metric over them."""
    runs = {w: [] for w in workloads}
    for pair in range(LAYER_PAIRS):
        for k, workload in enumerate(workloads):
            order = SIDES if (pair + k) % 2 == 0 else SIDES[::-1]
            run = {"seed": pair + 1, "first": order[0]}
            for side in order:
                result, _ = _run_bench(trees[side], workload, pair + 1, seconds,
                                       trace=1)
                run[side] = {m: v["value"] for m, v in result["metrics"].items()}
            runs[workload].append(run)
    return {w: {"median": {side: {m: statistics.median(run[side][m] for run in r)
                                  for m in r[0][side]}
                           for side in SIDES},
                "runs": r}
            for w, r in runs.items()}


def _host(stamps: dict) -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next((line.split(":", 1)[1].strip()
                    for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    keep = ("src_sha256", "python", "numpy", "nproc")
    return {"machine": f"{platform.machine()}, {cpu or 'unknown cpu'}, "
                       f"{os.cpu_count()} cores",
            **{side: {k: stamps[side].get(k) for k in keep} for side in SIDES}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--scratch", default=None,
                    help="directory for the two copies (default: a temporary one)")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.scratch))
    trees = {side: work / side for side in SIDES}
    parent = _git("rev-parse", "HEAD").strip()
    _copy_parent(parent, trees["parent"])
    _copy_change(trees["change"])
    counts = {side: _search_counts(trees[side], work) for side in SIDES}
    dumps = {side: _dump_sha256(trees[side], trees["change"] / "tools" / "dump_reports.py")
             for side in SIDES}

    doc = {
        "parent_commit": parent,
        "command": "python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {seconds} --trace 0",
        "method": "parent and change each run from a fresh copy of its tree; per "
                  "pair one run of each workload on each side, workloads "
                  "interleaved, the side that runs first alternating (field "
                  "'first'); median and q1/q3 over the pairs (statistics."
                  "quantiles, n=4, inclusive); change_better_pairs counts the "
                  "pairs where the change is strictly better",
        "search_counts": {
            "same_on_both_sides": same_counts(*(counts[side] for side in SIDES)),
            **{row: {side: counts[side][row] for side in SIDES} for row, _ in EDF_ROWS},
        },
        "report_dump": {
            "command": "python3 tools/dump_reports.py",
            "same_on_both_sides": dumps["parent"] == dumps["change"],
            **{f"{side}_sha256": dumps[side] for side in SIDES},
        },
        "src_lines": {side: src_lines(trees[side]) for side in SIDES},
        "import_s": {"command": f"python3 -c {_IMPORT_PROBE!r}",
                     **import_seconds(trees)},
        "layers": {
            "command": "python3 perfbench/run.py --workload W --seed N "
                       f"--seconds {seconds} --trace 1",
            "note": f"{LAYER_PAIRS} traced pairs per workload, seeds 1 to "
                    f"{LAYER_PAIRS}, ordered as the untraced pairs; every run "
                    "and each side's median, recorded and never compared; "
                    "the tracer miscounts search.pruned_exact and "
                    "search.pruned_sim: it counts every diagonal-recursion "
                    "call that returns True as a simulation prune, reverse "
                    "ones included, and the other prunes, subtree prunes "
                    "included, as exact; search_counts, from uta reach "
                    "--format json, are the authority for counts; "
                    "analysis.report_json_s is the median over a run's "
                    "passes of its analysis.report_json spans, read from "
                    "its span file",
            "runs": layer_split(trees, workloads, seconds),
        },
        "workloads": {},
    }
    runs = {w: [] for w in workloads}
    stamps: dict = {}
    out = ROOT / f"BENCH_{args.label}.json"
    for pair in range(args.pairs):
        for k, workload in enumerate(workloads):
            order = SIDES if (pair + k) % 2 == 0 else SIDES[::-1]
            run = {"seed": pair + 1, "first": order[0], "failed": {}}
            for side in order:
                t0 = time.monotonic()
                result, stamps[side] = _run_bench(trees[side], workload, pair + 1,
                                                  seconds)
                run[side] = {m: v["value"] for m, v in result["metrics"].items()}
                run["failed"][side] = [result["failed"], result["attempted"]]
                print(f"pair {pair + 1} {workload} {side}: "
                      f"{time.monotonic() - t0:.0f} s, {run[side]}", file=sys.stderr)
            runs[workload].append(run)
        doc["workloads"] = {w: {"pairs": len(r), "metrics": summarize(r, better), "runs": r}
                            for w, r in runs.items()}
        doc["host"] = _host(stamps)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    shutil.rmtree(work)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
