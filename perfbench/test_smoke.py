"""Smoke test of the benchmark itself (python3 -m pytest perfbench).

A tiny run must print every metric that BENCHMARK.json names, the oracle
must count a wrong expected verdict as a failed check, and a directory
without the program's source must give no result.
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)


def test_tiny_run_emits_every_named_metric():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in doc["metrics"].items()}
        assert got == want
        for m in doc["metrics"].values():
            assert isinstance(m["value"], (int, float))


def test_flipped_expected_verdict_counts_as_failed():
    worker._import_uta()
    from uta.format import parse

    flip = {"Reachable": "Unreachable", "Unreachable": "Reachable"}
    models = [
        replace(m, expected=flip[m.expected]) if m.kind == workloads.REACH else m
        for m in workloads.build("tiny", 0)
    ]
    nets = [parse(m.text) for m in models]
    got = worker.run_passes(models, nets, seconds=0)
    flipped = sum(m.kind == workloads.REACH for m in models)
    assert flipped == 2
    assert got["failed"] == flipped
    assert got["failed"] / got["attempted"] > 0


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
