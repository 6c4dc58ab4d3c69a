"""The summary of the paired benchmark script, on synthetic numbers."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summarize_quartiles_and_pairs_won():
    parent = [10.0, 12.0, 14.0, 16.0, 18.0]
    change = [9.0, 13.0, 13.0, 15.0, 18.0]
    runs = [{"parent": {"t": p, "hits": p}, "change": {"t": c, "hits": c}}
            for p, c in zip(parent, change)]
    out = bench_pairs.summarize(runs, {"t": "lower", "hits": "higher"})
    t = out["t"]
    assert t["parent"] == {"median": 14.0, "q1": 12.0, "q3": 16.0}
    assert t["change"] == {"median": 13.0, "q1": 13.0, "q3": 15.0}
    # lower wins in pairs 1, 3 and 4; the tie in pair 5 wins for neither side
    assert t["change_better_pairs"] == 3
    assert t["median_change_ratio"] == pytest.approx(13 / 14 - 1)
    assert out["hits"]["change_better_pairs"] == 1


def test_summarize_one_pair():
    out = bench_pairs.summarize([{"parent": {"t": 2.0}, "change": {"t": 1.0}}],
                                {"t": "lower"})
    assert out["t"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert out["t"]["change_better_pairs"] == 1
    assert out["t"]["median_change_ratio"] == -0.5


def test_counts_compare_what_both_sides_report():
    parent = {"row": {"nodes": 5, "stored": None, "search_seconds": 1.0,
                      "analysis_seconds": None, "peak_rss_mb": None,
                      "zone_bytes": 900}}
    change = {"row": {"nodes": 5, "stored": 3, "search_seconds": 0.5,
                      "analysis_seconds": 0.25, "peak_rss_mb": 70.0,
                      "zone_bytes": 100}}
    assert bench_pairs.same_counts(parent, change)
    assert not bench_pairs.same_counts(parent, {"row": {**change["row"], "nodes": 6}})
    assert not bench_pairs.same_counts(parent, {})


def test_layer_split_runs_alternating_traced_pairs(monkeypatch):
    calls = []

    def run(tree, workload, seed, seconds, trace=0):
        calls.append((tree, workload, seed, seconds, trace))
        metrics = {"simulation.diag_calls": {"value": len(calls), "unit": "count"}}
        return {"metrics": metrics}, {}

    monkeypatch.setattr(bench_pairs, "_run_bench", run)
    trees = {"parent": "p", "change": "c"}
    out = bench_pairs.layer_split(trees, ["a", "b"], 20)
    # three traced pairs, seeds 1 to 3, workloads interleaved within a pair
    # and the first side alternating, as in the untraced pairs
    assert calls == [("p", "a", 1, 20, 1), ("c", "a", 1, 20, 1),
                     ("c", "b", 1, 20, 1), ("p", "b", 1, 20, 1),
                     ("c", "a", 2, 20, 1), ("p", "a", 2, 20, 1),
                     ("p", "b", 2, 20, 1), ("c", "b", 2, 20, 1),
                     ("p", "a", 3, 20, 1), ("c", "a", 3, 20, 1),
                     ("c", "b", 3, 20, 1), ("p", "b", 3, 20, 1)]
    diag = [run["parent"]["simulation.diag_calls"] for run in out["a"]["runs"]]
    assert diag == [1, 6, 9]
    assert [run["first"] for run in out["b"]["runs"]] == ["change", "parent", "change"]
    # each side's median over its three runs
    assert out["a"]["median"] == {"parent": {"simulation.diag_calls": 6},
                                  "change": {"simulation.diag_calls": 5}}
    assert out["b"]["median"] == {"parent": {"simulation.diag_calls": 7},
                                  "change": {"simulation.diag_calls": 8}}
