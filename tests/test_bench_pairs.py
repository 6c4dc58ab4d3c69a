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


def test_report_json_seconds_per_pass_median(tmp_path):
    import numpy as np

    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    # two models a pass, three passes; set-up spans (check -1) and other
    # span names do not count
    result = {"workers": [{"models": []},
                          {"models": ["m1", "m2"], "passes_s": [1.0, 1.0, 1.0]}]}
    (out / "result-w-seed4-trace1.json").write_text(bench_pairs.json.dumps(result))
    rows = [  # (name id, check, start, end)
        (0, -1, 0.0, 5.0), (1, 0, 0.0, 1.0), (1, 1, 1.0, 1.5), (0, 1, 0.0, 9.0),
        (1, 2, 2.0, 2.25), (1, 4, 3.0, 7.0), (1, 5, 0.0, 0.5),
    ]
    name, check, start, end = map(np.array, zip(*rows))
    np.savez(out / "spans-w-seed4.npz",
             names=np.array(["format.parse", "analysis.report_json"]),
             name=name.astype(np.int32), parent=np.full(len(rows), -1),
             check=check.astype(np.int32), start=start, end=end)
    # per pass 1.5, 0.25 and 4.5 s
    assert bench_pairs.report_json_seconds(tmp_path, "w", 4) == 1.5


def test_src_lines_counts_newlines_per_file(tmp_path):
    src = tmp_path / "src" / "uta"
    src.mkdir(parents=True)
    (src / "a.py").write_text("x = 1\ny = 2\n")
    (src / "b.py").write_text("z = 3")  # no final newline: 0 lines, as wc -l
    (src / "notes.txt").write_text("left out\n")
    assert bench_pairs.src_lines(tmp_path) == {
        "files": {"a.py": 2, "b.py": 0}, "total": 2}
    # the tree's own package sums to the wc -l total
    here = bench_pairs.src_lines(bench_pairs.ROOT)
    assert here["total"] == sum(here["files"].values()) > 1000
    assert "search.py" in here["files"]


def test_import_seconds_alternate_sides_and_take_the_median(monkeypatch):
    calls = []

    def probe(tree):
        calls.append(tree)
        return float(len(calls))

    monkeypatch.setattr(bench_pairs, "_import_seconds", probe)
    out = bench_pairs.import_seconds({"parent": "p", "change": "c"})
    # seven fresh processes a side, the side that runs first alternating
    assert calls == ["p", "c", "c", "p"] * 3 + ["p", "c"]
    assert out["parent"] == {"median": 8.0, "runs": [1.0, 4.0, 5.0, 8.0, 9.0, 12.0, 13.0]}
    assert out["change"] == {"median": 7.0, "runs": [2.0, 3.0, 6.0, 7.0, 10.0, 11.0, 14.0]}


def test_import_probe_times_the_package_in_a_fresh_process():
    seconds = bench_pairs._import_seconds(bench_pairs.ROOT)
    assert 0 < seconds < 60
