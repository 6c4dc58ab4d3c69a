"""Spans and counters recorded from outside the program.

`Tracer.install` rebinds the module attributes through which callers look
up the public functions of ``format``, ``analysis``, ``search``, ``dbm``
and ``simulation`` (``search`` imports ``successor``, ``prepare``,
``not_simulated_batch`` and ``sim_zone_prepared`` by name, so those are
rebound in ``uta.search``).  Nothing in the program changes.  Each call
becomes a span (name, start, end, parent span, model-check id) kept in
flat arrays, and its arguments and return value feed the counters.
`span_sums` and `pass_metrics` derive the per-layer numbers from both.
"""
import statistics
import time
from array import array
from collections import Counter
from typing import Callable, Optional

import numpy as np

SETUP_CHECK = -1  # check id of spans recorded while parsing the models


def _count_gmap(c: Counter, args, gmap) -> None:
    from uta.analysis import Status

    c["analysis.components"] += 1
    c["analysis.sweeps"] += gmap.iterations
    c["analysis.atoms"] += sum(len(s) for s in gmap.sets)
    c["analysis.diverged"] += gmap.status is Status.DIVERGED


def _count_reach(c: Counter, args, stats) -> None:
    c["search.dequeued"] += stats.nodes
    c["search.pruned"] += stats.pruned
    c["search.max_frontier"] = max(c["search.max_frontier"], stats.max_frontier)


def _count_successors(c: Counter, args, result) -> None:
    c["search.generated"] += len(result[0])


def _count_batch(c: Counter, args, mask) -> None:
    c["simulation.batch_candidates"] += args[1].shape[0]
    c["simulation.batch_refuted"] += int(mask.sum())


def _count_diag(c: Counter, args, covered) -> None:
    c["simulation.diag_covered"] += bool(covered)


def _targets():
    """(module, attribute, span name, counter hook) for every wrapped call."""
    from uta import analysis, dbm, format, search

    def count_empty(c, args, zone):
        c["dbm.empty"] += zone is dbm.EMPTY

    def count_bytes(c, args, net):
        c["format.model_bytes"] += len(args[0])

    return (
        (format, "parse", "format.parse", count_bytes),
        (analysis, "compute_gmap", "analysis.compute_gmap", _count_gmap),
        (analysis, "report_json", "analysis.report_json", None),
        (search, "reach", "search.reach", _count_reach),
        (search, "successors", "search.successors", _count_successors),
        (search, "successor", "dbm.successor", count_empty),
        (search, "prepare", "simulation.prepare", None),
        (search, "not_simulated_batch", "simulation.not_simulated_batch",
         _count_batch),
        (search, "sim_zone_prepared", "simulation.sim_zone_prepared", _count_diag),
    )


class Tracer:
    """In-memory span store plus the counters fed by the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.check = array("i")
        self.start = array("d")
        self.end = array("d")
        self.check_id = SETUP_CHECK
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._saved: list[tuple[object, str, Callable]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn: Callable, hook: Optional[Callable] = None):
        """fn wrapped so that each call records one span."""
        nid = self._name_id(name)
        stack, counters = self._stack, self.counters
        names, parents, checks = self.name, self.parent, self.check
        starts, ends = self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            checks.append(self.check_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, hook in _targets():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.span(name, fn, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def take_counters(self) -> Counter:
        # the wrappers hold this Counter object, so it is cleared in place
        out = self.counters.copy()
        self.counters.clear()
        return out

    def columns(self) -> dict:
        """The spans as numpy columns, as written to the trace file."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "check": np.array(self.check, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_sums(tracer: Tracer, n_models: int, n_passes: int) -> list[dict]:
    """Per pass: {span name: (total s, self s, calls)}.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    col = tracer.columns()
    dur = col["end"] - col["start"]
    has_parent = col["parent"] >= 0
    child = np.bincount(col["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    own = dur - child
    k = len(tracer.names)
    timed = col["check"] >= 0
    slot = (col["check"][timed] // n_models) * k + col["name"][timed]
    size = n_passes * k
    total = np.bincount(slot, weights=dur[timed], minlength=size)
    selfs = np.bincount(slot, weights=own[timed], minlength=size)
    calls = np.bincount(slot, minlength=size)
    return [
        {name: (float(total[p * k + i]), float(selfs[p * k + i]),
                int(calls[p * k + i]))
         for i, name in enumerate(tracer.names)}
        for p in range(n_passes)
    ]


def setup_parse_seconds(tracer: Tracer) -> float:
    col = tracer.columns()
    sel = (col["check"] == SETUP_CHECK) & (
        col["name"] == tracer.names.index("format.parse"))
    return float((col["end"][sel] - col["start"][sel]).sum())


def pass_metrics(sums: dict, c: Counter) -> dict:
    """Per-layer metrics of one traced pass."""
    def total(name):
        return sums.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return sums.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return sums.get(name, (0.0, 0.0, 0))[2]

    successor_calls = calls("dbm.successor")
    diag_calls = calls("simulation.sim_zone_prepared")
    return {
        "analysis.compute_gmap_s": total("analysis.compute_gmap"),
        "analysis.sweeps": c["analysis.sweeps"],
        "analysis.atoms": c["analysis.atoms"],
        "analysis.diverged_share": _ratio(c["analysis.diverged"],
                                          c["analysis.components"]),
        "search.reach_self_s": own("search.reach"),
        "search.successors_self_s": own("search.successors"),
        "search.dequeued": c["search.dequeued"],
        "search.generated": c["search.generated"],
        "search.pruned_exact": c["search.pruned"] - c["simulation.diag_covered"],
        "search.pruned_sim": c["simulation.diag_covered"],
        "search.max_frontier": c["search.max_frontier"],
        "dbm.successor_s": total("dbm.successor"),
        "dbm.successor_calls": successor_calls,
        "dbm.empty_share": _ratio(c["dbm.empty"], successor_calls),
        "simulation.prepare_s": total("simulation.prepare"),
        "simulation.prepare_calls": calls("simulation.prepare"),
        "simulation.batch_s": total("simulation.not_simulated_batch"),
        "simulation.batch_candidates": c["simulation.batch_candidates"],
        "simulation.batch_refuted_share": _ratio(
            c["simulation.batch_refuted"], c["simulation.batch_candidates"]),
        "simulation.diag_s": total("simulation.sim_zone_prepared"),
        "simulation.diag_calls": diag_calls,
        "simulation.diag_covered_share": _ratio(c["simulation.diag_covered"],
                                                diag_calls),
    }


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
