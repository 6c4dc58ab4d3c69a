"""Workload model sets, the timed check of one model, and its oracle.

A model is checked the way the ``uta`` command line checks a model file:
``format.parse`` on the text, ``analysis.compute_gmap`` per component,
then ``search.reach`` towards ``error`` (``uta reach``) or
``analysis.report_json`` per component (``uta analyze``).  Every model
carries its known answer and where that answer comes from; `verify` holds
the result against it outside the timed span.

This module imports ``uta`` lazily inside its functions, so that the
worker can time the import itself as part of set-up.
"""
import random
from dataclasses import dataclass
from typing import Optional

# the benchmark's workloads, and the smoke test's one
WORKLOADS = ("mine-pump", "flower-pair", "analyze-random", "tiny")

REACH = "reach"
ANALYZE = "analyze"
# expected answer of an analyze model: every component's result passes its
# own checker (check_closure when converged, verify_witness when diverged)
CHECKED = "checked"

# analyze-random: the fixed pool of gen_random profiles.  The workload seed
# orders the pool; see README.md for why it does not redraw it.
RANDOM_POOL = 200
RANDOM_SETTINGS = {"n_locs": 10, "n_clocks": 3, "max_const": 12}
# a run must end within 180 s; a model slower than this counts as failed
REACH_TIMEOUT = 150.0


@dataclass(frozen=True)
class Model:
    name: str
    text: str
    kind: str  # REACH or ANALYZE
    expected: str  # "Reachable", "Unreachable" or CHECKED
    source: str  # where the expected answer comes from


@dataclass
class Outcome:
    """What the timed check produced, kept for the untimed oracle."""

    net: object
    gmaps: list
    stats: object = None  # search.SearchStats for REACH models
    error: Optional[str] = None


def _edf(name, tasks, expected, source):
    from uta.benchgen import FLOWER, TaskSpec, gen_edf
    from uta.format import print_network

    net = gen_edf(tuple(TaskSpec(*t) for t in tasks), FLOWER)
    return Model(name, print_network(net), REACH, expected, source)


def _mine_pump():
    from uta.benchgen import gen_mine_pump
    from uta.format import print_network

    return Model(
        "mine-pump", print_network(gen_mine_pump()), REACH, "Unreachable",
        "utilization 0.714 with D=P, so EDF-schedulable; a03-slow asserts it")


def _random(profile_seed: int, fragment: str) -> Model:
    from uta.benchgen import RandomProfile, gen_random
    from uta.format import print_network

    net = gen_random(RandomProfile(fragment=fragment, seed=profile_seed,
                                   **RANDOM_SETTINGS))
    return Model(f"random-{fragment}-{profile_seed}", print_network(net),
                 ANALYZE, CHECKED,
                 "check_closure (converged) or verify_witness (diverged)")


def _random_pool(seed: int, size: int) -> list[Model]:
    from uta.benchgen import FRAGMENTS

    models = [_random(i, FRAGMENTS[i % len(FRAGMENTS)]) for i in range(size)]
    random.Random(seed).shuffle(models)
    return models


def build(workload: str, seed: int) -> list[Model]:
    """The models of one workload, in check order."""
    if workload == "mine-pump":
        return [_mine_pump()]
    if workload == "flower-pair":
        return [
            _edf("flower (1,10)^2+(1,4)", [(1, 10), (1, 10), (1, 4)],
                 "Unreachable",
                 "at most one pending job per task and the EDF demand bound "
                 "holds; a sub-task-set of a03-slow's schedulable row"),
            _edf("flower (1,3)^4", [(1, 3)] * 4, "Reachable",
                 "four unit jobs released together need 4 time units inside "
                 "a deadline of 3"),
        ]
    if workload == "analyze-random":
        return _random_pool(seed, RANDOM_POOL)
    if workload == "tiny":
        from uta.benchgen import gen_sporadic_periodic
        from uta.format import print_network

        return [
            Model("sporadic-periodic 5", print_network(gen_sporadic_periodic(5)),
                  REACH, "Unreachable", "a03 desk row"),
            _edf("flower (1,2)^3", [(1, 2)] * 3, "Reachable", "a03 desk row"),
        ] + _random_pool(seed, 4)
    raise ValueError(f"unknown workload {workload!r}")


def check(model: Model, net) -> Outcome:
    """The timed part: analysis per component, then search or report.

    Looks every function up through its module, so that names rebound by
    the tracer are the ones called.
    """
    from uta import analysis, search

    gmaps = [analysis.compute_gmap(c) for c in net.components]
    if model.kind == REACH:
        try:
            stats = search.reach(net, gmaps, "error", timeout=REACH_TIMEOUT)
        except ValueError as exc:  # pruning refused: analysis did not converge
            return Outcome(net, gmaps, error=str(exc))
        return Outcome(net, gmaps, stats)
    for comp, gmap in zip(net.components, gmaps):
        analysis.report_json(comp, gmap)
    return Outcome(net, gmaps)


def verify(model: Model, out: Outcome) -> Optional[str]:
    """The oracle: None when the outcome matches the known answer."""
    from uta.analysis import Status, check_closure, verify_witness
    from uta.search import replay

    if out.error is not None:
        return out.error
    if model.kind == REACH:
        got = out.stats.verdict
        if got != model.expected:
            return f"verdict {got}, expected {model.expected}"
        if got == "Reachable" and (
                out.stats.path is None
                or not replay(out.stats.path, out.net, "error")):
            return "the Reachable path does not replay"
        return None
    for comp, gmap in zip(out.net.components, out.gmaps):
        if gmap.status is Status.CONVERGED:
            if not check_closure(gmap, comp):
                return f"{comp.name}: converged map is not closed"
        elif gmap.status is Status.DIVERGED:
            problems = verify_witness(gmap, comp)
            if problems:
                return f"{comp.name}: bad witness: {problems[0]}"
        else:
            return f"{comp.name}: {gmap.status.value}"
    return None
