"""Acceptance gate: one test per numbered end-to-end check.

Each check asserts a package-level property at its stated tolerance: the
exact fixed point on the worked two-clock loop (hand derivation in
docs/fixed-point-walkthrough.md), the divergence witness on its unguarded
variant, schedulability verdicts on generated task systems, convergence
theorems on random automaton fragments, the counter-machine biconditional
through the reduction, the analysis sweep bound, the zone-simulation
oracle gate, and pruning soundness.  Benchmark node counts are printed
but never asserted; the default -rP report echoes them.

The two minutes-scale benchmark rows carry the ``slow`` marker and are
deselected by default (run them with ``pytest -m slow``).
"""
import random
import time

import pytest

from conftest import random_automaton, random_sim_query, unpruned_reach
from reference import (
    WORST_CASE,
    brute_force_sim,
    counter_reach_oracle,
    extract_lu,
    plain_gmap,
    sim_zone,
)
from uta.analysis import (
    Status,
    analysis_bounds,
    compute_gmap,
    verify_witness,
)
from uta.benchgen import (
    FLOWER,
    CounterAutomaton,
    TaskSpec,
    gen_counter_reduction,
    gen_edf,
    gen_fig1,
    gen_fig1_unguarded,
    gen_mine_pump,
    gen_sporadic_periodic,
)
from uta.model import (
    STRICT,
    WEAK,
    Kind,
    make_lower,
    make_upper,
    make_upper_diag,
    single_component_network,
)
from uta.search import REACHABLE, UNREACHABLE, reach

X, Y = 0, 1

MIXED_TASKS = (TaskSpec(1, 10),) * 3 + (TaskSpec(1, 4),)


# --- shared suite fixtures --------------------------------------------------


@pytest.fixture(scope="module")
def loop_runs():
    guarded = gen_fig1().components[0]
    unguarded = gen_fig1_unguarded().components[0]
    t0 = time.monotonic()
    reduced = compute_gmap(guarded)
    plain = plain_gmap(guarded)
    guarded_seconds = time.monotonic() - t0
    t0 = time.monotonic()
    diverged = compute_gmap(unguarded)
    unguarded_seconds = time.monotonic() - t0
    return {
        "guarded": guarded,
        "unguarded": unguarded,
        "reduced": reduced,
        "plain": plain,
        "diverged": diverged,
        "guarded_seconds": guarded_seconds,
        "unguarded_seconds": unguarded_seconds,
    }


DESK_ROWS = (
    ("sporadic-periodic 5", lambda: gen_sporadic_periodic(5), UNREACHABLE),
    ("sporadic-periodic 20", lambda: gen_sporadic_periodic(20), REACHABLE),
    ("flower (1,2)^3", lambda: gen_edf((TaskSpec(1, 2),) * 3, FLOWER), REACHABLE),
    ("worst-case (1,2)^3",
     lambda: gen_edf((TaskSpec(1, 2),) * 3, WORST_CASE), REACHABLE),
    ("worst-case (1,10)^3+(1,4)",
     lambda: gen_edf(MIXED_TASKS, WORST_CASE), UNREACHABLE),
)


@pytest.fixture(scope="module")
def desk_rows():
    rows = []
    for label, build, want in DESK_ROWS:
        net = build()
        t0 = time.monotonic()
        gmaps = [compute_gmap(c) for c in net.components]
        stats = reach(net, gmaps, "error")
        rows.append((label, want, gmaps, stats, time.monotonic() - t0))
    return rows


@pytest.fixture(scope="module")
def subtraction_suite():
    rng = random.Random(508)
    t0 = time.monotonic()
    out = []
    for _ in range(100):
        a = random_automaton(rng, n_clocks=rng.randint(1, 3), max_locs=6,
                             max_edges=8, max_const=10, style="bounded_sub")
        out.append((a, compute_gmap(a)))
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def clock_bounded_suite():
    rng = random.Random(505)
    t0 = time.monotonic()
    out = []
    for _ in range(100):
        a = random_automaton(rng, n_clocks=rng.randint(1, 3), max_locs=6,
                             max_edges=8, max_const=10, style="clock_bounded")
        out.append((a, compute_gmap(a)))
    return out, time.monotonic() - t0


@pytest.fixture(scope="module")
def old_new_suite():
    rng = random.Random(606)
    out = []
    attempts = 0
    while len(out) < 100:
        attempts += 1
        assert attempts < 3000, "not enough plain-preimage convergent samples"
        a = random_automaton(rng, n_clocks=rng.randint(1, 3))
        plain = plain_gmap(a)
        if plain.status is not Status.CONVERGED:
            continue
        out.append((a, compute_gmap(a), plain))
    return out


@pytest.fixture(scope="module")
def counter_suite():
    rng = random.Random(707)
    t0 = time.monotonic()
    out = []
    for _ in range(20):
        n_states = rng.randint(2, 6)
        states = tuple(f"s{k}" for k in range(n_states))
        bound = rng.randint(1, 8)
        steps = tuple(
            (rng.choice(states), rng.randint(-bound, bound), rng.choice(states))
            for _ in range(rng.randint(1, 10))
        )
        b = CounterAutomaton(states, states[0], states[-1], steps, bound)
        comp = gen_counter_reduction(b).components[0]
        out.append((b, compute_gmap(comp)))
    return out, time.monotonic() - t0


# --- the ten checks ---------------------------------------------------------


def test_a01_loop_fixed_point_exact(loop_runs):
    reduced = loop_runs["reduced"]
    assert reduced.status is Status.CONVERGED
    assert reduced.iterations == 5
    expected_q0 = {
        make_upper(X, WEAK, 3),
        make_lower(X, WEAK, 1),
        make_lower(X, WEAK, 2),
        make_lower(X, WEAK, 3),
        make_upper_diag(X, Y, STRICT, 2),
        make_upper_diag(X, Y, STRICT, 3),
    }
    assert set(reduced.sets[0]) == expected_q0
    assert set(reduced.sets[1]) == expected_q0 | {make_upper_diag(X, Y, STRICT, 1)}
    assert set(reduced.sets[2]) == set()
    assert loop_runs["plain"].status is Status.BUDGET_EXHAUSTED
    assert loop_runs["guarded_seconds"] < 1.0


def test_a02_unguarded_divergence_witness(loop_runs):
    g = loop_runs["diverged"]
    assert g.status is Status.DIVERGED
    assert verify_witness(g, loop_runs["unguarded"]) == []
    seq = g.witness
    assert seq.cycle is not None
    assert seq.steps[-1].constraint == make_upper_diag(X, Y, STRICT, 26)
    diag_steps = [s for s in seq.steps if s.constraint.kind is Kind.UPPER_DIAG]
    consts = [s.constraint.constant for s in diag_steps]
    assert consts == sorted(consts) and consts[0] < consts[-1]
    per_loc: dict[int, list[int]] = {}
    for s in diag_steps:
        per_loc.setdefault(s.location, []).append(s.constraint.constant)
    for chain in per_loc.values():
        assert all(a < b for a, b in zip(chain, chain[1:]))
    assert loop_runs["unguarded_seconds"] < 1.0


def test_a03_schedulability_verdicts_desk(desk_rows):
    for label, want, _, stats, seconds in desk_rows:
        print(f"{label}: {stats.verdict} nodes={stats.nodes} "
              f"pruned={stats.pruned} {seconds:.2f}s")
        assert stats.verdict == want, label
        assert seconds < 120.0, label


@pytest.mark.slow
def test_a03_schedulability_verdicts_slow():
    rows = (
        ("mine-pump", gen_mine_pump()),
        ("flower (1,10)^3+(1,4)", gen_edf(MIXED_TASKS, FLOWER)),
    )
    for label, net in rows:
        t0 = time.monotonic()
        gmaps = [compute_gmap(c) for c in net.components]
        for g in gmaps:
            assert g.status is Status.CONVERGED
            assert g.iterations <= g.budget
        stats = reach(net, gmaps, "error", timeout=1800)
        seconds = time.monotonic() - t0
        print(f"{label}: {stats.verdict} nodes={stats.nodes} "
              f"pruned={stats.pruned} {seconds:.2f}s")
        assert stats.verdict == UNREACHABLE, label
        assert seconds < 1800.0, label


def test_a04_bounded_subtraction_converges(subtraction_suite):
    samples, seconds = subtraction_suite
    for a, g in samples:
        assert g.status is Status.CONVERGED
        b = analysis_bounds(a)
        cap = max(b.M, b.L)
        for gset in g.sets:
            for phi in gset:
                assert phi.constant <= cap
    assert seconds < 60.0


def test_a05_clock_bounded_converges(clock_bounded_suite):
    samples, seconds = clock_bounded_suite
    for a, g in samples:
        assert g.status is Status.CONVERGED
        cap = analysis_bounds(a).M
        for gset in g.sets:
            for phi in gset:
                assert phi.constant <= cap
    assert seconds < 60.0


def test_a06_reduced_dominates_plain_preimage(old_new_suite):
    for a, reduced, plain in old_new_suite:
        assert reduced.status is Status.CONVERGED
        n = len(a.clock_names)
        for q in range(len(a.locations)):
            r_set, p_set = reduced.sets[q], plain.sets[q]
            assert extract_lu(r_set, n).dominated_by(extract_lu(p_set, n))
            assert set(r_set.diag) <= set(p_set.diag)


def test_a07_counter_reachability_biconditional(counter_suite):
    samples, seconds = counter_suite
    for b, g in samples:
        assert g.status is not Status.BUDGET_EXHAUSTED
        finite = g.status is Status.CONVERGED
        assert finite == (not counter_reach_oracle(b))
    assert seconds < 120.0


def test_a08_step_bound_and_no_budget_exhaustion(
    loop_runs, desk_rows, subtraction_suite, clock_bounded_suite,
    old_new_suite, counter_suite,
):
    # The exhausted plain-preimage run on the guarded loop is the designed
    # negative control of the first check and is excluded here: the sweep
    # bound is claimed for runs that converge or diverge.
    reduced_runs = [loop_runs["reduced"], loop_runs["diverged"]]
    reduced_runs += [g for _, _, gmaps, _, _ in desk_rows for g in gmaps]
    reduced_runs += [g for _, g in subtraction_suite[0]]
    reduced_runs += [g for _, g in clock_bounded_suite[0]]
    reduced_runs += [g for _, g, _ in old_new_suite]
    reduced_runs += [g for _, g in counter_suite[0]]
    for g in reduced_runs:
        assert g.status is not Status.BUDGET_EXHAUSTED
        assert g.iterations <= g.budget
    for _, _, plain in old_new_suite:
        assert plain.status is Status.CONVERGED
        assert plain.iterations <= plain.budget


def test_a09_simulation_matches_brute_force():
    rng = random.Random(909)
    t0 = time.monotonic()
    done = attempts = 0
    while done < 10_000:
        attempts += 1
        assert attempts < 100_000, "oracle rejected too many queries"
        q = random_sim_query(rng)
        if q is None:
            continue
        try:
            want = brute_force_sim(q, 6)
        except ValueError:
            continue  # unbounded left zone: the scan cannot conclude
        assert sim_zone(q) == want
        done += 1
    seconds = time.monotonic() - t0
    print(f"simulation oracle gate: {done} conclusive queries "
          f"({attempts} drawn) in {seconds:.1f}s")
    assert seconds < 600.0


def test_a10_pruning_sound_on_terminating_models(monkeypatch):
    rng = random.Random(1010)
    kept = attempts = 0
    while kept < 50:
        attempts += 1
        assert attempts < 2000, "not enough terminating samples"
        style = rng.choice(("general", "bounded_sub", "clock_bounded", "reset"))
        a = random_automaton(rng, n_clocks=rng.randint(1, 3), style=style)
        g = compute_gmap(a)
        if g.status is not Status.CONVERGED:
            continue
        net = single_component_network(a.name, a.clock_names, a.locations,
                                       a.edges)
        target = a.locations[-1].name
        free = unpruned_reach(monkeypatch, net, target)
        if free is None:
            continue
        pruned = reach(net, [g], target, timeout=30.0)
        assert pruned.verdict == free.verdict
        assert pruned.nodes <= free.nodes
        kept += 1
