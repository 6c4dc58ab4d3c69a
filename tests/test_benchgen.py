"""Generator checks: task specs, EDF network structure and verdicts, the
counter reduction and its oracle, the loop example, and random profiles."""
import random
from collections import deque

import pytest

from reference import check_syntactically_bounded
from uta.analysis import Mode, Status, compute_gmap
from uta.benchgen import (
    FLOWER,
    FRAGMENTS,
    MINE_PUMP_TASKS,
    PERIODIC,
    SPORADIC_PERIODIC_TASKS,
    WORST_CASE,
    CounterAutomaton,
    RandomProfile,
    ReleasePattern,
    TaskSpec,
    counter_reach_oracle,
    counter_run,
    gen_counter_reduction,
    gen_edf,
    gen_fig1,
    gen_fig1_unguarded,
    gen_mine_pump,
    gen_random,
    gen_sporadic_periodic,
    sporadic_periodic,
)
from uta.format import parse, print_network
from uta.model import WEAK, Shift, Update, make_upper_diag, validate_network
from uta.search import REACHABLE, UNREACHABLE, reach


def tight_triple():
    return gen_edf((TaskSpec(1, 2),) * 3, FLOWER)


def converged_gmaps(net):
    gmaps = []
    for comp in net.components:
        g = compute_gmap(comp)
        assert g.status is Status.CONVERGED, comp.name
        gmaps.append(g)
    return gmaps


class TestTaskSpec:
    def test_rejects_computation_over_deadline(self):
        with pytest.raises(ValueError):
            TaskSpec(3, 2)

    def test_rejects_deadline_over_period(self):
        with pytest.raises(ValueError):
            TaskSpec(1, 5, 4)

    def test_rejects_zero_computation(self):
        with pytest.raises(ValueError):
            TaskSpec(0, 2)

    def test_tight_task_allowed(self):
        t = TaskSpec(2, 2, 2)
        assert (t.c, t.d, t.p) == (2, 2, 2)


class TestReleasePattern:
    def test_burst_goes_with_sporadic_only(self):
        with pytest.raises(ValueError):
            ReleasePattern("flower", 3)
        with pytest.raises(ValueError):
            ReleasePattern("sporadicperiodic")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ReleasePattern("roundrobin")

    def test_burst_positive(self):
        with pytest.raises(ValueError):
            sporadic_periodic(0)
        assert sporadic_periodic(5).burst == 5


class TestEdfStructure:
    def test_component_names(self):
        net = tight_triple()
        assert [c.name for c in net.components] == [
            "sched", "task1", "task2", "task3", "flower",
        ]

    def test_clock_layout(self):
        assert tight_triple().clocks == (
            "c1", "d1", "ds1", "c2", "d2", "ds2", "c3", "d3", "ds3",
        )
        sp = gen_sporadic_periodic(2)
        assert sp.clocks[12:] == ("sx", "sy", "p2", "p3", "p4")
        wc = gen_edf((TaskSpec(1, 2),) * 2, WORST_CASE)
        assert wc.clocks[6:] == ("wx",)

    def test_validates_clean(self):
        # no clock is shared, so search may prune these with simulation
        for net in (tight_triple(), gen_sporadic_periodic(2),
                    gen_edf((TaskSpec(2, 5, 6), TaskSpec(1, 4, 4)), PERIODIC),
                    gen_mine_pump(),
                    gen_edf((TaskSpec(1, 10),) * 2 + (TaskSpec(1, 4),), FLOWER)):
            assert validate_network(net) == []

    def test_components_syntactically_bounded(self):
        for comp in tight_triple().components:
            assert check_syntactically_bounded(comp)

    def test_selection_states_committed(self):
        sched = tight_triple().components[0]
        temps = [l for l in sched.locations if l.name.startswith("temp")]
        assert len(temps) == 9  # n(n+3)/2 for n=3
        assert all(l.committed for l in temps)
        assert len(sched.locations) == 19

    def test_queue_flags_binary(self):
        net = tight_triple()
        names = [(v.name, v.lo, v.hi, v.init) for v in net.int_vars]
        assert names == [
            ("q1", 0, 1, 0), ("q2", 0, 1, 0), ("q3", 0, 1, 0), ("r", 0, 3, 0),
        ]

    def test_subtraction_relay_edges(self):
        net = tight_triple()
        task1 = net.components[1]
        pre = task1.location_index("preempted")
        subs = [e for e in task1.edges
                if e.sync and e.sync[0].startswith("sub") and e.src == pre]
        assert len(subs) == 2
        for e in subs:
            assert e.dst == pre
            assert e.update == Update.of({0: Shift(0, -1)})

    def test_queue_flag_set_on_notify(self):
        # a flag raised at release would let the scheduler pick a task whose
        # handler is still mid-handshake and has no run receiver yet
        task1 = tight_triple().components[1]
        by_sync = {e.sync: e for e in task1.edges if e.sync}
        assert by_sync[("release1", "?")].int_assigns == ()
        assert by_sync[("notify1", "!")].int_assigns != ()

    def test_deterministic(self):
        assert tight_triple() == tight_triple()
        assert gen_sporadic_periodic(5) == gen_sporadic_periodic(5)

    def test_round_trip(self):
        for net in (tight_triple(), gen_sporadic_periodic(2)):
            assert parse(print_network(net)) == net

    def test_pattern_shape_errors(self):
        with pytest.raises(ValueError):
            gen_edf((), FLOWER)
        with pytest.raises(ValueError):
            gen_edf((TaskSpec(1, 2),), PERIODIC)
        with pytest.raises(ValueError):
            gen_edf((TaskSpec(1, 3, 3), TaskSpec(5, 20, 20)), sporadic_periodic(2))
        with pytest.raises(ValueError):
            gen_edf((TaskSpec(1, 3),), sporadic_periodic(2))
        with pytest.raises(ValueError):
            gen_edf((TaskSpec(1, 3), TaskSpec(5, 20)), sporadic_periodic(2))

    def test_presets(self):
        assert SPORADIC_PERIODIC_TASKS[0].p is None
        assert all(t.p is not None for t in SPORADIC_PERIODIC_TASKS[1:])
        assert len(MINE_PUMP_TASKS) == 5
        assert all(t.p == t.d for t in MINE_PUMP_TASKS)
        sp = gen_sporadic_periodic(5)
        burst_var = [v for v in sp.int_vars if v.name == "n"]
        assert burst_var and (burst_var[0].lo, burst_var[0].hi) == (0, 4)
        assert len(gen_mine_pump().clocks) == 20


class TestEdfVerdicts:
    def test_three_tight_tasks_miss_a_deadline(self):
        net = tight_triple()
        stats = reach(net, converged_gmaps(net), "error", timeout=110.0)
        assert stats.verdict == REACHABLE

    def test_staggered_worstcase_set_is_schedulable(self):
        net = gen_edf((TaskSpec(1, 10),) * 3 + (TaskSpec(1, 4),), WORST_CASE)
        stats = reach(net, converged_gmaps(net), "error", timeout=110.0)
        assert stats.verdict == UNREACHABLE


class TestCounterOracle:
    def test_validation(self):
        with pytest.raises(ValueError):
            CounterAutomaton(("a",), "a", "b", (), 1)
        with pytest.raises(ValueError):
            CounterAutomaton(("a", "b"), "a", "b", (("a", 2, "b"),), 1)
        with pytest.raises(ValueError):
            CounterAutomaton(("a", "b"), "a", "b", (("a", 1, "c"),), 1)
        with pytest.raises(ValueError):
            CounterAutomaton(("a",), "a", "a", (), -1)

    def test_single_step(self):
        b = CounterAutomaton(("l0", "lt"), "l0", "lt", (("l0", 1, "lt"),), 1)
        assert counter_reach_oracle(b)
        assert counter_run(b) == (("l0", 0), ("lt", 1))

    def test_underflow_blocks(self):
        b = CounterAutomaton(("l0", "lt"), "l0", "lt", (("l0", -1, "lt"),), 1)
        assert not counter_reach_oracle(b)

    def test_bound_blocks(self):
        b = CounterAutomaton(("a", "b", "c"), "a", "c",
                             (("a", 1, "b"), ("b", 2, "c")), 2)
        assert not counter_reach_oracle(b)

    def test_no_transitions(self):
        assert not counter_reach_oracle(
            CounterAutomaton(("a", "b"), "a", "b", (), 3))

    def test_target_is_initial(self):
        b = CounterAutomaton(("a",), "a", "a", (), 0)
        assert counter_run(b) == (("a", 0),)

    def test_pump_within_bound(self):
        b = CounterAutomaton(
            ("a", "t"), "a", "t",
            (("a", 2, "a"), ("a", -1, "a"), ("a", 3, "t")), 5,
        )
        run = counter_run(b)
        assert run is not None and run[-1][0] == "t"
        values = [v for _, v in run]
        assert all(0 <= v <= 5 for v in values)


def reachable_counter_values(b):
    seen = {(b.initial, 0)}
    queue = deque(seen)
    while queue:
        state, value = queue.popleft()
        for src, p, dst in b.transitions:
            nxt = (dst, value + p)
            if src == state and 0 <= nxt[1] <= b.bound and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    values: dict[str, set[int]] = {}
    for state, value in seen:
        values.setdefault(state, set()).add(value)
    return values


class TestCounterReduction:
    def test_location_set_and_start(self):
        b = CounterAutomaton(("l0", "lt"), "l0", "lt", (("l0", 1, "lt"),), 1)
        comp = gen_counter_reduction(b).components[0]
        assert [l.name for l in comp.locations] == ["l0", "lt", "l0_p", "lt_p"]
        assert comp.locations[comp.initial].name == "lt_p"

    def test_steps_become_reversed_guarded_subtractions(self):
        b = CounterAutomaton(("l0", "lt"), "l0", "lt", (("l0", 2, "lt"),), 3)
        comp = gen_counter_reduction(b).components[0]
        rev = [e for e in comp.edges
               if comp.locations[e.src].name == "lt"
               and comp.locations[e.dst].name == "l0"]
        assert len(rev) == 1
        assert rev[0].update == Update.of({0: Shift(0, -2)})
        constants = sorted(phi.constant for phi in rev[0].guard.clock_atoms)
        assert constants == [0, 3]

    def test_reachable_counter_diverges(self):
        b = CounterAutomaton(("l0", "lt"), "l0", "lt", (("l0", 1, "lt"),), 1)
        g = compute_gmap(gen_counter_reduction(b).components[0])
        assert g.status is Status.DIVERGED

    def test_unreachable_counter_converges(self):
        for b in (
            CounterAutomaton(("l0", "lt"), "l0", "lt", (), 1),
            CounterAutomaton(("a", "b", "c"), "a", "c",
                             (("a", 1, "b"), ("b", 2, "c")), 2),
        ):
            g = compute_gmap(gen_counter_reduction(b).components[0])
            assert g.status is Status.CONVERGED

    def test_diagonals_track_reachable_values(self):
        # pump between two states: a holds counter {0, 2}, b holds {1}, and
        # the target stays out of reach, so the map must converge with
        # exactly those constants as weak x-y bounds
        b = CounterAutomaton(
            ("a", "b", "t"), "a", "t", (("a", 1, "b"), ("b", 1, "a")), 2,
        )
        comp = gen_counter_reduction(b).components[0]
        g = compute_gmap(comp)
        assert g.status is Status.CONVERGED
        idx = {l.name: k for k, l in enumerate(comp.locations)}
        for state, want in (("a", {0, 2}), ("b", {1}), ("t", set())):
            got = {phi.constant for phi in g.at(idx[state]).diag
                   if phi == make_upper_diag(0, 1, WEAK, phi.constant)}
            assert got == want, state

    def test_seeded_biconditional(self):
        rng = random.Random(424)
        diverged = converged = 0
        for _ in range(40):
            n_states = rng.randint(2, 5)
            states = tuple(f"s{k}" for k in range(n_states))
            bound = rng.randint(1, 6)
            trans = tuple(
                (rng.choice(states), rng.randint(-bound, bound), rng.choice(states))
                for _ in range(rng.randint(1, 8))
            )
            b = CounterAutomaton(states, states[0], states[-1], trans, bound)
            comp = gen_counter_reduction(b).components[0]
            g = compute_gmap(comp)
            assert g.status is not Status.BUDGET_EXHAUSTED
            assert (g.status is Status.DIVERGED) == counter_reach_oracle(b)
            if g.status is Status.DIVERGED:
                diverged += 1
                continue
            converged += 1
            idx = {l.name: k for k, l in enumerate(comp.locations)}
            values = reachable_counter_values(b)
            for state in states:
                got = {phi.constant for phi in g.at(idx[state]).diag
                       if phi == make_upper_diag(0, 1, WEAK, phi.constant)}
                assert got == values.get(state, set()), state
        assert diverged >= 5 and converged >= 5


class TestLoopExample:
    def test_guarded_variant_converges(self):
        g = compute_gmap(gen_fig1().components[0])
        assert g.status is Status.CONVERGED
        assert g.iterations == 5

    def test_unguarded_variant_diverges(self):
        g = compute_gmap(gen_fig1_unguarded().components[0])
        assert g.status is Status.DIVERGED

    def test_plain_preimage_exhausts_budget(self):
        g = compute_gmap(gen_fig1().components[0], Mode.NON_REDUCED)
        assert g.status is Status.BUDGET_EXHAUSTED

    def test_round_trip(self):
        net = gen_fig1()
        assert parse(print_network(net)) == net
        assert net.components[0].clock_names == ("x", "y")


class TestRandomProfile:
    def test_fragment_checked(self):
        with pytest.raises(ValueError):
            RandomProfile(fragment="Strict")

    def test_deterministic_per_seed(self):
        p = RandomProfile(n_locs=5, n_clocks=3, fragment="General", seed=11)
        assert gen_random(p) == gen_random(p)
        assert gen_random(p) != gen_random(RandomProfile(
            n_locs=5, n_clocks=3, fragment="General", seed=12))

    def test_all_fragments_validate(self):
        for fragment in FRAGMENTS:
            for seed in range(8):
                net = gen_random(RandomProfile(fragment=fragment, seed=seed))
                assert [d for d in validate_network(net) if d.level == "error"] == []

    def test_bounded_fragments_converge(self):
        for fragment in ("SubtractionBounded", "ClockBounded", "ResetOnly"):
            for seed in range(15):
                net = gen_random(RandomProfile(
                    n_locs=4, n_clocks=2, fragment=fragment,
                    max_const=5, seed=seed))
                g = compute_gmap(net.components[0])
                assert g.status is Status.CONVERGED, (fragment, seed)

    def test_general_fragment_mixes(self):
        seen = set()
        for seed in range(30):
            net = gen_random(RandomProfile(fragment="General", seed=seed))
            seen.add(compute_gmap(net.components[0]).status)
        assert Status.CONVERGED in seen and Status.DIVERGED in seen
