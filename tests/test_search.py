"""Product exploration: successors, committed/sync semantics, pruned BFS."""
import importlib.util
import random
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from uta import analysis, dbm, search, simulation
from uta import format as uta_format
from uta.analysis import GSet, Status, compute_gmap
from uta.benchgen import FLOWER, TaskSpec, gen_edf
from uta.dbm import (
    EMPTY,
    INF,
    LE_ZERO,
    Dbm,
    encode_atoms,
    encode_bound,
)
from uta.format import parse, print_network
from uta.model import (
    WEAK,
    Automaton,
    Const,
    Edge,
    Guard,
    IntAssign,
    IntAtom,
    IntVar,
    Location,
    Network,
    Shift,
    Update,
    make_lower,
    make_lower_diag,
    make_upper,
    single_component_network,
)
from uta.search import (
    REACHABLE,
    TIMEOUT,
    UNREACHABLE,
    PathStep,
    ProductLoc,
    TransLabel,
    reach,
    replay,
    successors,
)

from conftest import (
    fig1_automaton,
    random_atom,
    random_automaton,
    random_sync_network,
    random_zone_chain,
    unpruned_reach,
)
from reference import (
    SimQuery,
    _zone_max_const,
    apply_update_relational,
    brute_force_sim,
    elapse,
    intersect_all,
    product_gset,
)
from test_acceptance import DESK_ROWS
from test_cli import BIG_DIAGONAL
from test_simulation import reference_not_simulated

X, Y = 0, 1


def loop_network():
    a = fig1_automaton()
    return single_component_network(a.name, a.clock_names, a.locations, a.edges)


def initial_node(net):
    compiled = search.CompiledNet(net)
    return search._initial_node(net, compiled), compiled


def sync_pair_network():
    clocks = ("x",)
    a = Automaton(
        "A",
        (Location("a0", initial=True), Location("a1")),
        (Edge(0, 1, update=Update.of({0: Const(0)}), sync=("go", "!")),),
        clocks,
    )
    b = Automaton(
        "B",
        (Location("b0", initial=True), Location("b1")),
        (Edge(0, 1, sync=("go", "?")),),
        clocks,
    )
    return Network("pair", clocks, (), ("go",), (a, b))


class TestProductGset:
    def test_single_component_is_the_component_set(self):
        g = compute_gmap(fig1_automaton())
        assert g.status is Status.CONVERGED
        for q in range(3):
            assert product_gset([g], ProductLoc((q,), ())) == g.sets[q]

    def test_two_components_union(self):
        g1 = compute_gmap(fig1_automaton())
        other = Automaton(
            "O",
            (Location("p0", initial=True),),
            (Edge(0, 0, Guard((make_lower(Y, WEAK, 1),))),),
            ("x", "y"),
        )
        g2 = compute_gmap(other)
        assert g2.status is Status.CONVERGED
        got = product_gset([g1, g2], ProductLoc((0, 0), ()))
        assert got.nond == g1.sets[0].nond | g2.sets[0].nond
        assert got.diag == g1.sets[0].diag | g2.sets[0].diag
        assert make_lower(Y, WEAK, 1) in got.nond


class TestInitialNode:
    def test_elapsed_when_not_committed(self):
        net = single_component_network(
            "n", ("x",), (Location("q0", initial=True), Location("q1")), (Edge(0, 1),)
        )
        node, _ = initial_node(net)
        assert int(node.zone.m[1, 0]) == int(INF)
        assert int(node.zone.m[0, 1]) == LE_ZERO

    def test_not_elapsed_when_committed(self):
        net = single_component_network(
            "n",
            ("x",),
            (Location("q0", initial=True, committed=True), Location("q1")),
            (Edge(0, 1),),
        )
        node, _ = initial_node(net)
        assert int(node.zone.m[1, 0]) == LE_ZERO
        assert int(node.zone.m[0, 1]) == LE_ZERO

    def test_invariant_applied(self):
        inv = Guard((make_upper(0, WEAK, 2),))
        net = single_component_network(
            "n", ("x",), (Location("q0", initial=True, invariant=inv),), ()
        )
        node, _ = initial_node(net)
        assert int(node.zone.m[1, 0]) == encode_bound(2, WEAK)

    def test_unsatisfiable_invariant_kills_the_run(self):
        inv = Guard((make_upper(0, WEAK, 2), make_lower(0, WEAK, 3)))
        a = Automaton("n", (Location("q0", initial=True, invariant=inv),), (), ("x",))
        net = Network("n", ("x",), (), (), (a,))
        node, _ = initial_node(net)
        assert node is None
        stats = reach(net, [compute_gmap(a)], "q0")
        assert stats.verdict == UNREACHABLE
        assert stats.nodes == 0


class TestSuccessors:
    def test_loop_initial_has_one_move(self):
        net = loop_network()
        node, cache = initial_node(net)
        children, disabled = successors(node, cache)
        assert disabled == 0
        assert len(children) == 1
        child = children[0]
        assert child.loc == ProductLoc((1,), ())
        assert child.label.edges == ((0, 0),)
        # subtract one from x=y then let time pass: y-x pinned to one
        assert int(child.zone.m[Y + 1, X + 1]) == encode_bound(1, WEAK)
        assert int(child.zone.m[X + 1, Y + 1]) == encode_bound(-1, WEAK)
        assert int(child.zone.m[0, X + 1]) == LE_ZERO

    def test_contradictory_guard_yields_nothing(self):
        g = Guard((make_upper(0, WEAK, 1), make_lower(0, WEAK, 2)))
        net = single_component_network(
            "n", ("x",), (Location("q0", initial=True), Location("q1")), (Edge(0, 1, g),)
        )
        node, cache = initial_node(net)
        children, disabled = successors(node, cache)
        assert children == []
        assert disabled == 0

    def test_target_invariant_caps_the_child(self):
        inv = Guard((make_upper(0, WEAK, 2),))
        net = single_component_network(
            "n",
            ("x",),
            (Location("q0", initial=True), Location("q1", invariant=inv)),
            (Edge(0, 1, update=Update.of({0: Const(0)})),),
        )
        node, cache = initial_node(net)
        children, _ = successors(node, cache)
        (child,) = children
        assert int(child.zone.m[1, 0]) == encode_bound(2, WEAK)
        assert int(child.zone.m[0, 1]) == LE_ZERO

    def test_no_elapse_into_committed_target(self):
        net = single_component_network(
            "n",
            ("x",),
            (Location("q0", initial=True), Location("q1", committed=True)),
            (Edge(0, 1, update=Update.of({0: Const(0)})),),
        )
        node, cache = initial_node(net)
        children, _ = successors(node, cache)
        (child,) = children
        assert int(child.zone.m[1, 0]) == LE_ZERO

    def test_committed_source_blocks_other_components(self):
        clocks = ("x",)
        a = Automaton(
            "A",
            (Location("a0", initial=True), Location("a1", committed=True),
             Location("a2")),
            (Edge(0, 1), Edge(1, 2)),
            clocks,
        )
        b = Automaton(
            "B",
            (Location("b0", initial=True), Location("b1")),
            (Edge(0, 1),),
            clocks,
        )
        net = Network("c", clocks, (), (), (a, b))
        node, cache = initial_node(net)
        both, _ = successors(node, cache)
        assert {c.label.edges for c in both} == {((0, 0),), ((1, 0),)}
        at_committed = next(c for c in both if c.label.edges == ((0, 0),))
        only_a, _ = successors(at_committed, cache)
        assert [c.label.edges for c in only_a] == [((0, 1),)]

    def test_false_int_guard_skips_without_counting(self):
        nvar = IntVar("n", 0, 3, 0)
        g = Guard((), (IntAtom(0, "==", rhs_lit=1),))
        net = single_component_network(
            "n",
            ("x",),
            (Location("q0", initial=True), Location("q1")),
            (Edge(0, 1, g),),
            int_vars=(nvar,),
        )
        node, cache = initial_node(net)
        children, disabled = successors(node, cache)
        assert children == []
        assert disabled == 0


class TestSync:
    def test_pair_fires_and_labels_both_edges(self):
        net = sync_pair_network()
        gmaps = [compute_gmap(c) for c in net.components]
        stats = reach(net, gmaps, "a1")
        assert stats.verdict == REACHABLE
        assert len(stats.path) == 1
        step = stats.path[0]
        assert step.label.edges == ((0, 0), (1, 0))
        text = step.label.describe(net)
        assert "go!" in text and "go?" in text
        assert replay(stats.path, net, "a1")

    def test_qualified_target(self):
        net = sync_pair_network()
        gmaps = [compute_gmap(c) for c in net.components]
        assert reach(net, gmaps, "B.b1").verdict == REACHABLE

    def test_emitter_without_receiver_blocks(self):
        clocks = ("x",)
        a = Automaton(
            "A",
            (Location("a0", initial=True), Location("a1")),
            (Edge(0, 1, sync=("go", "!")),),
            clocks,
        )
        net = Network("half", clocks, (), ("go",), (a,))
        stats = reach(net, [compute_gmap(a)], "a1")
        assert stats.verdict == UNREACHABLE
        assert stats.nodes == 1

    def test_component_cannot_sync_with_itself(self):
        clocks = ("x",)
        c = Automaton(
            "C",
            (Location("c0", initial=True), Location("c1"), Location("c2")),
            (Edge(0, 1, sync=("go", "!")), Edge(0, 2, sync=("go", "?"))),
            clocks,
        )
        net = Network("selfsync", clocks, (), ("go",), (c,))
        assert reach(net, [compute_gmap(c)], "c1").verdict == UNREACHABLE
        assert reach(net, [compute_gmap(c)], "c2").verdict == UNREACHABLE

    def test_receiver_update_wins_on_a_clock_both_write(self):
        clocks = ("x",)
        a = Automaton(
            "A",
            (Location("a0", initial=True), Location("a1", committed=True)),
            (Edge(0, 1, update=Update.of({0: Const(1)}), sync=("go", "!")),),
            clocks,
        )
        b = Automaton(
            "B",
            (Location("b0", initial=True), Location("b1")),
            (Edge(0, 1, update=Update.of({0: Const(2)}), sync=("go", "?")),),
            clocks,
        )
        net = Network("both", clocks, (), ("go",), (a, b))
        node, compiled = initial_node(net)
        (child,), _ = successors(node, compiled)
        assert int(child.zone.m[1, 0]) == encode_bound(2, WEAK)
        assert int(child.zone.m[0, 1]) == encode_bound(-2, WEAK)

    def test_emit_assigns_before_receive(self):
        nvar = IntVar("n", 0, 3, 0)
        clocks = ("x",)
        set_one = IntAssign(0, ((1, -1, 1),))
        bump = IntAssign(0, ((1, 0, 0), (1, -1, 1)))
        a = Automaton(
            "A",
            (Location("a0", initial=True), Location("a1")),
            (Edge(0, 1, int_assigns=(set_one,), sync=("go", "!")),),
            clocks,
        )
        b = Automaton(
            "B",
            (Location("b0", initial=True), Location("b1"), Location("b2")),
            (
                Edge(0, 1, int_assigns=(bump,), sync=("go", "?")),
                Edge(1, 2, Guard((), (IntAtom(0, "==", rhs_lit=2),))),
            ),
            clocks,
        )
        net = Network("order", clocks, (nvar,), ("go",), (a, b))
        gmaps = [compute_gmap(c) for c in net.components]
        stats = reach(net, gmaps, "b2")
        assert stats.verdict == REACHABLE
        assert stats.path[0].loc.ints == (2,)


class TestIntSemantics:
    def test_out_of_range_assign_disables_the_edge(self):
        nvar = IntVar("n", 0, 1, 0)
        overflow = IntAssign(0, ((1, 0, 0), (1, -1, 2)))
        set_one = IntAssign(0, ((1, -1, 1),))
        net = single_component_network(
            "n",
            ("x",),
            (Location("q0", initial=True), Location("q1"), Location("q2")),
            (Edge(0, 1, int_assigns=(overflow,)), Edge(0, 2, int_assigns=(set_one,))),
            int_vars=(nvar,),
        )
        gmaps = [compute_gmap(c) for c in net.components]
        stats = reach(net, gmaps, "q1")
        assert stats.verdict == UNREACHABLE
        assert stats.disabled_assigns == 1
        good = reach(net, gmaps, "q2")
        assert good.verdict == REACHABLE
        assert good.path[0].loc.ints == (1,)

    def test_guarded_route_through_an_assignment(self):
        nvar = IntVar("n", 0, 1, 0)
        need_one = Guard((), (IntAtom(0, "==", rhs_lit=1),))
        set_one = IntAssign(0, ((1, -1, 1),))
        net = single_component_network(
            "n",
            ("x",),
            (Location("q0", initial=True), Location("mid"), Location("q1")),
            (
                Edge(0, 2, need_one),
                Edge(0, 1, int_assigns=(set_one,)),
                Edge(1, 2, need_one),
            ),
            int_vars=(nvar,),
        )
        gmaps = [compute_gmap(c) for c in net.components]
        stats = reach(net, gmaps, "q1")
        assert stats.verdict == REACHABLE
        assert [s.loc.locs for s in stats.path] == [(1,), (2,)]


class TestReachLoop:
    def test_reaches_the_sink_with_one_pruned_revisit(self):
        net = loop_network()
        g = compute_gmap(net.components[0])
        stats = reach(net, [g], "q2")
        assert stats.verdict == REACHABLE
        assert stats.nodes == 4
        assert stats.pruned == 1
        assert len(stats.path) == 2
        assert [s.loc.locs for s in stats.path] == [(1,), (2,)]
        assert replay(stats.path, net, "q2")

    def test_unpruned_agrees_here(self):
        net = loop_network()
        stats = reach(net, None, "q2")
        assert stats.verdict == REACHABLE
        assert stats.nodes == 4
        assert stats.pruned == 0

    def test_target_at_initial_gives_empty_path(self):
        net = loop_network()
        g = compute_gmap(net.components[0])
        stats = reach(net, [g], "q0")
        assert stats.verdict == REACHABLE
        assert stats.nodes == 1
        assert stats.path == ()
        assert replay((), net, "q0")
        assert not replay((), net, "q2")

    def test_unknown_target_name(self):
        net = loop_network()
        with pytest.raises(ValueError, match="no location named"):
            reach(net, None, "nowhere")

    def test_contradictory_guard_target_unreachable(self):
        g = Guard((make_upper(0, WEAK, 1), make_lower(0, WEAK, 2)))
        net = single_component_network(
            "n", ("x",), (Location("q0", initial=True), Location("q1")), (Edge(0, 1, g),)
        )
        gm = compute_gmap(net.components[0])
        stats = reach(net, [gm], "q1")
        assert stats.verdict == UNREACHABLE
        assert stats.nodes == 1

    def test_exact_duplicate_dropped_even_without_simulation(self):
        net = single_component_network(
            "n",
            ("x",),
            (Location("q0", initial=True), Location("q1"), Location("q2")),
            (Edge(0, 1), Edge(0, 1)),
        )
        stats = reach(net, None, "q2")
        assert stats.verdict == UNREACHABLE
        assert stats.nodes == 3
        assert stats.pruned == 1


class TestTargetNames:
    """Target names resolve to (component, location) pairs, a dotted name
    split at its first dot."""

    @pytest.mark.parametrize("target, pairs", [
        ("error", {(1, 5), (2, 5)}),  # a bare name two components share
        ("task2.error", {(2, 5)}),
        ("entry", {(0, 2)}),
        ("sched.entry", {(0, 2)}),
    ])
    def test_resolved_pairs(self, target, pairs):
        net = gen_edf((TaskSpec(1, 3),) * 2, FLOWER)
        assert search._resolve_target(net, target) == frozenset(pairs)

    @pytest.mark.parametrize("target, message", [
        ("nosuch.q", "no process named 'nosuch' in the network"),
        ("sched.nosuch", "no location named 'sched.nosuch' in the network"),
        (".q", "no process named '' in the network"),
        ("sched.", "no location named 'sched.' in the network"),
        ("x.y.z", "no process named 'x' in the network"),
        ("task1.error.x", "no location named 'task1.error.x' in the network"),
    ])
    def test_messages(self, target, message):
        net = gen_edf((TaskSpec(1, 3),) * 2, FLOWER)
        with pytest.raises(ValueError) as err:
            search._resolve_target(net, target)
        assert str(err.value) == message


class TestValidation:
    def test_pruning_rejects_nonconverged_maps(self):
        a = fig1_automaton(guard_on=False)
        g = compute_gmap(a)
        assert g.status is Status.DIVERGED
        net = single_component_network(a.name, a.clock_names, a.locations, a.edges)
        with pytest.raises(ValueError, match="did not converge"):
            reach(net, [g], "q2")
        stats = reach(net, None, "q2")
        assert stats.verdict == REACHABLE

    def test_pruning_refused_on_shared_clocks(self):
        # B's x<=3 never crosses A's x=x-1 in the per-component analysis, so
        # pruning would drop x=4 at a1 under x=5 and miss goal
        done = IntVar("done", 0, 1, 0)
        clocks = ("x",)
        a = Automaton(
            "A",
            (Location("a0", initial=True), Location("a1", committed=True),
             Location("a2")),
            (
                Edge(0, 1, update=Update.of({X: Const(5)})),
                Edge(0, 1, update=Update.of({X: Const(4)})),
                Edge(1, 2, update=Update.of({X: Shift(X, -1)}),
                     int_assigns=(IntAssign(0, ((1, -1, 1),)),)),
            ),
            clocks,
        )
        b = Automaton(
            "B",
            (Location("b0", initial=True), Location("goal")),
            (Edge(0, 1, Guard((make_upper(X, WEAK, 3),),
                              (IntAtom(0, "==", rhs_lit=1),))),),
            clocks,
        )
        net = Network("shared", clocks, (done,), (), (a, b))
        gmaps = [compute_gmap(c) for c in net.components]
        assert all(g.status is Status.CONVERGED for g in gmaps)
        with pytest.raises(ValueError, match="clock x is shared between "
                                             "components A, B"):
            reach(net, gmaps, "goal")
        stats = reach(net, None, "goal")
        assert stats.verdict == REACHABLE
        assert replay(stats.path, net, "goal")

    def test_pruning_refused_on_unencodable_constant(self, monkeypatch):
        net = parse(BIG_DIAGONAL)
        gmaps = [compute_gmap(c) for c in net.components]
        assert all(g.status is Status.CONVERGED for g in gmaps)

        def no_search(*args):
            raise AssertionError("refused only after the search started")

        with monkeypatch.context() as m:
            m.setattr(search, "_initial_node", no_search)
            with pytest.raises(ValueError, match="--no-simulation"):
                reach(net, gmaps, "q3")
        assert reach(net, None, "q3").verdict == UNREACHABLE

    def test_timeout_reports_instead_of_spinning(self):
        clocks = ("x", "y")
        never = Guard((make_lower_diag(X, Y, WEAK, 100),))
        a = Automaton(
            "spin",
            (Location("q0", initial=True), Location("q1")),
            (Edge(0, 0, update=Update.of({X: Shift(X, -1)})), Edge(0, 1, never)),
            clocks,
        )
        net = Network("spin", clocks, (), (), (a,))
        stats = reach(net, None, "q1", timeout=0.4)
        assert stats.verdict == TIMEOUT
        assert stats.seconds < 30
        assert "path" not in stats.to_json(net)


class TestReplay:
    def test_scrambled_order_fails(self):
        net = loop_network()
        g = compute_gmap(net.components[0])
        path = reach(net, [g], "q2").path
        assert replay(path, net, "q2")
        assert not replay(tuple(reversed(path)), net, "q2")

    def test_wrong_destination_fails(self):
        net = loop_network()
        g = compute_gmap(net.components[0])
        path = list(reach(net, [g], "q2").path)
        path[-1] = PathStep(path[-1].label, ProductLoc((0,), ()))
        assert not replay(tuple(path), net, "q2")

    def test_wrong_final_target_fails(self):
        net = loop_network()
        g = compute_gmap(net.components[0])
        path = reach(net, [g], "q2").path
        assert not replay(path, net, "q0")


class TestStatsOutput:
    def test_json_shape_with_path(self):
        net = sync_pair_network()
        gmaps = [compute_gmap(c) for c in net.components]
        j = reach(net, gmaps, "a1").to_json(net)
        assert j["verdict"] == REACHABLE
        assert j["nodes"] >= 1 and j["pruned"] >= 0 and j["seconds"] >= 0
        assert j["pruned_exact"] == j["pruned_sim"] == 0
        assert j["max_frontier"] >= 1 and j["disabled_assigns"] == 0
        assert j["path"] == [{"fire": "A: go! a0->a1, B: go? b0->b1", "state": "a1|b1"}]

    def test_json_without_path(self):
        net = loop_network()
        g = compute_gmap(net.components[0])
        j = reach(net, [g], "q2").to_json()
        assert "path" not in j
        assert (j["pruned"], j["pruned_exact"], j["pruned_sim"]) == (1, 0, 1)

    def test_deterministic_across_runs(self):
        net = loop_network()
        g = compute_gmap(net.components[0])
        runs = [reach(net, [g], "q2") for _ in range(2)]
        a, b = runs
        assert (a.verdict, a.nodes, a.pruned, a.max_frontier, a.path) == (
            b.verdict,
            b.nodes,
            b.pruned,
            b.max_frontier,
            b.path,
        )

    def test_kernel_counters_match_wrapped_calls(self, monkeypatch):
        # the counters read what a profiler wrapping the scan's two calls
        # reads, on a flower row where a hundred candidates get past the keys
        label, verdict = "flower (1,10)^2+(1,4)", UNREACHABLE
        net = gen_edf((TaskSpec(1, 10), TaskSpec(1, 10), TaskSpec(1, 4)), FLOWER)
        gmaps = [compute_gmap(c) for c in net.components]
        batched, recursion = search.not_simulated_batch, search.sim_zone_prepared
        seen = {"candidates": 0, "diag": 0}

        def scan(z, keys, zps, prep, key):
            seen["candidates"] += len(keys)
            return batched(z, keys, zps, prep, key)

        def diag(z, zp, prep):
            seen["diag"] += 1
            return recursion(z, zp, prep)

        monkeypatch.setattr(search, "not_simulated_batch", scan)
        monkeypatch.setattr(search, "sim_zone_prepared", diag)
        stats = reach(net, gmaps, "error")
        assert stats.verdict == verdict, label
        assert stats.kernel_candidates == seen["candidates"] >= 100, label
        assert stats.diag_calls == seen["diag"] >= stats.pruned_sim > 0, label
        doc = stats.to_json(net)
        assert (doc["kernel_candidates"], doc["diag_calls"]) == (
            stats.kernel_candidates, stats.diag_calls)


class TestPrunedVersusUnpruned:
    def test_seeded_models_agree_and_pruning_never_grows_the_search(self, monkeypatch):
        applicable = 0
        reachable_seen = 0
        unreachable_seen = 0
        for seed in range(60):
            r = random.Random(1000 + seed)
            style = r.choice(["reset", "reset", "clock_bounded", "bounded_sub"])
            a = random_automaton(
                r, n_clocks=2, max_locs=3, max_edges=4, max_const=3, style=style
            )
            g = compute_gmap(a)
            if g.status is not Status.CONVERGED:
                continue
            net = single_component_network(a.name, a.clock_names, a.locations, a.edges)
            base = unpruned_reach(monkeypatch, net, "q1")
            if base is None:
                continue
            pruned = reach(net, [g], "q1", timeout=30.0)
            assert pruned.verdict == base.verdict
            assert pruned.nodes <= base.nodes
            if pruned.verdict == REACHABLE:
                assert replay(pruned.path, net, "q1")
                reachable_seen += 1
            else:
                unreachable_seen += 1
            applicable += 1
        assert applicable >= 20
        assert reachable_seen >= 5
        assert unreachable_seen >= 2


def reference_successors(node, net):
    """The per-expansion channel x component x edge scan that the compiled
    move table replaces, firing each move through the defining relation of
    its merged update.  Returns ([(label, loc, zone)], disabled)."""
    comps = net.components
    locs, ints = node.loc.locs, node.loc.ints
    bounds = [(v.lo, v.hi) for v in net.int_vars]

    def committed(at):
        return any(comps[c].locations[l].committed for c, l in enumerate(at))

    committed_now = committed(locs)
    out = []
    disabled = 0

    def try_move(parts):
        nonlocal disabled
        if committed_now and not any(
            comps[c].locations[locs[c]].committed for c, _ in parts
        ):
            return
        edges = [comps[c].edges[ei] for c, ei in parts]
        if not all(a.holds(ints) for e in edges for a in e.guard.int_atoms):
            return
        vals = list(ints)
        for a in (a for e in edges for a in e.int_assigns):
            v = a.value(vals)
            lo, hi = bounds[a.var]
            if not lo <= v <= hi:
                disabled += 1
                return
            vals[a.var] = v
        new_locs = list(locs)
        for (c, _), e in zip(parts, edges):
            new_locs[c] = e.dst
        new_locs = tuple(new_locs)
        merged = {}
        for e in edges:
            merged.update(e.update.entries)
        inv = [phi for c, l in enumerate(new_locs)
               for phi in comps[c].locations[l].invariant.clock_atoms]
        z = intersect_all(node.zone, [p for e in edges for p in e.guard.clock_atoms])
        if z is not EMPTY:
            z = apply_update_relational(z, Update.of(merged))
        z = intersect_all(z, inv)
        if z is not EMPTY and not committed(new_locs):
            z = intersect_all(elapse(z), inv)
        if z is not EMPTY:
            out.append((TransLabel(parts), ProductLoc(new_locs, tuple(vals)), z))

    for c, comp in enumerate(comps):
        for ei, e in enumerate(comp.edges):
            if e.src == locs[c] and e.sync is None:
                try_move(((c, ei),))
    for ch in net.channels:
        emitters, receivers = [], []
        for c, comp in enumerate(comps):
            for ei, e in enumerate(comp.edges):
                if e.src == locs[c] and e.sync and e.sync[0] == ch:
                    (emitters if e.sync[1] == "!" else receivers).append((c, ei))
        for p1 in emitters:
            for p2 in receivers:
                if p1[0] != p2[0]:
                    try_move((p1, p2))
    return out, disabled


class TestMoveTable:
    """The compiled move table fires what the plain scan fires, in order."""

    @staticmethod
    def agree_on_bfs(net, max_nodes):
        """Compare both on the nodes of an exact-dedup BFS, up to max_nodes;
        returns the numbers of nodes compared, children and disabled
        firings seen."""
        node, compiled = initial_node(net)
        if node is None:
            return 0, 0, 0
        queue = deque([node])
        seen = {(node.loc, node.zone)}
        compared = children_seen = disabled_seen = 0
        while queue and compared < max_nodes:
            node = queue.popleft()
            children, disabled = successors(node, compiled)
            want, want_disabled = reference_successors(node, net)
            got = [(c.label, c.loc, c.zone) for c in children]
            assert got == want, node.loc
            assert disabled == want_disabled, node.loc
            compared += 1
            children_seen += len(children)
            disabled_seen += disabled
            for child in children:
                key = (child.loc, child.zone)
                if key not in seen:
                    seen.add(key)
                    queue.append(child)
        return compared, children_seen, disabled_seen

    def test_desk_rows(self):
        for label, build, _ in DESK_ROWS:
            compared, children, _ = self.agree_on_bfs(build(), 300)
            assert compared >= 50 and children >= 50, label

    def test_random_sync_networks(self):
        rng = random.Random(2024)
        compared = children = disabled = pairs = 0
        for _ in range(150):
            net = random_sync_network(rng)
            got = self.agree_on_bfs(net, 60)
            compared += got[0]
            children += got[1]
            disabled += got[2]
            node, compiled = initial_node(net)
            if node is not None:
                pairs += sum(len(f[0].label.edges) == 2
                             for f in compiled.moves(node.loc.locs))
        assert compared >= 1000
        assert children >= compared
        assert disabled >= 10 and pairs >= 10

    def test_firings_into_one_location_vector_share_its_invariant(self):
        # the firings of every product location of the location graph,
        # grouped by the location vector they enter: one invariant object
        # per vector, and vectors with a nonempty invariant entered twice
        shared = 0
        for label, build, _ in DESK_ROWS:
            node, compiled = initial_node(build())
            seen: dict = {}
            frontier, visited = [node.loc.locs], {node.loc.locs}
            while frontier:
                locs = frontier.pop()
                for _, new_locs, invariant, do_elapse in compiled.moves(locs):
                    if new_locs in seen:
                        assert seen[new_locs] == (invariant, do_elapse), label
                        assert seen[new_locs][0] is invariant, label
                        shared += len(invariant) > 0  # () is always one object
                    else:
                        seen[new_locs] = (invariant, do_elapse)
                    if new_locs not in visited:
                        visited.add(new_locs)
                        frontier.append(new_locs)
            assert compiled.target(node.loc.locs) is compiled.target(node.loc.locs)
        assert shared > len(DESK_ROWS)


def stored_zones(passed) -> list:
    """The zones of a passed list, unpacked."""
    return [Dbm(dbm.unpack(p)) for p in passed.zones]


class TestSubsumptionKernel:
    """Search driven by the reference kernel explores exactly as with the
    batched one, and every kernel call agrees with it candidate by
    candidate."""

    def test_desk_rows(self, monkeypatch):
        batched = simulation.not_simulated_batch
        scan = search._scan
        candidates = []

        def checked(z, keys, zps, prep, key):
            got = batched(z, keys, zps, prep, key)
            want = [reference_not_simulated(z, zp, prep) for zp in zps]
            assert got.tolist() == want
            candidates.append(len(want))
            return np.array(want, dtype=bool)

        def every_stored_zone(zone, key, here, stats):
            # the kernel, key compare included, on every stored zone of the
            # state in the forward direction, and on zone against each in
            # the reverse one, before the scan's own calls
            zones = stored_zones(here)
            checked(zone, here.keys[:, :len(zones)].T, zones, here.prep, key)
            for zp in zones:
                checked(zp, key[None], (zone,), here.prep,
                        simulation.bound_key(zp, here.prep))
            return scan(zone, key, here, stats)

        for label, build, verdict in DESK_ROWS:
            net = build()
            gmaps = [compute_gmap(c) for c in net.components]
            fast = reach(net, gmaps, "error")
            with monkeypatch.context() as m:
                m.setattr(search, "not_simulated_batch", checked)
                m.setattr(search, "_scan", every_stored_zone)
                ref = reach(net, gmaps, "error")
            assert fast.verdict == ref.verdict == verdict, label
            assert (fast.nodes, fast.pruned, fast.max_frontier) == (
                ref.nodes, ref.pruned, ref.max_frontier), label
            assert fast.path == ref.path, label
        assert len(candidates) >= 1000 and sum(candidates) >= 3000


def same_prepared(a, b) -> bool:
    arrays = [(getattr(a, f), getattr(b, f))
              for f in ("l_edge", "u_thr", "l_thr", "pairs", "key_idx", "lo", "hi")]
    return a.diags == b.diags and a.key_dtype is b.key_dtype and all(
        np.array_equal(x, y) and x.dtype == y.dtype for x, y in arrays)


class TestProductSets:
    """Combining the prepared sets of a product location's components gives
    what preparing the union of their constraint sets gives, on every
    product location the search visits."""

    @staticmethod
    def visited(monkeypatch, net, gmaps, target, **kwargs):
        seen = set()
        plain = search.successors

        def recording(node, *args):
            got = plain(node, *args)
            seen.add(node.loc.locs)
            seen.update(child.loc.locs for child in got[0])
            return got

        with monkeypatch.context() as m:
            m.setattr(search, "successors", recording)
            reach(net, gmaps, target, **kwargs)
        return seen

    @staticmethod
    def agree(net, gmaps, locs) -> int:
        """Check every product location; the number whose diagonal set is
        that of an earlier one."""
        n = len(net.clocks)
        sets = search.ProductSets(gmaps, n)
        shared = set()
        for at in sorted(locs):
            got = sets.at(at)
            want = simulation.prepare(product_gset(gmaps, ProductLoc(at, ())), n)
            assert same_prepared(got, want), at
            shared.add(got.diags)
        return len(locs) - len(shared)

    def test_desk_rows(self, monkeypatch):
        total = shared = 0
        for label, build, _ in DESK_ROWS:
            net = build()
            gmaps = [compute_gmap(c) for c in net.components]
            locs = self.visited(monkeypatch, net, gmaps, "error")
            shared += self.agree(net, gmaps, locs)
            total += len(locs)
        # each desk row has one diagonal set over all its product locations
        assert total >= 100 and shared >= total - len(DESK_ROWS)

    def test_random_sync_networks(self, monkeypatch):
        rng = random.Random(2025)
        total = diagonal = two_sided = merged = 0
        for _ in range(300):
            net = random_sync_network(rng)
            gmaps = [compute_gmap(c) for c in net.components]
            if any(g.status is not Status.CONVERGED for g in gmaps):
                continue
            last = net.components[-1]
            target = f"{last.name}.{last.locations[-1].name}"
            locs = self.visited(monkeypatch, net, gmaps, target, timeout=2.0)
            self.agree(net, gmaps, locs)
            sets = search.ProductSets(gmaps, len(net.clocks))
            for at in locs:
                total += 1
                diagonal += bool(sets.at(at).diags)
                two_sided += bool(sets.at(at).pairs.any())
                # diagonals from two components or more: a sorted union
                merged += sum(bool(g.sets[q].diag) for g, q in zip(gmaps, at)) > 1
        assert total >= 200 and diagonal >= 100 and two_sided >= 100
        assert merged >= 50

    def test_equal_parts_are_one_object_and_unions_are_shared(self, monkeypatch):
        calls = []
        plain = search.prepare_union

        def counting(parts):
            calls.append(frozenset(parts))
            return plain(parts)

        monkeypatch.setattr(search, "prepare_union", counting)
        interned = unions = visited = 0
        for label, build, _ in DESK_ROWS:
            net = build()
            gmaps = [compute_gmap(c) for c in net.components]
            locs = self.visited(monkeypatch, net, gmaps, "error")
            sets = search.ProductSets(gmaps, len(net.clocks))
            parts = [p for row in sets._parts for p in row]
            by_value = {}
            for p in parts:
                key = (p.u_thr.tobytes(), p.l_thr.tobytes(), p.diags)
                assert by_value.setdefault(key, p) is p, label
            interned += len(parts) - len({id(p) for p in parts})
            calls.clear()
            by_parts = {}
            for at in sorted(locs):
                got = sets.at(at)
                assert sets.at(at) is got
                key = frozenset(row[q] for row, q in zip(sets._parts, at))
                assert by_parts.setdefault(key, got) is got, label
            # one union per distinct set of parts, each built once
            assert set(calls) == set(by_parts) and len(calls) == len(by_parts), label
            unions += len(calls)
            visited += len(locs)
        assert interned >= 100 and 2 * unions < visited, (interned, unions, visited)


def two_invariants(first: str, second: str, initial: bool = False):
    """A and B, on clocks x and y, move together on go into a1 and b1 with
    invariants first and second; or start there when initial."""
    return parse(
        "system inv\nclock x\nclock y\nevent go\nprocess A\nprocess B\n"
        f"location A a0{' initial' * (not initial)}\n"
        f"location A a1{' initial' * initial} invariant: {first}\n"
        f"location B b0{' initial' * (not initial)}\n"
        f"location B b1{' initial' * initial} invariant: {second}\n"
        "edge A a0 a1 sync: go!\nedge B b0 b1 sync: go?\n")


class TestInvariants:
    """A product location's invariant is its components' encoded
    invariants concatenated."""

    def test_false_in_either_component_blocks_the_move(self):
        for first, second in (("false", "y<=1"), ("x<=1", "false")):
            net = two_invariants(first, second)
            node, compiled = initial_node(net)
            assert successors(node, compiled) == ([], 0), (first, second)
        net = two_invariants("x<=1", "y<=1")
        node, compiled = initial_node(net)
        (child,), _ = successors(node, compiled)
        assert int(child.zone.m[1, 0]) == int(child.zone.m[2, 0]) == encode_bound(1, WEAK)

    def test_false_at_the_initial_location(self):
        for first, second in (("false", "y<=1"), ("x<=1", "false")):
            net = two_invariants(first, second, initial=True)
            gmaps = [compute_gmap(c) for c in net.components]
            for maps in (gmaps, None):
                stats = reach(net, maps, "b1")
                assert (stats.verdict, stats.nodes) == (UNREACHABLE, 0), first
        net = two_invariants("x<=1", "y<=1", initial=True)
        assert reach(net, None, "b1").verdict == REACHABLE

    def test_desk_rows_encode_as_the_atoms_together(self, monkeypatch):
        checked = constrained = 0
        for label, build, _ in DESK_ROWS:
            net = build()
            gmaps = [compute_gmap(c) for c in net.components]
            compiled = search.CompiledNet(net)
            for at in TestProductSets.visited(monkeypatch, net, gmaps, "error"):
                atoms = [phi for c, l in enumerate(at)
                         for phi in net.components[c].locations[l].invariant.clock_atoms]
                got = compiled.target(at)[0]
                assert got == encode_atoms(atoms), (label, at)
                checked += 1
                constrained += bool(got)
        assert checked >= 100 and constrained >= 50, (checked, constrained)


class TestPassedList:
    """Each explored zone is kept once per discrete state."""

    @staticmethod
    def twin_network(committed):
        # two parallel unguarded edges into q1: into a committed location
        # the successor is the parent's zone object itself, elsewhere each
        # child is elapsed into its own equal copy
        return single_component_network(
            "n",
            ("x",),
            (Location("q0", initial=True), Location("q1", committed=committed),
             Location("q2")),
            (Edge(0, 1), Edge(0, 1)),
        )

    def test_equal_zone_is_an_exact_duplicate(self, monkeypatch):
        for committed in (True, False):
            net = self.twin_network(committed)
            node, compiled = initial_node(net)
            (a, b), _ = successors(node, compiled)
            assert a.zone == b.zone and (a.zone is b.zone) == committed
            g = compute_gmap(net.components[0])
            for stats in (reach(net, [g], "q2"),
                          reach(net, None, "q2")):
                assert stats.verdict == UNREACHABLE
                assert (stats.nodes, stats.pruned_exact, stats.pruned_sim) == (
                    3, 1, 0), committed

        def refuse(*args):
            raise AssertionError("kernel called on an equal zone")

        monkeypatch.setattr(search, "not_simulated_batch", refuse)
        monkeypatch.setattr(search, "sim_zone_prepared", refuse)
        for prep in (simulation.prepare(g.sets[1], 1), None):
            passed = search.Passed(ProductLoc((1,), ()), False, prep)
            stats = search.SearchStats(UNREACHABLE)
            assert passed.admit(a.zone, 1, stats) == []
            # the zone itself and an equal copy: each dropped as an exact
            # duplicate, with no kernel call
            for k, z in enumerate((a.zone, Dbm(a.zone.m.copy()))):
                assert passed.admit(z, 2 + k, stats) is None
                assert (stats.pruned_exact, stats.pruned_sim,
                        stats.kernel_candidates) == (k + 1, 0, 0)
            assert type(passed.zones) is (set if prep is None else list)
            assert stored_zones(passed) == [a.zone]

    def test_admit_drops_a_simulated_zone_and_names_those_it_simulates(self):
        # the point x = 0 lies inside the ray x >= 0, so the ray simulates
        # it; under x >= 2 the point does not simulate the ray, whose x = 5
        # satisfies x >= 2 where x = 0 does not
        point = dbm.zero_zone(1)
        ray = elapse(point)
        prep = simulation.prepare(GSet.of([make_lower(X, WEAK, 2)]), 1)
        loc = ProductLoc((0,), ())
        stats = search.SearchStats(UNREACHABLE)
        here = search.Passed(loc, False, prep)
        assert here.admit(ray, 7, stats) == []
        assert here.admit(point, 8, stats) is None
        assert (stats.pruned_exact, stats.pruned_sim) == (0, 1)
        assert list(here.ids) == [7]
        # stored the other way round, the ray is stored too and names the
        # point's node, which the search then covers
        here = search.Passed(loc, False, prep)
        assert here.admit(point, 7, stats) == []
        assert here.admit(ray, 8, stats) == [7]
        assert stats.pruned == 1 and list(here.ids) == [7, 8]
        # without pruning both are stored and neither is named
        here = search.Passed(loc, False, None)
        assert here.admit(point, 7, stats) == here.admit(ray, 8, stats) == []
        assert stats.pruned == 1 and len(here.zones) == 2

    def test_equal_zone_pruned_before_any_kernel_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("kernel called on an equal zone")

        monkeypatch.setattr(search, "not_simulated_batch", refuse)
        monkeypatch.setattr(search, "sim_zone_prepared", refuse)
        for committed in (True, False):
            net = self.twin_network(committed)
            stats = reach(net, [compute_gmap(net.components[0])], "q2")
            assert (stats.verdict, stats.nodes, stats.pruned_exact,
                    stats.pruned_sim, stats.kernel_candidates) == (
                UNREACHABLE, 3, 1, 0, 0), committed

    def test_one_unpack_per_candidate_and_scan(self, monkeypatch):
        # on (1,10)^2+(1,4) some stored zones have the key of the zone
        # scanned and stand both ways; each is unpacked once for both
        unpacks, scans = [], []
        zone, scan = search.Passed.zone, search._scan

        def counted_zone(self, k):
            unpacks.append((id(self), k))
            return zone(self, k)

        def counted_scan(*args):
            unpacks.clear()
            got = scan(*args)
            assert len(unpacks) == len(set(unpacks))
            scans.append(len(unpacks))
            return got

        monkeypatch.setattr(search.Passed, "zone", counted_zone)
        monkeypatch.setattr(search, "_scan", counted_scan)
        net = gen_edf((TaskSpec(1, 10),) * 2 + (TaskSpec(1, 4),), FLOWER)
        stats = reach(net, [compute_gmap(c) for c in net.components], "error")
        assert stats.verdict == UNREACHABLE
        # the parent unpacked once per kernel candidate
        assert stats.kernel_candidates > sum(scans) >= 500

    def test_bound_keys_follow_the_zones_after_growth(self, monkeypatch):
        made = []

        class Recording(search.Passed):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(search, "Passed", Recording)
        label, build, verdict = DESK_ROWS[-1]
        net = build()
        gmaps = [compute_gmap(c) for c in net.components]
        assert reach(net, gmaps, "error").verdict == verdict
        grown = [p for p in made if len(p.zones) > 8]
        assert len(grown) >= 5, label
        for passed in grown:
            k = len(passed.zones)
            assert passed.keys.shape[1] >= k and len(passed.ids) == k
            want = [simulation.bound_key(z, passed.prep) for z in stored_zones(passed)]
            assert np.array_equal(passed.keys[:, :k].T, np.array(want))
            assert type(passed.zones) is list
            assert len(set(passed.zones)) == len(passed.zones) == k

    def test_one_record_per_discrete_state(self, monkeypatch):
        made = []

        class Recording(search.Passed):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(search, "Passed", Recording)
        net = gen_edf((TaskSpec(1, 3),) * 4, FLOWER)
        stats = reach(net, [compute_gmap(c) for c in net.components], "error")
        assert stats.verdict == REACHABLE and len(stats.path) >= 10
        assert len({p.loc for p in made}) == len(made) >= 100
        records = {id(p.loc): p for p in made}
        assert all(id(step.loc) in records for step in stats.path)
        names = [[loc.name for loc in comp.locations] for comp in net.components]
        goals = [p for p in made
                 if any(names[c][l] == "error" for c, l in enumerate(p.loc.locs))]
        assert goals and all(p.goal == (p in goals) for p in made)
        assert records[id(stats.path[-1].loc)].goal

    def test_goal_states_build_no_prepared_set(self, monkeypatch):
        made, unions = [], []
        at = search.ProductSets.at

        class Recording(search.Passed):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        def counted_at(self, locs):
            unions.append(locs)
            return at(self, locs)

        monkeypatch.setattr(search, "Passed", Recording)
        monkeypatch.setattr(search.ProductSets, "at", counted_at)
        net = gen_edf((TaskSpec(1, 3),) * 4, FLOWER)
        stats = reach(net, [compute_gmap(c) for c in net.components], "error")
        assert stats.verdict == REACHABLE and len(stats.path) == 50
        assert replay(stats.path, net, "error")
        goals = [p for p in made if p.goal]
        assert goals and sorted(unions) == sorted(p.loc.locs for p in made
                                                  if not p.goal)
        assert all(p.prep is p.keys is None and p.zones == p.ids == ()
                   for p in goals)

    def test_wider_zones_prune_alike(self, monkeypatch):
        # scaling every constant of a network scales its zones and leaves
        # the search's graph as it is, so the packed widths and key dtypes
        # change and nothing else may
        made = []

        class Recording(search.Passed):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(search, "Passed", Recording)
        for tasks, verdict in ((((1, 3),) * 4, REACHABLE),
                               (((1, 4), (1, 4), (1, 5)), UNREACHABLE)):
            seen = []
            for scale, width in ((1, 2), (2**14, 4), (2**30, 8)):
                made.clear()
                net = gen_edf(tuple(TaskSpec(c * scale, d * scale)
                                    for c, d in tasks), FLOWER)
                stats = reach(net, [compute_gmap(c) for c in net.components],
                              "error")
                assert stats.verdict == verdict
                # zones (their tag byte) and keys are int16, int32 and
                # int64 in turn; goal states have no prepared set
                widths = {z[0] & ~dbm._IMPLIED for p in made for z in p.zones}
                keys = {np.dtype(p.prep.key_dtype).itemsize for p in made
                        if not p.goal}
                assert max(widths) == max(keys) == width, (scale, widths, keys)
                seen.append((stats.nodes, stats.pruned_exact, stats.pruned_sim,
                             stats.pruned_subtree, stats.stored,
                             stats.path and [s.label for s in stats.path]))
            assert seen[0] == seen[1] == seen[2], tasks


class TestSubtreeCovering:
    """The scan's two directions against the region oracle, and covering
    against the unpruned search."""

    @staticmethod
    def boxed_zone(rng, n):
        # box-bounded and within the oracle's constant 6, so that the
        # oracle concludes with the zone on either side of a query
        z = intersect_all(random_zone_chain(rng, n),
                          [make_upper(x, WEAK, rng.randint(3, 6)) for x in range(n)])
        return None if z is EMPTY or _zone_max_const(z) > 6 else z

    def test_scan_agrees_with_brute_force(self):
        rng = random.Random(1802)
        covered = simulating = keyless = 0
        for _ in range(300):
            n = rng.choice((1, 2, 2, 3))
            g = GSet.of([random_atom(rng, n, 5) for _ in range(rng.randint(0, 4))])
            if rng.random() < 0.25:
                g = GSet.of(g.diag)  # no bound entries: no keys to compare
            prep = simulation.prepare(g, n)
            zones = []
            for _ in range(rng.randint(1, 5)):
                z = self.boxed_zone(rng, n)
                if z is not None and z not in zones:
                    zones.append(z)
            zone = self.boxed_zone(rng, n)
            if zone is None or zone in zones or not zones:
                continue
            here = search.Passed(ProductLoc((0,), ()), False, prep)
            for k, z in enumerate(zones):
                here.add(z, 10 + k, simulation.bound_key(z, prep))
            got = search._scan(zone, simulation.bound_key(zone, prep), here,
                               search.SearchStats(UNREACHABLE))
            keyless += len(prep.key_idx) == 0
            forward = [brute_force_sim(SimQuery(zone, zp, g), 6) for zp in zones]
            if got is None:
                assert any(forward), (zone.m, g.atoms())
                covered += 1
                continue
            assert not any(forward), (zone.m, g.atoms())
            want = [10 + k for k, zp in enumerate(zones)
                    if brute_force_sim(SimQuery(zp, zone, g), 6)]
            assert got == want, (zone.m, [zp.m for zp in zones], g.atoms())
            simulating += bool(want)
        assert covered >= 20 and simulating >= 20 and keyless >= 20, (
            covered, simulating, keyless)

    def test_removed_zones_leave_every_store(self, monkeypatch):
        # on (1,10)^2+(1,4) some stored zones simulate their own ancestor,
        # which covering must keep: it never removes the zone that covers
        made, added, dropped = [], [], set()

        class Recording(search.Passed):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

            def add(self, zone, nid, key):
                added.append(nid)
                super().add(zone, nid, key)

            def drop(self, dead):
                assert dead <= set(self.ids) and added[-1] not in dead
                dropped.update(dead)
                super().drop(dead)

        monkeypatch.setattr(search, "Passed", Recording)
        for tasks, verdict in (((TaskSpec(1, 3),) * 4, REACHABLE),
                               ((TaskSpec(1, 10),) * 2 + (TaskSpec(1, 4),),
                                UNREACHABLE)):
            made.clear()
            dropped.clear()
            net = gen_edf(tasks, FLOWER)
            gmaps = [compute_gmap(c) for c in net.components]
            stats = reach(net, gmaps, "error")
            assert stats.verdict == verdict
            assert stats.path is None or replay(stats.path, net, "error")
            assert stats.pruned_subtree >= 50 and len(dropped) >= 50
            # a goal state stores nothing and has no keys
            assert all(p.zones == p.ids == () and p.keys is None
                       for p in made if p.goal)
            for passed in (p for p in made if not p.goal):
                k = len(passed.zones)
                assert not dropped & set(passed.ids) and len(passed.ids) == k
                want = [simulation.bound_key(z, passed.prep)
                        for z in stored_zones(passed)]
                assert np.array_equal(passed.keys[:, :k].T, np.array(
                    want, dtype=np.int64).reshape(k, len(passed.prep.key_idx)))
                assert type(passed.zones) is list
                assert len(set(passed.zones)) == len(passed.zones) == k

    def test_pruned_against_unpruned_on_random_networks(self, monkeypatch):
        # random EDF task sets under flower releases, where covering is
        # frequent, and random synchronising networks; no clock is shared
        rng = random.Random(1803)
        nets = []
        for _ in range(12):
            tasks = [TaskSpec(c, rng.randint(c, 5))
                     for c in (rng.randint(1, 2) for _ in range(rng.randint(2, 3)))]
            nets.append((gen_edf(tasks, FLOWER), "error"))
        for _ in range(40):
            net = random_sync_network(rng, n_comps=3, clocks_per_comp=1,
                                      max_locs=4, max_edges=6, max_const=4)
            last = net.components[-1]
            nets.append((net, f"{last.name}.{last.locations[-1].name}"))
        compared = {REACHABLE: 0, UNREACHABLE: 0}
        subtrees = 0
        for net, target in nets:
            assert not net.shared_clocks()
            gmaps = [compute_gmap(c) for c in net.components]
            if any(g.status is not Status.CONVERGED for g in gmaps):
                continue
            # the largest compared search expands 5,241 nodes; the three
            # skipped ones would each run to the cap
            free = unpruned_reach(monkeypatch, net, target, cap=6_000)
            if free is None:
                continue
            pruned = reach(net, gmaps, target, timeout=30.0)
            assert pruned.verdict == free.verdict, target
            assert pruned.nodes <= free.nodes, target
            if pruned.verdict == REACHABLE:
                assert replay(pruned.path, net, target)
            compared[pruned.verdict] += 1
            subtrees += pruned.pruned_subtree > 0
        assert min(compared.values()) >= 5 and subtrees >= 5, (compared, subtrees)


class TestTracerHooks:
    """perfbench's tracer rebinds module attributes (`tracing._targets`);
    each must still be what the program calls, or a layer silently drops
    out of the traced split."""

    def test_every_target_records_a_span(self):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        text = print_network(gen_edf((TaskSpec(1, 2),) * 3, FLOWER))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # through the modules, whose attributes the tracer rebinds
            net = uta_format.parse(text)
            gmaps = [analysis.compute_gmap(c) for c in net.components]
            for comp, g in zip(net.components, gmaps):
                analysis.report_json(comp, g)
            stats = search.reach(net, gmaps, "error")
        finally:
            tracer.uninstall()
        assert stats.verdict == REACHABLE
        recorded = {tracer.names[i] for i in tracer.name}
        assert recorded == {name for _, _, name, _ in tracing._targets()}
        assert tracer.counters["search.generated"] > 0
