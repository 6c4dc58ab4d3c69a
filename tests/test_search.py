"""Product exploration: successors, committed/sync semantics, pruned BFS."""
import random
from collections import deque

import numpy as np
import pytest

from uta import search, simulation
from uta.analysis import Status, compute_gmap
from uta.dbm import (
    EMPTY,
    INF,
    LE_ZERO,
    Dbm,
    elapse,
    encode_bound,
)
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

from conftest import fig1_automaton, random_automaton, random_sync_network
from reference import apply_update_relational, intersect_all, product_gset
from test_acceptance import DESK_ROWS
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
            assert product_gset([g], ProductLoc((q,), ())) == g.at(q)

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
        assert got.nond == g1.at(0).nond | g2.at(0).nond
        assert got.diag == g1.at(0).diag | g2.at(0).diag
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


class TestPrunedVersusUnpruned:
    def test_seeded_models_agree_and_pruning_never_grows_the_search(self):
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
            base = reach(net, None, "q1", timeout=3.0)
            if base.verdict == TIMEOUT:
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


class TestSubsumptionKernel:
    """Search driven by the reference kernel explores exactly as with the
    batched one, and every kernel call agrees with it candidate by
    candidate."""

    def test_desk_rows(self, monkeypatch):
        batched = simulation.not_simulated_batch
        candidates = []

        def checked(z, rows, zps, prep):
            got = batched(z, rows, zps, prep)
            want = [reference_not_simulated(z, zp, prep) for zp in zps]
            assert got.tolist() == want
            candidates.append(len(want))
            return np.array(want, dtype=bool)

        for label, build, verdict in DESK_ROWS:
            net = build()
            gmaps = [compute_gmap(c) for c in net.components]
            fast = reach(net, gmaps, "error")
            with monkeypatch.context() as m:
                # the search's scan and the diagonal recursion both
                m.setattr(search, "not_simulated_batch", checked)
                m.setattr(simulation, "not_simulated_batch", checked)
                ref = reach(net, gmaps, "error")
            assert fast.verdict == ref.verdict == verdict, label
            assert (fast.nodes, fast.pruned, fast.max_frontier) == (
                ref.nodes, ref.pruned, ref.max_frontier), label
            assert fast.path == ref.path, label
        assert len(candidates) >= 1000 and sum(candidates) >= 3000


def same_prepared(a, b) -> bool:
    return a.diags == b.diags and a.two_sided == b.two_sided and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        and getattr(a, f).dtype == getattr(b, f).dtype
        for f in ("has_u", "u_enc", "has_l", "l_edge", "u_thr", "l_thr", "pairs"))


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
    def agree(net, gmaps, locs):
        n = len(net.clocks)
        sets = search.ProductSets(gmaps, n)
        for at in sorted(locs):
            want = simulation.prepare(product_gset(gmaps, ProductLoc(at, ())), n)
            assert same_prepared(sets.at(at), want), at

    def test_desk_rows(self, monkeypatch):
        total = 0
        for label, build, _ in DESK_ROWS:
            net = build()
            gmaps = [compute_gmap(c) for c in net.components]
            locs = self.visited(monkeypatch, net, gmaps, "error")
            self.agree(net, gmaps, locs)
            total += len(locs)
        assert total >= 100

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
                two_sided += sets.at(at).two_sided
                # diagonals from two components or more: a sorted union
                merged += sum(bool(g.at(q).diag) for g, q in zip(gmaps, at)) > 1
        assert total >= 200 and diagonal >= 100 and two_sided >= 100
        assert merged >= 50


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

    def test_equal_zone_is_an_exact_duplicate(self):
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
        for with_rows in (True, False):
            passed = search.Passed(1, with_rows)
            passed.add(a.zone)
            assert a.zone in passed.exact and Dbm(a.zone.m.copy()) in passed.exact

    def test_bound_rows_follow_the_zones_after_growth(self, monkeypatch):
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
            assert passed.rows.shape[0] >= k
            want = [np.concatenate((z.m[0, 1:], z.m[1:, 0])) for z in passed.zones]
            assert np.array_equal(passed.rows[:k], np.array(want))
            assert passed.exact == set(passed.zones) and len(passed.exact) == k
