"""Product construction and breadth-first zone reachability.

The discrete state of a network is the vector of component locations plus
the integer-variable valuation; the continuous part is one shared zone.
Components move either alone (edges without a channel annotation) or in
emit/receive pairs on a channel.  While any component sits in a committed
location, time may not pass there and only moves that involve a committed
component are allowed.

The search is a deterministic FIFO exploration.  A dequeued node is dropped
when an already visited node with the same discrete state covers it: exact
zone equality always counts, and with pruning enabled a zone-simulation
check against the per-state constraint set does too.
"""
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analysis import GSet, GMap, Status
from .dbm import (
    EMPTY,
    Dbm,
    Step,
    Triple,
    compile_step,
    constrain,
    elapse,
    encode_atoms,
    successor,
    zero_zone,
)
from .model import IntAssign, IntAtom, Network, Update
from .simulation import (
    SimPrepared,
    not_simulated_batch,
    prepare,
    sim_zone_prepared,
)


@dataclass(frozen=True)
class ProductLoc:
    """Location vector plus integer valuation; the discrete search state."""

    locs: tuple[int, ...]
    ints: tuple[int, ...]


@dataclass(frozen=True)
class TransLabel:
    """One fired move: an internal edge, or an emit/receive pair."""

    edges: tuple[tuple[int, int], ...]  # (component index, edge index)

    def describe(self, net: Network) -> str:
        parts = []
        for c, ei in self.edges:
            comp = net.components[c]
            e = comp.edges[ei]
            arrow = f"{comp.locations[e.src].name}->{comp.locations[e.dst].name}"
            tag = f"{e.sync[0]}{e.sync[1]} " if e.sync else ""
            parts.append(f"{comp.name}: {tag}{arrow}")
        return ", ".join(parts)


@dataclass
class SearchNode:
    loc: ProductLoc
    zone: Dbm
    parent: Optional[int] = None
    label: Optional[TransLabel] = None
    status: str = "fresh"
    subsumer: Optional[int] = None


@dataclass(frozen=True)
class PathStep:
    label: TransLabel
    loc: ProductLoc


@dataclass
class SearchStats:
    verdict: str
    nodes: int
    pruned: int
    max_frontier: int
    seconds: float
    disabled_assigns: int = 0
    path: Optional[tuple[PathStep, ...]] = None

    def to_json(self, net: Optional[Network] = None) -> dict:
        out = {
            "verdict": self.verdict,
            "nodes": self.nodes,
            "pruned": self.pruned,
            "max_frontier": self.max_frontier,
            "disabled_assigns": self.disabled_assigns,
            "seconds": round(self.seconds, 4),
        }
        if self.path is not None and net is not None:
            out["path"] = [
                {
                    "fire": step.label.describe(net),
                    "state": "|".join(
                        net.components[c].locations[l].name
                        for c, l in enumerate(step.loc.locs)
                    ),
                }
                for step in self.path
            ]
        return out


REACHABLE = "Reachable"
UNREACHABLE = "Unreachable"
TIMEOUT = "Timeout"


def product_gset(gmaps: Sequence[GMap], loc: ProductLoc) -> GSet:
    """Union of the per-component constraint sets at loc (integers ignored)."""
    nond = frozenset().union(*(g.at(q).nond for g, q in zip(gmaps, loc.locs)))
    diag = frozenset().union(*(g.at(q).diag for g, q in zip(gmaps, loc.locs)))
    return GSet(nond, diag)


@dataclass(frozen=True, slots=True)
class Move:
    """One candidate firing, compiled once from its edges (emitter first)."""

    label: TransLabel
    int_atoms: tuple[IntAtom, ...]
    int_assigns: tuple[IntAssign, ...]
    dsts: tuple[tuple[int, int], ...]  # (component index, destination)
    step: Step


# (move, destination location vector, its invariant, whether time elapses
# there): one entry of a product location's move list
Firing = tuple[Move, tuple[int, ...], tuple[Triple, ...], bool]


class CompiledNet:
    """The move structure of a network, compiled once per network.

    Per product location, the ordered list of moves that may fire there is
    built on first use and kept: internal edges component by component,
    then for each channel in declaration order every emitter with every
    receiver of another component.  While a component sits in a committed
    location, moves that involve no committed component are left out.
    """

    def __init__(self, net: Network):
        self.net = net
        self.n_clocks = len(net.clocks)
        self.bounds = [(v.lo, v.hi) for v in net.int_vars]
        channel = {ch: k for k, ch in enumerate(net.channels)}
        # per component, per location: internal edge indices, and per
        # channel index the (emitting, receiving) edge indices
        self._internal = []
        self._sync = []
        for comp in net.components:
            internal = [[] for _ in comp.locations]
            sync = [{} for _ in comp.locations]
            for ei, e in enumerate(comp.edges):
                if e.sync is None:
                    internal[e.src].append(ei)
                elif e.sync[0] in channel:
                    pair = sync[e.src].setdefault(channel[e.sync[0]], ([], []))
                    pair[e.sync[1] == "?"].append(ei)
            self._internal.append(internal)
            self._sync.append(sync)
        self.shared_clocks = net.shared_clocks()
        self._moves: dict[tuple[int, ...], tuple[Firing, ...]] = {}
        self._move: dict[tuple[tuple[int, int], ...], Move] = {}
        self._target: dict[tuple[int, ...], tuple[tuple[Triple, ...], bool]] = {}

    def committed(self, locs: tuple[int, ...]) -> bool:
        return any(
            self.net.components[c].locations[l].committed
            for c, l in enumerate(locs)
        )

    def target(self, locs: tuple[int, ...]) -> tuple[tuple[Triple, ...], bool]:
        """The encoded invariant of locs, and whether time may pass there."""
        got = self._target.get(locs)
        if got is None:
            atoms = []
            for c, l in enumerate(locs):
                atoms.extend(self.net.components[c].locations[l].invariant.clock_atoms)
            got = (encode_atoms(atoms), not self.committed(locs))
            self._target[locs] = got
        return got

    def _compile(self, parts: tuple[tuple[int, int], ...]) -> Move:
        got = self._move.get(parts)
        if got is None:
            edges = [self.net.components[c].edges[ei] for c, ei in parts]
            update: dict = {}
            for e in edges:
                update.update(e.update.entries)  # the receiver's entry wins
            got = Move(
                TransLabel(parts),
                tuple(a for e in edges for a in e.guard.int_atoms),
                tuple(a for e in edges for a in e.int_assigns),
                tuple((c, e.dst) for (c, _), e in zip(parts, edges)),
                compile_step(
                    [phi for e in edges for phi in e.guard.clock_atoms],
                    Update.of(update),
                    self.n_clocks,
                ),
            )
            self._move[parts] = got
        return got

    def moves(self, locs: tuple[int, ...]) -> tuple[Firing, ...]:
        got = self._moves.get(locs)
        if got is None:
            got = tuple(self._firing(locs, parts) for parts in self._candidates(locs))
            self._moves[locs] = got
        return got

    def _candidates(self, locs: tuple[int, ...]):
        comps = self.net.components
        committed_now = self.committed(locs)

        def allowed(parts):
            return not committed_now or any(
                comps[c].locations[locs[c]].committed for c, _ in parts
            )

        for c, l in enumerate(locs):
            for ei in self._internal[c][l]:
                if allowed(((c, ei),)):
                    yield ((c, ei),)
        syncs = [self._sync[c][l] for c, l in enumerate(locs)]
        for ch in sorted(set().union(*syncs)):
            emitters = [(c, ei) for c, s in enumerate(syncs) if ch in s
                        for ei in s[ch][0]]
            receivers = [(c, ei) for c, s in enumerate(syncs) if ch in s
                         for ei in s[ch][1]]
            for c1, e1 in emitters:
                for c2, e2 in receivers:
                    if c1 != c2 and allowed(((c1, e1), (c2, e2))):
                        yield ((c1, e1), (c2, e2))

    def _firing(self, locs: tuple[int, ...], parts) -> Firing:
        move = self._compile(parts)
        new_locs = list(locs)
        for c, dst in move.dsts:
            new_locs[c] = dst
        new_locs = tuple(new_locs)
        return (move, new_locs) + self.target(new_locs)


def _apply_assigns(
    assigns, ints: tuple[int, ...], bounds
) -> Optional[tuple[int, ...]]:
    vals = list(ints)
    for a in assigns:
        v = a.value(vals)
        lo, hi = bounds[a.var]
        if not lo <= v <= hi:
            return None
        vals[a.var] = v
    return tuple(vals)


def successors(n: SearchNode, net: Network,
               compiled: Optional[CompiledNet] = None):
    """Enabled moves from n, in the order of `CompiledNet.moves`.

    Returns (list of fresh SearchNode, number of integer-disabled firings).
    """
    compiled = compiled or CompiledNet(net)
    ints = n.loc.ints
    disabled = 0
    out: list[SearchNode] = []
    for move, new_locs, invariant, do_elapse in compiled.moves(n.loc.locs):
        if move.int_atoms and not all(a.holds(ints) for a in move.int_atoms):
            continue
        new_ints = ints
        if move.int_assigns:
            new_ints = _apply_assigns(move.int_assigns, ints, compiled.bounds)
            if new_ints is None:
                disabled += 1
                continue
        zone = successor(n.zone, move.step, invariant, do_elapse)
        if zone is EMPTY:
            continue
        out.append(
            SearchNode(ProductLoc(new_locs, new_ints), zone, label=move.label)
        )
    return out, disabled


def _resolve_target(net: Network, target: str) -> frozenset:
    """Pairs (component, location) whose name matches target.

    Accepts a bare location name (matched in every component) or the
    qualified form process.location.
    """
    pairs = set()
    if "." in target:
        pname, lname = target.split(".", 1)
        ci = net.component_index(pname)
        for li, loc in enumerate(net.components[ci].locations):
            if loc.name == lname:
                pairs.add((ci, li))
    else:
        for ci, comp in enumerate(net.components):
            for li, loc in enumerate(comp.locations):
                if loc.name == target:
                    pairs.add((ci, li))
    if not pairs:
        raise ValueError(f"no location named {target!r} in the network")
    return frozenset(pairs)


def _initial_node(net: Network, compiled: CompiledNet) -> Optional[SearchNode]:
    locs = tuple(c.initial for c in net.components)
    ints = net.int_initials()
    invariant, do_elapse = compiled.target(locs)
    # the invariant must already hold at the all-zero starting point
    z = constrain(zero_zone(compiled.n_clocks), invariant)
    if z is not EMPTY and do_elapse:
        z = constrain(elapse(z), invariant)
    if z is EMPTY:
        return None
    return SearchNode(ProductLoc(locs, ints), z)


def reach(
    net: Network,
    gmaps: Optional[Sequence[GMap]],
    target: str,
    use_simulation: bool = True,
    timeout: Optional[float] = None,
) -> SearchStats:
    """BFS from the initial state; verdict Reachable/Unreachable/Timeout."""
    pairs = _resolve_target(net, target)
    compiled = CompiledNet(net)
    if use_simulation:
        if gmaps is None:
            raise ValueError("pruning requires per-component constraint maps")
        if compiled.shared_clocks:
            # the constraint sets are computed per component, so they miss
            # what one component's updates do to another's constraints
            raise ValueError(
                "; ".join(compiled.shared_clocks) + "; simulation pruning is "
                "unsound on shared clocks, rerun with pruning disabled "
                "(--no-simulation)"
            )
        for g in gmaps:
            if g.status is not Status.CONVERGED:
                raise ValueError(
                    f"constraint analysis did not converge ({g.status.value}); "
                    "rerun with pruning disabled"
                )
    start = time.monotonic()
    deadline = None if timeout is None else start + timeout
    prep_cache: dict[tuple[int, ...], SimPrepared] = {}

    def prep_for(locs: tuple[int, ...]) -> SimPrepared:
        got = prep_cache.get(locs)
        if got is None:
            got = prepare(product_gset(gmaps, ProductLoc(locs, ())),
                          compiled.n_clocks)
            prep_cache[locs] = got
        return got

    nodes: list[SearchNode] = []
    init = _initial_node(net, compiled)
    stats = SearchStats(UNREACHABLE, 0, 0, 0, 0.0)
    if init is None:
        stats.seconds = time.monotonic() - start
        return stats
    nodes.append(init)
    queue = deque([0])
    visited: dict[ProductLoc, list[int]] = {}
    # per-location stack of explored zone matrices, grown amortized, so the
    # subsumption scan feeds the batched kernel without restacking
    mats: dict[ProductLoc, np.ndarray] = {}
    seen_exact: set = set()

    def finish(verdict: str, path_end: Optional[int]) -> SearchStats:
        stats.verdict = verdict
        stats.seconds = time.monotonic() - start
        if path_end is not None:
            steps = []
            at = path_end
            while nodes[at].parent is not None or nodes[at].label is not None:
                steps.append(PathStep(nodes[at].label, nodes[at].loc))
                at = nodes[at].parent
            stats.path = tuple(reversed(steps))
        return stats

    while queue:
        stats.max_frontier = max(stats.max_frontier, len(queue))
        nid = queue.popleft()
        node = nodes[nid]
        stats.nodes += 1
        if deadline is not None and stats.nodes % 128 == 0:
            if time.monotonic() > deadline:
                return finish(TIMEOUT, None)
        if any(node.loc.locs[c] == l for c, l in pairs):
            node.status = "explored"
            return finish(REACHABLE, nid)
        key = (node.loc, node.zone)
        if key in seen_exact:
            node.status = "pruned"
            stats.pruned += 1
            continue
        covered = None
        if use_simulation:
            vids = visited.get(node.loc)
            if vids:
                prep = prep_for(node.loc.locs)
                # one batched kernel call refutes almost every candidate;
                # only the survivors pay for the full diagonal recursion
                refuted = not_simulated_batch(
                    node.zone, mats[node.loc][: len(vids)], prep
                )
                for k in np.flatnonzero(~refuted).tolist():
                    vid = vids[k]
                    if sim_zone_prepared(node.zone, nodes[vid].zone, prep):
                        covered = vid
                        break
        if covered is not None:
            node.status = "pruned"
            node.subsumer = covered
            stats.pruned += 1
            continue
        node.status = "explored"
        seen_exact.add(key)
        lst = visited.setdefault(node.loc, [])
        if use_simulation:
            arr = mats.get(node.loc)
            if arr is None or len(lst) == arr.shape[0]:
                side = node.zone.m.shape[0]
                cap = 8 if arr is None else 2 * arr.shape[0]
                grown = np.empty((cap, side, side), dtype=np.int64)
                if arr is not None:
                    grown[: arr.shape[0]] = arr
                mats[node.loc] = grown
                arr = grown
            arr[len(lst)] = node.zone.m
        lst.append(nid)
        children, disabled = successors(node, net, compiled)
        stats.disabled_assigns += disabled
        for child in children:
            child.parent = nid
            nodes.append(child)
            queue.append(len(nodes) - 1)
    return finish(UNREACHABLE, None)


def replay(path: Sequence[PathStep], net: Network, target: Optional[str] = None) -> bool:
    """Re-fire a recorded path symbolically; True iff every step checks out."""
    compiled = CompiledNet(net)
    node = _initial_node(net, compiled)
    if node is None:
        return False
    for step in path:
        children, _ = successors(node, net, compiled)
        node = None
        for child in children:
            if child.label == step.label and child.loc == step.loc:
                node = child
                break
        if node is None or node.zone is EMPTY:
            return False
    if target is not None:
        pairs = _resolve_target(net, target)
        if not any(node.loc.locs[c] == l for c, l in pairs):
            return False
    return True
