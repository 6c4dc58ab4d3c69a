"""Product construction and breadth-first zone reachability.

The discrete state of a network is the vector of component locations plus
the integer-variable valuation; the continuous part is one shared zone.
Components move either alone (edges without a channel annotation) or in
emit/receive pairs on a channel.  While any component sits in a committed
location, time may not pass there and only moves that involve a committed
component are allowed.

The search is a deterministic FIFO exploration.  A dequeued node is dropped
when an already explored zone of the same discrete state covers it: exact
zone equality always counts, and when the search is given per-component
constraint maps a zone-simulation check against the per-state constraint
set does too.

The passed list (`Passed`, one per discrete state) keeps each explored zone
once: the frozen `Dbm` the successor computation returned, which unchanged
successors share, in a list and in a set for the duplicate test.  Beside
them it keeps one contiguous array of bound rows, row 0 and column 0 of
each zone, which is all the subsumption kernel's first stage reads; only
the candidates that stage leaves standing have their full matrices read.
A frontier zone lives only in the queue until it is dequeued, and what
stays per generated node for path reconstruction is its parent, the move
that produced it and its discrete state.
"""
import time
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analysis import GMap, Status
from .dbm import (
    EMPTY,
    Dbm,
    Step,
    Triple,
    compile_step,
    encode_atoms,
    successor,
    zero_zone,
)
from .model import IntAssign, IntAtom, Network, Update
from .simulation import (
    SimPrepared,
    bound_row,
    not_simulated_batch,
    prepare,
    prepare_union,
    sim_zone_prepared,
)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class SearchNode:
    """A discrete state with one zone, and the move that produced it."""

    loc: ProductLoc
    zone: Dbm
    label: Optional[TransLabel] = None


@dataclass(frozen=True)
class PathStep:
    label: TransLabel
    loc: ProductLoc


@dataclass
class SearchStats:
    """Verdict and counters of one search.

    nodes counts dequeued nodes; pruned_exact those dropped because an equal
    zone of the same discrete state was already explored, pruned_sim those
    dropped because an explored zone simulates them.  kernel_candidates sums
    the explored zones the subsumption scans handed the batched kernel, and
    diag_calls counts the survivors sent into the diagonal recursion.
    """

    verdict: str
    nodes: int = 0
    pruned_exact: int = 0
    pruned_sim: int = 0
    max_frontier: int = 0
    kernel_candidates: int = 0
    diag_calls: int = 0
    seconds: float = 0.0
    disabled_assigns: int = 0
    path: Optional[tuple[PathStep, ...]] = None

    @property
    def pruned(self) -> int:
        return self.pruned_exact + self.pruned_sim

    def to_json(self, net: Optional[Network] = None) -> dict:
        out = {
            "verdict": self.verdict,
            "nodes": self.nodes,
            "pruned": self.pruned,
            "pruned_exact": self.pruned_exact,
            "pruned_sim": self.pruned_sim,
            "max_frontier": self.max_frontier,
            "kernel_candidates": self.kernel_candidates,
            "diag_calls": self.diag_calls,
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


def successors(n: SearchNode, compiled: CompiledNet):
    """Enabled moves from n, in the order of `CompiledNet.moves`.

    Returns (list of fresh SearchNode, number of integer-disabled firings).
    """
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
        try:
            ci = net.component_index(pname)
        except KeyError:
            raise ValueError(f"no process named {pname!r} in the network") from None
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
    # a move with no guard or update into the initial locations: the
    # invariant must already hold at the all-zero starting point
    z = successor(zero_zone(compiled.n_clocks), Step(()), invariant, do_elapse)
    if z is EMPTY:
        return None
    return SearchNode(ProductLoc(locs, ints), z)


class ProductSets:
    """The prepared constraint set of each product location.

    Every (component, location) set is prepared when the search starts,
    so a constant outside the zone arithmetic's range raises OverflowError
    here, before the first node.  A product location combines its
    components' results with `prepare_union` on first use and keeps it.
    """

    def __init__(self, gmaps: Sequence[GMap], n_clocks: int):
        self._parts = [[prepare(g, n_clocks) for g in gmap.sets] for gmap in gmaps]
        self._at: dict[tuple[int, ...], SimPrepared] = {}

    def at(self, locs: tuple[int, ...]) -> SimPrepared:
        got = self._at.get(locs)
        if got is None:
            got = self._at[locs] = prepare_union(
                [parts[q] for parts, q in zip(self._parts, locs)])
        return got


class Passed:
    """The explored zones of one discrete state, each kept once.

    zones holds the frozen `Dbm` objects themselves, no copies, and exact
    the same objects for the exact-duplicate test.  With bound rows on (the
    search with simulation pruning), rows[k] is `bound_row(zones[k])`, in
    one contiguous (capacity, 2n) array grown amortized from one row (many
    states keep one zone), so the subsumption scan hands the kernel a slice
    without restacking.
    """

    __slots__ = ("zones", "exact", "rows")

    def __init__(self, n_clocks: int, with_rows: bool):
        self.zones: list[Dbm] = []
        self.exact: set[Dbm] = set()
        self.rows = (np.empty((1, 2 * n_clocks), dtype=np.int64)
                     if with_rows else None)

    def add(self, zone: Dbm) -> None:
        self.exact.add(zone)
        if self.rows is not None:
            k = len(self.zones)
            if k == self.rows.shape[0]:
                grown = np.empty((2 * k, self.rows.shape[1]), dtype=np.int64)
                grown[:k] = self.rows
                self.rows = grown
            self.rows[k] = bound_row(zone)
        self.zones.append(zone)


def refuse_pruning(net: Network) -> None:
    """Refuse pruning, with a ValueError, on clocks shared between
    components: sets computed per component miss the others' updates."""
    if shared := net.shared_clocks():
        raise ValueError(
            "; ".join(shared) + "; simulation pruning is unsound on "
            "shared clocks, rerun with pruning disabled (--no-simulation)"
        )


def reach(
    net: Network,
    gmaps: Optional[Sequence[GMap]],
    target: str,
    timeout: Optional[float] = None,
) -> SearchStats:
    """BFS from the initial state; verdict Reachable/Unreachable/Timeout.

    Prunes by simulation exactly when gmaps (one constraint map per
    component) is given; with None only exact duplicates are dropped.
    Refuses pruning with a ValueError before the first node: on clocks
    shared between components (`refuse_pruning`), on a map that did not
    converge, and on a constant `ProductSets` cannot encode.
    """
    pairs = _resolve_target(net, target)
    compiled = CompiledNet(net)
    start = time.monotonic()
    n_clocks = compiled.n_clocks
    sets = None
    if gmaps is not None:
        refuse_pruning(net)
        for comp, g in zip(net.components, gmaps):
            if g.status is not Status.CONVERGED:
                raise ValueError(
                    f"static analysis did not converge for component "
                    f"{comp.name} ({g.status.value}); rerun with "
                    f"--no-simulation to search unpruned"
                )
        try:
            sets = ProductSets(gmaps, n_clocks)
        except OverflowError as exc:
            raise ValueError(
                f"{exc} in a constraint set; rerun with --no-simulation "
                "to search unpruned"
            ) from None
    deadline = None if timeout is None else start + timeout
    stats = SearchStats(UNREACHABLE)
    init = _initial_node(net, compiled)
    if init is None:
        stats.seconds = time.monotonic() - start
        return stats
    # per generated node, for path reconstruction only: parent id (-1 at
    # the root), the move that produced it and its discrete state
    parents = array("q", [-1])
    labels: list[Optional[TransLabel]] = [None]
    states: list[ProductLoc] = [init.loc]
    queue: deque[tuple[int, SearchNode]] = deque([(0, init)])
    passed: dict[ProductLoc, Passed] = {}

    def finish(verdict: str, path_end: Optional[int]) -> SearchStats:
        stats.verdict = verdict
        stats.seconds = time.monotonic() - start
        if path_end is not None:
            steps = []
            at = path_end
            while parents[at] >= 0:
                steps.append(PathStep(labels[at], states[at]))
                at = parents[at]
            stats.path = tuple(reversed(steps))
        return stats

    while queue:
        stats.max_frontier = max(stats.max_frontier, len(queue))
        nid, node = queue.popleft()
        loc, zone = node.loc, node.zone
        stats.nodes += 1
        if deadline is not None and stats.nodes % 128 == 0:
            if time.monotonic() > deadline:
                return finish(TIMEOUT, None)
        if any(loc.locs[c] == l for c, l in pairs):
            return finish(REACHABLE, nid)
        here = passed.get(loc)
        if here is None:
            here = passed[loc] = Passed(n_clocks, sets is not None)
        elif zone in here.exact:
            stats.pruned_exact += 1
            continue
        elif sets is not None and _covered(zone, here, sets.at(loc.locs), stats):
            stats.pruned_sim += 1
            continue
        here.add(zone)
        children, disabled = successors(node, compiled)
        stats.disabled_assigns += disabled
        for child in children:
            queue.append((len(parents), child))
            parents.append(nid)
            labels.append(child.label)
            states.append(child.loc)
    return finish(UNREACHABLE, None)


def _covered(zone: Dbm, here: Passed, prep: SimPrepared,
             stats: SearchStats) -> bool:
    """Whether an explored zone of here simulates zone.

    One batched kernel call refutes almost every candidate, diagonal
    misses included; only the survivors pay for the full diagonal
    recursion.
    """
    zones = here.zones
    stats.kernel_candidates += len(zones)
    refuted = not_simulated_batch(zone, here.rows[: len(zones)], zones, prep)
    for k in np.flatnonzero(~refuted).tolist():
        stats.diag_calls += 1
        if sim_zone_prepared(zone, zones[k], prep):
            return True
    return False


def replay(path: Sequence[PathStep], net: Network, target: Optional[str] = None) -> bool:
    """Re-fire a recorded path symbolically; True iff every step checks out."""
    compiled = CompiledNet(net)
    node = _initial_node(net, compiled)
    if node is None:
        return False
    for step in path:
        children, _ = successors(node, compiled)
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
