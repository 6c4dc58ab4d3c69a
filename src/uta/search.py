"""Product construction and breadth-first zone reachability.

The discrete state of a network is the vector of component locations plus
the integer-variable valuation; the continuous part is one shared zone.
Components move either alone (edges without a channel annotation) or in
emit/receive pairs on a channel.  While any component sits in a committed
location, time may not pass there and only moves that involve a committed
component are allowed.

The search is a deterministic FIFO exploration.  Its queue holds zones
alone, and a node is its id, its place in that order.  A dequeued node is
dropped when an already explored zone of the same discrete state covers
it: exact zone equality always counts, and when the search is given
per-component constraint maps a zone-simulation check against the
per-state constraint set does too.  The state's `Passed.admit` decides.

The passed list (`Passed`) is the one record of a discrete state: its
`ProductLoc`, whether it is a target, and each explored zone once, packed
(`Dbm.packed`: int16, int32 or int64 bytes, the narrowest that holds the
matrix, only row 0 and column 0 when they imply the rest), in a list, with
its node id.  Zones that unchanged successors share pack once, and a stored
zone's int64 matrix is freed once no queued node shares it.  Beside them it
keeps one array of bound keys (`bound_key`), which is all the subsumption
kernel's first stage reads, in both directions; only the candidates that
stage leaves standing are unpacked and read in full.  Equal zones have
equal keys, so the stored zones that could equal a new one are those that
stand both ways, and the scan compares their bytes before any kernel call;
without pruning there are no keys or node ids, and the packed zones are a
set, which serves the duplicate test.  Goal states store nothing: the
search ends at the first goal node it dequeues.  Product locations whose
components' constraint sets are equal share one prepared set
(`ProductSets`).  A stored zone that a later zone of its state simulates is
removed with the subtree below it (subtree covering, see `reach`).  A
frontier zone lives only in the queue until it is dequeued, and what stays
per generated node is its parent, the move that produced it, a reference to
its state's `Passed` and one byte that says whether it is stored or
covered.
"""
import functools
import resource
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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
    unpack,
    zero_zone,
)
from .model import IntAssign, IntAtom, Network, Update
from .simulation import (
    SimPrepared,
    bound_key,
    not_simulated_batch,
    prepare,
    prepare_union,
    sim_zone_prepared,
)


class ProductLoc(NamedTuple):
    """Location vector plus integer valuation; the discrete search state."""

    locs: tuple[int, ...]
    ints: tuple[int, ...]


class TransLabel(NamedTuple):
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


class SearchNode(NamedTuple):
    """A discrete state with one zone, and the move that produced it."""

    loc: ProductLoc
    zone: Dbm
    label: Optional[TransLabel] = None


class PathStep(NamedTuple):
    label: TransLabel
    loc: ProductLoc


@dataclass
class SearchStats:
    """Verdict and counters of one search.

    nodes counts dequeued nodes; pruned_exact those dropped because an equal
    zone of the same discrete state was already explored, pruned_sim those
    dropped because an explored zone simulates them, and pruned_subtree
    those dropped because they lie below a zone that subtree covering
    removed.  kernel_candidates counts the explored zones that the compare
    of keys left standing and the scans handed the kernel, in both
    directions; forward, the count stops at the first simulator.
    diag_calls counts the kernel's survivors sent into the diagonal
    recursion.  stored counts the zones held in the passed lists
    at the verdict, zone_bytes the bytes of the distinct packed zones
    (`Dbm.packed`) behind them, and peak_rss_mb is the process's peak
    resident set (`ru_maxrss`) read then; all three are read once, at the
    verdict.
    """

    verdict: str
    nodes: int = 0
    pruned_exact: int = 0
    pruned_sim: int = 0
    pruned_subtree: int = 0
    max_frontier: int = 0
    kernel_candidates: int = 0
    diag_calls: int = 0
    stored: int = 0
    zone_bytes: int = 0
    peak_rss_mb: float = 0.0
    seconds: float = 0.0
    disabled_assigns: int = 0
    path: Optional[tuple[PathStep, ...]] = None

    @property
    def pruned(self) -> int:
        return self.pruned_exact + self.pruned_sim + self.pruned_subtree

    def to_json(self, net: Optional[Network] = None) -> dict:
        out = {
            "verdict": self.verdict,
            "nodes": self.nodes,
            "pruned": self.pruned,
            "pruned_exact": self.pruned_exact,
            "pruned_sim": self.pruned_sim,
            "pruned_subtree": self.pruned_subtree,
            "max_frontier": self.max_frontier,
            "kernel_candidates": self.kernel_candidates,
            "diag_calls": self.diag_calls,
            "stored": self.stored,
            "zone_bytes": self.zone_bytes,
            "disabled_assigns": self.disabled_assigns,
            "peak_rss_mb": round(self.peak_rss_mb, 1),
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


class Move(NamedTuple):
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
    Each component location's invariant is encoded once (a `false` one as a
    never-satisfied triple); `target` concatenates those of a location vector
    once and hands every firing into that vector the same pair.
    """

    def __init__(self, net: Network):
        self.net = net
        self.n_clocks = len(net.clocks)
        self.bounds = [(v.lo, v.hi) for v in net.int_vars]
        channel = {ch: k for k, ch in enumerate(net.channels)}
        # per component, per location: internal edge indices, and per
        # channel index the (component, edge) parts that emit and receive
        self._internal = []
        self._sync = []
        for c, comp in enumerate(net.components):
            internal = [[] for _ in comp.locations]
            sync = [{} for _ in comp.locations]
            for ei, e in enumerate(comp.edges):
                if e.sync is None:
                    internal[e.src].append(ei)
                elif e.sync[0] in channel:
                    pair = sync[e.src].setdefault(channel[e.sync[0]], ([], []))
                    pair[e.sync[1] == "?"].append((c, ei))
            self._internal.append(internal)
            self._sync.append(sync)
        self._invariant = [[encode_atoms(loc.invariant.clock_atoms)
                            for loc in comp.locations] for comp in net.components]
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
            invariant = tuple(t for c, l in enumerate(locs)
                              for t in self._invariant[c][l])
            got = self._target[locs] = (invariant, not self.committed(locs))
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
        # per channel, its emitters and receivers in component order
        chans: dict[int, tuple[list, list]] = {}
        for c, l in enumerate(locs):
            for ch, (emit, receive) in self._sync[c][l].items():
                got = chans.get(ch)
                if got is None:
                    chans[ch] = (list(emit), list(receive))
                else:
                    got[0].extend(emit)
                    got[1].extend(receive)
        for ch in sorted(chans):
            emitters, receivers = chans[ch]
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
    qualified form process.location, split at the first dot.
    """
    comps, lname = range(len(net.components)), target
    if "." in target:
        pname, lname = target.split(".", 1)
        try:
            comps = (net.component_index(pname),)
        except KeyError:
            raise ValueError(f"no process named {pname!r} in the network") from None
    pairs = frozenset((ci, li) for ci in comps
                      for li, loc in enumerate(net.components[ci].locations)
                      if loc.name == lname)
    if not pairs:
        raise ValueError(f"no location named {target!r} in the network")
    return pairs


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
    here, before the first node, and equal prepared sets (same u_thr, l_thr
    and diags) are interned into one object.  A product location combines
    its components' sets with `prepare_union` on first use; the union is
    kept per set of distinct parts, so product locations whose components
    sit in locations with equal sets share one prepared object.
    """

    def __init__(self, gmaps: Sequence[GMap], n_clocks: int):
        interned: dict[tuple, SimPrepared] = {}

        def intern(prep: SimPrepared) -> SimPrepared:
            key = (prep.u_thr.tobytes(), prep.l_thr.tobytes(), prep.diags)
            return interned.setdefault(key, prep)

        self._parts = [[intern(prepare(g, n_clocks)) for g in gmap.sets]
                       for gmap in gmaps]
        # SimPrepared hashes by identity, which interning makes equality
        self._union: dict[frozenset, SimPrepared] = {}

    def at(self, locs: tuple[int, ...]) -> SimPrepared:
        parts = frozenset(parts[q] for parts, q in zip(self._parts, locs))
        got = self._union.get(parts)
        if got is None:
            got = self._union[parts] = prepare_union(list(parts))
        return got


class Passed:
    """The record of one discrete state loc: whether a component sits in a
    target location there (goal), and its explored zones, each kept once;
    `admit` drops a dequeued zone that they cover or stores it.

    zones holds each stored zone packed (`Dbm.packed`).  With simulation
    pruning it is a list and ids their node ids; a stored zone's int64
    matrix is freed once no queued node shares it, and `zone(k)` unpacks
    zone k for the few candidates that the subsumption scan reads in full.
    prep is then the state's prepared constraint set and keys[:, k] is
    `bound_key` of zone k, in one (w, capacity) array of prep's key_dtype
    grown by half from one column (many states keep one zone), so the scan
    compares a slice against a dequeued zone's key, and finds an equal zone
    among those with an equal key (`_scan`).  Without pruning, zones is a
    set, which serves the duplicate test, and there are no ids or keys.  A
    goal state, where the search stops, gets no prep and no containers.
    """

    __slots__ = ("loc", "goal", "prep", "zones", "ids", "keys")

    def __init__(self, loc: ProductLoc, goal: bool, prep: Optional[SimPrepared]):
        self.loc, self.goal, self.prep = loc, goal, prep
        self.zones: list[bytes] | set[bytes] = (
            () if goal else set() if prep is None else [])
        self.ids = array("q") if prep is not None else ()
        self.keys = (None if prep is None
                     else np.empty((len(prep.key_idx), 1), dtype=prep.key_dtype))

    def zone(self, k: int) -> Dbm:
        return Dbm(unpack(self.zones[k]))

    def admit(self, zone: Dbm, nid: int, stats: SearchStats) -> Optional[list[int]]:
        """None when an explored zone of this state covers zone, node nid's,
        with the prune counted in stats; else zone is stored, and the node
        ids of the stored zones that it simulates (none without pruning)."""
        if self.prep is None:
            if zone.packed in self.zones:
                stats.pruned_exact += 1
                return None
            self.zones.add(zone.packed)
            return []
        key = bound_key(zone, self.prep)
        simulated = _scan(zone, key, self, stats) if self.zones else []
        if simulated is not None:
            self.add(zone, nid, key)
        return simulated

    def add(self, zone: Dbm, nid: int, key: np.ndarray) -> None:
        """Store zone, node nid's, with its bound key (pruning only)."""
        k = len(self.zones)
        if k == self.keys.shape[1]:
            grown = np.empty((self.keys.shape[0], k + k // 2 + 1),
                             dtype=self.keys.dtype)
            grown[:, :k] = self.keys
            self.keys = grown
        self.keys[:, k] = key
        self.zones.append(zone.packed)
        self.ids.append(nid)

    def drop(self, dead: set[int]) -> None:
        """Remove the zones whose node ids are in dead (pruning only)."""
        keep = [k for k, nid in enumerate(self.ids) if nid not in dead]
        self.keys[:, :len(keep)] = self.keys[:, keep]
        self.zones = [self.zones[k] for k in keep]
        self.ids = array("q", (self.ids[k] for k in keep))


def refuse_pruning(net: Network) -> None:
    """Refuse pruning, with a ValueError, on clocks shared between
    components: sets computed per component miss the others' updates."""
    if shared := net.shared_clocks():
        raise ValueError(
            "; ".join(shared) + "; simulation pruning is unsound on "
            "shared clocks, rerun with pruning disabled (--no-simulation)"
        )


# the mark of a generated node that is stored in its state's Passed, or
# that lies below a covered zone; 0 marks every other node (queued, or
# dropped when dequeued)
_STORED, _COVERED = 1, 2


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

    The queue holds zones alone: a node is its id, its place in the FIFO
    order, by which its parent, move and state are kept, and its state's
    `Passed.admit` drops or stores its zone when it is dequeued.

    With pruning, a zone is stored only when no stored zone of its state
    simulates it, and storing it covers subtrees (Herbreteau & Tran,
    FORMATS 2015): each stored zone k of the state that the new zone
    simulates, unless k's node is an ancestor of the new one, is removed
    from its `Passed` together with every stored zone below it, and the
    queued nodes below it are dropped when dequeued (pruned_subtree),
    unless they reach the target.  The verdict stays exact.  Zones are
    exact sets of reachable valuations, so a Reachable verdict stands.
    G-simulation is a preorder that successor steps preserve, so whatever
    k's subtree reaches, or what a node pruned by a zone of that subtree
    reaches, is simulated by what the new zone's subtree reaches, and that
    subtree is explored or covered in turn by a zone that is.  This needs
    the removed zones gone from `Passed`: a dead zone D left there could
    prune its own match D' from the new zone's subtree, and neither D's
    subtree nor D''s would then be explored.
    """
    pairs = _resolve_target(net, target)
    compiled = CompiledNet(net)
    start = time.monotonic()
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
            sets = ProductSets(gmaps, compiled.n_clocks)
        except OverflowError as exc:
            raise ValueError(
                f"{exc} in a constraint set; rerun with --no-simulation "
                "to search unpruned"
            ) from None
    deadline = None if timeout is None else start + timeout
    stats = SearchStats(UNREACHABLE)
    passed: dict[ProductLoc, Passed] = {}

    def record(loc: ProductLoc) -> Passed:
        """loc's Passed, made when the state is first generated."""
        here = passed.get(loc)
        if here is None:
            goal = any(loc.locs[c] == l for c, l in pairs)
            here = passed[loc] = Passed(
                loc, goal, None if sets is None or goal else sets.at(loc.locs))
        return here

    def finish(verdict: str, path_end: Optional[int]) -> SearchStats:
        stats.verdict = verdict
        stats.seconds = time.monotonic() - start
        stats.stored = sum(len(here.zones) for here in passed.values())
        # zones that unchanged successors share are one bytes object
        stats.zone_bytes = sum({id(p): len(p) for here in passed.values()
                                for p in here.zones}.values())
        stats.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if path_end is not None:
            steps = []
            at = path_end
            while parents[at] >= 0:
                steps.append(PathStep(labels[at], states[at].loc))
                at = parents[at]
            stats.path = tuple(reversed(steps))
        return stats

    init = _initial_node(net, compiled)
    if init is None:
        return finish(UNREACHABLE, None)
    # per generated node: parent id (-1 at the root; non-decreasing, as
    # FIFO expands nodes in id order), the move that produced it, its
    # state's Passed and its mark
    parents = array("q", [-1])
    labels: list[Optional[TransLabel]] = [None]
    states: list[Passed] = [record(init.loc)]
    marks = bytearray(1)
    queue: deque[Dbm] = deque([init.zone])

    def cover(k: int, nid: int) -> None:
        """Remove k's subtree, unless k is an ancestor of nid."""
        at = nid
        while at > k:
            at = parents[at]
        if at == k:
            return
        dead: dict[Passed, set[int]] = {}
        todo = [k]
        while todo:
            c = todo.pop()
            if marks[c] == _STORED:
                dead.setdefault(states[c], set()).add(c)
            marks[c] = _COVERED
            lo = bisect_left(parents, c, c + 1)
            todo.extend(x for x in range(lo, bisect_right(parents, c, lo))
                        if marks[x] != _COVERED)
        for here, ids in dead.items():
            here.drop(ids)

    while queue:
        stats.max_frontier = max(stats.max_frontier, len(queue))
        nid, zone = stats.nodes, queue.popleft()
        here = states[nid]
        stats.nodes += 1
        if deadline is not None and stats.nodes % 128 == 0:
            if time.monotonic() > deadline:
                return finish(TIMEOUT, None)
        if here.goal:
            return finish(REACHABLE, nid)
        if marks[nid] == _COVERED:
            stats.pruned_subtree += 1
            continue
        simulated = here.admit(zone, nid, stats)
        if simulated is None:
            continue
        marks[nid] = _STORED
        for k in simulated:
            if marks[k] == _STORED:
                cover(k, nid)
        children, disabled = successors(SearchNode(here.loc, zone), compiled)
        stats.disabled_assigns += disabled
        for child in children:
            queue.append(child.zone)
            parents.append(nid)
            labels.append(child.label)
            states.append(record(child.loc))
        marks.extend(bytes(len(children)))
    return finish(UNREACHABLE, None)


def _scan(zone: Dbm, key: np.ndarray, here: Passed,
          stats: SearchStats) -> Optional[list[int]]:
    """None when a stored zone of here covers zone, with the prune counted
    in stats: pruned_exact when here stores zone itself, pruned_sim when a
    stored zone simulates it.  Else the node ids of the stored zones that
    zone simulates.

    One subtraction of keys, d = key(zp) - key(zone) per stored zp, decides
    the kernel's key compare both ways: zp may simulate zone only where d
    is nowhere negative, and zone may simulate zp only where d is nowhere
    positive (without keys, w = 0, every zone stands both ways).  An equal
    zone has an equal key, so it stands both ways; those zones' bytes are
    compared first.  Each zone left standing then goes to `_simulates`,
    forward until the first simulator, and is unpacked once for both.
    """
    keys, prep = here.keys, here.prep
    d = keys[:, :len(here.zones)] - key[:, None]
    forward = (d.min(axis=0, initial=0) >= 0).nonzero()[0].tolist()
    reverse = (d.max(axis=0, initial=0) <= 0).nonzero()[0].tolist()
    if not forward and not reverse:
        return []
    if forward and reverse and any(here.zones[k] == zone.packed
                                   for k in set(forward).intersection(reverse)):
        stats.pruned_exact += 1
        return None
    stored = functools.cache(here.zone)
    for k in forward:
        if _simulates(stored(k), keys[:, k], zone, key, prep, stats):
            stats.pruned_sim += 1
            return None
    return [here.ids[k] for k in reverse
            if _simulates(zone, key, stored(k), keys[:, k], prep, stats)]


def _simulates(zp: Dbm, kp: np.ndarray, z: Dbm, kz: np.ndarray,
               prep: SimPrepared, stats: SearchStats) -> bool:
    """Whether zp, with key kp, simulates z, with key kz: the kernel on the
    pair, then the diagonal recursion if the kernel leaves zp standing."""
    stats.kernel_candidates += 1
    if not_simulated_batch(z, kp[None], (zp,), prep, kz)[0]:
        return False
    stats.diag_calls += 1
    return sim_zone_prepared(z, zp, prep)


def replay(path: Sequence[PathStep], net: Network, target: Optional[str] = None) -> bool:
    """Re-fire a recorded path symbolically; True iff every step checks out."""
    compiled = CompiledNet(net)
    node = _initial_node(net, compiled)
    if node is None:
        return False
    for step in path:
        children, _ = successors(node, compiled)
        node = next((child for child in children
                     if child.label == step.label and child.loc == step.loc), None)
        if node is None:
            return False
    return target is None or any(node.loc.locs[c] == l
                                 for c, l in _resolve_target(net, target))
