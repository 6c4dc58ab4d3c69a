"""Per-location constraint-set computation for one automaton component.

A location's set collects the atomic constraints that matter for simulation
at that location: guard atoms of outgoing edges, preimages of clock
nonnegativity under updates, invariant atoms, and backward propagations of
the targets' constraints.  The propagation applies guard-aware cuts to the
preimage, so the fixed point converges on many automata where the plain
preimage grows forever.  It is compiled once per edge (`Propagation`):
the update's source table and the guard context folded into per-clock and
per-pair bound tables, applied to atoms that are plain tuples.  The
remaining non-convergence becomes an explicit divergence verdict with a
replayable witness: a propagated constant above the bound N proves it.
Rather than sweeping until some constant gets there, the analysis stops
at the first new atom that repeats the location and shape of an ancestor
with a smaller constant, and pumps that growth cycle past N, as deep as
the sweep budget would have reached.  Pumping shifts the cycle's steps
instead of propagating them again: above max(M, L) the propagation treats
a constant c and c + delta alike, so each lap is the previous one with
every constant grown by delta.
"""
from __future__ import annotations

import enum
import operator
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .model import (
    BOTTOM,
    INT64_MAX,
    STRICT,
    TOP,
    WEAK,
    AtomicConstraint,
    Automaton,
    Kind,
    Update,
    atom_affixes,
    constant_error,
)


class Status(enum.Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    BUDGET_EXHAUSTED = "budget_exhausted"


# --------------------------------------------------------------------------
# Backward propagation through one edge


def nonneg_source(x: int) -> AtomicConstraint:
    """The implicit 0 <= x constraint, kept un-normalized for preimages."""
    return AtomicConstraint(Kind.LOWER, x, None, WEAK, 0)


def edge_context(a: Automaton, edge_idx: int) -> tuple[AtomicConstraint, ...]:
    """Constraints known to hold when the edge fires: guard plus source invariant."""
    e = a.edges[edge_idx]
    return e.guard.clock_atoms + a.locations[e.src].invariant.clock_atoms


# above every atom constant: the table entry of a clock, or a pair, that
# the context does not bound
_UNBOUNDED = INT64_MAX + 1
_new = tuple.__new__
_UPPER, _LOWER = Kind.UPPER, Kind.LOWER
_UPPER_DIAG, _LOWER_DIAG = Kind.UPPER_DIAG, Kind.LOWER_DIAG
_TRIVIAL, _DIAGONAL = (Kind.TOP, Kind.BOTTOM), (_UPPER_DIAG, _LOWER_DIAG)


class Propagation:
    """Backward propagation through one edge: the preimage of an atom under
    the edge's update, then the cut by the edge's guard context, compiled
    once per edge.

    The preimage: through ``x_i := x_si + oi`` (`Update.source`) an atom's
    entry ``x_i - x_j < c`` becomes ``x_si - x_sj < c - oi + oj``, a
    zero-constant difference in the atom's orientation, normalized as
    `from_entry` does.  The cut: the guard holds for both valuations of any
    simulation pair crossing the edge, which makes three families of
    propagated constraints redundant: an upper bound on a clock that the
    context also bounds above; a lower bound d < x or d <= x that some
    context atom x < c or x <= c with c < d already forces (the weak
    ``c <= x`` for the least such c suffices instead); and a difference
    bound whose constant lies outside what the context permits for that
    clock difference.  The context folds into the least upper constant per
    clock and, per ordered clock pair, the interval of constants that
    survive: a difference x - y with constant d stays when lo <= d <= hi,
    where hi is the least constant of an upper bound on x or on x - y and
    lo the greatest of a lower bound on x - y.  TOP and BOTTOM come back
    as themselves; the range check of `from_entry` runs before the cut.
    """

    __slots__ = ("source", "upper", "diag_lo", "diag_hi", "n_clocks")

    def __init__(self, context: Sequence[AtomicConstraint], update: Update,
                 n_clocks: int):
        n = n_clocks
        # per DBM index, the (source, offset) pair of `Update.source`
        self.source = tuple(map(update.source, range(n + 1)))
        upper = [_UNBOUNDED] * n
        diagonals = []
        for g in context:
            if g.kind is _UPPER:
                if g.constant < upper[g.x]:
                    upper[g.x] = g.constant
            elif g.kind is _UPPER_DIAG or g.kind is _LOWER_DIAG:
                diagonals.append(g)
        # indexed by x * n + y: an upper bound on x bounds every x - y
        hi = [u for u in upper for _ in range(n)]
        lo = [-1] * (n * n)
        for kind, x, y, _, c in diagonals:
            k = x * n + y
            if kind is _UPPER_DIAG:
                if c < hi[k]:
                    hi[k] = c
            elif c > lo[k]:
                lo[k] = c
        self.upper, self.diag_hi, self.diag_lo = upper, hi, lo
        self.n_clocks = n

    def __call__(self, phi: AtomicConstraint) -> AtomicConstraint:
        kind, x, y, s, c = phi
        if kind is _UPPER:
            i, j = x + 1, 0
        elif kind is _LOWER:
            i, j, c = 0, x + 1, -c
        elif kind is _UPPER_DIAG:
            i, j = x + 1, y + 1
        elif kind is _LOWER_DIAG:
            i, j, c = y + 1, x + 1, -c
        else:
            return TOP if kind is Kind.TOP else BOTTOM
        si, oi = self.source[i]
        sj, oj = self.source[j]
        c = c - oi + oj
        if si == sj:
            # 0 < c or 0 <= c
            return TOP if c > 0 or (c == 0 and s is WEAK) else BOTTOM
        if sj == 0:
            # x < c: cut when the context bounds x above
            if c < 0 or (c == 0 and s is STRICT):
                return BOTTOM
            if c > INT64_MAX:
                raise constant_error(c)
            x = si - 1
            if self.upper[x] != _UNBOUNDED:
                return TOP
            return _new(AtomicConstraint, (_UPPER, x, None, s, c))
        if si == 0:
            # -c < x: weakened to the context's least upper constant below it
            c = -c
            if c < 0 or (c == 0 and s is WEAK):
                return TOP
            if c > INT64_MAX:
                raise constant_error(c)
            x = sj - 1
            least = self.upper[x]
            if least < c:
                return TOP if least == 0 else _new(
                    AtomicConstraint, (_LOWER, x, None, WEAK, least))
            return _new(AtomicConstraint, (_LOWER, x, None, s, c))
        if c < 0 or (c == 0 and kind is _LOWER_DIAG):
            kind, x, y, c = _LOWER_DIAG, sj - 1, si - 1, -c
        else:
            kind, x, y = _UPPER_DIAG, si - 1, sj - 1
        if c > INT64_MAX:
            raise constant_error(c)
        k = x * self.n_clocks + y
        if c > self.diag_hi[k] or c < self.diag_lo[k]:
            return TOP
        return _new(AtomicConstraint, (kind, x, y, s, c))


def edge_propagations(a: Automaton) -> list[Propagation]:
    """The compiled `Propagation` of each edge, by edge index."""
    n = len(a.clock_names)
    return [Propagation(edge_context(a, ei), e.update, n)
            for ei, e in enumerate(a.edges)]


# --------------------------------------------------------------------------
# Constraint sets and analysis results


@dataclass(frozen=True)
class GSet:
    """Deduplicated constraint set, split into non-diagonal and diagonal parts."""

    nond: frozenset[AtomicConstraint]
    diag: frozenset[AtomicConstraint]

    @staticmethod
    def of(atoms: Iterable[AtomicConstraint]) -> "GSet":
        atoms = frozenset(atoms)
        diag = frozenset([phi for phi in atoms if phi[0] in _DIAGONAL])
        return GSet(atoms - diag - _TRIVIAL_ATOMS, diag)

    def __contains__(self, phi: AtomicConstraint) -> bool:
        return phi in self.nond or phi in self.diag

    def __iter__(self):
        return iter(self.atoms())

    def __len__(self) -> int:
        return len(self.nond) + len(self.diag)

    def atoms(self) -> tuple[AtomicConstraint, ...]:
        """The atoms by kind, clock, second clock, constant, strictness."""
        return tuple(sorted(self.nond | self.diag, key=_ATOM_ORDER))


_TRIVIAL_ATOMS = frozenset((TOP, BOTTOM))
# the order of `GSet.atoms`: within one kind, y is None on every atom or an
# int on every atom, so the fields compare as they stand
_ATOM_ORDER = operator.itemgetter(0, 1, 2, 4, 3)


@dataclass(frozen=True)
class AnalysisBounds:
    """Constant/step bounds for divergence detection, computed per component.

    Strictness plays no role here, so bounds over the weak-inequality
    version of the automaton coincide with bounds over the original.
    """

    M: int  # max constant over guards and invariants
    L: int  # max absolute constant over updates
    n_locations: int
    n_clocks: int  # clocks occurring in the component

    @property
    def floor(self) -> int:
        """Constants above this are treated alike by propagation."""
        return max(self.M, self.L)

    @property
    def N(self) -> int:
        q, x = self.n_locations, self.n_clocks
        return self.floor + 2 * self.L * q * x * x

    @property
    def budget(self) -> int:
        q, x = self.n_locations, self.n_clocks
        return 2 * self.N * q * x * x


def analysis_bounds(a: Automaton) -> AnalysisBounds:
    atoms = [phi for e in a.edges for phi in e.guard.clock_atoms]
    for loc in a.locations:
        atoms += loc.invariant.clock_atoms
    # TOP and BOTTOM carry no constant
    m = max((phi.constant for phi in atoms if phi.constant is not None), default=0)
    l = max((e.update.max_offset() for e in a.edges), default=0)
    return AnalysisBounds(m, l, len(a.locations), len(a.occurring_clocks()))


class PropStep(NamedTuple):
    location: int
    constraint: AtomicConstraint
    edge: Optional[int]  # edge from this step's location to the previous step's


@dataclass(frozen=True)
class PropagationSequence:
    """Forward chain of propagations ending at the divergence trigger.

    ``steps[0]`` is a base-set constraint; each later step's constraint is
    the `Propagation` of the previous step's constraint across the recorded
    edge.  When a repeating shape with growing constant exists, ``cycle``
    holds its two step indices (i, j) with i < j.
    """

    steps: tuple[PropStep, ...]
    cycle: Optional[tuple[int, int]]


@dataclass(frozen=True)
class GMap:
    status: Status
    sets: tuple[GSet, ...]
    iterations: int
    bounds: AnalysisBounds
    budget: int
    witness: Optional[PropagationSequence] = None


# --------------------------------------------------------------------------
# Base case and iteration


def _base_records(
    a: Automaton, props: Sequence[Propagation],
) -> list[tuple[int, AtomicConstraint]]:
    """Base constraints by location: invariant atoms, then per outgoing edge
    its guard atoms and the images of 0 <= x; trivial ones and repeats
    dropped.  props are the automaton's `edge_propagations`."""
    nonneg = [nonneg_source(x) for x in range(len(a.clock_names))]
    records: dict[tuple[int, AtomicConstraint], None] = {}  # insertion-ordered
    by_src: dict[int, list[int]] = defaultdict(list)
    for ei, e in enumerate(a.edges):
        by_src[e.src].append(ei)
    for q, loc in enumerate(a.locations):
        atoms = list(loc.invariant.clock_atoms)
        for ei in by_src[q]:
            atoms += a.edges[ei].guard.clock_atoms
            atoms += map(props[ei], nonneg)
        records.update(((q, phi), None) for phi in atoms if not phi.is_trivial)
    return list(records)


ParentMap = dict[tuple[int, AtomicConstraint], Optional[tuple[int, AtomicConstraint, int]]]


def compute_gmap(
    a: Automaton,
    budget_override: Optional[int] = None,
    deadline: Optional[float] = None,
) -> GMap:
    """Iterate propagation to the least fixed point or a stop condition.

    It stops Diverged on the first sweep that shows a propagated constant
    above the bound N within budget + 1 propagations of a base atom, which
    is exactly when sweeping on until such a constant appears would stop
    Diverged.  A sweep shows it when it produces such a constant,
    or when a new atom closes a growth cycle (`_find_cycle`) whose pumped
    laps pass N within that depth (`_witness`); each lap is the previous one
    shifted up by the cycle's growth, which is exact above max(M, L), where
    every cycle constant lies.  The witness is the chain to the constant; a
    diverged map's sets are those found by the detecting sweep plus the
    witness atoms, and ``iterations`` counts the sweeps run.  The step
    budget is a hard stop that the convergence guarantees make unreachable.
    A sweep or pumped lap begun after deadline (a `time.monotonic` value)
    raises TimeoutError.
    """
    bounds = analysis_bounds(a)
    budget = bounds.budget if budget_override is None else budget_override
    if budget == 0 and budget_override is None:
        # All constants zero, so no propagation can create a new constant and
        # the finite atom universe over {0} bounds the closure directly.
        q, x = bounds.n_locations, bounds.n_clocks
        budget = q * 4 * x * (x + 1) + 1
    floor = bounds.floor
    sets: list[set[AtomicConstraint]] = [set() for _ in a.locations]
    parent: ParentMap = {}
    frontier: list[tuple[int, AtomicConstraint]] = []
    props = edge_propagations(a)
    for q, phi in _base_records(a, props):
        if phi not in sets[q]:
            sets[q].add(phi)
            parent[(q, phi)] = None
            frontier.append((q, phi))
    # per location, its in-edges as (edge index, source, propagation, the
    # source's set)
    in_edges: list[list[tuple[int, int, Propagation, set[AtomicConstraint]]]] = [
        [] for _ in a.locations]
    for ei, e in enumerate(a.edges):
        in_edges[e.dst].append((ei, e.src, props[ei], sets[e.src]))
    steps = 0

    def result(status: Status, witness=None) -> GMap:
        return GMap(status, tuple(GSet.of(s) for s in sets), steps, bounds,
                    budget, witness)

    while frontier:
        _check_deadline(deadline)
        new_frontier: list[tuple[int, AtomicConstraint]] = []
        for qp, phi in frontier:
            for ei, src, prop, into in in_edges[qp]:
                psi = prop(phi)
                # a trivial result is always the TOP or BOTTOM object
                if psi is TOP or psi is BOTTOM or psi in into:
                    continue
                into.add(psi)
                parent[(src, psi)] = (qp, phi, ei)
                new_frontier.append((src, psi))
        if not new_frontier:
            return result(Status.CONVERGED)
        steps += 1
        # only atoms above the floor can start a witness
        high = [r for r in new_frontier if r[1].constant > floor]
        high.sort(key=_LOCATION)
        for q, phi in high:
            witness = _witness(_chain(q, phi, parent), bounds, budget + 1,
                               deadline)
            if witness is not None:
                for st in witness.steps:
                    sets[st.location].add(st.constraint)
                return result(Status.DIVERGED, witness)
        if steps > budget:
            return result(Status.BUDGET_EXHAUSTED)
        frontier = new_frontier
    return result(Status.CONVERGED)


# a frontier record's location
_LOCATION = operator.itemgetter(0)


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("static analysis passed its deadline")


def _chain(q: int, phi: AtomicConstraint, parent: ParentMap) -> list[PropStep]:
    """The recorded propagations from a base atom to (q, phi), in order."""
    chain: list[PropStep] = []
    cur: Optional[tuple[int, AtomicConstraint]] = (q, phi)
    while cur is not None:
        rec = parent[cur]
        chain.append(PropStep(cur[0], cur[1], rec[2] if rec else None))
        cur = (rec[0], rec[1]) if rec else None
    chain.reverse()
    return chain


def _witness(
    chain: list[PropStep], bounds: AnalysisBounds, max_depth: int,
    deadline: Optional[float],
) -> Optional[PropagationSequence]:
    """Divergence witness extending chain, or None when it shows none.

    A chain ending above N is its own witness.  Otherwise its last step must
    close the cycle (i, j) `_find_cycle` finds, and each further step is the
    step one lap earlier with its constant grown by the cycle's growth, until
    a constant exceeds N within max_depth propagations of the base atom.

    The shift is exact, as every cycle constant c lies above max(M, L).  The
    context cut then depends only on which guard atoms exist, since their
    constants are at most M < c; a LOWER cut yields a constant at most M, so
    never a cycle step.  The preimage takes the entry ``x_i - x_j < e`` to
    ``x_si - x_sj < e - oi + oj``, where the indices and the offsets, each
    at most L in absolute value, do not depend on e, and keeps the
    strictness.  An upper form stores its entry's bound e as its constant
    and a lower form stores -e.  A step whose form stays on its input's
    side thus moves its constant by the fixed -oi + oj or oi - oj, which
    holds under +delta too; one that changes side gets the constant
    ±(oi - oj) - c <= 2L - c < L, so it is never a cycle step.
    `verify_witness` re-checks every step by propagation.
    """
    n_bound = bounds.N
    cycle = _find_cycle(chain, bounds)
    if chain[-1].constraint.constant > n_bound:
        return PropagationSequence(tuple(chain), cycle)
    if cycle is None or cycle[1] != len(chain) - 1:
        return None
    i, j = cycle
    delta = chain[j].constraint.constant - chain[i].constraint.constant
    while chain[-1].constraint.constant <= n_bound:
        _check_deadline(deadline)
        # the next lap: the last one, shifted
        for q, (kind, x, y, s, c), edge in chain[i - j:]:
            if len(chain) > max_depth:
                return None
            c += delta
            if c > INT64_MAX:
                raise constant_error(c)
            chain.append(_new(PropStep, (
                q, _new(AtomicConstraint, (kind, x, y, s, c)), edge)))
            if c > n_bound:
                break
    return PropagationSequence(tuple(chain), cycle)


def _find_cycle(
    steps: Sequence[PropStep], bounds: AnalysisBounds
) -> Optional[tuple[int, int]]:
    """Repeating (location, shape) pair with growing constant, all constants
    in between above max(M, L)."""
    floor = bounds.floor
    start = len(steps)
    while start > 0 and steps[start - 1].constraint.constant > floor:
        start -= 1
    first_at: dict[tuple, int] = {}
    for j in range(start, len(steps)):
        key = (steps[j].location, steps[j].constraint.context())
        if key in first_at:
            i = first_at[key]
            if steps[i].constraint.constant < steps[j].constraint.constant:
                return (i, j)
        else:
            first_at[key] = j
    return None


def verify_witness(gmap: GMap, a: Automaton) -> list[str]:
    """Re-check a divergence witness step by step; empty list means valid."""
    problems: list[str] = []
    seq = gmap.witness
    if seq is None:
        return ["no witness recorded"]
    steps = seq.steps
    if not steps:
        return ["empty witness"]
    props = edge_propagations(a)
    if (steps[0].location, steps[0].constraint) not in _base_records(a, props):
        problems.append("witness does not start at a base-set constraint")
    for k in range(1, len(steps)):
        ei = steps[k].edge
        if ei is None:
            problems.append(f"step {k} has no edge")
            continue
        e = a.edges[ei]
        if e.src != steps[k].location or e.dst != steps[k - 1].location:
            problems.append(f"step {k}: edge endpoints do not match")
            continue
        if props[ei](steps[k - 1].constraint) != steps[k].constraint:
            problems.append(f"step {k}: propagation does not reproduce the constraint")
    if steps[-1].constraint.constant <= gmap.bounds.N:
        problems.append("witness does not end above the constant bound")
    if seq.cycle is None:
        problems.append("no growth cycle recorded")
    else:
        i, j = seq.cycle
        si, sj = steps[i], steps[j]
        if not (0 <= i < j < len(steps)):
            problems.append("cycle indices out of range")
        elif (si.location, si.constraint.context()) != (sj.location, sj.constraint.context()):
            problems.append("cycle endpoints differ in location or shape")
        elif si.constraint.constant >= sj.constraint.constant:
            problems.append("cycle constant does not grow")
        elif any(steps[k].constraint.constant <= gmap.bounds.floor for k in range(i, j + 1)):
            problems.append("cycle passes through a small constant")
        else:
            delta = sj.constraint.constant - si.constraint.constant
            for k in range(i + 1, j + 1):
                prev = steps[k - 1].constraint
                cur = steps[k].constraint
                shifted = props[steps[k].edge](prev.with_constant(prev.constant + delta))
                if shifted != cur.with_constant(cur.constant + delta):
                    problems.append(f"cycle step {k} does not re-propagate shifted")
                    break
    return problems


# --------------------------------------------------------------------------
# Checks


def check_closure(gmap: GMap, a: Automaton) -> bool:
    """Fixed-point conditions: base atoms present, propagations present or cut."""
    sets = gmap.sets
    props = edge_propagations(a)
    for q, phi in _base_records(a, props):
        if phi not in sets[q]:  # base records are never trivial
            return False
    for e, prop in zip(a.edges, props):
        into, came = sets[e.src], sets[e.dst]
        # closure does not depend on order, so the parts are read unsorted
        for part in (came.nond, came.diag):
            for phi in part:
                psi = prop(phi)
                if not (psi.is_trivial or psi in into):
                    return False
    return True


def report_json(a: Automaton, gmap: GMap) -> dict:
    """The analysis report of one component, as `uta analyze --format json`
    prints it: ``component``, ``status``, ``iterations``, ``bounds`` (M, L,
    N and the step budget) and ``location``, each location's name mapped to
    the text of its set's atoms, ordered by kind, clock, second clock,
    constant and strictness (`GSet.atoms`).  A diverged map adds
    ``witness``, one row per propagation step (location, constraint,
    edge), and ``cycle``, the growth cycle's step indices.  Each distinct
    atom is rendered once, through a cache that lives within this call."""
    texts = _AtomTexts(a.clock_names)
    out = {
        "component": a.name,
        "status": gmap.status.value,
        "iterations": gmap.iterations,
        "bounds": {
            "M": gmap.bounds.M,
            "L": gmap.bounds.L,
            "N": gmap.bounds.N,
            "budget": gmap.budget,
        },
        "location": {
            loc.name: list(map(texts.__getitem__, g.atoms()))
            for loc, g in zip(a.locations, gmap.sets)
        },
    }
    if gmap.witness is not None:
        names = [loc.name for loc in a.locations]
        out["witness"] = [
            {"location": names[q], "constraint": texts[phi], "edge": edge}
            for q, phi, edge in gmap.witness.steps
        ]
        if gmap.witness.cycle is not None:
            out["cycle"] = list(gmap.witness.cycle)
    return out


class _AtomTexts(dict):
    """Proper atom -> its `AtomicConstraint.to_str` text over the given
    clock names, each filled in on its first lookup: the text around the
    constant once per kind, clocks and strictness, then one ``str`` of the
    constant."""

    def __init__(self, names: Sequence[str]):
        super().__init__()
        self.names = names
        self.affixes: dict[tuple, tuple[str, str]] = {}

    def __missing__(self, phi: AtomicConstraint) -> str:
        kind, x, y, s, c = phi
        shape = (kind, x, y, s)
        affixes = self.affixes.get(shape)
        if affixes is None:
            affixes = self.affixes[shape] = atom_affixes(kind, x, y, s, self.names)
        text = self[phi] = affixes[0] + str(c) + affixes[1]
        return text
