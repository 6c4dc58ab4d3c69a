"""Per-location constraint-set computation for one automaton component.

A location's set collects the atomic constraints that matter for simulation
at that location: guard atoms of outgoing edges, preimages of clock
nonnegativity under updates, invariant atoms, and backward propagations of
the targets' constraints.  The reduced propagation applies guard-aware cuts
so the fixed point converges on many automata where plain preimage
propagation grows forever.  The remaining non-convergence becomes an
explicit divergence verdict with a replayable witness: a propagated
constant above the bound N proves it.  Rather than sweeping until some
constant gets there, the analysis stops at the first new atom that repeats
the location and shape of an ancestor with a smaller constant, and pumps
that growth cycle past N with real propagations, as deep as the sweep
budget would have reached.
"""
from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .model import (
    TOP,
    WEAK,
    AtomicConstraint,
    Automaton,
    Const,
    Kind,
    Strictness,
    Update,
    eval_const_cmp,
    make_lower,
    make_lower_diag,
    make_upper,
    make_upper_diag,
)


class Mode(enum.Enum):
    REDUCED = "reduced"
    NON_REDUCED = "non-reduced"


class Status(enum.Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    BUDGET_EXHAUSTED = "budget_exhausted"


# --------------------------------------------------------------------------
# Preimage and guard-aware cut


def up_inverse(phi: AtomicConstraint, up: Update) -> AtomicConstraint:
    """Preimage of an atomic constraint under an update, normalized.

    Characterized by: v satisfies the result iff up(v) satisfies phi,
    whenever up(v) is defined.
    """
    if phi.is_trivial:
        return phi
    s, c = phi.strictness, phi.constant
    if phi.kind is Kind.UPPER:
        u = up.get(phi.x)
        if isinstance(u, Const):
            return eval_const_cmp(u.value, s, c)
        return make_upper(u.source, s, c - u.offset)
    if phi.kind is Kind.LOWER:
        u = up.get(phi.x)
        if isinstance(u, Const):
            return eval_const_cmp(c, s, u.value)
        return make_lower(u.source, s, c - u.offset)
    ux, uy = up.get(phi.x), up.get(phi.y)
    if phi.kind is Kind.UPPER_DIAG:
        if isinstance(ux, Const) and isinstance(uy, Const):
            return eval_const_cmp(ux.value - uy.value, s, c)
        if isinstance(ux, Const):
            # e1 - (y'+e2) < c  becomes  e1-e2-c < y'
            return make_lower(uy.source, s, ux.value - uy.offset - c)
        if isinstance(uy, Const):
            # (x'+d) - e2 < c  becomes  x' < c-d+e2
            return make_upper(ux.source, s, c - ux.offset + uy.value)
        return make_upper_diag(ux.source, uy.source, s, c - ux.offset + uy.offset)
    # c < x - y
    if isinstance(ux, Const) and isinstance(uy, Const):
        return eval_const_cmp(c, s, ux.value - uy.value)
    if isinstance(ux, Const):
        # c < e1 - (y'+e2)  becomes  y' < e1-e2-c
        return make_upper(uy.source, s, ux.value - uy.offset - c)
    if isinstance(uy, Const):
        # c < (x'+d) - e2  becomes  c-d+e2 < x'
        return make_lower(ux.source, s, c - ux.offset + uy.value)
    return make_lower_diag(ux.source, uy.source, s, c - ux.offset + uy.offset)


def nonneg_source(x: int) -> AtomicConstraint:
    """The implicit 0 <= x constraint, kept un-normalized for preimages."""
    return AtomicConstraint(Kind.LOWER, x, None, WEAK, 0)


def table_cut(
    psi: AtomicConstraint, guard_atoms: Sequence[AtomicConstraint]
) -> AtomicConstraint:
    """Weaken a propagated constraint using the edge's guard context.

    The guard holds for both valuations of any simulation pair crossing the
    edge, which makes three families of propagated constraints redundant:
    an upper bound on a clock that the guard also bounds above; a lower
    bound d < x that some guard atom x < c with c < d already forces (the
    weak ``c <= x`` suffices instead); and a difference bound whose constant
    lies outside what the guard permits for that clock difference.
    """
    if psi.is_trivial:
        return psi
    if psi.kind is Kind.UPPER:
        for g in guard_atoms:
            if g.kind is Kind.UPPER and g.x == psi.x:
                return TOP
        return psi
    if psi.kind is Kind.LOWER:
        best: Optional[int] = None
        for g in guard_atoms:
            if g.kind is Kind.UPPER and g.x == psi.x and g.constant < psi.constant:
                if best is None or g.constant < best:
                    best = g.constant
        if best is not None:
            return make_lower(psi.x, WEAK, best)
        return psi
    x, y, d = psi.x, psi.y, psi.constant
    for g in guard_atoms:
        if g.kind is Kind.UPPER and g.x == x and g.constant < d:
            return TOP
        if g.kind is Kind.UPPER_DIAG and (g.x, g.y) == (x, y) and g.constant < d:
            return TOP
        if g.kind is Kind.LOWER_DIAG and (g.x, g.y) == (x, y) and g.constant > d:
            return TOP
    return psi


def wp(
    phi: AtomicConstraint,
    guard_atoms: Sequence[AtomicConstraint],
    up: Update,
) -> AtomicConstraint:
    """Reduced backward propagation: preimage, then guard-context cut."""
    return table_cut(up_inverse(phi, up), guard_atoms)


def preimage(
    phi: AtomicConstraint,
    guard_atoms: Sequence[AtomicConstraint],
    up: Update,
) -> AtomicConstraint:
    """Plain backward propagation: the preimage, guard context unused."""
    return up_inverse(phi, up)


def propagation(mode: Mode) -> Callable[..., AtomicConstraint]:
    """The backward propagation rule of mode: `wp` when reduced, else
    `preimage`.  Callers pick it once per call, not per propagation."""
    return wp if mode is Mode.REDUCED else preimage


def edge_context(a: Automaton, edge_idx: int) -> tuple[AtomicConstraint, ...]:
    """Constraints known to hold when the edge fires: guard plus source invariant."""
    e = a.edges[edge_idx]
    return e.guard.clock_atoms + a.locations[e.src].invariant.clock_atoms


# --------------------------------------------------------------------------
# Constraint sets and analysis results


@dataclass(frozen=True)
class GSet:
    """Deduplicated constraint set, split into non-diagonal and diagonal parts."""

    nond: frozenset[AtomicConstraint]
    diag: frozenset[AtomicConstraint]

    @staticmethod
    def of(atoms: Iterable[AtomicConstraint]) -> "GSet":
        nond, diag = set(), set()
        for phi in atoms:
            if phi.is_trivial:
                continue
            (diag if phi.is_diagonal else nond).add(phi)
        return GSet(frozenset(nond), frozenset(diag))

    def __contains__(self, phi: AtomicConstraint) -> bool:
        return phi in self.nond or phi in self.diag

    def __iter__(self):
        return iter(self.atoms())

    def __len__(self) -> int:
        return len(self.nond) + len(self.diag)

    def atoms(self) -> tuple[AtomicConstraint, ...]:
        return tuple(sorted(self.nond | self.diag, key=AtomicConstraint.sort_key))


EMPTY_GSET = GSet(frozenset(), frozenset())


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
    def N(self) -> int:
        q, x = self.n_locations, self.n_clocks
        return max(self.M, self.L) + 2 * self.L * q * x * x

    @property
    def budget(self) -> int:
        q, x = self.n_locations, self.n_clocks
        return 2 * self.N * q * x * x


def analysis_bounds(a: Automaton) -> AnalysisBounds:
    m = 0
    for e in a.edges:
        for phi in e.guard.clock_atoms:
            if not phi.is_trivial:
                m = max(m, phi.constant)
    for loc in a.locations:
        for phi in loc.invariant.clock_atoms:
            if not phi.is_trivial:
                m = max(m, phi.constant)
    l = 0
    for e in a.edges:
        l = max(l, e.update.max_offset())
    return AnalysisBounds(m, l, len(a.locations), len(a.occurring_clocks()))


@dataclass(frozen=True)
class PropStep:
    location: int
    constraint: AtomicConstraint
    edge: Optional[int]  # edge from this step's location to the previous step's


@dataclass(frozen=True)
class PropagationSequence:
    """Forward chain of propagations ending at the divergence trigger.

    ``steps[0]`` is a base-set constraint; each later step's constraint is
    wp of the previous step's constraint across the recorded edge.  When a
    repeating shape with growing constant exists, ``cycle`` holds its two
    step indices (i, j) with i < j.
    """

    steps: tuple[PropStep, ...]
    cycle: Optional[tuple[int, int]]


@dataclass(frozen=True)
class GMap:
    status: Status
    sets: tuple[GSet, ...]
    iterations: int
    bounds: AnalysisBounds
    mode: Mode
    budget: int
    witness: Optional[PropagationSequence] = None

    def at(self, q: int) -> GSet:
        return self.sets[q]


# --------------------------------------------------------------------------
# Base case and iteration


def _base_records(a: Automaton, mode: Mode) -> list[tuple[int, AtomicConstraint]]:
    records: list[tuple[int, AtomicConstraint]] = []
    seen: set[tuple[int, AtomicConstraint]] = set()

    def add(q: int, phi: AtomicConstraint) -> None:
        if phi.is_trivial:
            return
        if (q, phi) not in seen:
            seen.add((q, phi))
            records.append((q, phi))

    prop = propagation(mode)
    by_src: dict[int, list[int]] = defaultdict(list)
    for ei, e in enumerate(a.edges):
        by_src[e.src].append(ei)
    for q, loc in enumerate(a.locations):
        for phi in loc.invariant.clock_atoms:
            add(q, phi)
        for ei in by_src[q]:
            e = a.edges[ei]
            for phi in e.guard.clock_atoms:
                add(q, phi)
            ctx = edge_context(a, ei)
            for x in range(len(a.clock_names)):
                add(q, prop(nonneg_source(x), ctx, e.update))
    return records


def g0(a: Automaton, mode: Mode = Mode.REDUCED) -> tuple[GSet, ...]:
    """Base constraint sets: guard atoms, nonnegativity preimages, invariants."""
    sets: list[list[AtomicConstraint]] = [[] for _ in a.locations]
    for q, phi in _base_records(a, mode):
        sets[q].append(phi)
    return tuple(GSet.of(s) for s in sets)


ParentMap = dict[tuple[int, AtomicConstraint], Optional[tuple[int, AtomicConstraint, int]]]


def compute_gmap(
    a: Automaton,
    mode: Mode = Mode.REDUCED,
    budget_override: Optional[int] = None,
) -> GMap:
    """Iterate propagation to the least fixed point or a stop condition.

    Reduced mode stops Diverged on the first sweep that shows a propagated
    constant above the bound N within budget + 1 propagations of a base
    atom, which is exactly when sweeping on until such a constant appears
    would stop Diverged.  A sweep shows it when it produces such a constant,
    or when a new atom closes a growth cycle (`_find_cycle`) that re-fires
    past N within that depth (`_witness`).  The witness is the chain to the
    constant; a diverged map's sets are those found by the detecting sweep
    plus the witness atoms, and ``iterations`` counts the sweeps run.  The
    step budget is a hard stop that the convergence guarantees make
    unreachable in reduced mode.  Plain preimage mode has no constant bound
    and can only converge or exhaust the budget.
    """
    bounds = analysis_bounds(a)
    budget = bounds.budget if budget_override is None else budget_override
    if budget == 0 and budget_override is None:
        # All constants zero, so no propagation can create a new constant and
        # the finite atom universe over {0} bounds the closure directly.
        q, x = bounds.n_locations, bounds.n_clocks
        budget = q * 4 * x * (x + 1) + 1
    n_loc = len(a.locations)
    sets: list[set[AtomicConstraint]] = [set() for _ in range(n_loc)]
    parent: ParentMap = {}
    frontier: list[tuple[int, AtomicConstraint]] = []
    for q, phi in _base_records(a, mode):
        if phi not in sets[q]:
            sets[q].add(phi)
            parent[(q, phi)] = None
            frontier.append((q, phi))
    edges_by_dst: dict[int, list[int]] = defaultdict(list)
    for ei, e in enumerate(a.edges):
        edges_by_dst[e.dst].append(ei)
    contexts = [edge_context(a, ei) for ei in range(len(a.edges))]
    prop = propagation(mode)
    floor = max(bounds.M, bounds.L)
    steps = 0

    def result(status: Status, witness=None) -> GMap:
        return GMap(
            status,
            tuple(GSet.of(s) for s in sets),
            steps,
            bounds,
            mode,
            budget,
            witness,
        )

    while frontier:
        new_frontier: list[tuple[int, AtomicConstraint]] = []
        for qp, phi in frontier:
            for ei in edges_by_dst[qp]:
                e = a.edges[ei]
                psi = prop(phi, contexts[ei], e.update)
                if psi.is_trivial or psi in sets[e.src]:
                    continue
                sets[e.src].add(psi)
                parent[(e.src, psi)] = (qp, phi, ei)
                new_frontier.append((e.src, psi))
        if not new_frontier:
            return result(Status.CONVERGED)
        steps += 1
        if mode is Mode.REDUCED:
            for q, phi in sorted(new_frontier, key=lambda r: r[0]):
                if phi.constant > floor:
                    witness = _witness(_chain(q, phi, parent), a, contexts,
                                       prop, bounds, budget + 1)
                    if witness is not None:
                        for st in witness.steps:
                            sets[st.location].add(st.constraint)
                        return result(Status.DIVERGED, witness)
        if steps > budget:
            return result(Status.BUDGET_EXHAUSTED)
        frontier = new_frontier
    return result(Status.CONVERGED)


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
    chain: list[PropStep],
    a: Automaton,
    contexts: Sequence[tuple[AtomicConstraint, ...]],
    prop: Callable[..., AtomicConstraint],
    bounds: AnalysisBounds,
    max_depth: int,
) -> Optional[PropagationSequence]:
    """Divergence witness extending chain, or None when it shows none.

    A chain ending above N is its own witness.  Otherwise its last step must
    close the cycle `_find_cycle` finds, and the cycle's edges are re-fired
    from there, each step a real propagation that must reproduce its cycle
    step shifted by the growth so far, until a constant exceeds N within
    max_depth propagations of the base atom.
    """
    cycle = _find_cycle(chain, bounds)
    if chain[-1].constraint.constant > bounds.N:
        return PropagationSequence(tuple(chain), cycle)
    if cycle is None or cycle[1] != len(chain) - 1:
        return None
    i, j = cycle
    lap = chain[i + 1 : j + 1]
    delta = chain[j].constraint.constant - chain[i].constraint.constant
    n = 0
    while chain[-1].constraint.constant <= bounds.N:
        if len(chain) > max_depth:
            return None
        ref = lap[n % len(lap)]
        shifted = ref.constraint.constant + delta * (n // len(lap) + 1)
        psi = prop(chain[-1].constraint, contexts[ref.edge], a.edges[ref.edge].update)
        if psi != ref.constraint.with_constant(shifted):
            return None
        chain.append(PropStep(ref.location, psi, ref.edge))
        n += 1
    return PropagationSequence(tuple(chain), cycle)


def _find_cycle(
    steps: Sequence[PropStep], bounds: AnalysisBounds
) -> Optional[tuple[int, int]]:
    """Repeating (location, shape) pair with growing constant, all constants
    in between above max(M, L)."""
    floor = max(bounds.M, bounds.L)
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
    base = g0(a, gmap.mode)
    prop = propagation(gmap.mode)
    if steps[0].constraint not in base[steps[0].location]:
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
        expect = prop(steps[k - 1].constraint, edge_context(a, ei), e.update)
        if expect != steps[k].constraint:
            problems.append(f"step {k}: propagation does not reproduce the constraint")
    if steps[-1].constraint.constant <= gmap.bounds.N:
        problems.append("witness does not end above the constant bound")
    if seq.cycle is None:
        problems.append("no growth cycle recorded")
    else:
        i, j = seq.cycle
        floor = max(gmap.bounds.M, gmap.bounds.L)
        si, sj = steps[i], steps[j]
        if not (0 <= i < j < len(steps)):
            problems.append("cycle indices out of range")
        elif (si.location, si.constraint.context()) != (sj.location, sj.constraint.context()):
            problems.append("cycle endpoints differ in location or shape")
        elif si.constraint.constant >= sj.constraint.constant:
            problems.append("cycle constant does not grow")
        elif any(steps[k].constraint.constant <= floor for k in range(i, j + 1)):
            problems.append("cycle passes through a small constant")
        else:
            delta = sj.constraint.constant - si.constraint.constant
            for k in range(i + 1, j + 1):
                prev = steps[k - 1].constraint
                cur = steps[k].constraint
                ei = steps[k].edge
                e = a.edges[ei]
                shifted = prop(prev.with_constant(prev.constant + delta),
                               edge_context(a, ei), e.update)
                if shifted != cur.with_constant(cur.constant + delta):
                    problems.append(f"cycle step {k} does not re-propagate shifted")
                    break
    return problems


# --------------------------------------------------------------------------
# Summaries and checks


Bound = Optional[tuple[int, Strictness]]


@dataclass(frozen=True)
class LUBounds:
    """Per-clock maxima of lower/upper non-diagonal constraints.

    None encodes "no constraint of that kind".  At equal constants the weak
    variant dominates the strict one.
    """

    lower: tuple[Bound, ...]
    upper: tuple[Bound, ...]

    @staticmethod
    def key(b: Bound) -> int:
        if b is None:
            return -1
        return 2 * b[0] + int(b[1])

    def dominated_by(self, other: "LUBounds") -> bool:
        return all(
            self.key(a) <= self.key(b) for a, b in zip(self.lower, other.lower)
        ) and all(
            self.key(a) <= self.key(b) for a, b in zip(self.upper, other.upper)
        )


def extract_lu(g: GSet, n_clocks: int) -> LUBounds:
    lower: list[Bound] = [None] * n_clocks
    upper: list[Bound] = [None] * n_clocks
    for phi in g.nond:
        cand = (phi.constant, phi.strictness)
        table = upper if phi.kind is Kind.UPPER else lower
        if table[phi.x] is None or LUBounds.key(table[phi.x]) < LUBounds.key(cand):
            table[phi.x] = cand
    return LUBounds(tuple(lower), tuple(upper))


def check_closure(gmap: GMap, a: Automaton) -> bool:
    """Fixed-point conditions: base atoms present, propagations present or cut."""
    prop = propagation(gmap.mode)
    sets = gmap.sets

    def covered(q: int, phi: AtomicConstraint) -> bool:
        return phi.is_trivial or phi in sets[q]

    for q, phi in _base_records(a, gmap.mode):
        if not covered(q, phi):
            return False
    for ei, e in enumerate(a.edges):
        ctx = edge_context(a, ei)
        for phi in sets[e.dst]:
            if not covered(e.src, prop(phi, ctx, e.update)):
                return False
    return True


def report_json(a: Automaton, gmap: GMap) -> dict:
    names = a.clock_names
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
            loc.name: [phi.to_str(names) for phi in gmap.sets[q]]
            for q, loc in enumerate(a.locations)
        },
    }
    if gmap.witness is not None:
        out["witness"] = [
            {
                "location": a.locations[st.location].name,
                "constraint": st.constraint.to_str(names),
                "edge": st.edge,
            }
            for st in gmap.witness.steps
        ]
        if gmap.witness.cycle is not None:
            out["cycle"] = list(gmap.witness.cycle)
    return out
