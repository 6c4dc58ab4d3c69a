"""Shared builders and reference predicates for the test suite."""
import os
import random
from fractions import Fraction
from pathlib import Path

from reference import delayed, satisfies
from uta.benchgen import gen_fig1, gen_fig1_unguarded
from uta.model import (
    INT_OPS,
    STRICT,
    WEAK,
    AtomicConstraint,
    Automaton,
    Const,
    Edge,
    Guard,
    IntAssign,
    IntAtom,
    IntVar,
    Kind,
    Location,
    Network,
    Shift,
    Update,
    make_lower,
    make_lower_diag,
    make_upper,
    make_upper_diag,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict[str, str]:
    """The environment with the package source first on PYTHONPATH, so that
    a child interpreter imports this checkout's uta."""
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + rest if rest else "")}


def fig1_automaton(guard_on: bool = True) -> Automaton:
    """Two-clock loop: q0 -(x<=3, x:=x-1)-> q1 -> q0, q1 -(x-y<1)-> q2.

    With guard_on=False the upper guard on the subtracting edge is removed,
    which makes the reduced propagation grow without bound.
    """
    return (gen_fig1() if guard_on else gen_fig1_unguarded()).components[0]


def random_atom(rng: random.Random, n_clocks: int, max_const: int) -> AtomicConstraint:
    """A proper (non-trivial) constraint over clocks 0..n_clocks-1."""
    x = rng.randrange(n_clocks)
    s = rng.choice([STRICT, WEAK])
    pick = rng.randrange(4) if n_clocks > 1 else rng.randrange(2)
    if pick == 0:
        return make_upper(x, s, rng.randint(1, max_const) if s is STRICT else rng.randint(0, max_const))
    if pick == 1:
        return make_lower(x, s, rng.randint(0, max_const) if s is STRICT else rng.randint(1, max_const))
    y = rng.choice([k for k in range(n_clocks) if k != x])
    if pick == 2:
        return make_upper_diag(x, y, s, rng.randint(0, max_const))
    return make_lower_diag(x, y, s, rng.randint(0, max_const))


def random_update(rng: random.Random, n_clocks: int, max_const: int = 3,
                  max_shift: int = 2) -> Update:
    out = {}
    for x in range(n_clocks):
        r = rng.random()
        if r < 0.25:
            out[x] = Const(rng.randint(0, max_const))
        elif r < 0.5:
            out[x] = Shift(rng.randrange(n_clocks), rng.randint(-max_shift, max_shift))
    return Update.of(out)


def random_automaton(rng: random.Random, n_clocks: int = 2, max_locs: int = 4,
                     max_edges: int = 6, max_const: int = 4,
                     style: str = "general") -> Automaton:
    """Random component; style picks the update/guard fragment.

    general: any updates, sparse guards, occasional invariants.
    bounded_sub: resets and guarded self-subtractions only.
    clock_bounded: every edge guard has an upper atom on every clock.
    reset: resets only.
    """
    n_locs = rng.randint(2, max_locs)
    clocks = tuple(f"x{i}" for i in range(n_clocks))
    locations = []
    for i in range(n_locs):
        inv = Guard()
        if style == "general" and rng.random() < 0.25:
            x = rng.randrange(n_clocks)
            inv = Guard((make_upper(x, WEAK, rng.randint(1, max_const)),))
        locations.append(Location(f"q{i}", initial=(i == 0), invariant=inv))
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        src, dst = rng.randrange(n_locs), rng.randrange(n_locs)
        atoms = [random_atom(rng, n_clocks, max_const)
                 for _ in range(rng.randint(0, 2))]
        upd: dict = {}
        for x in range(n_clocks):
            r = rng.random()
            if style == "general" or style == "clock_bounded":
                if r < 0.25:
                    upd[x] = Const(rng.randint(0, 3))
                elif r < 0.5:
                    upd[x] = Shift(rng.randrange(n_clocks), rng.randint(-2, 2))
            elif style == "bounded_sub":
                if r < 0.3:
                    upd[x] = Const(0)
                elif r < 0.55:
                    upd[x] = Shift(x, -rng.randint(1, 2))
                    atoms.append(make_upper(x, WEAK, rng.randint(0, max_const)))
            elif style == "reset":
                if r < 0.4:
                    upd[x] = Const(0)
        if style == "clock_bounded":
            for x in range(n_clocks):
                atoms.append(make_upper(x, WEAK, rng.randint(0, max_const)))
        dedup = []
        for a in atoms:
            if a not in dedup:
                dedup.append(a)
        edges.append(Edge(src, dst, Guard(tuple(dedup)), Update.of(upd)))
    return Automaton("R", tuple(locations), tuple(edges), clocks)


def random_sync_network(rng: random.Random, n_comps: int = 3,
                        clocks_per_comp: int = 2, max_locs: int = 3,
                        max_edges: int = 5, max_const: int = 3) -> Network:
    """Random network whose components own their clocks and synchronise on
    two channels; with committed locations, invariants, and one bounded
    integer that guards test and assignments move, sometimes out of range
    (which disables the firing)."""
    channels = ("a", "b")
    clocks = tuple(f"x{c}{k}" for c in range(n_comps)
                   for k in range(clocks_per_comp))
    comps = []
    for c in range(n_comps):
        off = c * clocks_per_comp

        def own_atom():
            phi = random_atom(rng, clocks_per_comp, max_const)
            return AtomicConstraint(phi.kind, phi.x + off,
                                    None if phi.y is None else phi.y + off,
                                    phi.strictness, phi.constant)

        n_locs = rng.randint(2, max_locs)
        locations = []
        for i in range(n_locs):
            inv = Guard()
            if rng.random() < 0.25:
                inv = Guard((make_upper(off + rng.randrange(clocks_per_comp),
                                        WEAK, rng.randint(1, max_const)),))
            committed = i > 0 and rng.random() < 0.2
            locations.append(Location(f"c{c}q{i}", initial=(i == 0),
                                      committed=committed, invariant=inv))
        edges = []
        for _ in range(rng.randint(1, max_edges)):
            atoms = []
            for _ in range(rng.randint(0, 2)):
                phi = own_atom()
                if phi not in atoms:
                    atoms.append(phi)
            local = random_update(rng, clocks_per_comp)
            update = Update.of({
                x + off: u if isinstance(u, Const) else Shift(u.source + off, u.offset)
                for x, u in local.entries
            })
            int_atoms = ()
            if rng.random() < 0.25:
                int_atoms = (IntAtom(0, rng.choice(tuple(INT_OPS)),
                                     rhs_lit=rng.randint(0, 2)),)
            int_assigns = ()
            if rng.random() < 0.25:
                step = rng.choice((1, -1))
                int_assigns = (IntAssign(0, ((1, 0, 0), (step, -1, 1))),)
            sync = None
            if rng.random() < 0.6:
                sync = (rng.choice(channels), rng.choice("!?"))
            edges.append(Edge(rng.randrange(n_locs), rng.randrange(n_locs),
                              Guard(tuple(atoms), int_atoms), update,
                              int_assigns, sync))
        comps.append(Automaton(f"P{c}", tuple(locations), tuple(edges), clocks))
    return Network("sync", clocks, (IntVar("n", 0, 2, 0),), channels,
                   tuple(comps))


def random_valuation(rng: random.Random, n_clocks: int, max_num: int = 16,
                     denom: int = 2) -> dict[int, Fraction]:
    return {x: Fraction(rng.randint(0, max_num), denom) for x in range(n_clocks)}


def sim_atom_ref(v, vp, phi: AtomicConstraint) -> bool:
    """Reference for the one-constraint simulation preorder.

    v is simulated by vp for phi when every delay that keeps v inside phi
    keeps vp inside it too.  Closed forms: for an upper bound, v must
    already violate it or vp must not be ahead; for a lower bound, vp must
    not be behind or must already satisfy it; differences are delay
    invariant, so plain implication.
    """
    if phi.kind is Kind.TOP or phi.kind is Kind.BOTTOM:
        return True
    if phi.kind is Kind.UPPER:
        return (not satisfies(v, phi)) or vp[phi.x] <= v[phi.x]
    if phi.kind is Kind.LOWER:
        return vp[phi.x] >= v[phi.x] or satisfies(vp, phi)
    return (not satisfies(v, phi)) or satisfies(vp, phi)


def sim_atom_grid(v, vp, phi: AtomicConstraint, max_delta: int, denom: int = 2) -> bool:
    """Delay-sampled version of sim_atom_ref; exact when all values and
    constants are multiples of 1/denom."""
    for k in range(0, max_delta * denom + 1):
        d = Fraction(k, denom)
        if satisfies(delayed(v, d), phi) and not satisfies(delayed(vp, d), phi):
            return False
    return True


def random_zone_chain(rng: random.Random, n_clocks: int, max_steps: int = 4,
                      max_const: int = 4):
    """A reachable-looking zone: guard cuts, updates and elapses from zero."""
    from reference import apply_update, initial_zone, intersect_all
    from uta.dbm import EMPTY, elapse

    z = initial_zone(n_clocks)
    for _ in range(rng.randint(0, max_steps)):
        atoms = [random_atom(rng, n_clocks, max_const)
                 for _ in range(rng.randint(0, 2))]
        cut = intersect_all(z, atoms)
        if cut is EMPTY:
            continue
        moved = apply_update(cut, random_update(rng, n_clocks))
        if moved is EMPTY:
            continue
        z = elapse(moved) if rng.random() < 0.8 else moved
    return z


def random_sim_query(rng: random.Random, max_const: int = 6):
    """Paired zones plus a constraint set; None when a zone degenerates."""
    from uta.analysis import GSet
    from reference import SimQuery, apply_update, intersect_all
    from uta.dbm import EMPTY, elapse

    from uta.model import WEAK, make_upper

    n = rng.choice((1, 2, 2, 3, 3))
    z = random_zone_chain(rng, n)
    r = rng.random()
    if r < 0.15:
        zp = z
    elif r < 0.5:
        zp = random_zone_chain(rng, n)
    elif r < 0.75:
        moved = apply_update(z, random_update(rng, n))
        zp = elapse(moved) if moved is not EMPTY else EMPTY
    else:
        zp = intersect_all(z, [random_atom(rng, n, max_const)])
    if rng.random() < 0.65 and z is not EMPTY:
        # keep the scanned side box-bounded so exhaustive oracles conclude
        caps = [make_upper(x, WEAK, rng.randint(4, max_const)) for x in range(n)]
        z = intersect_all(z, caps)
    if z is EMPTY or zp is EMPTY:
        return None
    atoms = [random_atom(rng, n, max_const) for _ in range(rng.randint(0, 5))]
    return SimQuery(z, zp, GSet.of(atoms))
