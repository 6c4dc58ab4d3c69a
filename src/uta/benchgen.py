"""Benchmark model generators.

Four families: EDF schedulability networks (scheduler, per-task handlers,
release automata), the bounded one-counter reduction whose reduced-analysis
finiteness mirrors counter reachability, the two-clock loop example in its
guarded and unguarded variants, and seeded random single-component models
for property suites.

The schedulability networks use binary channel relays in place of
broadcast signals: a release is acknowledged by the handler (``notify``),
and task completion is fanned out by the scheduler (``sub``/``wcdone``
chains) through committed states, all in zero time.
"""
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import (
    STRICT,
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
    make_upper_diag,
    single_component_network,
)


@dataclass(frozen=True)
class TaskSpec:
    """One task: computation time, relative deadline, optional period."""

    c: int
    d: int
    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.c < 1:
            raise ValueError(f"task ({self.c},{self.d}): computation time must be positive")
        if self.c > self.d:
            raise ValueError(f"task ({self.c},{self.d}): computation time exceeds deadline")
        if self.p is not None and self.d > self.p:
            raise ValueError(f"task ({self.c},{self.d},{self.p}): deadline exceeds period")


_PATTERN_KINDS = ("flower", "worstcase", "periodic", "sporadicperiodic")


@dataclass(frozen=True)
class ReleasePattern:
    kind: str
    burst: Optional[int] = None  # sporadic burst length N

    def __post_init__(self) -> None:
        if self.kind not in _PATTERN_KINDS:
            raise ValueError(f"unknown release pattern {self.kind!r}")
        if (self.kind == "sporadicperiodic") != (self.burst is not None):
            raise ValueError("burst length is set exactly for sporadicperiodic")
        if self.burst is not None and self.burst < 1:
            raise ValueError("burst length must be at least 1")


FLOWER = ReleasePattern("flower")
PERIODIC = ReleasePattern("periodic")


def sporadic_periodic(n: int) -> ReleasePattern:
    return ReleasePattern("sporadicperiodic", n)


SPORADIC_PERIODIC_TASKS = (
    TaskSpec(1, 3),
    TaskSpec(5, 20, 20),
    TaskSpec(8, 28, 30),
    TaskSpec(5, 30, 30),
)

MINE_PUMP_TASKS = (
    TaskSpec(58, 200, 200),
    TaskSpec(37, 250, 250),
    TaskSpec(37, 300, 300),
    TaskSpec(39, 350, 350),
    TaskSpec(33, 800, 800),
)


def _set_int(var: int, value: int) -> IntAssign:
    return IntAssign(var, ((1, -1, value),))


def _scheduler(tasks: Sequence[TaskSpec], ix: dict[str, int], iv: dict[str, int],
               wc: bool) -> Automaton:
    n = len(tasks)
    r_var = iv["r"]
    locs: list[Location] = []
    index: dict[str, int] = {}

    def loc(name: str, **kw) -> int:
        index[name] = len(locs)
        locs.append(Location(name, **kw))
        return index[name]

    qempty = loc("qempty", initial=True)
    running = loc("taskrunning")
    entry = loc("entry", committed=True)
    pre = loc("pre", committed=True)
    for i in range(1, n + 1):
        for j in range(i + 1):
            loc(f"temp{i}_{j}", committed=True)
    for j in range(1, n + 1):
        if wc:
            loc(f"wd{j}", committed=True)
        for k in range(1, n):
            loc(f"sd{j}_{k}", committed=True)

    def t(i: int, j: int) -> int:
        return index[f"temp{i}_{j}"]

    def queued(i: int, v: int) -> IntAtom:
        return IntAtom(iv[f"q{i}"], "==", rhs_lit=v)

    edges: list[Edge] = []
    for i in range(1, n + 1):
        reset = Update.of({ix[f"ds{i}"]: Const(0)})
        edges.append(Edge(qempty, entry, update=reset, sync=(f"notify{i}", "?")))
        edges.append(Edge(running, pre, update=reset, sync=(f"notify{i}", "?")))
    for j in range(1, n + 1):
        edges.append(
            Edge(pre, entry, Guard((), (IntAtom(r_var, "==", rhs_lit=j),)),
                 sync=(f"preempt{j}", "!"))
        )
    edges.append(Edge(entry, t(1, 1), Guard((), (queued(1, 1),))))
    edges.append(Edge(entry, t(1, 0), Guard((), (queued(1, 0),))))
    for i in range(1, n):
        nxt = i + 1
        edges.append(Edge(t(i, 0), t(nxt, nxt), Guard((), (queued(nxt, 1),))))
        edges.append(Edge(t(i, 0), t(nxt, 0), Guard((), (queued(nxt, 0),))))
        for j in range(1, i + 1):
            # candidate strictly closer: D_nxt - ds_nxt < D_j - ds_j
            dj, dn = ix[f"ds{j}"], ix[f"ds{nxt}"]
            closer = make_upper_diag(dj, dn, STRICT, tasks[j - 1].d - tasks[nxt - 1].d)
            keep = make_upper_diag(dn, dj, WEAK, tasks[nxt - 1].d - tasks[j - 1].d)
            edges.append(Edge(t(i, j), t(nxt, nxt), Guard((closer,), (queued(nxt, 1),))))
            edges.append(Edge(t(i, j), t(nxt, j), Guard((), (queued(nxt, 0),))))
            edges.append(Edge(t(i, j), t(nxt, j), Guard((keep,), (queued(nxt, 1),))))
    edges.append(Edge(t(n, 0), qempty))
    for j in range(1, n + 1):
        edges.append(
            Edge(t(n, j), running, int_assigns=(_set_int(r_var, j),),
                 sync=(f"run{j}", "!"))
        )
    for j in range(1, n + 1):
        others = [i for i in range(1, n + 1) if i != j]
        chain = [index[f"sd{j}_{k}"] for k in range(1, n)]
        after_done = chain[0] if chain else entry
        clear = (_set_int(r_var, 0),)
        if wc:
            wd = index[f"wd{j}"]
            edges.append(Edge(running, wd, int_assigns=clear, sync=(f"done{j}", "?")))
            edges.append(Edge(wd, after_done, sync=(f"wcdone{j}", "!")))
        else:
            edges.append(Edge(running, after_done, int_assigns=clear,
                              sync=(f"done{j}", "?")))
        for k, i in enumerate(others):
            dst = chain[k + 1] if k + 1 < len(others) else entry
            edges.append(Edge(chain[k], dst, sync=(f"sub{j}_{i}", "!")))
    return Automaton("sched", tuple(locs), tuple(edges), tuple(ix))


def _handler(i: int, tasks: Sequence[TaskSpec], ix: dict[str, int],
             iv: dict[str, int]) -> Automaton:
    n = len(tasks)
    ci, di, qi = ix[f"c{i}"], ix[f"d{i}"], iv[f"q{i}"]
    spec = tasks[i - 1]
    inv_run = Guard((make_upper(ci, WEAK, spec.c), make_upper(di, WEAK, spec.d)))
    inv_pre = Guard((make_upper(di, WEAK, spec.d),))
    locs = (
        Location("free", initial=True),
        Location("rel", committed=True),
        Location("queued"),
        Location("running", invariant=inv_run),
        Location("preempted", invariant=inv_pre),
        Location("error"),
    )
    free, rel, que, run, pre, err = range(6)
    edges = [
        Edge(free, rel, update=Update.of({di: Const(0)}), sync=(f"release{i}", "?")),
        Edge(rel, que, int_assigns=(_set_int(qi, 1),), sync=(f"notify{i}", "!")),
        Edge(que, run, update=Update.of({ci: Const(0)}), sync=(f"run{i}", "?")),
        Edge(run, free,
             Guard((make_lower(ci, WEAK, spec.c), make_upper(di, WEAK, spec.d))),
             int_assigns=(_set_int(qi, 0),), sync=(f"done{i}", "!")),
        Edge(run, pre, sync=(f"preempt{i}", "?")),
        Edge(pre, run, sync=(f"run{i}", "?")),
        Edge(run, err,
             Guard((make_lower(di, WEAK, spec.d), make_upper(ci, STRICT, spec.c)))),
        Edge(pre, err, Guard((make_lower(di, WEAK, spec.d),))),
    ]
    for j in range(1, n + 1):
        if j == i:
            continue
        sub = (f"sub{j}_{i}", "?")
        edges.append(Edge(free, free, sync=sub))
        edges.append(Edge(que, que, sync=sub))
        edges.append(
            Edge(pre, pre, Guard((make_upper(ci, WEAK, spec.d),)),
                 update=Update.of({ci: Shift(ci, -tasks[j - 1].c)}), sync=sub)
        )
    return Automaton(f"task{i}", tuple(locs), tuple(edges), tuple(ix))


def _flower(tasks: Sequence[TaskSpec], ix: dict[str, int],
            iv: dict[str, int]) -> Automaton:
    edges = tuple(
        Edge(0, 0, Guard((), (IntAtom(iv[f"q{i}"], "==", rhs_lit=0),)),
             sync=(f"release{i}", "!"))
        for i in range(1, len(tasks) + 1)
    )
    return Automaton("flower", (Location("f0", initial=True),), edges, tuple(ix))


def _worstcase(tasks: Sequence[TaskSpec], ix: dict[str, int]) -> Automaton:
    n = len(tasks)
    wx = ix["wx"]
    locs = [Location(f"w{k}", initial=(k == 0)) for k in range(n + 1)]
    locs += [Location(f"t{i}") for i in range(1, n + 1)]
    at_zero = Guard((make_upper(wx, WEAK, 0),))
    edges = []
    for k in range(1, n + 1):
        edges.append(Edge(k - 1, k, at_zero, sync=(f"release{k}", "!")))
    for i in range(1, n + 1):
        ti = n + i
        edges.append(Edge(n, ti, update=Update.of({wx: Const(0)}),
                          sync=(f"wcdone{i}", "?")))
        edges.append(Edge(ti, n, at_zero, sync=(f"release{i}", "!")))
    return Automaton("wc", tuple(locs), tuple(edges), tuple(ix))


def _periodic(tasks: Sequence[TaskSpec], ix: dict[str, int],
              ixs: Sequence[int]) -> Automaton:
    m = len(ixs)
    pd = {i: ix[f"p{i}"] for i in ixs}
    inv = Guard(tuple(make_upper(pd[i], WEAK, tasks[i - 1].p) for i in ixs))
    locs = [Location(f"r{k}", initial=(k == 0), committed=True) for k in range(m)]
    locs.append(Location(f"r{m}", initial=(m == 0), invariant=inv))
    edges = []
    for k, i in enumerate(ixs):
        edges.append(Edge(k, k + 1, update=Update.of({pd[i]: Const(0)}),
                          sync=(f"release{i}", "!")))
    for i in ixs:
        edges.append(
            Edge(m, m, Guard((make_lower(pd[i], WEAK, tasks[i - 1].p),)),
                 update=Update.of({pd[i]: Const(0)}), sync=(f"release{i}", "!"))
        )
    return Automaton("periodic", tuple(locs), tuple(edges), tuple(ix))


_OFFSET = 60  # quiet window between sporadic bursts


def _sporadic(tasks: Sequence[TaskSpec], ix: dict[str, int], iv: dict[str, int],
              burst: int) -> Automaton:
    sx, sy, n_var = ix["sx"], ix["sy"], iv["n"]
    gap = tasks[0].d
    rested = Guard((make_upper(sy, WEAK, _OFFSET),))
    locs = (
        Location("offset", initial=True, invariant=rested),
        Location("active", invariant=Guard((make_upper(sx, WEAK, gap),))),
        Location("rest", invariant=rested),
    )
    start = Update.of({sx: Const(0), sy: Const(0)})
    at_gap = (make_upper(sx, WEAK, gap), make_lower(sx, WEAK, gap))
    last = burst - 1
    wake = Guard((make_lower(sy, WEAK, _OFFSET),))
    inc = IntAssign(n_var, ((1, n_var, 0), (1, -1, 1)))
    edges = (
        Edge(0, 1, wake, update=start, int_assigns=(_set_int(n_var, 0),),
             sync=("release1", "!")),
        Edge(1, 1, Guard(at_gap, (IntAtom(n_var, "<", rhs_lit=last),)),
             update=Update.of({sx: Const(0)}), int_assigns=(inc,),
             sync=("release1", "!")),
        Edge(1, 2, Guard(at_gap, (IntAtom(n_var, "==", rhs_lit=last),))),
        Edge(2, 1, wake, update=start, int_assigns=(_set_int(n_var, 0),),
             sync=("release1", "!")),
    )
    return Automaton("sporadic", locs, edges, tuple(ix))


def gen_edf(tasks: Sequence[TaskSpec], pattern: ReleasePattern) -> Network:
    """Schedulability network: EDF scheduler, task handlers, release automata.

    The ``error`` location of any handler is reachable exactly when the task
    set can miss a deadline under the release pattern.
    """
    tasks = tuple(tasks)
    if not tasks:
        raise ValueError("need at least one task")
    n = len(tasks)
    kind = pattern.kind
    if kind == "periodic" and any(t.p is None for t in tasks):
        raise ValueError("periodic release needs a period for every task")
    if kind == "sporadicperiodic":
        if tasks[0].p is not None:
            raise ValueError("the first task is released sporadically and takes no period")
        if n < 2 or any(t.p is None for t in tasks[1:]):
            raise ValueError("tasks after the sporadic one must be periodic")

    # the components look clocks and int variables up by name, in ix and iv
    names = [f"{x}{i}" for i in range(1, n + 1) for x in ("c", "d", "ds")]
    ivs = [IntVar(f"q{i}", 0, 1, 0) for i in range(1, n + 1)]
    ivs.append(IntVar("r", 0, n, 0))
    periodic_ixs: Sequence[int] = range(1, n + 1) if kind == "periodic" else ()
    if kind == "worstcase":
        names.append("wx")
    if kind == "sporadicperiodic":
        names += ["sx", "sy"]
        ivs.append(IntVar("n", 0, max(pattern.burst - 1, 0), 0))
        periodic_ixs = range(2, n + 1)
    names += [f"p{i}" for i in periodic_ixs]
    clocks = tuple(names)
    ix = {name: k for k, name in enumerate(clocks)}
    iv = {v.name: k for k, v in enumerate(ivs)}

    chans: list[str] = []
    for i in range(1, n + 1):
        chans += [f"release{i}", f"notify{i}", f"run{i}", f"done{i}", f"preempt{i}"]
    if kind == "worstcase":
        chans += [f"wcdone{i}" for i in range(1, n + 1)]
    for j in range(1, n + 1):
        chans += [f"sub{j}_{i}" for i in range(1, n + 1) if i != j]

    comps = [_scheduler(tasks, ix, iv, kind == "worstcase")]
    comps += [_handler(i, tasks, ix, iv) for i in range(1, n + 1)]
    if kind == "flower":
        comps.append(_flower(tasks, ix, iv))
    elif kind == "worstcase":
        comps.append(_worstcase(tasks, ix))
    else:
        if kind == "sporadicperiodic":
            comps.append(_sporadic(tasks, ix, iv, pattern.burst))
        comps.append(_periodic(tasks, ix, periodic_ixs))
    name = f"edf_{kind}_{n}"
    return Network(name, clocks, tuple(ivs), tuple(chans), tuple(comps))


def gen_sporadic_periodic(burst: int) -> Network:
    return gen_edf(SPORADIC_PERIODIC_TASKS, sporadic_periodic(burst))


def gen_mine_pump() -> Network:
    return gen_edf(MINE_PUMP_TASKS, PERIODIC)


# --------------------------------------------------------------------------
# Bounded one-counter automata and their two-clock encoding


@dataclass(frozen=True)
class CounterAutomaton:
    """States, a counter in [0, bound], and steps that add p to it."""

    states: tuple[str, ...]
    initial: str
    target: str
    transitions: tuple[tuple[str, int, str], ...]
    bound: int

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("bound must be nonnegative")
        known = set(self.states)
        if self.initial not in known or self.target not in known:
            raise ValueError("initial and target must be declared states")
        for src, p, dst in self.transitions:
            if src not in known or dst not in known:
                raise ValueError(f"transition ({src},{p},{dst}) uses unknown state")
            if abs(p) > self.bound:
                raise ValueError(f"step {p} exceeds the counter bound {self.bound}")


def _fresh_name(base: str, used) -> str:
    name = base + "_p"
    while name in used:
        name += "p"
    return name


def gen_counter_reduction(b: CounterAutomaton) -> Network:
    """Two-clock encoding whose reduced analysis diverges exactly when the
    counter target is reachable.

    Counter step (src, p, dst) becomes the reversed edge dst -> src guarded
    x <= bound and y <= 0 with update x := x - p; entry/exit plumbing adds a
    primed initial reached under x - y <= 0 and a primed target looping on
    y := y + 1.
    """
    x, y = 0, 1
    names = list(b.states)
    l0p = _fresh_name(b.initial, names)
    names.append(l0p)
    ltp = _fresh_name(b.target, names)
    names.append(ltp)
    index = {nm: k for k, nm in enumerate(names)}
    locations = tuple(Location(nm, initial=(nm == ltp)) for nm in names)
    step_guard = Guard((make_upper(x, WEAK, b.bound), make_upper(y, WEAK, 0)))
    edges = []
    for src, p, dst in b.transitions:
        upd = Update.of({x: Shift(x, -p)}) if p else Update.of({})
        edges.append(Edge(index[dst], index[src], step_guard, upd))
    edges.append(Edge(index[b.initial], index[l0p],
                      Guard((make_upper_diag(x, y, WEAK, 0),))))
    edges.append(Edge(index[ltp], index[b.target]))
    edges.append(Edge(index[ltp], index[ltp], update=Update.of({y: Shift(y, 1)})))
    return single_component_network(f"ab{b.bound}", ("x", "y"), locations,
                                    tuple(edges))


# --------------------------------------------------------------------------
# The two-clock loop example


def _fig1_network(guard_on: bool) -> Network:
    locs = (Location("q0", initial=True), Location("q1"), Location("q2"))
    g = Guard((make_upper(0, WEAK, 3),)) if guard_on else Guard()
    edges = (
        Edge(0, 1, g, Update.of({0: Shift(0, -1)})),
        Edge(1, 0),
        Edge(1, 2, Guard((make_upper_diag(0, 1, STRICT, 1),))),
    )
    name = "loop" if guard_on else "loop_unguarded"
    return single_component_network(name, ("x", "y"), locs, edges)


def gen_fig1() -> Network:
    """Two-clock loop whose subtraction is capped by an upper guard."""
    return _fig1_network(True)


def gen_fig1_unguarded() -> Network:
    """The same loop without the cap; its reduced analysis diverges."""
    return _fig1_network(False)


# --------------------------------------------------------------------------
# Seeded random components

FRAGMENTS = ("SubtractionBounded", "ClockBounded", "ResetOnly", "General")


@dataclass(frozen=True)
class RandomProfile:
    n_locs: int = 4
    n_clocks: int = 2
    fragment: str = "General"
    max_const: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fragment not in FRAGMENTS:
            raise ValueError(f"unknown fragment {self.fragment!r}")
        if self.n_locs < 1 or self.n_clocks < 1:
            raise ValueError("need at least one location and one clock")


def _profile_atom(rng: random.Random, n_clocks: int, max_const: int):
    xx = rng.randrange(n_clocks)
    s = rng.choice((STRICT, WEAK))
    pick = rng.randrange(4) if n_clocks > 1 else rng.randrange(2)
    if pick == 0:
        lo = 1 if s is STRICT else 0
        return make_upper(xx, s, rng.randint(lo, max_const))
    if pick == 1:
        lo = 0 if s is STRICT else 1
        return make_lower(xx, s, rng.randint(lo, max_const))
    yy = rng.choice([k for k in range(n_clocks) if k != xx])
    if pick == 2:
        return make_upper_diag(xx, yy, s, rng.randint(0, max_const))
    return make_lower_diag(xx, yy, s, rng.randint(0, max_const))


def gen_random(profile: RandomProfile) -> Network:
    """Deterministic per seed; the fragment picks the update discipline."""
    rng = random.Random(profile.seed)
    n_locs = max(2, profile.n_locs)
    nc = profile.n_clocks
    mc = profile.max_const
    frag = profile.fragment
    locations = []
    for i in range(n_locs):
        inv = Guard()
        if frag == "General" and rng.random() < 0.25:
            inv = Guard((make_upper(rng.randrange(nc), WEAK, rng.randint(1, mc)),))
        locations.append(Location(f"q{i}", initial=(i == 0), invariant=inv))
    edges = []
    for _ in range(rng.randint(n_locs, 2 * n_locs + 2)):
        src, dst = rng.randrange(n_locs), rng.randrange(n_locs)
        atoms = [_profile_atom(rng, nc, mc) for _ in range(rng.randint(0, 2))]
        upd: dict = {}
        for xx in range(nc):
            roll = rng.random()
            if frag in ("General", "ClockBounded"):
                if roll < 0.25:
                    upd[xx] = Const(rng.randint(0, 3))
                elif roll < 0.5:
                    upd[xx] = Shift(rng.randrange(nc), rng.randint(-2, 2))
            elif frag == "SubtractionBounded":
                if roll < 0.3:
                    upd[xx] = Const(0)
                elif roll < 0.55:
                    upd[xx] = Shift(xx, -rng.randint(1, 2))
                    atoms.append(make_upper(xx, WEAK, rng.randint(0, mc)))
            else:
                if roll < 0.4:
                    upd[xx] = Const(0)
        if frag == "ClockBounded":
            for xx in range(nc):
                atoms.append(make_upper(xx, WEAK, rng.randint(0, mc)))
        dedup = []
        for a in atoms:
            if a not in dedup:
                dedup.append(a)
        edges.append(Edge(src, dst, Guard(tuple(dedup)), Update.of(upd)))
    clocks = tuple(f"x{i}" for i in range(nc))
    return single_component_network(f"rand{profile.seed}", clocks,
                                    tuple(locations), tuple(edges))
