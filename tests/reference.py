"""Reference forms that only the tests use.

Each one restates something the program computes another way, builds test
inputs, or shows a value for a failure message: zones built from constraint
conjunctions, the zone image of an update directly and through its
defining relation, closure of an arbitrary bound matrix, exact point
membership, plain zone equality and printing, building, complementing and
delaying constraints and valuations, constraint satisfaction and updates
of a single valuation, the empty constraint set, the worst-case release
pattern, pointwise simulation, the zone simulation decided by region
enumeration from the definition, the per-clock LU bounds of a constraint
set, the syntactic boundedness test and the capping transform behind it,
the preimage of a constraint under an update case by case and through
its matrix entry, the guard-context cut by a scan of the context, the
backward propagation one atom at a time (`wp`, the oracle of the
analysis's compiled per-edge propagation), the base sets
of the constraint analysis, one synchronous propagation sweep of it, the
analysis swept until a constant exceeds its bound, the plain-preimage
analysis that the guard-aware one replaces, the constraint set of a
product location as the union of its components' sets, and the runs of a
bounded one-counter automaton.
"""
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from uta import simulation
from uta.analysis import (
    GMap,
    GSet,
    PropagationSequence,
    Status,
    _chain,
    _find_cycle,
    analysis_bounds,
    edge_context,
    nonneg_source,
)
from uta.benchgen import CounterAutomaton, ReleasePattern
from uta.dbm import (
    EMPTY,
    INF,
    LE_ZERO,
    Dbm,
    Zone,
    _add_mat,
    _freeze,
    _image,
    _substitution,
    compile_step,
    constrain,
    encode_atoms,
    encode_bound,
)
from uta.model import (
    BOTTOM,
    STRICT,
    TOP,
    WEAK,
    AtomicConstraint,
    Automaton,
    Const,
    Guard,
    Kind,
    Shift,
    Strictness,
    Update,
    eval_const_cmp,
    from_entry,
    make_lower,
    make_lower_diag,
    make_upper,
    make_upper_diag,
)
from uta.search import ProductLoc

Number = Union[int, Fraction]
Valuation = Mapping[int, Number]


def universe(n_clocks: int) -> Dbm:
    size = n_clocks + 1
    m = np.full((size, size), INF, dtype=np.int64)
    m[0, :] = LE_ZERO
    np.fill_diagonal(m, LE_ZERO)
    return _freeze(m)


def initial_zone(n_clocks: int) -> Dbm:
    """All clocks equal, nonnegative, unbounded above."""
    size = n_clocks + 1
    m = np.full((size, size), LE_ZERO, dtype=np.int64)
    m[1:, 0] = INF
    return _freeze(m)


def intersect_all(d: Zone, atoms: Iterable[AtomicConstraint]) -> Zone:
    return constrain(d, encode_atoms(atoms))


def zone_of(n_clocks: int, atoms: Iterable[AtomicConstraint]) -> Zone:
    """Zone of a constraint conjunction (clocks only lower-bounded by 0)."""
    return intersect_all(universe(n_clocks), atoms)


def apply_update(d: Dbm, up: Update) -> Zone:
    """Exact image of the zone under a simultaneous update."""
    step = compile_step((), up, d.n)
    return _image(constrain(d, step.cut), step)


def decode_bound(b: int) -> Optional[tuple[int, Strictness]]:
    """None for infinity, else (value, strictness)."""
    if b >= INF:
        return None
    return (int(b) >> 1, WEAK if b & 1 else STRICT)


def _close(m: np.ndarray) -> bool:
    """All-pairs tightening in place; False when a diagonal goes negative."""
    size = m.shape[0]
    for k in range(size):
        cand = _add_mat(m[:, k : k + 1], m[k : k + 1, :])
        np.minimum(m, cand, out=m)
    if (np.diagonal(m) < LE_ZERO).any():
        return False
    np.fill_diagonal(m, LE_ZERO)
    return True


def canonicalize(m: np.ndarray) -> Zone:
    """Close an arbitrary bound matrix; detects emptiness."""
    work = np.array(m, dtype=np.int64)
    if not _close(work):
        return EMPTY
    return _freeze(work)


def membership(d: Zone, v) -> bool:
    """Exact rational membership; v maps clock index to a number."""
    if d is EMPTY:
        return False
    n = d.n
    vals = [Fraction(0)] + [Fraction(v[x]) for x in range(n)]
    for i in range(n + 1):
        for j in range(n + 1):
            dec = decode_bound(int(d.m[i, j]))
            if dec is None:
                continue
            bound, s = dec
            diff = vals[i] - vals[j]
            if not (diff < bound if s is STRICT else diff <= bound):
                return False
    return True


def apply_update_relational(d: Dbm, up: Update) -> Zone:
    """Image of d under up via primed-variable extension.

    Builds a (2n+1)-sized relation {(v, v') | v' = up(v)}, closes it, and
    projects onto the primed block.  Slower than `apply_update` but
    follows the defining relation directly.
    """
    n = d.n
    size = 2 * n + 1
    ext = np.full((size, size), INF, dtype=np.int64)
    ext[: n + 1, : n + 1] = d.m
    src, off = _substitution(up, n)
    for i in range(1, n + 1):
        pi = n + i
        s, dd = int(src[i]), int(off[i])
        # x'_i - x_s <= d and x_s - x'_i <= -d
        ext[pi, s] = min(ext[pi, s], encode_bound(dd, WEAK))
        ext[s, pi] = min(ext[s, pi], encode_bound(-dd, WEAK))
        ext[0, pi] = min(ext[0, pi], LE_ZERO)  # x'_i >= 0
    np.fill_diagonal(ext, LE_ZERO)
    if not _close(ext):
        return EMPTY
    idx = np.concatenate(([0], np.arange(n + 1, 2 * n + 1)))
    return _freeze(np.array(ext[np.ix_(idx, idx)]))


def equals(a: Zone, b: Zone) -> bool:
    if a is EMPTY or b is EMPTY:
        return (a is EMPTY) == (b is EMPTY)
    return np.array_equal(a.m, b.m)


def bound_str(b: int) -> str:
    dec = decode_bound(b)
    if dec is None:
        return "inf"
    v, s = dec
    return f"{s.symbol}{v}"


def dump(d: Zone, clock_names: Sequence[str] = ()) -> str:
    if d is EMPTY:
        return "empty"
    n = d.n
    names = ["0"] + [
        clock_names[i] if i < len(clock_names) else f"x{i}" for i in range(n)
    ]
    width = max(6, max(len(s) for s in names) + 4)
    lines = [" " * width + "".join(f"{nm:>{width}}" for nm in names)]
    for i in range(n + 1):
        row = "".join(f"{bound_str(int(d.m[i, j])):>{width}}" for j in range(n + 1))
        lines.append(f"{names[i]:>{width}}" + row)
    return "\n".join(lines)


def delayed(v: Valuation, delta: Number) -> dict[int, Number]:
    return {x: val + delta for x, val in v.items()}


def satisfies(v: Valuation, phi: AtomicConstraint) -> bool:
    if phi.kind is Kind.TOP:
        return True
    if phi.kind is Kind.BOTTOM:
        return False
    if phi.kind is Kind.UPPER:
        lhs, rhs = v[phi.x], phi.constant
    elif phi.kind is Kind.LOWER:
        lhs, rhs = phi.constant, v[phi.x]
    elif phi.kind is Kind.UPPER_DIAG:
        lhs, rhs = v[phi.x] - v[phi.y], phi.constant
    else:
        lhs, rhs = phi.constant, v[phi.x] - v[phi.y]
    return lhs < rhs if phi.strictness is STRICT else lhs <= rhs


def apply_update_point(up: Update, v: Valuation) -> Optional[dict[int, Number]]:
    """Apply all assignments simultaneously over the pre-valuation.

    Returns None when some clock would go negative (the transition is
    disabled at ``v``).
    """
    out = dict(v)
    for x, u in up.entries:
        val = u.value if isinstance(u, Const) else v[u.source] + u.offset
        if val < 0:
            return None
        out[x] = val
    return out


def normalize_atomic(
    kind: Kind,
    x: Optional[int],
    y: Optional[int],
    strictness: Strictness,
    constant: int,
) -> AtomicConstraint:
    """Build a normalized constraint from a raw (possibly negative) constant."""
    if kind is Kind.UPPER:
        return make_upper(x, strictness, constant)
    if kind is Kind.LOWER:
        return make_lower(x, strictness, constant)
    if kind is Kind.UPPER_DIAG:
        return make_upper_diag(x, y, strictness, constant)
    if kind is Kind.LOWER_DIAG:
        return make_lower_diag(x, y, strictness, constant)
    raise ValueError(f"cannot normalize kind {kind}")


def negate_atomic(phi: AtomicConstraint) -> AtomicConstraint:
    """Complement of an atomic constraint (flips side and strictness)."""
    if phi.kind is Kind.TOP:
        return BOTTOM
    if phi.kind is Kind.BOTTOM:
        return TOP
    flipped = STRICT if phi.strictness is WEAK else WEAK
    if phi.kind is Kind.UPPER:
        return make_lower(phi.x, flipped, phi.constant)
    if phi.kind is Kind.LOWER:
        return make_upper(phi.x, flipped, phi.constant)
    if phi.kind is Kind.UPPER_DIAG:
        return make_lower_diag(phi.x, phi.y, flipped, phi.constant)
    return make_upper_diag(phi.x, phi.y, flipped, phi.constant)


EMPTY_GSET = GSet(frozenset(), frozenset())
WORST_CASE = ReleasePattern("worstcase")


def sim_point(v: Valuation, vp: Valuation, g: GSet) -> bool:
    """Pointwise simulation: v' can mimic every G-relevant delay of v."""
    for phi in g.nond:
        if phi.kind is Kind.UPPER:
            if satisfies(v, phi) and not vp[phi.x] <= v[phi.x]:
                return False
        else:
            if not satisfies(vp, phi) and not v[phi.x] <= vp[phi.x]:
                return False
    for phi in g.diag:
        # delay shifts both clocks, so diagonal satisfaction must transfer
        if satisfies(v, phi) and not satisfies(vp, phi):
            return False
    return True



@dataclass(frozen=True, eq=False)
class SimQuery:
    """One zone-simulation question: is every point of z simulated by a
    point of zp relative to g?"""

    z: Dbm
    zp: Dbm
    g: GSet


def sim_zone(q: SimQuery) -> bool:
    """The program's decision of q, with q.g prepared for this query alone.

    `prepare` is looked up through its module, so that a test can replace
    the fold and see the oracle disagree.
    """
    if q.z is EMPTY:
        return True
    if q.zp is EMPTY:
        return False
    return simulation.sim_zone_prepared(q.z, q.zp, simulation.prepare(q.g, q.z.n))


def threshold_refutes(z: Dbm, zp: Dbm, prep: simulation.SimPrepared) -> bool:
    """The kernel's single-sided and diagonal stages written as thresholds,
    as the kernel computed them before they became one compare of clipped
    keys (`simulation.bound_key`): does something refute "z simulated by
    zp"?

    Row 0 of zp against z[0, x] where z reaches x's upper (z[0, x] above
    u_thr[x]), else NEVER; column 0 against min(z[y, 0], l_thr[y]); and a
    diagonal (i, j, b) where z meets it (z[j, i] >= 2 - b) and zp misses it
    (zp[j, i] < 2 - b).
    """
    never = -INF
    z0 = z.m[0, 1:]
    thr = np.concatenate((np.where(z0 > prep.u_thr, z0, never),
                          np.minimum(z.m[1:, 0], prep.l_thr)))
    row = np.concatenate((zp.m[0, 1:], zp.m[1:, 0]))
    return bool((row < thr).any()) or any(
        z.m[j, i] >= 2 - b > zp.m[j, i] for i, j, b in prep.diags)


_INF_PY = 1 << 60


def _py_add(a: int, b: int) -> int:
    if a >= _INF_PY or b >= _INF_PY:
        return _INF_PY
    return a + b - ((a | b) & 1)


def _enc(value: int, weak: bool) -> int:
    """``< value`` or ``<= value`` in the zone matrices' bound encoding."""
    return 2 * value + weak


def _scale_enc(b: int, s: int) -> int:
    return _enc((b >> 1) * s, b & 1)


def _scaled_matrix(d: Dbm, s: int) -> list:
    size = d.n + 1
    out = [[_INF_PY] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            v = int(d.m[i, j])
            out[i][j] = _INF_PY if v >= INF else _scale_enc(v, s)
    return out


def _zone_max_const(d: Dbm) -> int:
    worst = 0
    for v in d.m.flat:
        v = int(v)
        if v < INF:
            worst = max(worst, abs(v >> 1))
    return worst


def _mini_empty(m: list) -> bool:
    size = len(m)
    for k in range(size):
        row_k = m[k]
        for i in range(size):
            mik = m[i][k]
            if mik >= _INF_PY:
                continue
            row_i = m[i]
            for j in range(size):
                cand = _py_add(mik, row_k[j])
                if cand < row_i[j]:
                    row_i[j] = cand
    return any(m[i][i] < LE_ZERO for i in range(size))


def _matched(ks: list, s: int, g: GSet) -> list[tuple[int, int, int]]:
    """The simulators of the point v = ks / s relative to g, as bounds
    (i, j, b) on v'(i) - v'(j) scaled by s, index 0 the constant 0.

    Built from the atoms by the definition of the simulation (the LU
    conditions of Herbreteau, Srivathsan & Walukiewicz, LICS 2012, with
    diagonal transfer as in Gastin, Mukherjee & Srivathsan, CONCUR 2018):
    an upper that v meets gives v'(x) <= v(x); a lower gives v'(x) >= v(x)
    or else v' meets it, the weaker of the two rays; a diagonal that v
    meets must hold for v' too.
    """
    v = {x: Fraction(k, s) for x, k in enumerate(ks)}
    out = []
    for phi in g.nond:
        x, weak = phi.x, phi.strictness is WEAK
        if phi.kind is Kind.UPPER:
            if satisfies(v, phi):
                out.append((x + 1, 0, _enc(ks[x], True)))
        else:
            out.append((0, x + 1, max(_enc(-ks[x], True),
                                      _enc(-phi.constant * s, weak))))
    for phi in g.diag:
        if satisfies(v, phi):
            x, y, weak = phi.x + 1, phi.y + 1, phi.strictness is WEAK
            if phi.kind is Kind.UPPER_DIAG:
                out.append((x, y, _enc(phi.constant * s, weak)))
            else:
                out.append((y, x, _enc(-phi.constant * s, weak)))
    return out


def brute_force_sim(q: SimQuery, max_const: int) -> bool:
    """Decide the zone simulation by enumerating one point per region of q.z.

    Valuations are scanned on the grid of step 1/(2(|X|+1)) up to max_const+1
    per coordinate; a point's verdict depends only on its region relative to
    the integer constants involved, so each region signature is tested once.
    For each point, the bounds of `_matched` cut q.zp, and a local
    all-pairs pass decides emptiness.  Neither reads the program's
    encoding of q.g.

    A found counterexample refutes the simulation outright.  An exhausted
    scan proves it only when q.z fits inside the scanned box: with clocks of
    q.z reaching past max_const+1, a constrained far-out point can satisfy a
    diagonal of G that no scanned point satisfies, so completion proves
    nothing and the call is rejected as inconclusive.
    """
    n = q.z.n
    if n > 4:
        raise ValueError(f"oracle limited to 4 clocks, got {n}")
    worst = max(_zone_max_const(q.z), _zone_max_const(q.zp))
    for phi in q.g:
        worst = max(worst, phi.constant)
    if worst > max_const:
        raise ValueError(f"constant {worst} above oracle bound {max_const}")
    if n == 0:
        return True

    s = 2 * (n + 1)
    limit = s * (max_const + 1)
    zs = _scaled_matrix(q.z, s)
    ps = _scaled_matrix(q.zp, s)
    cap = max_const + 1
    seen = set()

    def ranges(ks: list, x: int) -> range:
        lo, hi = 0, limit
        row, col = zs[x + 1], [zs[i][x + 1] for i in range(n + 1)]
        b = row[0]
        if b < _INF_PY:
            hi = min(hi, (b >> 1) - (1 - (b & 1)))
        b = col[0]
        if b < _INF_PY:
            lo = max(lo, -(b >> 1) + (1 - (b & 1)))
        for y in range(x):
            b = row[y + 1]  # k_x - k_y bounded above
            if b < _INF_PY:
                hi = min(hi, ks[y] + (b >> 1) - (1 - (b & 1)))
            b = col[y + 1]  # k_y - k_x bounded above
            if b < _INF_PY:
                lo = max(lo, ks[y] - (b >> 1) + (1 - (b & 1)))
        return range(lo, hi + 1)

    def signature(ks: list) -> tuple:
        parts = [(min(k // s, cap), k % s == 0) for k in ks]
        for x in range(n):
            for y in range(x + 1, n):
                d = ks[x] - ks[y]
                fx, fy = ks[x] % s, ks[y] % s
                parts.append((max(-cap - 1, min(cap + 1, d // s)),
                              (fx > fy) - (fx < fy)))
        return tuple(parts)

    def simulated(ks: list) -> bool:
        m = [row[:] for row in ps]
        for i, j, b in _matched(ks, s, q.g):
            m[i][j] = min(m[i][j], b)
        return not _mini_empty(m)

    def walk(ks: list, x: int) -> bool:
        if x == n:
            sig = signature(ks)
            if sig in seen:
                return True
            seen.add(sig)
            return simulated(ks)
        for k in ranges(ks, x):
            ks.append(k)
            ok = walk(ks, x + 1)
            ks.pop()
            if not ok:
                return False
        return True

    if not walk([], 0):
        return False
    boxed = all(zs[x + 1][0] <= 2 * limit + 1 for x in range(n))
    if not boxed:
        raise ValueError("unbounded zone on the left: exhaustive scan inconclusive")
    return True


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

def up_inverse(phi: AtomicConstraint, up: Update) -> AtomicConstraint:
    """Preimage of an atomic constraint under an update, normalized, one
    atom at a time: the oracle of the preimage half of `analysis.Propagation`.

    Characterized by: v satisfies the result iff up(v) satisfies phi,
    whenever up(v) is defined.  Through ``x_i := x_si + oi``
    (`Update.source`) phi's entry ``x_i - x_j < c`` becomes
    ``x_si - x_sj < c - oi + oj``, a zero-constant difference in phi's
    orientation.
    """
    i, j, s, c = phi.entry()
    si, oi = up.source(i)
    sj, oj = up.source(j)
    return from_entry(si, sj, s, c - oi + oj, phi.kind is Kind.LOWER_DIAG)


def table_cut(
    psi: AtomicConstraint, guard_atoms: Sequence[AtomicConstraint]
) -> AtomicConstraint:
    """Weaken a propagated constraint using the edge's guard context, by a
    scan of the context atoms: the oracle of the cut half of
    `analysis.Propagation`.

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
    """Backward propagation, preimage then guard-context cut, one atom and
    one context scan at a time: what `analysis.Propagation` computes."""
    return table_cut(up_inverse(phi, up), guard_atoms)


def case_up_inverse(phi: AtomicConstraint, up: Update) -> AtomicConstraint:
    """Preimage of an atomic constraint under an update, case by case.

    Characterized by: v satisfies the result iff up(v) satisfies phi,
    whenever up(v) is defined.
    """
    if phi.is_trivial:
        return phi
    written = dict(up.entries)

    def get(x: int):
        return written.get(x, Shift(x, 0))

    s, c = phi.strictness, phi.constant
    if phi.kind is Kind.UPPER:
        u = get(phi.x)
        if isinstance(u, Const):
            return eval_const_cmp(u.value, s, c)
        return make_upper(u.source, s, c - u.offset)
    if phi.kind is Kind.LOWER:
        u = get(phi.x)
        if isinstance(u, Const):
            return eval_const_cmp(c, s, u.value)
        return make_lower(u.source, s, c - u.offset)
    ux, uy = get(phi.x), get(phi.y)
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


def plain_preimage(
    phi: AtomicConstraint,
    guard_atoms: Sequence[AtomicConstraint],
    up: Update,
) -> AtomicConstraint:
    """The plain backward propagation: the preimage that `wp` cuts, guard
    context unused."""
    return up_inverse(phi, up)


def base_records(a: Automaton, prop=wp) -> list[tuple[int, AtomicConstraint]]:
    """The analysis's base constraints with prop for `wp`, by location:
    invariant atoms, then per outgoing edge its guard atoms and the images
    of 0 <= x under prop; trivial ones and repeats dropped."""
    records: dict[tuple[int, AtomicConstraint], None] = {}
    for q, loc in enumerate(a.locations):
        atoms = list(loc.invariant.clock_atoms)
        for ei, e in enumerate(a.edges):
            if e.src == q:
                atoms += e.guard.clock_atoms
                atoms += [prop(nonneg_source(x), edge_context(a, ei), e.update)
                          for x in range(len(a.clock_names))]
        records.update(((q, phi), None) for phi in atoms if not phi.is_trivial)
    return list(records)


def g0(a: Automaton, prop=wp) -> tuple[GSet, ...]:
    """Base constraint sets: guard atoms, nonnegativity images, invariants."""
    sets: list[list[AtomicConstraint]] = [[] for _ in a.locations]
    for q, phi in base_records(a, prop):
        sets[q].append(phi)
    return tuple(GSet.of(s) for s in sets)


def kleene_step(
    current: Sequence[Iterable[AtomicConstraint]],
    a: Automaton,
    prop=wp,
) -> tuple[tuple[GSet, ...], list[tuple[int, AtomicConstraint, int, AtomicConstraint]]]:
    """One synchronous propagation sweep over all edges.

    Returns the pointwise-enlarged sets and the newly added records as
    (location, constraint, via-edge, parent-constraint) tuples.
    """
    cur = [set(g) for g in current]
    new = [set(g) for g in cur]
    added: list[tuple[int, AtomicConstraint, int, AtomicConstraint]] = []
    for ei, e in enumerate(a.edges):
        ctx = edge_context(a, ei)
        for phi in sorted(cur[e.dst], key=AtomicConstraint.sort_key):
            psi = prop(phi, ctx, e.update)
            if psi.is_trivial or psi in new[e.src]:
                continue
            new[e.src].add(psi)
            added.append((e.src, psi, ei, phi))
    return tuple(GSet.of(s) for s in new), added


def check_syntactically_bounded(a: Automaton) -> bool:
    """Updates restricted to resets and guarded self-subtractions."""
    for e in a.edges:
        for x, u in e.update.entries:
            if isinstance(u, Const):
                if u.value != 0:
                    return False
                continue
            if u.source != x or u.offset > 0:
                return False
            if u.offset < 0 and not any(
                g.kind is Kind.UPPER and g.x == x for g in e.guard.clock_atoms
            ):
                return False
    return True


def bound_transform(a: Automaton, m_x: Mapping[int, int]) -> Automaton:
    """Add x <= M_x guards on every subtracting edge.

    Only valid for automata whose updates are resets or self-subtractions;
    the result passes check_syntactically_bounded.
    """
    new_edges = []
    for e in a.edges:
        needs: list[int] = []
        for x, u in e.update.entries:
            if isinstance(u, Const):
                if u.value != 0:
                    raise ValueError(f"update {a.name}: x := {u.value} is not a reset")
                continue
            if u.source != x or u.offset > 0:
                raise ValueError(f"update in {a.name} is not a self-subtraction")
            if u.offset < 0:
                needs.append(x)
        atoms = list(e.guard.clock_atoms)
        for x in needs:
            cap = make_upper(x, WEAK, m_x[x])
            if cap not in atoms:
                atoms.append(cap)
        new_edges.append(replace(e, guard=Guard(tuple(atoms), e.guard.int_atoms)))
    return replace(a, edges=tuple(new_edges))


def sweep_gmap(
    a: Automaton,
    budget_override: Optional[int] = None,
    prop=wp,
) -> GMap:
    """`compute_gmap` without cycle detection: it sweeps on until some
    propagated constant exceeds N, and the witness is the recorded chain to
    the first such constant of that sweep (by location).  N bounds only
    `wp`'s constants; with another prop the sweep can only converge or
    exhaust the budget."""
    bounds = analysis_bounds(a)
    budget = bounds.budget if budget_override is None else budget_override
    if budget == 0 and budget_override is None:
        q, x = bounds.n_locations, bounds.n_clocks
        budget = q * 4 * x * (x + 1) + 1
    sets: list[set[AtomicConstraint]] = [set() for _ in a.locations]
    parent: dict = {}
    frontier: list[tuple[int, AtomicConstraint]] = []
    for q, phi in base_records(a, prop):
        if phi not in sets[q]:
            sets[q].add(phi)
            parent[(q, phi)] = None
            frontier.append((q, phi))
    edges_by_dst: dict[int, list[int]] = defaultdict(list)
    for ei, e in enumerate(a.edges):
        edges_by_dst[e.dst].append(ei)
    contexts = [edge_context(a, ei) for ei in range(len(a.edges))]
    steps = 0

    def result(status: Status, witness=None) -> GMap:
        return GMap(status, tuple(GSet.of(s) for s in sets), steps, bounds,
                    budget, witness)

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
        if prop is wp:
            for q, phi in sorted(new_frontier, key=lambda r: r[0]):
                if phi.constant > bounds.N:
                    chain = _chain(q, phi, parent)
                    return result(Status.DIVERGED, PropagationSequence(
                        tuple(chain), _find_cycle(chain, bounds)))
        if steps > budget:
            return result(Status.BUDGET_EXHAUSTED)
        frontier = new_frontier
    return result(Status.CONVERGED)


def plain_gmap(a: Automaton, budget_override: Optional[int] = None) -> GMap:
    """The plain-preimage analysis that the guard-aware one replaces: the
    sweep with `plain_preimage` for `wp`, base sets included.  Nothing cuts
    its constants, so it converges or exhausts the budget."""
    return sweep_gmap(a, budget_override, plain_preimage)


def product_gset(gmaps: Sequence[GMap], loc: ProductLoc) -> GSet:
    """Union of the per-component constraint sets at loc (integers ignored)."""
    nond = frozenset().union(*(g.sets[q].nond for g, q in zip(gmaps, loc.locs)))
    diag = frozenset().union(*(g.sets[q].diag for g, q in zip(gmaps, loc.locs)))
    return GSet(nond, diag)


def counter_run(b: CounterAutomaton):
    """Shortest run (state, value) ... to the target, or None."""
    start = (b.initial, 0)
    parent: dict[tuple[str, int], Optional[tuple[str, int]]] = {start: None}
    queue = deque([start])
    goal = None
    while queue:
        cur = queue.popleft()
        if cur[0] == b.target:
            goal = cur
            break
        state, value = cur
        for src, p, dst in b.transitions:
            if src != state:
                continue
            nxt = (dst, value + p)
            if 0 <= nxt[1] <= b.bound and nxt not in parent:
                parent[nxt] = cur
                queue.append(nxt)
    if goal is None:
        return None
    path = []
    at: Optional[tuple[str, int]] = goal
    while at is not None:
        path.append(at)
        at = parent[at]
    return tuple(reversed(path))


def counter_reach_oracle(b: CounterAutomaton) -> bool:
    return counter_run(b) is not None
