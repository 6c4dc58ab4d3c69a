"""Reference forms that only the tests use.

Each one restates something the program computes another way, or shows a
value for a failure message: the zone image of an update through its
defining relation, closure of an arbitrary bound matrix, exact point
membership, plain zone equality and printing, building, complementing and
delaying constraints and valuations, pointwise simulation, one synchronous
propagation sweep of the constraint analysis, and the constraint set of a
product location as the union of its components' sets.
"""
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from uta.analysis import GMap, GSet, Mode, edge_context, propagation
from uta.dbm import (
    EMPTY,
    INF,
    LE_ZERO,
    Dbm,
    Zone,
    _add_mat,
    _freeze,
    _substitution,
    encode_bound,
)
from uta.model import (
    BOTTOM,
    STRICT,
    TOP,
    WEAK,
    AtomicConstraint,
    Automaton,
    Kind,
    Number,
    Strictness,
    Update,
    Valuation,
    make_lower,
    make_lower_diag,
    make_upper,
    make_upper_diag,
    satisfies,
)
from uta.search import ProductLoc


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
    projects onto the primed block.  Slower than `dbm.apply_update` but
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


def kleene_step(
    current: Sequence[Iterable[AtomicConstraint]],
    a: Automaton,
    mode: Mode = Mode.REDUCED,
) -> tuple[tuple[GSet, ...], list[tuple[int, AtomicConstraint, int, AtomicConstraint]]]:
    """One synchronous propagation sweep over all edges.

    Returns the pointwise-enlarged sets and the newly added records as
    (location, constraint, via-edge, parent-constraint) tuples.
    """
    prop = propagation(mode)
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


def product_gset(gmaps: Sequence[GMap], loc: ProductLoc) -> GSet:
    """Union of the per-component constraint sets at loc (integers ignored)."""
    nond = frozenset().union(*(g.at(q).nond for g, q in zip(gmaps, loc.locs)))
    diag = frozenset().union(*(g.at(q).diag for g, q in zip(gmaps, loc.locs)))
    return GSet(nond, diag)
