"""Reference forms that only the tests use.

Each one restates something the program computes another way, or shows a
value for a failure message: the zone image of an update through its
defining relation, plain zone equality and printing, a delay on a
valuation, one synchronous propagation sweep of the constraint analysis,
and the constraint set of a product location as the union of its
components' sets.
"""
from typing import Iterable, Sequence

import numpy as np

from uta.analysis import GMap, GSet, Mode, edge_context, up_inverse, wp
from uta.dbm import (
    EMPTY,
    INF,
    LE_ZERO,
    Dbm,
    Zone,
    _close,
    _freeze,
    _substitution,
    decode_bound,
    encode_bound,
)
from uta.model import WEAK, AtomicConstraint, Automaton, Number, Update, Valuation
from uta.search import ProductLoc


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


def kleene_step(
    current: Sequence[Iterable[AtomicConstraint]],
    a: Automaton,
    mode: Mode = Mode.REDUCED,
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
            if mode is Mode.REDUCED:
                psi = wp(phi, ctx, e.update)
            else:
                psi = up_inverse(phi, e.update)
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
