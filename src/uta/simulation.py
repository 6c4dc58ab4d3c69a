"""Constraint-preserving simulation between zones.

A valuation v is simulated by v' relative to a constraint set G when every
delay step from v that satisfies a constraint of G can be matched from v'.
That pointwise relation lifts to zones existentially: Z is simulated by Z'
when every point of Z has a simulator in Z'.  `sim_zone_prepared` decides
the lifted relation by splitting on diagonal constraints and finishing with
the kernel on each piece.

The kernel, `not_simulated_batch`, refutes the relation for K candidate
zones at once.  The search's subsumption scan calls it on every explored
zone of a location, and the diagonal recursion on one.  Its conditions,
those of the LU-simulation inclusion check (Herbreteau, Srivathsan &
Walukiewicz, LICS 2012) plus the diagonal transfer of G-simulation (Gastin,
Mukherjee & Srivathsan, CONCUR 2018: a diagonal that z meets and zp misses
refutes), are one threshold per matrix entry of the candidate: `prepare`
turns each constraint set into per-clock and per-diagonal thresholds once,
and a query zone turns them into thresholds for row 0, column 0 and the
interior.  The bound rows (`bound_row`: row 0 then column 0, which the
search keeps in one contiguous array) are compared first; only the few
candidates left standing have their interiors read.
"""
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from .analysis import GSet
from .dbm import (
    EMPTY,
    INF,
    LE_ZERO,
    Dbm,
    Triple,
    Zone,
    _add_mat,
    _atom_entry,
    add_bounds,
    constrain,
)


# encoded bound below every finite one: a threshold no entry can go under
NEVER = -INF


@cache
def _diag_thresholds(diags: tuple[Triple, ...]):
    """The interior cells and thresholds of a sorted diagonal set.

    Built once per diagonal set and kept, read-only, so every prepared set
    with the same diagonals shares one pair of arrays.
    """
    i, j, b = np.array(diags, dtype=np.int64).reshape(-1, 3).T
    cell, thr = (j - 1, i - 1), 2 - b
    for a in (*cell, thr):
        a.flags.writeable = False
    return cell, thr


@dataclass(frozen=True, eq=False)
class SimPrepared:
    """Per-constraint-set data reused across many zone comparisons.

    u_thr and l_thr are the per-clock thresholds the kernel compares
    against, l_edge the strongest lower's ray edge behind l_thr, and pairs
    marks the (lower clock y, upper clock x) pairs, x != y, of its
    two-sided condition.  diags holds the diagonal atoms as matrix entries
    (i, j, b), sorted and deduplicated, so atoms with the same entry are one
    diagonal; cell indexes each diagonal's complement entry (j, i) in the
    interior (row j - 1, column i - 1) and thr is its threshold 2 - b.
    """

    diags: tuple[Triple, ...]
    cell: tuple[np.ndarray, np.ndarray]
    thr: np.ndarray
    l_edge: np.ndarray  # 2 - l_thr where the clock has a lower, else 0
    u_thr: np.ndarray  # 1 - the weakest upper's entry, INF without one
    l_thr: np.ndarray  # 2 - the strongest lower's entry, NEVER without one
    pairs: np.ndarray  # (n, n): a lower on y, an upper on x and y != x


def _prepared(u_thr: np.ndarray, l_thr: np.ndarray,
              diags: Iterable[Triple]) -> SimPrepared:
    has_u = u_thr < INF
    has_l = l_thr > NEVER
    pairs = has_l[:, None] & has_u[None, :]
    np.fill_diagonal(pairs, False)
    key = tuple(sorted(set(diags)))
    return SimPrepared(key, *_diag_thresholds(key),
                       np.where(has_l, 2 - l_thr, 0), u_thr, l_thr, pairs)


def prepare(g: GSet, n_clocks: int) -> SimPrepared:
    """Encode g into the matrix bounds the kernel and the recursion read.

    This is the one place where a constraint set becomes matrix entries:
    every atom goes through `dbm._atom_entry`, so a constant outside the
    zone arithmetic's range raises OverflowError here, before any zone is
    compared.  An upper (i, 0, b) binds through its weakest entry and a
    lower (0, j, b) through its strongest, so the thresholds fold as
    u_thr = min(1 - b) and l_thr = max(2 - b).
    """
    u_thr = np.full(n_clocks, INF)
    l_thr = np.full(n_clocks, NEVER)
    for i, j, b in map(_atom_entry, g.nond):
        if j == 0:
            u_thr[i - 1] = min(u_thr[i - 1], 1 - b)
        else:
            l_thr[j - 1] = max(l_thr[j - 1], 2 - b)
    return _prepared(u_thr, l_thr, map(_atom_entry, g.diag))


def prepare_union(parts: Sequence[SimPrepared]) -> SimPrepared:
    """`prepare` of the union of the parts' constraint sets, from the parts.

    The weakest upper of a union is the weakest of the parts' and the
    strongest lower the strongest of theirs, so the thresholds combine
    elementwise: min for u_thr, max for l_thr; the diagonals are the union
    of the parts'.  The search folds each (component, location) once and
    combines the folds per product location.
    """
    return _prepared(np.minimum.reduce([p.u_thr for p in parts]),
                     np.maximum.reduce([p.l_thr for p in parts]),
                     (d for p in parts for d in p.diags))


def bound_row(zp: Dbm) -> np.ndarray:
    """Row 0 then column 0 of zp's matrix, without the reference entry:
    the part of a candidate the kernel's single-sided stage reads."""
    return np.concatenate((zp.m[0, 1:], zp.m[1:, 0]))


def not_simulated_batch(z: Dbm, rows: np.ndarray, zps: Sequence[Dbm],
                        prep: SimPrepared) -> np.ndarray:
    """The kernel: is there a point of z that no point of zp matches?

    z is canonical and non-empty.  zps holds K candidate zones zp and rows,
    shape (K, 2n), their bound rows (`bound_row`); entry k of the returned
    bool mask is True when some point of z has no simulator in candidate k,
    which refutes the simulation.  Search feeds it every explored zone of a
    location at once, the diagonal recursion one candidate (K = 1).

    A witness point v forces a box on v': for each clock x where v meets the
    weakest upper of G, v'(x) <= v(x); for each clock y with a lower in G,
    v'(y) >= min(v(y), the strongest lower's ray edge).  zp misses the box
    exactly when the tightened matrix has a negative cycle, and every such
    cycle threads the reference row, so it uses at most one forced upper and
    one forced lower.  Quantifying v away per cycle shape leaves three
    conditions, each a threshold per matrix entry of zp by two identities:
    for finite encoded a, b, add(a, 1 - b) >= LE_ZERO iff b < a (I1), and
    add(p, l) < LE_ZERO iff p < 2 - l, also for p = INF (I2).

    Row 0 and column 0: a forced upper on x refutes when zp[0, x] < alpha[x],
    with alpha[x] = z[0, x] if z reaches x's upper (z[0, x] > u_thr[x]) and
    NEVER otherwise; a forced lower on y refutes when
    zp[y, 0] < min(z[y, 0], l_thr[y]).  One compare of the bound rows.

    The interior: an upper on x against a lower on y, x != y, closed through
    a finite zp[y, x] (an unbounded one closes no cycle).  It refutes when
    z cut by v(x) <= min(z[x, 0], 1 - u_thr[x], 1 - add(l_edge[y], zp[y, x]))
    and v(x) - v(y) <= min(z[x, y], 1 - zp[y, x]) keeps a point, i.e. when its
    cycles x0+0x, x0+0y+yx, xy+yx and xy+y0+0x are >= LE_ZERO.  Canonicity
    (z[0, x] <= add(z[0, y], z[y, x]), z[y, x] <= add(z[y, 0], z[0, x]))
    puts each three-edge cycle above a two-edge one, and non-emptiness
    (add(z[x, 0], z[0, x]), add(z[x, y], z[y, x]) >= LE_ZERO) settles the
    two-edge cycles through z's own bounds.  Left are: z reaches x's upper,
    the test of alpha; zp[y, x] < z[y, x] by I1; and
    add(l_edge[y], zp[y, x]) < z[0, x] by I1, which is
    zp[y, x] < 2 - add(l_edge[y], 2 - z[0, x]) by I2 and associativity.
    So the interior thresholds are the min of the two bounds on pairs where
    z reaches x's upper, else NEVER.

    The diagonals: a diagonal x_i - x_j <= b of G, the entry (i, j, b),
    must hold for v' whenever it holds for v, since a delay moves both
    clocks.  z meets it when z cut by it is non-empty, i.e. when the cycle
    through the new edge, add(z[j, i], b), is >= LE_ZERO, which is
    z[j, i] >= 2 - b by I2; zp misses it when add(zp[j, i], b) < LE_ZERO,
    which is zp[j, i] < 2 - b by I2.  So a diagonal refutes exactly when
    z[j, i] >= 2 - b > zp[j, i]: the threshold 2 - b on the interior entry
    (j, i) where z meets the diagonal, else NEVER.  A compare against
    several thresholds is one compare against their max, so each met
    diagonal raises `inner` at its entry to its threshold.  Which diagonals
    z meets and where z reaches x's upper hang on z and prep alone, so
    `inner` does too, and only the candidates left standing are compared
    against it.
    """
    zm = z.m
    z0 = zm[0, 1:]
    reach = z0 > prep.u_thr
    thr = np.concatenate((np.where(reach, z0, NEVER),
                          np.minimum(zm[1:, 0], prep.l_thr)))
    out = (rows < thr).any(axis=1)
    if out.all():
        return out
    zd = zm[1:, 1:]
    inner = np.where(prep.pairs & reach[None, :],
                     np.minimum(2 - _add_mat(prep.l_edge[:, None], 2 - z0[None, :]),
                                zd),
                     NEVER)
    np.maximum.at(inner, prep.cell,
                  np.where(zd[prep.cell] >= prep.thr, prep.thr, NEVER))
    todo = np.flatnonzero(~out)
    pd = np.stack([zps[k].m[1:, 1:] for k in todo.tolist()])
    out[todo] = (pd < inner).any(axis=(1, 2))
    return out


def _sim(z: Zone, zp: Zone, diags: tuple[Triple, ...], prep: SimPrepared) -> bool:
    if zp is EMPTY:
        return False
    for k, (i, j, bound) in enumerate(diags):
        cut = ((i, j, bound),)
        rest = diags[k + 1:]
        if int(z.m[i, j]) <= bound:
            # every point of z satisfies phi, so its simulator must as well
            return _sim(z, constrain(zp, cut), rest, prep)
        if add_bounds(int(z.m[j, i]), bound) < LE_ZERO:
            continue  # no point of z satisfies phi: the constraint is inert
        # encoded, the complement of x_i - x_j <= b is x_j - x_i <= 1 - b
        outside = ((j, i, 1 - bound),)
        return (_sim(constrain(z, cut), constrain(zp, cut), rest, prep)
                and _sim(constrain(z, outside), zp, rest, prep))
    return not not_simulated_batch(z, bound_row(zp)[None], (zp,), prep)[0]


def sim_zone_prepared(z: Zone, zp: Zone, prep: SimPrepared) -> bool:
    """Decide whether every point of z, a non-empty zone, has a simulator
    in zp, against a reusable `prepare` result of the constraint set.

    The search calls it only on candidates the batched kernel left
    standing, diagonal stage included, so it goes straight to the diagonal
    recursion: running the kernel on the whole pair first would repeat that
    call's verdict.
    """
    return _sim(z, zp, prep.diags, prep)
