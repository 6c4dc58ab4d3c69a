"""Constraint-preserving simulation between zones.

A valuation v is simulated by v' relative to a constraint set G when every
delay step from v that satisfies a constraint of G can be matched from v'.
That pointwise relation lifts to zones existentially: Z is simulated by Z'
when every point of Z has a simulator in Z'.  `sim_zone_prepared` decides
the lifted relation by splitting on diagonal constraints and finishing with
the kernel on each piece.

The kernel, `not_simulated_batch`, refutes the relation for K candidate
zones at once, and it is the one place its conditions are written.  The
search's subsumption scan calls it on each explored zone of a location
that its compare of keys leaves standing, and the diagonal recursion's
leaves call it on the cut pair.  Its conditions,
those of the LU-simulation inclusion check (Herbreteau, Srivathsan &
Walukiewicz, LICS 2012) plus the diagonal transfer of G-simulation (Gastin,
Mukherjee & Srivathsan, CONCUR 2018: a diagonal that z meets and zp misses
refutes), are one threshold per matrix entry of the candidate: `prepare`
turns each constraint set into per-clock and per-diagonal thresholds once,
and a query zone turns them into thresholds for row 0, column 0 and the
interior.  The thresholds of row 0, column 0 and the diagonals' entries
are one clip: `bound_key` clips the entries G reads to prepared bounds, and
a candidate whose key is below the query's at some entry is refuted, so
one elementwise compare of keys decides those stages in either direction.
The search keeps the keys of a state's zones in one array and compares
them first; only the few candidates left standing have their interiors
read, for the two-sided stage.
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
    _atom_entry,
    add_bounds,
    constrain,
)


# encoded bound below every finite one: a threshold no entry can go under
NEVER = -INF


@dataclass(frozen=True, eq=False)
class SimPrepared:
    """Per-constraint-set data reused across many zone comparisons.

    u_thr and l_thr are the per-clock thresholds the kernel compares
    against, l_edge the strongest lower's ray edge behind l_thr, and pairs
    marks the (lower clock y, upper clock x) pairs, x != y, of its
    two-sided condition.  diags holds the diagonal atoms as matrix entries
    (i, j, b), sorted and deduplicated, so atoms with the same entry are one
    diagonal.  key_idx holds the flat matrix indices of the entries that
    `bound_key` reads and clips to [lo, hi]: row 0 of each clock with an
    upper (lo u_thr, hi INF), column 0 of each clock with a lower (lo NEVER,
    hi l_thr), then the complement entry (j, i) of each diagonal (lo 1 - b,
    hi 2 - b).  key_dtype is int16 when every finite clip bound is within
    +-2^13, int32 when they are within +-2^29, else int64 (see
    `bound_key`).
    """

    diags: tuple[Triple, ...]
    l_edge: np.ndarray  # 2 - l_thr where the clock has a lower, else 0
    u_thr: np.ndarray  # 1 - the weakest upper's entry, INF without one
    l_thr: np.ndarray  # 2 - the strongest lower's entry, NEVER without one
    pairs: np.ndarray  # (n, n): a lower on y, an upper on x and y != x
    key_idx: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    key_dtype: type


@cache
def _diag_keys(diags: tuple[Triple, ...], n1: int):
    """The key entries of a sorted diagonal set in (n1, n1) matrices: the
    flat index of each diagonal's complement entry (j, i), and its clip
    bounds 1 - b and 2 - b.  Built once per diagonal set and kept,
    read-only, since every prepared set with these diagonals reads them."""
    i, j, b = np.array(diags, dtype=np.int64).reshape(-1, 3).T
    out = j * n1 + i, 1 - b, 2 - b
    for a in out:
        a.flags.writeable = False
    return out


def _prepared(u_thr: np.ndarray, l_thr: np.ndarray,
              diags: Iterable[Triple]) -> SimPrepared:
    has_u = u_thr < INF
    has_l = l_thr > NEVER
    pairs = has_l[:, None] & has_u[None, :]
    np.fill_diagonal(pairs, False)
    key = tuple(sorted(set(diags)))
    n1 = len(u_thr) + 1
    d_idx, d_lo, d_hi = _diag_keys(key, n1)
    ux, ly = has_u.nonzero()[0], has_l.nonzero()[0]
    u, l = u_thr[ux], l_thr[ly]
    top = np.abs(np.concatenate((u, l, d_hi))).max(initial=0)
    return SimPrepared(
        key, np.where(has_l, 2 - l_thr, 0), u_thr, l_thr, pairs,
        np.concatenate((ux + 1, (ly + 1) * n1, d_idx)),
        np.concatenate((u, np.full(len(ly), NEVER), d_lo)),
        np.concatenate((np.full(len(ux), INF), l, d_hi)),
        np.int16 if top < 2**13 else np.int32 if top < 2**29 else np.int64)


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


def bound_key(z: Dbm, prep: SimPrepared) -> np.ndarray:
    """The entries of z that G reads, clipped to [lo, hi]: all of a zone
    the kernel's first stage compares (see `not_simulated_batch`).

    Clipped keys are finite.  Clocks are never negative, so z[0, x] <=
    LE_ZERO <= z[y, 0], and every key lies between LE_ZERO and the finite
    clip bounds.  Within +-2^13 they are int16 and within +-2^29 int32
    (prep.key_dtype): two keys still subtract without wrapping, and the
    search stores a quarter or half of the bytes.
    """
    key = z.m.take(prep.key_idx)
    np.maximum(key, prep.lo, out=key)
    np.minimum(key, prep.hi, out=key)
    return key.astype(prep.key_dtype, copy=False)


def _interior(z: Dbm, prep: SimPrepared) -> np.ndarray:
    """The two-sided thresholds of the candidates' interiors m[1:, 1:]."""
    zm = z.m
    z0 = zm[0, 1:]
    # l_edge and 2 - z0 are finite, so their encoded sum needs no INF mask
    a, b = prep.l_edge[:, None], 2 - z0
    return np.where(prep.pairs & (z0 > prep.u_thr),
                    np.minimum(2 - (a + b - ((a | b) & 1)), zm[1:, 1:]), NEVER)


def not_simulated_batch(z: Dbm, keys: np.ndarray, zps: Sequence[Dbm],
                        prep: SimPrepared, key: np.ndarray) -> np.ndarray:
    """The kernel: is there a point of z that no point of zp matches?

    z is canonical and non-empty, and key is its key (`bound_key`).  zps
    holds K candidate zones zp and keys, shape (K, w), their keys; entry k
    of the returned bool mask is True when some point of z has no simulator
    in candidate k, which refutes the simulation.  Every caller already
    holds both keys: the search stores them, and the diagonal recursion's
    leaves compute them on the cut pair.

    A witness point v forces a box on v': for each clock x where v meets the
    weakest upper of G, v'(x) <= v(x); for each clock y with a lower in G,
    v'(y) >= min(v(y), the strongest lower's ray edge).  zp misses the box
    exactly when the tightened matrix has a negative cycle, and every such
    cycle threads the reference row, so it uses at most one forced upper and
    one forced lower.  Quantifying v away per cycle shape leaves three
    conditions, each a threshold per matrix entry of zp by two identities:
    for finite encoded a, b, add(a, 1 - b) >= LE_ZERO iff b < a (I1), and
    add(p, l) < LE_ZERO iff p < 2 - l, also for p = INF (I2).  A diagonal of
    G adds a fourth.

    Row 0 and column 0: a forced upper on x refutes when zp[0, x] < alpha[x],
    with alpha[x] = z[0, x] if z reaches x's upper (z[0, x] > u_thr[x]) and
    NEVER otherwise; a forced lower on y refutes when
    zp[y, 0] < min(z[y, 0], l_thr[y]).

    The diagonals: a diagonal x_i - x_j <= b of G, the entry (i, j, b),
    must hold for v' whenever it holds for v, since a delay moves both
    clocks.  z meets it when z cut by it is non-empty, i.e. when the cycle
    through the new edge, add(z[j, i], b), is >= LE_ZERO, which is
    z[j, i] >= 2 - b by I2; zp misses it when add(zp[j, i], b) < LE_ZERO,
    which is zp[j, i] < 2 - b by I2.  So a diagonal refutes exactly when
    z[j, i] >= 2 - b > zp[j, i].

    All three are one compare of clipped keys, key(zp) < key(z) at some
    entry, with key = min(max(entry, lo), hi) (`bound_key`):
    - row 0, lo = u_thr[x] and hi = INF.  If z[0, x] > u_thr[x], key(z) is
      z[0, x], and max(zp[0, x], u_thr[x]) < z[0, x] iff zp[0, x] < z[0, x],
      since u_thr[x] < z[0, x] already.  Otherwise key(z) = u_thr[x] and no
      max with u_thr[x] is below it, as alpha[x] = NEVER refutes nothing.
    - column 0, lo = NEVER and hi = l_thr[y].  min(zp[y, 0], l) <
      min(z[y, 0], l) <= l forces min(zp[y, 0], l) = zp[y, 0], so it holds
      iff zp[y, 0] < min(z[y, 0], l).
    - entry (j, i) of a diagonal, lo = 1 - b and hi = 2 - b.  Entries are
      integers, so the key is 2 - b where the zone meets the diagonal and
      1 - b where it does not, and key(zp) < key(z) iff z meets it and zp
      misses it.  A diagonal with the same complement entry as another is a
      key entry of its own.
    A clock without an upper (u_thr = INF) or a lower (l_thr = NEVER) has a
    threshold no entry is below, so its entry is left out of the key.  With
    the roles of z and zp swapped, the same keys refute the reverse
    relation, "zp simulated by z", when key(z) < key(zp).

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
    z reaches x's upper, else NEVER.  They hang on z and prep alone, and
    only the candidates the keys leave standing are compared against them.
    """
    out = (keys < key).any(axis=1)
    if out.all():
        return out
    todo = (~out).nonzero()[0]
    pd = np.array([zps[k].m[1:, 1:] for k in todo.tolist()])
    out[todo] = (pd < _interior(z, prep)).any(axis=(1, 2))
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
    # a leaf: every diagonal is settled (z inside it or outside it, zp cut
    # by it), so no diagonal entry of the keys refutes here
    return not not_simulated_batch(z, bound_key(zp, prep)[None], (zp,), prep,
                                   bound_key(z, prep))[0]


def sim_zone_prepared(z: Zone, zp: Zone, prep: SimPrepared) -> bool:
    """Decide whether every point of z, a non-empty zone, has a simulator
    in zp, against a reusable `prepare` result of the constraint set.

    The search calls it only on candidates the kernel left standing, so
    it goes straight to the diagonal recursion: running the kernel on the
    whole pair first would repeat that call's verdict.
    """
    return _sim(z, zp, prep.diags, prep)
