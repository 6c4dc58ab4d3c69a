"""Constraint-preserving simulation between zones.

A valuation v is simulated by v' relative to a constraint set G when every
delay step from v that satisfies a constraint of G can be matched from v'.
That pointwise relation lifts to zones existentially: Z is simulated by Z'
when every point of Z has a simulator in Z'.  `sim_zone` decides the lifted
relation by splitting on diagonal constraints and finishing with the
non-diagonal check; `brute_force_sim` re-decides it by region enumeration
and serves as the testing oracle for that check.

The non-diagonal check is one kernel, `not_simulated_batch`, over K candidate
zones.  The search's subsumption scan calls it on every explored zone of a
location at once, and the diagonal recursion on one.  Its conditions, those
of the LU-simulation inclusion check (Herbreteau, Srivathsan & Walukiewicz,
LICS 2012), are one threshold per matrix entry of the candidate: `prepare`
turns each constraint set into per-clock thresholds once, and a query zone
turns them into thresholds for row 0, column 0 and the interior.  The bound
rows (`bound_row`: row 0 then column 0, which the search keeps in one
contiguous array) are compared first; only the few candidates left standing
have their interiors read.
"""
from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True, eq=False)
class SimPrepared:
    """Per-constraint-set data reused across many zone comparisons.

    has_u/u_enc and has_l/l_edge are the per-clock aggregates; u_thr and
    l_thr are the thresholds the kernel compares against, and pairs marks
    the (lower clock y, upper clock x) pairs, x != y, of its two-sided
    condition.  diags holds the diagonal atoms as matrix entries, sorted and
    deduplicated, so atoms with the same entry are one diagonal.
    """

    diags: tuple[Triple, ...]
    has_u: np.ndarray
    u_enc: np.ndarray
    has_l: np.ndarray
    l_edge: np.ndarray
    u_thr: np.ndarray  # 1 - u_enc where has_u, else INF
    l_thr: np.ndarray  # 2 - l_edge where has_l, else NEVER
    pairs: np.ndarray  # (n, n): has_l[y] and has_u[x] and y != x
    two_sided: bool  # pairs.any()


def _prepared(u_thr: np.ndarray, l_thr: np.ndarray,
              diags: set[Triple]) -> SimPrepared:
    has_u = u_thr < INF
    has_l = l_thr > NEVER
    pairs = has_l[:, None] & has_u[None, :]
    np.fill_diagonal(pairs, False)
    return SimPrepared(tuple(sorted(diags)), has_u, np.where(has_u, 1 - u_thr, 0),
                       has_l, np.where(has_l, 2 - l_thr, 0), u_thr, l_thr,
                       pairs, bool(pairs.any()))


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
    return _prepared(u_thr, l_thr, set(map(_atom_entry, g.diag)))


def prepare_union(parts: Sequence[SimPrepared]) -> SimPrepared:
    """`prepare` of the union of the parts' constraint sets, from the parts.

    The weakest upper of a union is the weakest of the parts' and the
    strongest lower the strongest of theirs, so the thresholds combine
    elementwise: min for u_thr, max for l_thr.  The search folds each
    (component, location) once and combines the folds per product location.
    """
    if len(parts) == 1:
        return parts[0]
    return _prepared(np.minimum.reduce([p.u_thr for p in parts]),
                     np.maximum.reduce([p.l_thr for p in parts]),
                     set().union(*(p.diags for p in parts)))


def bound_row(zp: Dbm) -> np.ndarray:
    """Row 0 then column 0 of zp's matrix, without the reference entry:
    the part of a candidate the kernel's single-sided stage reads."""
    return np.concatenate((zp.m[0, 1:], zp.m[1:, 0]))


@dataclass(frozen=True, eq=False)
class SimQuery:
    """One zone-simulation question: is every point of z simulated by a
    point of zp relative to g?"""

    z: Dbm
    zp: Dbm
    g: GSet


def not_simulated_batch(z: Dbm, rows: np.ndarray, zps: Sequence[Dbm],
                        prep: SimPrepared) -> np.ndarray:
    """Non-diagonal kernel: is there a point of z that no point of zp matches?

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
    a finite zp[y, x] (an unbounded one closes no cycle).  It refutes when z
    cut by v(x) <= min(z[x, 0], u_enc[x], 1 - add(l_edge[y], zp[y, x])) and
    v(x) - v(y) <= min(z[x, y], 1 - zp[y, x]) keeps a point, i.e. when its
    cycles x0+0x, x0+0y+yx, xy+yx and xy+y0+0x are >= LE_ZERO.  Canonicity
    (z[0, x] <= add(z[0, y], z[y, x]), z[y, x] <= add(z[y, 0], z[0, x]))
    puts each three-edge cycle above a two-edge one, and non-emptiness
    (add(z[x, 0], z[0, x]), add(z[x, y], z[y, x]) >= LE_ZERO) settles the
    two-edge cycles through z's own bounds.  Left are: z reaches x's upper,
    the test of alpha; zp[y, x] < z[y, x] by I1; and
    add(l_edge[y], zp[y, x]) < z[0, x] by I1, which is
    zp[y, x] < 2 - add(l_edge[y], 2 - z[0, x]) by I2 and associativity.
    So the interior thresholds `inner` are the min of the two bounds on
    pairs where z reaches x's upper, else NEVER; they hang on z and prep
    alone, and only the candidates left standing are compared against them.
    """
    zm = z.m
    z0 = zm[0, 1:]
    reach = z0 > prep.u_thr
    thr = np.concatenate((np.where(reach, z0, NEVER),
                          np.minimum(zm[1:, 0], prep.l_thr)))
    out = (rows < thr).any(axis=1)
    if not prep.two_sided or out.all():
        return out
    inner = np.where(prep.pairs & reach[None, :],
                     np.minimum(2 - _add_mat(prep.l_edge[:, None], 2 - z0[None, :]),
                                zm[1:, 1:]),
                     NEVER)
    todo = np.flatnonzero(~out)
    pd = np.stack([zps[k].m[1:, 1:] for k in todo.tolist()])
    out[todo] = (pd < inner).any(axis=(1, 2))
    return out


def _sim(z: Zone, zp: Zone, diags: tuple[Triple, ...], prep: SimPrepared) -> bool:
    if z is EMPTY:
        return True
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


def sim_zone(q: SimQuery) -> bool:
    """Decide whether every point of q.z has a simulator in q.zp."""
    if q.z is EMPTY:
        return True
    if q.zp is EMPTY:
        return False
    return sim_zone_prepared(q.z, q.zp, prepare(q.g, q.z.n))


def sim_zone_prepared(z: Zone, zp: Zone, prep: SimPrepared) -> bool:
    """sim_zone against a reusable `prepare` result (search hot path).

    The search calls it only on candidates the batched kernel left
    standing, so it goes straight to the diagonal recursion: running the
    kernel on the whole pair first would repeat that call's verdict.
    """
    return _sim(z, zp, prep.diags, prep)


# --- region-enumeration oracle ---------------------------------------------

_INF_PY = 1 << 60


def _py_add(a: int, b: int) -> int:
    if a >= _INF_PY or b >= _INF_PY:
        return _INF_PY
    return a + b - ((a | b) & 1)


def _scale_enc(b: int, s: int) -> int:
    return 2 * (b >> 1) * s + (b & 1)


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


def brute_force_sim(q: SimQuery, max_const: int) -> bool:
    """Decide the zone simulation by enumerating one point per region of q.z.

    Valuations are scanned on the grid of step 1/(2(|X|+1)) up to max_const+1
    per coordinate; a point's verdict depends only on its region relative to
    the integer constants involved, so each region signature is tested once.
    The matched set for a fixed point is a single box plus the satisfied
    diagonals of G, and emptiness of zp against it is checked with a local
    all-pairs pass independent of the main zone code.

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
    prep = prepare(q.g, n)
    u_scaled = [_scale_enc(int(prep.u_enc[x]), s) for x in range(n)]
    l_scaled = [_scale_enc(int(prep.l_edge[x]), s) for x in range(n)]
    diag_scaled = [(i, j, _scale_enc(b, s)) for i, j, b in prep.diags]
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
        for x in range(n):
            if prep.has_u[x] and 2 * ks[x] + 1 <= u_scaled[x]:
                m[x + 1][0] = min(m[x + 1][0], 2 * ks[x] + 1)
            if prep.has_l[x]:
                m[0][x + 1] = min(m[0][x + 1], max(-2 * ks[x] + 1, l_scaled[x]))
        for i, j, bound in diag_scaled:
            vi = ks[i - 1] if i else 0
            vj = ks[j - 1] if j else 0
            if 2 * (vi - vj) + 1 <= bound:
                m[i][j] = min(m[i][j], bound)
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
