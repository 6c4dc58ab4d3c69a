"""Zone simulation decision vs the region-enumeration oracle."""
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    fig1_automaton,
    random_atom,
    random_sim_query,
    random_valuation,
    random_zone_chain,
    sim_atom_ref,
)
from reference import initial_zone, intersect_all, sim_point, zone_of
from uta.analysis import EMPTY_GSET, GSet, Mode, compute_gmap
from uta.dbm import (
    EMPTY,
    INF,
    LE_ZERO,
    _add_mat,
    compile_step,
    elapse,
    encode_bound,
    successor,
)
from uta.model import STRICT, WEAK, Kind, make_lower, make_lower_diag, make_upper
from uta.simulation import (
    NEVER,
    SimQuery,
    brute_force_sim,
    not_simulated_batch,
    prepare,
    sim_zone,
    sim_zone_prepared,
    _sim,
)

X, Y = 0, 1


def reference_not_simulated(z, zp, prep) -> bool:
    """The non-diagonal kernel on one candidate, each condition computed
    with encoded bound addition as derived (no threshold rewriting).

    A witness point v forces a box on v': for each clock x where v meets the
    weakest upper of G, v'(x) <= v(x); for each clock y with a lower in G,
    v'(y) >= min(v(y), the strongest lower's ray edge).  zp misses the box
    exactly when the tightened matrix has a negative cycle, and every such
    cycle threads the reference row, so it uses at most one forced upper and
    one forced lower.  Quantifying v away per cycle shape leaves three
    conditions checked entrywise below.
    """
    n = z.n
    if n == 0:
        return False
    zm, pm = z.m, zp.m
    z0 = zm[0, 1:]
    zx0 = zm[1:, 0]
    p0 = pm[0, 1:]
    px0 = pm[1:, 0]
    zd = zm[1:, 1:]
    pd = pm[1:, 1:]

    # single forced upper on x: v(x) below everything zp allows for x
    a = prep.has_u & (_add_mat(z0, np.minimum(prep.u_enc, 1 - p0)) >= LE_ZERO)
    if a.any():
        return True

    # single forced lower on y: v(y) above everything zp allows for y
    b = (
        prep.has_l
        & (_add_mat(px0, prep.l_edge) < LE_ZERO)
        & (px0 < zx0)
    )
    if b.any():
        return True

    # forced upper on x against forced lower on y, closed through zp[y,x];
    # an unbounded zp entry means the cycle can never go negative, so the
    # cap collapses to an unsatisfiable bound rather than to "no constraint"
    never = np.int64(-INF)
    guard = -(np.int64(1) << 50)
    t = _add_mat(prep.l_edge[:, None], pd)
    cap_l = np.where(t >= INF, never, 1 - t)
    cap_d = np.where(pd >= INF, never, 1 - pd)
    e_x0 = np.minimum(np.minimum(zx0[None, :], prep.u_enc[None, :]), cap_l)
    e_xy = np.minimum(zd.T, cap_d)
    c = (
        prep.has_l[:, None]
        & prep.has_u[None, :]
        & (e_x0 > guard)
        & (e_xy > guard)
        & (_add_mat(e_x0, z0[None, :]) >= LE_ZERO)
        & (_add_mat(e_xy, zd) >= LE_ZERO)
        & (_add_mat(_add_mat(e_x0, z0[:, None]), zd) >= LE_ZERO)
        & (_add_mat(_add_mat(e_xy, zx0[:, None]), z0[None, :]) >= LE_ZERO)
    )
    np.fill_diagonal(c, False)
    return bool(c.any())


def batch_matches_reference(z, zps, prep) -> np.ndarray:
    """The batched mask over zps, asserted equal to the reference per
    candidate."""
    rows = np.array([np.concatenate((zp.m[0, 1:], zp.m[1:, 0])) for zp in zps],
                    dtype=np.int64).reshape(len(zps), 2 * z.n)
    mask = not_simulated_batch(z, rows, zps, prep)
    assert mask.shape == (len(zps),) and mask.dtype == bool
    want = [reference_not_simulated(z, zp, prep) for zp in zps]
    assert mask.tolist() == want, (z.m, [zp.m for zp in zps], prep)
    return mask


class TestSimPoint:
    def test_reflexive(self):
        rng = random.Random(3)
        for _ in range(200):
            g = GSet.of([random_atom(rng, 3, 6) for _ in range(rng.randint(0, 4))])
            v = random_valuation(rng, 3)
            assert sim_point(v, v, g)

    def test_upper_violated_branch(self):
        g = GSet.of([make_upper(X, WEAK, 3)])
        assert sim_point({X: 5}, {X: 100}, g)
        assert not sim_point({X: 2}, {X: 3}, g)

    def test_lower_branches(self):
        g = GSet.of([make_lower(X, WEAK, 2)])
        assert sim_point({X: 1}, {X: 3}, g)
        assert not sim_point({X: 1}, {X: Fraction(1, 2)}, g)

    def test_matches_per_atom_reference(self):
        rng = random.Random(11)
        for _ in range(500):
            atoms = [random_atom(rng, 3, 6) for _ in range(rng.randint(0, 4))]
            v = random_valuation(rng, 3)
            vp = random_valuation(rng, 3)
            want = all(sim_atom_ref(v, vp, phi) for phi in atoms)
            assert sim_point(v, vp, GSet.of(atoms)) == want


class TestBruteForce:
    def test_rejects_large_inputs(self):
        q = SimQuery(initial_zone(5), initial_zone(5), EMPTY_GSET)
        with pytest.raises(ValueError):
            brute_force_sim(q, 6)
        big = GSet.of([make_upper(X, WEAK, 9)])
        q = SimQuery(initial_zone(2), initial_zone(2), big)
        with pytest.raises(ValueError):
            brute_force_sim(q, 6)

    def test_reflexive(self):
        rng = random.Random(19)
        done = 0
        while done < 25:
            q = random_sim_query(rng)
            if q is None:
                continue
            qq = SimQuery(q.z, q.z, q.g)
            try:
                assert brute_force_sim(qq, 6)
            except ValueError:
                continue
            done += 1

    def test_recorded_counterexample(self):
        # x=y from zero cannot be matched from the shifted band once the
        # upper on x and the lower on y pull in opposite directions
        z = initial_zone(2)
        zp = elapse(zone_of(2, [make_lower_diag(X, Y, WEAK, 1)]))
        g = GSet.of([make_upper(X, WEAK, 1), make_lower(Y, WEAK, 1)])
        q = SimQuery(z, zp, g)
        assert brute_force_sim(q, 6) is False
        assert sim_zone(q) is False

    def test_diagonals_satisfied_everywhere_are_free(self):
        zb = intersect_all(initial_zone(2), [make_upper(X, WEAK, 2)])
        zp = initial_zone(2)
        g = GSet.of([make_lower_diag(Y, X, WEAK, 0)])  # y-x >= 0 holds on x=y
        assert brute_force_sim(SimQuery(zb, zp, g), 6)

    def test_unbounded_left_with_exhausted_scan_is_inconclusive(self):
        q = SimQuery(initial_zone(2), initial_zone(2),
                        GSet.of([make_upper(X, WEAK, 3)]))
        with pytest.raises(ValueError):
            brute_force_sim(q, 6)


class TestSimZone:
    def test_empty_gset_true(self):
        rng = random.Random(23)
        for _ in range(40):
            q = random_sim_query(rng)
            if q is None:
                continue
            assert sim_zone(SimQuery(q.z, q.zp, EMPTY_GSET))

    def test_reflexive(self):
        rng = random.Random(29)
        for _ in range(60):
            q = random_sim_query(rng)
            if q is None:
                continue
            assert sim_zone(SimQuery(q.z, q.z, q.g))

    def test_fig1_query_agrees_with_oracle(self):
        a = fig1_automaton()
        gmap = compute_gmap(a, Mode.REDUCED)
        z = initial_zone(2)
        e = a.edges[0]
        zp = successor(z, compile_step(e.guard.clock_atoms, e.update, 2))
        full = sim_zone(SimQuery(z, zp, gmap.at(0)))
        capped = SimQuery(intersect_all(z, [make_upper(X, WEAK, 6)]), zp,
                           gmap.at(0))
        assert sim_zone(capped) == brute_force_sim(capped, 6)
        if full:
            # shrinking the simulated side can only make matching easier
            assert sim_zone(capped)

    def test_oracle_gate_sample(self):
        rng = random.Random(101)
        done = trues = falses = 0
        while done < 700:
            q = random_sim_query(rng)
            if q is None:
                continue
            try:
                want = brute_force_sim(q, 6)
            except ValueError:
                continue
            got = sim_zone(q)
            assert got == want, (q.z.m, q.zp.m, q.g.atoms())
            done += 1
            if want:
                trues += 1
            else:
                falses += 1
        assert trues >= 50 and falses >= 50

    def test_batch_kernel_matches_single(self):
        rng = random.Random(43)
        checked = 0
        while checked < 150:
            q = random_sim_query(rng)
            if q is None:
                continue
            n = q.z.n
            mates = [q.zp]
            for _ in range(rng.randint(0, 4)):
                extra = random_sim_query(rng)
                if extra is not None and extra.zp.n == n:
                    mates.append(extra.zp)
            prep = prepare(q.g, n)
            mask = batch_matches_reference(q.z, mates, prep)
            for got, zp in zip(mask, mates):
                if got:
                    # a batch refutation must be final for the full relation
                    assert not sim_zone_prepared(q.z, zp, prep)
            checked += 1

    def test_diagonal_order_irrelevant(self):
        rng = random.Random(37)
        checked = 0
        while checked < 120:
            q = random_sim_query(rng)
            if q is None or not q.g.diag:
                continue
            prep = prepare(q.g, q.z.n)
            want = _sim(q.z, q.zp, prep.diags, prep)
            diags = list(prep.diags)
            rng.shuffle(diags)
            assert _sim(q.z, q.zp, tuple(diags), prep) == want
            checked += 1


def one_clock_zones():
    """Every nonempty zone over one clock bounded by constants 2 and 3,
    weak and strict, from below and above, or unbounded above."""
    lows = [None] + [make_lower(X, st, c) for c in (2, 3) for st in (WEAK, STRICT)]
    highs = [None] + [make_upper(X, st, c) for c in (2, 3) for st in (WEAK, STRICT)]
    out = []
    for lo in lows:
        for hi in highs:
            z = zone_of(1, [a for a in (lo, hi) if a is not None])
            if z is not EMPTY:
                out.append(z)
    return out


class TestKernel:
    """The threshold-form kernel against the reference, on edge cases."""

    def test_threshold_identities(self):
        bounds = [encode_bound(v, st) for v in range(-4, 5) for st in (WEAK, STRICT)]
        for a in bounds:
            for b in bounds:
                got = _add_mat(np.int64(a), np.int64(1 - b)) >= LE_ZERO
                assert got == (b < a), (a, b)
        for p in bounds + [int(INF)]:
            for l in bounds:
                got = _add_mat(np.int64(p), np.int64(l)) < LE_ZERO
                assert got == (p < 2 - l), (p, l)

    def test_equal_constants_on_row_and_column_zero(self):
        zones = one_clock_zones()
        assert len(zones) == 15
        gsets = [
            GSet.of([a for a in (up, lo) if a is not None])
            for up in [None] + [make_upper(X, st, c) for c in (2, 3)
                                for st in (WEAK, STRICT)]
            for lo in [None] + [make_lower(X, st, c) for c in (2, 3)
                                for st in (WEAK, STRICT)]
        ]
        refuted = kept = 0
        for g in gsets:
            prep = prepare(g, 1)
            for z in zones:
                mask = batch_matches_reference(z, zones, prep)
                refuted += int(mask.sum())
                kept += int((~mask).sum())
        assert refuted >= 500 and kept >= 500

    def test_strict_against_weak_at_equal_constants(self):
        def refutes(z_atoms, zp_atoms, g_atoms):
            z, zp = zone_of(1, z_atoms), zone_of(1, zp_atoms)
            return bool(batch_matches_reference(z, [zp], prepare(GSet.of(g_atoms), 1))[0])

        # row 0: x = 2 of z meets x <= 3, and zp has no x <= 2
        assert refutes([make_lower(X, WEAK, 2)], [make_lower(X, STRICT, 2)],
                       [make_upper(X, WEAK, 3)])
        assert not refutes([make_lower(X, STRICT, 2)], [make_lower(X, WEAK, 2)],
                           [make_upper(X, WEAK, 3)])
        # row 0 against the upper itself: z meets x <= 2 at x = 2, never x < 2
        assert refutes([make_lower(X, WEAK, 2)], [make_lower(X, WEAK, 3)],
                       [make_upper(X, WEAK, 2)])
        assert not refutes([make_lower(X, WEAK, 2)], [make_lower(X, WEAK, 3)],
                           [make_upper(X, STRICT, 2)])
        # column 0: x = 2 of z needs x >= 2 in zp below the lower x >= 3
        assert refutes([make_upper(X, WEAK, 2)], [make_upper(X, STRICT, 2)],
                       [make_lower(X, WEAK, 3)])
        assert not refutes([make_upper(X, STRICT, 2)], [make_upper(X, WEAK, 2)],
                           [make_lower(X, WEAK, 3)])
        # column 0 against the lower itself: zp reaches x >= 3 but not x > 3
        assert not refutes([make_upper(X, WEAK, 5)], [make_upper(X, WEAK, 3)],
                           [make_lower(X, WEAK, 3)])
        assert refutes([make_upper(X, WEAK, 5)], [make_upper(X, WEAK, 3)],
                       [make_lower(X, STRICT, 3)])

    def test_unbounded_column_zero(self):
        unbounded = zone_of(1, [])
        capped = zone_of(1, [make_upper(X, WEAK, 5)])
        lower = prepare(GSet.of([make_lower(X, WEAK, 7)]), 1)
        assert unbounded.m[1, 0] == INF
        assert batch_matches_reference(unbounded, [capped, unbounded], lower).tolist() == [True, False]
        assert batch_matches_reference(capped, [capped, unbounded], lower).tolist() == [False, False]
        tighter = zone_of(1, [make_upper(X, WEAK, 4)])
        assert batch_matches_reference(capped, [tighter], lower).tolist() == [True]
        rng = random.Random(53)
        for _ in range(200):
            n = rng.randint(1, 3)
            g = GSet.of([random_atom(rng, n, 6) for _ in range(rng.randint(0, 5))])
            zps = [zone_of(n, [random_atom(rng, n, 6)]) for _ in range(4)]
            zps = [zp for zp in zps if zp is not EMPTY] + [zone_of(n, [])]
            z = zone_of(n, [random_atom(rng, n, 6) for _ in range(rng.randint(0, 2))])
            if z is not EMPTY:
                batch_matches_reference(z, zps, prepare(g, n))

    def test_single_sided_gsets(self):
        uppers = GSet.of([make_upper(X, WEAK, 3), make_upper(Y, STRICT, 2)])
        lowers = GSet.of([make_lower(X, WEAK, 3), make_lower(Y, STRICT, 2)])
        same_clock = GSet.of([make_upper(X, WEAK, 3), make_lower(X, STRICT, 1)])
        crossed = GSet.of([make_upper(X, WEAK, 3), make_lower(Y, STRICT, 1)])
        for g, two_sided in ((uppers, False), (lowers, False),
                             (same_clock, False), (crossed, True)):
            assert prepare(g, 2).two_sided is two_sided
        rng = random.Random(59)
        zones = [random_zone_chain(rng, 2) for _ in range(40)]
        for g in (uppers, lowers, same_clock, crossed):
            prep = prepare(g, 2)
            for z in zones[:10]:
                batch_matches_reference(z, zones, prep)

    def test_no_clocks_and_no_candidates(self):
        z = initial_zone(0)
        prep = prepare(EMPTY_GSET, 0)
        assert batch_matches_reference(z, [z, z, z], prep).tolist() == [False] * 3
        assert batch_matches_reference(z, [], prep).shape == (0,)
        assert sim_zone_prepared(z, z, prep)
        crossed = prepare(GSet.of([make_upper(X, WEAK, 3), make_lower(Y, STRICT, 1)]), 2)
        assert batch_matches_reference(initial_zone(2), [], crossed).shape == (0,)

    def test_prepare_matches_a_fold_over_the_atoms(self):
        rng = random.Random(61)
        for _ in range(300):
            n = rng.randint(1, 4)
            g = GSet.of([random_atom(rng, n, 6) for _ in range(rng.randint(0, 8))])
            prep = prepare(g, n)
            for x in range(n):
                ups = [encode_bound(phi.constant, phi.strictness)
                       for phi in g.nond if phi.kind is Kind.UPPER and phi.x == x]
                los = [encode_bound(-phi.constant, phi.strictness)
                       for phi in g.nond if phi.kind is Kind.LOWER and phi.x == x]
                assert prep.has_u[x] == bool(ups)
                assert prep.has_l[x] == bool(los)
                if ups:
                    assert prep.u_enc[x] == max(ups)
                    assert prep.u_thr[x] == 1 - max(ups)
                else:
                    assert prep.u_thr[x] == INF
                if los:
                    assert prep.l_edge[x] == min(los)
                    assert prep.l_thr[x] == 2 - min(los)
                else:
                    assert prep.l_thr[x] == NEVER
            pairs = [[bool(prep.has_l[y] and prep.has_u[x]) and x != y
                      for x in range(n)] for y in range(n)]
            assert prep.pairs.tolist() == pairs
            assert prep.two_sided == any(map(any, pairs))
            assert set(prep.diags) == set(g.diag)


class TestPreorder:
    def test_transitive_on_samples(self):
        rng = random.Random(41)
        applicable = 0
        tried = 0
        while applicable < 40 and tried < 4000:
            tried += 1
            q1 = random_sim_query(rng)
            if q1 is None:
                continue
            q2 = random_sim_query(rng)
            if q2 is None or q2.z.n != q1.z.n:
                continue
            g = q1.g
            hop1 = sim_zone(SimQuery(q1.z, q1.zp, g))
            hop2 = sim_zone(SimQuery(q1.zp, q2.zp, g))
            if hop1 and hop2:
                assert sim_zone(SimQuery(q1.z, q2.zp, g))
                applicable += 1
        assert applicable >= 40

    def test_fewer_constraints_simulate_more(self):
        rng = random.Random(43)
        applicable = 0
        while applicable < 60:
            q = random_sim_query(rng)
            if q is None or len(q.g) < 2:
                continue
            atoms = list(q.g.atoms())
            sub = GSet.of([a for a in atoms if rng.random() < 0.5])
            if sim_zone(q):
                assert sim_zone(SimQuery(q.z, q.zp, sub))
                applicable += 1

    def test_coarser_aggregate_bounds_simulate_more(self):
        # premise checked on the semantic per-clock aggregates: absent or
        # weaker upper, absent or weaker lower, diagonal subset
        rng = random.Random(47)
        applicable = 0
        tried = 0
        while applicable < 40 and tried < 6000:
            tried += 1
            q = random_sim_query(rng)
            if q is None:
                continue
            n = q.z.n
            atoms2 = [random_atom(rng, n, 6) for _ in range(rng.randint(0, 3))]
            atoms2 += [phi for phi in q.g.diag if rng.random() < 0.7]
            g2 = GSet.of(atoms2)
            if not g2.diag <= q.g.diag:
                continue
            p1, p2 = prepare(q.g, n), prepare(g2, n)
            ok = True
            for x in range(n):
                if p2.has_u[x] and (not p1.has_u[x] or p2.u_enc[x] > p1.u_enc[x]):
                    ok = False
                if p2.has_l[x] and (not p1.has_l[x] or p2.l_edge[x] < p1.l_edge[x]):
                    ok = False
            if not ok or not sim_zone(q):
                continue
            assert sim_zone(SimQuery(q.z, q.zp, g2))
            applicable += 1
        assert applicable >= 40

