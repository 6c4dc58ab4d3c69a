"""Zone simulation decision vs the region-enumeration oracle."""
import random
from dataclasses import replace
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
from reference import (
    EMPTY_GSET,
    SimQuery,
    _zone_max_const,
    brute_force_sim,
    initial_zone,
    intersect_all,
    sim_point,
    sim_zone,
    threshold_refutes,
    universe,
    zone_of,
)
from uta import simulation
from uta.analysis import GSet, compute_gmap
from uta.dbm import (
    EMPTY,
    INF,
    LE_ZERO,
    _add_mat,
    _atom_entry,
    compile_step,
    elapse,
    encode_bound,
    successor,
)
from uta.model import (
    MAX_CONST,
    STRICT,
    WEAK,
    Kind,
    make_lower,
    make_lower_diag,
    make_upper,
    make_upper_diag,
)
from uta.simulation import (
    NEVER,
    _prepared,
    bound_key,
    not_simulated_batch,
    prepare,
    sim_zone_prepared,
    _sim,
)

X, Y = 0, 1


def aggregates(prep):
    """Per clock: has an upper, the weakest upper's encoded bound (0 without
    one), has a lower; read back from the thresholds."""
    has_u = prep.u_thr < INF
    return has_u, np.where(has_u, 1 - prep.u_thr, 0), prep.l_thr > NEVER


def reference_not_simulated(z, zp, prep) -> bool:
    """The kernel on one candidate, each condition computed with encoded
    bound addition as derived (no threshold rewriting).

    A diagonal x_i - x_j <= b of G, the entry (i, j, b), refutes when z
    meets it and zp misses it.  A witness point v forces a box on v': for
    each clock x where v meets the weakest upper of G, v'(x) <= v(x); for
    each clock y with a lower in G, v'(y) >= min(v(y), the strongest
    lower's ray edge).  zp misses the box exactly when the tightened matrix
    has a negative cycle, and every such cycle threads the reference row,
    so it uses at most one forced upper and one forced lower.  Quantifying v
    away per cycle shape leaves three conditions checked entrywise below.
    """
    n = z.n
    if n == 0:
        return False
    zm, pm = z.m, zp.m
    for i, j, b in prep.diags:
        # z cut by the diagonal is non-empty, zp cut by it empty
        if (_add_mat(zm[j, i], np.int64(b)) >= LE_ZERO
                and _add_mat(pm[j, i], np.int64(b)) < LE_ZERO):
            return True
    z0 = zm[0, 1:]
    zx0 = zm[1:, 0]
    p0 = pm[0, 1:]
    px0 = pm[1:, 0]
    zd = zm[1:, 1:]
    pd = pm[1:, 1:]
    has_u, u_enc, has_l = aggregates(prep)

    # single forced upper on x: v(x) below everything zp allows for x
    a = has_u & (_add_mat(z0, np.minimum(u_enc, 1 - p0)) >= LE_ZERO)
    if a.any():
        return True

    # single forced lower on y: v(y) above everything zp allows for y
    b = (
        has_l
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
    e_x0 = np.minimum(np.minimum(zx0[None, :], u_enc[None, :]), cap_l)
    e_xy = np.minimum(zd.T, cap_d)
    c = (
        has_l[:, None]
        & has_u[None, :]
        & (e_x0 > guard)
        & (e_xy > guard)
        & (_add_mat(e_x0, z0[None, :]) >= LE_ZERO)
        & (_add_mat(e_xy, zd) >= LE_ZERO)
        & (_add_mat(_add_mat(e_x0, z0[:, None]), zd) >= LE_ZERO)
        & (_add_mat(_add_mat(e_xy, zx0[:, None]), z0[None, :]) >= LE_ZERO)
    )
    np.fill_diagonal(c, False)
    return bool(c.any())


def keys_of(zps, prep) -> np.ndarray:
    """The candidates' bound keys, shape (K, w), as the kernel reads them."""
    return np.array([bound_key(zp, prep) for zp in zps],
                    dtype=np.int64).reshape(len(zps), len(prep.key_idx))


def batch_matches_reference(z, zps, prep) -> np.ndarray:
    """The batched mask over zps, asserted equal to the reference per
    candidate."""
    mask = not_simulated_batch(z, keys_of(zps, prep), zps, prep, bound_key(z, prep))
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

    @pytest.mark.parametrize("du, dl, agrees", [(0, 0, True), (0, -2, False),
                                                (2, 0, False)],
                             ids=["right-fold", "lower-fold-2", "upper-fold+2"])
    def test_independent_of_prepare(self, monkeypatch, du, dl, agrees):
        # the oracle reads g itself: a wrong fold in prepare moves only the
        # program's side, so some query must come out differently
        right = simulation.prepare

        def shifted(g, n_clocks):
            p = right(g, n_clocks)
            return _prepared(np.where(p.u_thr < INF, p.u_thr + du, INF),
                             np.where(p.l_thr > NEVER, p.l_thr + dl, NEVER),
                             p.diags)

        monkeypatch.setattr(simulation, "prepare", shifted)
        rng = random.Random(7)
        done = differ = 0
        while done < 300:
            q = random_sim_query(rng)
            if q is None:
                continue
            try:
                want = brute_force_sim(q, 6)
            except ValueError:
                continue
            differ += sim_zone(q) != want
            done += 1
        assert (differ == 0) == agrees, differ


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
        gmap = compute_gmap(a)
        z = initial_zone(2)
        e = a.edges[0]
        zp = successor(z, compile_step(e.guard.clock_atoms, e.update, 2))
        full = sim_zone(SimQuery(z, zp, gmap.sets[0]))
        capped = SimQuery(intersect_all(z, [make_upper(X, WEAK, 6)]), zp,
                           gmap.sets[0])
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


def random_diagonal(rng, n):
    """A diagonal atom over two random clocks, and its complement."""
    x, y = rng.sample(range(n), 2)
    st, c = rng.choice((WEAK, STRICT)), rng.randint(0, 4)
    flip = STRICT if st is WEAK else WEAK
    pair = (make_upper_diag(x, y, st, c), make_lower_diag(x, y, flip, c))
    return pair if rng.random() < 0.5 else pair[::-1]


def diagonal_queries(rng, count):
    """count batches (z, zps, diags, g): z boxed so that the oracle
    concludes; g holding diags and up to two random atoms; zps mixing z
    cut by the complement of diags[0], z cut by two other atoms and
    unrelated zones."""
    out = []
    while len(out) < count:
        n = rng.choice((2, 2, 3))
        z = intersect_all(random_zone_chain(rng, n),
                          [make_upper(x, WEAK, rng.randint(3, 5)) for x in range(n)])
        if z is EMPTY:
            continue
        # a first diagonal that cuts z in two, when a few draws find one
        for _ in range(10):
            first = random_diagonal(rng, n)
            if all(intersect_all(z, [phi]) is not EMPTY for phi in first):
                break
        diags, outside = zip(first, *(random_diagonal(rng, n)
                                      for _ in range(rng.randint(0, 2))))
        g = GSet.of(list(diags) + [random_atom(rng, n, 4)
                                   for _ in range(rng.randint(0, 2))])
        cuts = [outside[0]] + [rng.choice(diags + outside + (random_atom(rng, n, 4),))
                               for _ in range(2)]
        zps = [intersect_all(z, [cut]) for cut in cuts]
        zps += [random_zone_chain(rng, n) for _ in range(3)]
        # constants within the oracle's bound 6
        zps = [zp for zp in zps if zp is not EMPTY and _zone_max_const(zp) <= 6]
        if zps and _zone_max_const(z) <= 6:
            out.append((z, zps, diags, g))
    return out


def kernel_mask(z, zps, prep) -> np.ndarray:
    return not_simulated_batch(z, keys_of(zps, prep), zps, prep, bound_key(z, prep))


class TestDiagonalStage:
    """The kernel's diagonal stage against the region-enumeration oracle,
    which builds each point's simulators from the atoms of g and never
    reads `prepare`; the kernel is called directly, so these tests stand
    without `reference_not_simulated`."""

    def test_single_diagonal_is_decided_exactly(self):
        # with g one diagonal, z is simulated by zp iff zp meets the
        # diagonal whenever z does; the kernel has only its diagonal stage
        # to go on and must give the oracle's verdict on every candidate
        rng = random.Random(89)
        refuted = kept = 0
        for z, zps, diags, _ in diagonal_queries(rng, 400):
            g = GSet.of([diags[0]])
            prep = prepare(g, z.n)
            for zp, got in zip(zps, kernel_mask(z, zps, prep).tolist()):
                try:
                    want = brute_force_sim(SimQuery(z, zp, g), 6)
                except ValueError:
                    continue
                assert got is not want, (z.m, zp.m, g.atoms())
                refuted += got
                kept += not got
        assert refuted >= 200 and kept >= 200, (refuted, kept)

    def test_refutations_are_sound(self):
        # every refutation, on sets mixing diagonals with uppers and lowers,
        # is a real counterexample; a few hundred come from the diagonal
        # stage alone (the kernel without it leaves the candidate standing)
        rng = random.Random(97)
        by_diagonals = refuted = 0
        for z, zps, _, g in diagonal_queries(rng, 400):
            prep = prepare(g, z.n)
            without = prepare(GSet.of(g.nond), z.n)
            mask = kernel_mask(z, zps, prep)
            alone = mask & ~kernel_mask(z, zps, without)
            for k in np.flatnonzero(mask).tolist():
                assert not brute_force_sim(SimQuery(z, zps[k], g), 6), (
                    z.m, zps[k].m, g.atoms())
            refuted += int(mask.sum())
            by_diagonals += int(alone.sum())
        assert by_diagonals >= 300 and refuted > by_diagonals, (refuted, by_diagonals)


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
        diagonal = GSet.of([make_upper(X, WEAK, 3), make_upper_diag(X, Y, STRICT, 1)])
        for g, pairs in ((uppers, False), (lowers, False),
                         (same_clock, False), (crossed, True),
                         (diagonal, False)):
            assert prepare(g, 2).pairs.any() == pairs
        assert prepare(diagonal, 2).diags
        rng = random.Random(59)
        zones = [random_zone_chain(rng, 2) for _ in range(40)]
        for g in (uppers, lowers, same_clock, crossed, diagonal):
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

    def test_two_sided_threshold(self):
        # zones cut from the universe and the elapsed initial zone, against
        # G-sets with an upper on one clock and a lower on another; a verdict
        # is the two-sided stage's when the single-sided compare leaves the
        # candidate standing and the kernel still refutes it
        rng = random.Random(71)
        decided = 0
        for n in (2, 3):
            zones = []
            while len(zones) < 40:
                base = rng.choice((universe(n), initial_zone(n)))
                z = intersect_all(base, [random_atom(rng, n, 3)
                                         for _ in range(rng.randint(1, 3))])
                if z is not EMPTY and z not in zones:
                    zones.append(z)
            for _ in range(20):
                prep = prepare(EMPTY_GSET, n)
                while not prep.pairs.any():
                    prep = prepare(GSet.of([
                        rng.choice((make_upper, make_lower))(
                            rng.randrange(n), rng.choice((WEAK, STRICT)),
                            rng.randint(1, 3))
                        for _ in range(rng.randint(2, 4))]), n)
                single_sided = replace(prep, pairs=np.zeros_like(prep.pairs))
                for z in zones:
                    mask = batch_matches_reference(z, zones, prep)
                    standing = ~not_simulated_batch(z, keys_of(zones, prep),
                                                    zones, single_sided,
                                                    bound_key(z, prep))
                    decided += int((mask & standing).sum())
        assert decided >= 500

    def test_prepare_matches_a_fold_over_the_atoms(self):
        rng = random.Random(61)
        for _ in range(300):
            n = rng.randint(1, 4)
            g = GSet.of([random_atom(rng, n, 6) for _ in range(rng.randint(0, 8))])
            prep = prepare(g, n)
            has_u, u_enc, has_l = aggregates(prep)
            for x in range(n):
                ups = [encode_bound(phi.constant, phi.strictness)
                       for phi in g.nond if phi.kind is Kind.UPPER and phi.x == x]
                los = [encode_bound(-phi.constant, phi.strictness)
                       for phi in g.nond if phi.kind is Kind.LOWER and phi.x == x]
                assert has_u[x] == bool(ups)
                assert has_l[x] == bool(los)
                if ups:
                    assert u_enc[x] == max(ups)
                    assert prep.u_thr[x] == 1 - max(ups)
                else:
                    assert prep.u_thr[x] == INF
                if los:
                    assert prep.l_edge[x] == min(los)
                    assert prep.l_thr[x] == 2 - min(los)
                else:
                    assert prep.l_thr[x] == NEVER
            pairs = [[bool(has_l[y] and has_u[x]) and x != y
                      for x in range(n)] for y in range(n)]
            assert prep.pairs.tolist() == pairs
            entries = set(map(_atom_entry, g.diag))
            assert set(prep.diags) == entries
            # the keys: row 0 of each upper, column 0 of each lower, then
            # the complement entry (j, i) of each diagonal
            rows, cols = np.divmod(prep.key_idx, n + 1)
            want = ([(0, x + 1, prep.u_thr[x], INF) for x in range(n) if has_u[x]]
                    + [(y + 1, 0, NEVER, prep.l_thr[y]) for y in range(n) if has_l[y]]
                    + [(j, i, 1 - b, 2 - b) for i, j, b in sorted(entries)])
            assert list(zip(rows.tolist(), cols.tolist(), prep.lo.tolist(),
                            prep.hi.tolist())) == want

    def test_prepare_refuses_constants_out_of_range(self):
        # every atom is encoded by dbm's one range rule, diagonals included
        for build in (lambda c: make_upper(X, WEAK, c),
                      lambda c: make_lower(Y, STRICT, c),
                      lambda c: make_upper_diag(X, Y, STRICT, c),
                      lambda c: make_lower_diag(X, Y, WEAK, c)):
            prep = prepare(GSet.of([build(MAX_CONST)]), 2)
            has_u, _, has_l = aggregates(prep)
            assert len(prep.diags) + has_u.sum() + has_l.sum() == 1
            with pytest.raises(OverflowError):
                prepare(GSet.of([build(MAX_CONST + 1)]), 2)

    def test_one_entry_is_one_diagonal(self):
        # 0 < x - y and y - x < 0 are the same matrix entry
        g = GSet.of([make_lower_diag(X, Y, STRICT, 0),
                     make_upper_diag(Y, X, STRICT, 0)])
        assert len(g.diag) == 2
        assert prepare(g, 2).diags == ((2, 1, 0),)

    def test_recursion_leaves_call_the_kernel(self, monkeypatch):
        # z straddles x - y <= 1, so the recursion splits it into two
        # leaves; with a kernel that refutes everything even z against
        # itself fails, so no leaf decides without the kernel
        prep = prepare(GSet.of([make_upper(X, WEAK, 3),
                                make_upper_diag(X, Y, WEAK, 1)]), 2)
        z = universe(2)
        assert sim_zone_prepared(z, z, prep)
        calls = []

        def refute_all(z, keys, zps, prep, key):
            calls.append(len(zps))
            return np.ones(len(zps), dtype=bool)

        monkeypatch.setattr(simulation, "not_simulated_batch", refute_all)
        assert not sim_zone_prepared(z, z, prep)
        assert calls == [1]

    def test_kernel_takes_the_query_key_from_its_caller(self, monkeypatch):
        rng = random.Random(2101)
        prep = prepare(GSet.of([make_upper(X, WEAK, 3), make_lower(Y, STRICT, 1),
                                make_upper_diag(X, Y, WEAK, 1)]), 2)
        zones = [random_zone_chain(rng, 2) for _ in range(20)]
        keys = keys_of(zones, prep)
        runs = [(z, bound_key(z, prep), batch_matches_reference(z, zones, prep))
                for z in zones]
        assert any(mask.any() and not mask.all() for _, _, mask in runs)

        def no_key(z, prep):
            raise AssertionError("the kernel computed a key of its own")

        monkeypatch.setattr(simulation, "bound_key", no_key)
        # a key above every candidate's at each entry refutes them all
        above = keys.max(axis=0) + 1
        for z, key, mask in runs:
            got = not_simulated_batch(z, keys, zones, prep, key)
            assert got.tolist() == mask.tolist()
            assert not_simulated_batch(z, keys, zones, prep, above).all()


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
            has_u1, u_enc1, has_l1 = aggregates(p1)
            has_u2, u_enc2, has_l2 = aggregates(p2)
            ok = True
            for x in range(n):
                if has_u2[x] and (not has_u1[x] or u_enc2[x] > u_enc1[x]):
                    ok = False
                if has_l2[x] and (not has_l1[x] or p2.l_edge[x] < p1.l_edge[x]):
                    ok = False
            if not ok or not sim_zone(q):
                continue
            assert sim_zone(SimQuery(q.z, q.zp, g2))
            applicable += 1
        assert applicable >= 40



class TestBoundKeys:
    """The keys' compare is the kernel's single-sided and diagonal stages,
    in both directions."""

    @staticmethod
    def zone(rng, n, big):
        if rng.random() < 0.5:
            return random_zone_chain(rng, n)
        atoms = [random_atom(rng, n, 6) for _ in range(rng.randint(0, 3))]
        if big:
            atoms = [phi.with_constant(phi.constant << 33) for phi in atoms]
        return intersect_all(universe(n), atoms)

    def test_key_compare_is_the_threshold_formula(self):
        rng = random.Random(1801)
        seen = {"forward": 0, "reverse": 0, "both": 0, "neither": 0}
        wide = 0
        for _ in range(3000):
            n = rng.randint(1, 4)
            big = rng.random() < 0.2
            atoms = [random_atom(rng, n, 6) for _ in range(rng.randint(0, 5))]
            if big:
                atoms = [phi.with_constant(phi.constant << 33) for phi in atoms]
            prep = prepare(GSet.of(atoms), n)
            z, zp = self.zone(rng, n, big), self.zone(rng, n, big)
            if z is EMPTY or zp is EMPTY:
                continue
            kz, kp = bound_key(z, prep), bound_key(zp, prep)
            for zone, k in ((z, kz), (zp, kp)):
                # computed in int64, the key is the same
                wide_key = np.clip(zone.m.take(prep.key_idx), prep.lo, prep.hi)
                assert k.dtype == prep.key_dtype and np.array_equal(k, wide_key)
                assert (np.abs(wide_key) < 2**61).all()
            wide += prep.key_dtype is np.int64
            d = kp - kz
            forward, reverse = bool((d < 0).any()), bool((d > 0).any())
            assert forward == threshold_refutes(z, zp, prep), (z.m, zp.m, atoms)
            assert reverse == threshold_refutes(zp, z, prep), (z.m, zp.m, atoms)
            seen[{(True, False): "forward", (False, True): "reverse",
                  (True, True): "both", (False, False): "neither"}[
                      forward, reverse]] += 1
        assert min(seen.values()) >= 100 and wide >= 100, (seen, wide)

    @pytest.mark.parametrize("make, narrow, wide", [
        # the finite clip bound is 2c for x <= c, 2c + 1 for x >= c and
        # 1 - (2c + 1) for x - y <= c
        (lambda c: make_upper(0, WEAK, c), 4095, 4096),
        (lambda c: make_lower(0, WEAK, c), 4095, 4096),
        (lambda c: make_upper_diag(0, 1, WEAK, c), 4096, 4097),
    ])
    def test_int16_keys_within_2_13(self, make, narrow, wide):
        for c, dtype in ((narrow, np.int16), (wide, np.int32)):
            prep = prepare(GSet.of([make(c)]), 2)
            assert prep.key_dtype is dtype, c
            zones = [universe(2), initial_zone(2),
                     zone_of(2, [make_lower(0, WEAK, 2**20)]),
                     zone_of(2, [make_lower(1, WEAK, 2**20)]),
                     zone_of(2, [make_lower_diag(0, 1, WEAK, 2**20)]),
                     zone_of(2, [make_upper_diag(0, 1, WEAK, c - 1)])]
            keys = [bound_key(z, prep) for z in zones]
            wide_keys = [np.clip(z.m.take(prep.key_idx), prep.lo, prep.hi)
                         for z in zones]
            for k, w in zip(keys, wide_keys):
                assert k.dtype == dtype and np.array_equal(k, w)
            # two keys subtract as in int64, without wrapping
            for k1, w1 in zip(keys, wide_keys):
                for k2, w2 in zip(keys, wide_keys):
                    assert np.array_equal(k1 - k2, w1 - w2)
            assert max(int(np.abs(w).max()) for w in wide_keys) >= 2 * narrow - 1

    def test_no_keys_without_bounds_or_diagonals(self):
        for n in (0, 1, 3):
            prep = prepare(EMPTY_GSET, n)
            assert prep.key_idx.shape == (0,)
            z = initial_zone(n)
            assert bound_key(z, prep).shape == (0,)
            assert not_simulated_batch(z, np.empty((2, 0), np.int64), [z, z],
                                       prep, bound_key(z, prep)
                                       ).tolist() == [False, False]
