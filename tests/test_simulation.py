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
    sim_atom_ref,
)
from uta.analysis import EMPTY_GSET, GSet, Mode, compute_gmap, extract_lu
from uta.dbm import EMPTY, compile_step, elapse, initial_zone, successor, zone_of
from uta.model import WEAK, make_lower, make_lower_diag, make_upper
from uta.simulation import (
    SimQuery,
    brute_force_sim,
    not_simulated_batch,
    prepare,
    sim_point,
    sim_zone,
    sim_zone_prepared,
    _base_not_simulated,
    _sim,
)

X, Y = 0, 1


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
        q = SimQuery.of(initial_zone(5), initial_zone(5), EMPTY_GSET)
        with pytest.raises(ValueError):
            brute_force_sim(q, 6)
        big = GSet.of([make_upper(X, WEAK, 9)])
        q = SimQuery.of(initial_zone(2), initial_zone(2), big)
        with pytest.raises(ValueError):
            brute_force_sim(q, 6)

    def test_reflexive(self):
        rng = random.Random(19)
        done = 0
        while done < 25:
            q = random_sim_query(rng)
            if q is None:
                continue
            qq = SimQuery.of(q.z, q.z, q.g)
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
        q = SimQuery.of(z, zp, g)
        assert brute_force_sim(q, 6) is False
        assert sim_zone(q) is False

    def test_diagonals_satisfied_everywhere_are_free(self):
        from uta.dbm import intersect

        zb = intersect(initial_zone(2), make_upper(X, WEAK, 2))
        zp = initial_zone(2)
        g = GSet.of([make_lower_diag(Y, X, WEAK, 0)])  # y-x >= 0 holds on x=y
        assert brute_force_sim(SimQuery.of(zb, zp, g), 6)

    def test_unbounded_left_with_exhausted_scan_is_inconclusive(self):
        q = SimQuery.of(initial_zone(2), initial_zone(2),
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
            assert sim_zone(SimQuery.of(q.z, q.zp, EMPTY_GSET))

    def test_reflexive(self):
        rng = random.Random(29)
        for _ in range(60):
            q = random_sim_query(rng)
            if q is None:
                continue
            assert sim_zone(SimQuery.of(q.z, q.z, q.g))

    def test_fig1_query_agrees_with_oracle(self):
        from uta.dbm import intersect

        a = fig1_automaton()
        gmap = compute_gmap(a, Mode.REDUCED)
        z = initial_zone(2)
        e = a.edges[0]
        zp = successor(z, compile_step(e.guard.clock_atoms, e.update, 2))
        full = sim_zone(SimQuery.of(z, zp, gmap.at(0)))
        capped = SimQuery.of(intersect(z, make_upper(X, WEAK, 6)), zp, gmap.at(0))
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
            mask = not_simulated_batch(q.z, np.stack([m.m for m in mates]), prep)
            for got, zp in zip(mask, mates):
                assert bool(got) == _base_not_simulated(q.z, zp, prep)
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
            hop1 = sim_zone(SimQuery.of(q1.z, q1.zp, g))
            hop2 = sim_zone(SimQuery.of(q1.zp, q2.zp, g))
            if hop1 and hop2:
                assert sim_zone(SimQuery.of(q1.z, q2.zp, g))
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
                assert sim_zone(SimQuery.of(q.z, q.zp, sub))
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
            assert sim_zone(SimQuery.of(q.z, q.zp, g2))
            applicable += 1
        assert applicable >= 40


def test_extract_lu_attached_to_query():
    g = GSet.of([make_upper(X, WEAK, 3), make_lower(Y, WEAK, 1)])
    q = SimQuery.of(initial_zone(2), initial_zone(2), g)
    assert q.lu == extract_lu(g, 2)
