"""Constraint propagation: preimages, guard cuts, fixed points, divergence."""
import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fig1_automaton,
    random_atom,
    random_automaton,
    random_update,
    random_valuation,
    sim_atom_grid,
    sim_atom_ref,
)
from reference import (
    apply_update_point,
    base_records,
    bound_transform,
    case_up_inverse,
    check_syntactically_bounded,
    extract_lu,
    g0,
    kleene_step,
    plain_gmap,
    plain_preimage,
    satisfies,
    sweep_gmap,
    table_cut as reference_table_cut,
    up_inverse as reference_up_inverse,
    wp as reference_wp,
)
from uta.analysis import (
    GSet,
    Propagation,
    Status,
    _base_records,
    analysis_bounds,
    check_closure,
    compute_gmap,
    edge_context,
    edge_propagations,
    nonneg_source,
    report_json,
    verify_witness,
)
from uta.benchgen import FRAGMENTS, RandomProfile, gen_random
from uta.model import (
    BOTTOM,
    INT64_MAX,
    STRICT,
    TOP,
    WEAK,
    AtomicConstraint,
    Automaton,
    Const,
    Edge,
    Guard,
    Kind,
    Location,
    Shift,
    Update,
    make_lower,
    make_lower_diag,
    make_upper,
    make_upper_diag,
)

X, Y = 0, 1
SUB1 = Update.of({X: Shift(X, -1)})

U3 = make_upper(X, WEAK, 3)
L1 = make_lower(X, WEAK, 1)
L2 = make_lower(X, WEAK, 2)
L3 = make_lower(X, WEAK, 3)
D1 = make_upper_diag(X, Y, STRICT, 1)
D2 = make_upper_diag(X, Y, STRICT, 2)
D3 = make_upper_diag(X, Y, STRICT, 3)

# clocks the hand-written cases below use
N_CLOCKS = 3


def wp(phi, ctx, up, n_clocks=N_CLOCKS):
    """The analysis's compiled propagation of phi through an edge with
    guard context ctx and update up."""
    return Propagation(ctx, up, n_clocks)(phi)


def up_inverse(phi, up):
    """The compiled propagation through an edge without context, which cuts
    nothing: the bare preimage."""
    return wp(phi, (), up)


class TestUpInverse:
    def test_diagonal_through_subtraction(self):
        assert up_inverse(D1, SUB1) == D2

    def test_reset_above_upper_is_false(self):
        phi = make_upper(X, WEAK, 3)
        assert up_inverse(phi, Update.of({X: Const(5)})) is BOTTOM
        assert up_inverse(phi, Update.of({X: Const(2)})) is TOP

    def test_lower_through_subtraction(self):
        assert up_inverse(L3, SUB1) == make_lower(X, WEAK, 4)

    def test_identity(self):
        for phi in (U3, L3, D1, make_lower_diag(X, Y, WEAK, 2)):
            assert up_inverse(phi, Update()) == phi

    def test_mixed_diagonal_cases(self):
        # x-y<=4 with x:=2, y:=z+1  becomes  2-(z+1)<=4, i.e. -3<=z: trivial.
        phi = make_upper_diag(X, Y, WEAK, 4)
        up = Update.of({X: Const(2), Y: Shift(2, 1)})
        assert up_inverse(phi, up) is TOP
        # 1<=x-y with x:=2, y:=z+1  becomes  z<=0.
        phi = make_lower_diag(X, Y, WEAK, 1)
        assert up_inverse(phi, up) == make_upper(2, WEAK, 0)
        # x-y<3 with x:=z, y:=5  becomes  z<8.
        phi = make_upper_diag(X, Y, STRICT, 3)
        up = Update.of({X: Shift(2, 0), Y: Const(5)})
        assert up_inverse(phi, up) == make_upper(2, STRICT, 8)

    def test_collapse_to_same_source(self):
        # x-y<2 with x:=z+3, y:=z  becomes  3<2: false.
        phi = make_upper_diag(X, Y, STRICT, 2)
        up = Update.of({X: Shift(2, 3), Y: Shift(2, 0)})
        assert up_inverse(phi, up) is BOTTOM

    def test_matches_case_by_case_reference(self):
        # every normalized two-clock atom with constants 0..4, and the
        # un-normalized 0 <= x the analysis takes back, under every update
        # of identity, x := 0..3 and x := y + (-2..2) per clock; == compares
        # kind and orientation, so 0 <= x-y must not come back as y-x <= 0
        atoms = [nonneg_source(X), nonneg_source(Y)]
        for s, c, x in itertools.product((STRICT, WEAK), range(5), (X, Y)):
            atoms += [make_upper(x, s, c), make_lower(x, s, c),
                      make_upper_diag(x, 1 - x, s, c), make_lower_diag(x, 1 - x, s, c)]
        choices = ([None] + [Const(v) for v in range(4)]
                   + [Shift(src, d) for src in (X, Y) for d in range(-2, 3)])
        zero_diag = 0
        for ux, uy in itertools.product(choices, repeat=2):
            up = Update.of({x: u for x, u in ((X, ux), (Y, uy)) if u is not None})
            for phi in atoms:
                want = case_up_inverse(phi, up)
                assert up_inverse(phi, up) == want, (phi, up)
                assert reference_up_inverse(phi, up) == want, (phi, up)
                zero_diag += want.is_diagonal and want.constant == 0
        assert zero_diag > 100

    def test_preimage_semantics_random(self):
        rng = random.Random(314159)
        checked = 0
        for _ in range(600):
            phi = random_atom(rng, 3, 5)
            up = random_update(rng, 3)
            v = random_valuation(rng, 3)
            w = apply_update_point(up, v)
            if w is None:
                continue
            psi = up_inverse(phi, up)
            assert satisfies(v, psi) == satisfies(w, phi)
            checked += 1
        assert checked > 300


class TestWp:
    guard = (U3,)

    def test_upper_cut_to_trivial(self):
        assert wp(U3, self.guard, SUB1) is TOP

    def test_lower_weakened_to_guard_constant(self):
        assert wp(L3, self.guard, SUB1) == L3
        # preimage is 4<=x; the guard atom x<=3 has 3 < 4, so 3<=x suffices

    def test_small_diagonal_kept(self):
        assert wp(D1, self.guard, SUB1) == D2

    def test_large_diagonal_cut(self):
        assert wp(D3, self.guard, SUB1) is TOP

    def test_lower_diag_guard_cuts_lower_diag(self):
        phi = make_lower_diag(X, Y, WEAK, 2)
        g = (make_lower_diag(X, Y, WEAK, 3),)
        assert wp(phi, g, Update()) is TOP

    def test_smallest_case2_candidate_wins(self):
        g = (make_upper(X, WEAK, 2), make_upper(X, STRICT, 1))
        psi = wp(make_lower(X, WEAK, 5), g, Update())
        assert psi == make_lower(X, WEAK, 1)

    def test_cut_soundness_random(self):
        # For pairs that satisfy and respect the guard, the cut constraint
        # simulates at least as much as the raw preimage, and the raw
        # preimage transfers through the update.
        rng = random.Random(271828)
        checked = 0
        for _ in range(4000):
            n = 3
            guard = tuple(random_atom(rng, n, 5) for _ in range(rng.randint(0, 2)))
            up = random_update(rng, n)
            phi = random_atom(rng, n, 6)
            v = random_valuation(rng, n)
            vp = random_valuation(rng, n)
            if not all(satisfies(v, g) for g in guard):
                continue
            if not all(sim_atom_ref(v, vp, g) for g in guard):
                continue
            w, wq = apply_update_point(up, v), apply_update_point(up, vp)
            if w is None or wq is None:
                continue
            raw = up_inverse(phi, up)
            cut = wp(phi, guard, up)
            if sim_atom_ref(v, vp, cut):
                assert sim_atom_ref(v, vp, raw), (phi, guard, up, v, vp)
            if sim_atom_ref(v, vp, raw):
                assert sim_atom_ref(w, wq, phi), (phi, up, v, vp)
            checked += 1
        assert checked > 400

    def test_sim_reference_matches_delay_sampling(self):
        rng = random.Random(1618)
        for _ in range(400):
            phi = random_atom(rng, 2, 6)
            v = random_valuation(rng, 2)
            vp = random_valuation(rng, 2)
            assert sim_atom_ref(v, vp, phi) == sim_atom_grid(v, vp, phi, 16)


@st.composite
def propagation_cases(draw):
    """(n, context, update, atom): an atom of any kind, zero-constant
    diagonals in both orientations and the un-normalized 0 <= x included;
    an update of resets, shifts by negative and positive offsets and clock
    swaps; and a context of upper, lower and diagonal atoms on few clocks,
    pairs and constants, so that one clock or pair often carries several,
    some of them at the preimage's own clock or pair with its constant
    off by -1, 0 or 1, where the cut's comparisons decide."""
    n = draw(st.integers(1, 3))
    clock = st.integers(0, n - 1)

    def other(x):
        return draw(clock.filter(lambda y: y != x))

    def atom(kinds, c):
        kind = draw(st.sampled_from(kinds))
        if kind in (Kind.TOP, Kind.BOTTOM):
            return TOP if kind is Kind.TOP else BOTTOM
        x = draw(clock)
        s = draw(st.sampled_from((STRICT, WEAK)))
        if kind is Kind.LOWER and c == 0 and draw(st.booleans()):
            return nonneg_source(x)
        if n == 1 and kind in (Kind.UPPER_DIAG, Kind.LOWER_DIAG):
            kind = Kind.UPPER  # one clock has no differences
        if kind in (Kind.UPPER, Kind.LOWER):
            return AtomicConstraint(kind, x, None, s, c)
        return AtomicConstraint(kind, x, other(x), s, c)

    entries = {}
    for x in range(n):
        choice = draw(st.sampled_from(("keep", "const", "shift", "swap")))
        if choice == "const":
            entries[x] = Const(draw(st.integers(0, 6)))
        elif choice == "shift":
            entries[x] = Shift(draw(clock), draw(st.integers(-3, 3)))
        elif choice == "swap" and n > 1 and x not in entries:
            y = other(x)
            if y not in entries:
                d = draw(st.integers(-2, 2))
                entries[x], entries[y] = Shift(y, d), Shift(x, -d)
    up = Update.of(entries)
    phi = atom(tuple(Kind), draw(st.integers(0, 7)))
    context = [atom((Kind.UPPER, Kind.UPPER_DIAG, Kind.LOWER_DIAG, Kind.LOWER,
                     Kind.BOTTOM), draw(st.integers(0, 6)))
               for _ in range(draw(st.integers(0, 5)))]
    pre = reference_up_inverse(phi, up)
    if not pre.is_trivial:
        for _ in range(draw(st.integers(0, 3))):
            c = max(0, pre.constant + draw(st.integers(-1, 1)))
            s = draw(st.sampled_from((STRICT, WEAK)))
            kind = draw(st.sampled_from((Kind.UPPER, Kind.UPPER_DIAG, Kind.LOWER_DIAG)))
            if kind is Kind.UPPER or not pre.is_diagonal:
                context.append(AtomicConstraint(Kind.UPPER, pre.x, None, s, c))
            else:
                context.append(AtomicConstraint(kind, pre.x, pre.y, s, c))
    order = draw(st.permutations(range(len(context))))
    return n, tuple(context[k] for k in order), up, phi


class TestCompiledPropagation:
    """`Propagation` computes what the one-atom reference `wp` does."""

    @settings(max_examples=600, deadline=None)
    @given(case=propagation_cases())
    def test_matches_the_reference(self, case):
        n, context, up, phi = case
        want = reference_table_cut(reference_up_inverse(phi, up), context)
        assert want == reference_wp(phi, context, up)
        got = Propagation(context, up, n)(phi)
        assert got == want, (phi, context, up)
        assert type(got) is AtomicConstraint
        if want.is_trivial:
            assert got is (TOP if want.kind is Kind.TOP else BOTTOM)

    def test_swap_with_context(self):
        # x, y := y + 1, x - 1 under y <= 2, x - y <= 7 and x - y <= 6:
        # y - x < 3 becomes x - y < 5 and survives the least diagonal bound
        # 6; x - y <= 6 becomes y - x <= 4, which y <= 2 cuts
        up = Update.of({X: Shift(Y, 1), Y: Shift(X, -1)})
        ctx = (make_upper(Y, WEAK, 2), make_upper_diag(X, Y, WEAK, 7),
               make_upper_diag(X, Y, WEAK, 6))
        prop = Propagation(ctx, up, 2)
        assert prop(make_upper_diag(Y, X, STRICT, 3)) == make_upper_diag(X, Y, STRICT, 5)
        assert prop(make_upper_diag(X, Y, WEAK, 6)) is TOP
        # y - x < 5 becomes x - y < 7: the least of the two bounds cuts it
        assert prop(make_upper_diag(Y, X, STRICT, 5)) is TOP
        assert prop(TOP) is TOP and prop(BOTTOM) is BOTTOM


class TestConstantRange:
    """A propagated or pumped constant outside int64 raises, as a constraint
    built from it directly does."""

    def test_shift_past_int64_raises(self):
        # guard x <= 2^62 and x := x - 2^62: the preimage x <= 2^63 overflows
        big = 2**62
        a = Automaton("t", (Location("a", initial=True),),
                      (Edge(0, 0, Guard((make_upper(X, WEAK, big),)),
                            Update.of({X: Shift(X, -big)})),), ("x",))
        with pytest.raises(ValueError, match=f"constraint constant {2 * big} is not "
                           "a natural number in int64 range"):
            compute_gmap(a)

    def test_negative_with_constant_raises(self):
        for phi in (U3, L1, D1, make_lower_diag(X, Y, WEAK, 2)):
            with pytest.raises(ValueError, match="constraint constant -1 is not "
                               "a natural number in int64 range"):
                phi.with_constant(-1)
            with pytest.raises(ValueError, match="constraint constant"):
                phi.with_constant(INT64_MAX + 1)
            assert phi.with_constant(INT64_MAX).constant == INT64_MAX


class TestBaseSets:
    def test_guarded_loop_base(self):
        a = fig1_automaton()
        base = g0(a)
        assert set(base[0]) == {U3, L1}
        assert set(base[1]) == {D1}
        assert set(base[2]) == set()

    def test_no_outgoing_edges_empty(self):
        a = Automaton(
            "t", (Location("a", initial=True),), (), ("x",)
        )
        assert set(g0(a)[0]) == set()

    def test_invariant_atoms_included(self):
        inv = Guard((make_upper(X, WEAK, 7),))
        a = Automaton(
            "t",
            (Location("a", initial=True, invariant=inv),),
            (),
            ("x", "y"),
        )
        assert set(g0(a)[0]) == {make_upper(X, WEAK, 7)}

    def test_reference_restates_the_analysis(self):
        rng = random.Random(57)
        for _ in range(60):
            a = random_automaton(rng, n_clocks=rng.randint(1, 3))
            assert base_records(a) == _base_records(a, edge_propagations(a))


class TestKleeneStep:
    def test_first_sweep_additions(self):
        a = fig1_automaton()
        after, added = kleene_step(g0(a), a)
        assert {(q, phi) for q, phi, _, _ in added} == {(0, D2), (1, U3), (1, L1)}
        assert D2 in after[0] and U3 in after[1]

    def test_non_reduced_grows(self):
        a = fig1_automaton()
        sets = g0(a, plain_preimage)
        for _ in range(4):
            sets, _ = kleene_step(sets, a, plain_preimage)
        assert make_upper(X, WEAK, 4) in sets[0]
        assert make_lower(X, WEAK, 2) in sets[0]
        assert make_upper_diag(X, Y, STRICT, 3) in sets[0]

    def test_fixed_point_adds_nothing(self):
        a = fig1_automaton()
        gmap = compute_gmap(a)
        after, added = kleene_step(gmap.sets, a)
        assert added == []
        assert after == gmap.sets

    def test_monotone_on_random_automata(self):
        rng = random.Random(55)
        for _ in range(30):
            a = random_automaton(rng)
            sets = g0(a)
            for _ in range(3):
                after, added = kleene_step(sets, a)
                for before_q, after_q in zip(sets, after):
                    assert set(before_q) <= set(after_q)
                for q, phi, ei, parent in added:
                    e = a.edges[ei]
                    assert e.src == q
                    assert wp(parent, edge_context(a, ei), e.update,
                              len(a.clock_names)) == phi
                sets = after


class TestComputeGmap:
    def test_guarded_loop_fixed_point(self):
        a = fig1_automaton()
        gmap = compute_gmap(a)
        assert gmap.status is Status.CONVERGED
        assert gmap.iterations == 5
        assert set(gmap.sets[0]) == {U3, L1, L2, L3, D2, D3}
        assert set(gmap.sets[1]) == {D1, U3, L1, L2, L3, D2, D3}
        assert set(gmap.sets[2]) == set()
        assert check_closure(gmap, a)
        for g in gmap.sets:
            for phi in g:
                assert phi.constant <= gmap.bounds.N

    def test_unguarded_loop_diverges(self):
        a = fig1_automaton(guard_on=False)
        gmap = compute_gmap(a)
        assert gmap.status is Status.DIVERGED
        assert gmap.bounds.M == 1 and gmap.bounds.L == 1
        assert gmap.bounds.N == 25
        assert gmap.iterations == 3
        last = gmap.witness.steps[-1]
        assert last.location == 0
        assert last.constraint == make_upper_diag(X, Y, STRICT, 26)
        assert all(
            st.constraint.kind is Kind.UPPER_DIAG for st in gmap.witness.steps
        )
        consts = [st.constraint.constant for st in gmap.witness.steps]
        assert consts == sorted(consts)
        assert gmap.witness.cycle is not None
        assert verify_witness(gmap, a) == []

    def test_guarded_loop_non_reduced_exhausts_budget(self):
        a = fig1_automaton()
        gmap = plain_gmap(a)
        assert gmap.status is Status.BUDGET_EXHAUSTED
        assert gmap.budget == 648
        assert gmap.iterations == gmap.budget + 1

    def test_budget_override(self):
        # the unguarded loop's growth cycle reaches N only after 49 steps
        a = fig1_automaton(guard_on=False)
        gmap = compute_gmap(a, budget_override=10)
        assert gmap.status is Status.BUDGET_EXHAUSTED
        assert gmap.iterations == 11

    def test_all_zero_constants_get_a_budget_floor(self):
        # M=L=0 makes the formula budget zero, but the closure still needs a
        # sweep to carry x<=0 from q0's outgoing guard back around the cycle.
        a = Automaton(
            "z",
            (Location("a", initial=True), Location("b")),
            (Edge(0, 1, Guard((make_upper(X, WEAK, 0),))), Edge(1, 0)),
            ("x",),
        )
        assert analysis_bounds(a).budget == 0
        gmap = compute_gmap(a)
        assert gmap.status is Status.CONVERGED
        assert gmap.budget == 2 * 4 * 1 * 2 + 1
        assert make_upper(X, WEAK, 0) in gmap.sets[1].nond

    def test_matches_synchronous_iteration(self):
        rng = random.Random(808)
        compared = 0
        for _ in range(40):
            a = random_automaton(rng)
            sets = g0(a)
            for _ in range(60):
                after, added = kleene_step(sets, a)
                if not added:
                    break
                sets = after
            else:
                continue
            gmap = compute_gmap(a)
            if gmap.status is Status.CONVERGED:
                assert gmap.sets == sets
                compared += 1
        assert compared >= 10

    def test_converged_random_maps_are_closed_and_bounded(self):
        rng = random.Random(909)
        converged = 0
        for _ in range(40):
            a = random_automaton(rng)
            gmap = compute_gmap(a)
            if gmap.status is not Status.CONVERGED:
                continue
            converged += 1
            assert check_closure(gmap, a)
            for g in gmap.sets:
                for phi in g:
                    assert phi.constant <= gmap.bounds.N
        assert converged >= 10

    def test_diverged_random_witnesses_verify(self):
        rng = random.Random(660)
        diverged = 0
        for _ in range(150):
            a = random_automaton(rng, n_clocks=2, max_const=3)
            gmap = compute_gmap(a)
            if gmap.status is Status.DIVERGED:
                diverged += 1
                assert verify_witness(gmap, a) == []
        assert diverged >= 5

    def test_report_shape(self):
        a = fig1_automaton(guard_on=False)
        gmap = compute_gmap(a)
        doc = report_json(a, gmap)
        assert doc["status"] == "diverged"
        assert doc["bounds"] == {"M": 1, "L": 1, "N": 25, "budget": 600}
        assert "x-y<2" in doc["location"]["q0"]
        assert doc["witness"][-1]["constraint"] == "x-y<26"
        assert doc["cycle"][0] < doc["cycle"][1]


class TestCycleDetection:
    """compute_gmap against the sweep that runs on until a constant exceeds N
    (`reference.sweep_gmap`): same status; the same sets and sweep count
    when not diverged; when diverged, a witness that verifies, found no
    later."""

    @staticmethod
    def check_against_sweep(a, **kw) -> Status:
        got, ref = compute_gmap(a, **kw), sweep_gmap(a, **kw)
        assert got.status is ref.status
        if ref.status is Status.DIVERGED:
            assert verify_witness(got, a) == []
            assert got.iterations <= ref.iterations
        else:
            assert got.sets == ref.sets
            assert got.iterations == ref.iterations
        return got.status

    def test_benchmark_pool(self):
        # the 200 gen_random profiles of the analyze-random benchmark
        statuses = Counter()
        for seed in range(200):
            profile = RandomProfile(fragment=FRAGMENTS[seed % len(FRAGMENTS)],
                                    seed=seed, n_locs=10, n_clocks=3,
                                    max_const=12)
            for a in gen_random(profile).components:
                statuses[self.check_against_sweep(a)] += 1
        assert statuses == {Status.CONVERGED: 183, Status.DIVERGED: 17}

    def test_random_components_outside_the_pool(self):
        # smaller profiles than the pool's, every fragment on every seed
        statuses = Counter()
        for seed in range(150):
            for fragment in FRAGMENTS:
                profile = RandomProfile(fragment=fragment, seed=seed, n_locs=6,
                                        n_clocks=3, max_const=8)
                for a in gen_random(profile).components:
                    statuses[self.check_against_sweep(a)] += 1
        assert statuses == {Status.CONVERGED: 554, Status.DIVERGED: 46}

    def test_pumping_stays_within_the_budget(self):
        # the chain to x-y<26 is 49 propagations long, so the sweep stops
        # Diverged only when budget + 1 reaches 49
        a = fig1_automaton(guard_on=False)
        for budget in range(61):
            status = self.check_against_sweep(a, budget_override=budget)
            expect = Status.DIVERGED if budget >= 48 else Status.BUDGET_EXHAUSTED
            assert status is expect
        for guard_on in (True, False):
            self.check_against_sweep(fig1_automaton(guard_on=guard_on),
                                     budget_override=20)


class TestBounds:
    def test_guarded_loop_bounds(self):
        b = analysis_bounds(fig1_automaton())
        assert (b.M, b.L) == (3, 1)
        assert b.n_locations == 3 and b.n_clocks == 2
        assert b.N == 27
        assert b.budget == 648

    def test_bare_automaton(self):
        a = Automaton(
            "t",
            (Location("a", initial=True), Location("b")),
            (Edge(0, 1),),
            ("x",),
        )
        b = analysis_bounds(a)
        assert (b.M, b.L, b.N) == (0, 0, 0)

    def test_invariant_constants_count(self):
        inv = Guard((make_upper(X, WEAK, 9),))
        a = Automaton(
            "t",
            (Location("a", initial=True, invariant=inv),),
            (),
            ("x",),
        )
        assert analysis_bounds(a).M == 9


class TestGSet:
    def test_of_splits_by_kind_value(self):
        # a kind given as the plain int the constructor accepts sorts as its Kind
        atoms = [U3, D2, TOP, BOTTOM]
        as_ints = [AtomicConstraint(int(phi.kind), phi.x, phi.y, phi.strictness,
                                    phi.constant) for phi in atoms]
        for g in (GSet.of(atoms), GSet.of(as_ints)):
            assert g.nond == {U3} and g.diag == {D2}


class TestExtractLU:
    def test_mixed_set(self):
        g = GSet.of([L1, L3, U3, D2])
        lu = extract_lu(g, 2)
        assert lu.lower[X] == (3, WEAK)
        assert lu.upper[X] == (3, WEAK)
        assert lu.lower[Y] is None and lu.upper[Y] is None

    def test_empty(self):
        lu = extract_lu(GSet.of([]), 2)
        assert lu.lower == (None, None) and lu.upper == (None, None)

    def test_weak_dominates_strict_at_equal_constant(self):
        g = GSet.of([make_upper(X, STRICT, 3), make_upper(X, WEAK, 3)])
        assert extract_lu(g, 1).upper[X] == (3, WEAK)


class TestClosure:
    def test_converged_map_is_closed(self):
        a = fig1_automaton()
        assert check_closure(compute_gmap(a), a)

    def test_deleting_a_constraint_breaks_closure(self):
        a = fig1_automaton()
        gmap = compute_gmap(a)
        smaller = GSet.of([phi for phi in gmap.sets[0] if phi != L3])
        broken = replace(gmap, sets=(smaller,) + gmap.sets[1:])
        assert not check_closure(broken, a)

    def test_edgeless_automaton(self):
        a = Automaton("t", (Location("a", initial=True),), (), ("x",))
        assert check_closure(compute_gmap(a), a)


class TestBoundedSubtraction:
    def test_guarded_subtraction_accepted(self):
        a = Automaton(
            "h",
            (Location("a", initial=True),),
            (Edge(0, 0, Guard((make_upper(X, WEAK, 5),)), Update.of({X: Shift(X, -2)})),),
            ("x",),
        )
        assert check_syntactically_bounded(a)

    def test_unguarded_subtraction_rejected(self):
        a = fig1_automaton(guard_on=False)
        assert not check_syntactically_bounded(a)
        assert check_syntactically_bounded(fig1_automaton())

    def test_reset_only_accepted(self):
        a = Automaton(
            "r",
            (Location("a", initial=True),),
            (Edge(0, 0, Guard(), Update.of({X: Const(0)})),),
            ("x",),
        )
        assert check_syntactically_bounded(a)

    def test_shift_between_clocks_rejected(self):
        a = Automaton(
            "s",
            (Location("a", initial=True),),
            (Edge(0, 0, Guard(), Update.of({X: Shift(Y, 1)})),),
            ("x", "y"),
        )
        assert not check_syntactically_bounded(a)

    def test_bound_transform_adds_caps(self):
        a = fig1_automaton(guard_on=False)
        capped = bound_transform(a, {X: 7, Y: 7})
        assert make_upper(X, WEAK, 7) in capped.edges[0].guard.clock_atoms
        assert check_syntactically_bounded(capped)
        # edges without subtraction stay as they were
        assert capped.edges[1].guard == a.edges[1].guard

    def test_bound_transform_rejects_shifts(self):
        a = Automaton(
            "s",
            (Location("a", initial=True),),
            (Edge(0, 0, Guard(), Update.of({X: Shift(Y, 1)})),),
            ("x", "y"),
        )
        with pytest.raises(ValueError):
            bound_transform(a, {X: 3, Y: 3})

    def test_capped_divergent_loop_converges(self):
        a = bound_transform(fig1_automaton(guard_on=False), {X: 4, Y: 4})
        gmap = compute_gmap(a)
        assert gmap.status is Status.CONVERGED


class TestConvergenceTheorems:
    def test_syntactically_bounded_always_converges(self):
        rng = random.Random(112)
        for _ in range(40):
            a = random_automaton(rng, style="bounded_sub")
            if not check_syntactically_bounded(a):
                continue
            gmap = compute_gmap(a)
            assert gmap.status is Status.CONVERGED
            cap = 0
            for e in a.edges:
                for phi in e.guard.clock_atoms:
                    cap = max(cap, phi.constant)
                cap = max(cap, e.update.max_offset())
            for g in gmap.sets:
                for phi in g:
                    assert phi.constant <= cap

    def test_upper_guards_on_all_clocks_converge_within_m(self):
        rng = random.Random(113)
        for _ in range(40):
            a = random_automaton(rng, style="clock_bounded")
            gmap = compute_gmap(a)
            assert gmap.status is Status.CONVERGED
            for g in gmap.sets:
                for phi in g:
                    assert phi.constant <= gmap.bounds.M

    def test_reduced_dominated_by_non_reduced(self):
        rng = random.Random(114)
        compared = 0
        for _ in range(60):
            a = random_automaton(rng)
            non = plain_gmap(a, budget_override=200)
            if non.status is not Status.CONVERGED:
                continue
            red = compute_gmap(a)
            assert red.status is Status.CONVERGED
            n = len(a.clock_names)
            for q in range(len(a.locations)):
                red_lu = extract_lu(red.sets[q], n)
                non_lu = extract_lu(non.sets[q], n)
                assert red_lu.dominated_by(non_lu)
                assert red.sets[q].diag <= non.sets[q].diag
            compared += 1
        assert compared >= 8
