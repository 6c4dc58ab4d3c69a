"""Zone matrix algebra: bounds, canonical form, successors."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fig1_automaton,
    random_atom,
    random_update,
    random_valuation,
    random_zone_chain,
)
from reference import (
    apply_update,
    apply_update_point,
    apply_update_relational,
    bound_str,
    canonicalize,
    decode_bound,
    delayed,
    dump,
    elapse,
    equals,
    initial_zone,
    intersect_all,
    membership,
    satisfies,
    staged_successor,
    universe,
    zone_of,
)
from uta.dbm import (
    EMPTY,
    INF,
    LIMIT,
    Dbm,
    _IMPLIED,
    _tighten,
    add_bounds,
    compile_step,
    constrain,
    encode_atoms,
    encode_bound,
    successor,
    unpack,
    zero_zone,
)
from uta.model import (
    MAX_CONST,
    STRICT,
    WEAK,
    Const,
    Edge,
    Guard,
    Shift,
    Update,
    make_lower,
    make_lower_diag,
    make_upper,
    make_upper_diag,
)

X, Y, Z = 0, 1, 2


def random_canonical(rng: random.Random):
    """A non-empty canonical zone of 1 to 3 clocks with INF entries and
    bounds of both parities: a guarded, updated, elapsed chain, or the
    closure of a random bound matrix."""
    n = rng.randint(1, 3)
    while True:
        if rng.random() < 0.5:
            z = random_zone_chain(rng, n)
        else:
            m = np.array(universe(n).m)
            for _ in range(rng.randint(1, 4)):
                i, j = rng.sample(range(n + 1), 2)
                m[i, j] = encode_bound(rng.randint(-4, 6), rng.choice((STRICT, WEAK)))
            z = canonicalize(m)
        if z is not EMPTY:
            return z


class TestBounds:
    def test_order_matches_integers(self):
        # strict is tighter than weak at the same value
        assert encode_bound(3, STRICT) < encode_bound(3, WEAK)
        assert encode_bound(3, WEAK) < encode_bound(4, STRICT)
        assert encode_bound(-1, WEAK) < encode_bound(0, STRICT)
        assert encode_bound(10**6, WEAK) < INF

    def test_addition(self):
        w2, w3 = encode_bound(2, WEAK), encode_bound(3, WEAK)
        s2, s3 = encode_bound(2, STRICT), encode_bound(3, STRICT)
        assert add_bounds(w2, w3) == encode_bound(5, WEAK)
        assert add_bounds(w2, s3) == encode_bound(5, STRICT)
        assert add_bounds(s2, s3) == encode_bound(5, STRICT)
        assert add_bounds(w2, INF) == INF
        assert add_bounds(INF, INF) == INF

    def test_roundtrip(self):
        rng = random.Random(42)
        for _ in range(200):
            v = rng.randint(-50, 50)
            s = rng.choice([STRICT, WEAK])
            assert decode_bound(encode_bound(v, s)) == (v, s)
        assert decode_bound(INF) is None

    def test_overflow_rejected(self):
        with pytest.raises(OverflowError):
            encode_bound(2**45, WEAK)

    def test_strings(self):
        assert bound_str(encode_bound(3, WEAK)) == "<=3"
        assert bound_str(encode_bound(-2, STRICT)) == "<-2"
        assert bound_str(int(INF)) == "inf"


class TestInitialZone:
    def test_two_clocks(self):
        z = initial_zone(2)
        assert membership(z, {X: 3, Y: 3})
        assert membership(z, {X: Fraction(1, 2), Y: Fraction(1, 2)})
        assert not membership(z, {X: 1, Y: 2})
        assert not membership(z, {X: -1, Y: -1})

    def test_zero_clocks(self):
        z = initial_zone(0)
        assert z.m.shape == (1, 1)
        assert membership(z, {})

    def test_canonical(self):
        z = initial_zone(3)
        assert equals(canonicalize(z.m), z)


class TestCanonicalize:
    def test_contradiction_is_empty(self):
        z = zone_of(2, [make_upper_diag(X, Y, WEAK, 2),
                        make_upper_diag(Y, X, WEAK, -3)])
        assert z is EMPTY

    def test_triangle_implied_bound(self):
        z = zone_of(2, [make_upper(X, WEAK, 5), make_upper_diag(Y, X, WEAK, 0)])
        # y <= y-x + x <= 0 + 5
        assert int(z.m[Y + 1, 0]) == encode_bound(5, WEAK)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            atoms = [random_atom(rng, 3, 6) for _ in range(rng.randint(0, 4))]
            z = zone_of(3, atoms)
            if z is EMPTY:
                continue
            again = canonicalize(z.m)
            assert equals(again, z)


class TestIntersect:
    def test_upper_cap(self):
        z = intersect_all(initial_zone(2), [make_upper(X, WEAK, 3)])
        assert membership(z, {X: 3, Y: 3})
        assert not membership(z, {X: 4, Y: 4})

    def test_satisfied_diagonal_no_change(self):
        z0 = initial_zone(2)
        z = intersect_all(z0, [make_upper_diag(X, Y, STRICT, 1)])
        assert equals(z, z0)

    def test_contradicting_diagonal_empties(self):
        assert intersect_all(initial_zone(2),
                             [make_lower_diag(X, Y, WEAK, 1)]) is EMPTY

    def test_membership_semantics_random(self):
        rng = random.Random(99)
        for _ in range(120):
            base = zone_of(3, [random_atom(rng, 3, 6)
                               for _ in range(rng.randint(0, 3))])
            if base is EMPTY:
                continue
            phi = random_atom(rng, 3, 6)
            cut = intersect_all(base, [phi])
            for _ in range(15):
                v = random_valuation(rng, 3)
                want = membership(base, v) and satisfies(v, phi)
                assert membership(cut, v) == want

    def test_one_pass_tightening_matches_closure(self):
        # the one-pass sum of _tighten against Floyd-Warshall closure, on
        # bounds of both parities, INF entries in the tightened row and
        # column included; constrain applies several in turn
        rng = random.Random(2004)
        tightened = 0
        for _ in range(400):
            z = random_canonical(rng)
            n1 = len(z.m)
            cut = []
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(n1), 2)
                cut.append((i, j, encode_bound(rng.randint(-5, 5),
                                               rng.choice((STRICT, WEAK)))))
            raw = np.array(z.m)
            for i, j, b in cut:
                raw[i, j] = min(raw[i, j], b)
            want = canonicalize(raw)
            got = constrain(z, cut)
            assert equals(got, want), (dump(z), cut)
            assert (got is z) == (want is not EMPTY and np.array_equal(want.m, z.m))
            i, j, b = cut[0]
            if b < z.m[i, j]:
                tightened += 1
                m = np.array(z.m)
                raw = np.array(z.m)
                raw[i, j] = b
                one = canonicalize(raw)
                assert _tighten(m, i, j, b) == (one is not EMPTY)
                if one is not EMPTY:
                    assert np.array_equal(m, one.m), (dump(z), (i, j, b))
        assert tightened > 150, tightened


class TestApplyUpdate:
    def test_subtract_on_initial(self):
        z = apply_update(initial_zone(2), Update.of({X: Shift(X, -1)}))
        # domain cut 1 <= x, image: y - x = 1, x >= 0
        assert membership(z, {X: 0, Y: 1})
        assert membership(z, {X: 2, Y: 3})
        assert not membership(z, {X: 1, Y: 1})
        assert not membership(z, {X: 0, Y: 2})

    def test_identity_unchanged(self):
        z = zone_of(2, [make_upper(X, WEAK, 4)])
        assert apply_update(z, Update()) is z

    def test_empty_domain(self):
        z = zone_of(2, [make_upper(X, STRICT, 1), make_upper_diag(X, Y, WEAK, 0),
                        make_upper_diag(Y, X, WEAK, 0)])
        assert apply_update(z, Update.of({X: Shift(X, -1)})) is EMPTY

    def test_swap_twice_is_identity(self):
        rng = random.Random(17)
        swap = Update.of({X: Shift(Y, 0), Y: Shift(X, 0)})
        for _ in range(40):
            z = zone_of(2, [random_atom(rng, 2, 5)
                            for _ in range(rng.randint(0, 3))])
            if z is EMPTY:
                continue
            back = apply_update(apply_update(z, swap), swap)
            assert equals(back, z)

    def test_points_map_into_image(self):
        rng = random.Random(23)
        for _ in range(150):
            z = zone_of(3, [random_atom(rng, 3, 5)
                            for _ in range(rng.randint(0, 3))])
            if z is EMPTY:
                continue
            up = random_update(rng, 3)
            img = apply_update(z, up)
            for _ in range(10):
                v = random_valuation(rng, 3)
                if not membership(z, v):
                    continue
                w = apply_update_point(up, v)
                if w is None:
                    continue
                assert img is not EMPTY
                assert membership(img, w), (dump(z), up, v, w)

    def test_matches_relational_reference(self):
        rng = random.Random(31)
        nonempty = 0
        for _ in range(250):
            z = zone_of(3, [random_atom(rng, 3, 5)
                            for _ in range(rng.randint(0, 3))])
            if z is EMPTY:
                continue
            up = random_update(rng, 3)
            fast = apply_update(z, up)
            slow = apply_update_relational(z, up)
            assert equals(fast, slow), (dump(z), up)
            if fast is not EMPTY:
                nonempty += 1
        assert nonempty > 100

    def test_results_canonical(self):
        rng = random.Random(37)
        for _ in range(80):
            z = zone_of(2, [random_atom(rng, 2, 5)
                            for _ in range(rng.randint(0, 2))])
            if z is EMPTY:
                continue
            out = apply_update(z, random_update(rng, 2))
            if out is EMPTY:
                continue
            assert equals(canonicalize(out.m), out)


class TestZoneRange:
    """An update may not move a finite entry to -LIMIT, LIMIT or beyond,
    where the sums that tightening forms would reach INF or wrap."""

    SHIFT = Update.of({X: Shift(X, MAX_CONST)})
    STEP = 2 * MAX_CONST  # what SHIFT adds to the encoded bound of x - y

    @staticmethod
    def zone(i, j, b):
        """The 2-clock zone x_i - x_j <= b (encoded), built directly."""
        m = np.array(universe(2).m)
        m[i, j] = b
        return canonicalize(m)

    def test_upper_entry_near_the_limit(self):
        weak = LIMIT - self.STEP - 1
        out = apply_update(self.zone(X + 1, Y + 1, weak), self.SHIFT)
        assert out.m[X + 1, Y + 1] == LIMIT - 1
        with pytest.raises(OverflowError):
            apply_update(self.zone(X + 1, Y + 1, weak + 2), self.SHIFT)

    def test_lower_entry_near_the_limit(self):
        # y - x <= b also bounds x from below: both entries move down
        weak = -LIMIT + self.STEP + 1
        out = apply_update(self.zone(Y + 1, X + 1, weak), self.SHIFT)
        assert out.m[Y + 1, X + 1] == out.m[0, X + 1] == -LIMIT + 1
        with pytest.raises(OverflowError):
            apply_update(self.zone(Y + 1, X + 1, weak - 2), self.SHIFT)

    def test_entries_that_would_pass_infinity(self):
        # x - y <= 2^61 - 2^40 would move to 2^62 + 1 >= INF and read as
        # unbounded; its mirror y - x <= 2^40 - 2^61 to -INF + 1, one lap
        # short of passing -INF
        b = 2 * (2**61 - MAX_CONST) + 1
        for i, j, entry in ((X + 1, Y + 1, b), (Y + 1, X + 1, 2 - b)):
            with pytest.raises(OverflowError):
                apply_update(self.zone(i, j, entry), self.SHIFT)

    def test_successor_raises_as_the_staged_reference(self):
        step = compile_step((), self.SHIFT, 2)
        weak = LIMIT - self.STEP - 1
        ok = self.zone(X + 1, Y + 1, weak)
        assert successor(ok, step) == staged_successor(ok, step)
        over = self.zone(X + 1, Y + 1, weak + 2)
        with pytest.raises(OverflowError) as want:
            staged_successor(over, step)
        with pytest.raises(OverflowError) as got:
            successor(over, step)
        assert str(got.value) == str(want.value)

    def test_copies_are_not_checked(self):
        # resets to 0 and plain copies carry no offset, so cannot grow
        z = self.zone(X + 1, Y + 1, LIMIT - 1)
        for up in ({Y: Const(0)}, {Y: Shift(X, 0)}):
            assert compile_step((), Update.of(up), 2).delta is None
            assert apply_update(z, Update.of(up)) is not EMPTY


class TestElapse:
    def test_point_becomes_diagonal_ray(self):
        point = zone_of(2, [make_upper(X, WEAK, 0), make_upper(Y, WEAK, 0)])
        assert equals(elapse(point), initial_zone(2))

    def test_idempotent_and_preserves_diagonals(self):
        rng = random.Random(41)
        for _ in range(60):
            z = zone_of(3, [random_atom(rng, 3, 5)
                            for _ in range(rng.randint(0, 3))])
            if z is EMPTY:
                continue
            up = elapse(z)
            assert equals(elapse(up), up)
            assert np.array_equal(up.m[1:, 1:], z.m[1:, 1:])
            assert equals(canonicalize(up.m), up)

    def test_future_points_included(self):
        rng = random.Random(43)
        for _ in range(60):
            z = zone_of(2, [random_atom(rng, 2, 5)])
            if z is EMPTY:
                continue
            f = elapse(z)
            v = random_valuation(rng, 2)
            if membership(z, v):
                d = Fraction(rng.randint(0, 12), 2)
                assert membership(f, delayed(v, d))


def step_of(e: Edge, n_clocks: int):
    return compile_step(e.guard.clock_atoms, e.update, n_clocks)


class TestSuccessor:
    def test_guarded_subtract_edge(self):
        a = fig1_automaton()
        z = successor(initial_zone(2), step_of(a.edges[0], 2))
        # exact image: y - x = 1 with x unbounded above
        assert membership(z, {X: 0, Y: 1})
        assert membership(z, {X: 5, Y: 6})
        assert not membership(z, {X: 0, Y: Fraction(3, 2)})
        assert not membership(z, {X: 0, Y: 3})
        assert int(z.m[Y + 1, X + 1]) == encode_bound(1, WEAK)
        assert int(z.m[X + 1, Y + 1]) == encode_bound(-1, WEAK)

    def test_contradictory_guard(self):
        e = Edge(0, 1, Guard((make_upper(X, WEAK, 3), make_lower(X, WEAK, 4))))
        assert successor(initial_zone(1), step_of(e, 1)) is EMPTY

    def test_plain_edge_is_elapse(self):
        z = zone_of(2, [make_upper(X, WEAK, 2)])
        e = Edge(0, 1)
        assert equals(successor(z, step_of(e, 2)), elapse(z))

    def test_no_elapse_keeps_upper_bounds(self):
        z = zone_of(2, [make_upper(X, WEAK, 2)])
        out = successor(z, step_of(Edge(0, 1), 2), do_elapse=False)
        assert not membership(out, {X: 3, Y: 0})

    def test_update_constants_past_the_bound_rejected(self):
        # 2 * (2^62 - 0) would wrap the int64 offset matrix
        for up in ({X: Shift(X, 2**62)}, {X: Shift(Y, MAX_CONST + 1)},
                   {X: Shift(Y, -MAX_CONST - 1)}, {X: Const(MAX_CONST + 1)}):
            with pytest.raises(OverflowError):
                compile_step((), Update.of(up), 2)
        step = compile_step((), Update.of({X: Shift(X, MAX_CONST)}), 2)
        assert int(step.delta[X + 1, 0]) == 2 * MAX_CONST

    def test_one_pass_matches_staged_reference(self):
        # successor against guard, update, invariant, elapse and invariant
        # applied one stage and one zone at a time, on random zones and
        # steps: self-subtractions, invariants and committed targets
        # (no elapse) included
        rng = random.Random(29)
        same = changed = 0
        for _ in range(400):
            z = random_canonical(rng)
            n = len(z.m) - 1
            if rng.random() < 0.3:
                x = rng.randrange(n)
                up = Update.of({x: Shift(x, -rng.randint(1, 2))})
            else:
                up = random_update(rng, n) if rng.random() < 0.7 else Update()
            guard = [random_atom(rng, n, 5) for _ in range(rng.randint(0, 2))]
            step = compile_step(guard, up, n)
            inv = encode_atoms(make_upper(rng.randrange(n), rng.choice((STRICT, WEAK)),
                                          rng.randint(1, 6))
                               for _ in range(rng.randint(0, 2)))
            elapse_too = rng.random() < 0.7
            want = staged_successor(z, step, inv, elapse_too)
            got = successor(z, step, inv, elapse_too)
            assert (got is EMPTY) == (want is EMPTY), (dump(z), step)
            if got is not EMPTY:
                assert got.packed == want.packed, (dump(z), step)
            assert (got is z) == (want is z)
            same += got is z
            # a zone on a writeable matrix is read, never written
            w = Dbm(np.array(z.m))
            before = np.array(w.m)
            out = successor(w, step, inv, elapse_too)
            assert np.array_equal(w.m, before)
            assert (out is w) == (want is z)
            changed += out is not w and out is not EMPTY
        assert same >= 10 and changed > 150, (same, changed)

    def test_invariant_applied_after_elapse(self):
        inv = encode_atoms((make_upper(X, WEAK, 5),))
        out = successor(initial_zone(2), step_of(Edge(0, 1), 2), invariant=inv)
        assert membership(out, {X: 5, Y: 5})
        assert not membership(out, {X: 6, Y: 6})


class TestEquality:
    def test_empty_cases(self):
        assert equals(EMPTY, EMPTY)
        assert not equals(EMPTY, initial_zone(1))

    def test_equal_matrices_same_membership(self):
        rng = random.Random(53)
        count = 0
        for _ in range(40):
            atoms = [random_atom(rng, 2, 5) for _ in range(rng.randint(1, 3))]
            z1 = zone_of(2, atoms)
            z2 = intersect_all(universe(2), atoms)
            assert equals(z1, z2)
            if z1 is EMPTY:
                continue
            for _ in range(25):
                v = random_valuation(rng, 2)
                assert membership(z1, v) == membership(z2, v)
                count += 1
        assert count >= 500

    def test_hashable(self):
        z1 = initial_zone(2)
        z2 = intersect_all(z1, [make_upper_diag(X, Y, STRICT, 1)])
        assert hash(z1) == hash(z2)
        assert len({z1, z2}) == 1
        # equal zones built apart hash alike, before and after either one
        # has cached its hash
        rng = random.Random(59)
        for _ in range(40):
            atoms = [random_atom(rng, 3, 6) for _ in range(rng.randint(0, 4))]
            a, b = zone_of(3, atoms), zone_of(3, list(reversed(atoms)))
            if a is EMPTY:
                continue
            c = Dbm(np.array(a.m))
            assert a is not b and a == b == c
            assert hash(a) == hash(b) == hash(c) == hash(a)
            assert len({a, b, c}) == 1
        other = zone_of(2, [make_upper(X, WEAK, 2)])
        assert other != z1 and len({z1, other}) == 2


class TestPacked:
    """A zone packs into the narrowest width that holds it, as row 0 and
    column 0 alone where they imply the rest, and unpacks to its exact
    int64 matrix."""

    @staticmethod
    def matrix(v: int) -> np.ndarray:
        m = np.full((3, 3), 1, dtype=np.int64)
        m[1, 0] = m[2, 1] = INF
        m[0, 1], m[2, 0], m[1, 2] = v, -v, v // 3
        return m

    @staticmethod
    def implied_matrix(v: int) -> np.ndarray:
        # row 0 all LE_ZERO and column 0 (1, v, -v): the interior is what
        # they imply, v at (1, 2) and -v at (2, 1)
        m = np.empty((3, 3), dtype=np.int64)
        m[0], m[1:, 0] = (1, 1, 1), (v, -v)
        m[1:, 1:] = [[add_bounds(int(c), int(r)) for r in m[0, 1:]]
                     for c in m[1:, 0]]
        np.fill_diagonal(m, 1)
        return m

    @pytest.mark.parametrize("v, width", [
        (2**15 - 2, 2), (-(2**15 - 2), 2),
        (2**15 - 1, 4), (-(2**15 - 1), 4),
        (2**31 - 2, 4), (-(2**31 - 2), 4),
        (2**31 - 1, 8), (-(2**31 - 1), 8), (2**40, 8), (-(2**59), 8),
    ])
    def test_width_boundaries(self, v, width):
        m = self.matrix(v)
        z = Dbm(m)
        # with INF entries, dense: the tag and 9 entries
        assert z.packed[0] == width and len(z.packed) == 1 + 9 * width
        got = unpack(z.packed)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, m) and (got == INF).sum() == 2
        # finite, (1, 2) and (2, 1) still differ from what row 0 and column
        # 0 imply, so dense at every width
        finite = np.where(m == INF, 5, m)
        z = Dbm(finite)
        assert z.packed[0] == width and len(z.packed) == 1 + 9 * width
        got = unpack(z.packed)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, finite)
        # implied: the tag and the 5 entries of row 0 and column 0
        implied = self.implied_matrix(v)
        z = Dbm(implied)
        assert z.packed[0] == width | _IMPLIED
        assert len(z.packed) == 1 + 5 * width
        got = unpack(z.packed)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, implied)

    def test_bytes_fix_the_shape(self):
        # a dense 3 x 3 zone, whose (1, 2) = 7 is not the 2 that row 0 and
        # column 0 imply, and an implied 4 x 4 one: 19 and 15 bytes
        small = np.array([[1, -4, -6], [9, 1, 7], [11, 6, 1]], dtype=np.int64)
        big = np.empty((4, 4), dtype=np.int64)
        big[0], big[1:, 0] = (1, -4, -6, 9), (11, 7, 5)
        big[1:, 1:] = [[add_bounds(int(c), int(r)) for r in big[0, 1:]]
                       for c in big[1:, 0]]
        np.fill_diagonal(big, 1)
        a, b = Dbm(small), Dbm(big)
        assert len(a.packed) == 19 and a.packed[0] == 2
        assert len(b.packed) == 15 and b.packed[0] == 2 | _IMPLIED
        assert a != b
        assert np.array_equal(unpack(b.packed), b.m)
        assert np.array_equal(unpack(a.packed), a.m)
        for n1 in range(1, 7):
            implied = zero_zone(n1 - 1)
            # m[0,0] = 3 is not the 5 that it implies with itself
            dense = Dbm(np.full((n1, n1), 3, dtype=np.int64))
            assert implied.packed[0] == 2 | _IMPLIED and dense.packed[0] == 2
            assert len(implied.packed) == 1 + (2 * n1 - 1) * 2
            assert len(dense.packed) == 1 + n1 * n1 * 2
            for z in (implied, dense):
                got = unpack(z.packed)
                assert got.shape == (n1, n1) and np.array_equal(got, z.m)

    def test_many_clocks_pack_implied(self):
        z = zero_zone(300)
        assert z.packed[0] == 2 | _IMPLIED and len(z.packed) == 1 + 601 * 2
        assert np.array_equal(unpack(z.packed), z.m)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           shift=st.sampled_from((0, 12, 13, 14, 29, 30, 37)))
    def test_equality_and_hash_follow_the_matrix(self, seed, n, shift):
        rng = random.Random(seed)

        def atoms():
            return [phi.with_constant(phi.constant << shift)
                    for phi in (random_atom(rng, n, 6)
                                for _ in range(rng.randint(0, 4)))]

        first, second = atoms(), atoms()
        a, b = zone_of(n, first), zone_of(n, second)
        if a is EMPTY or b is EMPTY:
            return
        c = zone_of(n, list(reversed(first)))
        assert a == c and hash(a) == hash(c)
        assert (a == b) == np.array_equal(a.m, b.m)
        assert (a == b) == (a.packed == b.packed)
        if a == b:
            assert hash(a) == hash(b)
        for z in (a, b):
            assert np.array_equal(unpack(z.packed), z.m)
            assert Dbm(unpack(z.packed)) == z

    @staticmethod
    def kind_zone(rng, n, kind, shift):
        """A zone of n clocks, every constant shifted left by shift: a
        point, a box (every clock bounded), an open box (some clocks
        unbounded above: INF entries), a diagonal one (a box cut by
        constraints on clock differences, so that some interior entries
        are not what row 0 and column 0 imply) or an elapsed one (random
        constraints, then elapsed: INF column 0, finite interior)."""
        def c():
            return rng.randint(1, 3) << shift

        if kind in ("diagonal", "elapsed"):
            atoms = [phi.with_constant(phi.constant << shift)
                     for phi in (random_atom(rng, n, 6) for _ in range(4))]
            if kind == "diagonal":
                atoms += [make_upper(x, WEAK, 2 * c()) for x in range(n)]
            z = zone_of(n, atoms)
            return z if z is EMPTY or kind == "diagonal" else elapse(z)
        atoms = []
        for x in range(n):
            lo = c()
            hi = lo if kind == "point" else lo + c()
            atoms.append(make_lower(x, WEAK, lo))
            if kind != "open box" or rng.random() < 0.5:
                atoms.append(make_upper(x, WEAK, hi))
        return zone_of(n, atoms)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           kinds=st.tuples(*[st.sampled_from(
               ("point", "box", "open box", "diagonal", "elapsed"))] * 2),
           shift=st.sampled_from((0, 13, 14, 29, 30, 37)))
    def test_zone_kinds_round_trip(self, seed, n, kinds, shift):
        rng = random.Random(seed)
        a, b = (self.kind_zone(rng, n, kind, shift) for kind in kinds)
        if a is EMPTY or b is EMPTY:
            return
        assert (a.packed == b.packed) == np.array_equal(a.m, b.m)
        for z, kind in zip((a, b), kinds):
            got = unpack(z.packed)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert np.array_equal(got, z.m) and Dbm(got) == z
            assert hash(Dbm(got)) == hash(z)
            finite = np.abs(z.m[z.m < INF]).max()
            width = next(w for w, top in ((2, 2**15 - 1), (4, 2**31 - 1), (8, INF))
                         if finite < top)
            assert z.packed[0] & ~_IMPLIED == width, (kind, shift)
            if (z.m == INF).any():
                assert z.packed[0] == width  # dense: it has INF entries
            elif kind in ("point", "box", "open box"):
                # a box's interior is what its row 0 and column 0 imply
                assert z.packed[0] == width | _IMPLIED, kind
                assert len(z.packed) == 1 + (2 * n + 1) * width

    @settings(max_examples=300, deadline=None)
    @given(n1=st.integers(1, 5), data=st.data(), implied=st.booleans(),
           span=st.sampled_from(("int16", "finite", "any")))
    def test_every_int64_matrix_round_trips(self, n1, data, implied, span):
        # not canonical: entries within int16, any finite int64 or any
        # int64, INF and above it included; with implied, m[0,0] and the
        # interior are first set to what row 0 and column 0 imply and up
        # to two entries of m are then overwritten, so that the implied
        # form is taken, and the dense one where an overwrite breaks it
        edges = (0, 1, -1, 2**15 - 2, -(2**15 - 2))
        entry = st.one_of(st.integers(-40, 40), st.sampled_from(edges))
        if span != "int16":
            edges += (2**15 - 1, -(2**31 - 1), 2**31 - 2, int(INF) - 1)
            entry = st.one_of(st.integers(-(2**62) + 1, 2**62 - 1),
                              st.sampled_from(edges))
        if span == "any":
            entry = st.one_of(entry, st.integers(-(2**63), 2**63 - 1),
                              st.sampled_from((int(INF), int(INF) + 1)))
        rows = st.lists(entry, min_size=n1 * n1, max_size=n1 * n1)
        m, other = (np.array(data.draw(rows), dtype=np.int64).reshape(n1, n1)
                    for _ in range(2))
        if implied and n1 > 1:
            for x in (m, other):
                x[0, 0] = 1
                # the sum wraps around as int64 does
                x[1:, 1:] = [[(add_bounds(int(c), int(r)) + 2**63) % 2**64 - 2**63
                              if i != j else 1 for j, r in enumerate(x[0, 1:])]
                             for i, c in enumerate(x[1:, 0])]
            for _ in range(data.draw(st.integers(0, 2))):
                i, j = (data.draw(st.integers(0, n1 - 1)) for _ in range(2))
                m[i, j] = data.draw(entry)
        for x in (m, other):
            assert np.array_equal(unpack(Dbm(x).packed), x)
        assert (Dbm(m).packed == Dbm(other).packed) == np.array_equal(m, other)


def test_zone_of_matches_atom_semantics():
    rng = random.Random(61)
    for _ in range(150):
        atoms = [random_atom(rng, 3, 6) for _ in range(rng.randint(0, 4))]
        z = zone_of(3, atoms)
        for _ in range(12):
            v = random_valuation(rng, 3)
            want = all(satisfies(v, phi) for phi in atoms)
            assert membership(z, v) == want, (atoms, v)


def test_dump_readable():
    text = dump(zone_of(2, [make_upper(X, STRICT, 3)]), ("x", "y"))
    assert "<3" in text and "inf" in text
    assert dump(EMPTY) == "empty"
