"""Zone matrix algebra: bounds, canonical form, successors."""
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import fig1_automaton, random_atom, random_update, random_valuation
from reference import (
    apply_update,
    apply_update_relational,
    bound_str,
    canonicalize,
    decode_bound,
    delayed,
    dump,
    equals,
    initial_zone,
    intersect_all,
    membership,
    universe,
    zone_of,
)
from uta.dbm import (
    EMPTY,
    INF,
    Dbm,
    add_bounds,
    compile_step,
    elapse,
    encode_atoms,
    encode_bound,
    successor,
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
    apply_update as apply_update_point,
    make_lower,
    make_lower_diag,
    make_upper,
    make_upper_diag,
    satisfies,
)

X, Y, Z = 0, 1, 2


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
