"""Core type behaviour: constraint normalization, valuations, updates."""
import itertools
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import child_env
from reference import (
    apply_update_point,
    delayed,
    negate_atomic,
    normalize_atomic,
    satisfies,
)
from uta.model import (
    BOTTOM,
    STRICT,
    TOP,
    WEAK,
    AtomicConstraint,
    Const,
    IntAtom,
    Kind,
    Shift,
    Update,
    from_entry,
    make_lower,
    make_lower_diag,
    make_upper,
    make_upper_diag,
)

X, Y, Z = 0, 1, 2


class TestNormalization:
    def test_negative_upper_is_unsat(self):
        assert make_upper(X, WEAK, -3) is BOTTOM
        assert make_upper(X, STRICT, -1) is BOTTOM

    def test_zero_upper(self):
        # x < 0 is unsatisfiable over nonnegative clocks, x <= 0 is not.
        assert make_upper(X, STRICT, 0) is BOTTOM
        kept = make_upper(X, WEAK, 0)
        assert kept.kind is Kind.UPPER and kept.constant == 0

    def test_negative_lower_is_trivial(self):
        assert make_lower(X, WEAK, -5) is TOP
        assert make_lower(X, STRICT, -5) is TOP

    def test_zero_lower(self):
        assert make_lower(X, WEAK, 0) is TOP
        kept = make_lower(X, STRICT, 0)
        assert kept.kind is Kind.LOWER and kept.constant == 0

    def test_diagonal_flip_upper(self):
        # x - y <= -2  becomes  2 <= y - x.
        phi = make_upper_diag(X, Y, WEAK, -2)
        assert phi.kind is Kind.LOWER_DIAG
        assert (phi.x, phi.y) == (Y, X)
        assert phi.strictness is WEAK and phi.constant == 2

    def test_diagonal_flip_lower(self):
        # -3 < x - y  becomes  y - x < 3.
        phi = make_lower_diag(X, Y, STRICT, -3)
        assert phi.kind is Kind.UPPER_DIAG
        assert (phi.x, phi.y) == (Y, X)
        assert phi.strictness is STRICT and phi.constant == 3

    def test_same_clock_diagonal_collapses(self):
        assert make_upper_diag(X, X, WEAK, 0) is TOP     # 0 <= 0
        assert make_upper_diag(X, X, STRICT, 0) is BOTTOM  # 0 < 0
        assert make_lower_diag(X, X, STRICT, -1) is TOP    # -1 < 0
        assert make_lower_diag(X, X, WEAK, 1) is BOTTOM    # 1 <= 0

    def test_natural_constant_enforced(self):
        with pytest.raises(ValueError):
            AtomicConstraint(Kind.UPPER, X, None, WEAK, -1)

    def test_malformed_constraints_refused(self):
        for args in ((Kind.TOP, X), (Kind.UPPER, X, Y, WEAK, 1),
                     (Kind.UPPER, X, None, None, 1), (Kind.UPPER_DIAG, X, X, WEAK, 1),
                     (Kind.LOWER_DIAG, X, None, WEAK, 1), (Kind.LOWER, X, None, WEAK, 2**63)):
            with pytest.raises(ValueError):
                AtomicConstraint(*args)

    def test_plain_int_kind_reads_as_its_kind(self):
        # equal to make_upper's atom, so it must mean x <= 3, not BOTTOM
        phi = AtomicConstraint(2, X, None, WEAK, 3)
        assert phi == make_upper(X, WEAK, 3)
        assert phi.kind is Kind.UPPER
        assert phi.entry() == (X + 1, 0, WEAK, 3)
        assert AtomicConstraint(1).entry() == BOTTOM.entry()

    def test_plain_int_strictness_reads_as_its_strictness(self):
        phi = AtomicConstraint(Kind.UPPER, X, None, 1, 3)
        assert phi.strictness is WEAK
        assert phi.to_str(["x"]) == "x<=3"
        assert AtomicConstraint(Kind.LOWER_DIAG, X, Y, 0, 2).to_str(["x", "y"]) == "2<x-y"

    def test_kind_or_strictness_outside_its_enum_refused(self):
        for args in ((7, X, None, WEAK, 1), (Kind.UPPER, X, None, 2, 1),
                     ("UPPER", X, None, WEAK, 1)):
            with pytest.raises(ValueError, match="malformed constraint"):
                AtomicConstraint(*args)

    def test_natural_constant_enforced_under_optimize(self):
        # python -O strips asserts; the invariants must not go with them
        code = ("from uta.model import AtomicConstraint, Kind, WEAK\n"
                "try:\n"
                "    AtomicConstraint(Kind.UPPER, 0, None, WEAK, -1)\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, timeout=60,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert "constraint constant -1 is not a natural number" in proc.stdout

    def test_normalize_idempotent_and_semantics_preserving(self):
        rng = random.Random(20240811)
        for _ in range(400):
            kind = rng.choice(
                [Kind.UPPER, Kind.LOWER, Kind.UPPER_DIAG, Kind.LOWER_DIAG]
            )
            s = rng.choice([STRICT, WEAK])
            c = rng.randint(-6, 6)
            x = rng.randrange(3)
            y = rng.randrange(3) if kind in (Kind.UPPER_DIAG, Kind.LOWER_DIAG) else None
            phi = normalize_atomic(kind, x, y, s, c)
            if not phi.is_trivial:
                again = normalize_atomic(
                    phi.kind, phi.x, phi.y, phi.strictness, phi.constant
                )
                assert again == phi
            for _ in range(20):
                v = {
                    k: Fraction(rng.randint(0, 14), rng.choice([1, 2, 3]))
                    for k in range(3)
                }
                if kind is Kind.UPPER:
                    want = v[x] < c if s is STRICT else v[x] <= c
                elif kind is Kind.LOWER:
                    want = c < v[x] if s is STRICT else c <= v[x]
                elif kind is Kind.UPPER_DIAG:
                    d = v[x] - v[y]
                    want = d < c if s is STRICT else d <= c
                else:
                    d = v[x] - v[y]
                    want = c < d if s is STRICT else c <= d
                assert satisfies(v, phi) == want


class TestEntries:
    @staticmethod
    def atoms(n_clocks, constants):
        out = [TOP, BOTTOM]
        for s, c, x in itertools.product((STRICT, WEAK), constants, range(n_clocks)):
            out += [make_upper(x, s, c), make_lower(x, s, c)]
            out += [make(x, y, s, c) for y in range(n_clocks) if y != x
                    for make in (make_upper_diag, make_lower_diag)]
        return out

    def test_round_trip(self):
        # a zero-constant difference keeps its orientation only through lower
        atoms = self.atoms(3, range(4))
        assert AtomicConstraint(Kind.LOWER_DIAG, X, Y, WEAK, 0) in atoms
        for phi in atoms:
            assert from_entry(*phi.entry(), lower=phi.kind is Kind.LOWER_DIAG) == phi

    def test_entry_means_the_constraint(self):
        points = list(itertools.product(range(4), repeat=3))
        for phi in self.atoms(3, range(4)):
            i, j, s, c = phi.entry()
            for p in points:
                at = (0,) + p
                diff = at[i] - at[j]
                assert satisfies(dict(enumerate(p)), phi) == (
                    diff < c if s is STRICT else diff <= c)

    def test_from_entry_normalizes_raw_bounds(self):
        for i, j, s, c in itertools.product(range(3), range(3), (STRICT, WEAK), range(-3, 4)):
            for lower in (False, True):
                phi = from_entry(i, j, s, c, lower)
                assert phi is TOP or phi is BOTTOM or phi.constant >= 0
                for v in itertools.product(range(4), repeat=2):
                    at = (0,) + v
                    want = at[i] - at[j] < c if s is STRICT else at[i] - at[j] <= c
                    assert satisfies(dict(enumerate(v)), phi) == want


class TestNegation:
    def test_negate_flips_side_and_strictness(self):
        phi = make_upper(X, WEAK, 3)
        neg = negate_atomic(phi)
        assert neg.kind is Kind.LOWER and neg.strictness is STRICT
        assert neg.constant == 3
        assert negate_atomic(TOP) is BOTTOM and negate_atomic(BOTTOM) is TOP

    def test_negation_partitions_valuations(self):
        rng = random.Random(7)
        for _ in range(300):
            kind = rng.choice(
                [Kind.UPPER, Kind.LOWER, Kind.UPPER_DIAG, Kind.LOWER_DIAG]
            )
            x = rng.randrange(3)
            y = None
            if kind in (Kind.UPPER_DIAG, Kind.LOWER_DIAG):
                y = rng.choice([k for k in range(3) if k != x])
            phi = normalize_atomic(
                kind, x, y, rng.choice([STRICT, WEAK]), rng.randint(0, 5)
            )
            neg = negate_atomic(phi)
            v = {k: Fraction(rng.randint(0, 20), 2) for k in range(3)}
            assert satisfies(v, phi) != satisfies(v, neg)


class TestUpdates:
    def test_simultaneous_swap_with_offset(self):
        v = {X: 2, Y: 7}
        up = Update.of({X: Shift(Y, 1), Y: Shift(X, 0)})
        out = apply_update_point(up, v)
        assert out == {X: 8, Y: 2}

    def test_double_swap_is_identity(self):
        rng = random.Random(99)
        swap = Update.of({X: Shift(Y, 0), Y: Shift(X, 0)})
        for _ in range(50):
            v = {X: rng.randint(0, 30), Y: rng.randint(0, 30)}
            assert apply_update_point(swap, apply_update_point(swap, v)) == v

    def test_negative_result_is_undefined(self):
        v = {X: 5}
        up = Update.of({X: Shift(X, -10)})
        assert apply_update_point(up, v) is None
        # Exactly reaching zero stays defined.
        assert apply_update_point(Update.of({X: Shift(X, -5)}), v) == {X: 0}

    def test_const_resets(self):
        v = {X: 3, Y: 4}
        assert apply_update_point(Update.of({X: Const(0)}), v) == {X: 0, Y: 4}
        assert apply_update_point(Update.of({X: Const(9)}), v) == {X: 9, Y: 4}

    def test_identity_entries_dropped(self):
        up = Update.of({X: Shift(X, 0), Y: Const(2)})
        assert up.written() == (Y,)
        assert Update.of({X: Shift(X, 0)}).is_identity

    def test_source_defaults_to_identity(self):
        up = Update.of({Y: Const(1)})
        assert up.source(X + 1) == (X + 1, 0)

    def test_update_reads_pre_state_only(self):
        rng = random.Random(4)
        for _ in range(100):
            v = {k: rng.randint(0, 12) for k in range(3)}
            up = Update.of(
                {
                    X: Shift(Y, rng.randint(-2, 4)),
                    Y: Shift(Z, rng.randint(-2, 4)),
                    Z: Shift(X, rng.randint(-2, 4)),
                }
            )
            out = apply_update_point(up, v)
            if out is not None:
                shift = dict(up.entries)
                assert out[X] == v[Y] + shift[X].offset
                assert out[Y] == v[Z] + shift[Y].offset
                assert out[Z] == v[X] + shift[Z].offset

    def test_source_reads_the_update(self):
        rng = random.Random(11)
        for _ in range(200):
            up = Update.of({x: rng.choice((Const(rng.randint(0, 3)),
                                           Shift(rng.randrange(3), rng.randint(-2, 2))))
                            for x in rng.sample(range(3), rng.randint(0, 3))})
            v = {k: rng.randint(2, 9) for k in range(3)}
            out = apply_update_point(up, v)
            at = [0] + [v[k] for k in range(3)]
            assert up.source(0) == (0, 0)
            for x in range(3):
                si, off = up.source(x + 1)
                assert out[x] == at[si] + off

    def test_max_offset(self):
        up = Update.of({X: Shift(Y, -7), Y: Const(3)})
        assert up.max_offset() == 7


class TestValuations:
    def test_delay_shifts_uniformly(self):
        v = {X: Fraction(1, 2), Y: 3}
        w = delayed(v, Fraction(3, 2))
        assert w == {X: 2, Y: Fraction(9, 2)}

    def test_satisfies_boundary(self):
        phi_weak = make_upper(X, WEAK, 2)
        phi_strict = make_upper(X, STRICT, 2)
        assert satisfies({X: 2}, phi_weak)
        assert not satisfies({X: 2}, phi_strict)

    def test_int_atom_holds_as_python_compares(self):
        for op in ("<", "<=", "==", ">=", ">", "!="):
            for lhs in (-3, 0, 2):
                for rhs in (-3, 0, 2):
                    want = eval(f"{lhs} {op} {rhs}")
                    assert IntAtom(0, op, rhs_lit=rhs).holds([lhs]) is want
                    assert IntAtom(0, op, rhs_var=1).holds([lhs, rhs]) is want
