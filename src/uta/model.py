"""Core domain types for updatable timed automata networks.

Clocks are dense indices into a network-wide clock table; clock ``k``
corresponds to row/column ``k + 1`` of a DBM (row/column 0 is the zero
reference).  Constraints, updates, guards, locations, edges, automata and
networks are immutable after construction.
"""
from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence, Union

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
# largest clock constant, reset value or shift offset: beyond it the sums
# of zone arithmetic (dbm) risk int64 overflow
MAX_CONST = 2**40
# builds a tuple subclass without calling its __new__: the trusted path of
# the normalizing atom constructors
_new = tuple.__new__


class Strictness(enum.IntEnum):
    """Bound strictness.  At equal constants a weak bound is the larger one."""

    STRICT = 0
    WEAK = 1

    @property
    def symbol(self) -> str:
        return "<" if self is Strictness.STRICT else "<="


STRICT = Strictness.STRICT
WEAK = Strictness.WEAK


class Kind(enum.IntEnum):
    TOP = 0
    BOTTOM = 1
    UPPER = 2        # x < c  or  x <= c
    LOWER = 3        # c < x  or  c <= x
    UPPER_DIAG = 4   # x - y < c  or  x - y <= c
    LOWER_DIAG = 5   # c < x - y  or  c <= x - y


_TRIVIAL = (Kind.TOP, Kind.BOTTOM)
_DIAGONAL = (Kind.UPPER_DIAG, Kind.LOWER_DIAG)


class _AtomFields(NamedTuple):
    kind: Kind
    x: Optional[int] = None
    y: Optional[int] = None
    strictness: Optional[Strictness] = None
    constant: Optional[int] = None


class AtomicConstraint(_AtomFields):
    """One atomic clock constraint; ``x``/``y`` are clock indices.

    An immutable tuple of its five fields, so that hashing and equality run
    in C.  Proper constraints always carry a natural constant; raw
    comparisons with negative constants must go through the ``make_*``
    constructors, which normalize them (diagonals flip orientation,
    non-diagonals collapse to TOP/BOTTOM).  The public constructor checks
    every field and turns a plain int kind or strictness into its enum
    member; the normalizing constructors (`make_upper`, `make_lower`,
    `from_entry`, `with_constant`) build their well-formed results directly
    and check only what can go wrong there, the constant's range.  The
    tuple's own ``_replace`` and ``_make`` check nothing.
    """

    __slots__ = ()

    def __new__(cls, kind: Kind, x: Optional[int] = None, y: Optional[int] = None,
                strictness: Optional[Strictness] = None,
                constant: Optional[int] = None) -> "AtomicConstraint":
        # the kind and strictness are read by identity, so a plain int given
        # for either becomes its enum member
        try:
            if type(kind) is not Kind:
                kind = Kind(kind)
            if type(strictness) is not Strictness and strictness is not None:
                strictness = Strictness(strictness)
        except ValueError:
            bad = _new(cls, (kind, x, y, strictness, constant))
            raise ValueError(f"malformed constraint {bad!r}") from None
        self = _new(cls, (kind, x, y, strictness, constant))
        # raised, not asserted: the invariants must hold under python -O too
        if kind in _TRIVIAL:
            if x is None and y is None and constant is None:
                return self
        elif (x is not None and strictness is not None and constant is not None
              and (y is not None and y != x
                   if kind in _DIAGONAL else y is None)):
            if 0 <= constant <= INT64_MAX:
                return self
            raise constant_error(constant)
        raise ValueError(f"malformed constraint {self!r}")

    @property
    def is_trivial(self) -> bool:
        return self.kind in _TRIVIAL

    @property
    def is_diagonal(self) -> bool:
        return self.kind in _DIAGONAL

    def clocks(self) -> tuple[int, ...]:
        if self.is_trivial:
            return ()
        if self.is_diagonal:
            return (self.x, self.y)
        return (self.x,)

    def entry(self) -> tuple[int, int, Strictness, int]:
        """The atom as ``x_i - x_j < c`` or ``<= c`` over DBM indices: (i, j,
        strictness, c), clock k at index k + 1 and index 0 the constant 0.
        TOP is ``0 - 0 <= 0`` and BOTTOM ``0 - 0 < 0``; `from_entry` inverts."""
        k = self.kind
        if k is Kind.UPPER:
            return (self.x + 1, 0, self.strictness, self.constant)
        if k is Kind.LOWER:
            return (0, self.x + 1, self.strictness, -self.constant)
        if k is Kind.UPPER_DIAG:
            return (self.x + 1, self.y + 1, self.strictness, self.constant)
        if k is Kind.LOWER_DIAG:
            return (self.y + 1, self.x + 1, self.strictness, -self.constant)
        return (0, 0, WEAK if k is Kind.TOP else STRICT, 0)

    def context(self) -> tuple:
        """Shape of the constraint without its constant and strictness."""
        return (self.kind, self.x, self.y)

    def with_constant(self, c: int) -> "AtomicConstraint":
        kind, x, y, s, old = self
        if old is None or not 0 <= c <= INT64_MAX:
            # TOP and BOTTOM carry no constant: the constructor refuses both
            return AtomicConstraint(kind, x, y, s, c)
        return _new(AtomicConstraint, (kind, x, y, s, c))

    def to_str(self, names: Sequence[str]) -> str:
        kind, x, y, s, c = self
        if kind in _TRIVIAL:
            return "true" if kind is Kind.TOP else "false"
        before, after = atom_affixes(kind, x, y, s, names)
        return f"{before}{c}{after}"


# per proper kind, an atom's text, its fields to fill in: {x} and {y} the
# names of its clocks, {op} its strictness's symbol and {c} its constant
_ATOM_TEXT = {
    Kind.UPPER: "{x}{op}{c}",
    Kind.LOWER: "{c}{op}{x}",
    Kind.UPPER_DIAG: "{x}-{y}{op}{c}",
    Kind.LOWER_DIAG: "{c}{op}{x}-{y}",
}


def atom_affixes(kind: Kind, x: int, y: Optional[int], strictness: Strictness,
                 names: Sequence[str]) -> tuple[str, str]:
    """The text before and after the constant of a proper atom of this kind,
    clocks and strictness (`_ATOM_TEXT`)."""
    before, _, after = _ATOM_TEXT[kind].partition("{c}")
    fill = {"x": names[x], "y": "" if y is None else names[y],
            "op": strictness.symbol}
    return before.format_map(fill), after.format_map(fill)


TOP = AtomicConstraint(Kind.TOP)
BOTTOM = AtomicConstraint(Kind.BOTTOM)


def constant_error(c: int) -> ValueError:
    """The error for a constraint constant outside 0..INT64_MAX."""
    return ValueError(f"constraint constant {c} is not a natural number in int64 range")


def eval_const_cmp(lhs: int, strictness: Strictness, rhs: int) -> AtomicConstraint:
    """Evaluate a constant-vs-constant comparison ``lhs < rhs`` / ``lhs <= rhs``."""
    if strictness is WEAK:
        return TOP if lhs <= rhs else BOTTOM
    return TOP if lhs < rhs else BOTTOM


def make_upper(x: int, strictness: Strictness, c: int) -> AtomicConstraint:
    # x < 0 and x < c with c < 0 are unsatisfiable over nonnegative clocks.
    if c < 0 or (c == 0 and strictness is STRICT):
        return BOTTOM
    if c > INT64_MAX:
        raise constant_error(c)
    return _new(AtomicConstraint, (Kind.UPPER, x, None, strictness, c))


def make_lower(x: int, strictness: Strictness, c: int) -> AtomicConstraint:
    # 0 <= x (and any negative lower bound) always holds; 0 < x stays.
    if c < 0 or (c == 0 and strictness is WEAK):
        return TOP
    if c > INT64_MAX:
        raise constant_error(c)
    return _new(AtomicConstraint, (Kind.LOWER, x, None, strictness, c))


def from_entry(i: int, j: int, strictness: Strictness, c: int,
               lower: bool = False) -> AtomicConstraint:
    """Normalized atom for ``x_i - x_j < c`` (or ``<= c``) over DBM indices:
    TOP or BOTTOM for i == j, else upper, lower or diagonal, the diagonal as
    ``-c < x_j - x_i`` when c < 0, or when c == 0 and lower is set, so that
    a zero-constant atom keeps the orientation it was written in."""
    if i == j:
        return eval_const_cmp(0, strictness, c)
    if j == 0:
        return make_upper(i - 1, strictness, c)
    if i == 0:
        return make_lower(j - 1, strictness, -c)
    if c < 0 or (c == 0 and lower):
        if c < -INT64_MAX:
            raise constant_error(-c)
        return _new(AtomicConstraint, (Kind.LOWER_DIAG, j - 1, i - 1, strictness, -c))
    if c > INT64_MAX:
        raise constant_error(c)
    return _new(AtomicConstraint, (Kind.UPPER_DIAG, i - 1, j - 1, strictness, c))


def make_upper_diag(x: int, y: int, strictness: Strictness, c: int) -> AtomicConstraint:
    return from_entry(x + 1, y + 1, strictness, c)


def make_lower_diag(x: int, y: int, strictness: Strictness, c: int) -> AtomicConstraint:
    return from_entry(y + 1, x + 1, strictness, -c, lower=True)


# --------------------------------------------------------------------------
# Clock updates


@dataclass(frozen=True, slots=True)
class Const:
    """Assignment ``x := c`` with c natural."""

    value: int

    def __post_init__(self) -> None:
        assert 0 <= self.value <= INT64_MAX


@dataclass(frozen=True, slots=True)
class Shift:
    """Assignment ``x := y + d`` with d a (possibly negative) integer."""

    source: int
    offset: int

    def __post_init__(self) -> None:
        assert INT64_MIN < self.offset < INT64_MAX


ClockUpdate = Union[Const, Shift]


@dataclass(frozen=True)
class Update:
    """Simultaneous total clock update; unlisted clocks keep their value."""

    entries: tuple[tuple[int, ClockUpdate], ...] = ()
    # `source` of each written clock's index, built once for every preimage
    _sources: dict[int, tuple[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for x, u in self.entries:
            assert x + 1 not in self._sources, "one assignment per clock"
            self._sources[x + 1] = ((0, u.value) if isinstance(u, Const)
                                    else (u.source + 1, u.offset))

    @staticmethod
    def of(mapping: Mapping[int, ClockUpdate]) -> "Update":
        entries = tuple(sorted(mapping.items()))
        # Drop identity entries so structural equality ignores them.
        entries = tuple(
            (x, u)
            for x, u in entries
            if not (isinstance(u, Shift) and u.source == x and u.offset == 0)
        )
        return Update(entries)

    def source(self, i: int) -> tuple[int, int]:
        """(source, offset) with ``x_i := x_source + offset`` over DBM
        indices, index 0 being the constant 0: ``x := c`` is (0, c)."""
        return self._sources.get(i, (i, 0))

    @property
    def is_identity(self) -> bool:
        return not self.entries

    def written(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.entries)

    def max_offset(self) -> int:
        """Largest absolute constant among assignments (0 if identity)."""
        return max((abs(off) for _, off in self._sources.values()), default=0)


IDENTITY_UPDATE = Update()


# --------------------------------------------------------------------------
# Integer variables


@dataclass(frozen=True, slots=True)
class IntVar:
    name: str
    lo: int
    hi: int
    init: int

    def __post_init__(self) -> None:
        assert INT64_MIN <= self.lo <= self.hi <= INT64_MAX


INT_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
           ">=": operator.ge, ">": operator.gt, "!=": operator.ne}


@dataclass(frozen=True, slots=True)
class IntAtom:
    """Comparison of an integer variable against a literal or another variable."""

    var: int
    op: str
    rhs_var: Optional[int] = None
    rhs_lit: Optional[int] = None

    def __post_init__(self) -> None:
        assert self.op in INT_OPS
        assert (self.rhs_var is None) != (self.rhs_lit is None)

    def holds(self, ints: Sequence[int]) -> bool:
        lhs = ints[self.var]
        rhs = self.rhs_lit if self.rhs_var is None else ints[self.rhs_var]
        return INT_OPS[self.op](lhs, rhs)


@dataclass(frozen=True, slots=True)
class IntAssign:
    """Assignment ``var := sum of +/- terms`` over variables and literals.

    Terms are ``(sign, var_index, literal)`` with exactly one of the last two
    set (var_index of -1 means a literal term).
    """

    var: int
    terms: tuple[tuple[int, int, int], ...]

    def value(self, ints: Sequence[int]) -> int:
        total = 0
        for sign, var_idx, lit in self.terms:
            total += sign * (lit if var_idx < 0 else ints[var_idx])
        return total


@dataclass(frozen=True)
class Guard:
    """Conjunction of clock atoms and integer comparisons."""

    clock_atoms: tuple[AtomicConstraint, ...] = ()
    int_atoms: tuple[IntAtom, ...] = ()

    def __post_init__(self) -> None:
        for phi in self.clock_atoms:
            assert phi.kind is not Kind.TOP, "trivial atoms are dropped from guards"


EMPTY_GUARD = Guard()


# --------------------------------------------------------------------------
# Locations, edges, automata, networks


@dataclass(frozen=True)
class Location:
    name: str
    initial: bool = False
    committed: bool = False
    invariant: Guard = EMPTY_GUARD

    def __post_init__(self) -> None:
        assert not self.invariant.int_atoms, "invariants are clock-only"


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    guard: Guard = EMPTY_GUARD
    update: Update = IDENTITY_UPDATE
    int_assigns: tuple[IntAssign, ...] = ()
    sync: Optional[tuple[str, str]] = None  # (channel, "!" or "?")

    def __post_init__(self) -> None:
        if self.sync is not None:
            assert self.sync[1] in ("!", "?")


@dataclass(frozen=True)
class Automaton:
    """One network component.  Clock/int indices refer to the network tables."""

    name: str
    locations: tuple[Location, ...]
    edges: tuple[Edge, ...]
    clock_names: tuple[str, ...]

    def __post_init__(self) -> None:
        initials = [i for i, loc in enumerate(self.locations) if loc.initial]
        assert len(initials) == 1, f"{self.name}: exactly one initial location"
        for e in self.edges:
            assert 0 <= e.src < len(self.locations)
            assert 0 <= e.dst < len(self.locations)

    @property
    def initial(self) -> int:
        return next(i for i, loc in enumerate(self.locations) if loc.initial)

    def occurring_clocks(self) -> frozenset[int]:
        """The clocks some guard, invariant or update reads or writes."""
        out = set()
        for e in self.edges:
            for phi in e.guard.clock_atoms:
                out.update(phi.clocks())
            for x, u in e.update.entries:
                out.add(x)
                if isinstance(u, Shift):
                    out.add(u.source)
        for loc in self.locations:
            for phi in loc.invariant.clock_atoms:
                out.update(phi.clocks())
        return frozenset(out)


@dataclass(frozen=True)
class Network:
    name: str
    clocks: tuple[str, ...]
    int_vars: tuple[IntVar, ...]
    channels: tuple[str, ...]
    components: tuple[Automaton, ...]

    def __post_init__(self) -> None:
        for comp in self.components:
            assert comp.clock_names == self.clocks

    def component_index(self, name: str) -> int:
        for i, comp in enumerate(self.components):
            if comp.name == name:
                return i
        raise KeyError(f"no process named {name!r}")

    def int_initials(self) -> tuple[int, ...]:
        return tuple(v.init for v in self.int_vars)

    def shared_clocks(self) -> list[str]:
        """One message per clock that more than one component reads or updates."""
        occurring = [c.occurring_clocks() for c in self.components]
        out = []
        for x, clock in enumerate(self.clocks):
            involved = [c.name for c, occ in zip(self.components, occurring) if x in occ]
            if len(involved) > 1:
                out.append(f"clock {clock} is shared between components "
                           + ", ".join(involved))
        return out


def validate_network(net: Network) -> list[str]:
    """Static well-formedness warnings: clocks shared between components
    (which `search.reach` refuses to prune on), events never used and
    locations unreachable in their component's location graph."""
    out = net.shared_clocks()
    used_channels = {e.sync[0] for comp in net.components for e in comp.edges
                     if e.sync is not None}
    out += [f"event {ch} is declared but never used"
            for ch in net.channels if ch not in used_channels]
    for comp in net.components:
        reachable = {comp.initial}
        frontier = [comp.initial]
        succ: dict[int, list[int]] = {}
        for e in comp.edges:
            succ.setdefault(e.src, []).append(e.dst)
        while frontier:
            q = frontier.pop()
            for q2 in succ.get(q, ()):
                if q2 not in reachable:
                    reachable.add(q2)
                    frontier.append(q2)
        out += [f"{comp.name}.{loc.name} is unreachable in the location graph"
                for i, loc in enumerate(comp.locations) if i not in reachable]
    return out


def single_component_network(
    name: str,
    clocks: Sequence[str],
    locations: Sequence[Location],
    edges: Sequence[Edge],
    int_vars: Sequence[IntVar] = (),
) -> Network:
    comp = Automaton(name, tuple(locations), tuple(edges), tuple(clocks))
    return Network(name, tuple(clocks), tuple(int_vars), (), (comp,))
