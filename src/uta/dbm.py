"""Canonical difference-bound matrices over encoded integer bounds.

A bound (value, strictness) is packed into one int64 as ``2*value + 1`` for
weak and ``2*value`` for strict; integer order then matches bound order
(strict is tighter than weak at the same value) and bound addition is
``a + b - ((a | b) & 1)``.  Infinity is a large even sentinel, masked out
explicitly in matrix operations.  Matrix row/column 0 is the zero
reference, so entry (i, j) bounds ``x_i - x_j`` with clock k at index
k + 1.  All public operations return matrices in canonical (all-pairs
tightest) form, or the EMPTY sentinel.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

import numpy as np

from .model import (
    MAX_CONST,
    STRICT,
    WEAK,
    AtomicConstraint,
    Const,
    Kind,
    Shift,
    Strictness,
    Update,
)

INF = np.int64(2**62)
LE_ZERO = np.int64(1)  # encoded (<=, 0)


def encode_bound(value: int, strictness: Strictness) -> int:
    if abs(value) > MAX_CONST:
        raise OverflowError(f"constant {value} too large for zone arithmetic")
    return 2 * value + (1 if strictness is WEAK else 0)


def add_bounds(a: int, b: int) -> int:
    if a >= INF or b >= INF:
        return int(INF)
    return a + b - ((a | b) & 1)


class EmptyZone:
    __slots__ = ()

    def __repr__(self) -> str:
        return "EMPTY"


EMPTY = EmptyZone()
Zone = Union["Dbm", EmptyZone]


@dataclass(frozen=True, slots=True)
class Dbm:
    m: np.ndarray  # (n+1) x (n+1) int64, canonical, frozen
    # hash of m, computed on first use: the passed list hashes each zone
    # on lookup and again on insertion
    _hash: Optional[int] = field(default=None, init=False, repr=False,
                                 compare=False)

    @property
    def n(self) -> int:
        return self.m.shape[0] - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Dbm) and np.array_equal(self.m, other.m)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.m.tobytes())
            object.__setattr__(self, "_hash", h)
        return h


def _freeze(m: np.ndarray) -> Dbm:
    m.flags.writeable = False
    return Dbm(m)


def _add_mat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # int64 wraparound on INF+INF is masked out by the where
    raw = a + b - ((a | b) & 1)
    return np.where((a >= INF) | (b >= INF), INF, raw)


def zero_zone(n_clocks: int) -> Dbm:
    """The single point with every clock at zero."""
    size = n_clocks + 1
    return _freeze(np.full((size, size), LE_ZERO, dtype=np.int64))


def _atom_entry(phi: AtomicConstraint) -> tuple[int, int, int]:
    """(row, col, encoded bound) for a proper constraint."""
    s = phi.strictness
    if phi.kind is Kind.UPPER:
        return (phi.x + 1, 0, encode_bound(phi.constant, s))
    if phi.kind is Kind.LOWER:
        return (0, phi.x + 1, encode_bound(-phi.constant, s))
    if phi.kind is Kind.UPPER_DIAG:
        return (phi.x + 1, phi.y + 1, encode_bound(phi.constant, s))
    if phi.kind is Kind.LOWER_DIAG:
        return (phi.y + 1, phi.x + 1, encode_bound(-phi.constant, s))
    raise ValueError(f"no matrix entry for {phi.kind}")


def _tighten(m: np.ndarray, i: int, j: int, b: int) -> bool:
    """Intersect a canonical matrix with x_i - x_j <= b, in place.

    Keeps the matrix canonical; returns False when it becomes empty.
    """
    if b >= m[i, j]:
        return True
    if add_bounds(int(m[j, i]), b) < LE_ZERO:
        return False
    m[i, j] = b
    cand = _add_mat(_add_mat(m[:, i : i + 1], np.int64(b)), m[j : j + 1, :])
    np.minimum(m, cand, out=m)
    return True


Triple = tuple[int, int, int]  # (row, col, encoded bound): x_row - x_col <= bound
_FALSE = (0, 0, int(encode_bound(0, STRICT)))  # 0 - 0 < 0, never satisfied


def encode_atoms(atoms: Iterable[AtomicConstraint]) -> tuple[Triple, ...]:
    """Matrix entries of a constraint conjunction, in order; TOP atoms are
    dropped and a BOTTOM atom turns the whole conjunction into false."""
    out = []
    for phi in atoms:
        if phi.kind is Kind.TOP:
            continue
        if phi.kind is Kind.BOTTOM:
            return (_FALSE,)
        out.append(_atom_entry(phi))
    return tuple(out)


def constrain(d: Zone, cut: Iterable[Triple]) -> Zone:
    """Intersect with pre-encoded bounds.

    Returns d itself when no bound tightens it, so that unchanged zones
    share one matrix.
    """
    if d is EMPTY:
        return EMPTY
    m = None
    for i, j, b in cut:
        if m is None:
            if b >= d.m[i, j]:
                continue
            m = np.array(d.m)
        if not _tighten(m, i, j, b):
            return EMPTY
    return d if m is None else _freeze(m)


def _substitution(up: Update, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix index: source index and offset, with x := c read as a
    shift of the zero reference."""
    src = np.arange(n + 1, dtype=np.int64)
    off = np.zeros(n + 1, dtype=np.int64)
    for x, u in up.entries:
        if isinstance(u, Const):
            src[x + 1] = 0
            off[x + 1] = u.value
        else:
            src[x + 1] = u.source + 1
            off[x + 1] = u.offset
    return src, off


@dataclass(frozen=True, slots=True)
class Step:
    """A discrete move pre-encoded for `successor`.

    ``cut`` holds the guard's bounds followed by the update's domain (each
    x := y+d with d < 0 requires -d <= y).  For a non-identity update,
    ``src`` holds per entry of the updated matrix the flat index of the
    entry it is copied from and ``delta`` the encoded offset added to it;
    both are None for the identity.
    """

    cut: tuple[Triple, ...]
    src: Optional[np.ndarray] = None
    delta: Optional[np.ndarray] = None


def compile_step(guard: Iterable[AtomicConstraint], up: Update,
                 n_clocks: int) -> Step:
    cut = list(encode_atoms(guard))
    if up.is_identity:
        return Step(tuple(cut))
    for x, u in up.entries:
        d = u.value if isinstance(u, Const) else u.offset
        if abs(d) > MAX_CONST:
            raise OverflowError(f"update constant {d} too large for zone arithmetic")
        if isinstance(u, Shift) and d < 0:
            cut.append((0, u.source + 1, encode_bound(d, WEAK)))
    src, off = _substitution(up, n_clocks)
    flat = src[:, None] * (n_clocks + 1) + src[None, :]
    delta = 2 * (off[:, None] - off[None, :])
    flat.flags.writeable = False
    delta.flags.writeable = False
    return Step(tuple(cut), flat, delta)


def _image(d: Zone, step: Step) -> Zone:
    """Substitute sources and offsets entry-wise into a zone already cut to
    the update's domain; the result of substituting into a canonical matrix
    is canonical."""
    if d is EMPTY or step.src is None:
        return d
    new = np.take(d.m, step.src)
    new = np.where(new >= INF, INF, new + step.delta)
    np.fill_diagonal(new, LE_ZERO)
    return _freeze(new)


def elapse(d: Dbm) -> Dbm:
    """Future closure: drop upper bounds on all clocks; stays canonical."""
    m = np.array(d.m)
    m[1:, 0] = INF
    return _freeze(m)


def successor(
    d: Zone,
    step: Step,
    invariant: tuple[Triple, ...] = (),
    do_elapse: bool = True,
) -> Zone:
    """One discrete-plus-delay step: guard, update, invariant, elapse,
    invariant again.  The invariant is pre-encoded like the step's cut
    (`encode_atoms`)."""
    z = _image(constrain(d, step.cut), step)
    z = constrain(z, invariant)
    if z is EMPTY or not do_elapse:
        return z
    return constrain(elapse(z), invariant)
