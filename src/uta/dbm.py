"""Canonical difference-bound matrices over encoded integer bounds.

A bound (value, strictness) is packed into one int64 as ``2*value + 1`` for
weak and ``2*value`` for strict; integer order then matches bound order
(strict is tighter than weak at the same value) and bound addition is
``a + b - ((a | b) & 1)``.  Infinity is a large even sentinel, masked out
explicitly in matrix operations.  Matrix row/column 0 is the zero
reference, so entry (i, j) bounds ``x_i - x_j`` with clock k at index
k + 1.  The model states constraints and updates in these indices
(`AtomicConstraint.entry`, `Update.source`); this module only encodes
them.  All public operations return matrices in canonical (all-pairs
tightest) form, or the EMPTY sentinel; each works on one copy of its
input's matrix, tightened in place and frozen once.  A zone also has a
packed form, its matrix in the narrowest integer width that holds it, or
only row 0 and column 0 when they imply the rest (`Dbm.packed`,
`unpack`), which is what the search stores.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Iterable, Optional, Union

import numpy as np

from .model import (
    MAX_CONST,
    STRICT,
    WEAK,
    AtomicConstraint,
    Kind,
    Strictness,
    Update,
)

INF = np.int64(2**62)
# an update's offsets may move finite entries only inside (-LIMIT, LIMIT), so
# that a sum of three of them, as tightening forms, stays clear of +-INF and
# of int64 wraparound
LIMIT = INF >> 2
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


# byte width -> (dtype, max) of the narrow widths a zone packs into,
# narrowest first
_NARROW = {np.dtype(t).itemsize: (np.dtype(t), np.iinfo(t).max)
           for t in (np.int16, np.int32)}
# a packed zone's first byte is its width in bytes, plus _IMPLIED in the
# implied form
_IMPLIED = 1


def _implied(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The matrix that column 0 (n1 x 1) and row 0 (1 x n1) of a zone with
    no INF entry imply: add(m[i,0], m[0,j]) at each entry and LE_ZERO on
    the diagonal past (0, 0).  With m[0,0] = LE_ZERO, as in every canonical
    zone, row 0 and column 0 imply themselves."""
    m = col + row
    m -= (col | row) & 1
    n1 = len(m)
    m.reshape(-1)[n1 + 1::n1 + 1] = LE_ZERO
    return m


def _pack(m: np.ndarray) -> bytes:
    hi, lo = m.max(), m.min()
    finite = hi < INF
    inf = m == INF if hi == INF else None
    width, dtype, top = 8, None, None
    if hi <= INF:  # an entry above INF is kept in int64 as it is
        if inf is not None:
            hi = np.where(inf, lo, m).max()
        for w, (t, t_max) in _NARROW.items():
            if -t_max < lo and hi < t_max:
                width, dtype, top = w, t, t_max
                break
    entries = m
    # a zone with an INF entry packs dense: masking the sums to INF would
    # cost every pack and unpack several more array operations
    if finite and _implied(m[:, :1], m[:1, :]).tobytes() == m.tobytes():
        entries = np.concatenate((m[0], m[1:, 0]))
        width |= _IMPLIED
    if dtype is not None:
        narrow = entries.astype(dtype)
        if inf is not None:
            narrow[inf] = top
        entries = narrow
    return bytes((width,)) + entries.tobytes()


def unpack(p: bytes) -> np.ndarray:
    """The frozen int64 matrix of a packed zone (`Dbm.packed`), whose size
    follows from the byte count: n1 * n1 entries dense, 2 * n1 - 1 implied."""
    tag = p[0]
    width = tag & ~_IMPLIED
    count = (len(p) - 1) // width
    dtype, top = _NARROW.get(width, (np.int64, None))
    entries = np.frombuffer(p, dtype, count, 1).astype(np.int64)
    if tag & _IMPLIED:
        n1 = (count + 1) // 2
        col = np.concatenate((entries[:1], entries[n1:]))
        m = _implied(col[:, None], entries[None, :n1])
    else:
        n1 = isqrt(count)
        m = entries.reshape(n1, n1)
        if top is not None:
            m[m == top] = INF
    m.flags.writeable = False
    return m


@dataclass(frozen=True, slots=True)
class Dbm:
    """A canonical zone: its int64 matrix, and the same matrix packed.

    packed, computed on first use and kept, is one tag byte and the matrix
    in the narrowest of int16 and int32 that holds every finite entry
    strictly inside (-max, max) of the type, with INF written as the type's
    max, and otherwise in int64 as it is.  The tag is the width in bytes,
    plus one for the implied form.  A canonical matrix has
    m[i,j] <= add(m[i,0], m[0,j]), and in many zones each interior entry
    (i, j >= 1, off the diagonal) is that sum and each diagonal entry
    LE_ZERO (`_implied`).  A matrix without INF that row 0 and column 0
    imply so, entry for entry, packs as those two alone, row 0 and then
    column 0 below it; every other matrix packs dense, whole.  Either
    form's length grows with the matrix, so the bytes fix its size.  The
    choice reads the matrix alone, so equal matrices pack to equal bytes
    and zones hash and compare through packed; the passed list keeps
    packed zones alone, and `unpack` gives the exact matrix back,
    canonical or not.
    """

    m: np.ndarray  # (n+1) x (n+1) int64, canonical, frozen
    _packed: Optional[bytes] = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def packed(self) -> bytes:
        p = self._packed
        if p is None:
            p = _pack(self.m)
            object.__setattr__(self, "_packed", p)
        return p

    def __eq__(self, other) -> bool:
        return isinstance(other, Dbm) and self.packed == other.packed

    def __hash__(self) -> int:
        return hash(self.packed)


def _freeze(m: np.ndarray) -> Dbm:
    m.flags.writeable = False
    return Dbm(m)


def zero_zone(n_clocks: int) -> Dbm:
    """The single point with every clock at zero."""
    size = n_clocks + 1
    return _freeze(np.full((size, size), LE_ZERO, dtype=np.int64))


def _atom_entry(phi: AtomicConstraint) -> tuple[int, int, int]:
    """(row, col, encoded bound) of the constraint's `entry`."""
    i, j, s, c = phi.entry()
    return (i, j, encode_bound(c, s))


def _tighten(m: np.ndarray, i: int, j: int, b: int) -> bool:
    """Intersect a canonical matrix with x_i - x_j <= b, a finite bound
    below m[i, j], in place; keeps it canonical, or returns False when it
    becomes empty.  Entry (k, l) takes add(add(m[k, i], b), m[j, l]) when
    lower, in one pass: add(c, b) is odd when c and b both are, and one
    mask writes INF over the int64 wraparound of INF + INF."""
    if add_bounds(int(m[j, i]), b) < LE_ZERO:
        return False
    m[i, j] = b
    col, row = m[:, i : i + 1], m[j : j + 1, :]
    cand = col + row
    cand += b - ((col | b) & 1)
    cand -= ((col & b) | row) & 1
    np.putmask(cand, (col >= INF) | (row >= INF), INF)
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


def _intersect(d: Dbm, m: np.ndarray, cut: Iterable[Triple]) -> Optional[np.ndarray]:
    """m, d's own matrix or a working copy, cut by pre-encoded bounds, each
    tested once: d's matrix is copied before the first that tightens it,
    a working copy is cut in place.  None when the cut is empty."""
    for i, j, b in cut:
        if b < m[i, j]:
            if m is d.m:
                m = np.array(m)
            if not _tighten(m, i, j, b):
                return None
    return m


def constrain(d: Zone, cut: Iterable[Triple]) -> Zone:
    """Intersect with pre-encoded bounds on one working copy, frozen once;
    d itself when no bound tightens it, so that unchanged zones share one
    matrix."""
    if d is EMPTY:
        return EMPTY
    m = _intersect(d, d.m, cut)
    if m is None:
        return EMPTY
    return d if m is d.m else _freeze(m)


def _substitution(up: Update, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix index: source index and offset (`Update.source`)."""
    src, off = np.array([up.source(i) for i in range(n + 1)], dtype=np.int64).T
    return src, off


@dataclass(frozen=True, slots=True)
class Step:
    """A discrete move pre-encoded for `successor`.

    ``cut`` holds the guard's bounds followed by the update's domain (each
    x := y+d with d < 0 requires -d <= y).  For a non-identity update,
    ``src`` holds per entry of the updated matrix the flat index of the
    entry it is copied from and ``delta`` the encoded offset added to it;
    both are None for the identity, and ``delta`` is None when every offset
    is zero (resets to 0 and plain copies).
    """

    cut: tuple[Triple, ...]
    src: Optional[np.ndarray] = None
    delta: Optional[np.ndarray] = None


def compile_step(guard: Iterable[AtomicConstraint], up: Update,
                 n_clocks: int) -> Step:
    cut = list(encode_atoms(guard))
    if up.is_identity:
        return Step(tuple(cut))
    for x in up.written():
        si, d = up.source(x + 1)
        if abs(d) > MAX_CONST:
            raise OverflowError(f"update constant {d} too large for zone arithmetic")
        if d < 0:  # a reset x := c has c >= 0, so this is x := y+d
            cut.append((0, si, encode_bound(d, WEAK)))
    src, off = _substitution(up, n_clocks)
    flat = src[:, None] * (n_clocks + 1) + src[None, :]
    delta = 2 * (off[:, None] - off[None, :])
    flat.flags.writeable = False
    delta.flags.writeable = False
    return Step(tuple(cut), flat, delta if delta.any() else None)


def successor(d: Zone, step: Step, invariant: tuple[Triple, ...] = (),
              do_elapse: bool = True) -> Zone:
    """One discrete-plus-delay step: guard, update (sources and offsets
    substituted entry-wise into the zone cut to its domain), invariant,
    elapse (every clock's upper bound dropped), invariant again, all on one
    working copy, frozen once; d itself when no stage changes it.  The
    invariant is pre-encoded like the step's cut (`encode_atoms`).  Raises
    OverflowError when an offset moves a finite entry to -LIMIT, LIMIT or
    beyond: repeated shifts can grow a zone's bounds without end, and past
    that range they would read as infinite or wrap."""
    if d is EMPTY:
        return EMPTY
    m = _intersect(d, d.m, step.cut)
    if m is None:
        return EMPTY
    if step.src is not None:
        m = np.take(m, step.src)
        if step.delta is not None:
            np.add(m, step.delta, out=m, where=m < INF)
            if m.min() <= -LIMIT or ((m >= LIMIT) & (m != INF)).any():
                raise OverflowError("a clock update moved a zone bound beyond "
                                    f"{int(LIMIT) >> 1}, out of zone arithmetic's range")
        np.fill_diagonal(m, LE_ZERO)
    m = _intersect(d, m, invariant)
    if m is not None and do_elapse:
        if m is d.m:
            m = np.array(m)
        m[1:, 0] = INF
        m = _intersect(d, m, invariant)
    if m is None:
        return EMPTY
    return d if m is d.m else _freeze(m)
