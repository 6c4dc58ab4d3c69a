"""Line-oriented text front-end for network descriptions.

One directive per line, ``#`` starts a comment:

    system <id>
    clock <id>
    int <id> <min> <max> <init>
    event <id>
    process <id>
    location <proc> <id> [initial] [committed] [invariant: <clock-conj>]
    edge <proc> <src> <dst> [provided: <conj>] [do: <upd>{; <upd>}] [sync: <event>! | <event>?]

Conjunctions are ``&&``-joined atoms (``x<=3``, ``1<x``, ``x-y<2``,
``2<=x-y``, ``false``, integer comparisons); updates are ``x=c``,
``x=y+d``, ``x=y-d`` or integer sums (``n=n+1``).  Every identifier is
declared before use; clock constraint constants, reset values and shift
offsets must be natural and at most ``MAX_CONST`` (2^40).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .model import (
    BOTTOM,
    INT64_MAX,
    MAX_CONST,
    STRICT,
    WEAK,
    AtomicConstraint,
    Automaton,
    Const,
    Edge,
    Guard,
    IntAssign,
    IntAtom,
    IntVar,
    Kind,
    Location,
    Network,
    Shift,
    Update,
    from_entry,
)


@dataclass(frozen=True, slots=True)
class SourceSpan:
    file: str
    line: int       # 1-based
    col_start: int  # 1-based

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col_start}"


@dataclass(frozen=True, slots=True)
class ParseError:
    span: SourceSpan
    message: str

    def __str__(self) -> str:
        return f"{self.span}: {self.message}"


class ParseErrors(Exception):
    def __init__(self, errors: list[ParseError]):
        self.errors = list(errors)
        super().__init__("\n".join(str(e) for e in self.errors))


_ID = r"[A-Za-z_]\w*"
_OPS = r"<=|>=|==|!=|<|>"
_DIAG_L = re.compile(rf"^({_ID})-({_ID})({_OPS})(-?\d+)$")
_DIAG_R = re.compile(rf"^(-?\d+)({_OPS})({_ID})-({_ID})$")
_CMP = re.compile(rf"^({_ID}|-?\d+)({_OPS})({_ID}|-?\d+)$")
_CLOCK_RHS = re.compile(rf"^({_ID})([+-])(\d+)$")
_TERM = re.compile(rf"([+-]?)({_ID}|\d+)")
_TOKEN = re.compile(r"\S+")

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}

# Clock comparison -> (upper, lower) bound strictness, None for no bound on
# that side; no conjunction of clock atoms expresses '!='.
_CLOCK_OPS = {"<": (STRICT, None), "<=": (WEAK, None), ">": (None, STRICT),
              ">=": (None, WEAK), "==": (WEAK, WEAK)}

_LOC_FLAGS = ("initial", "committed")
_LOC_SECTIONS = ("invariant:",)
_EDGE_SECTIONS = ("provided:", "do:", "sync:")


class _ProcBuilder:
    def __init__(self, name: str, span: SourceSpan):
        self.name = name
        self.span = span
        self.locations: list[Location] = []
        self.loc_index: dict[str, int] = {}
        self.edges: list[Edge] = []


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.errors: list[ParseError] = []
        self.system: Optional[str] = None
        self.clocks: list[str] = []
        self.ints: list[IntVar] = []
        self.events: list[str] = []
        self.names: dict[str, str] = {}  # id -> "clock" | "int" | "event" | "process"
        self.clock_index: dict[str, int] = {}
        self.int_index: dict[str, int] = {}
        self.procs: list[_ProcBuilder] = []
        self.proc_index: dict[str, int] = {}
        self.line = ""  # the line being parsed, its comment stripped

    # -- error helpers -----------------------------------------------------

    def err(self, span: SourceSpan, message: str) -> None:
        self.errors.append(ParseError(span, message))

    def span(self, lineno: int, start: int) -> SourceSpan:
        return SourceSpan(self.filename, lineno, start + 1)

    # -- driver ------------------------------------------------------------

    def run(self) -> Optional[Network]:
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            self.line = raw.split("#", 1)[0]
            tokens = [(m.group(0), m.start()) for m in _TOKEN.finditer(self.line)]
            if not tokens:
                continue
            head, hs = tokens[0]
            hspan = self.span(lineno, hs)
            if head != "system" and self.system is None:
                self.err(hspan, "expected 'system <id>' before other directives")
                self.system = "?"
            handler = getattr(self, f"_d_{head}", None)
            if handler is None:
                self.err(hspan, f"unknown directive {head!r}")
                continue
            handler(lineno, tokens)
        if self.system is None:
            self.err(self.span(1, 0), "missing 'system' declaration")
        return self.finish()

    def finish(self) -> Optional[Network]:
        components = []
        for pb in self.procs:
            initials = [loc for loc in pb.locations if loc.initial]
            if len(initials) != 1:
                self.err(
                    pb.span,
                    f"process {pb.name} must have exactly one initial location "
                    f"(found {len(initials)})",
                )
                continue
            components.append(
                Automaton(pb.name, tuple(pb.locations), tuple(pb.edges), tuple(self.clocks))
            )
        if self.errors:
            return None
        return Network(
            self.system,
            tuple(self.clocks),
            tuple(self.ints),
            tuple(self.events),
            tuple(components),
        )

    # -- declarations ------------------------------------------------------

    def _expect_arity(self, lineno, tokens, n: int, usage: str) -> bool:
        if len(tokens) != n:
            self.err(self.span(lineno, tokens[0][1]), f"usage: {usage}")
            return False
        return True

    def _declare(self, lineno, tok, category: str) -> bool:
        name, s = tok
        sp = self.span(lineno, s)
        if not re.fullmatch(_ID, name):
            self.err(sp, f"invalid identifier {name!r}")
            return False
        if name in self.names:
            self.err(sp, f"duplicate declaration of {name!r} (already a {self.names[name]})")
            return False
        self.names[name] = category
        return True

    def _d_system(self, lineno, tokens):
        if not self._expect_arity(lineno, tokens, 2, "system <id>"):
            return
        name, s = tokens[1]
        if self.system is not None and self.system != "?":
            self.err(self.span(lineno, s), "duplicate 'system' declaration")
            return
        self.system = name

    def _d_clock(self, lineno, tokens):
        if not self._expect_arity(lineno, tokens, 2, "clock <id>"):
            return
        if self._declare(lineno, tokens[1], "clock"):
            self.clock_index[tokens[1][0]] = len(self.clocks)
            self.clocks.append(tokens[1][0])

    def _d_event(self, lineno, tokens):
        if not self._expect_arity(lineno, tokens, 2, "event <id>"):
            return
        if self._declare(lineno, tokens[1], "event"):
            self.events.append(tokens[1][0])

    def _d_int(self, lineno, tokens):
        if not self._expect_arity(lineno, tokens, 5, "int <id> <min> <max> <init>"):
            return
        nums = []
        for tok, s in tokens[2:5]:
            val = self._int_literal(lineno, tok, s)
            if val is None:
                return
            nums.append(val)
        lo, hi, init = nums
        if lo > hi:
            self.err(self.span(lineno, tokens[2][1]), "empty int range")
            return
        if not lo <= init <= hi:
            self.err(self.span(lineno, tokens[4][1]),
                     f"initial value {init} outside [{lo}, {hi}]")
            return
        if self._declare(lineno, tokens[1], "int"):
            self.int_index[tokens[1][0]] = len(self.ints)
            self.ints.append(IntVar(tokens[1][0], lo, hi, init))

    def _d_process(self, lineno, tokens):
        if not self._expect_arity(lineno, tokens, 2, "process <id>"):
            return
        name, s = tokens[1]
        if self._declare(lineno, tokens[1], "process"):
            self.proc_index[name] = len(self.procs)
            self.procs.append(_ProcBuilder(name, self.span(lineno, s)))

    def _int_literal(self, lineno, tok, s) -> Optional[int]:
        sp = self.span(lineno, s)
        if not re.fullmatch(r"-?\d+", tok):
            self.err(sp, f"expected integer, got {tok!r}")
            return None
        return self._int64(tok, sp)

    def _int64(self, text: str, sp: SourceSpan) -> Optional[int]:
        """The value of an integer literal, or None after an error when it
        does not fit in 64-bit signed range."""
        val = int(text)
        if not -INT64_MAX - 1 <= val <= INT64_MAX:
            self.err(sp, f"constant {text} does not fit in 64-bit signed range")
            return None
        return val

    # -- locations and edges -----------------------------------------------

    def _lookup_proc(self, lineno, tok) -> Optional[_ProcBuilder]:
        name, s = tok
        if name not in self.proc_index:
            self.err(self.span(lineno, s), f"unknown process {name!r}")
            return None
        return self.procs[self.proc_index[name]]

    def _split_sections(self, lineno, tokens, keywords) -> Optional[dict]:
        """Group trailing tokens into the flags and the keyword-delimited
        sections, each section as its keyword's column and its tokens."""
        out: dict[str, object] = {"flags": []}
        current: Optional[list] = None
        for tok, s in tokens:
            if tok in keywords:
                if tok in out:
                    self.err(self.span(lineno, s), f"duplicate section {tok!r}")
                    return None
                current = []
                out[tok] = (s, current)
            elif tok in _LOC_FLAGS and keywords is _LOC_SECTIONS:
                out["flags"].append(tok)
                current = None
            elif current is not None:
                current.append((tok, s))
            else:
                self.err(self.span(lineno, s), f"unexpected token {tok!r}")
                return None
        return out

    def _d_location(self, lineno, tokens):
        if len(tokens) < 3:
            self.err(
                self.span(lineno, tokens[0][1]),
                "usage: location <proc> <id> [initial] [committed] "
                "[invariant: <clock-conj>]",
            )
            return
        pb = self._lookup_proc(lineno, tokens[1])
        name, ns = tokens[2]
        sections = self._split_sections(lineno, tokens[3:], _LOC_SECTIONS)
        if pb is None or sections is None:
            return
        if not re.fullmatch(_ID, name):
            self.err(self.span(lineno, ns), f"invalid identifier {name!r}")
            return
        if name in pb.loc_index:
            self.err(
                self.span(lineno, ns),
                f"duplicate declaration of location {name!r} in process {pb.name}",
            )
            return
        invariant = Guard()
        if "invariant:" in sections:
            parsed = self._parse_conj(lineno, sections["invariant:"])
            if parsed is None:
                return
            clock_atoms, int_atoms, int_at = parsed
            if int_atoms:
                self.err(int_at, "invariants must constrain clocks only")
                return
            invariant = Guard(tuple(clock_atoms))
        flags = sections["flags"]
        pb.loc_index[name] = len(pb.locations)
        pb.locations.append(
            Location(
                name,
                initial="initial" in flags,
                committed="committed" in flags,
                invariant=invariant,
            )
        )

    def _d_edge(self, lineno, tokens):
        if len(tokens) < 4:
            self.err(
                self.span(lineno, tokens[0][1]),
                "usage: edge <proc> <src> <dst> [provided: <conj>] "
                "[do: <upd>{; <upd>}] [sync: <event>! | <event>?]",
            )
            return
        pb = self._lookup_proc(lineno, tokens[1])
        sections = self._split_sections(lineno, tokens[4:], _EDGE_SECTIONS)
        if pb is None or sections is None:
            return
        endpoints = []
        for tok, s in tokens[2:4]:
            if tok not in pb.loc_index:
                self.err(
                    self.span(lineno, s),
                    f"unknown location {tok!r} in process {pb.name}",
                )
                return
            endpoints.append(pb.loc_index[tok])
        guard = Guard()
        if "provided:" in sections:
            parsed = self._parse_conj(lineno, sections["provided:"])
            if parsed is None:
                return
            guard = Guard(tuple(parsed[0]), tuple(parsed[1]))
        update, int_assigns = Update(), ()
        if "do:" in sections:
            parsed = self._parse_updates(lineno, sections["do:"])
            if parsed is None:
                return
            update, int_assigns = parsed
        sync = None
        if "sync:" in sections:
            sync = self._parse_sync(lineno, sections["sync:"])
            if sync is None:
                return
        pb.edges.append(
            Edge(endpoints[0], endpoints[1], guard, update, int_assigns, sync)
        )

    def _parse_sync(self, lineno, section) -> Optional[tuple[str, str]]:
        at, toks = section
        if len(toks) != 1:
            s = toks[0][1] if toks else at
            self.err(self.span(lineno, s), "usage: sync: <event>! or sync: <event>?")
            return None
        tok, s = toks[0]
        sp = self.span(lineno, s)
        if not tok or tok[-1] not in "!?":
            self.err(sp, "sync must end with '!' or '?'")
            return None
        name, polarity = tok[:-1], tok[-1]
        if name not in self.events:
            self.err(sp, f"unknown event {name!r}")
            return None
        return (name, polarity)

    # -- constraint conjunctions -------------------------------------------

    def _pieces(self, lineno, toks, sep):
        """Split a section's tokens at sep: each piece with its whitespace
        removed, and the span of its first character (of what follows it,
        for an empty piece); no piece at all without tokens."""
        if not toks:
            return
        start = toks[0][1]
        for piece in self.line[start:toks[-1][1] + len(toks[-1][0])].split(sep):
            lead = len(piece) - len(piece.lstrip())
            yield "".join(piece.split()), self.span(lineno, start + lead)
            start += len(piece) + len(sep)

    def _parse_conj(self, lineno, section):
        """The clock and int atoms of a conjunction section, and the span of
        its first int atom; None after an error."""
        at, toks = section
        if not toks:
            self.err(self.span(lineno, at), "empty constraint section")
            return None
        clock_atoms: list[AtomicConstraint] = []
        int_atoms: list[IntAtom] = []
        int_at = None
        ok = True
        for atom, sp in self._pieces(lineno, toks, "&&"):
            if not atom:
                self.err(sp, "empty atom in conjunction")
                ok = False
            elif not self._parse_atom(atom, sp, clock_atoms, int_atoms):
                ok = False
            elif int_at is None and int_atoms:
                int_at = sp
        if not ok:
            return None
        return clock_atoms, int_atoms, int_at

    def _clock_const(self, text: str, sp: SourceSpan) -> Optional[int]:
        val = int(text)
        if val < 0:
            self.err(sp, f"negative constant {val} in clock constraint (must be natural)")
            return None
        if val > MAX_CONST:
            self.err(sp, f"clock constant {val} exceeds {MAX_CONST} (2^40), "
                         "the bound of 64-bit zone arithmetic")
            return None
        return val

    def _parse_atom(self, atom: str, sp, clock_atoms, int_atoms) -> bool:
        if atom == "false":  # how an unsatisfiable clock atom prints
            clock_atoms.append(BOTTOM)
            return True
        m = _DIAG_L.match(atom)
        if m:
            return self._diag_atom(m.group(1), m.group(2), m.group(3), m.group(4),
                                   const_left=False, sp=sp, out=clock_atoms)
        m = _DIAG_R.match(atom)
        if m:
            return self._diag_atom(m.group(3), m.group(4), m.group(2), m.group(1),
                                   const_left=True, sp=sp, out=clock_atoms)
        m = _CMP.match(atom)
        if not m:
            self.err(sp, f"cannot parse constraint atom {atom!r}")
            return False
        lhs, op, rhs = m.groups()
        lhs_num = re.fullmatch(r"-?\d+", lhs) is not None
        rhs_num = re.fullmatch(r"-?\d+", rhs) is not None
        if lhs_num and rhs_num:
            self.err(sp, f"constraint {atom!r} relates no variable")
            return False
        if lhs_num:
            lhs, op, rhs = rhs, _FLIP[op], lhs
            rhs_num = True
        kind = self.names.get(lhs)
        if kind == "clock":
            if not rhs_num:
                self.err(sp, "clock comparisons must be against constants "
                             "(write differences as x-y)")
                return False
            c = self._clock_const(rhs, sp)
            if c is None:
                return False
            return self._bounds(op, self.clock_index[lhs] + 1, 0, c, sp, clock_atoms)
        if kind == "int":
            var = self.int_index[lhs]
            if rhs_num:
                val = self._int64(rhs, sp)
                if val is None:
                    return False
                int_atoms.append(IntAtom(var, op, rhs_lit=val))
                return True
            rkind = self.names.get(rhs)
            if rkind != "int":
                self.err(sp, f"cannot compare int {lhs!r} with {rkind or 'unknown'} {rhs!r}")
                return False
            int_atoms.append(IntAtom(var, op, rhs_var=self.int_index[rhs]))
            return True
        self.err(sp, f"unknown identifier {lhs!r} in constraint")
        return False

    def _diag_atom(self, xn, yn, op, const, const_left, sp, out) -> bool:
        for n in (xn, yn):
            if self.names.get(n) != "clock":
                self.err(sp, f"unknown clock {n!r} in difference constraint")
                return False
        c = self._clock_const(const, sp)
        if c is None:
            return False
        if const_left:
            op = _FLIP[op]
        # op now reads as: x - y <op> c
        return self._bounds(op, self.clock_index[xn] + 1, self.clock_index[yn] + 1,
                            c, sp, out)

    def _bounds(self, op, i, j, c, sp, out) -> bool:
        """Append the upper and lower bound atoms of ``x_i - x_j <op> c``
        over DBM indices, the lower one in its written orientation.  Trivially
        true atoms are dropped; false ones are kept so the guard stays
        visibly unsatisfiable."""
        if op not in _CLOCK_OPS:
            self.err(sp, "'!=' is not expressible as a conjunction of clock atoms")
            return False
        sides = ((i, j, c, False), (j, i, -c, True))
        for s, (p, q, d, low) in zip(_CLOCK_OPS[op], sides):
            if s is not None and (phi := from_entry(p, q, s, d, low)).kind is not Kind.TOP:
                out.append(phi)
        return True

    # -- updates -----------------------------------------------------------

    def _parse_updates(self, lineno, section):
        at, toks = section
        if not toks:
            self.err(self.span(lineno, at), "empty update section")
            return None
        clock_map: dict[int, object] = {}
        int_assigns: list[IntAssign] = []
        assigned_ints: set[int] = set()
        ok = True
        for stmt, sp in self._pieces(lineno, toks, ";"):
            if not stmt:
                continue
            if "=" not in stmt:
                self.err(sp, f"cannot parse update {stmt!r} (expected <id>=<expr>)")
                ok = False
                continue
            lhs, rhs = stmt.split("=", 1)
            kind = self.names.get(lhs)
            if kind == "clock":
                upd = self._clock_update_rhs(rhs, sp)
                if upd is None:
                    ok = False
                    continue
                x = self.clock_index[lhs]
                if x in clock_map:
                    self.err(sp, f"clock {lhs!r} assigned twice in one update")
                    ok = False
                    continue
                clock_map[x] = upd
            elif kind == "int":
                var = self.int_index[lhs]
                if var in assigned_ints:
                    self.err(sp, f"int {lhs!r} assigned twice in one update")
                    ok = False
                    continue
                terms = self._int_sum_rhs(rhs, sp)
                if terms is None:
                    ok = False
                    continue
                assigned_ints.add(var)
                int_assigns.append(IntAssign(var, terms))
            else:
                self.err(sp, f"unknown identifier {lhs!r} in update")
                ok = False
        if not ok:
            return None
        return Update.of(clock_map), tuple(int_assigns)

    def _clock_update_rhs(self, rhs: str, sp):
        if re.fullmatch(r"\d+", rhs):
            c = self._clock_const(rhs, sp)
            return None if c is None else Const(c)
        if re.fullmatch(r"-\d+", rhs):
            self.err(sp, f"clock reset to negative constant {rhs}")
            return None
        if re.fullmatch(_ID, rhs):
            if self.names.get(rhs) != "clock":
                self.err(sp, f"clock update source {rhs!r} is not a clock")
                return None
            return Shift(self.clock_index[rhs], 0)
        m = _CLOCK_RHS.match(rhs)
        if m:
            src, sign, mag = m.groups()
            if self.names.get(src) != "clock":
                self.err(sp, f"clock update source {src!r} is not a clock")
                return None
            d = self._clock_const(mag, sp)
            if d is None:
                return None
            return Shift(self.clock_index[src], -d if sign == "-" else d)
        self.err(sp, f"cannot parse clock update {rhs!r} (expected c, y, y+d or y-d)")
        return None

    def _int_sum_rhs(self, rhs: str, sp) -> Optional[tuple]:
        terms = []
        pos = 0
        first = True
        while pos < len(rhs):
            m = _TERM.match(rhs, pos)
            if not m:
                self.err(sp, f"cannot parse int expression {rhs!r}")
                return None
            sign_s, body = m.groups()
            if not first and not sign_s:
                self.err(sp, f"missing operator in int expression {rhs!r}")
                return None
            sign = -1 if sign_s == "-" else 1
            if body[0].isdigit():
                val = self._int64(body, sp)
                if val is None:
                    return None
                terms.append((sign, -1, val))
            else:
                if self.names.get(body) != "int":
                    self.err(sp, f"unknown int variable {body!r} in expression")
                    return None
                terms.append((sign, self.int_index[body], 0))
            pos = m.end()
            first = False
        if not terms:
            self.err(sp, "empty int expression")
            return None
        return tuple(terms)


def parse(text: str, filename: str = "<input>") -> Network:
    """Parse a network description; raises ParseErrors listing every problem."""
    parser = _Parser(text, filename)
    net = parser.run()
    if parser.errors:
        raise ParseErrors(parser.errors)
    assert net is not None
    return net


def parse_file(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read(), filename=path)


# --------------------------------------------------------------------------
# Printing


def guard_to_str(guard: Guard, clock_names, int_names=()) -> str:
    parts = [phi.to_str(clock_names) for phi in guard.clock_atoms]
    for a in guard.int_atoms:
        rhs = int_names[a.rhs_var] if a.rhs_var is not None else str(a.rhs_lit)
        parts.append(f"{int_names[a.var]}{a.op}{rhs}")
    return " && ".join(parts)


def update_to_str(update: Update, int_assigns, clock_names, int_names=()) -> str:
    parts = []
    for x, u in update.entries:
        if isinstance(u, Const):
            parts.append(f"{clock_names[x]}={u.value}")
        elif u.offset == 0:
            parts.append(f"{clock_names[x]}={clock_names[u.source]}")
        elif u.offset > 0:
            parts.append(f"{clock_names[x]}={clock_names[u.source]}+{u.offset}")
        else:
            parts.append(f"{clock_names[x]}={clock_names[u.source]}-{-u.offset}")
    for a in int_assigns:
        body = ""
        for i, (sign, var_idx, lit) in enumerate(a.terms):
            term = int_names[var_idx] if var_idx >= 0 else str(lit)
            if sign < 0:
                body += f"-{term}"
            elif i > 0:
                body += f"+{term}"
            else:
                body += term
        parts.append(f"{int_names[a.var]}={body}")
    return "; ".join(parts)


def print_network(net: Network) -> str:
    """Text form of a network; parse(print_network(n)) is structurally n."""
    int_names = tuple(v.name for v in net.int_vars)
    lines = [f"system {net.name}", ""]
    for c in net.clocks:
        lines.append(f"clock {c}")
    for v in net.int_vars:
        lines.append(f"int {v.name} {v.lo} {v.hi} {v.init}")
    for ev in net.channels:
        lines.append(f"event {ev}")
    for comp in net.components:
        lines.append("")
        lines.append(f"process {comp.name}")
        for loc in comp.locations:
            parts = ["location", comp.name, loc.name]
            if loc.initial:
                parts.append("initial")
            if loc.committed:
                parts.append("committed")
            if loc.invariant.clock_atoms:
                parts.append("invariant: " + guard_to_str(loc.invariant, net.clocks))
            lines.append(" ".join(parts))
        for e in comp.edges:
            parts = [
                "edge",
                comp.name,
                comp.locations[e.src].name,
                comp.locations[e.dst].name,
            ]
            if e.guard.clock_atoms or e.guard.int_atoms:
                parts.append("provided: " + guard_to_str(e.guard, net.clocks, int_names))
            if e.update.entries or e.int_assigns:
                parts.append(
                    "do: " + update_to_str(e.update, e.int_assigns, net.clocks, int_names)
                )
            if e.sync is not None:
                parts.append(f"sync: {e.sync[0]}{e.sync[1]}")
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"

