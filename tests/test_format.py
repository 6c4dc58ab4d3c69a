"""Parser and printer behaviour, including round-trips."""
import random

import pytest

from uta.format import (
    ParseErrors,
    guard_to_str,
    parse,
    print_network,
)
from uta.model import (
    BOTTOM,
    STRICT,
    WEAK,
    Automaton,
    Const,
    Edge,
    Guard,
    IntAssign,
    IntAtom,
    IntVar,
    Location,
    Network,
    Shift,
    Update,
    make_lower,
    make_lower_diag,
    make_upper,
    make_upper_diag,
)

LOOP_TEXT = """\
system loop

clock x
clock y

process P
location P q0 initial
location P q1
location P q2
edge P q0 q1 provided: x<=3 do: x=x-1
edge P q1 q0
edge P q1 q2 provided: x-y<1
"""


def test_parse_guarded_loop_example():
    net = parse(LOOP_TEXT)
    assert len(net.components) == 1
    assert net.clocks == ("x", "y")
    comp = net.components[0]
    assert len(comp.locations) == 3
    assert comp.initial == 0
    e0 = comp.edges[0]
    assert e0.guard.clock_atoms == (make_upper(0, WEAK, 3),)
    assert e0.update.entries == ((0, Shift(0, -1)),)
    e2 = comp.edges[2]
    assert e2.guard.clock_atoms == (make_upper_diag(0, 1, STRICT, 1),)


def test_parse_minimal_system():
    net = parse("system s\nprocess P\nlocation P a initial\n")
    assert net.name == "s"
    assert len(net.components) == 1
    assert net.components[0].locations[0].initial


def test_negative_guard_constant_rejected():
    text = "system s\nclock x\nprocess P\nlocation P a initial\nlocation P b\n" \
           "edge P a b provided: x<=-1\n"
    with pytest.raises(ParseErrors) as exc:
        parse(text)
    errs = exc.value.errors
    assert len(errs) == 1
    assert "negative constant" in errs[0].message
    assert errs[0].span.line == 6


def test_negative_diagonal_constant_rejected():
    text = "system s\nclock x\nclock y\nprocess P\nlocation P a initial\n" \
           "location P b\nedge P a b provided: x-y<=-2\n"
    with pytest.raises(ParseErrors):
        parse(text)


def test_declaration_before_use():
    text = "system s\nprocess P\nlocation P a initial invariant: x<=3\nclock x\n"
    with pytest.raises(ParseErrors) as exc:
        parse(text)
    assert any("unknown" in e.message for e in exc.value.errors)


def test_duplicate_declarations_rejected():
    with pytest.raises(ParseErrors) as exc:
        parse("system s\nclock x\nclock x\nprocess P\nlocation P a initial\n")
    assert any("duplicate" in e.message for e in exc.value.errors)
    with pytest.raises(ParseErrors) as exc:
        parse("system s\nclock x\nint x 0 1 0\nprocess P\nlocation P a initial\n")
    assert any("duplicate" in e.message for e in exc.value.errors)


def test_errors_are_positioned_and_accumulated():
    text = "system s\nclock x\nbogus line here\nprocess P\nlocation P a initial\n" \
           "edge P a nowhere\n"
    with pytest.raises(ParseErrors) as exc:
        parse(text, filename="m.uta")
    errs = exc.value.errors
    assert len(errs) == 2
    assert errs[0].span.line == 3 and errs[0].span.file == "m.uta"
    assert errs[1].span.line == 6
    assert errs[0].span.col_start >= 1


def test_int_atom_in_invariant_rejected():
    text = "system s\nclock x\nint n 0 3 0\nprocess P\n" \
           "location P a initial invariant: n<3\n"
    with pytest.raises(ParseErrors) as exc:
        parse(text)
    assert any("clocks only" in e.message for e in exc.value.errors)


SECTION_HEAD = "system s\nclock x\nclock y\nint n 0 3 0\nprocess p\n" \
               "location p a initial\nlocation p b\n"


def only_error(line: str):
    """The one error of SECTION_HEAD followed by line, as (col, message)."""
    with pytest.raises(ParseErrors) as exc:
        parse(SECTION_HEAD + line + "\n")
    (e,) = exc.value.errors
    assert e.span.line == SECTION_HEAD.count("\n") + 1
    return e.span.col_start, e.message


@pytest.mark.parametrize("line, at, message", [
    ("edge p a b provided: x<=1 && zz<3", "zz<3",
     "unknown identifier 'zz' in constraint"),
    ("edge p a b provided: x <= 1 && n < 99999999999999999999", "n <",
     "constant 99999999999999999999 does not fit in 64-bit signed range"),
    ("edge p a b provided: x<=1&&y-zz<2", "y-zz",
     "unknown clock 'zz' in difference constraint"),
    ("edge p a b provided: x<=1 && y!=2", "y!=",
     "'!=' is not expressible as a conjunction of clock atoms"),
    ("edge p a b provided: x<=1 && && y<2", "&& y",
     "empty atom in conjunction"),
    ("location p c invariant: x<=3 && y<=2000000000000", "y<=",
     "clock constant 2000000000000 exceeds 1099511627776 (2^40), "
     "the bound of 64-bit zone arithmetic"),
    ("location p c invariant: x<=3 && n<3", "n<3",
     "invariants must constrain clocks only"),
    ("edge p a b do: x=0; y=zz", "y=zz",
     "clock update source 'zz' is not a clock"),
    ("edge p a b do: x=0 ; n = n + q", "n =",
     "unknown int variable 'q' in expression"),
    ("edge p a b do: x=1;x=2", "x=2", "clock 'x' assigned twice in one update"),
    ("edge p a b do: x=1; y", "y", "cannot parse update 'y' (expected <id>=<expr>)"),
    ("edge p a b provided:  x<=1 &&\t\tzz<3", "zz<3",
     "unknown identifier 'zz' in constraint"),
    ("edge p a b provided: x<=1 &&", "", "empty atom in conjunction"),
    # an empty section points at its keyword
    ("edge p a b provided:", "provided:", "empty constraint section"),
    ("edge p a b provided: do: x=0", "provided:", "empty constraint section"),
    ("location p c invariant:", "invariant:", "empty constraint section"),
    ("edge p a b do:", "do:", "empty update section"),
    ("edge p a b do: sync: e!", "do:", "empty update section"),
    ("edge p a b sync:", "sync:", "usage: sync: <event>! or sync: <event>?"),
])
def test_section_errors_point_at_the_failing_piece(line, at, message):
    assert only_error(line) == (line.rindex(at) + 1, message)


def test_section_error_column_of_the_second_atom():
    assert only_error("edge p a b provided: x<=1 && zz<3")[0] == 30


def test_initial_int_value_out_of_range_rejected():
    for decl, at in (("int n 0 3 7", "7"), ("int n -2 -1 0", "0"),
                     ("int n 1 1 -5", "-5")):
        with pytest.raises(ParseErrors) as exc:
            parse(f"system s\n{decl}\nprocess p\nlocation p a initial\n")
        (e,) = exc.value.errors
        lo, hi, init = decl.split()[2:]
        assert (e.span.line, e.span.col_start) == (2, decl.rindex(at) + 1)
        assert e.message == f"initial value {init} outside [{lo}, {hi}]"
    net = parse("system s\nint n 1 1 1\nprocess p\nlocation p a initial\n")
    assert net.int_initials() == (1,)


def test_equality_sugar_expands_to_two_atoms():
    text = "system s\nclock x\nprocess P\nlocation P a initial\nlocation P b\n" \
           "edge P a b provided: x==3\n"
    net = parse(text)
    atoms = net.components[0].edges[0].guard.clock_atoms
    assert make_upper(0, WEAK, 3) in atoms
    assert make_lower(0, WEAK, 3) in atoms


def test_flipped_comparison_forms():
    text = "system s\nclock x\nclock y\nprocess P\nlocation P a initial\nlocation P b\n" \
           "edge P a b provided: x>=1 && 2<=x-y && 3>x\n"
    atoms = parse(text).components[0].edges[0].guard.clock_atoms
    assert make_lower(0, WEAK, 1) in atoms
    assert make_lower_diag(0, 1, WEAK, 2) in atoms
    assert make_upper(0, STRICT, 3) in atoms

    def guard(atom):
        src = "system s\nclock x\nclock y\nprocess P\nlocation P a initial\n" \
              f"location P b\nedge P a b provided: {atom}\n"
        return parse(src).components[0].edges[0].guard.clock_atoms

    # (op, mirrored op): atoms of x op 3, atoms of x-y op 3
    cases = {
        ("<", ">"): ((make_upper(0, STRICT, 3),), (make_upper_diag(0, 1, STRICT, 3),)),
        ("<=", ">="): ((make_upper(0, WEAK, 3),), (make_upper_diag(0, 1, WEAK, 3),)),
        (">", "<"): ((make_lower(0, STRICT, 3),), (make_lower_diag(0, 1, STRICT, 3),)),
        (">=", "<="): ((make_lower(0, WEAK, 3),), (make_lower_diag(0, 1, WEAK, 3),)),
        ("==", "=="): ((make_upper(0, WEAK, 3), make_lower(0, WEAK, 3)),
                       (make_upper_diag(0, 1, WEAK, 3), make_lower_diag(0, 1, WEAK, 3))),
    }
    for (op, mirror), (clock, diag) in cases.items():
        assert guard(f"x{op}3") == guard(f"3{mirror}x") == clock
        assert guard(f"x-y{op}3") == guard(f"3{mirror}x-y") == diag
    for atom in ("x!=3", "3!=x", "x-y!=3", "3!=x-y"):
        with pytest.raises(ParseErrors) as exc:
            guard(atom)
        assert [e.message for e in exc.value.errors] == [
            "'!=' is not expressible as a conjunction of clock atoms"]


def test_zero_constant_forms_keep_orientation():
    # at constant 0, 0<=x-y and y-x<=0 are one constraint in two
    # orientations; the parsed and printed model keeps the one written
    printed = {
        "x<0": "false", "x<=0": "x<=0", "x>0": "0<x", "x>=0": "", "x==0": "x<=0",
        "0<x": "0<x", "0<=x": "", "0>x": "false", "0>=x": "x<=0", "0==x": "x<=0",
        "x-y<0": "x-y<0", "x-y<=0": "x-y<=0", "x-y>0": "0<x-y", "x-y>=0": "0<=x-y",
        "x-y==0": "x-y<=0 && 0<=x-y", "0<x-y": "0<x-y", "0<=x-y": "0<=x-y",
        "0>x-y": "x-y<0", "0>=x-y": "x-y<=0", "0==x-y": "x-y<=0 && 0<=x-y",
    }
    for atom, want in printed.items():
        net = parse("system s\nclock x\nclock y\nprocess P\nlocation P a initial\n"
                    f"location P b\nedge P a b provided: {atom}\n")
        guard = net.components[0].edges[0].guard
        assert guard_to_str(guard, net.clocks) == want, atom
        assert parse(print_network(net)) == net


def test_unsatisfiable_atoms_read_back():
    # x<0 and 0>x normalize to BOTTOM, which prints as false
    text = ("system s\nclock x\nclock y\nprocess P\n"
            "location P a initial invariant: x<0 && y<=4\nlocation P b\n"
            "edge P a b provided: 0>y && x-y<2\n")
    net = parse(text)
    assert net.components[0].locations[0].invariant.clock_atoms[0] == BOTTOM
    assert net.components[0].edges[0].guard.clock_atoms[0] == BOTTOM
    printed = print_network(net)
    assert "invariant: false && y<=4" in printed
    assert "provided: false && x-y<2" in printed
    assert parse(printed) == net


def test_trivial_atoms_dropped():
    text = "system s\nclock x\nprocess P\nlocation P a initial\nlocation P b\n" \
           "edge P a b provided: x>=0 && x<=2\n"
    atoms = parse(text).components[0].edges[0].guard.clock_atoms
    assert atoms == (make_upper(0, WEAK, 2),)


def test_int_guards_and_updates():
    text = "system s\nclock x\nint n 0 5 1\nint m -2 2 0\nevent go\n" \
           "process P\nlocation P a initial\nlocation P b\n" \
           "edge P a b provided: n<3 && m==0 && x<=1 do: n=n+1; m=m-n+2; x=0 sync: go!\n"
    net = parse(text)
    e = net.components[0].edges[0]
    assert IntAtom(0, "<", rhs_lit=3) in e.guard.int_atoms
    assert IntAtom(1, "==", rhs_lit=0) in e.guard.int_atoms
    assert e.update.entries == ((0, Const(0)),)
    assert e.int_assigns[0] == IntAssign(0, ((1, 0, 0), (1, -1, 1)))
    assert e.int_assigns[1] == IntAssign(1, ((1, 1, 0), (-1, 0, 0), (1, -1, 2)))
    assert e.sync == ("go", "!")


def test_unknown_event_in_sync():
    text = "system s\nprocess P\nlocation P a initial\nlocation P b\n" \
           "edge P a b sync: boom!\n"
    with pytest.raises(ParseErrors) as exc:
        parse(text)
    assert any("unknown event" in e.message for e in exc.value.errors)


def test_oversized_constant_rejected():
    big = 2**63
    text = f"system s\nclock x\nprocess P\nlocation P a initial\nlocation P b\n" \
           f"edge P a b provided: x<={big}\n"
    with pytest.raises(ParseErrors) as exc:
        parse(text)
    assert any("64-bit" in e.message for e in exc.value.errors)


def test_two_initial_locations_rejected():
    text = "system s\nprocess P\nlocation P a initial\nlocation P b initial\n"
    with pytest.raises(ParseErrors) as exc:
        parse(text)
    assert any("exactly one initial" in e.message for e in exc.value.errors)


def test_zero_edge_process_prints_location_lines_only():
    net = parse("system s\nprocess P\nlocation P a initial\n")
    text = print_network(net)
    body = [ln for ln in text.splitlines() if ln]
    assert body == ["system s", "process P", "location P a initial"]


def test_comments_and_blank_lines_ignored():
    text = "# header\nsystem s  # trailing\n\nclock x\n   # indented comment\n" \
           "process P\nlocation P a initial\n"
    net = parse(text)
    assert net.clocks == ("x",)


def _random_network(rng: random.Random) -> Network:
    clocks = ("x", "y", "z")
    ints = (IntVar("n", 0, 5, rng.randint(0, 5)), IntVar("m", -3, 3, 0))
    events = ("go", "stop")

    def atom():
        x = rng.randrange(3)
        y = rng.choice([k for k in range(3) if k != x])
        s = rng.choice([STRICT, WEAK])
        pick = rng.randrange(4)
        if pick == 0:
            return make_upper(x, s, rng.randint(1, 6))
        if pick == 1:
            return make_lower(x, s, rng.randint(1, 6))
        if pick == 2:
            return make_upper_diag(x, y, s, rng.randint(0, 6))
        return make_lower_diag(x, y, s, rng.randint(0, 6))

    def guard(with_ints: bool) -> Guard:
        atoms = tuple(atom() for _ in range(rng.randint(0, 2)))
        iats = ()
        if with_ints and rng.random() < 0.5:
            iats = (IntAtom(rng.randrange(2), rng.choice(["<", "==", ">="]),
                            rhs_lit=rng.randint(-2, 4)),)
        return Guard(atoms, iats)

    def update() -> Update:
        out = {}
        for x in range(3):
            if rng.random() < 0.4:
                if rng.random() < 0.5:
                    out[x] = Const(rng.randint(0, 4))
                else:
                    out[x] = Shift(rng.randrange(3), rng.randint(-2, 3))
        return Update.of(out)

    comps = []
    for ci in range(rng.randint(1, 2)):
        n_locs = rng.randint(2, 4)
        locations = tuple(
            Location(
                f"q{i}",
                initial=(i == 0),
                committed=(rng.random() < 0.15 and i > 0),
                invariant=Guard(tuple(atom() for _ in range(rng.randint(0, 1)))),
            )
            for i in range(n_locs)
        )
        edges = []
        for _ in range(rng.randint(1, 5)):
            assigns = ()
            if rng.random() < 0.4:
                assigns = (IntAssign(0, ((1, 0, 0), (1, -1, 1))),)
            sync = None
            if rng.random() < 0.5:
                sync = (rng.choice(events), rng.choice(["!", "?"]))
            edges.append(
                Edge(rng.randrange(n_locs), rng.randrange(n_locs),
                     guard(True), update(), assigns, sync)
            )
        comps.append(Automaton(f"P{ci}", locations, tuple(edges), clocks))
    return Network("rt", clocks, ints, events, tuple(comps))


def test_round_trip_random_networks():
    rng = random.Random(20240812)
    for _ in range(60):
        net = _random_network(rng)
        text = print_network(net)
        back = parse(text)
        assert back == net, text
        assert print_network(back) == text


def test_round_trip_guarded_loop():
    net = parse(LOOP_TEXT)
    assert parse(print_network(net)) == net



SYNC_TEXT = """\
system s
clock x
clock y
int n 0 5 0
event go
process P
location P a initial invariant: x<=4
location P b committed
edge P a b provided: x<3 && 2<x-y && n==1 do: x=0; n=n+1; y=x+2 sync: go!
process Q
location Q c initial
edge Q c c provided: x-y<=5 sync: go?
"""

# what a mutation inserts: names, operators, section keywords and literals
# at and past the 2^40 clock bound and the 64-bit range
_PIECES = ("x", "y", "n", "q1", "P0", "go!", "<", "<=", ">=", "==", "!=", "=",
           "-", "+", ";", "&&", " ", "\n", "#", "provided:", "do:", "sync:",
           "invariant:", "initial", "committed", "edge", "int", "clock", "-1",
           "007", str(2**40 + 1), str(2**63), str(-2**63 - 1))


def test_mutated_models_raise_only_parse_errors():
    rng = random.Random(8)
    bases = [LOOP_TEXT, SYNC_TEXT]
    failed = 0
    for _ in range(2000):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text))
            cut = rng.randint(0, 3)
            text = text[:i] + rng.choice(_PIECES) * rng.randint(0, 1) + text[i + cut:]
        try:
            parse(text)
        except ParseErrors as exc:
            failed += 1
            assert all(e.span.line >= 1 and e.span.col_start >= 1
                       for e in exc.errors)
    assert failed >= 1000
