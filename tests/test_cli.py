"""Exit codes, report shapes, and generation round-trips for the uta tool."""
import argparse
import json
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import child_env
from uta.benchgen import (
    FLOWER,
    CounterAutomaton,
    TaskSpec,
    gen_counter_reduction,
    gen_edf,
    gen_fig1,
    gen_fig1_unguarded,
    gen_mine_pump,
)
from uta import cli, dbm
from uta.cli import main
from uta.format import parse, parse_file, print_network
from uta.search import REACHABLE, SearchStats


SPIN = """\
system spin
clock x
clock y
process p
location p a initial
location p b
edge p a a do: x=x-1
edge p a b provided: 100<=x-y
"""

TOY = """\
system toy
clock x
process p
location p a initial
location p b
location p c
edge p a b provided: x<=2
"""

# A writes x and B reads it: per-component constraint sets miss that B's
# x<=3 must survive A's x=x-1, so pruning x=4 under x=5 at a1 would hide goal
SHARED = """\
system shared
clock x
int done 0 1 0
process A
location A a0 initial
location A a1 committed
location A a2
edge A a0 a1 do: x=5
edge A a0 a1 do: x=4
edge A a1 a2 do: x=x-1; done=1
process B
location B b0 initial
location B goal
edge B b0 goal provided: x<=3 && done==1
"""

# the shift wraps the int64 offset matrix when its constant reaches 2^62
BIG_SHIFT = """\
system big
clock x
process p
location p a initial invariant: x<=0
location p b committed
location p c
edge p a b do: x=x+{offset}
edge p b c provided: x<=5
"""


# converges after 2 sweeps with x-y<2^41 at q0: a constant the zone
# arithmetic cannot encode, so pruning must be refused, not crash
BIG_DIAGONAL = """\
system big
clock x
clock y
process P
location P q0 initial
location P q1
location P q2
location P q3
edge P q0 q0 do: y=0
edge P q0 q1 do: x=x-1099511627776
edge P q1 q2 provided: x-y<1099511627776
"""

# analyses that do not end on their own: with bound 2^40 the first growth
# cycle is pumped toward N = 25 * 2^40, with bound 1 toward N = 2.7e13
PUMP = """\
system pump
clock x
clock y
process P
location P q0 initial
location P q1
location P q2
edge P q0 q1 do: x=x-1
edge P q1 q0
edge P q1 q2 provided: x-y<{bound}
edge P q2 q2 do: y=1099511627776
"""

# each lap moves x's lower bound up by 2^40, so the unpruned search never
# meets a zone twice
GROW = """\
system grow
clock x
process p
location p a initial
location p b
edge p a a do: x=x+1099511627776
"""


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def raise_memory_error(*args, **kwargs):
    raise MemoryError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def loop_file(tmp_path):
    path = tmp_path / "loop.uta"
    path.write_text(print_network(gen_fig1()))
    return str(path)


@pytest.fixture()
def loop_unguarded_file(tmp_path):
    path = tmp_path / "loopu.uta"
    path.write_text(print_network(gen_fig1_unguarded()))
    return str(path)


class TestAnalyze:
    def test_converged_exit_zero(self, capsys, loop_file):
        code, out, _ = run(capsys, "analyze", loop_file)
        assert code == 0
        assert "loop: converged after 5 iterations" in out
        assert "q0: 1<=x, 2<=x, 3<=x, x-y<2, x-y<3, x<=3" in out

    def test_diverged_exit_two_with_hint(self, capsys, loop_unguarded_file):
        code, out, _ = run(capsys, "analyze", loop_unguarded_file)
        assert code == 2
        assert "diverged" in out
        assert "--explain-divergence" in out

    def test_divergence_witness(self, capsys, loop_unguarded_file):
        code, out, _ = run(capsys, "analyze", loop_unguarded_file,
                           "--explain-divergence")
        assert code == 2
        assert "divergence witness:" in out
        assert "positive cycle: steps" in out
        assert "x-y<26" in out

    def test_allowed_shared_clock_is_a_warning(self, capsys, tmp_path):
        path = tmp_path / "shared.uta"
        path.write_text(SHARED)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 0
        assert "warning: clock x is shared between components A, B" in err
        assert "error:" not in err

    def test_json_report(self, capsys, loop_file):
        code, out, _ = run(capsys, "analyze", loop_file, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["model"] == "loop"
        comp = doc["components"][0]
        assert comp["status"] == "converged"
        assert comp["bounds"] == {"M": 3, "L": 1, "N": 27, "budget": 648}
        assert sorted(comp["location"]["q0"]) == [
            "1<=x", "2<=x", "3<=x", "x-y<2", "x-y<3", "x<=3",
        ]

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.uta"
        bad.write_text("system t\nclock 1x\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "absent.uta"))
        assert code == 2
        assert "error:" in err

    def test_dump_model(self, capsys, loop_file):
        code, out, _ = run(capsys, "analyze", loop_file, "--dump-model")
        assert code == 0
        assert out.startswith("system loop\n")

    def test_dump_model_reads_back(self, capsys, loop_file):
        code, out, _ = run(capsys, "analyze", loop_file, "--dump-model")
        assert code == 0
        assert "\n# loop: converged after 5 iterations" in out
        assert print_network(parse(out)) == print_network(parse_file(loop_file))

    def test_out_of_memory_exit_two(self, capsys, loop_file, monkeypatch):
        monkeypatch.setattr(cli, "compute_gmap", raise_memory_error)
        code, out, err = run(capsys, "analyze", loop_file)
        assert (code, out) == (2, "")
        assert err == "error: out of memory during static analysis\n"

    @pytest.mark.parametrize("bound", ["1099511627776", "1"])
    def test_timeout_bounds_the_analysis(self, tmp_path, bound):
        path = tmp_path / "pump.uta"
        path.write_text(PUMP.format(bound=bound))
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "uta.cli", "analyze", str(path),
             "--timeout", "1"],
            capture_output=True, text=True, timeout=60, env=child_env(),
            preexec_fn=limit_address_space)
        assert time.monotonic() - t0 < 10
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: timeout after 1s (static analysis)\n"


class TestReach:
    def test_reachable_exit_one(self, capsys, loop_file):
        code, out, _ = run(capsys, "reach", loop_file, "--target", "q2")
        assert code == 1
        assert "loop: q2 Reachable nodes=4" in out

    def test_unreachable_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "toy.uta"
        path.write_text(TOY)
        code, out, err = run(capsys, "reach", str(path), "--target", "c")
        assert code == 0
        assert "toy: c Unreachable" in out
        assert "warning" in err  # c is unreachable in the location graph

    def test_dump_model_reads_back(self, capsys, loop_file):
        code, out, _ = run(capsys, "reach", loop_file, "--target", "q2",
                           "--dump-model")
        assert code == 1
        assert out.startswith("system loop\n")
        assert "\n# loop: q2 Reachable nodes=4" in out
        assert print_network(parse(out)) == print_network(parse_file(loop_file))

    def test_unknown_target(self, capsys, loop_file):
        code, _, err = run(capsys, "reach", loop_file, "--target", "nowhere")
        assert code == 2
        assert "no location named" in err

    def test_divergent_analysis_blocks_pruning(self, capsys, tmp_path):
        path = tmp_path / "spin.uta"
        path.write_text(SPIN)
        code, _, err = run(capsys, "reach", str(path), "--target", "b")
        assert code == 2
        assert "static analysis did not converge for component p (diverged)" in err
        assert "--no-simulation" in err

    def test_timeout_exit_two(self, capsys, tmp_path):
        path = tmp_path / "spin.uta"
        path.write_text(SPIN)
        code, _, err = run(capsys, "reach", str(path), "--target", "b",
                           "--no-simulation", "--timeout", "0.3")
        assert code == 2
        assert "timeout" in err

    @pytest.mark.parametrize("bound", ["1099511627776", "1"])
    def test_timeout_bounds_the_analysis(self, tmp_path, bound):
        path = tmp_path / "pump.uta"
        path.write_text(PUMP.format(bound=bound))
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "uta.cli", "reach", str(path), "--target", "q2",
             "--timeout", "1"],
            capture_output=True, text=True, timeout=60, env=child_env(),
            preexec_fn=limit_address_space)
        assert time.monotonic() - t0 < 10
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: timeout after 1s (static analysis)\n"

    def test_sub_second_timeout_is_printed_as_given(self, capsys, tmp_path):
        path = tmp_path / "spin.uta"
        path.write_text(SPIN)
        code, _, err = run(capsys, "reach", str(path), "--target", "b",
                           "--no-simulation", "--timeout", "0.5")
        assert code == 2
        assert err.startswith("error: timeout after 0.5s (")

    def test_shared_clock_refuses_pruning(self, capsys, tmp_path):
        path = tmp_path / "shared.uta"
        path.write_text(SHARED)
        code, _, err = run(capsys, "reach", str(path), "--target", "goal")
        assert code == 2
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1
        assert "clock x is shared between components A, B" in errors[0]
        assert "--no-simulation" in errors[0]
        code, out, _ = run(capsys, "reach", str(path), "--target", "goal",
                           "--no-simulation")
        assert code == 1
        assert "Reachable" in out

    def test_shared_clock_refused_before_the_analysis(self, capsys, tmp_path):
        # P's analysis alone runs past the time bound
        path = tmp_path / "shared_pump.uta"
        path.write_text(PUMP.format(bound="1099511627776")
                        + "process B\nlocation B b0 initial\nlocation B b1\n"
                          "edge B b0 b1 provided: x<=3\n")
        code, out, err = run(capsys, "reach", str(path), "--target", "b1",
                             "--timeout", "0.5")
        assert (code, out) == (2, "")
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert errors == [
            "error: clock x is shared between components P, B; simulation "
            "pruning is unsound on shared clocks, rerun with pruning disabled "
            "(--no-simulation)"]

    def test_unencodable_constraint_set_refuses_pruning(self, capsys, tmp_path):
        path = tmp_path / "big.uta"
        path.write_text(BIG_DIAGONAL)
        code, out, err = run(capsys, "reach", str(path), "--target", "q3")
        assert code == 2
        assert out == ""
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1
        assert "2199023255552" in errors[0] and "--no-simulation" in errors[0]
        assert "Traceback" not in err
        code, out, _ = run(capsys, "reach", str(path), "--target", "q3",
                           "--no-simulation")
        assert code == 0
        assert "big: q3 Unreachable" in out

    def test_unknown_process_in_target(self, capsys, loop_file):
        code, _, err = run(capsys, "reach", loop_file, "--target", "nosuch.c")
        assert code == 2
        assert "no process named 'nosuch'" in err

    def test_shift_past_the_zone_bound_rejected(self, capsys, tmp_path):
        path = tmp_path / "big.uta"
        path.write_text(BIG_SHIFT.format(offset=2**62))
        for extra in ((), ("--no-simulation",)):
            code, out, err = run(capsys, "reach", str(path), "--target", "c",
                                 *extra)
            assert code == 2 and out == ""
            assert f"{path}:7:16: clock constant {2**62} exceeds" in err
        path.write_text(BIG_SHIFT.format(offset=2**40))  # at the bound
        for extra in ((), ("--no-simulation",)):
            code, out, _ = run(capsys, "reach", str(path), "--target", "c",
                               *extra)
            assert code == 0 and "Unreachable" in out

    def test_zone_bound_past_the_range_exit_two(self, capsys, tmp_path,
                                                monkeypatch):
        # a smaller range stands for the 2^19 laps the real one takes
        monkeypatch.setattr(dbm, "LIMIT", dbm.INF >> 16)
        path = tmp_path / "grow.uta"
        path.write_text(GROW)
        code, out, err = run(capsys, "reach", str(path), "--target", "b",
                             "--no-simulation")
        assert (code, out) == (2, "")
        errors = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "Traceback" not in err
        assert errors[0].startswith("error: a clock update moved a zone bound")

    def test_guard_constant_past_the_zone_bound_rejected(self, capsys,
                                                         tmp_path):
        path = tmp_path / "guard.uta"
        path.write_text(TOY.replace("x<=2", "x<=2000000000000"))
        code, out, err = run(capsys, "reach", str(path), "--target", "b")
        assert code == 2 and out == ""
        assert f"{path}:7:22: clock constant 2000000000000 exceeds" in err

    def test_no_simulation_same_verdict(self, capsys, loop_file):
        code, out, _ = run(capsys, "reach", loop_file, "--target", "q2",
                           "--no-simulation")
        assert code == 1
        assert "Reachable" in out

    @pytest.mark.parametrize("name, phase", [("compute_gmap", "static analysis"),
                                             ("reach", "search")])
    def test_out_of_memory_exit_two(self, capsys, loop_file, monkeypatch,
                                    name, phase):
        # exit 1 would read as Reachable, so no traceback may escape
        monkeypatch.setattr(cli, name, raise_memory_error)
        code, out, err = run(capsys, "reach", loop_file, "--target", "q2")
        assert (code, out) == (2, "")
        assert err == f"error: out of memory during {phase}\n"

    def test_json_stats(self, capsys, loop_file):
        code, out, _ = run(capsys, "reach", loop_file, "--target", "q2",
                           "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["model"] == "loop" and doc["verdict"] == "Reachable"
        assert doc["nodes"] == 4 and doc["pruned"] == 1
        assert doc["pruned_exact"] == 0 and doc["pruned_sim"] == 1
        assert doc["max_frontier"] == 2 and doc["disabled_assigns"] == 0
        assert doc["kernel_candidates"] == 1 and doc["diag_calls"] == 1
        assert doc["stored"] == 2 and doc["peak_rss_mb"] > 0
        assert [step["state"] for step in doc["path"]] == ["q1", "q2"]
        assert doc["total_seconds"] >= doc["seconds"]


class TestExitPath:
    @pytest.mark.parametrize("argv, want", [(("analyze",), 0),
                                            (("reach", "--target", "q2"), 1)])
    def test_dump_model_json_reads_back(self, capsys, loop_file, argv, want):
        argv = (argv[0], loop_file, *argv[1:], "--format", "json")
        code, out, _ = run(capsys, *argv, "--dump-model")
        assert code == want
        assert print_network(parse(out)) == print_network(parse_file(loop_file))
        comments = [l[2:] for l in out.splitlines() if l.startswith("# ")]
        dumped = json.loads("\n".join(comments))
        _, plain, _ = run(capsys, *argv)
        untimed = lambda doc: {k: v for k, v in doc.items()
                               if "seconds" not in k and k != "peak_rss_mb"}
        assert untimed(dumped) == untimed(json.loads(plain))

    @pytest.mark.parametrize("argv, name, phase", [
        (("analyze", "LOOP"), "compute_gmap", "static analysis"),
        (("reach", "LOOP", "--target", "q2"), "reach", "search"),
        (("gen", "fig1", "-o", "-"), "_build_gen", "generation"),
    ])
    def test_internal_error_exit_two(self, capsys, loop_file, monkeypatch,
                                     argv, name, phase):
        # exit 1 would read as Reachable, so no exception may escape
        def fail(*args, **kwargs):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(cli, name, fail)
        argv = [loop_file if a == "LOOP" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "RuntimeError: injected fault" in err
        assert err.splitlines()[-1] == f"error: internal error during {phase}"

    @pytest.mark.parametrize("timeout", ["nan", "0", "-1"])
    def test_timeout_must_be_positive(self, tmp_path, timeout):
        path = tmp_path / "spin.uta"
        path.write_text(SPIN)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "uta.cli", "reach", str(path), "--target", "b",
             "--no-simulation", f"--timeout={timeout}"],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert time.monotonic() - t0 < 10
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "argument --timeout: expected seconds greater than 0" in proc.stderr

    def test_infinite_timeout_allowed(self, capsys, loop_file):
        code, out, _ = run(capsys, "reach", loop_file, "--target", "q2",
                           "--timeout", "inf")
        assert code == 1 and "Reachable" in out


class TestReadme:
    def test_every_option_documented(self):
        def options(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from options(sub)
                yield from (o for o in action.option_strings if o.startswith("--"))

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        missing = sorted({o for o in options(cli.build_parser())
                          if not re.search(re.escape(o) + r"(?![\w-])", readme)})
        assert not missing, f"options missing from README.md: {missing}"

    def test_every_reach_json_key_documented(self, capsys, loop_file):
        code, out, _ = run(capsys, "reach", loop_file, "--target", "q2",
                           "--format", "json")
        doc = json.loads(out)
        stats = SearchStats(REACHABLE, path=()).to_json(parse_file(loop_file))
        assert code == 1 and set(stats) | {"total_seconds"} <= set(doc)
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        missing = sorted(k for k in doc if f"`{k}`" not in readme)
        assert not missing, f"reach JSON keys missing from README.md: {missing}"


class TestGen:
    def test_edf_file_matches_library(self, capsys, tmp_path):
        path = tmp_path / "f3.uta"
        code, out, _ = run(capsys, "gen", "edf", "--tasks", "1:2,1:2,1:2",
                           "--release", "flower", "-o", str(path))
        assert code == 0
        assert out.strip() == str(path)
        assert parse_file(str(path)) == gen_edf((TaskSpec(1, 2),) * 3, FLOWER)

    def test_default_output_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "gen", "edf", "--preset", "mine-pump")
        assert code == 0
        assert out.strip() == "edf_periodic_5.uta"
        assert parse_file(str(tmp_path / "edf_periodic_5.uta")) == gen_mine_pump()

    def test_sporadic_preset_needs_burst(self, capsys):
        code, _, err = run(capsys, "gen", "edf", "--preset", "sporadic-periodic",
                           "-o", "-")
        assert code == 2
        assert "--burst" in err

    def test_invalid_task_exits_two(self, capsys):
        code, _, err = run(capsys, "gen", "edf", "--tasks", "3:2",
                           "--release", "flower", "-o", "-")
        assert code == 2
        assert "deadline" in err

    def test_counter_spec(self, capsys, tmp_path):
        path = tmp_path / "ab.uta"
        code, _, _ = run(capsys, "gen", "counter", "--spec", "l0 +1 lt",
                         "--bound", "1", "-o", str(path))
        assert code == 0
        want = gen_counter_reduction(
            CounterAutomaton(("l0", "lt"), "l0", "lt", (("l0", 1, "lt"),), 1))
        assert parse_file(str(path)) == want

    def test_counter_bad_step(self, capsys):
        code, _, err = run(capsys, "gen", "counter", "--spec", "l0 +x lt",
                           "--bound", "1", "-o", "-")
        assert code == 2
        assert "must be an integer" in err

    def test_stdout_output(self, capsys):
        code, out, _ = run(capsys, "gen", "fig1", "-o", "-")
        assert code == 0
        assert parse(out) == gen_fig1()

    def test_random_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "random", "--seed", "9",
                         "--fragment", "ClockBounded", "-o", "-")
        _, out2, _ = run(capsys, "gen", "random", "--seed", "9",
                         "--fragment", "ClockBounded", "-o", "-")
        assert out1 == out2
        with pytest.raises(SystemExit):
            main(["gen", "random", "--fragment", "Bogus", "-o", "-"])

    def test_unguarded_variant_has_own_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "gen", "fig1", "--unguarded")
        assert code == 0
        assert out.strip() == "loop_unguarded.uta"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "uta.cli", "gen", "fig1", "-o", "-"],
            capture_output=True, text=True, timeout=60, env=child_env())
        assert proc.returncode == 0
        assert parse(proc.stdout) == gen_fig1()
