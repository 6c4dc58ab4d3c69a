"""Command line front end.

``uta analyze`` runs the per-component constraint analysis, ``uta reach``
runs it and then the pruned zone search; both share one front half
(`_front`) and return only their verdict.  ``uta gen`` writes benchmark
models in the text format.  Failures are raised, and `main` alone reports
them.  Exit codes: 0 for Unreachable or Converged, 1 for Reachable, 2 for
any error, timeout, non-convergence, running out of memory, or internal
error (reported with its traceback).
"""
import argparse
import json
import sys
import time
from typing import Callable, Optional, Sequence

from .analysis import Status, compute_gmap, report_json
from .benchgen import (
    FRAGMENTS,
    CounterAutomaton,
    RandomProfile,
    ReleasePattern,
    TaskSpec,
    gen_counter_reduction,
    gen_edf,
    gen_fig1,
    gen_fig1_unguarded,
    gen_mine_pump,
    gen_random,
    gen_sporadic_periodic,
    sporadic_periodic,
)
from .format import ParseErrors, parse_file, print_network
from .model import Network, validate_network
from .search import REACHABLE, UNREACHABLE, reach, refuse_pruning

EXIT_NEGATIVE = 0
EXIT_POSITIVE = 1
EXIT_ERROR = 2

DEFAULT_TIMEOUT = 1200.0


def _seconds(text: str) -> float:
    """A time bound: a number of seconds greater than 0, inf included."""
    try:
        if (seconds := float(text)) > 0:  # false for NaN
            return seconds
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected seconds greater than 0, got {text!r}")


def _front(args) -> tuple[Network, Callable[[str], None], float]:
    """Parse args.input, warn about what validation finds and echo the model
    under --dump-model.  Returns the network, the print for the result
    (under --dump-model it comments out every line, so the output parses
    back) and the time args.timeout counts from, which starts the static
    analysis."""
    args.phase = "parse"
    net = parse_file(args.input)
    for message in validate_network(net):
        print(f"warning: {message}", file=sys.stderr)
    say = print
    if args.dump_model:
        sys.stdout.write(print_network(net))
        say = lambda text: print("# " + text.replace("\n", "\n# "))
    args.phase = "static analysis"
    return net, say, time.monotonic()


def _print_witness(doc: dict, indent: str, say: Callable[[str], None]) -> None:
    for step in doc.get("witness", ()):
        via = "" if step["edge"] is None else f"  (edge {step['edge']})"
        say(f"{indent}{step['location']}: {step['constraint']}{via}")
    if "cycle" in doc:
        lo, hi = doc["cycle"]
        say(f"{indent}positive cycle: steps {lo}..{hi}")


def cmd_analyze(args) -> int:
    net, say, t0 = _front(args)
    gmaps = [compute_gmap(comp, deadline=t0 + args.timeout) for comp in net.components]
    reports = [report_json(comp, g) for comp, g in zip(net.components, gmaps)]
    all_converged = all(g.status is Status.CONVERGED for g in gmaps)
    seconds = time.monotonic() - t0
    if args.out_format == "json":
        say(json.dumps(
            {"model": net.name, "seconds": round(seconds, 4), "components": reports},
            indent=2))
    else:
        for doc in reports:
            b = doc["bounds"]
            say(f"{doc['component']}: {doc['status']} after {doc['iterations']} "
                f"iterations (M={b['M']} L={b['L']} N={b['N']} budget={b['budget']})")
            for loc in sorted(doc["location"]):
                atoms = ", ".join(sorted(doc["location"][loc]))
                say(f"  {loc}: {atoms if atoms else '(empty)'}")
            if doc["status"] == "diverged":
                if args.explain_divergence:
                    say("  divergence witness:")
                    _print_witness(doc, "    ", say)
                else:
                    say("  (rerun with --explain-divergence for the witness)")
        say(f"analysis time: {seconds:.2f}s")
    return EXIT_NEGATIVE if all_converged else EXIT_ERROR


def cmd_reach(args) -> int:
    net, say, t0 = _front(args)
    gmaps = None
    analysis_seconds = 0.0
    if not args.no_simulation:
        refuse_pruning(net)  # needs the model alone, so before the analysis
        t_analysis = time.monotonic()
        gmaps = [compute_gmap(comp, deadline=t0 + args.timeout)
                 for comp in net.components]
        analysis_seconds = time.monotonic() - t_analysis
    remaining = args.timeout - (time.monotonic() - t0)
    if remaining <= 0:
        raise TimeoutError
    args.phase = "search"
    stats = reach(net, gmaps, args.target, timeout=remaining)
    total = time.monotonic() - t0
    if args.out_format == "json":
        doc = {"model": net.name, "target": args.target}
        doc.update(stats.to_json(net))
        doc["analysis_seconds"] = round(analysis_seconds, 4)
        doc["total_seconds"] = round(total, 4)
        say(json.dumps(doc, indent=2))
    else:
        say(f"{net.name}: {args.target} {stats.verdict} "
            f"nodes={stats.nodes} time={total:.2f}s")
    if stats.verdict not in (REACHABLE, UNREACHABLE):
        raise TimeoutError
    return EXIT_POSITIVE if stats.verdict == REACHABLE else EXIT_NEGATIVE


def _parse_tasks(text: str) -> tuple[TaskSpec, ...]:
    tasks = []
    for part in text.split(","):
        fields = part.strip().split(":")
        if len(fields) not in (2, 3):
            raise ValueError(f"task {part.strip()!r}: expected c:d or c:d:p")
        try:
            nums = [int(f) for f in fields]
        except ValueError:
            raise ValueError(f"task {part.strip()!r}: fields must be integers")
        tasks.append(TaskSpec(*nums))
    return tuple(tasks)


def _parse_counter_spec(text: str) -> tuple[tuple[str, int, str], ...]:
    transitions = []
    for part in text.replace(";", ",").split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split()
        if len(fields) != 3:
            raise ValueError(f"transition {part!r}: expected 'src p dst'")
        src, step, dst = fields
        try:
            p = int(step)
        except ValueError:
            raise ValueError(f"transition {part!r}: step {step!r} must be an integer")
        transitions.append((src, p, dst))
    if not transitions:
        raise ValueError("counter spec has no transitions")
    return tuple(transitions)


def _release_pattern(name: str, burst: Optional[int]) -> ReleasePattern:
    if name == "sporadic-periodic":
        if burst is None:
            raise ValueError("sporadic-periodic release needs --burst")
        return sporadic_periodic(burst)
    if burst is not None:
        raise ValueError("--burst only applies to the sporadic-periodic release")
    return ReleasePattern(name)


def _build_gen(args) -> Network:
    if args.family == "edf":
        if args.preset is not None:
            if args.tasks or args.release:
                raise ValueError("--preset replaces --tasks/--release")
            if args.preset == "mine-pump":
                if args.burst is not None:
                    raise ValueError("mine-pump takes no --burst")
                return gen_mine_pump()
            if args.burst is None:
                raise ValueError("the sporadic-periodic preset needs --burst")
            return gen_sporadic_periodic(args.burst)
        if not args.tasks or not args.release:
            raise ValueError("need --tasks and --release (or --preset)")
        return gen_edf(_parse_tasks(args.tasks),
                       _release_pattern(args.release, args.burst))
    if args.family == "counter":
        transitions = _parse_counter_spec(args.spec)
        states: list[str] = []
        for src, _, dst in transitions:
            for s in (src, dst):
                if s not in states:
                    states.append(s)
        initial = args.initial if args.initial else transitions[0][0]
        target = args.target if args.target else transitions[-1][2]
        box = CounterAutomaton(tuple(states), initial, target, transitions,
                               args.bound)
        return gen_counter_reduction(box)
    if args.family == "fig1":
        return gen_fig1_unguarded() if args.unguarded else gen_fig1()
    return gen_random(RandomProfile(
        n_locs=args.locs, n_clocks=args.clocks, fragment=args.fragment,
        max_const=args.max_const, seed=args.seed))


def cmd_gen(args) -> int:
    args.phase = "generation"
    net = _build_gen(args)
    text = print_network(net)
    if args.output == "-":
        sys.stdout.write(text)
        return EXIT_NEGATIVE
    path = args.output or f"{net.name}.uta"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(path)
    return EXIT_NEGATIVE


def _add_common(p, with_target: bool) -> None:
    p.add_argument("input", help="model file in the uta text format")
    if with_target:
        p.add_argument("--target", required=True,
                       help="location name, bare or as process.location")
    p.add_argument("--format", dest="out_format", choices=("text", "json"),
                   default="text")
    p.add_argument("--dump-model", action="store_true",
                   help="echo the parsed model before the result, which then "
                        "follows as # comment lines, so the output parses back")
    p.add_argument("--timeout", type=_seconds, default=DEFAULT_TIMEOUT,
                   help=f"seconds, greater than 0; default {DEFAULT_TIMEOUT:.0f}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="uta",
        description="Reachability and constraint analysis for timed automata "
                    "with clock updates.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("analyze", help="per-component constraint analysis")
    _add_common(pa, with_target=False)
    pa.add_argument("--explain-divergence", action="store_true",
                    help="print the propagation witness for diverged components")

    pr = sub.add_parser("reach", help="zone-graph reachability")
    _add_common(pr, with_target=True)
    pr.add_argument("--no-simulation", action="store_true",
                    help="disable simulation pruning (exact-duplicate dedup only)")

    pg = sub.add_parser("gen", help="write benchmark models")
    gsub = pg.add_subparsers(dest="family", required=True)
    ge = gsub.add_parser("edf", help="schedulability network")
    ge.add_argument("--tasks", help="comma list of c:d or c:d:p")
    ge.add_argument("--release",
                    choices=("flower", "worstcase", "periodic",
                             "sporadic-periodic"))
    ge.add_argument("--burst", type=int, default=None,
                    help="sporadic burst length N")
    ge.add_argument("--preset", choices=("mine-pump", "sporadic-periodic"))
    gc = gsub.add_parser("counter", help="two-clock counter reduction")
    gc.add_argument("--spec", required=True,
                    help="transitions 'src p dst', comma separated")
    gc.add_argument("--bound", type=int, required=True)
    gc.add_argument("--initial", default=None)
    gc.add_argument("--target", default=None)
    gf = gsub.add_parser("fig1", help="the two-clock loop example")
    gf.add_argument("--unguarded", action="store_true")
    gr = gsub.add_parser("random", help="seeded random component")
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--fragment", choices=FRAGMENTS, default="General")
    gr.add_argument("--locs", type=int, default=4)
    gr.add_argument("--clocks", type=int, default=2)
    gr.add_argument("--max-const", type=int, default=4)
    for p in (ge, gc, gf, gr):
        p.add_argument("-o", "--output", default=None,
                       help="output path, '-' for stdout (default <name>.uta)")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command: the one place that reports a failure and exits 2.
    Each command names its phase in args.phase as it enters it."""
    args = build_parser().parse_args(argv)
    handler = {"analyze": cmd_analyze, "reach": cmd_reach, "gen": cmd_gen}
    try:
        return handler[args.cmd](args)
    except ParseErrors as exc:
        lines = [f"error: {e}" for e in exc.errors]
    except TimeoutError:  # before OSError, its base class
        lines = [f"error: timeout after {args.timeout:g}s ({args.phase})"]
    except (OSError, ValueError, OverflowError) as exc:
        lines = [f"error: {exc}"]
    except MemoryError:
        lines = []  # reported below, once the failed phase's frames are freed
    except Exception:
        sys.excepthook(*sys.exc_info())
        lines = [f"error: internal error during {args.phase}"]
    for line in lines or [f"error: out of memory during {args.phase}"]:
        print(line, file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
