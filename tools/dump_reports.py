"""Print the analysis report of every benchmark component, one line each.

    PYTHONPATH=src python3 tools/dump_reports.py [--profiles N] [--no-edf]

For each component of the first N gen_random profiles of the
analyze-random pool (default all 200), then of the EDF rows (the a03 desk
rows, mine-pump and the flower rows of the benchmark), one line: model,
component, status, sweep count and ``json.dumps`` of
``analysis.report_json``.  Each model goes through ``format.print_network``
and ``format.parse``, as the benchmark checks it.  Two trees whose dumps
have the same bytes (compare their sha256) give the same statuses,
iterations, sets, witnesses and JSON text on these models.
Standard library and the ``uta`` package only.
"""
import argparse
import json
import sys

from uta import analysis, benchgen, format

POOL = 200
# the pool's generator settings, as in perfbench/workloads.py
RANDOM_SETTINGS = {"n_locs": 10, "n_clocks": 3, "max_const": 12}
WORST_CASE = benchgen.ReleasePattern("worstcase")
MIXED_TASKS = (benchgen.TaskSpec(1, 10),) * 3 + (benchgen.TaskSpec(1, 4),)


def _edf(*tasks: tuple, pattern=benchgen.FLOWER):
    return lambda: benchgen.gen_edf(tuple(benchgen.TaskSpec(*t) for t in tasks),
                                    pattern)


EDF_ROWS = (
    ("sporadic-periodic 5", lambda: benchgen.gen_sporadic_periodic(5)),
    ("sporadic-periodic 20", lambda: benchgen.gen_sporadic_periodic(20)),
    ("flower (1,2)^3", _edf((1, 2), (1, 2), (1, 2))),
    ("worst-case (1,2)^3", _edf((1, 2), (1, 2), (1, 2), pattern=WORST_CASE)),
    ("worst-case (1,10)^3+(1,4)",
     lambda: benchgen.gen_edf(MIXED_TASKS, WORST_CASE)),
    ("mine-pump", benchgen.gen_mine_pump),
    ("flower (1,10)^2+(1,4)", _edf((1, 10), (1, 10), (1, 4))),
    ("flower (1,3)^4", _edf((1, 3), (1, 3), (1, 3), (1, 3))),
    ("flower (1,10)^3+(1,4)", _edf((1, 10), (1, 10), (1, 10), (1, 4))),
)


def pool_profile(seed: int) -> benchgen.RandomProfile:
    """The analyze-random pool's profile of this seed."""
    fragment = benchgen.FRAGMENTS[seed % len(benchgen.FRAGMENTS)]
    return benchgen.RandomProfile(fragment=fragment, seed=seed, **RANDOM_SETTINGS)


def models(profiles: int, edf: bool):
    """(name, network) of each model dumped, in dump order."""
    for seed in range(profiles):
        profile = pool_profile(seed)
        yield (f"random-{profile.fragment}-{seed}",
               lambda profile=profile: benchgen.gen_random(profile))
    if edf:
        yield from EDF_ROWS


def dump_lines(profiles: int = POOL, edf: bool = True):
    """The dump's lines, one per component, without line ends."""
    for name, build in models(profiles, edf):
        net = format.parse(format.print_network(build()), filename=name)
        for comp in net.components:
            gmap = analysis.compute_gmap(comp)
            doc = analysis.report_json(comp, gmap)
            yield (f"{name}\t{comp.name}\t{gmap.status.value}\t{gmap.iterations}\t"
                   + json.dumps(doc))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--profiles", type=int, default=POOL,
                    help=f"pool profiles to dump, from seed 0 (default {POOL})")
    ap.add_argument("--no-edf", dest="edf", action="store_false",
                    help="leave the EDF rows out")
    args = ap.parse_args(argv)
    out = sys.stdout
    for line in dump_lines(args.profiles, args.edf):
        out.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
