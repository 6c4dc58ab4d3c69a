"""The report dump behind the byte-identity check, on a few profiles."""
import importlib.util
import json
from pathlib import Path

from uta.analysis import compute_gmap, report_json
from uta.benchgen import gen_random
from uta.format import parse, print_network

_PATH = Path(__file__).resolve().parent.parent / "tools" / "dump_reports.py"
_spec = importlib.util.spec_from_file_location("dump_reports", _PATH)
dump_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dump_reports)


def test_one_line_per_component_with_its_report():
    lines = list(dump_reports.dump_lines(3, edf=False))
    assert len(lines) == 3
    for seed, line in enumerate(lines):
        model, component, status, iterations, doc = line.split("\t")
        net = parse(print_network(gen_random(dump_reports.pool_profile(seed))))
        (comp,) = net.components
        gmap = compute_gmap(comp)
        assert model == f"random-{dump_reports.pool_profile(seed).fragment}-{seed}"
        assert (component, status, int(iterations)) == (
            comp.name, gmap.status.value, gmap.iterations)
        assert doc == json.dumps(report_json(comp, gmap))


def test_main_prints_the_lines(capsys):
    assert dump_reports.main(["--profiles", "2", "--no-edf"]) == 0
    want = "".join(line + "\n" for line in dump_reports.dump_lines(2, edf=False))
    assert capsys.readouterr().out == want


def test_edf_rows_follow_the_pool():
    names = [name for name, _ in dump_reports.models(1, edf=True)]
    assert names[0] == "random-SubtractionBounded-0"
    assert names[1:] == [name for name, _ in dump_reports.EDF_ROWS]
    assert {"mine-pump", "sporadic-periodic 5", "worst-case (1,10)^3+(1,4)"} <= set(names)
