"""``tools/digest.py``: two runs of the same code print the same digests, and a change of one
output by one ulp moves its group's digest and no other."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from regge3 import cli, complexes, curvature, solve

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_seeds(digest):
    assert digest.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert digest.parse_seeds("200") == [200]


def test_two_runs_agree_and_one_ulp_moves_its_group(digest, monkeypatch):
    seen = []
    first = digest.digests([1], lambda group, name, sha: seen.append((group, name)))
    assert list(first) == list(digest.GROUPS)
    assert digest.digests([1]) == first
    # every request of the seed's workloads, and the other groups' items
    assert sum(group == "dt" for group, _ in seen) == 88
    assert ("criteria", "criterion-11") in seen and ("yamabe", "class-11:V") in seen
    assert ("cli", "reproduce --all") in seen and ("sweep", "off-csc") in seen

    execute, nudged = digest._execute, []

    def one_ulp(ctx, req):    # the first sweep row's LEHR, one ulp up
        out = execute(ctx, req)
        if req["kind"] == "sweep_row" and not nudged:
            nudged.append(out["lehr"])
            out["lehr"] = float(np.nextafter(out["lehr"], np.inf))
        return out

    monkeypatch.setattr(digest, "_execute", one_ulp)
    moved = digest.digests([1])
    assert nudged and moved["dt"] != first["dt"]
    assert {g: s for g, s in moved.items() if g != "dt"} == \
        {g: s for g, s in first.items() if g != "dt"}


def test_cli_lines_are_the_readme_command_line_block(digest):
    block = (TOOL.parent.parent / "README.md").read_text().split("## Command line")[1]
    block = block.split("```")[1].strip()
    readme = [line.split("#")[0].split()[1:] for line in block.splitlines()]
    assert readme == [line.split() for line in digest.CLI_LINES]


def test_cli_and_sweep_items_see_one_changed_output(digest, monkeypatch):
    dt = complexes.double_tetrahedron()

    def shas(items):
        return {name: digest._digest(obj) for name, obj in items}

    runs = dict(digest._cli_items())
    assert list(runs) == list(digest.CLI_LINES)
    # every README line runs: exit code 0, some output, nothing on stderr
    assert all(code == 0 and out and not err for code, out, err in runs.values())
    cli_first, sweep_first = shas(digest._cli_items()), shas(digest._sweep_items(dt))
    assert list(sweep_first) == [name for name, *_ in digest.SWEEPS]
    assert shas(digest._sweep_items(dt)) == sweep_first

    main, sweep_family = cli.main, solve.sweep_family

    def noisy(argv):    # one more character on find-csc's stderr
        code = main(argv)
        if argv[0] == "find-csc":
            print(end=" ", file=sys.stderr)
        return code

    def one_ulp(c, family, ts, quantities):    # the README sweep's first VEHR, one ulp up
        table = sweep_family(c, family, ts, quantities)
        if len(ts) == 100:
            table.rows[0][2] = float(np.nextafter(table.rows[0][2], np.inf))
        return table

    monkeypatch.setattr(cli, "main", noisy)
    monkeypatch.setattr(solve, "sweep_family", one_ulp)
    cli_moved, sweep_moved = shas(digest._cli_items()), shas(digest._sweep_items(dt))
    assert [name for name in cli_first if cli_moved[name] != cli_first[name]] == \
        [digest.CLI_LINES[6]]
    assert [name for name in sweep_first if sweep_moved[name] != sweep_first[name]] == ["readme"]


def test_report_items_see_one_changed_read(digest, monkeypatch):
    dt, c600 = complexes.double_tetrahedron(), complexes.six_hundred_cell()

    def shas():
        return {name: digest._digest(obj) for name, obj in digest._report_items(dt, c600)}

    first = shas()
    assert list(first) == [f"dt-{i}" for i in range(20)] + ["cell600-0", "cell600-1"]
    assert shas() == first

    csc_jacobian, vehr_calls = curvature.CurvatureReport.csc_jacobian, []

    def one_ulp(rep, which):    # the VEHR csc Jacobian of the third report, one entry one ulp up
        J = csc_jacobian(rep, which)
        if which == "vehr":
            vehr_calls.append(rep)
            if len(vehr_calls) == 3:
                J[0, 1] = np.nextafter(J[0, 1], np.inf)
        return J

    monkeypatch.setattr(curvature.CurvatureReport, "csc_jacobian", one_ulp)
    moved = shas()
    assert [name for name in first if moved[name] != first[name]] == ["dt-2"]
