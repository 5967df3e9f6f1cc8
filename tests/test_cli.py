import argparse
import csv
import itertools
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from regge3 import cli, curvature, solve
from regge3.complexes import double_tetrahedron, format_complex, from_simplicial_tets
from regge3.conformal import ConformalClass


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_regular_metric(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--complex", "dt",
                               "--lengths", "1,1,1,1,1,1")
        assert code == 0
        assert "LEHR = 3.8212664725" in out
        assert "einstein_residual_l" in out

    def test_uniform_shorthand(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--complex", "dt",
                               "--lengths", "uniform:1", "--format", "structured")
        assert code == 0
        assert "lehr: 3.8212664725" in out

    @pytest.mark.parametrize("complex_name, lengths", [("dt", "1,1.1,0.9,1,1.05,0.95"),
                                                       ("cell600", "uniform:1")])
    def test_structured_output_field_by_field(self, capsys, complex_name, lengths):
        code, out, _ = run_cli(capsys, "analyze", "--complex", complex_name,
                               "--lengths", lengths, "--format", "structured")
        c = cli.get_complex(complex_name)
        rep = curvature.functionals(c, cli.parse_lengths(lengths, c.num_edges))
        bounds = rep.bounds()

        def num(x):
            return format(float(x), ".12g")

        expected = [f"{key}: {num(getattr(rep, key))}"
                    for key in ("length", "volume", "ehr", "lehr", "vehr")]
        expected += [f"{key}: [{', '.join(num(x) for x in getattr(rep, key))}]"
                     for key in ("k_edge", "k_vertex", "l_vertex", "v_vertex", "v_edge",
                                 "dual_length")]
        expected += [f"max_edge_degree: {bounds.max_edge_degree}"]
        expected += [f"{key}: {num(getattr(bounds, key))}"
                     for key in ("lehr", "lehr_lower", "lehr_upper", "fatness", "vehr",
                                 "vehr_lower")]
        expected += [f"lehr_within_bounds: {bounds.lehr_within_bounds}",
                     f"vehr_within_bounds: {bounds.vehr_within_bounds}"]
        expected += [f"{kind}_residual_{w.lower()}: "
                     f"{num(np.abs(getattr(rep, kind + '_residual')(w)).max())}"
                     for kind in ("einstein", "csc") for w in "LV"]
        assert code == 0
        assert out == "\n".join(expected) + "\n"

    def test_inadmissible_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--complex", "dt",
                               "--lengths", "1.4143,1,1,1,1,1.4143")
        assert code == 2
        assert "CM3" in err

    @pytest.mark.parametrize("factors", ["1e300,0,0,0", "inf,-inf,0,0"])
    @pytest.mark.parametrize("argv, message", [
        (("analyze", "--conformal"), "conformal point induces an inadmissible metric"),
        (("find-csc", "--start"), "starting point is not admissible")])
    def test_overflowing_factors_exit_2_without_a_warning(self, capsys, argv, message, factors):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, argv[0], "--class", "1,1,1,1,1,1", argv[1], factors)
        assert code == 2
        assert err == f"inadmissible metric: {message}\n"

    def test_cell600(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--complex", "cell600",
                               "--lengths", "uniform:1")
        assert code == 0
        k = 2 * np.pi - 5 * np.arccos(1 / 3)
        assert format(k, ".12g")[:10] in out

    def test_conformal_metric_source(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--complex", "dt",
                               "--class", "uniform:1", "--conformal", "0,0,0,0")
        assert code == 0
        assert "LEHR = 3.8212664725" in out

    def test_conflicting_sources_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--lengths", "uniform:1",
                               "--class", "uniform:1")
        assert code == 1

    def test_missing_metric_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze")
        assert code == 1

    def test_bad_length_count(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--lengths", "1,2,3")
        assert code == 1

    def test_one_report_for_residuals(self, capsys, kernel_calls):
        # the bounds and the four residuals are read from the one report
        code, _, _ = run_cli(capsys, "analyze", "--complex", "cell600",
                             "--lengths", "uniform:1")
        assert code == 0
        assert len(kernel_calls) == 1

    def test_complex_from_file(self, capsys, tmp_path):
        path = tmp_path / "dt.tri"
        path.write_text(format_complex(double_tetrahedron()), encoding="utf-8")
        code, out, _ = run_cli(capsys, "analyze", "--complex", str(path),
                               "--lengths", "uniform:1")
        assert code == 0
        assert "LEHR = 3.8212664725" in out


class TestSpectrum:
    def test_lengths_lehr(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--functional", "lehr",
                               "--space", "lengths", "--lengths", "uniform:1")
        assert code == 0
        assert "reference eigenvalues" in out
        assert "-0.942809041" in out

    def test_lengths_vehr(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--functional", "vehr",
                               "--space", "lengths", "--lengths", "uniform:1")
        assert code == 0
        assert "21.6109769" in out
        assert "34.1452324" in out or "34.1452325" in out

    def test_conformal_analytic(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--functional", "lehr",
                               "--space", "conformal", "--class", "uniform:1",
                               "--conformal", "0,0,0,0")
        assert code == 0
        assert "analytic conformal Hessian" in out
        assert "0.628539361" in out


    def test_conformal_vehr_away_from_csc(self, capsys):
        # VEHR is scale invariant, so the gauge eigenvalue is 0, and the
        # metric's symmetry makes 75.7588 a double eigenvalue; the Richardson
        # Hessian read 0.028 and split the pair by 2e-6 here
        code, out, _ = run_cli(capsys, "spectrum", "--functional", "vehr",
                               "--space", "conformal",
                               "--lengths", "1.4135,1,1,1,1,1.4135")
        assert code == 0
        assert "analytic conformal Hessian of VEHR" in out
        vals = [float(x) for x in out.split("eigenvalues: [")[1].split("]")[0].split(",")]
        assert abs(vals[0]) < 1e-6
        assert vals[1] == pytest.approx(75.7588, abs=1e-4)
        assert abs(vals[2] - vals[1]) < 1e-9 * vals[1]

    def test_vehr_lengths_next_to_the_flat_square(self, capsys):
        # the Richardson stencil crossed sqrt 2 here and the command exited 2; the exact
        # Hessian needs the metric alone
        code, out, err = run_cli(capsys, "spectrum", "--functional", "vehr", "--space",
                                 "lengths", "--lengths", "1.413,1,1,1,1,1.413")
        assert (code, err) == (0, "")
        assert out.startswith("analytic length Hessian of VEHR\n")
        vals = out.split("eigenvalues: [")[1].split("]")[0].split(",")
        assert len(vals) == 6 and all(np.isfinite(float(x)) for x in vals)


class TestSweep:
    def test_delimited_output(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "diag",
                               "--t", "1:1.41:5", "--quantities", "vehr,ehr",
                               "--format", "delimited")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,admissible,vehr,ehr"
        assert len(lines) == 6

    def test_ehr_approaches_8pi(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "diag",
                               "--t", "1:1.4142:100", "--quantities", "ehr",
                               "--format", "delimited")
        assert code == 0
        last = out.strip().split("\n")[-1].split(",")
        assert abs(float(last[-1]) - 8 * np.pi) < 0.02

    def test_byte_identical_reruns(self, capsys):
        args = ("sweep", "--family", "diag", "--t", "1:1.4:7",
                "--quantities", "lehr,vehr", "--format", "delimited")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_bad_range_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--family", "diag", "--t", "oops")
        assert code == 1

    @pytest.mark.parametrize("t", ["1:1.2:0", "1:nan:3", "1:1.2:-3", "inf:1.2:3"])
    def test_empty_or_non_finite_range_usage_error(self, capsys, t):
        # no header-only table, and no NaN rows reported as inadmissible metrics
        code, out, err = run_cli(capsys, "sweep", "--family", "diag", "--t", t)
        assert (code, out) == (1, "")
        assert err.startswith("usage error") and repr(t) in err

    def test_unknown_quantity_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--family", "diag",
                               "--t", "1:1.2:3", "--quantities", "bogus")
        assert code == 1

    @pytest.mark.parametrize("quantities, code", [("vehr,lehr_spec_1", 2), ("bogus", 1)])
    def test_stencil_past_the_boundary_is_not_a_usage_error(self, capsys, quantities, code):
        # every row is admissible, but the Hessian stencil at t = 1.4142
        # leaves the admissible set
        got, _, err = run_cli(capsys, "sweep", "--family", "diag",
                              "--t", "1.41:1.4142:2", "--quantities", quantities)
        assert got == code
        assert err.startswith("inadmissible metric" if code == 2 else "usage error")


class TestSolverCommands:
    def test_find_csc_second_point(self, capsys):
        code, out, _ = run_cli(capsys, "find-csc", "--class", "uniform:1",
                               "--which", "L", "--start", "-1,-1,0,0")
        assert code == 0
        assert "reason: converged" in out
        f = [float(x) for x in out.split("factors: [")[1].split("]")[0].split(",")]
        f = np.asarray(f)
        ref = np.array([-1.233, -1.233, 0.0, 0.0])
        assert np.abs((f - f.mean()) - (ref - ref.mean())).max() < 1e-3

    def test_find_einstein_vehr(self, capsys):
        code, out, _ = run_cli(capsys, "find-einstein", "--which", "V",
                               "--lengths", "1.005,0.995,1,1.002,0.998,1")
        assert code == 0
        assert "einstein_residual" in out

    def test_yamabe_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "yamabe", "--class", "uniform:1",
                               "--which", "L", "--starts", "4", "--seed", "7")
        assert code == 0
        value = float(out.split("value: ")[1].split("\n")[0])
        assert 0.0 <= value <= 2 * np.pi
        assert "upper bound" in out
        totals = dict(item.split(": ") for item in
                      out.split("\n")[4].split("  "))
        assert 0 < int(totals["newton_steps"]) <= int(totals["iterations"])

    def test_yamabe_trace(self, capsys):
        argv = ("yamabe", "--class", "uniform:1", "--which", "L", "--starts", "4", "--seed", "7")
        _, plain, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--trace")
        # the output without --trace, then one line per start
        assert code == 0 and out.startswith(plain)
        lines = out[len(plain):].splitlines()
        assert lines[0] == "trace:" and [line.split()[:2] for line in lines[1:]] == [
            ["start", f"{i}:"] for i in range(4)]
        starts = [dict(zip(line.split()[2::2], map(int, line.split()[3::2])))
                  for line in lines[1:]]
        est = solve.yamabe_constant_estimate(
            ConformalClass(double_tetrahedron(), np.ones(6)), "L", starts=4, seed=7)
        assert sum(s["steps"] for s in starts) == est.iterations
        assert sum(s["newton_steps"] for s in starts) == est.newton_steps
        assert all(s["points"] >= s["steps"] + 1 + s["rejected"] for s in starts)

    def test_boundary_hit_exit_code(self, capsys):
        # descent on the length-normalized functional runs to the boundary
        code, out, _ = run_cli(capsys, "find-einstein", "--which", "L",
                               "--lengths", "1.3,0.9,1.1,0.8,1.2,0.7")
        assert code == 3
        assert "reason: boundary-hit" in out

    def test_find_csc_converges_where_full_newton_steps_diverged(self, capsys):
        code, out, _ = run_cli(
            capsys, "find-csc", "--which", "L",
            "--class", "1.072461827158977,1.1492733544463127,0.9346799220373565,"
                       "0.9759565091333174,0.9788181226006222,0.9012814834407132",
            "--start", "-0.15615578932386398,0.4044383082279229,"
                       "0.3206851917778312,-0.5689677106818902")
        assert code == 0
        assert "reason: converged" in out

    def test_find_csc_stall_is_not_success(self, capsys, monkeypatch):
        solve_csc = solve.solve_csc

        def stalled(*args, **kwargs):
            f, trace = solve_csc(*args, **kwargs)
            trace.reason = "stall"
            return f, trace

        monkeypatch.setattr(solve, "solve_csc", stalled)
        code, out, _ = run_cli(capsys, "find-csc", "--class", "uniform:1", "--which", "L")
        assert "reason: stall" in out
        assert code == 4

    def test_find_csc_singular_system_exit_code(self, capsys, monkeypatch):
        def singular(gufunc, K, rhs):    # solve_csc's bordered system, through LAPACK
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(solve, "_lapack", singular)
        code, out, _ = run_cli(capsys, "find-csc", "--class", "uniform:1", "--which", "L",
                               "--start", "-1,-1,0,0")
        assert "reason: singular-jacobian" in out and "iterations: 1" in out
        assert code == 4

    def test_find_csc_exhausted_ladder_exit_code(self, capsys):
        # the start of tests/test_solve.py TestSolveCsc.EXHAUSTED
        code, out, _ = run_cli(
            capsys, "find-csc", "--which", "L",
            "--class", "0.7475161463583486,0.7740964026424981,0.7671788928091389,"
                       "0.7364361890438107,0.7387347391031329,0.952083333716778",
            "--start", "-0.6311913486016025,-0.644504492967561,-1.449885374481114,"
                       "1.2006942996321848")
        assert "reason: boundary-hit" in out
        assert code == 3

    def test_find_csc_zero_newton_step_stalls(self, capsys):
        # at a tolerance below the start's residual of 8.9e-16 the Newton step is zero: a
        # stall, not a singular Jacobian
        code, out, _ = run_cli(capsys, "find-csc", "--class", "uniform:1", "--tol", "1e-300")
        assert "reason: stall" in out and "iterations: 1" in out
        assert code == 4

    def test_find_csc_at_a_csc_start_with_no_iterations_is_success(self, capsys):
        code, out, _ = run_cli(capsys, "find-csc", "--class", "1,1,1,1,1,1", "--max-iters", "0")
        assert "reason: converged" in out and "iterations: 1" in out
        assert code == 0

    def test_find_einstein_stall_is_success(self, capsys, monkeypatch):
        # a descent stalls at the roundoff floor of its objective
        descend_lengths = solve.descend_lengths

        def stalled(*args, **kwargs):
            lengths, trace = descend_lengths(*args, **kwargs)
            trace.reason = "stall"
            return lengths, trace

        monkeypatch.setattr(solve, "descend_lengths", stalled)
        code, out, _ = run_cli(capsys, "find-einstein", "--which", "V",
                               "--lengths", "1.005,0.995,1,1.002,0.998,1")
        assert "reason: stall" in out
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("find-einstein", "--which", "L", "--lengths", "1.3,0.9,1.1,0.8,1.2,0.7"),
        ("find-csc", "--class", "uniform:1", "--which", "L", "--start", "-1,-1,0,0"),
    ])
    def test_trace_prints_the_point_counts(self, capsys, monkeypatch, argv):
        traces = []
        solver = solve.descend_lengths if argv[0] == "find-einstein" else solve.solve_csc

        def recorded(*args, **kwargs):
            out = solver(*args, **kwargs)
            traces.append(out[1])
            return out

        monkeypatch.setattr(solve, solver.__name__, recorded)
        _, out, _ = run_cli(capsys, *argv, "--trace")
        trace, = traces
        assert trace.points > len(trace.step_sizes)
        assert f"trace:\n  points: {trace.points}  rejected: {trace.rejected}\n" in out
        # each iterate's line ends with its value: the objective of a descent, the merit
        # |r|^2 / 2 of the csc Newton iteration
        lines = out.split("trace:\n")[1].splitlines()[1:]
        assert len(lines) == len(trace.values) == len(trace.residual_norms)
        for line, value in zip(lines, trace.values):
            assert line.endswith(f"  value {cli._fmt(value)}")

    def test_max_iters_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "find-csc", "--class", "uniform:1",
                               "--which", "L", "--start", "0.3,-0.2,0.1,0",
                               "--max-iters", "1")
        assert code == 4
        assert "reason: max-iters" in out

    @pytest.mark.parametrize("argv", [
        ("find-csc", "--class", "1,1.1,0.9,1,1.05,0.95", "--max-iters", "-1"),
        ("find-csc", "--class", "1,1.1,0.9,1,1.05,0.95", "--max-iters", "0"),
        ("find-einstein", "--lengths", "1.3,0.9,1.1,0.8,1.2,0.7", "--max-iters", "-3"),
    ])
    def test_a_budget_below_one_takes_no_step(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert "reason: max-iters\niterations: 1\n" in out
        assert code == 4


class TestReproduce:
    def test_filter_tstar(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--only", "tstar")
        assert code == 0
        assert "[pass] 3a" in out
        assert "[pass] 3b" in out

    def test_filter_cell600(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--only", "cell600")
        assert code == 0
        assert "600-cell counts" in out

    def test_filter_key_matches_keys_only(self, capsys):
        # "6" is a key, not a substring of the tag "cell600"
        code, out, _ = run_cli(capsys, "reproduce", "--only", "6")
        assert code == 0
        assert all(f"] 6{x} " in out for x in "abc")
        assert "] 10" not in out
        assert "3/3 criteria passed" in out

    def test_unmatched_filter_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "--only", "zzz-nothing")
        assert code == 1

    def test_delimited_format(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--only", "unbounded",
                               "--format", "delimited")
        assert code == 0
        assert out.startswith("key,tag,description,expected,actual,tolerance,status")

    @pytest.mark.parametrize("only, keys", [("8", "abcdefg"), ("10", "abcd")])
    def test_delimited_rows_parse_to_the_header(self, capsys, only, keys):
        # rows 8g, 10a and 10b hold commas in their values or descriptions
        code, out, _ = run_cli(capsys, "reproduce", "--only", only, "--format", "delimited")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert [len(r) for r in rows] == [7] * (len(keys) + 1)
        assert [r[0] for r in rows[1:]] == [only + k for k in keys]
        cells = {r[0]: r for r in rows}
        if only == "8":
            assert cells["8g"][4].startswith("[") and cells["8g"][4].endswith("]")
        else:
            assert cells["10a"][2] == "600-cell counts (V,E,F,T)"
            assert cells["10a"][4] == "(120, 720, 1200, 600)"


def boundary_of_4_simplex():
    return from_simplicial_tets(5, itertools.combinations(range(5), 4))


class TestSimplexBoundary:
    """The CLI on a complex read from a file: the boundary of the 4-simplex."""

    CLASS = "1,1.1,0.9,1,1.05,0.95,1,1,1.02,0.98"

    @pytest.fixture(scope="class")
    def complex_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("complexes") / "simplex_boundary.tri"
        path.write_text(format_complex(boundary_of_4_simplex()), encoding="utf-8")
        return str(path)

    def test_analyze(self, capsys, complex_file):
        code, out, _ = run_cli(capsys, "analyze", "--complex", complex_file,
                               "--lengths", "uniform:1")
        assert code == 0
        assert "(V,E,F,T) = (5, 10, 10, 5)" in out
        # every edge lies in three regular tets
        k = 2 * np.pi - 3 * np.arccos(1 / 3)
        assert f"LEHR = {format(k, '.12g')}" in out
        assert "csc_residual_l = 0" in out

    def test_uniform_conformal_lehr_spectrum(self, capsys, complex_file):
        code, out, _ = run_cli(capsys, "spectrum", "--complex", complex_file,
                               "--space", "conformal", "--class", "uniform:1")
        assert code == 0
        vals = [float(x) for x in out.split("eigenvalues: [")[1].split("]")[0].split(",")]
        c = boundary_of_4_simplex()
        lengths = np.ones(c.num_edges)
        formula = 4 * (-2 * curvature.laplacian_matrix(c, lengths)
                       + curvature.normal_matrix(c, lengths)) / lengths.sum()
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(formula), rtol=0, atol=1e-10)
        assert vals[1] == pytest.approx(1 / np.sqrt(2), abs=1e-10)

    @pytest.mark.parametrize("which", ["L", "V"])
    def test_find_csc(self, capsys, complex_file, which):
        code, out, _ = run_cli(capsys, "find-csc", "--complex", complex_file,
                               "--which", which, "--class", self.CLASS)
        assert code == 0
        assert "reason: converged" in out
        assert int(out.split("iterations: ")[1].split("\n")[0]) <= 8
        assert float(out.split("residual: ")[1].split("\n")[0]) < 1e-12


#: each subcommand's option strings, -h aside: exactly those its command reads
OPTIONS = {
    "analyze": {"--complex", "--lengths", "--class", "--conformal", "--format"},
    "spectrum": {"--complex", "--lengths", "--class", "--conformal", "--format",
                 "--functional", "--space", "--vectors"},
    "sweep": {"--complex", "--format", "--family", "--t", "--quantities"},
    "find-csc": {"--complex", "--class", "--which", "--start", "--tol", "--max-iters",
                 "--trace"},
    "find-einstein": {"--complex", "--lengths", "--class", "--which", "--max-iters",
                      "--trace"},
    "yamabe": {"--complex", "--class", "--which", "--starts", "--seed", "--trace"},
    "reproduce": {"--all", "--only", "--format"},
}


def subparsers():
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


README = Path(__file__).resolve().parents[1] / "README.md"
#: the ``regge3 ...`` lines of README's "Command line" block, without trailing comments
README_COMMANDS = [shlex.split(line, comments=True)[1:] for line in
                   README.read_text().split("## Command line", 1)[1].split("```")[1].splitlines()
                   if line.startswith("regge3 ")]


class TestOptionSurface:
    def test_each_subcommand_declares_the_options_it_reads(self):
        got = {name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
               for name, sp in subparsers().items()}
        assert got == OPTIONS
        assert sum(map(len, got.values())) == 40

    @pytest.mark.parametrize("argv", [
        ("sweep", "--t", "1:1.1:2", "--lengths", "1,1,1,1,1,1"),
        ("sweep", "--t", "1:1.1:2", "--class", "1,1,1,1,1,1"),
        ("find-csc", "--class", "uniform:1", "--lengths", "9,9,9"),
        ("find-csc", "--class", "uniform:1", "--format", "delimited"),
        ("find-einstein", "--lengths", "1.01,0.99,1,1,1,1", "--max-iters", "5",
         "--format", "structured"),
        ("yamabe", "--class", "uniform:1", "--starts", "1", "--lengths", "9"),
        ("yamabe", "--class", "uniform:1", "--starts", "1", "--format", "delimited"),
        ("reproduce", "--all", "--only", "6"),
    ])
    def test_an_option_its_command_does_not_read_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ")

    @pytest.mark.parametrize("argv", [
        ("analyze", "--lengths", "uniform:1", "--format", "delimited"),
        ("spectrum", "--lengths", "uniform:1", "--format", "delimited"),
        ("sweep", "--t", "1:1.1:2", "--format", "structured"),
    ])
    def test_a_format_that_printed_another_ones_output_is_a_usage_error(self, capsys, argv):
        # analyze and spectrum printed delimited as structured, sweep structured as human
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error: argument --format: invalid choice")

    @pytest.mark.parametrize("command, formats", [
        ("analyze", ("human", "structured")), ("spectrum", ("human", "structured")),
        ("sweep", ("human", "delimited")), ("reproduce", ("human", "delimited"))])
    def test_each_format_prints_its_own_output(self, capsys, command, formats):
        argv = {"analyze": ("--lengths", "uniform:1"), "spectrum": ("--lengths", "uniform:1"),
                "sweep": ("--t", "1:1.1:2"), "reproduce": ("--only", "1a")}[command]
        outputs = [run_cli(capsys, command, *argv, "--format", f)[1] for f in formats]
        assert [a.choices for a in subparsers()[command]._actions
                if "--format" in a.option_strings] == [formats]
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize("command", ["find-csc", "yamabe"])
    def test_class_is_required(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--which", "L")
        assert code == 1 and out == ""
        assert err == "usage error: the following arguments are required: --class\n"

    @pytest.mark.parametrize("argv", [
        ("find-csc", "--class", "1,1,1,1,1,1", "--tol", "-1"),
        ("find-csc", "--class", "1,1,1,1,1,1", "--tol", "0"),
        ("find-csc", "--class", "1,1,1,1,1,1", "--tol", "nan"),
        ("find-csc", "--class", "1,1,1,1,1,1", "--tol", "inf"),
        ("yamabe", "--class", "uniform:1", "--starts", "0"),
        ("yamabe", "--class", "uniform:1", "--starts", "-2"),
    ])
    def test_meaningless_tolerance_or_start_count_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"usage error: argument {argv[-2]}: invalid positive finite ")

    def test_readme_documents_every_subcommand(self):
        assert {argv[0] for argv in README_COMMANDS} == set(OPTIONS)

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_readme_command_line_runs(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out and err == ""


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_usage_error_on_bad_uniform(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--lengths", "uniform:abc")
        assert code == 1
