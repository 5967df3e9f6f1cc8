"""Tests of the benchmark itself.

    python -m pytest -q perfbench

The smoke runs issue the minimum three passes of every workload (a few
minutes in all).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDED = ("dt", "cell600")
#: failed requests per pass that the known-defect ledger predicts: the
#: t = 1.4142 sweep row and one VEHR/V length descent per solver block
LEDGER_FAILURES = {"dt": 1 + workloads.SOLVE_BLOCKS, "cell600": 0, "reproduce": 0}


def _bench(*args):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    detail = next(json.loads(l)["detail"] for l in lines if l.startswith('{"detail"'))
    return json.loads(lines[-1]), detail


@pytest.fixture(scope="module")
def edge_vertices_600():
    from regge3 import complexes
    return complexes.six_hundred_cell().edge_vertices


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload, edge_vertices_600):
    a = workloads.make_requests(workload, 11, edge_vertices_600)
    b = workloads.make_requests(workload, 11, edge_vertices_600)
    assert json.dumps(a) == json.dumps(b)
    other = workloads.make_requests(workload, 12, edge_vertices_600)
    assert (json.dumps(other) != json.dumps(a)) == (workload in SEEDED)


def test_sweep_grid_keeps_endpoints_and_pinned_points():
    for seed in range(50):
        ts = [r["t"] for r in workloads.make_requests("dt", seed) if r["kind"] == "sweep_row"]
        assert ts[0] == 1.0 and ts[-1] == workloads.T_END and 1.3 in ts
        assert ts == sorted(ts) and max(ts[:-1]) < 1.412


def test_yamabe_starts_are_those_of_the_library(monkeypatch):
    import numpy as np
    from types import SimpleNamespace

    from regge3 import complexes, conformal, solve

    seen = []

    def record(cls, which, f0, **kw):
        seen.append({"kind": "yamabe_start", "functional": which,
                     "background": cls.background.tolist(), "f0": np.asarray(f0).tolist(),
                     "max_iter": kw["max_iter"]})
        return f0, SimpleNamespace(values=[0.0], reason="converged")

    monkeypatch.setattr(solve, "descend_conformal", record)
    dt = complexes.double_tetrahedron()
    reqs = [r for r in workloads.make_requests("dt", 4) if r["kind"] == "yamabe_start"]
    assert len(reqs) == workloads.SOLVE_BLOCKS * workloads.YAMABE_STARTS
    for seed in dict.fromkeys(r["estimate_seed"] for r in reqs):
        bg = next(r["background"] for r in reqs if r["estimate_seed"] == seed)
        seen.clear()
        solve.yamabe_constant_estimate(conformal.ConformalClass(dt, np.array(bg)), "L",
                                       seed=seed)
        ours = [{**{k: v for k, v in r.items() if k != "estimate_seed"},
                 "max_iter": workloads.YAMABE_MAX_ITER}
                for r in reqs if r["estimate_seed"] == seed]
        # the library's starts come first; the same stream then fills the count
        assert len(ours) == workloads.YAMABE_STARTS and seen == ours[:len(seen)]


def test_every_seed_gives_the_same_request_count_and_ledger():
    counts = {(len(reqs), sum(workloads.expected_defect(r) is not None for r in reqs))
              for reqs in (workloads.make_requests("dt", seed) for seed in range(30))}
    assert len(counts) == 1


def test_ledger_marks_the_known_defect_requests():
    marked = [workloads.expected_defect(r) for r in workloads.make_requests("dt", 3)]
    assert marked.count("sweep-stencil-boundary") == 1
    assert marked.count("vehr-volume-descent") == workloads.SOLVE_BLOCKS
    assert all(d["raises"] or d["match"] is None for d in workloads.KNOWN_DEFECTS)


def test_tail_has_ten_samples_of_a_minimum_run_beyond():
    shortest = [float(i) for i in range(run.MIN_PASSES * 20, 0, -1)]
    value, pct, count = run.tail(shortest, 20)
    assert sum(x > value for x in shortest) == run.TAIL_BEYOND and count == len(shortest)
    # twice the passes: same percentile, twice the samples beyond it
    longer = [x / 2 for x in range(1, 2 * len(shortest) + 1)]
    value2, pct2, _ = run.tail(longer, 20)
    assert pct2 == pct and sum(x > value2 for x in longer) == 2 * run.TAIL_BEYOND
    # the 11 criteria of reproduce: p69.7 of a 33-sample run
    assert round(run.tail(list(range(33)), 11)[1], 1) == 69.7


def test_speedometer_leaves_out_its_samples_and_rescales_by_their_speed():
    speed = run.Speedometer()
    k = run.REFERENCE_S
    # one sample before the interval, two inside at half speed, one after
    speed.starts = [0.0, 1.0, 2.0, 3.0]
    speed.ends = [k, 1.0 + 2 * k, 2.0 + 2 * k, 3.0 + k]
    adjusted, raw = speed.seconds(0.5, 2.5)
    assert raw == pytest.approx(2.0 - 4 * k)
    assert adjusted == pytest.approx(raw * (1 + 0.5 + 0.5 + 1) / 4)


def test_speedometer_samples_and_restores_the_handler():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with run.Speedometer() as speed:
        end = perf_counter() + 10 * run.SAMPLE_EVERY_S
        while perf_counter() < end:
            pass
    assert len(speed.starts) >= 5 and signal.getsignal(signal.SIGALRM) is before
    adjusted, raw = speed.seconds(speed.ends[0], speed.starts[-1])
    assert 0 < raw < speed.starts[-1] - speed.ends[0] and adjusted > 0


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])
    e2e = {m["name"]: m for m in BENCH["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == run.END_TO_END
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == tracing.PER_LAYER
    names = list(e2e) + [m["name"] for m in BENCH["per_layer"]] \
        + [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def _layers():
    import importlib
    from types import SimpleNamespace

    return SimpleNamespace(**{layer: importlib.import_module(f"regge3.{layer}")
                              for layer in tracing.LAYERS})


def _bindings(m):
    """A sample of each kind of binding the tracer replaces."""
    return (dict(m.curvature.FUNCTIONALS), m.reproduce.ALL_CRITERIA,
            m.reproduce.double_tetrahedron, m.conformal.ConformalClass.__dict__["apply"],
            m.geometry.cayley_menger)


def test_tracer_wraps_and_restores_every_binding():
    import numpy as np

    from regge3 import complexes, curvature

    mods = _layers()
    before = _bindings(mods)
    local = []

    def lehr(x):
        local.append(1)
        return curvature.lehr_value(dt, x)

    tr = tracing.Tracer().install(mods)
    try:
        during = _bindings(mods)
        dt = complexes.double_tetrahedron()
        curvature.hessian_fd(lehr, np.ones(6), richardson=True)
    finally:
        tr.remove()
    assert all(during[0][k] is not before[0][k] for k in before[0])
    assert all(d is not b for d, b in zip(during[1:], before[1:]))
    assert _bindings(mods) == before
    assert tr.n["curvature.functional_evals"] == len(local) > 0
    assert tr.n["complexes.builds"] == 1 and tr.n["curvature.hessian_calls"] == 1


@pytest.mark.parametrize("fd_jacobian", [True, False])
def test_newton_evaluations_are_told_apart_by_where_they_are(fd_jacobian):
    import numpy as np
    from types import SimpleNamespace

    x0, x1 = np.array([0.3, -0.1, -0.2]), np.array([0.1, 0.0, -0.1])
    half = x0 + 0.5 * (x1 - x0)
    fd = [x0 + s * 1e-5 * e for e in np.eye(3) for s in (1, -1)] if fd_jacobian else []
    tr = tracing.Tracer()
    # start, Jacobian, a rejected full step, then the accepted half step
    tr._close_solver({"key": "solve.solve_csc", "evals": 0,
                      "applies": [x0, *fd, x0 + (x1 - x0), half], "guards": 0},
                     (half, SimpleNamespace(step_sizes=[0.5], iterates=[x0, half],
                                            reason="converged")), None)
    assert tr.n["solve.jacobian_residual_evals"] == len(fd)
    assert tr.n["solve.trials"] == 2 and tr.n["solve.iterations"] == 1
    assert tr.counts()["jacobian_evals"] == ({"n=3 per_jacobian=6": 1} if fd_jacobian else {})


def test_calibration_finds_no_missed_binding():
    from regge3 import complexes, curvature

    mods = _layers()
    problems, stencils = tracing.calibrate(mods, complexes.double_tetrahedron())
    assert problems == [] and set(stencils) == {"hessian_fd_lengths",
                                                "conformal_hessian_fd", "solve_csc"}


def test_calibration_reports_a_missed_binding(monkeypatch):
    from regge3 import complexes, curvature

    mods = _layers()
    install = tracing.Tracer.install

    def install_but_miss_vehr(self, m):
        install(self, m)
        # put the unwrapped VEHR back into curvature.FUNCTIONALS
        for setter, key, old in self._undo:
            if setter == curvature.FUNCTIONALS.__setitem__ and key == "vehr":
                setter(key, old)
        return self

    monkeypatch.setattr(tracing.Tracer, "install", install_but_miss_vehr)
    problems, _ = tracing.calibrate(mods, complexes.double_tetrahedron())
    assert any(p.startswith("hessian_fd_lengths: curvature.vehr_value ran") for p in problems)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload):
    last, detail = _bench("--workload", workload, "--seed", "5", "--seconds", "0",
                          "--trace", "0")
    assert detail["passes"] == run.MIN_PASSES
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == LEDGER_FAILURES[workload] * detail["passes"]
    assert {k: m["unit"] for k, m in last["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert 0 < detail["request_ms_tail_percentile"] < 100


def test_traced_runs_repeat_their_counts():
    runs = [_bench("--workload", "dt", "--seed", "8", "--seconds", "0", "--trace", "1")
            for _ in range(2)]
    for last, detail in runs:
        assert last["correct"] is True and detail["selfcheck_problems"] == []
        assert {k: m["unit"] for k, m in last["metrics"].items()} == \
            {k: u for k, (u, _) in tracing.PER_LAYER.items()}
    assert runs[0][1]["counts"] == runs[1][1]["counts"]
    assert runs[0][1]["counts"]["counters"]["solve.runs"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dt",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and done.stdout == ""
