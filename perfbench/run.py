"""regge3 benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload dt --seed 1 --seconds 25 --trace 0

One client issues the requests of a workload one after another in a
single process and thread (a closed loop).  The fixed request list of a
pass is generated from the seed; passes, each after a few fresh set-ups,
repeat while another one fits in ``--seconds``, at least MIN_PASSES
times.  Every request is checked for correctness outside its timed
interval.  Times are reported at a fixed machine speed, measured by a
reference kernel sampled all through the run (see ``Speedometer``); the
raw times are in the detail line.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced pass, measured
by wrappers installed from this directory (see ``tracing.py``).  The lines
before it carry the run's metadata and details as JSON.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import NamedTuple

# one thread, like the single client: a second BLAS thread on a small
# shared machine measures the scheduler, and the matrices here (6x6 to
# 120x120) are too small to gain from it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-ups before every pass, so that they sample the same moments of a
# shared machine as the requests; setup_s is their median
SETUPS_PER_PASS = 3
TAIL_BEYOND = 10    # samples beyond the reported tail latency in a run of MIN_PASSES passes
# passes per run at least, whatever --seconds allows, so that even the
# slowest workload has three samples of every request
MIN_PASSES = 3
# The machine's speed swings by up to 1.7x within seconds (a fixed
# single-threaded kernel on a 2-vCPU Intel Xeon VM; CPU time moves with wall
# time), so raw times of the same code spread by 0.2-0.4 of their median
# between runs.  A Speedometer samples a fixed reference kernel every
# SAMPLE_EVERY_S, and every timed interval is reported rescaled to the speed
# at which that kernel takes REFERENCE_S (its median time on that VM).
SAMPLE_EVERY_S = 0.02
REFERENCE_ROUNDS = 30
REFERENCE_S = 0.0005
_REFERENCE_MATRIX = np.random.default_rng(0).normal(size=(12, 12))

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_ms_p50": "ms",
    "request_ms_tail": "ms",
    "pass_frac": "frac",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def reference_kernel() -> float:
    """Small numpy calls and Python loops, the mix the program's requests are made of."""
    total = 0.0
    for i in range(REFERENCE_ROUNDS):
        b = _REFERENCE_MATRIX + i * 1e-3
        total += float(np.linalg.det(b)) + sum(float(x) for x in b[0]) + float((b @ b).trace())
    return total


class Speedometer:
    """Samples how fast the machine runs every SAMPLE_EVERY_S of wall time.

    A SIGALRM handler runs the reference kernel in the main thread, between
    two bytecodes of whatever runs there, and records when it started and
    ended.  Use as a context manager around everything that is timed.
    """

    def __init__(self):
        self.starts, self.ends = [], []
        self._sampling = False

    def _sample(self, signum, frame):
        if self._sampling:      # a sample stalled past the next tick: skip that tick
            return
        self._sampling = True
        t0 = perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.ends.append(perf_counter())
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, t0, t1):
        """(adjusted, raw) seconds of the interval from t0 to t1.

        raw leaves out the samples taken inside the interval; adjusted
        rescales raw by the mean speed of those samples and of the last one
        before and the first one after it.  Call it once the next sample is
        taken.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        raw = t1 - t0 - sum(self.ends[k] - self.starts[k] for k in range(lo, hi))
        near = range(max(lo - 1, 0), min(hi + 1, len(self.starts)))
        speed = statistics.fmean(REFERENCE_S / (self.ends[k] - self.starts[k]) for k in near)
        return raw * speed, raw


def setup():
    """Import regge3 afresh, build both complexes and warm their caches.

    Returns ((start, end), Context).  numpy is imported already, so only
    regge3's own import is timed.
    """
    for name in [n for n in sys.modules if n == "regge3" or n.startswith("regge3.")]:
        del sys.modules[name]
    t0 = perf_counter()
    importlib.import_module("regge3")
    mods = SimpleNamespace(**{layer: importlib.import_module(f"regge3.{layer}")
                              for layer in tracing.LAYERS})
    ctx = build_context(mods)
    return (t0, perf_counter()), ctx


def build_context(mods):
    dt = mods.complexes.double_tetrahedron()
    c600 = mods.complexes.six_hundred_cell()
    for c in (dt, c600):
        # one call that fills the cached incidence arrays
        mods.curvature.bounds_report(c, np.ones(c.num_edges))
    return workloads.Context(mods, dt, c600)


class Pass(NamedTuple):
    spans: list         # (start, end) of each request
    failures: dict      # request index -> exception or check name


def run_pass(ctx, requests, tracer=None) -> Pass:
    """Issue every request once."""
    spans, failures = [], {}
    for i, req in enumerate(requests):
        t0 = perf_counter()
        try:
            out = workloads.execute(ctx, req)
        except Exception as exc:  # a failed request is data, not a crash
            spans.append((t0, perf_counter()))
            failures[i] = type(exc).__name__
            continue
        spans.append((t0, perf_counter()))
        if tracer is not None:
            tracer.paused = True
        try:
            name = workloads.check(ctx, req, out)
        except Exception as exc:
            name = f"check-raised-{type(exc).__name__}"
        finally:
            if tracer is not None:
                tracer.paused = False
        if name is not None:
            failures[i] = name
    return Pass(spans, failures)


def run_passes(requests, budget_s, min_passes, setups):
    """Repeat set-ups and a pass while another fits in the budget, at least min_passes times.

    Returns the passes and the context of the last set-up.
    """
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for _ in range(SETUPS_PER_PASS):
            span, ctx = setup()
            setups.append(span)
            # the replaced modules are cyclic garbage: collect it now, outside
            # the timed set-up, so that one copy at a time stays alive and no
            # collection falls in a timed request
            gc.collect()
        passes.append(run_pass(ctx, requests))
        took = perf_counter() - t0
        if len(passes) >= min_passes and perf_counter() - start + took > budget_s:
            return passes, ctx


def tail(latencies, per_pass):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it in a
    run of MIN_PASSES passes.

    The percentile is fixed by the length of the request list
    (``per_pass``), so it does not move when faster code fits more passes
    in a run; the value is read by nearest rank from the samples of every
    pass, so more passes put more samples beyond it.
    Returns (value, percentile, samples).
    """
    xs = sorted(latencies)
    samples = MIN_PASSES * per_pass
    pct = 100.0 * max(1, samples - TAIL_BEYOND) / samples
    rank = max(1, math.ceil(round(pct / 100.0 * len(xs), 9)))
    return xs[rank - 1], pct, len(xs)


def judge(requests, failures):
    """Failures by name, and those the known-defect ledger does not explain."""
    by_name = Counter(failures.values())
    unexpected, fixed = [], []
    for i, req in enumerate(requests):
        defect = workloads.expected_defect(req)
        if defect is None:
            if i in failures:
                unexpected.append({"request": i, "kind": req["kind"], "failure": failures[i]})
            continue
        raises = next(d["raises"] for d in workloads.KNOWN_DEFECTS if d["id"] == defect)
        if i not in failures:
            fixed.append(defect)
        elif failures[i] != raises:
            unexpected.append({"request": i, "kind": req["kind"], "failure": failures[i],
                               "ledger": defect})
    return dict(by_name), unexpected, sorted(set(fixed))


def metadata(workload, seed, seconds, trace):
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "regge3").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": _git_commit(),
        "source_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
    }


def _git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_info():
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "blas" in line.lower()}
        for lib in libs:
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(dll, sym):
                    info["threads"] = int(getattr(dll, sym)())
                    return info
    except OSError:
        pass
    return info


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "regge3" / "__init__.py").is_file():
        _fail(f"regge3 sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    with Speedometer() as speed:
        # the first set-up also gives the 600-cell's edges for the request list
        span, ctx = setup()
        setups = [span]
        if not Path(ctx.m.complexes.__file__).resolve().is_relative_to(SRC.resolve()):
            _fail(f"imported regge3 from {ctx.m.complexes.__file__}, not from {SRC}")
        requests = workloads.make_requests(args.workload, args.seed, ctx.c600.edge_vertices)
        meta = metadata(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"meta": meta}))
        # a traced run needs only an untraced baseline for the tracing overhead
        passes, ctx = run_passes(requests, args.seconds / 2 if args.trace else args.seconds,
                                 1 if args.trace else MIN_PASSES, setups)
        if args.trace:
            problems, stencils = tracing.calibrate(ctx.m, ctx.dt)
            tracer = tracing.Tracer().install(ctx.m)
            try:
                traced = run_pass(build_context(ctx.m), requests, tracer)
            finally:
                tracer.remove()

    # [[(adjusted, raw) seconds per request] per pass]
    timed = [[speed.seconds(*span) for span in p.spans] for p in passes]
    walls = [sum(a for a, _ in t) for t in timed]
    failures = passes[0].failures
    by_name, unexpected, fixed = judge(requests, failures)
    consistent = all(p.failures == failures for p in passes)
    attempted = len(requests) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    samples = [e - s for s, e in zip(speed.starts, speed.ends)]
    detail = {"requests_per_pass": len(requests), "passes": len(passes),
              "failures_per_pass": by_name, "unexpected_failures": unexpected,
              "ledger_defects_not_reproduced": fixed,
              "failures_identical_across_passes": consistent,
              "reference_s": {"fixed": REFERENCE_S, "samples": len(samples),
                              "p50": statistics.median(samples),
                              "min": min(samples), "max": max(samples)}}

    if not args.trace:
        def timings(which):
            lats = [x[which] for t in timed for x in t]
            tail_s, tail_pct, count = tail(lats, len(requests))
            return {"setup_s": statistics.median(speed.seconds(*s)[which] for s in setups),
                    "wall_s": statistics.median(sum(x[which] for x in t) for t in timed),
                    "request_ms_p50": 1e3 * statistics.median(lats),
                    "request_ms_tail": 1e3 * tail_s}, tail_pct, count

        values, tail_pct, count = timings(0)
        raw, _, _ = timings(1)
        by_kind = {}
        for t in timed:
            for req, (x, _) in zip(requests, t):
                label = "/".join(str(v) for k, v in req.items()
                                 if k in ("kind", "which", "functional", "normalize", "number"))
                by_kind.setdefault(label, []).append(1e3 * x)
        values.update({
            "pass_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        detail.update({"request_ms_tail_percentile": round(tail_pct, 3),
                       "request_count": count, "raw": raw, "wall_s_all": walls,
                       "kind_ms_p50": {k: statistics.median(v) for k, v in by_kind.items()}})
        correct = not unexpected and consistent
    else:
        traced_wall, traced_raw = map(sum, zip(*(speed.seconds(*span) for span in traced.spans)))
        metrics = tracer.metrics(traced_wall / statistics.median(walls) - 1.0)
        # layer times at the same fixed machine speed as the end-to-end times
        for m in metrics.values():
            if m["unit"] in ("s", "us"):
                m["value"] *= traced_wall / traced_raw
        detail.update({"selfcheck_problems": problems, "stencils": stencils,
                       "counts": tracer.counts(),
                       "spans": tracer.spans(), "untraced_wall_s_all": walls,
                       "traced_wall_s": traced_wall})
        correct = not unexpected and consistent and not problems \
            and traced.failures == failures
        attempted += len(requests)
        failed += len(traced.failures)

    print(json.dumps({"detail": detail}))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
