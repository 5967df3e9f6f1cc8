"""Bitwise digests of regge3's outputs, to show that a change leaves every result unchanged.

Run from the repository root:

    python tools/digest.py --seeds 1-200
    python tools/digest.py --seeds 1 --per-request

It prints one sha256 per group of outputs:

* ``dt``, ``cell600``: every request of ``perfbench/workloads.make_requests`` for each
  seed, run through ``workloads.execute``: the outputs (arrays by their bytes, floats by
  their bits), every ``SolveTrace`` field (iterates, residual norms, step sizes, values,
  reason, Newton steps, points and rejected points), and the class and message of what a
  request raises;
* ``reproduce``: the rows of ``reproduce.run_all()`` in both output formats;
* ``criteria``: what criteria 9 and 11 return, and the output and every trace of the
  solver calls they make;
* ``yamabe``: ``yamabe_constant_estimate(cls, which, starts=16)`` in both normalizations
  on 12 seeded conformal classes of the double tetrahedron;
* ``cli``: each line of the README's "Command line" block run through ``cli.main``, with
  its exit code, stdout and stderr;
* ``sweep``: the tables of ``solve.sweep_family`` on fixed grids: the README's and demo
  04's sweeps, every quantity on the equihedral family past its flat end, and every
  quantity on a family off constant scalar curvature;
* ``reports``: every read of the report (``curvature.functionals``) of each metric of
  fixed seeded stacks of double tetrahedron and perturbed 600-cell metrics, at full
  precision: the fields, vertex sums, V_e and dual
  lengths, the Laplacian and the bounds, and for EHR, LEHR and VEHR both gradients, both
  residuals, the conformal and length Hessians and the csc Jacobian (``reproduce``
  rounds each row to 10 digits, so it cannot show a 1-ulp move of these reads).

``--per-request`` prints each item's digest before the summary.  Two runs of the same
code print the same lines, and a change that moves any output by one ulp moves its group's
digest.  The tool imports ``perfbench/workloads.py`` and writes nothing there.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    # before numpy is imported: one BLAS thread, as perfbench/run.py runs
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True    # leave perfbench/ as it is
import workloads  # noqa: E402
sys.dont_write_bytecode = _dont_write

from regge3 import cli, complexes, conformal, curvature, reproduce, solve  # noqa: E402

GROUPS = ("dt", "cell600", "reproduce", "criteria", "yamabe", "cli", "sweep", "reports")
YAMABE_CLASSES = 12
YAMABE_STARTS = 16
#: the README's "Command line" block, without the program name, the comments and the padding
CLI_LINES = (
    "analyze --complex dt --lengths 1,1,1,1,1,1",
    "analyze --complex cell600 --lengths uniform:1",
    "spectrum --functional vehr --space lengths --lengths uniform:1",
    "spectrum --functional vehr --space lengths --lengths 1.413,1,1,1,1,1.413",
    "spectrum --functional lehr --space conformal --class uniform:1 --conformal 0,0,0,0",
    "sweep --family diag --t 1:1.4142:100 --quantities vehr,ehr --format delimited",
    "find-csc --class uniform:1 --which L --start -1,-1,0,0",
    "find-einstein --which V --lengths 1.01,0.99,1,1,1,1",
    "yamabe --class uniform:1 --which L --starts 32 --seed 7",
    "reproduce --all",
    "reproduce --only tstar",
    "reproduce --only 6",
)


def _off_csc_family(t):
    """A one-parameter family of the double tetrahedron off constant scalar curvature."""
    return np.array([t, 1.0, 1.1, 0.95, 1.05, 1.0])


_EVERY = solve.sweep_quantities()
#: (name, family, linspace arguments, quantities) of each sweep
SWEEPS = (
    ("readme", solve.diagonal_family, (1.0, 1.4142, 100), ("vehr", "ehr")),
    ("demo-04", solve.diagonal_family, (1.0, 1.4142, 16),
     ("ehr", "vehr", "volume", "csc_res_l", "csc_res_v")),
    ("demo-04-spectrum", solve.diagonal_family, (1.2, 1.32, 7),
     tuple(f"vehr_spec_{i}" for i in range(1, 7))),
    ("every-quantity", solve.diagonal_family, (1.0, 1.45, 12), _EVERY),
    ("off-csc", _off_csc_family, (0.9, 1.2, 8), _EVERY),
)
#: (seed, size) of the report group's stacks of double tetrahedron and 600-cell metrics
REPORT_STACKS = {"dt": (2900, 20), "cell600": (2901, 2)}
#: derived fields of a report, computed when read, that its digest includes
_REPORT_FIELDS = ("k_vertex", "l_vertex", "v_vertex", "v_edge", "dual_length")

_execute = workloads.execute    # the one call per request (a test wraps it)


def encode(obj, out: list) -> None:
    """Append a byte encoding of ``obj`` to ``out``: equal encodings mean bitwise equal
    values, types and shapes."""
    if obj is None:
        out.append(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        out.append(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        out.append(b"I%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        out.append(b"D" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        data = obj.encode()
        out.append(b"S%d;" % len(data) + data)
    elif isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        out.append(f"A{a.dtype.str}{a.shape};".encode() + a.tobytes())
    elif isinstance(obj, (list, tuple)):
        out.append(b"L%d;" % len(obj))
        for item in obj:
            encode(item, out)
    elif isinstance(obj, dict):
        out.append(b"M%d;" % len(obj))
        for key, value in obj.items():
            encode(key, out)
            encode(value, out)
    elif isinstance(obj, BaseException):
        encode(("raised", type(obj).__name__, str(obj)), out)
    elif isinstance(obj, complexes.Complex):
        encode(("complex", obj.counts()), out)
    elif dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
        if isinstance(obj, curvature.CurvatureReport):
            names += _REPORT_FIELDS
        encode((type(obj).__name__, {name: getattr(obj, name) for name in names}), out)
    else:
        raise TypeError(f"no encoding for {type(obj).__name__}")


def _digest(obj) -> str:
    out = []
    encode(obj, out)
    return hashlib.sha256(b"".join(out)).hexdigest()


def _run(fn, *args, **kwargs):
    """fn's output, or the exception it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:    # a raised class and message is an output too
        return exc


def _context():
    mods = SimpleNamespace(**{layer: importlib.import_module(f"regge3.{layer}")
                              for layer in ("complexes", "geometry", "curvature", "conformal",
                                            "solve", "reproduce")})
    return workloads.Context(mods, complexes.double_tetrahedron(),
                             complexes.six_hundred_cell())


def _workload_items(workload, seeds, ctx):
    edge_vertices = ctx.c600.edge_vertices.tolist()
    for seed in seeds:
        for index, req in enumerate(workloads.make_requests(workload, seed, edge_vertices)):
            yield f"{seed}:{index}:{req['kind']}", (req, _run(_execute, ctx, req))


def _reproduce_items():
    rows = reproduce.run_all()
    yield "rows", rows
    yield "human", reproduce.format_rows(rows)
    yield "delimited", reproduce.format_rows(rows, delimited=True)


def _criteria_items():
    """Criteria 9 and 11, each with the output of every solver call it makes."""
    names = ("descend_lengths", "descend_conformal", "solve_csc", "yamabe_constant_estimate")
    calls = []
    originals = {name: getattr(solve, name) for name in names}

    def recorded(name):
        def call(*args, **kwargs):
            out = originals[name](*args, **kwargs)
            calls.append((name, out))
            return out
        return call

    for number in (9, 11):
        try:
            for name in names:
                setattr(solve, name, recorded(name))
            rows = _run(reproduce.ALL_CRITERIA[number - 1])
        finally:
            for name in names:
                setattr(solve, name, originals[name])
        yield f"criterion-{number}", (rows, calls[:])
        calls.clear()


def _yamabe_items(dt):
    for k in range(YAMABE_CLASSES):
        rng = np.random.default_rng(1000 + k)
        cls = conformal.ConformalClass(dt, solve.random_admissible_lengths(dt, rng))
        for which in "LV":
            yield f"class-{k}:{which}", _run(solve.yamabe_constant_estimate, cls, which,
                                             starts=YAMABE_STARTS, seed=k)


def _cli_items():
    for line in CLI_LINES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _run(cli.main, line.split())
        yield line, (code, out.getvalue(), err.getvalue())


def _sweep_items(dt):
    for name, family, grid, quantities in SWEEPS:
        yield name, _run(solve.sweep_family, dt, family, np.linspace(*grid), quantities)


def _report_reads(rep) -> dict:
    """Every read of a report: its fields (see ``encode``), and what its methods return."""
    reads = {"report": rep, "laplacian": rep.laplacian(), "bounds": rep.bounds()}
    for which in ("ehr", "lehr", "vehr"):
        reads[which] = [read(which) for read in (
            rep.grad_lengths, rep.grad_conformal, rep.einstein_residual, rep.csc_residual,
            rep.conformal_hessian, rep.length_hessian, rep.csc_jacobian)]
    return reads


def _report_items(dt, c600):
    for name, c in (("dt", dt), ("cell600", c600)):
        seed, size = REPORT_STACKS[name]
        rng = np.random.default_rng(seed)
        stack = solve.random_admissible_lengths(c, rng, size=size) if c is dt else \
            1.0 + 0.02 * rng.standard_normal((size, c.num_edges))
        for i, lengths in enumerate(stack):
            yield f"{name}-{i}", _report_reads(curvature.functionals(c, lengths))


def digests(seeds, per_request=None) -> dict:
    """The sha256 of each group, in GROUPS order; ``per_request(group, name, sha)`` sees
    each item's digest."""
    ctx = _context()
    items = {"dt": _workload_items("dt", seeds, ctx),
             "cell600": _workload_items("cell600", seeds, ctx),
             "reproduce": _reproduce_items(),
             "criteria": _criteria_items(),
             "yamabe": _yamabe_items(ctx.dt),
             "cli": _cli_items(),
             "sweep": _sweep_items(ctx.dt),
             "reports": _report_items(ctx.dt, ctx.c600)}
    out = {}
    for group in GROUPS:
        h = hashlib.sha256()
        for name, obj in items[group]:
            sha = _digest(obj)
            h.update(f"{name}={sha}\n".encode())
            if per_request is not None:
                per_request(group, name, sha)
        out[group] = h.hexdigest()
    return out


def parse_seeds(text: str) -> list:
    """Seeds from "a-b" (inclusive) or "a", or a comma list of these."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help='workload seeds: "1-200", "7" or "1,5-9"')
    parser.add_argument("--per-request", action="store_true",
                        help="print each item's digest before the summary")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    def show(group, name, sha):
        print(f"{group} {name} {sha}")

    result = digests(seeds, show if args.per_request else None)
    print(f"seeds {args.seeds} ({len(seeds)})")
    for group, sha in result.items():
        print(f"{group} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
