"""Command-line front end.

Subcommands: analyze, spectrum, sweep, find-csc, find-einstein, yamabe,
reproduce.  Exit codes: 0 success, 1 usage error, 2 inadmissible metric,
3 solver hit the admissibility boundary, 4 iteration limit reached (or,
for find-csc, the Newton line search stalled).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import curvature, reproduce, solve
from .complexes import Complex, double_tetrahedron, load_complex, six_hundred_cell
from .conformal import ConformalClass
from .geometry import InadmissibleMetricError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2
EXIT_BOUNDARY = 3
EXIT_MAXITERS = 4

# exit code of each stop reason, per solver kind: a stalled Newton iteration
# has not solved its equations, a stalled descent has reached the roundoff
# floor of its objective
_NEWTON_EXIT = {"converged": EXIT_OK, "stall": EXIT_MAXITERS, "boundary-hit": EXIT_BOUNDARY,
                "max-iters": EXIT_MAXITERS, "singular-jacobian": EXIT_MAXITERS}
_DESCENT_EXIT = {"converged": EXIT_OK, "stall": EXIT_OK, "boundary-hit": EXIT_BOUNDARY,
                 "max-iters": EXIT_MAXITERS}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _vector(values) -> str:
    return "[" + ", ".join(_fmt(x) for x in values) + "]"


def get_complex(spec: str) -> Complex:
    if spec == "dt":
        return double_tetrahedron()
    if spec == "cell600":
        return six_hundred_cell()
    return load_complex(spec)


def parse_lengths(spec: str, num_edges: int) -> np.ndarray:
    """Parse 'uniform:k' or a comma-separated length list."""
    if spec.startswith("uniform:"):
        try:
            k = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad uniform length {spec!r}") from exc
        return np.full(num_edges, k)
    return _parse_list(spec, num_edges, "length")


def parse_factors(spec: str, num_vertices: int) -> np.ndarray:
    return _parse_list(spec, num_vertices, "factor")


def _parse_list(spec: str, size: int, noun: str) -> np.ndarray:
    """A comma-separated list of ``size`` floats, each a ``noun``."""
    try:
        vals = np.asarray([float(x) for x in spec.split(",")], dtype=float)
    except ValueError as exc:
        raise UsageError(f"bad {noun} list {spec!r}") from exc
    if vals.size != size:
        raise UsageError(f"expected {size} {noun}s, got {vals.size}")
    return vals


def resolve_metric(args, c: Complex) -> np.ndarray:
    """Exactly one metric source: --lengths, or --class (+ optional --conformal)."""
    conformal = getattr(args, "conformal", None)    # find-einstein takes no --conformal
    if args.lengths is not None and args.cls is not None:
        raise UsageError("give either --lengths or --class, not both")
    if args.lengths is not None:
        if conformal is not None:
            raise UsageError("--conformal requires --class")
        return parse_lengths(args.lengths, c.num_edges)
    if args.cls is not None:
        cls = ConformalClass(c, parse_lengths(args.cls, c.num_edges))
        f = np.zeros(c.num_vertices) if conformal is None \
            else parse_factors(conformal, c.num_vertices)
        lengths, ok = cls.apply(f)
        if not ok:
            raise InadmissibleMetricError(
                "conformal point induces an inadmissible metric")
        return lengths
    raise UsageError("a metric is required: --lengths or --class [--conformal]")


def cmd_analyze(args) -> int:
    c = get_complex(args.complex)
    lengths = resolve_metric(args, c)
    rep = curvature.functionals(c, lengths)
    bounds = rep.bounds()
    res = {f"{kind}_residual_{w}": float(np.abs(residual(w)).max())
           for kind, residual in (("einstein", rep.einstein_residual),
                                  ("csc", rep.csc_residual))
           for w in "lv"}
    if args.format == "human":
        print(f"complex: {args.complex}  (V,E,F,T) = {c.counts()}")
        print(f"LEHR = {_fmt(rep.lehr)}   VEHR = {_fmt(rep.vehr)}   EHR = {_fmt(rep.ehr)}")
        print(f"length = {_fmt(rep.length)}   volume = {_fmt(rep.volume)}")
        print(f"edge curvature range: [{_fmt(rep.k_edge.min())}, {_fmt(rep.k_edge.max())}]")
        print(f"bounds: {_fmt(bounds.lehr_lower)} <= LEHR <= {_fmt(bounds.lehr_upper)}"
              f"   fatness = {_fmt(bounds.fatness)}   VEHR >= {_fmt(bounds.vehr_lower)}")
        for k, v in res.items():
            print(f"{k} = {_fmt(v)}")
    else:
        print(rep.to_text(), end="")
        print(bounds.to_text(), end="")
        for k, v in res.items():
            print(f"{k}: {_fmt(v)}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    c = get_complex(args.complex)
    lengths = resolve_metric(args, c)
    functional = args.functional
    rep = curvature.functionals(c, lengths)
    if args.space == "lengths":
        H, kind = rep.length_hessian(functional), "length"
    else:
        H, kind = rep.conformal_hessian(functional), "conformal"
    label = f"analytic {kind} Hessian of {functional.upper()}"
    spec = solve.eig_sym(H)
    if args.format == "human":
        print(label)
        print("eigenvalues:", _vector(spec.eigenvalues))
        equal_length = np.allclose(lengths, lengths[0], rtol=1e-12, atol=0.0)
        if c.num_vertices == 4 and equal_length:
            k = float(lengths[0])
            refs = _equal_length_reference(functional, args.space, k)
            if refs is not None:
                print("reference eigenvalues at the equal-length metric:",
                      _vector(refs))
                print("max deviation:", _fmt(np.abs(spec.eigenvalues - refs).max()))
        if args.vectors:
            for i in range(spec.eigenvalues.size):
                print(f"v[{i}] ({_fmt(spec.eigenvalues[i])}):",
                      _vector(spec.eigenvectors[:, i]))
    else:
        print("eigenvalues: " + _vector(spec.eigenvalues))
        for i in range(spec.eigenvalues.size):
            print(f"eigenvector_{i}: " + _vector(spec.eigenvectors[:, i]))
    return EXIT_OK


def _equal_length_reference(functional: str, space: str, k: float):
    if space == "lengths" and functional == "lehr":
        return reproduce.LEHR_EIGS / k ** 2
    if space == "lengths" and functional == "vehr":
        return reproduce.VEHR_EIGS / k ** 2
    if space == "conformal" and functional == "lehr":
        return np.array([0.0] + [4 * np.sqrt(2) / 9] * 3)
    return None


def cmd_sweep(args) -> int:
    c = get_complex(args.complex)
    if args.family != "diag":
        raise UsageError(f"unknown family {args.family!r} (available: diag)")
    if c.num_edges != 6:
        raise UsageError("the diag family is defined on the double tetrahedron")
    try:
        a, b, n = args.t.split(":")
        start, stop, steps = float(a), float(b), int(n)
    except ValueError as exc:
        raise UsageError(f"bad --t range {args.t!r}, expected start:stop:steps") from exc
    if steps < 1 or not (np.isfinite(start) and np.isfinite(stop)):
        raise UsageError(f"bad --t range {args.t!r}: the bounds must be finite and the steps "
                         "at least 1")
    ts = np.linspace(start, stop, steps)
    quantities = [q.strip() for q in args.quantities.split(",") if q.strip()]
    try:
        table = solve.sweep_family(c, solve.diagonal_family, ts, quantities)
    except InadmissibleMetricError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(table.to_delimited(sep="," if args.format == "delimited" else "\t"), end="")
    return EXIT_OK


def _print_trace(trace) -> None:
    print("trace:")
    print(f"  points: {trace.points}  rejected: {trace.rejected}")
    for i, rn in enumerate(trace.residual_norms):
        step = trace.step_sizes[i] if i < len(trace.step_sizes) else ""
        val = trace.values[i] if i < len(trace.values) else ""
        parts = [f"  iter {i}: residual {_fmt(rn)}"]
        if step != "":
            parts.append(f"step {_fmt(step)}")
        if val != "":
            parts.append(f"value {_fmt(val)}")
        print("  ".join(parts))


def cmd_find_csc(args) -> int:
    c = get_complex(args.complex)
    cls = ConformalClass(c, parse_lengths(args.cls, c.num_edges))
    f0 = np.zeros(c.num_vertices) if args.start is None \
        else parse_factors(args.start, c.num_vertices)
    f, trace = solve.solve_csc(cls, args.which, f0, tol=args.tol,
                               max_iter=args.max_iters)
    lengths, _ = cls.apply(f)
    print(f"reason: {trace.reason}")
    print(f"iterations: {len(trace.residual_norms)}")
    print(f"factors: {_vector(f)}")
    print(f"lengths: {_vector(lengths)}")
    print(f"residual: {_fmt(trace.residual_norms[-1])}")
    if args.trace:
        _print_trace(trace)
    return _NEWTON_EXIT[trace.reason]


def cmd_find_einstein(args) -> int:
    c = get_complex(args.complex)
    lengths = resolve_metric(args, c)
    functional = curvature._functional(args.which, normalized=True)
    lend, trace = solve.descend_lengths(c, functional, lengths,
                                        normalize="L" if functional == "lehr" else "V",
                                        max_iter=args.max_iters)
    rep = curvature.functionals(c, lend)
    print(f"reason: {trace.reason}")
    print(f"iterations: {len(trace.residual_norms)}")
    print(f"lengths: {_vector(lend)}")
    print(f"{functional}: {_fmt(getattr(rep, functional))}")
    print(f"einstein_residual: {_fmt(np.abs(rep.einstein_residual(functional)).max())}")
    if args.trace:
        _print_trace(trace)
    return _DESCENT_EXIT[trace.reason]


def cmd_yamabe(args) -> int:
    c = get_complex(args.complex)
    cls = ConformalClass(c, parse_lengths(args.cls, c.num_edges))
    est = solve.yamabe_constant_estimate(cls, args.which, starts=args.starts,
                                         seed=args.seed)
    print(f"value: {_fmt(est.value)}")
    print(f"bound_kind: {est.bound_kind}  # upper bound on the conformal infimum")
    print(f"attained_interior: {est.attained_interior}")
    print(f"factors: {_vector(est.factors)}")
    print(f"iterations: {est.iterations}  newton_steps: {est.newton_steps}")
    print("runs:")
    for val, reason in est.runs:
        print(f"  {_fmt(val) if np.isfinite(val) else 'nan'}  {reason}")
    if args.trace:
        print("trace:")
        for i, trace in enumerate(est._traces):
            print(f"  start {i}: " + ("inadmissible-start" if trace is None else
                                       f"steps {len(trace.step_sizes)}  newton_steps "
                                       f"{trace.newton_steps}  points {trace.points}  "
                                       f"rejected {trace.rejected}"))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    rows = reproduce.run_all(only=args.only)
    if not rows:
        raise UsageError(f"no criteria match {args.only!r}")
    print(reproduce.format_rows(rows, delimited=(args.format == "delimited")), end="")
    return EXIT_OK if all(r.passed for r in rows) else EXIT_MAXITERS


def _positive(kind):
    """An argparse type: a finite ``kind`` (float or int) above 0."""
    def parse(text: str):
        value = kind(text)
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(text)
        return value
    parse.__name__ = f"positive finite {kind.__name__}"    # argparse's error names it
    return parse


def build_parser() -> _Parser:
    p = _Parser(prog="regge3",
                description="Curvature functionals on piecewise flat 3-manifolds")
    sub = p.add_subparsers(dest="command", required=True)
    # the options several subcommands take, each declared only where its command reads it
    shared = {
        "--lengths": dict(help="comma-separated lengths or uniform:k"),
        "--class": dict(dest="cls", help="background lengths of a conformal class"),
        "--conformal": dict(help="comma-separated per-vertex factors"),
        "--format": dict(choices=("human", "structured"), default="human"),
    }

    def add_common(sp, *flags):
        sp.add_argument("--complex", default="dt",
                        help="dt | cell600 | path to a triangulation file")
        for flag in flags:
            sp.add_argument(flag, **shared[flag])

    sp = sub.add_parser("analyze", help="curvature report, bounds, residuals")
    add_common(sp, "--lengths", "--class", "--conformal", "--format")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("spectrum", help="Hessian spectra in length or conformal space")
    add_common(sp, "--lengths", "--class", "--conformal", "--format")
    sp.add_argument("--functional", choices=("ehr", "lehr", "vehr"), default="lehr")
    sp.add_argument("--space", choices=("lengths", "conformal"), default="lengths")
    sp.add_argument("--vectors", action="store_true", help="print eigenvectors")
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("sweep", help="one-parameter family sweep")
    add_common(sp)
    sp.add_argument("--format", choices=("human", "delimited"), default="human",
                    help="tab- or comma-separated columns")
    sp.add_argument("--family", default="diag")
    sp.add_argument("--t", required=True, help="start:stop:steps")
    sp.add_argument("--quantities", default="ehr,lehr,vehr",
                    help=f"comma list from: {', '.join(solve.sweep_quantities())}")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("find-csc", help="Newton solve for constant scalar curvature")
    add_common(sp)
    sp.add_argument("--class", required=True, **shared["--class"])
    sp.add_argument("--which", choices=("L", "V"), default="L")
    sp.add_argument("--start", help="comma-separated starting factors")
    sp.add_argument("--tol", type=_positive(float), default=1e-10)
    sp.add_argument("--max-iters", type=int, default=100)
    sp.add_argument("--trace", action="store_true", help="print per-iteration trace")
    sp.set_defaults(fn=cmd_find_csc)

    sp = sub.add_parser("find-einstein", help="projected descent toward an Einstein metric")
    add_common(sp, "--lengths", "--class")
    sp.add_argument("--which", choices=("L", "V"), default="V")
    sp.add_argument("--max-iters", type=int, default=2000)
    sp.add_argument("--trace", action="store_true", help="print per-iteration trace")
    sp.set_defaults(fn=cmd_find_einstein)

    sp = sub.add_parser("yamabe", help="multi-start Yamabe constant estimate")
    add_common(sp)
    sp.add_argument("--class", required=True, **shared["--class"])
    sp.add_argument("--which", choices=("L", "V"), default="L")
    sp.add_argument("--starts", type=_positive(int), default=32)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trace", action="store_true",
                    help="print each start's steps, Newton steps and tested points")
    sp.set_defaults(fn=cmd_yamabe)

    sp = sub.add_parser("reproduce", help="run the reference-value suite")
    which = sp.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="run every criterion (default)")
    which.add_argument("--only", help="a key such as 6 or 4b selects by row key only; "
                       "any other string selects the criteria whose tag contains it")
    sp.add_argument("--format", choices=("human", "delimited"), default="human")
    sp.set_defaults(fn=cmd_reproduce)

    return p


_NUMERIC_LIST_FLAGS = ("--start", "--conformal")


def _merge_negative_values(argv):
    """Join flag/value pairs whose value begins with a minus sign.

    Lets ``--start -1,-1,0,0`` parse without requiring the ``=`` form.
    """
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _NUMERIC_LIST_FLAGS and i + 1 < len(argv):
            nxt = argv[i + 1]
            if nxt.startswith("-") and set(nxt) <= set("-+.,0123456789eE"):
                out.append(f"{tok}={nxt}")
                skip = True
                continue
        out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InadmissibleMetricError as exc:
        print(f"inadmissible metric: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
