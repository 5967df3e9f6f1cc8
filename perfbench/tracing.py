"""Spans and counts around the calls into each layer of regge3.

The tracer wraps every public function of the layer modules and every
binding through which it is reached: module attributes (including names
bound by ``from ... import``), the ``curvature.FUNCTIONALS`` dict, the
``reproduce.ALL_CRITERIA`` tuple and the methods ``ConformalClass.apply``
and ``Complex.tet_lengths``.  Spans are aggregated in memory as they
close: a layer's self time is its span time minus the time of its direct
child spans.  Counts are kept at the same boundaries, so ratios such as
functional evaluations per Hessian are measured where the work happens.
The counts are recorded, never required to match the algorithm of the
current code: fewer evaluations per Hessian or Jacobian is a gain, not an
error.  ``calibrate`` checks the wrappers' coverage against a profiler.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("complexes", "geometry", "curvature", "conformal", "solve", "reproduce")

_FUNCTIONALS = {"curvature.ehr_value", "curvature.lehr_value", "curvature.vehr_value"}
_ADMISSIBILITY = {"geometry.is_admissible", "geometry.assert_admissible",
                  "geometry.assert_admissible_lengths"}
_GRADIENTS = {"curvature.grad_lengths", "curvature.grad_conformal", "curvature.gradient_fd"}
_BUILDS = {"complexes.double_tetrahedron", "complexes.six_hundred_cell",
           "complexes.from_simplicial_tets", "complexes.parse_complex",
           "complexes.load_complex"}
_SOLVERS = {"solve.solve_csc", "solve.descend"}
_METHODS = (("conformal", "ConformalClass", "apply"), ("complexes", "Complex", "tet_lengths"))

#: per-layer metrics of a traced run: name -> (unit, better)
PER_LAYER = {
    "geometry.calls": ("count", "lower"),
    "geometry.tets": ("count", "lower"),
    "geometry.self_s": ("s", "lower"),
    "geometry.us_per_tet": ("us", "lower"),
    "geometry.cm_dets": ("count", "lower"),
    "geometry.admissibility_checks": ("count", "lower"),
    "geometry.inadmissible_frac": ("frac", "lower"),
    "curvature.self_s": ("s", "lower"),
    "curvature.functional_evals": ("count", "lower"),
    "curvature.report_calls": ("count", "lower"),
    "curvature.gradient_calls": ("count", "lower"),
    "curvature.hessian_calls": ("count", "lower"),
    "curvature.evals_per_hessian": ("count", "lower"),
    "curvature.fd_retries": ("count", "lower"),
    "conformal.self_s": ("s", "lower"),
    "conformal.apply_calls": ("count", "lower"),
    "conformal.apply_inadmissible_frac": ("frac", "lower"),
    "solve.self_s": ("s", "lower"),
    "solve.runs": ("count", "lower"),
    "solve.iterations": ("count", "lower"),
    "solve.converged_frac": ("frac", "higher"),
    "solve.evals_per_iteration": ("count", "lower"),
    "solve.jacobian_residual_evals": ("count", "lower"),
    "solve.accepted_trial_frac": ("frac", "higher"),
    "solve.eig_calls": ("count", "lower"),
    "solve.eig_s": ("s", "lower"),
    "complexes.builds": ("count", "lower"),
    "complexes.build_s": ("s", "lower"),
    "complexes.tet_lengths_calls": ("count", "lower"),
    "reproduce.self_s": ("s", "lower"),
    **{f"reproduce.criterion_s.{n}": ("s", "lower") for n in range(1, 12)},
    "reproduce.rows_failed": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def stencil_size(n: int, richardson: bool) -> int:
    """Function evaluations of one central-difference Hessian stencil."""
    return (2 * n * n + 1) * (2 if richardson else 1)


def _batch_tets(args) -> int:
    """Tetrahedra handled by a geometry call: a complex's, or a (..., 6) batch."""
    if not args:
        return 0
    if hasattr(args[0], "num_tets"):
        return args[0].num_tets
    shape = np.shape(args[0])
    return math.prod(shape[:-1]) if shape and shape[-1] == 6 else 0


class Tracer:
    """Wrappers plus the aggregated spans and counts of one traced phase."""

    def __init__(self):
        self.paused = False
        self.stack = []                 # open spans: [key, layer, child seconds]
        self.hessians = []              # open FD Hessians: [evals, n, richardson]
        self.solvers = []               # open solver runs: per-run counters
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.incl_s = defaultdict(float)
        self.n = Counter()              # named counts
        self.t = defaultdict(float)     # named times
        self.hessian_evals = Counter()  # (n, richardson, evals) -> Hessians
        self.jacobians = Counter()      # (n, per-Jacobian residual evals) -> runs
        self._undo = []
        self._sigs = {}
        self._codes = {}                # code object of each wrapped function -> key
        self._criterion = {}

    # -- installation ---------------------------------------------------

    def install(self, mods):
        """Wrap every binding of every public layer function; undo with remove()."""
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(mods, layer)
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", layer, obj)
        for number, fn in enumerate(mods.reproduce.ALL_CRITERIA, 1):
            self._criterion[f"reproduce.{fn.__name__}"] = number
        for layer, cls_name, meth in _METHODS:
            cls = getattr(getattr(mods, layer), cls_name)
            orig = cls.__dict__[meth]
            self._set(cls, meth, orig, self._wrap(f"{layer}.{cls_name}.{meth}", layer, orig))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "regge3" or modname.startswith("regge3.")):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if _is_wrapped(v, wrapped):
                            self._undo.append((obj.__setitem__, k, v))
                            obj[k] = wrapped[v]
                elif isinstance(obj, tuple) and any(_is_wrapped(v, wrapped) for v in obj):
                    self._set(mod, name, obj, tuple(wrapped[v] if _is_wrapped(v, wrapped) else v
                                                    for v in obj))
                elif _is_wrapped(obj, wrapped):
                    self._set(mod, name, obj, wrapped[obj])
        return self

    def _set(self, owner, name, old, new):
        self._undo.append((functools.partial(setattr, owner), name, old))
        setattr(owner, name, new)

    def remove(self):
        for setter, key, old in reversed(self._undo):
            setter(key, old)
        self._undo.clear()

    def _wrap(self, key, layer, fn):
        self._sigs[key] = inspect.signature(fn)
        self._codes[fn.__code__] = key

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            frame = [key, layer, 0.0]
            self._enter(key, layer, parent, args, kwargs)
            if key == "solve.descend":
                args, kwargs = self._count_guard(args, kwargs)
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, parent, t0, args, None, exc)
                raise
            self._close(frame, parent, t0, args, out, None)
            return out

        return traced

    # -- span bookkeeping -----------------------------------------------

    def _enter(self, key, layer, parent, args, kwargs):
        n = self.n
        if parent is None or parent[1] != layer:
            n[f"{layer}.entries"] += 1
            if layer == "geometry":
                n["geometry.tets"] += _batch_tets(args)
        if self.solvers and parent is not None and parent[1] == "solve" and layer != "solve":
            self.solvers[-1]["evals"] += 1
        if key in _FUNCTIONALS and not (parent is not None and parent[0] in _FUNCTIONALS):
            n["curvature.functional_evals"] += 1
            if self.hessians:
                self.hessians[-1][0] += 1
        elif key == "curvature.hessian_fd":
            b = self._sigs[key].bind(*args, **kwargs)
            b.apply_defaults()
            size = getattr(b.arguments["x"], "size", None) or len(b.arguments["x"])
            self.hessians.append([0, int(size), bool(b.arguments["richardson"])])
        elif key in _SOLVERS:
            self.solvers.append({"key": key, "evals": 0, "applies": [], "guards": 0})
        elif key == "conformal.ConformalClass.apply" and self.solvers:
            b = self._sigs[key].bind(*args, **kwargs)
            self.solvers[-1]["applies"].append(np.array(b.arguments["factors"], dtype=float))

    def _count_guard(self, args, kwargs):
        """Count the calls of the guard handed to ``solve.descend``: it is
        called on the start and on every line-search candidate."""
        b = self._sigs["solve.descend"].bind(*args, **kwargs)
        guard, run = b.arguments["guard"], self.solvers[-1]

        def counted(x):
            run["guards"] += 1
            return guard(x)

        b.arguments["guard"] = counted
        return b.args, b.kwargs

    def _close(self, frame, parent, t0, args, out, exc):
        dt = perf_counter() - t0
        key, layer = frame[0], frame[1]
        self.stack.pop()
        if parent is not None:
            parent[2] += dt
        self.self_s[layer] += dt - frame[2]
        self.calls[key] += 1
        self.incl_s[key] += dt
        n = self.n
        if layer == "geometry":
            if key == "geometry.cayley_menger":
                n["geometry.cm_dets"] += _batch_tets(args)
            elif key in _ADMISSIBILITY:
                n["geometry.admissibility_checks"] += 1
                if out is False or (exc is not None
                                    and type(exc).__name__ == "InadmissibleMetricError"):
                    n["geometry.inadmissible"] += 1
        elif key == "curvature.hessian_fd":
            evals, size, rich = self.hessians.pop()
            self.hessian_evals[(size, rich, evals)] += 1
            n["curvature.hessian_calls"] += 1
            n["curvature.hessian_evals"] += evals
            if evals > stencil_size(size, rich):
                n["curvature.fd_retries"] += 1
        elif key == "curvature.functionals":
            n["curvature.report_calls"] += 1
        elif key in _GRADIENTS:
            n["curvature.gradient_calls"] += 1
        elif key == "conformal.ConformalClass.apply":
            n["conformal.apply_calls"] += 1
            if exc is None and not out[1]:
                n["conformal.apply_inadmissible"] += 1
        elif key in _SOLVERS:
            self._close_solver(self.solvers.pop(), out, exc)
        elif key == "solve.eig_sym":
            n["solve.eig_calls"] += 1
            self.t["solve.eig_s"] += dt
        elif key in _BUILDS and not (parent is not None and parent[0] in _BUILDS):
            n["complexes.builds"] += 1
            self.t["complexes.build_s"] += dt
        elif key == "complexes.Complex.tet_lengths":
            n["complexes.tet_lengths_calls"] += 1
        elif key in self._criterion:
            self.t[f"reproduce.criterion_s.{self._criterion[key]}"] += dt
            if exc is None:
                n["reproduce.rows_failed"] += sum(not r.passed for r in out)

    def _close_solver(self, run, out, exc):
        n = self.n
        n["solve.runs"] += 1
        n["solve.evals"] += run["evals"]
        if exc is not None:
            return
        trace = out[1]
        steps = len(trace.step_sizes)
        n["solve.iterations"] += steps
        n["solve.converged"] += trace.reason == "converged"
        if run["key"] == "solve.descend":
            n["solve.trials"] += run["guards"] - 1
            return
        # solve_csc: its residual evaluations are factor-map applications;
        # those one coordinate away from an iterate build a Jacobian by
        # finite differences, the first is at the start, and the rest are
        # line-search trials
        applies = np.array(run["applies"]).reshape(len(run["applies"]), -1)
        iterates = np.array(trace.iterates).reshape(len(trace.iterates), -1)
        diff = applies[:, None, :] - iterates[None, :, :]
        moved = np.count_nonzero(diff, axis=-1)
        scale = 1e-3 * np.maximum(np.abs(iterates).max(axis=-1), 1.0)
        fd = (moved == 1) & (np.abs(diff).max(axis=-1) <= scale)
        jac_evals = int(fd.any(axis=1).sum())
        jacobians = int(fd.any(axis=0).sum())
        n["solve.trials"] += len(applies) - jac_evals - 1
        n["solve.jacobian_residual_evals"] += jac_evals
        n["solve.jacobians"] += jacobians
        if jacobians:
            self.jacobians[(iterates.shape[1], jac_evals / jacobians)] += 1

    # -- results --------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict:
        n, t = self.n, self.t

        def ratio(a, b):
            return a / b if b else 0.0

        values = {
            "geometry.calls": n["geometry.entries"],
            "geometry.tets": n["geometry.tets"],
            "geometry.self_s": self.self_s["geometry"],
            "geometry.us_per_tet": 1e6 * ratio(self.self_s["geometry"], n["geometry.tets"]),
            "geometry.cm_dets": n["geometry.cm_dets"],
            "geometry.admissibility_checks": n["geometry.admissibility_checks"],
            "geometry.inadmissible_frac": ratio(n["geometry.inadmissible"],
                                                n["geometry.admissibility_checks"]),
            "curvature.self_s": self.self_s["curvature"],
            "curvature.functional_evals": n["curvature.functional_evals"],
            "curvature.report_calls": n["curvature.report_calls"],
            "curvature.gradient_calls": n["curvature.gradient_calls"],
            "curvature.hessian_calls": n["curvature.hessian_calls"],
            "curvature.evals_per_hessian": ratio(n["curvature.hessian_evals"],
                                                 n["curvature.hessian_calls"]),
            "curvature.fd_retries": n["curvature.fd_retries"],
            "conformal.self_s": self.self_s["conformal"],
            "conformal.apply_calls": n["conformal.apply_calls"],
            "conformal.apply_inadmissible_frac": ratio(n["conformal.apply_inadmissible"],
                                                       n["conformal.apply_calls"]),
            "solve.self_s": self.self_s["solve"],
            "solve.runs": n["solve.runs"],
            "solve.iterations": n["solve.iterations"],
            "solve.converged_frac": ratio(n["solve.converged"], n["solve.runs"]),
            "solve.evals_per_iteration": ratio(n["solve.evals"], n["solve.iterations"]),
            "solve.jacobian_residual_evals": n["solve.jacobian_residual_evals"],
            "solve.accepted_trial_frac": ratio(n["solve.iterations"], n["solve.trials"]),
            "solve.eig_calls": n["solve.eig_calls"],
            "solve.eig_s": t["solve.eig_s"],
            "complexes.builds": n["complexes.builds"],
            "complexes.build_s": t["complexes.build_s"],
            "complexes.tet_lengths_calls": n["complexes.tet_lengths_calls"],
            "reproduce.self_s": self.self_s["reproduce"],
            **{f"reproduce.criterion_s.{k}": t[f"reproduce.criterion_s.{k}"]
               for k in range(1, 12)},
            "reproduce.rows_failed": n["reproduce.rows_failed"],
            "trace.overhead_frac": overhead_frac,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, (unit, _) in PER_LAYER.items()}

    def counts(self) -> dict:
        """Every count of the phase; two traced runs of one input agree exactly."""
        return {"calls": dict(sorted(self.calls.items())),
                "counters": dict(sorted(self.n.items())),
                "hessian_evals": {f"n={k[0]} richardson={k[1]} evals={k[2]}": v
                                  for k, v in sorted(self.hessian_evals.items())},
                "jacobian_evals": {f"n={k[0]} per_jacobian={k[1]:g}": v
                                   for k, v in sorted(self.jacobians.items())}}

    def spans(self) -> dict:
        """Per function: calls and inclusive seconds."""
        return {k: {"calls": self.calls[k], "incl_s": round(self.incl_s[k], 6)}
                for k in sorted(self.calls)}


def _is_wrapped(obj, wrapped) -> bool:
    return inspect.isfunction(obj) and obj in wrapped


def calibrate(mods, dt):
    """Trace a few known calls under a profiler too; return (problems, stencils).

    The profiler counts every execution of each wrapped function's code,
    whatever binding reached it, so a wrapper that saw fewer calls marks a
    missed binding; ``problems`` lists those.  ``stencils`` sets the
    evaluations counted per FD Hessian and Jacobian beside the stencil sizes
    of the finite differences in use today (146 per Richardson 6x6 length
    Hessian, 66 per Richardson 4x4 conformal Hessian, 2n per Newton Jacobian
    on n vertices).  They are reported, not required: an analytic derivative
    or a smaller stencil changes them on purpose.
    """
    problems, stencils = [], {}
    cases = (
        ("hessian_fd_lengths", lambda: mods.curvature.hessian_fd_lengths(
            dt, np.ones(6), "vehr", richardson=True), stencil_size(6, True)),
        ("conformal_hessian_fd", lambda: mods.curvature.conformal_hessian_fd(
            dt, np.ones(6), "lehr", richardson=True), stencil_size(4, True)),
        ("solve_csc", lambda: mods.solve.solve_csc(
            mods.conformal.ConformalClass(dt, np.ones(6)), "L", np.array([-1.0, -1.0, 0, 0])),
         2 * 4),
    )
    for label, call, stencil in cases:
        tr = Tracer().install(mods)
        ran = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in tr._codes:
                ran[tr._codes[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
            tr.remove()
        problems += [f"{label}: {key} ran {count} times, its wrappers saw {tr.calls[key]}"
                     for key, count in sorted(ran.items()) if tr.calls[key] != count]
        if label == "solve_csc":
            counted = dict(sorted(tr.jacobians.items()))
            stencils[label] = {"per_jacobian_fd": stencil,
                               "counted": {f"n={k[0]} per_jacobian={k[1]:g}": v
                                           for k, v in counted.items()}}
        else:
            stencils[label] = {"per_hessian_fd": stencil,
                               "counted": {f"n={k[0]} evals={k[2]}": v
                                           for k, v in sorted(tr.hessian_evals.items())}}
    return problems, stencils
