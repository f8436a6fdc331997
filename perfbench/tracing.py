"""Layer tracing for the benchmark's traced run.

Spans are recorded around every public function and public method of the
missmass modules (the layers), from this file alone: ``install`` rebinds each
such name in the module that defines it, in every missmass module that
imports it, and in the package namespace.  The package source is not edited.

Each span keeps (name, parent, start, end) in flat arrays in memory; they are
written out once, when the run ends.  A span's self time is its duration
minus the time its child spans cover, so the self times of all spans under
the root add up to the root's duration.

Counts that are not calls are taken at the same boundaries:

* ``special.<fn>.elems``: array elements passed to log_gamma / digamma /
  trigamma;
* ``likelihoods.log_L4.points``: (W, alpha) points evaluated;
* ``solvers.<fn>.evals`` and ``solvers.integrate_semi_infinite.points``:
  calls of (and arguments passed to) the callable handed to a solver;
* ``inference.infer_bayes.integrals`` / ``.grid_points``: quadratures run
  inside infer_bayes, and W-grid points kept in its posterior.
"""

from __future__ import annotations

import collections
import gzip
import importlib
import inspect
import math
import time
from array import array

import numpy as np

LAYERS = ("cli", "data", "inference", "moments", "estimators", "likelihoods",
          "special", "solvers", "distributions", "simulate", "verify")

SOLVERS = ("solve_root", "maximize_unimodal", "integrate_semi_infinite")
ELEMENT_COUNTED = ("log_gamma", "digamma", "trigamma")

# per-layer metrics reported by a traced run, with units; BENCHMARK.json's
# per_layer list is this table
PER_LAYER_METRICS = (
    [(f"special.{fn}.{k}", "count") for fn in ELEMENT_COUNTED
     for k in ("calls", "elems")]
    + [("special.self_s", "s")]
    + [(f"likelihoods.{fn}.calls", "count")
       for fn in ("log_L4", "log_L5", "log_L8", "log_L9", "log_L11",
                  "dlog_dalpha", "d2log_dalpha2")]
    + [("likelihoods.log_L4.points", "count"), ("likelihoods.self_s", "s")]
    + [("solvers.integrate_semi_infinite.calls", "count"),
       ("solvers.integrate_semi_infinite.evals", "count"),
       ("solvers.integrate_semi_infinite.points", "count"),
       ("solvers.maximize_unimodal.calls", "count"),
       ("solvers.maximize_unimodal.evals", "count"),
       ("solvers.solve_root.calls", "count"),
       ("solvers.solve_root.evals", "count"),
       ("solvers.self_s", "s")]
    + [("inference.infer_bayes.integrals_per_grid_point", "ratio"),
       ("inference.mle_alpha.calls", "count"), ("inference.self_s", "s"),
       ("moments.self_s", "s"),
       ("distributions.quantile.calls", "count"),
       ("distributions.gridded.builds", "count"),
       ("distributions.self_s", "s"),
       ("estimators.rb_exact.calls", "count"), ("estimators.rb_exact.s", "s"),
       ("estimators.self_s", "s"),
       ("simulate.self_s", "s"),
       ("cli.build_parser.s", "s"), ("cli.self_s", "s"),
       ("data.self_s", "s"), ("verify.self_s", "s"),
       ("bench.self_s", "s"), ("trace.spans", "count"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
)


class Tracer:
    """Span recorder plus the name rebinding that feeds it.

    ``clock`` times the spans; the traced run passes one that leaves out
    the host-speed probe's own time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        t = self.clock()
        self.end[idx] = t
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += t - self.start[idx]

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        name_id = self.intern(name)
        counts = self.counts
        short = name.split(".")[-1]
        layer = name.split(".")[0]

        if layer == "solvers" and short in SOLVERS:
            evals, points = name + ".evals", name + ".points"
            count_points = short == "integrate_semi_infinite"

            def prepare(args):
                if count_points:
                    counts["solvers.integrate_semi_infinite.entered"] += 1
                if not args:
                    return args
                inner = args[0]

                def counted(x):
                    counts[evals] += 1
                    if count_points:
                        counts[points] += np.size(x)
                    return inner(x)

                return (counted,) + tuple(args[1:])
        elif layer == "special" and short in ELEMENT_COUNTED:
            key = name + ".elems"

            def prepare(args):
                counts[key] += np.size(args[0]) if args else 1
                return args
        elif name == "likelihoods.log_L4":
            def prepare(args):
                if len(args) >= 4:
                    counts["likelihoods.log_L4.points"] += np.broadcast(
                        np.asarray(args[2]), np.asarray(args[3])).size
                return args
        else:
            prepare = None

        if name == "inference.infer_bayes":
            def wrapper(*args, **kwargs):
                before = counts["solvers.integrate_semi_infinite.entered"]
                idx = tracer.open(name_id)
                try:
                    report = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                grid = getattr(report.w_dist, "w_grid", None)
                if grid is not None:
                    counts["inference.infer_bayes.integrals"] += (
                        counts["solvers.integrate_semi_infinite.entered"] - before)
                    counts["inference.infer_bayes.grid_points"] += len(grid)
                return report
        elif prepare is not None:
            def wrapper(*args, **kwargs):
                args = prepare(args)
                idx = tracer.open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = tracer.open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(idx)

        wrapper.__name__ = getattr(fn, "__name__", short)
        wrapper.__qualname__ = getattr(fn, "__qualname__", short)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]
                            if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr == "__init__" and inspect.isfunction(member):
                self._set(cls, attr, self._wrap(f"{layer}.{cls.__name__}", member))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(member):
                self._set(cls, attr,
                          self._wrap(f"{layer}.{cls.__name__}.{attr}", member))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(
                    self._wrap(f"{layer}.{cls.__name__}.{attr}", member.__func__)))

    def install(self, package) -> None:
        """Rebind every public function of every layer to a traced wrapper."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        wrappers: dict[object, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(namespace, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, root: int, untraced_wall: float,
                      scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics over the spans under (and including) ``root``;
        span times are multiplied by ``scale``."""
        calls: collections.Counter = collections.Counter()
        inclusive: collections.Counter = collections.Counter()
        self_time: collections.Counter = collections.Counter()
        for i in range(root, len(self.start)):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            inclusive[name] += dur
            self_time[name.split(".")[0]] += dur - self.child[i]
        wall = (self.end[root] - self.start[root]) * scale
        counts = self.counts
        out: dict[str, float] = {}
        for fn in ELEMENT_COUNTED:
            out[f"special.{fn}.calls"] = calls[f"special.{fn}"]
            out[f"special.{fn}.elems"] = counts[f"special.{fn}.elems"]
        for fn in ("log_L4", "log_L5", "log_L8", "log_L9", "log_L11",
                   "dlog_dalpha", "d2log_dalpha2"):
            out[f"likelihoods.{fn}.calls"] = calls[f"likelihoods.{fn}"]
        out["likelihoods.log_L4.points"] = counts["likelihoods.log_L4.points"]
        for fn in SOLVERS:
            out[f"solvers.{fn}.calls"] = calls[f"solvers.{fn}"]
            out[f"solvers.{fn}.evals"] = counts[f"solvers.{fn}.evals"]
        out["solvers.integrate_semi_infinite.points"] = counts[
            "solvers.integrate_semi_infinite.points"]
        grid_points = counts["inference.infer_bayes.grid_points"]
        out["inference.infer_bayes.integrals_per_grid_point"] = (
            counts["inference.infer_bayes.integrals"] / grid_points
            if grid_points else 0.0)
        out["inference.mle_alpha.calls"] = calls["inference.mle_alpha"]
        out["distributions.quantile.calls"] = sum(
            n for name, n in calls.items()
            if name.startswith("distributions.") and name.endswith(".quantile"))
        out["distributions.gridded.builds"] = calls["distributions.GriddedDist"]
        out["estimators.rb_exact.calls"] = calls["estimators.rb_exact"]
        out["estimators.rb_exact.s"] = inclusive["estimators.rb_exact"] * scale
        out["cli.build_parser.s"] = inclusive["cli.build_parser"] * scale
        for layer in LAYERS + ("bench",):
            out[f"{layer}.self_s"] = self_time[layer] * scale
        out["trace.spans"] = len(self.start) - root
        out["trace.wall_s"] = wall
        out["trace.overhead_s"] = wall - untraced_wall
        unknown = set(out) ^ {name for name, _ in PER_LAYER_METRICS}
        if unknown:
            raise AssertionError(f"per-layer metric table out of step: {sorted(unknown)}")
        return out

    def accounted(self, root: int) -> float:
        """Sum of self times under ``root``; equals the root's duration."""
        return math.fsum(self.end[i] - self.start[i] - self.child[i]
                         for i in range(root, len(self.start)))

    def write(self, path) -> None:
        """Write every span as one tab-separated line, times relative to
        the first span's start."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
