"""Span tracer around the public functions of the vacuumpairs modules.

The tracer replaces module attributes with wrappers; nothing in the package
is edited, and ``uninstall`` puts the originals back.  A span is (name,
parent, op, start, end); spans stay in memory in flat arrays and are written
out once, when the run ends.  Each benchmark op opens a root span
``op.<kind>``, so the spans of one op share its index.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import warnings
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LAYERS = ("dispersion", "kinematics", "emission", "analysis", "materials")

# as_model coerces its argument inside every evaluator; a span around it
# would double the span count without timing any work.
UNTRACED = {"dispersion.as_model"}

# The dispersion kernels; their wavelength arguments are the samples counted.
KERNELS = ("dispersion.refractive_index", "dispersion.index_derivative", "dispersion.index_fields")

# Functions whose warnings are counted, by warning class.
COUNT_WARNINGS = {"kinematics.solve_partner"}

# Exception classes that constraint_density raises during a maximum search,
# reported one by one; any other class is reported as `other`.
CONSTRAINT_RAISES = (
    "NoSignChangeError",
    "ConstraintViolatedError",
    "GroupIndexSingularError",
    "CschSingularError",
    "PoleProximityError",
    "NegativeRadicandError",
    "NonPositiveError",
)

IMPORTED = ("vacuumpairs", "scipy.optimize", "scipy.integrate", "scipy.ndimage")

# (metric, unit, better): every metric a traced run reports, in order.
METRICS = (
    [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    + [
        ("dispersion.samples", "count", "lower"),
        ("dispersion.bad_fraction", "fraction", "lower"),
        ("dispersion.transparency_window.calls", "count", "lower"),
        ("kinematics.solve_partner.calls", "count", "lower"),
        ("kinematics.solve_partner.self_ms", "ms", "lower"),
        ("kinematics.solve_partner.no_partner", "count", "lower"),
        ("kinematics.solve_partner.multiple_roots", "count", "lower"),
        ("emission.density_point.calls", "count", "lower"),
        ("emission.density_point.self_ms", "ms", "lower"),
        ("emission.collinear_grid.cells", "count", "lower"),
        ("emission.collinear_grid.self_ms", "ms", "lower"),
        ("emission.collinear_grid.ok_fraction", "fraction", "higher"),
        ("emission.collinear_grid.forbidden", "count", "lower"),
        ("emission.collinear_grid.hole", "count", "lower"),
        ("analysis.constraint_density.calls", "count", "lower"),
    ]
    + [(f"analysis.constraint_density.raised.{name}", "count", "lower")
       for name in CONSTRAINT_RAISES + ("other",)]
    + [
        ("analysis.find_maximum.self_ms", "ms", "lower"),
        ("analysis.total_count.self_ms", "ms", "lower"),
        ("analysis.total_count.rel_error", "fraction", "lower"),
        ("analysis.fast_light_study.self_ms", "ms", "lower"),
        ("analysis.count_peaks.self_ms", "ms", "lower"),
    ]
    + [(f"cli.import.{module}_ms", "ms", "lower") for module in IMPORTED]
    + [
        ("trace.ops", "count", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_ms", "ms", "lower"),
        ("trace.overhead_fraction", "fraction", "lower"),
    ]
)


class Tracer:
    """Records spans and counts while an op is open; passes calls through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.rel_errors: list[float] = []
        self.active = False
        self._op_index = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of the layer modules, wherever they are bound."""
        wrapped = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                ):
                    wrapped[obj] = self._wrap(name, obj)
        prefix = package.__name__
        for mod_name, module in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        observe = _OBSERVERS.get(name)
        count_warnings = name in COUNT_WARNINGS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(nid)
            try:
                if count_warnings:
                    result = tracer._call_counting_warnings(name, fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(i)
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                if observe is not None:
                    observe(tracer, args, kwargs, None, exc)
                raise
            tracer._close(i)
            if observe is not None:
                observe(tracer, args, kwargs, result, None)
            return result

        return traced

    def _call_counting_warnings(self, name, fn, args, kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        for w in caught:
            self.counts[f"{name}.warned.{w.category.__name__}"] += 1
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    # -- spans ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_index)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op_span(self, kind: str):
        """Root span of one benchmark op; tracing is on only inside it."""
        self._op_index += 1
        i = self._open(self._id(f"op.{kind}"))
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._close(i)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )

    # -- aggregation ------------------------------------------------------

    def per_name(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, self ns, calls entering the layer from outside it)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        self_ns = self_times(parent, dur)
        layer_of = np.array([n.split(".")[0] for n in self.names] or [""])
        has_parent = parent >= 0
        parent_layer = np.full(len(nid), "", dtype=layer_of.dtype)
        parent_layer[has_parent] = layer_of[nid[parent[has_parent]]]
        entering = layer_of[nid] != parent_layer
        size = len(self.names)
        calls = np.bincount(nid, minlength=size)
        own = np.bincount(nid, weights=self_ns, minlength=size)
        entries = np.bincount(nid, weights=entering, minlength=size)
        return {
            name: (int(calls[k]), int(own[k]), int(entries[k]))
            for k, name in enumerate(self.names)
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts so far (no trace.* or cli.*)."""
        per = self.per_name()
        zero = (0, 0, 0)

        def calls(*names):
            return sum(per.get(n, zero)[0] for n in names)

        def self_ms(*names):
            return sum(per.get(n, zero)[1] for n in names) / 1e6

        out: dict[str, float] = {}
        for layer in LAYERS:
            mine = [n for n in per if n.startswith(layer + ".")]
            out[f"{layer}.calls"] = sum(per[n][2] for n in mine)
            out[f"{layer}.self_ms"] = self_ms(*mine)
        c = self.counts
        out["dispersion.samples"] = c["dispersion.samples"]
        out["dispersion.bad_fraction"] = c["dispersion.bad_samples"] / max(c["dispersion.samples"], 1)
        out["dispersion.transparency_window.calls"] = calls("dispersion.transparency_window")
        out["kinematics.solve_partner.calls"] = calls("kinematics.solve_partner")
        out["kinematics.solve_partner.self_ms"] = self_ms("kinematics.solve_partner")
        out["kinematics.solve_partner.no_partner"] = c["kinematics.solve_partner.raised.NoSignChangeError"]
        out["kinematics.solve_partner.multiple_roots"] = c[
            "kinematics.solve_partner.warned.MultipleRootsWarning"
        ]
        density = ("emission.density_gaussian", "emission.density_tanh")
        out["emission.density_point.calls"] = calls(*density)
        out["emission.density_point.self_ms"] = self_ms(*density)
        cells = c["grid.cells"]
        out["emission.collinear_grid.cells"] = cells
        out["emission.collinear_grid.self_ms"] = self_ms("emission.collinear_grid")
        out["emission.collinear_grid.ok_fraction"] = c["grid.ok"] / max(cells, 1)
        out["emission.collinear_grid.forbidden"] = c["grid.forbidden"]
        out["emission.collinear_grid.hole"] = c["grid.hole"]
        out["analysis.constraint_density.calls"] = calls("analysis.constraint_density")
        prefix = "analysis.constraint_density.raised."
        raised = {k[len(prefix):]: v for k, v in c.items() if k.startswith(prefix)}
        for exc_name in CONSTRAINT_RAISES:
            out[prefix + exc_name] = raised.pop(exc_name, 0)
        out[prefix + "other"] = sum(raised.values())
        for fn in ("find_maximum", "total_count", "fast_light_study", "count_peaks"):
            out[f"analysis.{fn}.self_ms"] = self_ms(f"analysis.{fn}")
        # worst quadrature error reported; 0 when total_count never ran
        out["analysis.total_count.rel_error"] = max(self.rel_errors, default=0.0)
        out["trace.spans"] = len(self.start)
        return out


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def _wavelength_size(args, kwargs) -> int:
    lam = args[1] if len(args) > 1 else kwargs["wavelength"]
    if isinstance(lam, np.ndarray):
        return lam.size
    return 1 if isinstance(lam, (int, float)) else int(np.size(lam))


def _observe_kernel(tracer, args, kwargs, result, exc) -> None:
    size = _wavelength_size(args, kwargs)
    tracer.counts["dispersion.samples"] += size
    if exc is not None:
        tracer.counts["dispersion.bad_samples"] += size
    elif isinstance(result, tuple):  # index_fields: (n, n_g, bad)
        tracer.counts["dispersion.bad_samples"] += int(np.count_nonzero(result[2]))


def _observe_grid(tracer, args, kwargs, result, exc) -> None:
    if exc is not None:
        return
    from vacuumpairs.emission import FLAG_FORBIDDEN, FLAG_HOLE, FLAG_OK

    flags = np.bincount(result.flags.ravel(), minlength=3)
    tracer.counts["grid.cells"] += int(result.flags.size)
    tracer.counts["grid.ok"] += int(flags[FLAG_OK])
    tracer.counts["grid.forbidden"] += int(flags[FLAG_FORBIDDEN])
    tracer.counts["grid.hole"] += int(flags[FLAG_HOLE])


def _observe_total(tracer, args, kwargs, result, exc) -> None:
    if exc is None:
        tracer.rel_errors.append(result.rel_error)


_OBSERVERS = {name: _observe_kernel for name in KERNELS}
_OBSERVERS["emission.collinear_grid"] = _observe_grid
_OBSERVERS["analysis.total_count"] = _observe_total


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time (ms) of each module in IMPORTED, from ``-X importtime``.

    A module that was not imported reads 0.
    """
    out = {module: 0.0 for module in IMPORTED}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        module = parts[2].strip()
        if module in out:
            try:
                out[module] = int(parts[1]) / 1000.0
            except ValueError:
                continue
    return out
