"""Layer spans around the public functions of each dickesim module.

The tracer rebinds, from outside the package, every public function and
public method of the traced modules, including the names one module imports
from another (``evolution.dark_coefficients`` is the same function as
``dark_state.dark_coefficients`` and gets the same wrapper).  Nothing inside
``src/`` changes.

A call that crosses into another layer opens a span: layer, function name,
start, end, the span it was called from, and the operation it belongs to.
A call from a layer into itself runs unwrapped, so it counts once.  Spans
stay in memory and are written out by ``write_spans`` when the run ends.

Self time of a layer is the time of its spans minus the time of their child
spans, which always belong to other layers.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time

#: traced modules, in the order the per-layer metrics list them
LAYERS = (
    "evolution", "model", "dark_state", "observables", "certification",
    "measurement", "spin_algebra", "cli", "repro",
)

#: counters kept besides the calls and self time of each layer
COUNTERS = (
    "evolution.samples", "evolution.max_norm_drift", "evolution.truncation_leak",
    "certification.states", "measurement.shots", "cli.format_csv_s", "cli.csv_bytes",
)


class Tracer:
    def __init__(self):
        self.op = -1
        self.layer = None          # layer of the innermost open span
        self.current = -1          # id of the innermost open span
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        # one entry per span, kept as parallel lists
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self._wrappers: dict[int, object] = {}
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- installing -----------------------------------------------------

    def install(self, package) -> None:
        """Prepare wrappers for the public callables of every traced module
        of ``package``; ``activate`` swaps them in and out."""
        modules = {name: getattr(package, name) for name in LAYERS}
        for layer, module in modules.items():
            for obj in list(vars(module).values()):
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer)
        for owner in (package, *modules.values()):
            for name, obj in list(vars(owner).items()):
                wrapped = self._wrapper_for(name, obj)
                if wrapped is not None:
                    self._bindings.append((owner, name, obj, wrapped))
        for layer, name in _PRIVATE_PROBES:
            module = modules[layer]
            fn = getattr(module, name)
            self._bindings.append((module, name, fn, self._wrap(fn, layer, f"{layer}.{name}")))

    def activate(self, on: bool) -> None:
        """Bind the wrappers (on) or the original functions (off)."""
        for owner, name, original, wrapped in self._bindings:
            setattr(owner, name, wrapped if on else original)

    def _wrapper_for(self, name, obj):
        if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
            return None
        module = getattr(obj, "__module__", None) or ""
        layer = module.rpartition(".")[2]
        if not module.startswith("dickesim.") or layer not in LAYERS:
            return None
        return self._wrap(obj, layer, f"{layer}.{obj.__name__}")

    def _wrap_class(self, cls, layer) -> None:
        for name, attr in list(vars(cls).items()):
            if name != "__init__" and name.startswith("_"):
                continue
            if inspect.isfunction(attr):
                wrapped = self._wrap(attr, layer, f"{layer}.{cls.__name__}.{name}")
                self._bindings.append((cls, name, attr, wrapped))

    def _wrap(self, fn, layer, qualname):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        tracer = self
        clock = time.perf_counter
        index = self._name(qualname)
        hook = _HOOKS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.layer == layer:
                if hook is None:
                    return fn(*args, **kwargs)
                t0 = clock()
                result = fn(*args, **kwargs)
                hook(tracer.counters, args, result, clock() - t0)
                return result
            sid = len(tracer.span_start)
            tracer.span_name.append(index)
            tracer.span_parent.append(tracer.current)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            saved = tracer.layer, tracer.current
            tracer.layer, tracer.current = layer, sid
            t0 = clock()
            tracer.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.span_end[sid] = t1
                tracer.layer, tracer.current = saved
            if hook is not None:
                hook(tracer.counters, args, result, t1 - t0)
            return result

        self._wrappers[key] = wrapper
        return wrapper

    def _name(self, qualname: str) -> int:
        if qualname not in self.name_index:
            self.name_index[qualname] = len(self.names)
            self.names.append(qualname)
        return self.name_index[qualname]

    # -- results --------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """``<layer>.calls`` and ``<layer>.self_s`` for every traced layer."""
        layer_of = [name.split(".", 1)[0] for name in self.names]
        span_layer = [layer_of[i] for i in self.span_name]
        out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("calls", "self_s")}
        for sid, layer in enumerate(span_layer):
            duration = self.span_end[sid] - self.span_start[sid]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += duration
            parent = self.span_parent[sid]
            if parent >= 0:
                out[f"{span_layer[parent]}.self_s"] -= duration
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            for sid in range(len(self.span_start)):
                fh.write(f"{sid},{self.span_parent[sid]},{self.span_op[sid]},"
                         f"{self.names[self.span_name[sid]]},"
                         f"{self.span_start[sid]:.9f},{self.span_end[sid]:.9f}\n")


def _trajectory_stats(counters, args, traj, _elapsed):
    counters["evolution.samples"] += len(traj.times)
    counters["evolution.max_norm_drift"] = max(counters["evolution.max_norm_drift"],
                                               traj.max_norm_drift)
    counters["evolution.truncation_leak"] = max(counters["evolution.truncation_leak"],
                                                traj.truncation_leak)


def _certified(counters, args, record, _elapsed):
    counters["certification.states"] += 1


def _shots(counters, args, counts, _elapsed):
    counters["measurement.shots"] += int(counts.sum())


def _csv(counters, args, text, elapsed):
    counters["cli.format_csv_s"] += elapsed
    counters["cli.csv_bytes"] += len(text)


# counters taken at these functions, whichever layer calls them
_HOOKS = {
    "evolution.integrate_reduced": _trajectory_stats,
    "evolution.integrate_full": _trajectory_stats,
    "certification.certify_from_state": _certified,
    "measurement._draw": _shots,
    "cli.format_csv": _csv,
}

# private functions wrapped for their counters: ``measurement._draw`` is the
# one sampler that every measurement function draws its shots through
_PRIVATE_PROBES = (("measurement", "_draw"),)
