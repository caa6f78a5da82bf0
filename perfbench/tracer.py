"""Span tracer that instruments ttlapprox from outside.

``Tracer.instrument()`` replaces the public functions (each module's
``__all__``) and the public methods of the public classes of every layer
module with wrappers, and ``restore()`` puts the originals back.  The
package is not edited: every module attribute that is bound to a wrapped
function (``cli`` imports ``build_catalog`` by name, the package
``__init__`` re-exports everything) is rebound to the same wrapper.

Every wrapped call is a span, except calls that ``distributions`` makes
into itself (``age_cdf`` evaluated by ``brentq`` inside ``sample_age``):
those are counted but not timed, so their cost stays in the caller's self
time and the span list stays small.  Spans are kept in flat arrays (name,
start, end, parent, work units) and written out by ``save``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import re
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("distributions", "popularity", "approx", "asymptotics", "simulator",
          "experiments", "cli")

# The kernel layer: its methods call each other thousands of times per
# sample or quantile, which is composition inside one layer, not a boundary.
_LEAF = "distributions"

# Called once per simulated event or reuse-window sample: a span each would
# cost more than the event itself, so the hot loop is timed as a whole.
_HOT_LOOP = {"LruState", "TtlState", "measure_tau"}


def snake(name: str) -> str:
    """ParetoLomax -> pareto_lomax."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def _catalog_family(catalog) -> str:
    classes = getattr(catalog, "classes", ())
    return snake(type(classes[0]).__name__) if len(classes) == 1 else "mixed"


def _points(args, kwargs):
    t = args[0] if args else next(iter(kwargs.values()), 0.0)
    return float(np.size(t))


def _run_kind(config) -> str:
    policy = type(config.policy).__name__
    if policy == "TTL":
        return "ttl"
    return "lru_tau" if config.tau_stride else "lru_fast"


# Per-call work units and tags, keyed by function or method name.  Each hook
# gets the call's arguments (without self) and result and returns
# (units, tag); units add up into exact counters.
def _hook_kernel(args, kwargs, result):
    return _points(args, kwargs), None


def _hook_batch(args, kwargs, result):
    size = args[1] if len(args) > 1 else kwargs.get("size", 0)
    return float(size), None


def _hook_build_catalog(args, kwargs, result):
    return 0.0, int(result.n)


def _hook_characteristic_time(args, kwargs, result):
    return float(result.iterations), _catalog_family(args[0] if args else kwargs["catalog"])


def _hook_init_stationary(args, kwargs, result):
    catalog = args[0] if args else kwargs["catalog"]
    return float(catalog.n), None


def _hook_run(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    events = config.horizon_events or 0
    # measured requests are the post-warmup events; the rest is warmup
    return float(events), (_run_kind(config), float(result.total_requests))


def _hook_sweep(args, kwargs, result):
    return 0.0, [(r.n, r.measured_contents) for r in result]


def _hook_cli_main(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv") or []
    commands = ("solve-ct", "ttl-hit", "simulate", "limit", "convergence-sweep",
                "check-assumptions")
    return 0.0, next((a for a in argv if a in commands), "unknown")


HOOKS = {
    "age_cdf": _hook_kernel,
    "cdf": _hook_kernel,
    "ccdf": _hook_kernel,
    "sample_inter_batch": _hook_batch,
    "build_catalog": _hook_build_catalog,
    "characteristic_time": _hook_characteristic_time,
    "init_stationary": _hook_init_stationary,
    "run": _hook_run,
    "convergence_sweep": _hook_sweep,
    "main": _hook_cli_main,
}


class Tracer:
    """Records spans of wrapped calls and per-name call counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.units = array("d")
        self.tags: dict[int, object] = {}
        self.calls: Counter = Counter()       # every call, boundary or not
        self.unit_totals: Counter = Counter()  # every call's work units
        self.warnings: Counter = Counter()     # (layer, is_runtime) -> count
        self._stack: list[tuple[int, str]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.units.append(0.0)
        self._stack.append((idx, layer))
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, layer, name, hook, fn, args, kwargs):
        self.calls[name] += 1
        if layer == _LEAF and self._stack and self._stack[-1][1] == _LEAF:
            result = fn(*args, **kwargs)
            if hook is not None:
                self.unit_totals[name] += hook(args, kwargs, result)[0]
            return result
        idx = self._open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(idx)
        if hook is not None:
            units, tag = hook(args, kwargs, result)
            self.units[idx] = units
            self.unit_totals[name] += units
            if tag is not None:
                self.tags[idx] = tag
        return result

    @contextlib.contextmanager
    def span(self, name: str):
        """A span of the benchmark's own (layer ``bench``)."""
        idx = self._open(name, "bench")
        try:
            yield
        finally:
            self._close(idx)

    def showwarning(self, message, category, filename, lineno, file=None, line=None):
        """Replacement for ``warnings.showwarning``: count the warning against
        the layer of the innermost open span, and drop it."""
        layer = self._stack[-1][1] if self._stack else "bench"
        self.warnings[(layer, issubclass(category, RuntimeWarning))] += 1

    # -- instrumentation ---------------------------------------------------

    def _wrap_function(self, layer, fn):
        name = f"{layer}.{fn.__name__}"
        hook = HOOKS.get(fn.__name__)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(layer, name, hook, fn, args, kwargs)

        return wrapper

    def _wrap_method(self, layer, fn):
        base = HOOKS.get(fn.__name__)
        hook = None if base is None else (lambda a, k, r: base(a[1:], k, r))
        method = fn.__name__
        tracer = self
        names = {}

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            cls = type(obj)
            name = names.get(cls)
            if name is None:
                name = names[cls] = f"{layer}.{snake(cls.__name__)}.{method}"
            return tracer.call(layer, name, hook, fn, (obj,) + args, kwargs)

        return wrapper

    def _rebind(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ttlapprox" or modname.startswith("ttlapprox.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def instrument(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"ttlapprox.{layer}")
            for public in getattr(mod, "__all__", ()):
                obj = getattr(mod, public, None)
                if public in _HOT_LOOP or obj is None:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    self._rebind(obj, self._wrap_function(layer, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, val in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(val) \
                                or inspect.isgeneratorfunction(val):
                            continue
                        self._undo.append((obj, attr, val))
                        setattr(obj, attr, self._wrap_method(layer, val))
        return self

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)

    def self_times(self) -> np.ndarray:
        """Span duration minus the time covered by its child spans."""
        dur = self.durations()
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def by_name(self):
        """name -> (span indices) for every recorded span."""
        groups = defaultdict(list)
        for idx, nid in enumerate(self.name):
            groups[self.names[nid]].append(idx)
        return groups

    def save(self, path):
        np.savez(path, names=np.asarray(self.names, dtype=str),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 name=np.asarray(self.name, dtype=np.int64),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 units=np.frombuffer(self.units, dtype=float))
