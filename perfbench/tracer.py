"""In-memory boundary tracer for the cosdfl package.

A layer is one ``cosdfl.<module>``. The tracer wraps every public function
of a layer at every site where another cosdfl module binds it (so a call
from ``model`` into ``losses.evaluate_loss`` is a span of ``losses``), and
the public ``solve*`` methods of the classes the package defines (the
oracles), whose spans are also keyed by the oracle's ``name``. Calls inside
one module stay unwrapped and count as that module's own work. Classes are
not rebound: replacing one would break ``isinstance`` checks, so the cost of
constructing an object stays with its caller.

Spans live in flat arrays (key, start, end, parent). A span's self time is
its duration minus the time its child spans cover, so nested calls such as
``spo_plus_loss`` -> ``solve`` split between ``losses`` and ``problems``.
A function added to a layer later is picked up with no change here.

One span stack per tracer: trace a single thread.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "cosdfl"


@dataclass
class LayerStats:
    calls: int = 0            # calls into the layer from another layer
    self_s: float = 0.0
    call_s: np.ndarray = field(default_factory=lambda: np.empty(0))  # their durations


@dataclass
class TraceSummary:
    layers: dict[str, LayerStats]
    families: dict[str, LayerStats]   # oracle name -> its solve spans
    root_s: float                     # duration of spans with no parent


class Tracer:
    """Wraps the package's layer boundaries while installed.

    ``observers`` maps ``"<layer>.<function>"`` to a callback that receives
    the function's result whenever it is called from another layer.
    """

    def __init__(self, observers=None) -> None:
        self.observers = dict(observers or {})
        self.keys: list[tuple[str, str | None]] = []   # key id -> (layer, family)
        self._key_ids: dict[tuple[str, str | None], int] = {}
        self.span_key = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._wrappers: dict[object, object] = {}
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- wrapping ---------------------------------------------------------------

    def _key(self, layer: str, family: str | None = None) -> int:
        ident = (layer, family)
        key = self._key_ids.get(ident)
        if key is None:
            key = self._key_ids[ident] = len(self.keys)
            self.keys.append(ident)
        return key

    def _layer_of(self, module_name: str) -> str:
        return module_name.rsplit(".", 1)[-1]

    def _make(self, fn, layer: str, key_of, observer):
        keys, parents = self.span_key, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, layer_of_key = self._stack, self.keys
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            keys.append(key_of(args))
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observer is not None and (
                    parent < 0 or layer_of_key[keys[parent]][0] != layer):
                observer(result)
            return result

        return traced

    def wrap(self, fn):
        """The traced version of a module-level function of the package."""
        wrapped = self._wrappers.get(fn)
        if wrapped is None:
            layer = self._layer_of(fn.__module__)
            key = self._key(layer)
            observer = self.observers.get(f"{layer}.{fn.__name__}")
            wrapped = self._make(fn, layer, lambda args: key, observer)
            self._wrappers[fn] = wrapped
        return wrapped

    def _wrap_method(self, fn, layer: str):
        def key_of(args):
            return self._key(layer, str(getattr(args[0], "name", type(args[0]).__name__)))
        return self._make(fn, layer, key_of, None)

    def _plan(self) -> list[tuple[object, str, object, object]]:
        prefix = PACKAGE + "."
        modules = sorted((name, mod) for name, mod in list(sys.modules.items())
                         if mod is not None and (name == PACKAGE or name.startswith(prefix)))
        plan = []
        for site_name, site in modules:
            for attr, obj in list(vars(site).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    home = obj.__module__ or ""
                    if (home.startswith(prefix) and home != site_name
                            and not obj.__name__.startswith("_")):
                        plan.append((site, attr, obj, self.wrap(obj)))
                elif (inspect.isclass(obj) and obj.__module__ == site_name
                      and not getattr(obj, "_is_protocol", False)):
                    layer = self._layer_of(site_name)
                    for name, raw in list(vars(obj).items()):
                        if name.startswith("solve") and inspect.isfunction(raw):
                            plan.append((obj, name, raw, self._wrap_method(raw, layer)))
        return plan

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapped in reversed(self._patches or []):
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------------

    def summary(self) -> TraceSummary:
        if self._stack:
            raise RuntimeError("summary taken while spans are still open")
        n = len(self.span_start)
        start = np.frombuffer(self.span_start, dtype=np.float64) if n else np.empty(0)
        end = np.frombuffer(self.span_end, dtype=np.float64) if n else np.empty(0)
        key = np.frombuffer(self.span_key, dtype=np.int64) if n else np.empty(0, np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64) if n else np.empty(0, np.int64)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_t = dur - child

        layer_names = sorted({layer for layer, _family in self.keys})
        layer_index = {name: i for i, name in enumerate(layer_names)}
        key_layer = np.array([layer_index[layer] for layer, _ in self.keys], dtype=np.int64)
        span_layer = key_layer[key] if n else np.empty(0, np.int64)
        parent_layer = np.where(nested, span_layer[np.maximum(parent, 0)], -1)
        entry = parent_layer != span_layer

        layers = {}
        for name, i in layer_index.items():
            mine = span_layer == i
            layers[name] = LayerStats(calls=int(np.count_nonzero(mine & entry)),
                                      self_s=float(self_t[mine].sum()),
                                      call_s=dur[mine & entry])
        families = {}
        for k, (_layer, family) in enumerate(self.keys):
            if family is None:
                continue
            mine = key == k
            stats = families.setdefault(family, LayerStats())
            stats.calls += int(np.count_nonzero(mine))
            stats.self_s += float(self_t[mine].sum())
        return TraceSummary(layers=layers, families=families,
                            root_s=float(dur[~nested].sum()))
