"""Outside-in layer tracer for the benchmark.

The tracer wraps, in place, every public function and method of the
library's layer modules (plus the ``SUITES`` registry entries and every
re-imported reference in other ``logmaj`` namespaces), so no file under
``src/`` is edited.  Each wrapped call is counted and timed.  A call whose
caller sits in a different layer is a layer boundary and records a span
``(name, start, end, parent)``; calls inside one layer only count, which
keeps the span store proportional to boundary crossings.  Spans live in
flat arrays in memory and are written out at the end of a run.

A layer's self time is the summed duration of its spans minus the
durations of their child spans.

The tracer is single-threaded: it keeps one "current span" cell, so it
must not be installed while library code runs on several threads.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "logmaj"
LAYERS = ("algebra", "stepfun", "majorization", "norms", "jordan", "isometry",
          "sampling", "serialize", "cli", "suites")

# Dunder methods that are part of a class's public protocol (construction
# and operator arithmetic); other underscore names are private.
PUBLIC_DUNDERS = frozenset({"__init__", "__call__", "__add__", "__sub__",
                            "__neg__", "__mul__", "__rmul__", "__truediv__",
                            "__matmul__"})


def _public(name: str) -> bool:
    return name in PUBLIC_DUNDERS or not name.startswith("_")


def self_times(starts: np.ndarray, ends: np.ndarray,
               parents: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of its children.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a root.
    On one thread's call stack children nest inside their parent and do
    not overlap one another, so their durations simply add up.
    """
    durations = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    kids = np.flatnonzero(parents >= 0)
    out = durations.copy()
    np.subtract.at(out, parents[kids], durations[kids])
    return out


class Tracer:
    """Counts and times calls into the library's layers.

    Use as a context manager; leaving it restores every patched attribute.
    """

    def __init__(self):
        self.names: list[str] = []          # function id -> "layer.qualname"
        self.layer_of: list[int] = []       # function id -> layer index
        self.counts: list[int] = []
        self.inclusive: list[float] = []    # outermost activations only
        self._active: list[int] = []
        self.span_fid = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._state = [-1, -1]              # current layer, current span
        self._restore: list[tuple] = []
        self._installed = False

    # -- wrapping ---------------------------------------------------------

    def _new_id(self, layer: int, name: str) -> int:
        self.names.append(f"{LAYERS[layer]}.{name}")
        self.layer_of.append(layer)
        self.counts.append(0)
        self.inclusive.append(0.0)
        self._active.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, layer: int, name: str):
        fid = self._new_id(layer, name)
        counts, inclusive, active = self.counts, self.inclusive, self._active
        fids, starts, ends, parents = (self.span_fid, self.span_start,
                                       self.span_end, self.span_parent)
        state, clock = self._state, time.perf_counter

        def enter():
            active[fid] += 1
            prev = (state[0], state[1])
            idx = -1
            if prev[0] != layer:
                idx = len(starts)
                fids.append(fid)
                parents.append(prev[1])
                starts.append(0.0)
                ends.append(0.0)
                state[0], state[1] = layer, idx
            t0 = clock()
            if idx >= 0:
                starts[idx] = t0
            return prev, idx, t0

        def leave(prev, idx, t0):
            t1 = clock()
            if idx >= 0:
                ends[idx] = t1
                state[0], state[1] = prev
            active[fid] -= 1
            if active[fid] == 0:
                inclusive[fid] += t1 - t0

        if inspect.isgeneratorfunction(fn):
            # a generator's body runs on each resumption, so every
            # resumption is timed under the generator's layer
            def wrapper(*args, **kwargs):
                counts[fid] += 1
                gen = fn(*args, **kwargs)
                while True:
                    frame = enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(*frame)
                    yield item
        else:
            # the common path is written out inline: it runs on every
            # Operator construction and arithmetic step
            def wrapper(*args, **kwargs):
                counts[fid] += 1
                active[fid] += 1
                prev_layer, prev_span = state
                if prev_layer != layer:
                    idx = len(starts)
                    fids.append(fid)
                    parents.append(prev_span)
                    starts.append(0.0)
                    ends.append(0.0)
                    state[0] = layer
                    state[1] = idx
                    t0 = clock()
                    starts[idx] = t0
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        t1 = clock()
                        ends[idx] = t1
                        state[0] = prev_layer
                        state[1] = prev_span
                        active[fid] -= 1
                        if active[fid] == 0:
                            inclusive[fid] += t1 - t0
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    active[fid] -= 1
                    if active[fid] == 0:
                        inclusive[fid] += t1 - t0

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._installed:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, object] = {}   # id(original function) -> wrapper
        for layer, short in enumerate(LAYERS):
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(obj, layer, name)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        # every namespace of the package, including the defining modules
        # and re-exports such as ``from .stepfun import mu``
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._set(mod, name, replaced[id(obj)])
        suites = sys.modules[f"{PACKAGE}.suites"]
        for name, (func, default) in list(suites.SUITES.items()):
            if id(func) in replaced:
                self._set(suites.SUITES, name, (replaced[id(func)], default))
        self._installed = True
        return self

    def _wrap_class(self, cls, layer: int) -> None:
        for attr, val in list(vars(cls).items()):
            if not _public(attr):
                continue
            label = f"{cls.__name__}.{attr}"
            if isinstance(val, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(val.__func__, layer, label)))
            elif isinstance(val, classmethod):
                self._set(cls, attr, classmethod(self._wrap(val.__func__, layer, label)))
            elif inspect.isfunction(val):
                self._set(cls, attr, self._wrap(val, layer, label))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()
        self._installed = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def fid(self, name: str) -> int:
        return self.names.index(name)

    def calls(self, name: str) -> int:
        return self.counts[self.fid(name)]

    def inclusive_s(self, name: str) -> float:
        return self.inclusive[self.fid(name)]

    def layer_calls(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for fid, n in enumerate(self.counts):
            out[LAYERS[self.layer_of[fid]]] += n
        return out

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        if not len(self.span_start):
            return out
        own = self_times(np.frombuffer(self.span_start, dtype=float),
                         np.frombuffer(self.span_end, dtype=float),
                         np.frombuffer(self.span_parent, dtype=np.int64))
        span_layer = np.asarray(self.layer_of, dtype=np.int64)[
            np.frombuffer(self.span_fid, dtype=np.int32)]
        totals = np.bincount(span_layer, weights=own, minlength=len(LAYERS))
        for i, layer in enumerate(LAYERS):
            out[layer] = float(totals[i])
        return out

    def write(self, path) -> None:
        """Write the spans and per-function aggregates to ``path`` (.npz)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            calls=np.array(self.counts, dtype=np.int64),
            inclusive_s=np.array(self.inclusive),
            span_name=np.frombuffer(self.span_fid, dtype=np.int32),
            span_start=np.frombuffer(self.span_start, dtype=float),
            span_end=np.frombuffer(self.span_end, dtype=float),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int64),
        )
