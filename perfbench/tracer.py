"""Span recorder for the traced run.

Every public function and public method (plus the arithmetic operators) of a
layer module is wrapped, in every loaded namespace that binds it, so a call
made through `torbound.x`, `torbound.bounds.x` or a `from .x import` name is
seen alike. Callables are found by the module that defines them, not from a
list of names, so merging or renaming functions inside a layer keeps them
traced.

Spans nest on one stack (all load runs in one thread). On exit a span adds
its duration to its parent's child time; its self time is its duration minus
that child time. Only the per-name totals are kept: the hot loops make
millions of spans per run, too many to store one by one.
"""

import inspect
import sys
import time

ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__", "__pow__")


class Stat:
    __slots__ = ("calls", "self_time", "counter", "items", "keys", "distinct")

    def __init__(self, counter, track_distinct):
        self.calls = 0
        self.self_time = 0.0
        self.counter = counter
        self.items = 0        # summed counter(args, result)
        self.keys = set() if track_distinct else None  # argument keys in this op
        self.distinct = 0     # distinct keys summed over finished ops


class SpanRecorder:
    """Per-name call counts and self time.

    counters maps a span name to f(args, result), a number added to that
    name's `items` on each call. Span names starting with one of the
    `distinct` prefixes also count distinct argument tuples per op.
    """

    def __init__(self, clock=time.perf_counter, counters=None, distinct=()):
        self.clock = clock
        self.counters = dict(counters or {})
        self.distinct = tuple(distinct)
        self.stats = {}
        self._stack = []

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat(self.counters.get(name),
                                         name.startswith(self.distinct))
        return st

    def span(self, name, fn, *args, **kwargs):
        """Call fn as one span called `name` and return its result."""
        st = self._stat(name)
        frame = [0.0]   # time covered by child spans
        stack = self._stack
        stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = self.clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += dur
            st.calls += 1
            st.self_time += dur - frame[0]
        if st.counter is not None:
            st.items += st.counter(args, result)
        if st.keys is not None:
            try:
                st.keys.add((args, tuple(sorted(kwargs.items()))))
            except TypeError:
                pass
        return result

    def end_op(self):
        for st in self.stats.values():
            if st.keys:
                st.distinct += len(st.keys)
                st.keys.clear()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def _public_callables(module):
    """(qualified name, owner, attribute, function) for what the module defines."""
    modname = module.__name__
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
            continue
        if inspect.isfunction(obj):
            out.append((attr, module, attr, obj))
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if inspect.isfunction(fn) and (not meth.startswith("_") or meth in ARITHMETIC):
                    out.append((f"{attr}.{meth}", obj, meth, fn))
    return out


class Patch:
    """Installs wrappers for the given layer modules and restores them."""

    def __init__(self, recorder, layers):
        self.recorder = recorder
        self.layers = dict(layers)   # module name -> layer label
        self._undo = []

    def install(self):
        wrapped = {}   # id(original function) -> wrapper
        for modname, layer in self.layers.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            for qual, owner, attr, fn in _public_callables(module):
                wrapper = self.recorder.wrap(f"{layer}.{qual}", fn)
                wrapped[id(fn)] = wrapper
                self._set(owner, attr, wrapper)
        # rebind names that other modules imported with `from .x import f`
        packages = {name.split(".")[0] for name in self.layers}
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] not in packages:
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._set(module, attr, wrapped[id(obj)])
        return self

    def extra(self, owner, attr, name):
        """Wrap one more callable, such as a standard-library method."""
        self._set(owner, attr, self.recorder.wrap(name, getattr(owner, attr)))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

