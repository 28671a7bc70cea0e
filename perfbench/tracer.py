"""Span tracing from outside the program.

:class:`Tracer` wraps the program's public entry points without editing
them: for each target object it rebinds every module global (and every
value of a module-level dict) that is bound to it, and it puts each one
back on :meth:`Tracer.uninstall`.  A wrapper records a :class:`Span` —
layer, name, start, end, children — around the call it forwards.

A layer's self time is its span minus its child spans, so the self times
of every span under one benchmark call sum to that call's duration.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns


class Span:
    __slots__ = ("layer", "name", "start", "end", "children", "tag")

    def __init__(self, layer, name):
        self.layer, self.name = layer, name
        self.start = self.end = 0
        self.children = []
        self.tag = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - sum(c.duration for c in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Records spans while installed; ``roots`` holds one span per
    benchmark call opened with :meth:`call`."""

    def __init__(self):
        self.roots = []
        self._stack = []
        self._undo = []          # (kind, holder, key, original)
        self._kernels = {}       # original kernel -> its traced wrapper

    # -- recording ----------------------------------------------------

    def _enter(self, layer, name):
        span = Span(layer, name)
        stack = self._stack
        (stack[-1].children if stack else self.roots).append(span)
        stack.append(span)
        span.start = perf_counter_ns()
        return span

    def _exit(self, span):
        span.end = perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn):
        """Run ``fn()`` as a root span named ``name``."""
        span = self._enter("bench", name)
        try:
            return fn()
        finally:
            self._exit(span)

    def wrap(self, layer, name, fn, post=None):
        """A traced stand-in for ``fn``; ``post(span, result)`` may tag
        the span and returns what the caller receives.  Outside a
        benchmark call (a floor, say) it records nothing."""
        enter, exit_, stack = self._enter, self._exit, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(span)
            return result if post is None else post(span, result)
        return traced

    def kernel(self, routine, fn):
        """The traced wrapper of a resolved kernel, one per kernel object
        so identity tests on resolved kernels still hold."""
        traced = self._kernels.get(fn)
        if traced is None:
            traced = self._kernels[fn] = self.wrap("backends.kernel",
                                                   routine, fn)
        return traced

    # -- installing ---------------------------------------------------

    def install(self, targets, methods=(), skip=()):
        """Rebind each ``(layer, name, obj, post)`` in ``targets``
        everywhere a module global or module-level dict value holds
        ``obj``, and each ``(layer, cls, attr)`` in ``methods`` on its
        class.  Modules named in ``skip`` are left alone."""
        by_id = {}
        for layer, name, obj, post in targets:
            by_id.setdefault(id(obj), (obj, self.wrap(layer, name, obj,
                                                      post)))
        for modname, module in list(sys.modules.items()):
            if modname in skip or module is None:
                continue
            space = getattr(module, "__dict__", None)
            if not isinstance(space, dict):
                continue
            for key, value in list(space.items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append(("attr", module, key, value))
                    setattr(module, key, hit[1])
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        hit = by_id.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._undo.append(("item", value, k, v))
                            value[k] = hit[1]
        for layer, cls, attr in methods:
            original = cls.__dict__[attr]
            self._undo.append(("attr", cls, attr, original))
            setattr(cls, attr, self.wrap(layer, cls.__name__ + "." + attr,
                                         original))

    def uninstall(self):
        """Put back every binding :meth:`install` replaced."""
        for kind, holder, key, original in reversed(self._undo):
            if kind == "attr":
                setattr(holder, key, original)
            else:
                holder[key] = original
        restored, self._undo = self._undo, []
        return restored


def bound(kind, holder, key):
    """The object currently bound at an undo record's location."""
    return getattr(holder, key) if kind == "attr" else holder[key]


# -- reading spans ----------------------------------------------------

def rescale(root, factor):
    """Stretch every span under ``root`` by ``factor`` about its start,
    as the host-speed scaling does to the benchmark's own timings."""
    origin = root.start
    for span in root.walk():
        span.start = origin + (span.start - origin) * factor
        span.end = origin + (span.end - origin) * factor


def layer_self(root):
    """``{layer: self ns}`` summed over every span under ``root``."""
    out = {}
    for span in root.walk():
        out[span.layer] = out.get(span.layer, 0) + span.self_time
    return out
