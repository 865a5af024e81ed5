"""Spans, call counts and output taps around finetrop's functions.

Everything here is installed from outside the package: a function is
replaced, in every finetrop module that holds it, by a wrapper that
records what the benchmark needs and then calls the original.  Nothing
under ``src/`` is edited, and ``uninstall`` puts the originals back.

Spans (name, start, end, parent) are kept in flat arrays in memory.  The
arithmetic layers (fields, value group, extension addition) are called
millions of times per run, so they get plain call counters instead.
"""

from __future__ import annotations

import time
from array import array


def patch_function(modules, fn, wrapper, undo: list) -> None:
    """Replace ``fn`` by ``wrapper`` wherever a module holds it by name."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, fn))


def unpatch(undo: list) -> None:
    while undo:
        owner, attr, original = undo.pop()
        setattr(owner, attr, original)


class Tap:
    """Keeps the arguments and result of the latest call of one function.

    The benchmark reads program outputs through taps where a harness
    consumes them internally (root records inside ``kapranov_harness``,
    the intersection inside ``fundamental_harness``).
    """

    def __init__(self, modules, fn):
        self.args = None
        self.result = None
        self._undo: list = []

        def tapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.args, self.result = args, out
            return out

        patch_function(modules, fn, tapped, self._undo)

    def remove(self) -> None:
        unpatch(self._undo)

    def take(self):
        args, out = self.args, self.result
        self.args = self.result = None
        return args, out


class Tracer:
    """Span recorder plus named counters, installed by monkey-patching."""

    def __init__(self, modules):
        self.modules = modules
        self.names: list[str] = []
        self.counts: dict[str, int] = {}
        self._undo: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []

    # --- recording ----------------------------------------------------

    def span(self, module, attr: str, name: str, on_result=None) -> None:
        """Record a span for every call of ``module.attr``.

        ``on_result(counts, args, result)`` may add result-derived counts
        (cells returned, terms produced); it runs after the span closes.
        """
        fn = getattr(module, attr)
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, args, out)
            return out

        patch_function(self.modules, fn, traced, self._undo)

    def count_function(self, module, attr: str, key: str) -> None:
        fn = getattr(module, attr)
        self.counts.setdefault(key, 0)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        patch_function(self.modules, fn, counted, self._undo)

    def count_method(self, cls, attr: str, key: str) -> None:
        """Count calls of a method defined on ``cls`` itself."""
        fn = cls.__dict__[attr]
        self.counts.setdefault(key, 0)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(cls, attr, counted)
        self._undo.append((cls, attr, fn))

    def add_counter(self, key: str) -> None:
        self.counts.setdefault(key, 0)

    def uninstall(self) -> None:
        unpatch(self._undo)

    # --- reading ------------------------------------------------------

    def span_stats(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, busy seconds).

        Busy time sums the outermost spans of each name only, so a
        recursive function is not counted twice.  Spans are numbered in
        the order they opened and nest properly, so a span that opens
        before the last outermost span of its name has closed lies inside
        it.
        """
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        outer_end = [float("-inf")] * len(self.names)
        for nid, t0, t1 in zip(self.span_name, self.span_start, self.span_end):
            calls[nid] += 1
            if t0 >= outer_end[nid]:
                busy[nid] += t1 - t0
                outer_end[nid] = t1
        return {name: (calls[i], busy[i]) for i, name in enumerate(self.names)}
