"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``instrument`` swaps
each layer's public callable for a wrapper that records a span, and
``restore`` puts the originals back. Nothing in ``src/`` is edited.

A span is ``[name, start, end, parent, op, size]``; ``parent`` indexes
the enclosing span (-1 at top level), ``op`` is the identifier shared by
the spans of one operation (one solve, one adaptive run, one model), and
``size`` is a work count (rows) taken from the call's arguments.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable

NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: str | None = None
        self.enabled = True
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    @contextmanager
    def span(self, name: str, size: float = 0.0):
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, size])
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[i][END] = time.perf_counter()

    @contextmanager
    def paused(self):
        """Run a block with every wrapper passing straight through."""
        prev, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = prev

    def wrap(self, fn: Callable, name: str,
             size: Callable[..., float] | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name, size(*args, **kwargs) if size else 0.0):
                return fn(*args, **kwargs)
        return traced

    def instrument(self, targets) -> None:
        """Wrap ``(owner, attr, span_name, size_fn)`` targets in place.

        ``owner`` is a module, a class or a dict; ``restore`` undoes it.
        """
        for owner, attr, name, size in targets:
            if isinstance(owner, dict):
                orig = owner[attr]
                owner[attr] = self.wrap(orig, name, size)
                self._undo.append(functools.partial(owner.__setitem__, attr, orig))
            else:
                orig = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(orig, name, size))
                self._undo.append(functools.partial(setattr, owner, attr, orig))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def select(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]

    def dump(self, path, header: dict) -> None:
        """Write the spans out (called once, when the run ends)."""
        with open(path, "w") as f:
            json.dump({"header": header,
                       "fields": ["name", "start", "end", "parent", "op", "size"],
                       "spans": self.spans}, f)


def durations(spans: list[list]) -> list[float]:
    return [s[END] - s[START] for s in spans]
