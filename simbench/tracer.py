"""Span tracer that times calls into the program from outside.

:meth:`Tracer.wrap` replaces a method (or property, or module function)
on the program's own classes with a timing wrapper for the life of the
tracer's ``with`` block, and restores the original on exit, so nothing
under ``src/`` changes and an untraced round runs the untouched code.
Spans are held in memory as parallel columns and written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator


class Tracer:
    """Spans (name, start, end, parent) recorded in call order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        #: counts recorded at span boundaries by ``on_call`` hooks
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.t1.append(0.0)
        self._stack.append(i)
        self.t0.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.t1[i] = time.perf_counter()
        self._stack.pop()

    def _timed(self, fn: Callable, name: str,
               on_call: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if on_call is not None:
                on_call(tracer.counts, out, *args, **kwargs)
            return out
        return wrapper

    def wrap(self, owner: object, attr: str, name: str,
             on_call: Callable | None = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.
        ``on_call(counts, result, *args, **kwargs)`` runs after each
        call, outside the span."""
        own = vars(owner).get(attr)
        raw = own if own is not None else getattr(owner, attr)
        if isinstance(raw, property):
            patched = property(self._timed(raw.fget, name, on_call))
        else:
            patched = self._timed(raw, name, on_call)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, patched)

    def iterate(self, items: Iterator, name: str) -> Iterator:
        """Yield from ``items``, timing each ``next()`` as a span."""
        it = iter(items)
        while True:
            i = self.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(i)
            yield item

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, own in reversed(self._patches):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct
        children."""
        out = [b - a for a, b in zip(self.t0, self.t1)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.t1[i] - self.t0[i]
        return out

    def write(self, path: Path) -> None:
        """Chrome trace-event JSON (``ph: X`` complete events, µs)."""
        base = self.t0[0] if self.t0 else 0.0
        events = [{"name": n, "ph": "X", "pid": 0, "tid": 0,
                   "ts": (a - base) * 1e6, "dur": (b - a) * 1e6}
                  for n, a, b in zip(self.names, self.t0, self.t1)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
