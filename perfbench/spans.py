"""Outside-in span recorder for the traced benchmark run.

The program under test is not edited. Instead :func:`patched` replaces each
listed public function with a recording wrapper at every module binding of
the package that holds it (a function imported by name into another module is
wrapped there too), and puts the originals back on exit.

A span records its name, start and end (``perf_counter_ns``), the index of its
parent span and the request id current when it opened. Spans stay in memory
until the run writes them out. A span's self time is its duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, REQUEST = range(5)


class Recorder:
    """In-memory span list with a call stack; single-threaded by design."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self.paused = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request=None):
        """Record a span around a block; ``request`` sets the request id."""
        if self.paused:
            yield
            return
        outer = self.request
        if request is not None:
            self.request = request
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.request]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[END] = time.perf_counter_ns()
            self._stack.pop()
            self.request = outer

    @contextmanager
    def pause(self):
        """Run a block without recording (correctness checks, warm-up)."""
        was = self.paused
        self.paused = True
        try:
            yield
        finally:
            self.paused = was

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def to_csv(self) -> str:
        lines = ["idx,name,start_ns,end_ns,parent,request"]
        for i, (name, start, end, parent, request) in enumerate(self.spans):
            req = "" if request is None else request
            lines.append(f"{i},{name},{start},{end},{parent},{req}")
        return "\n".join(lines) + "\n"


class NullRecorder:
    """Same interface as :class:`Recorder`, records nothing (untraced runs)."""

    @contextmanager
    def span(self, name, request=None):
        yield

    @contextmanager
    def pause(self):
        yield


def self_times(spans) -> list[int]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def ancestors(spans, idx: int):
    """Names of the spans enclosing span ``idx``, innermost first."""
    parent = spans[idx][PARENT]
    while parent >= 0:
        yield spans[parent][NAME]
        parent = spans[parent][PARENT]


@contextmanager
def patched(recorder: Recorder, targets, package: str):
    """Wrap each ``(span name, owner, attribute)`` target while the block runs.

    ``owner`` is a module or a class. A module-level function is replaced at
    every module of ``package`` whose namespace binds the same object; a
    method is replaced on its class. Every replacement is undone on exit.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for name, owner, attr in targets:
            original = getattr(owner, attr)
            wrapper = recorder.wrap(name, original)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == package
                                          or mod_name.startswith(package + ".")):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, binding, original))
                        setattr(module, binding, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
