"""In-memory spans around the package's public functions.

A span is recorded by wrapping a function at the module attribute its
callers look up, so the package itself is not edited.  Spans keep their
name, start, end, parent, thread and trial; they stay in memory until the
traced process ends.  Self time is a span's duration minus the durations
of its direct children, which always run on the same thread because the
parent link comes from a per-thread stack.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: "Span | None"
    thread: int
    trial: int | None
    start: float = 0.0
    end: float = 0.0
    ok: bool = False
    children_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Wraps functions and records one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, trial: int | None = None):
        """Record one span on the calling thread around a with-block."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trial is None and parent is not None:
            trial = parent.trial
        span = Span(name, parent, threading.get_ident(), trial)
        stack.append(span)
        ok = False
        span.start = time.perf_counter()
        try:
            yield span
            ok = True
        finally:
            span.end = time.perf_counter()
            span.ok = ok
            stack.pop()
            if parent is not None:
                parent.children_s += span.duration
            self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(self, module, attr: str, name: str, trial_arg: int | None = None,
             on_return=None) -> None:
        """Replace module.attr, if present, by a wrapper recording one span
        per call.  trial_arg is the positional argument holding the trial
        index; on_return(span, args, kwargs, result) may attach attributes.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            trial = None
            if trial_arg is not None and len(args) > trial_arg:
                trial = int(args[trial_arg])
            with self.span(name, trial) as span:
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(module, attr, wrapper)

    def by_name(self) -> dict[str, list[Span]]:
        groups: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            groups[s.name].append(s)
        return groups

