"""Spans around the program's layer boundaries, recorded from outside it.

``Tracer.wrap`` replaces a function or method with a wrapper that records
a span (name, start, end, parent) and sets a Spark job group per span, so
every job is attributed to the innermost span that triggered it. Spans
are recorded only inside a root span opened with ``Tracer.span``; outside
one the wrappers pass straight through, so one process can alternate
traced and untraced steps.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "sid", "parent", "start", "end", "jobs", "stages", "tasks")

    def __init__(self, name: str, sid: int, parent: int | None):
        self.name, self.sid, self.parent = name, sid, parent
        self.start = time.perf_counter()
        self.end = self.start
        self.jobs = self.stages = self.tasks = 0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    def __init__(self, sc, probe):
        self.sc = sc
        self.probe = probe
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._unharvested = 0
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        s = Span(name, len(self.spans), parent)
        self.spans.append(s)
        self._stack.append(s)
        self.sc.setJobGroup(f"pb{s.sid}", name)
        return s

    def _close(self, s: Span) -> None:
        self._stack.pop()
        if self._stack:
            p = self._stack[-1]
            self.sc.setJobGroup(f"pb{p.sid}", p.name)
        else:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        s.end = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span ``name`` around every call of ``owner.attr`` inside a root span."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def harvest(self) -> None:
        """Attach job, stage and task counts to the spans recorded since the last call."""
        self.probe.drain_events()
        for s in self.spans[self._unharvested:]:
            s.jobs, s.stages, s.tasks = self.probe.jobs_of_group(f"pb{s.sid}")
        self._unharvested = len(self.spans)


def summarize(spans: list[Span], root: str) -> dict[str, dict[str, float]]:
    """Totals per span name under root spans named ``root``.

    ``ms``, ``jobs``, ``stages`` and ``tasks`` are inclusive of child
    spans; ``self_ms`` excludes them. A span nested in a span of the same
    name (a recursive call) adds to ``calls`` only, so each total counts
    every interval once.
    """
    incl = [[s.jobs, s.stages, s.tasks] for s in spans]
    child_ms = [0.0] * len(spans)
    for s in reversed(spans):  # children always come after their parent
        if s.parent is not None:
            incl[s.parent] = [a + b for a, b in zip(incl[s.parent], incl[s.sid])]
            child_ms[s.parent] += s.ms
    root_of: list[int] = []
    for s in spans:
        root_of.append(s.sid if s.parent is None else root_of[s.parent])
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "jobs": 0, "stages": 0, "tasks": 0}
    )
    for s in spans:
        if spans[root_of[s.sid]].name != root:
            continue
        t = out[s.name]
        t["calls"] += 1
        t["self_ms"] += s.ms - child_ms[s.sid]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            t["ms"] += s.ms
            t["jobs"] += incl[s.sid][0]
            t["stages"] += incl[s.sid][1]
            t["tasks"] += incl[s.sid][2]
    return out
