"""In-memory span recorder, call-site wrappers and span-tree analysis.

The traced run wraps public callables of the library from the outside
(:class:`Patches`); nothing under ``src/`` is edited. Every wrapped call
records one :class:`Span` — name, start, end, parent span, thread and the
job or request reference that was current on its thread — into a list in
memory. The list is written out once, when the run ends.

Parents are tracked per thread, so a span's parent always lives on the
same thread. Work that a job hands to another thread (the datapipe's
prefetch producer, the serving batcher's worker pool) records root spans
on that thread. Those spans wrap only the callables that compute, never
the queue waits around them, so they report busy time, not blocking time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    ref: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread of the workload process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Labels of the wrappers that recorded at least one span.
        self.fired: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # ----------------------------------------------------------------- #
    # Recording
    # ----------------------------------------------------------------- #

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def ref(self) -> str | None:
        """The job or request reference current on this thread."""
        return getattr(self._local, "ref", None)

    @ref.setter
    def ref(self, value: str | None) -> None:
        self._local.ref = value

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids), name, time.perf_counter(), 0.0,
            stack[-1].sid if stack else None,
            threading.current_thread().name, self.ref,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def span(self, name: str):
        return _SpanContext(self, name)

    def add(self, name: str, start: float, end: float,
            parent: Span | None = None) -> Span:
        """Record a span measured elsewhere (e.g. between two hook calls)
        on the calling thread."""
        span = Span(next(self._ids), name, start, end,
                    parent.sid if parent is not None else None,
                    threading.current_thread().name, self.ref)
        with self._lock:
            self.spans.append(span)
        return span

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    # ----------------------------------------------------------------- #
    # Output
    # ----------------------------------------------------------------- #

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "thread": s.thread,
                    "ref": s.ref,
                }) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        self.span = self.tracer.begin(self.name)
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.span)


# --------------------------------------------------------------------- #
# Wrapping callables from the outside
# --------------------------------------------------------------------- #


def traced(tracer: Tracer, fn, name: str, when=None, after=None, label=None):
    """``fn`` wrapped so each call records a span called ``name``.

    A call made while a span of the same name is already open on the
    thread is not recorded again (``hop_features`` calls ``propagate``;
    both belong to one ``perf.propagate`` span). ``when(*args)`` can veto
    recording for a call, and ``after(result, *args)`` sees every result.
    ``label`` goes into ``tracer.fired`` once the wrapper records a span.
    """
    label = label or name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        top = tracer.current()
        if (top is not None and top.name == name) or (
            when is not None and not when(*args)
        ):
            return fn(*args, **kwargs)
        tracer.fired.add(label)
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(result, *args)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


class Patches:
    """Install wrappers on module or class attributes and take them all
    off again; :meth:`remove` restores every original object."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        if isinstance(original, staticmethod):
            setattr(owner, attr, staticmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------- #


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of it that
    its children on the same thread cover. Children on other threads ran
    beside the parent, not inside it, and take nothing away."""
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None and parent.thread == s.thread:
            children[parent.sid].append((s.start, s.end))
    return {
        s.sid: s.duration - covered(children[s.sid], s.start, s.end)
        for s in spans
    }


def unattributed_share(spans: list[Span], job_prefix: str = "job.") -> float:
    """Share of job wall time on the job's own thread that no layer span
    covers. Jobs are the spans named ``job.*``; every other span on the
    same thread inside a job's window counts as attributed."""
    jobs = [s for s in spans if s.name.startswith(job_prefix)]
    total = sum(j.duration for j in jobs)
    if total <= 0:
        return 0.0
    layer_by_thread: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if not s.name.startswith(job_prefix):
            layer_by_thread[s.thread].append((s.start, s.end))
    missing = sum(
        j.duration - covered(layer_by_thread[j.thread], j.start, j.end)
        for j in jobs
    )
    return missing / total


def totals(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """``name -> (calls, inclusive seconds, self seconds)``."""
    selfs = self_times(spans)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = out[s.name]
        row[0] += 1
        row[1] += s.duration
        row[2] += selfs[s.sid]
    return {k: (v[0], v[1], v[2]) for k, v in out.items()}


def self_times_under(spans: list[Span], root_name: str) -> dict[str, float]:
    """Summed self time per span name over every subtree rooted at a span
    called ``root_name`` (the root's own self time included)."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def inside(s: Span) -> bool:
        while s is not None:
            if s.name == root_name:
                return True
            s = by_id.get(s.parent) if s.parent is not None else None
        return False

    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if inside(s):
            out[s.name] += selfs[s.sid]
    return dict(out)
