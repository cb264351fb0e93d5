"""Hierarchical spans over the pipeline stages, with distributed identity.

A *span* is one timed region of work (``train.assemble``,
``infer.template``, ``detect``) with attributes (item counts, names) and
child spans.  Instrumented code opens spans through the module-level
:func:`span` context manager:

* a ``*.seconds`` histogram is **always** observed in the active
  :mod:`repro.obs.metrics` registry — stage timings cost two clock reads
  even with tracing off;
* the span *tree* is only retained when a :class:`Tracer` is installed
  via :func:`set_tracer` (the CLI's ``--trace FILE`` does this), keeping
  memory flat for long-lived processes.

Every tracer carries a :class:`TraceContext` — ``trace_id`` /
``span_id`` / ``parent_id`` — and assigns each span a deterministic id
derived from the trace id and a per-tracer sequence counter (never from
``uuid``/``random``, so tests with injected clocks stay reproducible).
The coordinator serialises :func:`current_context` into ENCB task
frames; worker processes rebuild a tracer seeded with their shard index
and ship their span forest back as a :func:`Tracer.snapshot`, which
:func:`merge_remote_spans` re-parents under the coordinator span.  The
Chrome-trace exporter (:mod:`repro.obs.profile`) then renders one
causally-linked tree at any ``--workers N``.

Tracers take an injectable clock (any ``() -> float`` callable) so tests
can assert on exact durations deterministically; trace trees serialise
to nested JSON via :meth:`Tracer.to_dict` / :meth:`Tracer.save`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.obs.metrics import get_registry
from repro.obs.profile import get_profiler


def _derive_id(*parts: object) -> str:
    """A 16-hex-char id, deterministic in its parts (no uuid/random)."""
    basis = "|".join(str(part) for part in parts)
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]


#: Process-global seeded counter behind :func:`new_trace_id` — two
#: tracers created at the same (injected) clock reading still get
#: distinct trace ids.
_trace_seq = 0
_trace_seq_lock = threading.Lock()


def new_trace_id(clock: Callable[[], float] = time.perf_counter) -> str:
    """A fresh deterministic trace id from the clock + seeded counter."""
    global _trace_seq
    with _trace_seq_lock:
        _trace_seq += 1
        seq = _trace_seq
    return _derive_id("trace", f"{clock():.9f}", os.getpid(), seq)


class TraceContext:
    """The propagated identity of one distributed trace.

    ``trace_id`` names the whole request/run; ``span_id`` is the
    *remote parent* — the span that was active when the context was
    captured — so spans opened under a context rebuilt on the far side
    of a process boundary re-parent under the shipping span.
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: str, span_id: str = "",
                 parent_id: str = "") -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    @classmethod
    def root(cls, trace_id: str) -> "TraceContext":
        """A context that starts a new trace (no parent span)."""
        return cls(trace_id)

    def to_dict(self) -> Dict[str, str]:
        out = {"trace_id": self.trace_id}
        if self.span_id:
            out["span_id"] = self.span_id
        if self.parent_id:
            out["parent_id"] = self.parent_id
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "TraceContext":
        return cls(
            str(data.get("trace_id", "")),
            span_id=str(data.get("span_id", "")),
            parent_id=str(data.get("parent_id", "")),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceContext(trace_id={self.trace_id!r}, "
                f"span_id={self.span_id!r})")


class Span:
    """One timed, attributed, nestable region of work."""

    __slots__ = ("name", "attributes", "start", "end", "children",
                 "span_id", "parent_id")

    def __init__(self, name: str, attributes: Optional[Dict[str, object]] = None) -> None:
        self.name = name
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.start: float = 0.0
        self.end: Optional[float] = None
        self.children: List[Span] = []
        #: Deterministic identity assigned by the owning tracer
        #: ("" for bare spans opened without one).
        self.span_id: str = ""
        self.parent_id: str = ""

    @property
    def duration(self) -> float:
        """Seconds between open and close (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def annotate(self, **fields: object) -> "Span":
        """Attach item counts / context to the span; chainable."""
        self.attributes.update(fields)
        return self

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "duration_s": round(self.duration, 9)}
        if self.span_id:
            out["span_id"] = self.span_id
        if self.parent_id:
            out["parent_id"] = self.parent_id
        if self.attributes:
            out["attributes"] = {k: v for k, v in sorted(self.attributes.items())}
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


def span_to_wire(item: Span) -> dict:
    """Wire form of a span tree with absolute (tracer-clock) timestamps.

    Unlike :meth:`Span.to_dict` this keeps ``ts`` so a snapshot shipped
    across a process boundary can be re-anchored onto the coordinator's
    clock line (see ``chrome_trace`` in :mod:`repro.obs.profile`).
    """
    out: dict = {
        "name": item.name,
        "ts": item.start,
        "dur": item.duration,
    }
    if item.span_id:
        out["span_id"] = item.span_id
    if item.parent_id:
        out["parent_id"] = item.parent_id
    if item.attributes:
        out["attributes"] = {k: v for k, v in sorted(item.attributes.items())}
    if item.children:
        out["children"] = [span_to_wire(child) for child in item.children]
    return out


class Tracer:
    """Collects a forest of spans with a deterministic-friendly clock."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        context: Optional[TraceContext] = None,
        seed: str = "",
    ) -> None:
        self.clock = clock
        #: Trace identity; a fresh deterministic root when none is given.
        self.context = (context if context is not None
                        else TraceContext.root(new_trace_id(clock)))
        #: Extra basis folded into span ids so two tracers of the same
        #: trace (coordinator + shard workers) never collide.
        self.seed = seed
        #: Epoch↔clock anchor pair for cross-process timestamp mapping.
        self.anchor: Dict[str, float] = {
            "epoch": time.time(), "clock": clock(),
        }
        self.roots: List[Span] = []
        #: Remote span snapshots (worker forests) merged via
        #: :meth:`merge_remote`; each carries its own anchor.
        self.remote: List[dict] = []
        self._local = threading.local()
        self._seq = 0
        self._seq_lock = threading.Lock()

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    def _next_span_id(self) -> str:
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        return _derive_id(self.context.trace_id, self.seed, seq)

    # -- span lifecycle (used by the module-level ``span``) --------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_span(self, name: str, attributes: Dict[str, object]) -> Span:
        opened = Span(name, attributes)
        opened.span_id = self._next_span_id()
        stack = self._stack()
        if stack:
            opened.parent_id = stack[-1].span_id
            stack[-1].children.append(opened)
        else:
            # A local root: its parent is the remote span (if any) that
            # shipped this tracer's context across a process boundary.
            opened.parent_id = self.context.span_id
            self.roots.append(opened)
        stack.append(opened)
        opened.start = self.clock()
        return opened

    def close_span(self, closing: Span) -> None:
        closing.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is closing:
            stack.pop()
        recorder = get_flight()
        if recorder is not None:
            recorder.record_span(closing, trace_id=self.context.trace_id)

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a span on this tracer directly (bypasses the global one).

        A span whose body raises is still closed, annotated with
        ``error=<exception type>`` so failed stages are visible in the
        trace instead of silently truncating it.
        """
        opened = self.open_span(name, dict(attributes))
        try:
            yield opened
        except BaseException as exc:
            opened.annotate(error=type(exc).__name__)
            raise
        finally:
            self.close_span(opened)

    def current_span(self) -> Optional[Span]:
        """The calling thread's innermost open span (or ``None``)."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- distributed propagation -----------------------------------------------

    def snapshot(self, **meta: object) -> dict:
        """Everything a coordinator needs to adopt this tracer's spans.

        Shipped back on ``ShardResult``: the span forest
        in wire form (absolute local timestamps), this process' epoch↔
        clock anchor, and the remote parent the forest re-parents under.
        """
        out: dict = {
            "trace_id": self.context.trace_id,
            "parent_id": self.context.span_id,
            "anchor": dict(self.anchor),
            "spans": [span_to_wire(root) for root in self.roots],
        }
        out.update(meta)
        return out

    def merge_remote(self, snapshot: dict) -> None:
        """Adopt one remote span snapshot (associative, like metrics)."""
        if snapshot and snapshot.get("spans"):
            self.remote.append(snapshot)

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {
            "trace_id": self.context.trace_id,
            "spans": [root.to_dict() for root in self.roots],
        }
        if self.remote:
            out["remote"] = [dict(snapshot) for snapshot in self.remote]
        return out

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the trace atomically (parents created, tmp + replace):
        a crash mid-save leaves the previous file, never a truncated
        JSON document."""
        from repro.obs.fileio import atomic_write_text

        return atomic_write_text(path, self.to_json() + "\n")

    def reset(self) -> None:
        self.roots.clear()
        self.remote.clear()
        self._local = threading.local()


class TraceExemplars:
    """Tail-based exemplar capture: keep the interesting traces in full.

    A daemon cannot retain every request trace, but the ones worth
    keeping are exactly the ones sampling-by-rate loses: the slowest
    requests and the errored ones.  This store keeps the top-*capacity*
    slowest traces plus the last *capacity* error traces (complete span
    trees, not summaries), which is what ``GET /tracez`` serves.  All
    mutation happens under one lock; ``offer`` is O(capacity) so it adds
    nothing measurable to the request path.
    """

    def __init__(self, capacity: int = 5) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: Kept sorted ascending by seconds; index 0 is the evictee.
        self._slow: List[dict] = []
        #: Most recent error traces, oldest first.
        self._errors: List[dict] = []
        self._seen = 0

    def offer(self, trace: dict, seconds: float, route: str = "",
              status: int = 200, request_id: str = "") -> None:
        """Consider one finished request's trace for retention."""
        entry = {
            "request_id": request_id,
            "route": route,
            "status": status,
            "seconds": round(seconds, 6),
            "trace": trace,
        }
        with self._lock:
            self._seen += 1
            if status >= 500:
                self._errors.append(entry)
                if len(self._errors) > self.capacity:
                    self._errors.pop(0)
            self._slow.append(entry)
            self._slow.sort(key=lambda item: item["seconds"])
            if len(self._slow) > self.capacity:
                self._slow.pop(0)

    def to_dict(self) -> dict:
        """The ``/tracez`` payload: slowest-first + newest-error-first."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "seen": self._seen,
                "slowest": [dict(item) for item in reversed(self._slow)],
                "errored": [dict(item) for item in reversed(self._errors)],
            }


# -- the process-local active tracer -------------------------------------------

_active_tracer: Optional[Tracer] = None

#: Per-thread tracer override (see :func:`use_tracer`).
_thread_override = threading.local()


def get_tracer() -> Optional[Tracer]:
    """The tracer :func:`span` records into for the calling thread.

    A thread inside a :func:`use_tracer` block gets its request-scoped
    tracer; otherwise the process-local tracer (or ``None``) applies.
    """
    override = getattr(_thread_override, "tracer", None)
    if override is not None:
        return override
    return _active_tracer


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or, with ``None``, remove) the process-local tracer."""
    global _active_tracer
    _active_tracer = tracer
    return tracer


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Collect this *thread*'s spans into *tracer*.

    The serve daemon opens one per-request tracer so every request gets
    its own span tree (root ``serve.<route>``, children the pipeline
    stages it ran) without cross-request interleaving in a shared
    process tracer.  Overrides nest and restore on exit.
    """
    previous = getattr(_thread_override, "tracer", None)
    _thread_override.tracer = tracer
    try:
        yield tracer
    finally:
        _thread_override.tracer = previous


def current_context() -> Optional[TraceContext]:
    """The calling thread's propagatable trace context (or ``None``).

    ``span_id`` is the innermost open span — what a task frame built
    right now should name as its remote parent.  This is what
    ``engine/sharding.py`` serialises into ENCB task payloads, and what
    structured log records join traces through.
    """
    tracer = get_tracer()
    if tracer is None:
        return None
    active = tracer.current_span()
    span_id = active.span_id if active is not None else tracer.context.span_id
    return TraceContext(tracer.context.trace_id, span_id=span_id)


def merge_remote_spans(snapshot: dict) -> None:
    """Fold a worker span snapshot into the active tracer (no-op without
    one) — the span analogue of ``merge_snapshot`` for metrics."""
    if not snapshot:
        return
    tracer = get_tracer()
    if tracer is not None:
        tracer.merge_remote(snapshot)


@contextmanager
def span(name: str, **attributes: object) -> Iterator[Span]:
    """Time a pipeline region; retain the tree only if a tracer is active.

    Usage::

        with span("infer.template", template=t.name) as s:
            ...
            s.annotate(pairs=pair_count)

    When a :class:`~repro.obs.profile.StageProfiler` is installed (the
    CLI's ``--profile``), the region's CPU time and memory peaks are
    sampled alongside the wall clock; a raising body still closes the
    span, annotated with ``error=<exception type>``.
    """
    tracer = get_tracer()
    if tracer is not None:
        clock = tracer.clock
        opened = tracer.open_span(name, dict(attributes))
    else:
        clock = time.perf_counter
        opened = Span(name, dict(attributes))
        opened.start = clock()
    profiler = get_profiler()
    profile_cm = profiler.profile(name) if profiler is not None else None
    if profile_cm is not None:
        profile_cm.__enter__()
    try:
        yield opened
    except BaseException as exc:
        opened.annotate(error=type(exc).__name__)
        raise
    finally:
        if profile_cm is not None:
            profile_cm.__exit__(None, None, None)
        if tracer is not None:
            tracer.close_span(opened)
        else:
            opened.end = clock()
            recorder = get_flight()
            if recorder is not None:
                recorder.record_span(opened)
        get_registry().histogram(f"{name}.seconds").observe(opened.duration)


# Imported late so repro.obs.flight (which needs no tracing symbols at
# import time) never cycles back through this module.
from repro.obs.flight import get_flight  # noqa: E402
