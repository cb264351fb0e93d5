"""Observability for the EnCore pipeline: metrics, tracing, logging.

Three cooperating layers, all dependency-free:

* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry` of
  counters / gauges / histograms; mergeable, JSON- and
  Prometheus-serialisable;
* :mod:`repro.obs.tracing` — hierarchical :func:`span` timing with an
  optional :class:`Tracer` retaining the tree for JSON export;
* :mod:`repro.obs.logging` — structured (key=value or JSON-lines)
  loggers behind one :func:`configure` entry point;
* :mod:`repro.obs.model` — model observability: :class:`Provenance`
  (the evidence record behind every learned rule) and
  :class:`DriftMonitor` (checked-fleet vs. training-corpus
  distribution drift, PSI/KL per attribute);
* :mod:`repro.obs.profile` — per-stage and per-shard resource tables
  (wall/CPU/RSS/allocation peaks) derived from the spans of a
  resource-sampling :class:`Tracer`, with JSON, Chrome ``trace_event``
  and text exports;
* :mod:`repro.obs.ledger` — the append-only run ledger every CLI
  train/check/audit run records into, with :func:`diff_entries` for
  run-over-run regression comparison;
* :mod:`repro.obs.fileio` — crash-safe output primitives
  (:func:`atomic_write_text`, :func:`append_line`) behind every
  trace / metrics / ledger file the layer writes;
* :mod:`repro.obs.timeline` — bounded ring-buffer time-series of
  registry samples (:class:`Timeline` + :class:`TimelineSampler`),
  with windowed rate / delta / percentile queries;
* :mod:`repro.obs.alerts` — declarative alert rules
  (``.encore/alerts.toml``) evaluated against the timeline by
  :class:`AlertEngine`, producing :class:`Incident` records with a
  firing→resolved lifecycle;
* :mod:`repro.obs.health` — :class:`HealthMonitor`, the background
  sampler+evaluator thread the serve daemon and long CLI runs share
  (process-global hook: :func:`get_monitor` / :func:`set_monitor`);
* :mod:`repro.obs.flight` — :class:`FlightRecorder`, always-on bounded
  rings of recent spans / logs / errors / incidents (process-global
  hook: :func:`get_flight` / :func:`set_flight`), the black box
  ``repro doctor`` bundles and ``GET /flightz`` serves;
* :mod:`repro.obs.doctor` — redacted diagnostic bundles
  (:func:`build_bundle` / :func:`check_bundle`) behind ``repro doctor``.

Tracing is *distributed*: :class:`TraceContext` (:func:`current_context`)
crosses process boundaries inside ENCB task frames, worker span forests
ship back on shard results, and :func:`merge_remote_spans` re-parents
them under the coordinator span — one causally-linked tree at any
``--workers N``.

Every pipeline stage records into the active registry by default, so any
``train()`` + ``check()`` run can be inspected after the fact::

    from repro.obs import get_registry, render_stats
    print(render_stats(get_registry()))

Metric and span names follow ``stage.noun.verb`` — see
``docs/observability.md`` for the full naming scheme and the mapping
from paper Tables 2/3 and §7 to metric names.
"""

from repro.obs.alerts import (
    AlertConfigError,
    AlertEngine,
    AlertRule,
    Incident,
    load_rules,
    parse_rules,
)
from repro.obs.console import render_stats
from repro.obs.doctor import DoctorError, build_bundle, check_bundle
from repro.obs.fileio import atomic_write_text, append_line
from repro.obs.flight import FlightRecorder, get_flight, set_flight
from repro.obs.health import (
    HealthMonitor,
    build_monitor,
    get_monitor,
    set_monitor,
)
from repro.obs.ledger import Ledger, LedgerEntry, diff_entries
from repro.obs.logging import StructuredLogger, configure, get_logger
from repro.obs.model import DriftMonitor, DriftSummary, Provenance
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricKindError,
    MetricsRegistry,
    get_registry,
    merge_snapshot,
    reset_registry,
    set_registry,
    use_registry,
)
from repro.obs.timeline import Timeline, TimelineSampler
from repro.obs.profile import (
    chrome_trace,
    profile_document,
    profile_tables,
    render_profile,
)
from repro.obs.tracing import (
    Span,
    TraceContext,
    TraceExemplars,
    Tracer,
    current_context,
    get_tracer,
    merge_remote_spans,
    set_tracer,
    span,
    use_tracer,
)

__all__ = [
    "AlertConfigError",
    "AlertEngine",
    "AlertRule",
    "Counter",
    "DoctorError",
    "DriftMonitor",
    "DriftSummary",
    "FlightRecorder",
    "Gauge",
    "HealthMonitor",
    "Histogram",
    "Incident",
    "Ledger",
    "LedgerEntry",
    "MetricKindError",
    "MetricsRegistry",
    "Provenance",
    "Span",
    "StructuredLogger",
    "Timeline",
    "TimelineSampler",
    "TraceContext",
    "TraceExemplars",
    "Tracer",
    "append_line",
    "atomic_write_text",
    "build_bundle",
    "build_monitor",
    "check_bundle",
    "chrome_trace",
    "configure",
    "current_context",
    "diff_entries",
    "get_flight",
    "get_logger",
    "get_monitor",
    "get_registry",
    "get_tracer",
    "load_rules",
    "parse_rules",
    "merge_remote_spans",
    "merge_snapshot",
    "profile_document",
    "profile_tables",
    "render_profile",
    "render_stats",
    "reset_registry",
    "set_flight",
    "set_monitor",
    "set_registry",
    "set_tracer",
    "span",
    "use_registry",
    "use_tracer",
]
