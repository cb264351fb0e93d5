"""The serve daemon: a threaded HTTP detection service over one model.

``repro serve`` turns the batch pipeline into EnCore's intended end
state — an always-on checker fleets query continuously — without
forking any detection logic: the daemon loads a model snapshot once
(the same file ``repro train --model`` writes and ``repro check
--model`` reads) and serves concurrent check/explain/suggest traffic
from one snapshot-restored :class:`~repro.core.pipeline.EnCore` per
loaded snapshot.  Checking writes nothing to the model except the drift
monitor, which takes its own lock, so every request thread shares it.

Observability is request-scoped (see ``docs/serving.md``):

* every request runs under a private metrics registry and tracer
  (:func:`repro.obs.metrics.use_registry` /
  :func:`repro.obs.tracing.use_tracer`) folded into the process
  registry under one lock — pipeline counters stay exact under
  concurrency and ``serve.request.latency`` histograms (route/status
  labels) make p50/p99 SLOs scrapeable from ``/metrics``;
* ``/statusz`` reports uptime, the snapshot digest, live
  in-flight/queue depth and the SLO summary computed through
  :meth:`~repro.obs.metrics.Histogram.quantile`;
* per-request ledger entries join the same run ledger the CLI writes,
  so an HTTP check and a CLI check of the same image diff clean.

Degradation is explicit: admission control sheds with 429 (never a
latency cliff), hot reload swaps models without dropping traffic, and a
failed reload keeps the old model serving.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union
from contextlib import contextmanager

from repro.core.persistence import ModelSnapshot, load_snapshot
from repro.core.pipeline import EnCore, EnCoreConfig
from repro.obs import get_logger
from repro.obs.ledger import (
    Ledger,
    LedgerEntry,
    default_ledger,
    fingerprint_payload,
)
from repro.obs.flight import FlightRecorder, get_flight, set_flight
from repro.obs.metrics import Histogram, MetricsRegistry, get_registry, use_registry
from repro.obs.tracing import TraceExemplars

log = get_logger("serve")

#: Latency buckets tuned for request service times: sub-millisecond
#: cache-warm checks up to multi-second batch requests.  Constant across
#: request registries so per-request histograms always merge.
SERVE_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: The model-serving POST routes (admission-controlled).
POST_ROUTES: Tuple[str, ...] = ("/v1/check", "/v1/explain", "/v1/suggest")


class ApiError(Exception):
    """A client-visible request failure with an HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to run the daemon."""

    snapshot: Union[str, Path] = "model.json"
    host: str = "127.0.0.1"
    port: int = 8080
    max_inflight: int = 8
    max_queue: int = 16
    queue_timeout_s: float = 5.0
    #: Workers for batch ``/v1/check`` requests (``images`` list): > 1
    #: fans the batch onto the existing BatchChecker process pool.
    batch_workers: int = 1
    batch_chunk_size: Optional[int] = None
    #: Poll the snapshot file's mtime every N seconds (None = SIGHUP only).
    reload_poll_s: Optional[float] = None
    #: Run-ledger path (None = the default ``.encore/ledger.jsonl``).
    ledger_path: Optional[Union[str, Path]] = None
    #: Disable the ledger entirely (start/reload/request entries).
    no_ledger: bool = False
    #: Append one ledger entry per successful model-serving request.
    record_requests: bool = True
    #: Content-addressed result-cache directory (``--cache``); ``None``
    #: disables caching.  One :class:`~repro.engine.cache.ResultCache`
    #: serves every model generation and the batch checker's worker
    #: shards, so a target checked by any request warms the rest.
    cache_dir: Optional[Union[str, Path]] = None
    #: Alert rule file (``repro serve --alerts``).  ``None`` auto-loads
    #: ``.encore/alerts.toml`` when it exists (malformed auto-detected
    #: files log and degrade to no rules; an explicit path that fails
    #: to parse refuses to start).  The timeline samples either way, so
    #: ``/alertz`` always has history even with zero rules.
    alerts_path: Optional[Union[str, Path]] = None
    #: Seconds between background timeline samples / rule evaluations.
    alerts_interval_s: float = 5.0
    #: Pipeline configuration for target assembly (defaults match the
    #: CLI's defaults, which is what pins CLI/HTTP report identity).
    encore: EnCoreConfig = field(default_factory=EnCoreConfig)


class ModelPool:
    """One snapshot-restored EnCore per generation, shared by every request;
    :meth:`swap` builds the next one outside the lock, and in-flight
    requests keep the one they hold, which is freed with its last request."""

    def __init__(self, config: EnCoreConfig, snapshot: ModelSnapshot, cache=None) -> None:
        self._config = config
        self._cache = cache  # one ResultCache across generations
        self._lock = threading.Lock()
        self._current: Tuple[Optional[EnCore], int] = (None, 0)
        self.info: Dict[str, object] = {}
        self.swap(snapshot)

    def swap(self, snapshot: ModelSnapshot) -> Dict[str, object]:
        """Install *snapshot* as the next generation; returns its identity."""
        encore = EnCore(replace(self._config))
        encore._install_snapshot(snapshot)
        encore.set_cache(self._cache)
        model = encore.model
        info = {"ruleset_digest": model.ruleset_digest(),
                "dataset_fingerprint": model.corpus_fingerprint(),
                "rule_count": model.rule_count, "training_size": len(model.dataset)}
        with self._lock:
            self._current = (encore, self._current[1] + 1)
            self.info = info
        return info

    @property
    def generation(self) -> int:
        return self._current[1]  # one read of an immutable pair

    def acquire(self) -> Tuple[EnCore, int]:
        with self._lock:
            return self._current  # type: ignore[return-value]

    def release(self, encore: EnCore, generation: int) -> None:
        """Keeps no state; stays as the lease's end hook the layer bench times."""

    @contextmanager
    def lease(self) -> Iterator[EnCore]:
        encore, generation = self.acquire()
        try:
            yield encore
        finally:
            self.release(encore, generation)


class DetectionServer(ThreadingHTTPServer):
    """The daemon: HTTP front end + model pool + observability spine."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, config: ServeConfig) -> None:
        from repro.serve.admission import AdmissionController
        from repro.serve.handlers import ServeHandler
        from repro.serve.reload import SnapshotWatcher

        self.config = config
        self.started_monotonic = time.monotonic()
        self.started_epoch = time.time()
        snapshot_path = Path(config.snapshot)
        snapshot = load_snapshot(snapshot_path)
        self.cache = None
        if config.cache_dir is not None:
            from repro.engine.cache import ResultCache

            self.cache = ResultCache(config.cache_dir)
        self.pool = ModelPool(config.encore, snapshot, cache=self.cache)
        self.snapshot_loaded_at = time.time()
        self.reloads = 0
        self.reload_failures = 0
        self.admission = AdmissionController(
            max_inflight=config.max_inflight,
            max_queue=config.max_queue,
            queue_timeout_s=config.queue_timeout_s,
        )
        #: The process registry request registries fold into; every
        #: touch (fold, scrape, SLO summary) happens under metrics_lock.
        self.registry: MetricsRegistry = get_registry()
        self.metrics_lock = threading.Lock()
        self.ledger: Optional[Ledger] = (
            None if config.no_ledger else default_ledger(config.ledger_path)
        )
        self.ledger_lock = threading.Lock()
        self.config_fingerprint = fingerprint_payload(config.encore.to_dict())
        self._preregister_metrics()
        #: Always-on flight recorder: every closed span, structured log
        #: record, error, and incident transition lands in its ring
        #: buffers, so the last moments before an incident are always
        #: available (``GET /flightz``, ``repro doctor``) without any
        #: flag having been set in advance.
        self.flight = FlightRecorder()
        set_flight(self.flight)
        #: Tail-based exemplar store behind ``GET /tracez``.
        self.exemplars = TraceExemplars()
        self.monitor = self._health_monitor()
        self.monitor.on_transition(self.flight.incident_listener)
        self.watcher = SnapshotWatcher(
            self, poll_interval_s=config.reload_poll_s
        )
        super().__init__((config.host, config.port), ServeHandler)
        self._record_ledger(self._ledger_entry("serve.start"))
        log.info("serve.started", host=config.host, port=self.server_port,
                 snapshot=str(snapshot_path),
                 ruleset=str(self.pool.info["ruleset_digest"])[:12],
                 max_inflight=config.max_inflight)

    # -- lifecycle -------------------------------------------------------------

    def _health_monitor(self):
        """The daemon's health monitor (timeline + alert engine).

        Rules come from ``config.alerts_path``; when unset, the default
        ``.encore/alerts.toml`` is auto-loaded if present (a malformed
        auto-detected file degrades to timeline-only monitoring — the
        daemon must still boot on a bad rule edit; an explicit
        ``--alerts`` path that fails to parse propagates, refusing to
        start with alerting silently off).
        """
        from repro.obs.alerts import DEFAULT_RULES_PATH, AlertConfigError, load_rules
        from repro.obs.health import HealthMonitor

        rules = ()
        path = self.config.alerts_path
        if path is None and DEFAULT_RULES_PATH.exists():
            try:
                rules = load_rules(DEFAULT_RULES_PATH)
            except AlertConfigError as exc:
                log.error("serve.alerts_config_invalid",
                          path=str(DEFAULT_RULES_PATH), detail=str(exc))
        elif path is not None:
            rules = load_rules(path)
        monitor = HealthMonitor(
            rules=rules,
            interval_s=self.config.alerts_interval_s,
            registry=self.registry,
            lock=self.metrics_lock,
            refresh=self._publish_drift,
        )
        monitor.on_transition(self._on_alert_transition)
        if rules:
            log.info("serve.alerts_loaded", rules=len(rules),
                     interval_s=self.config.alerts_interval_s)
        return monitor

    def _publish_drift(self, registry: MetricsRegistry) -> None:
        """Set the serving model's drift gauges before each health sample,
        so a ``drift_psi`` rule sees ``drift.psi.max``; skipped until the
        model has observed a target.  Runs under ``metrics_lock``."""
        with self.pool.lease() as encore:
            drift = encore.drift
        if drift is not None and drift.targets:
            with use_registry(registry):
                drift.summary()

    def _on_alert_transition(self, event: str, incident) -> None:
        """Ledger + metrics + log for every firing/resolved transition."""
        with self.metrics_lock:
            self.registry.counter(
                "serve.alert.transitions.total", event=event
            ).inc()
        logger = log.error if incident.severity == "page" else log.warning
        logger("serve.alert", transition=event, rule=incident.rule,
               severity=incident.severity, series=incident.series,
               value=incident.value, threshold=incident.threshold)
        self._record_ledger(self._ledger_entry(
            "serve.alert",
            request={"event": event, "rule": incident.rule},
            incidents=[incident.to_dict()],
        ))

    def start_watcher(self) -> None:
        """Start the reload watcher + health monitor threads (idempotent)."""
        if not self.watcher.is_alive():
            self.watcher.start()
        self.monitor.start(name="serve-health")

    def stop(self) -> None:
        """Shut down the listener and the watcher (callable off-thread)."""
        self.monitor.stop()
        self.watcher.stop()
        self.shutdown()

    def server_close(self) -> None:  # also reached via context-manager exit
        self.monitor.stop()
        self.watcher.stop()
        super().server_close()
        log.info("serve.stopped", uptime_s=round(self.uptime_s(), 3))
        if get_flight() is self.flight:
            set_flight(None)

    def uptime_s(self) -> float:
        return time.monotonic() - self.started_monotonic

    @property
    def ready(self) -> bool:
        """A model is loaded and serving (reloads never unset this)."""
        return bool(self.pool.info)

    def degraded_incidents(self) -> List:
        """Firing page-severity incidents (these degrade ``/readyz``)."""
        return self.monitor.firing(severity="page")

    def alertz(self) -> Dict[str, object]:
        """The ``GET /alertz`` payload: rules, incidents, timeline stats."""
        return self.monitor.snapshot()

    def tracez(self) -> Dict[str, object]:
        """The ``GET /tracez`` payload: retained trace exemplars."""
        return self.exemplars.to_dict()

    def flightz(self) -> Dict[str, object]:
        """The ``GET /flightz`` payload: the flight recorder's rings."""
        return self.flight.to_dict()

    # -- metrics ---------------------------------------------------------------

    def _preregister_metrics(self) -> None:
        """Create the serve metric families before any traffic arrives.

        A scraper that lands on a fresh daemon must already see the shed
        counter and one latency-histogram series per route — absence of
        a series is indistinguishable from a broken exporter.
        """
        with self.metrics_lock:
            self.registry.counter("serve.shed.total")
            self.registry.counter("serve.reload.total", outcome="ok")
            for route in POST_ROUTES:
                self.registry.histogram(
                    "serve.request.latency",
                    buckets=SERVE_LATENCY_BUCKETS,
                    route=route, status="200",
                )

    def fold_request_metrics(self, request_registry: MetricsRegistry) -> None:
        """Merge one request's private registry into the process one."""
        with self.metrics_lock:
            self.registry.merge(request_registry)

    def count_shed(self, route: str) -> None:
        with self.metrics_lock:
            self.registry.counter("serve.shed.total").inc()

    def shed_total(self) -> float:
        with self.metrics_lock:
            return float(self.registry.total("serve.shed.total"))

    def _set_live_gauges(self) -> None:
        # Caller holds metrics_lock.
        self.registry.gauge("serve.inflight").set(self.admission.inflight)
        self.registry.gauge("serve.queue.depth").set(self.admission.queued)
        self.registry.gauge("serve.uptime.seconds").set(
            round(self.uptime_s(), 3)
        )

    def prometheus(self) -> str:
        """The ``/metrics`` exposition (live gauges refreshed first)."""
        with self.metrics_lock:
            self._set_live_gauges()
            return self.registry.to_prometheus()

    def slo_summary(self) -> Dict[str, Dict[str, object]]:
        """Per-route p50/p99 from the request-latency histograms."""
        out: Dict[str, Dict[str, object]] = {}
        with self.metrics_lock:
            series = self.registry.series("serve.request.latency")
        folded: Dict[str, Histogram] = {}
        for labelset, metric in sorted(series.items()):
            if not isinstance(metric, Histogram):
                continue
            route = dict(labelset).get("route", "?")
            mine = folded.get(route)
            if mine is None:
                mine = folded[route] = Histogram(metric.buckets)
            mine.merge(metric)
        for route in sorted(folded):
            histogram = folded[route]
            if histogram.count:
                p50_ms = round(histogram.quantile(0.5) * 1000.0, 3)
                p99_ms = round(histogram.quantile(0.99) * 1000.0, 3)
            else:
                # quantile() is NaN on an empty histogram; the wire
                # format reports null rather than a JSON NaN literal.
                p50_ms = p99_ms = None
            out[route] = {
                "count": histogram.count,
                "mean_ms": round(histogram.mean * 1000.0, 3),
                "p50_ms": p50_ms,
                "p99_ms": p99_ms,
            }
        return out

    def data_plane(self) -> Dict[str, object]:
        """Warm-pool and result-cache health for ``/statusz``."""
        from repro.engine.pool import warm_pool_stats

        out: Dict[str, object] = {"pool": warm_pool_stats()}
        if self.cache is not None:
            cache_stats = dict(self.cache.stats())
            with self.metrics_lock:
                cache_stats["hits"] = int(self.registry.total("cache.hit.total"))
                cache_stats["misses"] = int(
                    self.registry.total("cache.miss.total")
                )
            out["cache"] = cache_stats
        return out

    def statusz(self) -> Dict[str, object]:
        """The incident-time dashboard (see docs/serving.md runbook)."""
        with self.metrics_lock:
            self._set_live_gauges()
            requests_total = self.registry.total("serve.requests.total")
            shed_total = self.registry.total("serve.shed.total")
        return {
            "uptime_s": round(self.uptime_s(), 3),
            "started_at": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(self.started_epoch)
            ),
            "snapshot": {
                "path": str(self.config.snapshot),
                "ruleset_digest": self.pool.info.get("ruleset_digest", ""),
                "dataset_fingerprint": self.pool.info.get(
                    "dataset_fingerprint", ""
                ),
                "rule_count": self.pool.info.get("rule_count", 0),
                "training_size": self.pool.info.get("training_size", 0),
                "generation": self.pool.generation,
                "reloads": self.reloads,
                "reload_failures": self.reload_failures,
            },
            "admission": {
                "inflight": self.admission.inflight,
                "queue_depth": self.admission.queued,
                "max_inflight": self.config.max_inflight,
                "max_queue": self.config.max_queue,
                "shed_total": int(shed_total),
            },
            "requests_total": int(requests_total),
            "slo": self.slo_summary(),
            "data_plane": self.data_plane(),
            "alerts": self.alerts_section(),
        }

    def alerts_section(self) -> Dict[str, object]:
        """The compact ``/statusz`` alerts block (full detail: /alertz)."""
        snapshot = self.monitor.snapshot()
        return {
            "rules": len(snapshot["rules"]),
            "evaluations": snapshot["evaluations"],
            "firing": len(snapshot["firing"]),
            "firing_rules": [i["rule"] for i in snapshot["firing"]],
            "timeline": snapshot["timeline"],
        }

    # -- reload ----------------------------------------------------------------

    def request_reload(self) -> None:
        """Signal-safe reload trigger (the SIGHUP handler calls this)."""
        self.watcher.request_reload()

    def reload(self, trigger: str = "manual") -> bool:
        """Swap in the snapshot file's current content; True on success."""
        path = Path(self.config.snapshot)
        try:
            info = self.pool.swap(load_snapshot(path))
        except Exception as exc:
            self.reload_failures += 1
            with self.metrics_lock:
                self.registry.counter(
                    "serve.reload.total", outcome="failed"
                ).inc()
            log.error("serve.reload_failed", trigger=trigger,
                      error=type(exc).__name__, detail=str(exc))
            return False
        self.reloads += 1
        self.snapshot_loaded_at = time.time()
        with self.metrics_lock:
            self.registry.counter("serve.reload.total", outcome="ok").inc()
        self._record_ledger(self._ledger_entry(
            "serve.reload", info=info, request={"trigger": trigger},
        ))
        log.info("serve.reloaded", trigger=trigger,
                 ruleset=str(info["ruleset_digest"])[:12],
                 generation=self.pool.generation)
        return True

    # -- ledger ----------------------------------------------------------------

    def _ledger_entry(self, command: str,
                      info: Optional[Dict[str, object]] = None,
                      **fields: object) -> LedgerEntry:
        """A ledger entry stamped with the daemon's config fingerprint and
        the identity of the serving model (or of *info*, a just-swapped
        one); *fields* default ``workers`` to ``max_inflight``."""
        info = self.pool.info if info is None else info
        fields.setdefault("workers", self.config.max_inflight)
        return LedgerEntry(
            command=command,
            config_fingerprint=self.config_fingerprint,
            dataset_fingerprint=str(info.get("dataset_fingerprint", "")),
            ruleset_digest=str(info.get("ruleset_digest", "")),
            rule_count=int(info.get("rule_count", 0)),
            training_size=int(info.get("training_size", 0)),
            **fields,
        )

    def _record_ledger(self, entry: LedgerEntry) -> Optional[LedgerEntry]:
        if self.ledger is None:
            return None
        # append_line serialises per path, but the daemon still funnels
        # every entry through one lock so entry construction + append is
        # a single critical section (ordering matches the access log).
        with self.ledger_lock:
            return self.ledger.append(entry)

    def record_request_entry(
        self,
        command: str,
        request_id: str,
        route: str,
        status: int,
        seconds: float,
        targets_checked: int,
        warning_counts: Dict[str, int],
        trace_id: str = "",
    ) -> None:
        """One ledger entry per successful model-serving request."""
        if self.ledger is None or not self.config.record_requests:
            return
        request: Dict[str, object] = {
            "request_id": request_id,
            "route": route,
            "status": status,
        }
        if trace_id:
            # The originating trace id, so a ledger entry joins the
            # request's /tracez exemplar and flight-recorder records.
            request["trace_id"] = trace_id
        self._record_ledger(self._ledger_entry(
            command,
            targets_checked=targets_checked,
            warning_counts=dict(warning_counts),
            timing={"request_seconds": round(seconds, 6)},
            workers=1,
            request=request,
        ))


def new_request_id() -> str:
    """A fresh trace id for requests that did not bring their own."""
    return uuid.uuid4().hex[:16]
