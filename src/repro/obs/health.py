"""HealthMonitor: one object that samples, remembers, and evaluates.

Registries and ``/statusz`` are point-in-time snapshots; the monitor
adds history.  Each tick samples a metrics registry into bounded
per-series rings and evaluates the alert rules (:mod:`repro.obs.alerts`)
against them, in every execution mode:

* the serve daemon runs :meth:`HealthMonitor.start`'s background thread
  (sampling under ``metrics_lock``);
* long CLI runs (``train`` / ``check --workers``) install the monitor
  with :func:`set_monitor` and the engine fold loops call
  :func:`maybe_tick` — a cheap no-op unless a monitor is installed
  *and* its interval elapsed;
* :meth:`~HealthMonitor.on_transition` listeners receive
  ``(event, incident)`` after each evaluation (serve: ``serve.alert``
  ledger entries; the CLI: logs).

Memory is bounded regardless of run length: :data:`CAPACITY` points per
series, :data:`MAX_SERIES` series.  Counter and gauge points are
``(t, value)``, histogram points ``(t, count, sum, p50, p99)``.  The
monitor publishes its own ``alerts.firing`` / ``alerts.rules`` gauges
so a scrape shows whether monitoring is alive.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.alerts import AlertEngine, AlertRule, Incident, Transition, series_id
from repro.obs.metrics import LabelSet, MetricsRegistry, get_registry

log = logging.getLogger("repro.obs.health")

TransitionListener = Callable[[str, Incident], None]

#: Points kept per series: at the serve daemon's 5 s sampling interval
#: this is 30 minutes of history in ~10 KB per series.
CAPACITY = 360

#: Distinct series kept; samples of series beyond it are counted in
#: ``HealthMonitor.dropped_series`` instead of allocated.
MAX_SERIES = 512


class HealthMonitor:
    """Periodic registry sampling + alert evaluation with one clock.

    *registry* is the registry sampled (``None`` follows the calling
    thread's active registry, so a CLI run that swaps registries keeps
    sampling the live one); *lock* is held around each sample **and**
    evaluation so readers get consistent state; *refresh*, when given,
    runs under that lock just before each sample to set gauges that are
    computed rather than counted; *clock* is injectable for
    deterministic tests.
    """

    def __init__(
        self,
        rules: Sequence[AlertRule] = (),
        interval_s: float = 5.0,
        registry: Optional[MetricsRegistry] = None,
        lock: Optional[threading.Lock] = None,
        refresh: Optional[Callable[[MetricsRegistry], None]] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("sample interval must be > 0")
        self.lock = lock if lock is not None else threading.Lock()
        self.registry = registry
        self.refresh = refresh
        self.engine = AlertEngine(rules)
        self.clock = clock
        self.interval_s = interval_s
        self.last_sample_at: Optional[float] = None
        #: ``(name, labelset)`` → ``(series id, kind, labels, ring)``;
        #: registry labelsets are already sorted tuples, so sampling
        #: does no identity work.
        self.series: Dict[Tuple[str, LabelSet], tuple] = {}
        self.samples = 0
        self.dropped_series = 0
        self._listeners: List[TransitionListener] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- listeners -------------------------------------------------------------

    def on_transition(self, listener: TransitionListener) -> None:
        self._listeners.append(listener)

    def _notify(self, transitions: Sequence[Transition]) -> None:
        # outside self.lock: listeners write ledgers / take other locks
        for event, incident in transitions:
            for listener in self._listeners:
                try:
                    listener(event, incident)
                except Exception:  # noqa: BLE001 - monitoring must not kill work
                    log.exception(
                        "alert listener failed for %s/%s", event, incident.rule
                    )

    # -- history ---------------------------------------------------------------

    def _sample(self, registry: MetricsRegistry, t: float) -> None:
        """Append one point per live registry series (under ``lock``, so
        a sample is a consistent cut of the folded registries)."""
        for name in registry.names():
            kind = registry.kind_of(name)
            for labelset, metric in registry.series(name).items():
                series = self.series.get((name, labelset))
                if series is None:
                    if len(self.series) >= MAX_SERIES:
                        self.dropped_series += 1
                        continue
                    series = self.series[(name, labelset)] = (
                        series_id(name, labelset), kind, dict(labelset),
                        deque(maxlen=CAPACITY),
                    )
                ring = series[3]
                if kind != "histogram":
                    ring.append((t, metric.value))
                    continue
                p50 = p99 = None  # empty: NaN upstream, null on the wire
                if metric.count:
                    p50, p99 = metric.quantile(0.5), metric.quantile(0.99)
                ring.append((t, metric.count, metric.sum, p50, p99))
        self.samples += 1

    def _matching(self, name: str,
                  labels: Mapping[str, str]) -> List[tuple]:
        """Series of *name* whose labels ⊇ *labels*, in series-id order."""
        return sorted(
            (series for (series_name, _), series in self.series.items()
             if series_name == name
             and all(series[2].get(k) == v for k, v in labels.items())),
            key=lambda series: series[0],
        )

    def latest(self, name: str,
               labels: Mapping[str, str]) -> List[Tuple[str, tuple]]:
        """``(kind, last point)`` of every matching series."""
        return [(kind, ring[-1])
                for _, kind, _, ring in self._matching(name, labels) if ring]

    def windows(self, name: str, labels: Mapping[str, str], seconds: float,
                now: float) -> List[Tuple[str, tuple, tuple]]:
        """``(kind, first, last)`` points inside ``[now - seconds, now]``
        for every matching series with two or more points there.

        A series with fewer is left out: "no data" is distinct from
        "no change" for alerting.
        """
        start = now - seconds
        out = []
        for _, kind, _, ring in self._matching(name, labels):
            inside = [p for p in ring if start <= p[0] <= now]
            if len(inside) >= 2:
                out.append((kind, inside[0], inside[-1]))
        return out

    # -- ticking ---------------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> List[Transition]:
        """Sample the registry and evaluate every rule once."""
        now = self.clock() if now is None else now
        registry = self.registry if self.registry is not None else get_registry()
        with self.lock:
            if self.refresh is not None:
                self.refresh(registry)
            self.last_sample_at = now
            self._sample(registry, now)
            transitions = self.engine.evaluate(self, now)
            registry.gauge("alerts.rules").set(len(self.engine.rules))
            registry.gauge("alerts.firing").set(len(self.engine.firing))
        self._notify(transitions)
        return transitions

    def maybe_tick(self, now: Optional[float] = None) -> bool:
        """Tick iff the sampling interval elapsed; cheap otherwise."""
        now = self.clock() if now is None else now
        last = self.last_sample_at
        if last is not None and now - last < self.interval_s:
            return False
        self.tick(now=now)
        return True

    # -- introspection ---------------------------------------------------------

    def firing(self, severity: Optional[str] = None) -> List[Incident]:
        with self.lock:
            return list(self.engine.firing_incidents(severity))

    def snapshot(self) -> dict:
        """JSON-ready ``/alertz`` payload."""
        with self.lock:
            data = self.engine.snapshot()
            data["interval_s"] = self.interval_s
            data["timeline"] = {
                "samples": self.samples,
                "series": len(self.series),
                "capacity": CAPACITY,
                "max_series": MAX_SERIES,
                "dropped_series": self.dropped_series,
            }
            return data

    # -- thread ----------------------------------------------------------------

    def start(self, name: str = "health-monitor") -> None:
        """Run :meth:`tick` every ``interval_s`` on a daemon thread."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.tick()
            except Exception:  # noqa: BLE001 - keep monitoring alive
                log.exception("health monitor tick failed")

    def stop(self, timeout: float = 2.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=timeout)
        self._thread = None


# ---------------------------------------------------------------------------
# Process-global monitor (mirrors the flight recorder's get/set pattern)
# ---------------------------------------------------------------------------

_monitor: Optional[HealthMonitor] = None


def get_monitor() -> Optional[HealthMonitor]:
    return _monitor


def set_monitor(monitor: Optional[HealthMonitor]) -> Optional[HealthMonitor]:
    """Install (or clear, with ``None``) the process-global monitor."""
    global _monitor
    previous = _monitor
    _monitor = monitor
    return previous


def maybe_tick() -> bool:
    """Tick the global monitor if due; no-op when none installed.

    The hook the engine fold loops call once per unit of work — cost
    when no monitor is installed is one global read and a comparison.
    """
    monitor = _monitor
    if monitor is None:
        return False
    return monitor.maybe_tick()
