"""HealthMonitor: one object that samples, evaluates, and remembers.

It samples a metrics registry into a :class:`~repro.obs.timeline.Timeline`
and evaluates the alert rules against it, in every execution mode:

* the serve daemon owns a monitor and runs :meth:`HealthMonitor.run`
  on a background thread (sampling under ``metrics_lock``);
* long CLI runs (``train`` / ``check --workers``) install the monitor
  process-globally via :func:`set_monitor` and the engine fold loops
  call the module-level :func:`maybe_tick` — a cheap no-op unless a
  monitor is installed *and* its interval elapsed (the same pattern
  :func:`~repro.obs.flight.get_flight` uses for span and log hooks);
* listeners registered with :meth:`on_transition` receive
  ``(event, incident)`` after each evaluation — the serve daemon uses
  one to append ``serve.alert`` ledger entries, the CLI to log.

The monitor also publishes its own health as metrics
(``alerts.firing`` / ``alerts.rules`` gauges, ``timeline.samples``
counter view via the timeline itself) so a scrape shows whether
monitoring is alive.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, List, Optional, Sequence

from repro.obs.alerts import AlertEngine, AlertRule, Incident, Transition
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.timeline import Timeline

log = logging.getLogger("repro.obs.health")

TransitionListener = Callable[[str, Incident], None]


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
        capacity: int = 360,
        registry: Optional[MetricsRegistry] = None,
        lock: Optional[threading.Lock] = None,
        refresh: Optional[Callable[[MetricsRegistry], None]] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("sample interval must be > 0")
        self.lock = lock if lock is not None else threading.Lock()
        self.timeline = Timeline(capacity=capacity)
        self.registry = registry
        self.refresh = refresh
        self.engine = AlertEngine(rules)
        self.clock = clock
        self.interval_s = interval_s
        self.last_sample_at: Optional[float] = None
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

    # -- ticking ---------------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> List[Transition]:
        """Sample the registry and evaluate every rule once."""
        now = self.clock() if now is None else now
        registry = self.registry if self.registry is not None else get_registry()
        with self.lock:
            if self.refresh is not None:
                self.refresh(registry)
            self.last_sample_at = now
            self.timeline.sample_registry(registry, t=now)
            transitions = self.engine.evaluate(self.timeline, now)
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
                "samples": self.timeline.samples,
                "series": len(self.timeline.series),
                "capacity": self.timeline.capacity,
                "max_series": self.timeline.max_series,
                "dropped_series": self.timeline.dropped_series,
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

