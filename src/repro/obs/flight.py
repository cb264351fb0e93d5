"""Always-on flight recorder: bounded rings of recent telemetry.

A :class:`FlightRecorder` is the black box an operator opens *after*
something went wrong: fixed-capacity ring buffers of the most recent
spans, structured-log events, errors, and alert-incident transitions.
It is cheap enough to leave armed permanently (one lock-guarded tuple
append per event; ``benchmarks/overhead.py`` holds the budget to ≤2%
on a full check pass) and bounded by construction, so a
months-long serve daemon holds exactly ``capacity`` entries per ring no
matter how much traffic it saw.

Hook points (all optional — everything no-ops until a recorder is
installed via :func:`set_flight`):

* span closes (:mod:`repro.obs.tracing`) feed the span ring; spans that
  closed with an ``error`` attribute also feed the error ring;
* :class:`~repro.obs.logging.StructuredLogger` records feed the log
  ring regardless of handler level (the recorder sees DEBUG even when
  the console prints WARNING); ERROR and above also feed the error ring;
* :class:`~repro.obs.health.HealthMonitor` transition listeners feed
  the incident ring (``repro serve`` wires this automatically).

``repro doctor`` bundles the dump; the serve daemon exposes it live at
``GET /flightz``.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, Mapping, Optional, Union

#: Entries kept per ring; sized so a dump stays a few hundred KB even
#: with verbose field payloads.
DEFAULT_CAPACITY = 256

#: Ring names in serialisation order.
RING_NAMES = ("spans", "logs", "errors", "incidents")


class FlightRecorder:
    """Fixed-capacity rings of recent spans, logs, errors, incidents."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock
        self._lock = threading.Lock()
        self._rings: Dict[str, Deque[dict]] = {
            name: deque(maxlen=capacity) for name in RING_NAMES
        }
        #: Lifetime event counts per ring (rings overwrite; totals don't).
        self._totals: Dict[str, int] = {name: 0 for name in RING_NAMES}

    # -- recording hooks ---------------------------------------------------------

    def _append(self, ring: str, entry: dict) -> None:
        with self._lock:
            self._rings[ring].append(entry)
            self._totals[ring] += 1

    def record_span(self, closed, trace_id: str = "") -> None:
        """One closed :class:`~repro.obs.tracing.Span` (called on close)."""
        error = closed.attributes.get("error", "")
        entry = {
            "t": self.clock(),
            "name": closed.name,
            "duration_s": round(closed.duration, 9),
        }
        if trace_id:
            entry["trace_id"] = trace_id
        if closed.span_id:
            entry["span_id"] = closed.span_id
        if error:
            entry["error"] = str(error)
        self._append("spans", entry)
        if error:
            self._append("errors", {
                "t": entry["t"], "source": "span", "name": closed.name,
                "error": str(error), "trace_id": trace_id,
            })

    def record_log(
        self,
        level: int,
        logger: str,
        event: str,
        fields: Optional[Mapping[str, object]] = None,
    ) -> None:
        """One structured-log record (fed by ``StructuredLogger``)."""
        entry: dict = {
            "t": self.clock(),
            "level": logging.getLevelName(level),
            "logger": logger,
            "event": event,
        }
        if fields:
            entry["fields"] = dict(fields)
        self._append("logs", entry)
        if level >= logging.ERROR:
            error_entry = dict(entry)
            error_entry["source"] = "log"
            self._append("errors", error_entry)

    def record_incident(self, event: str, incident: Mapping[str, object]) -> None:
        """One alert transition (``firing`` / ``resolved``)."""
        self._append("incidents", {
            "t": self.clock(), "event": event, "incident": dict(incident),
        })

    def incident_listener(self, event: str, incident) -> None:
        """Adapter matching ``HealthMonitor.on_transition`` listeners."""
        payload = incident.to_dict() if hasattr(incident, "to_dict") else incident
        self.record_incident(event, payload)

    # -- export / merge ----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return sum(len(ring) for ring in self._rings.values())

    def totals(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._totals)

    def to_dict(self) -> dict:
        """Serialised dump: per-ring entry lists (oldest first) + totals."""
        with self._lock:
            out: dict = {
                "capacity": self.capacity,
                "totals": dict(self._totals),
            }
            for name, ring in self._rings.items():
                out[name] = [dict(entry) for entry in ring]
        return out

    def save(self, path: Union[str, Path]) -> Path:
        """Atomic JSON dump (tmp + replace, parents created)."""
        import json

        from repro.obs.fileio import atomic_write_text

        return atomic_write_text(
            path, json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"
        )


# -- the process-global recorder ------------------------------------------------

_active_recorder: Optional[FlightRecorder] = None


def get_flight() -> Optional[FlightRecorder]:
    """The installed recorder, or ``None`` (every hook then no-ops)."""
    return _active_recorder


def set_flight(recorder: Optional[FlightRecorder]) -> Optional[FlightRecorder]:
    """Install (or, with ``None``, remove) the process flight recorder."""
    global _active_recorder
    _active_recorder = recorder
    return recorder
