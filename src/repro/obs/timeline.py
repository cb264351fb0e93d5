"""Windowed metric time-series with bounded memory: the fleet timeline.

Every observability surface before this module is a point-in-time
snapshot — a metrics registry holds *current* totals, ``/statusz`` a
*current* SLO summary.  Nothing answers "is the error rate climbing?",
"has p99 been above the objective for the last minute?", or "did drift
start before or after the reload?".  The timeline closes that gap:

* :class:`TimelineSampler` periodically snapshots any
  :class:`~repro.obs.metrics.MetricsRegistry` into a :class:`Timeline`
  of fixed-size **ring buffers**, one per metric series (name + label
  set).  Counters keep their cumulative value plus an instantaneous
  rate; gauges are sampled; histograms are reduced to
  count/sum/p50/p99 through the one canonical
  :meth:`~repro.obs.metrics.Histogram.quantile` estimator.
* Memory is **bounded regardless of run length**: each ring holds at
  most ``capacity`` points, and the timeline holds at most
  ``max_series`` series (excess series are counted, not stored) — a
  week-long daemon and a 100k-image streamed check cost the same RSS
  as a one-minute run.
* :meth:`Timeline.to_dict` / :meth:`Timeline.from_dict` round-trip
  through JSON for export (``/alertz``, ``repro watch``, tests).

Window queries (:meth:`Timeline.counter_delta`, :meth:`Timeline.rate`,
:meth:`Timeline.histogram_window`, :meth:`Timeline.latest_value`) are
what the alert engine (:mod:`repro.obs.alerts`) evaluates rules
against; see ``docs/observability.md`` ("Monitoring & alerting").
"""

from __future__ import annotations

import math
import time
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.obs.metrics import (
    Histogram,
    LabelSet,
    MetricsRegistry,
    get_registry,
)

#: Default points kept per series: at the serve daemon's 5 s sampling
#: interval this is 30 minutes of history in ~10 KB per series.
DEFAULT_CAPACITY = 360

#: Default cap on distinct series tracked; series beyond it are counted
#: in :attr:`Timeline.dropped_series` instead of allocated.
DEFAULT_MAX_SERIES = 512


def series_id(name: str, labelset: LabelSet = ()) -> str:
    """Canonical series key: ``name`` or ``name{k=v,...}`` (sorted)."""
    if not labelset:
        return name
    label_str = ",".join(f"{k}={v}" for k, v in labelset)
    return f"{name}{{{label_str}}}"


def _split_series_id(sid: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`series_id` (labels as a plain dict)."""
    name, brace, rest = sid.partition("{")
    if not brace:
        return sid, {}
    labels: Dict[str, str] = {}
    for pair in rest.rstrip("}").split(","):
        if pair:
            key, _, value = pair.partition("=")
            labels[key] = value
    return name, labels


class Ring:
    """A fixed-capacity ring buffer of sample tuples (oldest first)."""

    __slots__ = ("capacity", "_items", "_next", "_full")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = capacity
        self._items: List[tuple] = []
        self._next = 0
        self._full = False

    def append(self, item: tuple) -> None:
        if self._full:
            self._items[self._next] = item
            self._next = (self._next + 1) % self.capacity
        else:
            self._items.append(item)
            if len(self._items) == self.capacity:
                self._full = True
                self._next = 0

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[tuple]:
        if not self._full:
            yield from self._items
        else:
            yield from self._items[self._next:]
            yield from self._items[:self._next]

    def last(self) -> Optional[tuple]:
        if not self._items:
            return None
        if not self._full:
            return self._items[-1]
        return self._items[self._next - 1]


#: Per-kind point layout (the tuple fields each ring stores, in order).
POINT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "counter": ("t", "value", "rate"),
    "gauge": ("t", "value"),
    "histogram": ("t", "count", "sum", "p50", "p99"),
}


class Series:
    """One metric series' ring of points plus its identity."""

    __slots__ = ("name", "labels", "kind", "ring")

    def __init__(self, name: str, labels: Mapping[str, str], kind: str,
                 capacity: int) -> None:
        self.name = name
        self.labels = dict(labels)
        self.kind = kind
        self.ring = Ring(capacity)

    def points(self) -> List[tuple]:
        return list(self.ring)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "kind": self.kind,
            "fields": list(POINT_FIELDS[self.kind]),
            "points": [list(point) for point in self.ring],
        }


class Timeline:
    """Bounded per-series history of registry samples.

    Not thread-safe by itself — the :class:`TimelineSampler` (or the
    serve daemon's ``metrics_lock``) serialises writers; readers that
    race a sampler thread must hold the same lock.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 max_series: int = DEFAULT_MAX_SERIES) -> None:
        if capacity < 1:
            raise ValueError("timeline capacity must be >= 1")
        if max_series < 1:
            raise ValueError("timeline max_series must be >= 1")
        self.capacity = capacity
        self.max_series = max_series
        self.series: Dict[str, Series] = {}
        #: ``(name, labelset)`` → resolved :class:`Series` (or ``None``
        #: for series dropped at the cap).  Identity resolution — label
        #: sorting, the ``name{k=v}`` string — runs once per series, not
        #: once per sample, which keeps the per-sample cost linear in
        #: points appended (see ``benchmarks/overhead.py``).
        self._by_key: Dict[Tuple[str, LabelSet], Optional[Series]] = {}
        #: Samples of series that arrived after ``max_series`` distinct
        #: series existed — counted so truncation is visible, not silent.
        self.dropped_series = 0
        self.samples = 0

    # -- recording -------------------------------------------------------------

    def _series_by_key(self, name: str, labelset: LabelSet,
                       kind: str) -> Optional[Series]:
        key = (name, labelset)
        if key in self._by_key:
            series = self._by_key[key]
            if series is None:
                self.dropped_series += 1
            return series
        sid = series_id(name, labelset)
        series = self.series.get(sid)
        if series is None:
            if len(self.series) >= self.max_series:
                self.dropped_series += 1
                self._by_key[key] = None
                return None
            series = self.series[sid] = Series(
                name, dict(labelset), kind, self.capacity
            )
        self._by_key[key] = series
        return series

    def _series(self, name: str, labels: Mapping[str, str],
                kind: str) -> Optional[Series]:
        return self._series_by_key(
            name, tuple(sorted((str(k), str(v)) for k, v in labels.items())),
            kind,
        )

    @staticmethod
    def _append_counter(series: Series, value: float, t: float) -> None:
        last = series.ring.last()
        rate = 0.0
        if last is not None:
            dt = t - last[0]
            if dt > 0:
                rate = max(0.0, (value - last[1]) / dt)
        series.ring.append((t, value, rate))

    @staticmethod
    def _append_histogram(series: Series, histogram: Histogram,
                          t: float) -> None:
        if histogram.count:
            p50 = histogram.quantile(0.5)
            p99 = histogram.quantile(0.99)
        else:
            p50 = p99 = None  # NaN contract upstream; null on the wire
        series.ring.append((t, histogram.count, histogram.sum, p50, p99))

    def record_counter(self, name: str, labels: Mapping[str, str],
                       value: float, t: float) -> None:
        series = self._series(name, labels, "counter")
        if series is not None:
            self._append_counter(series, value, t)

    def record_gauge(self, name: str, labels: Mapping[str, str],
                     value: float, t: float) -> None:
        series = self._series(name, labels, "gauge")
        if series is not None:
            series.ring.append((t, value))

    def record_histogram(self, name: str, labels: Mapping[str, str],
                         histogram: Histogram, t: float) -> None:
        series = self._series(name, labels, "histogram")
        if series is not None:
            self._append_histogram(series, histogram, t)

    def sample_registry(self, registry: MetricsRegistry,
                        t: Optional[float] = None) -> int:
        """Record one point per live series; returns series sampled.

        Callers that share the registry with concurrent writers (the
        serve daemon) must hold the registry's fold lock around this
        call, so a sample is a consistent cut: every series reflects
        the same set of folded request registries.
        """
        if t is None:
            t = time.time()
        sampled = 0
        for name in registry.names():
            kind = registry.kind_of(name)
            for labelset, metric in registry.series(name).items():
                # registry labelsets are already sorted tuples — the
                # cached resolver skips per-sample identity work.
                series = self._series_by_key(name, labelset, kind)
                sampled += 1
                if series is None:
                    continue
                if kind == "counter":
                    self._append_counter(series, metric.value, t)
                elif kind == "gauge":
                    series.ring.append((t, metric.value))
                else:
                    self._append_histogram(series, metric, t)
        self.samples += 1
        return sampled

    # -- selection -------------------------------------------------------------

    def select(self, name: str,
               labels: Optional[Mapping[str, str]] = None) -> List[str]:
        """Series ids matching *name* whose labels ⊇ *labels*."""
        wanted = {str(k): str(v) for k, v in (labels or {}).items()}
        out = []
        for sid, series in self.series.items():
            if series.name != name:
                continue
            if all(series.labels.get(k) == v for k, v in wanted.items()):
                out.append(sid)
        return sorted(out)

    def _window_points(self, sid: str, seconds: float,
                       now: Optional[float]) -> List[tuple]:
        series = self.series.get(sid)
        if series is None:
            return []
        points = series.points()
        if not points:
            return []
        end = now if now is not None else points[-1][0]
        start = end - seconds
        return [p for p in points if start <= p[0] <= end]

    # -- window queries --------------------------------------------------------

    def latest_value(self, name: str,
                     labels: Optional[Mapping[str, str]] = None,
                     stat: str = "value") -> Optional[float]:
        """Sum of the latest point's *stat* across matching series."""
        total: Optional[float] = None
        for sid in self.select(name, labels):
            series = self.series[sid]
            last = series.ring.last()
            if last is None:
                continue
            fields = POINT_FIELDS[series.kind]
            if stat not in fields:
                continue
            value = last[fields.index(stat)]
            if value is None:
                continue
            if stat in ("p50", "p99"):
                total = value if total is None else max(total, value)
            else:
                total = (total or 0.0) + float(value)
        return total

    def counter_delta(self, name: str, seconds: float,
                      labels: Optional[Mapping[str, str]] = None,
                      now: Optional[float] = None) -> Optional[float]:
        """Cumulative-value increase over the window, summed over series.

        ``None`` when no matching series has two points in the window —
        "no data" is distinct from "zero increase" for alerting.
        """
        total: Optional[float] = None
        for sid in self.select(name, labels):
            points = self._window_points(sid, seconds, now)
            if len(points) < 2:
                continue
            total = (total or 0.0) + max(0.0, points[-1][1] - points[0][1])
        return total

    def rate(self, name: str, seconds: float,
             labels: Optional[Mapping[str, str]] = None,
             now: Optional[float] = None) -> Optional[float]:
        """Windowed per-second rate: counter delta / observed span."""
        spans: List[float] = []
        delta: Optional[float] = None
        for sid in self.select(name, labels):
            points = self._window_points(sid, seconds, now)
            if len(points) < 2:
                continue
            delta = (delta or 0.0) + max(0.0, points[-1][1] - points[0][1])
            spans.append(points[-1][0] - points[0][0])
        if delta is None or not spans:
            return None
        span_s = max(spans)
        return delta / span_s if span_s > 0 else 0.0

    def gauge_change(self, name: str, seconds: float,
                     labels: Optional[Mapping[str, str]] = None,
                     now: Optional[float] = None) -> Optional[float]:
        """Per-second change of a gauge over the window (can be < 0)."""
        total: Optional[float] = None
        span_s = 0.0
        for sid in self.select(name, labels):
            points = self._window_points(sid, seconds, now)
            if len(points) < 2:
                continue
            total = (total or 0.0) + (points[-1][1] - points[0][1])
            span_s = max(span_s, points[-1][0] - points[0][0])
        if total is None:
            return None
        return total / span_s if span_s > 0 else 0.0

    def histogram_window(self, name: str, seconds: float,
                         labels: Optional[Mapping[str, str]] = None,
                         now: Optional[float] = None
                         ) -> Optional[Dict[str, float]]:
        """Windowed population stats for a histogram series.

        ``count``/``sum``/``mean`` are deltas over the window (what
        *happened* during it); ``p50``/``p99`` are the latest
        whole-population estimates (fixed-bucket histograms cannot be
        re-quantiled over a window), maxed across matching series.
        """
        count = 0.0
        total = 0.0
        p50: Optional[float] = None
        p99: Optional[float] = None
        matched = False
        for sid in self.select(name, labels):
            points = self._window_points(sid, seconds, now)
            if len(points) < 2:
                continue
            matched = True
            count += max(0.0, points[-1][1] - points[0][1])
            total += max(0.0, points[-1][2] - points[0][2])
            last = points[-1]
            if last[3] is not None:
                p50 = last[3] if p50 is None else max(p50, last[3])
            if last[4] is not None:
                p99 = last[4] if p99 is None else max(p99, last[4])
        if not matched:
            return None
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "p50": p50,
            "p99": p99,
        }

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "max_series": self.max_series,
            "samples": self.samples,
            "dropped_series": self.dropped_series,
            "series": {
                sid: self.series[sid].to_dict()
                for sid in sorted(self.series)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Timeline":
        timeline = cls(
            capacity=int(data.get("capacity", DEFAULT_CAPACITY)),
            max_series=int(data.get("max_series", DEFAULT_MAX_SERIES)),
        )
        timeline.samples = int(data.get("samples", 0))
        timeline.dropped_series = int(data.get("dropped_series", 0))
        for sid, entry in data.get("series", {}).items():
            name, labels = _split_series_id(sid)
            series = Series(
                str(entry.get("name", name)),
                dict(entry.get("labels", labels)),
                str(entry["kind"]),
                timeline.capacity,
            )
            for point in entry.get("points", ()):
                series.ring.append(tuple(point))
            timeline.series[sid] = series
        return timeline


class TimelineSampler:
    """Periodically snapshots a registry into a :class:`Timeline`.

    *registry* may be a :class:`MetricsRegistry` or a zero-argument
    callable returning one (the default follows the process-local
    registry, so a CLI run that swaps registries keeps sampling the
    live one).  *lock* (optional) is held around each sample — the
    serve daemon passes its ``metrics_lock`` so samples are consistent
    cuts of the folded process registry.  *clock* is injectable for
    deterministic tests.
    """

    def __init__(
        self,
        registry: Union[MetricsRegistry, Callable[[], MetricsRegistry], None] = None,
        timeline: Optional[Timeline] = None,
        interval_s: float = 5.0,
        clock: Callable[[], float] = time.time,
        lock=None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("sample interval must be > 0")
        self._registry = registry
        self.timeline = timeline if timeline is not None else Timeline()
        self.interval_s = interval_s
        self.clock = clock
        self.lock = lock
        self.last_sample_at: Optional[float] = None

    def registry(self) -> MetricsRegistry:
        if self._registry is None:
            return get_registry()
        if callable(self._registry):
            return self._registry()
        return self._registry

    def sample(self, now: Optional[float] = None) -> int:
        """Take one sample immediately; returns series sampled."""
        now = self.clock() if now is None else now
        self.last_sample_at = now
        if self.lock is not None:
            with self.lock:
                return self.timeline.sample_registry(self.registry(), t=now)
        return self.timeline.sample_registry(self.registry(), t=now)

    def maybe_sample(self, now: Optional[float] = None) -> bool:
        """Sample iff at least ``interval_s`` elapsed since the last one.

        The cheap hook long-running loops call per unit of work
        (per shard fold, per checked target) — a no-op between ticks.
        """
        now = self.clock() if now is None else now
        if (self.last_sample_at is not None
                and now - self.last_sample_at < self.interval_s):
            return False
        self.sample(now=now)
        return True


def is_nan(value: object) -> bool:
    """True for float NaN (tolerates None and non-floats)."""
    return isinstance(value, float) and math.isnan(value)
