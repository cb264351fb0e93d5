"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The pipeline stages (parse, assemble, infer, mine, detect) record what
they do into a :class:`MetricsRegistry` — the live counterpart of the
paper's evaluation tables: attribute growth (Table 2) appears as
``assemble.attributes.*``, mining blow-up (Table 3) as ``mine.*``, and
the §7 per-stage learning/checking times as ``*.seconds`` histograms.

Design goals, in order:

1. *cheap* — a registry lookup plus an integer add on the hot path; the
   instrumented code aggregates locally and records per batch (per
   template, per system), never per candidate pair;
2. *mergeable* — registries from sharded or repeated runs combine with
   :meth:`MetricsRegistry.merge`;
3. *portable* — snapshots serialise to JSON (round-trippable) and to the
   Prometheus text exposition format.

Metric names follow the ``stage.noun.verb`` scheme documented in
``docs/observability.md``.  Dimensions (app, template, warning kind, drop
reason) ride along as labels, never baked into names.
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

#: Canonical label storage: a sorted tuple of (key, value) string pairs.
LabelSet = Tuple[Tuple[str, str], ...]

#: Default histogram buckets, tuned for stage wall times in seconds.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


class MetricsSnapshotError(ValueError):
    """Data handed to :meth:`MetricsRegistry.from_dict` is not a
    registry snapshot (wrong shape, unknown kind, missing field)."""


class MetricKindError(ValueError):
    """A metric name is bound to one kind and was used as another.

    Raised by the registry accessors and — critically — by
    :meth:`MetricsRegistry.merge` when a worker
    snapshot disagrees with the coordinator about a metric's kind
    (counter vs gauge vs histogram).  Folding such a snapshot silently
    would corrupt the colliding series, so the merge fails loudly,
    naming the metric.  Subclasses :class:`ValueError` for
    backward compatibility with callers catching the untyped error.
    """

    def __init__(self, metric: str, bound: str, requested: str) -> None:
        super().__init__(
            f"metric {metric!r} is a {bound}, not a {requested}"
        )
        self.metric = metric
        self.bound = bound
        self.requested = requested


def _labelset(labels: Mapping[str, object]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _prom_name(name: str) -> str:
    return _PROM_NAME_RE.sub("_", name)


def _prom_label_value(value: str) -> str:
    """Escape a label value per the text exposition format.

    The spec requires exactly three escapes inside quoted label values:
    backslash, double quote, and line feed (backslash first, or the
    other escapes would be double-escaped).
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class Counter:
    """A monotonically-increasing count."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_dict(self) -> dict:
        return {"value": self.value}

    def load(self, data: Mapping) -> None:
        self.value = data["value"]

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """A point-in-time value (last write wins on merge)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"value": self.value}

    def load(self, data: Mapping) -> None:
        self.value = data["value"]

    def merge(self, other: "Gauge") -> None:
        self.value = other.value


class Histogram:
    """Fixed-bucket histogram with sum and count.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``
    (non-cumulative storage); the final slot is the overflow (+Inf)
    bucket.  Two histograms merge iff their bucket boundaries agree.
    """

    kind = "histogram"
    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_TIME_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets: Tuple[float, ...] = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: Union[int, float]) -> None:
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative per-bucket counts (incl. +Inf)."""
        out, running = [], 0
        for n in self.bucket_counts:
            running += n
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile by linear interpolation over buckets.

        The same estimator ``histogram_quantile`` applies to a scraped
        Prometheus histogram: find the bucket holding the target rank
        ``q * count`` and interpolate linearly between its bounds (the
        first bucket interpolates up from 0).  Observations landing in
        the overflow (+Inf) bucket clamp to the highest finite bound —
        the honest answer a fixed-bucket histogram can give.

        This is the one quantile implementation in the codebase: the
        serve SLO summary (``/statusz``), the ``repro profile`` shard
        table and the timeline all report p50/p99 through it,
        so a quoted percentile means the same thing everywhere.

        Edge-case contract:

        * *q* outside ``[0, 1]`` (including NaN) raises
          :class:`ValueError` — an out-of-range rank is a caller bug,
          never data;
        * an **empty** histogram (``count == 0``) returns ``NaN`` — it
          has no observations, so any finite answer would fabricate a
          latency that never happened.  Callers that want a display
          placeholder must choose one themselves (the serve SLO summary
          reports ``null``).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        if not self.buckets:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, n in enumerate(self.bucket_counts):
            previous = cumulative
            cumulative += n
            if n == 0 or cumulative < target:
                continue
            if index >= len(self.buckets):  # overflow bucket
                return float(self.buckets[-1])
            upper = float(self.buckets[index])
            lower = float(self.buckets[index - 1]) if index else 0.0
            fraction = (target - previous) / n
            return lower + (upper - lower) * max(0.0, min(1.0, fraction))
        return float(self.buckets[-1])

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "sum": self.sum,
            "count": self.count,
        }

    def load(self, data: Mapping) -> None:
        self.buckets = tuple(data["buckets"])
        self.bucket_counts = list(data["bucket_counts"])
        self.sum = data["sum"]
        self.count = data["count"]

    def merge(self, other: "Histogram") -> None:
        if self.buckets != other.buckets:
            raise ValueError(
                "cannot merge histograms with different buckets: "
                f"{self.buckets} vs {other.buckets}"
            )
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n
        self.sum += other.sum
        self.count += other.count


Metric = Union[Counter, Gauge, Histogram]

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Name + labels → metric, with get-or-create accessors.

    A metric name is bound to one kind for the registry's lifetime;
    asking for ``counter("x")`` after ``gauge("x")`` raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Dict[LabelSet, Metric]] = {}
        self._kinds: Dict[str, str] = {}
        self._lock = threading.Lock()

    # -- accessors -------------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(name, "counter", _labelset(labels), Counter)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(name, "gauge", _labelset(labels), Gauge)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: object
    ) -> Histogram:
        return self._get_or_create(
            name, "histogram", _labelset(labels), lambda: Histogram(buckets)
        )

    def _get_or_create(self, name, kind, labelset, factory) -> Metric:
        with self._lock:
            bound = self._kinds.get(name)
            if bound is None:
                self._kinds[name] = kind
                self._metrics[name] = {}
            elif bound != kind:
                raise MetricKindError(name, bound, kind)
            series = self._metrics[name]
            metric = series.get(labelset)
            if metric is None:
                metric = series[labelset] = factory()
            return metric

    # -- introspection ---------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def kind_of(self, name: str) -> Optional[str]:
        return self._kinds.get(name)

    def series(self, name: str) -> Dict[LabelSet, Metric]:
        """All labelled instances of one metric (empty dict if unknown)."""
        return dict(self._metrics.get(name, {}))

    def value(self, name: str, **labels: object) -> Union[int, float, None]:
        """Counter/gauge value for an exact label set, ``None`` if absent."""
        metric = self._metrics.get(name, {}).get(_labelset(labels))
        if metric is None or isinstance(metric, Histogram):
            return None
        return metric.value

    def total(self, name: str) -> Union[int, float]:
        """Sum of a counter/gauge across all label sets (0 if unknown)."""
        total: Union[int, float] = 0
        for metric in self._metrics.get(name, {}).values():
            if not isinstance(metric, Histogram):
                total += metric.value
        return total

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()

    # -- merge -----------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold *other*'s metrics into this registry (in place)."""
        for name, series in other._metrics.items():
            kind = other._kinds[name]
            for labelset, metric in series.items():
                if kind == "histogram":
                    mine = self._get_or_create(
                        name, kind, labelset, lambda m=metric: Histogram(m.buckets)
                    )
                else:
                    mine = self._get_or_create(name, kind, labelset, _KINDS[kind])
                mine.merge(metric)  # type: ignore[arg-type]
        return self

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready snapshot (round-trips through :meth:`from_dict`)."""
        out = []
        for name in sorted(self._metrics):
            for labelset in sorted(self._metrics[name]):
                metric = self._metrics[name][labelset]
                entry = {
                    "name": name,
                    "kind": metric.kind,
                    "labels": dict(labelset),
                }
                entry.update(metric.to_dict())
                out.append(entry)
        return {"metrics": out}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsRegistry":
        """Rebuild a :meth:`to_dict` snapshot; anything else raises
        :class:`MetricsSnapshotError`."""
        registry = cls()
        try:
            for entry in data["metrics"]:
                kind = entry["kind"]
                labelset = _labelset(entry["labels"])
                if kind == "histogram":
                    metric = registry._get_or_create(
                        entry["name"], kind, labelset,
                        lambda e=entry: Histogram(e["buckets"]),
                    )
                else:
                    metric = registry._get_or_create(
                        entry["name"], kind, labelset, _KINDS[kind]
                    )
                metric.load(entry)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise MetricsSnapshotError(
                f"not a metrics snapshot: {type(exc).__name__}: {exc}"
            ) from exc
        return registry

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        return cls.from_dict(json.loads(text))

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (one TYPE line per family)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            prom = _prom_name(name)
            kind = self._kinds[name]
            lines.append(f"# TYPE {prom} {kind}")
            for labelset in sorted(self._metrics[name]):
                metric = self._metrics[name][labelset]
                label_str = ",".join(
                    f'{k}="{_prom_label_value(v)}"' for k, v in labelset
                )
                if isinstance(metric, Histogram):
                    cumulative = metric.cumulative_counts()
                    bounds = [str(b) for b in metric.buckets] + ["+Inf"]
                    for bound, count in zip(bounds, cumulative):
                        le = ",".join(filter(None, [label_str, f'le="{bound}"']))
                        lines.append(f"{prom}_bucket{{{le}}} {count}")
                    suffix = f"{{{label_str}}}" if label_str else ""
                    lines.append(f"{prom}_sum{suffix} {metric.sum}")
                    lines.append(f"{prom}_count{suffix} {metric.count}")
                else:
                    suffix = f"{{{label_str}}}" if label_str else ""
                    lines.append(f"{prom}{suffix} {metric.value}")
        return "\n".join(lines) + ("\n" if lines else "")


# -- the process-local default registry ---------------------------------------

_default_registry = MetricsRegistry()

#: Per-thread registry override stack (see :func:`use_registry`).
_thread_override = threading.local()


def get_registry() -> MetricsRegistry:
    """The registry all built-in instrumentation records into.

    A thread holding a :func:`use_registry` override gets its own
    registry; every other thread (and the override-free common case)
    gets the process-local default.
    """
    override = getattr(_thread_override, "registry", None)
    if override is not None:
        return override
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-local registry (returns the new one)."""
    global _default_registry
    _default_registry = registry
    return registry


def reset_registry() -> MetricsRegistry:
    """Clear the process-local registry in place (returns it)."""
    _default_registry.reset()
    return _default_registry


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Route this *thread*'s instrumentation into *registry*.

    The request-scoped capture primitive of the serve daemon: each
    request thread records pipeline metrics (stage timings, detector
    counters, its own latency histogram) into a private registry, then
    folds it into the shared process registry under one lock — so
    concurrent requests never race on unsynchronised counter writes.
    Overrides nest; the previous override (or the process default) is
    restored on exit.  Worker *processes* keep using
    :func:`set_registry`, which swaps the process-wide default.
    """
    previous = getattr(_thread_override, "registry", None)
    _thread_override.registry = registry
    try:
        yield registry
    finally:
        _thread_override.registry = previous

