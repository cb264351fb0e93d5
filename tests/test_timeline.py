"""The health monitor's sampled history: rings, window stats, sampling.

Every test drives a :class:`~repro.obs.metrics.MetricsRegistry` through
:meth:`HealthMonitor.tick`, the path the serve daemon and the CLI use.
Window stats are read back through *probe* rules — a threshold of
``-inf`` fires whenever the stat has data, so the open incident's value
is the stat and no incident means no data.

Covers:

* bounded memory — rings never exceed ``CAPACITY``, the series set
  never exceeds ``MAX_SERIES``, and long sampling runs hold allocation
  flat;
* correct window math — counter deltas/rates, gauge change, histogram
  window stats, and the no-data (``None``) vs zero distinction;
* concurrent sampling — an 8-thread serve-style workload sampled
  mid-flight loses and double-counts nothing;
* the typed ``MetricKindError`` on merge collisions.
"""

import threading
import tracemalloc

import pytest

from repro.core.resilience import Quarantine
from repro.engine.artifacts import fold_telemetry
from repro.obs.alerts import AlertRule, series_id
from repro.obs.health import CAPACITY, MAX_SERIES, HealthMonitor
from repro.obs.metrics import (
    MetricKindError,
    MetricsRegistry,
    use_registry,
)


def probe(name, metric, stat, window_s=60.0, **labels):
    """A rule that fires with the stat's value whenever it has data."""
    rule = AlertRule(name=name, kind="threshold", metric=metric, stat=stat,
                     labels=labels, threshold=float("-inf"),
                     window_s=window_s)
    rule.validate()
    return rule


def read(monitor, name):
    """The probe's value at the last tick; ``None`` is no data."""
    incident = monitor.engine.firing.get(name)
    return None if incident is None else incident.value


def ring(monitor, name, **labels):
    return monitor.series[(name, tuple(sorted(labels.items())))][3]


class TestRing:
    """Each series keeps its points in a ring of ``CAPACITY`` points."""

    @staticmethod
    def gauge_ring(count):
        registry = MetricsRegistry()
        monitor = HealthMonitor(registry=registry)
        for i in range(count):
            registry.gauge("g").set(float(i))
            monitor.tick(now=float(i))
        return ring(monitor, "g")

    def test_keeps_insertion_order_until_full(self):
        points = self.gauge_ring(3)
        assert [value for _, value in points] == [0.0, 1.0, 2.0]
        assert points[-1] == (2.0, 2.0)

    def test_overwrites_oldest_when_full(self):
        points = self.gauge_ring(CAPACITY + 4)
        assert len(points) == CAPACITY
        assert points[0] == (4.0, 4.0)
        assert points[-1] == (CAPACITY + 3.0, CAPACITY + 3.0)


class TestSeriesId:
    def test_bare_and_labelled(self):
        assert series_id("a.total") == "a.total"
        sid = series_id("a.total", (("route", "/x"), ("status", "200")))
        assert sid == "a.total{route=/x,status=200}"


class TestRecording:
    def test_counter_rate_from_consecutive_points(self):
        registry = MetricsRegistry()
        monitor = HealthMonitor([probe("rate", "c", "rate")],
                                registry=registry)
        registry.counter("c").inc(10)
        monitor.tick(now=100.0)
        assert read(monitor, "rate") is None  # one point: no predecessor
        registry.counter("c").inc(20)
        monitor.tick(now=110.0)
        assert read(monitor, "rate") == pytest.approx(2.0)
        assert ring(monitor, "c")[-1] == (110.0, 30)  # no stored rate

    def test_counter_reset_clamps_rate_to_zero(self):
        registry = MetricsRegistry()
        monitor = HealthMonitor(
            [probe("rate", "c", "rate"), probe("delta", "c", "delta")],
            registry=registry,
        )
        registry.counter("c").inc(50)
        monitor.tick(now=100.0)
        registry.counter("c").value = 5  # process restarted
        monitor.tick(now=110.0)
        assert read(monitor, "rate") == 0.0
        assert read(monitor, "delta") == 0.0

    def test_histogram_reduced_to_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.05, 0.5):
            histogram.observe(value)
        monitor = HealthMonitor(registry=registry)
        monitor.tick(now=1.0)
        t, count, total, p50, p99 = ring(monitor, "h")[0]
        assert t == 1.0
        assert count == 3
        assert total == pytest.approx(0.6)
        assert 0.0 < p50 <= 0.1
        assert p99 <= 1.0

    def test_empty_histogram_records_null_percentiles(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,))
        monitor = HealthMonitor(registry=registry)
        monitor.tick(now=1.0)
        point = ring(monitor, "h")[0]
        assert point[1] == 0 and point[3] is None and point[4] is None

    def test_ring_bound_holds_over_many_samples(self):
        registry = MetricsRegistry()
        monitor = HealthMonitor(registry=registry)
        for i in range(1000):
            registry.counter("c").inc()
            monitor.tick(now=float(i))
        assert len(ring(monitor, "c")) == CAPACITY
        assert monitor.samples == 1000

    def test_max_series_cap_counts_drops(self):
        registry = MetricsRegistry()
        for i in range(MAX_SERIES + 7):
            registry.counter("c", i=f"{i:04d}").inc()
        monitor = HealthMonitor(registry=registry)
        monitor.tick(now=1.0)
        assert len(monitor.series) == MAX_SERIES
        assert monitor.dropped_series == 7
        # Every later sample counts them again, plus the two alerts.*
        # gauges the first tick published.
        monitor.tick(now=2.0)
        assert monitor.dropped_series == 7 + 7 + 2
        snapshot = monitor.snapshot()["timeline"]
        assert snapshot == {
            "samples": 2, "series": MAX_SERIES, "capacity": CAPACITY,
            "max_series": MAX_SERIES, "dropped_series": 16,
        }


class TestSampleRegistry:
    def test_samples_every_kind(self):
        registry = MetricsRegistry()
        registry.counter("req.total", route="/a").inc(4)
        registry.gauge("depth").set(7)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        monitor = HealthMonitor(
            [probe("req", "req.total", "value"),
             probe("depth", "depth", "value"),
             probe("lat", "lat", "value")],
            registry=registry,
        )
        monitor.tick(now=1.0)
        assert monitor.samples == 1
        assert len(monitor.series) == 3
        assert read(monitor, "req") == 4.0
        assert read(monitor, "depth") == 7.0
        assert read(monitor, "lat") is None  # a histogram has no value
        assert monitor.latest("lat", {}) == [
            ("histogram", ring(monitor, "lat")[0])
        ]
        assert ring(monitor, "lat")[0][1] == 1


class TestWindowQueries:
    """Five samples 5 s apart (t=100..120); rules evaluate at t=120."""

    PROBES = [
        probe("delta", "req.total", "delta", 10.0),
        probe("delta-a", "req.total", "delta", 10.0, route="/a"),
        probe("delta-1s", "req.total", "delta", 1.0),
        probe("rate-1s", "req.total", "rate", 1.0),
        probe("delta-none", "nope", "delta"),
        probe("value-none", "nope", "value"),
        probe("label-none", "req.total", "delta", 10.0, route="/zzz"),
        probe("rate", "req.total", "rate", 10.0),
        probe("change", "rss", "change", 10.0),
        probe("count", "lat", "count", 10.0),
        probe("mean", "lat", "mean", 10.0),
        probe("p50", "lat", "p50", 10.0),
        probe("p99", "lat", "p99", 10.0),
        probe("p99-slow", "lat", "p99", 10.0, route="/slow"),
    ]

    @pytest.fixture(scope="class")
    def monitor(self):
        registry = MetricsRegistry()
        monitor = HealthMonitor(self.PROBES, registry=registry)
        counter_a = registry.counter("req.total", route="/a")
        counter_b = registry.counter("req.total", route="/b")
        gauge = registry.gauge("rss")
        fast = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        slow = registry.histogram("lat", route="/slow",
                                  buckets=(0.01, 0.1, 1.0))
        for step in range(5):
            counter_a.inc(10)
            counter_b.inc(2)
            gauge.set(100 + step * 10)
            fast.observe(0.05)
            slow.observe(0.5)
            monitor.tick(now=100.0 + step * 5)
        return monitor

    def test_counter_delta_sums_label_series(self, monitor):
        # Window covers the last three points (t=110..120): 2 steps.
        assert read(monitor, "delta") == 24.0
        assert isinstance(read(monitor, "delta"), float)

    def test_counter_delta_respects_label_filter(self, monitor):
        assert read(monitor, "delta-a") == 20.0
        assert read(monitor, "label-none") is None

    def test_single_point_window_is_no_data(self, monitor):
        assert read(monitor, "delta-1s") is None
        assert read(monitor, "rate-1s") is None

    def test_unknown_metric_is_no_data(self, monitor):
        assert read(monitor, "delta-none") is None
        assert read(monitor, "value-none") is None
        assert monitor.latest("nope", {}) == []
        assert monitor.windows("nope", {}, 60.0, 120.0) == []

    def test_rate_is_delta_over_span(self, monitor):
        assert read(monitor, "rate") == pytest.approx(24.0 / 10.0)

    def test_gauge_change_per_second(self, monitor):
        assert read(monitor, "change") == pytest.approx(2.0)  # +10 per 5 s

    def test_histogram_window_counts_deltas(self, monitor):
        # Both series observe once per step: 2 steps × 2 series.
        assert read(monitor, "count") == 4.0
        assert read(monitor, "mean") == pytest.approx((0.1 + 1.0) / 4)
        assert read(monitor, "p50") is not None
        window = monitor.engine.firing["count"].window
        assert window["count"] == 4.0

    def test_latest_value_takes_max_for_percentiles(self, monitor):
        # p99 is the latest estimate, maxed across the matching series.
        assert read(monitor, "p99") == read(monitor, "p99-slow")
        assert read(monitor, "p99") > 0.1


class TestSampler:
    """The health monitor samples its registry into its rings."""

    def test_maybe_sample_respects_interval(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        clock = iter([100.0, 101.0, 106.0]).__next__
        monitor = HealthMonitor(interval_s=5.0, registry=registry, clock=clock)
        monitor.tick()                            # t=100
        assert monitor.latest("c", {}) == [("counter", (100.0, 1))]
        assert monitor.maybe_tick() is False      # t=101: too soon
        assert monitor.maybe_tick() is True       # t=106: due
        assert monitor.samples == 2

    def test_follows_process_registry_when_unbound(self):
        monitor = HealthMonitor(interval_s=1.0)
        private = MetricsRegistry()
        private.counter("mine").inc(9)
        with use_registry(private):
            monitor.tick(now=1.0)
        assert monitor.latest("mine", {}) == [("counter", (1.0, 9))]

    def test_sample_under_lock(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        lock = threading.Lock()
        monitor = HealthMonitor(registry=registry, lock=lock)
        with lock:
            # A tick waits for the caller's lock: samples are consistent cuts.
            ticker = threading.Thread(target=monitor.tick, kwargs={"now": 1.0})
            ticker.start()
            ticker.join(timeout=0.05)
            assert monitor.samples == 0
        ticker.join()
        assert monitor.samples == 1
        assert monitor.latest("c", {}) == [("counter", (1.0, 1))]


class TestConcurrentSampling:
    """A serve-style 8-thread workload sampled mid-flight."""

    THREADS = 8
    ITERATIONS = 200

    def test_no_lost_or_double_counted_increments(self):
        process_registry = MetricsRegistry()
        fold_lock = threading.Lock()
        monitor = HealthMonitor(registry=process_registry, lock=fold_lock)
        stop = threading.Event()

        def worker(index: int) -> None:
            # Exactly the serve request pattern: a private registry per
            # unit of work, folded under the shared lock.
            for _ in range(self.ITERATIONS):
                private = MetricsRegistry()
                private.counter("req.total",
                                route=f"/r{index % 2}").inc()
                private.histogram(
                    "lat", buckets=(0.001, 0.01)
                ).observe(0.0005)
                with fold_lock:
                    process_registry.merge(private)

        clock = [0.0]

        def sample_loop() -> None:
            while not stop.is_set():
                clock[0] += 1.0
                monitor.tick(now=clock[0])

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.THREADS)
        ]
        sampler_thread = threading.Thread(target=sample_loop)
        sampler_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        sampler_thread.join()
        monitor.tick(now=clock[0] + 1.0)

        expected = self.THREADS * self.ITERATIONS
        # The final sample's totals equal the registry's ground truth:
        # nothing lost, nothing double-counted.
        assert sum(point[1] for _, point in
                   monitor.latest("req.total", {})) == expected
        assert [point[1] for _, point in monitor.latest("lat", {})] == \
            [expected]
        assert process_registry.total("req.total") == expected
        # Every sampled cumulative value is monotonically non-decreasing
        # — a consistent cut can never show a counter going backwards.
        for sid, kind, _, points in monitor.series.values():
            if kind != "counter":
                continue
            values = [point[1] for point in points]
            assert values == sorted(values), sid


class TestFlatMemory:
    def test_long_sampling_run_holds_allocation_flat(self):
        registry = MetricsRegistry()
        for route in ("/a", "/b", "/c"):
            registry.counter("req.total", route=route).inc()
        registry.histogram("lat", buckets=(0.01, 0.1)).observe(0.05)
        monitor = HealthMonitor(registry=registry)

        for i in range(2 * CAPACITY):
            monitor.tick(now=float(i))
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        for i in range(2 * CAPACITY, 10000):
            monitor.tick(now=float(i))
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        # Rings are full after the warm-up, so thousands of further
        # samples must not grow the history: generous slack for
        # interpreter noise.
        assert current - baseline < 256 * 1024
        assert all(
            len(points) <= CAPACITY for *_, points in monitor.series.values()
        )
        assert monitor.samples == 10000


class TestMetricKindErrorSatellite:
    def test_accessor_collision_is_typed(self):
        registry = MetricsRegistry()
        registry.counter("x.total").inc()
        with pytest.raises(MetricKindError) as excinfo:
            registry.gauge("x.total")
        error = excinfo.value
        assert error.metric == "x.total"
        assert error.bound == "counter"
        assert error.requested == "gauge"
        assert "x.total" in str(error)
        assert isinstance(error, ValueError)  # backward compatibility

    def test_merge_snapshot_collision_names_the_metric(self):
        ours = MetricsRegistry()
        ours.counter("shared.metric").inc()
        theirs = MetricsRegistry()
        theirs.gauge("shared.metric").set(5)
        envelope = {"metrics": theirs.to_dict(), "quarantine": [], "dropped": 0}
        with use_registry(ours):
            with pytest.raises(MetricKindError) as excinfo:
                fold_telemetry(envelope, Quarantine())
        assert excinfo.value.metric == "shared.metric"

    def test_registry_merge_collision_histogram_vs_counter(self):
        ours = MetricsRegistry()
        ours.histogram("h", buckets=(1.0,)).observe(0.5)
        theirs = MetricsRegistry()
        theirs.counter("h").inc()
        with pytest.raises(MetricKindError):
            ours.merge(theirs)
