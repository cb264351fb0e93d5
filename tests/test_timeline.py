"""Timeline ring buffers, window queries, and sampling.

Covers the PR's tentpole invariants:

* bounded memory — rings never exceed capacity, the series set never
  exceeds ``max_series``, and long sampling runs hold allocation flat;
* correct window math — counter deltas/rates, gauge change, histogram
  window stats, and the no-data (``None``) vs zero distinction;
* concurrent sampling — an 8-thread serve-style workload sampled
  mid-flight loses and double-counts nothing (satellite);
* the typed ``MetricKindError`` on merge collisions (satellite).
"""

import threading
import tracemalloc

import pytest

from repro.core.resilience import Quarantine
from repro.engine.artifacts import fold_telemetry
from repro.obs.health import HealthMonitor
from repro.obs.metrics import (
    Histogram,
    MetricKindError,
    MetricsRegistry,
    use_registry,
)
from repro.obs.timeline import Timeline, series_id


class TestRing:
    """Each series keeps its points in a ring of the timeline's capacity."""

    @staticmethod
    def gauge_points(capacity, count):
        timeline = Timeline(capacity=capacity)
        for i in range(count):
            timeline.record_gauge("g", {}, float(i), t=float(i))
        return timeline.series["g"]

    def test_keeps_insertion_order_until_full(self):
        series = self.gauge_points(4, 3)
        assert [value for _, value in series.points()] == [0.0, 1.0, 2.0]
        assert series.last() == (2.0, 2.0)

    def test_overwrites_oldest_when_full(self):
        series = self.gauge_points(3, 7)
        assert len(series.ring) == 3
        assert [value for _, value in series.points()] == [4.0, 5.0, 6.0]
        assert series.last() == (6.0, 6.0)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Timeline(capacity=0)


class TestSeriesId:
    def test_bare_and_labelled(self):
        assert series_id("a.total") == "a.total"
        sid = series_id("a.total", (("route", "/x"), ("status", "200")))
        assert sid == "a.total{route=/x,status=200}"


class TestRecording:
    def test_counter_rate_from_consecutive_points(self):
        timeline = Timeline()
        timeline.record_counter("c", {}, 10.0, t=100.0)
        timeline.record_counter("c", {}, 30.0, t=110.0)
        points = timeline.series["c"].points()
        assert points[0][2] == 0.0  # first point has no predecessor
        assert points[1][2] == pytest.approx(2.0)

    def test_counter_reset_clamps_rate_to_zero(self):
        timeline = Timeline()
        timeline.record_counter("c", {}, 50.0, t=100.0)
        timeline.record_counter("c", {}, 5.0, t=110.0)  # process restarted
        assert timeline.series["c"].points()[1][2] == 0.0

    def test_histogram_reduced_to_percentiles(self):
        timeline = Timeline()
        histogram = Histogram((0.1, 1.0))
        for value in (0.05, 0.05, 0.5):
            histogram.observe(value)
        timeline.record_histogram("h", {}, histogram, t=1.0)
        t, count, total, p50, p99 = timeline.series["h"].points()[0]
        assert count == 3
        assert total == pytest.approx(0.6)
        assert 0.0 < p50 <= 0.1
        assert p99 <= 1.0

    def test_empty_histogram_records_null_percentiles(self):
        timeline = Timeline()
        timeline.record_histogram("h", {}, Histogram((1.0,)), t=1.0)
        point = timeline.series["h"].points()[0]
        assert point[1] == 0 and point[3] is None and point[4] is None

    def test_ring_bound_holds_over_many_samples(self):
        timeline = Timeline(capacity=16)
        for i in range(1000):
            timeline.record_counter("c", {}, float(i), t=float(i))
        assert len(timeline.series["c"].ring) == 16

    def test_max_series_cap_counts_drops(self):
        timeline = Timeline(max_series=3)
        for i in range(10):
            timeline.record_counter("c", {"i": str(i)}, 1.0, t=1.0)
        assert len(timeline.series) == 3
        assert timeline.dropped_series == 7


class TestSampleRegistry:
    def test_samples_every_kind(self):
        registry = MetricsRegistry()
        registry.counter("req.total", route="/a").inc(4)
        registry.gauge("depth").set(7)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        timeline = Timeline()
        sampled = timeline.sample_registry(registry, t=1.0)
        assert sampled == 3
        assert timeline.samples == 1
        assert timeline.latest_value("req.total") == 4.0
        assert timeline.latest_value("depth") == 7.0
        assert timeline.latest_value("lat", stat="count") == 1.0


class TestWindowQueries:
    @pytest.fixture()
    def timeline(self):
        timeline = Timeline()
        registry = MetricsRegistry()
        counter_a = registry.counter("req.total", route="/a")
        counter_b = registry.counter("req.total", route="/b")
        gauge = registry.gauge("rss")
        histogram = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        for step in range(5):
            counter_a.inc(10)
            counter_b.inc(2)
            gauge.set(100 + step * 10)
            histogram.observe(0.05)
            timeline.sample_registry(registry, t=100.0 + step * 5)
        return timeline

    def test_counter_delta_sums_label_series(self, timeline):
        # Window covers the last three points (t=110..120): 2 steps.
        assert timeline.counter_delta("req.total", 10.0, now=120.0) == 24.0

    def test_counter_delta_respects_label_filter(self, timeline):
        delta = timeline.counter_delta(
            "req.total", 10.0, labels={"route": "/a"}, now=120.0
        )
        assert delta == 20.0

    def test_single_point_window_is_no_data(self, timeline):
        assert timeline.counter_delta("req.total", 1.0, now=120.0) is None
        assert timeline.rate("req.total", 1.0, now=120.0) is None

    def test_unknown_metric_is_no_data(self, timeline):
        assert timeline.counter_delta("nope", 60.0) is None
        assert timeline.latest_value("nope") is None

    def test_rate_is_delta_over_span(self, timeline):
        rate = timeline.rate("req.total", 10.0, now=120.0)
        assert rate == pytest.approx(24.0 / 10.0)

    def test_gauge_change_per_second(self, timeline):
        change = timeline.gauge_change("rss", 10.0, now=120.0)
        assert change == pytest.approx(2.0)  # +10 per 5 s step

    def test_histogram_window_counts_deltas(self, timeline):
        stats = timeline.histogram_window("lat", 10.0, now=120.0)
        assert stats["count"] == 2.0
        assert stats["mean"] == pytest.approx(0.05)
        assert stats["p50"] is not None

    def test_latest_value_takes_max_for_percentiles(self, timeline):
        assert timeline.latest_value("lat", stat="p99") is not None


class TestSampler:
    """The health monitor samples its registry into its timeline."""

    def test_maybe_sample_respects_interval(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        clock = iter([100.0, 101.0, 106.0]).__next__
        monitor = HealthMonitor(interval_s=5.0, registry=registry, clock=clock)
        monitor.tick()                            # t=100
        assert monitor.timeline.latest_value("c") == 1.0
        assert monitor.maybe_tick() is False      # t=101: too soon
        assert monitor.maybe_tick() is True       # t=106: due
        assert monitor.timeline.samples == 2

    def test_follows_process_registry_when_unbound(self):
        monitor = HealthMonitor(interval_s=1.0)
        private = MetricsRegistry()
        private.counter("mine").inc(9)
        with use_registry(private):
            monitor.tick(now=1.0)
        assert monitor.timeline.latest_value("mine") == 9.0

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
            assert monitor.timeline.samples == 0
        ticker.join()
        assert monitor.timeline.samples == 1
        assert monitor.timeline.latest_value("c") == 1.0


class TestConcurrentSampling:
    """Satellite: serve-style 8-thread workload sampled mid-flight."""

    THREADS = 8
    ITERATIONS = 200

    def test_no_lost_or_double_counted_increments(self):
        process_registry = MetricsRegistry()
        fold_lock = threading.Lock()
        monitor = HealthMonitor(
            capacity=4096, registry=process_registry, lock=fold_lock,
        )
        timeline = monitor.timeline
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

        def sample_loop() -> None:
            t = 0.0
            while not stop.is_set():
                t += 1.0
                monitor.tick(now=t)

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
        last_ts = [series.last()[0] for series in timeline.series.values()]
        monitor.tick(now=(max(last_ts) if last_ts else 0.0) + 1.0)

        expected = self.THREADS * self.ITERATIONS
        # The final sample's totals equal the registry's ground truth:
        # nothing lost, nothing double-counted.
        assert timeline.latest_value("req.total") == float(expected)
        assert timeline.latest_value("lat", stat="count") == float(expected)
        assert process_registry.total("req.total") == expected
        # Every sampled cumulative value is monotonically non-decreasing
        # — a consistent cut can never show a counter going backwards.
        for sid, series in timeline.series.items():
            if series.kind != "counter":
                continue
            values = [point[1] for point in series.ring]
            assert values == sorted(values), sid


class TestFlatMemory:
    def test_long_sampling_run_holds_allocation_flat(self):
        registry = MetricsRegistry()
        for route in ("/a", "/b", "/c"):
            registry.counter("req.total", route=route).inc()
        registry.histogram("lat", buckets=(0.01, 0.1)).observe(0.05)
        timeline = Timeline(capacity=64)

        for i in range(2000):
            timeline.sample_registry(registry, t=float(i))
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        for i in range(2000, 10000):
            timeline.sample_registry(registry, t=float(i))
        current, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        # Rings are full after the warm-up, so 8k further samples must
        # not grow the timeline: generous slack for interpreter noise.
        assert current - baseline < 256 * 1024
        assert all(
            len(series.ring) <= 64 for series in timeline.series.values()
        )
        assert timeline.samples == 10000


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
