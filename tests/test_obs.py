"""Tests for the observability subsystem (repro.obs)."""

import io
import json

import pytest

from repro.core.pipeline import EnCore
from repro.corpus.generator import Ec2CorpusGenerator
from repro.obs import configure, get_logger, render_stats
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    set_registry,
)
from repro.obs.profile import profile_document, save_profile
from repro.obs.tracing import Tracer, set_tracer, span


class FakeClock:
    """Deterministic clock: each read advances by *step* seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


@pytest.fixture()
def registry():
    return MetricsRegistry()


@pytest.fixture(autouse=True)
def _no_global_tracer():
    yield
    set_tracer(None)


class TestCounter:
    def test_inc_accumulates(self, registry):
        registry.counter("x.y.total").inc()
        registry.counter("x.y.total").inc(4)
        assert registry.value("x.y.total") == 5

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_labels_are_distinct_series(self, registry):
        registry.counter("parse.entries.total", app="mysql").inc(3)
        registry.counter("parse.entries.total", app="php").inc(2)
        assert registry.value("parse.entries.total", app="mysql") == 3
        assert registry.value("parse.entries.total", app="php") == 2
        assert registry.total("parse.entries.total") == 5

    def test_kind_conflict_raises(self, registry):
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")


class TestGauge:
    def test_set_and_inc(self, registry):
        gauge = registry.gauge("queue.depth")
        gauge.set(10)
        gauge.inc(-3)
        assert registry.value("queue.depth") == 7


class TestHistogram:
    def test_observe_buckets(self, registry):
        hist = registry.histogram("t.seconds", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        # non-cumulative: <=1.0, <=10.0, +Inf
        assert hist.bucket_counts == [2, 1, 1]
        assert hist.cumulative_counts() == [2, 3, 4]
        assert hist.count == 4
        assert hist.sum == pytest.approx(106.5)
        assert hist.mean == pytest.approx(106.5 / 4)

    def test_default_buckets(self, registry):
        assert registry.histogram("x.seconds").buckets == DEFAULT_TIME_BUCKETS

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))


class TestMerge:
    def test_counters_add_histograms_fold_gauges_overwrite(self, registry):
        other = MetricsRegistry()
        registry.counter("c", app="a").inc(2)
        other.counter("c", app="a").inc(3)
        other.counter("c", app="b").inc(7)
        registry.gauge("g").set(1)
        other.gauge("g").set(9)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        other.histogram("h", buckets=(1.0,)).observe(2.0)
        registry.merge(other)
        assert registry.value("c", app="a") == 5
        assert registry.value("c", app="b") == 7
        assert registry.value("g") == 9
        hist = registry.histogram("h", buckets=(1.0,))
        assert hist.count == 2 and hist.bucket_counts == [1, 1]

    def test_bucket_mismatch_rejected(self, registry):
        other = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,)).observe(0.1)
        other.histogram("h", buckets=(2.0,)).observe(0.1)
        with pytest.raises(ValueError):
            registry.merge(other)


class TestSerialization:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("parse.entries.total", app="mysql").inc(12)
        registry.gauge("queue.depth").set(3)
        registry.histogram("train.seconds", buckets=(0.1, 1.0)).observe(0.25)
        return registry

    def test_json_round_trip(self):
        registry = self._populated()
        restored = MetricsRegistry.from_json(registry.to_json())
        assert restored.to_dict() == registry.to_dict()

    def test_round_trip_then_merge(self):
        registry = self._populated()
        restored = MetricsRegistry.from_json(registry.to_json())
        restored.merge(self._populated())
        assert restored.value("parse.entries.total", app="mysql") == 24

    def test_prometheus_exposition(self):
        text = self._populated().to_prometheus()
        assert "# TYPE parse_entries_total counter" in text
        assert 'parse_entries_total{app="mysql"} 12' in text
        assert "# TYPE queue_depth gauge" in text
        assert "# TYPE train_seconds histogram" in text
        assert 'train_seconds_bucket{le="+Inf"} 1' in text
        assert "train_seconds_count 1" in text

    def test_prometheus_label_values_escaped(self):
        # Exposition format: backslash, double-quote and newline must be
        # escaped inside label values (in that order — backslash first).
        registry = MetricsRegistry()
        registry.counter("c.total", path='we"ird\\app\nline').inc()
        text = registry.to_prometheus()
        assert 'c_total{path="we\\"ird\\\\app\\nline"} 1' in text
        assert "\nline" not in text.replace("\\nline", "")  # no raw newline

    def test_prometheus_exposition_golden(self):
        """Byte-exact conformance pin for the text exposition format.

        The golden file freezes everything a scraper depends on: exactly
        one ``# TYPE`` line per family, label-value escaping, cumulative
        ``_bucket`` series ending in ``le="+Inf"``, ``_sum``/``_count``
        suffixes, and deterministic name/labelset ordering.  If this
        test fails, either fix the regression or consciously re-bless
        the golden — scrape configs parse this text.
        """
        from pathlib import Path

        registry = MetricsRegistry()
        registry.counter("serve.requests.total",
                         route="/v1/check", status="200").inc(3)
        registry.counter("serve.requests.total",
                         route="/v1/explain", status="400").inc(1)
        registry.counter("parse.errors.total",
                         path='C:\\conf "main"\nnext').inc(2)
        registry.gauge("serve.inflight").set(4)
        latency = registry.histogram(
            "serve.request.latency", buckets=(0.25, 0.5, 2.0),
            route="/v1/check", status="200",
        )
        for value in (0.125, 0.375, 1.0, 4.0):
            latency.observe(value)
        seconds = registry.histogram("check.seconds", buckets=(0.5, 1.0))
        seconds.observe(0.25)
        seconds.observe(0.75)
        golden = (Path(__file__).parent / "data"
                  / "prometheus_exposition.golden").read_text()
        assert registry.to_prometheus() == golden


class TestTracing:
    def test_span_nesting_with_fake_clock(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("train") as train_span:
            with tracer.span("train.assemble", systems=5):
                pass
            with tracer.span("train.infer") as infer_span:
                infer_span.annotate(rules=7)
        assert train_span.duration == 5.0  # reads at t=0 and t=5
        tree = tracer.snapshot()["spans"]
        assert len(tree) == 1
        root = tree[0]
        assert root["name"] == "train"
        children = [c["name"] for c in root["children"]]
        assert children == ["train.assemble", "train.infer"]
        # Every tracer adds the sampled resources beside the annotations.
        sampled = {"cpu_s", "max_rss_bytes", "alloc_peak_bytes"}
        attributes = root["children"][1]["attributes"]
        assert {k: v for k, v in attributes.items() if k not in sampled} == {"rules": 7}

    def test_global_span_records_metric_without_tracer(self):
        registry = set_registry(MetricsRegistry())
        try:
            with span("stage.one", items=3) as s:
                pass
            assert s.end is not None
            hist = registry.histogram("stage.one.seconds")
            assert hist.count == 1
        finally:
            set_registry(MetricsRegistry())

    def test_global_span_feeds_installed_tracer(self):
        registry = set_registry(MetricsRegistry())
        tracer = Tracer(clock=FakeClock())
        set_tracer(tracer)
        try:
            with span("outer"):
                with span("inner"):
                    pass
        finally:
            set_tracer(None)
            set_registry(MetricsRegistry())
        assert len(tracer.roots) == 1
        assert tracer.roots[0].children[0].name == "inner"
        assert registry.histogram("inner.seconds").count == 1

    def test_trace_save_is_valid_json(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        path = save_profile(profile_document(tracer), tmp_path / "trace.json")
        data = json.loads(path.read_text())
        assert data["spans"][0]["name"] == "a"

    def test_span_closed_and_annotated_on_error(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("detect"):
                raise ValueError("bad target")
        (root,) = tracer.roots
        assert root.attributes["error"] == "ValueError"
        assert root.end is not None
        assert root.duration > 0
        # The span stack unwound: the next span is a fresh root.
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.roots] == ["detect", "after"]

    def test_global_span_annotates_error(self):
        registry = set_registry(MetricsRegistry())
        tracer = Tracer(clock=FakeClock())
        set_tracer(tracer)
        try:
            with pytest.raises(KeyError):
                with span("check"):
                    raise KeyError("missing")
        finally:
            set_tracer(None)
            set_registry(MetricsRegistry())
        assert tracer.roots[0].attributes["error"] == "KeyError"
        assert registry.histogram("check.seconds").count == 1


class TestLogging:
    def test_key_value_lines(self):
        stream = io.StringIO()
        configure(verbosity=1, stream=stream)
        get_logger("test").info("model.trained", systems=25, note="a b")
        line = stream.getvalue().strip()
        assert "level=info" in line
        assert "event=model.trained" in line
        assert "systems=25" in line
        assert 'note="a b"' in line

    def test_json_lines(self):
        stream = io.StringIO()
        configure(verbosity=1, stream=stream, json_lines=True)
        get_logger("test").info("evt", n=1)
        payload = json.loads(stream.getvalue())
        assert payload["event"] == "evt" and payload["n"] == 1

    def test_verbosity_gates(self):
        stream = io.StringIO()
        configure(verbosity=0, stream=stream)
        get_logger("test").info("hidden")
        get_logger("test").warning("shown")
        out = stream.getvalue()
        assert "hidden" not in out and "shown" in out


class TestPipelineTelemetry:
    """End-to-end: train + detect populate the registry (tentpole smoke)."""

    @pytest.fixture(scope="class")
    def run_registry(self):
        registry = set_registry(MetricsRegistry())
        try:
            images = Ec2CorpusGenerator(seed=7).generate(20)
            encore = EnCore()
            model = encore.train(images)
            target = Ec2CorpusGenerator(seed=7).generate_one(999)
            encore.check(target)
            yield registry, model
        finally:
            set_registry(MetricsRegistry())

    def test_rules_kept_metric_nonzero(self, run_registry):
        registry, _ = run_registry
        assert registry.total("infer.rules.kept") > 0
        assert registry.total("infer.pairs.candidate") > 0

    def test_detect_warnings_metric_nonzero(self, run_registry):
        registry, _ = run_registry
        assert registry.total("detect.targets.total") == 1
        assert registry.total("detect.warnings.total") > 0

    def test_attribute_growth_counters(self, run_registry):
        registry, _ = run_registry
        original = registry.total("assemble.attributes.original")
        augmented = registry.total("assemble.attributes.augmented")
        assert original > 0
        assert augmented > original  # Table 2: environment integration grows >2x

    def test_stage_timing_histograms(self, run_registry):
        registry, _ = run_registry
        for stage in ("train", "train.assemble", "train.infer", "detect"):
            assert registry.histogram(f"{stage}.seconds").count >= 1, stage

    def test_model_summary_surfaces_telemetry(self, run_registry):
        _, model = run_registry
        summary = model.summary()
        assert summary["telemetry"]["train_seconds"] > 0
        assert summary["telemetry"]["infer_seconds"] > 0

    def test_render_stats_table(self, run_registry):
        registry, _ = run_registry
        text = render_stats(registry)
        assert "stage wall times" in text
        assert "attribute growth" in text
        assert "rule inference" in text
        assert "detection" in text
        assert "growth:" in text
