"""Alert rules, the incident lifecycle, the health monitor, and wiring.

Covers the PR's alerting layer end to end:

* rule-file parsing — TOML syntax and validation errors, per-kind
  defaults;
* :class:`~repro.obs.alerts.AlertEngine` — every rule kind, ``for_s``
  debounce, firing→resolved lifecycle, no-data semantics, provenance;
* :class:`~repro.obs.health.HealthMonitor` — ticking, listeners, the
  process-global install the engine fold loops use;
* the serve daemon — ``/alertz``, page-severity ``/readyz``
  degradation, and ``serve.alert`` ledger entries, driven through real
  HTTP against an injected rule file;
* the ``repro alerts`` / ``repro watch`` CLI.
"""

import json
import threading
import time
import urllib.request
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.obs.alerts import (
    AlertConfigError,
    AlertEngine,
    AlertRule,
    load_rules,
    parse_rules,
    render_incidents,
)
from repro.obs.health import (
    HealthMonitor,
    build_monitor,
    get_monitor,
    maybe_tick,
    set_monitor,
)
from repro.obs.ledger import Ledger
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import Timeline
from repro.serve.server import DetectionServer, ServeConfig
from tests.test_serve import get, post

RULES_TOML = """
# fleet alert rules
[[rule]]
name = "error-burn"
kind = "burn_rate"
metric = "serve.requests.total"
labels.status = "500"
denominator = "serve.requests.total"
objective = 0.99
threshold = 2.0
window_s = 60
long_window_s = 300
severity = "page"

[[rule]]
name = "drift"
kind = "drift_psi"
threshold = 0.25
window_s = 120

[[rule]]
name = "quarantine"
kind = "quarantine_budget"
budget = 0.05
window_s = 600
for_s = 30
"""


@pytest.fixture(autouse=True)
def _no_global_monitor():
    """Tests must not leak a process-global monitor into each other."""
    set_monitor(None)
    yield
    set_monitor(None)


# -- TOML parsing ---------------------------------------------------------------


class TestRuleParsing:
    def test_valid_file_round_trips(self, tmp_path):
        path = tmp_path / "alerts.toml"
        path.write_text(RULES_TOML)
        rules = load_rules(path)
        assert [r.name for r in rules] == ["error-burn", "drift", "quarantine"]
        assert rules[0].severity == "page"

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(AlertConfigError, match="not found"):
            load_rules(tmp_path / "absent.toml")

    @pytest.mark.parametrize("text", ["[[rule\n", "[[rule]]\nname\n"])
    def test_toml_syntax_error_is_config_error(self, text):
        with pytest.raises(AlertConfigError, match=r"rules\.toml: .*line"):
            parse_rules(text, source="rules.toml")

    def test_duplicate_names_rejected(self):
        text = RULES_TOML + "\n[[rule]]\nname = \"drift\"\nkind = \"drift_psi\"\n"
        with pytest.raises(AlertConfigError, match="duplicate rule name"):
            parse_rules(text)

    def test_unknown_keys_rejected(self):
        with pytest.raises(AlertConfigError, match="unknown keys"):
            parse_rules(
                '[[rule]]\nname = "x"\nkind = "drift_psi"\nfoo = 1\n'
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(AlertConfigError, match="unknown kind"):
            parse_rules('[[rule]]\nname = "x"\nkind = "nope"\n')

    def test_threshold_requires_metric(self):
        with pytest.raises(AlertConfigError, match="requires 'metric'"):
            parse_rules('[[rule]]\nname = "x"\nkind = "threshold"\n')

    def test_burn_rate_validation(self):
        base = ('[[rule]]\nname = "x"\nkind = "burn_rate"\n'
                'metric = "m"\ndenominator = "d"\n')
        with pytest.raises(AlertConfigError, match="objective"):
            parse_rules(base + "objective = 1.5\nlong_window_s = 300\n")
        with pytest.raises(AlertConfigError, match="long_window_s"):
            parse_rules(base + "objective = 0.9\nlong_window_s = 10\n")
        with pytest.raises(AlertConfigError, match="denominator"):
            parse_rules(
                '[[rule]]\nname = "x"\nkind = "burn_rate"\nmetric = "m"\n'
                "objective = 0.9\nlong_window_s = 300\n"
            )

    def test_quarantine_budget_bounds(self):
        with pytest.raises(AlertConfigError, match="budget"):
            parse_rules(
                '[[rule]]\nname = "x"\nkind = "quarantine_budget"\n'
                "budget = 0.0\n"
            )

    def test_bad_severity_and_op(self):
        with pytest.raises(AlertConfigError, match="severity"):
            parse_rules(
                '[[rule]]\nname = "x"\nkind = "drift_psi"\n'
                'severity = "critical"\n'
            )
        with pytest.raises(AlertConfigError, match="op"):
            parse_rules(
                '[[rule]]\nname = "x"\nkind = "drift_psi"\nop = ">="\n'
            )

    def test_kind_defaults(self):
        rules = parse_rules(
            '[[rule]]\nname = "q"\nkind = "quarantine_budget"\nbudget = 0.1\n'
            '[[rule]]\nname = "d"\nkind = "drift_psi"\n'
            '[[rule]]\nname = "r"\nkind = "rate_of_change"\nmetric = "g"\n'
        )
        quarantine, drift, rate = rules
        assert quarantine.metric == "quarantine.images.total"
        assert quarantine.denominator == "assemble.systems.total"
        assert drift.metric == "drift.psi.max"
        assert rate.stat == "rate"


# -- engine ---------------------------------------------------------------------


def gauge_rule(**overrides):
    kw = dict(name="g-high", kind="threshold", metric="g", stat="value",
              threshold=3.0, window_s=60.0)
    kw.update(overrides)
    rule = AlertRule(**kw)
    rule.validate()
    return rule


class TestAlertEngineLifecycle:
    def test_fire_then_resolve(self):
        engine = AlertEngine([gauge_rule()])
        timeline = Timeline()
        timeline.record_gauge("g", {}, 5.0, t=10.0)
        transitions = engine.evaluate(timeline, now=10.0)
        assert [event for event, _ in transitions] == ["fired"]
        incident = transitions[0][1]
        assert incident.state == "firing"
        assert incident.value == 5.0 and incident.threshold == 3.0
        assert incident.series == "g"
        assert engine.firing_incidents() == [incident]

        timeline.record_gauge("g", {}, 1.0, t=20.0)
        transitions = engine.evaluate(timeline, now=20.0)
        assert [event for event, _ in transitions] == ["resolved"]
        resolved = transitions[0][1]
        assert resolved.state == "resolved"
        assert resolved.resolved_at == 20.0
        assert "resolution" in resolved.window
        assert engine.firing == {}
        assert engine.resolved == [resolved]

    def test_for_s_debounces(self):
        engine = AlertEngine([gauge_rule(for_s=10.0)])
        timeline = Timeline()
        timeline.record_gauge("g", {}, 5.0, t=0.0)
        assert engine.evaluate(timeline, now=0.0) == []   # pending
        assert engine.evaluate(timeline, now=5.0) == []   # still pending
        transitions = engine.evaluate(timeline, now=10.0)
        assert [event for event, _ in transitions] == ["fired"]
        assert transitions[0][1].started_at == 0.0
        assert transitions[0][1].fired_at == 10.0

    def test_for_s_resets_when_condition_drops(self):
        engine = AlertEngine([gauge_rule(for_s=10.0)])
        timeline = Timeline()
        timeline.record_gauge("g", {}, 5.0, t=0.0)
        engine.evaluate(timeline, now=0.0)
        timeline.record_gauge("g", {}, 1.0, t=5.0)   # dips below
        engine.evaluate(timeline, now=5.0)
        timeline.record_gauge("g", {}, 5.0, t=8.0)   # breaches again
        engine.evaluate(timeline, now=8.0)
        # 10s after the FIRST breach, but only 4s after the second:
        assert engine.evaluate(timeline, now=12.0) == []
        transitions = engine.evaluate(timeline, now=18.0)
        assert [event for event, _ in transitions] == ["fired"]

    def test_no_data_is_not_breaching(self):
        engine = AlertEngine([gauge_rule(metric="absent")])
        assert engine.evaluate(Timeline(), now=1.0) == []
        assert engine.firing == {}

    def test_open_incident_refreshes_value(self):
        engine = AlertEngine([gauge_rule()])
        timeline = Timeline()
        timeline.record_gauge("g", {}, 5.0, t=0.0)
        engine.evaluate(timeline, now=0.0)
        timeline.record_gauge("g", {}, 9.0, t=10.0)
        assert engine.evaluate(timeline, now=10.0) == []  # still the same incident
        assert engine.firing["g-high"].value == 9.0

    def test_less_than_op(self):
        rule = gauge_rule(name="g-low", op="<", threshold=2.0)
        engine = AlertEngine([rule])
        timeline = Timeline()
        timeline.record_gauge("g", {}, 1.0, t=0.0)
        transitions = engine.evaluate(timeline, now=0.0)
        assert [event for event, _ in transitions] == ["fired"]

    def test_resolved_history_is_bounded(self):
        engine = AlertEngine([gauge_rule()])
        timeline = Timeline(capacity=2)
        for i in range(AlertEngine.RESOLVED_HISTORY + 10):
            t = float(i * 2)
            timeline.record_gauge("g", {}, 5.0, t=t)
            engine.evaluate(timeline, now=t)
            timeline.record_gauge("g", {}, 1.0, t=t + 1)
            engine.evaluate(timeline, now=t + 1)
        assert len(engine.resolved) == AlertEngine.RESOLVED_HISTORY

    def test_snapshot_shape(self):
        engine = AlertEngine([gauge_rule()])
        timeline = Timeline()
        timeline.record_gauge("g", {}, 5.0, t=0.0)
        engine.evaluate(timeline, now=0.0)
        snapshot = engine.snapshot()
        assert snapshot["evaluations"] == 1
        assert snapshot["rules"][0]["name"] == "g-high"
        assert snapshot["firing"][0]["rule"] == "g-high"
        json.dumps(snapshot)  # must be JSON-clean


def _counter_points(timeline, name, labels, points):
    for t, value in points:
        timeline.record_counter(name, labels, value, t=t)


class TestRuleKinds:
    def test_threshold_delta_on_counter(self):
        rule = AlertRule(name="err", kind="threshold", metric="errs",
                         stat="delta", threshold=5.0, window_s=60.0)
        rule.validate()
        engine = AlertEngine([rule])
        timeline = Timeline()
        _counter_points(timeline, "errs", {}, [(0.0, 0.0), (30.0, 10.0)])
        transitions = engine.evaluate(timeline, now=30.0)
        assert [event for event, _ in transitions] == ["fired"]
        assert transitions[0][1].value == 10.0

    def test_rate_of_change_on_gauge(self):
        rule = AlertRule(name="rss-climb", kind="rate_of_change",
                         metric="rss", stat="change", threshold=5.0,
                         window_s=60.0)
        rule.validate()
        engine = AlertEngine([rule])
        timeline = Timeline()
        timeline.record_gauge("rss", {}, 100.0, t=0.0)
        timeline.record_gauge("rss", {}, 200.0, t=10.0)  # +10/s
        transitions = engine.evaluate(timeline, now=10.0)
        assert [event for event, _ in transitions] == ["fired"]
        assert transitions[0][1].value == pytest.approx(10.0)

    def test_burn_rate_fires_when_both_windows_breach(self):
        rule = AlertRule(name="burn", kind="burn_rate",
                         metric="errs", denominator="total",
                         objective=0.9, threshold=2.0,
                         window_s=60.0, long_window_s=300.0)
        rule.validate()
        engine = AlertEngine([rule])
        timeline = Timeline()
        # 30% errors throughout: burn = 0.3 / 0.1 = 3 in both windows.
        _counter_points(timeline, "errs", {},
                        [(0.0, 0.0), (240.0, 72.0), (300.0, 90.0)])
        _counter_points(timeline, "total", {},
                        [(0.0, 0.0), (240.0, 240.0), (300.0, 300.0)])
        transitions = engine.evaluate(timeline, now=300.0)
        assert [event for event, _ in transitions] == ["fired"]
        incident = transitions[0][1]
        assert incident.value == pytest.approx(3.0)
        assert incident.window["short_burn"] == pytest.approx(3.0)
        assert incident.window["long_burn"] == pytest.approx(3.0)

    def test_burn_rate_short_only_burst_does_not_fire(self):
        rule = AlertRule(name="burn", kind="burn_rate",
                         metric="errs", denominator="total",
                         objective=0.9, threshold=2.0,
                         window_s=60.0, long_window_s=300.0)
        rule.validate()
        engine = AlertEngine([rule])
        timeline = Timeline()
        # Errors only in the last minute: short burn 3, long burn 0.6.
        _counter_points(timeline, "errs", {},
                        [(0.0, 0.0), (240.0, 0.0), (300.0, 30.0)])
        _counter_points(timeline, "total", {},
                        [(0.0, 0.0), (240.0, 400.0), (300.0, 500.0)])
        assert engine.evaluate(timeline, now=300.0) == []

    def test_burn_rate_no_traffic_is_no_data(self):
        rule = AlertRule(name="burn", kind="burn_rate",
                         metric="errs", denominator="total",
                         objective=0.9, threshold=2.0,
                         window_s=60.0, long_window_s=300.0)
        rule.validate()
        engine = AlertEngine([rule])
        assert engine.evaluate(Timeline(), now=300.0) == []

    def test_drift_psi_defaults(self):
        rules = parse_rules(
            '[[rule]]\nname = "drift"\nkind = "drift_psi"\nthreshold = 0.25\n'
        )
        engine = AlertEngine(rules)
        timeline = Timeline()
        timeline.record_gauge("drift.psi.max", {}, 0.4, t=1.0)
        transitions = engine.evaluate(timeline, now=1.0)
        assert [event for event, _ in transitions] == ["fired"]

    def test_quarantine_budget_ratio(self):
        rules = parse_rules(
            '[[rule]]\nname = "q"\nkind = "quarantine_budget"\n'
            "budget = 0.05\nwindow_s = 600\n"
        )
        engine = AlertEngine(rules)
        timeline = Timeline()
        _counter_points(timeline, "quarantine.images.total", {},
                        [(0.0, 0.0), (300.0, 5.0)])
        _counter_points(timeline, "assemble.systems.total", {},
                        [(0.0, 0.0), (300.0, 45.0)])
        transitions = engine.evaluate(timeline, now=300.0)
        assert [event for event, _ in transitions] == ["fired"]
        incident = transitions[0][1]
        assert incident.value == pytest.approx(0.1)   # 5 / (5 + 45)
        assert incident.threshold == 0.05


class TestRenderIncidents:
    def test_text_and_json(self):
        incidents = [{
            "rule": "burn", "kind": "burn_rate", "severity": "page",
            "series": "errs", "state": "resolved",
            "started_at": 0.0, "fired_at": 10.0, "resolved_at": 70.0,
            "value": 3.0, "threshold": 2.0,
        }]
        text = render_incidents(incidents)
        assert "[page] burn (burn_rate) resolved" in text
        assert "after 60.0s" in text
        assert json.loads(render_incidents(incidents, json_output=True))
        assert render_incidents([]) == "no incidents"


# -- health monitor -------------------------------------------------------------


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


class TestHealthMonitor:
    def test_tick_samples_and_publishes_meta_gauges(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(5.0)
        clock = FakeClock(100.0)
        monitor = HealthMonitor(rules=[gauge_rule()], interval_s=5.0,
                                registry=registry, clock=clock)
        transitions = monitor.tick()
        assert [event for event, _ in transitions] == ["fired"]
        assert registry.value("alerts.rules") == 1
        assert registry.value("alerts.firing") == 1
        assert monitor.firing()[0].rule == "g-high"
        assert monitor.firing(severity="page") == []

    def test_maybe_tick_respects_interval(self):
        registry = MetricsRegistry()
        clock = FakeClock(100.0)
        monitor = HealthMonitor(interval_s=5.0, registry=registry, clock=clock)
        assert monitor.maybe_tick() is True
        clock.t = 101.0
        assert monitor.maybe_tick() is False
        clock.t = 106.0
        assert monitor.maybe_tick() is True
        assert monitor.timeline.samples == 2

    def test_listener_gets_transitions_and_errors_are_contained(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(5.0)
        monitor = HealthMonitor(rules=[gauge_rule()], registry=registry,
                                clock=FakeClock(1.0))
        seen = []
        monitor.on_transition(lambda event, inc: seen.append((event, inc.rule)))
        monitor.on_transition(
            lambda event, inc: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        monitor.tick()  # must not raise despite the failing listener
        assert seen == [("fired", "g-high")]

    def test_snapshot_includes_timeline_stats(self):
        monitor = HealthMonitor(registry=MetricsRegistry(),
                                clock=FakeClock(1.0))
        monitor.tick()
        snapshot = monitor.snapshot()
        assert snapshot["timeline"]["samples"] == 1
        assert snapshot["interval_s"] == 5.0
        json.dumps(snapshot)

    def test_background_thread_ticks(self):
        registry = MetricsRegistry()
        monitor = HealthMonitor(interval_s=0.02, registry=registry)
        monitor.start(name="test-health")
        try:
            deadline = time.time() + 5.0
            while monitor.timeline.samples < 2 and time.time() < deadline:
                time.sleep(0.02)
        finally:
            monitor.stop()
        assert monitor.timeline.samples >= 2

    def test_global_install_and_module_maybe_tick(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(5.0)
        clock = FakeClock(100.0)
        monitor = HealthMonitor(rules=[gauge_rule()], interval_s=5.0,
                                registry=registry, clock=clock)
        assert maybe_tick() is False          # nothing installed: no-op
        set_monitor(monitor)
        assert get_monitor() is monitor
        assert maybe_tick() is True
        assert maybe_tick() is False          # within the interval
        assert monitor.engine.firing
        set_monitor(None)
        assert maybe_tick() is False

    def test_build_monitor_loads_rules(self, tmp_path):
        path = tmp_path / "alerts.toml"
        path.write_text(RULES_TOML)
        monitor = build_monitor(rules_path=path, interval_s=1.0)
        assert [r.name for r in monitor.engine.rules] == [
            "error-burn", "drift", "quarantine",
        ]
        assert build_monitor().engine.rules == []


# -- serve integration ----------------------------------------------------------


SERVE_RULES = """
[[rule]]
name = "bad-requests"
kind = "threshold"
metric = "serve.requests.total"
labels.status = "400"
stat = "delta"
threshold = 0.0
window_s = 60
severity = "page"
"""


@pytest.fixture()
def alert_serve_ctx(tmp_path, trained_encore):
    """A daemon with an injected page-severity rule (monitor not threaded).

    ``boot`` never calls ``start_watcher``, so the monitor only ticks
    when the test says so — transitions are fully deterministic.
    """
    snapshot = tmp_path / "model.json"
    trained_encore.save_model(snapshot)
    rules_path = tmp_path / "alerts.toml"
    rules_path.write_text(SERVE_RULES)
    config = ServeConfig(
        snapshot=snapshot,
        port=0,
        alerts_path=rules_path,
        alerts_interval_s=0.1,
        ledger_path=tmp_path / "ledger.jsonl",
    )
    server = DetectionServer(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    ctx = SimpleNamespace(
        server=server,
        base=f"http://127.0.0.1:{server.server_port}",
        ledger_path=tmp_path / "ledger.jsonl",
    )
    yield ctx
    server.stop()
    server.server_close()


class TestServeAlerting:
    def test_full_incident_lifecycle_over_http(self, alert_serve_ctx, capsys):
        server, base = alert_serve_ctx.server, alert_serve_ctx.base
        t0 = time.time()

        # Healthy daemon: rules loaded, nothing firing, ready.
        status, text = get(base, "/alertz")
        assert status == 200
        payload = json.loads(text)
        assert [r["name"] for r in payload["rules"]] == ["bad-requests"]
        assert payload["firing"] == []
        assert get(base, "/readyz")[0] == 200

        # Error burst: two invalid POSTs (400s), sampled across ticks so
        # the 60 s window sees the counter increase.
        server.monitor.tick(now=t0)
        assert post(base, "/v1/check", {"nope": 1})[0] == 400
        server.monitor.tick(now=t0 + 1)
        assert post(base, "/v1/check", {"nope": 2})[0] == 400
        transitions = server.monitor.tick(now=t0 + 2)
        assert ("fired", transitions[0][1])[0] == "fired"

        # /alertz reports the incident; /statusz summarises it.
        payload = json.loads(get(base, "/alertz")[1])
        assert [i["rule"] for i in payload["firing"]] == ["bad-requests"]
        assert payload["firing"][0]["severity"] == "page"
        statusz = json.loads(get(base, "/statusz")[1])
        assert statusz["alerts"]["firing"] == 1
        assert statusz["alerts"]["rules"] == 1

        # A page-severity incident degrades readiness (but not liveness).
        status, text = get(base, "/readyz")
        assert status == 503
        body = json.loads(text)
        assert body["status"] == "degraded"
        assert body["incidents"] == ["bad-requests"]
        assert get(base, "/healthz")[0] == 200

        # The burst scrolls out of the window: the incident resolves and
        # readiness recovers.
        transitions = server.monitor.tick(now=t0 + 200)
        assert [event for event, _ in transitions] == ["resolved"]
        assert get(base, "/readyz")[0] == 200
        payload = json.loads(get(base, "/alertz")[1])
        assert payload["firing"] == []
        assert [i["rule"] for i in payload["resolved"]] == ["bad-requests"]

        # Both transitions landed in the run ledger with provenance.
        entries = [e for e in Ledger(alert_serve_ctx.ledger_path).entries()
                   if e.command == "serve.alert"]
        assert [e.request["event"] for e in entries] == ["fired", "resolved"]
        assert all(e.incidents for e in entries)
        assert entries[1].incidents[0]["state"] == "resolved"

        # The transition counter rode along in the metrics.
        status, text = get(base, "/metrics")
        assert 'serve_alert_transitions_total{event="fired"} 1' in text

        # ...and `repro alerts show` renders them.  (Last: an in-process
        # `main()` resets the process registry the test daemon shares.)
        rc = main(["alerts", "show",
                   "--ledger", str(alert_serve_ctx.ledger_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bad-requests" in out
        assert "resolved" in out

    def test_malformed_explicit_rules_refuse_to_boot(self, tmp_path,
                                                     trained_encore):
        snapshot = tmp_path / "model.json"
        trained_encore.save_model(snapshot)
        bad = tmp_path / "bad.toml"
        bad.write_text('[[rule]]\nname = "x"\nkind = "nope"\n')
        with pytest.raises(AlertConfigError):
            DetectionServer(ServeConfig(
                snapshot=snapshot, port=0, alerts_path=bad, no_ledger=True,
            ))

    def test_watch_renders_one_frame(self, alert_serve_ctx, capsys):
        rc = main(["watch", alert_serve_ctx.base, "--once"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "alerts" in out.lower()
        assert "bad-requests" not in out or "firing" in out.lower()

    def test_watch_unreachable_daemon_fails(self, capsys):
        assert main(["watch", "http://127.0.0.1:9", "--once"]) == 1


# -- CLI ------------------------------------------------------------------------


class TestAlertsCli:
    def test_check_valid_file(self, tmp_path, capsys):
        path = tmp_path / "alerts.toml"
        path.write_text(RULES_TOML)
        assert main(["alerts", "check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 rule(s) valid" in out
        assert "error-burn" in out

    def test_check_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "alerts.toml"
        path.write_text('[[rule]]\nname = "x"\nkind = "nope"\n')
        assert main(["alerts", "check", str(path)]) == 1
        assert "invalid alert rules" in capsys.readouterr().err

    def test_check_missing_file(self, tmp_path):
        assert main(["alerts", "check", str(tmp_path / "nope.toml")]) == 1

    def test_check_dry_run_fires_against_snapshot(self, tmp_path, capsys):
        rules = tmp_path / "alerts.toml"
        rules.write_text(
            '[[rule]]\nname = "drift"\nkind = "drift_psi"\nthreshold = 0.25\n'
        )
        registry = MetricsRegistry()
        registry.gauge("drift.psi.max").set(0.4)
        snapshot = tmp_path / "metrics.json"
        snapshot.write_text(registry.to_json())
        rc = main(["alerts", "check", str(rules), "--metrics", str(snapshot)])
        out = capsys.readouterr().out
        assert rc == 2
        assert "would fire" in out

    def test_check_dry_run_quiet_snapshot(self, tmp_path, capsys):
        rules = tmp_path / "alerts.toml"
        rules.write_text(
            '[[rule]]\nname = "drift"\nkind = "drift_psi"\nthreshold = 0.25\n'
        )
        registry = MetricsRegistry()
        registry.gauge("drift.psi.max").set(0.1)
        snapshot = tmp_path / "metrics.json"
        snapshot.write_text(registry.to_json())
        rc = main(["alerts", "check", str(rules), "--metrics", str(snapshot)])
        assert rc == 0
        assert "no rule fires" in capsys.readouterr().out

    def test_show_empty_ledger(self, tmp_path, capsys):
        rc = main(["alerts", "show",
                   "--ledger", str(tmp_path / "ledger.jsonl")])
        assert rc == 0
        assert "no incidents" in capsys.readouterr().out

    def test_check_armed_run_records_incidents_in_ledger(self, tmp_path,
                                                         capsys):
        """`--alerts` on a batch run: monitor installed, final tick, ledger."""
        corpus = tmp_path / "corpus"
        rc = main(["generate", "--out", str(corpus), "--count", "8",
                   "--seed", "3"])
        assert rc == 0
        rules = tmp_path / "alerts.toml"
        # assemble.systems.total >= 1 the moment training parses images,
        # so this pages during the run — deliberately trigger-happy.
        rules.write_text(
            '[[rule]]\nname = "any-work"\nkind = "threshold"\n'
            'metric = "assemble.systems.total"\nstat = "value"\n'
            'threshold = 0.5\nseverity = "page"\n'
        )
        ledger_path = tmp_path / "ledger.jsonl"
        rc = main([
            "train", "--training", str(corpus),
            "--rules", str(tmp_path / "rules.json"),
            "--ledger", str(ledger_path),
            "--alerts", str(rules),
        ])
        capsys.readouterr()
        assert rc == 0
        assert get_monitor() is None  # uninstalled on the way out
        entries = Ledger(ledger_path).entries()
        assert entries, "train run must land in the ledger"
        incidents = [i for e in entries for i in e.incidents]
        assert [i["rule"] for i in incidents] == ["any-work"]
        assert incidents[0]["state"] == "firing"

    def test_invalid_alerts_file_fails_fast(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["generate", "--out", str(corpus), "--count", "4", "--seed", "3"])
        bad = tmp_path / "bad.toml"
        bad.write_text("not toml at [[\n")
        rc = main([
            "train", "--training", str(corpus),
            "--rules", str(tmp_path / "rules.json"),
            "--no-ledger", "--alerts", str(bad),
        ])
        assert rc == 1
        assert "alert" in capsys.readouterr().err.lower()
