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
    Incident,
    load_rules,
    parse_rules,
)
from repro.obs.health import (
    HealthMonitor,
    get_monitor,
    maybe_tick,
    set_monitor,
)
from repro.obs.ledger import Ledger
from repro.obs.metrics import MetricsRegistry, MetricsSnapshotError, use_registry
from repro.serve.server import DetectionServer, ServeConfig
from repro.sysmodel.snapshot import image_to_dict
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


class Feed:
    """A registry driven through a :class:`HealthMonitor`: set the
    metrics, then tick at an explicit time."""

    def __init__(self, *rules):
        self.registry = MetricsRegistry()
        self.monitor = HealthMonitor(rules, registry=self.registry)
        self.engine = self.monitor.engine

    def gauge(self, t, value, name="g"):
        self.registry.gauge(name).set(value)
        return self.monitor.tick(now=t)

    def counters(self, t, values):
        """Raise each named counter to its cumulative value, then tick."""
        for name, value in values.items():
            counter = self.registry.counter(name)
            counter.inc(value - counter.value)
        return self.monitor.tick(now=t)


class TestAlertEngineLifecycle:
    def test_fire_then_resolve(self):
        feed = Feed(gauge_rule())
        transitions = feed.gauge(10.0, 5.0)
        assert [event for event, _ in transitions] == ["fired"]
        incident = transitions[0][1]
        assert incident.state == "firing"
        assert incident.value == 5.0 and incident.threshold == 3.0
        assert incident.series == "g"
        assert feed.engine.firing_incidents() == [incident]

        transitions = feed.gauge(20.0, 1.0)
        assert [event for event, _ in transitions] == ["resolved"]
        resolved = transitions[0][1]
        assert resolved.state == "resolved"
        assert resolved.resolved_at == 20.0
        assert "resolution" in resolved.window
        assert feed.engine.firing == {}
        assert feed.engine.resolved == [resolved]

    def test_for_s_debounces(self):
        feed = Feed(gauge_rule(for_s=10.0))
        assert feed.gauge(0.0, 5.0) == []                 # pending
        assert feed.monitor.tick(now=5.0) == []           # still pending
        transitions = feed.monitor.tick(now=10.0)
        assert [event for event, _ in transitions] == ["fired"]
        assert transitions[0][1].started_at == 0.0
        assert transitions[0][1].fired_at == 10.0

    def test_for_s_resets_when_condition_drops(self):
        feed = Feed(gauge_rule(for_s=10.0))
        feed.gauge(0.0, 5.0)
        feed.gauge(5.0, 1.0)    # dips below
        feed.gauge(8.0, 5.0)    # breaches again
        # 10s after the FIRST breach, but only 4s after the second:
        assert feed.monitor.tick(now=12.0) == []
        transitions = feed.monitor.tick(now=18.0)
        assert [event for event, _ in transitions] == ["fired"]

    def test_no_data_is_not_breaching(self):
        feed = Feed(gauge_rule(metric="absent"))
        assert feed.monitor.tick(now=1.0) == []
        assert feed.engine.firing == {}

    def test_open_incident_refreshes_value(self):
        feed = Feed(gauge_rule())
        feed.gauge(0.0, 5.0)
        assert feed.gauge(10.0, 9.0) == []  # still the same incident
        assert feed.engine.firing["g-high"].value == 9.0

    def test_less_than_op(self):
        feed = Feed(gauge_rule(name="g-low", op="<", threshold=2.0))
        transitions = feed.gauge(0.0, 1.0)
        assert [event for event, _ in transitions] == ["fired"]

    def test_resolved_history_is_bounded(self):
        feed = Feed(gauge_rule())
        for i in range(AlertEngine.RESOLVED_HISTORY + 10):
            t = float(i * 2)
            feed.gauge(t, 5.0)
            feed.gauge(t + 1, 1.0)
        assert len(feed.engine.resolved) == AlertEngine.RESOLVED_HISTORY

    def test_snapshot_shape(self):
        feed = Feed(gauge_rule())
        feed.gauge(0.0, 5.0)
        snapshot = feed.engine.snapshot()
        assert snapshot["evaluations"] == 1
        assert snapshot["rules"][0]["name"] == "g-high"
        assert snapshot["firing"][0]["rule"] == "g-high"
        json.dumps(snapshot)  # must be JSON-clean


BURN = dict(name="burn", kind="burn_rate", metric="errs", denominator="total",
            objective=0.9, threshold=2.0, window_s=60.0, long_window_s=300.0)


class TestRuleKinds:
    def test_threshold_delta_on_counter(self):
        rule = AlertRule(name="err", kind="threshold", metric="errs",
                         stat="delta", threshold=5.0, window_s=60.0)
        rule.validate()
        feed = Feed(rule)
        feed.counters(0.0, {"errs": 0})
        transitions = feed.counters(30.0, {"errs": 10})
        assert [event for event, _ in transitions] == ["fired"]
        assert transitions[0][1].value == 10.0

    def test_rate_of_change_on_gauge(self):
        rule = AlertRule(name="rss-climb", kind="rate_of_change",
                         metric="rss", stat="change", threshold=5.0,
                         window_s=60.0)
        rule.validate()
        feed = Feed(rule)
        feed.gauge(0.0, 100.0, name="rss")
        transitions = feed.gauge(10.0, 200.0, name="rss")  # +10/s
        assert [event for event, _ in transitions] == ["fired"]
        assert transitions[0][1].value == pytest.approx(10.0)

    def test_burn_rate_fires_when_both_windows_breach(self):
        rule = AlertRule(**BURN)
        rule.validate()
        feed = Feed(rule)
        # 30% errors throughout: burn = 0.3 / 0.1 = 3 in both windows.
        feed.counters(0.0, {"errs": 0, "total": 0})
        feed.counters(240.0, {"errs": 72, "total": 240})
        transitions = feed.counters(300.0, {"errs": 90, "total": 300})
        assert [event for event, _ in transitions] == ["fired"]
        incident = transitions[0][1]
        assert incident.value == pytest.approx(3.0)
        assert incident.window["short_burn"] == pytest.approx(3.0)
        assert incident.window["long_burn"] == pytest.approx(3.0)
        assert incident.window["long_errors"] == 90.0
        assert incident.window["short_total"] == 60.0

    def test_burn_rate_short_only_burst_does_not_fire(self):
        rule = AlertRule(**BURN)
        rule.validate()
        feed = Feed(rule)
        # Errors only in the last minute: short burn 3, long burn 0.6.
        feed.counters(0.0, {"errs": 0, "total": 0})
        feed.counters(240.0, {"errs": 0, "total": 400})
        assert feed.counters(300.0, {"errs": 30, "total": 500}) == []

    def test_burn_rate_no_traffic_is_no_data(self):
        rule = AlertRule(**BURN)
        rule.validate()
        feed = Feed(rule)
        feed.counters(0.0, {"errs": 0, "total": 0})
        assert feed.counters(300.0, {"errs": 0, "total": 0}) == []
        assert feed.monitor.tick(now=600.0) == []
        assert feed.engine.firing == {}

    def test_drift_psi_defaults(self):
        rules = parse_rules(
            '[[rule]]\nname = "drift"\nkind = "drift_psi"\nthreshold = 0.25\n'
        )
        feed = Feed(*rules)
        transitions = feed.gauge(1.0, 0.4, name="drift.psi.max")
        assert [event for event, _ in transitions] == ["fired"]

    def test_quarantine_budget_ratio(self):
        rules = parse_rules(
            '[[rule]]\nname = "q"\nkind = "quarantine_budget"\n'
            "budget = 0.05\nwindow_s = 600\n"
        )
        feed = Feed(*rules)
        feed.counters(0.0, {"quarantine.images.total": 0,
                            "assemble.systems.total": 0})
        transitions = feed.counters(300.0, {"quarantine.images.total": 5,
                                            "assemble.systems.total": 45})
        assert [event for event, _ in transitions] == ["fired"]
        incident = transitions[0][1]
        assert incident.value == pytest.approx(0.1)   # 5 / (5 + 45)
        assert incident.threshold == 0.05

    def test_histogram_stat_of_a_counter_is_no_data(self):
        """A badly typed stat neither raises nor silences later rules."""
        rules = parse_rules(
            '[[rule]]\nname = "p99-of-counter"\nkind = "threshold"\n'
            'metric = "errs"\nstat = "p99"\nop = "<"\nthreshold = 1e9\n'
            '[[rule]]\nname = "mean-of-gauge"\nkind = "threshold"\n'
            'metric = "g"\nstat = "mean"\nop = "<"\nthreshold = 1e9\n'
            '[[rule]]\nname = "g-high"\nkind = "threshold"\n'
            'metric = "g"\nstat = "value"\nthreshold = 3.0\n'
        )
        feed = Feed(*rules)
        feed.registry.gauge("g").set(5.0)
        for t in (0.0, 10.0, 20.0):
            feed.counters(t, {"errs": t})
        # Both badly typed rules would fire on any data (value < 1e9).
        assert sorted(feed.engine.firing) == ["g-high"]
        assert feed.engine.evaluations == 3


class TestRenderIncidents:
    def test_text_and_json(self):
        incidents = [{
            "rule": "burn", "kind": "burn_rate", "severity": "page",
            "series": "errs", "state": "resolved",
            "started_at": 0.0, "fired_at": 10.0, "resolved_at": 70.0,
            "value": 3.0, "threshold": 2.0,
        }]
        incident = Incident(**incidents[0])
        text = incident.describe()
        assert "[page] burn (burn_rate) resolved" in text
        assert "after 60.0s" in text
        assert json.loads(json.dumps(incident.to_dict())) == incidents[0]


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
        assert monitor.samples == 2

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
            while monitor.samples < 2 and time.time() < deadline:
                time.sleep(0.02)
        finally:
            monitor.stop()
        assert monitor.samples >= 2

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

    def test_monitor_loads_rules(self, tmp_path):
        path = tmp_path / "alerts.toml"
        path.write_text(RULES_TOML)
        monitor = HealthMonitor(rules=load_rules(path), interval_s=1.0)
        assert [r.name for r in monitor.engine.rules] == [
            "error-burn", "drift", "quarantine",
        ]
        assert HealthMonitor().engine.rules == []


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

    def test_drift_psi_rule_fires_from_served_checks(self, tmp_path,
                                                     trained_encore,
                                                     held_out_image):
        snapshot = tmp_path / "model.json"
        trained_encore.save_model(snapshot)
        rules_path = tmp_path / "alerts.toml"
        rules_path.write_text(
            '[[rule]]\nname = "drift"\nkind = "drift_psi"\n'
            'threshold = 0.0\nfor_s = 0\n'
        )
        # A private process registry: no drift gauge left by other tests.
        with use_registry(MetricsRegistry()):
            server = DetectionServer(ServeConfig(
                snapshot=snapshot, port=0, alerts_path=rules_path,
                no_ledger=True,
            ))
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.server_port}"
        try:
            # Nothing observed yet: no drift gauge, nothing fires.
            assert server.monitor.tick() == []
            assert "drift_psi_max" not in get(base, "/metrics")[1]
            body = {"image": image_to_dict(held_out_image)}
            for _ in range(6):
                assert post(base, "/v1/check", body)[0] == 200
            transitions = server.monitor.tick()
            assert [(event, i.rule) for event, i in transitions] == \
                [("fired", "drift")]
            assert "drift_psi_max" in get(base, "/metrics")[1]
            payload = json.loads(get(base, "/alertz")[1])
            assert payload["timeline"]["capacity"] == 360
        finally:
            server.stop()
            server.server_close()

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

    @pytest.mark.parametrize("snapshot", [
        [1],
        {},
        {"metrics": 5},
        {"metrics": [{"name": "x", "kind": "summary", "labels": {}, "value": 1}]},
        {"metrics": [{"name": "h", "kind": "histogram", "labels": {},
                      "bucket_counts": [0], "sum": 0, "count": 0}]},
    ], ids=["list", "empty", "metrics-not-list", "unknown-kind",
            "histogram-no-buckets"])
    def test_check_dry_run_rejects_non_snapshot_json(self, tmp_path, capsys,
                                                     snapshot):
        rules = tmp_path / "alerts.toml"
        rules.write_text(
            '[[rule]]\nname = "drift"\nkind = "drift_psi"\nthreshold = 0.25\n'
        )
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(snapshot))
        rc = main(["alerts", "check", str(rules), "--metrics", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        with pytest.raises(MetricsSnapshotError):
            MetricsRegistry.from_dict(snapshot)

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

    def test_badly_typed_stat_does_not_abort_a_sharded_run(self, tmp_path,
                                                           capsys):
        """A histogram stat of a counter is no data, not a crash.

        Two ticks (the first shard fold and the run-end tick) put two
        points in the counter's window; the gauge rule after the badly
        typed one must still be evaluated.
        """
        corpus = tmp_path / "corpus"
        main(["generate", "--out", str(corpus), "--count", "8", "--seed", "3"])
        rules = tmp_path / "alerts.toml"
        rules.write_text(
            '[[rule]]\nname = "p99-of-counter"\nkind = "threshold"\n'
            'metric = "assemble.systems.total"\nstat = "p99"\n'
            'threshold = 0.5\n'
            '[[rule]]\nname = "rules-loaded"\nkind = "threshold"\n'
            'metric = "alerts.rules"\nstat = "value"\nthreshold = 0.5\n'
        )
        ledger_path = tmp_path / "ledger.jsonl"
        rc = main([
            "train", "--training", str(corpus), "--workers", "2",
            "--rules", str(tmp_path / "rules.json"),
            "--ledger", str(ledger_path), "--alerts", str(rules),
        ])
        capsys.readouterr()
        assert rc == 0
        incidents = [i for e in Ledger(ledger_path).entries()
                     for i in e.incidents]
        assert [i["rule"] for i in incidents] == ["rules-loaded"]
        assert incidents[0]["value"] == 2.0

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
