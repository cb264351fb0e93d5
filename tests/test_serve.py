"""Tests for the serve daemon (repro.serve): API, SLOs, admission, reload."""

import json
import math
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.pipeline import EnCore
from repro.corpus.generator import Ec2CorpusGenerator
from repro.obs.ledger import Ledger
from repro.obs.metrics import Histogram
from repro.serve.admission import AdmissionController
from repro.serve.server import DetectionServer, ServeConfig
from repro.sysmodel.snapshot import image_to_dict, save_image

REPO_ROOT = Path(__file__).resolve().parent.parent


# -- HTTP plumbing --------------------------------------------------------------


def post(base, route, body, headers=None):
    """(status, parsed-JSON body, response headers) for one POST."""
    request = urllib.request.Request(
        base + route, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.loads(exc.read()), dict(exc.headers)


def get(base, route):
    """(status, raw text) for one GET."""
    try:
        with urllib.request.urlopen(base + route, timeout=60) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read().decode()


def boot(config):
    """A DetectionServer serving on a background thread."""
    server = DetectionServer(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


# -- fixtures -------------------------------------------------------------------


@pytest.fixture(scope="module")
def serve_ctx(tmp_path_factory, trained_encore, held_out_image):
    """One daemon for the whole module, plus its snapshot and ledger."""
    tmp = tmp_path_factory.mktemp("serve")
    snapshot = tmp / "model.json"
    trained_encore.save_model(snapshot)
    target_path = tmp / "target.json"
    save_image(held_out_image, target_path)
    config = ServeConfig(
        snapshot=snapshot,
        port=0,
        max_inflight=4,
        max_queue=2,
        queue_timeout_s=0.2,
        ledger_path=tmp / "ledger.jsonl",
    )
    server = boot(config)
    ctx = SimpleNamespace(
        server=server,
        base=f"http://127.0.0.1:{server.server_port}",
        snapshot=snapshot,
        target_path=target_path,
        ledger=Ledger(tmp / "ledger.jsonl"),
    )
    yield ctx
    server.stop()
    server.server_close()


@pytest.fixture()
def target_body(held_out_image):
    return {"image": image_to_dict(held_out_image)}


# -- Histogram.quantile (satellite) ---------------------------------------------


class TestHistogramQuantile:
    def test_empty_histogram_is_nan(self):
        # No observations means no honest percentile: the contract is
        # NaN, and JSON surfaces (the serve SLO summary) report null.
        assert math.isnan(Histogram((1.0, 2.0)).quantile(0.5))
        assert math.isnan(Histogram((1.0, 2.0)).quantile(0.0))

    def test_out_of_range_rejected(self):
        histogram = Histogram((1.0,))
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)

    def test_nan_q_rejected(self):
        histogram = Histogram((1.0,))
        histogram.observe(0.5)
        with pytest.raises(ValueError):
            histogram.quantile(math.nan)

    def test_boundary_q_accepted_when_populated(self):
        histogram = Histogram((1.0, 2.0))
        histogram.observe(0.5)
        assert histogram.quantile(0.0) >= 0.0
        assert histogram.quantile(1.0) <= 2.0

    def test_linear_interpolation_within_bucket(self):
        histogram = Histogram((1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0):
            histogram.observe(value)
        # target rank 1.5 lands in the (1, 2] bucket, halfway through.
        assert histogram.quantile(0.5) == pytest.approx(1.5)

    def test_first_bucket_interpolates_from_zero(self):
        histogram = Histogram((1.0, 2.0))
        histogram.observe(0.2)
        histogram.observe(0.4)
        assert histogram.quantile(0.5) == pytest.approx(0.5)

    def test_overflow_clamps_to_highest_finite_bound(self):
        histogram = Histogram((1.0, 2.0))
        for value in (100.0, 200.0, 300.0):
            histogram.observe(value)
        assert histogram.quantile(0.99) == 2.0

    def test_monotone_in_q(self):
        histogram = Histogram((0.01, 0.1, 1.0, 10.0))
        for i in range(100):
            histogram.observe(0.005 * (i + 1))
        quantiles = [histogram.quantile(q / 10) for q in range(11)]
        assert quantiles == sorted(quantiles)


# -- AdmissionController (unit) -------------------------------------------------


class TestAdmissionController:
    def test_admits_up_to_max_inflight(self):
        admission = AdmissionController(max_inflight=2, max_queue=0)
        assert admission.try_acquire()
        assert admission.try_acquire()
        assert admission.inflight == 2

    def test_sheds_when_queue_full(self):
        admission = AdmissionController(max_inflight=1, max_queue=0)
        assert admission.try_acquire()
        assert not admission.try_acquire()
        assert admission.shed_total == 1

    def test_queue_timeout_sheds(self):
        clock = iter([0.0, 10.0]).__next__
        admission = AdmissionController(
            max_inflight=1, max_queue=1, queue_timeout_s=1.0, clock=clock
        )
        assert admission.try_acquire()
        assert not admission.try_acquire()  # deadline passes immediately
        assert admission.shed_total == 1
        assert admission.queued == 0

    def test_release_wakes_queued_waiter(self):
        admission = AdmissionController(
            max_inflight=1, max_queue=1, queue_timeout_s=5.0
        )
        assert admission.try_acquire()
        results = []

        def waiter():
            results.append(admission.try_acquire())

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = time.monotonic() + 2.0
        while admission.queued == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        admission.release()
        thread.join(timeout=2.0)
        assert results == [True]
        admission.release()
        assert admission.inflight == 0

    def test_unmatched_release_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionController().release()

    def test_slot_contextmanager_releases_only_if_taken(self):
        admission = AdmissionController(max_inflight=1, max_queue=0)
        with admission.slot() as admitted:
            assert admitted
            with admission.slot() as nested:
                assert not nested
            assert admission.inflight == 1
        assert admission.inflight == 0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue=-1)
        with pytest.raises(ValueError):
            AdmissionController(queue_timeout_s=-1.0)


# -- the HTTP API ---------------------------------------------------------------


class TestServeApi:
    def test_check_matches_cli_byte_for_byte(self, serve_ctx, target_body):
        status, body, _ = post(serve_ctx.base, "/v1/check", target_body)
        assert status == 200
        http_text = json.dumps(body["report"], indent=1)
        # The same image + snapshot through the real CLI, fresh process.
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check",
             "--model", str(serve_ctx.snapshot),
             "--target", str(serve_ctx.target_path),
             "--json", "--no-ledger"],
            capture_output=True, text=True,
            cwd=REPO_ROOT, env={"PYTHONPATH": str(REPO_ROOT / "src"),
                                "PATH": "/usr/bin:/bin"},
        )
        out = proc.stdout
        cli_text = out[out.index("{"):].rstrip("\n")
        assert http_text == cli_text

    def test_batch_check(self, serve_ctx, small_corpus):
        body = {"images": [image_to_dict(image) for image in small_corpus[:3]]}
        status, parsed, _ = post(serve_ctx.base, "/v1/check", body)
        assert status == 200
        assert len(parsed["reports"]) == 3
        assert all("warnings" in report for report in parsed["reports"])

    def test_explain_agrees_with_check(self, serve_ctx, target_body):
        status, checked, _ = post(serve_ctx.base, "/v1/check", target_body)
        assert status == 200
        if not checked["report"]["warnings"]:
            pytest.skip("held-out image produced no warnings")
        first = checked["report"]["warnings"][0]
        status, explained, _ = post(
            serve_ctx.base, "/v1/explain",
            {**target_body, "attribute": first["attribute"]},
        )
        assert status == 200
        assert explained["warning_count"] == checked["report"]["warning_count"]
        assert explained["matches"], "first warning's attribute must match"
        assert explained["matches"][0]["rank"] == first["rank"]

    def test_explain_unknown_attribute_empty_matches(self, serve_ctx,
                                                     target_body):
        status, body, _ = post(
            serve_ctx.base, "/v1/explain",
            {**target_body, "attribute": "definitely-not-an-attribute"},
        )
        assert status == 200
        assert body["matches"] == []

    def test_suggest_returns_report_and_suggestions(self, serve_ctx,
                                                    target_body):
        status, body, _ = post(serve_ctx.base, "/v1/suggest",
                               {**target_body, "limit": 5})
        assert status == 200
        assert "report" in body
        assert len(body["suggestions"]) <= 5
        for suggestion in body["suggestions"]:
            assert {"action", "attribute", "proposal",
                    "confidence", "rationale"} <= set(suggestion)

    def test_request_id_propagated_and_generated(self, serve_ctx,
                                                 target_body):
        status, body, headers = post(
            serve_ctx.base, "/v1/check", target_body,
            headers={"X-Request-Id": "trace-me-42"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "trace-me-42"
        assert body["request_id"] == "trace-me-42"
        _, _, headers = post(serve_ctx.base, "/v1/check", target_body)
        assert headers["X-Request-Id"]

    def test_bad_json_is_400(self, serve_ctx):
        request = urllib.request.Request(
            serve_ctx.base + "/v1/check", data=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_missing_image_is_400(self, serve_ctx):
        status, body, _ = post(serve_ctx.base, "/v1/check", {"oops": 1})
        assert status == 400
        assert "image" in body["error"]

    def test_invalid_image_is_400(self, serve_ctx):
        status, body, _ = post(serve_ctx.base, "/v1/check",
                               {"image": {"version": 999}})
        assert status == 400
        assert "invalid" in body["error"]

    def test_unknown_route_is_404(self, serve_ctx):
        status, _, _ = post(serve_ctx.base, "/v1/nope", {})
        assert status == 404
        status, _ = get(serve_ctx.base, "/nope")
        assert status == 404


class TestHealthAndMetrics:
    def test_healthz_and_readyz(self, serve_ctx):
        status, text = get(serve_ctx.base, "/healthz")
        assert status == 200
        assert json.loads(text)["status"] == "ok"
        status, text = get(serve_ctx.base, "/readyz")
        assert status == 200
        assert json.loads(text)["status"] == "ready"

    def test_statusz_surface(self, serve_ctx, target_body):
        post(serve_ctx.base, "/v1/check", target_body)
        status, text = get(serve_ctx.base, "/statusz")
        assert status == 200
        statusz = json.loads(text)
        assert statusz["uptime_s"] > 0
        snapshot = statusz["snapshot"]
        assert len(snapshot["ruleset_digest"]) == 64
        assert snapshot["rule_count"] > 0
        assert snapshot["training_size"] == 60
        assert statusz["admission"]["max_inflight"] == 4
        assert statusz["requests_total"] >= 1
        check_slo = statusz["slo"]["/v1/check"]
        assert check_slo["count"] >= 1
        assert 0 < check_slo["p50_ms"] <= check_slo["p99_ms"]

    def test_metrics_exposition(self, serve_ctx, target_body):
        post(serve_ctx.base, "/v1/check", target_body)
        status, text = get(serve_ctx.base, "/metrics")
        assert status == 200
        assert "# TYPE serve_request_latency histogram" in text
        assert ('serve_request_latency_bucket'
                '{route="/v1/check",status="200",le="+Inf"}') in text
        assert "# TYPE serve_shed_total counter" in text
        assert "serve_requests_total" in text
        # Pipeline metrics folded from request registries surface too.
        assert "# TYPE check_seconds histogram" in text

    def test_concurrent_requests_all_counted(self, serve_ctx, target_body):
        before = 0
        with serve_ctx.server.metrics_lock:
            before = serve_ctx.server.registry.total("serve.requests.total")
        statuses = []

        def fire():
            status, _, _ = post(serve_ctx.base, "/v1/check", target_body)
            statuses.append(status)

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert statuses == [200] * 8
        with serve_ctx.server.metrics_lock:
            after = serve_ctx.server.registry.total("serve.requests.total")
        assert after - before >= 8


class TestAdmissionOverHttp:
    def test_overload_sheds_429_and_healthz_stays_up(self, serve_ctx,
                                                     target_body):
        server = serve_ctx.server
        admission = server.admission
        # Deterministic overload: hold every slot, fill the queue's
        # capacity budget by making the next request wait out the
        # (0.2s) queue timeout.
        taken = [admission.try_acquire()
                 for _ in range(server.config.max_inflight)]
        assert all(taken)
        shed_before = server.shed_total()
        try:
            status, body, headers = post(serve_ctx.base, "/v1/check",
                                         target_body)
            assert status == 429
            assert "shed" in body["error"]
            assert headers["Retry-After"] == "1"
            # Liveness is never admission-controlled.
            assert get(serve_ctx.base, "/healthz")[0] == 200
        finally:
            for _ in taken:
                admission.release()
        assert server.shed_total() == shed_before + 1
        status, text = get(serve_ctx.base, "/metrics")
        assert "serve_shed_total" in text
        # And the daemon recovers: the next request is served normally.
        status, _, _ = post(serve_ctx.base, "/v1/check", target_body)
        assert status == 200


class TestLedgerIntegration:
    def test_requests_append_ledger_entries(self, serve_ctx, target_body):
        status, body, _ = post(serve_ctx.base, "/v1/check", target_body)
        assert status == 200
        entries = serve_ctx.ledger.entries()
        commands = [entry.command for entry in entries]
        assert commands[0] == "serve.start"
        mine = [entry for entry in entries
                if entry.request.get("request_id") == body["request_id"]]
        assert len(mine) == 1
        entry = mine[0]
        assert entry.command == "serve.check"
        assert entry.request["route"] == "/v1/check"
        assert entry.request["status"] == 200
        assert entry.targets_checked == 1
        assert entry.ruleset_digest == \
            serve_ctx.server.pool.info["ruleset_digest"]
        assert entry.timing["request_seconds"] > 0


class TestReload:
    @pytest.fixture()
    def reload_ctx(self, tmp_path, trained_encore, small_corpus):
        snapshot = tmp_path / "model.json"
        trained_encore.save_model(snapshot)
        config = ServeConfig(
            snapshot=snapshot, port=0, max_inflight=2, max_queue=2,
            ledger_path=tmp_path / "ledger.jsonl",
        )
        server = boot(config)
        ctx = SimpleNamespace(
            server=server,
            base=f"http://127.0.0.1:{server.server_port}",
            snapshot=snapshot,
            ledger=Ledger(tmp_path / "ledger.jsonl"),
        )
        yield ctx
        server.stop()
        server.server_close()

    def test_reload_swaps_digest_and_records_ledger(self, reload_ctx,
                                                    small_corpus,
                                                    held_out_image):
        digest_before = json.loads(
            get(reload_ctx.base, "/statusz")[1]
        )["snapshot"]["ruleset_digest"]
        # A genuinely different model: half the corpus, fresh instance.
        other = EnCore()
        other.train(list(small_corpus[:30]))
        other.save_model(reload_ctx.snapshot)
        assert reload_ctx.server.reload(trigger="test")
        statusz = json.loads(get(reload_ctx.base, "/statusz")[1])
        assert statusz["snapshot"]["ruleset_digest"] != digest_before
        assert statusz["snapshot"]["reloads"] == 1
        assert statusz["snapshot"]["generation"] == 2
        commands = [entry.command for entry in reload_ctx.ledger.entries()]
        assert "serve.reload" in commands
        # The daemon keeps serving after the swap.
        status, _, _ = post(reload_ctx.base, "/v1/check",
                            {"image": image_to_dict(held_out_image)})
        assert status == 200

    def test_failed_reload_keeps_old_model(self, reload_ctx, held_out_image):
        digest_before = json.loads(
            get(reload_ctx.base, "/statusz")[1]
        )["snapshot"]["ruleset_digest"]
        reload_ctx.snapshot.write_text("{corrupt")
        assert not reload_ctx.server.reload(trigger="test")
        statusz = json.loads(get(reload_ctx.base, "/statusz")[1])
        assert statusz["snapshot"]["ruleset_digest"] == digest_before
        assert statusz["snapshot"]["reload_failures"] == 1
        assert get(reload_ctx.base, "/readyz")[0] == 200
        status, _, _ = post(reload_ctx.base, "/v1/check",
                            {"image": image_to_dict(held_out_image)})
        assert status == 200
        status, text = get(reload_ctx.base, "/metrics")
        assert 'serve_reload_total{outcome="failed"} 1' in text

    def test_reload_of_fieldless_snapshot_fails_and_keeps_model(
        self, reload_ctx, held_out_image
    ):
        digest_before = json.loads(
            get(reload_ctx.base, "/statusz")[1]
        )["snapshot"]["ruleset_digest"]
        # The daemon's registry is the process one, shared with earlier
        # tests: count the failed reloads this test adds.
        failed = reload_ctx.server.registry.counter(
            "serve.reload.total", outcome="failed"
        )
        failed_before = failed.value
        # Decodes fine but lacks every snapshot field.
        reload_ctx.snapshot.write_text(json.dumps({"version": 3}))
        assert not reload_ctx.server.reload(trigger="test")
        statusz = json.loads(get(reload_ctx.base, "/statusz")[1])
        assert statusz["snapshot"]["ruleset_digest"] == digest_before
        assert statusz["snapshot"]["reload_failures"] == 1
        status, _, _ = post(reload_ctx.base, "/v1/check",
                            {"image": image_to_dict(held_out_image)})
        assert status == 200
        assert failed.value == failed_before + 1

    def test_watcher_mtime_poll_triggers_reload(self, tmp_path,
                                                trained_encore):
        snapshot = tmp_path / "model.json"
        trained_encore.save_model(snapshot)
        config = ServeConfig(
            snapshot=snapshot, port=0, max_inflight=2, max_queue=2,
            reload_poll_s=0.05, no_ledger=True,
        )
        server = boot(config)
        server.start_watcher()
        try:
            # Touch the snapshot with a guaranteed-new mtime.
            stat = snapshot.stat()
            import os

            os.utime(snapshot, (stat.st_atime, stat.st_mtime + 10))
            deadline = time.monotonic() + 5.0
            while server.reloads == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert server.reloads == 1
        finally:
            server.stop()
            server.server_close()


class TestServeCli:
    def test_serve_parser_wires_config(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--snapshot", "m.json", "--port", "0",
             "--max-inflight", "2", "--reload"]
        )
        assert args.func.__name__ == "cmd_serve"
        assert args.snapshot == "m.json"
        assert args.max_inflight == 2
        assert args.reload == 2.0  # bare --reload uses the default interval

    def test_missing_snapshot_exits_cleanly(self, tmp_path):
        from repro.cli import main

        rc = main(["serve", "--snapshot", str(tmp_path / "absent.json"),
                   "--port", "0", "--no-ledger"])
        assert rc == 1

    def test_fieldless_snapshot_exits_cleanly(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.persistence import SnapshotCorruptError

        snapshot = tmp_path / "model.json"
        snapshot.write_text(json.dumps({"version": 3}))
        with pytest.raises(SnapshotCorruptError, match="missing or malformed"):
            DetectionServer(ServeConfig(snapshot=snapshot, port=0,
                                        no_ledger=True))
        rc = main(["serve", "--snapshot", str(snapshot), "--port", "0",
                   "--no-ledger"])
        assert rc == 1
        assert "corrupt model snapshot" in capsys.readouterr().err


# -- distributed tracing over HTTP (tracez / flightz / ledger) ------------------


class TestServeTracing:
    @pytest.fixture()
    def traced_ctx(self, tmp_path, serve_ctx):
        """A fresh daemon per test: empty exemplars, flight rings, ledger."""
        config = ServeConfig(
            snapshot=serve_ctx.snapshot,
            port=0,
            max_inflight=2,
            max_queue=2,
            queue_timeout_s=0.2,
            ledger_path=tmp_path / "ledger.jsonl",
        )
        server = boot(config)
        ctx = SimpleNamespace(
            server=server,
            base=f"http://127.0.0.1:{server.server_port}",
            ledger=Ledger(tmp_path / "ledger.jsonl"),
        )
        yield ctx
        server.stop()
        server.server_close()

    def test_request_trace_lands_in_tracez(self, traced_ctx, target_body):
        status, _, _ = post(traced_ctx.base, "/v1/check", target_body,
                            headers={"X-Request-Id": "trace-me-123"})
        assert status == 200
        status, text = get(traced_ctx.base, "/tracez")
        assert status == 200
        data = json.loads(text)
        assert data["seen"] == 1
        assert data["errored"] == []
        exemplar = data["slowest"][0]
        assert exemplar["request_id"] == "trace-me-123"
        assert exemplar["route"] == "/v1/check"
        assert exemplar["status"] == 200
        assert exemplar["seconds"] > 0
        # The caller's request id IS the trace root: one causally linked
        # tree covering admission wait and the model work.
        trace = exemplar["trace"]
        assert trace["trace_id"] == "trace-me-123"
        root = trace["spans"][0]
        assert root["name"] == "serve.request"
        assert root["attributes"]["route"] == "/v1/check"
        assert root["attributes"]["status"] == 200
        children = [child["name"] for child in root["children"]]
        assert children[0] == "serve.admission.wait"
        wait = root["children"][0]
        assert wait["attributes"]["admitted"] is True
        assert wait["parent_id"] == root["span_id"]

    def test_errored_request_keeps_full_exemplar(self, traced_ctx,
                                                 target_body, monkeypatch):
        monkeypatch.setattr(traced_ctx.server.pool, "lease",
                            _raise_runtime_error)
        status, body, _ = post(traced_ctx.base, "/v1/check", target_body,
                               headers={"X-Request-Id": "boom-1"})
        assert status == 500
        status, text = get(traced_ctx.base, "/tracez")
        data = json.loads(text)
        assert [item["request_id"] for item in data["errored"]] == ["boom-1"]
        assert data["errored"][0]["trace"]["trace_id"] == "boom-1"

    def test_flightz_records_spans_and_logs(self, traced_ctx, target_body):
        status, _, _ = post(traced_ctx.base, "/v1/check", target_body,
                            headers={"X-Request-Id": "flight-probe"})
        assert status == 200
        status, text = get(traced_ctx.base, "/flightz")
        assert status == 200
        data = json.loads(text)
        assert data["totals"]["spans"] >= 2
        names = {entry["name"] for entry in data["spans"]}
        assert {"serve.request", "serve.admission.wait"} <= names
        request_span = next(entry for entry in data["spans"]
                            if entry["name"] == "serve.request")
        assert request_span["trace_id"] == "flight-probe"

    def test_ledger_entry_carries_trace_id(self, traced_ctx, target_body):
        status, body, _ = post(traced_ctx.base, "/v1/check", target_body,
                               headers={"X-Request-Id": "ledger-trace-7"})
        assert status == 200
        entries = [entry for entry in traced_ctx.ledger.entries()
                   if entry.command == "serve.check"]
        assert len(entries) == 1
        assert entries[0].request["request_id"] == "ledger-trace-7"
        assert entries[0].request["trace_id"] == "ledger-trace-7"



class TestSharedModel:
    """One EnCore per generation serves every concurrent request."""

    def test_concurrent_checks_share_one_model(self, tmp_path, trained_encore):
        snapshot = trained_encore.save_model(tmp_path / "model.json")
        targets, _ = Ec2CorpusGenerator(seed=303).generate_wild(12)
        reference = EnCore()
        reference.load_model(snapshot)
        expected = [reference.check(target).to_dict() for target in targets]
        server = boot(ServeConfig(snapshot=snapshot, port=0, max_inflight=4,
                                  max_queue=16, no_ledger=True))
        base = f"http://127.0.0.1:{server.server_port}"
        try:
            before, generation = server.pool.acquire()
            with ThreadPoolExecutor(6) as pool:
                responses = list(pool.map(
                    lambda t: post(base, "/v1/check", {"image": image_to_dict(t)}),
                    targets,
                ))
            assert [status for status, _, _ in responses] == [200] * len(targets)
            assert [body["report"] for _, body, _ in responses] == expected
            current, current_generation = server.pool.acquire()
            assert current is before and current_generation == generation
            assert server.reload("test")
            after, next_generation = server.pool.acquire()
            assert after is not before
            assert next_generation == generation + 1
        finally:
            server.stop()
            server.server_close()

def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("injected failure")
