"""FlightRecorder: ring behaviour, hook wiring, JSON dump, threads."""

import json
import logging as pylogging
import threading

from repro.obs.flight import FlightRecorder, get_flight, set_flight
from repro.obs.logging import get_logger
from repro.obs.tracing import Span, TraceContext, Tracer, use_tracer


class FakeClock:
    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def _span(name: str, error: str = "") -> Span:
    item = Span(name)
    item.start, item.end = 0.0, 0.25
    if error:
        item.annotate(error=error)
    return item


class TestFlightRecorder:
    def test_span_hook_via_tracer(self):
        recorder = FlightRecorder(capacity=8, clock=FakeClock())
        tracer = Tracer(clock=FakeClock(), context=TraceContext.root("t1"))
        set_flight(recorder)
        try:
            with tracer.span("stage.ok"):
                pass
            try:
                with tracer.span("stage.bad"):
                    raise ValueError("nope")
            except ValueError:
                pass
        finally:
            set_flight(None)
        dump = recorder.to_dict()
        assert [entry["name"] for entry in dump["spans"]] == [
            "stage.ok", "stage.bad",
        ]
        assert dump["spans"][0]["trace_id"] == "t1"
        assert dump["spans"][0]["span_id"]
        assert "error" not in dump["spans"][0]
        # The errored span also lands in the error ring, attributed.
        assert len(dump["errors"]) == 1
        assert dump["errors"][0]["source"] == "span"
        assert dump["errors"][0]["name"] == "stage.bad"
        assert dump["errors"][0]["error"] == "ValueError"

    def test_log_hook_sees_below_handler_level_and_joins_trace(self):
        recorder = FlightRecorder(capacity=8)
        tracer = Tracer(context=TraceContext.root("t-join"))
        log = get_logger("test.flight")
        set_flight(recorder)
        try:
            with use_tracer(tracer), tracer.span("outer") as outer:
                log.debug("quiet.event", detail=1)  # below console level
                log.error("loud.event", detail=2)
        finally:
            set_flight(None)
        dump = recorder.to_dict()
        events = [entry["event"] for entry in dump["logs"]]
        # DEBUG reaches the recorder even though the console drops it.
        assert "quiet.event" in events
        quiet = next(e for e in dump["logs"] if e["event"] == "quiet.event")
        assert quiet["fields"]["trace_id"] == "t-join"
        assert quiet["fields"]["span_id"] == outer.span_id
        assert quiet["level"] == "DEBUG"
        # ERROR-level records also feed the error ring.
        errors = [e for e in dump["errors"] if e.get("source") == "log"]
        assert [e["event"] for e in errors] == ["loud.event"]

    def test_incident_listener_adapter(self):
        class Incident:
            def to_dict(self):
                return {"rule": "latency", "severity": "page"}

        recorder = FlightRecorder(capacity=4, clock=FakeClock())
        recorder.incident_listener("fired", Incident())
        recorder.incident_listener("resolved", {"rule": "latency"})
        dump = recorder.to_dict()
        assert [entry["event"] for entry in dump["incidents"]] == [
            "fired", "resolved",
        ]
        assert dump["incidents"][0]["incident"]["severity"] == "page"

    def test_capacity_overwrites_oldest_totals_do_not(self):
        recorder = FlightRecorder(capacity=3, clock=FakeClock())
        for index in range(10):
            recorder.record_log(pylogging.INFO, "t", f"event-{index}")
        dump = recorder.to_dict()
        assert [entry["event"] for entry in dump["logs"]] == [
            "event-7", "event-8", "event-9",
        ]
        assert dump["totals"]["logs"] == 10
        assert recorder.totals()["errors"] == 0

    def test_round_trip_and_save(self, tmp_path):
        recorder = FlightRecorder(capacity=4, clock=FakeClock())
        recorder.record_span(_span("x", error="KeyError"), trace_id="tt")
        recorder.record_incident("fired", {"rule": "r"})
        path = recorder.save(tmp_path / "flight.json")
        assert json.loads(path.read_text()) == recorder.to_dict()

    def test_global_hooks_default_off(self):
        assert get_flight() is None
        # No recorder installed: module span + logger hooks must no-op.
        log = get_logger("test.flight.off")
        log.info("nobody.listening")
        tracer = Tracer()
        with tracer.span("unrecorded"):
            pass


class TestFlightConcurrency:
    def test_eight_threads_exact_totals(self):
        """8 writer threads, exact lifetime totals, intact entries.

        The recorder's contract under concurrency is *exactness*: no
        event lost, no total drifting, every retained entry a complete
        dict — the black box must be trustworthy precisely when the
        process is busiest.
        """
        recorder = FlightRecorder(capacity=64)
        per_thread = 250
        barrier = threading.Barrier(8)

        def work(thread_index: int) -> None:
            barrier.wait()
            for index in range(per_thread):
                recorder.record_log(
                    pylogging.INFO, "conc", f"t{thread_index}.{index}",
                    fields={"i": index},
                )
                recorder.record_span(
                    _span(f"span.t{thread_index}.{index}"),
                    trace_id=f"trace-{thread_index}",
                )
                if index % 50 == 0:
                    recorder.record_incident(
                        "fired", {"rule": f"r{thread_index}"}
                    )

        threads = [
            threading.Thread(target=work, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        totals = recorder.totals()
        assert totals["logs"] == 8 * per_thread
        assert totals["spans"] == 8 * per_thread
        assert totals["incidents"] == 8 * (per_thread // 50)
        assert totals["errors"] == 0
        dump = recorder.to_dict()
        assert len(dump["logs"]) == 64
        assert len(dump["spans"]) == 64
        # 40 incidents total — under capacity, so all are retained.
        assert len(dump["incidents"]) == totals["incidents"]
        for ring in ("logs", "spans", "incidents"):
            for entry in dump[ring]:
                assert isinstance(entry, dict) and "t" in entry
        # Every retained log entry is intact (event matches its field).
        for entry in dump["logs"]:
            thread_index, index = entry["event"][1:].split(".")
            assert entry["fields"]["i"] == int(index)
            assert int(thread_index) in range(8)
