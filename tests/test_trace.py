"""Distributed tracing: identity, propagation, exemplars, golden export.

The golden-file test pins the Chrome ``trace_event`` export for a
synthetic ``--workers 2`` profile document byte-for-byte — coordinator
spans, two worker shard forests re-anchored onto the coordinator clock
line, and the flow-event pairs that draw the cross-process parent
arrows.  The live tests then assert the same parent links hold for a
real pool run at ``--workers 2``, without pinning timestamps.
"""

import json
from pathlib import Path

from repro.core.pipeline import EnCore
from repro.obs.profile import chrome_trace
from repro.obs.tracing import (
    TraceContext,
    TraceExemplars,
    Tracer,
    current_context,
    set_tracer,
    use_tracer,
)

GOLDEN = Path(__file__).parent / "data" / "chrome_trace.golden"


class FakeClock:
    """Deterministic clock: each read advances by ``step``."""

    def __init__(self, start: float = 0.0, step: float = 0.25) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def _flatten_ids(nodes) -> list:
    out = []
    for node in nodes:
        out.append(node.span_id)
        out.extend(_flatten_ids(node.children))
    return out


def _flatten_wire_names(nodes) -> list:
    out = []
    for node in nodes:
        out.append(node["name"])
        out.extend(_flatten_wire_names(node.get("children", ())))
    return out


# -- identity --------------------------------------------------------------------


class TestTraceIdentity:
    def test_span_ids_deterministic(self):
        def build():
            tracer = Tracer(clock=FakeClock(),
                            context=TraceContext.root("trace-fixed"))
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            with tracer.span("c"):
                pass
            return _flatten_ids(tracer.roots)

        first, second = build(), build()
        assert first == second
        assert len(set(first)) == 3
        for span_id in first:
            assert len(span_id) == 16
            int(span_id, 16)  # hex

    def test_seed_separates_tracers_of_one_trace(self):
        context = TraceContext.root("shared-trace")
        a = Tracer(clock=FakeClock(), context=context, seed="shard0")
        b = Tracer(clock=FakeClock(), context=context, seed="shard1")
        with a.span("check.shard"):
            pass
        with b.span("check.shard"):
            pass
        assert a.roots[0].span_id != b.roots[0].span_id

    def test_context_round_trip(self):
        context = TraceContext("t" * 16, span_id="s" * 16)
        rebuilt = TraceContext.from_dict(context.to_dict())
        assert rebuilt.trace_id == context.trace_id
        assert rebuilt.span_id == context.span_id
        # Empty ids are elided from the wire form entirely.
        assert TraceContext.root("x").to_dict() == {"trace_id": "x"}

    def test_current_context_names_innermost_span(self):
        tracer = Tracer(context=TraceContext.root("ctx-trace"))
        with use_tracer(tracer):
            with tracer.span("outer") as outer:
                context = current_context()
                assert context is not None
                assert context.trace_id == "ctx-trace"
                assert context.span_id == outer.span_id
                with tracer.span("inner") as inner:
                    assert current_context().span_id == inner.span_id
        assert current_context() is None


# -- propagation (in-process unit + live pool) -----------------------------------


class TestRemoteMerge:
    def test_worker_forest_reparents_under_shipping_span(self):
        coordinator = Tracer(clock=FakeClock(),
                             context=TraceContext.root("merge-trace"))
        with use_tracer(coordinator):
            with coordinator.span("check.batch") as batch:
                shipped = current_context().to_dict()
                # ... the worker, on the far side of the ENCB frame:
                worker = Tracer(
                    clock=FakeClock(start=100.0),
                    context=TraceContext.from_dict(shipped),
                    seed="shard0",
                )
                with worker.span("check.shard", shard=0):
                    pass
                coordinator.merge_remote(worker.snapshot(shard=0))
        assert len(coordinator.remote) == 1
        snapshot = coordinator.remote[0]
        assert snapshot["trace_id"] == "merge-trace"
        assert snapshot["parent_id"] == batch.span_id
        assert snapshot["spans"][0]["parent_id"] == batch.span_id
        assert snapshot["shard"] == 0
        assert set(snapshot["anchor"]) == {"epoch", "clock"}

    def test_empty_worker_snapshot_is_dropped(self):
        coordinator = Tracer(context=TraceContext.root("quiet"))
        with use_tracer(coordinator):
            coordinator.merge_remote({"trace_id": "quiet", "spans": []})
            coordinator.merge_remote({})
        assert coordinator.remote == []


class TestLivePropagation:
    def test_check_stream_workers2_parent_links(self, trained_encore,
                                                small_corpus):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            reports = list(trained_encore.check_stream(
                list(small_corpus[:6]), workers=2, chunk_size=3,
            ))
        finally:
            set_tracer(None)
        assert len(reports) == 6
        local_ids = set(_flatten_ids(tracer.roots))
        assert tracer.remote, "worker span snapshots should fold back"
        shards = set()
        for snapshot in tracer.remote:
            assert snapshot["trace_id"] == tracer.trace_id
            # The remote parent is a real coordinator span ...
            assert snapshot["parent_id"] in local_ids
            shards.add(snapshot["shard"])
            for root in snapshot["spans"]:
                # ... and every worker root names it as parent.
                assert root["parent_id"] == snapshot["parent_id"]
                assert root["name"] == "check.shard"
                assert root["span_id"] not in local_ids
        assert shards == {0, 1}

    def test_worker_spans_carry_resources(self, trained_encore, small_corpus):
        tracer = set_tracer(Tracer())
        try:
            list(trained_encore.check_stream(
                list(small_corpus[:6]), workers=2, chunk_size=3,
            ))
        finally:
            set_tracer(None)
        assert tracer.remote, "worker span snapshots should fold back"
        for snapshot in tracer.remote:
            for root in snapshot["spans"]:
                assert root["attributes"]["cpu_s"] >= 0
                assert root["attributes"]["max_rss_bytes"] > 0

    def test_rules_identical_tracing_on_off_any_workers(self, small_corpus):
        images = list(small_corpus[:20])

        def digest(tracing: bool, workers: int) -> str:
            encore = EnCore()
            if tracing:
                set_tracer(Tracer())
            try:
                model = encore.train(images, workers=workers, chunk_size=5)
            finally:
                set_tracer(None)
            return model.ruleset_digest()

        baseline = digest(tracing=False, workers=1)
        assert digest(tracing=True, workers=1) == baseline
        assert digest(tracing=False, workers=2) == baseline
        assert digest(tracing=True, workers=2) == baseline


# -- golden Chrome export --------------------------------------------------------


def synthetic_workers2_doc() -> dict:
    """A hand-built ``--workers 2`` profile document, fully pinned.

    Mirrors what ``repro check --profile --workers 2`` produces: a
    coordinator span tree (``check`` → ``check.batch``), and one remote
    span forest per shard with its own epoch↔clock anchor.  Shard 0's
    clock starts at 100 s and shard 1's at 200 s — re-anchoring through
    the two anchor pairs must land both on the coordinator's 10 s line.
    """
    return {
        "command": "check",
        "workers": 2,
        "trace_id": "1111111111111111",
        "anchor": {"epoch": 1000.0, "clock": 10.0},
        "stages": {},
        "shards": [],
        "spans": [
            {
                "name": "check", "ts": 10.0, "dur": 4.0,
                "span_id": "aaaaaaaaaaaaaa01",
                "children": [
                    {
                        "name": "check.batch", "ts": 10.5, "dur": 3.0,
                        "span_id": "aaaaaaaaaaaaaa02",
                        "parent_id": "aaaaaaaaaaaaaa01",
                        "attributes": {"targets": 4, "workers": 2},
                    },
                ],
            },
        ],
        "remote_spans": [
            {
                "trace_id": "1111111111111111",
                "parent_id": "aaaaaaaaaaaaaa02",
                "shard": 1,
                "anchor": {"epoch": 1000.8, "clock": 200.0},
                "spans": [
                    {
                        "name": "check.shard", "ts": 200.1, "dur": 1.2,
                        "span_id": "cccccccccccccc01",
                        "parent_id": "aaaaaaaaaaaaaa02",
                        "attributes": {"shard": 1, "items": 2},
                        "children": [
                            {
                                "name": "assemble.image", "ts": 200.2,
                                "dur": 0.4,
                                "span_id": "cccccccccccccc02",
                                "parent_id": "cccccccccccccc01",
                            },
                        ],
                    },
                ],
            },
            {
                "trace_id": "1111111111111111",
                "parent_id": "aaaaaaaaaaaaaa02",
                "shard": 0,
                "anchor": {"epoch": 1000.7, "clock": 100.0},
                "spans": [
                    {
                        "name": "check.shard", "ts": 100.0, "dur": 1.0,
                        "span_id": "bbbbbbbbbbbbbb01",
                        "parent_id": "aaaaaaaaaaaaaa02",
                        "attributes": {"shard": 0, "items": 2},
                    },
                ],
            },
        ],
    }


class TestChromeTraceGolden:
    def test_export_matches_golden(self):
        rendered = json.dumps(chrome_trace(synthetic_workers2_doc()),
                              indent=1, sort_keys=True) + "\n"
        assert rendered == GOLDEN.read_text()

    def test_cross_process_flow_links(self):
        events = chrome_trace(synthetic_workers2_doc())["traceEvents"]
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        # One flow start at the coordinator parent span, one finish per
        # worker forest, all tied together by the parent span id.
        assert len(starts) == 1
        assert starts[0]["pid"] == 1
        assert starts[0]["id"] == "aaaaaaaaaaaaaa02"
        assert len(finishes) == 2
        assert sorted(e["pid"] for e in finishes) == [100, 101]
        assert all(e["id"] == "aaaaaaaaaaaaaa02" for e in finishes)
        assert all(e["bp"] == "e" for e in finishes)

    def test_worker_spans_reanchored_onto_coordinator_clock(self):
        events = chrome_trace(synthetic_workers2_doc())["traceEvents"]
        origin_us = {
            (e["pid"], e["name"]): e["ts"]
            for e in events if e["ph"] == "B"
        }
        # Shard 0 began at worker-clock 100.0 = epoch 1000.7 = 0.7 s
        # after the coordinator anchor → coordinator clock 10.7 s, i.e.
        # 700ms after the `check` root at 10.0 s.
        assert origin_us[(100, "check.shard")] == 700_000
        # Shard 1: 200.1 on a clock anchored at (1000.8, 200.0) →
        # epoch 1000.9 → coordinator 10.9 s → 900 ms.
        assert origin_us[(101, "check.shard")] == 900_000
        assert origin_us[(101, "assemble.image")] == 1_000_000


# -- exemplars -------------------------------------------------------------------


class TestTraceExemplars:
    def test_keeps_slowest(self):
        exemplars = TraceExemplars(capacity=2)
        for index, seconds in enumerate([0.1, 0.5, 0.3, 0.9, 0.2]):
            exemplars.offer({"trace_id": f"t{index}"}, seconds=seconds,
                            route="/v1/check", request_id=f"r{index}")
        data = exemplars.to_dict()
        assert data["seen"] == 5
        assert [item["seconds"] for item in data["slowest"]] == [0.9, 0.5]
        assert data["slowest"][0]["trace"] == {"trace_id": "t3"}
        assert data["errored"] == []

    def test_keeps_recent_errors_in_full(self):
        exemplars = TraceExemplars(capacity=2)
        exemplars.offer({"trace_id": "ok"}, seconds=9.0, request_id="fast")
        for index in range(3):
            exemplars.offer({"trace_id": f"boom{index}"}, seconds=0.01,
                            status=500, request_id=f"e{index}")
        data = exemplars.to_dict()
        # Newest errors first; the oldest fell off the ring.
        assert [item["request_id"] for item in data["errored"]] == ["e2", "e1"]
        # Error traces are complete, not summaries.
        assert data["errored"][0]["trace"] == {"trace_id": "boom2"}
        # The slow-but-healthy request still holds a slow slot.
        assert data["slowest"][0]["request_id"] == "fast"
