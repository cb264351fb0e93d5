"""Tests for resource profiles derived from sampled spans (repro.obs.profile)."""

import json
import os
import threading
import time
import tracemalloc

import pytest

from repro.cli import main
from repro.core.pipeline import EnCore
from repro.core.resilience import Quarantine
from repro.corpus.generator import Ec2CorpusGenerator
from repro.engine.artifacts import fold_telemetry
from repro.obs.profile import (
    COORDINATOR_PID,
    SHARD_PID_BASE,
    chrome_trace,
    load_profile,
    profile_digest,
    profile_document,
    profile_tables,
    render_profile,
    save_profile,
)
from repro.obs.tracing import (
    Tracer,
    current_context,
    get_tracer,
    set_tracer,
    span,
)


class FakeClock:
    """Deterministic clock: each read advances by *step* seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


@pytest.fixture(autouse=True)
def _no_global_tracer():
    yield
    set_tracer(None)


@pytest.fixture
def fake_resources(monkeypatch):
    """Thread CPU advances 0.25 s per reading; RSS reads a fixed 1 KiB."""
    monkeypatch.setattr("repro.obs.tracing.thread_time", FakeClock(0.25))
    monkeypatch.setattr("repro.obs.tracing.max_rss_bytes", lambda: 1024)


def sampled_tracer(step=1.0):
    return Tracer(clock=FakeClock(step))


def worker_forest(kind, shard, items, inner=(), parent=None):
    """A worker's ``{kind}.shard`` snapshot, as ``_run_shard`` ships it."""
    tracer = Tracer(clock=FakeClock(), context=parent, seed=f"shard{shard}")
    with tracer.span(f"{kind}.shard", shard=shard, items=items):
        for name in inner:
            with tracer.span(name):
                pass
    return tracer.snapshot(shard=shard, pid=os.getpid())


def wire_span(name, dur, children=(), **attributes):
    """A hand-built wire-form span (exact resource attributes)."""
    node = {"name": name, "ts": 0.0, "dur": dur, "attributes": attributes}
    if children:
        node["children"] = list(children)
    return node


def adopt(*forests):
    """A coordinator tracer (no local spans) that adopted *forests*."""
    tracer = sampled_tracer()
    for spans in forests:
        tracer.merge_remote({"shard": 0, "spans": list(spans)})
    return tracer


class TestStageProfile:
    """The ``stages`` table: sums, maxima and tolerance of bare spans."""

    def test_record_accumulates(self, monkeypatch, fake_resources):
        rss = iter([100, 50])
        monkeypatch.setattr("repro.obs.tracing.max_rss_bytes", lambda: next(rss))
        tracer = sampled_tracer()
        for _ in range(2):
            with tracer.span("stage"):
                pass
        stage = profile_tables(tracer)["stages"]["stage"]
        assert stage["wall_s"] == pytest.approx(2.0)
        assert stage["cpu_s"] == pytest.approx(0.5)
        assert stage["calls"] == 2
        assert stage["max_rss_bytes"] == 100  # max, not sum

    def test_merge_is_associative(self):
        a = wire_span("infer", 1.0, cpu_s=0.5, max_rss_bytes=10, alloc_peak_bytes=7,
                      children=[wire_span("infer.template", 0.5, cpu_s=0.25,
                                          max_rss_bytes=30, alloc_peak_bytes=3)])
        b = wire_span("infer", 2.0, cpu_s=1.0, max_rss_bytes=20, alloc_peak_bytes=5)
        c = wire_span("infer.template", 4.0, cpu_s=2.0, max_rss_bytes=5,
                      alloc_peak_bytes=40)
        grouped = profile_tables(adopt([a, b], [c]))
        assert grouped == profile_tables(adopt([a], [b, c]))
        assert grouped["stages"]["infer"] == {
            "wall_s": 3.0, "cpu_s": 1.5, "calls": 2,
            "max_rss_bytes": 20, "alloc_peak_bytes": 7,
        }
        assert grouped["stages"]["infer.template"] == {
            "wall_s": 4.5, "cpu_s": 2.25, "calls": 2,
            "max_rss_bytes": 30, "alloc_peak_bytes": 40,
        }

    def test_dict_round_trip(self, tmp_path, fake_resources):
        tracer = sampled_tracer()
        with tracer.span("train"):
            with tracer.span("train.assemble"):
                pass
        tracer.merge_remote(worker_forest("assemble", 0, 3, inner=["parse"]))
        path = save_profile(profile_document(tracer, command="train"),
                            tmp_path / "profile.json")
        doc = load_profile(path)
        tables = profile_tables(tracer)
        assert doc["stages"] == tables["stages"]
        assert doc["shards"] == tables["shards"]
        assert doc["anchor"] == tracer.anchor
        assert doc["meta"]["command"] == "train"

    def test_from_dict_tolerates_missing_fields(self):
        # A span without resource attributes still folds: wall time and
        # calls count, CPU and peaks read as zero.
        assert profile_tables(adopt([wire_span("detect", 1.0)]))["stages"]["detect"] == {
            "wall_s": 1.0, "cpu_s": 0.0, "calls": 1,
            "max_rss_bytes": 0, "alloc_peak_bytes": 0,
        }


class TestStageProfiler:
    """Resource sampling on spans, and the fold of worker forests."""

    def test_profile_records_wall_and_cpu(self, fake_resources):
        tracer = sampled_tracer(step=1.0)
        with tracer.span("assemble"):
            pass
        stage = profile_tables(tracer)["stages"]["assemble"]
        assert stage["calls"] == 1
        assert stage["wall_s"] == pytest.approx(1.0)
        assert stage["cpu_s"] == pytest.approx(0.25)
        assert stage["max_rss_bytes"] == 1024

    def test_nested_stages_record_separately(self, fake_resources):
        tracer = sampled_tracer()
        with tracer.span("train"):
            with tracer.span("train.assemble"):
                pass
        stages = profile_tables(tracer)["stages"]
        assert set(stages) == {"train", "train.assemble"}
        assert stages["train"]["wall_s"] > stages["train.assemble"]["wall_s"]

    def test_shard_sample_fields(self, fake_resources):
        coordinator = sampled_tracer()
        coordinator.merge_remote(worker_forest("assemble", 3, 7))
        (row,) = profile_tables(coordinator)["shards"]
        assert row == {
            "stage": "assemble", "shard": 3, "items": 7, "wall_s": 1.0,
            "cpu_s": 0.25, "max_rss_bytes": 1024, "pid": os.getpid(),
        }

    def test_merge_dict_folds_stages_and_concatenates_shards(self, fake_resources):
        coordinator = sampled_tracer()
        with coordinator.span("assemble"):
            pass
        coordinator.merge_remote(worker_forest("assemble", 0, 3, inner=["assemble"]))
        tables = profile_tables(coordinator)
        assert tables["stages"]["assemble"]["calls"] == 2
        # The shard root is a shard row, never a stage.
        assert "assemble.shard" not in tables["stages"]
        assert len(tables["shards"]) == 1

    def test_merge_order_independent(self, fake_resources):
        forests = [
            worker_forest("assemble", index, index, inner=["assemble"] * (index + 1))
            for index in range(3)
        ]
        forward, backward = sampled_tracer(), sampled_tracer()
        for forest in forests:
            forward.merge_remote(forest)
        for forest in reversed(forests):
            backward.merge_remote(forest)
        ahead, behind = profile_tables(forward), profile_tables(backward)
        assert ahead["stages"] == behind["stages"]
        assert ahead["stages"]["assemble"]["calls"] == 6

        def by_shard(tables):
            return sorted(tables["shards"], key=lambda row: row["shard"])

        assert by_shard(ahead) == by_shard(behind)
        assert len(ahead["shards"]) == 3

    def test_digest_deterministic_and_content_sensitive(self, fake_resources):
        a, b = sampled_tracer(), sampled_tracer()
        with a.span("x"):
            pass
        with b.span("x"):
            pass
        assert profile_digest(profile_tables(a)) == profile_digest(profile_tables(b))
        with b.span("y"):
            pass
        assert profile_digest(profile_tables(a)) != profile_digest(profile_tables(b))

    def test_tracemalloc_peak_recorded(self):
        # Peaks need allocations traced already (PYTHONTRACEMALLOC=1 in
        # a real run); the tracer itself never starts tracemalloc.
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracer = Tracer()
            with tracer.span("alloc"):
                blob = [bytes(64 * 1024) for _ in range(16)]  # ~1 MB
        finally:
            if started:
                tracemalloc.stop()
        assert blob
        assert profile_tables(tracer)["stages"]["alloc"]["alloc_peak_bytes"] > 256 * 1024

    def test_plain_tracer_samples_cpu_and_rss(self):
        if tracemalloc.is_tracing():
            pytest.skip("the interpreter traces allocations")
        tracer = Tracer()
        with tracer.span("work"):
            blob = [bytes(64 * 1024) for _ in range(16)]
            sum(range(100_000))
        assert blob
        (root,) = tracer.roots
        assert root.attributes["cpu_s"] > 0
        assert root.attributes["max_rss_bytes"] > 0
        # Allocation peaks only when the interpreter already traces them.
        assert "alloc_peak_bytes" not in root.attributes
        assert profile_tables(tracer)["stages"]["work"]["alloc_peak_bytes"] == 0
        assert not tracemalloc.is_tracing()

    def test_cpu_is_the_span_threads_own(self):
        """A sleeping span is not charged another thread's spinning CPU."""
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                pass

        spinner = threading.Thread(target=spin)
        spinner.start()
        try:
            tracer = Tracer()
            with tracer.span("sleep"):
                time.sleep(0.3)
        finally:
            stop.set()
            spinner.join(timeout=5)
        assert not spinner.is_alive()
        (root,) = tracer.roots
        assert root.duration >= 0.3
        assert root.attributes["cpu_s"] < 0.05

    def test_installed_profiler_taps_span_boundary(self, fake_resources):
        tracer = set_tracer(sampled_tracer())
        with span("infer"):
            pass
        (root,) = tracer.roots
        assert {"cpu_s", "max_rss_bytes"} <= set(root.attributes)
        stage = profile_tables(tracer)["stages"]["infer"]
        assert stage["calls"] == 1
        assert stage["wall_s"] == pytest.approx(1.0)

    def test_span_error_still_records_and_annotates(self, fake_resources):
        tracer = set_tracer(sampled_tracer())
        with pytest.raises(RuntimeError):
            with span("detect"):
                raise RuntimeError("boom")
        (root,) = tracer.roots
        assert root.attributes["error"] == "RuntimeError"
        assert root.end is not None  # closed despite the raise
        assert root.attributes["cpu_s"] == pytest.approx(0.25)
        assert profile_tables(tracer)["stages"]["detect"]["calls"] == 1

    @staticmethod
    def fold_spans(spans):
        """Fold a worker envelope that carries only *spans* of telemetry."""
        fold_telemetry(
            {"metrics": {"metrics": []}, "quarantine": [], "dropped": 0,
             "spans": spans},
            Quarantine(),
        )

    def test_merge_snapshot_noop_without_active_profiler(self):
        assert get_tracer() is None
        self.fold_spans(worker_forest("check", 0, 1))  # dropped, no error
        assert get_tracer() is None

    def test_merge_snapshot_folds_into_active(self, fake_resources):
        coordinator = set_tracer(sampled_tracer())
        self.fold_spans(worker_forest("check", 0, 4, inner=["detect"]))
        tables = profile_tables(coordinator)
        assert tables["stages"]["detect"]["calls"] == 1
        assert [(row["stage"], row["items"]) for row in tables["shards"]] == [("check", 4)]


class TestTrainProfileParity:
    """Serial and sharded profiled trains agree on the deterministic surface."""

    @pytest.fixture(scope="class")
    def images(self):
        return Ec2CorpusGenerator(seed=53).generate(20)

    def profiled_train(self, images, workers):
        tracer = set_tracer(Tracer())
        try:
            model = EnCore().train(images, workers=workers)
        finally:
            set_tracer(None)
        return model, profile_tables(tracer)

    def test_stage_coverage_and_calls_match_serial(self, images):
        serial_model, serial = self.profiled_train(images, workers=1)
        sharded_model, sharded = self.profiled_train(images, workers=2)
        assert serial_model.rules.to_json() == sharded_model.rules.to_json()
        # Same stages with identical call counts (wall time legitimately
        # differs); only the coordinator's shard-fold span is extra.
        stages = set(serial["stages"])
        assert {"train", "train.assemble", "train.infer", "infer"} <= stages
        assert set(sharded["stages"]) - {"assemble.shards"} == stages
        for name in stages:
            assert serial["stages"][name]["calls"] == sharded["stages"][name]["calls"], name
            assert sharded["stages"][name]["wall_s"] > 0
        assert serial["shards"] == []
        if sharded["shards"]:  # empty ⇒ pool unavailable, serial fallback
            assert sum(row["items"] for row in sharded["shards"]) == len(images)
            assert {row["stage"] for row in sharded["shards"]} == {"assemble"}


class TestChromeTrace:
    def make_doc(self):
        tracer = set_tracer(Tracer(clock=FakeClock()))
        with span("train"):
            with span("train.assemble", images=4):
                context = current_context()
                for shard in (0, 1):
                    tracer.merge_remote(
                        worker_forest("assemble", shard, 2, parent=context)
                    )
            with span("train.infer"):
                pass
        set_tracer(None)
        return profile_document(tracer, command="train")

    def test_events_are_monotonic_and_paired(self):
        trace = chrome_trace(self.make_doc())
        events = trace["traceEvents"]
        stamps = [e["ts"] for e in events if e["ph"] in "BEX"]
        assert stamps == sorted(stamps)
        assert all(ts >= 0 for ts in stamps)
        # Every B has a matching E, well-nested per pid/tid.
        stacks = {}
        for event in events:
            key = (event["pid"], event.get("tid"))
            if event["ph"] == "B":
                stacks.setdefault(key, []).append(event["name"])
            elif event["ph"] == "E":
                assert stacks[key], f"E without B on {key}"
                assert stacks[key].pop() == event["name"]
        assert all(not stack for stack in stacks.values())

    def test_span_nesting_preserved(self):
        trace = chrome_trace(self.make_doc())
        names = [e["name"] for e in trace["traceEvents"]
                 if e["ph"] == "B" and e["pid"] == COORDINATOR_PID]
        assert names == ["train", "train.assemble", "train.infer"]

    def test_shard_pids_deterministic(self):
        doc = self.make_doc()
        trace = chrome_trace(doc)
        events = trace["traceEvents"]
        assert not [e for e in events if e["ph"] == "X"]
        shard_roots = [e for e in events
                       if e["ph"] == "B" and e["name"] == "assemble.shard"]
        # Each shard is drawn exactly once, under its own pid.
        assert sorted(e["pid"] for e in shard_roots) == [
            SHARD_PID_BASE, SHARD_PID_BASE + 1,
        ]
        for event in shard_roots:
            assert event["args"]["items"] == 2
            assert event["args"]["shard"] == event["pid"] - SHARD_PID_BASE
        # Re-export of the identical document is byte-stable.
        assert chrome_trace(doc) == trace

    def test_process_metadata_named(self):
        trace = chrome_trace(self.make_doc())
        named = {e["pid"]: e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert named[COORDINATOR_PID] == "coordinator"
        assert named[SHARD_PID_BASE] == "shard-0"

    def test_empty_document(self):
        trace = chrome_trace({"stages": {}, "shards": [], "spans": []})
        assert [e["ph"] for e in trace["traceEvents"]] == ["M"]


class TestRenderProfile:
    def test_table_contents(self, fake_resources):
        tracer = sampled_tracer()
        with tracer.span("train"):
            with tracer.span("train.assemble"):
                pass
        tracer.merge_remote(worker_forest("assemble", 0, 5))
        text = render_profile(profile_document(tracer))
        assert "per-stage resources" in text
        assert "train.assemble" in text
        assert "shard skew" in text
        assert "5 item(s)" in text

    def test_top_limits_rows(self, fake_resources):
        tracer = sampled_tracer()
        for index in range(6):
            with tracer.span(f"stage-{index}"):
                pass
        text = render_profile(profile_tables(tracer), top=2)
        assert "top 2 by wall time" in text
        assert sum(line.strip().startswith("stage-") for line in text.splitlines()) == 2

    def test_empty_profile(self):
        assert render_profile({}) == "no profile samples recorded\n"


@pytest.fixture(scope="module")
def profile_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("profile-corpus")
    assert main(["generate", "--out", str(out), "--count", "16", "--seed", "11"]) == 0
    return out


class TestProfileCli:
    def test_train_profile_end_to_end(self, profile_corpus, tmp_path, capsys):
        profile_path = tmp_path / "profile.json"
        rc = main([
            "train", "--training", str(profile_corpus),
            "--model", str(tmp_path / "model.json"),
            "--profile", str(profile_path), "--workers", "2", "--no-ledger",
        ])
        assert rc == 0
        doc = load_profile(profile_path)
        assert doc["meta"]["command"] == "train"
        assert doc["meta"]["workers"] == 2
        assert {"train", "train.assemble", "train.infer"} <= set(doc["stages"])
        assert all(s["wall_s"] > 0 for s in doc["stages"].values())
        assert doc["spans"], "profiling implies an in-memory span tree"
        if doc["shards"]:  # empty ⇒ pool unavailable, serial fallback
            assert {s["stage"] for s in doc["shards"]} == {"assemble"}
            assert sum(s["items"] for s in doc["shards"]) == 16

        capsys.readouterr()
        assert main(["profile", str(profile_path)]) == 0
        table = capsys.readouterr().out
        assert "per-stage resources" in table
        assert "train.infer" in table

        chrome_path = tmp_path / "trace.json"
        assert main(["profile", str(profile_path),
                     "--format", "chrome", "--out", str(chrome_path)]) == 0
        trace = json.loads(chrome_path.read_text())
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert "B" in phases and "E" in phases and "X" not in phases
        shard_pids = [e["pid"] for e in trace["traceEvents"]
                      if e["ph"] == "B" and e["name"] == "assemble.shard"]
        assert len(shard_pids) == len(set(shard_pids)) == len(doc["shards"])

    def test_profile_json_format(self, profile_corpus, tmp_path, capsys):
        profile_path = tmp_path / "profile.json"
        main([
            "train", "--training", str(profile_corpus),
            "--model", str(tmp_path / "model.json"),
            "--profile", str(profile_path), "--no-ledger",
        ])
        capsys.readouterr()
        assert main(["profile", str(profile_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "stages" in doc

    def test_profile_missing_file_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["profile", str(tmp_path / "nope.json")])

    @pytest.mark.parametrize("fmt", ["table", "chrome"])
    @pytest.mark.parametrize("doc, corrupt_as", [
        ([], ("table", "chrome")),
        ({"stages": {"x": 5}}, ("table",)),
        ({"shards": [{"wall_s": "abc"}]}, ("table",)),
        ({"spans": [{"name": "x"}]}, ("chrome",)),
    ], ids=["list", "stage-not-object", "shard-wall-not-number", "span-without-ts"])
    def test_malformed_document_fails_cleanly(self, tmp_path, capsys, doc,
                                              corrupt_as, fmt):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        if fmt not in corrupt_as:
            # The format never reads the malformed part: it renders.
            assert main(["profile", str(path), "--format", fmt]) == 0
            return
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", str(path), "--format", fmt])
        assert str(excinfo.value).startswith(f"corrupt profile document {path}")

    def test_legacy_document_renders(self, tmp_path, capsys):
        """A document written before profiles came from spans still renders."""
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({
            "meta": {"pid": 7, "command": "train", "workers": 2},
            "anchor": {"epoch": 1000.0, "clock": 5.0},
            "stages": {
                "train": {"wall_s": 2.0, "cpu_s": 1.5, "calls": 1,
                          "max_rss_bytes": 2 ** 20, "alloc_peak_bytes": 2 ** 19},
                "train.infer": {"wall_s": 1.0, "cpu_s": 1.0, "calls": 1,
                                "max_rss_bytes": 2 ** 20, "alloc_peak_bytes": 0},
            },
            "shards": [
                {"stage": "assemble", "shard": index, "pid": 40 + index,
                 "items": 4, "wall_s": 0.5, "cpu_s": 0.4,
                 "max_rss_bytes": 2 ** 20, "alloc_peak_bytes": 0,
                 "epoch_start": 1000.1, "epoch_end": 1000.6}
                for index in range(2)
            ],
        }))
        assert main(["profile", str(path)]) == 0
        table = capsys.readouterr().out
        assert "train.infer" in table
        assert "assemble: 2 shard(s), 8 item(s)" in table
        assert main(["profile", str(path), "--format", "chrome"]) == 0

    def test_trace_flag_is_gone(self, profile_corpus, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--training", str(profile_corpus),
                  "--trace", str(tmp_path / "trace.json")])
        assert excinfo.value.code == 2

    def test_profile_offered_on_every_obs_command(self, tmp_path):
        profile_path = tmp_path / "profile.json"
        assert main(["generate", "--out", str(tmp_path / "corpus"),
                     "--count", "2", "--profile", str(profile_path)]) == 0
        assert load_profile(profile_path)["meta"]["command"] == "generate"

    def test_profiled_train_never_starts_tracemalloc(self, profile_corpus,
                                                     tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tracemalloc.start called")

        monkeypatch.setattr(tracemalloc, "start", refuse)
        rc = main([
            "train", "--training", str(profile_corpus),
            "--model", str(tmp_path / "model.json"),
            "--profile", str(tmp_path / "profile.json"), "--no-ledger",
        ])
        assert rc == 0

    def test_ledger_records_profile_digest(self, profile_corpus, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        rc = main([
            "train", "--training", str(profile_corpus),
            "--model", str(tmp_path / "model.json"),
            "--profile", str(tmp_path / "profile.json"),
            "--ledger", str(ledger_path),
        ])
        assert rc == 0
        entry = json.loads(ledger_path.read_text().splitlines()[-1])
        assert len(entry["profile"]["digest"]) == 64
        assert entry["profile"]["stages"] > 0
        assert entry["profile"]["max_rss_bytes"] > 0

    def test_unprofiled_run_leaves_no_profiler(self, profile_corpus, tmp_path):
        was_tracing = tracemalloc.is_tracing()
        rc = main([
            "train", "--training", str(profile_corpus),
            "--model", str(tmp_path / "model.json"), "--no-ledger",
        ])
        assert rc == 0
        assert get_tracer() is None
        assert tracemalloc.is_tracing() == was_tracing
