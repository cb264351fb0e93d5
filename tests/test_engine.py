"""Tests for the stage engine: mergeable datasets, sharding, batch checking.

The engine's contract is *consistency*: any chunking of a corpus, any
worker count, and any merge tree must produce bit-identical datasets,
rules, and reports.  These tests pin that contract from the
``PartialDataset`` algebra up through ``EnCore.train(workers=N)`` and
the CLI.
"""

import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

import repro.engine
from repro.core.dataset import Dataset, PartialDataset
from repro.core.pipeline import EnCore, EnCoreConfig
from repro.corpus.generator import Ec2CorpusGenerator
from repro.engine import (
    BatchChecker,
    ShardedAssembler,
    assembled_system_from_dict,
    assembled_system_to_dict,
    chunked,
    default_chunk_size,
    report_from_dict,
)
from repro.engine import codec, sharding
from repro.engine import pool as engine_pool
from repro.engine.artifacts import ShardResult
from repro.obs.metrics import MetricsRegistry, use_registry

#: Metric families only the shard executor records: they count pools,
#: payload encodes, shards and batches, not pipeline work, so a serial
#: run has none of them.
EXECUTOR_FAMILIES = (
    "pool.", "codec.", "assemble.shards", "check.shards.total",
    "check.batch.seconds",
)


def _work_totals(registry):
    """Every counter value and histogram count outside the executor."""
    totals = {}
    for entry in registry.to_dict()["metrics"]:
        if entry["name"].startswith(EXECUTOR_FAMILIES):
            continue
        if entry["kind"] == "counter":
            value = entry["value"]
        elif entry["kind"] == "histogram":
            value = entry["count"]
        else:
            continue
        totals[(entry["name"], tuple(sorted(entry["labels"].items())))] = value
    return totals


def _root_owned_datadir(image, image_id):
    """A copy of *image* whose MySQL datadir is owned by root."""
    broken = image.copy(image_id)
    datadir = None
    for line in broken.config_file("mysql").text.splitlines():
        if line.strip().startswith("datadir"):
            datadir = line.split("=", 1)[1].strip()
    assert datadir
    broken.fs.chown(datadir, owner="root", group="root")
    return broken


@pytest.fixture(scope="module")
def assembled(small_corpus):
    """All systems of the small corpus, assembled once (read-only)."""
    return list(EnCore().assembler.assemble_rows(small_corpus))


@pytest.fixture(scope="module")
def serial_model(small_corpus):
    """Serial training baseline on the shared corpus (read-only)."""
    encore = EnCore()
    return encore, encore.train(small_corpus)


class TestChunking:
    def test_chunked_preserves_order(self):
        assert chunked(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]

    def test_chunked_rejects_bad_size(self):
        with pytest.raises(ValueError):
            chunked([1], 0)

    def test_default_chunk_size_four_chunks_per_worker(self):
        assert default_chunk_size(160, 4) == 10
        assert default_chunk_size(3, 8) == 1
        assert default_chunk_size(0, 4) == 1


class TestPartialMerge:
    def test_merge_is_associative(self, assembled):
        a = PartialDataset.from_systems(assembled[:13])
        b = PartialDataset.from_systems(assembled[13:31])
        c = PartialDataset.from_systems(assembled[31:])
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left == right
        assert left.finalize().fingerprint() == right.finalize().fingerprint()

    def test_merge_matches_serial_accumulation(self, assembled):
        whole = PartialDataset.from_systems(assembled)
        merged = PartialDataset()
        for cut in chunked(assembled, 7):
            merged = merged.merge(PartialDataset.from_systems(cut))
        assert merged == whole
        assert merged.finalize().fingerprint() == whole.finalize().fingerprint()

    def test_empty_partial_is_identity(self, assembled):
        partial = PartialDataset.from_systems(assembled[:5])
        assert PartialDataset().merge(partial) == partial
        assert partial.merge(PartialDataset()) == partial

    def test_merge_does_not_mutate_operands(self, assembled):
        a = PartialDataset.from_systems(assembled[:4])
        b = PartialDataset.from_systems(assembled[4:8])
        before = (len(a.systems), {k: dict(v) for k, v in a.value_counts.items()})
        a.merge(b)
        assert len(a.systems) == before[0]
        assert {k: dict(v) for k, v in a.value_counts.items()} == before[1]

    def test_dataset_merge_matches_full_build(self, assembled):
        front = Dataset(assembled[:20])
        back = Dataset(assembled[20:])
        merged = front.merge(back)
        whole = Dataset(assembled)
        assert merged.fingerprint() == whole.fingerprint()
        assert merged.attributes() == whole.attributes()
        for attribute in whole.attributes():
            assert merged.stats(attribute) == whole.stats(attribute)

    def test_fingerprint_sensitive_to_content(self, assembled):
        assert Dataset(assembled[:10]).fingerprint() != Dataset(
            assembled[:11]
        ).fingerprint()


class TestShardedAssembly:
    @pytest.mark.parametrize("workers,chunk_size", [
        (2, None), (4, None), (4, 7), (4, 13), (3, 1),
    ])
    def test_sharded_equals_serial(self, small_corpus, serial_model,
                                   workers, chunk_size):
        _, baseline = serial_model
        encore = EnCore()
        model = encore.train(small_corpus, workers=workers, chunk_size=chunk_size)
        assert model.dataset.fingerprint() == baseline.dataset.fingerprint()
        assert model.rules.to_json() == baseline.rules.to_json()

    def test_worker_metrics_fold_into_coordinator(self):
        """Every worker-recorded count folds back: train + check parity."""
        corpus = Ec2CorpusGenerator(seed=7).generate(30)
        targets = Ec2CorpusGenerator(seed=33).generate(12)
        registries = []
        for workers, chunk_size in ((1, None), (2, 3)):
            with use_registry(MetricsRegistry()) as registry:
                encore = EnCore()
                encore.train(corpus, workers=workers, chunk_size=chunk_size)
                encore.check_many(targets, workers=workers, chunk_size=chunk_size)
            registries.append(registry)
        serial, sharded = registries
        assert sharded.total("assemble.shards.total") == 10
        assert sharded.total("check.shards.total") == 4
        assert _work_totals(serial)["check.seconds", ()] == len(targets)
        assert _work_totals(sharded) == _work_totals(serial)

    def test_single_image_stays_serial(self, small_corpus):
        with use_registry(MetricsRegistry()) as registry:
            model = EnCore().train(small_corpus[:1], workers=8)
        assert len(model.dataset) == 1
        assert registry.total("assemble.shards.total") == 0

    def test_rejects_bad_worker_count(self, serial_model):
        encore, _ = serial_model
        with pytest.raises(ValueError):
            ShardedAssembler(encore, 0, None)

    @pytest.mark.parametrize("pool", ["in_process_worker", "unavailable"])
    def test_each_row_is_folded_once(self, small_corpus, monkeypatch, pool):
        """Shards ship their rows unfolded; only the coordinator folds them."""
        images = small_corpus[:8]
        folded = []
        add = PartialDataset.add

        def counting_add(self, system):
            folded.append(system.image_id)
            add(self, system)

        class InProcessExecutor:
            def submit(self, fn, task):
                future = Future()
                future.set_result(fn(task))
                return future

        class FakePool:
            def executor(self):
                if pool == "unavailable":
                    raise OSError("no processes here")
                return InProcessExecutor()

        monkeypatch.setattr(sharding, "get_warm_pool", lambda workers: FakePool())
        monkeypatch.setattr(engine_pool, "_worker_state", {})
        monkeypatch.setattr(PartialDataset, "add", counting_add)
        dataset = ShardedAssembler(EnCore(), 2, 4).assemble(images)
        assert folded == [image.image_id for image in images]
        monkeypatch.undo()
        serial = EnCore().assembler.assemble_corpus(images)
        assert dataset.fingerprint() == serial.fingerprint()


class TestBatchChecking:
    def test_parallel_reports_equal_serial(self, small_corpus, serial_model):
        encore, _ = serial_model
        targets = small_corpus[:10]
        serial = [r.to_dict() for r in encore.check_many(targets)]
        parallel = [r.to_dict() for r in encore.check_many(targets, workers=3)]
        assert parallel == serial

    def test_stream_preserves_input_order(self, small_corpus, serial_model):
        encore, _ = serial_model
        targets = small_corpus[:9]
        streamed = list(encore.check_stream(targets, workers=2, chunk_size=2))
        assert [r.image_id for r in streamed] == [t.image_id for t in targets]

    def test_stream_requires_model(self, small_corpus):
        with pytest.raises(RuntimeError):
            list(EnCore().check_stream(small_corpus[:2]))

    def test_empty_stream(self, serial_model):
        encore, _ = serial_model
        assert list(encore.check_stream([], workers=2)) == []

    def test_snapshot_restored_model_checks_in_parallel(
        self, small_corpus, serial_model, tmp_path
    ):
        encore, _ = serial_model
        path = encore.save_model(tmp_path / "model.json")
        fresh = EnCore()
        fresh.load_model(path)
        serial = [r.to_dict() for r in fresh.check_many(small_corpus[:6])]
        parallel = [r.to_dict() for r in fresh.check_many(small_corpus[:6], workers=2)]
        assert parallel == serial

    def test_rejects_bad_worker_count(self, serial_model):
        encore, _ = serial_model
        with pytest.raises(ValueError):
            BatchChecker(encore, 0, None)


class TestIncrementalTraining:
    def test_train_more_equals_full_retrain(self, small_corpus):
        encore = EnCore()
        encore.train(small_corpus[:40])
        incremental = encore.train_more(small_corpus[40:])
        full = EnCore().train(small_corpus)
        assert incremental.dataset.fingerprint() == full.dataset.fingerprint()
        assert incremental.rules.to_json() == full.rules.to_json()

    def test_train_more_sharded(self, small_corpus):
        encore = EnCore()
        encore.train(small_corpus[:40])
        incremental = encore.train_more(small_corpus[40:], workers=2)
        full = EnCore().train(small_corpus)
        assert incremental.rules.to_json() == full.rules.to_json()

    def test_train_more_requires_model(self, small_corpus):
        with pytest.raises(RuntimeError):
            EnCore().train_more(small_corpus[:5])

    def test_train_more_rejects_snapshot_models(
        self, small_corpus, serial_model, tmp_path
    ):
        encore, _ = serial_model
        path = encore.save_model(tmp_path / "model.json")
        fresh = EnCore()
        fresh.load_model(path)
        with pytest.raises(RuntimeError, match="summary"):
            fresh.train_more(small_corpus[:5])


class TestForkGuard:
    def test_programmatic_templates_refuse_to_fork(self, small_corpus):
        from repro.core.templates import RelationKind, RuleTemplate
        from repro.core.types import ConfigType

        encore = EnCore()
        encore.register_template(
            RuleTemplate(
                "code_only", ConfigType.PORT_NUMBER, ConfigType.PORT_NUMBER,
                RelationKind.EQUAL, lambda a, b, s: True,
            )
        )
        with pytest.raises(ValueError, match="process boundaries"):
            encore.train(small_corpus[:4], workers=2)
        # serial training still works
        assert encore.train(small_corpus[:4]).rule_count >= 0

    def test_customization_text_survives_fork(self, small_corpus):
        text = (
            "$$TypeOperator\n"
            "Number : Operator '=='\n"
            "eq (v1,v2): { return v1 == v2 }\n"
            "$$Template\n"
            "[A] == [B] <Number, Number>\n"
        )
        serial = EnCore(EnCoreConfig(customization_text=text)).train(small_corpus[:12])
        sharded = EnCore(EnCoreConfig(customization_text=text)).train(
            small_corpus[:12], workers=2
        )
        assert sharded.rules.to_json() == serial.rules.to_json()


class TestArtifacts:
    def test_assembled_system_round_trip(self, assembled):
        system = assembled[0]
        restored = assembled_system_from_dict(assembled_system_to_dict(system))
        assert restored.image_id == system.image_id
        assert restored.environment_available == system.environment_available
        assert restored.attributes() == system.attributes()
        for attribute in system.attributes():
            assert restored.values_of(attribute) == system.values_of(attribute)
            assert restored.is_augmented(attribute) == system.is_augmented(attribute)

    def test_shard_result_round_trip(self, assembled, serial_model,
                                     held_out_image):
        """Both envelope kinds survive the worker→coordinator wire form."""
        rows = assembled[:3]
        telemetry = {"metrics": {"metrics": []}, "quarantine": [], "dropped": 0}
        wire = ShardResult("assemble", rows, telemetry).to_bytes()
        # Exactly three fields cross the wire.
        assert set(codec.decode(wire)) == {"kind", "items", "telemetry"}
        restored = ShardResult.from_bytes(
            wire, {system.image_id: system.image for system in rows}
        )
        assert restored.telemetry == telemetry
        assert PartialDataset.from_systems(restored.items) == (
            PartialDataset.from_systems(rows)
        )

        encore, _ = serial_model
        reports = [encore.check(_root_owned_datadir(held_out_image, "wire-rt"))]
        assert reports[0].warnings
        restored = ShardResult.from_bytes(ShardResult("check", reports).to_bytes())
        assert [r.to_dict() for r in restored.items] == [r.to_dict() for r in reports]
        # Scores are exact float64 on the wire, not the rounded JSON form.
        assert [w.score for w in restored.items[0].warnings] == [
            w.score for w in reports[0].warnings
        ]

    def test_report_round_trip(self, small_corpus, serial_model, held_out_image):
        encore, _ = serial_model
        report = encore.check(_root_owned_datadir(held_out_image, "artifact-rt"))
        restored = report_from_dict(report.to_dict())
        assert restored.image_id == report.image_id
        assert [w.kind for w in restored.warnings] == [
            w.kind for w in report.warnings
        ]
        assert [w.attribute for w in restored.warnings] == [
            w.attribute for w in report.warnings
        ]
        for mine, theirs in zip(restored.warnings, report.warnings):
            assert mine.score == pytest.approx(theirs.score, abs=1e-4)
            assert (mine.rule is None) == (theirs.rule is None)


class TestLazyImports:
    def test_submodules_do_not_import_the_shard_engine(self, tmp_path):
        """Importing the codec or the result cache, and a serial train
        over a disk cache, leave the shard engine and its pool unloaded."""
        script = (
            "import sys\n"
            "import repro.engine.codec, repro.engine.cache\n"
            "engine = ('repro.engine.sharding', 'repro.engine.pool')\n"
            "print([m for m in engine if m in sys.modules])\n"
            "from repro.core.pipeline import EnCore\n"
            "from repro.corpus.generator import Ec2CorpusGenerator\n"
            "from repro.engine.cache import ResultCache\n"
            "encore = EnCore()\n"
            "encore.set_cache(ResultCache(sys.argv[1]))\n"
            "encore.train(Ec2CorpusGenerator(seed=3).generate(6), workers=1)\n"
            "print([m for m in engine if m in sys.modules])\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "cache")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "[]"]
        assert any((tmp_path / "cache").rglob("*")), "the train stored no entry"

    def test_public_names_resolve(self):
        from repro.engine.artifacts import ShardResult as artifact
        from repro.engine.sharding import ShardedAssembler as sharded

        assert repro.engine.ShardedAssembler is sharded
        assert repro.engine.ShardResult is artifact
        for name in repro.engine.__all__:
            assert getattr(repro.engine, name) is not None
        with pytest.raises(AttributeError):
            repro.engine.no_such_name
