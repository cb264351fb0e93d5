"""Tests for the stage engine: mergeable datasets, sharding, batch checking.

The engine's contract is *consistency*: any chunking of a corpus, any
worker count, and any merge tree must produce bit-identical datasets,
rules, and reports.  These tests pin that contract from the
``PartialDataset`` algebra up through ``EnCore.train(workers=N)`` and
the CLI.
"""

import pytest

from repro.core.dataset import Dataset, PartialDataset
from repro.core.pipeline import EnCore, EnCoreConfig
from repro.engine import (
    BatchChecker,
    ShardedAssembler,
    StageEngine,
    assembled_system_from_dict,
    assembled_system_to_dict,
    chunked,
    default_chunk_size,
    partial_from_dict,
    partial_to_dict,
    report_from_dict,
    render_stage_graph,
    stage_graph,
)
from repro.engine import codec
from repro.engine.artifacts import ShardResult
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry


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
    return EnCore().assembler.assemble_partial(small_corpus).systems


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

    def test_extend_matches_merge(self, assembled):
        """The coordinator's in-place fold equals the pure combine."""
        chunks = [PartialDataset.from_systems(c) for c in chunked(assembled, 11)]
        pure = PartialDataset()
        for chunk in chunks:
            pure = pure.merge(chunk)
        folded = PartialDataset()
        for chunk in chunks:
            assert folded.extend(chunk) is folded
        assert folded == pure
        assert folded.finalize().fingerprint() == pure.finalize().fingerprint()

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

    def test_worker_metrics_fold_into_coordinator(self, small_corpus):
        parent = get_registry()
        try:
            set_registry(MetricsRegistry())
            EnCore().train(small_corpus)
            serial_totals = (
                get_registry().total("assemble.systems.total"),
                get_registry().total("assemble.attributes.original"),
            )
            set_registry(MetricsRegistry())
            EnCore().train(small_corpus, workers=4)
            sharded = get_registry()
            assert sharded.total("assemble.systems.total") == serial_totals[0]
            assert sharded.total("assemble.attributes.original") == serial_totals[1]
            assert sharded.total("assemble.shards.total") >= 1
        finally:
            set_registry(parent)

    def test_single_image_stays_serial(self, small_corpus):
        encore = EnCore()
        assembler = ShardedAssembler(
            encore.worker_config(), encore.assembler, workers=8
        )
        dataset = assembler.assemble(small_corpus[:1])
        assert len(dataset) == 1

    def test_rejects_bad_worker_count(self, serial_model):
        encore, _ = serial_model
        with pytest.raises(ValueError):
            ShardedAssembler(encore.worker_config(), encore.assembler, workers=0)


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
            BatchChecker(encore.worker_config(), {}, workers=0)


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

    def test_partial_round_trip(self, assembled):
        partial = PartialDataset.from_systems(assembled[:6])
        restored = partial_from_dict(partial_to_dict(partial))
        assert restored == partial
        assert restored.finalize().fingerprint() == partial.finalize().fingerprint()

    def test_shard_result_round_trip(self, assembled, serial_model,
                                     held_out_image):
        """Both envelope kinds survive the worker→coordinator wire form."""
        rows = assembled[:3]
        wire = ShardResult(
            "assemble", rows, metrics={"metrics": []}, shard_index=2,
        ).to_bytes()
        # A tracing-off envelope carries no spans key at all.
        assert "spans" not in codec.decode(wire)
        restored = ShardResult.from_bytes(
            wire, {system.image_id: system.image for system in rows}
        )
        assert restored.shard_index == 2
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


class TestStageGraph:
    def test_figure2_order(self):
        names = [spec.name for spec in stage_graph()]
        assert names == ["parse", "type", "augment", "assemble", "infer", "detect"]

    def test_every_boundary_names_artifacts(self):
        for spec in stage_graph():
            assert spec.consumes and spec.produces
            assert spec.parallelism in {"shardable", "per-image", "global"}

    def test_render_mentions_all_stages(self):
        rendered = render_stage_graph()
        for spec in stage_graph():
            assert spec.name in rendered


class TestStageEngine:
    def test_assemble_then_infer_matches_facade(self, small_corpus, serial_model):
        _, baseline = serial_model
        engine = StageEngine(workers=2)
        dataset = engine.assemble(small_corpus)
        assert dataset.fingerprint() == baseline.dataset.fingerprint()
        result = engine.infer(dataset)
        assert result.rules.to_json() == baseline.rules.to_json()

    def test_train_and_detect(self, small_corpus):
        engine = StageEngine(workers=2)
        model = engine.train(small_corpus[:20])
        assert model.rule_count > 0
        reports = list(engine.detect(small_corpus[:4]))
        assert [r.image_id for r in reports] == [
            i.image_id for i in small_corpus[:4]
        ]

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            StageEngine(workers=0)
