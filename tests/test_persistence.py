"""Tests for full model-snapshot persistence."""

import json

import pytest

from repro.core.persistence import (
    load_snapshot,
    model_to_dict,
    save_model,
    snapshot_from_dict,
)
from repro.core.pipeline import EnCore


class TestSnapshotRoundtrip:
    def test_serialisable(self, trained_encore):
        data = model_to_dict(trained_encore.model)
        text = json.dumps(data)
        assert "rules" in json.loads(text)

    def test_roundtrip_preserves_stats(self, trained_encore, tmp_path):
        path = save_model(trained_encore.model, tmp_path / "model.json")
        snapshot = load_snapshot(path)
        summary, rules = snapshot.summary, snapshot.rules
        dataset = trained_encore.model.dataset
        assert len(summary) == len(dataset)
        assert summary.attributes() == dataset.attributes()
        assert len(rules) == trained_encore.model.rule_count
        for attribute in dataset.attributes()[:20]:
            original = dataset.stats(attribute)
            restored = summary.stats(attribute)
            assert restored.type is original.type
            assert restored.value_counts == original.value_counts
            assert restored.entropy == pytest.approx(original.entropy)
            assert restored.type_agreement == pytest.approx(original.type_agreement)

    def test_entry_names_preserved(self, trained_encore, tmp_path):
        path = save_model(trained_encore.model, tmp_path / "model.json")
        summary = load_snapshot(path).summary
        assert summary.entry_names() == trained_encore.model.dataset.entry_names()

    def test_augmented_marker_preserved(self, trained_encore, tmp_path):
        path = save_model(trained_encore.model, tmp_path / "model.json")
        summary = load_snapshot(path).summary
        assert summary.is_augmented("mysql:mysqld/datadir.owner")
        assert not summary.is_augmented("mysql:mysqld/datadir")
        assert summary.is_augmented("env:OS.DistName")

    def test_version_check(self, trained_encore):
        data = model_to_dict(trained_encore.model)
        data["version"] = 42
        with pytest.raises(ValueError):
            snapshot_from_dict(data)

    def test_provenance_round_trip(self, trained_encore, tmp_path):
        """candidate_pairs and telemetry survive save → load → summary()."""
        model = trained_encore.model
        assert model.inference.candidate_pairs > 0
        path = save_model(model, tmp_path / "model.json")
        snapshot = load_snapshot(path)
        assert snapshot.candidate_pairs == model.inference.candidate_pairs
        assert snapshot.telemetry == model.telemetry

        fresh = EnCore()
        fresh.load_model(path)
        summary = fresh.model.summary()
        assert summary["candidate_pairs"] == model.inference.candidate_pairs
        assert summary["telemetry"] == model.telemetry

    def test_v1_snapshots_still_load(self, trained_encore):
        """Pre-provenance snapshots load with empty provenance."""
        data = model_to_dict(trained_encore.model)
        data["version"] = 1
        del data["candidate_pairs"]
        del data["telemetry"]
        snapshot = snapshot_from_dict(data)
        assert snapshot.candidate_pairs == 0
        assert snapshot.telemetry == {}
        assert len(snapshot.rules) == trained_encore.model.rule_count


def _downgrade(data, version):
    """Strip a v3 model dict down to the surface of an older version."""
    import copy

    old = copy.deepcopy(data)
    old["version"] = version
    old.pop("dataset_fingerprint", None)
    for rule in old["rules"]:
        rule.pop("provenance", None)
    if version < 2:
        old.pop("candidate_pairs", None)
        old.pop("telemetry", None)
    return old


class TestSnapshotMigration:
    """v1/v2 snapshots migrate to the v3 in-memory model and back."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_versions_roundtrip_to_v3(self, trained_encore, tmp_path,
                                          version):
        from repro.core.persistence import (
            SNAPSHOT_VERSION, load_snapshot, snapshot_from_dict,
        )

        data = model_to_dict(trained_encore.model)
        old = _downgrade(data, version)
        snapshot = snapshot_from_dict(old)
        # provenance defaults: absent in old snapshots, None after load
        assert all(rule.provenance is None for rule in snapshot.rules)
        assert snapshot.dataset_fingerprint == ""

        # install and re-save: the rewritten snapshot is v3
        fresh = EnCore()
        (tmp_path / "old.json").write_text(json.dumps(old))
        fresh.load_model(tmp_path / "old.json")
        resaved = fresh.save_model(tmp_path / "new.json")
        rewritten = json.loads(resaved.read_text())
        assert rewritten["version"] == SNAPSHOT_VERSION
        migrated = load_snapshot(resaved)
        assert len(migrated.rules) == len(snapshot.rules)

    def test_v3_snapshot_carries_provenance(self, trained_encore, tmp_path):
        path = save_model(trained_encore.model, tmp_path / "model.json")
        snapshot = load_snapshot(path)
        for rule in snapshot.rules:
            assert rule.provenance is not None
            assert rule.provenance.decision == "kept"
            assert len(rule.provenance.contributing_images) == rule.support
        assert (snapshot.dataset_fingerprint
                == trained_encore.model.dataset.fingerprint())

    def test_v3_check_identical_to_v1_check(self, trained_encore, tmp_path,
                                            held_out_image):
        """Provenance is evidence, not behaviour: detection unchanged."""
        data = model_to_dict(trained_encore.model)
        (tmp_path / "v1.json").write_text(json.dumps(_downgrade(data, 1)))
        (tmp_path / "v3.json").write_text(json.dumps(data))
        old, new = EnCore(), EnCore()
        old.load_model(tmp_path / "v1.json")
        new.load_model(tmp_path / "v3.json")
        old_report = old.check(held_out_image)
        new_report = new.check(held_out_image)
        assert ([(w.kind, w.attribute) for w in old_report.warnings]
                == [(w.kind, w.attribute) for w in new_report.warnings])

    def test_load_rules_still_requires_model(self, tmp_path):
        with pytest.raises(RuntimeError):
            EnCore().load_rules(tmp_path / "rules.json")


class TestCheckingFromSnapshot:
    def test_check_without_training(self, trained_encore, tmp_path, held_out_image):
        """The headline property: ship the snapshot, check anywhere."""
        path = trained_encore.save_model(tmp_path / "model.json")
        fresh = EnCore()
        fresh.load_model(path)
        report = fresh.check(held_out_image)
        reference = trained_encore.check(held_out_image)
        assert [w.attribute for w in report.warnings] == [
            w.attribute for w in reference.warnings
        ]

    def test_snapshot_detects_defects(self, trained_encore, tmp_path, held_out_image):
        path = trained_encore.save_model(tmp_path / "model.json")
        fresh = EnCore()
        fresh.load_model(path)
        broken = held_out_image.copy("snap-broken")
        datadir = None
        for line in broken.config_file("mysql").text.splitlines():
            if line.strip().startswith("datadir"):
                datadir = line.split("=", 1)[1].strip()
        broken.fs.chown(datadir, owner="root", group="root")
        report = fresh.check(broken)
        assert report.rank_of_attribute("mysqld/datadir") is not None

    def test_save_requires_model(self, tmp_path):
        with pytest.raises(RuntimeError):
            EnCore().save_model(tmp_path / "x.json")


class TestCliModelFlow:
    def test_train_then_check_with_model(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "corpus"
        main(["generate", "--out", str(corpus), "--count", "20", "--seed", "3"])
        model_path = tmp_path / "model.json"
        rc = main([
            "train", "--training", str(corpus), "--model", str(model_path),
        ])
        assert rc == 0 and model_path.exists()
        target = sorted(corpus.glob("*.json"))[0]
        rc = main(["check", "--model", str(model_path), "--target", str(target)])
        out = capsys.readouterr().out
        assert "model snapshot loaded" in out
        assert "EnCore report" in out

    def test_check_without_training_or_model_fails(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["check", "--target", str(tmp_path / "x.json")])


class TestSnapshotCorrupt:
    """Damaged snapshot files surface as typed, recoverable errors."""

    def test_invalid_json_wrapped(self, tmp_path):
        from repro.core.persistence import SnapshotCorruptError, load_snapshot

        path = tmp_path / "model.json"
        path.write_text("{truncated mid-wri")
        with pytest.raises(SnapshotCorruptError, match="invalid JSON") as info:
            load_snapshot(path)
        assert info.value.path == str(path)
        assert "repro train" in str(info.value)

    def test_wrong_top_level_type_wrapped(self, tmp_path):
        from repro.core.persistence import SnapshotCorruptError, load_snapshot

        path = tmp_path / "model.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SnapshotCorruptError, match="expected a JSON object"):
            load_snapshot(path)

    def test_missing_fields_wrapped(self, tmp_path):
        from repro.core.persistence import SnapshotCorruptError, load_snapshot

        path = tmp_path / "model.json"
        path.write_text(json.dumps({"version": 3}))
        with pytest.raises(SnapshotCorruptError, match="missing or malformed"):
            load_snapshot(path)

    def test_unsupported_version_is_not_corruption(self, tmp_path):
        """An intact file from a newer writer propagates its own error."""
        from repro.core.persistence import SnapshotCorruptError, load_snapshot

        path = tmp_path / "model.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="unsupported") as info:
            load_snapshot(path)
        assert not isinstance(info.value, SnapshotCorruptError)

    def test_is_a_value_error(self):
        from repro.core.persistence import SnapshotCorruptError

        assert issubclass(SnapshotCorruptError, ValueError)

    def test_cli_check_reports_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "corpus"
        main(["generate", "--out", str(corpus), "--count", "1", "--seed", "3"])
        target = next(corpus.glob("*.json"))
        model = tmp_path / "model.json"
        model.write_text('{"version": 3, "stats":')
        rc = main([
            "check", "--model", str(model), "--target", str(target),
            "--no-ledger",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "corrupt model snapshot" in err
        assert "Traceback" not in err
