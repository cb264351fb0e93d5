"""Integration tests for the EnCore facade (train → check → persist)."""

import os
import subprocess
import sys
import threading
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.pipeline import EnCore, EnCoreConfig
from repro.core.report import Report
from repro.core.rules import RuleSet
from repro.corpus.generator import Ec2CorpusGenerator


class TestConfig:
    def test_defaults_match_paper(self):
        config = EnCoreConfig()
        assert config.min_confidence == 0.90
        assert config.min_support_fraction == 0.10
        assert abs(config.entropy_threshold - 0.325) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            EnCoreConfig(min_confidence=1.5)
        with pytest.raises(ValueError):
            EnCoreConfig(min_support_fraction=-0.1)

    def test_negative_entropy_threshold_rejected(self):
        with pytest.raises(ValueError, match="entropy_threshold"):
            EnCoreConfig(entropy_threshold=-0.1)

    def test_zero_entropy_threshold_allowed(self):
        assert EnCoreConfig(entropy_threshold=0.0).entropy_threshold == 0.0

    def test_dict_round_trip(self):
        config = EnCoreConfig(min_confidence=0.8, use_entropy_filter=False)
        assert EnCoreConfig.from_dict(config.to_dict()) == config


class TestTrainCheck:
    def test_check_requires_training(self, held_out_image):
        with pytest.raises(RuntimeError):
            EnCore().check(held_out_image)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            EnCore().train([])

    def test_train_produces_model(self, trained_encore):
        model = trained_encore.model
        assert model is not None
        assert model.rule_count > 0
        summary = model.summary()
        assert summary["training_systems"] == 60
        assert summary["attributes"] > 100

    def test_check_returns_ranked_report(self, trained_encore, held_out_image):
        report = trained_encore.check(held_out_image)
        assert isinstance(report, Report)
        scores = [w.score for w in report.warnings]
        assert scores == sorted(scores, reverse=True)

    def test_clean_heldout_has_few_warnings(self, trained_encore, held_out_image):
        """A same-population image should produce a near-clean report."""
        report = trained_encore.check(held_out_image)
        assert len(report.warnings) <= 15

    def test_check_many(self, trained_encore, small_corpus):
        reports = trained_encore.check_many(small_corpus[:3])
        assert len(reports) == 3

    def test_detects_ownership_break(self, trained_encore, held_out_image):
        broken = held_out_image.copy("broken")
        datadir = None
        for line in broken.config_file("mysql").text.splitlines():
            if line.strip().startswith("datadir"):
                datadir = line.split("=", 1)[1].strip()
        assert datadir
        broken.fs.chown(datadir, owner="root", group="root")
        report = trained_encore.check(broken)
        assert report.rank_of_attribute("mysqld/datadir") is not None

    def test_flagship_rules_learned(self, trained_encore):
        keys = {r.key for r in trained_encore.model.rules}
        assert ("ownership", "mysql:mysqld/datadir", "mysql:mysqld/user") in keys
        assert (
            "equal_same_type", "apache:Directory/Directory.arg", "apache:DocumentRoot"
        ) in keys

    def test_upload_ordering_learned(self, trained_encore):
        keys = {r.key for r in trained_encore.model.rules}
        assert (
            "less_size", "php:upload_max_filesize", "php:post_max_size"
        ) in keys


class TestSerialTrainImports:
    def test_serial_train_leaves_the_shard_engine_unimported(self):
        """A ``workers=1`` train runs in-process and needs no shard engine."""
        script = (
            "import sys\n"
            "from repro.core.pipeline import EnCore\n"
            "from repro.corpus.generator import Ec2CorpusGenerator\n"
            "model = EnCore().train(Ec2CorpusGenerator(seed=3).generate(12), workers=1)\n"
            "assert len(model.rules) > 0\n"
            "print('repro.engine.sharding' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestPersistence:
    def test_save_load_rules(self, trained_encore, tmp_path, held_out_image):
        path = trained_encore.save_rules(tmp_path / "rules.json")
        loaded = trained_encore.load_rules(path)
        assert isinstance(loaded, RuleSet)
        assert len(loaded) == trained_encore.model.rule_count
        # checking still works after the reload
        report = trained_encore.check(held_out_image)
        assert isinstance(report, Report)

    def test_save_without_model_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            EnCore().save_rules(tmp_path / "x.json")

    def test_load_rules_without_model_raises(self, trained_encore, tmp_path):
        """The docstring promises a trained model; enforce it loudly
        instead of returning rules that never reach a detector."""
        path = trained_encore.save_rules(tmp_path / "rules.json")
        with pytest.raises(RuntimeError, match="trained model"):
            EnCore().load_rules(path)

    def test_rules_reusable_across_instances(self, trained_encore, tmp_path, small_corpus):
        """'The learned rules can be reused to check different systems'."""
        path = trained_encore.save_rules(tmp_path / "rules.json")
        other = EnCore()
        other.train(small_corpus[:10])
        before = other.model.rule_count
        other.load_rules(path)
        assert other.model.rule_count == trained_encore.model.rule_count != before


class TestConcurrentCheck:
    """``repro serve`` shares one model across request threads, so
    concurrent checks on one EnCore must equal a serial pass."""

    THREADS = 8

    def test_threads_sharing_one_model_match_serial(self, trained_encore, tmp_path):
        snapshot = trained_encore.save_model(tmp_path / "model.json")
        targets, _ = Ec2CorpusGenerator(seed=202).generate_wild(48)
        assert len({target.image_id for target in targets}) == 48
        serial = EnCore()
        serial.load_model(snapshot)
        expected = {t.image_id: serial.check(t).to_dict() for t in targets}
        shared = EnCore()
        shared.load_model(snapshot)
        start = threading.Barrier(self.THREADS)

        def check_chunk(chunk):
            start.wait(timeout=60)
            return [(t.image_id, shared.check(t).to_dict()) for t in chunk]

        chunks = [targets[i::self.THREADS] for i in range(self.THREADS)]
        interval = sys.getswitchinterval()
        # Switch threads every 10 us, so an unguarded read-modify-write
        # on the shared model is likely to interleave.
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(self.THREADS) as pool:
                results = [row for rows in pool.map(check_chunk, chunks, timeout=120)
                           for row in rows]
        finally:
            sys.setswitchinterval(interval)
        assert dict(results) == expected
        assert shared.drift.to_dict() == serial.drift.to_dict()


class TestCustomizationIntegration:
    def test_custom_template_via_config(self, small_corpus):
        text = (
            "$$TypeOperator\n"
            "Number : Operator '=='\n"
            "eq (v1,v2): { return v1 == v2 }\n"
            "$$Template\n"
            "[A] == [B] <Number, Number>\n"
        )
        encore = EnCore(EnCoreConfig(customization_text=text))
        assert any(t.name.startswith("custom_") for t in encore.templates)
        model = encore.train(small_corpus[:10])
        assert model.rule_count > 0

    def test_register_template_programmatically(self, small_corpus):
        from repro.core.templates import RelationKind, RuleTemplate
        from repro.core.types import ConfigType

        encore = EnCore()
        encore.register_template(
            RuleTemplate(
                "always_holds", ConfigType.PORT_NUMBER, ConfigType.PORT_NUMBER,
                RelationKind.EQUAL, lambda a, b, s: True,
            )
        )
        model = encore.train(small_corpus[:10])
        assert model.rules.by_template("always_holds")
