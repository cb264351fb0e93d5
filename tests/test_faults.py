"""Fault-injection harness tests and the seeded fuzz-lite parser suite.

The parser contract under adversarial input is total: for any corrupted
text, ``ConfigParser.parse`` either returns entries or raises
``ConfigParseError`` — never an unhandled exception, never a hang.  The
fuzz-lite suite sweeps every app's parser across every seeded corruption
mode; the remaining classes pin the determinism and bookkeeping of the
injectors themselves.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.resilience import FaultInjected
from repro.parsers.base import ConfigParseError, ConfigParser
from repro.parsers.registry import default_registry
from repro.sysmodel.image import ConfigFile, SystemImage
from repro.testing.faults import (
    CORRUPTIONS,
    FaultPlan,
    corrupt_text,
    poison_corpus,
    poison_image,
    poisonable_app,
    valid_config_samples,
)

APPS = sorted(valid_config_samples())


class TestFuzzLiteParsers:
    """Seeded corruption sweep: parsers never leak unhandled exceptions."""

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("mode", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("seed", range(8))
    def test_corrupted_text_is_contained(self, app, mode, seed):
        registry = default_registry()
        text = CORRUPTIONS[mode](valid_config_samples()[app], seed)
        try:
            entries = registry.parse(app, text)
        except ConfigParseError:
            return
        assert isinstance(entries, list)

    @pytest.mark.parametrize("app", APPS)
    def test_valid_samples_parse_clean(self, app):
        entries = default_registry().parse(app, valid_config_samples()[app])
        assert entries

    @pytest.mark.parametrize("seed", range(5))
    def test_random_mode_choice_is_contained(self, seed):
        registry = default_registry()
        for app in APPS:
            mode, text = corrupt_text(valid_config_samples()[app], seed)
            assert mode in CORRUPTIONS
            try:
                registry.parse(app, text)
            except ConfigParseError:
                pass

    def test_parse_wraps_arbitrary_failures(self):
        class ExplodingParser(ConfigParser):
            app = "boom"

            def parse_text(self, text, source_path=""):
                raise IndexError("tokenizer walked off the end")

        with pytest.raises(ConfigParseError, match="IndexError"):
            ExplodingParser().parse("whatever")


class TestCorruptionDeterminism:
    @pytest.mark.parametrize("mode", sorted(CORRUPTIONS))
    def test_same_seed_same_output(self, mode):
        text = valid_config_samples()["apache"]
        assert CORRUPTIONS[mode](text, 13) == CORRUPTIONS[mode](text, 13)

    def test_different_seeds_differ(self):
        text = valid_config_samples()["apache"]
        outputs = {CORRUPTIONS["truncate"](text, seed) for seed in range(10)}
        assert len(outputs) > 1

    def test_corrupt_text_mode_choice_is_seeded(self):
        text = valid_config_samples()["mysql"]
        assert corrupt_text(text, 4) == corrupt_text(text, 4)


def _image_with(app, text, image_id="img-1"):
    image = SystemImage(image_id)
    image.add_config_file(ConfigFile(app, f"/etc/{app}.conf", text))
    return image


class TestPoisoning:
    def test_poison_image_guarantees_parse_failure(self):
        image = _image_with("apache", valid_config_samples()["apache"])
        poisoned = poison_image(image)
        with pytest.raises(ConfigParseError):
            default_registry().parse(
                "apache", poisoned.config_files("apache")[0].text
            )
        # the original is untouched
        default_registry().parse("apache", image.config_files("apache")[0].text)

    def test_poison_image_requires_poisonable_app(self):
        image = _image_with("sshd", valid_config_samples()["sshd"])
        assert poisonable_app(image) is None
        with pytest.raises(ValueError, match="no poisonable config"):
            poison_image(image)

    def test_poison_corpus_is_deterministic(self):
        images = [
            _image_with("mysql", valid_config_samples()["mysql"], f"img-{i}")
            for i in range(10)
        ]
        _, ids_a = poison_corpus(images, 3, seed=9)
        _, ids_b = poison_corpus(images, 3, seed=9)
        assert ids_a == ids_b
        assert len(ids_a) == 3

    def test_poison_corpus_preserves_order_and_rest(self):
        images = [
            _image_with("php", valid_config_samples()["php"], f"img-{i}")
            for i in range(6)
        ]
        poisoned, ids = poison_corpus(images, 2, seed=1)
        assert [image.image_id for image in poisoned] == [
            image.image_id for image in images
        ]
        for original, out in zip(images, poisoned):
            if original.image_id not in ids:
                assert out is original

    def test_poison_corpus_rejects_impossible_count(self):
        images = [_image_with("sshd", valid_config_samples()["sshd"])]
        with pytest.raises(ValueError, match="cannot poison"):
            poison_corpus(images, 1, seed=0)

    def test_poison_cli_runs_the_module_once(self, tmp_path):
        """The package resolves its names lazily, so ``-m`` does not
        import ``repro.testing.faults`` a second time."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.testing.faults", "poison", "--dir", str(tmp_path),
             "--count", "0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert "RuntimeWarning" not in proc.stderr
        assert proc.returncode == 0, proc.stderr


class TestFaultPlan:
    def test_round_trip(self, tmp_path):
        plan = FaultPlan(
            state_dir=str(tmp_path), crash={"a": 2}, hang={"b": 1},
            hang_seconds=0.5,
        )
        restored = FaultPlan.from_dict(plan.to_dict())
        assert restored.crash == {"a": 2}
        assert restored.hang == {"b": 1}
        assert restored.hang_seconds == 0.5
        assert restored.coordinator_pid == os.getpid()

    def test_coordinator_crash_raises_not_exits(self, tmp_path):
        plan = FaultPlan.crash_once(tmp_path, "img-1")
        image = _image_with("mysql", valid_config_samples()["mysql"], "img-1")
        with pytest.raises(FaultInjected, match="crash"):
            plan.hook(image)

    def test_budget_burns_out(self, tmp_path):
        plan = FaultPlan.crash_once(tmp_path, "img-1")
        image = _image_with("mysql", valid_config_samples()["mysql"], "img-1")
        with pytest.raises(FaultInjected):
            plan.hook(image)
        plan.hook(image)  # budget exhausted: no fault
        assert plan.fires_so_far("img-1") == 1

    def test_unlisted_image_is_untouched(self, tmp_path):
        plan = FaultPlan.crash_always(tmp_path, "img-1")
        other = _image_with("mysql", valid_config_samples()["mysql"], "img-2")
        plan.hook(other)
        assert plan.fires_so_far("img-1") == 0

    def test_coordinator_hang_raises(self, tmp_path):
        plan = FaultPlan.hang_always(tmp_path, "img-1", hang_seconds=0.1)
        image = _image_with("mysql", valid_config_samples()["mysql"], "img-1")
        with pytest.raises(FaultInjected, match="hang"):
            plan.hook(image)

    def test_budget_is_shared_across_plan_copies(self, tmp_path):
        """Marker files coordinate firings across (worker) processes."""
        plan = FaultPlan.crash_once(tmp_path, "img-1")
        clone = FaultPlan.from_dict(plan.to_dict())
        image = _image_with("mysql", valid_config_samples()["mysql"], "img-1")
        with pytest.raises(FaultInjected):
            plan.hook(image)
        clone.hook(image)  # the clone sees the spent budget
        assert clone.fires_so_far("img-1") == 1

    def test_stop_hangs_releases_stall(self, tmp_path):
        import time

        plan = FaultPlan.hang_always(tmp_path, "img-1", hang_seconds=30.0)
        plan.stop_hangs()
        start = time.monotonic()
        plan._stall()
        assert time.monotonic() - start < 5.0
