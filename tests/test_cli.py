"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.sysmodel.snapshot import load_image


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-corpus")
    rc = main(["generate", "--out", str(out), "--count", "25", "--seed", "7"])
    assert rc == 0
    return out


def _snapshot_datadir(data):
    """The datadir value recorded in a snapshot's my.cnf."""
    for config in data["config_files"]:
        if config["app"] != "mysql":
            continue
        for line in config["text"].splitlines():
            if line.strip().startswith("datadir"):
                return line.split("=", 1)[1].strip()
    raise AssertionError("snapshot has no mysql datadir")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestGenerate:
    def test_writes_snapshots(self, corpus_dir):
        snapshots = list(corpus_dir.glob("*.json"))
        assert len(snapshots) == 25
        image = load_image(snapshots[0])
        assert image.has_app("mysql")

    def test_private_cloud_population(self, tmp_path):
        rc = main([
            "generate", "--out", str(tmp_path), "--count", "3",
            "--seed", "1", "--population", "private-cloud",
        ])
        assert rc == 0
        image = load_image(next(tmp_path.glob("*.json")))
        assert image.running


class TestTrainCheck:
    def test_train_saves_rules(self, corpus_dir, tmp_path, capsys):
        rules_path = tmp_path / "rules.json"
        rc = main([
            "train", "--training", str(corpus_dir), "--rules", str(rules_path),
        ])
        assert rc == 0
        assert rules_path.exists()
        rules = json.loads(rules_path.read_text())
        assert isinstance(rules, list) and rules
        out = capsys.readouterr().out
        assert "trained on 25 systems" in out

    def test_train_workers_matches_serial(self, corpus_dir, tmp_path, capsys):
        """`--workers 2` must write byte-identical rules to a serial run."""
        serial = tmp_path / "serial.json"
        sharded = tmp_path / "sharded.json"
        assert main([
            "train", "--training", str(corpus_dir), "--rules", str(serial),
        ]) == 0
        assert main([
            "train", "--training", str(corpus_dir), "--rules", str(sharded),
            "--workers", "2",
        ]) == 0
        capsys.readouterr()
        assert serial.read_text() == sharded.read_text()

    def test_audit_with_workers(self, corpus_dir, capsys):
        rc = main([
            "audit", "--training", str(corpus_dir),
            "--targets", str(corpus_dir), "--workers", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "audit complete" in out

    def test_check_with_saved_rules(self, corpus_dir, tmp_path, capsys):
        rules_path = tmp_path / "rules.json"
        main(["train", "--training", str(corpus_dir), "--rules", str(rules_path)])
        target = sorted(corpus_dir.glob("*.json"))[0]
        main([
            "check", "--training", str(corpus_dir),
            "--target", str(target), "--rules", str(rules_path),
        ])
        out = capsys.readouterr().out
        assert "EnCore report" in out

    def test_check_flags_broken_target(self, corpus_dir, tmp_path, capsys):
        # Break a snapshot: datadir owned by root.
        source = sorted(corpus_dir.glob("*.json"))[1]
        data = json.loads(source.read_text())
        datadir = _snapshot_datadir(data)
        for entry in data["files"]:
            if entry["path"] == datadir:
                entry["owner"] = "root"
                entry["group"] = "root"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        rc = main([
            "check", "--training", str(corpus_dir), "--target", str(broken),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "datadir" in out

    @pytest.mark.parametrize("case", ["directory", "not-json", "no-version"])
    def test_bad_target_exits_cleanly(self, corpus_dir, tmp_path, capsys, case):
        model = tmp_path / "model.json"
        assert main([
            "train", "--training", str(corpus_dir), "--model", str(model),
        ]) == 0
        target = tmp_path / "target.json"
        if case == "directory":
            target.mkdir()
        else:
            target.write_text(
                "not json" if case == "not-json" else '{"image_id": "x"}'
            )
        capsys.readouterr()
        rc = main(["check", "--model", str(model), "--target", str(target)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("error: ") == 1
        assert f"corrupt image snapshot {target}" in err
        assert "Traceback" not in err

    def test_missing_training_dir(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "train", "--training", str(tmp_path / "empty"),
            ])


class TestSuggestAudit:
    def test_suggest_on_broken_target(self, corpus_dir, tmp_path, capsys):
        source = sorted(corpus_dir.glob("*.json"))[2]
        data = json.loads(source.read_text())
        datadir = _snapshot_datadir(data)
        for entry in data["files"]:
            if entry["path"] == datadir:
                entry["owner"] = "root"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        rc = main([
            "suggest", "--training", str(corpus_dir), "--target", str(broken),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "remediation suggestions" in out
        assert "chown" in out

    def test_audit_sweep(self, corpus_dir, capsys):
        rc = main([
            "audit", "--training", str(corpus_dir), "--targets", str(corpus_dir),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "audit complete" in out


class TestWatchReconnect:
    """`repro watch` must survive daemon restarts with backoff, not die."""

    @staticmethod
    def _args(**overrides):
        import argparse

        fields = dict(url="127.0.0.1:1", interval=0.01, once=False,
                      max_retries=None)
        fields.update(overrides)
        return argparse.Namespace(**fields)

    def test_reconnects_after_transient_failure(self, monkeypatch, capsys):
        import repro.cli as cli

        frames = iter([OSError("connection refused"), "FRAME-OK"])

        def fake_frame(base):
            item = next(frames)
            if isinstance(item, Exception):
                raise item
            return item

        sleeps = []

        def fake_sleep(delay):
            sleeps.append(delay)
            if len(sleeps) > 1:  # the post-frame interval sleep: stop here
                raise KeyboardInterrupt

        import types

        monkeypatch.setattr(cli, "_watch_frame", fake_frame)
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(sleep=fake_sleep))
        rc = cli.cmd_watch(self._args())
        captured = capsys.readouterr()
        assert rc == 0
        assert "reconnecting to http://127.0.0.1:1 (attempt 1" in captured.err
        assert "Traceback" not in captured.err
        assert "FRAME-OK" in captured.out

    def test_max_retries_bounds_patience_with_backoff(self, monkeypatch,
                                                      capsys):
        import types

        import repro.cli as cli

        def always_down(base):
            raise OSError("connection refused")

        sleeps = []
        monkeypatch.setattr(cli, "_watch_frame", always_down)
        monkeypatch.setattr(cli, "time",
                            types.SimpleNamespace(sleep=sleeps.append))
        rc = cli.cmd_watch(self._args(max_retries=2))
        captured = capsys.readouterr()
        assert rc == 1
        assert "after 3 attempt(s)" in captured.err
        # Exponential backoff from the 0.1s floor, doubling per failure.
        assert sleeps == [0.1, 0.2]

    def test_once_keeps_hard_failure_contract(self, monkeypatch, capsys):
        import repro.cli as cli

        def always_down(base):
            raise OSError("connection refused")

        monkeypatch.setattr(cli, "_watch_frame", always_down)
        rc = cli.cmd_watch(self._args(once=True))
        captured = capsys.readouterr()
        assert rc == 1
        assert "cannot reach" in captured.err
        assert "reconnecting" not in captured.err
