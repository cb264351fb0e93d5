"""repro doctor: redaction, bundle build/verify, tamper detection, CLI."""

import io
import json
import random
import tarfile

import pytest

from repro.cli import main
from repro.obs.doctor import (
    DoctorError,
    build_bundle,
    check_bundle,
    collect_members,
    redact,
    redact_text,
    tail_lines,
)
from repro.obs.flight import FlightRecorder, set_flight


@pytest.fixture()
def state_dir(tmp_path):
    """A populated .encore directory with a secret planted in the ledger."""
    state = tmp_path / ".encore"
    state.mkdir()
    (state / "ledger.jsonl").write_text(
        json.dumps({"run_id": "run-1", "command": "check"}) + "\n"
        + json.dumps({"run_id": "run-2", "db_password": "hunter2"}) + "\n"
        + "not json at all\n"
    )
    (state / "quarantine.jsonl").write_text(
        json.dumps({"image_id": "img-7", "stage": "parse",
                    "trace_id": "t" * 16}) + "\n"
    )
    (state / "profile.json").write_text(json.dumps({"stages": {}}))
    (state / "alerts.toml").write_text('[[rule]]\nname = "latency"\n')
    (state / "flight.json").write_text(json.dumps(
        FlightRecorder(capacity=2).to_dict()
    ))
    return state


class TestRedaction:
    def test_secret_keys_masked_recursively(self):
        data = {
            "password": "x", "api_key": "y", "Authorization": "Bearer z",
            "nested": [{"refresh_token": "t", "fine": "keep"}],
            "count": 3,
        }
        out = redact(data, home="/home/op")
        assert out["password"] == "[redacted]"
        assert out["api_key"] == "[redacted]"
        assert out["Authorization"] == "[redacted]"
        assert out["nested"][0]["refresh_token"] == "[redacted]"
        assert out["nested"][0]["fine"] == "keep"
        assert out["count"] == 3

    def test_home_paths_masked_in_strings(self):
        assert redact_text("/home/op/corpus/a.json",
                           home="/home/op") == "~/corpus/a.json"
        assert redact({"path": "/home/op/x"}, home="/home/op") == {
            "path": "~/x"
        }
        # A root home must never blank every absolute path.
        assert redact_text("/etc/my.cnf", home="/") == "/etc/my.cnf"

    def test_tail_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("a\n\nb\nc\n")
        assert tail_lines(path, limit=2) == ["b", "c"]
        assert tail_lines(tmp_path / "missing.jsonl") == []


class TestBundle:
    def test_members_and_verify(self, state_dir, tmp_path, monkeypatch):
        snapshot = tmp_path / "model.json"
        snapshot.write_text("{}")
        out, manifest = build_bundle(
            tmp_path / "bundle.tar.gz", state_dir=state_dir,
            snapshot=snapshot,
        )
        names = set(manifest["members"])
        assert {"platform.json", "flight.json", "ledger_tail.jsonl",
                "quarantine_tail.jsonl", "profile.json", "alerts.toml",
                "digests.json"} <= names
        report = check_bundle(out)
        assert report["verified"] == len(names)
        with tarfile.open(out) as archive:
            ledger = archive.extractfile("ledger_tail.jsonl").read().decode()
            assert "hunter2" not in ledger
            assert "[redacted]" in ledger
            assert "not json at all" in ledger  # unparseable lines kept
            digests = json.loads(
                archive.extractfile("digests.json").read().decode()
            )
        digested = {entry["path"] for entry in digests["files"]}
        assert any(path.endswith("model.json") for path in digested)
        assert any(path.endswith("alerts.toml") for path in digested)

    def test_live_flight_recorder_wins(self, state_dir):
        recorder = FlightRecorder(capacity=4)
        recorder.record_incident("fired", {"rule": "live-one"})
        set_flight(recorder)
        try:
            members = collect_members(state_dir=state_dir)
        finally:
            set_flight(None)
        flight = json.loads(members["flight.json"])
        assert flight["incidents"][0]["incident"]["rule"] == "live-one"

    def test_daemon_fetch_best_effort(self, state_dir):
        def fetch(route):
            if route == "alertz":
                raise OSError("connection refused")
            return {"route": route}

        members = collect_members(state_dir=state_dir, fetch=fetch)
        assert "statusz.json" in members
        assert "tracez.json" in members
        assert "flightz.json" in members
        assert "alertz.json" not in members  # failed fetch skipped

    def test_tampered_member_rejected(self, state_dir, tmp_path):
        out, _ = build_bundle(tmp_path / "b.tar.gz", state_dir=state_dir)
        rebuilt = tmp_path / "tampered.tar.gz"
        with tarfile.open(out) as src, tarfile.open(rebuilt, "w:gz") as dst:
            for member in src.getmembers():
                blob = src.extractfile(member).read()
                if member.name == "platform.json":
                    blob = blob.replace(b"{", b"{ ", 1)
                info = tarfile.TarInfo(member.name)
                info.size = len(blob)
                dst.addfile(info, io.BytesIO(blob))
        with pytest.raises(DoctorError, match="platform.json"):
            check_bundle(rebuilt)

    def test_unlisted_member_rejected(self, state_dir, tmp_path):
        out, _ = build_bundle(tmp_path / "b.tar.gz", state_dir=state_dir)
        smuggled = tmp_path / "smuggled.tar.gz"
        with tarfile.open(out) as src, tarfile.open(smuggled, "w:gz") as dst:
            for member in src.getmembers():
                blob = src.extractfile(member).read()
                info = tarfile.TarInfo(member.name)
                info.size = len(blob)
                dst.addfile(info, io.BytesIO(blob))
            extra = b"surprise"
            info = tarfile.TarInfo("extra.bin")
            info.size = len(extra)
            dst.addfile(info, io.BytesIO(extra))
        with pytest.raises(DoctorError, match="extra.bin"):
            check_bundle(smuggled)

    def test_missing_manifest_rejected(self, tmp_path):
        empty = tmp_path / "no-manifest.tar.gz"
        with tarfile.open(empty, "w:gz") as archive:
            blob = b"{}"
            info = tarfile.TarInfo("platform.json")
            info.size = len(blob)
            archive.addfile(info, io.BytesIO(blob))
        with pytest.raises(DoctorError, match="manifest"):
            check_bundle(empty)

    def test_not_an_archive_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.tar.gz"
        bogus.write_text("definitely not a tarball")
        with pytest.raises(DoctorError, match="cannot open"):
            check_bundle(bogus)


class TestDoctorCli:
    def test_bundle_then_check(self, state_dir, tmp_path, monkeypatch,
                               capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "doctor-bundle.tar.gz" in out
        assert "repro doctor check" in out
        assert main(["doctor", "check"]) == 0
        assert "ok —" in capsys.readouterr().out

    def test_check_rejects_corrupt_bundle(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["doctor"]) == 0
        capsys.readouterr()
        bundle = tmp_path / ".encore" / "doctor-bundle.tar.gz"
        pristine = bundle.read_bytes()
        # Past the gzip header's mtime/OS/file-name fields, which carry
        # no content: every later byte is covered by deflate or the CRC.
        body_start = pristine.index(b"\x00", 10) + 1
        positions = random.Random(0).sample(range(body_start, len(pristine)), 32)
        for position in positions:
            raw = bytearray(pristine)
            raw[position] ^= 0xFF
            bundle.write_bytes(bytes(raw))
            assert main(["doctor", "check"]) == 1, position
            assert "bundle check failed" in capsys.readouterr().err, position
