"""Tests for model observability: provenance, drift, ledger, explain."""

import json

import pytest

from repro.core.pipeline import EnCore
from repro.corpus.generator import Ec2CorpusGenerator
from repro.obs.fileio import append_line, atomic_write_text
from repro.obs.ledger import (
    Ledger,
    LedgerEntry,
    diff_entries,
    fingerprint_payload,
)
from repro.obs.model import DriftMonitor, Provenance, _distribution_shift


# -- file IO -------------------------------------------------------------------


class TestFileIO:
    def test_atomic_write_creates_parents(self, tmp_path):
        dest = tmp_path / "a" / "b" / "out.json"
        atomic_write_text(dest, "hello")
        assert dest.read_text() == "hello"

    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        dest = tmp_path / "out.json"
        atomic_write_text(dest, "one")
        atomic_write_text(dest, "two")
        assert dest.read_text() == "two"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_append_line_appends(self, tmp_path):
        dest = tmp_path / "log" / "lines.jsonl"
        append_line(dest, "first")
        append_line(dest, "second")
        assert dest.read_text() == "first\nsecond\n"


# -- provenance ----------------------------------------------------------------


def _provenance(**overrides):
    base = dict(
        template="less_number",
        contributing_images=("ami-1", "ami-2", "ami-3"),
        support=3,
        valid_count=3,
        entropy_a=1.5,
        entropy_b=1.2,
        min_support=2,
        min_confidence=0.9,
        entropy_threshold=0.325,
        entropy_filtered=True,
        decision="kept",
    )
    base.update(overrides)
    return Provenance(**base)


class TestProvenance:
    def test_roundtrip(self):
        prov = _provenance()
        assert Provenance.from_dict(prov.to_dict()) == prov

    def test_digest_is_stable_and_content_sensitive(self):
        assert _provenance().digest() == _provenance().digest()
        assert _provenance().digest() != _provenance(support=4).digest()

    def test_stage_outcomes_kept(self):
        assert _provenance().stage_outcomes() == (
            ("support", "pass"), ("confidence", "pass"), ("entropy", "pass"),
        )

    def test_stage_outcomes_low_support_short_circuits(self):
        prov = _provenance(support=1, valid_count=1, decision="low_support")
        assert prov.stage_outcomes() == (
            ("support", "fail"),
            ("confidence", "not-reached"),
            ("entropy", "not-reached"),
        )

    def test_stage_outcomes_low_confidence(self):
        prov = _provenance(valid_count=2, decision="low_confidence")
        outcomes = dict(prov.stage_outcomes())
        assert outcomes["confidence"] == "fail"
        assert outcomes["entropy"] == "not-reached"

    def test_stage_outcomes_entropy_exempt(self):
        prov = _provenance(entropy_filtered=False, entropy_a=0.0)
        assert dict(prov.stage_outcomes())["entropy"] == "exempt"

    def test_describe_mentions_evidence(self):
        text = _provenance().describe()
        assert "3 training image(s)" in text
        assert "less_number" in text
        assert "kept" in text


class TestTrainedProvenance:
    def test_every_kept_rule_has_kept_provenance(self, trained_encore):
        for rule in trained_encore.model.rules:
            assert rule.provenance is not None
            assert rule.provenance.decision == "kept"
            assert rule.provenance.support == rule.support
            assert rule.provenance.valid_count == rule.valid_count
            assert len(rule.provenance.contributing_images) == rule.support

    def test_audit_covers_dropped_candidates(self, trained_encore):
        audit = trained_encore.model.inference.audit
        decisions = trained_encore.model.inference.decisions
        assert set(audit) == set(decisions)
        dropped = [key for key, d in decisions.items()
                   if d.value in ("low_support", "low_confidence")]
        assert dropped, "expected some rejected candidates"
        for key in dropped:
            prov = audit[key]
            assert prov.decision == decisions[key].value
            # counts-only for rejected candidates: the audit stays compact
            assert prov.contributing_images == ()
            assert prov.support > 0


# -- drift ---------------------------------------------------------------------


class _Row:
    """Minimal assembled-system stand-in for DriftMonitor.observe."""

    def __init__(self, values):
        self._values = dict(values)

    def attributes(self):
        return sorted(self._values)

    def value(self, attribute):
        return self._values.get(attribute)


BASELINE = {
    "app:port": {"80": 8, "8080": 2},
    "app:user": {"www": 10},
}


class TestDriftMonitor:
    def test_distribution_shift_zero_for_identical(self):
        psi, kl = _distribution_shift({"a": 5, "b": 5}, {"a": 50, "b": 50})
        assert psi == pytest.approx(0.0, abs=1e-9)
        assert kl == pytest.approx(0.0, abs=1e-9)

    def test_distribution_shift_positive_for_shifted(self):
        psi, kl = _distribution_shift({"a": 9, "b": 1}, {"a": 1, "b": 9})
        assert psi > 0.2
        assert kl > 0.0

    def test_observe_counts_new_and_unseen(self):
        monitor = DriftMonitor(BASELINE, training_size=10)
        monitor.observe(_Row({"app:port": "443", "app:extra": "x"}))
        assert monitor.targets == 1
        assert monitor.unseen_values["app:port"] == 1
        assert monitor.new_attributes["app:extra"] == 1

    def test_observe_round_trips_through_to_dict(self):
        monitor = DriftMonitor(BASELINE, training_size=10)
        monitor.observe(_Row({"app:port": "80", "app:user": "www"}))
        monitor.observe(_Row({"app:port": "443", "app:extra": "x"}))
        assert monitor.to_dict() == {
            "targets": 2,
            "observed": {
                "app:extra": {"x": 1},
                "app:port": {"80": 1, "443": 1},
                "app:user": {"www": 1},
            },
            "new_attributes": {"app:extra": 1},
            "unseen_values": {"app:port": 1},
        }
        restored = DriftMonitor(BASELINE, training_size=10)
        restored.merge_snapshot(monitor.to_dict())
        assert restored.to_dict() == monitor.to_dict()

    def test_merge_matches_serial_observation(self):
        rows = [
            _Row({"app:port": "80", "app:user": "www"}),
            _Row({"app:port": "8080"}),
            _Row({"app:port": "443", "app:new": "y"}),
            _Row({"app:user": "root"}),
        ]
        serial = DriftMonitor(BASELINE, training_size=10)
        for row in rows:
            serial.observe(row)

        # the wire path: a worker shard's snapshot folds into the rest
        folded = DriftMonitor(BASELINE, training_size=10)
        for row in rows[:2]:
            folded.observe(row)
        shard = DriftMonitor(BASELINE, training_size=10)
        for row in rows[2:]:
            shard.observe(row)
        folded.merge_snapshot(json.loads(json.dumps(shard.to_dict())))
        assert folded.summary().to_dict() == serial.summary().to_dict()

    def test_min_observations_gates_psi_flagging(self):
        monitor = DriftMonitor(BASELINE, training_size=10, min_observations=5)
        monitor.observe(_Row({"app:port": "8080"}))
        summary = monitor.summary()
        # one observation: PSI untrusted, nothing flagged
        assert summary.drifted == []

        flagging = DriftMonitor(BASELINE, training_size=10, min_observations=2)
        for _ in range(3):
            flagging.observe(_Row({"app:port": "8080"}))
        drifted = flagging.summary().drifted
        assert [d.attribute for d in drifted] == ["app:port"]
        assert drifted[0].psi >= flagging.psi_threshold

    def test_new_attribute_always_flagged(self):
        monitor = DriftMonitor(BASELINE, training_size=10)
        monitor.observe(_Row({"app:rogue": "1"}))
        summary = monitor.summary()
        assert summary.new_attributes == ["app:rogue"]
        assert [d.attribute for d in summary.drifted] == ["app:rogue"]
        assert summary.drifted[0].new


class TestDriftAcrossWorkers:
    def test_check_many_drift_identical_any_worker_count(self, small_corpus):
        targets = list(Ec2CorpusGenerator(seed=33).generate(8))
        summaries = {}
        for workers in (1, 2):
            encore = EnCore()
            encore.train(small_corpus)
            encore.check_many(targets, workers=workers, chunk_size=3)
            summaries[workers] = encore.drift.summary().to_dict()
        assert summaries[1] == summaries[2]
        assert summaries[1]["targets"] == len(targets)


# -- explanations --------------------------------------------------------------


class TestExplanations:
    @pytest.fixture(scope="class")
    def reports(self, trained_encore):
        targets = list(Ec2CorpusGenerator(seed=55).generate(6))
        return [trained_encore.check(t) for t in targets]

    def test_every_warning_is_explained(self, reports):
        warnings = [w for report in reports for w in report.warnings]
        assert warnings, "expected some warnings from an off-population fleet"
        for warning in warnings:
            assert warning.explanation is not None
            assert warning.explanation.expected

    def test_correlation_explanations_carry_provenance(self, reports):
        correlated = [w for report in reports for w in report.warnings
                      if w.rule is not None]
        assert correlated, "expected at least one correlation violation"
        for warning in correlated:
            explanation = warning.explanation
            assert explanation.provenance_digest == warning.rule.provenance.digest()
            facts = dict(explanation.environment)
            assert warning.rule.attribute_a in facts
            assert warning.rule.attribute_b in facts

    def test_explanations_survive_report_roundtrip(self, reports):
        from repro.engine.artifacts import report_from_dict

        report = next(r for r in reports if r.warnings)
        restored = report_from_dict(json.loads(json.dumps(report.to_dict())))
        assert [w.explanation for w in restored.warnings] == [
            w.explanation for w in report.warnings
        ]

    def test_render_includes_why_lines(self, reports):
        report = next(r for r in reports if r.warnings)
        assert "why: " in report.render()


# -- ledger --------------------------------------------------------------------


def _entry(**overrides):
    base = dict(
        command="check",
        config_fingerprint="cfg",
        dataset_fingerprint="data",
        ruleset_digest="abcdef0123456789",
        rule_count=10,
        training_size=60,
        targets_checked=3,
        warning_counts={"correlation_violation": 2},
        drift={"drifted": [], "targets": 3},
        timing={"run_seconds": 1.0},
        workers=1,
    )
    base.update(overrides)
    return LedgerEntry(**base)


class TestLedger:
    def test_append_and_read_back(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        first = ledger.append(_entry())
        second = ledger.append(_entry(command="audit"))
        entries = ledger.entries()
        assert [e.run_id for e in entries] == [first.run_id, second.run_id]
        assert entries[0].core() == first.core()

    def test_truncated_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        ledger.append(_entry())
        with path.open("a") as handle:
            handle.write('{"command": "check", "trunca')
        assert len(ledger.entries()) == 1
        assert ledger.skipped == 1

    @pytest.mark.parametrize(
        "line", ['[1]', '"x"', '7', 'null', '{"warning_counts": [1]}'],
    )
    def test_line_that_is_not_an_entry_object_is_skipped(self, tmp_path, line):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        first = ledger.append(_entry())
        with path.open("a") as handle:
            handle.write(line + "\n")
        second = ledger.append(_entry(command="audit"))
        assert [e.run_id for e in ledger.entries()] == [first.run_id, second.run_id]
        assert ledger.skipped == 1
        assert ledger.resolve("-1").run_id == second.run_id

    def test_resolve_by_index_and_prefix(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        first = ledger.append(_entry())
        second = ledger.append(_entry(command="audit"))
        assert ledger.resolve("-1").run_id == second.run_id
        assert ledger.resolve("0").run_id == first.run_id
        assert ledger.resolve(first.run_id[:6]).run_id == first.run_id
        with pytest.raises(LookupError):
            ledger.resolve("zzzzzz")
        with pytest.raises(LookupError):
            Ledger(tmp_path / "missing.jsonl").resolve("-1")

    def test_resolve_all_digit_run_id_prefix(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.append(_entry(run_id="123456abcdef"))
        ledger.append(_entry(run_id="9f00aa000000"))
        assert ledger.resolve("123456").run_id == "123456abcdef"
        assert ledger.resolve("1").run_id == "9f00aa000000"  # an index wins
        with pytest.raises(LookupError, match="out of range"):
            ledger.resolve("7")

    def test_entry_roundtrip(self):
        entry = _entry()
        restored = LedgerEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
        assert restored.core() == entry.core()
        assert restored.run_id == entry.run_id

    def test_diff_identical_cores(self):
        a = _entry(workers=1, timing={"run_seconds": 1.0})
        b = _entry(workers=4, timing={"run_seconds": 0.3})
        diff = diff_entries(a, b)
        assert diff.identical()
        assert diff.regressions() == []
        assert "identical" in diff.render()

    def test_diff_reports_regressions(self):
        a = _entry()
        b = _entry(
            ruleset_digest="fedcba9876543210",
            rule_count=8,
            warning_counts={"correlation_violation": 5,
                            "suspicious_value": 1},
            drift={"drifted": [{"attribute": "app:port"}], "targets": 3},
        )
        diff = diff_entries(a, b)
        assert not diff.identical()
        regressions = diff.regressions()
        assert any("rule-set digest changed" in r for r in regressions)
        assert any("correlation_violation +3" in r for r in regressions)
        assert any("suspicious_value +1" in r for r in regressions)
        assert any("attribute drifted: app:port" in r for r in regressions)

    def test_fingerprint_payload_canonical(self):
        assert (fingerprint_payload({"a": 1, "b": 2})
                == fingerprint_payload({"b": 2, "a": 1}))
        assert (fingerprint_payload({"a": 1})
                != fingerprint_payload({"a": 2}))


class TestLedgerConcurrency:
    def test_concurrent_appends_never_interleave(self, tmp_path):
        """The serve-daemon regression: many threads, one ledger file.

        Every line must parse and every entry must survive — a torn or
        interleaved write would either drop an entry (skipped as a
        truncated line) or corrupt a neighbour's.
        """
        import threading

        ledger = Ledger(tmp_path / "ledger.jsonl")
        writers, per_writer = 8, 25

        def write(worker: int) -> None:
            for i in range(per_writer):
                ledger.append(_entry(
                    command="check",
                    targets_checked=worker * per_writer + i,
                ))

        threads = [threading.Thread(target=write, args=(w,))
                   for w in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        raw_lines = [line for line in
                     (tmp_path / "ledger.jsonl").read_text().splitlines()
                     if line.strip()]
        assert len(raw_lines) == writers * per_writer
        for line in raw_lines:
            json.loads(line)  # every line is complete JSON
        entries = ledger.entries()
        assert len(entries) == writers * per_writer
        assert (sorted(e.targets_checked for e in entries)
                == list(range(writers * per_writer)))


class TestLedgerCli:
    @pytest.fixture()
    def corpus_dir(self, tmp_path):
        from repro.cli import main

        corpus = tmp_path / "corpus"
        main(["generate", "--out", str(corpus), "--count", "20", "--seed", "3"])
        return corpus

    def test_workers_agree_on_semantic_core(self, corpus_dir, tmp_path, capsys):
        from repro.cli import main

        ledger_path = tmp_path / "ledger.jsonl"
        for workers in ("1", "2"):
            rc = main([
                "audit", "--training", str(corpus_dir),
                "--targets", str(corpus_dir),
                "--workers", workers, "--ledger", str(ledger_path),
            ])
            assert rc == 0
        rc = main(["ledger", "diff", "--ledger", str(ledger_path)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "semantic cores identical" in out
        entries = Ledger(ledger_path).entries()
        assert entries[0].core() == entries[1].core()
        assert [e.workers for e in entries] == [1, 2]

    def test_no_ledger_suppresses_recording(self, corpus_dir, tmp_path):
        from repro.cli import main

        ledger_path = tmp_path / "ledger.jsonl"
        main(["train", "--training", str(corpus_dir),
              "--ledger", str(ledger_path), "--no-ledger"])
        assert not ledger_path.exists()

    def test_ledger_show_lists_runs(self, corpus_dir, tmp_path, capsys):
        from repro.cli import main

        ledger_path = tmp_path / "ledger.jsonl"
        main(["train", "--training", str(corpus_dir),
              "--ledger", str(ledger_path)])
        capsys.readouterr()
        rc = main(["ledger", "show", "--ledger", str(ledger_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "train" in out and "rules=" in out

    def test_explain_command_traces_a_warning(self, corpus_dir, tmp_path,
                                              capsys):
        from repro.cli import main

        target = sorted(corpus_dir.glob("*.json"))[0]
        rc = main(["check", "--training", str(corpus_dir),
                   "--target", str(target), "--json", "--no-ledger"])
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        if not report["warnings"]:
            pytest.skip("target produced no warnings on this population")
        attribute = report["warnings"][0]["attribute"]
        rc = main(["explain", "--training", str(corpus_dir), "--no-ledger",
                   str(target), attribute])
        out = capsys.readouterr().out
        assert rc == 0
        assert "expected:" in out
        if report["warnings"][0].get("rule"):
            assert "rule provenance" in out
            assert "contributing images" in out

    def test_explain_clean_attribute_exits_nonzero(self, corpus_dir,
                                                   tmp_path, capsys):
        from repro.cli import main

        target = sorted(corpus_dir.glob("*.json"))[0]
        rc = main(["explain", "--training", str(corpus_dir), "--no-ledger",
                   str(target), "definitely-not-an-attribute"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "no warning fired" in out
