"""Tests for the anomaly detector (paper §6): the four checks + ranking."""

import hashlib
import json
from collections import Counter

import pytest

from repro.core.assembler import DataAssembler
from repro.core.detector import AnomalyDetector, Warning, WarningKind, count_kinds
from repro.core.inference import RuleInferencer
from repro.core.report import Report
from repro.corpus.generator import Ec2CorpusGenerator
from repro.corpus.realworld import real_world_cases
from repro.evaluation.realworld import RealWorldResult
from repro.obs.model import Provenance
from repro.sysmodel.image import ConfigFile, SystemImage


def make_image(index, datadir_owner="mysql", extra_line="", entry_name="datadir"):
    image = SystemImage(f"det-{index:03d}")
    image.accounts.ensure_service_account("mysql", 27)
    image.fs.add_dir("/var/lib/mysql", owner=datadir_owner, group=datadir_owner, mode=0o700)
    text = (
        "[mysqld]\n"
        f"{entry_name} = /var/lib/mysql\n"
        "user = mysql\n"
        "port = 3306\n"
        "max_connections = 100\n"
    )
    if extra_line:
        text += extra_line + "\n"
    image.add_config_file(ConfigFile("mysql", "/etc/my.cnf", text))
    return image


@pytest.fixture(scope="module")
def detector_setup():
    assembler = DataAssembler()
    dataset = assembler.assemble_corpus(make_image(i) for i in range(20))
    rules = RuleInferencer().infer(dataset).rules
    detector = AnomalyDetector(dataset, rules, inferencer=assembler.inferencer)
    return assembler, detector


class TestEntryNameViolation:
    def test_misspelled_entry_flagged_with_suggestion(self, detector_setup):
        assembler, detector = detector_setup
        target = assembler.assemble(make_image(99, entry_name="dataadir"))
        warnings = detector.check_entry_names(target)
        assert any(
            w.kind is WarningKind.ENTRY_NAME and "dataadir" in w.message
            and "datadir" in w.message
            for w in warnings
        )

    def test_novel_entry_flagged_without_suggestion(self, detector_setup):
        assembler, detector = detector_setup
        target = assembler.assemble(make_image(98, extra_line="zz_custom_flag = 1"))
        warnings = detector.check_entry_names(target)
        match = [w for w in warnings if "zz_custom_flag" in w.attribute]
        assert match and "never seen" in match[0].message

    def test_known_entries_quiet(self, detector_setup):
        assembler, detector = detector_setup
        target = assembler.assemble(make_image(97))
        assert detector.check_entry_names(target) == []


class TestCorrelationViolation:
    def test_ownership_violation(self, detector_setup):
        assembler, detector = detector_setup
        target = assembler.assemble(make_image(96, datadir_owner="root"))
        warnings = detector.check_correlations(target)
        assert any(
            w.rule is not None and w.rule.template_name == "ownership"
            for w in warnings
        )

    def test_score_tracks_confidence(self, detector_setup):
        assembler, detector = detector_setup
        target = assembler.assemble(make_image(95, datadir_owner="root"))
        for warning in detector.check_correlations(target):
            assert warning.score == pytest.approx(2.0 + warning.rule.confidence)

    def test_absent_entries_ignored(self, detector_setup):
        assembler, detector = detector_setup
        image = SystemImage("det-absent")
        image.add_config_file(ConfigFile("mysql", "/etc/my.cnf", "[mysqld]\nport = 3306\n"))
        target = assembler.assemble(image)
        assert detector.check_correlations(target) == []


    def test_provenance_hashed_once_per_rule(self, monkeypatch):
        """A rule's provenance digest is computed once, however many
        checks the rule fails, and equals the digest of its content."""
        assembler = DataAssembler()
        dataset = assembler.assemble_corpus(make_image(i) for i in range(20))
        rules = RuleInferencer().infer(dataset).rules
        detector = AnomalyDetector(dataset, rules, inferencer=assembler.inferencer)
        expected = {
            id(rule.provenance): hashlib.sha256(
                json.dumps(rule.provenance.to_dict(), sort_keys=True).encode()
            ).hexdigest()[:12]
            for rule in rules
        }
        hashed = Counter()
        to_dict = Provenance.to_dict

        def counting_to_dict(self):
            hashed[id(self)] += 1
            return to_dict(self)

        monkeypatch.setattr(Provenance, "to_dict", counting_to_dict)
        violations = 0
        for index in range(50):
            target = assembler.assemble(make_image(900 + index, datadir_owner="root"))
            for warning in detector.check_correlations(target):
                violations += 1
                assert warning.explanation.provenance_digest == (
                    expected[id(warning.rule.provenance)]
                )
        assert violations >= 50
        assert hashed and set(hashed.values()) == {1}
        assert set(hashed) <= set(expected)


class TestTypeViolation:
    def test_wrong_kind_value(self, detector_setup):
        """The learned FilePath type fails on a value that is not a path."""
        assembler, detector = detector_setup
        image = make_image(94)
        image.replace_config_text(
            "mysql",
            "[mysqld]\ndatadir = not-a-path-at-all!\nuser = mysql\nport = 3306\n"
            "max_connections = 100\n",
        )
        target = assembler.assemble(image)
        warnings = detector.check_types(target)
        assert any(
            w.kind is WarningKind.DATA_TYPE and w.attribute == "mysql:mysqld/datadir"
            for w in warnings
        )

    def test_clean_target_quiet(self, detector_setup):
        assembler, detector = detector_setup
        target = assembler.assemble(make_image(93))
        assert detector.check_types(target) == []

    def test_each_value_type_pair_verified_once_per_check(
        self, trained_encore, monkeypatch
    ):
        """Repeated cells (the augmented .owner/.group columns above all)
        reuse the verdict their first cell got within the same check."""
        detector = trained_encore._detector
        inferencer = detector.inferencer
        verify = inferencer.verify
        calls = []

        def counting(value, config_type, image=None):
            calls.append((value, config_type))
            return verify(value, config_type, image)

        targets, _ = Ec2CorpusGenerator(seed=102).generate_wild(30)
        rows = [trained_encore.assembler.assemble(t) for t in targets]
        expected = [detector.check_types(row) for row in rows]
        monkeypatch.setattr(inferencer, "verify", counting)
        repeats = 0
        for row, warnings in zip(rows, expected):
            calls.clear()
            assert detector.check_types(row) == warnings
            assert len(calls) == len(set(calls))
            enforced = [
                (row.cells[a].value, detector._enforced_types[a].type)
                for a in row.attributes() if a in detector._enforced_types
            ]
            repeats += len(enforced) - len(set(enforced))
        assert repeats > 0


class TestSuspiciousValue:
    def test_unseen_value_on_stable_column(self, detector_setup):
        assembler, detector = detector_setup
        image = make_image(92)
        image.replace_config_text(
            "mysql",
            "[mysqld]\ndatadir = /var/lib/mysql\nuser = mysql\nport = 3306\n"
            "max_connections = 9999\n",
        )
        target = assembler.assemble(image)
        warnings = detector.check_suspicious_values(target)
        match = [w for w in warnings if w.attribute == "mysql:mysqld/max_connections"]
        assert match
        # cardinality-1 training column gets the ICF + stability boost
        assert match[0].score == pytest.approx(3.2)

    def test_seen_values_quiet(self, detector_setup):
        assembler, detector = detector_setup
        target = assembler.assemble(make_image(91))
        assert detector.check_suspicious_values(target) == []


class TestRanking:
    def test_rank_is_score_descending(self):
        warnings = [
            Warning(WarningKind.SUSPICIOUS_VALUE, "a", "m", 0.5),
            Warning(WarningKind.DATA_TYPE, "b", "m", 3.5),
            Warning(WarningKind.CORRELATION, "c", "m", 2.9),
        ]
        ranked = AnomalyDetector.rank(warnings)
        assert [w.attribute for w in ranked] == ["b", "c", "a"]

    def test_deterministic_tie_break(self):
        warnings = [
            Warning(WarningKind.ENTRY_NAME, "b", "m", 1.0),
            Warning(WarningKind.ENTRY_NAME, "a", "m", 1.0),
        ]
        ranked = AnomalyDetector.rank(warnings)
        assert [w.attribute for w in ranked] == ["a", "b"]


class TestReport:
    def make_report(self):
        return Report(
            "img-1",
            [
                Warning(WarningKind.DATA_TYPE, "mysql:mysqld/datadir", "bad", 3.5),
                Warning(WarningKind.CORRELATION, "php:upload_max_filesize", "bad", 2.9),
            ],
        )

    def test_rank_of_attribute_full_and_tail(self):
        report = self.make_report()
        assert report.rank_of_attribute("mysql:mysqld/datadir") == 1
        assert report.rank_of_attribute("mysqld/datadir") == 1
        assert report.rank_of_attribute("upload_max_filesize") == 2
        assert report.rank_of_attribute("missing") is None

    def test_rank_with_kind_filter(self):
        report = self.make_report()
        assert report.rank_of_attribute(
            "mysqld/datadir", kind=WarningKind.CORRELATION
        ) is None

    def test_paper_rank_notation(self):
        """Table 9's "rank(total)" notation, as its experiment records it."""
        report = self.make_report()
        case = real_world_cases()[0]

        def notation(attribute):
            rank = report.rank_of_attribute(attribute)
            return RealWorldResult(case, rank, len(report)).rank_notation

        assert notation("mysqld/datadir") == "1(2)"
        assert notation("nope") == "-"

    def test_counts_by_kind(self):
        counts = count_kinds(self.make_report().warnings)
        assert counts == {"data_type_violation": 1, "correlation_violation": 1}
        more = count_kinds(self.make_report().warnings, counts)
        assert more is counts and counts["data_type_violation"] == 2

    def test_render_contains_warnings(self):
        text = self.make_report().render()
        assert "img-1" in text and "datadir" in text

    def test_render_truncates(self):
        report = Report(
            "x", [Warning(WarningKind.ENTRY_NAME, f"a{i}", "m", 1.0) for i in range(30)]
        )
        text = report.render(limit=5)
        assert "25 more" in text
