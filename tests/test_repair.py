"""Tests for the remediation advisor (the §9 auto-configuration aid)."""

import pytest

from repro.core.detector import Warning, WarningKind
from repro.core.repair import RepairAction, RepairAdvisor
from repro.core.rules import ConcreteRule
from repro.corpus.generator import Ec2CorpusGenerator


@pytest.fixture(scope="module")
def advisor(trained_encore):
    return RepairAdvisor(trained_encore.model.dataset)


@pytest.fixture()
def broken_setup(trained_encore, held_out_image):
    """A held-out image with a datadir ownership break, checked."""
    broken = held_out_image.copy("repair-target")
    datadir = None
    for line in broken.config_file("mysql").text.splitlines():
        if line.strip().startswith("datadir"):
            datadir = line.split("=", 1)[1].strip()
    broken.fs.chown(datadir, owner="root", group="root")
    report = trained_encore.check(broken)
    target = trained_encore.assembler.assemble(broken)
    return report, target, datadir


class TestOwnershipRepair:
    def test_chown_suggested(self, advisor, broken_setup):
        report, target, datadir = broken_setup
        suggestions = advisor.suggest(report, target)
        chowns = [s for s in suggestions if s.action is RepairAction.CHOWN]
        assert chowns
        assert any(datadir in s.proposal and "mysql" in s.proposal for s in chowns)

    def test_confidence_carries_rule_confidence(self, advisor, broken_setup):
        report, target, _ = broken_setup
        for suggestion in advisor.suggest(report, target):
            if suggestion.action is RepairAction.CHOWN:
                assert suggestion.confidence >= 0.9


class TestPerKindSuggestions:
    def _suggest_for(self, advisor, trained_encore, warning):
        # an empty target row suffices for value-level suggestions
        from repro.core.dataset import AssembledSystem
        from repro.sysmodel.image import SystemImage

        return advisor.suggest_one(warning, AssembledSystem(SystemImage("x")))

    def test_entry_name_rename(self, advisor, trained_encore):
        warning = Warning(
            WarningKind.ENTRY_NAME, "mysql:mysqld/dataadir", "unknown", 1.0
        )
        suggestion = self._suggest_for(advisor, trained_encore, warning)
        assert suggestion.action is RepairAction.RENAME_ENTRY
        assert "datadir" in suggestion.proposal

    def test_entry_name_no_match_manual(self, advisor, trained_encore):
        warning = Warning(
            WarningKind.ENTRY_NAME, "mysql:zzz_nonsense_entry", "unknown", 1.0
        )
        suggestion = self._suggest_for(advisor, trained_encore, warning)
        assert suggestion.action is RepairAction.MANUAL

    def test_suspicious_value_dominant_proposal(self, advisor, trained_encore):
        warning = Warning(
            WarningKind.SUSPICIOUS_VALUE, "mysql:mysqld/user", "unseen", 1.0,
            value="msql",
        )
        suggestion = self._suggest_for(advisor, trained_encore, warning)
        assert suggestion.action is RepairAction.SET_VALUE
        assert "'mysql'" in suggestion.proposal

    def test_augmented_column_routed_to_environment(self, advisor, trained_encore):
        warning = Warning(
            WarningKind.SUSPICIOUS_VALUE, "php:extension_dir.type", "unseen",
            3.2, value="file",
        )
        suggestion = self._suggest_for(advisor, trained_encore, warning)
        assert suggestion.action is RepairAction.MANUAL
        assert "environment" in suggestion.proposal

    def test_unknown_attribute_returns_none(self, advisor, trained_encore):
        warning = Warning(
            WarningKind.SUSPICIOUS_VALUE, "mysql:never_seen", "x", 1.0
        )
        assert self._suggest_for(advisor, trained_encore, warning) is None


class TestCorrelationRepairs:
    def make_target(self, values):
        from repro.core.dataset import AssembledSystem
        from repro.core.types import ConfigType, TypedValue
        from repro.sysmodel.image import SystemImage

        target = AssembledSystem(SystemImage("t"))
        for attr, value in values.items():
            target.set(attr, TypedValue(value, ConfigType.STRING))
        return target

    def make_warning(self, template, a, b, relation="<"):
        rule = ConcreteRule(template, a, b, relation, 10, 10)
        return Warning(WarningKind.CORRELATION, a, "viol", 3.0, rule=rule)

    def test_size_ordering_proposal(self, advisor):
        target = self.make_target(
            {"php:upload_max_filesize": "64M", "php:post_max_size": "8M"}
        )
        warning = self.make_warning(
            "less_size", "php:upload_max_filesize", "php:post_max_size"
        )
        suggestion = advisor.suggest_one(warning, target)
        assert suggestion.action is RepairAction.SET_VALUE
        assert "4M" in suggestion.proposal  # half the partner's bound

    def test_number_ordering_proposal(self, advisor):
        target = self.make_target({"a:x": "500", "a:y": "100"})
        warning = self.make_warning("less_number", "a:x", "a:y")
        suggestion = advisor.suggest_one(warning, target)
        assert "50" in suggestion.proposal

    def test_equality_mirror(self, advisor):
        target = self.make_target(
            {"mysql:client/port": "3307", "mysql:mysqld/port": "3306"}
        )
        warning = self.make_warning(
            "equal_same_type", "mysql:client/port", "mysql:mysqld/port", "=="
        )
        suggestion = advisor.suggest_one(warning, target)
        assert suggestion.action is RepairAction.SET_VALUE
        assert "3306" in suggestion.proposal

    def test_not_accessible_chmod(self, advisor):
        target = self.make_target(
            {"mysql:mysqld/log_error": "/var/log/mysqld.log", "apache:User": "apache"}
        )
        warning = self.make_warning(
            "not_accessible", "mysql:mysqld/log_error", "apache:User", "!="
        )
        suggestion = advisor.suggest_one(warning, target)
        assert suggestion.action is RepairAction.CHMOD
        assert "o-rwx" in suggestion.proposal

    def test_concat_create_path(self, advisor):
        target = self.make_target(
            {"apache:ServerRoot": "/etc/httpd", "apache:LoadModule/arg2": "modules/m.so"}
        )
        warning = self.make_warning(
            "concat_path", "apache:ServerRoot", "apache:LoadModule/arg2", "+=>"
        )
        suggestion = advisor.suggest_one(warning, target)
        assert suggestion.action is RepairAction.CREATE_PATH
        assert "/etc/httpd/modules/m.so" in suggestion.proposal

    def test_absent_values_skipped(self, advisor):
        target = self.make_target({})
        warning = self.make_warning("less_size", "a:x", "a:y")
        assert advisor.suggest_one(warning, target) is None

    def test_str_rendering(self, advisor):
        target = self.make_target({"a:x": "2", "a:y": "1"})
        warning = self.make_warning("less_number", "a:x", "a:y")
        text = str(advisor.suggest_one(warning, target))
        assert "set_value" in text and "confidence" in text


class TestEnCoreSuggest:
    """``EnCore.suggest`` assembles the target once and advises as a
    separate check, assemble and advise would."""

    def test_one_assembly_and_same_suggestions(self, trained_encore, monkeypatch):
        images, _ = Ec2CorpusGenerator(seed=101).generate_wild(5)
        assembler = trained_encore.assembler
        advisor = RepairAdvisor(trained_encore.model.dataset)
        expected = []
        for image in images:
            report = trained_encore.check(image)
            target = assembler.assemble(image)
            expected.append((report.to_dict(), advisor.suggest(report, target)))
        assemble = assembler.assemble
        calls = []

        def counting(image):
            calls.append(image.image_id)
            return assemble(image)

        monkeypatch.setattr(assembler, "assemble", counting)
        got = []
        for image in images:
            report, suggestions = trained_encore.suggest(image)
            got.append((report.to_dict(), suggestions))
        assert calls == [image.image_id for image in images]
        assert got == expected
        assert any(suggestions for _, suggestions in expected)

