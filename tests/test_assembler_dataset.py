"""Tests for the data assembler and assembled datasets (paper §4)."""

import pytest

from repro.core.assembler import DataAssembler, attribute_counts
from repro.core.collector import DataCollector
from repro.core.dataset import AssembledSystem
from repro.core.types import ConfigType, TypedValue
from repro.sysmodel.image import ConfigFile, SystemImage


@pytest.fixture()
def assembler():
    return DataAssembler()


class TestAssembleSingle:
    def test_original_entries_qualified(self, assembler, mysql_image):
        system = assembler.assemble(mysql_image)
        assert "mysql:mysqld/datadir" in system
        assert system.value("mysql:mysqld/datadir") == "/var/lib/mysql"

    def test_augmented_columns_attached(self, assembler, mysql_image):
        system = assembler.assemble(mysql_image)
        assert system.value("mysql:mysqld/datadir.owner") == "mysql"
        assert system.value("mysql:mysqld/datadir.type") == "dir"
        assert system.is_augmented("mysql:mysqld/datadir.owner")
        assert not system.is_augmented("mysql:mysqld/datadir")

    def test_env_columns_attached(self, assembler, mysql_image):
        system = assembler.assemble(mysql_image)
        assert system.value("env:OS.DistName") is not None

    def test_no_augmentation_mode(self, mysql_image):
        plain = DataAssembler(augment_environment=False)
        system = plain.assemble(mysql_image)
        assert "mysql:mysqld/datadir" in system
        assert "mysql:mysqld/datadir.owner" not in system
        assert not any(a.startswith("env:") for a in system.attributes())

    def test_attribute_counts_grow_with_augmentation(self, mysql_image):
        counts = attribute_counts(mysql_image)
        assert counts["augmented"] > counts["original"]

    def test_assemble_from_collection(self, assembler, mysql_image):
        collection = DataCollector().collect(mysql_image)
        system = assembler.assemble(collection.restore_image())
        direct = assembler.assemble(mysql_image)
        assert system.as_row() == direct.as_row()

    def test_multi_occurrence_entries(self, assembler):
        image = SystemImage("multi")
        image.fs.add_file("/etc/httpd/modules/mod_a.so")
        image.fs.add_file("/etc/httpd/modules/mod_b.so")
        image.add_config_file(
            ConfigFile(
                "apache", "/etc/httpd/conf/httpd.conf",
                "LoadModule a_module modules/mod_a.so\n"
                "LoadModule b_module modules/mod_b.so\n",
            )
        )
        system = assembler.assemble(image)
        values = system.values_of("apache:LoadModule/arg2")
        assert len(values) == 2


class TestAssembledSystem:
    def test_values_of_single(self, assembler, mysql_image):
        system = assembler.assemble(mysql_image)
        assert len(system.values_of("mysql:mysqld/user")) == 1
        assert system.values_of("missing:attr") == []

    def test_occurrence_count_counts_repeats(self):
        image = SystemImage("occ")
        system = AssembledSystem(image)
        system.set("a:x", TypedValue("1", ConfigType.NUMBER))
        system.set("a:x", TypedValue("2", ConfigType.NUMBER))
        system.set("a:y", TypedValue("3", ConfigType.NUMBER))
        assert system.occurrence_count() == 3
        assert len(system) == 2


class TestDataset:
    def test_stats_basic(self, assembler, small_corpus):
        dataset = assembler.assemble_corpus(small_corpus[:10])
        stats = dataset.stats("mysql:mysqld/user")
        assert stats is not None
        assert stats.type is ConfigType.USER_NAME
        assert stats.present_count == 10
        assert stats.seen("mysql")
        assert stats.cardinality == 1
        assert stats.entropy == 0.0
        assert stats.inverse_change_frequency() == 1.0

    def test_seen_matches_value_counts_scan(self, assembler, small_corpus):
        dataset = assembler.assemble_corpus(small_corpus[:10])
        for attribute in dataset.attributes():
            stats = dataset.stats(attribute)
            present = [v for v, _ in stats.value_counts]
            for value in present + ["", "never-a-value", present[0] + "x"]:
                assert stats.seen(value) == any(v == value for v in present)

    def test_attributes_of_type(self, assembler, small_corpus):
        dataset = assembler.assemble_corpus(small_corpus[:10])
        users = dataset.attributes_of_type(ConfigType.USER_NAME)
        assert "mysql:mysqld/user" in users

    def test_entry_names_exclude_augmented_and_env(self, assembler, small_corpus):
        dataset = assembler.assemble_corpus(small_corpus[:5])
        names = dataset.entry_names()
        assert "mysqld/datadir" in names["mysql"]
        assert not any(n.endswith(".owner") for n in names["mysql"])
        assert "env" not in names

    def test_entry_names_keep_dotted_php_entries(self, assembler, small_corpus):
        dataset = assembler.assemble_corpus(small_corpus[:5])
        # PHP names legitimately contain dots and must survive.
        assert any("." in n for n in dataset.entry_names()["php"])

    def test_type_agreement_range(self, assembler, small_corpus):
        dataset = assembler.assemble_corpus(small_corpus[:10])
        for attribute in dataset.attributes():
            stats = dataset.stats(attribute)
            assert 0.0 < stats.type_agreement <= 1.0

    def test_is_free_varying_thresholds(self):
        from repro.core.dataset import AttributeStats

        stable = AttributeStats("a", ConfigType.STRING, 60, (("x", 60),), 0.0)
        assert not stable.is_free_varying()
        diverse = AttributeStats(
            "b", ConfigType.STRING, 60,
            tuple((f"v{i}", 1) for i in range(40)), 3.0,
        )
        assert diverse.is_free_varying()


class TestGroupsMemo:
    """``AssembledSystem.groups_of`` asks the accounts once per user."""

    @staticmethod
    def count_calls(monkeypatch):
        from collections import Counter

        from repro.sysmodel.accounts import AccountDatabase

        calls = Counter()
        real = AccountDatabase.groups_of

        def counting(accounts, user):
            calls[(id(accounts), user)] += 1
            return real(accounts, user)

        monkeypatch.setattr(AccountDatabase, "groups_of", counting)
        return calls

    def test_one_lookup_per_user(self, mysql_image, monkeypatch):
        system = DataAssembler().assemble(mysql_image)
        expected = mysql_image.accounts.groups_of("mysql")
        calls = self.count_calls(monkeypatch)
        for _ in range(3):
            assert system.groups_of("mysql") == expected
            assert system.groups_of("ghost") == []
        assert sorted(calls.values()) == [1, 1]

    def test_inference_looks_up_each_row_user_once(self, monkeypatch):
        from repro.core.inference import RuleInferencer
        from repro.corpus.generator import Ec2CorpusGenerator

        dataset = DataAssembler().assemble_corpus(Ec2CorpusGenerator(3).generate(30))
        calls = self.count_calls(monkeypatch)
        RuleInferencer().infer(dataset)
        assert calls and set(calls.values()) == {1}
