"""Tests for the catalog and corpus generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import ConfigType
from repro.corpus.catalog import (
    TABLE1_EXPECTED,
    app_catalog,
    catalog_summary,
    full_catalog,
    ground_truth_types,
)
from repro.corpus.generator import (
    Ec2CorpusGenerator,
    GenerationProfile,
    format_size,
    _extract_value,
)
from repro.corpus.private_cloud import PrivateCloudGenerator
from repro.parsers.registry import default_registry
from repro.sysmodel.image import ConfigFile, SystemImage


class TestCatalog:
    @pytest.mark.parametrize("app", ["apache", "mysql", "php", "sshd"])
    def test_table1_counts_exact(self, app):
        """The catalog reproduces the paper's Table 1 row for row."""
        summary = catalog_summary()[app]
        total, env, corr = TABLE1_EXPECTED[app]
        assert summary["total"] == total
        assert summary["env_related"] == env
        assert summary["correlated"] == corr

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            app_catalog("nginx")

    def test_full_catalog_size(self):
        assert len(full_catalog()) == sum(t for t, _, _ in TABLE1_EXPECTED.values())

    def test_entries_have_choices(self):
        for entry in full_catalog():
            assert entry.choices, entry.name

    def test_names_unique_per_app(self):
        for app in TABLE1_EXPECTED:
            names = [e.name for e in app_catalog(app)]
            assert len(names) == len(set(names)), app

    def test_ground_truth_types(self):
        truth = ground_truth_types("mysql")
        assert truth["mysqld/datadir"] is ConfigType.FILE_PATH
        assert truth["mysqld/user"] is ConfigType.USER_NAME


class TestHelpers:
    def test_format_size(self):
        assert format_size(64 << 20) == "64M"
        assert format_size(2 << 30) == "2G"
        assert format_size(1000) == "1000"

    def test_extract_value(self):
        text = "[mysqld]\ndatadir = /var/lib/mysql\nuser = mysql\n"
        assert _extract_value(text, "datadir") == "/var/lib/mysql"
        assert _extract_value(text, "missing") is None

    @staticmethod
    def _image(text):
        image = SystemImage("edit")
        image.add_config_file(ConfigFile("apache", "/etc/httpd.conf", text))
        return image

    def test_replace_value(self):
        image = self._image("Timeout 60\nKeepAlive On\n")
        assert image.set_config_value("apache", "Timeout", "300") == "60"
        assert image.config_file("apache").text == "Timeout 300\nKeepAlive On\n"

    def test_replace_value_prefix_safe(self):
        """'Timeout' must not match 'TimeoutAction'."""
        image = self._image("TimeoutAction error\nTimeout 60\n")
        assert image.set_config_value("apache", "Timeout", "1") == "60"
        assert image.config_file("apache").text == "TimeoutAction error\nTimeout 1\n"

    def test_replace_value_section_blind(self):
        """The first matching line wins, whatever its section."""
        image = self._image("[client]\nsocket = /a\n[mysqld]\nsocket = /b\n")
        assert image.set_config_value("apache", "socket", "/c") == "/a"
        assert image.config_file("apache").text == (
            "[client]\nsocket = /c\n[mysqld]\nsocket = /b\n"
        )

    def test_replace_missing_returns_none(self):
        image = self._image("A 1\r\n")
        assert image.set_config_value("apache", "B", "2") is None
        assert image.config_file("apache").text == "A 1\r\n"
        with pytest.raises(KeyError):
            image.set_config_value("mysql", "A", "2")


class TestEc2Generator:
    def test_deterministic(self):
        a = Ec2CorpusGenerator(seed=5).generate_one(3)
        b = Ec2CorpusGenerator(seed=5).generate_one(3)
        assert a.config_file("mysql").text == b.config_file("mysql").text
        assert a.fs.file_list() == b.fs.file_list()

    def test_seeds_differ(self):
        a = Ec2CorpusGenerator(seed=5).generate_one(3)
        b = Ec2CorpusGenerator(seed=6).generate_one(3)
        assert a.config_file("apache").text != b.config_file("apache").text

    def test_configs_parse(self, small_corpus):
        registry = default_registry()
        for image in small_corpus[:8]:
            for config in image.config_files():
                entries = registry.parse(config.app, config.text)
                assert entries, config.app

    def test_environment_coherence_datadir(self, small_corpus):
        """datadir exists as a directory owned by the mysql user."""
        for image in small_corpus[:10]:
            text = image.config_file("mysql").text
            datadir = _extract_value(text, "datadir")
            user = _extract_value(text, "user")
            meta = image.fs.get(datadir)
            assert meta is not None and meta.is_dir
            assert meta.owner == user

    def test_environment_coherence_extension_dir(self, small_corpus):
        for image in small_corpus[:10]:
            ext_dir = _extract_value(image.config_file("php").text, "extension_dir")
            assert image.fs.is_dir(ext_dir)

    def test_loadmodule_paths_resolve(self, small_corpus):
        """ServerRoot + LoadModule arg2 exists (the Figure 4b invariant)."""
        for image in small_corpus[:10]:
            text = image.config_file("apache").text
            server_root = _extract_value(text, "ServerRoot")
            for line in text.splitlines():
                if line.startswith("LoadModule"):
                    rel = line.split()[-1]
                    assert image.fs.is_file(f"{server_root}/{rel}"), line

    def test_php_size_ordering_mostly_holds(self, small_corpus):
        from repro.core.types import parse_size_bytes

        holds = 0
        for image in small_corpus:
            text = image.config_file("php").text
            upload = parse_size_bytes(_extract_value(text, "upload_max_filesize"))
            post = parse_size_bytes(_extract_value(text, "post_max_size"))
            if upload <= post:
                holds += 1
        assert holds >= len(small_corpus) * 0.9

    def test_dormant_hardware(self, small_corpus):
        assert all(not image.hardware.available for image in small_corpus[:5])

    def test_requested_apps_only(self):
        image = Ec2CorpusGenerator(seed=1, apps=("sshd",)).generate_one(0)
        assert image.apps() == ["sshd"]

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            Ec2CorpusGenerator(apps=("nginx",))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            GenerationProfile(noise_rate=0.5)
        with pytest.raises(ValueError):
            GenerationProfile(customization_level=2.0)

    def test_generate_wild_counts(self):
        generator = Ec2CorpusGenerator(seed=9)
        images, issues = generator.generate_wild(
            30, planted={"FilePath": 2, "Permission": 3, "ValueCompare": 4}
        )
        assert len(images) == 30
        assert len(issues) == 9
        categories = sorted({i.category for i in issues})
        assert categories == ["FilePath", "Permission", "ValueCompare"]

    def test_wild_issue_ids_point_at_real_images(self):
        generator = Ec2CorpusGenerator(seed=9)
        images, issues = generator.generate_wild(20)
        ids = {image.image_id for image in images}
        assert all(issue.image_id in ids for issue in issues)


class TestPrivateCloudGenerator:
    def test_running_with_hardware(self):
        image = PrivateCloudGenerator(seed=2).generate_one(0)
        assert image.running
        assert image.hardware.available
        assert image.image_id.startswith("vm-")

    def test_default_plant_matches_paper(self):
        generator = PrivateCloudGenerator(seed=2)
        _, issues = generator.generate_wild(40)
        from collections import Counter

        counts = Counter(i.category for i in issues)
        assert counts["FilePath"] == 10
        assert counts["Permission"] == 3
        assert counts["ValueCompare"] == 11


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_any_index_generates_coherent_image(index):
    image = Ec2CorpusGenerator(seed=0).generate_one(index)
    datadir = _extract_value(image.config_file("mysql").text, "datadir")
    assert image.fs.is_dir(datadir)
