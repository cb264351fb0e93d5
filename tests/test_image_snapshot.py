"""Tests for SystemImage and JSON snapshots."""

import copy

import pytest

from repro.corpus.generator import Ec2CorpusGenerator
from repro.sysmodel.image import ConfigFile, SystemImage
from repro.sysmodel.snapshot import (
    ImageCorruptError,
    image_from_dict,
    image_to_dict,
    load_image,
    save_image,
)


class TestConfigFile:
    def test_requires_app(self):
        with pytest.raises(ValueError):
            ConfigFile("", "/etc/x.conf", "")

    def test_requires_absolute_path(self):
        with pytest.raises(ValueError):
            ConfigFile("apache", "etc/httpd.conf", "")


class TestSystemImage:
    def test_requires_id(self):
        with pytest.raises(ValueError):
            SystemImage("")

    def test_add_config_materialises_file(self, empty_image):
        empty_image.add_config_file(ConfigFile("mysql", "/etc/my.cnf", "[mysqld]\n"))
        assert empty_image.fs.is_file("/etc/my.cnf")

    def test_config_file_lookup(self, empty_image):
        empty_image.add_config_file(ConfigFile("mysql", "/etc/my.cnf", "x"))
        assert empty_image.config_file("mysql").text == "x"
        with pytest.raises(KeyError):
            empty_image.config_file("apache")

    def test_ambiguous_config_lookup_raises(self, empty_image):
        empty_image.add_config_file(ConfigFile("apache", "/etc/a.conf", ""))
        empty_image.add_config_file(ConfigFile("apache", "/etc/b.conf", ""))
        with pytest.raises(KeyError):
            empty_image.config_file("apache")

    def test_apps(self, empty_image):
        empty_image.add_config_file(ConfigFile("php", "/etc/php.ini", ""))
        empty_image.add_config_file(ConfigFile("mysql", "/etc/my.cnf", ""))
        assert empty_image.apps() == ["mysql", "php"]
        assert empty_image.has_app("php")
        assert not empty_image.has_app("sshd")

    def test_env_vars_only_when_running(self):
        dormant = SystemImage("a", env_vars={"PATH": "/bin"}, running=False)
        running = SystemImage("b", env_vars={"PATH": "/bin"}, running=True)
        assert dormant.env_var("PATH") is None
        assert running.env_var("PATH") == "/bin"

    def test_copy_isolates_mutations(self, mysql_image):
        clone = mysql_image.copy("clone")
        clone.fs.chown("/var/lib/mysql", owner="root")
        clone.replace_config_text("mysql", "[mysqld]\n")
        assert mysql_image.fs.get("/var/lib/mysql").owner == "mysql"
        assert "datadir" in mysql_image.config_file("mysql").text
        assert clone.image_id == "clone"

    def test_repr_mentions_apps(self, mysql_image):
        assert "mysql" in repr(mysql_image)


class TestSnapshot:
    def test_roundtrip_preserves_everything(self, mysql_image):
        data = image_to_dict(mysql_image)
        restored = image_from_dict(data)
        assert restored.image_id == mysql_image.image_id
        assert restored.fs.file_list() == mysql_image.fs.file_list()
        assert restored.accounts.user_list() == mysql_image.accounts.user_list()
        assert restored.config_file("mysql").text == mysql_image.config_file("mysql").text
        meta = restored.fs.get("/var/lib/mysql")
        assert meta.owner == "mysql" and meta.mode == 0o700

    def test_roundtrip_through_disk(self, mysql_image, tmp_path):
        path = save_image(mysql_image, tmp_path / "img.json")
        restored = load_image(path)
        assert image_to_dict(restored) == image_to_dict(mysql_image)

    def test_version_check(self, mysql_image):
        data = image_to_dict(mysql_image)
        data["version"] = 99
        with pytest.raises(ValueError):
            image_from_dict(data)

    def test_generated_image_roundtrip(self, small_corpus):
        image = small_corpus[0]
        restored = image_from_dict(image_to_dict(image))
        assert image_to_dict(restored) == image_to_dict(image)


def _key_paths(node, depth, prefix=()):
    """Paths to every dict key down to *depth* levels (lists: first item)."""
    if depth == 0:
        return
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _key_paths(value, depth - 1, prefix + (key,))
    elif isinstance(node, list) and node:
        yield from _key_paths(node[0], depth, prefix + (0,))


def _retyped(value):
    """A value of another JSON type."""
    if isinstance(value, bool) or value is None:
        return "x"
    if isinstance(value, (int, float)):
        return "x"
    if isinstance(value, str):
        return 1
    if isinstance(value, list):
        return {}
    return []


class TestImageFromDictMutations:
    """Every single-key mutation either decodes or raises ImageCorruptError."""

    def test_drop_or_retype_one_key(self):
        data = image_to_dict(Ec2CorpusGenerator(seed=3).generate_one(0))
        paths = list(_key_paths(data, depth=3))
        assert len(paths) > 40
        corrupt = 0
        for path in paths:
            for mutation in ("drop", "retype"):
                mutated = copy.deepcopy(data)
                parent = mutated
                for key in path[:-1]:
                    parent = parent[key]
                if mutation == "drop":
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = _retyped(parent[path[-1]])
                try:
                    image_from_dict(mutated)
                except ImageCorruptError as exc:
                    assert exc.path is None and exc.reason, (path, mutation)
                    corrupt += 1
        assert corrupt > 40

    @pytest.mark.parametrize("data", [None, [1], "x", 7, {}])
    def test_not_an_image_dict(self, data):
        with pytest.raises(ImageCorruptError):
            image_from_dict(data)

    def test_load_image_names_the_path(self, tmp_path):
        path = tmp_path / "img.json"
        path.write_text('{"version": 1, "image_id": "x"}')
        with pytest.raises(ImageCorruptError, match="missing field") as excinfo:
            load_image(path)
        assert excinfo.value.path == str(path)
