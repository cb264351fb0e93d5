"""Tests for SystemImage and JSON snapshots."""

import copy
import json
import random
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.corpus.generator import Ec2CorpusGenerator
from repro.sysmodel import (
    FileKind,
    FileMeta,
    Group,
    HardwareSpec,
    OSInfo,
    Service,
    User,
)
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


# -- decoded records: slotted, sharing their name strings, byte-identical ------


def _fresh_dict(image):
    """A snapshot dict as a load sees it: every string a new object."""
    return json.loads(json.dumps(image_to_dict(image)))


class TestDecodedRecords:
    def test_records_are_slotted(self, small_corpus):
        image = image_from_dict(_fresh_dict(small_corpus[0]))
        records = [
            image.fs.get("/etc"),
            image.accounts.user("root"),
            image.accounts.group("root"),
            next(iter(image.services)),
            image.hardware,
            image.os_info,
            image.config_files()[0],
        ]
        assert [type(r) for r in records] == [
            FileMeta, User, Group, Service, HardwareSpec, OSInfo, ConfigFile,
        ]
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_frozen_records_keep_value_semantics(self):
        meta = FileMeta("/srv//www/", FileKind.DIRECTORY, "www", "www", 0o750)
        assert meta.path == "/srv/www"
        assert meta == FileMeta("/srv/www", kind=FileKind.DIRECTORY,
                                owner="www", group="www", mode=0o750)
        assert hash(meta) == hash(replace(meta, owner="www"))
        changed = replace(meta, mode=0o700)
        assert changed.mode == 0o700 and meta.mode == 0o750
        for record, field in ((meta, "owner"), (User("u", 1, 1), "name"),
                              (Group("g", 1), "name"), (Service("s", 1), "port"),
                              (HardwareSpec(), "available"), (OSInfo(), "version")):
            with pytest.raises(FrozenInstanceError):
                setattr(record, field, "x")

    def test_decoded_images_share_name_strings(self):
        corpus = Ec2CorpusGenerator(seed=3).generate(20)
        decoded = [image_from_dict(_fresh_dict(image)) for image in corpus]
        owners = {}
        shared = 0
        for image in decoded:
            for meta in image.fs:
                for name in (meta.owner, meta.group):
                    first = owners.setdefault(name, name)
                    assert first is name, name
                    shared += 1
            for user in map(image.accounts.user, image.accounts.user_list()):
                assert owners.setdefault(user.name, user.name) is user.name
                assert owners.setdefault(user.shell, user.shell) is user.shell
        assert shared > len(owners) * 10
        assert any(name != "root" for name in owners)

    @pytest.mark.parametrize("images", ["seed-3", "seed-11", "wild-seed-4"])
    def test_round_trip_is_exact(self, images):
        if images == "wild-seed-4":
            corpus, _ = Ec2CorpusGenerator(seed=4).generate_wild(1000)
        else:
            corpus = Ec2CorpusGenerator(seed=int(images[5:])).generate(200)
        for image in corpus:
            data = _fresh_dict(image)
            assert image_to_dict(image_from_dict(data)) == data, image.image_id


class TestMalformedFiles:
    """Each bad file entry, at a seeded position, fails as a corrupt image."""

    MUTATIONS = {
        "non-string owner": [("owner", 7), ("owner", None), ("owner", ["root"])],
        "non-string group": [("group", 0)],
        "unhashable kind": [("kind", ["file"]), ("kind", {"dir": 1})],
        "unknown kind": [("kind", "socket")],
        "relative path": [("path", "etc/passwd"), ("path", ""), ("path", 5)],
        "symlink without a target": [("kind", "symlink"), ("target", None)],
        "target on a file": [("kind", "file"), ("target", "/etc")],
        "mode out of range": [("mode", 0o10000)],
        "negative mode": [("mode", -1)],
        "non-numeric mode": [("mode", "644")],
    }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_bad_file_entry_is_corrupt(self, name, seed):
        data = _fresh_dict(Ec2CorpusGenerator(seed=3).generate_one(seed))
        entry = random.Random(seed).choice(data["files"][1:])
        for key, value in self.MUTATIONS[name]:
            entry[key] = value
        with pytest.raises(ImageCorruptError) as excinfo:
            image_from_dict(data)
        assert excinfo.value.path is None and excinfo.value.reason

    @pytest.mark.parametrize("section,key,value", [
        ("users", "name", 3),
        ("users", "shell", ["/bin/sh"]),
        ("groups", "members", [1]),
        ("services", "protocol", 6),
        ("config_files", "app", None),
    ])
    def test_non_string_names_are_corrupt(self, section, key, value):
        data = _fresh_dict(Ec2CorpusGenerator(seed=3).generate_one(0))
        data[section][0][key] = value
        with pytest.raises(ImageCorruptError):
            image_from_dict(data)
