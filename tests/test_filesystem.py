"""Unit tests for the simulated filesystem."""

import posixpath

import pytest
from hypothesis import given, strategies as st

from repro.corpus.generator import Ec2CorpusGenerator
from repro.sysmodel.filesystem import FileKind, FileMeta, FileSystem, normalize_path
from repro.sysmodel.snapshot import image_from_dict, image_to_dict


class TestNormalizePath:
    def test_rejects_relative(self):
        with pytest.raises(ValueError):
            normalize_path("etc/passwd")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalize_path("")

    def test_collapses_dots_and_slashes(self):
        assert normalize_path("/var//log/../log/./app") == "/var/log/app"

    def test_root(self):
        assert normalize_path("/") == "/"

    def test_trailing_slash_dropped(self):
        assert normalize_path("/var/log/") == "/var/log"

    def test_double_leading_slash_is_the_root(self):
        # posixpath.normpath keeps exactly two leading slashes.
        assert normalize_path("//etc/x.conf") == "/etc/x.conf"
        assert normalize_path("//") == "/"
        assert normalize_path("///etc") == "/etc"

    def test_double_slash_path_lands_in_the_one_tree(self):
        fs = FileSystem()
        fs.add_file("//etc/x.conf")
        assert fs.exists("/etc/x.conf")
        assert not [path for path in fs.file_list() if path.startswith("//")]

    def test_double_slash_path_in_a_snapshot_decodes_into_the_one_tree(self):
        image = Ec2CorpusGenerator(seed=3).generate_one(1)
        data = image_to_dict(image)
        data["files"].append(
            {"path": "//etc/x.conf", "kind": "file", "owner": "root",
             "group": "root", "mode": 0o644, "size": 0}
        )
        fs = image_from_dict(data).fs
        assert fs.is_file("/etc/x.conf")
        assert not [path for path in fs.file_list() if path.startswith("//")]


class TestFileMeta:
    def test_symlink_requires_target(self):
        with pytest.raises(ValueError):
            FileMeta("/a", kind=FileKind.SYMLINK)

    def test_regular_file_rejects_target(self):
        with pytest.raises(ValueError):
            FileMeta("/a", kind=FileKind.FILE, target="/b")

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            FileMeta("/a", mode=0o10000)

    def test_octal_mode(self):
        assert FileMeta("/a", mode=0o644).octal_mode == "644"
        assert FileMeta("/a", mode=0o7).octal_mode == "007"

    def test_world_readable(self):
        assert FileMeta("/a", mode=0o644).world_readable()
        assert not FileMeta("/a", mode=0o640).world_readable()

    def test_readable_by_owner(self):
        meta = FileMeta("/a", owner="mysql", mode=0o600)
        assert meta.readable_by("mysql")
        assert not meta.readable_by("apache")

    def test_readable_by_group(self):
        meta = FileMeta("/a", owner="mysql", group="adm", mode=0o640)
        assert meta.readable_by("syslog", groups=["adm"])
        assert not meta.readable_by("syslog", groups=["users"])

    def test_root_reads_everything(self):
        assert FileMeta("/a", mode=0o000).readable_by("root")


class TestFileSystem:
    def test_root_exists(self):
        fs = FileSystem()
        assert fs.is_dir("/")

    def test_add_file_creates_parents(self):
        fs = FileSystem()
        fs.add_file("/var/log/app/app.log")
        assert fs.is_dir("/var/log/app")
        assert fs.is_file("/var/log/app/app.log")

    def test_parents_are_root_owned_dirs(self):
        fs = FileSystem()
        fs.add_file("/opt/x/y")
        parent = fs.get("/opt/x")
        assert parent is not None and parent.is_dir and parent.owner == "root"

    def test_cannot_replace_dir_with_file(self):
        fs = FileSystem()
        fs.add_dir("/data")
        with pytest.raises(ValueError):
            fs.add_file("/data")

    def test_replace_file_metadata(self):
        fs = FileSystem()
        fs.add_file("/a", mode=0o644)
        fs.add_file("/a", mode=0o600)
        assert fs.get("/a").mode == 0o600

    def test_remove_subtree(self):
        fs = FileSystem()
        fs.add_file("/data/db/f1")
        fs.add_file("/data/db/f2")
        fs.remove("/data/db")
        assert not fs.exists("/data/db")
        assert not fs.exists("/data/db/f1")
        assert fs.exists("/data")

    def test_remove_root_rejected(self):
        with pytest.raises(ValueError):
            FileSystem().remove("/")

    def test_children_immediate_only(self):
        fs = FileSystem()
        fs.add_file("/d/a")
        fs.add_file("/d/sub/b")
        names = [m.path for m in fs.children("/d")]
        assert names == ["/d/a", "/d/sub"]

    def test_children_of_file_is_empty(self):
        fs = FileSystem()
        fs.add_file("/f")
        assert fs.children("/f") == []

    def test_walk_sorted(self):
        fs = FileSystem()
        fs.add_file("/b")
        fs.add_file("/a")
        paths = [m.path for m in fs.walk("/")]
        assert paths == sorted(paths)

    def test_symlink_resolution(self):
        fs = FileSystem()
        fs.add_file("/target")
        fs.add_symlink("/link", "/target")
        resolved = fs.resolve("/link")
        assert resolved is not None and resolved.path == "/target"

    def test_relative_symlink_resolution(self):
        fs = FileSystem()
        fs.add_file("/d/target")
        fs.add_symlink("/d/link", "target")
        resolved = fs.resolve("/d/link")
        assert resolved is not None and resolved.path == "/d/target"

    def test_broken_symlink_resolves_none(self):
        fs = FileSystem()
        fs.add_symlink("/link", "/nowhere")
        assert fs.resolve("/link") is None

    def test_symlink_loop_bounded(self):
        fs = FileSystem()
        fs.add_symlink("/a", "/b")
        fs.add_symlink("/b", "/a")
        assert fs.resolve("/a") is None

    def test_has_subdirectories_and_symlinks(self):
        fs = FileSystem()
        fs.add_dir("/w")
        assert not fs.has_subdirectories("/w")
        assert not fs.has_symlinks("/w")
        fs.add_dir("/w/sub")
        fs.add_symlink("/w/l", "/w/sub")
        assert fs.has_subdirectories("/w")
        assert fs.has_symlinks("/w")

    def test_chown_chmod(self):
        fs = FileSystem()
        fs.add_file("/f")
        fs.chown("/f", owner="mysql")
        fs.chmod("/f", 0o600)
        meta = fs.get("/f")
        assert meta.owner == "mysql" and meta.mode == 0o600

    def test_chown_missing_raises(self):
        with pytest.raises(KeyError):
            FileSystem().chown("/missing", owner="x")

    def test_copy_is_independent(self):
        fs = FileSystem()
        fs.add_file("/f")
        clone = fs.copy()
        clone.chmod("/f", 0o600)
        assert fs.get("/f").mode == 0o644

    def test_contains_garbage_path(self):
        assert "not-a-path" not in FileSystem()

    def test_meta_map_and_file_list_agree(self):
        fs = FileSystem()
        fs.add_file("/x/y")
        assert sorted(fs.meta_map()) == fs.file_list()


# Property-based tests ------------------------------------------------------

_segments = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=5), min_size=1, max_size=4
)


@given(_segments)
def test_added_paths_always_exist(segments):
    fs = FileSystem()
    path = "/" + "/".join(segments)
    fs.add_file(path)
    assert fs.exists(path)
    # every ancestor exists as a directory
    parts = path.strip("/").split("/")
    for i in range(1, len(parts)):
        assert fs.is_dir("/" + "/".join(parts[:i]))


@given(_segments, st.integers(min_value=0, max_value=0o777))
def test_chmod_roundtrip(segments, mode):
    fs = FileSystem()
    path = "/" + "/".join(segments)
    fs.add_file(path)
    fs.chmod(path, mode)
    assert fs.get(path).mode == mode


@given(_segments)
def test_remove_then_absent(segments):
    fs = FileSystem()
    path = "/" + "/".join(segments)
    fs.add_file(path)
    fs.remove(path)
    assert not fs.exists(path)


# The ancestor walk stops early; it must leave what the full walk left -----


def _full_walk(fs, path):
    """Every ancestor of *path* checked, none skipped."""
    parent = posixpath.dirname(path)
    while parent and parent != "/":
        if parent not in fs._entries:
            fs._entries[parent] = FileMeta(parent, kind=FileKind.DIRECTORY, mode=0o755)
        parent = posixpath.dirname(parent)


def _orphan_adds(fs):
    """Adds that leave entries without their parents, then adds beneath."""
    fs.add(FileMeta("/srv/data/db", kind=FileKind.DIRECTORY, mode=0o700),
           make_parents=False)
    fs.add_file("/srv/data/db/tables/users.ibd", owner="mysql")
    fs.add(FileMeta("/opt/app/conf/app.ini", kind=FileKind.FILE, mode=0o644),
           make_parents=False)
    fs.add_dir("/opt/app/conf/extra/d")
    fs.add_file("/etc/early-stop.conf")
    return fs


def _filesystems():
    corpus = Ec2CorpusGenerator(seed=3).generate(200)
    targets, _ = Ec2CorpusGenerator(seed=4).generate_wild(1000)
    images = corpus + targets
    filesystems = [image.fs for image in images]
    # Loading a snapshot re-adds every entry, parents first or not.
    filesystems += [image_from_dict(image_to_dict(image)).fs for image in images]
    filesystems.append(_orphan_adds(FileSystem()))
    filesystems.append(_orphan_adds(corpus[0].fs.copy()))
    return filesystems


def test_early_stop_matches_the_full_walk(monkeypatch):
    fast = _filesystems()
    monkeypatch.setattr(FileSystem, "_ensure_parents", _full_walk)
    full = _filesystems()
    assert len(fast) == len(full)
    for a, b in zip(fast, full):
        assert vars(a) == vars(b)
        assert list(a.paths()) == list(b.paths())
    orphaned = fast[-1]
    for path in ("/srv", "/srv/data", "/opt", "/opt/app", "/opt/app/conf/extra"):
        assert orphaned.is_dir(path)
