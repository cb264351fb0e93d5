"""Simulated POSIX filesystem with per-file metadata.

EnCore never reads file *contents* from a target image (except for the
configuration files themselves, which live in :class:`repro.sysmodel.image.
SystemImage`); it reasons over filesystem *metadata*: does a path exist, is
it a file or directory, who owns it, what are its permission bits, does a
directory contain symlinks.  This module models exactly that surface.

Paths are normalised absolute POSIX paths.  Directories are materialised
explicitly; :meth:`FileSystem.add` auto-creates missing parent directories
(owned by root) so generators can simply add leaf files.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, replace
from enum import Enum
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional


class FileKind(str, Enum):
    """The kind of a filesystem object."""

    FILE = "file"
    DIRECTORY = "dir"
    SYMLINK = "symlink"


#: Snapshot kind string → :class:`FileKind`: one dict lookup per decoded
#: file instead of an enum call.
FILE_KINDS: Dict[str, FileKind] = {kind.value: kind for kind in FileKind}

_set = object.__setattr__
#: Permission bits → one shared int.  A JSON decode makes a new int object
#: per file for every mode above 256; valid modes number at most 4096.
_MODES: Dict[int, int] = {}


def normalize_path(path: str) -> str:
    """Normalise *path* to a canonical absolute POSIX path.

    Raises :class:`ValueError` for relative paths: the system model only
    stores absolute paths, mirroring what a collector sees when it walks a
    mounted image.
    """
    if not path or path[0] != "/":
        raise ValueError(f"filesystem paths must be absolute, got {path!r}")
    path = posixpath.normpath(path)
    # POSIX lets normpath keep exactly two leading slashes; the model has
    # one root, so "//etc" is "/etc".
    return path[1:] if path.startswith("//") else path


@dataclass(frozen=True, slots=True, init=False)
class FileMeta:
    """Metadata of one filesystem object.

    ``mode`` carries the permission bits only (e.g. ``0o644``); the object
    kind lives in ``kind``.  ``target`` is the symlink target for symlinks.

    A corpus holds tens of thousands of these, so the record is slotted
    and its constructor validates with one ``normpath`` and three
    comparisons; snapshot decoding passes the fields positionally.
    """

    path: str
    kind: FileKind = FileKind.FILE
    owner: str = "root"
    group: str = "root"
    mode: int = 0o644
    size: int = 0
    target: Optional[str] = None

    def __init__(
        self,
        path: str,
        kind: FileKind = FileKind.FILE,
        owner: str = "root",
        group: str = "root",
        mode: int = 0o644,
        size: int = 0,
        target: Optional[str] = None,
    ) -> None:
        path = normalize_path(path)
        if (kind is FileKind.SYMLINK) is (target is None):
            if target is None:
                raise ValueError(f"symlink {path} requires a target")
            raise ValueError(f"non-symlink {path} must not have a target")
        if not 0 <= mode <= 0o7777:
            raise ValueError(f"invalid mode {oct(mode)} for {path}")
        if type(mode) is int:
            mode = _MODES.setdefault(mode, mode)
        _set(self, "path", path)
        _set(self, "kind", kind)
        _set(self, "owner", owner)
        _set(self, "group", group)
        _set(self, "mode", mode)
        _set(self, "size", size)
        _set(self, "target", target)

    @property
    def is_dir(self) -> bool:
        return self.kind is FileKind.DIRECTORY

    @property
    def is_file(self) -> bool:
        return self.kind is FileKind.FILE

    @property
    def is_symlink(self) -> bool:
        return self.kind is FileKind.SYMLINK

    @property
    def octal_mode(self) -> str:
        """Permission bits as a 3- or 4-digit octal string, e.g. ``"644"``."""
        return format(self.mode, "o").rjust(3, "0")

    def world_readable(self) -> bool:
        return bool(self.mode & 0o004)

    def readable_by(self, user: str, groups: Optional[List[str]] = None) -> bool:
        """Crude POSIX read-permission check used by accessibility templates."""
        if user == "root":
            return True
        if user == self.owner:
            return bool(self.mode & 0o400)
        if groups and self.group in groups:
            return bool(self.mode & 0o040)
        return self.world_readable()


class FileSystem:
    """A flat path → :class:`FileMeta` map with directory semantics.

    The collector of the paper gathers "the full file system meta-data"; this
    class is the queryable form of that dump.  Mutation happens only during
    corpus generation and error injection; the EnCore pipeline treats it as
    read-only.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, FileMeta] = {}
        #: True while every entry's ancestors are present, so that
        #: :meth:`_ensure_parents` may stop at the first present ancestor.
        #: Only ``add(..., make_parents=False)`` under a missing parent
        #: clears it; from then on every add walks all of its ancestors.
        self._ancestors_present = True
        self.add(FileMeta("/", kind=FileKind.DIRECTORY, mode=0o755))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, path: str) -> bool:
        try:
            return normalize_path(path) in self._entries
        except ValueError:
            return False

    def __iter__(self) -> Iterator[FileMeta]:
        return iter(self._entries.values())

    def add(self, meta: FileMeta, make_parents: bool = True) -> FileMeta:
        """Insert *meta*, auto-creating parent directories.

        Re-adding an existing path replaces its metadata (used by the error
        injector to flip ownership/permissions).
        """
        path = meta.path
        entries = self._entries
        if make_parents:
            self._ensure_parents(path)
        elif (path[: path.rfind("/")] or "/") not in entries:
            self._ancestors_present = False
        existing = entries.get(path)
        if existing is not None and existing.is_dir and not meta.is_dir:
            raise ValueError(f"cannot replace directory {path} with {meta.kind.value}")
        entries[path] = meta
        return meta

    def _ensure_parents(self, path: str) -> None:
        entries = self._entries
        # Cut at the last "/": "" once the root, which always exists, is
        # reached.
        parent = path[: path.rfind("/")]
        while parent:
            if parent in entries:
                if self._ancestors_present:
                    return  # its own ancestors are present too
            else:
                entries[parent] = FileMeta(parent, FileKind.DIRECTORY, mode=0o755)
            parent = parent[: parent.rfind("/")]

    def add_file(self, path: str, **kwargs) -> FileMeta:
        """Convenience wrapper: add a regular file."""
        kwargs.setdefault("mode", 0o644)
        return self.add(FileMeta(path, kind=FileKind.FILE, **kwargs))

    def add_dir(self, path: str, **kwargs) -> FileMeta:
        """Convenience wrapper: add a directory."""
        kwargs.setdefault("mode", 0o755)
        return self.add(FileMeta(path, kind=FileKind.DIRECTORY, **kwargs))

    def add_symlink(self, path: str, target: str, **kwargs) -> FileMeta:
        """Convenience wrapper: add a symlink pointing at *target*."""
        kwargs.setdefault("mode", 0o777)
        return self.add(FileMeta(path, kind=FileKind.SYMLINK, target=target, **kwargs))

    def remove(self, path: str) -> None:
        """Remove a path (and, for directories, everything under it)."""
        norm = normalize_path(path)
        if norm == "/":
            raise ValueError("cannot remove the filesystem root")
        meta = self._entries.pop(norm, None)
        if meta is not None and meta.is_dir:
            prefix = norm + "/"
            for child in [p for p in self._entries if p.startswith(prefix)]:
                del self._entries[child]

    def get(self, path: str) -> Optional[FileMeta]:
        """Metadata for *path*, or ``None`` when absent."""
        meta = self._entries.get(path)
        if meta is not None:
            return meta  # keys are normalized paths, so *path* is one too
        try:
            return self._entries.get(normalize_path(path))
        except ValueError:
            return None

    def exists(self, path: str) -> bool:
        return self.get(path) is not None

    def is_dir(self, path: str) -> bool:
        meta = self.get(path)
        return meta is not None and meta.is_dir

    def is_file(self, path: str) -> bool:
        meta = self.get(path)
        return meta is not None and meta.is_file

    def resolve(self, path: str, max_hops: int = 16) -> Optional[FileMeta]:
        """Follow symlinks until a non-symlink object (or a broken link)."""
        meta = self.get(path)
        hops = 0
        while meta is not None and meta.is_symlink:
            hops += 1
            if hops > max_hops:
                return None
            assert meta.target is not None
            target = meta.target
            if not target.startswith("/"):
                target = posixpath.join(posixpath.dirname(meta.path), target)
            meta = self.get(target)
        return meta

    def children(self, path: str) -> List[FileMeta]:
        """Immediate children of directory *path* (empty when not a dir)."""
        norm = normalize_path(path)
        if not self.is_dir(norm):
            return []
        prefix = "/" if norm == "/" else norm + "/"
        out = []
        for candidate, meta in self._entries.items():
            if candidate == norm or not candidate.startswith(prefix):
                continue
            rest = candidate[len(prefix):]
            if "/" not in rest:
                out.append(meta)
        return sorted(out, key=lambda m: m.path)

    def walk(self, path: str = "/") -> Iterator[FileMeta]:
        """All objects at or below *path*, in sorted path order."""
        norm = normalize_path(path)
        prefix = "/" if norm == "/" else norm + "/"
        for candidate in sorted(self._entries):
            if candidate == norm or candidate.startswith(prefix):
                yield self._entries[candidate]

    def has_subdirectories(self, path: str) -> bool:
        return any(child.is_dir for child in self.children(path))

    def has_symlinks(self, path: str) -> bool:
        return any(child.is_symlink for child in self.children(path))

    def file_list(self) -> List[str]:
        """All paths, sorted — the paper's ``FS.FileList`` (Table 7)."""
        return sorted(self._entries)

    def paths(self) -> Iterable[str]:
        """All paths in insertion order, without sorting or copying."""
        return self._entries.keys()

    def meta_map(self) -> Dict[str, FileMeta]:
        """Path → metadata map — the paper's ``FS.FileMetaMap`` (Table 7)."""
        return dict(self._entries)

    def chown(self, path: str, owner: Optional[str] = None, group: Optional[str] = None) -> FileMeta:
        """Change ownership of *path* (injection helper)."""
        meta = self.get(path)
        if meta is None:
            raise KeyError(path)
        meta = replace(
            meta,
            owner=owner if owner is not None else meta.owner,
            group=group if group is not None else meta.group,
        )
        self._entries[meta.path] = meta
        return meta

    def chmod(self, path: str, mode: int) -> FileMeta:
        """Change permission bits of *path* (injection helper)."""
        meta = self.get(path)
        if meta is None:
            raise KeyError(path)
        meta = replace(meta, mode=mode)
        self._entries[meta.path] = meta
        return meta

    def copy(self) -> "FileSystem":
        """Deep-enough copy (FileMeta is frozen, so sharing them is safe)."""
        clone = FileSystem.__new__(FileSystem)
        clone._entries = dict(self._entries)
        clone._ancestors_present = self._ancestors_present
        return clone


class DirectoryIndex:
    """Parent → sorted children of one :class:`FileSystem`, built on the
    first listing.

    :meth:`FileSystem.children` scans every path per call.  Assembly lists
    several directories of one image, so each assembly builds one index
    and drops it on return.  The index is a snapshot of the filesystem at
    its first listing; a later mutation needs a new index.
    """

    __slots__ = ("_fs", "_children")

    def __init__(self, fs: FileSystem) -> None:
        self._fs = fs
        self._children: Optional[Dict[str, List[FileMeta]]] = None

    def children(self, path: str) -> List[FileMeta]:
        """:meth:`FileSystem.children` of *path*.  The list is the index's
        own storage: read it and never mutate it."""
        index = self._children
        if index is None:
            index = self._children = self._build()
        norm = normalize_path(path)
        if not self._fs.is_dir(norm):
            return []
        return index.get(norm, [])

    def _build(self) -> Dict[str, List[FileMeta]]:
        index: Dict[str, List[FileMeta]] = {}
        for meta in self._fs:
            path = meta.path
            if path == "/":
                continue
            index.setdefault(path[: path.rindex("/")] or "/", []).append(meta)
        by_path = attrgetter("path")
        for listing in index.values():
            listing.sort(key=by_path)
        return index
