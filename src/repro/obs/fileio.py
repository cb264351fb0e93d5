"""Crash-safe file output for observability artifacts.

Profiles, metrics snapshots and ledger entries are written mid-run or
in ``finally`` blocks — exactly the moments a crashing process would
otherwise leave a truncated JSON file behind, or fail outright because
``--profile runs/today/profile.json`` names a directory that does not
exist yet.  :func:`atomic_write_text` closes both holes: parent directories
are created on demand, and content lands under a temporary name in the
same directory before an :func:`os.replace` makes it visible — readers
only ever see the old file or the complete new one.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Dict, Union

#: One lock per append target, so in-process concurrent appenders (the
#: serve daemon's request threads writing ledger entries) serialise
#: fully instead of relying on the kernel's single-write atomicity.
#: Keyed by resolved path; ``_append_locks_by_name`` remembers each
#: absolute path's lock, so a path is resolved once, not once per line.
_append_locks: Dict[str, threading.Lock] = {}
_append_locks_by_name: Dict[str, threading.Lock] = {}
_append_locks_guard = threading.Lock()


def _append_lock(path: Path) -> threading.Lock:
    name = os.path.abspath(path)
    lock = _append_locks_by_name.get(name)
    if lock is None:
        with _append_locks_guard:
            lock = _append_locks.setdefault(str(path.resolve()), threading.Lock())
            _append_locks_by_name[name] = lock
    return lock


def ensure_parent(path: Union[str, Path]) -> Path:
    """Create *path*'s parent directory tree; returns *path* as a Path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write *text* to *path* atomically (tmp file + ``os.replace``).

    The temporary file carries the writer's pid so concurrent writers
    (e.g. two benchmark processes archiving into the same results
    directory) never clobber each other's in-flight content; the final
    rename is atomic on POSIX, so a reader sees either the previous
    content or the new content, never a prefix.
    """
    path = ensure_parent(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # replace failed or was interrupted
            try:
                tmp.unlink()
            except OSError:
                pass
    return path


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Binary twin of :func:`atomic_write_text` (codec-framed artifacts)."""
    path = ensure_parent(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # replace failed or was interrupted
            try:
                tmp.unlink()
            except OSError:
                pass
    return path


def append_line(path: Union[str, Path], line: str) -> Path:
    """Append one newline-terminated line to *path*, creating parents.

    Two layers of safety, for two kinds of concurrency:

    * **across processes**, a single ``write`` of one line on a file
      opened in append mode (O_APPEND) interleaves at line granularity
      rather than corrupting;
    * **across threads of one process** — the serve daemon's request
      handlers all appending ledger entries — a per-path lock serialises
      the whole open+write, so buffered writes can never flush a partial
      line between two threads' appends.

    Parent directories are created when the open finds them missing, so
    an append costs no path work beyond the open itself.
    """
    path = Path(path)
    text = line.rstrip("\n") + "\n"
    with _append_lock(path):
        try:
            handle = open(path, "a")
        except FileNotFoundError:
            ensure_parent(path)
            handle = open(path, "a")
        with handle:
            handle.write(text)
    return path
