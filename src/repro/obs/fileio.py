"""Crash-safe file output for observability artifacts.

Profiles, metrics snapshots and ledger entries are written mid-run or
in ``finally`` blocks — exactly the moments a crashing process would
otherwise leave a truncated JSON file behind, or fail outright because
``--profile runs/today/profile.json`` names a directory that does not
exist yet.  :func:`atomic_write_text` closes both holes: parent directories
are created on demand, and content lands under a temporary name in the
same directory before an :func:`os.replace` makes it visible — readers
only ever see the old file or the complete new one.  The JSONL logs
that :func:`append_line` writes read back through :func:`read_jsonl`,
which skips and counts the lines it cannot decode.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple, TypeVar, Union

T = TypeVar("T")

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
    """Write *text* to *path* atomically, UTF-8 encoded."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Write *data* to *path* atomically (tmp file + ``os.replace``).

    The temporary file carries the writer's pid so concurrent writers
    (e.g. two benchmark processes archiving into the same results
    directory) never clobber each other's in-flight content; the final
    rename is atomic on POSIX, so a reader sees either the previous
    content or the new content, never a prefix.  An ``OSError`` (no
    room, a parent that is not a directory) propagates and leaves no
    temporary file behind.
    """
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


def read_jsonl(
    path: Union[str, Path], decode: Callable[[Dict[str, Any]], T]
) -> Tuple[List[T], int]:
    """The decoded records of a JSONL file, and how many lines it skipped.

    Blank lines are ignored.  A line that is not a JSON object (a
    crash-truncated tail, a stray ``[1]``) or that *decode* rejects with
    ``ValueError``, ``TypeError`` or ``AttributeError`` is skipped and
    counted, never raised.  A missing file holds no records.
    """
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return [], 0
    records: List[T] = []
    skipped = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                raise TypeError(f"not an object: {type(data).__name__}")
            records.append(decode(data))
        except (ValueError, TypeError, AttributeError):
            skipped += 1
    return records, skipped


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
