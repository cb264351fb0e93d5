"""Content-addressed result cache for assembled systems.

Assembly (parse → type-infer → augment) is a pure function of the image
content and the pipeline configuration, so its result can be cached
under a content address and reused whenever the same (config, image)
pair comes back — a re-check of an unchanged fleet, a serve daemon
checking the same image twice, ``train_more`` over an overlapping
corpus.  A hit skips the entire per-image pipeline; a touched image
changes its digest and therefore simply misses (no invalidation
protocol; stale entries age out of the LRU).

Keys are built from the SHA-256 fingerprints the system already
computes: the worker-config payload digest (which folds in every knob
plus customization text) and the image's content digest
(:func:`repro.engine.artifacts.image_digest`), prefixed with the codec
version and the assembled-row layout version
(:data:`~repro.engine.artifacts.ROW_LAYOUT_VERSION`), so neither a
wire-format nor a layout bump can ever revive incompatible entries.

Two layers:

* **memory** — an LRU of live :class:`~repro.core.dataset.AssembledSystem`
  objects; a hit costs a dict lookup, no decoding.  Rows are append-only
  after assembly, so sharing one object across datasets is safe.
* **disk** (optional) — codec-framed files under ``root``, shared
  between coordinator and workers and across processes/runs.  A file
  holds the SHA-256 of its body and the body: ``parsed_entries`` and
  the row in the columnar layout of :mod:`repro.engine.artifacts`.
  Writes are atomic (tmp + rename).  An entry that is truncated, fails
  its checksum or breaks the row layout counts ``cache.corrupt.total``,
  is unlinked and reads as a miss — never an error.

Metrics: ``cache.hit.total`` / ``cache.miss.total`` / ``cache.evict.total``
(+ ``cache.corrupt.total``); hits re-emit the assembler's per-system
counters at the call site so cached runs report the same
``assemble.*`` totals as cold ones.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.engine import codec
from repro.engine.artifacts import (
    ROW_LAYOUT_VERSION,
    assembled_system_from_dict,
    assembled_system_to_dict,
    image_digest,
)
from repro.obs import get_logger
from repro.obs.fileio import atomic_write_bytes
from repro.obs.metrics import get_registry
from repro.sysmodel.image import SystemImage

log = get_logger("engine.cache")

#: Default directory for ``--cache`` without an argument.
DEFAULT_CACHE_DIR = ".encore/cache"

#: Memory-layer capacity (rows).  40k assembled rows of the synthetic
#: corpus are ~500MB; real deployments should size via the constructor.
DEFAULT_MEMORY_ENTRIES = 8192


def cache_key(config_digest: str, image: SystemImage) -> str:
    """The content address of one (config, image) assembly result."""
    material = (
        f"{codec.CODEC_VERSION}:{ROW_LAYOUT_VERSION}:{config_digest}:"
        f"{image_digest(image)}"
    )
    return hashlib.sha256(material.encode()).hexdigest()


def frame_entry(entry: Dict[str, Any]) -> bytes:
    """A disk entry's bytes: the codec frame of *entry* and its SHA-256."""
    body = codec.encode(entry)
    return codec.encode({"sha256": hashlib.sha256(body).digest(), "entry": body})


def unframe_entry(raw: bytes) -> Dict[str, Any]:
    """Inverse of :func:`frame_entry`; :class:`~repro.engine.codec.CodecError`
    when the bytes are not a frame or fail the checksum."""
    frame = codec.decode(raw)
    if not isinstance(frame, dict) or not isinstance(frame.get("entry"), bytes):
        raise codec.CodecError("cache entry is not a checksummed frame")
    body = frame["entry"]
    if hashlib.sha256(body).digest() != frame.get("sha256"):
        raise codec.CodecError("cache entry fails its checksum")
    return codec.decode(body)


class ResultCache:
    """Two-layer (memory LRU + optional disk) assembled-row cache.

    Thread-safe: the serve daemon's request threads share one instance
    across model generations.  *root* of ``None`` keeps the cache
    memory-only (still useful to a long-lived daemon); a path makes
    entries durable and shareable with worker processes.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        if memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        self.root = Path(root) if root is not None else None
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[str, Tuple[object, int]]" = OrderedDict()
        self._lock = threading.Lock()

    # -- lookups ---------------------------------------------------------------

    def lookup(
        self, key: str, image: SystemImage
    ) -> Optional[Tuple[object, int]]:
        """``(assembled_system, parsed_entries)`` for *key*, or ``None``.

        *image* revives disk entries (rows are stored image-elided) and
        promotes them into the memory layer.
        """
        registry = get_registry()
        with self._lock:
            hit = self._memory.get(key)
            if hit is not None:
                self._memory.move_to_end(key)
                registry.counter("cache.hit.total").inc()
                return hit
        revived = self._disk_lookup(key, image)
        if revived is not None:
            registry.counter("cache.hit.total").inc()
            with self._lock:
                self._remember(key, revived)
            return revived
        registry.counter("cache.miss.total").inc()
        return None

    def store(self, key: str, system, parsed_entries: int) -> None:
        """Remember one assembly result in both layers."""
        with self._lock:
            self._remember(key, (system, parsed_entries))
        if self.root is not None:
            self._disk_store(key, system, parsed_entries)

    def _remember(self, key: str, entry: Tuple[object, int]) -> None:
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            get_registry().counter("cache.evict.total").inc()

    # -- disk layer ------------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / key[:2] / f"{key}.encb"

    def _disk_lookup(
        self, key: str, image: SystemImage
    ) -> Optional[Tuple[object, int]]:
        if self.root is None:
            return None
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            data = unframe_entry(raw)
            system = assembled_system_from_dict(data["system"], image=image)
            parsed_entries = int(data["parsed_entries"])
        except (KeyError, TypeError, ValueError) as exc:  # CodecError too
            get_registry().counter("cache.corrupt.total").inc()
            log.warning("cache.corrupt_entry", key=key, error=type(exc).__name__)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return system, parsed_entries

    def _disk_store(self, key: str, system, parsed_entries: int) -> None:
        payload = frame_entry({
            "parsed_entries": parsed_entries,
            "system": assembled_system_to_dict(system, include_image=False),
        })
        try:
            atomic_write_bytes(self._path(key), payload)
        except OSError as exc:
            # A read-only or full cache directory degrades to memory-only.
            log.warning("cache.store_failed", key=key, error=str(exc))

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "root": str(self.root) if self.root is not None else None,
                "memory_entries": len(self._memory),
                "memory_capacity": self.memory_entries,
            }
