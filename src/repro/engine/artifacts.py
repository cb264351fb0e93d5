"""Serializable inter-stage artifacts.

Every boundary in the stage graph (``docs/architecture.md``) exchanges a
value that can leave the process: system images already serialise via
:mod:`repro.sysmodel.snapshot`, rules and model snapshots via
:mod:`repro.core.persistence`.  This module fills the remaining gaps —
assembled systems and the shard result envelope — so
any stage's output can be pickled to a worker process, written to
disk, or shipped to another host and resumed there.

The shard result carries one worker-telemetry envelope: the worker
captures it (:func:`capture_telemetry`) and the coordinator folds it
(:func:`fold_telemetry`), so the knowledge of what crosses back —
metrics, quarantine, drift and, when traced, spans — lives here, next
to the wire format.

JSON round-trips are lossless except for report warning scores, which
:meth:`repro.core.report.Report.to_dict` rounds to 4 decimals (ranking
is preserved).  Inter-process shard transfer uses the compact binary
codec (:mod:`repro.engine.codec`) via :meth:`ShardResult.to_bytes` and
is exact: warning scores travel at full float64 precision (the *wire*
forms below, not the rounded JSON surface), so sharded checking is
byte-identical to serial checking.

Assembled rows have one columnar layout (:data:`ROW_LAYOUT_VERSION`),
used by ``assemble`` shard results and by result-cache entries alike.
A row is a handful of fields, not one map per attribute, so decoding
costs a few C-level calls per column instead of a codec call per
value:

* ``names`` / ``name_lengths`` — the sorted attribute names, once, as
  one string and the length of each name;
* ``order`` — for each attribute in insertion order, its index in the
  sorted names, so a revived row iterates its cells as the original;
* ``augmented`` — one 0/1 byte per name;
* ``counts`` — each name's occurrence count;
* ``types`` — the row's small table of :class:`ConfigType` names;
* ``values`` / ``value_lengths`` / ``value_types`` — each distinct
  :class:`TypedValue` once: its value, and its type's index in
  ``types`` (one byte);
* ``cells`` — each occurrence's value index, grouped by sorted name.

Lengths, ``order``, ``counts`` and ``cells`` are packed little-endian
unsigned 32-bit integers.  :func:`assembled_system_from_dict` checks
the layout (whole items in every blob, counts summing to the cells,
every index in range, every type name a :class:`ConfigType`) and
raises :class:`CodecError` on any failure.  A revived row shares one
:class:`TypedValue` per distinct value, as a fresh assembly does.

Two size optimisations shape the wire forms.  Assembled rows shipped
*back* from workers elide their backing image — the coordinator already
holds the very :class:`~repro.sysmodel.image.SystemImage` objects it
shipped out, so results carry only ``image_id`` and the coordinator
re-attaches (:func:`assembled_system_from_dict` with ``image=``).
Images shipped *out* to workers are encoded once per image and memoised
on the image object (:func:`image_payload`), so repeat shipments —
serve traffic, ``train_more``, warm re-checks — cost a dict lookup.
The worker config and the model snapshot are encoded once per change
(:func:`encode_config_payload`, :func:`encode_model_payload`); the
config's digest also salts result-cache keys, so a serial cached train
encodes it without loading the shard engine.
The image's content address (:func:`image_digest`, half of the result
cache key in :mod:`repro.engine.cache`) hashes a canonical JSON form
built by the C encoder instead, so keying an image never runs the
pure-Python codec.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from itertools import accumulate, compress, islice
from operator import lt
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.dataset import AssembledSystem
from repro.core.detector import Explanation, Warning, WarningKind
from repro.core.report import Report
from repro.core.resilience import Quarantine
from repro.core.rules import ConcreteRule
from repro.core.types import ConfigType, TypedValue
from repro.engine import codec
from repro.engine.codec import CodecError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import get_tracer
from repro.sysmodel.image import SystemImage
from repro.sysmodel.snapshot import image_from_dict, image_to_dict

#: Version of the assembled-row layout; part of every result-cache key,
#: so an entry written in another layout is never looked up.
ROW_LAYOUT_VERSION = 2


# -- config and model payloads -------------------------------------------------


def encode_config_payload(config) -> Tuple[bytes, str]:
    """``(codec bytes, digest)`` of a worker config — count every encode.

    ``codec.config.encodes.total`` is the regression guard for the
    one-encode-per-pool-lifetime contract: callers that hoist correctly
    (``EnCore.worker_payload``) bump it once per config change, not once
    per shard submission.
    """
    data = codec.encode(config.to_dict())
    get_registry().counter("codec.config.encodes.total").inc()
    return data, codec.digest(data)


def encode_model_payload(model_dict: Dict[str, Any]) -> Tuple[bytes, str]:
    """``(codec bytes, digest)`` of a model snapshot dict — counted.

    Like config payloads, the model crosses the process boundary as one
    hoisted encoding per pool lifetime; ``codec.model.encodes.total``
    guards against per-shard re-encoding creeping back in.
    """
    data = codec.encode(model_dict)
    get_registry().counter("codec.model.encodes.total").inc()
    return data, codec.digest(data)


# -- image payloads ------------------------------------------------------------


def image_payload(image: SystemImage) -> bytes:
    """Codec-encoded snapshot of *image*, memoised on the image object.

    One image shipped to N shards (or checked on every serve request)
    is encoded exactly once per process.
    """
    cached = getattr(image, "_encore_payload", None)
    if cached is None:
        cached = codec.encode(image_to_dict(image))
        image._encore_payload = cached
    return cached


def image_digest(image: SystemImage) -> str:
    """SHA-256 of the image's compact JSON snapshot — its content address.

    The JSON form comes from the C encoder, so a cache lookup never
    pays for :func:`image_payload`'s pure-Python encode.
    """
    cached = getattr(image, "_encore_digest", None)
    if cached is None:
        canonical = json.dumps(image_to_dict(image), separators=(",", ":"))
        cached = hashlib.sha256(canonical.encode()).hexdigest()
        image._encore_digest = cached
    return cached


# -- assembled systems ---------------------------------------------------------


def _pack_u32(items: Sequence[int]) -> bytes:
    return struct.pack(f"<{len(items)}I", *items)


def _unpack_u32(blob: bytes, what: str) -> Tuple[int, ...]:
    if type(blob) is not bytes or len(blob) % 4:
        raise CodecError(f"row {what} is not a whole number of 4-byte items")
    return struct.unpack(f"<{len(blob) // 4}I", blob)


def _pack_strings(strings: Sequence[str]) -> Tuple[str, bytes]:
    try:
        text = "".join(strings)
    except TypeError:
        raise CodecError("row names and values must be strings") from None
    return text, _pack_u32([len(s) for s in strings])


def _unpack_strings(text: str, lengths: bytes, what: str) -> List[str]:
    ends = list(accumulate(_unpack_u32(lengths, f"{what} lengths")))
    if type(text) is not str or (ends[-1] if ends else 0) != len(text):
        raise CodecError(f"row {what} do not match their lengths")
    return [text[start:end] for start, end in zip([0, *ends], ends)]


def assembled_system_to_dict(
    system: AssembledSystem, include_image: bool = True
) -> Dict[str, Any]:
    """Serialise one assembled row in the columnar row layout.

    The image rides along because template validation methods consult the
    environment (ownership lookups, path existence) beyond the augmented
    columns.  ``include_image=False`` elides it down to ``image_id`` for
    hops whose receiver already holds the image (worker→coordinator
    results, cache entries); such rows must be revived with
    :func:`assembled_system_from_dict`'s ``image=`` argument.
    """
    names = system.attributes()
    position = {name: index for index, name in enumerate(names)}
    value_ids: Dict[Tuple[str, ConfigType], int] = {}
    counts: List[int] = []
    cells: List[int] = []
    for name in names:
        occurrences = system.values_of(name)
        counts.append(len(occurrences))
        for typed in occurrences:
            key = (typed.value, typed.type)
            index = value_ids.get(key)
            if index is None:
                index = value_ids[key] = len(value_ids)
            cells.append(index)
    type_ids: Dict[ConfigType, int] = {}
    value_types = bytes(
        type_ids.setdefault(config_type, len(type_ids))
        for _, config_type in value_ids
    )
    names_text, name_lengths = _pack_strings(names)
    values_text, value_lengths = _pack_strings([value for value, _ in value_ids])
    out: Dict[str, Any] = {
        "environment_available": system.environment_available,
        "names": names_text,
        "name_lengths": name_lengths,
        "order": _pack_u32([position[name] for name in system.cells]),
        "augmented": bytes(system.is_augmented(name) for name in names),
        "counts": _pack_u32(counts),
        "types": [config_type.value for config_type in type_ids],
        "values": values_text,
        "value_lengths": value_lengths,
        "value_types": value_types,
        "cells": _pack_u32(cells),
    }
    if include_image:
        out["image"] = image_to_dict(system.image)
    else:
        out["image_id"] = system.image.image_id
    return out


def assembled_system_from_dict(
    data: Dict[str, Any], image: Optional[SystemImage] = None
) -> AssembledSystem:
    """Rebuild an assembled row from :func:`assembled_system_to_dict`.

    *image* re-attaches the backing image to an elided row; rows that
    carry their own image ignore it.  A row that breaks the layout
    raises :class:`CodecError`.
    """
    try:
        return _revive(data, image)
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise CodecError(
            f"malformed assembled row ({type(exc).__name__}: {exc})"
        ) from None


def _revive(data: Dict[str, Any], image: Optional[SystemImage]) -> AssembledSystem:
    if "image" in data:
        image = image_from_dict(data["image"])
    if image is None:
        raise CodecError(
            f"assembled row for {data.get('image_id')!r} carries no image "
            "and none was supplied"
        )
    environment_available = data["environment_available"]
    if type(environment_available) is not bool:
        raise CodecError("row environment_available is not a bool")
    names = _unpack_strings(data["names"], data["name_lengths"], "names")
    if not all(map(lt, names, islice(names, 1, None))):
        raise CodecError("row names are not sorted and distinct")
    n = len(names)
    order = _unpack_u32(data["order"], "order")
    counts = _unpack_u32(data["counts"], "counts")
    flags = data["augmented"]
    if len(order) != n or len(counts) != n or type(flags) is not bytes or len(flags) != n:
        raise CodecError(f"row columns do not all hold {n} names")
    if sorted(order) != list(range(n)):
        raise CodecError("row order is not a permutation of its names")
    if flags.translate(None, b"\x00\x01"):
        raise CodecError("row augmented flags are not all 0 or 1")
    if n and min(counts) < 1:
        raise CodecError("row has an attribute with no occurrences")
    cell_ids = _unpack_u32(data["cells"], "cells")
    if sum(counts) != len(cell_ids):
        raise CodecError(
            f"row counts sum to {sum(counts)} but it holds {len(cell_ids)} cells"
        )
    try:
        types = [ConfigType(name) for name in data["types"]]
    except ValueError:
        raise CodecError("row names an unknown type") from None
    values = _unpack_strings(data["values"], data["value_lengths"], "values")
    value_types = data["value_types"]
    if type(value_types) is not bytes or len(value_types) != len(values):
        raise CodecError("row value types do not match its values")
    if value_types and max(value_types) >= len(types):
        raise CodecError("row type index out of range")
    if cell_ids and max(cell_ids) >= len(values):
        raise CodecError("row value index out of range")
    typed = [TypedValue(value, types[t]) for value, t in zip(values, value_types)]
    cells = list(map(typed.__getitem__, cell_ids))
    starts = list(accumulate(counts, initial=0))
    first = list(map(cells.__getitem__, starts[:-1]))
    return AssembledSystem.revive(
        image,
        environment_available,
        values={names[i]: first[i] for i in order},
        multi={
            names[i]: cells[starts[i]:starts[i + 1]]
            for i in range(n) if counts[i] > 1
        },
        augmented=set(compress(names, flags)),
        names=names,
    )


# -- reports and shard results -------------------------------------------------


def warning_to_wire(warning: Warning) -> Dict[str, Any]:
    """Full-precision warning wire form (worker→coordinator hop).

    Unlike :func:`repro.core.report.warning_to_dict` — the user-facing
    JSON surface, which rounds scores to 4 decimals — the wire form
    carries ``score`` as exact float64, so a report that crossed a
    process boundary is indistinguishable from one produced in-process.
    """
    return {
        "kind": warning.kind.value,
        "attribute": warning.attribute,
        "message": warning.message,
        "score": warning.score,
        "value": warning.value,
        "evidence": warning.evidence,
        "rule": warning.rule.to_dict() if warning.rule else None,
        "explanation": (
            warning.explanation.to_dict() if warning.explanation else None
        ),
    }


def report_to_wire(report: Report) -> Dict[str, Any]:
    """Full-precision report wire form; inverse is :func:`report_from_dict`."""
    return {
        "image_id": report.image_id,
        "warnings": [warning_to_wire(w) for w in report.warnings],
    }


def warning_from_dict(data: Dict[str, Any]) -> Warning:
    """Inverse of the warning entries in :meth:`Report.to_dict`."""
    rule: Optional[ConcreteRule] = None
    if data.get("rule"):
        rule = ConcreteRule.from_dict(data["rule"])
    explanation: Optional[Explanation] = None
    if data.get("explanation"):
        explanation = Explanation.from_dict(data["explanation"])
    return Warning(
        kind=WarningKind(data["kind"]),
        attribute=data["attribute"],
        message=data["message"],
        score=float(data["score"]),
        value=data.get("value"),
        evidence=data.get("evidence", ""),
        rule=rule,
        explanation=explanation,
    )


def report_from_dict(data: Dict[str, Any]) -> Report:
    """Inverse of :meth:`repro.core.report.Report.to_dict`."""
    return Report(
        image_id=data["image_id"],
        warnings=[warning_from_dict(w) for w in data["warnings"]],
    )


@dataclass
class ShardResult:
    """What one worker hands back for one chunk: items + telemetry.

    ``kind`` is the task kind.  ``assemble`` items are
    :class:`~repro.core.dataset.AssembledSystem` rows, shipped
    image-elided (:meth:`from_bytes` re-attaches the coordinator's own
    images); ``check`` items are :class:`~repro.core.report.Report`
    objects in the full-precision wire form.  ``telemetry`` is the
    worker's :func:`capture_telemetry` envelope, which the coordinator
    folds with :func:`fold_telemetry`; results run in-process leave it
    empty, because their signals already landed in the coordinator.
    """

    kind: str
    items: List[Any]
    telemetry: Dict[str, Any] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        """Compact binary wire form for the worker→coordinator hop."""
        if self.kind == "check":
            items = [report_to_wire(report) for report in self.items]
        else:
            items = [
                assembled_system_to_dict(system, include_image=False)
                for system in self.items
            ]
        return codec.encode(
            {"kind": self.kind, "items": items, "telemetry": self.telemetry}
        )

    @classmethod
    def from_bytes(
        cls, data: bytes, images_by_id: Optional[Dict[str, SystemImage]] = None
    ) -> "ShardResult":
        """Decode :meth:`to_bytes`, re-attaching the coordinator's images."""
        decoded = codec.decode(data)
        kind = decoded["kind"]
        if kind == "check":
            items: List[Any] = [report_from_dict(r) for r in decoded["items"]]
        else:
            images_by_id = images_by_id or {}
            items = [
                assembled_system_from_dict(
                    row, image=images_by_id.get(row.get("image_id"))
                )
                for row in decoded["items"]
            ]
        return cls(kind=kind, items=items, telemetry=dict(decoded["telemetry"]))


# -- worker telemetry ------------------------------------------------------------


def capture_telemetry(
    quarantine: Quarantine, drift, tracer, shard: int
) -> Dict[str, Any]:
    """Worker side: one shard's telemetry envelope, ready to ship.

    Call it inside the shard's own metrics registry (the worker pushes
    a fresh one per shard).  The envelope holds that registry's
    :meth:`~repro.obs.metrics.MetricsRegistry.to_dict` snapshot, the
    quarantine records plus the total dropped (silent ``skip`` drops
    keep no record but count against the error budget), the
    *drift* monitor's observations (``None`` for assembly shards), and
    — only when the task shipped a trace context — the *tracer*'s span
    forest, whose ``{kind}.shard`` root becomes the profile's shard
    row.
    """
    telemetry: Dict[str, Any] = {
        "metrics": get_registry().to_dict(),
        "quarantine": quarantine.to_dicts(),
        "dropped": quarantine.dropped,
    }
    if drift is not None:
        telemetry["drift"] = drift.to_dict()
    if tracer is not None:
        telemetry["spans"] = tracer.snapshot(shard=shard, pid=os.getpid())
    return telemetry


def fold_telemetry(
    telemetry: Dict[str, Any], quarantine: Quarantine, drift=None
) -> None:
    """Coordinator side: fold a :func:`capture_telemetry` envelope in.

    Metrics merge into the active registry, spans into the active
    tracer (dropped when none is active), drift observations into
    *drift* and quarantine records into *quarantine*.  Every merge is
    associative, so sharded totals match a serial run exactly.
    """
    if not telemetry:
        return
    get_registry().merge(MetricsRegistry.from_dict(telemetry["metrics"]))
    tracer = get_tracer()
    if tracer is not None and "spans" in telemetry:
        tracer.merge_remote(telemetry["spans"])
    if drift is not None and "drift" in telemetry:
        drift.merge_snapshot(telemetry["drift"])
    quarantine.extend_dicts(telemetry["quarantine"], dropped=telemetry["dropped"])
