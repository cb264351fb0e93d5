"""Serializable inter-stage artifacts.

Every boundary in the stage graph (``repro.engine.stages``) exchanges a
value that can leave the process: system images already serialise via
:mod:`repro.sysmodel.snapshot`, rules and model snapshots via
:mod:`repro.core.persistence`.  This module fills the remaining gaps —
assembled systems, partial datasets and the shard result envelope — so
any stage's output can be pickled to a worker process, written to
disk, or shipped to another host and resumed there.

JSON round-trips are lossless except for report warning scores, which
:meth:`repro.core.report.Report.to_dict` rounds to 4 decimals (ranking
is preserved).  Inter-process shard transfer uses the compact binary
codec (:mod:`repro.engine.codec`) via :meth:`ShardResult.to_bytes` and
is exact: warning scores travel at full float64 precision (the *wire*
forms below, not the rounded JSON surface), so sharded checking is
byte-identical to serial checking.

Two size optimisations shape the wire forms.  Assembled rows shipped
*back* from workers elide their backing image — the coordinator already
holds the very :class:`~repro.sysmodel.image.SystemImage` objects it
shipped out, so results carry only ``image_id`` and the coordinator
re-attaches (:func:`assembled_system_from_dict` with ``image=``).
Images shipped *out* to workers are encoded once per image and memoised
on the image object (:func:`image_payload` / :func:`image_digest`), so
repeat shipments — serve traffic, ``train_more``, warm re-checks — cost
a dict lookup; the digest doubles as the content half of the result
cache key (:mod:`repro.engine.cache`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.dataset import AssembledSystem, PartialDataset
from repro.core.detector import Explanation, Warning, WarningKind
from repro.core.report import Report
from repro.core.rules import ConcreteRule
from repro.core.types import ConfigType
from repro.engine import codec
from repro.engine.codec import CodecError
from repro.sysmodel.image import SystemImage
from repro.sysmodel.snapshot import image_from_dict, image_to_dict


# -- image payloads ------------------------------------------------------------


def image_payload(image: SystemImage) -> bytes:
    """Codec-encoded snapshot of *image*, memoised on the image object.

    Payload building and cache keying both need the encoded form; one
    image shipped to N shards (or checked on every serve request) is
    encoded exactly once per process.
    """
    cached = getattr(image, "_encore_payload", None)
    if cached is None:
        cached = codec.encode(image_to_dict(image))
        image._encore_payload = cached
    return cached


def image_digest(image: SystemImage) -> str:
    """SHA-256 of :func:`image_payload` — the image's content address."""
    cached = getattr(image, "_encore_digest", None)
    if cached is None:
        cached = hashlib.sha256(image_payload(image)).hexdigest()
        image._encore_digest = cached
    return cached


# -- assembled systems ---------------------------------------------------------


def assembled_system_to_dict(
    system: AssembledSystem, include_image: bool = True
) -> Dict[str, Any]:
    """Serialise one assembled row, including its backing image.

    The image rides along because template validation methods consult the
    environment (ownership lookups, path existence) beyond the augmented
    columns.  ``include_image=False`` elides it down to ``image_id`` for
    hops whose receiver already holds the image (worker→coordinator
    results, cache entries); such rows must be revived with
    :func:`assembled_system_from_dict`'s ``image=`` argument.
    """
    attributes = []
    for attribute in system.attributes():
        attributes.append({
            "name": attribute,
            "augmented": system.is_augmented(attribute),
            "occurrences": [
                {"value": tv.value, "type": tv.type.value}
                for tv in system.values_of(attribute)
            ],
        })
    out: Dict[str, Any] = {
        "environment_available": system.environment_available,
        "attributes": attributes,
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
    carry their own image ignore it.
    """
    if "image" in data:
        image = image_from_dict(data["image"])
    if image is None:
        raise CodecError(
            f"assembled row for {data.get('image_id')!r} carries no image "
            "and none was supplied"
        )
    system = AssembledSystem(
        image,
        environment_available=data["environment_available"],
    )
    for entry in data["attributes"]:
        for occurrence in entry["occurrences"]:
            system.set(
                entry["name"], occurrence["value"],
                ConfigType(occurrence["type"]), augmented=entry["augmented"],
            )
    return system


# -- partial datasets ----------------------------------------------------------


def partial_to_dict(partial: PartialDataset) -> Dict[str, Any]:
    """Serialise a partial dataset as its system rows.

    The per-attribute counters are a pure function of the rows, so the
    wire format carries only the rows and the loader re-accumulates —
    there is no way for serialised statistics to drift from the data.
    """
    return {"systems": [assembled_system_to_dict(s) for s in partial.systems]}


def partial_from_dict(data: Dict[str, Any]) -> PartialDataset:
    """Rebuild a partial from :func:`partial_to_dict`."""
    return PartialDataset.from_systems(
        assembled_system_from_dict(s) for s in data["systems"]
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
    objects in the full-precision wire form.  ``metrics`` is a
    :meth:`repro.obs.metrics.MetricsRegistry.to_dict` snapshot of the
    worker's process-local registry; the coordinator folds it into its
    own registry so sharded runs report the same totals as serial ones.
    """

    kind: str
    items: List[Any]
    metrics: Dict[str, Any] = field(default_factory=dict)
    shard_index: int = 0
    #: Serialised :class:`~repro.core.resilience.QuarantineRecord` dicts
    #: for images this shard dropped under a non-strict error policy.
    quarantine: List[Dict[str, Any]] = field(default_factory=list)
    #: Total images dropped, including silent ``skip``-policy drops that
    #: keep no record — what the coordinator's error budget counts.
    dropped: int = 0
    #: :meth:`repro.obs.profile.StageProfiler.to_dict` snapshot of the
    #: worker's resource profile; empty unless the coordinator is
    #: profiling (the payload carries the flag).
    profile: Dict[str, Any] = field(default_factory=dict)
    #: :meth:`repro.obs.tracing.Tracer.snapshot` of the worker's span
    #: forest; empty unless the payload shipped a trace context.
    spans: Dict[str, Any] = field(default_factory=dict)
    #: :meth:`repro.obs.model.DriftMonitor.to_dict` snapshot of a check
    #: worker's observations; the coordinator folds it so the drift
    #: summary is identical for any worker count.
    drift: Dict[str, Any] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        """Compact binary wire form for the worker→coordinator hop.

        Empty ``spans`` and ``drift`` are elided, so wire bytes are
        unchanged when tracing is off.
        """
        if self.kind == "check":
            items = [report_to_wire(report) for report in self.items]
        else:
            items = [
                assembled_system_to_dict(system, include_image=False)
                for system in self.items
            ]
        out = {
            "kind": self.kind,
            "items": items,
            "metrics": self.metrics,
            "shard_index": self.shard_index,
            "quarantine": list(self.quarantine),
            "dropped": self.dropped,
            "profile": dict(self.profile),
        }
        if self.spans:
            out["spans"] = dict(self.spans)
        if self.drift:
            out["drift"] = dict(self.drift)
        return codec.encode(out)

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
        return cls(
            kind=kind,
            items=items,
            metrics=dict(decoded.get("metrics", {})),
            shard_index=int(decoded.get("shard_index", 0)),
            quarantine=[dict(r) for r in decoded.get("quarantine", ())],
            dropped=int(decoded.get("dropped", 0)),
            profile=dict(decoded.get("profile", {})),
            spans=dict(decoded.get("spans", {})),
            drift=dict(decoded.get("drift", {})),
        )
