"""Full trained-model persistence.

"Since the checking and the learning are cleanly separated, the learned
rules can be reused to check different systems" (§3).  Rule files alone
are not enough for the full detector, which also consumes the training
set's per-attribute statistics (types, value counts, entropy) and the
entry-name universe.  :class:`ModelSnapshot` captures exactly that
surface — everything :class:`~repro.core.detector.AnomalyDetector` reads
from a dataset — so a model trained once can be shipped and used to
check systems anywhere, without the training corpus.

Limitations: customization (user-defined types/templates) is code and is
not serialised; a snapshot checked under a customized EnCore instance
must be re-created with the same customization applied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.dataset import AttributeStats
from repro.core.pipeline import TrainedModel
from repro.core.rules import RuleSet
from repro.core.types import ConfigType

#: v2 added the training provenance (``candidate_pairs``, ``telemetry``)
#: so restored models stop fabricating an empty inference audit trail.
#: v3 adds *model observability*: per-rule :class:`~repro.obs.model.Provenance`
#: records (inside each rule dict) and the training ``dataset_fingerprint``
#: the run ledger and drift monitor key on.  v1/v2 snapshots still load —
#: rules get ``provenance=None`` and the fingerprint defaults empty.
SNAPSHOT_VERSION = 3
SUPPORTED_VERSIONS = (1, 2, 3)


class SnapshotCorruptError(ValueError):
    """A model snapshot file exists but cannot be decoded.

    Wraps the underlying :class:`json.JSONDecodeError` / missing-field
    ``KeyError`` so callers (notably ``repro check``) can distinguish "the
    snapshot is damaged" from programming errors and fail with a clean
    message instead of a traceback.  Subclasses :class:`ValueError` so
    pre-existing broad handlers keep working.
    """

    def __init__(self, path: Union[str, Path], reason: str) -> None:
        self.path = str(path)
        self.reason = reason
        super().__init__(
            f"corrupt model snapshot {self.path}: {reason}; "
            "re-create it with 'repro train --model'"
        )


class DatasetSummary:
    """The dataset surface the anomaly detector consumes.

    Quacks like :class:`~repro.core.dataset.Dataset` for the read methods
    the detector uses (``stats``, ``entry_names``, ``is_augmented``,
    ``attributes``, ``type_of``), without carrying the assembled rows.
    """

    def __init__(
        self,
        training_size: int,
        stats: Dict[str, AttributeStats],
        entry_names: Dict[str, List[str]],
        augmented: set,
    ) -> None:
        self.training_size = training_size
        self._stats = dict(stats)
        self._entry_names = {app: list(names) for app, names in entry_names.items()}
        self._augmented = set(augmented)

    def __len__(self) -> int:
        return self.training_size

    def stats(self, attribute: str) -> Optional[AttributeStats]:
        return self._stats.get(attribute)

    def attributes(self) -> List[str]:
        return sorted(self._stats)

    def type_of(self, attribute: str) -> Optional[ConfigType]:
        stats = self._stats.get(attribute)
        return stats.type if stats is not None else None

    def entry_names(self) -> Dict[str, List[str]]:
        return {app: list(names) for app, names in self._entry_names.items()}

    def is_augmented(self, attribute: str) -> bool:
        return attribute in self._augmented or attribute.startswith("env:")


def _stats_to_dict(stats: AttributeStats) -> Dict[str, object]:
    return {
        "attribute": stats.attribute,
        "type": stats.type.value,
        "present_count": stats.present_count,
        "value_counts": [[v, n] for v, n in stats.value_counts],
        "entropy": stats.entropy,
        "type_agreement": stats.type_agreement,
    }


def _stats_from_dict(data: Dict[str, object]) -> AttributeStats:
    return AttributeStats(
        attribute=str(data["attribute"]),
        type=ConfigType(data["type"]),
        present_count=int(data["present_count"]),
        value_counts=tuple((v, int(n)) for v, n in data["value_counts"]),
        entropy=float(data["entropy"]),
        type_agreement=float(data.get("type_agreement", 1.0)),
    )


def model_to_dict(model: TrainedModel) -> Dict[str, object]:
    """Serialise the detector-facing surface of a trained model."""
    dataset = model.dataset
    return {
        "version": SNAPSHOT_VERSION,
        "training_size": len(dataset),
        "stats": [
            _stats_to_dict(dataset.stats(attr)) for attr in dataset.attributes()
        ],
        "entry_names": dataset.entry_names(),
        "augmented": sorted(
            a for a in dataset.attributes() if dataset.is_augmented(a)
        ),
        "rules": [rule.to_dict() for rule in model.rules],
        "candidate_pairs": model.inference.candidate_pairs,
        "telemetry": dict(model.telemetry),
        "dataset_fingerprint": model.corpus_fingerprint(),
    }


@dataclass
class ModelSnapshot:
    """Everything a restored model carries: detector surface + provenance."""

    summary: DatasetSummary
    rules: RuleSet
    candidate_pairs: int = 0
    telemetry: Dict[str, float] = field(default_factory=dict)
    #: :meth:`~repro.core.dataset.Dataset.fingerprint` of the training
    #: corpus the model was learned from ("" for pre-v3 snapshots) —
    #: what the run ledger records so two checking runs can prove they
    #: used the same model.
    dataset_fingerprint: str = ""


def snapshot_from_dict(data: Dict[str, object]) -> ModelSnapshot:
    """Full :class:`ModelSnapshot` from :func:`model_to_dict` output."""
    version = data.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported model snapshot version: {version}")
    stats = {
        entry["attribute"]: _stats_from_dict(entry) for entry in data["stats"]
    }
    summary = DatasetSummary(
        training_size=int(data["training_size"]),
        stats=stats,
        entry_names=data["entry_names"],
        augmented=set(data["augmented"]),
    )
    from repro.core.rules import ConcreteRule

    rules = RuleSet(ConcreteRule.from_dict(r) for r in data["rules"])
    return ModelSnapshot(
        summary=summary,
        rules=rules,
        candidate_pairs=int(data.get("candidate_pairs", 0)),
        telemetry={k: float(v) for k, v in data.get("telemetry", {}).items()},
        dataset_fingerprint=str(data.get("dataset_fingerprint", "")),
    )


def model_to_bytes(model: TrainedModel) -> bytes:
    """Compact binary snapshot (:mod:`repro.engine.codec` framing).

    The inter-process form of :func:`model_to_dict`: what batch-check
    shards ship to workers and what ``.encb`` snapshot files contain.
    """
    from repro.engine import codec

    return codec.encode(model_to_dict(model))


def save_model(model: TrainedModel, path: Union[str, Path]) -> Path:
    """Write a model snapshot atomically, creating parents.

    The format follows the suffix: ``.encb`` writes the compact binary
    codec framing, anything else the historical JSON.  Both load back
    through :func:`load_snapshot`, which sniffs the magic bytes.
    """
    from repro.obs.fileio import atomic_write_bytes, atomic_write_text

    if str(path).endswith(".encb"):
        return atomic_write_bytes(path, model_to_bytes(model))
    return atomic_write_text(path, json.dumps(model_to_dict(model)))


def load_snapshot(path: Union[str, Path]) -> ModelSnapshot:
    """Full snapshot (including training provenance) from a saved file.

    The one reader of snapshot files.  The format is sniffed from the
    content — codec magic bytes mean the compact binary framing,
    anything else the historical JSON — so callers never need to know
    how a snapshot was written.  Raises :class:`SnapshotCorruptError`
    when the file is missing, cannot be decoded or lacks required
    snapshot fields (truncated writes, manual edits); an
    unsupported-version error propagates unchanged — the file is
    intact, the reader is just too old or too new for it.
    """
    from repro.engine import codec

    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise SnapshotCorruptError(path, "snapshot file not found") from exc
    if codec.is_encoded(raw):
        try:
            data = codec.decode(raw)
        except codec.CodecError as exc:
            raise SnapshotCorruptError(path, f"invalid codec frame ({exc})") from exc
    else:
        try:
            data = json.loads(raw.decode("utf-8", errors="replace"))
        except json.JSONDecodeError as exc:
            raise SnapshotCorruptError(path, f"invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise SnapshotCorruptError(
            path, f"expected a JSON object, got {type(data).__name__}"
        )
    try:
        return snapshot_from_dict(data)
    except (KeyError, TypeError) as exc:
        raise SnapshotCorruptError(
            path, f"missing or malformed field ({type(exc).__name__}: {exc})"
        ) from exc
