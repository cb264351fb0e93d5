"""Model observability: rule provenance and corpus drift monitoring.

Two questions an operator of a deployed detector asks that raw scores
cannot answer:

* **"Why does this rule exist?"** — :class:`Provenance` is the compact
  evidence record attached to every learned
  :class:`~repro.core.rules.ConcreteRule`: which training images the
  rule was mined from, its support / confidence / entropy at the filter
  stages of §5.2, the thresholds in force, and — for candidates that
  did *not* survive — the rejecting filter.  It serialises inside model
  snapshot v3 and is digested into every correlation warning, so a
  warning can always be traced back to the images that taught it.

* **"Has my checked fleet drifted from the training corpus?"** —
  :class:`DriftMonitor` accumulates the attribute/value distributions
  of checked targets and compares them against the training baselines
  carried by the model (per-attribute PSI and KL divergence, plus
  new-attribute and unseen-value counters).  Its state merges
  associatively, so sharded batch checking (``--workers N``) produces
  byte-identical drift summaries to a serial pass.

This module is dependency-free within the package (it imports only
:mod:`repro.obs.metrics`); datasets and assembled systems are consumed
duck-typed so ``repro.core`` can import it without a cycle.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import get_registry

#: Industry-standard PSI interpretation: < 0.1 stable, 0.1–0.2 moderate
#: shift, >= 0.2 significant shift (warn).
DEFAULT_PSI_THRESHOLD = 0.2

#: Minimum observations of an attribute before its PSI is trusted enough
#: to flag drift — a fleet of one always "drifts" from a 30-image
#: baseline, which is sampling noise, not signal.  New attributes and
#: unseen values are still counted below this floor.
DEFAULT_MIN_OBSERVATIONS = 5

#: Smoothing floor for zero-probability buckets in PSI/KL.
_EPSILON = 1e-4


# -- rule provenance -----------------------------------------------------------


@dataclass(frozen=True)
class Provenance:
    """The evidence behind one candidate rule, at each filter stage.

    ``contributing_images`` are the training images in which the rule
    was applicable (both attributes present and the template returned a
    verdict) — the population ``support`` counts.  ``decision`` is the
    filter pipeline's verdict: ``"kept"``, or the rejecting filter for
    dropped candidates (``"low_support"`` / ``"low_confidence"`` /
    ``"low_entropy"``).  The thresholds in force ride along so the
    record is self-contained: a provenance explains its rule without
    the training configuration at hand.
    """

    template: str = ""
    contributing_images: Tuple[str, ...] = ()
    support: int = 0
    valid_count: int = 0
    entropy_a: float = 0.0
    entropy_b: float = 0.0
    min_support: int = 0
    min_confidence: float = 0.0
    entropy_threshold: float = 0.0
    entropy_filtered: bool = True
    decision: str = "kept"

    @property
    def confidence(self) -> float:
        return self.valid_count / self.support if self.support else 0.0

    def stage_outcomes(self) -> Tuple[Tuple[str, str], ...]:
        """Per-filter-stage verdicts, in the paper's §5.2 order.

        Each entry is ``(stage, outcome)`` with outcome ``"pass"``,
        ``"fail"``, ``"exempt"`` (entropy on environment-validated
        templates) or ``"not-reached"`` (a prior stage already
        rejected).
        """
        out: List[Tuple[str, str]] = []
        failed = False

        def record(stage: str, ok: Optional[bool]) -> None:
            nonlocal failed
            if failed:
                out.append((stage, "not-reached"))
            elif ok is None:
                out.append((stage, "exempt"))
            else:
                out.append((stage, "pass" if ok else "fail"))
                failed = failed or not ok

        record("support", self.support >= self.min_support)
        record("confidence", self.confidence >= self.min_confidence)
        entropy_ok: Optional[bool]
        if not self.entropy_filtered:
            entropy_ok = None
        else:
            entropy_ok = (
                self.entropy_a > self.entropy_threshold
                and self.entropy_b > self.entropy_threshold
            )
        record("entropy", entropy_ok)
        return tuple(out)

    def digest(self) -> str:
        """Short stable content hash; what warnings embed as evidence.

        Hashed on the first call and kept: the record is frozen, and a
        check embeds it in every warning of the rule.
        """
        try:
            return self._digest
        except AttributeError:
            blob = json.dumps(self.to_dict(), sort_keys=True).encode()
            digest = hashlib.sha256(blob).hexdigest()[:12]
            object.__setattr__(self, "_digest", digest)
            return digest

    def describe(self) -> str:
        """One-paragraph human rendering (``repro explain`` output)."""
        stages = ", ".join(f"{s}:{o}" for s, o in self.stage_outcomes())
        return (
            f"learned from {len(self.contributing_images)} training image(s) "
            f"via template {self.template!r}; support={self.support} "
            f"(min {self.min_support}), confidence={self.confidence:.2f} "
            f"(min {self.min_confidence:.2f}), "
            f"entropy a/b={self.entropy_a:.3f}/{self.entropy_b:.3f} "
            f"(threshold {self.entropy_threshold:.3f}); "
            f"filter stages: {stages}; decision: {self.decision}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "template": self.template,
            "contributing_images": list(self.contributing_images),
            "support": self.support,
            "valid_count": self.valid_count,
            "entropy_a": self.entropy_a,
            "entropy_b": self.entropy_b,
            "min_support": self.min_support,
            "min_confidence": self.min_confidence,
            "entropy_threshold": self.entropy_threshold,
            "entropy_filtered": self.entropy_filtered,
            "decision": self.decision,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Provenance":
        return cls(
            template=str(data.get("template", "")),
            contributing_images=tuple(data.get("contributing_images", ())),
            support=int(data.get("support", 0)),
            valid_count=int(data.get("valid_count", 0)),
            entropy_a=float(data.get("entropy_a", 0.0)),
            entropy_b=float(data.get("entropy_b", 0.0)),
            min_support=int(data.get("min_support", 0)),
            min_confidence=float(data.get("min_confidence", 0.0)),
            entropy_threshold=float(data.get("entropy_threshold", 0.0)),
            entropy_filtered=bool(data.get("entropy_filtered", True)),
            decision=str(data.get("decision", "kept")),
        )


# -- drift monitoring ----------------------------------------------------------


def _distribution_shift(
    expected: Mapping[str, int], observed: Mapping[str, int]
) -> Tuple[float, float]:
    """(PSI, KL divergence) between two value histograms.

    Buckets are the union of observed values; zero-probability buckets
    are floored at ``_EPSILON`` so a value unseen on one side yields a
    large-but-finite contribution.  Iteration is in sorted-bucket order,
    making the float accumulation a pure function of the histograms.
    """
    expected_total = sum(expected.values())
    observed_total = sum(observed.values())
    if not expected_total or not observed_total:
        return 0.0, 0.0
    psi = 0.0
    kl = 0.0
    for value in sorted(set(expected) | set(observed)):
        e = max(expected.get(value, 0) / expected_total, _EPSILON)
        o = max(observed.get(value, 0) / observed_total, _EPSILON)
        ratio = math.log(o / e)
        psi += (o - e) * ratio
        kl += o * ratio
    return psi, kl


@dataclass(frozen=True)
class AttributeDrift:
    """Drift verdict for one attribute of the checked fleet."""

    attribute: str
    psi: float
    kl: float
    observed_count: int
    unseen_values: int
    new: bool = False  # attribute absent from the training corpus

    def to_dict(self) -> Dict[str, object]:
        return {
            "attribute": self.attribute,
            "psi": round(self.psi, 6),
            "kl": round(self.kl, 6),
            "observed_count": self.observed_count,
            "unseen_values": self.unseen_values,
            "new": self.new,
        }


@dataclass
class DriftSummary:
    """The checked-fleet vs. training-corpus comparison, ranked."""

    targets: int = 0
    attributes_observed: int = 0
    new_attributes: List[str] = field(default_factory=list)
    unseen_value_total: int = 0
    drifted: List[AttributeDrift] = field(default_factory=list)
    psi_threshold: float = DEFAULT_PSI_THRESHOLD

    @property
    def psi_max(self) -> float:
        return max((d.psi for d in self.drifted), default=0.0)

    def to_dict(self) -> Dict[str, object]:
        """Deterministic JSON surface (what the run ledger records)."""
        return {
            "targets": self.targets,
            "attributes_observed": self.attributes_observed,
            "new_attributes": sorted(self.new_attributes),
            "unseen_value_total": self.unseen_value_total,
            "psi_threshold": self.psi_threshold,
            "psi_max": round(self.psi_max, 6),
            "drifted": [d.to_dict() for d in self.drifted],
        }

    def render(self) -> str:
        if not self.targets:
            return "drift: no targets observed"
        lines = [
            f"drift: {self.targets} target(s), "
            f"{len(self.drifted)} attribute(s) above PSI "
            f"{self.psi_threshold:g}, {len(self.new_attributes)} new "
            f"attribute(s), {self.unseen_value_total} unseen value(s)"
        ]
        for entry in self.drifted[:10]:
            lines.append(
                f"  {entry.attribute}: PSI={entry.psi:.3f} KL={entry.kl:.3f} "
                f"({entry.unseen_values} unseen value(s))"
            )
        return "\n".join(lines)


class DriftMonitor:
    """Accumulates checked-target distributions against a training baseline.

    The baseline is the per-attribute value histogram the model snapshot
    already carries (``AttributeStats.value_counts``); the monitor adds
    the *observed* side, one :meth:`observe` call per checked target.
    State is three counter families, so :meth:`merge_snapshot` is
    associative and order-insensitive — worker shards each observe their
    chunk and the coordinator folds the snapshots, yielding the same
    summary as a serial pass.

    Live telemetry lands in the active metrics registry at observe time
    (``drift.targets.total``, ``drift.attributes.new``,
    ``drift.values.unseen`` counters — associative under registry
    merging); the summary-time gauges (``drift.psi.max``,
    ``drift.attributes.drifted``) are set by :meth:`summary` in whichever
    process asks for the roll-up.

    One lock guards the counters, so concurrent :meth:`observe` calls
    (request threads sharing one model) and a concurrent :meth:`summary`
    or :meth:`to_dict` (a health thread) fold and read consistent state.
    """

    def __init__(
        self,
        baseline: Mapping[str, Mapping[str, int]],
        training_size: int = 0,
        psi_threshold: float = DEFAULT_PSI_THRESHOLD,
        min_observations: int = DEFAULT_MIN_OBSERVATIONS,
    ) -> None:
        self.baseline: Dict[str, Dict[str, int]] = {
            attribute: dict(counts) for attribute, counts in baseline.items()
        }
        self.training_size = training_size
        self.psi_threshold = psi_threshold
        self.min_observations = min_observations
        self.targets = 0
        #: attribute → Counter of observed first-occurrence values.
        self.observed: Dict[str, Counter] = {}
        #: attribute → targets carrying it despite no training baseline.
        self.new_attributes: Counter = Counter()
        #: attribute → observed occurrences of values unseen in training.
        self.unseen_values: Counter = Counter()
        self._lock = threading.Lock()

    @classmethod
    def from_model(cls, dataset, psi_threshold: float = DEFAULT_PSI_THRESHOLD
                   ) -> "DriftMonitor":
        """Build from a dataset-like baseline.

        *dataset* is anything with ``attributes()``, ``stats(attribute)``
        (returning objects with ``value_counts``) and ``__len__`` — a
        full :class:`~repro.core.dataset.Dataset` or the
        :class:`~repro.core.persistence.DatasetSummary` a restored
        snapshot carries.
        """
        baseline = {}
        for attribute in dataset.attributes():
            stats = dataset.stats(attribute)
            if stats is not None:
                baseline[attribute] = dict(stats.value_counts)
        return cls(baseline, training_size=len(dataset),
                   psi_threshold=psi_threshold)

    # -- accumulation ----------------------------------------------------------

    def observe(self, system) -> None:
        """Fold one checked target (an assembled-system-like row whose
        ``cells`` map each attribute to its first typed value) in."""
        baseline = self.baseline
        observed = self.observed
        new_attributes = 0
        unseen = 0
        with self._lock:
            self.targets += 1
            for attribute, typed in system.cells.items():
                value = typed.value
                counter = observed.get(attribute)
                if counter is None:
                    counter = observed[attribute] = Counter()
                counter[value] += 1
                counts = baseline.get(attribute)
                if counts is None:
                    self.new_attributes[attribute] += 1
                    new_attributes += 1
                elif value not in counts:
                    self.unseen_values[attribute] += 1
                    unseen += 1
        registry = get_registry()
        registry.counter("drift.targets.total").inc()
        if new_attributes:
            registry.counter("drift.attributes.new").inc(new_attributes)
        if unseen:
            registry.counter("drift.values.unseen").inc(unseen)

    # -- roll-up ---------------------------------------------------------------

    def summary(self) -> DriftSummary:
        """Rank attribute drift; also sets the summary gauges."""
        with self._lock:
            drifted: List[AttributeDrift] = []
            for attribute in sorted(self.observed):
                observed = self.observed[attribute]
                counts = self.baseline.get(attribute)
                is_new = counts is None
                if is_new:
                    psi, kl = 0.0, 0.0
                else:
                    psi, kl = _distribution_shift(counts, observed)
                entry = AttributeDrift(
                    attribute=attribute,
                    psi=psi,
                    kl=kl,
                    observed_count=sum(observed.values()),
                    unseen_values=self.unseen_values.get(attribute, 0),
                    new=is_new,
                )
                flaggable = is_new or entry.observed_count >= self.min_observations
                if flaggable and (is_new or psi >= self.psi_threshold):
                    drifted.append(entry)
            drifted.sort(key=lambda d: (-d.psi, d.attribute))
            summary = DriftSummary(
                targets=self.targets,
                attributes_observed=len(self.observed),
                new_attributes=sorted(self.new_attributes),
                unseen_value_total=sum(self.unseen_values.values()),
                drifted=drifted,
                psi_threshold=self.psi_threshold,
            )
        registry = get_registry()
        registry.gauge("drift.psi.max").set(round(summary.psi_max, 6))
        registry.gauge("drift.attributes.drifted").set(len(summary.drifted))
        return summary

    # -- wire format (worker shard → coordinator) ------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Observation state only — the coordinator already holds the
        baseline, so shard snapshots stay small."""
        with self._lock:
            return {
                "targets": self.targets,
                "observed": {
                    attribute: dict(counter)
                    for attribute, counter in sorted(self.observed.items())
                },
                "new_attributes": dict(self.new_attributes),
                "unseen_values": dict(self.unseen_values),
            }

    def merge_snapshot(self, data: Mapping) -> "DriftMonitor":
        """Fold a :meth:`to_dict` snapshot from a worker shard in."""
        with self._lock:
            self.targets += int(data.get("targets", 0))
            for attribute, counts in data.get("observed", {}).items():
                self.observed.setdefault(attribute, Counter()).update(counts)
            self.new_attributes.update(data.get("new_attributes", {}))
            self.unseen_values.update(data.get("unseen_values", {}))
        return self
