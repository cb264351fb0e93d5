"""The :class:`EnCore` facade: train on a corpus, check target systems.

Ties the Figure 2 pipeline together.  A trained model bundles the
assembled dataset statistics, the inferred rule set, and the type
information; it serialises to JSON so checking can happen long after (and
far away from) learning — "since the checking and the learning are
cleanly separated, the learned rules can be reused to check different
systems" (§3).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.assembler import DataAssembler
from repro.core.augment import Augmenter
from repro.core.customization import Customization, parse_customization
from repro.core.dataset import AssembledSystem, Dataset
from repro.core.detector import AnomalyDetector
from repro.core.inference import InferenceResult, RuleInferencer
from repro.core.repair import RepairAdvisor, Suggestion
from repro.core.report import Report
from repro.core.resilience import DROP_COUNTERS, ErrorPolicy, record_from_exception
from repro.core.rules import RuleSet
from repro.core.templates import RuleTemplate, default_templates
from repro.core.types import TypeRegistry, default_type_registry
from repro.mining.entropy import DEFAULT_ENTROPY_THRESHOLD
from repro.obs.tracing import span
from repro.parsers.registry import ParserRegistry, default_registry
from repro.sysmodel.image import SystemImage


@dataclass
class EnCoreConfig:
    """Tunable knobs, defaulting to the paper's evaluation settings (§7.3).

    ``customization_text`` is the optional Figure 6 file content; when
    given, its types, augmented attributes and templates are merged in
    before training.

    ``error_policy`` / ``max_error_rate`` govern fault tolerance on the
    corpus paths (see :mod:`repro.core.resilience` and
    ``docs/robustness.md``): the default ``quarantine`` policy drops
    unassemblable images with an auditable record and aborts only when
    more than ``max_error_rate`` of the corpus is bad; ``strict``
    restores historical fail-fast behaviour.
    """

    min_support_fraction: float = 0.10
    min_confidence: float = 0.90
    entropy_threshold: float = DEFAULT_ENTROPY_THRESHOLD
    use_entropy_filter: bool = True
    restrict_types: bool = True
    augment_environment: bool = True
    customization_text: Optional[str] = None
    error_policy: str = "quarantine"
    max_error_rate: float = 0.10

    def __post_init__(self) -> None:
        if not 0 <= self.min_support_fraction <= 1:
            raise ValueError("min_support_fraction must be in [0,1]")
        if not 0 <= self.min_confidence <= 1:
            raise ValueError("min_confidence must be in [0,1]")
        if self.entropy_threshold < 0:
            raise ValueError(
                "entropy_threshold must be non-negative "
                f"(got {self.entropy_threshold}); the paper's default is "
                f"{DEFAULT_ENTROPY_THRESHOLD}"
            )
        self.error_policy = ErrorPolicy.parse(self.error_policy).value
        if not 0 <= self.max_error_rate <= 1:
            raise ValueError("max_error_rate must be in [0,1]")

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form; the payload worker processes rebuild from."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EnCoreConfig":
        return cls(**data)


@dataclass
class TrainedModel:
    """Everything learned from a training set."""

    dataset: Dataset
    rules: RuleSet
    inference: InferenceResult
    templates: Sequence[RuleTemplate]
    #: Per-stage wall times (seconds) observed while this model was
    #: trained; snapshot-restored models carry the training run's values.
    telemetry: Dict[str, float] = field(default_factory=dict)
    #: Training-corpus fingerprint carried by snapshot-restored models
    #: (the full :class:`Dataset` computes its own on demand).
    dataset_fingerprint: str = ""

    @property
    def rule_count(self) -> int:
        return len(self.rules)

    def corpus_fingerprint(self) -> str:
        """The training corpus' content hash (ledger / snapshot key).

        Computed live when the model still holds the full dataset;
        snapshot-restored models return the fingerprint the snapshot
        recorded ("" for pre-v3 snapshots).
        """
        fingerprint = getattr(self.dataset, "fingerprint", None)
        if callable(fingerprint):
            return fingerprint()
        return self.dataset_fingerprint

    def ruleset_digest(self) -> str:
        """SHA-256 of the serialised rule set (provenance included)."""
        return hashlib.sha256(self.rules.to_json().encode()).hexdigest()

    def summary(self) -> dict:
        """Compact training summary (used by benches and examples)."""
        out = {
            "training_systems": len(self.dataset),
            "attributes": len(self.dataset.attributes()),
            "rules": len(self.rules),
            "candidate_pairs": self.inference.candidate_pairs,
        }
        if self.telemetry:
            out["telemetry"] = dict(self.telemetry)
        return out


class EnCore:
    """The misconfiguration detection tool (paper Figure 2).

    Typical usage::

        encore = EnCore()
        model = encore.train(training_images)
        report = encore.check(target_image)
        print(report.render())
    """

    def __init__(self, config: Optional[EnCoreConfig] = None) -> None:
        self.config = config if config is not None else EnCoreConfig()
        #: Optional content-addressed result cache shared with the
        #: assembler and parallel stages (see :meth:`set_cache`).
        self._cache = None
        #: Hoisted codec payloads: the worker config and model snapshot
        #: are each encoded once per pool lifetime, not once per shard
        #: submission (``codec.{config,model}.encodes.total`` count the
        #: actual encodes).
        self._worker_payload_cache = None
        self._model_payload_cache = None
        self._parsers: ParserRegistry = default_registry()
        self._type_registry: TypeRegistry = default_type_registry()
        self._augmenter = Augmenter()
        self._templates: List[RuleTemplate] = list(default_templates())
        self._customization: Optional[Customization] = None
        #: Applied customization file texts, in order — what a worker
        #: process needs to rebuild this instance's parsers/types/templates.
        self._customization_texts: List[str] = []
        #: True once register_template() has added code the worker-rebuild
        #: path cannot reproduce; parallel stages then refuse to fork.
        self._programmatic_templates = False
        if self.config.customization_text:
            self.customize(self.config.customization_text)
        self._rebuild_assembler()
        self.model: Optional[TrainedModel] = None
        self._detector: Optional[AnomalyDetector] = None
        #: Shard-recovery knobs (see ``repro.core.resilience`` and
        #: ``repro.engine.sharding``): ``retry_policy`` overrides the
        #: default exponential backoff, ``shard_timeout`` bounds one
        #: shard's wall time (None = no bound), ``fault_plan`` is the
        #: test-only injection hook threaded through shard payloads.
        self.retry_policy = None
        self.shard_timeout: Optional[float] = None
        self.fault_plan = None
        #: Corpus drift monitor, rebuilt whenever a model is trained or
        #: restored; every checked target is observed against the
        #: training baselines (see ``repro.obs.model``).
        self.drift = None

    def _rebuild_assembler(self) -> None:
        self.assembler = DataAssembler(
            parsers=self._parsers,
            type_registry=self._type_registry,
            augmenter=self._augmenter,
            augment_environment=self.config.augment_environment,
            error_policy=self.config.error_policy,
            max_error_rate=self.config.max_error_rate,
        )
        self._wire_cache()

    # -- result cache ------------------------------------------------------------

    @property
    def cache(self):
        """The attached :class:`~repro.engine.cache.ResultCache` (or None)."""
        return self._cache

    def set_cache(self, cache) -> None:
        """Attach (or detach, with ``None``) a content-addressed result cache.

        Cache keys fold in the worker-config digest, so two instances
        with different configs (or customizations) never share entries;
        the cache root is deliberately *not* part of
        :class:`EnCoreConfig` — enabling it must not change config
        fingerprints or, therefore, learned results.
        """
        self._cache = cache
        self._wire_cache()

    def _wire_cache(self) -> None:
        assembler = getattr(self, "assembler", None)
        if assembler is None:
            return
        assembler.cache = self._cache
        assembler.cache_salt = (
            self.worker_payload()[1] if self._cache is not None else ""
        )
        assembler.cache_store_only = False

    @property
    def quarantine(self):
        """Quarantine records of the most recent corpus-scale operation.

        ``train``/``train_more`` reset the collection at the start of
        each run; ``check_stream`` accumulates target-side records into
        the same collection (distinguished by the ``check`` stage).
        """
        return self.assembler.quarantine

    # -- customization -------------------------------------------------------------

    def customize(self, customization_text: str) -> Customization:
        """Apply a Figure 6 customization file (before training)."""
        custom = parse_customization(customization_text)
        custom.apply_to_type_registry(self._type_registry)
        custom.apply_to_augmenter(self._augmenter)
        self._templates.extend(custom.build_templates())
        self._customization = custom
        self._customization_texts.append(customization_text)
        self._rebuild_assembler()
        return custom

    def register_template(self, template: RuleTemplate) -> None:
        """Add a programmatic custom template (the non-file route).

        Templates added this way are code, not data: they cannot be
        shipped to worker processes, so parallel (``workers > 1``) stages
        refuse to run afterwards.  Use a customization file for setups
        that must scale out.
        """
        self._templates.append(template)
        self._programmatic_templates = True

    @property
    def templates(self) -> List[RuleTemplate]:
        return list(self._templates)

    # -- worker/parallelism support ---------------------------------------------

    def worker_config(self) -> EnCoreConfig:
        """The config a worker process rebuilds this instance from.

        Folds every customization text applied so far (constructor or
        :meth:`customize`) back into ``customization_text`` so the worker's
        parsers, types and templates match the coordinator's.
        """
        text = "\n".join(self._customization_texts) or None
        return replace(self.config, customization_text=text)

    def worker_payload(self):
        """Hoisted ``(codec bytes, digest)`` of :meth:`worker_config`.

        Encoded once and reused across every shard submission, run and
        serve request for as long as the configuration is unchanged; a
        config mutation or new :meth:`customize` call is detected by
        value and re-encodes.  ``codec.config.encodes.total`` counts the
        actual encodes — the regression guard for this hoist.
        """
        from dataclasses import fields as dataclass_fields

        key = tuple(
            getattr(self.config, f.name) for f in dataclass_fields(self.config)
        ) + (tuple(self._customization_texts),)
        cached = self._worker_payload_cache
        if cached is None or cached[0] != key:
            from repro.engine.artifacts import encode_config_payload

            data, digest = encode_config_payload(self.worker_config())
            cached = self._worker_payload_cache = (key, data, digest)
        return cached[1], cached[2]

    def model_payload(self):
        """Hoisted ``(codec bytes, digest)`` of the trained model snapshot.

        Invalidated whenever the model changes (:meth:`train_on_dataset`,
        :meth:`load_model`, :meth:`load_rules`); between changes, every
        batch-check shard ships the same bytes object.
        """
        if self.model is None:
            raise RuntimeError("model_payload() requires a trained model")
        if self._model_payload_cache is None:
            from repro.core.persistence import model_to_dict
            from repro.engine.artifacts import encode_model_payload

            self._model_payload_cache = encode_model_payload(
                model_to_dict(self.model)
            )
        return self._model_payload_cache

    def _require_forkable(self, workers: int) -> None:
        if workers > 1 and self._programmatic_templates:
            raise ValueError(
                "programmatically registered templates cannot cross process "
                "boundaries; use a customization file (customization_text) "
                "or workers=1"
            )

    def _arm_faults(self) -> None:
        """Arm the fault plan on this process's assembler (serial runs)."""
        if self.fault_plan is not None and self.assembler.fault_hook is None:
            self.assembler.fault_hook = self.fault_plan.hook

    def _assemble(
        self, images: Iterable[SystemImage], workers: int, chunk_size: Optional[int]
    ) -> Dataset:
        """Assemble a corpus; a serial run, or a corpus of one image, never
        imports the shard engine."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        images = list(images)
        if workers == 1 or len(images) <= 1:
            self._arm_faults()
            return self.assembler.assemble_corpus(images)
        from repro.engine.sharding import ShardedAssembler

        return ShardedAssembler(self, workers, chunk_size).assemble(images)

    # -- training --------------------------------------------------------------------

    def train(
        self,
        images: Iterable[SystemImage],
        workers: int = 1,
        chunk_size: Optional[int] = None,
    ) -> TrainedModel:
        """Assemble the corpus and infer rules (Figure 5 workflow).

        ``workers > 1`` shards corpus assembly across a process pool
        (``repro.engine.sharding``); the learned rules are identical to a
        serial run regardless of worker count or chunk size.
        """
        self._require_forkable(workers)
        self.quarantine.clear()
        from repro.obs.profile import process_cpu_seconds

        cpu_start = process_cpu_seconds()
        with span("train") as train_span:
            with span("train.assemble") as assemble_span:
                dataset = self._assemble(images, workers, chunk_size)
            model = self.train_on_dataset(dataset)
            train_span.annotate(systems=len(dataset), rules=len(model.rules))
        model.telemetry["assemble_seconds"] = assemble_span.duration
        model.telemetry["train_seconds"] = train_span.duration
        # Coordinator-process CPU only; worker CPU lives in the profile
        # document's shard rows (see repro.obs.profile).
        model.telemetry["train_cpu_seconds"] = process_cpu_seconds() - cpu_start
        if workers > 1:
            model.telemetry["assemble_workers"] = float(workers)
        return model

    def train_more(
        self,
        images: Iterable[SystemImage],
        workers: int = 1,
        chunk_size: Optional[int] = None,
    ) -> TrainedModel:
        """Incrementally extend the trained model with new images.

        Only the new shard is assembled; its statistics merge into the
        existing dataset through the associative
        :meth:`~repro.core.dataset.Dataset.merge` and inference re-runs
        over the combined statistics.  The result is identical to
        retraining from scratch on the concatenated corpus, without ever
        re-assembling the old one.
        """
        if self.model is None:
            raise RuntimeError(
                "train_more() requires a trained model; call train() first"
            )
        base = self.model.dataset
        if not isinstance(base, Dataset):
            raise RuntimeError(
                "train_more() needs the full training dataset; "
                "snapshot-restored models (load_model) carry only summary "
                "statistics"
            )
        self._require_forkable(workers)
        self.quarantine.clear()
        with span("train.more") as more_span:
            with span("train.assemble") as assemble_span:
                fresh = self._assemble(images, workers, chunk_size)
            merged = base.merge(fresh)
            model = self.train_on_dataset(merged)
            more_span.annotate(added=len(fresh), systems=len(merged))
        model.telemetry["assemble_seconds"] = assemble_span.duration
        model.telemetry["train_more_seconds"] = more_span.duration
        return model

    def build_inferencer(self) -> RuleInferencer:
        """The rule inferencer this configuration trains with."""
        return RuleInferencer(
            templates=self._templates,
            min_support_fraction=self.config.min_support_fraction,
            min_confidence=self.config.min_confidence,
            entropy_threshold=self.config.entropy_threshold,
            use_entropy=self.config.use_entropy_filter,
            restrict_types=self.config.restrict_types,
        )

    def train_on_dataset(self, dataset: Dataset) -> TrainedModel:
        """Infer rules over an already-assembled dataset."""
        if len(dataset) == 0:
            raise ValueError("training set is empty")
        inferencer = self.build_inferencer()
        with span("train.infer") as infer_span:
            result = inferencer.infer(dataset)
        self.model = TrainedModel(
            dataset=dataset,
            rules=result.rules,
            inference=result,
            templates=self._templates,
            telemetry={"infer_seconds": infer_span.duration},
        )
        self._model_payload_cache = None
        self._detector = AnomalyDetector(
            dataset, result.rules,
            inferencer=self.assembler.inferencer,
            templates=self._templates,
        )
        self._rebuild_drift_monitor()
        return self.model

    def _rebuild_drift_monitor(self) -> None:
        from repro.obs.model import DriftMonitor

        assert self.model is not None
        self.drift = DriftMonitor.from_model(self.model.dataset)

    # -- checking ---------------------------------------------------------------------

    def check(self, image: SystemImage) -> Report:
        """Run the anomaly detector against one target system.

        Concurrent calls on one model are supported (``repro serve``
        shares one instance across request threads): assembly and
        detection write nothing to the model, and the one shared write,
        the drift monitor's :meth:`~repro.obs.model.DriftMonitor.observe`,
        takes the monitor's lock.
        """
        return self._check(image)[0]

    def suggest(self, image: SystemImage) -> Tuple[Report, List[Suggestion]]:
        """Check one target and propose a remediation for each warning.

        The target is assembled once: the repair advisor reads the same
        row the detector checked.
        """
        report, target = self._check(image)
        assert self.model is not None
        return report, RepairAdvisor(self.model.dataset).suggest(report, target)

    def _check(self, image: SystemImage) -> Tuple[Report, AssembledSystem]:
        """:meth:`check`, also returning the assembled target row."""
        if self.model is None or self._detector is None:
            raise RuntimeError("EnCore.check() requires a trained model; call train() first")
        with span("check", image=image.image_id) as s:
            with span("check.assemble"):
                target = self.assembler.assemble(image)
            if self.drift is not None:
                self.drift.observe(target)
            warnings = self._detector.detect(target)
            s.annotate(warnings=len(warnings))
        return Report(image.image_id, warnings), target

    def check_stream(
        self,
        images: Iterable[SystemImage],
        workers: int = 1,
        chunk_size: Optional[int] = None,
    ) -> Iterator[Report]:
        """Check a fleet of targets, yielding reports in input order.

        ``workers > 1`` fans target chunks out to a process pool
        (``repro.engine.sharding``, the executor ``train`` uses, with the
        same retry/bisect recovery); each worker rebuilds the detector
        from the model snapshot, and reports stream back to the caller
        as shards complete.
        """
        if self.model is None or self._detector is None:
            raise RuntimeError(
                "check_stream() requires a trained model; call train() first"
            )
        if workers <= 1:
            self._arm_faults()
            yield from self.check_rows(images)
            return
        self._require_forkable(workers)
        from repro.engine.sharding import BatchChecker

        yield from BatchChecker(self, workers, chunk_size).stream(images)

    def check_rows(
        self, images: Iterable[SystemImage], shard_index: int = -1
    ) -> Iterator[Report]:
        """The reports of *images* under the error policy, in input order;
        a dropped target yields nothing.

        The one guarded row loop of checking, twin of
        :meth:`DataAssembler.assemble_rows`: serial :meth:`check_stream`,
        each check shard worker and the shard executor's inline fallback
        all run it, so fleet checking behaves identically at any worker
        count.  The single-target :meth:`check` stays fail-fast
        regardless of policy: with exactly one target there is nothing
        to salvage.
        """
        assembler = self.assembler
        for image in images:
            try:
                if assembler.fault_hook is not None:
                    assembler.fault_hook(image)
                report = self.check(image)
            except Exception as exc:
                if assembler.error_policy is ErrorPolicy.STRICT:
                    raise
                record = record_from_exception(
                    image.image_id, exc, stage="check", shard_index=shard_index
                )
                self.quarantine.drop(
                    record, assembler.error_policy, DROP_COUNTERS["check"]
                )
                continue
            yield report

    def check_many(
        self,
        images: Iterable[SystemImage],
        workers: int = 1,
        chunk_size: Optional[int] = None,
    ) -> List[Report]:
        return list(self.check_stream(images, workers=workers, chunk_size=chunk_size))

    # -- persistence --------------------------------------------------------------------

    def save_model(self, path: Union[str, Path]) -> Path:
        """Persist the full detector-facing model (stats + rules).

        Unlike :meth:`save_rules`, the resulting snapshot is enough to
        check systems with :meth:`load_model` — no training corpus needed
        on the checking side.
        """
        if self.model is None:
            raise RuntimeError("no trained model to save")
        from repro.core.persistence import save_model

        return save_model(self.model, path)

    def load_model(self, path: Union[str, Path]) -> None:
        """Restore a model snapshot saved with :meth:`save_model`.

        After this call :meth:`check` works without :meth:`train`.  The
        instance's current parser/type/template configuration applies to
        target assembly, so customized deployments must re-apply the same
        customization before loading.
        """
        from repro.core.persistence import load_snapshot

        self._install_snapshot(load_snapshot(path))

    def load_model_data(self, data: Dict[str, object]) -> None:
        """Restore a model from an in-memory snapshot dict.

        The worker-process path of parallel batch checking: the
        coordinator ships :func:`repro.core.persistence.model_to_dict`
        output instead of a file.
        """
        from repro.core.persistence import snapshot_from_dict

        self._install_snapshot(snapshot_from_dict(data))

    def _install_snapshot(self, snapshot) -> None:
        self._model_payload_cache = None
        self.model = TrainedModel(
            dataset=snapshot.summary,  # duck-typed: the detector-facing surface
            rules=snapshot.rules,
            inference=InferenceResult(
                rules=snapshot.rules, pre_entropy_rules=snapshot.rules,
                decisions={}, candidate_pairs=snapshot.candidate_pairs,
            ),
            templates=self._templates,
            telemetry=dict(snapshot.telemetry),
            dataset_fingerprint=snapshot.dataset_fingerprint,
        )
        self._detector = AnomalyDetector(
            snapshot.summary, snapshot.rules,
            inferencer=self.assembler.inferencer,
            templates=self._templates,
        )
        self._rebuild_drift_monitor()

    def save_rules(self, path: Union[str, Path]) -> Path:
        """Persist the learned rules for reuse on other systems."""
        if self.model is None:
            raise RuntimeError("no trained model to save")
        return self.model.rules.save(path)

    def load_rules(self, path: Union[str, Path]) -> RuleSet:
        """Load a previously-saved rule set into the current model.

        Requires a trained model (for the attribute statistics the
        detector consumes); only the rules are replaced.
        """
        if self.model is None:
            raise RuntimeError(
                "load_rules() requires a trained model for the attribute "
                "statistics the detector consumes; call train() first, or "
                "use load_model() with a full snapshot"
            )
        rules = RuleSet.load(path)
        self._model_payload_cache = None
        self.model = TrainedModel(
            dataset=self.model.dataset,
            rules=rules,
            inference=self.model.inference,
            templates=self._templates,
            telemetry=dict(self.model.telemetry),
            dataset_fingerprint=self.model.dataset_fingerprint,
        )
        self._detector = AnomalyDetector(
            self.model.dataset, rules,
            inferencer=self.assembler.inferencer,
            templates=self._templates,
        )
        return rules
