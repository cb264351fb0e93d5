"""The explicit stage graph behind the EnCore pipeline (paper Figure 2).

The facade in :mod:`repro.core.pipeline` presents ``train()`` /
``check()``; this module names the stages those calls run through, the
artifact exchanged at every boundary, and how each stage scales out.
:class:`StageEngine` is the orchestrator: it owns worker/chunking policy
and drives the shardable stages through the shard executor in
:mod:`repro.engine.sharding`.

Stage boundaries double as serialisation points — every ``produces``
artifact has a wire format (see :mod:`repro.engine.artifacts` and the
persistence modules), so a pipeline can be cut at any boundary and
resumed in another process or on another host.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.core.dataset import Dataset, PartialDataset
from repro.core.inference import InferenceResult
from repro.core.report import Report
from repro.sysmodel.image import SystemImage


@dataclass(frozen=True)
class StageSpec:
    """One node of the stage graph."""

    name: str
    summary: str
    consumes: str
    produces: str
    #: How the stage scales: ``shardable`` (split inputs across worker
    #: processes, merge outputs associatively), ``per-image`` (independent
    #: per target, streamable), or ``global`` (needs the whole input).
    parallelism: str
    #: What the stage contributes to the observability record — where
    #: rule provenance, drift observation and ledger facts attach (see
    #: ``docs/observability.md``).
    observability: str = ""


#: The Figure 2 pipeline as explicit stages.  ``parse``/``type``/
#: ``augment`` execute fused inside ``assemble`` (one pass per image) but
#: are distinct boundaries: each has a well-defined input and output.
STAGE_GRAPH: Tuple[StageSpec, ...] = (
    StageSpec(
        "parse", "split raw config files into key-value entries",
        consumes="SystemImage snapshot", produces="ConfigEntry list",
        parallelism="shardable",
        observability="parse.* counters per app/file",
    ),
    StageSpec(
        "type", "infer a semantic type for every entry value (Table 4)",
        consumes="ConfigEntry list", produces="TypedValue list",
        parallelism="shardable",
        observability="type-agreement statistics feed AttributeStats",
    ),
    StageSpec(
        "augment", "attach environment attributes to typed entries (Table 5)",
        consumes="TypedValue list + SystemImage", produces="AssembledSystem",
        parallelism="shardable",
        observability="assemble.attributes.* growth counters",
    ),
    StageSpec(
        "assemble", "accumulate rows into mergeable corpus statistics (§4.1)",
        consumes="AssembledSystem stream", produces="PartialDataset → Dataset",
        parallelism="shardable",
        observability="dataset fingerprint (ledger key) + drift baselines",
    ),
    StageSpec(
        "infer", "template-guided rule learning with filtering (§5)",
        consumes="Dataset", produces="InferenceResult (RuleSet)",
        parallelism="global",
        observability="Provenance per candidate (kept + rejecting filter)",
    ),
    StageSpec(
        "detect", "run the four checks against each target (§6)",
        consumes="ModelSnapshot + SystemImage", produces="Report",
        parallelism="per-image",
        observability="Explanation per warning; DriftMonitor.observe per target",
    ),
)


def stage_graph() -> Tuple[StageSpec, ...]:
    """The ordered stage specs (parse → type → augment → assemble → infer → detect)."""
    return STAGE_GRAPH


def render_stage_graph() -> str:
    """Plain-text rendering of the graph (used by docs and ``repro stats``)."""
    lines: List[str] = []
    for spec in STAGE_GRAPH:
        lines.append(f"{spec.name:>8}  [{spec.parallelism}] {spec.summary}")
        lines.append(f"{'':>8}  {spec.consumes} -> {spec.produces}")
        if spec.observability:
            lines.append(f"{'':>8}  observes: {spec.observability}")
    return "\n".join(lines)


class StageEngine:
    """Stage-level orchestration over one configuration.

    Wraps the component set of an :class:`~repro.core.pipeline.EnCore`
    instance (parsers, type registry, augmenter, templates) and exposes
    the stage boundaries directly, with a worker/chunking policy applied
    to every shardable stage::

        engine = StageEngine(config, workers=4)
        dataset = engine.assemble(images)        # sharded across processes
        result = engine.infer(dataset)           # global stage
        for report in engine.detect(targets):    # streamed, parallel
            ...

    ``workers=1`` runs everything in-process; results are identical at
    any worker count.
    """

    def __init__(self, config=None, workers: int = 1,
                 chunk_size: Optional[int] = None, encore=None) -> None:
        from repro.core.pipeline import EnCore

        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.encore = encore if encore is not None else EnCore(config)
        self.config = self.encore.config
        self.workers = workers
        self.chunk_size = chunk_size

    # -- shardable stages ------------------------------------------------------

    def assemble(self, images: Iterable[SystemImage]) -> Dataset:
        """Run parse → type → augment → assemble, sharded when workers > 1."""
        return self._sharded_assembler().assemble(images)

    def assemble_partial(self, images: Iterable[SystemImage]) -> PartialDataset:
        """Like :meth:`assemble` but stop at the mergeable boundary."""
        return self._sharded_assembler().assemble_partial(images)

    # -- global stages ---------------------------------------------------------

    def infer(self, dataset: Dataset) -> InferenceResult:
        """Run the rule-inference stage over an assembled dataset."""
        return self.encore.build_inferencer().infer(dataset)

    def train(self, images: Iterable[SystemImage]):
        """assemble + infer, returning a TrainedModel."""
        return self.encore.train(
            images, workers=self.workers, chunk_size=self.chunk_size
        )

    # -- per-image stages ------------------------------------------------------

    def detect(self, images: Iterable[SystemImage]) -> Iterator[Report]:
        """Stream reports for a fleet of targets (requires a trained model)."""
        return self.encore.check_stream(
            images, workers=self.workers, chunk_size=self.chunk_size
        )

    # -- profiling -------------------------------------------------------------

    @contextmanager
    def profiled(self):
        """Profile every stage run inside the ``with`` body.

        Installs a :class:`~repro.obs.profile.StageProfiler` (restoring
        any previous one on exit) so each stage boundary — including
        worker processes of sharded stages, whose snapshots fold back
        automatically — records wall/CPU/RSS/allocation samples::

            with engine.profiled() as profiler:
                engine.train(images)
            print(render_profile(profile_document(profiler)))
        """
        from repro.obs.profile import StageProfiler, get_profiler, set_profiler

        previous = get_profiler()
        profiler = StageProfiler().start()
        set_profiler(profiler)
        try:
            yield profiler
        finally:
            set_profiler(previous)
            profiler.stop()

    # -- internals -------------------------------------------------------------

    def _sharded_assembler(self):
        from repro.engine.sharding import ShardedAssembler

        return ShardedAssembler(
            self.encore.worker_config(), self.encore.assembler,
            workers=self.workers, chunk_size=self.chunk_size,
        )
