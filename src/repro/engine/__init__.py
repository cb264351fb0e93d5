"""The stage engine: explicit pipeline stages and one shard executor.

``repro.core`` implements *what* each stage computes; this package owns
*how* stages execute — stage boundaries and their serialisable
artifacts (:mod:`~repro.engine.stages`, :mod:`~repro.engine.artifacts`)
and one fault-tolerant shard executor over a process pool
(:mod:`~repro.engine.sharding`) that runs both sharded corpus assembly
(:class:`ShardedAssembler`) and streamed batch checking
(:class:`BatchChecker`).

The contract throughout: executing a stage with ``workers=N`` for any N
(and any chunk size) produces results identical to the serial run.
Assembly achieves this through the associative
:meth:`~repro.core.dataset.PartialDataset.merge`; checking because each
target is independent and reports are re-ordered to input order.
"""

from repro.engine.artifacts import (
    ShardResult,
    assembled_system_from_dict,
    assembled_system_to_dict,
    partial_from_dict,
    partial_to_dict,
    report_from_dict,
)
from repro.engine.sharding import (
    BatchChecker,
    ShardedAssembler,
    chunked,
    default_chunk_size,
)
from repro.engine.stages import StageEngine, StageSpec, render_stage_graph, stage_graph

__all__ = [
    "BatchChecker",
    "ShardResult",
    "ShardedAssembler",
    "StageEngine",
    "StageSpec",
    "assembled_system_from_dict",
    "assembled_system_to_dict",
    "chunked",
    "default_chunk_size",
    "partial_from_dict",
    "partial_to_dict",
    "render_stage_graph",
    "report_from_dict",
    "stage_graph",
]
