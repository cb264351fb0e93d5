"""The stage engine: serialisable stage artifacts and one shard executor.

``repro.core`` implements *what* each stage computes; this package owns
*how* stages execute — the serialisable artifacts exchanged at stage
boundaries (:mod:`~repro.engine.artifacts`) and one fault-tolerant
shard executor over a process pool (:mod:`~repro.engine.sharding`) that
runs both sharded corpus assembly (:class:`ShardedAssembler`) and
streamed batch checking (:class:`BatchChecker`).  Both executors are
built from the :class:`~repro.core.pipeline.EnCore` they serve, and
each shard's worker telemetry crosses back as one envelope
(:func:`~repro.engine.artifacts.capture_telemetry` /
:func:`~repro.engine.artifacts.fold_telemetry`).

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

__all__ = [
    "BatchChecker",
    "ShardResult",
    "ShardedAssembler",
    "assembled_system_from_dict",
    "assembled_system_to_dict",
    "chunked",
    "default_chunk_size",
    "partial_from_dict",
    "partial_to_dict",
    "report_from_dict",
]
