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
Both jobs run the serial path's own guarded row loop in every shard,
and assembly folds the rows, in input order, through the serial corpus
fold; checking holds because each target is independent and reports
are re-ordered to input order.

The names below resolve on first use, so importing one submodule does
not import the others.
"""

from importlib import import_module

#: Public name → the submodule that defines it.  Importing one submodule
#: (``repro.engine.codec`` for a model load, ``repro.engine.cache`` for a
#: serial cached train) then does not pay for the shard engine and its
#: process pool.
_EXPORTS = {
    "BatchChecker": "repro.engine.sharding",
    "ShardResult": "repro.engine.artifacts",
    "ShardedAssembler": "repro.engine.sharding",
    "assembled_system_from_dict": "repro.engine.artifacts",
    "assembled_system_to_dict": "repro.engine.artifacts",
    "chunked": "repro.engine.sharding",
    "default_chunk_size": "repro.engine.sharding",
    "report_from_dict": "repro.engine.artifacts",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
