"""One fault-tolerant shard executor for corpus assembly and batch checking.

Training and checking are the same map over images: assembling a
training image never depends on another image, and "since the checking
and the learning are cleanly separated" (paper §3) neither does
checking a target.  One executor runs both.  The coordinator splits the
image list into contiguous chunks, ships each chunk to a worker process
as a compact codec-framed task (:mod:`repro.engine.codec`) whose
``kind`` is ``assemble`` or ``check``, and gets back one
:class:`~repro.engine.artifacts.ShardResult` envelope per chunk, in
input order:

* :class:`ShardedAssembler` left-folds the assembled rows.  Because
  :class:`PartialDataset` accumulation is associative and
  order-preserving, the finalized dataset is identical — fingerprint
  and all — to a serial pass, regardless of worker count or chunk size.
* :class:`BatchChecker` streams each shard's reports as it completes.
  Warning scores cross the process boundary at full float64 precision,
  so sharded reports are exactly the serial ones.

The data plane (see ``docs/architecture.md``, "Data plane"):

* Both executors are built from the :class:`~repro.core.pipeline.EnCore`
  they serve, and read its config, assembler, quarantine, drift
  monitor, result cache, recovery knobs and hoisted payloads from it.
* Tasks and results cross the process boundary as codec bytes, not
  pickles: the config and model payloads are encoded **once per pool
  lifetime** (hoisted by :meth:`EnCore.worker_payload` /
  :meth:`EnCore.model_payload`), each image is encoded once and
  memoised (:func:`~repro.engine.artifacts.image_payload`), and
  assembled rows ride back image-elided — the coordinator re-attaches
  its own :class:`~repro.sysmodel.image.SystemImage` objects by id.
* Shards run on the shared warm pool (:mod:`repro.engine.pool`), whose
  workers keep their built pipeline across shards and runs.  A shard
  failure poisons the pool (next run respawns) and recovery proceeds in
  fresh single-worker pools — the crash firewall never reuses the
  shared pool.
* When a result cache (:mod:`repro.engine.cache`) is attached, the
  assembly coordinator resolves cache hits in-process *before* sharding
  and ships only the misses; hit rows fold back in exact input order,
  so cached runs stay byte-identical to cold ones.  Check workers look
  the cache up themselves (every target needs a report regardless).

Failure handling is one policy for both jobs (see ``docs/robustness.md``):

1. **Per-image isolation** happens inside the worker: the error policy
   drops unparseable images into quarantine records that ride back on
   the shard result.  An image whose *payload* cannot be decoded
   (:class:`~repro.engine.codec.CodecError`) quarantines the same way,
   under stage ``codec``.
2. **Per-shard retry**: a shard whose worker crashed
   (``BrokenProcessPool``) or stalled (``shard_timeout``) is retried in
   a fresh single-worker pool under an exponential-backoff
   :class:`~repro.core.resilience.RetryPolicy`.
3. **Bisection** kicks in when retries are exhausted: the chunk is
   split recursively until the poisoned image(s) are isolated and
   quarantined individually (stage ``worker``), so one crash-inducing
   image costs exactly itself — never its shard, never the run.  Under
   ``strict``, the last failure propagates instead.
4. **Inline fallback**: when no subprocess can be created at all, the
   chunks run in-process on the coordinator's own assembler (or
   pipeline, for checks).

Workers record into a fresh process-local metrics registry per shard
and ship one telemetry envelope back (metrics, quarantine, drift and,
when traced, spans; :func:`~repro.engine.artifacts.capture_telemetry`).
The coordinator folds it with
:func:`~repro.engine.artifacts.fold_telemetry`, so sharded runs report
the same telemetry totals as serial ones.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as ShardTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.core.dataset import Dataset, PartialDataset
from repro.core.report import Report
from repro.core.resilience import (
    ErrorPolicy,
    QuarantineRecord,
    RetryPolicy,
    enforce_error_budget,
    record_from_exception,
)
from repro.engine import codec
from repro.engine.artifacts import (
    ShardResult,
    capture_telemetry,
    fold_telemetry,
    image_payload,
)
from repro.engine.codec import CodecError
from repro.engine.pool import (
    get_warm_pool,
    worker_cache,
    worker_encore,
    worker_install_model,
)
from repro.obs import get_logger
from repro.obs.health import maybe_tick as health_tick
from repro.obs.metrics import MetricsRegistry, get_registry, use_registry
from repro.obs.tracing import (
    TraceContext,
    Tracer,
    current_context,
    get_tracer,
    span,
    use_tracer,
)
from repro.sysmodel.image import SystemImage
from repro.sysmodel.snapshot import ImageCorruptError, image_from_dict

T = TypeVar("T")

log = get_logger("engine.sharding")

#: Shard failures the recovery layer absorbs: a crashed worker breaks
#: the whole pool; a stalled worker trips the optional shard timeout.
#: Everything else (parse errors under strict policy, programming
#: errors) propagates unchanged.
RECOVERABLE = (BrokenProcessPool, ShardTimeout)

#: Pool-creation failures that mean "no subprocess can be created here"
#: (restricted sandboxes) — the job falls back to running inline.
POOL_UNAVAILABLE = (OSError, PermissionError, ValueError)


def chunked(items: Sequence[T], chunk_size: int) -> List[List[T]]:
    """Contiguous chunks of at most *chunk_size* items, order preserved."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [list(items[i:i + chunk_size]) for i in range(0, len(items), chunk_size)]


def default_chunk_size(n_items: int, workers: int) -> int:
    """About four chunks per worker.

    Smaller chunks let the coordinator deserialise shard *i* while the
    pool is still working on shard *i+1* (and let checks start
    streaming early), hiding the result-shipping latency behind worker
    compute; they also bound the blast radius of a crashed worker to a
    quarter of one worker's share.
    """
    return max(1, math.ceil(n_items / (max(1, workers) * 4)))


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


def attach_worker_cache(assembler, spec: Optional[Dict[str, Any]]) -> None:
    """Arm a worker assembler's result cache from its task payload."""
    if not spec:
        return
    assembler.cache = worker_cache(spec["root"])
    assembler.cache_salt = spec["salt"]
    assembler.cache_store_only = bool(spec.get("store_only"))


def decode_task_images(
    payload: Dict[str, Any], assembler, shard_index: int
) -> List[SystemImage]:
    """Decode a task's per-image payloads under the error policy.

    Each image is framed separately, so one corrupt payload quarantines
    exactly that image (stage ``codec``) instead of failing the shard —
    unless the policy is strict, where it propagates like any other
    per-image failure.
    """
    images: List[SystemImage] = []
    for image_id, raw in zip(payload["image_ids"], payload["images"]):
        try:
            images.append(image_from_dict(codec.decode(raw)))
        except (CodecError, ImageCorruptError) as exc:
            if assembler.error_policy is ErrorPolicy.STRICT:
                raise
            record = record_from_exception(
                image_id, exc, stage="codec", shard_index=shard_index
            )
            assembler.quarantine.add(
                record, keep=assembler.error_policy is ErrorPolicy.QUARANTINE
            )
            get_registry().counter(
                "quarantine.images.total", stage=record.stage
            ).inc()
            log.warning(
                "image.quarantined", image=image_id, stage=record.stage,
                error=record.error,
            )
    return images


def _run_shard(task: bytes) -> bytes:
    """Worker entry point: run one codec-framed chunk task of either kind.

    Must stay a module-level function (picklable under every
    multiprocessing start method).  The shard records into a fresh
    registry pushed with :func:`~repro.obs.metrics.use_registry` — an
    override, not a default swap, because a warm-pool worker may have
    been forked while its parent thread held a request-scoped override
    (the serve daemon) and that fork-copy would otherwise shadow a
    plain ``set_registry`` and leak counts across shards.  The pipeline
    (and, for checks, the installed model) is cached per worker process
    (:mod:`repro.engine.pool`) and reset per shard.  A task that ships a
    trace context records the shard's spans under a tracer whose span
    ids are seeded with the shard index, so they are deterministic and
    never collide with the coordinator's or a sibling shard's.  The
    result carries the shard's :func:`capture_telemetry` envelope.
    """
    payload = codec.decode(task)
    kind, shard_index = payload["kind"], payload["shard_index"]
    trace = payload.get("trace")
    tracer = (
        Tracer(context=TraceContext.from_dict(trace), seed=f"shard{shard_index}")
        if trace else None
    )
    with use_registry(MetricsRegistry()), use_tracer(tracer):
        encore = worker_encore(payload["config"], payload["config_digest"])
        if kind == "check":
            worker_install_model(encore, payload["model"], payload["model_digest"])
        attach_worker_cache(encore.assembler, payload.get("cache"))
        if payload.get("faults"):
            from repro.testing.faults import FaultPlan

            encore.assembler.fault_hook = (
                FaultPlan.from_dict(payload["faults"]).hook
            )
        images = decode_task_images(payload, encore.assembler, shard_index)
        # The shard-root span goes through the tracer directly, not
        # the module-level span(): it only exists when a context was
        # shipped, and must not observe histograms a tracing-off run
        # would lack (metrics stay identical either way).
        with (
            tracer.span(f"{kind}.shard", shard=shard_index, items=len(images))
            if tracer is not None else nullcontext()
        ):
            if kind == "check":
                items: List[Any] = [
                    report for report in map(encore._check_guarded, images)
                    if report is not None
                ]
            else:
                items = encore.assembler.assemble_partial(
                    images, shard_index=shard_index
                ).systems
        telemetry = capture_telemetry(
            encore.quarantine, encore.drift if kind == "check" else None,
            tracer, shard_index,
        )
    return ShardResult(kind, items, telemetry).to_bytes()


class _ShardExecutor:
    """The coordinator side shared by both jobs.

    Built from the :class:`~repro.core.pipeline.EnCore` it serves: the
    pipeline's assembler runs chunks inline, its quarantine (and, for
    checks, drift monitor) receive the folded worker telemetry, and its
    result cache, recovery knobs (``retry_policy``, ``shard_timeout``),
    ``fault_plan`` and hoisted config payload shape every task.
    Frames tasks, dispatches them through the warm pool, folds results
    and runs the retry → bisect → inline recovery policy.  Subclasses
    name their ``kind`` and run a chunk inline (``_inline_items``).
    """

    #: Task kind — also names the worker's ``{kind}.shard`` span (a
    #: profile's shard row) and the ``{kind}.shards.total`` counter.
    kind = ""
    #: Counter bumped when bisection pins a crash on a single image.
    quarantine_counter = ""
    drift = None
    model_bytes: Optional[Tuple[bytes, str]] = None

    def __init__(self, encore, workers: int, chunk_size: Optional[int]) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.encore = encore
        self.workers = workers
        self.chunk_size = chunk_size
        self.assembler = encore.assembler
        self.quarantine = encore.quarantine
        self.config_payload = encore.worker_payload()
        self.retry = (
            encore.retry_policy if encore.retry_policy is not None
            else RetryPolicy()
        )

    @property
    def _policy(self) -> ErrorPolicy:
        return ErrorPolicy.parse(self.encore.config.error_policy)

    def _install_inline_faults(self) -> None:
        """Arm the fault plan on the coordinator (in-process mode)."""
        fault_plan = self.encore.fault_plan
        if fault_plan is not None and self.assembler.fault_hook is None:
            self.assembler.fault_hook = fault_plan.hook

    # -- one task frame, one decode, one fold ----------------------------------

    def _task(self, chunk: List[SystemImage], index: int) -> bytes:
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "config": self.config_payload[0],
            "config_digest": self.config_payload[1],
            "images": [image_payload(image) for image in chunk],
            "image_ids": [image.image_id for image in chunk],
            "shard_index": index,
        }
        if self.model_bytes is not None:
            payload["model"], payload["model_digest"] = self.model_bytes
        if self.encore.fault_plan is not None:
            payload["faults"] = self.encore.fault_plan.to_dict()
        if get_tracer() is not None:
            # Propagate the coordinator's trace identity: the worker
            # re-parents its span forest under the span active here.
            payload["trace"] = current_context().to_dict()
        cache = self.encore.cache
        if cache is not None and cache.root is not None:
            # Assembly workers only store: the coordinator's pre-pass
            # already resolved every hit.  Check workers look up too.
            payload["cache"] = {
                "root": str(cache.root),
                "salt": self.assembler.cache_salt,
                "store_only": self.kind == "assemble",
            }
        return codec.encode(payload)

    @staticmethod
    def _decode(raw: bytes, chunk: List[SystemImage]) -> ShardResult:
        return ShardResult.from_bytes(
            raw, {image.image_id: image for image in chunk}
        )

    def _fold(self, result: ShardResult, shard: bool = True) -> None:
        """Fold one result's telemetry into the coordinator.

        ``shard=False`` is for bisection sub-runs: their telemetry folds
        as they finish, but the chunk is counted once, when its joined
        result folds.
        """
        fold_telemetry(result.telemetry, self.quarantine, self.drift)
        if shard:
            get_registry().counter(f"{self.kind}.shards.total").inc()
            # Long runs tick the health monitor between shard folds
            # (no-op unless one is installed and its sampling interval
            # elapsed), so a multi-hour job still gets timeline points
            # and alert evaluation without a second thread.
            health_tick()

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self, chunks: List[List[SystemImage]]) -> Iterator[ShardResult]:
        """Yield one result per chunk, in input order, as shards complete.

        Every task is submitted up front; a shard lost to a crashed or
        stalled worker is recovered in place before the next result is
        yielded, so callers fold (or stream) strictly in input order.
        """
        registry = get_registry()
        pool = get_warm_pool(self.workers)
        try:
            executor = pool.executor()
        except POOL_UNAVAILABLE as exc:
            log.warning("shard.pool_unavailable", error=str(exc))
            for index, chunk in enumerate(chunks):
                yield self._inline(chunk, index)
            return
        try:
            futures = [
                executor.submit(_run_shard, self._task(chunk, index))
                for index, chunk in enumerate(chunks)
            ]
        except (BrokenProcessPool, RuntimeError) as exc:
            # The previous generation died between acquisitions; treat
            # every shard as failed and let recovery (fresh pools)
            # handle them, exactly like a mid-run break.
            log.warning("shard.pool_broken_at_submit", error=type(exc).__name__)
            pool.poison()
            registry.counter("retry.shards.failed").inc(len(chunks))
            futures = [None] * len(chunks)
        for index, (chunk, future) in enumerate(zip(chunks, futures)):
            raw = None
            if future is not None:
                try:
                    raw = future.result(timeout=self.encore.shard_timeout)
                except RECOVERABLE as exc:
                    future.cancel()
                    pool.poison()
                    registry.counter("retry.shards.failed").inc()
                    log.warning(
                        "shard.failed", shard=index,
                        error=type(exc).__name__, images=len(chunk),
                    )
            if raw is None:
                yield self._recover(chunk, index)
            else:
                yield self._decode(raw, chunk)

    # -- recovery --------------------------------------------------------------

    def _recover(self, chunk: List[SystemImage], index: int) -> ShardResult:
        """Bring one failed shard back: backoff-retry, then bisect."""
        registry = get_registry()
        last_exc: Optional[BaseException] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            self.retry.backoff(attempt)
            registry.counter("retry.attempts.total").inc()
            try:
                result = self._run_isolated(chunk, index)
            except RECOVERABLE as exc:
                last_exc = exc
                log.warning(
                    "shard.retry_failed", shard=index, attempt=attempt,
                    error=type(exc).__name__,
                )
                continue
            registry.counter("retry.recovered.total").inc()
            log.info("shard.recovered", shard=index, attempt=attempt)
            return result
        assert last_exc is not None
        if self._policy is ErrorPolicy.STRICT:
            raise last_exc
        registry.counter("retry.bisections.total").inc()
        log.warning(
            "shard.bisecting", shard=index, images=len(chunk),
            error=type(last_exc).__name__,
        )
        items = self._bisect(chunk, index, last_exc)
        return ShardResult(self.kind, items)

    def _bisect(
        self, chunk: List[SystemImage], index: int, exc: BaseException
    ) -> List[Any]:
        """Isolate the poisoned image(s) of a chunk that just failed with *exc*.

        Recursively halves the chunk, running each half in its own
        single-worker pool, until failures are pinned to single images —
        each of which is quarantined with stage ``worker``.  Sub-runs
        fold their telemetry as they finish; the survivors' items come
        back concatenated in input order, so the final fold stays
        byte-identical to running the clean subset serially.
        """
        if len(chunk) == 1:
            image = chunk[0]
            record = QuarantineRecord(
                image_id=image.image_id, stage="worker",
                error=type(exc).__name__,
                message=str(exc) or "worker process crashed or stalled",
                shard_index=index,
            )
            self.quarantine.add(record)
            get_registry().counter(self.quarantine_counter, stage="worker").inc()
            log.warning(
                "image.quarantined", image=image.image_id,
                stage="worker", error=record.error,
            )
            return []
        items: List[Any] = []
        mid = (len(chunk) + 1) // 2
        for half in (chunk[:mid], chunk[mid:]):
            try:
                result = self._run_isolated(half, index)
            except RECOVERABLE as half_exc:
                items.extend(self._bisect(half, index, half_exc))
                continue
            self._fold(result, shard=False)
            items.extend(result.items)
        return items

    def _run_isolated(self, chunk: List[SystemImage], index: int) -> ShardResult:
        """Run one chunk in a fresh single-worker pool (crash firewall).

        Never the warm pool: a chunk under recovery is suspected of
        crashing workers, and the firewall's job is to contain that.
        Falls back to running the chunk inline when no subprocess can be
        created at all — per-image isolation still applies there, so
        survivors are never lost.
        """
        task = self._task(chunk, index)
        try:
            executor = ProcessPoolExecutor(max_workers=1)
        except POOL_UNAVAILABLE as exc:
            log.warning("shard.recovery_pool_unavailable", error=str(exc))
            return self._inline(chunk, index)
        try:
            raw = executor.submit(_run_shard, task).result(
                timeout=self.encore.shard_timeout
            )
            return self._decode(raw, chunk)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _inline(self, chunk: List[SystemImage], index: int) -> ShardResult:
        """Run one chunk in-process (the last-resort recovery path).

        Records (and, for checks, drift observations) go straight into
        the coordinator's own objects, so the result carries only items.
        """
        return ShardResult(self.kind, self._inline_items(chunk, index))

    def _inline_items(self, chunk: List[SystemImage], index: int) -> List[Any]:
        raise NotImplementedError


class ShardedAssembler(_ShardExecutor):
    """Assemble a corpus for *encore* across *workers* processes.

    ``workers <= 1`` runs serially through the pipeline's own assembler
    (preserving programmatic customization exactly); ``workers > 1``
    ships codec-framed chunk tasks to the shared warm pool, whose
    workers rebuild (once) from the pipeline's worker config.  When a
    process pool cannot be created (restricted sandboxes), assembly runs
    inline through the pipeline's assembler with a warning — results are
    identical either way.  *chunk_size* defaults to
    :func:`default_chunk_size`.
    """

    kind = "assemble"
    quarantine_counter = "quarantine.images.total"

    def assemble(self, images: Iterable[SystemImage]) -> Dataset:
        images = list(images)
        if self.workers <= 1 or len(images) <= 1:
            self._install_inline_faults()
            return self.assembler.assemble_corpus(images)
        return self._assemble_sharded(images)

    def assemble_partial(self, images: Iterable[SystemImage]) -> PartialDataset:
        images = list(images)
        if self.workers <= 1 or len(images) <= 1:
            self._install_inline_faults()
            return self.assembler.assemble_partial(images)
        return self._sharded_partial(images)

    # -- internals -------------------------------------------------------------

    def _assemble_sharded(self, images: List[SystemImage]) -> Dataset:
        with span("assemble.corpus") as s:
            dropped_before = self.quarantine.dropped
            dataset = self._sharded_partial(images).finalize()
            enforce_error_budget(
                self.quarantine.dropped - dropped_before,
                len(images),
                self.encore.config.max_error_rate,
                self._policy,
            )
            s.annotate(systems=len(dataset), attributes=len(dataset.attributes()))
        return dataset

    def _partition(
        self, images: List[SystemImage]
    ) -> Tuple[List[Tuple[str, List[Any]]], List[List[SystemImage]]]:
        """Split *images* into fold segments: cached rows and miss chunks.

        With no cache attached this is a single run of misses, chunked
        exactly as before.  With a cache, hits are resolved here in the
        coordinator (their per-system counters replayed by the
        assembler) and contiguous miss runs are chunked by the *miss*
        count — so a warm corpus with one touched image ships exactly
        that image.
        """
        order: List[Tuple[str, Any]] = []
        misses = 0
        if self.encore.cache is not None:
            for image in images:
                system = self.assembler.cached_assembled(image)
                if system is not None:
                    order.append(("hit", system))
                else:
                    order.append(("miss", image))
                    misses += 1
        else:
            order = [("miss", image) for image in images]
            misses = len(images)
        segments: List[Tuple[str, List[Any]]] = []
        chunks: List[List[SystemImage]] = []
        if misses:
            chunk_size = self.chunk_size or default_chunk_size(misses, self.workers)
            i = 0
            while i < len(order):
                kind = order[i][0]
                j = i
                while j < len(order) and order[j][0] == kind:
                    j += 1
                run = [item for _, item in order[i:j]]
                if kind == "hit":
                    segments.append(("rows", run))
                else:
                    for chunk in chunked(run, chunk_size):
                        segments.append(("chunk", chunk))
                        chunks.append(chunk)
                i = j
        elif order:
            segments.append(("rows", [system for _, system in order]))
        return segments, chunks

    def _sharded_partial(self, images: List[SystemImage]) -> PartialDataset:
        segments, chunks = self._partition(images)
        with span(
            "assemble.shards", shards=len(chunks), workers=self.workers,
            cached=len(images) - sum(len(c) for c in chunks),
        ):
            # A left fold in input order: the result is byte-identical
            # to a serial pass no matter which shards were cached or
            # needed recovery.  The dispatch generator starts (and the
            # pool is touched) only when the first chunk is reached.
            results = self._dispatch(chunks)
            merged = PartialDataset()
            for kind, rows in segments:
                if kind == "chunk":
                    result = next(results)
                    self._fold(result)
                    rows = result.items
                for system in rows:
                    merged.add(system)
        return merged

    def _inline_items(self, chunk: List[SystemImage], index: int) -> List[Any]:
        self._install_inline_faults()
        return self.assembler.assemble_partial(chunk, shard_index=index).systems


class BatchChecker(_ShardExecutor):
    """Stream *encore*'s reports for a fleet of targets across workers.

    Workers install the pipeline's hoisted model payload; their drift
    observations fold into the pipeline's drift monitor and their drop
    records into its quarantine.  Chunks run inline on the pipeline
    itself when no worker process can be created at all.
    """

    kind = "check"
    quarantine_counter = "quarantine.targets.total"

    def __init__(self, encore, workers: int, chunk_size: Optional[int]) -> None:
        super().__init__(encore, workers, chunk_size)
        self.model_bytes = encore.model_payload()
        self.drift = encore.drift

    def stream(self, images: Iterable[SystemImage]) -> Iterator[Report]:
        """Yield one report per surviving target, in input order."""
        images = list(images)
        if not images:
            return
        chunk_size = self.chunk_size or default_chunk_size(len(images), self.workers)
        with span("check.batch", targets=len(images), workers=self.workers):
            # Tasks are framed inside the batch span so the propagated
            # trace context names it as the workers' remote parent.
            for result in self._dispatch(chunked(images, chunk_size)):
                self._fold(result)
                yield from result.items

    def _inline_items(self, chunk: List[SystemImage], index: int) -> List[Any]:
        self._install_inline_faults()
        return [
            report for report in map(self.encore._check_guarded, chunk)
            if report is not None
        ]
