"""Persistent warm worker pool shared by every parallel stage.

Historically each ``train``/``check_stream`` call built its own
``ProcessPoolExecutor``, so every run paid process spawn *and* every
worker rebuilt its parser registry, type registry and templates from
the shipped config.  At realistic shard sizes that overhead dominated:
sharded assembly measured *slower* than serial.

This module keeps one pool per coordinator process (:func:`get_warm_pool`)
and one pipeline per worker process (:func:`worker_encore`):

* The **coordinator side** creates the pool lazily on first use and
  reuses it across ``train`` / ``check`` / ``train_more`` calls and
  across ``repro serve`` requests.  A shard failure that breaks the
  pool (``BrokenProcessPool``, shard timeout) *poisons* it; the next
  acquisition respawns a fresh pool (``pool.respawn.total``) while the
  failed shards — assembly and check alike — recover through the shard
  executor's retry/bisection policy in :mod:`repro.engine.sharding`;
  recovery always runs in fresh single-worker pools, never the shared
  one, so a crashing image cannot wedge the warm pool twice.
* The **worker side** caches the built :class:`~repro.core.pipeline.EnCore`
  keyed by the config payload digest (and the installed model by the
  model payload digest), so a worker that has seen this configuration
  before skips parser/type/template construction entirely
  (``pool.worker.reuse.total`` vs ``pool.worker.build.total``).
  Per-shard state — quarantine records, fault hooks, the drift monitor —
  is reset on every acquisition so shard results stay exactly as
  independent as they were with throwaway workers.

The pool is deliberately *not* used for recovery or bisection runs:
those need crash firewalls with their own lifecycle.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Optional

from repro.engine import codec
from repro.obs import get_logger
from repro.obs.metrics import get_registry

log = get_logger("engine.pool")


class WarmPool:
    """A lazily-created, health-checked, respawnable process pool.

    ``executor()`` hands back the live pool, respawning it when a prior
    failure poisoned it or a caller asked for more workers than it was
    built with.  All bookkeeping is coordinator-side and cheap; the
    expensive part (actually forking workers) happens at most once per
    (generation, worker) pair.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._poisoned = False
        self._lock = threading.Lock()
        #: Generations spawned over this pool's lifetime (1 = never
        #: respawned).  Exposed for /statusz and the pool-reuse tests.
        self.spawns = 0

    # -- lifecycle -------------------------------------------------------------

    def ensure_workers(self, workers: int) -> None:
        """Grow the pool to at least *workers* (respawns if already live)."""
        with self._lock:
            if workers > self.workers:
                self.workers = workers
                if self._executor is not None:
                    self._poisoned = True

    def executor(self) -> ProcessPoolExecutor:
        """The live pool, (re)spawned as needed.

        Raises whatever ``ProcessPoolExecutor`` raises when no pool can
        be created (restricted sandboxes) — callers fall back to their
        serial paths exactly as they did with per-call pools.
        """
        with self._lock:
            if self._executor is None or self._poisoned:
                self._respawn_locked()
            else:
                get_registry().counter("pool.reuse.total").inc()
            return self._executor

    def _respawn_locked(self) -> None:
        old = self._executor
        if old is not None:
            # wait=False: a hung worker must not stall the coordinator.
            old.shutdown(wait=False, cancel_futures=True)
            get_registry().counter("pool.respawn.total").inc()
            log.warning("pool.respawn", workers=self.workers, generation=self.spawns)
        self._executor = ProcessPoolExecutor(max_workers=self.workers)
        self._poisoned = False
        self.spawns += 1
        get_registry().counter("pool.spawn.total").inc()

    def poison(self) -> None:
        """Mark the current generation dead; next acquisition respawns."""
        with self._lock:
            self._poisoned = True

    @property
    def alive(self) -> bool:
        return self._executor is not None and not self._poisoned

    def shutdown(self, wait: bool = False) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=wait, cancel_futures=True)
                self._executor = None
            self._poisoned = False

    def stats(self) -> Dict[str, Any]:
        """Pool lifecycle counters for /statusz and tests."""
        return {
            "workers": self.workers,
            "alive": self.alive,
            "spawns": self.spawns,
        }


# -- the shared coordinator pool -----------------------------------------------

_shared_pool: Optional[WarmPool] = None
_shared_lock = threading.Lock()


def get_warm_pool(workers: int = 1) -> WarmPool:
    """The process-wide warm pool, grown to at least *workers*."""
    global _shared_pool
    with _shared_lock:
        if _shared_pool is None:
            _shared_pool = WarmPool(workers)
    _shared_pool.ensure_workers(workers)
    return _shared_pool


def warm_pool_stats() -> Dict[str, Any]:
    """Shared-pool lifecycle stats *without* creating a pool.

    What ``/statusz`` reports: a daemon that has never run a batch
    request shows ``spawns: 0`` instead of forking workers just to be
    inspected.
    """
    with _shared_lock:
        pool = _shared_pool
    if pool is None:
        return {"workers": 0, "alive": False, "spawns": 0}
    return pool.stats()


def shutdown_warm_pool(wait: bool = False) -> None:
    """Tear down the shared pool (tests, daemon shutdown, interpreter exit)."""
    global _shared_pool
    with _shared_lock:
        pool, _shared_pool = _shared_pool, None
    if pool is not None:
        pool.shutdown(wait=wait)


atexit.register(shutdown_warm_pool)


# -- worker-side pipeline cache ------------------------------------------------

#: Per-worker-process cache: the built pipeline keyed by config digest,
#: the installed model keyed by model digest, and any attached disk
#: cache keyed by its root.  Lives for the worker's whole life — which,
#: with the warm pool, spans many shards and many coordinator calls.
_worker_state: Dict[str, Any] = {}


def worker_encore(config_payload: bytes, config_digest: str):
    """The worker's pipeline for *config_payload*, built at most once.

    Returns a per-shard-reset :class:`~repro.core.pipeline.EnCore`:
    quarantine cleared, fault hook disarmed, result cache detached —
    the shard entry points re-arm exactly what their payload carries.
    A config change (digest mismatch) drops the cached pipeline *and*
    the installed model, since the model's detector surface is built
    against the pipeline's assembler.
    """
    from repro.core.pipeline import EnCore, EnCoreConfig

    registry = get_registry()
    if _worker_state.get("config_digest") != config_digest:
        config = EnCoreConfig.from_dict(codec.decode(config_payload))
        _worker_state.clear()
        _worker_state["config_digest"] = config_digest
        _worker_state["encore"] = EnCore(config)
        registry.counter("pool.worker.build.total").inc()
    else:
        registry.counter("pool.worker.reuse.total").inc()
    encore = _worker_state["encore"]
    encore.assembler.quarantine.clear()
    encore.assembler.fault_hook = None
    encore.assembler.cache = None
    encore.assembler.cache_salt = ""
    encore.assembler.cache_store_only = False
    return encore


def worker_install_model(encore, model_payload: bytes, model_digest: str) -> None:
    """Install *model_payload* into *encore*, decoding at most once.

    Whether freshly installed or reused, the drift monitor is rebuilt so
    each shard's observations start from zero — the coordinator folds
    shard snapshots, and a monitor that survived a previous shard would
    double-count.
    """
    from repro.core.persistence import snapshot_from_dict

    if _worker_state.get("model_digest") != model_digest:
        encore._install_snapshot(snapshot_from_dict(codec.decode(model_payload)))
        _worker_state["model_digest"] = model_digest
    else:
        encore._rebuild_drift_monitor()


def worker_cache(root: str):
    """The worker's handle on the shared disk cache at *root*.

    One :class:`~repro.engine.cache.ResultCache` per root per worker
    process, so its in-memory layer persists across shards.
    """
    from repro.engine.cache import ResultCache

    caches = _worker_state.setdefault("caches", {})
    cache = caches.get(root)
    if cache is None:
        cache = caches[root] = ResultCache(root)
    return cache
