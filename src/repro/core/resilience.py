"""Fault tolerance for the pipeline: error policies, quarantine, retries.

The paper's training sets are *messy by construction* — hundreds of
heterogeneous EC2 and private-cloud images (§6) where malformed
configuration is the input, not an exception.  This module gives every
corpus-scale code path a shared vocabulary for surviving that mess:

* :class:`ErrorPolicy` — what to do when one image fails to assemble:
  ``strict`` (fail the whole run, the historical behaviour),
  ``quarantine`` (drop the image, keep an auditable record; the
  default), or ``skip`` (drop silently, counters only);
* :class:`QuarantineRecord` / :class:`Quarantine` — the auditable
  record of every dropped image (who, which stage, what error, where),
  mergeable across worker shards like every other pipeline artifact;
  :meth:`Quarantine.drop` is the one drop rule every job applies;
* :func:`enforce_error_budget` — the guard that keeps "graceful
  degradation" from quietly becoming "trained on nothing": a run whose
  drop rate exceeds ``max_error_rate`` aborts with
  :class:`ErrorBudgetExceeded`;
* :class:`RetryPolicy` — exponential backoff with an injectable sleeper,
  used by the shard-recovery paths in :mod:`repro.engine.sharding`;
* :class:`QuarantineLog` — the append-only JSONL file behind
  ``repro quarantine show``, sharing the crash-safe write primitive of
  the run ledger.

The invariant every consumer relies on: under any non-strict policy,
the surviving corpus is *exactly* the clean subset, so rules learned
from a partially-poisoned corpus are byte-identical to rules learned
from the clean images alone, at any worker count.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Union

from repro.obs import get_logger
from repro.obs.fileio import append_line, read_jsonl
from repro.obs.metrics import get_registry
from repro.parsers.base import ConfigParseError

log = get_logger("core.resilience")

#: Default quarantine-log location, sibling of the run ledger.
DEFAULT_QUARANTINE_PATH = Path(".encore") / "quarantine.jsonl"

#: Default ceiling on the fraction of a corpus that may be dropped
#: before the run aborts instead of degrading.
DEFAULT_MAX_ERROR_RATE = 0.10

_LINE_RE = re.compile(r"line (\d+)")

#: Task kind → the per-stage counter a dropped image of that job bumps.
DROP_COUNTERS = {
    "assemble": "quarantine.images.total",
    "check": "quarantine.targets.total",
}


class ErrorPolicy(str, Enum):
    """Per-image failure handling during corpus-scale operations."""

    #: Fail the whole run on the first bad image (historical behaviour).
    STRICT = "strict"
    #: Drop bad images but keep an auditable :class:`QuarantineRecord`.
    QUARANTINE = "quarantine"
    #: Drop bad images silently (metrics only, no records).
    SKIP = "skip"

    @classmethod
    def parse(cls, value: Union[str, "ErrorPolicy"]) -> "ErrorPolicy":
        try:
            return cls(value)
        except ValueError:
            choices = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown error policy {value!r} (choose one of: {choices})"
            ) from None


class FaultInjected(RuntimeError):
    """A deterministic test fault fired in-process.

    The fault-injection harness (:mod:`repro.testing.faults`) kills the
    hosting *worker* process outright to simulate infrastructure
    failure; when the same fault fires inside the coordinator (serial
    fallback paths), it raises this instead so the per-image error
    policy can contain it without taking the whole run down.
    """

    def __init__(self, image_id: str, mode: str = "crash") -> None:
        super().__init__(f"injected {mode} fault on image {image_id}")
        self.image_id = image_id
        self.mode = mode


class ErrorBudgetExceeded(RuntimeError):
    """Too much of the corpus was dropped for the run to be trustworthy."""

    def __init__(self, dropped: int, total: int, max_error_rate: float) -> None:
        rate = dropped / total if total else 1.0
        super().__init__(
            f"error budget exceeded: {dropped}/{total} images "
            f"({rate:.0%}) failed to assemble, above the "
            f"--max-error-rate ceiling of {max_error_rate:.0%}; "
            "fix the corpus or raise the budget"
        )
        self.dropped = dropped
        self.total = total
        self.max_error_rate = max_error_rate
        self.rate = rate


@dataclass(frozen=True)
class QuarantineRecord:
    """One dropped image: who, which stage, what went wrong, where."""

    image_id: str
    #: Pipeline stage that failed: ``parse`` / ``augment`` /
    #: ``environment`` / ``check`` / ``worker`` (crash or hang).
    stage: str
    #: Exception class name (``ConfigParseError``, ``BrokenProcessPool``…).
    error: str
    message: str = ""
    source_path: str = ""
    line: int = 0
    shard_index: int = -1
    #: Trace that was active when the image was dropped ("" when tracing
    #: was off) — the join key from a quarantine record back to its
    #: request/run trace and flight-recorder entries.
    trace_id: str = ""

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "image_id": self.image_id,
            "stage": self.stage,
            "error": self.error,
            "message": self.message,
            "source_path": self.source_path,
            "line": self.line,
            "shard_index": self.shard_index,
        }
        if self.trace_id:
            out["trace_id"] = self.trace_id
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "QuarantineRecord":
        """Decode one record; ``TypeError`` when ``image_id`` or ``stage``
        is missing or not a string, or ``line`` is not an integer."""
        image_id, stage, line = data.get("image_id"), data.get("stage"), data.get("line", 0)
        if not isinstance(image_id, str) or not isinstance(stage, str):
            raise TypeError("quarantine record needs string image_id and stage")
        if isinstance(line, bool) or not isinstance(line, int):
            raise TypeError(f"quarantine record line is not an integer: {line!r}")
        return cls(
            image_id=image_id,
            stage=stage,
            error=str(data.get("error", "")),
            message=str(data.get("message", "")),
            source_path=str(data.get("source_path", "")),
            line=line,
            shard_index=int(data.get("shard_index", -1)),
            trace_id=str(data.get("trace_id", "")),
        )

    def describe(self) -> str:
        where = self.source_path or "-"
        if self.line:
            where = f"{where}:{self.line}"
        message = self.message if len(self.message) <= 100 else self.message[:97] + "..."
        return f"{self.image_id}  {self.stage:<11} {self.error:<20} {where}  {message}"


def classify_stage(exc: BaseException, default: str = "assemble") -> str:
    """The pipeline stage an assembly exception belongs to."""
    # Imported lazily: codec has no repro dependencies, but importing it
    # at module scope would couple core to the engine package's import
    # order.
    from repro.engine.codec import CodecError

    if isinstance(exc, FaultInjected):
        return "worker"
    if isinstance(exc, ConfigParseError):
        return "parse"
    if isinstance(exc, CodecError):
        return "codec"
    return default or "assemble"


def record_from_exception(
    image_id: str,
    exc: BaseException,
    stage: str = "",
    source_path: str = "",
    shard_index: int = -1,
) -> QuarantineRecord:
    """Build a :class:`QuarantineRecord` from a caught exception.

    The source line is recovered from ``line N`` markers that the
    parsers embed in :class:`ConfigParseError` messages.  When a trace
    is active (imported lazily — tracing sits above this module), the
    record is stamped with its trace id so drops join traces and logs.
    """
    from repro.obs.tracing import current_context

    message = str(exc)
    match = _LINE_RE.search(message)
    context = current_context()
    return QuarantineRecord(
        image_id=image_id,
        stage=classify_stage(exc, default=stage),
        error=type(exc).__name__,
        message=message,
        source_path=source_path,
        line=int(match.group(1)) if match else 0,
        shard_index=shard_index,
        trace_id=context.trace_id if context is not None else "",
    )


class Quarantine:
    """Mergeable collection of quarantine records for one component.

    ``dropped`` counts every image removed from the corpus, including
    those dropped under the ``skip`` policy (which keeps no record) —
    it is what the error budget is enforced against.
    """

    def __init__(self) -> None:
        self.records: List[QuarantineRecord] = []
        self.dropped: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def add(self, record: Optional[QuarantineRecord], keep: bool = True) -> None:
        """Count one dropped image; retain its record unless ``keep=False``."""
        self.dropped += 1
        if keep and record is not None:
            self.records.append(record)

    def drop(
        self, record: QuarantineRecord, policy: ErrorPolicy, counter: str
    ) -> None:
        """The one drop rule, for every job and every place an image drops.

        Counts the image, keeps *record* unless *policy* is ``skip``,
        bumps *counter* (a :data:`DROP_COUNTERS` value) at the record's
        stage and logs ``image.quarantined``.
        """
        self.add(record, keep=policy is not ErrorPolicy.SKIP)
        get_registry().counter(counter, stage=record.stage).inc()
        log.warning(
            "image.quarantined", image=record.image_id, stage=record.stage,
            error=record.error, source=record.source_path,
        )

    def extend_dicts(self, records: Iterable[Mapping], dropped: Optional[int] = None) -> None:
        """Fold a worker shard's serialised records (and drop count) in."""
        added = 0
        for data in records:
            self.records.append(QuarantineRecord.from_dict(data))
            added += 1
        self.dropped += added if dropped is None else max(dropped, added)

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0

    def image_ids(self) -> List[str]:
        return [record.image_id for record in self.records]

    def counts_by_stage(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self.records:
            out[record.stage] = out.get(record.stage, 0) + 1
        return out

    def to_dicts(self) -> List[Dict[str, object]]:
        return [record.to_dict() for record in self.records]

    def render(self, limit: int = 20) -> str:
        lines = [f"quarantined {len(self.records)} image(s):"]
        for record in self.records[:limit]:
            lines.append(f"  {record.describe()}")
        hidden = len(self.records) - limit
        if hidden > 0:
            lines.append(f"  ... {hidden} more")
        return "\n".join(lines)


def enforce_error_budget(
    dropped: int,
    total: int,
    max_error_rate: float,
    policy: Union[str, ErrorPolicy] = ErrorPolicy.QUARANTINE,
) -> None:
    """Abort when too much of the corpus was dropped.

    No-op under ``strict`` (the first failure already raised) and when
    nothing was dropped.  The budget is a strict ceiling: a run dropping
    *more* than ``max_error_rate`` of its input raises
    :class:`ErrorBudgetExceeded`; dropping exactly the ceiling passes.
    """
    if ErrorPolicy.parse(policy) is ErrorPolicy.STRICT:
        return
    if dropped <= 0 or total <= 0:
        return
    if dropped / total > max_error_rate:
        raise ErrorBudgetExceeded(dropped, total, max_error_rate)


@dataclass
class RetryPolicy:
    """Exponential backoff for shard-level infrastructure failures.

    ``sleep`` is injectable so tests drive retries without wall-clock
    delays; ``delay`` grows ``backoff_base * backoff_factor**(n-1)``,
    capped at ``backoff_max``.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")

    def delay(self, attempt: int) -> float:
        """Backoff before retry *attempt* (1-based)."""
        return min(
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
            self.backoff_max,
        )

    def backoff(self, attempt: int) -> float:
        """Sleep the computed delay; returns the seconds slept."""
        delay = self.delay(attempt)
        if delay > 0:
            self.sleep(delay)
        return delay


class QuarantineLog:
    """Append-only JSONL history of quarantined images, grouped by run.

    Shares the run ledger's crash-safety model: one O_APPEND write per
    record, unreadable lines (a crash-truncated tail) skipped and counted
    on read.
    """

    def __init__(self, path: Union[str, Path] = DEFAULT_QUARANTINE_PATH) -> None:
        self.path = Path(path)
        #: Lines the last :meth:`entries` read skipped as unreadable.
        self.skipped = 0

    def append(
        self, records: Iterable[QuarantineRecord], run_id: str = "", command: str = ""
    ) -> int:
        written = 0
        for record in records:
            data = record.to_dict()
            data["run_id"] = run_id
            data["command"] = command
            append_line(self.path, json.dumps(data, sort_keys=True))
            written += 1
        return written

    def entries(self) -> List[Dict[str, object]]:
        """All readable record dicts, oldest first.

        A line that is not a JSON object, or whose fields do not make a
        :class:`QuarantineRecord`, is skipped and counted in
        :attr:`skipped`.
        """
        entries, self.skipped = read_jsonl(self.path, _checked_record)
        return entries

    def last_run(self) -> List[Dict[str, object]]:
        """Records of the most recent run (grouped by ``run_id``)."""
        entries = self.entries()
        if not entries:
            return []
        run_id = entries[-1].get("run_id", "")
        tail: List[Dict[str, object]] = []
        for data in reversed(entries):
            if data.get("run_id", "") != run_id:
                break
            tail.append(data)
        return list(reversed(tail))


def _checked_record(data: Dict[str, object]) -> Dict[str, object]:
    """*data* itself, once it is known to decode as a record."""
    QuarantineRecord.from_dict(data)
    return data
