"""The persistent run ledger: an append-only JSONL history of runs.

Every train / check / audit / stats invocation appends one
:class:`LedgerEntry` to ``.encore/ledger.jsonl`` (or ``--ledger PATH``)
recording what the run computed — config fingerprint, dataset
fingerprint, rule-set digest, warning counts by kind, drift summary —
plus how it ran (timings, worker count, metric totals).  The entry
splits into two surfaces:

* the **semantic core** (:meth:`LedgerEntry.core`) is a pure function
  of the inputs: identical corpora and configuration produce
  byte-identical cores regardless of worker count, chunking or
  wall-clock — this is what ``repro ledger diff`` compares and what the
  CI consistency job asserts on;
* the **run metadata** (timestamp, run id, timings, workers) varies per
  invocation and is reported but never diffed for regressions.

The file is JSONL so appends are atomic at line granularity (O_APPEND)
and a truncated final line — a crash mid-append — is skipped on read
instead of poisoning the whole history.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.obs.fileio import append_line, read_jsonl

#: Default ledger location, relative to the working directory.
DEFAULT_LEDGER_PATH = Path(".encore") / "ledger.jsonl"


def fingerprint_payload(payload: object) -> str:
    """SHA-256 over a canonical-JSON rendering of *payload*."""
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class LedgerEntry:
    """One run's record: semantic core + run metadata."""

    command: str
    config_fingerprint: str = ""
    dataset_fingerprint: str = ""
    ruleset_digest: str = ""
    rule_count: int = 0
    training_size: int = 0
    targets_checked: int = 0
    #: warning kind → count, over every target the run checked.
    warning_counts: Dict[str, int] = field(default_factory=dict)
    #: :meth:`repro.obs.model.DriftSummary.to_dict` of the run.
    drift: Dict[str, object] = field(default_factory=dict)
    #: stage → seconds (training telemetry + end-to-end time).
    timing: Dict[str, float] = field(default_factory=dict)
    #: counter/gauge totals by metric name (histograms excluded).
    metrics: Dict[str, float] = field(default_factory=dict)
    workers: int = 1
    #: Quarantine accounting (stage → dropped count, plus ``total``).
    #: Deliberately run *metadata*, not part of :meth:`core`: a
    #: quarantined run that salvaged the clean subset must diff as
    #: semantically identical to a clean run over that same subset.
    quarantine: Dict[str, int] = field(default_factory=dict)
    #: Resource-profile digest of a ``--profile`` run (digest, stage and
    #: shard counts, peak RSS).  Run metadata like timings: resource
    #: consumption varies per invocation and never enters :meth:`core`.
    profile: Dict[str, object] = field(default_factory=dict)
    #: Serve-daemon request context (request id, route, HTTP status) for
    #: per-request entries, so an access-log line joins its ledger entry.
    #: Run metadata: the same logical check diffs clean whether it came
    #: through the CLI or over HTTP.
    request: Dict[str, object] = field(default_factory=dict)
    #: Result-cache provenance of a ``--cache`` run (cache directory,
    #: hit/miss totals).  Run metadata by design: a warm cached run must
    #: diff as semantically identical to the cold run that filled the
    #: cache — that equivalence is exactly what the CI cache-consistency
    #: job asserts through ``ledger diff``.
    cache: Dict[str, object] = field(default_factory=dict)
    #: Alert incidents observed during (or produced by) the run —
    #: :meth:`repro.obs.alerts.Incident.to_dict` records.  Run metadata
    #: like quarantine: whether an SLO alert fired says nothing about
    #: what the rules semantically computed, so incidents never enter
    #: :meth:`core` and a run that paged diffs clean against one that
    #: didn't.
    incidents: List[Dict[str, object]] = field(default_factory=list)
    run_id: str = ""
    timestamp: str = ""

    def __post_init__(self) -> None:
        if not self.timestamp:
            self.timestamp = time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            )
        if not self.run_id:
            salt = f"{self.timestamp}|{os.getpid()}|{time.monotonic_ns()}"
            self.run_id = hashlib.sha256(
                (salt + json.dumps(self.core(), sort_keys=True)).encode()
            ).hexdigest()[:12]

    def core(self) -> Dict[str, object]:
        """The worker-count-invariant surface ``ledger diff`` compares."""
        return {
            "command": self.command,
            "config_fingerprint": self.config_fingerprint,
            "dataset_fingerprint": self.dataset_fingerprint,
            "ruleset_digest": self.ruleset_digest,
            "rule_count": self.rule_count,
            "training_size": self.training_size,
            "targets_checked": self.targets_checked,
            "warning_counts": {
                k: self.warning_counts[k] for k in sorted(self.warning_counts)
            },
            "drift": self.drift,
        }

    def to_dict(self) -> Dict[str, object]:
        out = self.core()
        out.update({
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "workers": self.workers,
            "timing": {k: self.timing[k] for k in sorted(self.timing)},
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "quarantine": {
                k: self.quarantine[k] for k in sorted(self.quarantine)
            },
            "profile": {k: self.profile[k] for k in sorted(self.profile)},
        })
        if self.request:
            out["request"] = {
                k: self.request[k] for k in sorted(self.request)
            }
        if self.cache:
            out["cache"] = {k: self.cache[k] for k in sorted(self.cache)}
        if self.incidents:
            out["incidents"] = [dict(i) for i in self.incidents]
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "LedgerEntry":
        return cls(
            command=str(data.get("command", "")),
            config_fingerprint=str(data.get("config_fingerprint", "")),
            dataset_fingerprint=str(data.get("dataset_fingerprint", "")),
            ruleset_digest=str(data.get("ruleset_digest", "")),
            rule_count=int(data.get("rule_count", 0)),
            training_size=int(data.get("training_size", 0)),
            targets_checked=int(data.get("targets_checked", 0)),
            warning_counts={
                str(k): int(v)
                for k, v in data.get("warning_counts", {}).items()
            },
            drift=dict(data.get("drift", {})),
            timing={
                str(k): float(v) for k, v in data.get("timing", {}).items()
            },
            metrics={
                str(k): float(v) for k, v in data.get("metrics", {}).items()
            },
            workers=int(data.get("workers", 1)),
            quarantine={
                str(k): int(v) for k, v in data.get("quarantine", {}).items()
            },
            profile=dict(data.get("profile", {})),
            request=dict(data.get("request", {})),
            cache=dict(data.get("cache", {})),
            incidents=[dict(i) for i in data.get("incidents", ())],
            run_id=str(data.get("run_id", "")),
            timestamp=str(data.get("timestamp", "")),
        )

    def describe(self) -> str:
        """One-line ``ledger show`` rendering."""
        warnings_total = sum(self.warning_counts.values())
        drifted = len(self.drift.get("drifted", ()))
        line = (
            f"{self.run_id}  {self.timestamp}  {self.command:<7} "
            f"rules={self.rule_count:<4} targets={self.targets_checked:<4} "
            f"warnings={warnings_total:<5} drifted={drifted:<3} "
            f"ruleset={self.ruleset_digest[:12] or '-'} "
            f"workers={self.workers}"
        )
        if self.quarantine.get("total"):
            line += f" quarantined={self.quarantine['total']}"
        if self.request.get("request_id"):
            line += f" req={self.request['request_id']}"
        if self.cache:
            line += (f" cache={self.cache.get('hits', 0)}h/"
                     f"{self.cache.get('misses', 0)}m")
        if self.incidents:
            firing = sum(1 for i in self.incidents
                         if i.get("state") == "firing")
            line += f" incidents={len(self.incidents)}({firing} firing)"
        return line


class Ledger:
    """Append-only JSONL run history."""

    def __init__(self, path: Union[str, Path] = DEFAULT_LEDGER_PATH) -> None:
        self.path = Path(path)
        #: Lines the last :meth:`entries` read skipped as unreadable.
        self.skipped = 0

    def append(self, entry: LedgerEntry) -> LedgerEntry:
        append_line(self.path, json.dumps(entry.to_dict(), sort_keys=True))
        return entry

    def entries(self) -> List[LedgerEntry]:
        """All parseable entries, oldest first.

        A line that is not a JSON object of entry fields (a crash-truncated
        tail, a stray ``[1]``) is skipped and counted in :attr:`skipped`.
        """
        entries, self.skipped = read_jsonl(self.path, LedgerEntry.from_dict)
        return entries

    def last(self, n: int = 10) -> List[LedgerEntry]:
        return self.entries()[-n:]

    def resolve(self, ref: str) -> LedgerEntry:
        """An entry by index (``0``, ``-1``) or run-id prefix."""
        entries = self.entries()
        if not entries:
            raise LookupError(f"ledger {self.path} is empty")
        index_error = None
        try:
            return entries[int(ref)]
        except ValueError:
            pass
        except IndexError:
            # An all-digit run-id prefix ("123456") parses as an index too.
            index_error = (
                f"ledger index {ref} out of range ({len(entries)} entries)"
            )
        matches = [e for e in entries if e.run_id.startswith(ref)]
        if not matches:
            raise LookupError(index_error or f"no ledger entry matches {ref!r}")
        if len(matches) > 1:
            raise LookupError(f"ambiguous ledger ref {ref!r}")
        return matches[0]


@dataclass
class LedgerDiff:
    """Comparison of two runs' semantic cores."""

    a: LedgerEntry
    b: LedgerEntry

    @property
    def ruleset_changed(self) -> bool:
        return self.a.ruleset_digest != self.b.ruleset_digest

    @property
    def dataset_changed(self) -> bool:
        return self.a.dataset_fingerprint != self.b.dataset_fingerprint

    @property
    def config_changed(self) -> bool:
        return self.a.config_fingerprint != self.b.config_fingerprint

    def warning_deltas(self) -> Dict[str, int]:
        """kind → (b − a) count delta, only kinds that changed."""
        kinds = sorted(set(self.a.warning_counts) | set(self.b.warning_counts))
        out: Dict[str, int] = {}
        for kind in kinds:
            delta = (self.b.warning_counts.get(kind, 0)
                     - self.a.warning_counts.get(kind, 0))
            if delta:
                out[kind] = delta
        return out

    def drifted_attributes(self) -> Dict[str, List[str]]:
        """Attributes entering/leaving the drifted set between runs."""
        def names(entry: LedgerEntry) -> set:
            return {d["attribute"] for d in entry.drift.get("drifted", ())}

        before, after = names(self.a), names(self.b)
        return {
            "appeared": sorted(after - before),
            "resolved": sorted(before - after),
        }

    def regressions(self) -> List[str]:
        """Human-readable list of semantic differences (empty = agree)."""
        out: List[str] = []
        if self.config_changed:
            out.append("configuration fingerprint changed")
        if self.dataset_changed:
            out.append("training dataset fingerprint changed")
        if self.ruleset_changed:
            out.append(
                f"rule-set digest changed "
                f"({self.a.ruleset_digest[:12]} -> {self.b.ruleset_digest[:12]}, "
                f"{self.a.rule_count} -> {self.b.rule_count} rules)"
            )
        for kind, delta in self.warning_deltas().items():
            out.append(f"warning count changed: {kind} {delta:+d}")
        drift = self.drifted_attributes()
        for attribute in drift["appeared"]:
            out.append(f"attribute drifted: {attribute}")
        for attribute in drift["resolved"]:
            out.append(f"drift resolved: {attribute}")
        return out

    def identical(self) -> bool:
        """Do the two semantic cores agree byte-for-byte?"""
        return self.a.core() == self.b.core()

    def render(self, drift_limit: int = 10) -> str:
        lines = [
            f"ledger diff: {self.a.run_id} ({self.a.command}, "
            f"workers={self.a.workers}) vs {self.b.run_id} "
            f"({self.b.command}, workers={self.b.workers})"
        ]
        if self.identical():
            lines.append("  semantic cores identical (rule-set digest, "
                         "warning counts, drift all agree)")
        else:
            drift_prefixes = ("attribute drifted:", "drift resolved:")
            items = self.regressions()
            drift_shown = 0
            hidden = 0
            for item in items:
                if item.startswith(drift_prefixes):
                    if drift_shown >= drift_limit:
                        hidden += 1
                        continue
                    drift_shown += 1
                lines.append(f"  {item}")
            if hidden:
                lines.append(f"  ... {hidden} more drift change(s)")
        for key in ("train_seconds", "check_seconds", "run_seconds"):
            if key in self.a.timing and key in self.b.timing:
                lines.append(
                    f"  {key}: {self.a.timing[key]:.3f}s -> "
                    f"{self.b.timing[key]:.3f}s"
                )
        return "\n".join(lines)


def diff_entries(a: LedgerEntry, b: LedgerEntry) -> LedgerDiff:
    return LedgerDiff(a, b)


def metric_totals(registry) -> Dict[str, float]:
    """Counter/gauge totals by name — the compact ledger metrics field."""
    out: Dict[str, float] = {}
    for name in registry.names():
        if registry.kind_of(name) == "histogram":
            continue
        out[name] = float(registry.total(name))
    return out


def default_ledger(path: Optional[Union[str, Path]] = None) -> Ledger:
    return Ledger(path if path is not None else DEFAULT_LEDGER_PATH)
