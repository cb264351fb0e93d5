"""Per-stage and per-shard resource profiles, derived from the span forest.

The metrics layer answers *what the pipeline did* (counters, coverage);
this module answers *where the resources went*.  A profiled run is a
traced run: the CLI's ``--profile`` installs a
:class:`~repro.obs.tracing.Tracer` built with ``resources=True``, and
every span it closes carries three resource attributes beside its wall
time:

* ``cpu_s`` — CPU seconds (``os.times`` user+system of *this* process
  only, so worker CPU is never double-counted: it arrives on the
  workers' own spans);
* ``max_rss_bytes`` — peak RSS (``resource.getrusage`` high-water mark);
* ``alloc_peak_bytes`` — ``tracemalloc`` allocation peak over the span
  (0 unless allocations are traced — see :func:`tracing_allocations`).

Sharded stages need no side channel.  A worker samples too when its
task frame asks, its ``{kind}.shard`` root span carries ``shard``,
``items`` and the resource attributes, and the forest ships back on the
shard result like any traced run's.  :func:`profile_tables` folds the
coordinator roots plus those remote forests into the two tables every
surface reads: ``stages`` (per span name: summed wall/CPU/calls,
maximum peaks) and ``shards`` (one row per worker ``{kind}.shard``
root).

Three export surfaces (see ``docs/observability.md``):

* :func:`profile_document` — the JSON profile document (``--profile``);
* :func:`chrome_trace` — Chrome ``trace_event`` format, loadable in
  ``chrome://tracing`` / Perfetto;
* :func:`render_profile` — the ``repro profile`` text table (top stages
  by wall/CPU/allocation, shard-skew statistics).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Tuple, Union

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None  # type: ignore[assignment]

#: Synthetic pid the coordinator's spans render under in Chrome traces.
COORDINATOR_PID = 1
#: Worker span forests render under ``SHARD_PID_BASE + shard_index`` — a
#: pure function of the shard index, so pids are stable across worker
#: folds and re-exports (the OS pid rides in the forest's ``pid``).
SHARD_PID_BASE = 100


def process_cpu_seconds() -> float:
    """User+system CPU seconds of this process (children excluded).

    Children are deliberately excluded: worker CPU arrives on the
    workers' own spans, so including it here would double count every
    sharded stage.
    """
    times = os.times()
    return times.user + times.system


def max_rss_bytes() -> int:
    """The process' peak resident set size in bytes (0 where unknown)."""
    if _resource is None:
        return 0
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, kilobytes everywhere else.
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


@contextmanager
def tracing_allocations() -> Iterator[None]:
    """Trace allocations for the body; stop only if this call started it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()


# -- the profile tables --------------------------------------------------------


def profile_tables(tracer) -> Dict[str, object]:
    """Fold a sampling tracer's span forest into ``stages`` and ``shards``.

    Every span — coordinator roots and adopted worker forests alike —
    adds its wall time, CPU and one call to its name's ``stages`` row,
    whose peaks are maxima.  A worker forest's ``{kind}.shard`` root
    becomes a ``shards`` row instead (in fold order), so whole-shard
    totals never inflate a stage.
    """
    stages: Dict[str, Dict[str, float]] = {}
    shards: List[Dict[str, object]] = []

    def fold(node: Mapping) -> None:
        attributes = node.get("attributes", {})
        row = stages.setdefault(node["name"], dict.fromkeys(
            ("wall_s", "cpu_s", "calls", "max_rss_bytes", "alloc_peak_bytes"), 0
        ))
        row["wall_s"] += node["dur"]
        row["cpu_s"] += attributes.get("cpu_s", 0.0)
        row["calls"] += 1
        for peak in ("max_rss_bytes", "alloc_peak_bytes"):
            row[peak] = max(row[peak], attributes.get(peak, 0))
        for child in node.get("children", ()):
            fold(child)

    for root in tracer.snapshot()["spans"]:
        fold(root)
    for snapshot in tracer.remote:
        for root in snapshot["spans"]:
            if not root["name"].endswith(".shard"):
                fold(root)
                continue
            attributes = root.get("attributes", {})
            shards.append({
                "stage": root["name"][:-len(".shard")],
                "shard": attributes.get("shard", 0),
                "items": attributes.get("items", 0),
                "wall_s": round(root["dur"], 9),
                "cpu_s": attributes.get("cpu_s", 0.0),
                "max_rss_bytes": attributes.get("max_rss_bytes", 0),
                "pid": snapshot.get("pid", 0),
            })
            for child in root.get("children", ()):
                fold(child)
    for row in stages.values():
        row["wall_s"] = round(row["wall_s"], 9)
        row["cpu_s"] = round(row["cpu_s"], 9)
    return {"stages": dict(sorted(stages.items())), "shards": shards}


def profile_digest(tables: Mapping) -> str:
    """SHA-256 over the canonical :func:`profile_tables` content (ledger key)."""
    blob = json.dumps(dict(tables), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# -- the profile document ------------------------------------------------------


def profile_document(tracer, **meta: object) -> dict:
    """The JSON profile document ``--profile`` writes.

    Bundles the :func:`profile_tables` with the span forest (raw clock
    timestamps, the tracer's epoch↔clock ``anchor``) and the adopted
    worker forests under ``remote_spans``, each with its own anchor, so
    one file feeds all three export surfaces.
    """
    local = tracer.snapshot()
    doc: Dict[str, object] = {
        "meta": {"pid": os.getpid(), **meta},
        "anchor": local["anchor"],
        "spans": local["spans"],
        **profile_tables(tracer),
    }
    if tracer.trace_id:
        doc["trace_id"] = tracer.trace_id
    if tracer.remote:
        doc["remote_spans"] = [dict(snapshot) for snapshot in tracer.remote]
    return doc


def save_profile(doc: Mapping, path: Union[str, Path]) -> Path:
    from repro.obs.fileio import atomic_write_text

    return atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_profile(path: Union[str, Path]) -> dict:
    return json.loads(Path(path).read_text())


# -- Chrome trace_event export -------------------------------------------------


def chrome_trace(doc: Mapping) -> dict:
    """Convert a profile document to Chrome ``trace_event`` JSON.

    Coordinator spans become B/E duration events under
    :data:`COORDINATOR_PID`.  Worker span forests (``remote_spans``)
    render as B/E events under ``SHARD_PID_BASE + shard_index`` —
    deterministic pids, so a profile folded from any number of workers
    (or exported twice) renders identically — re-anchored onto the
    coordinator's clock line via the two epoch↔clock anchor pairs.
    Each forest is linked to its coordinator parent span with a flow
    event pair (``ph: s`` at the parent, ``ph: f`` at the worker root):
    the cross-process parent arrows in the Chrome UI.  Timestamps are
    microseconds from the earliest event.
    """
    spans = doc.get("spans", [])
    remote = doc.get("remote_spans", [])
    anchor = doc.get("anchor", {})

    def remote_clock(snapshot: Mapping, value: float) -> float:
        """Map a worker-clock timestamp onto the coordinator clock line."""
        snap_anchor = snapshot.get("anchor", {})
        if not all(k in snap_anchor for k in ("epoch", "clock")) or \
                not all(k in anchor for k in ("epoch", "clock")):
            return float(value)
        epoch = float(snap_anchor["epoch"]) + (float(value) - float(snap_anchor["clock"]))
        return float(anchor["clock"]) + (epoch - float(anchor["epoch"]))

    # Remote snapshots render in a deterministic order regardless of
    # shard completion order: by shard index, then parent span id.
    remote = sorted(
        remote,
        key=lambda s: (int(s.get("shard", 0)), str(s.get("parent_id", ""))),
    )

    starts: List[float] = []

    def collect_starts(nodes, to_clock=float) -> None:
        for node in nodes:
            starts.append(to_clock(node["ts"]))
            collect_starts(node.get("children", ()), to_clock)

    collect_starts(spans)
    for snapshot in remote:
        collect_starts(
            snapshot.get("spans", ()),
            lambda value, _snap=snapshot: remote_clock(_snap, value),
        )
    origin = min(starts) if starts else 0.0

    def ts_us(value: float) -> int:
        return max(0, int(round((value - origin) * 1_000_000)))

    events: List[dict] = [{
        "ph": "M", "name": "process_name", "pid": COORDINATOR_PID, "tid": 0,
        "args": {"name": "coordinator"},
    }]

    #: Coordinator span index by id — the flow-link anchor points.
    span_index: Dict[str, Mapping] = {}

    def index_spans(nodes) -> None:
        for node in nodes:
            if node.get("span_id"):
                span_index[str(node["span_id"])] = node
            index_spans(node.get("children", ()))

    index_spans(spans)

    def emit_span(node: Mapping, pid: int = COORDINATOR_PID,
                  to_clock=float) -> None:
        start = to_clock(node["ts"])
        args = dict(node.get("attributes", {}))
        if node.get("span_id"):
            args["span_id"] = node["span_id"]
        if node.get("parent_id"):
            args["parent_id"] = node["parent_id"]
        events.append({
            "ph": "B", "name": node["name"], "cat": "stage",
            "pid": pid, "tid": 1, "ts": ts_us(start), "args": args,
        })
        for child in node.get("children", ()):
            emit_span(child, pid, to_clock)
        events.append({
            "ph": "E", "name": node["name"], "cat": "stage",
            "pid": pid, "tid": 1,
            "ts": ts_us(start + float(node["dur"])),
        })

    for root in spans:
        emit_span(root)

    shard_pids = set()
    flow_started = set()
    for snapshot in remote:
        shard = int(snapshot.get("shard", 0))
        pid = SHARD_PID_BASE + shard
        if pid not in shard_pids:
            shard_pids.add(pid)
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": f"shard-{shard}"},
            })
        parent_id = str(snapshot.get("parent_id", ""))
        parent = span_index.get(parent_id)

        def to_clock(value, _snap=snapshot):
            return remote_clock(_snap, float(value))

        for root in snapshot.get("spans", ()):
            emit_span(root, pid, to_clock)
            if parent is None:
                continue
            if parent_id not in flow_started:
                flow_started.add(parent_id)
                events.append({
                    "ph": "s", "name": "trace", "cat": "trace",
                    "id": parent_id, "pid": COORDINATOR_PID, "tid": 1,
                    "ts": ts_us(float(parent["ts"])),
                })
            events.append({
                "ph": "f", "bp": "e", "name": "trace", "cat": "trace",
                "id": parent_id, "pid": pid, "tid": 1,
                "ts": ts_us(to_clock(root["ts"])),
            })

    # Stable sort: metadata events carry no ts (sort as 0); equal stamps
    # keep generation order, preserving B-before-E at zero-width spans.
    events.sort(key=lambda event: event.get("ts", 0))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- text rendering ------------------------------------------------------------


def _wall_quantiles(walls: List[float]) -> "tuple":
    """(p50, p99) of shard wall times via the canonical estimator.

    Builds a histogram whose bucket bounds are the observed values and
    asks :meth:`repro.obs.metrics.Histogram.quantile` — the same
    interpolation the serve SLO summary reports, so every percentile
    this codebase prints comes from one implementation.
    """
    from repro.obs.metrics import Histogram

    bounds = sorted(set(walls))
    histogram = Histogram(bounds)
    for wall in walls:
        histogram.observe(wall)
    return histogram.quantile(0.5), histogram.quantile(0.99)


def _mb(value: object) -> str:
    return f"{float(value or 0) / (1024 * 1024):.1f}"


def render_profile(doc: Mapping, top: int = 10) -> str:
    """The ``repro profile`` table: stage totals, shard skew, span tree.

    When the document carries a span forest the tree is rendered with
    worker span forests (``remote_spans``) grafted under the
    coordinator span that shipped them — one causally-linked tree at
    any worker count.
    """
    stages: Dict[str, Mapping] = dict(doc.get("stages", {}))
    shards: List[Mapping] = list(doc.get("shards", ()))
    out: List[str] = []

    if stages:
        ranked = sorted(
            stages.items(), key=lambda kv: (-float(kv[1].get("wall_s", 0.0)), kv[0])
        )
        out.append(f"per-stage resources (top {min(top, len(ranked))} by wall time)")
        out.append(
            f"  {'stage':<28} {'calls':>6} {'wall(s)':>9} {'cpu(s)':>9} "
            f"{'rss(MB)':>9} {'alloc(MB)':>10}"
        )
        for name, stage in ranked[:top]:
            out.append(
                f"  {name:<28} {int(stage.get('calls', 0)):>6} "
                f"{float(stage.get('wall_s', 0.0)):>9.3f} "
                f"{float(stage.get('cpu_s', 0.0)):>9.3f} "
                f"{_mb(stage.get('max_rss_bytes')):>9} "
                f"{_mb(stage.get('alloc_peak_bytes')):>10}"
            )

        def leader(key: str):
            return max(
                stages.items(), key=lambda kv: (float(kv[1].get(key, 0) or 0), kv[0])
            )

        cpu_name, cpu_stage = leader("cpu_s")
        alloc_name, alloc_stage = leader("alloc_peak_bytes")
        out.append(
            f"  top cpu: {cpu_name} ({float(cpu_stage.get('cpu_s', 0.0)):.3f}s)   "
            f"top alloc: {alloc_name} ({_mb(alloc_stage.get('alloc_peak_bytes'))} MB)"
        )
        out.append("")

    if shards:
        out.append("shard skew")
        by_stage: Dict[str, List[Mapping]] = {}
        for sample in shards:
            by_stage.setdefault(str(sample.get("stage", "shard")), []).append(sample)
        for stage in sorted(by_stage):
            walls = [float(s.get("wall_s", 0.0)) for s in by_stage[stage]]
            cpu_total = sum(float(s.get("cpu_s", 0.0)) for s in by_stage[stage])
            items = sum(int(s.get("items", 0)) for s in by_stage[stage])
            p50, p99 = _wall_quantiles(walls)
            skew = (max(walls) / p50) if p50 > 0 else 0.0
            out.append(
                f"  {stage}: {len(walls)} shard(s), {items} item(s)  "
                f"wall min/p50/p99/max "
                f"{min(walls):.3f}/{p50:.3f}/{p99:.3f}/{max(walls):.3f}s  "
                f"skew {skew:.2f}x  cpu {cpu_total:.3f}s"
            )
        out.append("")

    spans: List[Mapping] = list(doc.get("spans", ()))
    if spans:
        trace_id = str(doc.get("trace_id", ""))
        out.append("span tree" + (f" (trace {trace_id})" if trace_id else ""))
        # Worker forests graft under the coordinator span whose id they
        # named as remote parent (one causally-linked tree); forests
        # whose parent is gone (e.g. a trimmed document) list at root.
        by_parent: Dict[str, List[Tuple[int, Mapping]]] = {}
        for snapshot in sorted(
            doc.get("remote_spans", ()),
            key=lambda s: (int(s.get("shard", 0)), str(s.get("parent_id", ""))),
        ):
            shard = int(snapshot.get("shard", 0))
            parent_id = str(snapshot.get("parent_id", ""))
            for node in snapshot.get("spans", ()):
                by_parent.setdefault(parent_id, []).append((shard, node))
        grafted = set()

        def line(node: Mapping, depth: int, origin: str = "") -> None:
            suffix = f" [{origin}]" if origin else ""
            out.append(
                f"  {'  ' * depth}{node.get('name', '?')}{suffix}  "
                f"{float(node.get('dur', 0.0)):.3f}s"
            )

        def walk_remote(node: Mapping, depth: int, shard: int) -> None:
            line(node, depth, origin=f"shard-{shard}")
            for child in node.get("children", ()):
                walk_remote(child, depth + 1, shard)

        def walk(node: Mapping, depth: int) -> None:
            line(node, depth)
            for child in node.get("children", ()):
                walk(child, depth + 1)
            span_id = str(node.get("span_id", ""))
            if span_id and span_id in by_parent:
                grafted.add(span_id)
                for shard, remote_node in by_parent[span_id]:
                    walk_remote(remote_node, depth + 1, shard)

        for root in spans:
            walk(root, 0)
        for parent_id, forest in by_parent.items():
            if parent_id in grafted:
                continue
            for shard, remote_node in forest:
                walk_remote(remote_node, 0, shard)
        out.append("")

    if not out:
        return "no profile samples recorded\n"
    return "\n".join(out)
