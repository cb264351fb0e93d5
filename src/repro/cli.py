"""Command-line interface for the EnCore reproduction.

Subcommands mirror the usage scenario of the paper (§3: "The user inputs
the training set to EnCore together with the system to be checked"):

* ``generate`` — produce a corpus of synthetic image snapshots (JSON);
* ``train``    — learn rules from a directory of snapshots, save them;
* ``check``    — check one snapshot against a training directory (and
  optionally a saved rule file), print the ranked report;
* ``suggest``  — same as check, plus remediation suggestions;
* ``audit``    — sweep a directory of snapshots and summarise findings;
* ``stats``    — train (and optionally check), then print the per-stage
  timing / coverage telemetry table;
* ``explain``  — answer "why did this warning fire?" for one attribute
  of one target: observed vs. expected values, the environment facts
  consulted, and the violated rule's full training provenance;
* ``ledger``   — show or diff the persistent run ledger;
* ``quarantine`` — list images dropped by the error policy in past runs;
* ``alerts``   — show incidents recorded in the ledger, or validate /
  dry-run an alert rule file (``.encore/alerts.toml``);
* ``watch``    — live terminal view of a running ``repro serve`` daemon
  (polls ``/statusz``, ``/metrics`` and ``/alertz``).

Corpus-scale commands run under an error policy (``--error-policy``,
default ``quarantine``): images that fail to assemble are dropped with
an auditable record instead of failing the run, up to the
``--max-error-rate`` budget.  Exit codes reflect this: 0 = clean run,
3 = succeeded but quarantined images (partial success), 1 = failure
(including an exceeded error budget or a corrupt model snapshot).

Every subcommand accepts the observability options: ``-v``/``-q`` set
the structured-log verbosity, ``--profile [FILE]`` saves the run's span
forest with per-stage and per-shard wall/CPU/RSS tables (render it with
``repro profile``), and ``--metrics FILE`` (``-`` for stdout) dumps the
metrics-registry snapshot.  Model-bearing runs append one entry to the
run ledger (``.encore/ledger.jsonl``; override with ``--ledger FILE``,
suppress with ``--no-ledger``) recording config/dataset fingerprints,
the rule-set digest, warning counts and the drift summary — compare
runs with ``repro ledger diff``.

Example::

    python -m repro generate --out corpus/ --count 60 --seed 7
    python -m repro train --training corpus/ --rules rules.json
    python -m repro check --training corpus/ --target corpus/ami-070000.json
    python -m repro stats --training corpus/ --profile profile.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.detector import count_kinds
from repro.core.pipeline import EnCore, EnCoreConfig
from repro.corpus.generator import Ec2CorpusGenerator
from repro.corpus.private_cloud import PrivateCloudGenerator
from repro.obs import configure as configure_logging
from repro.obs import get_logger, get_registry, render_stats, reset_registry
from repro.obs.tracing import Tracer, get_tracer, set_tracer
from repro.sysmodel.image import SystemImage
from repro.sysmodel.snapshot import ImageCorruptError, load_image, save_image

log = get_logger("cli")

#: Where ``--profile`` without an argument writes the profile document.
DEFAULT_PROFILE_PATH = ".encore/profile.json"

#: Where ``--alerts`` without an argument looks for alert rules.
DEFAULT_ALERTS_PATH = ".encore/alerts.toml"

#: Where the always-on flight recorder's dump lands at run end (and
#: where ``repro doctor`` picks it up when no process is live).
DEFAULT_FLIGHT_PATH = ".encore/flight.json"

#: Commands that run the detection pipeline and therefore fly with the
#: always-on flight recorder (serve installs its own).
FLIGHT_COMMANDS = (
    "generate", "train", "check", "suggest", "audit", "stats", "explain",
)


def _load_corpus(directory: Optional[Path]) -> List[SystemImage]:
    if directory is None:
        raise SystemExit("--training is required (or pass --model)")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise SystemExit(f"no snapshots (*.json) found in {directory}")
    return [load_image(path) for path in paths]


def _build_encore(args: argparse.Namespace) -> EnCore:
    customization = None
    if getattr(args, "customize", None):
        customization = Path(args.customize).read_text()
    config = EnCoreConfig(
        min_support_fraction=args.min_support,
        min_confidence=args.min_confidence,
        use_entropy_filter=not args.no_entropy,
        customization_text=customization,
        error_policy=getattr(args, "error_policy", "quarantine"),
        max_error_rate=getattr(args, "max_error_rate", 0.10),
    )
    encore = EnCore(config)
    _attach_cache(args, encore)
    return encore


def _attach_cache(args: argparse.Namespace, encore: EnCore) -> None:
    """Attach the content-addressed result cache when ``--cache`` is on.

    Off by default: caching is opt-in per invocation, and ``--no-cache``
    wins over ``--cache`` so wrapper scripts can force a cold run.
    """
    if getattr(args, "no_cache", False) or not getattr(args, "cache", None):
        return
    from repro.engine.cache import ResultCache

    encore.set_cache(ResultCache(Path(args.cache)))
    log.info("cache.attached", dir=str(args.cache))


def _workers(args: argparse.Namespace) -> int:
    return max(1, getattr(args, "workers", 1) or 1)


def _chunk_size(args: argparse.Namespace) -> Optional[int]:
    return getattr(args, "chunk_size", None)


def _record_ledger(
    args: argparse.Namespace,
    encore: EnCore,
    command: str,
    targets_checked: int = 0,
    warning_counts: Optional[Dict[str, int]] = None,
):
    """Append this run to the run ledger (unless ``--no-ledger``)."""
    if getattr(args, "no_ledger", False) or encore.model is None:
        return None
    from repro.obs.ledger import (
        LedgerEntry, default_ledger, fingerprint_payload, metric_totals,
    )

    model = encore.model
    drift: Dict[str, object] = {}
    if encore.drift is not None and encore.drift.targets:
        drift = encore.drift.summary().to_dict()
    timing = {k: round(v, 6) for k, v in model.telemetry.items()}
    started = getattr(args, "_run_started", None)
    if started is not None:
        timing["run_seconds"] = round(time.monotonic() - started, 6)
    quarantine_meta: Dict[str, int] = {}
    if encore.quarantine.dropped:
        quarantine_meta = dict(encore.quarantine.counts_by_stage())
        quarantine_meta["total"] = encore.quarantine.dropped
    from repro.obs.profile import profile_digest, profile_tables

    profile_meta: Dict[str, object] = {}
    tracer = get_tracer()
    if tracer is not None:
        tables = profile_tables(tracer)
        rows = [*tables["stages"].values(), *tables["shards"]]
        if rows:
            profile_meta = {
                "digest": profile_digest(tables),
                "stages": len(tables["stages"]),
                "shards": len(tables["shards"]),
                "max_rss_bytes": max(int(row["max_rss_bytes"]) for row in rows),
            }
    from repro.obs.health import get_monitor

    incidents_meta: List[Dict[str, object]] = []
    monitor = get_monitor()
    if monitor is not None:
        # Final tick so state at run end (including resolves) is current,
        # then record every incident the run produced, open or closed.
        monitor.tick()
        with monitor.lock:
            incidents_meta = (
                [i.to_dict() for i in monitor.engine.firing_incidents()]
                + [i.to_dict() for i in monitor.engine.resolved]
            )
    totals = metric_totals(get_registry())
    cache_meta: Dict[str, object] = {}
    if getattr(encore, "cache", None) is not None:
        cache_meta = {
            "dir": str(getattr(encore.cache, "root", "") or ""),
            "hits": int(totals.get("cache.hit.total", 0)),
            "misses": int(totals.get("cache.miss.total", 0)),
        }
    entry = LedgerEntry(
        command=command,
        config_fingerprint=fingerprint_payload(encore.worker_config().to_dict()),
        dataset_fingerprint=model.corpus_fingerprint(),
        ruleset_digest=model.ruleset_digest(),
        rule_count=model.rule_count,
        training_size=len(model.dataset),
        targets_checked=targets_checked,
        warning_counts=dict(warning_counts or {}),
        drift=drift,
        timing=timing,
        metrics=totals,
        workers=_workers(args),
        quarantine=quarantine_meta,
        profile=profile_meta,
        cache=cache_meta,
        incidents=incidents_meta,
    )
    ledger = default_ledger(getattr(args, "ledger", None))
    ledger.append(entry)
    log.info("ledger.recorded", run_id=entry.run_id, path=str(ledger.path))
    return entry


def _finish_quarantine(
    args: argparse.Namespace,
    encore: EnCore,
    command: str,
    entry=None,
    base: int = 0,
) -> int:
    """Persist and summarise this run's quarantine; compute the exit code.

    Records go to the quarantine log (``--quarantine FILE``, default
    ``.encore/quarantine.jsonl``) stamped with the run-ledger id so
    ``repro quarantine show`` can group them by run.  A run that
    otherwise succeeded (*base* 0) but dropped images under the
    ``quarantine`` policy exits 3 — partial success, scriptable; any
    non-zero *base* (warnings found, for ``check``) wins over that.
    """
    quarantine = encore.quarantine
    if not quarantine.dropped:
        return base
    if quarantine.records:
        from repro.core.resilience import DEFAULT_QUARANTINE_PATH, QuarantineLog

        qlog = QuarantineLog(getattr(args, "quarantine", None)
                             or DEFAULT_QUARANTINE_PATH)
        qlog.append(quarantine.records,
                    run_id=entry.run_id if entry is not None else "",
                    command=command)
        log.info("quarantine.recorded", count=len(quarantine.records),
                 path=str(qlog.path))
        print(f"\n{quarantine.render()}", file=sys.stderr)
        print(f"quarantine log: {qlog.path}", file=sys.stderr)
    else:
        print(f"\nskipped {quarantine.dropped} unassemblable image(s) "
              "(--error-policy skip)", file=sys.stderr)
    if base == 0 and quarantine.records:
        return 3
    return base


def _drift_warnings(encore: EnCore) -> Optional[str]:
    """The drift section to print after checking, None when quiet."""
    if encore.drift is None or not encore.drift.targets:
        return None
    summary = encore.drift.summary()
    if not summary.drifted and not summary.new_attributes:
        return None
    return summary.render()


def _train(args: argparse.Namespace, encore: EnCore) -> None:
    images = _load_corpus(Path(args.training) if args.training else None)
    model = encore.train(images, workers=_workers(args), chunk_size=_chunk_size(args))
    summary = model.summary()
    log.info(
        "model.trained",
        systems=summary["training_systems"],
        attributes=summary["attributes"],
        rules=summary["rules"],
        candidate_pairs=summary["candidate_pairs"],
        workers=_workers(args),
        infer_seconds=round(model.telemetry.get("infer_seconds", 0.0), 3),
    )
    print(
        f"trained on {summary['training_systems']} systems: "
        f"{summary['attributes']} attributes, {summary['rules']} rules"
    )


# -- subcommands ----------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cls = PrivateCloudGenerator if args.population == "private-cloud" else Ec2CorpusGenerator
    generator = cls(seed=args.seed)
    for image in generator.generate(args.count):
        save_image(image, out / f"{image.image_id}.json")
    print(f"wrote {args.count} snapshots to {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    encore = _build_encore(args)
    _train(args, encore)
    if args.rules:
        encore.save_rules(args.rules)
        log.info("rules.saved", path=args.rules)
        print(f"rules saved to {args.rules}")
    if args.model:
        encore.save_model(args.model)
        log.info("model.saved", path=args.model)
        print(f"model snapshot saved to {args.model}")
    entry = _record_ledger(args, encore, "train")
    return _finish_quarantine(args, encore, "train", entry)


def cmd_check(args: argparse.Namespace) -> int:
    encore = _build_encore(args)
    if args.model:
        # A model snapshot replaces training entirely: the checking side
        # needs no corpus ("the learned rules can be reused", paper S3).
        encore.load_model(args.model)
        log.info("model.loaded", path=args.model)
        print(f"model snapshot loaded from {args.model}")
    else:
        _train(args, encore)
        if args.rules:
            encore.load_rules(args.rules)
            log.info("rules.loaded", path=args.rules)
            print(f"rules loaded from {args.rules}")
    target = load_image(Path(args.target))
    report = encore.check(target)
    if args.json:
        import json as _json

        print(_json.dumps(report.to_dict(), indent=1))
    else:
        print()
        print(report.render(limit=args.limit))
        drift = _drift_warnings(encore)
        if drift:
            print()
            print(drift)
    entry = _record_ledger(args, encore, "check", targets_checked=1,
                           warning_counts=count_kinds(report.warnings))
    base = 0 if not report.warnings else 1
    return _finish_quarantine(args, encore, "check", entry, base=base)


def cmd_suggest(args: argparse.Namespace) -> int:
    encore = _build_encore(args)
    _train(args, encore)
    report, suggestions = encore.suggest(load_image(Path(args.target)))
    print(report.render(limit=args.limit))
    entry = _record_ledger(args, encore, "suggest", targets_checked=1,
                           warning_counts=count_kinds(report.warnings))
    if not suggestions:
        print("\nno remediation suggestions (clean system)")
        return _finish_quarantine(args, encore, "suggest", entry)
    print("\nremediation suggestions:")
    for suggestion in suggestions[: args.limit]:
        print(f"  {suggestion}")
        if suggestion.rationale:
            print(f"      rationale: {suggestion.rationale}")
    return _finish_quarantine(args, encore, "suggest", entry, base=1)


def cmd_audit(args: argparse.Namespace) -> int:
    encore = _build_encore(args)
    _train(args, encore)
    targets = _load_corpus(Path(args.targets))
    flagged = 0
    # Reports stream back in input order as worker shards complete, so a
    # long audit prints findings while later targets are still checking.
    stream = encore.check_stream(
        targets, workers=_workers(args), chunk_size=_chunk_size(args)
    )
    warning_counts: Dict[str, int] = {}
    for report in stream:
        count_kinds(report.warnings, warning_counts)
        if report.warnings:
            flagged += 1
            top = report.warnings[0]
            print(f"{report.image_id}: {len(report.warnings)} warning(s); "
                  f"top: {top}")
        elif args.verbose:
            print(f"{report.image_id}: clean")
    print(f"\naudit complete: {flagged}/{len(targets)} systems flagged")
    drift = _drift_warnings(encore)
    if drift:
        print(drift)
    entry = _record_ledger(args, encore, "audit", targets_checked=len(targets),
                           warning_counts=warning_counts)
    return _finish_quarantine(args, encore, "audit", entry)


def cmd_stats(args: argparse.Namespace) -> int:
    """Train (and optionally check targets), then print the telemetry table."""
    encore = _build_encore(args)
    _train(args, encore)
    warning_counts: Dict[str, int] = {}
    targets_checked = 0
    if args.targets:
        stream = encore.check_stream(
            _load_corpus(Path(args.targets)),
            workers=_workers(args), chunk_size=_chunk_size(args),
        )
        for report in stream:
            targets_checked += 1
            count_kinds(report.warnings, warning_counts)
            log.debug("target.checked", image=report.image_id,
                      warnings=len(report.warnings))
    if encore.drift is not None and encore.drift.targets:
        # Sets the drift.psi.max / drift.attributes.drifted gauges so the
        # telemetry table below includes the drift roll-up.
        encore.drift.summary()
    registry = get_registry()
    if args.format == "json":
        print(registry.to_json())
    elif args.format == "prometheus":
        print(registry.to_prometheus(), end="")
    else:
        print()
        print(render_stats(registry), end="")
        drift = _drift_warnings(encore)
        if drift:
            print(drift)
        if encore.quarantine.records:
            print()
            print(encore.quarantine.render())
    entry = _record_ledger(args, encore, "stats", targets_checked=targets_checked,
                           warning_counts=warning_counts)
    return _finish_quarantine(args, encore, "stats", entry)


def cmd_explain(args: argparse.Namespace) -> int:
    """Answer "why did this warning fire?" for one target attribute."""
    encore = _build_encore(args)
    if args.model:
        encore.load_model(args.model)
        log.info("model.loaded", path=args.model)
    else:
        _train(args, encore)
        if args.rules:
            encore.load_rules(args.rules)
            log.info("rules.loaded", path=args.rules)
    target = load_image(Path(args.image))
    report = encore.check(target)
    matches = report.warnings_for_attribute(args.attribute)
    if not matches:
        print(
            f"no warning fired on {args.attribute!r} for {target.image_id} "
            f"({len(report.warnings)} warning(s) on other attributes)"
        )
        return 1
    print(
        f"{len(matches)} warning(s) on {args.attribute!r} for "
        f"{target.image_id}:"
    )
    for rank, warning in matches:
        print()
        print(f"rank {rank}/{len(report.warnings)}: {warning}")
        if warning.evidence:
            print(f"  evidence: {warning.evidence}")
        if warning.explanation:
            explanation = warning.explanation
            if explanation.observed is not None:
                print(f"  observed: {explanation.observed!r}")
            if explanation.expected:
                print(f"  expected: {explanation.expected}")
            for fact_attribute, fact_value in explanation.environment:
                print(f"  fact: {fact_attribute} = {fact_value!r}")
        provenance = warning.rule.provenance if warning.rule else None
        if provenance is not None:
            print(f"  rule provenance [{provenance.digest()}]:")
            print(f"    {provenance.describe()}")
            if provenance.contributing_images:
                shown = list(provenance.contributing_images[:5])
                extra = len(provenance.contributing_images) - len(shown)
                listed = ", ".join(shown) + (f" (+{extra} more)" if extra else "")
                print(f"    contributing images: {listed}")
    return 0


def _report_skipped(log_file) -> None:
    """Name on stderr the lines a JSONL log read had to skip."""
    if log_file.skipped:
        print(f"skipped {log_file.skipped} unreadable line(s) in "
              f"{log_file.path}", file=sys.stderr)


def cmd_ledger(args: argparse.Namespace) -> int:
    """Show or diff the persistent run ledger."""
    from repro.obs.ledger import default_ledger, diff_entries

    ledger = default_ledger(getattr(args, "ledger", None))
    if args.action == "show":
        entries = ledger.last(args.last)
        _report_skipped(ledger)
        if not entries:
            print(f"ledger {ledger.path} is empty")
            return 0
        for entry in entries:
            print(entry.describe())
        return 0
    # diff: two refs (index or run-id prefix); default last two entries.
    refs = list(args.refs) or ["-2", "-1"]
    if len(refs) != 2:
        raise SystemExit("ledger diff takes exactly two refs (or none)")
    try:
        a, b = ledger.resolve(refs[0]), ledger.resolve(refs[1])
    except LookupError as exc:
        raise SystemExit(str(exc))
    diff = diff_entries(a, b)
    print(diff.render())
    # Exit 1 on semantic disagreement — what the CI consistency job keys on.
    return 0 if diff.identical() else 1


def cmd_profile(args: argparse.Namespace) -> int:
    """Render a saved profile document (table, JSON, or Chrome trace)."""
    import json as _json

    from repro.obs.profile import chrome_trace, load_profile, render_profile

    path = Path(args.path)
    if not path.exists():
        raise SystemExit(
            f"no profile document at {path} "
            "(record one with --profile on train/check/audit)"
        )
    try:
        doc = load_profile(path)
        if not isinstance(doc, dict):
            raise TypeError(f"top level is {type(doc).__name__}, not an object")
        if args.format == "json":
            rendered = _json.dumps(doc, indent=1, sort_keys=True) + "\n"
        elif args.format == "chrome":
            rendered = _json.dumps(chrome_trace(doc)) + "\n"
        else:
            rendered = render_profile(doc, top=args.top)
    except (TypeError, ValueError, AttributeError, KeyError) as exc:
        raise SystemExit(f"corrupt profile document {path}: {exc}")
    if args.format == "chrome" and args.out:
        from repro.obs.fileio import atomic_write_text

        atomic_write_text(args.out, rendered)
        print(f"chrome trace written to {args.out} "
              "(load in chrome://tracing or https://ui.perfetto.dev)")
    else:
        print(rendered, end="")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP detection service (see docs/serving.md)."""
    import signal
    import threading

    from repro.core.persistence import SnapshotCorruptError
    from repro.serve.server import DetectionServer, ServeConfig

    customization = None
    if getattr(args, "customize", None):
        customization = Path(args.customize).read_text()
    encore_config = EnCoreConfig(
        customization_text=customization,
        error_policy=getattr(args, "error_policy", "quarantine"),
        max_error_rate=getattr(args, "max_error_rate", 0.10),
    )
    try:
        config = ServeConfig(
            snapshot=args.snapshot,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            queue_timeout_s=args.queue_timeout,
            batch_workers=_workers(args),
            batch_chunk_size=_chunk_size(args),
            reload_poll_s=args.reload,
            ledger_path=getattr(args, "ledger", None),
            no_ledger=getattr(args, "no_ledger", False),
            record_requests=not args.no_request_ledger,
            cache_dir=(
                None if getattr(args, "no_cache", False)
                else getattr(args, "cache", None)
            ),
            alerts_path=getattr(args, "alerts", None),
            alerts_interval_s=getattr(args, "alerts_interval", 5.0),
            encore=encore_config,
        )
        server = DetectionServer(config)
    except SnapshotCorruptError:
        raise  # main() turns this into a clean exit-1 message
    except ValueError as exc:
        raise SystemExit(str(exc))

    def _shutdown(signum: int, frame: object) -> None:
        # shutdown() blocks until serve_forever() exits, so it must not
        # run on the serving thread the signal interrupted.
        threading.Thread(target=server.stop, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    if hasattr(signal, "SIGHUP"):
        signal.signal(
            signal.SIGHUP, lambda signum, frame: server.request_reload()
        )
    server.start_watcher()
    print(f"serving on http://{config.host}:{server.server_port} "
          f"(snapshot {args.snapshot}; SIGHUP reloads, SIGTERM stops)")
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
    return 0


def cmd_quarantine(args: argparse.Namespace) -> int:
    """List images the error policy dropped in past runs."""
    from repro.core.resilience import (
        DEFAULT_QUARANTINE_PATH, QuarantineLog, QuarantineRecord,
    )

    qlog = QuarantineLog(getattr(args, "quarantine", None)
                         or DEFAULT_QUARANTINE_PATH)
    if args.all:
        entries = qlog.entries()[-args.last:]
    else:
        entries = qlog.last_run()
    _report_skipped(qlog)
    if not entries:
        print(f"quarantine log {qlog.path} is empty")
        return 0
    if not args.all:
        head = entries[0]
        print(f"run {head.get('run_id') or '-'} "
              f"({head.get('command') or '-'}): "
              f"{len(entries)} quarantined image(s)")
    for data in entries:
        record = QuarantineRecord.from_dict(data)
        prefix = f"{str(data.get('run_id') or '-'):<12}  " if args.all else "  "
        print(f"{prefix}{record.describe()}")
    return 0


def cmd_alerts(args: argparse.Namespace) -> int:
    """Show recorded incidents, or validate / dry-run a rule file."""
    import json as _json

    from repro.obs.alerts import AlertConfigError, load_rules

    if args.action == "show":
        from repro.obs.ledger import default_ledger

        ledger = default_ledger(getattr(args, "ledger", None))
        rows: List[Dict[str, object]] = []
        for entry in ledger.entries():
            for incident in entry.incidents:
                row = dict(incident)
                row["run_id"] = entry.run_id
                row["timestamp"] = entry.timestamp
                rows.append(row)
        rows = rows[-args.last:]
        if not rows:
            print(f"no incidents recorded in {ledger.path}")
            return 0
        if args.json:
            print(_json.dumps(rows, indent=1, sort_keys=True))
            return 0
        for row in rows:
            value = row.get("value")
            shown = "n/a" if value is None else f"{float(value):.4g}"
            print(f"{str(row['run_id']):<12}  {str(row['timestamp']):<21} "
                  f"[{row.get('severity', '?')}] {row.get('rule', '?')} "
                  f"({row.get('kind', '?')}) {row.get('state', '?')} "
                  f"value={shown}")
        return 0

    # action == "check": validate the file; with --metrics, dry-run it.
    try:
        rules = load_rules(args.rules_file)
    except AlertConfigError as exc:
        print(f"invalid alert rules: {exc}", file=sys.stderr)
        return 1
    print(f"{args.rules_file}: {len(rules)} rule(s) valid")
    for rule in rules:
        print(f"  {rule.name}: kind={rule.kind} severity={rule.severity} "
              f"window={rule.window_s:g}s for={rule.for_s:g}s")
    if not getattr(args, "metrics_snapshot", None):
        return 0
    # Dry-run against a saved metrics snapshot (--metrics FILE from any
    # run): one monitor tick, so instantaneous stats (gauge value) evaluate
    # for real while windowed stats report no-data — still enough to
    # catch a rule that would page the moment a daemon boots.
    from repro.obs.health import HealthMonitor
    from repro.obs.metrics import MetricsRegistry

    try:
        data = _json.loads(Path(args.metrics_snapshot).read_text())
        registry = MetricsRegistry.from_dict(data)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read metrics snapshot: {exc}", file=sys.stderr)
        return 1
    for rule in rules:
        rule.for_s = 0.0  # fire immediately in the dry run
    transitions = HealthMonitor(rules, registry=registry).tick()
    fired = [i for event, i in transitions if event == "fired"]
    if not fired:
        print("dry run: no rule fires against this snapshot")
        return 0
    print(f"dry run: {len(fired)} rule(s) would fire:")
    for incident in fired:
        print(f"  {incident.describe()}")
    return 2


def _fetch_json(url: str, timeout: float = 5.0):
    import json as _json
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout) as response:  # noqa: S310 - local daemon
        return _json.loads(response.read().decode())


def _fetch_text(url: str, timeout: float = 5.0) -> str:
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout) as response:  # noqa: S310 - local daemon
        return response.read().decode()


def _watch_frame(base: str) -> str:
    """One rendering of a daemon's live health (metrics + alerts)."""
    import re

    lines: List[str] = []
    statusz = _fetch_json(f"{base}/statusz")
    alertz = _fetch_json(f"{base}/alertz")
    snapshot = statusz.get("snapshot", {})
    admission = statusz.get("admission", {})
    lines.append(
        f"{base}  up {statusz.get('uptime_s', 0):.0f}s  "
        f"ruleset={str(snapshot.get('ruleset_digest', ''))[:12]}  "
        f"gen={snapshot.get('generation', '?')}  "
        f"requests={statusz.get('requests_total', 0)}  "
        f"inflight={admission.get('inflight', 0)}/"
        f"{admission.get('max_inflight', '?')}  "
        f"shed={admission.get('shed_total', 0)}"
    )
    slo = statusz.get("slo", {})
    for route in sorted(slo):
        row = slo[route]
        p99 = row.get("p99_ms")
        p99_str = "-" if p99 is None else f"{p99:.1f}ms"
        p50 = row.get("p50_ms")
        p50_str = "-" if p50 is None else f"{p50:.1f}ms"
        lines.append(f"  {route:<14} n={row.get('count', 0):<6} "
                     f"p50={p50_str:<9} p99={p99_str}")
    metrics_text = _fetch_text(f"{base}/metrics")
    error_total = 0.0
    for match in re.finditer(
        r'^serve_requests_total\{([^}]*)\}\s+([0-9.eE+-]+)', metrics_text, re.M
    ):
        if re.search(r'status="[45]', match.group(1)):
            error_total += float(match.group(2))
    lines.append(f"  errors(4xx/5xx)={error_total:g}  "
                 f"timeline: {alertz.get('timeline', {}).get('samples', 0)} "
                 f"samples / {alertz.get('timeline', {}).get('series', 0)} series")
    firing = alertz.get("firing", [])
    if firing:
        lines.append(f"  ALERTS FIRING ({len(firing)}):")
        for incident in firing:
            lines.append(
                f"    [{incident.get('severity')}] {incident.get('rule')} "
                f"value={incident.get('value')} "
                f"threshold={incident.get('threshold')}"
            )
    else:
        rules = alertz.get("rules", [])
        lines.append(f"  alerts: none firing ({len(rules)} rule(s), "
                     f"{alertz.get('evaluations', 0)} evaluations)")
    return "\n".join(lines)


def cmd_watch(args: argparse.Namespace) -> int:
    """Live terminal view of a running daemon's health and alerts.

    A watch session must survive the daemon it watches: when a poll
    fails with connection-refused/reset (a restart, a deploy), the loop
    prints a ``reconnecting`` status line and retries with exponential
    backoff (capped at 30s) instead of dying with a traceback.
    ``--once`` keeps the old hard-failure contract for scripts, and
    ``--max-retries N`` bounds the patience for tests and CI.
    """
    from urllib.error import URLError

    base = args.url.rstrip("/")
    if not base.startswith("http"):
        base = f"http://{base}"
    failures = 0
    while True:
        try:
            frame = _watch_frame(base)
        except (URLError, OSError, ValueError) as exc:
            if args.once:
                print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
                return 1
            failures += 1
            retries = getattr(args, "max_retries", None)
            if retries is not None and failures > retries:
                print(f"error: cannot reach {base} after {failures} "
                      f"attempt(s): {exc}", file=sys.stderr)
                return 1
            delay = min(max(args.interval, 0.1) * (2 ** min(failures - 1, 4)),
                        30.0)
            print(f"reconnecting to {base} "
                  f"(attempt {failures}, retry in {delay:g}s)",
                  file=sys.stderr, flush=True)
            try:
                time.sleep(delay)
            except KeyboardInterrupt:
                return 0
            continue
        failures = 0
        print(frame, flush=True)
        if args.once:
            return 0
        print()
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    """Build (or validate) a redacted diagnostic bundle."""
    from repro.obs.doctor import (
        DEFAULT_BUNDLE_PATH,
        DoctorError,
        build_bundle,
        check_bundle,
    )

    if args.action == "check":
        target = args.path or DEFAULT_BUNDLE_PATH
        try:
            report = check_bundle(target)
        except DoctorError as exc:
            print(f"bundle check failed: {exc}", file=sys.stderr)
            return 1
        print(f"{report['path']}: ok — {report['verified']} member(s) "
              f"verified (created {report['created_at']})")
        for name in report["members"]:
            print(f"  {name}")
        return 0

    fetch = None
    if getattr(args, "url", None):
        base = args.url.rstrip("/")
        if not base.startswith("http"):
            base = f"http://{base}"

        def fetch(route: str, _base: str = base):
            return _fetch_json(f"{_base}/{route}")

    out = args.path or DEFAULT_BUNDLE_PATH
    try:
        path, manifest = build_bundle(
            out,
            state_dir=args.state_dir,
            snapshot=getattr(args, "snapshot", None),
            tail=args.tail,
            fetch=fetch,
        )
    except (DoctorError, OSError) as exc:
        print(f"error: cannot build bundle: {exc}", file=sys.stderr)
        return 1
    members = manifest["members"]
    log.info("doctor.bundled", path=str(path), members=len(members))
    print(f"wrote {path} ({len(members)} member(s)):")
    for name, meta in sorted(members.items()):
        print(f"  {name:<22} {meta['bytes']:>8} bytes "
              f"sha256={str(meta['sha256'])[:12]}")
    print(f"verify with: repro doctor check {path}")
    return 0


# -- argument parsing -------------------------------------------------------------


def _add_obs_options(parser: argparse.ArgumentParser,
                     alerts: bool = True) -> None:
    """Observability flags; *alerts* only where a run can use them.

    ``--alerts`` needs an engine fold loop (or the serve daemon) to tick
    the monitor.
    """
    group = parser.add_argument_group("observability")
    group.add_argument("-v", "--verbose", action="count", default=0,
                       help="increase log verbosity (-v info, -vv debug)")
    group.add_argument("-q", "--quiet", action="store_true",
                       help="errors only")
    group.add_argument("--log-json", action="store_true",
                       help="emit logs as JSON lines instead of key=value")
    group.add_argument("--metrics", metavar="FILE",
                       help="write the metrics snapshot as JSON ('-' for stdout)")
    group.add_argument("--profile", metavar="FILE", nargs="?",
                       const=DEFAULT_PROFILE_PATH,
                       help="trace this run and write its span forest with "
                            "per-stage and per-shard wall/CPU/RSS tables "
                            "here (default: "
                            f"{DEFAULT_PROFILE_PATH}; render it with "
                            "'repro profile'; PYTHONTRACEMALLOC=1 adds "
                            "allocation peaks)")
    group.add_argument("--ledger", metavar="FILE",
                       help="run-ledger path (default: .encore/ledger.jsonl)")
    group.add_argument("--no-ledger", action="store_true",
                       help="do not append this run to the run ledger")
    group.add_argument("--quarantine", metavar="FILE",
                       help="quarantine-log path "
                            "(default: .encore/quarantine.jsonl)")
    if alerts:
        group.add_argument("--alerts", metavar="FILE", nargs="?",
                           const=DEFAULT_ALERTS_PATH,
                           help="evaluate alert rules from this TOML file "
                                "during the run (sampling the metrics "
                                "registry on a bounded timeline); incidents "
                                "land in the run ledger (default file: "
                                f"{DEFAULT_ALERTS_PATH})")
        group.add_argument("--alerts-interval", type=float, default=5.0,
                           metavar="S",
                           help="seconds between timeline samples / rule "
                                "evaluations (default: 5)")


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--training",
                        help="directory of training snapshots (*.json); "
                             "required unless --model is given")
    parser.add_argument("--min-support", type=float, default=0.10,
                        help="support threshold as a fraction of images")
    parser.add_argument("--min-confidence", type=float, default=0.90)
    parser.add_argument("--no-entropy", action="store_true",
                        help="disable the entropy filter")
    parser.add_argument("--customize", help="Figure 6 customization file")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for corpus assembly and batch "
                             "checking (1 = serial; results are identical at "
                             "any worker count)")
    parser.add_argument("--chunk-size", type=int, default=None, metavar="M",
                        help="images per worker shard (default: computed "
                             "from the corpus size and worker count)")
    parser.add_argument("--error-policy",
                        choices=["strict", "quarantine", "skip"],
                        default="quarantine",
                        help="per-image failure handling on corpus paths: "
                             "strict fails the run on the first bad image, "
                             "quarantine (default) drops it with an auditable "
                             "record, skip drops it silently")
    parser.add_argument("--max-error-rate", type=float, default=0.10,
                        metavar="R",
                        help="abort when more than this fraction of the "
                             "corpus is dropped (default: 0.10; ignored "
                             "under --error-policy strict)")
    _add_cache_options(parser)


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    from repro.engine.cache import DEFAULT_CACHE_DIR

    parser.add_argument("--cache", metavar="DIR", nargs="?",
                        const=DEFAULT_CACHE_DIR, default=None,
                        help="content-addressed result cache: unchanged "
                             "(config, image) pairs skip parse → type → "
                             "augment on re-runs; results are identical "
                             "either way (default dir: "
                             f"{DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="force a cold run even when --cache is given")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EnCore (ASPLOS 2014) misconfiguration detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic corpus")
    _add_obs_options(p, alerts=False)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--population", choices=["ec2", "private-cloud"], default="ec2")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="learn rules from a training directory")
    _add_obs_options(p)
    _add_model_options(p)
    p.add_argument("--rules", help="write learned rules to this JSON file")
    p.add_argument("--model", help="write a full model snapshot (stats + rules)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("check", help="check one target snapshot")
    _add_obs_options(p)
    _add_model_options(p)
    p.add_argument("--target", required=True, help="target snapshot (.json)")
    p.add_argument("--rules", help="load rules from this JSON file instead")
    p.add_argument("--model", help="load a full model snapshot (skips training)")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("suggest", help="check + remediation suggestions")
    _add_obs_options(p)
    _add_model_options(p)
    p.add_argument("--target", required=True)
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=cmd_suggest)

    p = sub.add_parser("audit", help="sweep a directory of snapshots")
    _add_obs_options(p)
    _add_model_options(p)
    p.add_argument("--targets", required=True,
                   help="directory of snapshots to audit")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "stats", help="train (and optionally check) and print telemetry"
    )
    _add_obs_options(p)
    _add_model_options(p)
    p.add_argument("--targets", help="also check every snapshot in this directory")
    p.add_argument("--format", choices=["table", "json", "prometheus"],
                   default="table",
                   help="telemetry output format (default: table)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "explain",
        help="explain why warnings fired on one attribute of one target",
    )
    _add_obs_options(p)
    _add_model_options(p)
    p.add_argument("image", help="target snapshot (.json)")
    p.add_argument("attribute",
                   help="attribute (or entry-name tail) to explain")
    p.add_argument("--rules", help="load rules from this JSON file instead")
    p.add_argument("--model", help="load a full model snapshot (skips training)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("ledger", help="show or diff the run ledger")
    _add_obs_options(p, alerts=False)
    p.add_argument("action", choices=["show", "diff"])
    p.add_argument("refs", nargs="*",
                   help="for diff: two entry refs, each an index (0, -1, ...) "
                        "or a run-id prefix; default: the last two entries")
    p.add_argument("--last", type=int, default=10, metavar="N",
                   help="entries to list with 'show' (default: 10)")
    p.set_defaults(func=cmd_ledger)

    p = sub.add_parser(
        "profile", help="render a saved resource-profile document"
    )
    p.add_argument("path", nargs="?", default=DEFAULT_PROFILE_PATH,
                   help="profile document written by --profile "
                        f"(default: {DEFAULT_PROFILE_PATH})")
    p.add_argument("--format", choices=["table", "json", "chrome"],
                   default="table",
                   help="table (default), raw JSON, or Chrome trace_event "
                        "JSON for chrome://tracing / Perfetto")
    p.add_argument("--out", metavar="FILE",
                   help="with --format chrome: write the trace here "
                        "instead of stdout")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="stages to list in the table (default: 10)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "serve", help="run the HTTP detection service over a model snapshot"
    )
    _add_obs_options(p)
    p.add_argument("--snapshot", required=True,
                   help="model snapshot to serve (from 'train --model')")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="listen port (0 picks a free port; default: 8080)")
    p.add_argument("--max-inflight", type=int, default=8, metavar="N",
                   help="concurrent model-serving requests before queueing "
                        "(default: 8)")
    p.add_argument("--max-queue", type=int, default=16, metavar="N",
                   help="requests allowed to wait for a slot; beyond this "
                        "they are shed with 429 (default: 16)")
    p.add_argument("--queue-timeout", type=float, default=5.0, metavar="S",
                   help="seconds a queued request waits before being shed "
                        "(default: 5)")
    p.add_argument("--reload", type=float, nargs="?", const=2.0,
                   default=None, metavar="SECONDS",
                   help="poll the snapshot file's mtime and hot-reload on "
                        "change (default interval: 2s); SIGHUP always "
                        "triggers a reload, with or without polling")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes for batch /v1/check requests "
                        "(default: 1 = in-process)")
    p.add_argument("--chunk-size", type=int, default=None, metavar="M",
                   help="images per worker shard on batch requests")
    p.add_argument("--customize", help="Figure 6 customization file to "
                                       "apply before loading the snapshot")
    p.add_argument("--error-policy",
                   choices=["strict", "quarantine", "skip"],
                   default="quarantine",
                   help="per-image failure handling on batch requests")
    p.add_argument("--max-error-rate", type=float, default=0.10, metavar="R")
    p.add_argument("--no-request-ledger", action="store_true",
                   help="suppress per-request ledger entries (start and "
                        "reload events are still recorded)")
    _add_cache_options(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "quarantine", help="list images dropped by the error policy"
    )
    _add_obs_options(p, alerts=False)
    p.add_argument("action", choices=["show"])
    p.add_argument("--all", action="store_true",
                   help="every recorded run, not just the most recent")
    p.add_argument("--last", type=int, default=50, metavar="N",
                   help="records to list with --all (default: 50)")
    p.set_defaults(func=cmd_quarantine)

    p = sub.add_parser(
        "alerts", help="show recorded incidents or validate a rule file"
    )
    p.add_argument("action", choices=["show", "check"])
    p.add_argument("rules_file", nargs="?", default=DEFAULT_ALERTS_PATH,
                   help="for 'check': the rule file to validate "
                        f"(default: {DEFAULT_ALERTS_PATH})")
    p.add_argument("--ledger", metavar="FILE",
                   help="run-ledger path for 'show' "
                        "(default: .encore/ledger.jsonl)")
    p.add_argument("--last", type=int, default=20, metavar="N",
                   help="incidents to list with 'show' (default: 20)")
    p.add_argument("--json", action="store_true",
                   help="emit incidents as JSON")
    p.add_argument("--metrics", dest="metrics_snapshot", metavar="FILE",
                   help="for 'check': dry-run the rules against a saved "
                        "metrics snapshot (exit 2 if any rule would fire)")
    p.set_defaults(func=cmd_alerts)

    p = sub.add_parser(
        "watch", help="live health/alert view of a running serve daemon"
    )
    p.add_argument("url", help="daemon base URL (e.g. http://127.0.0.1:8080)")
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="seconds between polls (default: 2)")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (scriptable)")
    p.add_argument("--max-retries", type=int, default=None, metavar="N",
                   help="give up after N consecutive failed polls "
                        "(default: retry forever)")
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser(
        "doctor",
        help="assemble (or validate) a redacted diagnostic bundle",
        description="Bundle the flight-recorder dump, ledger and "
                    "quarantine tails, profile, alert rules, and "
                    "config/snapshot digests into one redacted tar.gz "
                    "for incident handoff; 'doctor check BUNDLE' "
                    "re-verifies a bundle's manifest digests.",
    )
    p.add_argument("action", nargs="?", choices=["bundle", "check"],
                   default="bundle",
                   help="bundle (default): build one; check: validate one")
    p.add_argument("path", nargs="?", default=None,
                   help="bundle path (output for 'bundle', input for "
                        "'check'; default: .encore/doctor-bundle.tar.gz)")
    p.add_argument("--state-dir", default=".encore", metavar="DIR",
                   help="state directory to collect from (default: .encore)")
    p.add_argument("--url", metavar="URL",
                   help="also snapshot a running daemon's /statusz, "
                        "/alertz, /tracez, and /flightz")
    p.add_argument("--snapshot", metavar="FILE",
                   help="model snapshot file to digest into the bundle")
    p.add_argument("--tail", type=int, default=200, metavar="N",
                   help="ledger/quarantine lines to keep (default: 200)")
    p.set_defaults(func=cmd_doctor)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args._run_started = time.monotonic()
    verbosity = -1 if getattr(args, "quiet", False) else getattr(args, "verbose", 0)
    configure_logging(verbosity=verbosity,
                      json_lines=getattr(args, "log_json", False))
    reset_registry()
    profile = getattr(args, "profile", None)
    tracer = set_tracer(Tracer()) if profile else None
    flight = None
    if args.command in FLIGHT_COMMANDS:
        # Always-on black box for pipeline runs: closed spans, log
        # records, errors, and incidents land in bounded rings, dumped
        # to .encore/flight.json at exit for `repro doctor` to bundle.
        from repro.obs.flight import FlightRecorder, set_flight

        flight = set_flight(FlightRecorder())
    monitor = None
    if getattr(args, "alerts", None) and args.command != "serve":
        # serve builds its own monitor (sampling under its fold lock);
        # here the monitor follows the process registry and is ticked
        # by the engine fold loops (sharded assembly, batch checking).
        from repro.obs.alerts import AlertConfigError, load_rules
        from repro.obs.health import HealthMonitor, set_monitor

        try:
            monitor = HealthMonitor(
                rules=load_rules(args.alerts),
                interval_s=getattr(args, "alerts_interval", 5.0),
            )
        except AlertConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        set_monitor(monitor)
        log.info("alerts.armed", path=str(args.alerts),
                 rules=len(monitor.engine.rules))
    from repro.core.persistence import SnapshotCorruptError
    from repro.core.resilience import ErrorBudgetExceeded

    try:
        return args.func(args)
    except ErrorBudgetExceeded as exc:
        log.error("run.aborted", error="ErrorBudgetExceeded")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SnapshotCorruptError, ImageCorruptError) as exc:
        log.error("run.aborted", error=type(exc).__name__)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if monitor is not None:
            from repro.obs.health import set_monitor

            set_monitor(None)
            firing = monitor.engine.firing_incidents()
            if firing:
                print(f"\n{len(firing)} alert(s) still firing at run end:",
                      file=sys.stderr)
                for incident in firing:
                    print(f"  {incident.describe()}", file=sys.stderr)
        if tracer is not None:
            from repro.obs.profile import profile_document, save_profile

            set_tracer(None)
            doc = profile_document(
                tracer,
                command=args.command,
                workers=getattr(args, "workers", 1) or 1,
                run_seconds=round(time.monotonic() - args._run_started, 6),
            )
            save_profile(doc, profile)
            log.info("profile.saved", path=profile,
                     stages=len(doc["stages"]), shards=len(doc["shards"]))
        metrics_dest = getattr(args, "metrics", None)
        if metrics_dest:
            snapshot = get_registry().to_json()
            if metrics_dest == "-":
                print(snapshot)
            else:
                from repro.obs.fileio import atomic_write_text

                atomic_write_text(metrics_dest, snapshot + "\n")
                log.info("metrics.saved", path=metrics_dest)
        if flight is not None:
            from repro.obs.flight import set_flight

            set_flight(None)
            if len(flight):
                flight.save(DEFAULT_FLIGHT_PATH)


if __name__ == "__main__":
    sys.exit(main())
