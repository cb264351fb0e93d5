"""Declarative alert rules and the firing→resolved incident lifecycle.

Rules live in ``.encore/alerts.toml`` as an array of ``[[rule]]``
tables and are evaluated by :class:`AlertEngine` against a
:class:`~repro.obs.timeline.Timeline` (never against a raw registry —
every rule is a statement about a *window*, not an instant).  Five rule
kinds cover the failure modes this pipeline actually has:

``threshold``
    Compare a windowed statistic of one series against a bound:
    counter ``rate``/``delta``, gauge ``value``/``change``, histogram
    ``p50``/``p99``/``mean``/``count``.
``rate_of_change``
    Per-second change of a gauge (or counter rate) over the window —
    catches "climbing", not just "high".
``burn_rate``
    Two-window SLO burn rate à la the SRE workbook: the error ratio
    ``numerator / denominator`` divided by the budget ``1 - objective``
    must exceed the threshold over **both** a short and a long window
    to fire (fast windows catch bursts, long windows stop flapping).
``drift_psi``
    Threshold on the ``drift.psi.max`` gauge the
    :class:`~repro.obs.model.DriftMonitor` publishes.
``quarantine_budget``
    Ratio of quarantined images to processed systems exceeding a
    budget fraction.

Every transition produces an :class:`Incident` carrying provenance —
the rule, the series selector, and the window values that justified the
transition — so a page can be audited from the ledger alone.  ``for_s``
debounces: a rule must hold continuously that long before it fires.

Rule files are parsed with the standard library's :mod:`tomllib`.
Config errors raise :class:`AlertConfigError` (a :class:`ValueError`)
with file/line context.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.timeline import Timeline

#: Where :func:`load_rules` looks when no path is given.
DEFAULT_RULES_PATH = Path(".encore") / "alerts.toml"

RULE_KINDS = (
    "threshold",
    "rate_of_change",
    "burn_rate",
    "drift_psi",
    "quarantine_budget",
)

SEVERITIES = ("warn", "page")

#: Statistics a threshold rule may ask of a series.
STATS = ("rate", "delta", "value", "change", "count", "mean", "p50", "p99")


class AlertConfigError(ValueError):
    """An alert rule file failed to parse or validate."""


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


@dataclass
class AlertRule:
    """One declarative rule; see the module docstring for kinds."""

    name: str
    kind: str
    metric: str = ""
    labels: Dict[str, str] = field(default_factory=dict)
    stat: str = "value"
    op: str = ">"
    threshold: float = 0.0
    window_s: float = 60.0
    for_s: float = 0.0
    severity: str = "warn"
    # burn_rate extras
    objective: float = 0.0
    long_window_s: float = 0.0
    denominator: str = ""
    denominator_labels: Dict[str, str] = field(default_factory=dict)
    # quarantine_budget extra
    budget: float = 0.0

    def validate(self) -> None:
        if not self.name:
            raise AlertConfigError("rule missing 'name'")
        ctx = f"rule {self.name!r}"
        if self.kind not in RULE_KINDS:
            raise AlertConfigError(
                f"{ctx}: unknown kind {self.kind!r} (expected one of {RULE_KINDS})"
            )
        if self.severity not in SEVERITIES:
            raise AlertConfigError(
                f"{ctx}: unknown severity {self.severity!r} "
                f"(expected one of {SEVERITIES})"
            )
        if self.op not in (">", "<"):
            raise AlertConfigError(f"{ctx}: op must be '>' or '<', got {self.op!r}")
        if self.window_s <= 0:
            raise AlertConfigError(f"{ctx}: window_s must be > 0")
        if self.for_s < 0:
            raise AlertConfigError(f"{ctx}: for_s must be >= 0")
        if self.kind in ("threshold", "rate_of_change") and not self.metric:
            raise AlertConfigError(f"{ctx}: kind {self.kind!r} requires 'metric'")
        if self.stat not in STATS:
            raise AlertConfigError(
                f"{ctx}: unknown stat {self.stat!r} (expected one of {STATS})"
            )
        if self.kind == "burn_rate":
            if not self.metric:
                raise AlertConfigError(f"{ctx}: burn_rate requires 'metric'")
            if not 0.0 < self.objective < 1.0:
                raise AlertConfigError(
                    f"{ctx}: burn_rate objective must be in (0, 1), "
                    f"got {self.objective}"
                )
            if self.long_window_s <= self.window_s:
                raise AlertConfigError(
                    f"{ctx}: long_window_s ({self.long_window_s}) must exceed "
                    f"window_s ({self.window_s})"
                )
            if not self.denominator:
                raise AlertConfigError(f"{ctx}: burn_rate requires 'denominator'")
        if self.kind == "quarantine_budget" and not 0.0 < self.budget <= 1.0:
            raise AlertConfigError(
                f"{ctx}: quarantine_budget requires budget in (0, 1], "
                f"got {self.budget}"
            )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "severity": self.severity,
            "window_s": self.window_s,
            "for_s": self.for_s,
        }
        if self.metric:
            out["metric"] = self.metric
        if self.labels:
            out["labels"] = dict(self.labels)
        if self.kind in ("threshold", "rate_of_change"):
            out["stat"] = self.stat
        if self.kind != "quarantine_budget":
            out["op"] = self.op
            out["threshold"] = self.threshold
        if self.kind == "burn_rate":
            out["objective"] = self.objective
            out["long_window_s"] = self.long_window_s
            out["denominator"] = self.denominator
            if self.denominator_labels:
                out["denominator_labels"] = dict(self.denominator_labels)
        if self.kind == "quarantine_budget":
            out["budget"] = self.budget
        return out


_RULE_KEYS = {
    "name", "kind", "metric", "labels", "stat", "op", "threshold",
    "window_s", "for_s", "severity", "objective", "long_window_s",
    "denominator", "denominator_labels", "budget",
}


def _rule_from_table(table: Mapping, index: int) -> AlertRule:
    if not isinstance(table, Mapping):
        raise AlertConfigError(f"rule #{index}: expected a table")
    unknown = set(table) - _RULE_KEYS
    if unknown:
        name = table.get("name", f"#{index}")
        raise AlertConfigError(
            f"rule {name!r}: unknown keys {sorted(unknown)}"
        )
    labels = table.get("labels", {})
    den_labels = table.get("denominator_labels", {})
    for key, value in (("labels", labels), ("denominator_labels", den_labels)):
        if not isinstance(value, Mapping):
            raise AlertConfigError(
                f"rule {table.get('name', index)!r}: {key} must be a table"
            )
    defaults = {}
    if table.get("kind") == "quarantine_budget":
        defaults = {
            "metric": "quarantine.images.total",
            "denominator": "assemble.systems.total",
        }
    rule = AlertRule(
        name=str(table.get("name", "")),
        kind=str(table.get("kind", "")),
        metric=str(table.get("metric", defaults.get("metric", ""))),
        labels={str(k): str(v) for k, v in labels.items()},
        stat=str(table.get("stat", "rate" if table.get("kind") == "rate_of_change" else "value")),
        op=str(table.get("op", ">")),
        threshold=float(table.get("threshold", 0.0)),
        window_s=float(table.get("window_s", 60.0)),
        for_s=float(table.get("for_s", 0.0)),
        severity=str(table.get("severity", "warn")),
        objective=float(table.get("objective", 0.0)),
        long_window_s=float(table.get("long_window_s", 0.0)),
        denominator=str(table.get("denominator", defaults.get("denominator", ""))),
        denominator_labels={str(k): str(v) for k, v in den_labels.items()},
        budget=float(table.get("budget", 0.0)),
    )
    if rule.kind == "drift_psi" and not rule.metric:
        rule.metric = "drift.psi.max"
        rule.stat = "value"
    rule.validate()
    return rule


def parse_rules(text: str, source: str = "<string>") -> List[AlertRule]:
    """Parse rule-file text into validated :class:`AlertRule` objects."""
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise AlertConfigError(f"{source}: {exc}") from exc
    tables = data.get("rule", [])
    if not isinstance(tables, list):
        raise AlertConfigError(f"{source}: 'rule' must be an array of tables")
    rules: List[AlertRule] = []
    seen: Dict[str, int] = {}
    for index, table in enumerate(tables, start=1):
        try:
            rule = _rule_from_table(table, index)
        except AlertConfigError as exc:
            raise AlertConfigError(f"{source}: {exc}") from exc
        if rule.name in seen:
            raise AlertConfigError(
                f"{source}: duplicate rule name {rule.name!r} "
                f"(rules #{seen[rule.name]} and #{index})"
            )
        seen[rule.name] = index
        rules.append(rule)
    return rules


def load_rules(path: Union[str, Path, None] = None) -> List[AlertRule]:
    """Load and validate rules from *path* (default ``.encore/alerts.toml``)."""
    rules_path = Path(path) if path is not None else DEFAULT_RULES_PATH
    try:
        text = rules_path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise AlertConfigError(f"alert rule file not found: {rules_path}") from None
    return parse_rules(text, source=str(rules_path))


# ---------------------------------------------------------------------------
# Incidents
# ---------------------------------------------------------------------------


@dataclass
class Incident:
    """One firing (or resolved) instance of a rule, with provenance."""

    rule: str
    kind: str
    severity: str
    series: str
    state: str  # "firing" | "resolved"
    started_at: float  # first moment the condition held
    fired_at: float  # when for_s elapsed and the incident opened
    resolved_at: Optional[float] = None
    value: Optional[float] = None
    threshold: Optional[float] = None
    window: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule,
            "kind": self.kind,
            "severity": self.severity,
            "series": self.series,
            "state": self.state,
            "started_at": self.started_at,
            "fired_at": self.fired_at,
            "value": self.value,
            "threshold": self.threshold,
        }
        if self.resolved_at is not None:
            out["resolved_at"] = self.resolved_at
        if self.window:
            out["window"] = dict(self.window)
        return out

    def describe(self) -> str:
        value = "n/a" if self.value is None else f"{self.value:.4g}"
        bound = "n/a" if self.threshold is None else f"{self.threshold:.4g}"
        line = (
            f"[{self.severity}] {self.rule} ({self.kind}) {self.state}: "
            f"{self.series} value={value} threshold={bound}"
        )
        if self.state == "resolved" and self.resolved_at is not None:
            line += f" after {self.resolved_at - self.fired_at:.1f}s"
        return line


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


#: (event, incident) pairs returned by :meth:`AlertEngine.evaluate`.
Transition = Tuple[str, Incident]


class AlertEngine:
    """Evaluates rules against a timeline and tracks incident state.

    Single-writer by design: one evaluator (the sampler thread, or a
    CLI loop) calls :meth:`evaluate`; readers take :meth:`snapshot`
    under the same lock the caller already holds for the timeline.
    """

    RESOLVED_HISTORY = 64

    def __init__(self, rules: Sequence[AlertRule]) -> None:
        self.rules = list(rules)
        #: rule name → timestamp the condition started holding (debounce).
        self._pending: Dict[str, float] = {}
        #: rule name → open incident.
        self.firing: Dict[str, Incident] = {}
        #: most recent resolved incidents, oldest first, bounded.
        self.resolved: List[Incident] = []
        self.evaluations = 0

    # -- rule evaluation -------------------------------------------------------

    def _measure(self, rule: AlertRule,
                 timeline: Timeline, now: float
                 ) -> Tuple[Optional[float], Dict[str, object]]:
        """Current value of the rule's expression, plus provenance."""
        if rule.kind == "burn_rate":
            return self._measure_burn(rule, timeline, now)
        if rule.kind == "quarantine_budget":
            return self._measure_quarantine(rule, timeline, now)
        # threshold / rate_of_change / drift_psi share the stat lookup
        return self._measure_stat(rule, timeline, now)

    def _measure_stat(self, rule: AlertRule, timeline: Timeline,
                      now: float) -> Tuple[Optional[float], Dict[str, object]]:
        stat = rule.stat
        window: Dict[str, object] = {"window_s": rule.window_s, "stat": stat}
        value: Optional[float]
        if stat == "rate":
            value = timeline.rate(rule.metric, rule.window_s,
                                  labels=rule.labels, now=now)
        elif stat == "delta":
            value = timeline.counter_delta(rule.metric, rule.window_s,
                                           labels=rule.labels, now=now)
        elif stat == "change":
            value = timeline.gauge_change(rule.metric, rule.window_s,
                                          labels=rule.labels, now=now)
        elif stat == "value":
            value = timeline.latest_value(rule.metric, labels=rule.labels)
        else:  # histogram stats: count/mean/p50/p99
            stats = timeline.histogram_window(rule.metric, rule.window_s,
                                              labels=rule.labels, now=now)
            value = None if stats is None else stats.get(stat)
            if stats is not None:
                window["count"] = stats["count"]
        window["value"] = value
        return value, window

    def _measure_burn(self, rule: AlertRule, timeline: Timeline,
                      now: float) -> Tuple[Optional[float], Dict[str, object]]:
        budget = 1.0 - rule.objective
        window: Dict[str, object] = {
            "short_window_s": rule.window_s,
            "long_window_s": rule.long_window_s,
            "objective": rule.objective,
        }
        burns: List[float] = []
        for label, seconds in (("short", rule.window_s),
                               ("long", rule.long_window_s)):
            errors = timeline.counter_delta(
                rule.metric, seconds, labels=rule.labels, now=now
            )
            total = timeline.counter_delta(
                rule.denominator, seconds,
                labels=rule.denominator_labels, now=now
            )
            if errors is None or total is None or total <= 0:
                window[f"{label}_burn"] = None
                return None, window
            ratio = min(1.0, errors / total)
            burn = ratio / budget if budget > 0 else float("inf")
            window[f"{label}_errors"] = errors
            window[f"{label}_total"] = total
            window[f"{label}_burn"] = burn
            burns.append(burn)
        # both windows must breach; report the limiting (smaller) burn
        return min(burns), window

    def _measure_quarantine(self, rule: AlertRule, timeline: Timeline,
                            now: float) -> Tuple[Optional[float], Dict[str, object]]:
        window: Dict[str, object] = {
            "window_s": rule.window_s, "budget": rule.budget,
        }
        quarantined = timeline.counter_delta(
            rule.metric, rule.window_s, labels=rule.labels, now=now
        )
        processed = timeline.counter_delta(
            rule.denominator, rule.window_s,
            labels=rule.denominator_labels, now=now
        )
        if quarantined is None or processed is None:
            return None, window
        denom = quarantined + processed
        ratio = quarantined / denom if denom > 0 else 0.0
        window["quarantined"] = quarantined
        window["processed"] = processed
        window["ratio"] = ratio
        return ratio, window

    def _breaches(self, rule: AlertRule, value: Optional[float]) -> bool:
        if value is None:
            return False
        if rule.kind == "quarantine_budget":
            return value > rule.budget
        if rule.op == "<":
            return value < rule.threshold
        return value > rule.threshold

    def _series_label(self, rule: AlertRule) -> str:
        from repro.obs.timeline import series_id

        if not rule.metric:
            return rule.kind
        return series_id(rule.metric, tuple(sorted(rule.labels.items())))

    # -- lifecycle -------------------------------------------------------------

    def evaluate(self, timeline: Timeline, now: float) -> List[Transition]:
        """One evaluation pass; returns ``("fired"|"resolved", incident)``.

        A rule whose condition holds enters *pending*; once it has held
        continuously for ``for_s`` an incident opens ("fired").  The
        incident stays open while the condition holds and resolves the
        first evaluation it doesn't (no-data counts as not-holding, so
        a burst that scrolls out of the window resolves its incident).
        """
        self.evaluations += 1
        transitions: List[Transition] = []
        for rule in self.rules:
            value, window = self._measure(rule, timeline, now)
            breaching = self._breaches(rule, value)
            open_incident = self.firing.get(rule.name)
            if breaching:
                started = self._pending.setdefault(rule.name, now)
                if open_incident is not None:
                    open_incident.value = value
                    open_incident.window = window
                elif now - started >= rule.for_s:
                    incident = Incident(
                        rule=rule.name,
                        kind=rule.kind,
                        severity=rule.severity,
                        series=self._series_label(rule),
                        state="firing",
                        started_at=started,
                        fired_at=now,
                        value=value,
                        threshold=(rule.budget
                                   if rule.kind == "quarantine_budget"
                                   else rule.threshold),
                        window=window,
                    )
                    self.firing[rule.name] = incident
                    transitions.append(("fired", incident))
            else:
                self._pending.pop(rule.name, None)
                if open_incident is not None:
                    del self.firing[rule.name]
                    open_incident.state = "resolved"
                    open_incident.resolved_at = now
                    open_incident.window = dict(open_incident.window)
                    open_incident.window["resolution"] = window
                    self.resolved.append(open_incident)
                    del self.resolved[:-self.RESOLVED_HISTORY]
                    transitions.append(("resolved", open_incident))
        return transitions

    # -- introspection ---------------------------------------------------------

    def firing_incidents(self, severity: Optional[str] = None) -> List[Incident]:
        out = [self.firing[name] for name in sorted(self.firing)]
        if severity is not None:
            out = [i for i in out if i.severity == severity]
        return out

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready state for ``/alertz`` and ``repro alerts``."""
        return {
            "rules": [rule.to_dict() for rule in self.rules],
            "evaluations": self.evaluations,
            "firing": [i.to_dict() for i in self.firing_incidents()],
            "resolved": [i.to_dict() for i in self.resolved],
        }


def render_incidents(incidents: Sequence[Mapping], json_output: bool = False) -> str:
    """Render incident dicts (engine or ledger provenance) for the CLI."""
    if json_output:
        return json.dumps(list(incidents), indent=2, sort_keys=True)
    if not incidents:
        return "no incidents"
    lines = []
    for data in incidents:
        incident = Incident(
            rule=str(data.get("rule", "?")),
            kind=str(data.get("kind", "?")),
            severity=str(data.get("severity", "warn")),
            series=str(data.get("series", "?")),
            state=str(data.get("state", "firing")),
            started_at=float(data.get("started_at", 0.0)),
            fired_at=float(data.get("fired_at", 0.0)),
            resolved_at=(float(data["resolved_at"])
                         if data.get("resolved_at") is not None else None),
            value=(float(data["value"])
                   if data.get("value") is not None else None),
            threshold=(float(data["threshold"])
                       if data.get("threshold") is not None else None),
        )
        lines.append(incident.describe())
    return "\n".join(lines)
