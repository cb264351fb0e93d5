"""Remediation suggestions — the paper's auto-configuration direction.

Section 9 names assisting "the process of auto-configuration" as future
work: the information EnCore integrates (assembled values + inferred
rules) is enough to not only *flag* a violation but propose a concrete
remediation.  This module turns each warning kind into an actionable
:class:`Suggestion`:

* **entry-name violation** → rename the entry to the closest known name;
* **correlation violation** → per-template repair: transfer ownership
  (``chown``), fix permissions, re-point the path, or restore the value
  ordering by adopting the partner entry's bound;
* **data-type violation / suspicious value** → replace the value with
  the training distribution's dominant value (with its observed
  frequency as the confidence).

Suggestions are advisory and never mutate the target.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from repro.core.dataset import AssembledSystem, Dataset
from repro.core.detector import Warning, WarningKind
from repro.core.report import Report
from repro.core.rules import ConcreteRule
from repro.core.types import parse_number, parse_size_bytes


class RepairAction(str, Enum):
    """The remediation verb of a suggestion."""

    RENAME_ENTRY = "rename_entry"
    SET_VALUE = "set_value"
    CHOWN = "chown"
    CHMOD = "chmod"
    CREATE_PATH = "create_path"
    MANUAL = "manual"


@dataclass(frozen=True)
class Suggestion:
    """One proposed remediation for one warning."""

    warning: Warning
    action: RepairAction
    attribute: str
    proposal: str
    confidence: float
    rationale: str = ""

    def __str__(self) -> str:
        return (
            f"[{self.action.value}] {self.attribute}: {self.proposal} "
            f"(confidence {self.confidence:.2f})"
        )


class RepairAdvisor:
    """Generates remediation suggestions from a report.

    Needs the training :class:`Dataset` (for dominant values) and the
    assembled target row (for environment context).
    """

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset

    def suggest(self, report: Report, target: AssembledSystem) -> List[Suggestion]:
        """One suggestion per warning, in report order (where possible)."""
        out: List[Suggestion] = []
        for warning in report.warnings:
            suggestion = self.suggest_one(warning, target)
            if suggestion is not None:
                out.append(suggestion)
        return out

    def suggest_one(
        self, warning: Warning, target: AssembledSystem
    ) -> Optional[Suggestion]:
        handler = {
            WarningKind.ENTRY_NAME: self._fix_entry_name,
            WarningKind.CORRELATION: self._fix_correlation,
            WarningKind.DATA_TYPE: self._fix_value,
            WarningKind.SUSPICIOUS_VALUE: self._fix_value,
        }[warning.kind]
        return handler(warning, target)

    # -- entry names ----------------------------------------------------------------

    def _fix_entry_name(
        self, warning: Warning, target: AssembledSystem
    ) -> Optional[Suggestion]:
        app, _, name = warning.attribute.partition(":")
        known = self.dataset.entry_names().get(app, [])
        matches = difflib.get_close_matches(name, known, n=1, cutoff=0.7)
        if not matches:
            return Suggestion(
                warning, RepairAction.MANUAL, warning.attribute,
                "entry unknown to the training set; review manually", 0.3,
                "no close known entry name",
            )
        return Suggestion(
            warning, RepairAction.RENAME_ENTRY, warning.attribute,
            f"rename to {matches[0]!r}", 0.8,
            f"closest known {app} entry",
        )

    # -- correlations -----------------------------------------------------------------

    def _fix_correlation(
        self, warning: Warning, target: AssembledSystem
    ) -> Optional[Suggestion]:
        rule = warning.rule
        if rule is None:
            return None
        value_a = target.value(rule.attribute_a)
        value_b = target.value(rule.attribute_b)
        if value_a is None or value_b is None:
            return None
        if rule.template_name == "ownership":
            return Suggestion(
                warning, RepairAction.CHOWN, rule.attribute_a,
                f"chown {value_b} {value_a}", rule.confidence,
                f"rule: {rule.attribute_b} owns {rule.attribute_a}",
            )
        if rule.template_name == "not_accessible":
            return Suggestion(
                warning, RepairAction.CHMOD, rule.attribute_a,
                f"chmod o-rwx {value_a}", rule.confidence,
                f"{value_a} must not be accessible by {value_b}",
            )
        if rule.template_name == "concat_path":
            return Suggestion(
                warning, RepairAction.CREATE_PATH, rule.attribute_b,
                f"create {value_a.rstrip('/')}/{value_b}", rule.confidence,
                "concatenated path must exist",
            )
        if rule.template_name in ("less_number", "less_size"):
            return self._fix_ordering(warning, rule, value_a, value_b)
        if rule.template_name in ("equal_same_type", "one_instance_equal"):
            return Suggestion(
                warning, RepairAction.SET_VALUE, rule.attribute_a,
                f"set to {value_b!r} (mirror {rule.attribute_b})",
                rule.confidence,
                "the two entries should agree",
            )
        if rule.template_name == "user_in_group":
            return Suggestion(
                warning, RepairAction.MANUAL, rule.attribute_a,
                f"add user {value_a!r} to group {value_b!r}", rule.confidence,
                "group membership expected",
            )
        return Suggestion(
            warning, RepairAction.MANUAL, rule.attribute_a,
            f"restore relation {rule.attribute_a} {rule.relation} "
            f"{rule.attribute_b}",
            rule.confidence,
        )

    def _fix_ordering(
        self, warning: Warning, rule: ConcreteRule, value_a: str, value_b: str
    ) -> Suggestion:
        """Propose lowering A under B, preserving the literal's unit."""
        if rule.template_name == "less_size":
            bound = parse_size_bytes(value_b)
            proposal = f"set {rule.attribute_a} below {value_b}"
            if bound is not None:
                half = max(1, bound // 2)
                proposal = f"set {rule.attribute_a} to {_size_literal(half)}"
        else:
            bound = parse_number(value_b)
            proposal = f"set {rule.attribute_a} below {value_b}"
            if bound is not None:
                proposal = f"set {rule.attribute_a} to {int(bound) // 2}"
        return Suggestion(
            warning, RepairAction.SET_VALUE, rule.attribute_a, proposal,
            rule.confidence,
            f"training systems keep {rule.attribute_a} {rule.relation} "
            f"{rule.attribute_b}",
        )

    # -- values -----------------------------------------------------------------------

    def _fix_value(
        self, warning: Warning, target: AssembledSystem
    ) -> Optional[Suggestion]:
        stats = self.dataset.stats(warning.attribute)
        if stats is None or not stats.value_counts:
            return None
        dominant, count = max(stats.value_counts, key=lambda vc: vc[1])
        frequency = count / stats.present_count
        if warning.attribute.endswith(".type") or warning.attribute.endswith(".owner"):
            # Augmented-column deviations are environment problems: point
            # at the base entry instead of proposing a value edit.
            base = warning.attribute.rsplit(".", 1)[0]
            return Suggestion(
                warning, RepairAction.MANUAL, base,
                f"environment of {base} deviates: expected "
                f"{warning.attribute.rsplit('.', 1)[1]}={dominant!r}, "
                f"found {warning.value!r}",
                frequency,
                "augmented attribute disagrees with all training systems",
            )
        return Suggestion(
            warning, RepairAction.SET_VALUE, warning.attribute,
            f"set to {dominant!r} (used by {count}/{stats.present_count} "
            "training systems)",
            frequency,
            "dominant training value",
        )


_SUFFIXES = [(1 << 40, "T"), (1 << 30, "G"), (1 << 20, "M"), (1 << 10, "K")]


def _size_literal(num_bytes: int) -> str:
    for unit, suffix in _SUFFIXES:
        if num_bytes >= unit:
            return f"{max(1, num_bytes // unit)}{suffix}"
    return str(num_bytes)
