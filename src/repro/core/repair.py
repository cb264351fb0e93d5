"""Remediation suggestions, and the per-template break/repair table.

Section 9 names assisting "the process of auto-configuration" as future
work: the information EnCore integrates (assembled values + inferred
rules) is enough to not only *flag* a violation but propose a concrete
remediation.  :class:`RepairAdvisor` turns each warning into an
actionable :class:`Suggestion`:

* **entry-name violation** → rename the entry to the closest known name;
* **correlation violation** → the repair of the rule's template in
  :data:`TEMPLATE_TABLE` (``chown``, ``chmod``, create the path, mirror
  the partner entry, or adopt half the partner's bound), or a generic
  "restore relation" text for templates without one;
* **data-type violation / suspicious value** → replace the value with
  the training distribution's dominant value (with its observed
  frequency as the confidence).

:data:`TEMPLATE_TABLE` states each predefined template once: its
*break*, the edit that violates a rule on a mutant image (what
:class:`~repro.testing.rulegen.RuleGuidedTestGenerator` applies, paper
§8), next to its *repair*.  An entry that lacks either says why.

Suggestions are advisory and never mutate the target.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.dataset import AssembledSystem, Dataset
from repro.core.detector import Warning, WarningKind
from repro.core.report import Report
from repro.core.rules import ConcreteRule
from repro.core.types import parse_number, parse_size_bytes
from repro.sysmodel.image import SystemImage


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
        entry = TEMPLATE_TABLE.get(rule.template_name)
        repair = entry.repair if entry and entry.repair else _restore_relation
        action, attribute, proposal, rationale = repair(rule, value_a, value_b)
        return Suggestion(
            warning, action, attribute, proposal, rule.confidence, rationale
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


# -- the template table -------------------------------------------------------------

#: Breaks one rule on a mutant image in place; ``(mutation_kind,
#: description)``, or ``None`` when the image offers nothing to break.
Break = Callable[[ConcreteRule, SystemImage, str, str], Optional[Tuple[str, str]]]
#: Restores one rule: ``(action, attribute, proposal, rationale)``.
Repair = Callable[[ConcreteRule, str, str], Tuple[RepairAction, str, str, str]]


@dataclass(frozen=True)
class TemplateEdits:
    """A template's break (paper §8) next to its repair (§9).

    ``manual`` says why an entry lacks one of them; without a repair,
    a violation gets the generic "restore relation" suggestion.
    """

    break_: Optional[Break] = None
    repair: Optional[Repair] = None
    manual: str = ""


def _restore_relation(rule, value_a, value_b):
    return (
        RepairAction.MANUAL, rule.attribute_a,
        f"restore relation {rule.attribute_a} {rule.relation} {rule.attribute_b}",
        "",
    )


def _set_entry(image: SystemImage, attribute: str, value: str) -> bool:
    """Rewrite the config line behind *attribute*; False when absent."""
    app, _, name = attribute.partition(":")
    try:
        return image.set_config_value(app, name.rsplit("/", 1)[-1], value) is not None
    except KeyError:
        return False


def _break_ownership(rule, image, value_a, value_b):
    if not image.fs.exists(value_a):
        return None
    wrong_owner = "root" if value_b != "root" else "nobody"
    image.fs.chown(value_a, owner=wrong_owner, group=wrong_owner)
    return "environment", f"chown {wrong_owner} {value_a} (expected owner {value_b})"


def _break_accessibility(rule, image, value_a, value_b):
    if image.fs.get(value_a) is None:
        return None
    image.fs.chmod(value_a, 0o644)
    image.fs.chown(value_a, owner="root", group="root")
    return "environment", (
        f"make {value_a} world-readable (must stay inaccessible to {value_b})"
    )


def _break_concat(rule, image, value_a, value_b):
    joined = f"{value_a.rstrip('/')}/{value_b}"
    if not image.fs.exists(joined):
        return None
    image.fs.remove(joined)
    return "environment", f"remove {joined} (the concatenated path must exist)"


def _break_ordering(rule, image, value_a, value_b):
    """Push A to four times B's bound, in B's kind of literal."""
    if rule.template_name == "less_size":
        bound = parse_size_bytes(value_b)
        if bound is None or parse_size_bytes(value_a) is None:
            return None
        oversized = _size_literal(bound * 4 if bound else 4)
    else:
        bound = parse_number(value_b)
        if bound is None:
            return None
        oversized = str(int(abs(bound) * 4) + 1)
    if not _set_entry(image, rule.attribute_a, oversized):
        return None
    return "config", (
        f"set {rule.attribute_a} to {oversized} (must stay "
        f"{rule.relation} {rule.attribute_b} = {value_b})"
    )


def _repair_ordering(rule, value_a, value_b):
    """Propose half of B's bound for A, keeping the literal's unit."""
    proposal = f"set {rule.attribute_a} below {value_b}"
    if rule.template_name == "less_size":
        bound = parse_size_bytes(value_b)
        if bound is not None:
            proposal = f"set {rule.attribute_a} to {_size_literal(max(1, bound // 2))}"
    else:
        bound = parse_number(value_b)
        if bound is not None:
            proposal = f"set {rule.attribute_a} to {int(bound) // 2}"
    return (
        RepairAction.SET_VALUE, rule.attribute_a, proposal,
        f"training systems keep {rule.attribute_a} {rule.relation} "
        f"{rule.attribute_b}",
    )


def _break_equality(rule, image, value_a, value_b):
    desynced = value_a + "0" if not value_a.endswith("0") else value_a + "1"
    if not _set_entry(image, rule.attribute_a, desynced):
        return None
    return "config", (
        f"desynchronise {rule.attribute_a} (= {desynced}) from "
        f"{rule.attribute_b} (= {value_b})"
    )


_ORDERING = TemplateEdits(_break_ordering, _repair_ordering)
_EQUALITY = TemplateEdits(_break_equality, lambda rule, a, b: (
    RepairAction.SET_VALUE, rule.attribute_a,
    f"set to {b!r} (mirror {rule.attribute_b})", "the two entries should agree",
))

#: Keyed by :func:`~repro.core.templates.default_templates` name.  Custom
#: ``$$Template`` rules are absent: no mutant, and the generic repair.
TEMPLATE_TABLE: Dict[str, TemplateEdits] = {
    "equal_same_type": _EQUALITY,
    "one_instance_equal": _EQUALITY,
    "extended_boolean": TemplateEdits(manual=(
        "B is an extended attribute derived from the environment, and "
        "what turns it false differs per attribute"
    )),
    "ip_subnet": TemplateEdits(manual=(
        "no corpus learns an ip_subnet rule, so no break could be "
        "checked against the detector"
    )),
    "concat_path": TemplateEdits(_break_concat, lambda rule, a, b: (
        RepairAction.CREATE_PATH, rule.attribute_b,
        f"create {a.rstrip('/')}/{b}", "concatenated path must exist",
    )),
    "substring": TemplateEdits(manual=(
        "which of the two entries to edit depends on what they mean"
    )),
    "user_in_group": TemplateEdits(
        repair=lambda rule, a, b: (
            RepairAction.MANUAL, rule.attribute_a,
            f"add user {a!r} to group {b!r}", "group membership expected",
        ),
        manual="no break: membership comes from the primary gid or a "
        "member list, and no corpus learns a user_in_group rule to test one",
    ),
    "not_accessible": TemplateEdits(_break_accessibility, lambda rule, a, b: (
        RepairAction.CHMOD, rule.attribute_a, f"chmod o-rwx {a}",
        f"{a} must not be accessible by {b}",
    )),
    "ownership": TemplateEdits(_break_ownership, lambda rule, a, b: (
        RepairAction.CHOWN, rule.attribute_a, f"chown {b} {a}",
        f"rule: {rule.attribute_b} owns {rule.attribute_a}",
    )),
    "less_number": _ORDERING,
    "less_size": _ORDERING,
}


_SUFFIXES = [(1 << 40, "T"), (1 << 30, "G"), (1 << 20, "M"), (1 << 10, "K")]


def _size_literal(num_bytes: int) -> str:
    for unit, suffix in _SUFFIXES:
        if num_bytes >= unit:
            return f"{max(1, num_bytes // unit)}{suffix}"
    return str(num_bytes)
