"""Anomaly detector (paper §6).

Given the learned model (rules + type information + training statistics)
and a target system, the detector performs the paper's four checks and
produces a ranked warning list:

1. **Entry Name Violation** — entries never seen in training are likely
   misspellings;
2. **Correlation Violation** — a learned rule evaluates to false on the
   target's values;
3. **Data Type Violation** — the target value fails the syntactic match or
   semantic verification of the attribute's learned type;
4. **Suspicious Value** — the value is different from all training values,
   ranked by Inverse Change Frequency (entries with fewer distinct
   training values rank higher).

Ranking follows the paper's account: violations whose training evidence
has cardinality 1 rank "much higher than other possible suspicious
values"; correlation violations rank by rule confidence (Problem #10 of
Table 9 was ranked below "another true misconfiguration ... which violates
a rule with higher confidence").
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.dataset import AssembledSystem, AttributeStats, Dataset
from repro.core.rules import ConcreteRule, RuleSet
from repro.core.templates import RuleTemplate, default_templates
from repro.core.types import ConfigType, TypeInferencer
from repro.obs.metrics import get_registry
from repro.obs.tracing import span


class WarningKind(str, Enum):
    """The four §6 check categories."""

    ENTRY_NAME = "entry_name_violation"
    CORRELATION = "correlation_violation"
    DATA_TYPE = "data_type_violation"
    SUSPICIOUS_VALUE = "suspicious_value"


@dataclass(frozen=True)
class Explanation:
    """Why a warning fired: the structured account behind the message.

    ``observed`` vs. ``expected`` state the disagreement; ``environment``
    lists the facts (attribute → value pairs, including the ``env:`` and
    augmented columns consulted) the verdict rested on; and
    ``provenance_digest`` links a correlation warning back to the
    violated rule's :class:`~repro.obs.model.Provenance` record, so
    ``repro explain`` can trace it to the training images that taught
    the rule.
    """

    observed: Optional[str] = None
    expected: str = ""
    environment: Tuple[Tuple[str, str], ...] = ()
    provenance_digest: str = ""

    def render(self) -> str:
        parts = []
        if self.observed is not None:
            parts.append(f"observed {self.observed!r}")
        if self.expected:
            parts.append(f"expected {self.expected}")
        if self.environment:
            facts = ", ".join(f"{k}={v!r}" for k, v in self.environment)
            parts.append(f"facts: {facts}")
        if self.provenance_digest:
            parts.append(f"rule provenance {self.provenance_digest}")
        return "; ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "observed": self.observed,
            "expected": self.expected,
            "environment": [[k, v] for k, v in self.environment],
            "provenance_digest": self.provenance_digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Explanation":
        return cls(
            observed=data.get("observed"),
            expected=str(data.get("expected", "")),
            environment=tuple(
                (str(k), str(v)) for k, v in data.get("environment", ())
            ),
            provenance_digest=str(data.get("provenance_digest", "")),
        )


@dataclass(frozen=True)
class Warning:
    """One detector finding.

    ``score`` drives the ranking (higher = more suspicious); ``evidence``
    is a human-readable account of the training data supporting the
    warning; ``rule`` is set for correlation violations;
    ``explanation`` is the structured observed-vs-expected record every
    check attaches (see :class:`Explanation`).
    """

    kind: WarningKind
    attribute: str
    message: str
    score: float
    value: Optional[str] = None
    evidence: str = ""
    rule: Optional[ConcreteRule] = None
    explanation: Optional[Explanation] = None

    def __str__(self) -> str:
        return f"[{self.kind.value}] {self.attribute}: {self.message} (score={self.score:.3f})"


def count_kinds(
    warnings: Iterable[Warning], into: Optional[Dict[str, int]] = None
) -> Dict[str, int]:
    """Warning kind value → count, in first-seen order, added to *into*."""
    out = {} if into is None else into
    for warning in warnings:
        out[warning.kind.value] = out.get(warning.kind.value, 0) + 1
    return out


#: Base scores per warning kind; within a kind the statistical component
#: (ICF, confidence, cardinality) refines the ordering.
_BASE_SCORE = {
    WarningKind.DATA_TYPE: 3.0,
    WarningKind.CORRELATION: 2.0,
    WarningKind.ENTRY_NAME: 1.0,
    WarningKind.SUSPICIOUS_VALUE: 0.0,
}


class AnomalyDetector:
    """Checks target systems against a learned model."""

    def __init__(
        self,
        dataset: Dataset,
        rules: RuleSet,
        inferencer: Optional[TypeInferencer] = None,
        templates: Optional[Sequence[RuleTemplate]] = None,
        misspelling_cutoff: float = 0.8,
    ) -> None:
        self.dataset = dataset
        self.rules = rules
        self.inferencer = inferencer if inferencer is not None else TypeInferencer()
        self._templates = {
            t.name: t for t in (templates if templates is not None else default_templates())
        }
        self.misspelling_cutoff = misspelling_cutoff
        #: Check 3's columns: a type ``verify`` can reject (not trivial,
        #: not Enum) that the training data agrees on.  Ambiguous columns
        #: (0/1 Boolean-vs-Number and friends, Table 11) would otherwise
        #: flood the report with false type violations.
        self._enforced_types: Dict[str, AttributeStats] = {}
        for attribute in dataset.attributes():
            stats = dataset.stats(attribute)
            if stats is None or stats.type.is_trivial or stats.type is ConfigType.ENUM:
                continue
            if stats.type_agreement >= 0.9:
                self._enforced_types[attribute] = stats
        #: App → sorted entry names (difflib's candidates) and the same
        #: names as a set (the membership test).
        self._known_names = dataset.entry_names()
        self._known_sets = {
            app: frozenset(names) for app, names in self._known_names.items()
        }

    # -- public API ---------------------------------------------------------------

    def detect(self, target: AssembledSystem) -> List[Warning]:
        """All four checks, merged and ranked (highest score first)."""
        with span("detect", image=target.image_id) as s:
            warnings: List[Warning] = []
            warnings.extend(self.check_entry_names(target))
            warnings.extend(self.check_correlations(target))
            warnings.extend(self.check_types(target))
            warnings.extend(self.check_suspicious_values(target))
            with span("detect.rank", warnings=len(warnings)):
                ranked = self.rank(warnings)
            s.annotate(warnings=len(ranked))
        registry = get_registry()
        registry.counter("detect.targets.total").inc()
        for kind, count in count_kinds(ranked).items():
            registry.counter("detect.warnings.total", kind=kind).inc(count)
        return ranked

    @staticmethod
    def rank(warnings: List[Warning]) -> List[Warning]:
        """Deterministic order: score desc, then kind, then attribute."""
        return sorted(
            warnings, key=lambda w: (-w.score, w.kind.value, w.attribute)
        )

    # -- check 1: entry names -------------------------------------------------------

    def check_entry_names(self, target: AssembledSystem) -> List[Warning]:
        """Flag entry names absent from training, suggesting corrections."""
        out: List[Warning] = []
        for attribute in target.attributes():
            if attribute.startswith("env:") or target.is_augmented(attribute):
                continue  # augmented columns are machine-generated
            app, _, name = attribute.partition(":")
            known_set = self._known_sets.get(app)
            if known_set is None or name in known_set:
                continue
            known = self._known_names[app]
            base_name = name
            suggestions = difflib.get_close_matches(
                base_name, known, n=1, cutoff=self.misspelling_cutoff
            )
            if suggestions:
                message = (
                    f"unknown entry {base_name!r}; possible misspelling of "
                    f"{suggestions[0]!r}"
                )
                score = _BASE_SCORE[WarningKind.ENTRY_NAME] + 0.5
                expected = f"a known {app} entry (closest: {suggestions[0]!r})"
            else:
                message = f"entry {base_name!r} never seen in training set"
                score = _BASE_SCORE[WarningKind.ENTRY_NAME]
                expected = f"one of {len(known)} known {app} entries"
            out.append(
                Warning(
                    WarningKind.ENTRY_NAME, attribute, message, score,
                    value=target.value(attribute),
                    evidence=f"{len(known)} known {app} entries",
                    explanation=Explanation(
                        observed=base_name, expected=expected,
                    ),
                )
            )
        return out

    # -- check 2: correlation rules ---------------------------------------------------

    def check_correlations(self, target: AssembledSystem) -> List[Warning]:
        """Evaluate every learned rule; report violations."""
        out: List[Warning] = []
        for rule in self.rules:
            template = self._templates.get(rule.template_name)
            if template is None:
                continue
            verdict = rule.evaluate(target, template)
            if verdict is not False:
                continue  # holds, or not applicable (absent entries: ignored)
            score = _BASE_SCORE[WarningKind.CORRELATION] + rule.confidence
            out.append(
                Warning(
                    WarningKind.CORRELATION,
                    rule.attribute_a,
                    f"violates rule: {rule.attribute_a} {rule.relation} "
                    f"{rule.attribute_b} ({rule.description or rule.template_name})",
                    score,
                    value=target.value(rule.attribute_a),
                    evidence=(
                        f"rule held in {rule.valid_count}/{rule.support} "
                        f"training systems (conf={rule.confidence:.2f})"
                    ),
                    rule=rule,
                    explanation=Explanation(
                        observed=target.value(rule.attribute_a),
                        expected=(
                            f"{rule.attribute_a} {rule.relation} "
                            f"{rule.attribute_b}"
                        ),
                        environment=self._correlation_facts(target, rule),
                        provenance_digest=(
                            rule.provenance.digest() if rule.provenance else ""
                        ),
                    ),
                )
            )
        return out

    @staticmethod
    def _correlation_facts(
        target: AssembledSystem, rule: ConcreteRule
    ) -> Tuple[Tuple[str, str], ...]:
        """The attribute values the rule verdict rested on.

        Both rule sides' occurrences on the target, in attribute order —
        including the ``env:`` and augmented columns environment-backed
        templates consult (the paper's "environment information").
        """
        facts: List[Tuple[str, str]] = []
        for attribute in (rule.attribute_a, rule.attribute_b):
            for typed in target.values_of(attribute):
                facts.append((attribute, typed.value))
        return tuple(facts)

    # -- check 3: data types ------------------------------------------------------------

    def check_types(self, target: AssembledSystem) -> List[Warning]:
        """Verify target values against the types learned in training."""
        out: List[Warning] = []
        enforced = self._enforced_types
        cells = target.cells
        # Assembly typed each parsed cell with this inferencer against
        # this image, and on a predefined registry a value inferred as T
        # verifies as T.  Augmented cells (.owner, .group, .permission)
        # were never inferred, and a custom type may shadow the
        # predefined definition verify would use, so those still verify.
        trust_assembly = self.inferencer.registry.predefined_only
        # In no-environment mode (the plain baseline) semantic
        # verification has no system to consult.
        context = target.image if target.environment_available else None
        # (value, type) → verdict: cells repeat values (the augmented
        # .owner/.group columns above all), and within one check the
        # context is fixed, so each pair is verified once.
        verified: Dict[Tuple[str, ConfigType], bool] = {}
        for attribute in target.attributes():
            stats = enforced.get(attribute)
            if stats is None:
                continue
            typed = cells[attribute]
            if (trust_assembly and typed.type is stats.type
                    and not target.is_augmented(attribute)):
                continue
            key = (typed.value, stats.type)
            ok = verified.get(key)
            if ok is None:
                ok = verified[key] = self.inferencer.verify(
                    typed.value, stats.type, context
                )
            if ok:
                continue
            # Violations of a perfectly-stable column (cardinality 1 in
            # training) are ranked "much higher" (§6 example: the
            # extension_dir.type regular-file case).
            cardinality_boost = 1.0 if stats.cardinality == 1 else (
                0.5 if stats.cardinality <= 3 else 0.0
            )
            score = _BASE_SCORE[WarningKind.DATA_TYPE] + cardinality_boost
            out.append(
                Warning(
                    WarningKind.DATA_TYPE, attribute,
                    f"value {typed.value!r} fails verification as "
                    f"{stats.type.value}",
                    score,
                    value=typed.value,
                    evidence=(
                        f"training type {stats.type.value}, "
                        f"{stats.cardinality} distinct training value(s)"
                    ),
                    explanation=Explanation(
                        observed=typed.value,
                        expected=f"a value verifying as {stats.type.value}",
                        environment=(
                            (("env:available", str(target.environment_available)),)
                        ),
                    ),
                )
            )
        return out

    # -- check 4: suspicious values -------------------------------------------------------

    def check_suspicious_values(self, target: AssembledSystem) -> List[Warning]:
        """Unseen values, ranked by Inverse Change Frequency (§6 check 4)."""
        out: List[Warning] = []
        cells = target.cells
        for attribute in target.attributes():
            stats = self.dataset.stats(attribute)
            if stats is None:
                continue  # unknown attributes are check 1's business
            typed = cells[attribute]
            if stats.seen(typed.value):
                continue
            # Free-varying columns (paths, host names, digests) take a new
            # value on many systems; an unseen value there carries no
            # signal, so skip rather than pollute the report.
            if stats.is_free_varying():
                continue
            # Otherwise ICF keeps the stable columns on top.  A deviation
            # from a cardinality-1 column is ranked "much higher" (§6) —
            # comparable to a hard type violation — because the training
            # set never once disagreed about this value.
            icf = stats.inverse_change_frequency()
            score = _BASE_SCORE[WarningKind.SUSPICIOUS_VALUE] + icf
            if stats.cardinality == 1:
                score += 2.2
            out.append(
                Warning(
                    WarningKind.SUSPICIOUS_VALUE, attribute,
                    f"value {typed.value!r} never seen in training",
                    score,
                    value=typed.value,
                    evidence=(
                        f"{stats.cardinality} distinct training value(s), "
                        f"ICF={icf:.3f}"
                    ),
                    explanation=Explanation(
                        observed=typed.value,
                        expected=self._expected_values(stats),
                    ),
                )
            )
        return out

    @staticmethod
    def _expected_values(stats) -> str:
        """Human phrasing of the training value population for check 4."""
        ranked = sorted(stats.value_counts, key=lambda vc: (-vc[1], vc[0]))
        top = [value for value, _ in ranked[:3]]
        listed = ", ".join(repr(v) for v in top)
        if stats.cardinality <= 3:
            return f"one of the training values: {listed}"
        return (
            f"one of {stats.cardinality} training values "
            f"(most common: {listed})"
        )
