"""Template-guided rule inference (paper §5.1, Figure 5).

For each template the inferencer:

1. finds eligible attributes — those whose inferred column type matches
   the template's slot types ("the type information provides an intuitive
   and effective way of attribute selection, which is critical to solve
   the scalability problem");
2. iterates over every (A, B) instantiation and gathers per-system
   verdicts from the template's validation method — only on the systems
   that hold both attributes, as bitmasks over the dataset's rows (bit
   *i* is ``systems[i]``).  A validator that reads only its two values
   (:data:`~repro.core.templates.VALUE_ONLY_VALIDATORS`) is evaluated
   over the dataset's *value groups*, once per distinct value pair
   rather than once per row; the columns have a handful of distinct
   values each.  Every other validator walks the set bits of
   ``presence(A) & presence(B)``.  Either way the result is two masks,
   the applicable and the valid systems;
3. computes support / confidence / entropy as popcounts and runs the
   filter pipeline.  Only the candidates that survive support and
   confidence turn their applicable mask into contributing image ids,
   in dataset order.

Type-restricted instantiation is the paper's answer to the attribute
explosion of §2.2; :meth:`RuleInferencer.candidate_pair_count` exposes the
combinatorics for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.dataset import AssembledSystem, Dataset
from repro.core.filters import FilterDecision, RuleFilterPipeline
from repro.core.rules import ConcreteRule, RuleSet
from repro.core.templates import (
    VALUE_ONLY_VALIDATORS, RuleTemplate, default_templates,
)
from repro.core.types import ConfigType, TypedValue
from repro.mining.entropy import DEFAULT_ENTROPY_THRESHOLD
from repro.obs.metrics import get_registry
from repro.obs.model import Provenance
from repro.obs.tracing import span

#: One training row as the inner loop reads it: the system (for
#: environment checks), its first-occurrence cells and its mask bit.
_Row = Tuple[AssembledSystem, Mapping[str, TypedValue], int]


@dataclass
class InferenceResult:
    """Rules plus the filtering audit trail for one inference run."""

    rules: RuleSet
    #: All candidates that met support+confidence, pre-entropy — needed by
    #: the Table 13 ablation without re-running inference.
    pre_entropy_rules: RuleSet
    decisions: Dict[Tuple[str, str, str], FilterDecision]
    candidate_pairs: int
    #: Per-candidate evidence record (key → :class:`Provenance`),
    #: covering kept rules *and* dropped candidates with their rejecting
    #: filter.  Contributing image ids are retained only for candidates
    #: that survived support+confidence — dropped ones keep counts only,
    #: so the audit stays compact at mining scale.
    audit: Dict[Tuple[str, str, str], Provenance] = field(default_factory=dict)


class RuleInferencer:
    """Learns concrete rules from an assembled dataset."""

    def __init__(
        self,
        templates: Optional[Sequence[RuleTemplate]] = None,
        min_support_fraction: float = 0.10,
        min_confidence: float = 0.90,
        entropy_threshold: float = DEFAULT_ENTROPY_THRESHOLD,
        use_entropy: bool = True,
        restrict_types: bool = True,
    ) -> None:
        self.templates = list(templates if templates is not None else default_templates())
        self.min_support_fraction = min_support_fraction
        self.min_confidence = min_confidence
        self.entropy_threshold = entropy_threshold
        self.use_entropy = use_entropy
        #: ``False`` disables type-based slot restriction (ablation of the
        #: paper's scalability mechanism): every attribute becomes eligible
        #: for every slot.
        self.restrict_types = restrict_types

    # -- eligibility -------------------------------------------------------------

    def eligible_attributes(
        self, dataset: Dataset, slot_type: ConfigType
    ) -> List[str]:
        """Attributes that may fill a slot of *slot_type*.

        ``String``-typed slots accept any attribute (the equality templates
        of Table 6 apply to "another entry of same type" — the same-type
        constraint is enforced pairwise in :meth:`_pairs`).
        """
        if not self.restrict_types:
            return dataset.attributes()
        if slot_type is ConfigType.STRING:
            return dataset.attributes()
        return dataset.attributes_of_type(slot_type)

    def _pairs(
        self, dataset: Dataset, template: RuleTemplate
    ) -> Iterable[Tuple[str, str]]:
        same_type_required = (
            self.restrict_types
            and template.type_a is ConfigType.STRING
            and template.type_b is ConfigType.STRING
        )

        def slot(slot_type: ConfigType, is_b: bool) -> List[Tuple[str, ConfigType, bool]]:
            """(attribute, type, multi-valued) for each attribute the slot
            may bind on its own; the pairwise constraints come below."""
            out = []
            for attribute in self.eligible_attributes(dataset, slot_type):
                config_type = dataset.type_of(attribute)
                augmented = dataset.is_augmented(attribute)
                multi = dataset.is_multi_valued(attribute)
                if same_type_required and (config_type is None or config_type.is_trivial):
                    continue
                if augmented and not template.allow_augmented:
                    continue
                if template.slot_b_augmented_only and augmented is not is_b:
                    continue
                if multi and template.multiplicity == "single":
                    continue
                out.append((attribute, config_type, multi))
            return out

        right = slot(template.type_b, is_b=True)
        for a, type_a, multi_a in slot(template.type_a, is_b=False):
            for b, type_b, multi_b in right:
                if a == b:
                    continue
                if template.symmetric and a > b:
                    continue
                if same_type_required and type_a is not type_b:
                    continue
                if template.multiplicity == "multi" and not (multi_a or multi_b):
                    continue
                yield a, b

    def candidate_pair_count(self, dataset: Dataset) -> int:
        """Total (template, A, B) instantiations the run will consider."""
        return sum(
            sum(1 for _ in self._pairs(dataset, template))
            for template in self.templates
        )

    # -- inference ---------------------------------------------------------------

    def infer(self, dataset: Dataset) -> InferenceResult:
        """Run the full Figure 5 workflow over *dataset*."""
        pipeline = RuleFilterPipeline(
            training_size=len(dataset),
            min_support_fraction=self.min_support_fraction,
            min_confidence=self.min_confidence,
            entropy_threshold=self.entropy_threshold,
            use_entropy=self.use_entropy,
        )
        kept = RuleSet()
        pre_entropy = RuleSet()
        decisions: Dict[Tuple[str, str, str], FilterDecision] = {}
        audit: Dict[Tuple[str, str, str], Provenance] = {}
        pair_count = 0
        registry = get_registry()
        # One (row, first-occurrence cells, row bit) entry per system, so
        # the per-row inner loop makes no method calls of its own.
        rows = [
            (system, system.cells, 1 << index)
            for index, system in enumerate(dataset)
        ]
        image_ids = [system.image_id for system in dataset]
        with span("infer", templates=len(self.templates)) as infer_span:
            for template in self.templates:
                # Telemetry is aggregated per template, never per pair:
                # the inner loop is the hottest path in learning.
                t_pairs = t_kept = 0
                t_drops: Dict[str, int] = {}
                with span("infer.template", template=template.name) as t_span:
                    for attr_a, attr_b in self._pairs(dataset, template):
                        t_pairs += 1
                        evaluated = self._evaluate_pair(
                            dataset, rows, template, attr_a, attr_b
                        )
                        if evaluated is None:
                            continue
                        rule, applicable = evaluated
                        decision = pipeline.decide(rule, template)
                        survived = decision in (
                            FilterDecision.KEPT, FilterDecision.LOW_ENTROPY
                        )
                        provenance = pipeline.provenance(
                            rule, template, decision,
                            tuple(_at_bits(image_ids, applicable)) if survived else (),
                        )
                        decisions[rule.key] = decision
                        audit[rule.key] = provenance
                        if survived:
                            # Only survivors are kept as rules; a dropped
                            # candidate leaves its key and provenance.
                            rule = replace(rule, provenance=provenance)
                            pre_entropy.add(rule)
                        if decision is FilterDecision.KEPT:
                            kept.add(rule)
                            t_kept += 1
                        else:
                            t_drops[decision.value] = t_drops.get(decision.value, 0) + 1
                    t_span.annotate(pairs=t_pairs, kept=t_kept)
                pair_count += t_pairs
                registry.counter(
                    "infer.pairs.candidate", template=template.name
                ).inc(t_pairs)
                registry.counter("infer.rules.kept", template=template.name).inc(t_kept)
                for reason, dropped in t_drops.items():
                    registry.counter(
                        "infer.rules.dropped", template=template.name, reason=reason
                    ).inc(dropped)
            infer_span.annotate(pairs=pair_count, kept=len(kept))
        return InferenceResult(
            rules=kept,
            pre_entropy_rules=pre_entropy,
            decisions=decisions,
            candidate_pairs=pair_count,
            audit=audit,
        )

    def _evaluate_pair(
        self,
        dataset: Dataset,
        rows: Sequence[_Row],
        template: RuleTemplate,
        attr_a: str,
        attr_b: str,
    ) -> Optional[Tuple[ConcreteRule, int]]:
        """Gather verdicts for one instantiation across the systems that
        hold both attributes.

        Returns the rule and its *applicable* mask (the systems where
        the validator gave a verdict: the provenance population), or
        ``None`` when it applied nowhere.  The path depends on the pair:

        * equality validators over single-occurrence attributes always
          apply, and hold where both columns share a value: the valid
          mask is the OR of the common values' group masks;
        * other value-only validators over single-occurrence attributes
          run once per distinct value pair whose groups share a row, as
          long as there are no more such pairs than shared rows;
        * everything else — environment checks, customization and
          programmatic validators, repeated attributes and
          high-cardinality pairs — runs once per shared row, with
          any-occurrence semantics for repeated attributes.
        """
        validator = template.validator
        both = dataset.presence(attr_a) & dataset.presence(attr_b)
        if not both:
            return None
        applicable = valid = 0
        equality = VALUE_ONLY_VALIDATORS.get(validator)
        repeats = dataset.is_multi_valued(attr_a) or dataset.is_multi_valued(attr_b)
        groups_a = groups_b = None
        if equality is not None and not repeats:
            groups_a = dataset.value_groups(attr_a)
            groups_b = dataset.value_groups(attr_b)
            if not equality and len(groups_a) * len(groups_b) > both.bit_count():
                groups_a = groups_b = None
        if groups_a is None:
            for system, cells, bit in _at_bits(rows, both):
                if repeats:
                    verdict = self._system_verdict(
                        template, system.values_of(attr_a),
                        system.values_of(attr_b), system,
                    )
                else:
                    verdict = validator(cells[attr_a], cells[attr_b], system)
                if verdict is None:
                    continue
                applicable |= bit
                if verdict:
                    valid |= bit
        elif equality:
            applicable = both
            if len(groups_a) > len(groups_b):
                groups_a, groups_b = groups_b, groups_a
            for value, (mask_a, _) in groups_a.items():
                group_b = groups_b.get(value)
                if group_b is not None:
                    valid |= mask_a & group_b[0]
        else:
            for mask_a, typed_a in groups_a.values():
                for mask_b, typed_b in groups_b.values():
                    shared = mask_a & mask_b
                    if not shared:
                        continue
                    # Value-only: the system argument is never read.
                    verdict = validator(typed_a, typed_b, None)
                    if verdict is None:
                        continue
                    applicable |= shared
                    if verdict:
                        valid |= shared
        if not applicable:
            return None
        stats_a = dataset.stats(attr_a)
        stats_b = dataset.stats(attr_b)
        rule = ConcreteRule(
            template_name=template.name,
            attribute_a=attr_a,
            attribute_b=attr_b,
            relation=template.relation.value,
            support=applicable.bit_count(),
            valid_count=valid.bit_count(),
            entropy_a=stats_a.entropy if stats_a else 0.0,
            entropy_b=stats_b.entropy if stats_b else 0.0,
            description=template.description,
        )
        return rule, applicable

    @staticmethod
    def _system_verdict(template, values_a, values_b, system) -> Optional[bool]:
        """Any-occurrence semantics: the rule holds in a system when some
        occurrence pair validates; it is violated when at least one pair
        was applicable and none validated."""
        applicable = False
        for a in values_a:
            for b in values_b:
                verdict = template.validate(a, b, system)
                if verdict is None:
                    continue
                applicable = True
                if verdict:
                    return True
        return False if applicable else None


def _at_bits(items: Sequence, mask: int) -> Iterator:
    """The items at the set bits of *mask* (bit *i* ↔ ``items[i]``), in
    order; the binary digits select them without per-bit arithmetic."""
    return compress(items, map("1".__eq__, bin(mask)[:1:-1]))
