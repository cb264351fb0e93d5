"""Template-guided rule inference (paper §5.1, Figure 5).

For each template the inferencer:

1. finds eligible attributes — those whose inferred column type matches
   the template's slot types ("the type information provides an intuitive
   and effective way of attribute selection, which is critical to solve
   the scalability problem");
2. iterates over every (A, B) instantiation and gathers per-system
   verdicts from the template's validation method — only on the systems
   that hold both attributes, as bitmasks over the dataset's rows (bit
   *i* is ``systems[i]``).  The result is two masks, the applicable and
   the valid systems, found by one of four paths.  A validator that
   reads only its two values (:data:`~repro.core.templates.VALUE_ONLY_VALIDATORS`)
   on a pair without repeated attributes is evaluated over the dataset's
   *value groups* — the columns have a handful of distinct values each:

   * **equality** ORs the group masks of the values both columns share;
   * **ordering** (``less_number``'s ``<``, ``less_size``'s ``<=``)
     sorts each column's groups by their reading once per call and ORs
     them into prefix masks; a B group holds on the prefix of the A
     groups below its reading (strictly below for ``<``), found by one
     bisection.  A NaN reading is applicable but never valid;
   * **value pairs** runs the validator once per distinct value pair
     whose groups share a row, while there are no more such pairs than
     shared rows.

   Everything else — environment checks, customization and programmatic
   validators, repeated attributes and high-cardinality value pairs —
   is the **row walk** over the set bits of ``presence(A) & presence(B)``;
3. decides each candidate from its popcounts and entropies with the
   filter pipeline's one decision rule.  Only the candidates that
   survive support and confidence become :class:`ConcreteRule` objects
   with a :class:`Provenance`, whose contributing image ids come from
   the applicable mask in dataset order.  A dropped candidate leaves its
   decision and a counts-only record; :attr:`InferenceResult.audit`
   turns those records into provenance on first read.

Type-restricted instantiation is the paper's answer to the attribute
explosion of §2.2; :meth:`RuleInferencer.candidate_pair_count` exposes the
combinatorics for the ablation benchmark.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, compress
from operator import itemgetter, or_
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

#: A candidate's key: (template name, attribute A, attribute B).
Key = Tuple[str, str, str]

#: One column sorted by a reading, for the ordering kernel: the mask of
#: the rows with a reading (NaN included), the non-NaN readings in
#: ascending order, their groups' masks, and the prefix ORs of those
#: masks (``prefix[i]`` covers the first *i* groups).
_Sorted = Tuple[int, List[float], List[int], List[int]]

#: The decisions that drop a candidate before it becomes a rule.
_BELOW_SUPPORT_OR_CONFIDENCE = (FilterDecision.LOW_SUPPORT, FilterDecision.LOW_CONFIDENCE)


@dataclass
class InferenceResult:
    """Rules plus the filtering audit trail for one inference run."""

    rules: RuleSet
    #: All candidates that met support+confidence, pre-entropy — needed by
    #: the Table 13 ablation without re-running inference.
    pre_entropy_rules: RuleSet
    decisions: Dict[Key, FilterDecision]
    candidate_pairs: int
    #: Per-candidate evidence in candidate order: the survivors'
    #: :class:`Provenance`, and ``(template, support, valid_count,
    #: entropy_a, entropy_b)`` for dropped candidates.
    evidence: Dict[Key, object] = field(default_factory=dict, repr=False)
    #: The pipeline that decided the candidates; it fills in the
    #: thresholds of the dropped candidates' provenance.
    pipeline: Optional[RuleFilterPipeline] = field(default=None, repr=False)
    _audit: Optional[Dict[Key, Provenance]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def audit(self) -> Dict[Key, Provenance]:
        """Per-candidate evidence record (key → :class:`Provenance`),
        covering kept rules *and* dropped candidates with their rejecting
        filter.  Contributing image ids are retained only for candidates
        that survived support+confidence — dropped ones keep counts only,
        so the audit stays compact at mining scale.  Built on first read."""
        if self._audit is None:
            decisions = self.decisions
            self._audit = {
                key: record if isinstance(record, Provenance)
                else self.pipeline.provenance(*record, decisions[key])
                for key, record in self.evidence.items()
            }
        return self._audit


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
        decide = pipeline.decide_counts
        kept = RuleSet()
        pre_entropy = RuleSet()
        decisions: Dict[Key, FilterDecision] = {}
        evidence: Dict[Key, object] = {}
        pair_count = 0
        registry = get_registry()
        # One (row, first-occurrence cells, row bit) entry per system, so
        # the per-row inner loop makes no method calls of its own.
        rows = [
            (system, system.cells, 1 << index)
            for index, system in enumerate(dataset)
        ]
        image_ids = [system.image_id for system in dataset]
        entropy = {
            attribute: dataset.stats(attribute).entropy
            for attribute in dataset.attributes()
        }
        # Columns sorted by a reading, for the ordering kernel; local to
        # this call, like the dataset it describes.
        sorted_columns: Dict[Tuple[str, str], _Sorted] = {}
        with span("infer", templates=len(self.templates)) as infer_span:
            for template in self.templates:
                # Telemetry is aggregated per template, never per pair:
                # the inner loop is the hottest path in learning.
                t_pairs = 0
                t_decisions: Dict[FilterDecision, int] = {}
                name = template.name
                relation = template.relation.value
                entropy_filtered = template.entropy_filtered
                with span("infer.template", template=name) as t_span:
                    for attr_a, attr_b in self._pairs(dataset, template):
                        t_pairs += 1
                        masks = self._evaluate_pair(
                            dataset, rows, template, attr_a, attr_b, sorted_columns
                        )
                        if masks is None:
                            continue
                        applicable, valid = masks
                        support = applicable.bit_count()
                        valid_count = valid.bit_count()
                        entropy_a = entropy[attr_a]
                        entropy_b = entropy[attr_b]
                        decision = decide(
                            support, valid_count, entropy_a, entropy_b,
                            entropy_filtered,
                        )
                        key = (name, attr_a, attr_b)
                        decisions[key] = decision
                        t_decisions[decision] = t_decisions.get(decision, 0) + 1
                        if decision in _BELOW_SUPPORT_OR_CONFIDENCE:
                            # Counts only, turned into provenance when the
                            # audit is first read.
                            evidence[key] = (
                                template, support, valid_count, entropy_a, entropy_b
                            )
                            continue
                        provenance = evidence[key] = pipeline.provenance(
                            template, support, valid_count, entropy_a, entropy_b,
                            decision, tuple(_at_bits(image_ids, applicable)),
                        )
                        rule = ConcreteRule(
                            name, attr_a, attr_b, relation, support, valid_count,
                            entropy_a, entropy_b, template.description, provenance,
                        )
                        pre_entropy.add(rule)
                        if decision is FilterDecision.KEPT:
                            kept.add(rule)
                    t_kept = t_decisions.pop(FilterDecision.KEPT, 0)
                    t_span.annotate(pairs=t_pairs, kept=t_kept)
                pair_count += t_pairs
                registry.counter("infer.pairs.candidate", template=name).inc(t_pairs)
                registry.counter("infer.rules.kept", template=name).inc(t_kept)
                for reason, dropped in t_decisions.items():
                    registry.counter(
                        "infer.rules.dropped", template=name, reason=reason.value
                    ).inc(dropped)
            infer_span.annotate(pairs=pair_count, kept=len(kept))
        return InferenceResult(
            rules=kept,
            pre_entropy_rules=pre_entropy,
            decisions=decisions,
            candidate_pairs=pair_count,
            evidence=evidence,
            pipeline=pipeline,
        )

    def _evaluate_pair(
        self,
        dataset: Dataset,
        rows: Sequence[_Row],
        template: RuleTemplate,
        attr_a: str,
        attr_b: str,
        sorted_columns: Dict[Tuple[str, str], _Sorted],
    ) -> Optional[Tuple[int, int]]:
        """Gather verdicts for one instantiation across the systems that
        hold both attributes.

        Returns the *applicable* mask (the systems where the validator
        gave a verdict: the provenance population) and the *valid* mask,
        or ``None`` when it applied nowhere.  The path depends on the
        pair (see the module docstring); *sorted_columns* memoises the
        ordering kernel's sorted columns for one :meth:`infer` call.
        """
        both = dataset.presence(attr_a) & dataset.presence(attr_b)
        if not both:
            return None
        applicable = valid = 0
        validator = template.validator
        how = VALUE_ONLY_VALIDATORS.get(validator)
        repeats = dataset.is_multi_valued(attr_a) or dataset.is_multi_valued(attr_b)
        if how is not None and not repeats:
            if how.kind == "ordering":
                reading = how.reading
                cover_a, readings_a, _, prefix_a = (
                    sorted_columns.get((attr_a, reading))
                    or _sorted_column(dataset, attr_a, reading, sorted_columns)
                )
                cover_b, readings_b, masks_b, _ = (
                    sorted_columns.get((attr_b, reading))
                    or _sorted_column(dataset, attr_b, reading, sorted_columns)
                )
                applicable = cover_a & cover_b
                if not applicable:
                    return None
                # Each B group holds where some A reading is below its own.
                below = bisect_left if how.strict else bisect_right
                for reading_b, mask_b in zip(readings_b, masks_b):
                    valid |= mask_b & prefix_a[below(readings_a, reading_b)]
                return applicable, valid
            groups_a = dataset.value_groups(attr_a)
            groups_b = dataset.value_groups(attr_b)
            if how.kind == "equality":
                applicable = both
                if len(groups_a) > len(groups_b):
                    groups_a, groups_b = groups_b, groups_a
                for value, (mask_a, _) in groups_a.items():
                    group_b = groups_b.get(value)
                    if group_b is not None:
                        valid |= mask_a & group_b[0]
                return applicable, valid
            if len(groups_a) * len(groups_b) <= both.bit_count():
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
                return (applicable, valid) if applicable else None
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
        return (applicable, valid) if applicable else None

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


#: Binary digits to selector bytes: ``"0"`` → 0, ``"1"`` → 1.
_DIGIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def _at_bits(items: Sequence, mask: int) -> Iterator:
    """The items at the set bits of *mask* (bit *i* ↔ ``items[i]``), in
    order; the binary digits, as 0/1 bytes, select them without a Python
    call per bit."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_DIGIT_SELECTORS))


def _sorted_column(
    dataset: Dataset,
    attribute: str,
    reading: str,
    memo: Dict[Tuple[str, str], _Sorted],
) -> _Sorted:
    """*attribute*'s value groups sorted by their *reading* (see
    :data:`_Sorted`), stored in *memo* under ``(attribute, reading)``."""
    cover = 0
    ordered = []
    for mask, typed in dataset.value_groups(attribute).values():
        number = getattr(typed, reading)
        if number is None:
            continue
        cover |= mask
        if number == number:  # NaN compares false with everything
            ordered.append((number, mask))
    ordered.sort(key=itemgetter(0))
    masks = [mask for _, mask in ordered]
    column = memo[(attribute, reading)] = (
        cover,
        [number for number, _ in ordered],
        masks,
        list(accumulate(masks, or_, initial=0)),
    )
    return column
