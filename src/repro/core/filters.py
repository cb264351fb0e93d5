"""Rule filtering (paper §5.2).

Three metrics prune false rules from the raw candidate set:

* **support** — how often the involved attributes co-occur in the data
  set (threshold: a fraction of the training set size; the paper uses 10%
  of the number of images);
* **confidence** — the percentage of applicable systems in which the rule
  is valid (paper threshold: 90%);
* **entropy** — attribute value diversity; attributes whose values almost
  never change are "not interesting, and the rules involving [them] are
  likely to be noise" (threshold Ht = 0.325, the entropy of a 90/10
  two-value split).

Per §7.3 entropy is applied to value-comparison rule kinds (numeric/size
ordering, equality, boolean association), where stable template-image
defaults create spurious orderings; environment-validated templates
(ownership, accessibility, path concatenation, group membership) are
exempt, since their attributes (e.g. ``user = mysql`` everywhere) are
legitimately stable.  Templates declare this via ``entropy_filtered``.
"""

from __future__ import annotations

from enum import Enum
from typing import Tuple

from repro.core.rules import ConcreteRule
from repro.core.templates import RuleTemplate
from repro.mining.entropy import DEFAULT_ENTROPY_THRESHOLD
from repro.obs.model import Provenance


class FilterDecision(str, Enum):
    """Outcome of filtering one candidate rule."""

    KEPT = "kept"
    LOW_SUPPORT = "low_support"
    LOW_CONFIDENCE = "low_confidence"
    LOW_ENTROPY = "low_entropy"


class RuleFilterPipeline:
    """support → confidence → entropy, in the paper's order.

    ``min_support_fraction`` is relative to the number of training images;
    ``use_entropy=False`` disables the third filter (the Table 13
    ablation).
    """

    def __init__(
        self,
        training_size: int,
        min_support_fraction: float = 0.10,
        min_confidence: float = 0.90,
        entropy_threshold: float = DEFAULT_ENTROPY_THRESHOLD,
        use_entropy: bool = True,
    ) -> None:
        if training_size < 1:
            raise ValueError("training_size must be >= 1")
        if not 0 <= min_support_fraction <= 1:
            raise ValueError("min_support_fraction must be in [0,1]")
        if not 0 <= min_confidence <= 1:
            raise ValueError("min_confidence must be in [0,1]")
        self.training_size = training_size
        self.min_support = max(1, int(round(min_support_fraction * training_size)))
        self.min_confidence = min_confidence
        self.entropy_threshold = entropy_threshold
        self.use_entropy = use_entropy

    def decide(self, rule: ConcreteRule, template: RuleTemplate) -> FilterDecision:
        """Classify one candidate rule."""
        return self.decide_counts(
            rule.support, rule.valid_count, rule.entropy_a, rule.entropy_b,
            template.entropy_filtered,
        )

    def decide_counts(
        self,
        support: int,
        valid_count: int,
        entropy_a: float,
        entropy_b: float,
        entropy_filtered: bool,
    ) -> FilterDecision:
        """Classify one candidate from its counts and entropies — the
        one decision rule; inference calls it before any rule object
        exists."""
        if support < self.min_support:
            return FilterDecision.LOW_SUPPORT
        if (valid_count / support if support else 0.0) < self.min_confidence:
            return FilterDecision.LOW_CONFIDENCE
        if (
            self.use_entropy
            and entropy_filtered
            and (
                entropy_a <= self.entropy_threshold
                or entropy_b <= self.entropy_threshold
            )
        ):
            return FilterDecision.LOW_ENTROPY
        return FilterDecision.KEPT

    def provenance(
        self,
        template: RuleTemplate,
        support: int,
        valid_count: int,
        entropy_a: float,
        entropy_b: float,
        decision: FilterDecision,
        contributing_images: Tuple[str, ...] = (),
    ) -> Provenance:
        """The evidence record for one filtered candidate.

        Built here — not in the inferencer — so the thresholds recorded
        are exactly the ones this pipeline applied, and the rejecting
        filter for dropped candidates matches :meth:`decide_counts`'s
        verdict.
        """
        return Provenance(
            template=template.name,
            contributing_images=contributing_images,
            support=support,
            valid_count=valid_count,
            entropy_a=entropy_a,
            entropy_b=entropy_b,
            min_support=self.min_support,
            min_confidence=self.min_confidence,
            entropy_threshold=self.entropy_threshold,
            entropy_filtered=self.use_entropy and template.entropy_filtered,
            decision=decision.value,
        )
