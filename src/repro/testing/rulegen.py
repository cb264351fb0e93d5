"""Rule-guided test-case generation (the §8 ConfErr-enhancement idea).

For each learned rule that applies to a seed image, generate a mutated
image that *violates exactly that rule*.  The mutation is the break of
the rule's template in :data:`repro.core.repair.TEMPLATE_TABLE`, which
states next to it the repair that restores the rule.  Breaks are either
**environment** mutations (chown, chmod, remove a path — something
ConfErr cannot produce) or **config** mutations through
:meth:`SystemImage.set_config_value`.  Templates whose entry has no
break, and custom ``$$Template`` rules, get no mutant.

Each :class:`GeneratedTest` records the targeted rule and the mutation,
and carries the oracle: a fresh EnCore check of the mutated image should
flag the targeted rule (used both as a self-test of the detector and as
a seed corpus for configuration-testing campaigns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.dataset import AssembledSystem
from repro.core.pipeline import TrainedModel
from repro.core.repair import TEMPLATE_TABLE
from repro.core.rules import ConcreteRule
from repro.sysmodel.image import SystemImage


@dataclass
class GeneratedTest:
    """One targeted test case."""

    rule: ConcreteRule
    mutation_kind: str  # "environment" | "config"
    description: str
    image: SystemImage

    def __str__(self) -> str:
        return f"[{self.mutation_kind}] {self.description}"


class RuleGuidedTestGenerator:
    """Synthesizes rule-violating mutants of a seed image."""

    def __init__(self, model: TrainedModel) -> None:
        self.model = model

    def generate(
        self,
        seed_image: SystemImage,
        target: AssembledSystem,
        max_tests: Optional[int] = None,
    ) -> List[GeneratedTest]:
        """Mutants for every applicable rule (up to *max_tests*).

        *target* is the assembled row of *seed_image* (the generator
        needs values and types; assembling is the caller's job so one
        assembly can serve many generators).
        """
        out: List[GeneratedTest] = []
        for rule in self.model.rules:
            if max_tests is not None and len(out) >= max_tests:
                break
            test = self._mutate_for_rule(rule, seed_image, target, len(out))
            if test is not None:
                out.append(test)
        return out

    def _mutate_for_rule(
        self,
        rule: ConcreteRule,
        seed: SystemImage,
        target: AssembledSystem,
        index: int,
    ) -> Optional[GeneratedTest]:
        entry = TEMPLATE_TABLE.get(rule.template_name)
        value_a = target.value(rule.attribute_a)
        value_b = target.value(rule.attribute_b)
        if entry is None or entry.break_ is None or value_a is None or value_b is None:
            return None
        mutant = seed.copy(f"{seed.image_id}-t{index}")
        broken = entry.break_(rule, mutant, value_a, value_b)
        if broken is None:
            return None
        return GeneratedTest(rule, *broken, mutant)
