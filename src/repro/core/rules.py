"""Concrete rules and rule sets (paper §5, Figure 5 output).

A :class:`ConcreteRule` is a template whose placeholders have been filled
with concrete attribute names — e.g. the ownership template instantiated
as ``mysql:mysqld/datadir => mysql:mysqld/user``.  Rules carry the
statistics (support, confidence, entropies) computed during inference so
the detector can rank violations, and serialise to JSON so that "the
learned rules can be reused to check different systems" (§3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.core.dataset import AssembledSystem
from repro.core.templates import RuleTemplate
from repro.obs.model import Provenance


@dataclass(frozen=True)
class ConcreteRule:
    """One learned best-practice rule.

    ``support`` is the number of training systems in which the rule was
    applicable (both attributes present and the validator returned a
    verdict), ``valid_count`` how many of those it held in, and
    ``confidence = valid_count / support``.

    ``provenance`` (snapshot v3) is the evidence record behind the
    rule — contributing training images, filter-stage statistics and
    thresholds — attached by the inferencer and carried through
    serialisation so a deployed detector can always answer "why does
    this rule exist?".  Pre-v3 rule files load with ``provenance=None``.
    """

    template_name: str
    attribute_a: str
    attribute_b: str
    relation: str
    support: int
    valid_count: int
    entropy_a: float = 0.0
    entropy_b: float = 0.0
    description: str = ""
    provenance: Optional[Provenance] = None

    def __post_init__(self) -> None:
        if self.support < 0 or self.valid_count < 0:
            raise ValueError("support and valid_count must be non-negative")
        if self.valid_count > self.support:
            raise ValueError("valid_count cannot exceed support")

    @property
    def confidence(self) -> float:
        return self.valid_count / self.support if self.support else 0.0

    @property
    def key(self) -> tuple:
        return (self.template_name, self.attribute_a, self.attribute_b)

    def __str__(self) -> str:
        return (
            f"{self.attribute_a} {self.relation} {self.attribute_b} "
            f"[{self.template_name}, sup={self.support}, conf={self.confidence:.2f}]"
        )

    def evaluate(
        self, system: AssembledSystem, template: RuleTemplate
    ) -> Optional[bool]:
        """Check this rule against one (target) system.

        Returns ``None`` when "the involved entries are absent in the
        target configuration file" (§6: the rule is then ignored), else the
        validator's verdict.  Multi-occurrence attributes satisfy the rule
        when *any* occurrence pair validates (the ``[A] = [B]`` template
        semantics).
        """
        attribute_a, attribute_b = self.attribute_a, self.attribute_b
        cells = system.cells
        cell_a = cells.get(attribute_a)
        cell_b = cells.get(attribute_b)
        if cell_a is None or cell_b is None:
            return None
        if not (system.is_repeated(attribute_a) or system.is_repeated(attribute_b)):
            verdict = template.validator(cell_a, cell_b, system)
            return None if verdict is None else bool(verdict)
        values_a = system.values_of(attribute_a)
        values_b = system.values_of(attribute_b)
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

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "template": self.template_name,
            "attribute_a": self.attribute_a,
            "attribute_b": self.attribute_b,
            "relation": self.relation,
            "support": self.support,
            "valid_count": self.valid_count,
            "entropy_a": self.entropy_a,
            "entropy_b": self.entropy_b,
            "description": self.description,
        }
        if self.provenance is not None:
            out["provenance"] = self.provenance.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ConcreteRule":
        provenance = data.get("provenance")
        return cls(
            template_name=str(data["template"]),
            attribute_a=str(data["attribute_a"]),
            attribute_b=str(data["attribute_b"]),
            relation=str(data["relation"]),
            support=int(data["support"]),
            valid_count=int(data["valid_count"]),
            entropy_a=float(data.get("entropy_a", 0.0)),
            entropy_b=float(data.get("entropy_b", 0.0)),
            description=str(data.get("description", "")),
            provenance=(
                Provenance.from_dict(provenance) if provenance else None
            ),
        )


class RuleSet:
    """An ordered, deduplicated collection of concrete rules."""

    def __init__(self, rules: Iterable[ConcreteRule] = ()) -> None:
        self._rules: List[ConcreteRule] = []
        self._keys = set()
        for rule in rules:
            self.add(rule)

    def add(self, rule: ConcreteRule) -> bool:
        """Add *rule*; returns False when an equal-keyed rule exists."""
        if rule.key in self._keys:
            return False
        self._keys.add(rule.key)
        self._rules.append(rule)
        return True

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[ConcreteRule]:
        return iter(self._rules)

    def __contains__(self, rule: ConcreteRule) -> bool:
        return rule.key in self._keys

    def by_template(self, template_name: str) -> List[ConcreteRule]:
        return [r for r in self._rules if r.template_name == template_name]

    def involving(self, attribute: str) -> List[ConcreteRule]:
        return [
            r for r in self._rules
            if attribute in (r.attribute_a, r.attribute_b)
        ]

    def sorted_by_confidence(self) -> List[ConcreteRule]:
        return sorted(
            self._rules, key=lambda r: (-r.confidence, -r.support, r.key)
        )

    def to_json(self) -> str:
        return json.dumps([r.to_dict() for r in self._rules], indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RuleSet":
        return cls(ConcreteRule.from_dict(d) for d in json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        out = Path(path)
        out.write_text(self.to_json())
        return out

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RuleSet":
        return cls.from_json(Path(path).read_text())
