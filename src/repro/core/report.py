"""Detection reports: the user-facing output of a check run.

Wraps the ranked warning list with convenience queries used throughout the
evaluation harness (rank-of-attribute, counts per kind, text rendering à
la the paper's "Rank 1(5)" notation in Table 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.detector import Warning, WarningKind


def warning_to_dict(warning: Warning, rank: int) -> Dict[str, object]:
    """One warning's JSON surface, shared by reports and the serve API.

    Both ``repro check --json`` and ``POST /v1/check`` emit warnings
    through this function, which is what makes the HTTP response's
    report byte-identical to the CLI's for the same image and model.
    """
    return {
        "rank": rank,
        "kind": warning.kind.value,
        "attribute": warning.attribute,
        "message": warning.message,
        "score": round(warning.score, 4),
        "value": warning.value,
        "evidence": warning.evidence,
        "rule": warning.rule.to_dict() if warning.rule else None,
        "explanation": (
            warning.explanation.to_dict() if warning.explanation else None
        ),
    }


@dataclass
class Report:
    """Ranked detection results for one target system."""

    image_id: str
    warnings: List[Warning]

    def __len__(self) -> int:
        return len(self.warnings)

    def __iter__(self):
        return iter(self.warnings)

    @staticmethod
    def _matches(candidate: str, attribute: str) -> bool:
        """Substring-tolerant attribute matching (tail without app prefix)."""
        tail = candidate.split(":", 1)[-1]
        return (
            candidate == attribute
            or candidate.endswith(":" + attribute)
            or tail == attribute
            # augmented columns of the named entry count as hits
            or candidate.startswith(attribute + ".")
            or tail.startswith(attribute + ".")
        )

    def _implicates(self, warning: Warning, attribute: str) -> bool:
        if self._matches(warning.attribute, attribute):
            return True
        # Correlation warnings implicate both rule sides.
        return warning.rule is not None and (
            self._matches(warning.rule.attribute_a, attribute)
            or self._matches(warning.rule.attribute_b, attribute)
        )

    def rank_of_attribute(
        self, attribute: str, kind: Optional[WarningKind] = None
    ) -> Optional[int]:
        """1-based rank of the first warning on *attribute* (None = missed).

        Matching is substring-tolerant on the attribute tail so evaluation
        scenarios can name entries without app prefixes.
        """
        for rank, warning in enumerate(self.warnings, start=1):
            if kind is not None and warning.kind is not kind:
                continue
            if self._implicates(warning, attribute):
                return rank
        return None

    def warnings_for_attribute(self, attribute: str) -> List[tuple]:
        """Every ``(rank, warning)`` implicating *attribute*, ranked.

        Matching is the :meth:`rank_of_attribute` tolerance plus
        path-segment tails (``long_query_time`` finds
        ``mysql:mysqld/long_query_time``), since ``repro explain`` users
        type entry names, not assembled attribute paths.
        """
        def hits(warning: Warning) -> bool:
            if self._implicates(warning, attribute):
                return True
            candidates = [warning.attribute]
            if warning.rule is not None:
                candidates += [warning.rule.attribute_a, warning.rule.attribute_b]
            return any(c.endswith("/" + attribute) for c in candidates)

        return [
            (rank, warning)
            for rank, warning in enumerate(self.warnings, start=1)
            if hits(warning)
        ]

    def detects(self, attribute: str) -> bool:
        return self.rank_of_attribute(attribute) is not None

    def top(self, n: int = 10) -> List[Warning]:
        return self.warnings[:n]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (used by the CLI's ``--json`` mode)."""
        return {
            "image_id": self.image_id,
            "warning_count": len(self.warnings),
            "warnings": [
                warning_to_dict(warning, rank)
                for rank, warning in enumerate(self.warnings, start=1)
            ],
        }

    def render(self, limit: int = 20) -> str:
        """Plain-text report (what the CLI of the tool would print)."""
        lines = [f"EnCore report for {self.image_id}: {len(self.warnings)} warning(s)"]
        for rank, warning in enumerate(self.warnings[:limit], start=1):
            lines.append(f"  {rank:>3}. {warning}")
            if warning.evidence:
                lines.append(f"       evidence: {warning.evidence}")
            if warning.explanation:
                lines.append(f"       why: {warning.explanation.render()}")
        if len(self.warnings) > limit:
            lines.append(f"  ... {len(self.warnings) - limit} more")
        return "\n".join(lines)
