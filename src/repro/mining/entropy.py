"""Shannon entropy over attribute value distributions.

Paper §5.2 introduces entropy as EnCore's third rule filter: "It measures
the diversity of the dataset: its value increases when more diverse values
are seen for a given entry", with

    H = - sum_i p_i ln p_i,   p_i = N_i / N.

The paper's threshold is Ht = 0.325, calibrated to a two-value 90%/10%
split.  Natural log, matching the paper's formula.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence

#: The paper's default entropy threshold (two values at 90/10 probability).
DEFAULT_ENTROPY_THRESHOLD = 0.325


def shannon_entropy(probabilities: Sequence[float]) -> float:
    """Entropy (nats) of an explicit probability vector.

    The vector must be non-negative and sum to 1 (within tolerance).
    """
    total = sum(probabilities)
    if probabilities and not math.isclose(total, 1.0, abs_tol=1e-9):
        raise ValueError(f"probabilities must sum to 1, got {total}")
    entropy = 0.0
    for p in probabilities:
        if p < 0:
            raise ValueError(f"negative probability: {p}")
        if p > 0:
            entropy -= p * math.log(p)
    return entropy


def entropy_from_counts(counts: Mapping[object, int]) -> float:
    """Entropy of a value → occurrence-count histogram.

    The summation iterates counts in sorted-key order so the result is a
    deterministic function of the histogram alone — merged shard counters
    and a serial pass over the same values produce bit-identical floats,
    which the sharded-assembly consistency guarantee depends on.
    """
    total = sum(counts.values())
    if total == 0:
        return 0.0
    ordered = sorted(counts.items(), key=lambda kv: str(kv[0]))
    return shannon_entropy([n / total for _, n in ordered])


def value_entropy(values: Iterable[object]) -> float:
    """Entropy of the empirical value distribution of one attribute.

    ``None`` values (attribute absent in that system) are excluded, matching
    the paper's N = "the times this entry appears in the training set".
    An attribute with zero or one distinct value has entropy 0.
    """
    counts: Dict[object, int] = {}
    for value in values:
        if value is None:
            continue
        counts[value] = counts.get(value, 0) + 1
    return entropy_from_counts(counts)
