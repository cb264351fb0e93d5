"""Compare two sets of benchmark runs against BENCHMARK.json's bounds.

Usage::

    python3 benchmarks/layers/compare.py A.json B.json
    python3 benchmarks/layers/compare.py benchmarks/layers/baseline.json

A set is what ``run.py --runs N --out FILE`` writes; a file holding
``{"sets": [...]}`` (such as ``baseline.json``) stands for its last set,
and given alone compares its first set with its last.  Each (workload,
metric) pair is labelled:

* ``unresolved`` when either set's spread (interquartile range over the
  median) is wider than the metric's bound, unless every run of B reads
  better than every run of A;
* ``regressed`` when B's median is worse than A's by more than the bound;
* ``ok`` otherwise.

Exits 1 when any pair regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Sequence, Tuple

from run import load_bench, spread


def load_sets(path: str) -> List[dict]:
    document = json.loads(Path(path).read_text())
    return document["sets"] if "sets" in document else [document]


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str) -> Tuple[str, float]:
    """(label, relative change of B against A; positive is worse)."""
    median_a, _, _, spread_a = spread(a)
    median_b, _, _, spread_b = spread(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (median_b - median_a) / median_a
    b_always_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if max(spread_a, spread_b) > bound and not b_always_better:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    return "ok", worse


def compare(set_a: dict, set_b: dict) -> int:
    metrics = {m["name"]: m for m in load_bench()["end_to_end"]}
    print(f"{'workload':<15} {'metric':<16} {'median A':>10} {'median B':>10} "
          f"{'change':>7} {'bound':>6}  verdict")
    regressed = False
    for workload, runs_a in set_a["runs"].items():
        runs_b = set_b["runs"].get(workload, {})
        for name, values_a in runs_a.items():
            values_b = runs_b.get(name)
            if not values_b or len(values_a) < 2 or len(values_b) < 2:
                print(f"{workload:<15} {name:<16} {'':>10} {'':>10} {'':>7} {'':>6}  missing")
                continue
            metric = metrics[name]
            label, worse = verdict(values_a, values_b, metric["bound"], metric["better"])
            regressed = regressed or label == "regressed"
            print(f"{workload:<15} {name:<16} {spread(values_a)[0]:>10.4g} "
                  f"{spread(values_b)[0]:>10.4g} {worse:>+7.1%} {metric['bound']:>6.2f}  {label}")
    return 1 if regressed else 0


def main(argv: Sequence[str]) -> int:
    if len(argv) == 1:
        sets = load_sets(argv[0])
        return compare(sets[0], sets[-1])
    if len(argv) == 2:
        return compare(load_sets(argv[0])[-1], load_sets(argv[1])[-1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
