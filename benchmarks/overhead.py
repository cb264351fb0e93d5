"""Overhead budget check for the always-on instruments of a check pass.

Two instruments must each cost at most 2 % of a bare check pass's wall
time:

* ``tracer`` — an active :class:`~repro.obs.tracing.Tracer` retaining
  the span tree plus a :class:`~repro.obs.flight.FlightRecorder` fed by
  every closed span: exactly what a traced ``repro check`` or a serve
  request pays per target;
* ``timeline`` — a :class:`~repro.obs.timeline.TimelineSampler`
  sampling the live registry after *every* checked target (interval
  ≈ 0, the worst case; the serve daemon samples every 5 s).

For each instrument the script trains a small corpus, then alternates
bare and instrumented check passes over the same targets.  Both sides
take best-of-N, so machine noise hits them equally.  It writes nothing
and exits 1 when either instrument is over its budget.

Usage::

    PYTHONPATH=src python benchmarks/overhead.py --quick
    PYTHONPATH=src python benchmarks/overhead.py
"""

from __future__ import annotations

import argparse
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, Optional, Sequence

#: The wall-clock budget each instrument must stay under.
BUDGET_PCT = 2.0


@contextmanager
def _traced() -> Iterator[None]:
    from repro.obs.flight import FlightRecorder, set_flight
    from repro.obs.tracing import Tracer, set_tracer

    set_tracer(Tracer())
    set_flight(FlightRecorder())
    try:
        yield None
    finally:
        set_tracer(None)
        set_flight(None)


@contextmanager
def _sampled() -> Iterator[Callable[[], object]]:
    from repro.obs.metrics import get_registry
    from repro.obs.timeline import TimelineSampler

    yield TimelineSampler(get_registry(), interval_s=1e-9).maybe_sample


#: name -> (context yielding an optional per-target hook, corpus seed,
#: first target id).  Each instrument keeps its own corpus and targets.
INSTRUMENTS = {
    "tracer": (_traced, 47, 7000),
    "timeline": (_sampled, 31, 5000),
}


def measure(
    name: str, corpus_size: int, checks: int, trials: int
) -> Dict[str, float]:
    """Best-of-N check-pass walls, bare vs with instrument *name* live."""
    from repro.core.pipeline import EnCore
    from repro.corpus.generator import Ec2CorpusGenerator

    instrument, seed, first_target = INSTRUMENTS[name]
    generator = Ec2CorpusGenerator(seed=seed)
    encore = EnCore()
    encore.train(list(generator.generate(corpus_size)))
    targets = [generator.generate_one(first_target + i) for i in range(checks)]

    def check_pass(instrumented: bool) -> float:
        with (instrument() if instrumented else nullcontext()) as per_target:
            start = time.perf_counter()
            for image in targets:
                encore.check(image)
                if per_target is not None:
                    per_target()
            return time.perf_counter() - start

    check_pass(False)  # warm caches/imports before timing anything
    bare_walls, instrumented_walls = [], []
    for _ in range(trials):
        bare_walls.append(check_pass(False))
        instrumented_walls.append(check_pass(True))
    bare, instrumented = min(bare_walls), min(instrumented_walls)
    return {
        "bare_seconds": round(bare, 4),
        "instrumented_seconds": round(instrumented, 4),
        "overhead_pct": round((instrumented - bare) / bare * 100.0, 3),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="check tracer and timeline-sampler overhead budgets"
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (small corpus, fewer trials)")
    args = parser.parse_args(argv)
    corpus_size, checks, trials = (24, 30, 3) if args.quick else (60, 120, 5)
    failed = False
    for name in INSTRUMENTS:
        result = measure(name, corpus_size, checks, trials)
        over = result["overhead_pct"] > BUDGET_PCT
        failed = failed or over
        print(f"{name:<9} bare={result['bare_seconds']:.4f}s "
              f"instrumented={result['instrumented_seconds']:.4f}s "
              f"overhead={result['overhead_pct']:+.3f}% "
              f"(budget {BUDGET_PCT:g}%) ... {'FAIL' if over else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
