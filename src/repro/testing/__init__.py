"""Rule-guided configuration-test generation.

The paper's Related Work (§8) observes that configuration testing tools
(SPEX, ConfErr, KLEE) "can benefit from EnCore since it provides new
error injection opportunities such as erroneous environment settings and
violations of correlation rules".  This package realises that direction:
given a trained EnCore model, :class:`~repro.testing.rulegen.
RuleGuidedTestGenerator` synthesizes targeted test cases — configuration
or environment mutations engineered to violate specific learned rules —
far more focused than ConfErr's random mistakes.

:mod:`repro.testing.faults` complements it with *infrastructure* fault
injection: seeded config-text corruptors, corpus poisoning, and a
deterministic :class:`~repro.testing.faults.FaultPlan` that crashes or
hangs worker processes on chosen images — the harness behind the chaos
tests that exercise the pipeline's quarantine and shard-recovery paths
(see ``docs/robustness.md``).

The names below resolve on first use, so ``python -m
repro.testing.faults`` runs the module once, not a second time through
this package's import.
"""

from importlib import import_module

#: Public name → the submodule that defines it.
_EXPORTS = {
    "CORRUPTIONS": "repro.testing.faults",
    "FaultPlan": "repro.testing.faults",
    "GeneratedTest": "repro.testing.rulegen",
    "RuleGuidedTestGenerator": "repro.testing.rulegen",
    "corrupt_text": "repro.testing.faults",
    "poison_corpus": "repro.testing.faults",
    "poison_image": "repro.testing.faults",
    "poison_snapshot_dir": "repro.testing.faults",
    "poisonable_app": "repro.testing.faults",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value
