"""The abstract's headline: EnCore detects 1.6x-3.5x more than prior work.

Computes the EnCore/Baseline detection ratios from the Table 8 protocol
across the three applications and several seeds, reporting the range.
"""

from conftest import TRAINING_IMAGES, archive, run_once

from repro.evaluation.injection import run_injection_experiment


def test_headline_detection_ratio(benchmark, results_dir):
    def run():
        ratios = []
        rows = []
        for app in ("apache", "mysql", "php"):
            for seed in (17, 23):
                result = run_injection_experiment(
                    app, training_images=TRAINING_IMAGES[app], seed=seed
                )
                ratio = result.encore / max(1, result.baseline)
                ratios.append(ratio)
                rows.append(
                    f"  {app:8s} seed={seed}: baseline={result.baseline:2d} "
                    f"encore={result.encore:2d}  ratio={ratio:.2f}x"
                )
        return ratios, rows

    ratios, rows = run_once(benchmark, run)
    text = "\n".join(
        ["EnCore / Baseline detection ratios (Table 8 protocol):"]
        + rows
        + [f"  range: {min(ratios):.2f}x - {max(ratios):.2f}x "
           "(paper: 1.6x - 3.5x)"]
    )
    archive(results_dir, "headline_claim", text)
    # Direction: EnCore never loses to the baseline, and beats it
    # meaningfully somewhere.
    assert min(ratios) >= 1.0
    assert max(ratios) >= 1.4
