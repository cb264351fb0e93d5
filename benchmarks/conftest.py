"""Shared helpers for the benchmark harness.

Each ``bench_table*.py`` regenerates one table of the paper's evaluation
at (approximately) paper scale, prints the measured rows next to the
paper's numbers, and archives the rendering under
``benchmarks/results/<name>.txt``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/ -q --benchmark-disable

Benchmarks assert only *shape* properties (who wins, direction of
effects), never absolute numbers: the substrate is a synthetic corpus,
not the authors' EC2 crawl.  Every rendering except Table 3's timings
is deterministic, so a rerun that changes a results file has changed
what the reproduction measures.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Paper-scale training sizes (paper: 127 Apache / 187 MySQL / 123 PHP).
TRAINING_IMAGES = {"apache": 127, "mysql": 187, "php": 123}


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def archive(results_dir: Path, name: str, text: str) -> None:
    """Print a rendered table and archive it as ``<name>.txt``."""
    print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}")
    (results_dir / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, fn):
    """Run *fn* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
