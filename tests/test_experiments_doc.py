"""EXPERIMENTS.md quotes the archived benchmark results byte for byte.

Every measured table in EXPERIMENTS.md is a fenced block whose info
string names its results file (```` ```text benchmarks/results/x.txt ````).
The benchmarks regenerate those files exactly, so a block that differs
from its file is a document that drifted from the code.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "EXPERIMENTS.md"

BLOCK = re.compile(
    r"^```text (benchmarks/results/\S+\.txt)\n(.*?)^```$", re.MULTILINE | re.DOTALL
)

#: The results quoted in full: Tables 1, 2 and 8-13, the headline claim
#: and the ablations.  Table 3 is timing-based and stays hand-written.
QUOTED = (
    "table01_catalog", "table02_attributes", "table08_injection",
    "table09_realworld", "table10_wild", "table11_types",
    "table11_ablation_semantic_step", "table12_rules",
    "table12_ablation_type_restriction", "table13_entropy",
    "headline_claim", "ablation_environment",
)


def blocks(text):
    return [(match.group(1), match.group(2)) for match in BLOCK.finditer(text)]


def test_every_measured_table_is_quoted():
    quoted = {Path(path).stem for path, _ in blocks(DOC.read_text())}
    assert set(QUOTED) <= quoted


@pytest.mark.parametrize("path, body", [
    pytest.param(path, body, id=Path(path).stem) for path, body in blocks(DOC.read_text())
])
def test_block_equals_results_file(path, body):
    assert body == (REPO / path).read_text()
