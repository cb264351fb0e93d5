"""Run ``repro serve`` with the serve-path layer wrappers installed.

Usage: ``python3 serve_traced.py TRACE.json <repro serve arguments>``.
The wrappers go in before the daemon imports its handler, the daemon
runs exactly as ``python -m repro serve`` would, and when it stops
(SIGTERM) the layer tables, the per-request rows and the wrapper's
cost per call are written to ``TRACE.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from trace import SERVE_LAYERS, SERVE_ROOT, LayerTracer  # noqa: E402


def main(argv) -> int:
    out, serve_args = Path(argv[0]), list(argv[1:])
    tracer = LayerTracer().install(SERVE_LAYERS, root_layer=SERVE_ROOT)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        tracer.restore()
        tables = tracer.snapshot()
        tables["call_cost_s"] = tracer.call_cost_s()
        out.write_text(json.dumps(tables))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
