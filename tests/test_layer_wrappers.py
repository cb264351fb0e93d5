"""The layer benchmark's wrapper table names callables that exist.

``benchmarks/layers/trace.py`` wraps program callables by name and
refuses an owner that does not define the attribute itself.  Checking
the table here makes a rename fail tier-1 instead of the benchmark.
"""

import sys
import types
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "layers" / "trace.py"


def _load_trace():
    """Execute trace.py as a module without writing bytecode next to it."""
    module = types.ModuleType("layer_trace")
    module.__file__ = str(TRACE)
    sys.modules[module.__name__] = module
    try:
        exec(compile(TRACE.read_text(), str(TRACE), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


trace = _load_trace()


@pytest.mark.parametrize(
    "owner,name,layer",
    sorted(set(trace.CORE_LAYERS) | set(trace.SERVE_LAYERS)),
)
def test_owner_defines_wrapped_attribute(owner, name, layer):
    assert name in vars(trace.resolve(owner)), f"{owner}.{name} ({layer})"
