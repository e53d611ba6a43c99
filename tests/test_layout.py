"""Every function the benchmark tracer wraps must exist where it looks.

`benchmarks/tracer.py` finds its targets by name (`getattr` on
`oacal.<module>`); a rename or move in the package would otherwise surface
only when `benchmarks/run.py --trace 1` fails.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def traced_functions():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, func) for module, func, _ in tracer.TRACED]


@pytest.mark.parametrize("module,func", traced_functions())
def test_traced_function_resolves(module, func):
    target = getattr(importlib.import_module(f"oacal.{module}"), func, None)
    assert callable(target), f"oacal.{module}.{func} is not a callable"
