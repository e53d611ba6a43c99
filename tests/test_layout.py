"""Every name the package exports or the benchmark tracer wraps must exist.

`benchmarks/tracer.py` finds its targets by name (`getattr` on
`oacal.<module>`); a rename or move in the package would otherwise surface
only when `benchmarks/run.py --trace 1` fails. Likewise a deleted function
must not stay behind in its module's `__all__`.
"""
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import oacal

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


@pytest.mark.parametrize(
    "module", [m.name for m in pkgutil.iter_modules(oacal.__path__)]
)
def test_exports_resolve(module):
    mod = importlib.import_module(f"oacal.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"oacal.{module}.__all__ names missing objects: {missing}"

