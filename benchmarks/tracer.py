"""Outside-in span tracer for the oacal modules.

`Tracer.install()` replaces each traced function with a timing wrapper in
every loaded `oacal.*` module namespace that holds it, so calls are caught
wherever the caller looks the name up (the package imports by name).
Spans stay in memory in `Tracer.spans`; `aggregate()` folds them into
per-function metrics.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (module, function, has traced children) -- the layers of the package:
# cli -> pipeline -> {tinylm, hessian, calibrate -> {linalg, quant}, archive}.
TRACED = (
    ("cli", "main", True),
    ("pipeline", "run_quantize", True),
    ("tinylm", "harvest_block_gradients", True),
    ("tinylm", "collect_agnostic_accumulators", True),
    ("tinylm", "lm_backward", True),
    ("tinylm", "lm_forward", False),
    ("tinylm", "perplexity", True),
    ("tinylm", "save_checkpoint", True),
    ("tinylm", "load_checkpoint", True),
    ("hessian", "accumulate_adaptive", False),
    ("hessian", "accumulate_agnostic_batch", False),
    ("hessian", "finalize", False),
    ("hessian", "regularize", False),
    ("calibrate", "calibrate_layer", True),
    ("calibrate", "calibrate_layer_binary", True),
    ("calibrate", "detect_outliers", False),
    ("quant", "double_quantize_stats", False),
    ("quant", "rtn_quantize", False),
    ("quant", "splitting_search", False),
    ("quant", "residual_binarize", False),
    ("quant", "layer_to_tensors", False),
    ("linalg", "cholesky", False),
    ("linalg", "cholesky_inverse", False),
    ("linalg", "inverse_upper_factor", True),
    ("archive", "archive_write", False),
    ("archive", "archive_read", False),
)


def _gflop_gram(args, kwargs, result):
    """Computed, not measured: G^T G on an (n, d) matrix is 2 n d^2 flops."""
    g = args[1] if len(args) > 1 else kwargs["g"]
    shape = getattr(g, "shape", ())
    if len(shape) != 2:
        return 0.0
    n, d = shape
    return 2.0 * n * d * d / 1e9


def _bytes_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return float(os.path.getsize(path))


# Extra per-call counters: metric suffix and how to compute it from a call.
COUNTERS = {
    "hessian.accumulate_adaptive": ("gflop", _gflop_gram),
    "archive.archive_write": ("bytes", _bytes_written),
}


class Tracer:
    """Collects (name, start, end, parent) spans for the traced functions."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, counter]
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, _, _ in TRACED:
            importlib.import_module(f"oacal.{module}")
        packages = [
            m for name, m in list(sys.modules.items())
            if name == "oacal" or name.startswith("oacal.")
        ]
        for module, func, _ in TRACED:
            original = getattr(sys.modules[f"oacal.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for mod in packages:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name, (None, None))[1]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def aggregate(self) -> dict[str, float]:
        """Per-function calls, inclusive s, self s and counters.

        Inclusive time counts only the outermost span of a name, so a
        function that re-enters itself is not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for module, func, parent in TRACED:
            key = f"{module}.{func}"
            out[f"{key}.calls"] = 0
            out[f"{key}.s"] = 0.0
            if parent:
                out[f"{key}.self_s"] = 0.0
            if key in COUNTERS:
                out[f"{key}.{COUNTERS[key][0]}"] = 0.0
        for i, (name, start, end, parent, count) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            if not self._inside_same_name(i):
                out[f"{name}.s"] += end - start
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] += end - start - child_time[i]
            if name in COUNTERS:
                out[f"{name}.{COUNTERS[name][0]}"] += count
        return out

    def _inside_same_name(self, i: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def child_time_of(self, name: str) -> float:
        """Summed duration of the spans whose parent span is named `name`."""
        return sum(
            end - start
            for _, start, end, parent, _ in self.spans
            if parent >= 0 and self.spans[parent][0] == name
        )
