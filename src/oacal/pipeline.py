"""End-to-end quantization runs: config, one run per command, eval and
reports.

A method is a backend plus the name of its Hessian (`_METHOD_TABLE`), and
`_HESSIANS` says how each Hessian is collected. Phase 1 collects every
block layer's Hessian before the first block is quantized, in one walk
over the unquantized checkpoint (`tinylm.collect`, whose docstring gives
the walk's order): the adaptive (OAC) one with a backward, the agnostic
one forward only. No layer's Hessian sees the quantization of the blocks
before it. The reference GPTQ, SpQR and BiLLM pipelines instead feed each
layer the partly quantized model's inputs; here every Hessian comes from
one walk, so an OAC-versus-baseline comparison changes only the Hessian.
RTN needs no Hessian, draws no calibration window and skips phase 1.
Phase 2 calibrates every layer, front to back, through one
`calibrate_layer` call whatever the method, and installs the dequantized
weights. Once the Hessians are collected (`run_quantize` says in which
dtype), the model holds float32 parameters: calibration widens one layer
at a time to float64 and installs the dequantized layer as float32, which
is what eval (`tinylm.perplexity`, float32 forwards, float64 loss sums)
reads and what checkpoints store. Everything numeric that affects the
output is echoed into the JSON report.

The Hessians do not depend on the damping, so an alpha sweep is one
`run_quantize` call that collects once and test-evaluates only its winner.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from .archive import HEADER_NBYTES, archive_write, entry_nbytes
from .calibrate import STAGES, Backend, CalibSpec, calibrate_layer
from .errors import ConfigError, MalformedArchive, OacalError
from .hessian import finalize
from .quant import disk_extra_bits, layer_to_tensors
from .tinylm import (
    TinyLM,
    collect_agnostic_accumulators,
    harvest_block_gradients,
    load_checkpoint,
    perplexity,
    quantizable_layers,
    sample_calibration_windows,
    save_checkpoint,
    split_corpus,
    tokenize,
)

# report name -> (collector of every block layer's accumulators, dtype the
# checkpoint is read in); a lambda looks its collector up when called, so
# that a wrapper of the module attribute (a tracer, a test) sees the call
_HESSIANS = {
    "agnostic": (lambda model, windows: collect_agnostic_accumulators(model, windows), np.float32),
    "adaptive": (lambda model, windows: harvest_block_gradients(model, windows), np.float64),
}

# method -> (backend, `_HESSIANS` key); RTN collects none
_METHOD_TABLE = {
    "RTN": (Backend.RTN, "agnostic"),
    "OPTQ": (Backend.OPTQ, "agnostic"),
    "SpQR": (Backend.SPQR, "agnostic"),
    "OAC_OPTQ": (Backend.OPTQ, "adaptive"),
    "OAC_SpQR": (Backend.SPQR, "adaptive"),
    "Binary_BiLLM_style": (Backend.BINARY, "agnostic"),
    "OAC_Binary": (Backend.BINARY, "adaptive"),
}

METHODS = tuple(_METHOD_TABLE)

DEFAULT_ALPHA_GRID = (0.001, 0.01, 0.1, 1.0)
_SUMMARY_COLUMNS = ["method", "seed", "alpha", "avg_bits", "valid_ppl", "test_ppl"]

__all__ = [
    "METHODS",
    "DEFAULT_ALPHA_GRID",
    "CONFIG_ONLY",
    "RunConfig",
    "read_config",
    "RunReport",
    "QuantizedRun",
    "run_quantize",
    "write_run",
    "run_eval",
    "run_alpha_sweep",
    "load_token_streams",
    "render_report_table",
    "LAYER_FIELDS",
    "REPORT_SCHEMA",
]


# settings only a config file sets; every other RunConfig field has a CLI flag
CONFIG_ONLY = ("stat_bits", "stat_group", "alpha_grid")


@dataclass(frozen=True)
class RunConfig:
    """One quantization run; JSON-serializable. The CLI has a flag for every
    field but `CONFIG_ONLY`'s (`--out` sets `out_dir`), and requires the
    fields with no default. The calibration defaults are `CalibSpec`'s.
    """

    checkpoint: str
    corpus_train: str
    corpus_valid: str
    corpus_test: str
    out_dir: str
    method: str = "OAC_SpQR"
    bits: int = CalibSpec.bits
    group_size: int = CalibSpec.group_size
    tau: float = CalibSpec.tau
    alpha: float = CalibSpec.alpha
    stat_bits: int = CalibSpec.stat_bits
    stat_group: int = CalibSpec.stat_group
    salient_fraction: float = CalibSpec.salient_fraction
    n_calibration_samples: int = 128
    alpha_grid: tuple = DEFAULT_ALPHA_GRID
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; choose from {METHODS}"
            )
        if self.n_calibration_samples < 1:
            raise ConfigError(
                f"n_calibration_samples must be >= 1, got {self.n_calibration_samples}"
            )
        for a in self.alpha_grid:
            if not (math.isfinite(a) and a >= 0.0):
                raise ConfigError(f"alpha_grid entries must be finite and >= 0, got {a}")
        if len(set(self.alpha_grid)) != len(self.alpha_grid):
            raise ConfigError(f"alpha_grid has duplicate entries: {list(self.alpha_grid)}")
        self.calib_spec()  # CalibSpec's own checks

    def calib_spec(self, alpha: float | None = None) -> CalibSpec:
        shared = {f.name: getattr(self, f.name) for f in fields(CalibSpec) if f.name != "backend"}
        if alpha is not None:
            shared["alpha"] = alpha
        return CalibSpec(backend=_METHOD_TABLE[self.method][0], **shared)

    @staticmethod
    def from_json(path, **overrides) -> "RunConfig":
        data = read_config(path)
        data.update({k: v for k, v in overrides.items() if v is not None})
        try:
            if "alpha_grid" in data:
                data["alpha_grid"] = tuple(data["alpha_grid"])
            return RunConfig(**data)
        except TypeError as exc:  # unknown or missing keys, a scalar grid
            raise ConfigError(f"config {path}: {exc}") from exc


def read_config(path) -> dict:
    """The settings a JSON config file holds, unchecked."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    return data


def _has_type(value, annotation: str) -> bool:
    """Whether `value` fits a RunConfig annotation; bools are not numbers."""
    if isinstance(value, bool):
        return False
    if annotation == "tuple":
        return isinstance(value, tuple) and all(_has_type(v, "float") for v in value)
    return isinstance(value, {"str": str, "int": int, "float": (int, float)}[annotation])


@dataclass
class RunReport:
    config: dict
    seed: int
    method: str
    layer_reports: list[dict] = field(default_factory=list)
    global_avg_bits: float = 0.0
    disk_bits_per_weight: float = 0.0
    valid_perplexity: float | None = None
    test_perplexity: float | None = None
    phase_seconds: dict = field(default_factory=dict)


_NONNEG = {"type": "number", "minimum": 0}
_COUNT = {"type": "integer", "minimum": 0}
_PROXY = {"type": "number", "minimum": -1e-9}
_FRACTION = {"type": "number", "minimum": 0, "maximum": 1}


def _closed_object(properties: dict, required=None) -> dict:
    """An object schema allowing only `properties`' keys and requiring
    `required` (default: all of them)."""
    required = list(properties if required is None else required)
    return {"type": "object", "required": required, "properties": properties,
            "additionalProperties": False}


# One row per layer-report key: its JSON-schema fragment and whether every
# report carries it. `calibrate._report` writes all but the last three,
# which `_calibrate` adds.
LAYER_FIELDS = {
    "layer": ({"type": "string"}, True),
    "backend": ({"enum": [b.value for b in Backend]}, True),
    "proxy_error": (_PROXY, True),
    "outlier_count": (_COUNT, True),
    "outlier_rate": (_FRACTION, True),
    "column_update_norms": ({"type": "array", "items": _NONNEG}, True),
    "avg_bits_per_weight": (_NONNEG, True),
    "alpha": (_NONNEG, True),
    "tau": ({"type": ["number", "null"]}, True),
    "tau_normalization": ({"const": "mean_saliency"}, True),
    "stage_seconds": (_closed_object(dict.fromkeys(STAGES, _NONNEG)), True),
    "plain_proxy_error": (_PROXY, False),  # the guard's
    "fallback": ({"const": "no_compensation"}, False),
    "salient_fraction": (_FRACTION, False),  # BINARY's plan
    "n_salient_cols": (_COUNT, False),
    "split_threshold": (_NONNEG, False),
    "hessian_mode": ({"enum": list(_HESSIANS)}, True),
    "disk_bits": (_COUNT, True),
    "disk_extra_bits": ({"type": "object", "additionalProperties": _COUNT}, True),
}


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_closed_object(
        {
            "config": _closed_object(dict.fromkeys((f.name for f in fields(RunConfig)), {})),
            "seed": {"type": "integer"},
            "method": {"enum": list(METHODS)},
            "layer_reports": {
                "type": "array",
                "items": _closed_object(
                    {key: schema for key, (schema, _) in LAYER_FIELDS.items()},
                    [key for key, (_, always) in LAYER_FIELDS.items() if always],
                ),
            },
            "global_avg_bits": _NONNEG,
            "disk_bits_per_weight": _NONNEG,
            "valid_perplexity": {"type": ["number", "null"], "minimum": 1},
            "test_perplexity": {"type": ["number", "null"], "minimum": 1},
            "phase_seconds": _closed_object(
                dict.fromkeys(("phase1_hessians", "phase2_calibration", "eval", "total"), _NONNEG)
            ),
        },
        [f.name for f in fields(RunReport)],
    ),
}


def _read_corpus(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read corpus {path!r}: {exc}") from exc


def load_token_streams(config: RunConfig) -> dict[str, np.ndarray]:
    """Token streams for calibration/validation/test.

    Distinct files are used whole. When the validation or test path names
    the training file, however spelled (paths are compared resolved), that
    stream is its part of the file's byte split (`split_corpus`, the rule
    `train-toy` trains by) and the training stream is the train part;
    calibration always draws from the training stream.
    """
    train_raw = _read_corpus(config.corpus_train)
    train_path = Path(config.corpus_train).resolve()
    streams, train = {}, train_raw
    for name, path in (("valid", config.corpus_valid), ("test", config.corpus_test)):
        if Path(path).resolve() == train_path:
            streams[name] = tokenize(split_corpus(train_raw, name))
            train = split_corpus(train_raw, "train")
        else:
            streams[name] = tokenize(_read_corpus(path))
    return {"train": tokenize(train), **streams}


@dataclass
class QuantizedRun:
    """One quantize run in memory: the winning alpha's installed model, report
    and per-layer archive tensors with their metadata, and every alpha's
    record, {"status": "ok", "report": ...} or {"status": "failed", "error": ...}."""

    model: TinyLM
    report: RunReport
    tensors: dict[str, np.ndarray]
    layer_meta: dict[str, dict]
    candidates: dict[float, dict]


def run_quantize(config: RunConfig, alphas=None) -> QuantizedRun:
    """Quantize every block layer of the checkpointed model for each alpha,
    keep the best and write nothing (`write_run` does).

    Loads the checkpoint and streams and, unless the method is RTN, which
    reads no Hessian, draws the calibration windows (the run's only use of
    its seed's RNG) and collects every layer's Hessian accumulators once, on
    the unquantized model. Each of `alphas` (default: the config's own
    alpha), ascending, then calibrates the layers front to back and is
    scored on the validation stream. Only the best run so far is kept
    (lowest validation perplexity, ties to the smaller alpha); only the
    winner is scored on the test stream.

    A failed collection raises, and so does a failed alpha when `alphas` is
    None; a grid records a failed alpha and skips it, and raises ConfigError
    when none succeeds.

    Memory: one model is held at a time. The checkpoint is loaded in the
    dtype that its Hessian is collected in (`_HESSIANS`): float64 for the
    OAC harvest, float32 for the agnostic forwards, whose sums alone are
    float64, and for RTN. It is then narrowed to float32, copying only
    wider arrays, and the first alpha installs into it. Each layer's
    Hessian is finalized into a fresh array that `calibrate_layer` owns and
    damps in place. Every alpha but the last calibrates from a shallow copy
    of the accumulators; the last one takes each out of `accs` before its
    Hessian is finalized, so it is freed before the layer is factorized.
    """
    t_start = time.perf_counter()
    backend, hessian = _METHOD_TABLE[config.method]
    collect, dtype = _HESSIANS[hessian]
    model = load_checkpoint(config.checkpoint, dtype)
    streams = load_token_streams(config)
    t0 = time.perf_counter()
    accs = {}
    if backend is not Backend.RTN:
        samples = sample_calibration_windows(
            streams["train"],
            config.n_calibration_samples,
            model.config.context_length,
            np.random.default_rng(config.seed),
        )
        accs = collect(model, samples)
    model.params = {k: v.astype(np.float32, copy=False) for k, v in model.params.items()}
    phase1 = time.perf_counter() - t0
    collected_s = time.perf_counter() - t_start
    grid = [config.alpha] if alphas is None else sorted(float(a) for a in alphas)
    candidates = {}
    best, best_valid = None, math.inf
    for i, alpha in enumerate(grid):
        t_alpha = time.perf_counter()
        if i:  # the first alpha installs into the model the collection ran on
            model = load_checkpoint(config.checkpoint, np.float32)
        t0 = time.perf_counter()
        try:
            run = _calibrate(config, alpha, model, accs if i == len(grid) - 1 else dict(accs))
            t1 = time.perf_counter()
            run.report.valid_perplexity = perplexity(model, streams["valid"])
        except OacalError as exc:
            if alphas is None:
                raise
            candidates[alpha] = {"status": "failed", "error": str(exc)}
            continue
        t2 = time.perf_counter()
        run.report.phase_seconds = {
            "phase1_hessians": phase1,
            "phase2_calibration": t1 - t0,
            "eval": t2 - t1,
            "total": collected_s + t2 - t_alpha,
        }
        candidates[alpha] = {"status": "ok", "report": asdict(run.report)}
        if run.report.valid_perplexity < best_valid:
            best, best_valid = run, run.report.valid_perplexity
        del run  # a losing run is freed before the next alpha loads its model
    if best is None:
        raise ConfigError(f"every alpha candidate failed: {candidates}")
    t0 = time.perf_counter()
    best.report.test_perplexity = perplexity(best.model, streams["test"])
    test_s = time.perf_counter() - t0
    for key in ("eval", "total"):
        best.report.phase_seconds[key] += test_s
    candidates[best.report.config["alpha"]]["report"] = asdict(best.report)
    best.candidates = candidates
    return best


def _calibrate(config: RunConfig, alpha: float, model: TinyLM, accs) -> QuantizedRun:
    """Calibrate every block layer of the float32 `model` front to back at
    `alpha` and install the dequantized weights as float32.

    Each layer is widened to float64 for its calibration alone, which is
    exact, and unbound once its archive tensors are packed and it is
    installed. Each layer's accumulator is taken out of `accs` before its
    Hessian is finalized, so that no later reader of `accs` keeps it alive
    through the factorization; an accumulator shared by several layers goes
    with the last of them.

    Each layer report gives `disk_bits`, the bits its archive entries take,
    and `disk_extra_bits`, what of them the accounting does not charge, by
    label; `disk_bits_per_weight` is `layers.oack`'s size over the weights.
    """
    spec = config.calib_spec(alpha)
    report = RunReport(
        config={**asdict(config), "alpha": alpha, "alpha_grid": list(config.alpha_grid)},
        seed=config.seed,
        method=config.method,
    )
    tensors: dict[str, np.ndarray] = {}
    layer_meta: dict[str, dict] = {}
    total_bits = 0.0
    total_weights = 0
    archive_bytes = HEADER_NBYTES
    for name in quantizable_layers(model):
        w = model.params[name].astype(np.float64)
        try:
            h = None
            if spec.backend is not Backend.RTN:
                h = finalize(accs.pop(name))
            layer, layer_report = calibrate_layer(w, h, spec, name)
        except OacalError as exc:  # keep the type the CLI maps to an exit code
            raise type(exc)(f"layer {name!r}: {exc}") from exc
        layer_tensors, layer_meta[name] = layer_to_tensors(name, layer)
        tensors.update(layer_tensors)
        layer_bytes = sum(entry_nbytes(k, v) for k, v in layer_tensors.items())
        archive_bytes += layer_bytes
        report.layer_reports.append(
            {
                **layer_report,
                "hessian_mode": _METHOD_TABLE[config.method][1],
                "disk_bits": 8 * layer_bytes,
                "disk_extra_bits": disk_extra_bits(name, layer_meta[name]),
            }
        )
        account = layer_meta[name]["accounting"]
        total_bits += account["weight_bits"] + account["stats_bits"] + account["outlier_bits"]
        total_weights += w.size
        model.params[name] = layer.dequantize().astype(np.float32)
        del layer, layer_tensors
    report.global_avg_bits = total_bits / total_weights
    report.disk_bits_per_weight = 8.0 * archive_bytes / total_weights
    return QuantizedRun(model, report, tensors, layer_meta, {})


def write_run(run: QuantizedRun, out_dir) -> None:
    """Write the quantized checkpoint, the layer archive, its metadata and the
    report into `out_dir`, and append the run's row to its summary.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(run.model, out / "quantized.oack")
    archive_write(out / "layers.oack", run.tensors)
    with open(out / "layers.json", "w", encoding="utf-8") as fh:
        json.dump(run.layer_meta, fh, indent=2, sort_keys=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(run.report), fh, indent=2, sort_keys=True)
    _append_summary_row(out / "summary.csv", run.report)


def _append_summary_row(path, report: RunReport) -> None:
    exists = Path(path).exists()
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if not exists:
            writer.writerow(_SUMMARY_COLUMNS)
        writer.writerow(
            [
                report.method,
                report.seed,
                report.config["alpha"],
                f"{report.global_avg_bits:.6f}",
                f"{report.valid_perplexity:.6f}",
                f"{report.test_perplexity:.6f}",
            ]
        )


def run_eval(config: RunConfig) -> dict:
    """Perplexity of `config.checkpoint` on the validation and test streams."""
    model = load_checkpoint(config.checkpoint)
    streams = load_token_streams(config)
    return {
        "checkpoint": str(config.checkpoint),
        "valid_perplexity": perplexity(model, streams["valid"]),
        "test_perplexity": perplexity(model, streams["test"]),
    }


def run_alpha_sweep(config: RunConfig) -> dict:
    """`run_quantize` over the config's alpha grid; writes the winner's run
    and sweep.json, which records every alpha (see `run_quantize`)."""
    if not config.alpha_grid:
        raise ConfigError("alpha grid must be nonempty")
    run = run_quantize(config, config.alpha_grid)
    result = {
        "best_alpha": run.report.config["alpha"],
        "best_valid_perplexity": run.report.valid_perplexity,
        "best_test_perplexity": run.report.test_perplexity,
        "candidates": run.candidates,
    }
    write_run(run, config.out_dir)
    with open(Path(config.out_dir) / "sweep.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return result


def _cell(value) -> str:
    """A table cell for a perplexity the schema allows to be null."""
    return "NA" if value is None else f"{value:.4f}"


def render_report_table(report_paths, fmt: str = "markdown") -> str:
    """CSV or Markdown table across run reports; MalformedArchive for a bad report."""
    rows = []
    for path in report_paths:
        try:
            with open(path, encoding="utf-8") as fh:
                rep = json.load(fh)
            rows.append(
                {
                    "method": rep["method"],
                    "seed": rep["seed"],
                    "alpha": rep["config"]["alpha"],
                    "avg_bits": f"{rep['global_avg_bits']:.4f}",
                    "valid_ppl": _cell(rep["valid_perplexity"]),
                    "test_ppl": _cell(rep["test_perplexity"]),
                }
            )
        except (ValueError, KeyError, TypeError) as exc:  # not JSON, missing or mistyped keys
            raise MalformedArchive(f"{path}: malformed run report: {exc!r}") from exc
    headers = _SUMMARY_COLUMNS
    if fmt == "csv":
        lines = [",".join(headers)]
        lines += [",".join(str(r[h]) for h in headers) for r in rows]
        return "\n".join(lines) + "\n"
    widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) if rows else len(h) for h in headers}
    head = "| " + " | ".join(h.ljust(widths[h]) for h in headers) + " |"
    sep = "|" + "|".join("-" * (widths[h] + 2) for h in headers) + "|"
    body = [
        "| " + " | ".join(str(r[h]).ljust(widths[h]) for h in headers) + " |"
        for r in rows
    ]
    return "\n".join([head, sep, *body]) + "\n"
