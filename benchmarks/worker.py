"""One benchmark process: set up a workload, run it once through
`oacal.cli.main`, check every output, and write the measurements as JSON.

Started by `run.py` with one BLAS thread and `src/` on the import path; not
meant to be run by hand. Usage:

    python3 benchmarks/worker.py --workload NAME --seed N
        --trace 0|1 --spawned-at T --work DIR [--setup-only]

It writes its checkpoint and outputs under DIR, which the caller owns and
removes, and its measurements to DIR/result.json.

`--spawned-at` is the CLOCK_MONOTONIC reading taken just before this process
was started, so `setup_s` covers interpreter start, imports and checkpoint
materialisation up to the first timed call.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CORPUS = ROOT / "data" / "tiny_corpus.txt"
TOY_CHECKPOINT = BENCH_DIR / "toy" / "toy.oack"
# Made once with
#   OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 -m oacal.cli train-toy \
#       --corpus data/tiny_corpus.txt --out benchmarks/toy/toy.oack --seed 0
TOY_SHA256 = {
    "toy.oack": "a10028653e4d1a29ecf936cd1847fb6162e22c9b9f3af656068f2ad68504ada8",
    "toy.oack.json": "704c40c06f36b47260b00ec136de1d67d8bee01e0ee5c19ac8f01317ef84f22e",
}
M_CONFIG = {"d_model": 256, "d_ff": 1024, "n_blocks": 4, "context_length": 128}

# name -> (model, CLI subcommand and method); everything else is a RunConfig default.
WORKLOADS = {
    "m-oac-spqr": ("M", ["quantize", "--method", "OAC_SpQR"]),
    "m-binary": ("M", ["quantize", "--method", "Binary_BiLLM_style"]),
    "toy-sweep": ("toy", ["sweep-alpha", "--method", "OAC_OPTQ"]),
}
MIN_TRACE_COVERAGE = 0.95


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def materialise_checkpoint(model: str, seed: int, work: Path) -> Path:
    """The workload's input checkpoint: M is built from the seed, toy is committed."""
    if model == "toy":
        for name, digest in TOY_SHA256.items():
            got = sha256(TOY_CHECKPOINT.parent / name)
            if got != digest:
                raise SystemExit(f"toy checkpoint {name}: sha256 {got} != {digest}")
        return TOY_CHECKPOINT
    from oacal.tinylm import ModelConfig, init_model, save_checkpoint

    path = work / "m.oack"
    save_checkpoint(init_model(ModelConfig(**M_CONFIG), seed=seed), path)
    return path


def check_outputs(out: Path, sweep: bool) -> tuple[dict, list[str]]:
    """End-to-end values of one run and the list of failed checks."""
    import jsonschema
    import numpy as np
    from oacal.archive import archive_read
    from oacal.pipeline import REPORT_SCHEMA
    from oacal.quant import layer_from_tensors
    from oacal.tinylm import load_checkpoint, quantizable_layers

    errors = []
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    try:
        jsonschema.validate(report, REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        errors.append(f"report.json fails REPORT_SCHEMA: {exc.message}")
    valid, test = report["valid_perplexity"], report["test_perplexity"]
    if sweep:
        result = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        if (result["best_valid_perplexity"], result["best_test_perplexity"]) != (valid, test):
            errors.append("sweep winner's rerun does not reproduce its perplexities")
    if not all(isinstance(p, float) and math.isfinite(p) for p in (valid, test)):
        errors.append(f"non-finite perplexity: valid={valid} test={test}")

    rows = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    if len(rows) != 2:
        errors.append(f"summary.csv has {len(rows) - 1} rows, expected 1")

    meta = json.loads((out / "layers.json").read_text(encoding="utf-8"))
    tensors = archive_read(out / "layers.oack")
    installed = load_checkpoint(out / "quantized.oack")
    if sorted(meta) != sorted(quantizable_layers(installed)):
        errors.append("layers.json does not list exactly the quantizable layers")
    differing = []
    for name, layer_meta in meta.items():
        reloaded = layer_from_tensors(name, tensors, layer_meta).dequantize()
        a = np.asarray(reloaded, dtype=np.float32)
        b = np.asarray(installed.params[name], dtype=np.float32)
        if a.shape != b.shape or not np.array_equal(a.view(np.uint32), b.view(np.uint32)):
            differing.append(name)
    if differing:
        errors.append(f"archived layers differ from installed weights: {differing}")

    n_weights = sum(m["d_row"] * m["d_col"] for m in meta.values())
    layer_reports = report["layer_reports"]
    values = {
        "valid_ppl": valid,
        "test_ppl": test,
        "avg_bits": report["global_avg_bits"],
        "disk_bits_per_weight": 8.0 * (out / "layers.oack").stat().st_size / n_weights,
        "calibrate.fallback_ratio": sum("fallback" in r for r in layer_reports)
        / len(layer_reports),
    }
    return values, errors


def cpu_seconds() -> float:
    """User plus system CPU time of this process and of its reaped children.

    With one BLAS thread and no child processes this is the call's wall time
    less the time it waited: on file writes, and while the host ran other
    guests on this VM's CPU (steal time, which the guest kernel accounts apart
    from process time).
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_op(cli, argv: list[str], out: Path, sweep: bool, tracer=None) -> dict:
    """One timed `cli.main` call on a fresh output directory, then its checks."""
    if out.exists():
        raise SystemExit(f"output directory {out} is not fresh")
    if tracer is not None:
        tracer.install()
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv + ["--out", str(out)])
    except Exception as exc:  # a crash is a failed run, not the end of the benchmark
        traceback.print_exc()
        rc = f"an exception: {exc!r}"
    finally:
        quantize_s = time.perf_counter() - t0
        quantize_cpu_s = cpu_seconds() - c0
        if tracer is not None:
            tracer.uninstall()
    op = {
        "quantize_s": quantize_s,
        "quantize_cpu_s": quantize_cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "errors": [] if rc == 0 else [f"cli.main returned {rc}"],
    }
    if rc == 0:
        try:
            values, errors = check_outputs(out, sweep)
        except Exception as exc:  # missing or unreadable outputs fail the run
            traceback.print_exc()
            values, errors = {}, [f"checking outputs raised {exc!r}"]
        op.update(values)
        op["errors"] += errors
    if tracer is not None:
        layers = tracer.aggregate()
        coverage = tracer.child_time_of("pipeline.run_quantize") / quantize_s
        layers["trace.coverage"] = coverage
        if coverage < MIN_TRACE_COVERAGE:
            op["errors"].append(
                f"top-level spans cover {coverage:.3f} of the call's wall time, "
                f"below {MIN_TRACE_COVERAGE}"
            )
        op["layers"] = layers
    shutil.rmtree(out, ignore_errors=True)
    return op


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "python": platform.python_version(),
        "nproc": affinity or os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import oacal
    import oacal.cli
    import oacal.pipeline  # noqa: F401  (imported here so setup pays for it)

    if Path(oacal.__file__).resolve().parent != ROOT / "src" / "oacal":
        raise SystemExit(f"oacal imported from {oacal.__file__}, not from {ROOT / 'src'}")
    model, command = WORKLOADS[args.workload]
    work = Path(args.work)
    checkpoint = materialise_checkpoint(model, args.seed, work)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        argv = command + [
            "--checkpoint", str(checkpoint),
            "--corpus-train", str(CORPUS),
            "--corpus-valid", str(CORPUS),
            "--corpus-test", str(CORPUS),
            "--seed", str(args.seed),
        ]
        tracer = None
        if args.trace:
            sys.path.insert(0, str(BENCH_DIR))
            from tracer import Tracer

            tracer = Tracer()
        sweep = command[0] == "sweep-alpha"
        result["op"] = run_op(oacal.cli, argv, work / "out", sweep, tracer)
        if tracer is not None:
            trace_dir = BENCH_DIR / "results"
            trace_dir.mkdir(exist_ok=True)
            trace_path = trace_dir / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.json"
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "counter"],
                           "ops": [tracer.spans]}, fh)
            result["spans_file"] = str(trace_path.relative_to(ROOT))
        result["env"] = environment(args.seed)
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
