"""oacal benchmark: quantize workloads run through the public CLI entry point.

    python3 benchmarks/run.py --workload m-oac-spqr --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all

Run from the repository root. Each run starts fresh worker processes with one
BLAS thread, one after another (see worker.py). Each sets the workload up,
calls `oacal.cli.main` once and checks every output; another is started while
it should end within `--seconds` (at least one is), and then set-up-only
workers until SETUP_REPEATS set-ups have been timed. With `--trace 0` the
end-to-end metrics are printed; with `--trace 1` the same calls run under an
outside-in tracer and the per-module split is printed. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The lines before it give a readable table and the environment
record. See benchmarks/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from worker import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
RUN_TIMEOUT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / "work"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(name: str, args, deadline: float, setup_only: bool = False,
          trace: int = 0) -> dict:
    """Run one worker process to completion and return its result JSON."""
    env = {**os.environ, **BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        cmd = [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", name,
            "--seed", str(args.seed),
            "--trace", str(trace),
            "--work", tmp,
        ]
        if setup_only:
            cmd.append("--setup-only")
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("no time left for another worker process")
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(spawned_at)],
                cwd=ROOT, env=env, stdout=sys.stderr, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
        result_path = Path(tmp) / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"worker exited with code {proc.returncode}")
        return json.loads(result_path.read_text(encoding="utf-8"))


def source_identity() -> dict:
    """Git commit when run in a clone, and a hash of src/ that is always known."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def median_of(ops: list[dict], key: str) -> float:
    return statistics.median(op[key] for op in ops if key in op)


def untraced_quantize_medians(workload: str) -> list[float]:
    path = RESULTS / f"{workload}.jsonl"
    if not path.exists():
        return []
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return [r["metrics"]["quantize_cpu_s"]["value"] for r in rows if r["trace"] == 0]


def run_workload(name: str, args) -> dict:
    """One benchmark run of one workload; returns the result object."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # Start another worker only while it should end within --seconds, so a run
    # measures about --seconds whatever one call takes (at least one call).
    workers, longest = [], 0.0
    t_start = time.monotonic()
    while not workers or time.monotonic() - t_start + longest <= args.seconds:
        t0 = time.monotonic()
        workers.append(spawn(name, args, deadline, trace=args.trace))
        longest = max(longest, time.monotonic() - t0)
    while len(workers) < SETUP_REPEATS:
        workers.append(spawn(name, args, deadline, setup_only=True))
    setups = [w["setup_s"] for w in workers]
    ops = [w["op"] for w in workers if "op" in w]
    measured = [op for op in ops if "avg_bits" in op]
    failed = sum(bool(op["errors"]) for op in ops)
    for i, op in enumerate(ops):
        for err in op["errors"]:
            print(f"{name} op {i}: FAILED: {err}", file=sys.stderr)
    if not measured:
        raise BenchError(f"{name}: no run completed")

    env = {**workers[0]["env"], "workload": name, "trace": args.trace,
           **source_identity(), "setup_processes": len(setups),
           "ops": len(ops), "quantize_wall_s": median_of(measured, "quantize_s")}
    values = {
        "quantize_cpu_s": median_of(measured, "quantize_cpu_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median_of(measured, "peak_rss_mb"),
        **{k: median_of(measured, k) for k in
           ("valid_ppl", "test_ppl", "avg_bits", "disk_bits_per_weight")},
    }
    if args.trace:
        untraced = untraced_quantize_medians(name)
        if not untraced:
            untraced = [spawn(name, args, deadline)["op"]["quantize_cpu_s"]]
        layer_values = {
            k: statistics.median(op["layers"][k] for op in measured)
            for k in measured[0]["layers"]
        }
        layer_values["calibrate.fallback_ratio"] = median_of(
            measured, "calibrate.fallback_ratio")
        layer_values["trace.overhead_s"] = (
            values["quantize_cpu_s"] - statistics.median(untraced))
        values = layer_values
        env["spans_files"] = [w["spans_file"] for w in workers if "spans_file" in w]
        env["untraced_runs"] = len(untraced)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = declared["per_layer" if args.trace else "end_to_end"]
    if sorted(m["name"] for m in section) != sorted(values):
        raise BenchError("measured metrics differ from those BENCHMARK.json declares: "
                         f"{sorted(set(values) ^ {m['name'] for m in section})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{name}.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**result, "trace": args.trace, "env": env}) + "\n")
    print(json.dumps({"env": env}))
    return result


def print_table(name: str, result: dict) -> None:
    print(f"{name}: {result['attempted'] - result['failed']}/{result['attempted']} "
          f"runs correct")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {sorted(WORKLOADS)} or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    missing = [p for p in ("BENCHMARK.json", "src/oacal/cli.py", "data/tiny_corpus.txt")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an oacal checkout, missing {missing}", file=sys.stderr)
        return 2

    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args)
            print_table(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
