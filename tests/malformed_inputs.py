"""A seeded sweep of malformed inputs through every reader of a run's files.

Each case mutates one file of a written run, or one value it holds, and
replays the reader that consumes it:

* `layers.oack` through `archive_read` and `layer_from_tensors` (then
  `dequantize`) with the run's own `layers.json`;
* `layers.json` values through `layer_from_tensors` on the run's archive;
* `quantized.oack` bytes and its sidecar's bytes and values through
  `load_checkpoint`;
* `report.json` bytes and values through `render_report_table`.

The kinds of mutation are byte flips, truncations, byte insertions, JSON
whitespace insertions and field values. A case passes when the reader
raises an `OacalError`, or returns. A whitespace insertion keeps the file's
content, so it must return what the unmutated file gives. Any other
mutation that returns may load other values: no format carries a checksum,
so a flipped payload or field can be another valid value. Any other
exception fails the case, named by its reader and mutation.

Run as a module (`python -m malformed_inputs RUN_DIR...`, with `tests` and
`src` on the path) it prints the case count and each failure as JSON and
exits 1 on any failure. `run_capped` runs a module in a child whose address
space alone is capped, so a reader that tries to allocate without bound
fails its case there instead of exhausting the machine.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from oacal.archive import MAGIC, archive_read
from oacal.errors import OacalError
from oacal.pipeline import render_report_table
from oacal.quant import layer_from_tensors
from oacal.tinylm import load_checkpoint

ROOT = Path(__file__).resolve().parents[1]
TOY = ROOT / "benchmarks" / "toy" / "toy.oack"
CAP_BYTES = 1 << 30
SEED = 0
N_BYTES = 12  # of each byte mutation kind per file
N_VALUES = 48  # field-value mutations per JSON file
VALUES = [None, True, -1, 0, 1, 3, 2**63, 2**64, -(2**63), 1.5, -0.0, 1e308,
          float("inf"), float("nan"), "x", "", [], {}, [1, 2]]

# Sets RLIMIT_AS in the child itself, before anything is imported (a
# preexec_fn would run in a fork of a process that may have BLAS threads),
# then runs the module argv[2] as __main__ with the remaining arguments.
_CAPPED = (
    "import resource, runpy, sys; cap = int(sys.argv[1]); "
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
    "sys.argv = sys.argv[2:]; runpy.run_module(sys.argv[0], run_name='__main__', alter_sys=True)"
)


def run_capped(module: str, *args, cap=CAP_BYTES, timeout=60) -> subprocess.CompletedProcess:
    """Run `python -m module args...` (the package's and this directory's
    modules importable) in a child capped at `cap` bytes of address space;
    one BLAS thread keeps its import small."""
    path = [str(ROOT / "src"), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-c", _CAPPED, str(cap), module, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=timeout)


def byte_mutations(rng, data: bytes, n: int = N_BYTES):
    """(label, bytes): `n` each of byte flips, truncations and insertions."""
    for _ in range(n):
        at = int(rng.integers(len(data)))
        flip = int(rng.integers(1, 256))
        yield f"flip {at} ^{flip:#04x}", data[:at] + bytes([data[at] ^ flip]) + data[at + 1 :]
    for _ in range(n):
        at = int(rng.integers(len(data)))
        yield f"truncate at {at}", data[:at]
    for _ in range(n):
        at, k = int(rng.integers(len(data) + 1)), int(rng.integers(1, 9))
        extra = rng.integers(0, 256, size=k, dtype=np.uint8).tobytes()
        yield f"insert {extra.hex()} at {at}", data[:at] + extra + data[at:]


def whitespace_insertions(rng, text: str, n: int = N_BYTES):
    """(label, text): `n` insertions of whitespace after a structural
    character, which leave the JSON value as it was."""
    spots = [i + 1 for i, c in enumerate(text) if c in ",:[{"]
    for at in rng.choice(spots, size=min(n, len(spots)), replace=False):
        yield f"whitespace at {at}", text[:at] + " \n\t" + text[at:]


def _paths(obj, prefix=()):
    """Every node below the root; of a list, only its first item's subtree."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj[:1]) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def value_mutations(rng, obj, n: int = N_VALUES):
    """(label, obj'): `n` copies of `obj` with one node replaced by one of
    `VALUES`, or, one time in four, a dict key deleted."""
    paths = list(_paths(obj))
    for _ in range(n):
        path = paths[int(rng.integers(len(paths)))]
        new = copy.deepcopy(obj)
        parent = new
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and rng.random() < 0.25:
            del parent[path[-1]]
            yield f"delete {'/'.join(map(str, path))}", new
            continue
        value = VALUES[int(rng.integers(len(VALUES)))]
        parent[path[-1]] = value
        yield f"set {'/'.join(map(str, path))} = {value!r}", new


def load_layers(tensors: dict, meta: dict) -> list[bytes]:
    """Every layer of a layer archive rebuilt and dequantized."""
    return [layer_from_tensors(name, tensors, m).dequantize().tobytes() for name, m in meta.items()]


def load_model(path) -> tuple:
    model = load_checkpoint(path)
    return model.config, [(k, v.tobytes()) for k, v in model.params.items()]


def _cases(rng, run: Path, work: Path):
    """(reader, label, load, unmutated) for every mutation of one run:
    `load()` reads the mutated input, which `work` holds, and for a case
    that keeps the file's content, `unmutated()` reads the file as written."""
    meta = json.loads((run / "layers.json").read_text())
    tensors = archive_read(run / "layers.oack")
    checkpoint = work / "quantized.oack"
    sidecar = Path(f"{checkpoint}.json")

    def archive(data):
        (work / "layers.oack").write_bytes(data)
        return load_layers(archive_read(work / "layers.oack"), meta)

    def model(archive_bytes=None, sidecar_bytes=None):
        checkpoint.write_bytes((run / "quantized.oack").read_bytes()
                               if archive_bytes is None else archive_bytes)
        sidecar.write_bytes((run / "quantized.oack.json").read_bytes()
                            if sidecar_bytes is None else sidecar_bytes)
        return load_model(checkpoint)

    def report(data):
        (work / "report.json").write_bytes(data)
        return render_report_table([work / "report.json"])

    for label, data in byte_mutations(rng, (run / "layers.oack").read_bytes()):
        yield "layers.oack", label, lambda d=data: archive(d), None
    for label, m in value_mutations(rng, meta):
        yield "layers.json", label, lambda m=m: load_layers(tensors, m), None
    for label, data in byte_mutations(rng, (run / "quantized.oack").read_bytes()):
        yield "quantized.oack", label, lambda d=data: model(archive_bytes=d), None
    for reader, name, load in (("sidecar", "quantized.oack.json", lambda d: model(sidecar_bytes=d)),
                               ("report.json", "report.json", report)):
        data = (run / name).read_bytes()
        for label, mutated in byte_mutations(rng, data):
            yield reader, label, lambda d=mutated, load=load: load(d), None
        for label, text in whitespace_insertions(rng, data.decode()):
            yield (reader, label, lambda d=text.encode(), load=load: load(d),
                   lambda d=data, load=load: load(d))
        for label, value in value_mutations(rng, json.loads(data)):
            yield reader, label, lambda d=json.dumps(value).encode(), load=load: load(d), None


def _reproducers(work: Path):
    """The two inputs that crashed their readers before they failed typed."""
    sidecar = json.loads(Path(f"{TOY}.json").read_text())
    sidecar["architecture"]["n_blocks"] = 10**9
    huge = work / "huge-sidecar.oack"
    shutil.copy(TOY, huge)
    Path(f"{huge}.json").write_text(json.dumps(sidecar))
    yield "sidecar", "n_blocks = 10**9", lambda: load_model(huge), None
    dims = work / "huge-dims.oack"
    dims.write_bytes(MAGIC + struct.pack("<IIH", 2, 1, 1) + b"a" + struct.pack("<BB", 0, 255)
                     + struct.pack("<255Q", *[2**64 - 1] * 255))
    shutil.copy(f"{TOY}.json", f"{dims}.json")
    yield "quantized.oack", "255 dims of 2**64 - 1", lambda: load_model(dims), None


def sweep(runs) -> tuple[int, list[str]]:
    """Replay every case of every run directory: the case count and the failures."""
    rng = np.random.default_rng(SEED)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cases = [(f"{Path(run).name} {reader}", *case)
                 for run in runs for reader, *case in _cases(rng, Path(run), work)]
        cases += _reproducers(work)
        for reader, label, load, unmutated in cases:
            try:
                result = load()
            except OacalError:
                continue
            except Exception as exc:  # the failure this sweep looks for
                failures.append(f"{reader}: {label}: {exc!r}"[:500])
                continue
            if unmutated is not None and result != unmutated():
                failures.append(f"{reader}: {label}: loads other content")
    return len(cases), failures


if __name__ == "__main__":
    np.seterr(all="ignore")  # a mutated payload may overflow in dequantize
    count, found = sweep(sys.argv[1:])
    print(json.dumps({"cases": count, "failures": found}))
    sys.exit(1 if found else 0)
