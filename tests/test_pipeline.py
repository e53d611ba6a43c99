"""End-to-end quantize runs on a tiny three-block model."""
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import oacal.tinylm as tinylm
from oacal.archive import archive_read
from oacal.pipeline import REPORT_SCHEMA, RunConfig, load_token_streams, run_quantize
from oacal.quant import layer_from_tensors
from oacal.tinylm import ModelConfig, init_model, load_checkpoint, save_checkpoint

CORPUS = str(Path(__file__).resolve().parents[1] / "data" / "tiny_corpus.txt")
CONFIG = ModelConfig(vocab_size=128, d_model=16, d_ff=32, n_blocks=3, context_length=32)
N_WINDOWS = 3


def block_forwards_per_window(method: str, n: int) -> tuple[int, int]:
    """Block forwards and heads one calibration window costs for `n` blocks.

    Agnostic: block b runs once, and the stored inputs move through every
    block but the last. Adaptive: each block's harvest runs from that block
    to the head, plus the same moves.
    """
    if method.startswith("OAC_"):
        return n * (n + 1) // 2 + n - 1, n
    return n + n - 1, 0


@pytest.fixture
def counted(monkeypatch):
    counts = {"block": 0, "head": 0}
    block_forward, head_forward = tinylm.block_forward, tinylm._head_forward

    def count_block(*args):
        counts["block"] += 1
        return block_forward(*args)

    def count_head(*args):
        counts["head"] += 1
        return head_forward(*args)

    monkeypatch.setattr(tinylm, "block_forward", count_block)
    monkeypatch.setattr(tinylm, "_head_forward", count_head)
    return counts


@pytest.mark.parametrize("method", ["SpQR", "OAC_OPTQ"])
def test_quantize_run(method, tmp_path, counted):
    checkpoint = tmp_path / "tiny.oack"
    save_checkpoint(init_model(CONFIG, seed=0), checkpoint)
    config = RunConfig(
        checkpoint=str(checkpoint),
        corpus_train=CORPUS,
        corpus_valid=CORPUS,
        corpus_test=CORPUS,
        out_dir=str(tmp_path / "out"),
        method=method,
        n_calibration_samples=N_WINDOWS,
    )
    run_quantize(config)
    out = tmp_path / "out"

    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["method"] == method

    meta = json.loads((out / "layers.json").read_text())
    tensors = archive_read(out / "layers.oack")
    installed = load_checkpoint(out / "quantized.oack")
    assert sorted(meta) == sorted(tinylm.quantizable_layers(installed))
    for name, layer_meta in meta.items():
        reloaded = layer_from_tensors(name, tensors, layer_meta).dequantize()
        assert reloaded.astype(np.float32).tobytes() == (
            installed.params[name].astype(np.float32).tobytes()
        )

    # eval runs whole-model forwards over non-overlapping windows
    ctx = CONFIG.context_length
    streams = load_token_streams(config)
    eval_windows = sum(
        len(range(0, streams[s].shape[0] - ctx + 1, ctx)) for s in ("valid", "test")
    )
    blocks, heads = block_forwards_per_window(method, CONFIG.n_blocks)
    assert counted["block"] == N_WINDOWS * blocks + eval_windows * CONFIG.n_blocks
    assert counted["head"] == N_WINDOWS * heads + eval_windows
