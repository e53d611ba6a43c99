"""OAC's premise, per layer: its Hessian ranks the loss change a layer's
quantization causes better than the input Hessian does.

On the committed toy checkpoint, each of the 12 block layers is perturbed
alone by group RTN at 2 and at 3 bits. The held-out change in mean
cross-entropy is compared with the second-order prediction
½·tr(ΔW H ΔWᵀ)/N under both finalized Hessians, N being the accumulator's
sample count. Only the ranking is compared: the agnostic prediction is an
output error, not a loss.
"""
from pathlib import Path

import numpy as np

from lm_reference import window_losses
from oacal.hessian import finalize
from oacal.pipeline import RunConfig, load_token_streams
from oacal.quant import rtn_quantize
from oacal.tinylm import (
    collect_agnostic_accumulators,
    harvest_block_gradients,
    load_checkpoint,
    quantizable_layers,
    sample_calibration_windows,
)

ROOT = Path(__file__).resolve().parents[1]
TOY = str(ROOT / "benchmarks" / "toy" / "toy.oack")
CORPUS = str(ROOT / "data" / "tiny_corpus.txt")


def spearman(a, b) -> float:
    """Rank correlation of two sequences without ties."""
    ranks = [np.argsort(np.argsort(v)) for v in (a, b)]
    return float(np.corrcoef(*ranks)[0, 1])


def test_oac_hessian_ranks_layer_loss_changes():
    model = load_checkpoint(TOY)
    streams = load_token_streams(RunConfig(TOY, CORPUS, CORPUS, CORPUS, out_dir=""))
    rng = np.random.default_rng(0)
    ctx = model.config.context_length
    calibration = sample_calibration_windows(streams["train"], 32, ctx, rng)
    held_out = sample_calibration_windows(streams["valid"], 32, ctx, rng)
    accs = {
        "adaptive": harvest_block_gradients(model, calibration),
        "agnostic": collect_agnostic_accumulators(model, calibration),
    }
    base = window_losses(model, held_out).mean()
    measured, predicted = [], {flavour: [] for flavour in accs}
    for name in quantizable_layers(model):
        w = model.params[name]
        for bits in (2, 3):
            dw = rtn_quantize(w, bits, 16).dequantize() - w
            model.params[name] = w + dw
            measured.append(window_losses(model, held_out).mean() - base)
            model.params[name] = w
            for flavour, by_layer in accs.items():
                acc = by_layer[name]
                predicted[flavour].append(0.5 * np.trace(dw @ finalize(acc) @ dw.T) / acc.n_samples)
    assert len(measured) == 24
    oac = spearman(measured, predicted["adaptive"])
    agnostic = spearman(measured, predicted["agnostic"])
    assert oac > agnostic
    assert oac >= 0.8
