"""The toy transformer: gradients, per-block forward, collectors, checkpoints."""
import json

import numpy as np
import pytest

import oacal.tinylm as tinylm
from oacal.errors import ArchitectureMismatch, DimMismatch
from oacal.hessian import finalize
from oacal.tinylm import (
    ModelConfig,
    TrainConfig,
    block_forward,
    block_layer_names,
    collect_agnostic_accumulators,
    embed_windows,
    harvest_block_gradients,
    init_model,
    layer_input_name_map,
    lm_backward,
    lm_forward,
    lm_forward_loss,
    load_checkpoint,
    save_checkpoint,
    train_tiny_lm,
)

TINY = ModelConfig(vocab_size=16, d_model=8, d_ff=12, n_blocks=2, context_length=7)
THREE = ModelConfig(vocab_size=32, d_model=8, d_ff=16, n_blocks=3, context_length=10)
BYTES = ModelConfig(vocab_size=128, d_model=8, d_ff=12, n_blocks=1, context_length=8)


def scaled_model(config, seed, scale=15.0):
    """Initial weights blown up so every nonlinearity is exercised."""
    model = init_model(config, seed)
    return tinylm.TinyLM(config, {k: v * scale for k, v in model.params.items()})


def windows(config, n, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, config.vocab_size, config.context_length) for _ in range(n)]


class TestGradients:
    @pytest.mark.parametrize("name", sorted(init_model(TINY, 0).params))
    def test_finite_differences(self, name):
        model = scaled_model(TINY, 1)
        sample = windows(TINY, 1, 2)[0]
        grad = lm_backward(model, lm_forward(model, sample)[1])[name]
        rng = np.random.default_rng(3)
        entries = [tuple(int(rng.integers(0, n)) for n in grad.shape) for _ in range(12)]
        if name == "embed":
            # rows of tokens that occur in the window carry the gradient
            entries += [(int(sample[0]), 0), (int(sample[-1]), 3)]
        eps = 1e-6
        for idx in entries:
            param = model.params[name]
            keep = param[idx]
            param[idx] = keep + eps
            up = lm_forward_loss(model, sample)
            param[idx] = keep - eps
            down = lm_forward_loss(model, sample)
            param[idx] = keep
            numeric = (up - down) / (2 * eps)
            assert grad[idx] == pytest.approx(numeric, rel=1e-5, abs=1e-9), idx

    def test_every_parameter_has_a_gradient(self):
        model = init_model(TINY, 0)
        grads = lm_backward(model, lm_forward(model, windows(TINY, 1, 0)[0])[1])
        assert sorted(grads) == sorted(model.params)

    @pytest.mark.parametrize("block", range(THREE.n_blocks))
    def test_block_restriction_is_bit_identical(self, block):
        model = scaled_model(THREE, 4, scale=5.0)
        _, cache = lm_forward(model, windows(THREE, 1, 5)[0])
        full = lm_backward(model, cache)
        part = lm_backward(model, cache, blocks=[block])
        assert sorted(part) == sorted(block_layer_names(block))
        for name, g in part.items():
            np.testing.assert_array_equal(g, full[name])

    def test_block_outside_the_forward_is_rejected(self):
        model = init_model(THREE, 0)
        inputs = embed_windows(model, windows(THREE, 1, 0))
        x, _ = block_forward(model, 0, inputs.xs[0])
        _, cache = tinylm._forward_from(model, inputs.ids[0], 1, x)
        with pytest.raises(DimMismatch):
            lm_backward(model, cache, blocks=[0])
        with pytest.raises(DimMismatch):
            lm_backward(model, cache)


class TestPerBlockForward:
    def test_propagated_input_matches_full_forward(self):
        model = scaled_model(THREE, 6, scale=5.0)
        sample = windows(THREE, 1, 7)[0]
        probs, cache = lm_forward(model, sample)
        x = embed_windows(model, [sample]).xs[0]
        for b in range(THREE.n_blocks):
            np.testing.assert_array_equal(x, cache["blocks"][b]["x_in"])
            x, blk = block_forward(model, b, x)
            for key, value in blk.items():
                np.testing.assert_array_equal(value, cache["blocks"][b][key])
        np.testing.assert_array_equal(x, cache["final_in"])
        got, _ = tinylm._head_forward(model, x)
        np.testing.assert_array_equal(got, probs)

    def test_positions_are_built_once(self):
        assert tinylm._positions(10, 8) is tinylm._positions(10, 8)
        assert not tinylm._positions(10, 8).flags.writeable

    def test_training_runs_one_forward_per_window(self, monkeypatch):
        calls = []
        forward = tinylm.lm_forward
        monkeypatch.setattr(tinylm, "lm_forward", lambda *a: calls.append(1) or forward(*a))
        corpus = bytes(range(256)) * 256
        train_tiny_lm(corpus, BYTES, TrainConfig(steps=2, batch_size=3), seed=0)
        assert len(calls) == 2 * 3


def reference_agnostic(model, samples, block):
    """X^T X per layer from whole-model forwards on token ids."""
    sums = {}
    for s in samples:
        blk = lm_forward(model, s)[1]["blocks"][block]
        for name, source in layer_input_name_map(block).items():
            x = blk[source]
            sums[name] = sums.get(name, 0.0) + x.T @ x
    return sums


def reference_adaptive(model, samples, block):
    """G^T G per layer from whole-model forwards and block backwards."""
    sums = {}
    for s in samples:
        grads = lm_backward(model, lm_forward(model, s)[1], blocks=[block])
        for name in block_layer_names(block):
            g = grads[name]
            sums[name] = sums.get(name, 0.0) + g.T @ g
    return sums


class TestCollectors:
    """Stored, propagated block inputs give the Hessians of whole forwards."""

    @pytest.mark.parametrize(
        "collector,reference",
        [
            (collect_agnostic_accumulators, reference_agnostic),
            (harvest_block_gradients, reference_adaptive),
        ],
    )
    def test_propagated_inputs_match_forwards_from_ids(self, collector, reference):
        model = scaled_model(THREE, 8, scale=5.0)
        rng = np.random.default_rng(9)
        swapped = tinylm.TinyLM(
            THREE,
            {
                **model.params,
                **{
                    name: model.params[name] + 0.01 * rng.standard_normal(model.params[name].shape)
                    for name in block_layer_names(0)
                },
            },
        )
        samples = windows(THREE, 4, 10)
        inputs = embed_windows(model, samples)
        # block 0 on the original weights, then blocks 1 and 2 after block 0
        # was swapped, as the quantize pipeline installs it
        for block, current in [(0, model), (1, swapped), (2, swapped)]:
            accs = collector(current, block, inputs)
            expected = reference(current, samples, block)
            assert list(accs) == block_layer_names(block)
            for name, acc in accs.items():
                np.testing.assert_array_equal(acc.sum, expected[name])
            assert inputs.block == block

    def test_inputs_cannot_move_backwards(self):
        model = init_model(THREE, 0)
        inputs = embed_windows(model, windows(THREE, 2, 0))
        collect_agnostic_accumulators(model, 1, inputs)
        with pytest.raises(DimMismatch):
            collect_agnostic_accumulators(model, 0, inputs)
        with pytest.raises(DimMismatch):
            harvest_block_gradients(model, THREE.n_blocks, inputs)

    def test_no_windows(self):
        with pytest.raises(DimMismatch):
            embed_windows(init_model(THREE, 0), [])

    def test_mean_harvest_matches_row_hessians(self):
        model = scaled_model(THREE, 11, scale=5.0)
        samples = windows(THREE, 5, 12)
        block = 1
        accs = harvest_block_gradients(model, block, embed_windows(model, samples))
        per_window = [
            lm_backward(model, lm_forward(model, s)[1], blocks=[block]) for s in samples
        ]
        for name in block_layer_names(block):
            # the mean over windows of the per-row curvature blocks, summed over rows
            expected = sum(
                np.outer(row, row) for g in per_window for row in g[name]
            ) / len(per_window)
            got = finalize(accs[name]) / accs[name].n_samples
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12 * np.abs(expected).max())


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = init_model(THREE, 13)
        model = tinylm.TinyLM(
            THREE,
            {k: v.astype(np.float32).astype(np.float64) for k, v in model.params.items()},
        )
        save_checkpoint(model, tmp_path / "m.oack")
        loaded = load_checkpoint(tmp_path / "m.oack")
        assert loaded.config == THREE
        assert sorted(loaded.params) == sorted(model.params)
        for name, value in model.params.items():
            assert loaded.params[name].dtype == np.float64
            assert loaded.params[name].tobytes() == value.tobytes()

    def test_shape_mismatch_is_rejected(self, tmp_path):
        save_checkpoint(init_model(THREE, 0), tmp_path / "m.oack")
        sidecar = tmp_path / "m.oack.json"
        data = json.loads(sidecar.read_text())
        data["architecture"]["d_ff"] = 32
        sidecar.write_text(json.dumps(data))
        with pytest.raises(ArchitectureMismatch):
            load_checkpoint(tmp_path / "m.oack")
