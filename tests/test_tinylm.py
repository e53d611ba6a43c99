"""The toy transformer: gradients, per-block forward, collectors, checkpoints."""
import json
from pathlib import Path

import numpy as np
import pytest

import lm_reference as reference
import oacal.tinylm as tinylm
from oacal.errors import ArchitectureMismatch, ConfigError, DimMismatch
from oacal.hessian import HessianAccumulator, HessianMode, accumulate_adaptive, finalize
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
    load_checkpoint,
    quantizable_layers,
    sample_calibration_windows,
    save_checkpoint,
    tokenize,
    train_tiny_lm,
)

ROOT = Path(__file__).resolve().parents[1]

TINY = ModelConfig(vocab_size=16, d_model=8, d_ff=12, n_blocks=2, context_length=7)
THREE = ModelConfig(vocab_size=32, d_model=8, d_ff=16, n_blocks=3, context_length=10)
BYTES = ModelConfig(vocab_size=128, d_model=8, d_ff=12, n_blocks=1, context_length=8)


def per_chunk(config, backward):
    """`config`'s windows in one stacked pass, read off the walk's own chunks."""
    return tinylm._chunks(config, 10_000, config.context_length, backward)[0].stop


BACKWARD_CHUNK = per_chunk(THREE, backward=True)  # THREE's windows in one stacked backward pass
FORWARD_CHUNK = per_chunk(THREE, backward=False)  # and in one forward-only pass


def scaled_model(config, seed, scale=15.0):
    """Initial weights blown up so every nonlinearity is exercised."""
    model = init_model(config, seed)
    return tinylm.TinyLM(config, {k: v * scale for k, v in model.params.items()})


def cast(model, dtype):
    """The model with every parameter cast to `dtype`."""
    return tinylm.TinyLM(model.config, {k: v.astype(dtype) for k, v in model.params.items()})


def window_loss(model, window):
    """Mean next-token cross-entropy of one (1, T) window."""
    return reference.window_losses(model, window)[0]


def walk(model, ids):
    """The walk asked for every parameter's factors, as training asks: each
    window's loss, the caches `lm_forward` hands its fold and the factors
    `lm_backward` hands its fold, keyed by parameter."""
    caches, factors = [], {}
    x = lm_forward(model, ids, lambda b, blk: caches.append(blk))
    kept = list(caches)
    losses = lm_backward(model, x, caches, ids, lambda b, pairs: factors.update(pairs), ends=True)
    return losses, kept, factors


def gradients(model, factors):
    """Per-window weight gradients (B, *param.shape), formed explicitly from
    factor pairs: dY^T X for a linear layer, and for the embedding each
    position's row gradient added to its token's row."""
    grads = {}
    for name, (x, dy) in factors.items():
        if name == "embed":
            grads[name] = np.zeros((x.shape[0], *model.params[name].shape))
            for i, window in enumerate(x):
                for pos, token in enumerate(window):
                    grads[name][i, token] += dy[i, pos]
        else:
            grads[name] = dy.swapaxes(1, 2) @ x
    return grads


def windows(config, n, seed):
    """An (n, T) stack of random token-id windows."""
    rng = np.random.default_rng(seed)
    return np.array([rng.integers(0, config.vocab_size, config.context_length) for _ in range(n)])


class TestGradients:
    @pytest.mark.parametrize("name", sorted(init_model(TINY, 0).params))
    def test_finite_differences(self, name):
        model = scaled_model(TINY, 1)
        sample = windows(TINY, 1, 2)
        grad = gradients(model, walk(model, sample)[2])[name][0]
        rng = np.random.default_rng(3)
        entries = [tuple(int(rng.integers(0, n)) for n in grad.shape) for _ in range(12)]
        if name == "embed":
            # rows of tokens that occur in the window carry the gradient
            entries += [(int(sample[0, 0]), 0), (int(sample[0, -1]), 3)]
        eps = 1e-6
        for idx in entries:
            param = model.params[name]
            keep = param[idx]
            param[idx] = keep + eps
            up = window_loss(model, sample)
            param[idx] = keep - eps
            down = window_loss(model, sample)
            param[idx] = keep
            numeric = (up - down) / (2 * eps)
            assert grad[idx] == pytest.approx(numeric, rel=1e-5, abs=1e-9), idx

    def test_every_parameter_has_a_gradient(self):
        model = init_model(TINY, 0)
        assert sorted(walk(model, windows(TINY, 1, 0))[2]) == sorted(model.params)


class TestPerBlockForward:
    def test_propagated_input_matches_full_forward(self):
        """`lm_forward` hands its fold each block's cache, front to back,
        and returns the last block's output."""
        model = scaled_model(THREE, 6, scale=5.0)
        sample = windows(THREE, 1, 7)
        caches, order = [], []
        out = lm_forward(model, sample, lambda b, blk: order.append(b) or caches.append(blk))
        assert order == list(range(THREE.n_blocks))
        x = embed_windows(model, sample)
        for b in range(THREE.n_blocks):
            np.testing.assert_array_equal(x, caches[b]["x_in"])
            x, blk = block_forward(model, b, x)
            for key, value in blk.items():
                np.testing.assert_array_equal(value, caches[b][key])
        np.testing.assert_array_equal(x, out)

    def test_positions_are_built_once(self):
        assert tinylm._positions(10, 8) is tinylm._positions(10, 8)
        assert not tinylm._positions(10, 8).flags.writeable

    def test_training_runs_one_forward_per_step(self, monkeypatch):
        calls = []
        forward = tinylm.lm_forward
        monkeypatch.setattr(tinylm, "lm_forward", lambda *a: calls.append(1) or forward(*a))
        corpus = bytes(range(256)) * 256
        train_tiny_lm(corpus, BYTES, TrainConfig(steps=2, batch_size=3), seed=0)
        assert len(calls) == 2


@pytest.mark.parametrize(
    "field, value",
    [("steps", 0), ("batch_size", 0), ("learning_rate", 0.0), ("learning_rate", float("nan"))],
)
def test_train_config_ranges(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


def reference_agnostic(model, samples, block):
    """X^T X per layer from whole-model forwards on token ids."""
    sums = {}
    for s in samples:
        blk = reference.forward(model, s[None])[0][block]
        for name, source in layer_input_name_map(block).items():
            x = blk[source][0]
            sums[name] = sums.get(name, 0.0) + x.T @ x
    return sums


def reference_adaptive(model, samples):
    """G^T G per block layer, each G formed explicitly from one window's
    whole-model forward and backward."""
    sums = {}
    for s in samples:
        grads = gradients(model, reference.factors(model, s[None]))
        for name in quantizable_layers(model):
            g = grads[name][0]
            sums[name] = sums.get(name, 0.0) + g.T @ g
    return sums


class TestCollectors:
    """Both one-pass collectors read every block layer from whole-model
    passes of the model as given: input Grams from its forwards, per-window
    gradient Grams from its forwards and backwards."""

    def test_agnostic_collection_equals_forward_grams(self):
        model = scaled_model(THREE, 8, scale=5.0)
        samples = windows(THREE, FORWARD_CHUNK + 3, 10)
        accs = collect_agnostic_accumulators(model, samples)
        assert list(accs) == quantizable_layers(model)
        for block in range(THREE.n_blocks):
            expected = reference_agnostic(model, samples, block)
            for name in block_layer_names(block):
                assert accs[name].n_samples == samples.size
                # an agnostic sum holds only its lower triangle until finalize
                np.testing.assert_array_equal(finalize(accs[name]), expected[name])

    def test_harvest_equals_explicit_gradient_grams(self):
        """Every block layer's factor-form Hessian is sum_i G_i^T G_i with each
        G_i formed from window i's own forward and backward of the model."""
        model = scaled_model(THREE, 21, scale=5.0)
        samples = windows(THREE, BACKWARD_CHUNK + 3, 23)
        accs = harvest_block_gradients(model, samples)
        expected = reference_adaptive(model, samples)
        assert list(accs) == quantizable_layers(model)
        for name, acc in accs.items():
            assert acc.n_samples == len(samples)
            gap = np.linalg.norm(acc.sum - expected[name])
            assert gap <= 1e-12 * np.linalg.norm(expected[name]), name

    def test_harvest_folds_as_the_full_backward_would(self):
        """Folding each block's pairs as the backward reaches it, last block
        first, and stopping after block 0 gives, bit for bit, the Hessians of
        folding the whole-model reference's factors per chunk window by window."""
        model = scaled_model(THREE, 28, scale=5.0)
        samples = windows(THREE, 2 * BACKWARD_CHUNK + 1, 29)
        accs = harvest_block_gradients(model, samples)
        expected = {
            name: HessianAccumulator(model.params[name].shape[1], HessianMode.ADAPTIVE)
            for name in quantizable_layers(model)
        }
        for rows in tinylm._chunks(THREE, *samples.shape, backward=True):
            factors = reference.factors(model, samples[rows])
            for name, acc in expected.items():
                for x_i, dy_i in zip(*factors[name]):
                    accumulate_adaptive(acc, x_i, dy_i)
        assert list(accs) == list(expected)
        for name, acc in accs.items():
            assert acc.n_samples == expected[name].n_samples == len(samples)
            assert acc.sum.tobytes() == expected[name].sum.tobytes(), name

    @pytest.mark.parametrize("which", ["toy-checkpoint", "three-blocks"])
    def test_float32_forwards_stay_within_1e6_of_float64(self, which):
        """The agnostic collector on a model's float32 values sums in
        float64, and every layer's Hessian lies within 1e-6 relative
        Frobenius of collecting from float64 forwards of the same values."""
        if which == "toy-checkpoint":
            model = load_checkpoint(ROOT / "benchmarks" / "toy" / "toy.oack")
            tokens = tokenize((ROOT / "data" / "tiny_corpus.txt").read_bytes())
            ctx = model.config.context_length
            samples = sample_calibration_windows(tokens, 16, ctx, np.random.default_rng(0))
        else:
            model = cast(cast(scaled_model(THREE, 8, scale=5.0), np.float32), np.float64)
            samples = windows(THREE, FORWARD_CHUNK + 3, 10)
        wide = collect_agnostic_accumulators(model, samples)
        narrow = collect_agnostic_accumulators(cast(model, np.float32), samples)
        assert list(narrow) == list(wide)
        for name, acc in narrow.items():
            assert acc.sum.dtype == np.float64
            assert acc.n_samples == wide[name].n_samples
            expected = finalize(wide[name])
            gap = np.linalg.norm(finalize(acc) - expected)
            assert gap <= 1e-6 * np.linalg.norm(expected), name

    def test_no_windows(self):
        for collect in (collect_agnostic_accumulators, harvest_block_gradients):
            with pytest.raises(DimMismatch):
                collect(init_model(THREE, 0), [])

    def test_harvest_never_forms_block_0s_input_gradient(self, monkeypatch):
        """Each backward chunk of the harvest forms the input gradient of
        every block but block 0, and training's walk forms all of them."""
        calls = []
        input_grad = tinylm._block_input_grad
        monkeypatch.setattr(
            tinylm, "_block_input_grad", lambda *a: calls.append(a[1]) or input_grad(*a)
        )
        model = scaled_model(THREE, 36, scale=5.0)
        samples = windows(THREE, 2 * BACKWARD_CHUNK + 1, 37)
        harvest_block_gradients(model, samples)
        n_chunks = len(tinylm._chunks(THREE, *samples.shape, backward=True))
        assert calls == [2, 1] * n_chunks
        calls.clear()
        walk(model, samples)
        assert calls == [2, 1, 0]

    def test_mean_harvest_matches_row_hessians(self):
        model = scaled_model(THREE, 11, scale=5.0)
        samples = windows(THREE, 5, 12)
        accs = harvest_block_gradients(model, samples)
        grads = gradients(model, reference.factors(model, samples))
        for name in quantizable_layers(model):
            # the mean over windows of the per-row curvature blocks, summed over rows
            expected = sum(
                np.outer(row, row) for g in grads[name] for row in g
            ) / len(samples)
            got = finalize(accs[name]) / accs[name].n_samples
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12 * np.abs(expected).max())


class TestWalk:
    """`collect` with folds that no method uses: the walk's order and what
    each fold is handed."""

    def test_mean_gradient_fold(self):
        """Summing dY_i^T X_i per layer, in window order, from a backward walk
        gives the window sum of the reference's weight gradients; the walk
        visits the blocks back to front in every chunk."""
        model = scaled_model(THREE, 30, scale=5.0)
        samples = windows(THREE, 2 * BACKWARD_CHUNK + 1, 31)
        sums, order = {}, []

        def fold(block, pairs):
            order.append(block)
            for name, (xs, dys) in pairs.items():
                for x_i, dy_i in zip(xs, dys):
                    sums[name] = sums.get(name, 0.0) + dy_i.T @ x_i

        tinylm.collect(model, samples, fold, backward=True)
        assert order == [2, 1, 0] * len(tinylm._chunks(THREE, *samples.shape, backward=True))
        assert sorted(sums) == sorted(quantizable_layers(model))
        grads = gradients(model, reference.factors(model, samples))
        for name, total in sums.items():
            expected = 0.0
            for g in grads[name]:
                expected = expected + g
            np.testing.assert_allclose(total, expected, rtol=1e-12, atol=0)

    def test_forward_fold_records_the_cached_inputs(self):
        """A forward-only walk hands each block's fold the block's cache,
        which holds each layer's input as the reference caches it, block by
        block front to back in every chunk."""
        model = scaled_model(THREE, 32, scale=5.0)
        samples = windows(THREE, 2 * FORWARD_CHUNK + 1, 33)
        seen, order = {}, []

        def fold(block, cache):
            order.append(block)
            for name, source in layer_input_name_map(block).items():
                seen.setdefault(name, []).append(cache[source])

        tinylm.collect(model, samples, fold, backward=False)
        assert order == [0, 1, 2] * len(tinylm._chunks(THREE, *samples.shape, backward=False))
        for b, blk in enumerate(reference.forward(model, samples)[0]):
            for name, source in layer_input_name_map(b).items():
                np.testing.assert_array_equal(np.concatenate(seen[name]), blk[source])


class TestStackedWindows:
    """A (B, T) stack gives exactly what B one-window calls give."""

    def test_forward_and_backward_match_per_window(self):
        """The walk on a stack against the reference on each of its windows,
        in float64, training's dtype, and float32, eval's."""
        samples = windows(THREE, 5, 15)
        for dtype in (np.float64, np.float32):
            model = cast(scaled_model(THREE, 14, scale=5.0), dtype)
            losses, caches, factors = walk(model, samples)
            grads = gradients(model, factors)
            for i, s in enumerate(samples):
                one, _ = reference.forward(model, s[None])
                assert losses[i] == reference.window_losses(model, s[None])[0]
                for b, blk in enumerate(one):
                    for key, value in blk.items():
                        np.testing.assert_array_equal(caches[b][key][i], value[0])
                one_factors = reference.factors(model, s[None])
                assert one_factors["head"][1].dtype == dtype
                for name, (x, dy) in one_factors.items():
                    np.testing.assert_array_equal(factors[name][0][i], x[0])
                    np.testing.assert_array_equal(factors[name][1][i], dy[0])
                for name, g in gradients(model, one_factors).items():
                    np.testing.assert_array_equal(grads[name][i], g[0])

    @pytest.mark.parametrize("n", [1, BACKWARD_CHUNK + 1, FORWARD_CHUNK + 1])
    @pytest.mark.parametrize(
        "collect, dtype",
        [
            pytest.param(collect_agnostic_accumulators, np.float64, id="collect_agnostic_accumulators"),
            pytest.param(collect_agnostic_accumulators, np.float32, id="collect_agnostic_accumulators-float32"),
            pytest.param(harvest_block_gradients, np.float64, id="harvest_block_gradients"),
        ],
    )
    def test_collectors_match_one_window_at_a_time(self, collect, dtype, n):
        """Covers a ragged last chunk of either walk: the sums fold the
        windows in order, from float32 forwards as from float64 ones."""
        model = cast(scaled_model(THREE, 16, scale=5.0), dtype)
        samples = windows(THREE, n, 17)
        accs = collect(model, samples)
        singles = [collect(model, s[None]) for s in samples]
        assert list(accs) == quantizable_layers(model)
        for name, acc in accs.items():
            expected = np.zeros_like(acc.sum)
            for single in singles:
                expected += single[name].sum
            np.testing.assert_array_equal(acc.sum, expected)

    # enough terms that a pairwise sum would differ, and a ragged last chunk
    @pytest.mark.parametrize("n", [1, BACKWARD_CHUNK + 1, 3 * BACKWARD_CHUNK + 1, FORWARD_CHUNK + 1])
    def test_perplexity_matches_one_window_at_a_time(self, n):
        """Eval forwards run on the float32 cast of the model, one float64
        loss per window, summed in window order."""
        model = scaled_model(THREE, 18, scale=5.0)
        f32 = cast(model, np.float32)
        ctx = THREE.context_length
        tokens = windows(THREE, n + 1, 19).ravel()[: n * ctx + ctx // 2]
        total = 0.0
        for start in range(0, n * ctx, ctx):
            total = total + window_loss(f32, tokens[None, start : start + ctx]) * (ctx - 1)
        assert tinylm.perplexity(model, tokens) == float(np.exp(total / (n * (ctx - 1))))

    @pytest.mark.parametrize("rows", [1, 1 << 20], ids=["one-window", "all-windows"])
    def test_perplexity_does_not_depend_on_the_chunk(self, rows, monkeypatch):
        """Chunks of one window and one chunk of all windows give the
        default chunking's perplexity bit for bit."""
        model = scaled_model(THREE, 34, scale=5.0)
        tokens = windows(THREE, 2 * FORWARD_CHUNK + 5, 35).ravel()
        expected = tinylm.perplexity(model, tokens)
        monkeypatch.setattr(tinylm, "CHUNK_ROWS", rows)
        chunks = tinylm._chunks(THREE, 2 * FORWARD_CHUNK + 5, THREE.context_length, backward=False)
        assert len(chunks) == (2 * FORWARD_CHUNK + 5 if rows == 1 else 1)
        assert tinylm.perplexity(model, tokens) == expected

    def test_perplexity_is_close_to_float64(self):
        # float32-representable parameters, as a checkpoint holds
        model = cast(cast(scaled_model(THREE, 24, scale=5.0), np.float32), np.float64)
        n, ctx = 3 * FORWARD_CHUNK + 1, THREE.context_length
        tokens = windows(THREE, n, 25).ravel()
        wide = np.exp(np.mean(reference.window_losses(model, tokens.reshape(n, ctx))))
        assert tinylm.perplexity(model, tokens) == pytest.approx(wide, rel=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_keeps_the_parameters_dtype(self, dtype):
        """A float64 scale or mask would promote a float32 walk to float64:
        every cache and every factor of the backward, the embedding's
        gradient included, keeps the parameters' dtype."""
        model = cast(scaled_model(THREE, 26, scale=5.0), dtype)
        losses, caches, factors = walk(model, windows(THREE, 2, 27))
        arrays = {f"blk{b}.{k}": v for b, blk in enumerate(caches) for k, v in blk.items()}
        for name, (x, dy) in factors.items():
            if name != "embed":  # whose x is the token ids
                arrays[f"{name}.x"] = x
            arrays[f"{name}.dy"] = dy
        assert {k: v.dtype for k, v in arrays.items()} == {k: np.dtype(dtype) for k in arrays}
        assert losses.dtype == np.float64

    def test_training_matches_one_window_at_a_time(self):
        train = TrainConfig(steps=3, batch_size=4)
        corpus = np.random.default_rng(20).integers(0, 256, 64 * 1024, dtype=np.uint8).tobytes()
        trained, _ = train_tiny_lm(corpus, BYTES, train, seed=5)

        tokens = tinylm.tokenize(corpus)
        model = init_model(BYTES, 5)
        rng = np.random.default_rng(5 + 1)
        m_state = {k: np.zeros_like(v) for k, v in model.params.items()}
        v_state = {k: np.zeros_like(v) for k, v in model.params.items()}
        ctx = BYTES.context_length
        for step in range(1, train.steps + 1):
            offsets = rng.integers(0, tokens.shape[0] - ctx, size=train.batch_size)
            grad_sum = {k: np.zeros_like(v) for k, v in model.params.items()}
            for off in offsets:
                factors = reference.factors(model, tokens[None, off : off + ctx])
                for k, g in gradients(model, factors).items():
                    grad_sum[k] += g[0]
            inv_b = 1.0 / train.batch_size
            gnorm = np.sqrt(sum(float(np.sum((g * inv_b) ** 2)) for g in grad_sum.values()))
            clip = min(1.0, tinylm.GRAD_CLIP / max(gnorm, 1e-12))
            beta1, beta2 = tinylm.ADAM_BETA1, tinylm.ADAM_BETA2
            for k in model.params:
                g = grad_sum[k] * inv_b * clip
                m_state[k] = beta1 * m_state[k] + (1 - beta1) * g
                v_state[k] = beta2 * v_state[k] + (1 - beta2) * (g * g)
                m_hat = m_state[k] / (1 - beta1**step)
                v_hat = v_state[k] / (1 - beta2**step)
                model.params[k] -= train.learning_rate * m_hat / (np.sqrt(v_hat) + tinylm.ADAM_EPS)
        for k, value in model.params.items():
            np.testing.assert_array_equal(trained.params[k], value)


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
