"""Byte-level toy transformer with hand-written backpropagation.

The model is deliberately small (vocab 128, d_model 64, two pre-norm blocks
of single-head attention plus a tanh MLP) so that exact per-sample weight
gradients are cheap: they feed the adaptive Hessian accumulators, and every
derivative is checked against finite differences in the tests. One
per-block forward (`block_forward`) serves the whole model and the
calibration collectors, which carry each window's block input forward.

Activations are row vectors; a linear layer with weight W (d_out x d_in)
computes x @ W.T, so W's columns line up with the layer's input dimension.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, asdict

import numpy as np

from .archive import archive_read, archive_write
from .errors import (
    ArchitectureMismatch,
    CorpusTooSmall,
    DimMismatch,
    TokenOutOfRange,
)
from .hessian import (
    HessianAccumulator,
    HessianMode,
    accumulate_adaptive,
    accumulate_agnostic_batch,
)

RMS_EPS = 1e-6

__all__ = [
    "ModelConfig",
    "TrainConfig",
    "TinyLM",
    "BlockInputs",
    "tokenize",
    "init_model",
    "block_layer_names",
    "quantizable_layers",
    "layer_input_name_map",
    "block_forward",
    "lm_forward",
    "lm_forward_loss",
    "lm_backward",
    "embed_windows",
    "harvest_block_gradients",
    "collect_agnostic_accumulators",
    "perplexity",
    "sample_calibration_windows",
    "train_tiny_lm",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 128
    d_model: int = 64
    d_ff: int = 256
    n_blocks: int = 2
    context_length: int = 64


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1200
    batch_size: int = 16
    learning_rate: float = 2e-3
    grad_clip: float = 1.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8


@dataclass
class TinyLM:
    config: ModelConfig
    params: dict[str, np.ndarray]


def tokenize(data: bytes) -> np.ndarray:
    """Byte mapping to the 128-token vocabulary."""
    return (np.frombuffer(data, dtype=np.uint8) % 128).astype(np.int64)


def _check_ids(ids, vocab_size: int) -> np.ndarray:
    arr = np.asarray(ids, dtype=np.int64)
    if arr.ndim != 1:
        raise DimMismatch("token ids must be a 1-D sequence")
    if arr.size and (arr.min() < 0 or arr.max() >= vocab_size):
        raise TokenOutOfRange(f"token ids must lie in [0, {vocab_size})")
    return arr


def block_layer_names(block: int) -> list[str]:
    base = f"blk{block}"
    return [
        f"{base}.attn.wq",
        f"{base}.attn.wk",
        f"{base}.attn.wv",
        f"{base}.attn.wo",
        f"{base}.mlp.fc1",
        f"{base}.mlp.fc2",
    ]


def quantizable_layers(model: TinyLM) -> list[str]:
    names = []
    for b in range(model.config.n_blocks):
        names.extend(block_layer_names(b))
    return names


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Every parameter's shape, in initialization order."""
    d, ff, v = config.d_model, config.d_ff, config.vocab_size
    shapes = {"embed": (v, d), "head": (v, d)}
    for b in range(config.n_blocks):
        shapes.update(zip(block_layer_names(b), [(d, d)] * 4 + [(ff, d), (d, ff)]))
    return shapes


def init_model(config: ModelConfig, seed: int) -> TinyLM:
    rng = np.random.default_rng(seed)
    resid_scale = 1.0 / np.sqrt(2.0 * config.n_blocks)
    params = {}
    for name, shape in _param_shapes(config).items():
        # residual-branch outputs start smaller
        std = 0.02 * resid_scale if name.endswith((".wo", ".fc2")) else 0.02
        params[name] = rng.normal(0.0, std, size=shape)
    return TinyLM(config, params)


@functools.lru_cache(maxsize=None)
def _positions(context: int, d_model: int) -> np.ndarray:
    pos = np.arange(context)[:, None]
    i = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d_model)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    enc.setflags(write=False)
    return enc


def _rms_norm(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)
    return x / r, r


def _rms_backward(dy: np.ndarray, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    dot = np.sum(dy * x, axis=-1, keepdims=True)
    return dy / r - x * dot / (n * r**3)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def layer_input_name_map(block: int) -> dict[str, str]:
    """Which cached activation feeds each linear layer of a block."""
    base = f"blk{block}"
    return {
        f"{base}.attn.wq": "attn_in",
        f"{base}.attn.wk": "attn_in",
        f"{base}.attn.wv": "attn_in",
        f"{base}.attn.wo": "attn_mix",
        f"{base}.mlp.fc1": "mlp_in",
        f"{base}.mlp.fc2": "mlp_act",
    }


def _embed(model: TinyLM, ids) -> tuple[np.ndarray, np.ndarray]:
    """Checked token ids and their residual-stream input to block 0."""
    cfg = model.config
    ids = _check_ids(ids, cfg.vocab_size)
    t = ids.shape[0]
    if t > cfg.context_length:
        raise DimMismatch(f"sequence length {t} exceeds context {cfg.context_length}")
    return ids, model.params["embed"][ids] + _positions(cfg.context_length, cfg.d_model)[:t]


def block_forward(model: TinyLM, block: int, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """One pre-norm block on residual-stream rows `x`: its output and backward cache."""
    p = model.params
    base = f"blk{block}"
    t = x.shape[0]
    scale = 1.0 / np.sqrt(model.config.d_model)
    a, ra = _rms_norm(x)
    q = a @ p[f"{base}.attn.wq"].T
    k = a @ p[f"{base}.attn.wk"].T
    v = a @ p[f"{base}.attn.wv"].T
    att = _softmax(q @ k.T * scale + np.triu(np.full((t, t), -np.inf), k=1))
    mix = att @ v
    x_mid = x + mix @ p[f"{base}.attn.wo"].T
    m_in, rm = _rms_norm(x_mid)
    h_act = np.tanh(m_in @ p[f"{base}.mlp.fc1"].T)
    x_out = x_mid + h_act @ p[f"{base}.mlp.fc2"].T
    return x_out, dict(
        x_in=x, attn_in=a, r_attn=ra, q=q, k=k, v=v, att=att, attn_mix=mix,
        x_mid=x_mid, mlp_in=m_in, r_mlp=rm, mlp_act=h_act,
    )


def _head_forward(model: TinyLM, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Final norm, logits and next-token probabilities of the last block's output."""
    f, rf = _rms_norm(x)
    logits = f @ model.params["head"].T
    probs = _softmax(logits)
    return probs, dict(final_in=x, r_final=rf, final_norm=f, logits=logits, probs=probs)


def _forward_from(model: TinyLM, ids: np.ndarray, first: int, x: np.ndarray):
    """Forward from block `first`'s input `x` to the head; cache keeps blocks >= first."""
    blocks = {}
    for b in range(first, model.config.n_blocks):
        x, blocks[b] = block_forward(model, b, x)
    probs, cache = _head_forward(model, x)
    cache.update(ids=ids, blocks=blocks)
    return probs, cache


def lm_forward(model: TinyLM, ids) -> tuple[np.ndarray, dict]:
    """Next-token probabilities per position plus the backward cache."""
    ids, x = _embed(model, ids)
    return _forward_from(model, ids, 0, x)


def _mean_ce_from_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return float(-np.mean(logp[np.arange(targets.shape[0]), targets]))


def lm_forward_loss(model: TinyLM, ids) -> float:
    """Mean next-token cross-entropy over the window's positions."""
    ids = _check_ids(ids, model.config.vocab_size)
    if ids.shape[0] < 2:
        raise DimMismatch("need at least two tokens for a next-token loss")
    _, cache = lm_forward(model, ids)
    return _mean_ce_from_logits(cache["logits"][:-1], ids[1:])


def lm_backward(
    model: TinyLM, cache: dict, blocks: list[int] | None = None
) -> dict[str, np.ndarray]:
    """Exact gradients of the mean cross-entropy from a forward's `cache`.

    With `blocks` given, only those blocks' layer gradients are produced and
    backpropagation stops once the earliest requested block is done; the
    other blocks stay frozen, as in per-block gradient harvesting. A forward
    started at a stored block input can serve only its own blocks.
    """
    cfg = model.config
    p = model.params
    ids = cache["ids"]
    t = ids.shape[0]
    if t < 2:
        raise DimMismatch("need at least two tokens for a next-token loss")
    want_all = blocks is None
    wanted = set(range(cfg.n_blocks)) if want_all else set(blocks)
    bad = [b for b in wanted if b not in cache["blocks"]]
    if bad:
        raise DimMismatch(f"block index out of range of the forward: {bad}")
    lowest = min(wanted) if wanted else 0

    n_pred = t - 1
    dlogits = cache["probs"].copy()
    dlogits[np.arange(n_pred), ids[1:]] -= 1.0
    dlogits[:n_pred] /= n_pred
    dlogits[n_pred:] = 0.0

    grads: dict[str, np.ndarray] = {}
    f = cache["final_norm"]
    if want_all:
        grads["head"] = dlogits.T @ f
    dx = _rms_backward(dlogits @ p["head"], cache["final_in"], cache["r_final"])

    scale = 1.0 / np.sqrt(cfg.d_model)
    for b in sorted(cache["blocks"], reverse=True):
        blk = cache["blocks"][b]
        base = f"blk{b}"
        take = b in wanted

        # MLP half: x_out = x_mid + tanh(m_in @ W1.T) @ W2.T
        dh_act = dx @ p[f"{base}.mlp.fc2"]
        dh_pre = dh_act * (1.0 - blk["mlp_act"] ** 2)
        if take:
            grads[f"{base}.mlp.fc2"] = dx.T @ blk["mlp_act"]
            grads[f"{base}.mlp.fc1"] = dh_pre.T @ blk["mlp_in"]
        dm_in = dh_pre @ p[f"{base}.mlp.fc1"]
        dx_mid = dx + _rms_backward(dm_in, blk["x_mid"], blk["r_mlp"])

        # attention half: x_mid = x_in + (att @ v) @ Wo.T
        dmix = dx_mid @ p[f"{base}.attn.wo"]
        if take:
            grads[f"{base}.attn.wo"] = dx_mid.T @ blk["attn_mix"]
        datt = dmix @ blk["v"].T
        dv = blk["att"].T @ dmix
        att = blk["att"]
        dlogit_att = att * (datt - np.sum(datt * att, axis=-1, keepdims=True))
        dq = dlogit_att @ blk["k"] * scale
        dk = dlogit_att.T @ blk["q"] * scale
        if take:
            grads[f"{base}.attn.wq"] = dq.T @ blk["attn_in"]
            grads[f"{base}.attn.wk"] = dk.T @ blk["attn_in"]
            grads[f"{base}.attn.wv"] = dv.T @ blk["attn_in"]
        if not want_all and b == lowest:
            return grads
        da = (
            dq @ p[f"{base}.attn.wq"]
            + dk @ p[f"{base}.attn.wk"]
            + dv @ p[f"{base}.attn.wv"]
        )
        dx = dx_mid + _rms_backward(da, blk["x_in"], blk["r_attn"])

    if want_all:
        dembed = np.zeros_like(p["embed"])
        np.add.at(dembed, ids, dx)
        grads["embed"] = dembed
    return grads


@dataclass
class BlockInputs:
    """Calibration windows at their residual-stream input to `block`; the
    collectors move `xs` in place through the (installed) blocks on the way."""

    ids: list[np.ndarray]
    xs: list[np.ndarray]
    block: int = 0


def embed_windows(model: TinyLM, windows: list[np.ndarray]) -> BlockInputs:
    """Embed every calibration window (token ids) once, as inputs to block 0."""
    if not windows:
        raise DimMismatch("need at least one calibration sample")
    ids, xs = zip(*(_embed(model, w) for w in windows))
    return BlockInputs(list(ids), list(xs))


def _advance(model: TinyLM, inputs: BlockInputs, block_index: int) -> None:
    if not inputs.block <= block_index < model.config.n_blocks:
        raise DimMismatch(f"inputs at block {inputs.block} cannot serve {block_index}")
    for b in range(inputs.block, block_index):
        for i, x in enumerate(inputs.xs):
            inputs.xs[i] = block_forward(model, b, x)[0]
    inputs.block = block_index


def harvest_block_gradients(
    model: TinyLM,
    block_index: int,
    inputs: BlockInputs,
) -> dict[str, HessianAccumulator]:
    """Adaptive Hessian accumulators for one block's linear layers.

    Each window runs from its stored input to block `block_index` through the
    head and back (other blocks stay frozen), adding one G^T G per layer.
    """
    _advance(model, inputs, block_index)
    accs = {
        name: HessianAccumulator(model.params[name].shape[1], HessianMode.ADAPTIVE)
        for name in block_layer_names(block_index)
    }
    for ids, x in zip(inputs.ids, inputs.xs):
        # the forward cache dies with the backward, not at the next window
        grads = lm_backward(model, _forward_from(model, ids, block_index, x)[1], [block_index])
        for name, acc in accs.items():
            accumulate_adaptive(acc, grads[name])
    return accs


def collect_agnostic_accumulators(
    model: TinyLM,
    block_index: int,
    inputs: BlockInputs,
) -> dict[str, HessianAccumulator]:
    """Classic input-outer-product accumulators for one block's layers.

    Only block `block_index` runs, on the stored inputs; every position adds
    one x x^T, and layers reading the same input share one accumulator.
    """
    _advance(model, inputs, block_index)
    sources = layer_input_name_map(block_index)
    dims = {source: model.params[name].shape[1] for name, source in sources.items()}
    by_input = {s: HessianAccumulator(d, HessianMode.AGNOSTIC) for s, d in dims.items()}
    for x in inputs.xs:
        _, blk = block_forward(model, block_index, x)
        for source, acc in by_input.items():
            accumulate_agnostic_batch(acc, blk[source])
    return {name: by_input[source] for name, source in sources.items()}


def perplexity(model: TinyLM, tokens) -> float:
    """exp(mean next-token cross-entropy) over non-overlapping windows."""
    cfg = model.config
    ids = _check_ids(tokens, cfg.vocab_size)
    ctx = cfg.context_length
    if ids.shape[0] <= ctx:
        raise DimMismatch("need more eval tokens than one context window")
    total = 0.0
    count = 0
    for start in range(0, ids.shape[0] - ctx + 1, ctx):
        window = ids[start : start + ctx]
        total = total + lm_forward_loss(model, window) * (ctx - 1)
        count += ctx - 1
    return float(np.exp(total / count))


def sample_calibration_windows(
    tokens, n_samples: int, context_length: int, rng
) -> list[np.ndarray]:
    """Token-id windows at random offsets, in ascending offset order."""
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.shape[0] < context_length + 1:
        raise CorpusTooSmall("not enough tokens for one calibration window")
    offsets = rng.integers(0, ids.shape[0] - context_length, size=n_samples)
    return [ids[o : o + context_length].copy() for o in np.sort(offsets)]


def train_tiny_lm(
    corpus: bytes,
    config: ModelConfig,
    train: TrainConfig,
    seed: int,
) -> tuple[TinyLM, dict]:
    """Adam training on random corpus windows; bit-deterministic per seed."""
    if len(corpus) < 64 * 1024:
        raise CorpusTooSmall(
            f"corpus must be at least 64 KiB, got {len(corpus)} bytes"
        )
    tokens = tokenize(corpus)
    model = init_model(config, seed)
    rng = np.random.default_rng(seed + 1)

    m_state = {k: np.zeros_like(v) for k, v in model.params.items()}
    v_state = {k: np.zeros_like(v) for k, v in model.params.items()}
    history = {"loss": []}
    ctx = config.context_length
    for step in range(1, train.steps + 1):
        offsets = rng.integers(0, tokens.shape[0] - ctx, size=train.batch_size)
        total_loss = 0.0
        grad_sum: dict[str, np.ndarray] = {
            k: np.zeros_like(v) for k, v in model.params.items()
        }
        for off in offsets:
            ids = tokens[off : off + ctx]
            _, cache = lm_forward(model, ids)
            total_loss += _mean_ce_from_logits(cache["logits"][:-1], ids[1:])
            for k, g in lm_backward(model, cache).items():
                grad_sum[k] += g
        inv_b = 1.0 / train.batch_size
        gnorm = np.sqrt(
            sum(float(np.sum((g * inv_b) ** 2)) for g in grad_sum.values())
        )
        clip = min(1.0, train.grad_clip / max(gnorm, 1e-12))
        for k in model.params:
            g = grad_sum[k] * inv_b * clip
            m_state[k] = train.adam_beta1 * m_state[k] + (1 - train.adam_beta1) * g
            v_state[k] = train.adam_beta2 * v_state[k] + (1 - train.adam_beta2) * (
                g * g
            )
            m_hat = m_state[k] / (1 - train.adam_beta1**step)
            v_hat = v_state[k] / (1 - train.adam_beta2**step)
            model.params[k] -= (
                train.learning_rate * m_hat / (np.sqrt(v_hat) + train.adam_eps)
            )
        history["loss"].append(total_loss * inv_b)
    history["final_loss"] = history["loss"][-1] if history["loss"] else None
    return model, history


def save_checkpoint(model: TinyLM, path) -> None:
    """Archive of all parameters, stored as float32, plus a JSON sidecar."""
    tensors = {
        f"param/{k}": np.asarray(v, dtype=np.float32)
        for k, v in sorted(model.params.items())
    }
    archive_write(path, tensors)
    sidecar = {"architecture": asdict(model.config), "params": sorted(model.params)}
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


def load_checkpoint(path) -> TinyLM:
    with open(str(path) + ".json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    config = ModelConfig(**sidecar["architecture"])
    tensors = archive_read(path)
    params: dict[str, np.ndarray] = {}
    for name in sidecar["params"]:
        key = f"param/{name}"
        if key not in tensors:
            raise ArchitectureMismatch(f"checkpoint is missing tensor {key!r}")
        params[name] = tensors[key].astype(np.float64)
    for name, shape in _param_shapes(config).items():
        if name not in params:
            raise ArchitectureMismatch(f"sidecar is missing layer {name!r}")
        if params[name].shape != shape:
            raise ArchitectureMismatch(
                f"{name}: checkpoint shape {params[name].shape} != {shape}"
            )
    return TinyLM(config, params)

