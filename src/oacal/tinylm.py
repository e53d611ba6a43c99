"""Byte-level toy transformer with hand-written backpropagation.

The model is deliberately small (vocab 128, d_model 64, two pre-norm blocks
of single-head attention plus a tanh MLP) so that exact per-window gradients
are cheap: they feed the adaptive Hessian accumulators, and every derivative
is checked against finite differences in the tests. Both Hessian collectors
read every block layer from whole-model passes of the model as given: the
agnostic one folds each block's layer inputs right after the block's
forward, the adaptive harvest each block's factor pairs as one backward
reaches the block. Each drops a block's cache once it is folded, and the
harvest's backward stops after block 0's pairs.

Training and the harvest run in float64. The agnostic collector runs its
forwards in the parameters' dtype, float32 in the pipeline, and sums the
inputs' outer products in float64. Eval (`perplexity`) runs its forwards in
float32, on the parameters' float32 values, which is all a checkpoint
stores; each window's loss and their sum stay float64.

Every model function takes a stack of windows: token ids (B, T) and
activations (B, T, d). `lm_backward` returns each linear layer's gradient
factors, input X (B, T, d_in) and output gradient dY (B, T, d_out), not its
weight gradient dY^T X: training forms those and sums them over axis 0, and
the adaptive harvest folds each window's G^T G, in window order, from the
pairs the same per-block backward (`_block_backward`) yields, so all sums
equal a one-window loop bit for bit. Activations are row
vectors; a linear layer with weight W (d_out x d_in) computes x @ W.T, so
W's columns line up with the layer's input dimension.

Eval, the harvest and the agnostic collector run CHUNK_ROWS token rows at a
time: 2 windows of the toy's 64 positions, 1 of the M shape's 128. Peak RSS
(one BLAS thread) after the toy OAC_OPTQ harvest of 128 windows is
64/67/70/76 MiB at 64/128/256/512 rows; at 256 rows the toy alpha sweep's
peak rose 3% (67.8 to 70.1 MiB) and its CPU time did not fall (medians of
four alternated runs: 1.86 s at 128 rows, 1.95 s at 256).
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, asdict

import numpy as np

from .archive import archive_read, archive_write
from .errors import (
    ArchitectureMismatch,
    ConfigError,
    CorpusTooSmall,
    DimMismatch,
    MalformedArchive,
    NonFinite,
    TokenOutOfRange,
)
from .hessian import (
    HessianAccumulator,
    HessianMode,
    accumulate_adaptive,
    accumulate_agnostic_batch,
)

RMS_EPS = 1e-6
CHUNK_ROWS = 128  # token rows per stacked forward/backward; see the module docstring
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # train_tiny_lm's optimizer
GRAD_CLIP = 1.0  # bound on the global gradient norm of a training step

__all__ = [
    "ModelConfig",
    "TrainConfig",
    "TinyLM",
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
    steps: int = 1300  # the committed toy checkpoint's training run
    batch_size: int = 16
    learning_rate: float = 2e-3

    def __post_init__(self):
        for name in ("steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class TinyLM:
    config: ModelConfig
    params: dict[str, np.ndarray]


def tokenize(data: bytes) -> np.ndarray:
    """Byte mapping to the 128-token vocabulary."""
    return (np.frombuffer(data, dtype=np.uint8) % 128).astype(np.int64)


# each linear layer of a block, in order, and the cached activation it reads
_LAYER_INPUTS = {
    "attn.wq": "attn_in", "attn.wk": "attn_in", "attn.wv": "attn_in",
    "attn.wo": "attn_mix", "mlp.fc1": "mlp_in", "mlp.fc2": "mlp_act",
}


def block_layer_names(block: int) -> list[str]:
    return [f"blk{block}.{layer}" for layer in _LAYER_INPUTS]


def layer_input_name_map(block: int) -> dict[str, str]:
    """Which cached activation feeds each linear layer of a block."""
    return {f"blk{block}.{layer}": source for layer, source in _LAYER_INPUTS.items()}


def quantizable_layers(model: TinyLM) -> list[str]:
    return [name for b in range(model.config.n_blocks) for name in block_layer_names(b)]


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


@functools.lru_cache(maxsize=None)
def _causal_mask(t: int, dtype: np.dtype) -> np.ndarray:
    """Additive (t, t) attention mask: -inf above the diagonal, 0 elsewhere."""
    mask = np.triu(np.full((t, t), -np.inf, dtype=dtype), k=1)
    mask.setflags(write=False)
    return mask


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


def block_forward(model: TinyLM, block: int, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """One pre-norm block on residual-stream rows x (B, T, d): its output and backward cache.

    Every activation keeps x's dtype: under NumPy 2's scalar rules a float64
    scale or mask would promote a float32 forward to float64.
    """
    p = model.params
    base = f"blk{block}"
    t = x.shape[1]
    scale = x.dtype.type(1.0 / np.sqrt(model.config.d_model))
    a, ra = _rms_norm(x)
    q = a @ p[f"{base}.attn.wq"].T
    k = a @ p[f"{base}.attn.wk"].T
    v = a @ p[f"{base}.attn.wv"].T
    att = _softmax(q @ k.swapaxes(1, 2) * scale + _causal_mask(t, x.dtype))
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


def lm_forward(model: TinyLM, ids) -> tuple[np.ndarray, dict]:
    """Next-token probabilities (B, T, vocab) of (B, T) ids plus the backward cache."""
    ids = _check_ids(model, ids)
    x, blocks = embed_windows(model, ids), {}
    for b in range(model.config.n_blocks):
        x, blocks[b] = block_forward(model, b, x)
    probs, cache = _head_forward(model, x)
    cache.update(ids=ids, blocks=blocks)
    return probs, cache


def lm_forward_loss(model: TinyLM, ids) -> tuple[np.ndarray, dict]:
    """Each window's mean next-token cross-entropy, shape (B,), and the forward's cache.

    The mean is taken in float64 whatever the model's dtype.
    """
    _, cache = lm_forward(model, ids)
    z = cache["logits"][:, :-1]
    z = z - z.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(logp, cache["ids"][:, 1:, None], axis=-1)[..., 0]
    return -np.mean(picked, axis=-1, dtype=np.float64), cache


def lm_backward(model: TinyLM, cache: dict) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Gradient factors of each window's mean cross-entropy from `lm_forward`'s cache.

    Each linear layer maps to (X, dY), its cached input (B, T, d_in) and its
    output gradient (B, T, d_out); window i's weight gradient is dY[i].T @ X[i].
    "embed" maps to the ids (B, T) and the embedded rows' gradient (B, T, d).
    Backpropagation always runs from the head through every block.
    """
    dlogits, dx = _head_backward(model, cache)
    factors = {"head": (cache["final_norm"], dlogits)}
    for b in reversed(cache["blocks"]):
        blk = cache["blocks"][b]
        pairs = _block_backward(model, b, blk, dx)
        factors.update(pairs)
        dx = _block_input_grad(model, b, blk, pairs)
    factors["embed"] = (cache["ids"], dx)
    return factors


def _head_backward(model: TinyLM, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """The logits' gradient and the gradient of the last block's output."""
    ids = cache["ids"]
    n, t = ids.shape
    n_pred = t - 1
    dlogits = cache["probs"].copy()
    dlogits[np.arange(n)[:, None], np.arange(n_pred), ids[:, 1:]] -= 1.0
    dlogits[:, :n_pred] /= n_pred
    dlogits[:, n_pred:] = 0.0
    dx = _rms_backward(dlogits @ model.params["head"], cache["final_in"], cache["r_final"])
    return dlogits, dx


def _block_backward(model: TinyLM, block: int, blk: dict, dx: np.ndarray) -> dict:
    """Factor pairs (X, dY) of a block's six layers, in `_LAYER_INPUTS` order,
    from its cache and the gradient dx of its output."""
    p = model.params
    base = f"blk{block}"
    scale = 1.0 / np.sqrt(model.config.d_model)

    # MLP half: x_out = x_mid + tanh(m_in @ W1.T) @ W2.T
    dh_act = dx @ p[f"{base}.mlp.fc2"]
    dh_pre = dh_act * (1.0 - blk["mlp_act"] ** 2)
    dm_in = dh_pre @ p[f"{base}.mlp.fc1"]
    dx_mid = dx + _rms_backward(dm_in, blk["x_mid"], blk["r_mlp"])

    # attention half: x_mid = x_in + (att @ v) @ Wo.T
    dmix = dx_mid @ p[f"{base}.attn.wo"]
    datt = dmix @ blk["v"].swapaxes(1, 2)
    dv = blk["att"].swapaxes(1, 2) @ dmix
    att = blk["att"]
    dlogit_att = att * (datt - np.sum(datt * att, axis=-1, keepdims=True))
    dq = dlogit_att @ blk["k"] * scale
    dk = dlogit_att.swapaxes(1, 2) @ blk["q"] * scale
    return {
        f"{base}.{layer}": (blk[source], dy)
        for (layer, source), dy in zip(_LAYER_INPUTS.items(), (dq, dk, dv, dx_mid, dh_pre, dx))
    }


def _block_input_grad(model: TinyLM, block: int, blk: dict, pairs: dict) -> np.ndarray:
    """The gradient of a block's input, from its cache and `_block_backward`'s pairs."""
    p = model.params
    base = f"blk{block}"
    dq, dk, dv, dx_mid = (pairs[f"{base}.attn.{w}"][1] for w in ("wq", "wk", "wv", "wo"))
    da = dq @ p[f"{base}.attn.wq"] + dk @ p[f"{base}.attn.wk"] + dv @ p[f"{base}.attn.wv"]
    return dx_mid + _rms_backward(da, blk["x_in"], blk["r_attn"])


def _chunks(n_windows: int, t: int):
    """Consecutive window slices of at most CHUNK_ROWS token rows (at least one window)."""
    step = max(1, CHUNK_ROWS // t)
    return [slice(i, i + step) for i in range(0, n_windows, step)]


def _check_ids(model: TinyLM, windows) -> np.ndarray:
    """(N, T) token ids of 1+ windows that the model can take."""
    cfg = model.config
    ids = np.asarray(windows, dtype=np.int64)
    ctx = cfg.context_length
    # a next-token loss needs two positions
    if ids.ndim != 2 or ids.shape[0] < 1 or not 2 <= ids.shape[1] <= ctx:
        raise DimMismatch(f"need 1+ windows of 2..{ctx} token ids, got shape {ids.shape}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise TokenOutOfRange(f"token ids must lie in [0, {cfg.vocab_size})")
    return ids


def embed_windows(model: TinyLM, ids: np.ndarray) -> np.ndarray:
    """Block 0's residual-stream input (N, T, d) for checked (N, T) token ids."""
    xs = model.params["embed"][ids]
    xs += _positions(model.config.context_length, model.config.d_model)[: ids.shape[1]]
    return xs


def harvest_block_gradients(model: TinyLM, windows) -> dict[str, HessianAccumulator]:
    """Adaptive Hessian accumulators for every block layer, in one pass.

    Each chunk of (N, T) token-id windows runs one `lm_forward` of `model` as
    given and backpropagates from the head, one block at a time, last block
    first. As soon as a block's factor pairs exist, every window adds its
    own G^T G to each of the block's layer accumulators, in window order,
    and the block's forward cache is dropped. The backward stops after
    block 0's pairs: the gradient of block 0's input is never formed. The
    pipeline passes the unquantized checkpoint, so no layer's Hessian sees
    the quantization of the blocks before it.
    """
    ids = _check_ids(model, windows)
    accs = {
        name: HessianAccumulator(model.params[name].shape[1], HessianMode.ADAPTIVE)
        for name in quantizable_layers(model)
    }
    for rows in _chunks(*ids.shape):
        cache = lm_forward(model, ids[rows])[1]
        blocks = cache.pop("blocks")
        dx = _head_backward(model, cache)[1]
        del cache
        for b in reversed(range(model.config.n_blocks)):
            blk = blocks.pop(b)
            pairs = _block_backward(model, b, blk, dx)
            for name, (xs, dys) in pairs.items():
                for x_i, dy_i in zip(xs, dys):
                    accumulate_adaptive(accs[name], x_i, dy_i)
            if b:
                dx = _block_input_grad(model, b, blk, pairs)
            del blk, pairs  # they hold this block's cache
    return accs


def collect_agnostic_accumulators(model: TinyLM, windows) -> dict[str, HessianAccumulator]:
    """Input-outer-product accumulators for every block layer, in one pass.

    Each chunk of (N, T) token-id windows runs the embedding and every block
    of `model` as given, but not the head, in the parameters' dtype: the
    pipeline passes the checkpoint's float32 values. Right after a block's
    forward, every position of each of its layers' cached inputs adds one
    x x^T, one window at a time in window order, and the block's cache is
    dropped; the rows are widened to float64 and summed in float64. The
    layers of a block that read the same input share one accumulator.
    """
    ids = _check_ids(model, windows)
    by_block = [{} for _ in range(model.config.n_blocks)]
    accs = {}
    for b, by_input in enumerate(by_block):
        for name, source in layer_input_name_map(b).items():
            if source not in by_input:
                by_input[source] = HessianAccumulator(
                    model.params[name].shape[1], HessianMode.AGNOSTIC
                )
            accs[name] = by_input[source]
    for rows in _chunks(*ids.shape):
        x = embed_windows(model, ids[rows])
        for b, by_input in enumerate(by_block):
            x, blk = block_forward(model, b, x)
            for source, acc in by_input.items():
                for x_i in blk[source]:
                    accumulate_agnostic_batch(acc, x_i)
            del blk
    return accs


def perplexity(model: TinyLM, tokens) -> float:
    """exp(mean next-token cross-entropy) over non-overlapping windows.

    The forwards run in float32, on the parameters' float32 values, which
    round them as `save_checkpoint` does: float32 parameters are read as
    they are, wider ones are copied once per call. Each window's loss and
    their running sum are float64. Raises NonFinite when a window's loss is
    not finite, as when the float32 forward overflows.
    """
    cfg = model.config
    ctx = cfg.context_length
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] <= ctx:
        raise DimMismatch("need a 1-D eval token stream longer than one context window")
    windows = ids[: ids.shape[0] // ctx * ctx].reshape(-1, ctx)
    f32 = TinyLM(cfg, {k: v.astype(np.float32, copy=False) for k, v in model.params.items()})
    losses = np.concatenate(
        [lm_forward_loss(f32, windows[rows])[0] for rows in _chunks(*windows.shape)]
    )
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        raise NonFinite(
            f"eval loss of window {bad[0]} of {losses.shape[0]} is {losses[bad[0]]}"
        )
    # a running sum keeps the one-window-at-a-time summation order
    total = np.cumsum(losses * (ctx - 1))[-1]
    return float(np.exp(total / (losses.shape[0] * (ctx - 1))))


def sample_calibration_windows(
    tokens, n_samples: int, context_length: int, rng
) -> np.ndarray:
    """(n_samples, T) token-id windows at random offsets, in ascending offset order."""
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.shape[0] < context_length + 1:
        raise CorpusTooSmall("not enough tokens for one calibration window")
    offsets = rng.integers(0, ids.shape[0] - context_length, size=n_samples)
    return ids[np.sort(offsets)[:, None] + np.arange(context_length)]


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
        losses, cache = lm_forward_loss(model, tokens[offsets[:, None] + np.arange(ctx)])
        factors = lm_backward(model, cache)
        ids, dx = factors.pop("embed")
        grads = {k: dy.swapaxes(1, 2) @ x for k, (x, dy) in factors.items()}
        grads["embed"] = np.zeros((train.batch_size, *model.params["embed"].shape))
        np.add.at(grads["embed"], (np.arange(train.batch_size)[:, None], ids), dx)
        grad_sum = {k: grads[k].sum(axis=0) for k in model.params}
        inv_b = 1.0 / train.batch_size
        gnorm = np.sqrt(
            sum(float(np.sum((g * inv_b) ** 2)) for g in grad_sum.values())
        )
        clip = min(1.0, GRAD_CLIP / max(gnorm, 1e-12))
        for k in model.params:
            g = grad_sum[k] * inv_b * clip
            m_state[k] = ADAM_BETA1 * m_state[k] + (1 - ADAM_BETA1) * g
            v_state[k] = ADAM_BETA2 * v_state[k] + (1 - ADAM_BETA2) * (g * g)
            m_hat = m_state[k] / (1 - ADAM_BETA1**step)
            v_hat = v_state[k] / (1 - ADAM_BETA2**step)
            model.params[k] -= train.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        # a running sum adds the windows' losses in batch order
        history["loss"].append(float(np.cumsum(losses)[-1] * inv_b))
    history["final_loss"] = history["loss"][-1]
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
    try:
        with open(str(path) + ".json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        config = ModelConfig(**sidecar["architecture"])
        if not all(type(v) is int and v > 0 for v in asdict(config).values()):
            raise MalformedArchive(f"checkpoint sidecar {path}.json: bad sizes {config}")
        names = list(sidecar["params"])
    except (ValueError, TypeError, KeyError) as exc:  # not JSON, bad or missing keys
        raise MalformedArchive(f"checkpoint sidecar {path}.json: {exc!r}") from exc
    tensors = archive_read(path)
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(config).items():
        if name not in names or f"param/{name}" not in tensors:
            raise ArchitectureMismatch(f"checkpoint is missing layer {name!r}")
        params[name] = tensors[f"param/{name}"].astype(np.float64)
        if params[name].shape != shape:
            raise ArchitectureMismatch(
                f"{name}: checkpoint shape {params[name].shape} != {shape}"
            )
    return TinyLM(config, params)

