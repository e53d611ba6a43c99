"""Byte-level toy transformer with hand-written backpropagation.

The model is deliberately small (vocab 128, d_model 64, two pre-norm blocks
of single-head attention plus a tanh MLP) so that exact per-window gradients
are cheap: they feed the adaptive Hessian accumulators, and every derivative
is checked against finite differences in the tests.

Training runs in float64, the Hessian walk in the parameters' dtype and
every Hessian sum in float64. Eval (`perplexity`) runs its forwards in
float32, on the parameters' float32 values, which is all a checkpoint
stores; each window's loss and their sum stay float64.

Every model function takes a stack of windows: token ids (B, T) and
activations (B, T, d). One walk over the blocks serves every caller:
`lm_forward` runs them front to back, handing a fold each block's cache,
and `lm_backward` runs the head and the blocks back to front, handing a
fold each linear layer's factors, its input X (B, T, d_in) and output
gradient dY (B, T, d_out). Training sums dY^T X over axis 0, eval folds
nothing, and the Hessian collectors fold window by window through
`collect`, so all sums equal a one-window loop bit for bit. Activations
are row vectors; a linear layer with weight W (d_out x d_in) computes
x @ W.T, so W's columns line up with the layer's input dimension.

Each linear layer multiplies all of a stack's token rows in one GEMM
(`_rows`); NumPy would multiply a (B, T, d) stack one window at a time.
Attention products stay batched per window. A pass that backpropagates
holds every block's cache, so it takes CHUNK_ROWS token rows at a time: 2
windows of the toy's 64 positions, 1 of the M shape's 128. A forward-only
pass (eval, the agnostic walk) holds one block's activations at a time, so
it takes n_blocks times as many rows: 4 windows at the toy and at M. Peak
RSS (one BLAS thread) after a 128-window harvest and then an eval of the
valid stream is 63.4/64.7/67.8/72.9 MiB on the toy and 146/146/164/199 MiB
at M for CHUNK_ROWS = 64/128/256/512; the harvest sets the peak and the
eval, at n_blocks times the rows, does not raise it.
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
    accumulate_adaptive,
    accumulate_agnostic_batch,
)

RMS_EPS = 1e-6
CHUNK_ROWS = 128  # token rows per chunk of a backward pass; see the module docstring
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # train_tiny_lm's optimizer
GRAD_CLIP = 1.0  # bound on the global gradient norm of a training step

__all__ = [
    "ModelConfig",
    "TrainConfig",
    "TinyLM",
    "tokenize",
    "split_corpus",
    "init_model",
    "block_layer_names",
    "quantizable_layers",
    "layer_input_name_map",
    "block_forward",
    "lm_forward",
    "lm_backward",
    "embed_windows",
    "collect",
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


def split_corpus(data: bytes, part: str) -> bytes:
    """One part of the deterministic 80/10/10 byte split of a corpus file:
    "train" [0, 80%), "valid" [80%, 90%) or "test" [90%, 100%]."""
    start, end = {"train": (0.0, 0.8), "valid": (0.8, 0.9), "test": (0.9, 1.0)}[part]
    return data[int(start * len(data)) : int(end * len(data))]


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
    """Softmax over the last axis, computed in z, which the caller gives up."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _rows(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x (..., n) @ w (n, m) as one GEMM over all of x's rows, shaped (..., m).

    NumPy multiplies a (B, T, n) stack one window at a time; one (B*T, n)
    GEMM gives every row the same bits, faster.
    """
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])


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
    q = _rows(a, p[f"{base}.attn.wq"].T)
    k = _rows(a, p[f"{base}.attn.wk"].T)
    v = _rows(a, p[f"{base}.attn.wv"].T)
    logits = q @ k.swapaxes(1, 2)
    logits *= scale
    logits += _causal_mask(t, x.dtype)
    att = _softmax(logits)
    mix = att @ v
    x_mid = _rows(mix, p[f"{base}.attn.wo"].T)
    x_mid += x
    m_in, rm = _rms_norm(x_mid)
    h_act = _rows(m_in, p[f"{base}.mlp.fc1"].T)
    np.tanh(h_act, out=h_act)
    x_out = _rows(h_act, p[f"{base}.mlp.fc2"].T)
    x_out += x_mid
    return x_out, dict(
        x_in=x, attn_in=a, r_attn=ra, q=q, k=k, v=v, att=att, attn_mix=mix,
        x_mid=x_mid, mlp_in=m_in, r_mlp=rm, mlp_act=h_act,
    )


def _logits(model: TinyLM, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The final norm of the last block's output, its scale and the logits."""
    f, rf = _rms_norm(x)
    return f, rf, _rows(f, model.params["head"].T)


def _window_losses(logits: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Each window's mean next-token cross-entropy (B,) from its logits
    (B, T, vocab) and ids (B, T), through a log-softmax; the mean is float64."""
    z = logits[:, :-1]
    z = z - z.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(z, ids[:, 1:, None], axis=-1)[..., 0]
    return -np.mean(picked, axis=-1, dtype=np.float64)


def _head(model: TinyLM, x: np.ndarray, ids: np.ndarray):
    """Each window's loss, the head's factor pair (F, dlogits) and the
    gradient of the last block's output x, for the windows' (B, T) ids."""
    f, rf, dlogits = _logits(model, x)
    losses = _window_losses(dlogits, ids)
    _softmax(dlogits)
    n, t = ids.shape
    n_pred = t - 1
    dlogits[np.arange(n)[:, None], np.arange(n_pred), ids[:, 1:]] -= 1.0
    dlogits[:, :n_pred] /= n_pred
    dlogits[:, n_pred:] = 0.0
    dx = _rms_backward(_rows(dlogits, model.params["head"]), x, rf)
    return losses, (f, dlogits), dx


def lm_forward(model: TinyLM, ids: np.ndarray, fold=None) -> np.ndarray:
    """The last block's output (B, T, d) for checked (B, T) token ids, run
    through every block front to back in the parameters' dtype.

    `fold(block, cache)`, if given, follows each block's forward with its
    `block_forward` cache, which is dropped once the fold returns unless
    the fold keeps it, as a backward caller's does.
    """
    x = embed_windows(model, ids)
    for b in range(model.config.n_blocks):
        x, blk = block_forward(model, b, x)
        if fold is not None:
            fold(b, blk)
        del blk
    return x


def lm_backward(model: TinyLM, x, caches: list, ids, fold, ends: bool = False) -> np.ndarray:
    """Each window's mean next-token cross-entropy (B,), float64,
    backpropagated from the last block's output x.

    `caches` holds every block's cache in block order, as `lm_forward`
    handed them to its fold, and `ids` the (B, T) ids it embedded. After
    the head, `fold(block, pairs)` follows each block's backward, back to
    front, `pairs` mapping its layers, in `_LAYER_INPUTS` order, to (X, dY);
    window i's weight gradient is dY[i].T @ X[i]. Each cache is popped once
    its fold returns. The walk stops after block 0's fold, never forming
    block 0's input gradient, unless `ends`: then
    `fold(None, {"head": (F, dlogits)})` comes first, F being the final
    norm's output, and `fold(None, {"embed": (ids, dE)})` last, dE (B, T, d)
    being the embedded rows' gradient.
    """
    losses, head, dx = _head(model, x, ids)
    if ends:
        fold(None, {"head": head})
    del head
    for b in reversed(range(len(caches))):
        blk = caches.pop()
        pairs = _block_backward(model, b, blk, dx)
        fold(b, pairs)
        if b or ends:
            dx = _block_input_grad(model, b, blk, pairs)
        del blk, pairs  # they hold this block's cache
    if ends:
        fold(None, {"embed": (ids, dx)})
    return losses


def _block_backward(model: TinyLM, block: int, blk: dict, dx: np.ndarray) -> dict:
    """Factor pairs (X, dY) of a block's six layers, in `_LAYER_INPUTS` order,
    from its cache and the gradient dx of its output."""
    p = model.params
    base = f"blk{block}"
    scale = dx.dtype.type(1.0 / np.sqrt(model.config.d_model))  # as in `block_forward`

    # MLP half: x_out = x_mid + tanh(m_in @ W1.T) @ W2.T
    dh_pre = _rows(dx, p[f"{base}.mlp.fc2"])
    dh_pre *= 1.0 - blk["mlp_act"] ** 2
    dm_in = _rows(dh_pre, p[f"{base}.mlp.fc1"])
    dx_mid = dx + _rms_backward(dm_in, blk["x_mid"], blk["r_mlp"])

    # attention half: x_mid = x_in + (att @ v) @ Wo.T
    dmix = _rows(dx_mid, p[f"{base}.attn.wo"])
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
    da = _rows(dq, p[f"{base}.attn.wq"])
    da += _rows(dk, p[f"{base}.attn.wk"])
    da += _rows(dv, p[f"{base}.attn.wv"])
    return dx_mid + _rms_backward(da, blk["x_in"], blk["r_attn"])


def _chunks(config: ModelConfig, n_windows: int, t: int, backward: bool):
    """Consecutive window slices (at least one window each) of at most
    CHUNK_ROWS token rows for a backward pass, which holds every block's
    cache, and n_blocks times as many for a forward-only one, which holds
    one block's activations at a time."""
    rows = CHUNK_ROWS if backward else CHUNK_ROWS * config.n_blocks
    step = max(1, rows // t)
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


def collect(model: TinyLM, windows, fold, backward: bool) -> None:
    """Walk (N, T) token-id windows through `model` as given, calling `fold`
    for each block of each chunk.

    Chunks (`_chunks`) go in order, their windows stacked in order; each is
    one `lm_forward`. Forward only, `fold(block, cache)` follows each
    block's forward. With `backward`, the forward keeps every block's cache
    and one `lm_backward` follows: `fold(block, pairs)` follows each
    block's backward, back to front, and the walk stops after block 0's,
    never forming the gradient of block 0's input.
    """
    ids = _check_ids(model, windows)
    for rows in _chunks(model.config, *ids.shape, backward):
        if not backward:
            lm_forward(model, ids[rows], fold)
            continue
        caches = []
        x = lm_forward(model, ids[rows], lambda b, blk: caches.append(blk))
        lm_backward(model, x, caches, ids[rows], fold)


def harvest_block_gradients(model: TinyLM, windows) -> dict[str, HessianAccumulator]:
    """Adaptive Hessian accumulators for every block layer: a backward
    `collect` whose fold adds each window's G^T G, in window order."""
    accs = {
        name: HessianAccumulator(model.params[name].shape[1], lower=False)
        for name in quantizable_layers(model)
    }

    def fold(block, pairs):
        for name, (xs, dys) in pairs.items():
            for x_i, dy_i in zip(xs, dys):
                accumulate_adaptive(accs[name], x_i, dy_i)

    collect(model, windows, fold, backward=True)
    return accs


def collect_agnostic_accumulators(model: TinyLM, windows) -> dict[str, HessianAccumulator]:
    """Input-outer-product accumulators for every block layer: a
    forward-only `collect`, in the parameters' dtype (the pipeline's
    float32), whose fold adds each window's rows x x^T widened to float64.
    The layers that read one input share its accumulator and fold it once
    per window. An input that is not finite raises NonFinite naming it."""
    accs, inputs = {}, [{} for _ in range(model.config.n_blocks)]
    for b, by_input in enumerate(inputs):
        for name, source in layer_input_name_map(b).items():
            if source not in by_input:  # the first layer reading it stands for all
                by_input[source] = HessianAccumulator(model.params[name].shape[1], lower=True)
            accs[name] = by_input[source]

    def fold(block, cache):
        for source, acc in inputs[block].items():
            try:
                for x_i in cache[source]:
                    accumulate_agnostic_batch(acc, x_i)
            except NonFinite as exc:
                raise NonFinite(f"block {block} input {source!r}: {exc}") from exc

    collect(model, windows, fold, backward=False)
    return accs


def perplexity(model: TinyLM, tokens) -> float:
    """exp(mean next-token cross-entropy) over non-overlapping windows.

    The forwards run in float32, on the parameters' float32 values, which
    round them as `save_checkpoint` does: float32 parameters are read as
    they are, wider ones are copied once per call. Each forward-only chunk
    (`_chunks`) is one `lm_forward` with no fold, so it keeps no cache, and
    each window's loss comes from the logits through the log-softmax that
    `lm_backward` reports, so it equals that loss bit for bit. The losses
    and their running sum are float64. Raises NonFinite when a window's
    loss is not finite, as when the float32 forward overflows.
    """
    cfg = model.config
    ctx = cfg.context_length
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] <= ctx:
        raise DimMismatch("need a 1-D eval token stream longer than one context window")
    f32 = TinyLM(cfg, {k: v.astype(np.float32, copy=False) for k, v in model.params.items()})
    windows = _check_ids(f32, ids[: ids.shape[0] // ctx * ctx].reshape(-1, ctx))
    losses = np.concatenate([
        _window_losses(_logits(f32, lm_forward(f32, windows[rows]))[2], windows[rows])
        for rows in _chunks(cfg, *windows.shape, backward=False)
    ])
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
    """Adam training on random corpus windows; bit-deterministic per seed.
    Each step is one walk over the whole batch; its gradients are formed after
    the walk returns (formed in its fold, they tripled a run's page faults)."""
    if len(corpus) < 64 * 1024:
        raise CorpusTooSmall(
            f"train part (first 80% of --corpus) must be at least 64 KiB, got {len(corpus)} bytes"
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
        ids = _check_ids(model, tokens[offsets[:, None] + np.arange(ctx)])
        caches, factors = [], {}
        out = lm_forward(model, ids, lambda b, blk: caches.append(blk))
        losses = lm_backward(model, out, caches, ids, lambda b, p: factors.update(p), ends=True)
        dx = factors.pop("embed")[1]
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


def load_checkpoint(path, dtype=np.float64) -> TinyLM:
    """The checkpointed model, its stored float32 parameters as `dtype`. A
    sidecar listing other than its n_blocks' parameter count is an
    ArchitectureMismatch before any parameter shape is listed."""
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
    if len(names) != 2 + len(_LAYER_INPUTS) * config.n_blocks:
        raise ArchitectureMismatch(f"sidecar lists {len(names)} names for {config.n_blocks} blocks")
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(config).items():
        if name not in names or f"param/{name}" not in tensors:
            raise ArchitectureMismatch(f"checkpoint is missing layer {name!r}")
        params[name] = tensors[f"param/{name}"].astype(dtype, copy=False)
        if params[name].shape != shape:
            raise ArchitectureMismatch(
                f"{name}: checkpoint shape {params[name].shape} != {shape}"
            )
    return TinyLM(config, params)

