"""The toy LM's whole-model forward and backward written out straight: the
reference that `tinylm.lm_forward`, `tinylm.lm_backward` and everything
built on them are tested against.

It keeps every block's cache and forms every parameter's factors at once,
the head's and the embedding's included. It shares the walk's per-block
steps (`block_forward`, `_head`, `_block_backward`, `_block_input_grad`)
but none of its loops or folds.
"""
import numpy as np

import oacal.tinylm as tinylm


def forward(model, ids):
    """Every block's cache, in block order, and the last block's output."""
    ids = tinylm._check_ids(model, ids)
    x, caches = tinylm.embed_windows(model, ids), []
    for b in range(model.config.n_blocks):
        x, blk = tinylm.block_forward(model, b, x)
        caches.append(blk)
    return caches, x


def window_losses(model, ids):
    """Each window's mean next-token cross-entropy (B,), in float64."""
    logits = tinylm._logits(model, forward(model, ids)[1])[2]
    return tinylm._window_losses(logits, np.asarray(ids))


def factors(model, ids):
    """Gradient factors of each window's mean cross-entropy, per parameter:
    (X, dY) for every linear layer, the head's included, and for "embed"
    the ids with the embedded rows' gradient (B, T, d)."""
    ids = tinylm._check_ids(model, ids)
    caches, x = forward(model, ids)
    _, head, dx = tinylm._head(model, x, ids)
    out = {"head": head}
    for b in reversed(range(model.config.n_blocks)):
        pairs = tinylm._block_backward(model, b, caches[b], dx)
        out.update(pairs)
        dx = tinylm._block_input_grad(model, b, caches[b], pairs)
    out["embed"] = (ids, dx)
    return out
