"""References for the column sweep: its row-major form with its codecs,
and a direct solver.

This is the sweep as `calibrate` ran it before the working copy went
column-major: a row-major working copy and dequantized matrix, a rank-1
update of a strided row-major slice with `np.outer`, two `np.linalg.norm`
calls per column, and codecs that code each group range with
`round_half_away` and `np.clip`. diag(H^-1) is a loop over U's rows. The
tests compare `calibrate`'s sweep and the layer codecs with it byte for
byte; the plans' fixed parts (outliers, salient columns, split and shared
alphas) come from the production functions that choose them.
`affine_dequantize` is the affine layer's decode as a loop over groups,
the reference for `QuantizedLayer.dequantize`'s one call.

`direct_solver_calibrate` re-solves the free columns from scratch at every
step instead of updating them, which the sweep's updates must match to
rounding.
"""
from __future__ import annotations

import numpy as np

from oacal.calibrate import BLOCK_SIZE, Backend, detect_outliers
from oacal.quant import (
    SCALE_FLOOR,
    BinaryLayer,
    QuantizedLayer,
    _f32_round_up,
    residual_binarize,
    round_half_away,
    sign_plane,
)


def inv_diag(upper):
    """diag(H^-1) as the column sums of U^2, adding U's rows in order."""
    out = np.zeros(upper.shape[1])
    for row in upper:
        out += row * row
    return out


def sweep(work, upper, block_size, codec):
    """The compensated sweep over a row-major `work`, or the plain one."""
    d_row, d_col = work.shape
    if upper is None:
        return codec(0, d_col, work), [0.0] * d_col
    w_hat = np.empty_like(work)
    update_norms = []
    for i1 in range(0, d_col, block_size):
        i2 = min(i1 + block_size, d_col)
        err_block = np.zeros((d_row, i2 - i1))
        for q in range(i1, i2):
            w_hat[:, q : q + 1] = codec(q, q + 1, work[:, q : q + 1])
            err_scaled = (work[:, q] - w_hat[:, q]) / upper[q, q]
            work[:, q:i2] -= np.outer(err_scaled, upper[q, q:i2])
            err_block[:, q - i1] = err_scaled
            tail = upper[q, q + 1 :]
            update_norms.append(float(np.linalg.norm(err_scaled) * np.linalg.norm(tail)))
        if i2 < d_col:
            work[:, i2:] -= err_block @ upper[i1:i2, i2:]
    return w_hat, update_norms


def fit_group_rows(block, bits, valid=None):
    if valid is None:
        valid = np.ones(block.shape, dtype=bool)
    kept = np.where(valid | ~valid.any(axis=1, keepdims=True), block, 0.0)
    lo = np.minimum(kept.min(axis=1), 0.0)
    hi = np.maximum(kept.max(axis=1), 0.0)
    maxq = (1 << bits) - 1
    scale = np.maximum(_f32_round_up((hi - lo) / maxq), SCALE_FLOOR)
    zero = np.clip(round_half_away(-lo / scale), 0, maxq)
    return scale, zero


def code_group(block, scale, zero, bits):
    maxq = (1 << bits) - 1
    scale, zero = scale[:, None], zero[:, None]
    codes = np.clip(round_half_away(block / scale + zero), 0, maxq).astype(np.int64)
    return codes, (codes - zero) * scale


def double_quantize_stats(scales, zeros, stat_bits, stat_group):
    def runs_of(values):
        runs = np.pad(values, (0, -values.size % stat_group), mode="edge")
        runs = runs.reshape(-1, stat_group)
        bases = runs.min(axis=1)
        shifted = runs - bases[:, None]
        steps, _ = fit_group_rows(shifted, stat_bits)
        codes, _ = code_group(shifted, steps, np.zeros_like(steps), stat_bits)
        return codes.ravel()[: values.size], steps, bases

    (s_codes, s_steps, s_bases), (z_codes, z_steps, z_bases) = runs_of(scales), runs_of(zeros)
    r = np.arange(s_codes.size) // stat_group
    dq_scales = np.maximum(s_codes * s_steps[r] + s_bases[r], SCALE_FLOOR).astype(np.float32)
    dq_zeros = (z_codes * z_steps[r] + z_bases[r]).astype(np.float32)
    stats2 = np.array([s_steps, s_bases, z_steps, z_bases])
    return s_codes, z_codes, stats2, dq_scales.astype(np.float64), dq_zeros.astype(np.float64)


def affine_code(layer, q0, q1, work, valid=None):
    """`QuantizedLayer.code`, one NumPy pass per group range."""
    gs, bits = layer.group_size, layer.bits
    for c0 in range(-(-q0 // gs) * gs, q1, gs):
        scale, zero = fit_group_rows(
            work[:, c0 : c0 + gs], bits, None if valid is None else valid[:, c0 : c0 + gs]
        )
        g = c0 // gs
        if layer.stats2 is not None:
            layer.scale_codes[g], layer.zero_codes[g], layer.stats2[g], scale, zero = (
                double_quantize_stats(scale, zero, layer.stat_bits, layer.stat_group)
            )
        layer.scales[:, g], layer.zeros[:, g] = scale, zero
    deq = np.empty((work.shape[0], q1 - q0))
    for g in range(q0 // gs, -(-q1 // gs)):
        c0, c1 = max(g * gs, q0), min(g * gs + gs, q1)
        layer.codes[:, c0:c1], deq[:, c0 - q0 : c1 - q0] = code_group(
            work[:, c0:c1], layer.scales[:, g], layer.zeros[:, g], bits
        )
    return deq


def affine_dequantize(layer):
    """`QuantizedLayer.dequantize`, one slice of a row-major output per
    group: the group's codes less its zeros, times its scales."""
    out = np.empty(layer.codes.shape)
    gs = layer.group_size
    for g, c0 in enumerate(range(0, layer.d_col, gs)):
        codes = layer.codes[:, c0 : c0 + gs]
        out[:, c0 : c0 + gs] = (codes - layer.zeros[:, g, None]) * layer.scales[:, g, None]
    out[layer.outlier_rows, layer.outlier_cols] = layer.outlier_vals
    return out


def binary_code(layer, q0, q1, cols):
    """`BinaryLayer.code`, counting the salient columns left of q0 per call."""
    sgn = sign_plane(cols)
    layer.signs1[:, q0:q1] = sgn
    threshold, low, high = layer.alphas[:3].tolist()
    above = np.abs(cols) > threshold
    deq = sgn * np.where(above, high, low)
    s0 = int(np.count_nonzero(layer.salient_cols[:q0]))
    n_picked = int(np.count_nonzero(layer.salient_cols[q0:q1]))
    if not n_picked:
        layer.membership[:, q0 - s0 : q1 - s0] = above
        return deq
    picked = np.flatnonzero(layer.salient_cols[q0:q1])
    layer.membership[:, q0 - s0 : q1 - s0 - n_picked] = np.delete(above, picked, axis=1)
    n_sal = layer.signs2.shape[1]
    for s, j in enumerate(picked, s0):
        a1, _, a2, signs2 = residual_binarize(cols[:, j])
        layer.alphas[3 + s], layer.alphas[3 + n_sal + s] = a1, a2
        layer.signs2[:, s] = signs2
        deq[:, j] = a1 * sgn[:, j] + a2 * signs2
    return deq


def affine_quantize(m, inv_diag_, spec, upper):
    """An OPTQ or SPQR layer from the reference sweep and codec: the layer,
    the dequantized matrix and the update norms."""
    d_row, d_col = m.shape
    spqr = spec.backend is Backend.SPQR
    outlier_mask = np.zeros(m.shape, dtype=bool)
    if spqr:
        naive = _row_major(QuantizedLayer.empty(d_row, d_col, spec.bits, spec.group_size))
        affine_code(naive, 0, d_col, m)
        outlier_mask = detect_outliers(m, naive.dequantize(), inv_diag_, spec)
    rows, cols = np.argwhere(outlier_mask).T
    outliers = (rows, cols, m[rows, cols])
    valid = ~outlier_mask
    stats = (spec.stat_bits, spec.stat_group) if spqr else (None, None)
    work = m.copy()
    layer = _row_major(
        QuantizedLayer.empty(d_row, d_col, spec.bits, spec.group_size, outliers, *stats)
    )

    def codec(q0, q1, cols):
        deq = affine_code(layer, q0, q1, work, valid)
        return np.where(outlier_mask[:, q0:q1], m[:, q0:q1], deq)

    return layer, *sweep(work, upper, BLOCK_SIZE, codec)


def binary_quantize(m, plan_layer, upper):
    """A BINARY layer with `plan_layer`'s salient columns, split and shared
    alphas, from the reference sweep and codec."""
    threshold, low, high = plan_layer.alphas[:3].tolist()
    layer = _row_major(BinaryLayer.empty(m.shape[0], plan_layer.salient_cols, threshold, low, high))
    return layer, *sweep(m.copy(), upper, BLOCK_SIZE, lambda q0, q1, c: binary_code(layer, q0, q1, c))


def _row_major(layer):
    """`layer` with its arrays row-major, as layers were held before."""
    for name, value in list(vars(layer).items()):
        if isinstance(value, np.ndarray):
            setattr(layer, name, np.ascontiguousarray(value))
    return layer


def direct_solver_calibrate(w, h, bits: int, group_size: int):
    """Reference for the column sweep: a direct constrained solve at every step.

    At step q the columns < q are pinned at their quantized values and the
    free columns re-solve tr(dW H dW^T) from scratch; column q is coded from
    the resulting working weights by the production affine codec
    (`QuantizedLayer.code`), which fits a group's statistics when q starts
    it. Returns the quantized matrix and, per step, the working matrix with
    the quantized columns so far.
    """
    d_col = w.shape[1]
    layer = QuantizedLayer.empty(*w.shape, bits, group_size)
    w_hat = np.empty_like(w)
    states = []
    for q in range(d_col):
        work = w.copy()
        if q:
            delta_c = w_hat[:, :q] - w[:, :q]
            work[:, :q] = w_hat[:, :q]
            work[:, q:] += np.linalg.solve(h[q:, q:], -h[q:, :q] @ delta_c.T).T
        w_hat[:, q : q + 1] = layer.code(q, q + 1, work)
        states.append((work.copy(), w_hat[:, : q + 1].copy()))
    return w_hat, states
