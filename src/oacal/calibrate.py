"""Hessian-driven layer calibration.

`calibrate_layer` is the one entry point for all four backends: RTN (group
round-to-nearest, no Hessian), OPTQ, SpQR and BINARY. OAC changes only the
Hessian a backend receives, never the backend.

Every Hessian backend takes one path: the damped Hessian is factorized once,
the backend's plan chooses what does not depend on compensation (SpQR's
outliers, the binary salient columns, split and alphas, and so the bit
account), and one column sweep (`_sweep`) codes through the layer kind's own
codec, `QuantizedLayer.code` or `BinaryLayer.code`, which RTN also calls
(see `quant`). Quantizing column q forces a residual delta on that
column; the unquantized columns to the right absorb the compensation

    update_q = -(residual / inv_qq) * inv_q_row

evaluated on the inverse of the Hessian restricted to the still-active
columns. The trailing-submatrix inverses are read off the upper Cholesky
factor U of the full damped inverse, and diag(H^-1) (for saliency) is the
column sums of U^2. Updates are batched per block: columns inside the
current block are compensated immediately, everything to the right receives
the accumulated block update when the block closes.

The sweep's working copy, the layer's codes and statistics and a binary
layer's planes are column-major, so a column step touches contiguous
memory only: the codec's one-column call (a few ufuncs on the column and
its group's statistics), the residual scaled by U[q, q], and the rank-1
update of the block's later columns, which are rows of the working copy's
transpose. The block's rows of U are copied once; its update norms are one
vectorized product at the block's end. Every result is the row-major
sweep's bit for bit (`tests/sweep_reference.py`).

One guard rule covers every Hessian backend: the same codec, swept without
compensation, replaces the compensated result when its damped proxy error is
lower. Both sweeps share the plan, so a fallback keeps the layer's outliers,
statistics and bit budget. A codec codes a range of columns: the
compensated sweep hands it one column at a time, the plain sweep, whose
columns are independent, all of them in one call.

Each layer's report is one flat dict (`_report`), whose keys
`pipeline.LAYER_FIELDS` lists with the three the pipeline adds; it times
the factorization, the plan, the compensated sweep and the guard
(`STAGES`).
"""
from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonPositiveDiagonal, ShapeMismatch
from .hessian import regularize
from .linalg import as_matrix, inverse_upper_factor
from .quant import (
    BinaryLayer,
    QuantizedLayer,
    bit_account,
    rtn_quantize,
    sign_plane,
    splitting_search,
)

__all__ = [
    "Backend",
    "CalibSpec",
    "saliency",
    "detect_outliers",
    "calibrate_layer",
    "calibrate_layer_binary",
]

BLOCK_SIZE = 32  # columns per compensation block of the sweep

# The stages of a layer's calibration, timed in its report: `_prepare`, the
# plan, the compensated sweep with its proxy error, and the guard's plain
# sweep with its. RTN's one codec call is its sweep.
STAGES = ("factorization", "plan", "sweep", "guard")


class Backend(enum.Enum):
    RTN = "rtn"
    OPTQ = "optq"
    SPQR = "spqr"
    BINARY = "binary"


@dataclass(frozen=True)
class CalibSpec:
    """Per-layer calibration configuration; `pipeline.RunConfig` takes its
    defaults from here."""

    bits: int = 2
    group_size: int = 16
    tau: float = 3.5
    alpha: float = 0.1
    backend: Backend = Backend.OPTQ
    stat_bits: int = 3
    stat_group: int = 16
    salient_fraction: float = 0.08

    def __post_init__(self):
        if not 1 <= self.bits <= 8:
            raise ConfigError(f"bits must be in [1, 8], got {self.bits}")
        if self.group_size < 1:
            raise ConfigError(f"group_size must be >= 1, got {self.group_size}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not math.isfinite(self.tau):  # report.json must stay valid JSON
            raise ConfigError(f"tau must be finite, got {self.tau}")
        if self.backend is Backend.SPQR and self.tau <= 0.0:
            raise ConfigError("tau must be > 0 for the outlier-isolating backend")
        if not 0.0 <= self.salient_fraction <= 1.0:
            raise ConfigError("salient_fraction must be in [0, 1]")
        if not 2 <= self.stat_bits <= 8:
            raise ConfigError(f"stat_bits must be in [2, 8], got {self.stat_bits}")
        if self.stat_group < 1:
            raise ConfigError(f"stat_group must be >= 1, got {self.stat_group}")


def _report(spec: CalibSpec, name: str, layer, proxy: float, update_norms, stages: dict,
            **extra) -> dict:
    """The one layer-report builder. Echoes the spec's backend, damping (0
    for RTN, which has none) and tau (SpQR only); `stages` holds the
    seconds of each stage (`STAGES`) and `extra` the plan's and the guard's
    keys."""
    n_outliers = layer.meta.get("outlier_count", 0)
    return {
        "layer": name,
        "backend": spec.backend.value,
        "proxy_error": proxy,
        "outlier_count": n_outliers,
        "outlier_rate": n_outliers / (layer.d_row * layer.d_col),
        "column_update_norms": update_norms,
        "avg_bits_per_weight": bit_account(layer.meta)["avg_bits_per_weight"],
        "alpha": 0.0 if spec.backend is Backend.RTN else spec.alpha,
        "tau": spec.tau if spec.backend is Backend.SPQR else None,
        "tau_normalization": "mean_saliency",
        "stage_seconds": stages,
        **extra,
    }


def saliency(w, w_hat, inv_diag):
    """Quantization sensitivity (w - w_hat)^2 / inv_diag; zero iff w == w_hat."""
    d = np.asarray(inv_diag, dtype=np.float64)
    if np.any(d <= 0.0):
        raise NonPositiveDiagonal(
            "inverse-Hessian diagonal must be > 0; increase damping"
        )
    s = (np.asarray(w, dtype=np.float64) - np.asarray(w_hat, dtype=np.float64)) ** 2 / d
    return s if s.ndim else float(s)


def detect_outliers(w, naive, inv_diag: np.ndarray, spec: CalibSpec) -> np.ndarray:
    """Mark weights whose naive group-RTN saliency exceeds tau x mean saliency.

    `naive` is the layer's dequantized group RTN and `inv_diag` is diag(H^-1)
    of the damped Hessian. The tau threshold multiplies the layer's mean
    saliency; that normalization is echoed in reports.
    """
    m = as_matrix(w)
    if inv_diag.shape[0] != m.shape[1]:
        raise ShapeMismatch("hessian dim must match the column count")
    s = saliency(m, naive, inv_diag[None, :])
    return s > spec.tau * float(np.mean(s))


def _prepare(w, h, spec: CalibSpec):
    """The layer, its damped Hessian, diag(H^-1) and the one factorization:
    the upper factor U of H^-1 = U.T @ U, whose column sums of U^2 are diag(H^-1).

    `h` is checked once, finite and exactly symmetric, by `regularize`,
    which damps it in place (see `calibrate_layer`); the factorization
    does not check it again. diag(H^-1) is one reduction that adds U's
    rows in order, as a loop over them would, without forming U^2.
    """
    m = as_matrix(w)
    damped = regularize(h, spec.alpha)
    if damped.shape[0] != m.shape[1]:
        raise ShapeMismatch(
            f"hessian dim {damped.shape[0]} != layer column count {m.shape[1]}"
        )
    upper = inverse_upper_factor(damped)
    inv_diag = np.einsum("qk,qk->k", upper, upper)
    if np.any(inv_diag <= 0.0):
        raise NonPositiveDiagonal("inverse diagonal not strictly positive")
    return m, damped, inv_diag, upper


def _sweep(work, upper, block_size: int, codec):
    """Quantize the columns of `work` left to right through `codec`.

    `codec(q0, q1, cols)` records the codes of columns q0..q1-1, whose
    current values `cols` (d_row, q1 - q0) holds, and returns their
    dequantized values. With `upper`, the upper factor of the damped
    inverse, each column's residual is compensated on the columns to its
    right as described above, updating `work` in place, so the codec goes
    one column at a time. Without compensation (`upper=None`) the columns
    are independent and one codec call quantizes them all as they are.
    Returns the dequantized matrix and the per-column update norms.

    The plans hand over a column-major `work` (see above). The block's
    update of the columns to its right multiplies by U's own view, not by
    the block's contiguous copy of its rows, and the dequantized matrix is
    row-major, the layout the proxy error's GEMM reads: at some shapes
    dgemm's bits depend on its operands' layout.
    """
    d_row, d_col = work.shape
    if upper is None:
        return codec(0, d_col, work), [0.0] * d_col
    w_hat = np.empty((d_row, d_col))
    columns = work.T
    update_norms: list[float] = []
    for i1 in range(0, d_col, block_size):
        i2 = min(i1 + block_size, d_col)
        rows = np.ascontiguousarray(upper[i1:i2, i1:])  # the block's rows of U, from i1 on
        err_block = np.empty((d_row, i2 - i1))
        err_sq, tail_sq = np.empty(i2 - i1), np.empty(i2 - i1)
        for j in range(i2 - i1):
            q = i1 + j
            deq = codec(q, q + 1, work[:, q : q + 1])[:, 0]
            w_hat[:, q] = deq
            err = columns[q] - deq
            err /= rows[j, j]
            columns[q:i2] -= np.multiply.outer(rows[j, j : i2 - i1], err)
            err_block[:, j] = err
            err_sq[j] = err.dot(err)
            tail = rows[j, j + 1 :]
            tail_sq[j] = tail.dot(tail)
        if i2 < d_col:
            columns[i2:] -= (err_block @ upper[i1:i2, i2:]).T
        update_norms += (np.sqrt(err_sq) * np.sqrt(tail_sq)).tolist()
    return w_hat, update_norms


def _proxy_error(w_hat: np.ndarray, m: np.ndarray, damped: np.ndarray) -> float:
    """sum((delta @ damped) * delta) for delta = w_hat - m, formed in
    `w_hat`, which the caller gives up."""
    w_hat -= m
    weighted = w_hat @ damped
    weighted *= w_hat
    return float(np.sum(weighted))


def calibrate_layer(
    w,
    h,
    spec: CalibSpec,
    layer_name: str = "layer",
    guard: bool = True,
) -> tuple[QuantizedLayer | BinaryLayer, dict]:
    """Quantize one layer with the backend `spec` names; the one entry point.

    Returns the layer and its report: a flat dict of the keys
    `pipeline.LAYER_FIELDS` lists, but the three the pipeline adds
    (`_report`). RTN returns `rtn_quantize`'s layer and never reads `h` (None will do).
    A Hessian backend's plan (`_affine_plan` for OPTQ and SPQR,
    `calibrate_layer_binary` for BINARY) yields `quantize(upper)`,
    which sweeps the plan's codec with compensation, or without it when
    `upper` is None.

    With `guard` (the default) both sweeps run and the lower proxy error
    under the damped Hessian wins: greedy clamped rounding can lose to plain
    rounding on adversarial layers. The report gives the plain sweep's error
    as `plain_proxy_error` and marks a fallback as `fallback`. For OPTQ the
    plain sweep is exactly `rtn_quantize`.

    The caller hands `h` over: a float64 `h` is damped in place
    (`hessian.regularize`), so no second d x d copy lives next to it. A
    caller that reads `h` afterwards passes a copy. The pipeline's `h` comes
    fresh from `hessian.finalize` for each layer. Whatever the guard no
    longer needs is freed before it sweeps: the factor and the compensated
    sweep's dequantized matrix; the losing sweep's layer goes once the guard
    decides.
    """
    laps = [time.perf_counter()]
    if spec.backend is Backend.RTN:
        layer = rtn_quantize(w, spec.bits, spec.group_size)
        stages = dict.fromkeys(STAGES, 0.0)
        stages["sweep"] = time.perf_counter() - laps[0]
        return layer, _report(spec, layer_name, layer, 0.0, [0.0] * layer.d_col, stages)
    m, damped, inv_diag, upper = _prepare(w, h, spec)
    laps.append(time.perf_counter())
    plan = calibrate_layer_binary if spec.backend is Backend.BINARY else _affine_plan
    quantize, extra = plan(m, inv_diag, spec)
    laps.append(time.perf_counter())
    layer, w_hat, update_norms = quantize(upper)
    del upper
    proxy = _proxy_error(w_hat, m, damped)
    del w_hat
    laps.append(time.perf_counter())
    if guard:
        plain_layer, plain_hat, plain_norms = quantize(None)
        extra["plain_proxy_error"] = plain = _proxy_error(plain_hat, m, damped)
        del plain_hat
        if plain < proxy:
            layer, proxy, update_norms = plain_layer, plain, plain_norms
            extra["fallback"] = "no_compensation"
        del plain_layer
    laps.append(time.perf_counter())
    stages = {stage: t1 - t0 for stage, t0, t1 in zip(STAGES, laps, laps[1:])}
    return layer, _report(spec, layer_name, layer, proxy, update_norms, stages, **extra)


def _affine_plan(m, inv_diag, spec: CalibSpec):
    """Plan of an OPTQ or SPQR layer: which weights are outliers, and that
    they keep their values; returns `quantize(upper)` and no report extras.

    SpQR's outliers are the weights whose group-RTN saliency exceeds tau x
    the mean (`detect_outliers`). Everything else, group fits masked to the
    other weights and SpQR's double-quantized statistics included, is
    `QuantizedLayer.code`'s.
    """
    spqr = spec.backend is Backend.SPQR
    outlier_mask = np.zeros(m.shape, dtype=bool)
    if spqr:
        naive = rtn_quantize(m, spec.bits, spec.group_size).dequantize()
        outlier_mask = detect_outliers(m, naive, inv_diag, spec)
    rows, cols = np.nonzero(outlier_mask)
    outliers = (rows, cols, m[rows, cols])
    valid = ~outlier_mask if rows.size else None
    stats = (spec.stat_bits, spec.stat_group) if spqr else (None, None)

    def quantize(upper):
        work = np.array(m, order="F")
        layer = QuantizedLayer.empty(*m.shape, spec.bits, spec.group_size, outliers, *stats)

        def codec(q0, q1, cols):  # `cols` views `work`; a fit reads whole groups of it
            deq = layer.code(q0, q1, work, valid)
            if valid is not None:  # outliers keep their values
                np.copyto(deq, m[:, q0:q1], where=outlier_mask[:, q0:q1])
            return deq

        return layer, *_sweep(work, upper, BLOCK_SIZE, codec)

    return quantize, {}


def calibrate_layer_binary(m, inv_diag, spec: CalibSpec):
    """Plan of a BINARY layer: salient columns, split threshold and alphas.

    Salient columns are the top `salient_fraction` by column saliency of a
    naive one-plane binarization. The split threshold and the low and high
    alphas are those of the other columns' weights. Returns `quantize(upper)`,
    whose compensated and guard sweeps share this salient set, threshold and
    alphas, and the plan's report extras; the planes and the salient columns'
    alphas are `BinaryLayer.code`'s.

    The alphas are the unrounded least-squares values (mean magnitudes of
    their region) and the threshold is the exact split-search result; the
    archive stores them as float64, so a reloaded layer dequantizes
    bit-identically.
    """
    d_col = m.shape[1]
    col_alpha = np.mean(np.abs(m), axis=0)
    naive = sign_plane(m) * col_alpha[None, :]
    sal_score = np.sum(saliency(m, naive, inv_diag[None, :]), axis=0)
    n_sal = int(round(spec.salient_fraction * d_col))
    if spec.salient_fraction > 0.0:
        n_sal = max(1, n_sal)
    order = np.argsort(-sal_score, kind="stable")
    salient = np.zeros(d_col, dtype=bool)
    salient[order[:n_sal]] = True

    non_sal_values = m[:, ~salient]
    if non_sal_values.size:
        threshold = splitting_search(non_sal_values)
        mags = np.abs(non_sal_values)
        low = mags[mags <= threshold]
        high = mags[mags > threshold]
        alpha_low = float(low.mean()) if low.size else 0.0
        alpha_high = float(high.mean()) if high.size else 0.0
    else:
        threshold, alpha_low, alpha_high = 0.0, 0.0, 0.0

    def quantize(upper):
        layer = BinaryLayer.empty(m.shape[0], salient, threshold, alpha_low, alpha_high)
        return layer, *_sweep(np.array(m, order="F"), upper, BLOCK_SIZE, layer.code)

    extra = {
        "salient_fraction": spec.salient_fraction,
        "n_salient_cols": int(np.sum(salient)),
        "split_threshold": float(threshold),
    }
    return quantize, extra
