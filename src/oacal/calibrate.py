"""Hessian-driven layer calibration.

`calibrate_layer` is the one entry point for all four backends: RTN (group
round-to-nearest, no Hessian), OPTQ, SpQR and BINARY. OAC changes only the
Hessian a backend receives, never the backend.

Every Hessian backend takes one path: the damped Hessian is factorized once,
the backend's plan fixes what does not depend on compensation (SpQR's
outliers, the group edges, the binary salient columns, split and alphas,
and the bit account), and one column sweep (`_sweep`) runs the plan's
per-column codec. Quantizing column q forces a residual delta on that
column; the unquantized columns to the right absorb the compensation

    update_q = -(residual / inv_qq) * inv_q_row

evaluated on the inverse of the Hessian restricted to the still-active
columns. The trailing-submatrix inverses are read off the upper Cholesky
factor U of the full damped inverse, and diag(H^-1) (for saliency) is the
column sums of U^2. Updates are batched per block: columns inside the
current block are compensated immediately, everything to the right receives
the accumulated block update when the block closes.

One guard rule covers every Hessian backend: the same codec, swept without
compensation, replaces the compensated result when its damped proxy error is
lower. Both sweeps share the plan, so a fallback keeps the layer's outliers,
statistics and bit budget.
"""
from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, NonPositiveDiagonal, ShapeMismatch
from .hessian import regularize
from .linalg import as_matrix, as_sym_matrix, inverse_upper_factor
from .quant import (
    BinaryLayer,
    QuantizedLayer,
    affine_bit_account,
    binary_bit_account,
    double_quantize_stats,
    group_edges,
    residual_binarize,
    rtn_quantize,
    splitting_search,
    _code_group,
    _fit_group_rows,
    _signs,
)

__all__ = [
    "Backend",
    "CalibSpec",
    "CalibReport",
    "saliency",
    "detect_outliers",
    "calibrate_layer",
    "calibrate_layer_binary",
]

BLOCK_SIZE = 32  # columns per compensation block of the sweep


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


@dataclass
class CalibReport:
    """Per-layer result summary; every threshold echoed for auditability."""

    layer: str
    proxy_error: float
    outlier_count: int
    outlier_rate: float
    column_update_norms: list[float]
    avg_bits_per_weight: float
    alpha: float
    tau: float | None
    tau_normalization: str = "mean_saliency"
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        out.update(out.pop("extra"))
        return out


def _report(spec: CalibSpec, name: str, layer, proxy: float, update_norms,
            **extra) -> CalibReport:
    """The one CalibReport builder; echoes the spec's backend, damping (0 for
    RTN, which has none) and tau (SpQR only). The Hessian flavour is the
    caller's: the pipeline adds it to each layer's report."""
    n_outliers = len(getattr(layer, "outliers", ()))
    return CalibReport(
        layer=name,
        proxy_error=proxy,
        outlier_count=n_outliers,
        outlier_rate=n_outliers / (layer.d_row * layer.d_col),
        column_update_norms=update_norms,
        avg_bits_per_weight=layer.accounting.avg_bits_per_weight,
        alpha=0.0 if spec.backend is Backend.RTN else spec.alpha,
        tau=spec.tau if spec.backend is Backend.SPQR else None,
        extra={"backend": spec.backend.value, **extra},
    )


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
    the upper factor U of H^-1 = U.T @ U, whose column sums of U^2 are diag(H^-1)."""
    m = as_matrix(w)
    sym = as_sym_matrix(h)
    if sym.shape[0] != m.shape[1]:
        raise ShapeMismatch(
            f"hessian dim {sym.shape[0]} != layer column count {m.shape[1]}"
        )
    damped = regularize(sym, spec.alpha)
    upper = inverse_upper_factor(damped)
    inv_diag = np.sum(upper**2, axis=0)
    if np.any(inv_diag <= 0.0):
        raise NonPositiveDiagonal("inverse diagonal not strictly positive")
    return m, damped, inv_diag, upper


def _sweep(work, upper, block_size: int, codec):
    """Quantize the columns of `work` left to right through `codec`.

    `codec(q, col)` records column q's codes and returns its dequantized
    values. With `upper`, the upper factor of the damped inverse, each
    residual is compensated on the columns to its right as described above,
    updating `work` in place; `upper=None` quantizes the columns as they are.
    Returns the dequantized matrix and the per-column update norms.
    """
    d_row, d_col = work.shape
    w_hat = np.empty_like(work)
    update_norms: list[float] = []
    for i1 in range(0, d_col, block_size):
        i2 = min(i1 + block_size, d_col)
        err_block = np.zeros((d_row, i2 - i1))
        for q in range(i1, i2):
            col = work[:, q]
            deq = codec(q, col)
            w_hat[:, q] = deq
            if upper is None:
                update_norms.append(0.0)
                continue
            d = upper[q, q]
            if d <= 0.0:
                raise NonPositiveDiagonal("upper factor diagonal not positive")
            err_scaled = (col - deq) / d
            work[:, q:i2] -= np.outer(err_scaled, upper[q, q:i2])
            err_block[:, q - i1] = err_scaled
            tail = upper[q, q + 1 :]
            update_norms.append(
                float(np.linalg.norm(err_scaled) * np.linalg.norm(tail))
            )
        if upper is not None and i2 < d_col:
            work[:, i2:] -= err_block @ upper[i1:i2, i2:]
    return w_hat, update_norms


def _proxy_error(delta: np.ndarray, damped: np.ndarray) -> float:
    return float(np.sum((delta @ damped) * delta))


def calibrate_layer(
    w,
    h,
    spec: CalibSpec,
    layer_name: str = "layer",
    guard: bool = True,
) -> tuple[QuantizedLayer | BinaryLayer, CalibReport]:
    """Quantize one layer with the backend `spec` names; the one entry point.

    RTN returns `rtn_quantize`'s layer and never reads `h` (None will do).
    A Hessian backend's plan (`_affine_plan` for OPTQ and SPQR,
    `calibrate_layer_binary` for BINARY) yields `quantize(upper)`,
    which sweeps the plan's codec with compensation, or without it when
    `upper` is None.

    With `guard` (the default) both sweeps run and the lower proxy error
    under the damped Hessian wins: greedy clamped rounding can lose to plain
    rounding on adversarial layers. The report gives the plain sweep's error
    as `plain_proxy_error` and marks a fallback as `fallback`. For OPTQ the
    plain sweep is exactly `rtn_quantize`.
    """
    if spec.backend is Backend.RTN:
        layer = rtn_quantize(w, spec.bits, spec.group_size)
        return layer, _report(spec, layer_name, layer, 0.0, [0.0] * layer.d_col)
    m, damped, inv_diag, upper = _prepare(w, h, spec)
    plan = calibrate_layer_binary if spec.backend is Backend.BINARY else _affine_plan
    quantize, extra = plan(m, inv_diag, spec)
    layer, w_hat, update_norms = quantize(upper)
    proxy = _proxy_error(w_hat - m, damped)
    if guard:
        plain_layer, plain_hat, plain_norms = quantize(None)
        extra["plain_proxy_error"] = plain = _proxy_error(plain_hat - m, damped)
        if plain < proxy:
            layer, proxy, update_norms = plain_layer, plain, plain_norms
            extra["fallback"] = "no_compensation"
    return layer, _report(spec, layer_name, layer, proxy, update_norms, **extra)


def _affine_plan(m, inv_diag, spec: CalibSpec):
    """Plan of an OPTQ or SPQR layer: outlier mask, group edges, bit account;
    returns `quantize(upper)` and no report extras.

    SpQR's outliers are the weights whose group-RTN saliency exceeds tau x
    the mean (`detect_outliers`); they keep their original values. SpQR
    double-quantizes each group's statistics as the sweep fits them, and the
    layer's `stats_q` is the list of per-group records; otherwise it is None.
    """
    d_row, d_col = m.shape
    bits = spec.bits
    spqr = spec.backend is Backend.SPQR
    outlier_mask = np.zeros(m.shape, dtype=bool)
    if spqr:
        naive = rtn_quantize(m, bits, spec.group_size).dequantize()
        outlier_mask = detect_outliers(m, naive, inv_diag, spec)
    outliers = [(int(r), int(c), float(m[r, c])) for r, c in np.argwhere(outlier_mask)]
    edges = group_edges(d_col, spec.group_size)
    col_group = np.repeat(np.arange(len(edges)), [c1 - c0 for c0, c1 in edges])
    account = affine_bit_account(
        d_row,
        d_col,
        bits,
        spec.group_size,
        len(outliers),
        stat_bits=spec.stat_bits if spqr else None,
        stat_group=spec.stat_group,
    )

    def quantize(upper):
        work = m.copy()
        layer = QuantizedLayer(
            bits=bits,
            group_size=spec.group_size,
            codes=np.empty((d_row, d_col), dtype=np.int64),
            scales=np.empty((d_row, len(edges))),
            zeros=np.empty((d_row, len(edges))),
            outliers=outliers,
            stats_q=[] if spqr else None,
            accounting=account,
        )

        def codec(q, col):
            g = col_group[q]
            c0, c1 = edges[g]
            if q == c0:
                scale, zero = _fit_group_rows(
                    work[:, c0:c1], bits, valid=~outlier_mask[:, c0:c1]
                )
                if spqr:
                    record, scale, zero = double_quantize_stats(
                        scale, zero, spec.stat_bits, spec.stat_group
                    )
                    layer.stats_q.append(record)
                layer.scales[:, g], layer.zeros[:, g] = scale, zero
            code, deq = _code_group(col[:, None], layer.scales[:, g], layer.zeros[:, g], bits)
            layer.codes[:, q] = code[:, 0]
            return np.where(outlier_mask[:, q], m[:, q], deq[:, 0])

        w_hat, update_norms = _sweep(work, upper, BLOCK_SIZE, codec)
        return layer, w_hat, update_norms

    return quantize, {}


def calibrate_layer_binary(m, inv_diag, spec: CalibSpec):
    """Plan of a BINARY layer: salient columns, split threshold, alphas, bits.

    Salient columns are the top `salient_fraction` by column saliency of a
    naive one-plane binarization; they get two residual planes. Non-salient
    weights reconstruct as sign * (low | high alpha) selected by the
    magnitude split threshold. Returns `quantize(upper)`, whose
    compensated and guard sweeps share this salient set, threshold and
    alphas, and the plan's report extras.

    The alphas are the unrounded least-squares values (mean magnitudes of
    their region) and the threshold is the exact split-search result; the
    archive stores them as float64, so a reloaded layer dequantizes
    bit-identically.
    """
    d_row, d_col = m.shape
    col_alpha = np.mean(np.abs(m), axis=0)
    naive = _signs(m) * col_alpha[None, :]
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

    account = binary_bit_account(d_row, d_col, int(np.sum(salient)))

    def quantize(upper):
        layer = BinaryLayer(
            split_threshold=float(threshold),
            alpha_low=alpha_low,
            alpha_high=alpha_high,
            salient_cols=salient,
            sal_alpha1=np.zeros(d_col),
            sal_alpha2=np.zeros(d_col),
            signs1=np.ones((d_row, d_col), dtype=np.int8),
            signs2=np.ones((d_row, d_col), dtype=np.int8),
            membership=np.zeros((d_row, d_col), dtype=bool),
            accounting=account,
        )

        def codec(q, col):
            if salient[q]:
                a1, s1, a2, s2 = residual_binarize(col)
                layer.sal_alpha1[q], layer.sal_alpha2[q] = a1, a2
                layer.signs1[:, q], layer.signs2[:, q] = s1, s2
                return a1 * s1 + a2 * s2
            sgn = _signs(col)
            high_rows = np.abs(col) > threshold
            layer.signs1[:, q], layer.membership[:, q] = sgn, high_rows
            return sgn * np.where(high_rows, alpha_high, alpha_low)

        w_hat, update_norms = _sweep(m.copy(), upper, BLOCK_SIZE, codec)
        return layer, w_hat, update_norms

    extra = {
        "salient_fraction": spec.salient_fraction,
        "n_salient_cols": int(np.sum(salient)),
        "split_threshold": float(threshold),
    }
    return quantize, extra
