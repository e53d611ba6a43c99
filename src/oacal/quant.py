"""Group-affine and binary weight quantizers plus bit accounting.

The one affine rule, vectorized over a group's rows, is `_fit_group_rows`
(statistics), `_code_group` (codes) and `_decode` (reconstruction): the
asymmetric min-max scheme, with the range widened to include zero:

    scale = max(f32_up((max(max, 0) - min(min, 0)) / (2^bits - 1)), SCALE_FLOOR)
    zero  = clamp(round(-min(min, 0) / scale), 0, 2^bits - 1)
    code  = clamp(round(v / scale + zero), 0, 2^bits - 1)
    v_hat = (code - zero) * scale

Rounding is half-away-from-zero everywhere. Scales are rounded *up* to the
nearest float32 (`f32_up`) on construction so that serialized layers
dequantize bit-identically after a reload while the half-step error bound
survives the cast. The rule has no constant-group exception: a constant
group's zero-widened range has the group's value at one end, so it codes at
that end (maxq for a positive value, 0 for a negative one) and reconstructs
within float32 rounding; only an all-zero range meets the floor.

In the archive (`layer_to_tensors`) every entry is 32-bit except the binary
alphas (`binalphas/*`), which are 64-bit: binary alphas are the unrounded
least-squares magnitudes, and float32 would change the reconstruction.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimMismatch, EmptyGroup, MalformedArchive
from .linalg import as_matrix

# Keeps an all-zero range's scale positive; snapped to float32 so it stores
# exactly.
SCALE_FLOOR = float(np.float32(1e-12))

# Bit costs used by the accounting formulas below.
FP32_BITS = 32
FP16_BITS = 16
OUTLIER_INDEX_BITS = 16

__all__ = [
    "SCALE_FLOOR",
    "round_half_away",
    "BitAccount",
    "affine_bit_account",
    "binary_bit_account",
    "QuantizedLayer",
    "rtn_quantize",
    "StatsQuant",
    "double_quantize_stats",
    "binarize_region",
    "residual_binarize",
    "splitting_search",
    "BinaryLayer",
    "layer_to_tensors",
    "layer_from_tensors",
]


def round_half_away(x):
    """Round to nearest integer, ties away from zero (np.round ties to even)."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _f32_round_up(x):
    """Smallest float32 >= x, as float64. Keeps quantization grids covering."""
    x = np.asarray(x, dtype=np.float64)
    y = x.astype(np.float32)
    bump = y.astype(np.float64) < x
    if np.any(bump):
        y = np.where(bump, np.nextafter(y, np.float32(np.inf)), y)
    return y.astype(np.float64)


def _decode(codes, scale, zero):
    """The affine reconstruction (codes - zero) * scale, broadcast elementwise."""
    return (codes - zero) * scale


# ---------------------------------------------------------------------------
# Bit accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitAccount:
    """Total stored bits split by category; avg is total / weight count."""

    weight_bits: float
    stats_bits: float
    outlier_bits: float
    avg_bits_per_weight: float

    @property
    def total_bits(self) -> float:
        return self.weight_bits + self.stats_bits + self.outlier_bits


def affine_bit_account(
    n_rows: int,
    n_cols: int,
    bits: int,
    group_size: int,
    n_outliers: int,
    stat_bits: int | None = None,
    stat_group: int | None = None,
) -> BitAccount:
    """Accounting for group-affine layers.

    Per weight: `bits` for the code, (s_bits + z_bits) / group_size for the
    first-level statistics (fp16 each without double quantization, stat_bits
    each with it), 2 x 32 / (group_size * stat_group) for the second-level
    parameters when statistics are double-quantized, and 32 + 16 bits per
    outlier (fp32 value plus a 16-bit column index).
    """
    n = n_rows * n_cols
    if stat_bits is None:
        stats_rate = 2 * FP16_BITS / group_size
    else:
        stats_rate = 2 * stat_bits / group_size + 2 * FP32_BITS / (
            group_size * stat_group
        )
    weight_bits = float(bits) * n
    stats_bits = stats_rate * n
    outlier_bits = float(n_outliers) * (FP32_BITS + OUTLIER_INDEX_BITS)
    avg = bits + stats_rate + (n_outliers / n) * (FP32_BITS + OUTLIER_INDEX_BITS)
    return BitAccount(weight_bits, stats_bits, outlier_bits, avg)


def binary_bit_account(n_rows: int, n_cols: int, n_salient_cols: int) -> BitAccount:
    """Accounting for binary layers.

    One sign plane per weight plus a second plane on salient columns; fp16
    alphas (two per salient column, two shared low/high magnitudes, one split
    threshold) and a one-bit per-column salient mask. The low/high membership
    of non-salient weights is decode-side metadata and is not charged, which
    matches the convention behind reported ~1.1-bit binary footprints.
    """
    n = n_rows * n_cols
    weight_bits = float(n) + float(n_salient_cols * n_rows)
    stats_bits = FP16_BITS * (2 * n_salient_cols + 2 + 1) + float(n_cols)
    avg = (weight_bits + stats_bits) / n
    return BitAccount(weight_bits, stats_bits, 0.0, avg)


# ---------------------------------------------------------------------------
# Group-affine layers
# ---------------------------------------------------------------------------


def group_edges(d_col: int, group_size: int) -> list[tuple[int, int]]:
    """Column ranges of consecutive groups; the last group may be ragged."""
    if group_size < 1:
        raise DimMismatch(f"group_size must be >= 1, got {group_size}")
    return [(g, min(g + group_size, d_col)) for g in range(0, d_col, group_size)]


@dataclass
class QuantizedLayer:
    """Integer codes plus per-(row, group) statistics and isolated outliers.

    `stats_q` holds one double-quantization record per column group when the
    statistics were double-quantized (SpQR-style calibration), else None.
    """

    bits: int
    group_size: int
    codes: np.ndarray  # int64, d_row x d_col
    scales: np.ndarray  # float64, d_row x n_groups
    zeros: np.ndarray  # float64, d_row x n_groups
    outliers: list[tuple[int, int, float]]  # sorted by (row, col)
    stats_q: "list[StatsQuant] | None"
    accounting: BitAccount

    @property
    def d_row(self) -> int:
        return self.codes.shape[0]

    @property
    def d_col(self) -> int:
        return self.codes.shape[1]

    def dequantize(self) -> np.ndarray:
        """Reconstruct the weight matrix; outliers return their stored value."""
        out = np.empty(self.codes.shape)
        for g, (c0, c1) in enumerate(group_edges(self.d_col, self.group_size)):
            out[:, c0:c1] = _decode(
                self.codes[:, c0:c1], self.scales[:, g, None], self.zeros[:, g, None]
            )
        for r, c, val in self.outliers:
            out[r, c] = val
        return out


def _fit_group_rows(block: np.ndarray, bits: int, valid: np.ndarray | None = None):
    """Per-row affine statistics (scale, zero) of one group's columns.

    Widening each range to include zero keeps the zero point in the code
    range, so the half-step error bound holds for every input.
    `valid` masks entries allowed to shape the range (outliers excluded; no
    mask means all entries); rows whose entries are all masked fall back to
    the full row.
    """
    if block.shape[1] == 0:
        raise EmptyGroup("group has no columns")
    if valid is None:
        valid = np.ones(block.shape, dtype=bool)
    # zero is in every range, so a masked entry counts as a zero
    kept = np.where(valid | ~valid.any(axis=1, keepdims=True), block, 0.0)
    lo = np.minimum(kept.min(axis=1), 0.0)
    hi = np.maximum(kept.max(axis=1), 0.0)
    maxq = (1 << bits) - 1
    scale = np.maximum(_f32_round_up((hi - lo) / maxq), SCALE_FLOOR)
    zero = np.clip(round_half_away(-lo / scale), 0, maxq)
    return scale, zero


def _code_group(block, scale, zero, bits):
    """Codes and reconstruction of `block`'s rows under per-row statistics."""
    maxq = (1 << bits) - 1
    scale, zero = scale[:, None], zero[:, None]
    codes = np.clip(round_half_away(block / scale + zero), 0, maxq).astype(np.int64)
    return codes, _decode(codes, scale, zero)


def rtn_quantize(w, bits: int, group_size: int) -> QuantizedLayer:
    """Round-to-nearest group quantization with no outliers or compensation."""
    m = as_matrix(w)
    d_row, d_col = m.shape
    edges = group_edges(d_col, group_size)
    codes = np.empty((d_row, d_col), dtype=np.int64)
    scales = np.empty((d_row, len(edges)))
    zeros = np.empty((d_row, len(edges)))
    for g, (c0, c1) in enumerate(edges):
        scales[:, g], zeros[:, g] = _fit_group_rows(m[:, c0:c1], bits)
        codes[:, c0:c1], _ = _code_group(m[:, c0:c1], scales[:, g], zeros[:, g], bits)
    account = affine_bit_account(d_row, d_col, bits, group_size, n_outliers=0)
    return QuantizedLayer(
        bits=bits,
        group_size=group_size,
        codes=codes,
        scales=scales,
        zeros=zeros,
        outliers=[],
        stats_q=None,
        accounting=account,
    )


# ---------------------------------------------------------------------------
# Double quantization of quantization statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatsQuant:
    """Second-round quantization record for first-level scales and zeros.

    Each run of `stat_group` statistics is quantized relative to its minimum
    (`*_bases`), which keeps the second-level grid tight even though scales
    are strictly positive. `*_steps` and `*_points` hold each run's affine
    scale and zero point.
    """

    stat_bits: int
    stat_group: int
    scale_codes: np.ndarray
    zero_codes: np.ndarray
    scale_steps: np.ndarray
    zero_steps: np.ndarray
    scale_points: np.ndarray
    zero_points: np.ndarray
    scale_bases: np.ndarray
    zero_bases: np.ndarray


def _dq_runs(values: np.ndarray, stat_bits: int, stat_group: int):
    # A ragged last run is padded with its own last value, which leaves the
    # run's min and max, and so its fit, unchanged.
    runs = np.pad(values, (0, -values.size % stat_group), mode="edge")
    runs = runs.reshape(-1, stat_group)
    bases = runs.min(axis=1)
    shifted = runs - bases[:, None]
    # A shifted run's min is 0, so its zero point is 0 and a constant run
    # dequantizes exactly to its base.
    steps, points = _fit_group_rows(shifted, stat_bits)
    codes, deq = _code_group(shifted, steps, points, stat_bits)
    deq = deq + bases[:, None]
    n = values.size
    return codes.ravel()[:n], deq.ravel()[:n], steps, points, bases


def double_quantize_stats(
    scales, zeros, stat_bits: int, stat_group: int
) -> tuple[StatsQuant, np.ndarray, np.ndarray]:
    """Affine-quantize first-level scales and zeros in runs of `stat_group`.

    Returns the record plus the dequantized scales and zeros, which
    supersede the originals for every later dequantization. Dequantized
    scales are floored to stay positive and snapped to float32 so reloads
    reproduce them exactly.
    """
    if not 2 <= stat_bits <= 8:
        raise DimMismatch(f"stat_bits must be in [2, 8], got {stat_bits}")
    if stat_group < 1:
        raise DimMismatch(f"stat_group must be >= 1, got {stat_group}")
    scales = np.asarray(scales, dtype=np.float64).ravel()
    zeros = np.asarray(zeros, dtype=np.float64).ravel()
    if scales.size == 0:
        raise EmptyGroup("no statistics to quantize")
    if zeros.shape != scales.shape:
        raise DimMismatch("scales and zeros must have the same length")
    s_codes, s_deq, s_steps, s_points, s_bases = _dq_runs(scales, stat_bits, stat_group)
    z_codes, z_deq, z_steps, z_points, z_bases = _dq_runs(zeros, stat_bits, stat_group)
    s_deq = np.maximum(s_deq, SCALE_FLOOR).astype(np.float32).astype(np.float64)
    z_deq = z_deq.astype(np.float32).astype(np.float64)
    record = StatsQuant(
        stat_bits, stat_group, s_codes, z_codes, s_steps, z_steps,
        s_points, z_points, s_bases, z_bases,
    )
    return record, s_deq, z_deq


# ---------------------------------------------------------------------------
# Binary quantization primitives
# ---------------------------------------------------------------------------


def _signs(v: np.ndarray) -> np.ndarray:
    # sign(0) = +1 for a deterministic tie-break
    return np.where(v < 0.0, -1.0, 1.0)


def binarize_region(values) -> tuple[float, np.ndarray]:
    """Best single-plane approximation alpha * sign(v) in the l2 sense."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise EmptyGroup("cannot binarize an empty region")
    alpha = float(np.mean(np.abs(v)))
    return alpha, _signs(v)


def residual_binarize(values) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Two-plane approximation: binarize v, then binarize the residual."""
    v = np.asarray(values, dtype=np.float64).ravel()
    alpha1, signs1 = binarize_region(v)
    residual = v - alpha1 * signs1
    alpha2, signs2 = binarize_region(residual)
    return alpha1, signs1, alpha2, signs2


SPLIT_CANDIDATES = 64


def splitting_search(values) -> float:
    """Magnitude threshold that best separates a bell-shaped region in two.

    Candidates are the distinct |v| values when few, otherwise their
    quantiles on a grid of at most `SPLIT_CANDIDATES`. Each candidate t is scored
    by the summed squared deviation of {|v| <= t} and {|v| > t} from their
    means, sum(x^2) - sum(x)^2 / n per side, read off prefix sums of the
    sorted magnitudes; ties resolve to the smallest threshold.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise EmptyGroup("cannot split an empty region")
    mags = np.sort(np.abs(v))
    distinct = np.unique(mags)
    if distinct.size <= SPLIT_CANDIDATES:
        candidates = distinct
    else:
        qs = np.linspace(0.0, 1.0, SPLIT_CANDIDATES)
        candidates = np.unique(np.quantile(distinct, qs))
    sums = np.concatenate([[0.0], np.cumsum(mags)])
    squares = np.concatenate([[0.0], np.cumsum(mags**2)])
    # The smallest candidate is the smallest magnitude, so n_low >= 1.
    n_low = np.searchsorted(mags, candidates, side="right")
    n_high = mags.size - n_low
    err_low = squares[n_low] - sums[n_low] ** 2 / n_low
    high_sums = sums[-1] - sums[n_low]
    err_high = squares[-1] - squares[n_low] - high_sums**2 / np.maximum(n_high, 1)
    err = err_low + err_high
    # Scores within the prefix sums' rounding of the best count as ties.
    tied = err <= err.min() + 1e-12 * squares[-1]
    return float(candidates[np.argmax(tied)])


@dataclass
class BinaryLayer:
    """Sign planes with per-segment magnitudes.

    Salient columns carry two planes (base plus residual) with per-column
    alphas; the remaining columns carry one plane whose magnitude is the
    shared low or high alpha selected by the split threshold. `membership`
    marks the high-magnitude region and is decode-side metadata.
    """

    split_threshold: float
    alpha_low: float
    alpha_high: float
    salient_cols: np.ndarray  # bool, d_col
    sal_alpha1: np.ndarray  # float64, d_col (0 on non-salient)
    sal_alpha2: np.ndarray  # float64, d_col (0 on non-salient)
    signs1: np.ndarray  # int8 +-1, d_row x d_col
    signs2: np.ndarray  # int8 +-1, d_row x d_col (used on salient cols)
    membership: np.ndarray  # bool, d_row x d_col (True = high region)
    accounting: BitAccount

    @property
    def d_row(self) -> int:
        return self.signs1.shape[0]

    @property
    def d_col(self) -> int:
        return self.signs1.shape[1]

    def dequantize(self) -> np.ndarray:
        sal = self.salient_cols
        out = np.empty(self.signs1.shape)
        mags = np.where(self.membership, self.alpha_high, self.alpha_low)
        out[:, ~sal] = (self.signs1 * mags)[:, ~sal]
        two_plane = (
            self.signs1 * self.sal_alpha1[None, :]
            + self.signs2 * self.sal_alpha2[None, :]
        )
        out[:, sal] = two_plane[:, sal]
        return out


# ---------------------------------------------------------------------------
# Archive wire format for quantized layers
# ---------------------------------------------------------------------------


# Entry prefixes of one layer's tensors, by layer kind.
_LAYER_ENTRIES = {
    "affine": ("codes", "scales", "zeros", "outliers"),
    "binary": ("binsigns1", "binsigns2", "binmember", "binsalient", "binalphas"),
}


def layer_to_tensors(name: str, layer) -> tuple[dict[str, np.ndarray], dict]:
    """Tensor entries plus JSON-able metadata for one quantized layer.

    The entries are `<prefix>/<name>` for the kind's prefixes in
    `_LAYER_ENTRIES`; `outliers/` holds one (row, col, value) triple per
    outlier. Every entry is float32, since each holds an integer, a
    float32-rounded statistic or a value read from a float32 checkpoint,
    except `binalphas/*` (split threshold, low/high alphas and the per-column
    salient alphas): float64, because the binary alphas are unrounded
    least-squares values.
    """
    meta = {
        "accounting": asdict(layer.accounting),
        "d_row": layer.d_row,
        "d_col": layer.d_col,
    }
    if isinstance(layer, QuantizedLayer):
        outliers = np.array([[r, c, v] for r, c, v in layer.outliers]).reshape(-1, 3)
        values = [layer.codes, layer.scales, layer.zeros, outliers]
        meta.update(
            {
                "kind": "affine",
                "bits": layer.bits,
                "group_size": layer.group_size,
                "outlier_count": len(layer.outliers),
                "double_quantized": layer.stats_q is not None,
                "stat_bits": layer.stats_q[0].stat_bits if layer.stats_q else None,
                "stat_group": layer.stats_q[0].stat_group if layer.stats_q else None,
            }
        )
    elif isinstance(layer, BinaryLayer):
        alphas = np.concatenate(
            [
                [layer.split_threshold, layer.alpha_low, layer.alpha_high],
                layer.sal_alpha1,
                layer.sal_alpha2,
            ]
        )
        planes = [layer.signs1, layer.signs2, layer.membership, layer.salient_cols]
        values = planes + [alphas]
        meta.update(
            {"kind": "binary", "n_salient_cols": int(layer.salient_cols.sum())}
        )
    else:
        raise DimMismatch(f"unknown layer type {type(layer)!r}")
    tensors = {
        f"{prefix}/{name}": np.asarray(
            value, np.float64 if prefix == "binalphas" else np.float32
        )
        for prefix, value in zip(_LAYER_ENTRIES[meta["kind"]], values)
    }
    return tensors, meta


def layer_from_tensors(name: str, tensors: dict, meta: dict):
    """Rebuild a layer from archive tensors; inverse of layer_to_tensors.

    The layer's entries must be exactly the ones `layer_to_tensors` writes
    for its kind, else MalformedArchive: a missing entry, an unknown kind, or
    a leftover entry such as the per-group minimum that an older affine rule
    stored and decoded constant groups from.
    """
    want = set(_LAYER_ENTRIES.get(meta["kind"], ()))
    held = {key.partition("/")[0] for key in tensors if key.partition("/")[2] == name}
    if not want or held != want:
        raise MalformedArchive(
            f"layer {name!r} of kind {meta['kind']!r} has entries {sorted(held)}, "
            f"expected {sorted(want)}"
        )
    entry = {prefix: np.asarray(tensors[f"{prefix}/{name}"]) for prefix in want}
    account = BitAccount(**meta["accounting"])
    if meta["kind"] == "affine":
        outliers = [
            (int(r), int(c), float(v))
            for r, c, v in entry["outliers"].astype(np.float64).reshape(-1, 3)
        ]
        return QuantizedLayer(
            bits=meta["bits"],
            group_size=meta["group_size"],
            codes=entry["codes"].astype(np.int64),
            scales=entry["scales"].astype(np.float64),
            zeros=entry["zeros"].astype(np.float64),
            outliers=outliers,
            stats_q=None,
            accounting=account,
        )
    alphas = entry["binalphas"].astype(np.float64)
    salient = entry["binsalient"] != 0
    d_col = salient.shape[0]
    return BinaryLayer(
        split_threshold=float(alphas[0]),
        alpha_low=float(alphas[1]),
        alpha_high=float(alphas[2]),
        salient_cols=salient,
        sal_alpha1=alphas[3 : 3 + d_col],
        sal_alpha2=alphas[3 + d_col : 3 + 2 * d_col],
        signs1=entry["binsigns1"].astype(np.int8),
        signs2=entry["binsigns2"].astype(np.int8),
        membership=entry["binmember"] != 0,
        accounting=account,
    )
