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

In the archive (`layer_to_tensors`) every integer is bit-packed by one rule
(`pack_uint`) at the width the accounting charges: affine codes at `bits`,
zero points at 16 (the fp16 charge, exact for integers), double-quantized
statistics codes at `stat_bits`, outlier columns at 16, and binary signs,
salient mask and membership at 1 bit. Floats are stored at the width that
keeps them exact: scales, second-level steps and bases, and outlier values
as float32; binary alphas as float64, because they are the unrounded
least-squares magnitudes. Whatever is stored beyond the charge is named in
`disk_extra_bits`: float32 scales (16 bits over fp16 each), second-level
steps and bases (64 bits per run over the 2 x 32 charged), outlier row
pointers, the binary membership bitmap that BiLLM's ~1.1-bit convention
leaves uncharged, float64 alphas (48 bits over fp16 each), byte padding and
entry headers.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .archive import entry_header_nbytes
from .errors import DimMismatch, EmptyGroup, MalformedArchive
from .linalg import as_matrix

# Keeps an all-zero range's scale positive; snapped to float32 so it stores
# exactly.
SCALE_FLOOR = float(np.float32(1e-12))

# Bit costs used by the accounting formulas below.
FP32_BITS = 32
FP16_BITS = 16
OUTLIER_INDEX_BITS = 16
ROW_POINTER_BITS = 32

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
    "pack_uint",
    "unpack_uint",
    "layer_to_tensors",
    "layer_from_tensors",
    "disk_extra_bits",
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

    `bits` per code; per row of each of the ceil(n_cols / group_size)
    groups, a scale and a zero point (fp16 each without double
    quantization, stat_bits each with it); with double quantization, 2 x 32
    bits for the second-level parameters of each of a group's
    ceil(n_rows / stat_group) runs; 32 + 16 bits per outlier (fp32 value
    plus a 16-bit column index). A ragged last group or run is charged
    whole, as it is stored.
    """
    n = n_rows * n_cols
    n_groups = -(-n_cols // group_size)
    if stat_bits is None:
        stats_bits = float(n_groups * n_rows * 2 * FP16_BITS)
    else:
        n_runs = -(-n_rows // stat_group)
        stats_bits = float(n_groups * (n_rows * 2 * stat_bits + n_runs * 2 * FP32_BITS))
    weight_bits = float(bits) * n
    outlier_bits = float(n_outliers) * (FP32_BITS + OUTLIER_INDEX_BITS)
    avg = bits + stats_bits / n + (n_outliers / n) * (FP32_BITS + OUTLIER_INDEX_BITS)
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
    codes, _ = _code_group(shifted, steps, points, stat_bits)
    return codes.ravel()[: values.size], steps, points, bases


def _dq_values(record: StatsQuant) -> tuple[np.ndarray, np.ndarray]:
    """The scales and zeros a record dequantizes to: (code - point) * step +
    base per entry, scales floored to stay positive, both snapped to float32
    so reloads reproduce them exactly."""
    r = np.arange(record.scale_codes.size) // record.stat_group
    scales = _decode(record.scale_codes, record.scale_steps[r], record.scale_points[r])
    zeros = _decode(record.zero_codes, record.zero_steps[r], record.zero_points[r])
    scales = np.maximum(scales + record.scale_bases[r], SCALE_FLOOR).astype(np.float32)
    zeros = (zeros + record.zero_bases[r]).astype(np.float32)
    return scales.astype(np.float64), zeros.astype(np.float64)


def double_quantize_stats(
    scales, zeros, stat_bits: int, stat_group: int
) -> tuple[StatsQuant, np.ndarray, np.ndarray]:
    """Affine-quantize first-level scales and zeros in runs of `stat_group`.

    Returns the record plus the dequantized scales and zeros (`_dq_values`),
    which supersede the originals for every later dequantization.
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
    s_codes, s_steps, s_points, s_bases = _dq_runs(scales, stat_bits, stat_group)
    z_codes, z_steps, z_points, z_bases = _dq_runs(zeros, stat_bits, stat_group)
    record = StatsQuant(
        stat_bits, stat_group, s_codes, z_codes, s_steps, z_steps,
        s_points, z_points, s_bases, z_bases,
    )
    return (record, *_dq_values(record))


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


def pack_uint(values, width: int) -> np.ndarray:
    """Unsigned integers at `width` bits each (1-32), as a uint8 stream.

    `values` (integers or bools, read in C order) are laid end to end, low
    bit first: value i occupies stream bits [i * width, (i + 1) * width).
    The last byte's unused high bits are zero.
    """
    if not 1 <= width <= 32:
        raise DimMismatch(f"pack width must be in [1, 32], got {width}")
    v = np.asarray(values).ravel()
    if v.dtype.kind not in "biu":
        raise DimMismatch(f"only integers are packed, got {v.dtype}")
    if v.size and (v.min() < 0 or int(v.max()) >> width):
        raise DimMismatch(f"values outside [0, 2^{width}) cannot be packed")
    v = v.astype(np.int64, copy=False)
    bits = np.empty((v.size, width), dtype=np.uint8)
    for b in range(width):
        bits[:, b] = (v >> b) & 1
    return np.packbits(bits, bitorder="little")


def unpack_uint(packed, width: int, count: int) -> np.ndarray:
    """The `count` int64 values `pack_uint(values, width)` packed.

    MalformedArchive unless `packed` is uint8 and exactly
    ceil(count * width / 8) bytes long.
    """
    packed = np.asarray(packed)
    n_bytes = -(-count * width // 8)
    if packed.dtype != np.uint8 or packed.shape != (n_bytes,):
        raise MalformedArchive(
            f"packed payload is {packed.dtype} {packed.shape}, expected uint8 "
            f"({n_bytes},) for {count} values at {width} bits"
        )
    bits = np.unpackbits(packed, count=count * width, bitorder="little")
    bits = bits.reshape(count, width)
    out = np.zeros(count, dtype=np.int64)
    for b in range(width):
        out |= bits[:, b].astype(np.int64) << b
    return out


def _layout(meta: dict) -> dict[str, tuple]:
    """A layer's archive entries, derived from its layers.json metadata:
    prefix -> (width, count) for `count` unsigned integers bit-packed at
    `width` bits, or (dtype, shape) for a float array."""
    d_row, d_col = meta["d_row"], meta["d_col"]
    if meta["kind"] == "binary":
        n_sal = meta["n_salient_cols"]
        return {
            "signs1": (1, d_row * d_col),
            "signs2": (1, d_row * n_sal),  # salient columns only
            "membership": (1, d_row * (d_col - n_sal)),  # non-salient only
            "salient": (1, d_col),
            "alphas": (np.float64, (3 + 2 * n_sal,)),
        }
    if meta["kind"] != "affine":
        raise MalformedArchive(f"unknown layer kind {meta['kind']!r}")
    n_groups = -(-d_col // meta["group_size"])
    layout = {"codes": (meta["bits"], d_row * d_col)}
    if meta["double_quantized"]:
        n_runs = -(-d_row // meta["stat_group"])
        layout["scalecodes"] = (meta["stat_bits"], n_groups * d_row)
        layout["zerocodes"] = (meta["stat_bits"], n_groups * d_row)
        # per group: scale steps, scale bases, zero steps, zero bases
        layout["stats2"] = (np.float32, (n_groups, 4, n_runs))
    else:
        layout["scales"] = (np.float32, (d_row, n_groups))
        layout["zeros"] = (FP16_BITS, d_row * n_groups)
    n_out = meta["outlier_count"]
    if n_out:
        layout["outliervals"] = (np.float32, (n_out,))
        layout["outliercols"] = (OUTLIER_INDEX_BITS, n_out)
        layout["outlierrows"] = (ROW_POINTER_BITS, d_row + 1)  # CSR row pointers
    return layout


def _packed(form) -> bool:
    return isinstance(form, int)


def layer_to_tensors(name: str, layer) -> tuple[dict[str, np.ndarray], dict]:
    """Tensor entries plus JSON-able metadata for one quantized layer.

    The entries are `<prefix>/<name>` for the prefixes `_layout` derives from
    the metadata; integers are bit-packed by `pack_uint` into uint8 entries.
    Affine layers store their codes, then either float32 scales and 16-bit
    zero points or, when double-quantized, the statistics codes plus each
    run's second-level steps and bases; outliers are float32 values, 16-bit
    columns and 32-bit CSR row pointers. Binary layers store the sign plane,
    the second plane on salient columns, the membership on the others, the
    salient mask and the 3 + 2 * n_salient float64 alphas (split threshold,
    low and high alphas, the salient columns' two alphas).
    """
    meta = {
        "accounting": asdict(layer.accounting),
        "d_row": layer.d_row,
        "d_col": layer.d_col,
    }
    if isinstance(layer, QuantizedLayer):
        values = {"codes": layer.codes}
        if layer.stats_q:
            values["scalecodes"] = np.stack([r.scale_codes for r in layer.stats_q])
            values["zerocodes"] = np.stack([r.zero_codes for r in layer.stats_q])
            values["stats2"] = np.stack(
                [
                    [r.scale_steps, r.scale_bases, r.zero_steps, r.zero_bases]
                    for r in layer.stats_q
                ]
            )
        else:
            values["scales"] = layer.scales
            values["zeros"] = layer.zeros.astype(np.int64)
        if layer.outliers:
            rows, cols, vals = (np.array(v) for v in zip(*layer.outliers))
            values["outliervals"] = vals
            values["outliercols"] = cols
            values["outlierrows"] = np.searchsorted(rows, np.arange(layer.d_row + 1))
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
        sal = layer.salient_cols
        values = {
            "signs1": layer.signs1 < 0,
            "signs2": layer.signs2[:, sal] < 0,
            "membership": layer.membership[:, ~sal],
            "salient": sal,
            "alphas": np.concatenate(
                [
                    [layer.split_threshold, layer.alpha_low, layer.alpha_high],
                    layer.sal_alpha1[sal],
                    layer.sal_alpha2[sal],
                ]
            ),
        }
        meta.update({"kind": "binary", "n_salient_cols": int(sal.sum())})
    else:
        raise DimMismatch(f"unknown layer type {type(layer)!r}")
    tensors = {
        f"{prefix}/{name}": (
            pack_uint(values[prefix], form)
            if _packed(form)
            else np.asarray(values[prefix], dtype=form)
        )
        for prefix, (form, _) in _layout(meta).items()
    }
    return tensors, meta


def layer_from_tensors(name: str, tensors: dict, meta: dict):
    """Rebuild a layer from archive tensors; inverse of layer_to_tensors.

    The layer's entries must be exactly the ones `_layout` derives from
    `meta`, each of the dtype and size it implies, else MalformedArchive: a
    missing or leftover entry (such as those of a layer archive written
    before integers were bit-packed), an unknown kind, or a payload whose
    byte count disagrees with the metadata. A double-quantized layer gets
    its `stats_q` back, and its statistics dequantize as they did.
    """
    layout = _layout(meta)
    held = {key.partition("/")[0] for key in tensors if key.partition("/")[2] == name}
    if held != set(layout):
        raise MalformedArchive(
            f"layer {name!r} of kind {meta['kind']!r} has entries {sorted(held)}, "
            f"expected {sorted(layout)}"
        )
    entry = {}
    for prefix, (form, size) in layout.items():
        key = f"{prefix}/{name}"
        arr = np.asarray(tensors[key])
        if _packed(form):
            want = (np.dtype(np.uint8), (-(-size * form // 8),))
        else:
            want = (np.dtype(form), size)
        if (arr.dtype, arr.shape) != want:
            raise MalformedArchive(
                f"{key} is {arr.dtype} {arr.shape}, layers.json implies {want[0]} {want[1]}"
            )
        entry[prefix] = unpack_uint(arr, form, size) if _packed(form) else arr.astype(np.float64)
    account = BitAccount(**meta["accounting"])
    d_row, d_col = meta["d_row"], meta["d_col"]
    if meta["kind"] == "affine":
        n_groups = -(-d_col // meta["group_size"])
        stats_q = None
        if meta["double_quantized"]:
            s_codes = entry["scalecodes"].reshape(n_groups, d_row)
            z_codes = entry["zerocodes"].reshape(n_groups, d_row)
            points = np.zeros(entry["stats2"].shape[2])  # a shifted run's zero point
            stats_q = [
                StatsQuant(
                    meta["stat_bits"], meta["stat_group"], s_code, z_code,
                    steps_s, steps_z, points, points, bases_s, bases_z,
                )
                for s_code, z_code, (steps_s, bases_s, steps_z, bases_z) in zip(
                    s_codes, z_codes, entry["stats2"]
                )
            ]
            scales, zeros = (np.stack(v, axis=1) for v in zip(*map(_dq_values, stats_q)))
        else:
            scales = entry["scales"]
            zeros = entry["zeros"].reshape(d_row, n_groups).astype(np.float64)
        outliers = []
        if meta["outlier_count"]:
            rows = np.repeat(np.arange(d_row), np.diff(entry["outlierrows"]))
            outliers = [
                (int(r), int(c), float(v))
                for r, c, v in zip(rows, entry["outliercols"], entry["outliervals"])
            ]
        return QuantizedLayer(
            bits=meta["bits"],
            group_size=meta["group_size"],
            codes=entry["codes"].reshape(d_row, d_col),
            scales=scales,
            zeros=zeros,
            outliers=outliers,
            stats_q=stats_q,
            accounting=account,
        )
    salient = entry["salient"] != 0
    if int(salient.sum()) != meta["n_salient_cols"]:
        raise MalformedArchive(
            f"layer {name!r}: salient mask has {int(salient.sum())} columns, "
            f"layers.json says {meta['n_salient_cols']}"
        )
    n_sal = meta["n_salient_cols"]
    signs2 = np.ones((d_row, d_col), dtype=np.int8)
    signs2[:, salient] = 1 - 2 * entry["signs2"].reshape(d_row, n_sal)
    membership = np.zeros((d_row, d_col), dtype=bool)
    membership[:, ~salient] = entry["membership"].reshape(d_row, d_col - n_sal) != 0
    sal_alpha1, sal_alpha2 = np.zeros(d_col), np.zeros(d_col)
    alphas = entry["alphas"]
    sal_alpha1[salient] = alphas[3 : 3 + n_sal]
    sal_alpha2[salient] = alphas[3 + n_sal :]
    return BinaryLayer(
        split_threshold=float(alphas[0]),
        alpha_low=float(alphas[1]),
        alpha_high=float(alphas[2]),
        salient_cols=salient,
        sal_alpha1=sal_alpha1,
        sal_alpha2=sal_alpha2,
        signs1=(1 - 2 * entry["signs1"].reshape(d_row, d_col)).astype(np.int8),
        signs2=signs2,
        membership=membership,
        accounting=account,
    )


def disk_extra_bits(name: str, meta: dict) -> dict[str, int]:
    """The bits a layer's archive entries hold beyond its accounted bits,
    by label; with them, 8 x the entries' bytes = accounted total + their sum.

    Affine: `scales_fp32` (16 bits over the fp16 charge per scale),
    `stats2_fp32` (second-level steps and bases: 4 x 32 bits per run, 2 x 32
    charged), `outlier_row_pointers`. Binary: `membership_bitmap` (one bit
    per non-salient weight, uncharged as in BiLLM's ~1.1-bit convention),
    `alphas_fp64` (48 bits over the fp16 charge per alpha). Both:
    `byte_padding` (the unused bits of each packed entry's last byte) and
    `entry_headers` (each entry's name, dtype and dims in the archive).
    """
    layout = _layout(meta)
    d_row = meta["d_row"]
    terms = {}
    if meta["kind"] == "binary":
        terms["membership_bitmap"] = layout["membership"][1]
        terms["alphas_fp64"] = (64 - FP16_BITS) * layout["alphas"][1][0]
    else:
        if "scales" in layout:
            terms["scales_fp32"] = (FP32_BITS - FP16_BITS) * d_row * layout["scales"][1][1]
        if "stats2" in layout:
            n_groups, _, n_runs = layout["stats2"][1]
            terms["stats2_fp32"] = 2 * FP32_BITS * n_groups * n_runs
        if "outlierrows" in layout:
            terms["outlier_row_pointers"] = ROW_POINTER_BITS * (d_row + 1)
    packed = [form * size for form, size in layout.values() if _packed(form)]
    terms["byte_padding"] = sum(-bits % 8 for bits in packed)
    terms["entry_headers"] = 8 * sum(
        entry_header_nbytes(f"{prefix}/{name}", 1 if _packed(form) else len(size))
        for prefix, (form, size) in layout.items()
    )
    return terms
