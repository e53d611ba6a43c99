"""Group-affine and binary weight quantizers plus bit accounting.

Each layer kind codes itself: `QuantizedLayer.empty` and `BinaryLayer.empty`
make a layer from a plan's fixed parts, and its range codec `code(q0, q1, ...)`
writes the codes of columns q0..q1-1 and returns their reconstruction. RTN,
both calibration sweeps and the tests' direct-solver reference
(`tests/sweep_reference.py`) code through it.

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

What a layer stores in the archive and what the accounting charges it are
one table, `_layout`: per entry, the stored form (a bit-packed width or a
float dtype), the bits charged per value, the category they count toward
and the label of whatever is stored beyond the charge. `bit_account`,
`disk_extra_bits`, `layer_to_tensors` and `layer_from_tensors` all read it;
`bit_account` returns the `accounting` object layers.json stores. Both layer
kinds are held as their archive stores them: a binary layer's planes
compacted to the columns that use them and all its alphas in one vector; an
affine layer's double-quantized statistics as two code arrays and one array
of second-level steps and bases, one row per column group. The affine group
loop is written once, in `QuantizedLayer.code`; `dequantize` decodes the
whole matrix in one `_decode` call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .archive import entry_header_nbytes
from .errors import DimMismatch, EmptyGroup, MalformedArchive
from .linalg import as_matrix

# Keeps an all-zero range's scale positive; snapped to float32 so it stores
# exactly.
SCALE_FLOOR = float(np.float32(1e-12))

FP32_BITS = 32
FP16_BITS = 16

# the outlier rows, columns and values of a layer that has none
_NO_OUTLIERS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))

__all__ = [
    "SCALE_FLOOR",
    "round_half_away",
    "bit_account",
    "QuantizedLayer",
    "rtn_quantize",
    "double_quantize_stats",
    "sign_plane",
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


def _decode(codes, scale, zero, out=None):
    """The affine reconstruction (codes - zero) * scale, broadcast
    elementwise; into `out` when given (which may be `codes`)."""
    out = np.subtract(codes, zero, out=out)
    out *= scale
    return out


# ---------------------------------------------------------------------------
# Group-affine layers
# ---------------------------------------------------------------------------


@dataclass
class QuantizedLayer:
    """Integer codes plus per-(row, group) statistics and isolated outliers.

    The outliers are three arrays in (row, col) order: the columns and
    values the archive stores, and the rows its CSR row pointers count.
    When the statistics are double-quantized (SpQR-style calibration) at
    `stat_bits` in runs of `stat_group`, the layer also holds them as the
    archive stores them, one row per column group: `scale_codes` and
    `zero_codes`, and `stats2`, each run's scale step, scale base, zero step
    and zero base (`double_quantize_stats`); `scales` and `zeros` are then
    what those dequantize to (`_dq_values`). Otherwise the three are None.
    """

    bits: int
    group_size: int
    codes: np.ndarray  # int64, d_row x d_col
    scales: np.ndarray  # float64, d_row x n_groups
    zeros: np.ndarray  # float64, d_row x n_groups
    outlier_rows: np.ndarray  # int64
    outlier_cols: np.ndarray  # int64
    outlier_vals: np.ndarray  # float64
    scale_codes: np.ndarray | None  # int64, n_groups x d_row
    zero_codes: np.ndarray | None  # int64, n_groups x d_row
    stats2: np.ndarray | None  # float64, n_groups x 4 x n_runs
    stat_bits: int | None = None
    stat_group: int | None = None

    @classmethod
    def empty(cls, d_row: int, d_col: int, bits: int, group_size: int, outliers=_NO_OUTLIERS,
              stat_bits: int | None = None, stat_group: int | None = None) -> QuantizedLayer:
        """A layer for `code` to fill: the plan's fixed parts, `outliers` as
        (rows, cols, values), and room for the codes and statistics,
        column-major as the sweep writes them. With `stat_bits` the
        statistics are double-quantized in runs of `stat_group`, and the
        layer has room for their codes, steps and bases too."""
        if group_size < 1:
            raise DimMismatch(f"group_size must be >= 1, got {group_size}")
        n_groups = -(-d_col // group_size)
        codes = np.empty((d_row, d_col), dtype=np.int64, order="F")
        scales = np.empty((d_row, n_groups), order="F")
        zeros = np.empty((d_row, n_groups), order="F")
        stats = (None, None, None)
        if stat_bits is not None:
            if stat_group < 1:
                raise DimMismatch(f"stat_group must be >= 1, got {stat_group}")
            stats = (np.empty((n_groups, d_row), dtype=np.int64),
                     np.empty((n_groups, d_row), dtype=np.int64),
                     np.empty((n_groups, 4, -(-d_row // stat_group))))
        return cls(bits, group_size, codes, scales, zeros, *outliers, *stats, stat_bits, stat_group)

    @property
    def d_row(self) -> int:
        return self.codes.shape[0]

    @property
    def d_col(self) -> int:
        return self.codes.shape[1]

    @property
    def meta(self) -> dict:
        """The layers.json metadata that `_layout` reads."""
        return {
            "kind": "affine",
            "d_row": self.d_row,
            "d_col": self.d_col,
            "bits": self.bits,
            "group_size": self.group_size,
            "outlier_count": len(self.outlier_vals),
            "double_quantized": self.stats2 is not None,
            "stat_bits": self.stat_bits,
            "stat_group": self.stat_group,
        }

    def code(self, q0: int, q1: int, work: np.ndarray, valid: np.ndarray | None = None):
        """Code columns q0..q1-1 of `work` and return their reconstruction,
        outliers coded like any other weight.

        The one affine group loop: each group the range meets is coded in
        group order (`_code_group`), one group, and a few ufunc calls on
        contiguous columns, for the compensated sweep's one-column calls on
        a column-major `work`. A group that starts in the range is first
        fitted to its columns of `work`, with only the entries `valid` marks
        shaping the range (`_fit_group_rows`); double-quantized statistics
        fill the group's rows of `scale_codes`, `zero_codes` and `stats2`,
        and the group keeps the scales and zeros they dequantize to. A fit
        reads only `work`, which coding leaves alone.
        """
        gs, bits = self.group_size, self.bits
        deq = np.empty((work.shape[0], q1 - q0))
        for c0 in range(q0 - q0 % gs, q1, gs):
            g, lo, hi = c0 // gs, max(c0, q0), min(c0 + gs, q1)
            if c0 >= q0:
                scale, zero = _fit_group_rows(
                    work[:, c0 : c0 + gs], bits, None if valid is None else valid[:, c0 : c0 + gs]
                )
                if self.stats2 is not None:
                    self.scale_codes[g], self.zero_codes[g], self.stats2[g], scale, zero = (
                        double_quantize_stats(scale, zero, self.stat_bits, self.stat_group)
                    )
                self.scales[:, g], self.zeros[:, g] = scale, zero
            _code_group(work[:, lo:hi], self.scales[:, g, None], self.zeros[:, g, None], bits,
                        self.codes[:, lo:hi], deq[:, lo - q0 : hi - q0])
        return deq

    def dequantize(self) -> np.ndarray:
        """Reconstruct the weight matrix, C-ordered whatever the layout of
        `codes`, in one `_decode` call over each column's group statistics;
        outliers return their stored value."""
        g = np.arange(self.d_col) // self.group_size
        out = np.empty(self.codes.shape)
        _decode(self.codes, self.scales[:, g], self.zeros[:, g], out=out)
        out[self.outlier_rows, self.outlier_cols] = self.outlier_vals
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
    kept = block
    if valid is not None:
        # zero is in every range, so a masked entry counts as a zero
        kept = np.where(valid | ~valid.any(axis=1, keepdims=True), block, 0.0)
    lo = np.minimum(kept.min(axis=1), 0.0)
    hi = np.maximum(kept.max(axis=1), 0.0)
    maxq = (1 << bits) - 1
    scale = np.maximum(_f32_round_up((hi - lo) / maxq), SCALE_FLOOR)
    zero = np.clip(round_half_away(-lo / scale), 0, maxq)
    return scale, zero


def _code_group(block, scale, zero, bits, codes, out=None):
    """Code `block` under the statistics `scale` and `zero` (broadcast
    against it), writing the codes into `codes`, and return the
    reconstruction (in `out` when given).

    A code is clamp(round_half_away(x), 0, maxq) for x = block / scale +
    zero, computed as clamp(floor(x + 0.5), 0, maxq): the two agree bit for
    bit, since for x >= 0 they are the same rounding and below zero both
    clamp to 0.
    """
    x = np.divide(block, scale, out=out)
    x += zero
    x += 0.5
    np.floor(x, out=x)
    np.maximum(x, 0.0, out=x)
    np.minimum(x, (1 << bits) - 1, out=x)
    codes[...] = x
    return _decode(x, scale, zero, out=x)


def rtn_quantize(w, bits: int, group_size: int) -> QuantizedLayer:
    """Round-to-nearest group quantization with no outliers or compensation:
    one `code` call over all columns."""
    m = as_matrix(w)
    layer = QuantizedLayer.empty(*m.shape, bits, group_size)
    layer.code(0, m.shape[1], m)
    return layer


# ---------------------------------------------------------------------------
# Double quantization of quantization statistics
# ---------------------------------------------------------------------------


def _dq_runs(values: np.ndarray, stat_bits: int, stat_group: int):
    # A ragged last run is padded with its own last value, which leaves the
    # run's min and max, and so its fit, unchanged.
    runs = np.pad(values, (0, -values.size % stat_group), mode="edge")
    runs = runs.reshape(-1, stat_group)
    bases = runs.min(axis=1)
    shifted = runs - bases[:, None]
    # A constant run dequantizes exactly to its base.
    steps, _ = _fit_group_rows(shifted, stat_bits)
    codes = np.empty(shifted.shape, dtype=np.int64)
    _code_group(shifted, steps[:, None], 0.0, stat_bits, codes)
    return codes.ravel()[: values.size], steps, bases


def _dq_values(scale_codes, zero_codes, stats2, stat_group: int):
    """The scales and zeros double-quantized statistics dequantize to, any
    number of groups in one broadcast call: codes (..., n) and `stats2`
    (..., 4, n_runs) give (..., n) each. An entry is code * step + base of
    its run, scales floored to stay positive, both snapped to float32. The
    snap is not what makes reloads exact: the codes and the float32-exact
    `stats2` are stored exactly, so a reload recomputes the same values
    with or without it. Dropping it would move SpQR codes."""
    r = np.arange(scale_codes.shape[-1]) // stat_group
    scale_step, scale_base, zero_step, zero_base = np.moveaxis(stats2[..., r], -2, 0)
    scales = np.maximum(_decode(scale_codes, scale_step, 0.0) + scale_base, SCALE_FLOOR)
    zeros = _decode(zero_codes, zero_step, 0.0) + zero_base
    return scales.astype(np.float32).astype(np.float64), zeros.astype(np.float32).astype(np.float64)


def double_quantize_stats(scales, zeros, stat_bits: int, stat_group: int):
    """Affine-quantize first-level scales and zeros in runs of `stat_group`.

    Each run is quantized relative to its minimum (its base), which keeps
    the second-level grid tight even though scales are strictly positive; a
    shifted run's minimum is 0, so its zero point is always 0 and is not
    kept. Returns the scale codes, the zero codes, the (4, n_runs) steps and
    bases in the archive's order (scale step, scale base, zero step, zero
    base), and the scales and zeros they dequantize to (`_dq_values`),
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
    s_codes, s_steps, s_bases = _dq_runs(scales, stat_bits, stat_group)
    z_codes, z_steps, z_bases = _dq_runs(zeros, stat_bits, stat_group)
    stats2 = np.stack([s_steps, s_bases, z_steps, z_bases])
    return (s_codes, z_codes, stats2, *_dq_values(s_codes, z_codes, stats2, stat_group))


# ---------------------------------------------------------------------------
# Binary quantization primitives
# ---------------------------------------------------------------------------


def sign_plane(v: np.ndarray) -> np.ndarray:
    """-1.0 where v < 0, else +1.0: sign(0) = +1 for a deterministic tie-break."""
    return np.where(v < 0.0, -1.0, 1.0)


def binarize_region(values) -> tuple[float, np.ndarray]:
    """Best single-plane approximation alpha * sign(v) in the l2 sense."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise EmptyGroup("cannot binarize an empty region")
    alpha = float(np.mean(np.abs(v)))
    return alpha, sign_plane(v)


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

    Besides `values`, at most two arrays of its size are alive at once: the
    sorted magnitudes and one prefix sum, or the distinct magnitudes.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise EmptyGroup("cannot split an empty region")
    mags = np.abs(v)
    mags.sort()
    distinct = mags[np.concatenate([[True], mags[1:] != mags[:-1]])]
    if distinct.size <= SPLIT_CANDIDATES:
        candidates = distinct
    else:
        qs = np.linspace(0.0, 1.0, SPLIT_CANDIDATES)
        candidates = np.unique(np.quantile(distinct, qs, overwrite_input=True))
    del distinct
    # The smallest candidate is the smallest magnitude, so n_low >= 1 and the
    # low side's prefix ends at index n_low - 1.
    n_low = np.searchsorted(mags, candidates, side="right")
    n_high = mags.size - n_low
    sums = np.cumsum(mags)
    sum_low, total = sums[n_low - 1], sums[-1]
    del sums
    squares = np.square(mags, out=mags)
    np.cumsum(squares, out=squares)
    sq_low, sq_total = squares[n_low - 1], squares[-1]
    err_low = sq_low - sum_low**2 / n_low
    err_high = sq_total - sq_low - (total - sum_low) ** 2 / np.maximum(n_high, 1)
    err = err_low + err_high
    # Scores within the prefix sums' rounding of the best count as ties.
    tied = err <= err.min() + 1e-12 * sq_total
    return float(candidates[np.argmax(tied)])


@dataclass
class BinaryLayer:
    """Sign planes with per-segment magnitudes, held as the archive stores them.

    Salient columns carry two planes (base plus residual) with per-column
    alphas; the remaining columns carry one plane whose magnitude is the
    shared low or high alpha selected by the split threshold. `membership`
    marks the high-magnitude region and is decode-side metadata.
    """

    signs1: np.ndarray  # int8 +-1, d_row x d_col
    signs2: np.ndarray  # int8 +-1, d_row x n_salient: the salient columns' residual plane
    membership: np.ndarray  # bool, d_row x (d_col - n_salient): True = high alpha
    salient_cols: np.ndarray  # bool, d_col
    alphas: np.ndarray  # float64: threshold, low and high alpha, salient alpha1s, alpha2s

    @classmethod
    def empty(cls, d_row: int, salient_cols: np.ndarray, split_threshold: float,
              alpha_low: float, alpha_high: float) -> BinaryLayer:
        """A layer for `code` to fill: the plan's salient columns, split
        threshold and shared alphas, and room for the planes (column-major,
        as the sweep writes them) and the salient columns' alphas."""
        n_sal = int(salient_cols.sum())
        return cls(
            signs1=np.ones((d_row, salient_cols.size), dtype=np.int8, order="F"),
            signs2=np.ones((d_row, n_sal), dtype=np.int8, order="F"),
            membership=np.zeros((d_row, salient_cols.size - n_sal), dtype=bool, order="F"),
            salient_cols=salient_cols,
            alphas=np.array([split_threshold, alpha_low, alpha_high] + [0.0] * (2 * n_sal)),
        )

    @property
    def d_row(self) -> int:
        return self.signs1.shape[0]

    @property
    def d_col(self) -> int:
        return self.signs1.shape[1]

    @property
    def meta(self) -> dict:
        """The layers.json metadata that `_layout` reads."""
        n_sal = int(self.salient_cols.sum())
        return {"kind": "binary", "d_row": self.d_row, "d_col": self.d_col, "n_salient_cols": n_sal}

    def code(self, q0: int, q1: int, cols: np.ndarray) -> np.ndarray:
        """Code columns q0..q1-1, whose values `cols` holds, and return their
        reconstruction: a salient column by `residual_binarize`, any other
        weight as its sign times the low or high alpha."""
        sgn = sign_plane(cols)
        self.signs1[:, q0:q1] = sgn
        threshold, low, high = self.alphas[:3].tolist()
        above = np.abs(cols) > threshold
        # row-major whatever `cols` is: the proxy error's GEMM reads it
        deq = np.multiply(sgn, np.where(above, high, low), order="C")
        s0 = int(np.count_nonzero(self.salient_cols[:q0]))  # salient columns left of q0
        picked = self.salient_cols[q0:q1].nonzero()[0]
        if not picked.size:
            self.membership[:, q0 - s0 : q1 - s0] = above
            return deq
        self.membership[:, q0 - s0 : q1 - s0 - picked.size] = np.delete(above, picked, axis=1)
        n_sal = self.signs2.shape[1]
        for s, j in enumerate(picked.tolist(), s0):
            a1, _, a2, signs2 = residual_binarize(cols[:, j])
            self.alphas[3 + s], self.alphas[3 + n_sal + s] = a1, a2
            self.signs2[:, s] = signs2
            deq[:, j] = a1 * sgn[:, j] + a2 * signs2
        return deq

    def dequantize(self) -> np.ndarray:
        sal = self.salient_cols
        n_sal = self.signs2.shape[1]
        _, low, high = self.alphas[:3]
        out = np.empty(self.signs1.shape)
        out[:, ~sal] = self.signs1[:, ~sal] * np.where(self.membership, high, low)
        out[:, sal] = (
            self.signs1[:, sal] * self.alphas[3 : 3 + n_sal]
            + self.signs2 * self.alphas[3 + n_sal :]
        )
        return out


# ---------------------------------------------------------------------------
# Layer layout: what each layer stores and what it is charged
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Entry:
    """One archive entry of a layer: the shape of its values; `form`, a bit
    width for unsigned integers bit-packed by `pack_uint` or a float dtype;
    the bits charged per value and the `bit_account` category they count
    toward; and `label`, the name of the bits it stores beyond that charge."""

    shape: tuple[int, ...]
    form: int | type
    charge: int
    category: str
    label: str | None = None

    @property
    def packed(self) -> bool:
        return isinstance(self.form, int)

    @property
    def count(self) -> int:
        return math.prod(self.shape)

    @property
    def stored_bits(self) -> int:
        """Bits per value on disk, byte padding aside."""
        return self.form if self.packed else 8 * np.dtype(self.form).itemsize


def _layout(meta: dict) -> dict[str, _Entry]:
    """The one table of what a layer stores and what it is charged, derived
    from its layers.json metadata: archive prefix -> `_Entry`, in archive
    order. A ragged last group or statistics run is stored, and charged, whole.
    """
    d_row, d_col = meta["d_row"], meta["d_col"]
    weight, stats, outlier = "weight_bits", "stats_bits", "outlier_bits"
    if meta["kind"] == "binary":
        n_sal = meta["n_salient_cols"]
        return {
            "signs1": _Entry((d_row, d_col), 1, 1, weight),
            "signs2": _Entry((d_row, n_sal), 1, 1, weight),  # salient columns only
            # Which alpha each non-salient weight takes: stored, but left
            # uncharged as in BiLLM's ~1.1-bit convention (arXiv 2402.04291).
            "membership": _Entry((d_row, d_col - n_sal), 1, 0, weight, "membership_bitmap"),
            "salient": _Entry((d_col,), 1, 1, stats),
            # Split threshold, low and high alphas, the salient columns' two
            # alphas: charged as fp16, stored unrounded.
            "alphas": _Entry((3 + 2 * n_sal,), np.float64, FP16_BITS, stats, "alphas_fp64"),
        }
    if meta["kind"] != "affine":
        raise MalformedArchive(f"unknown layer kind {meta['kind']!r}")
    n_groups = -(-d_col // meta["group_size"])
    layout = {"codes": _Entry((d_row, d_col), meta["bits"], meta["bits"], weight)}
    if meta["double_quantized"]:
        n_runs, stat_bits = -(-d_row // meta["stat_group"]), meta["stat_bits"]
        layout["scalecodes"] = _Entry((n_groups, d_row), stat_bits, stat_bits, stats)
        layout["zerocodes"] = _Entry((n_groups, d_row), stat_bits, stat_bits, stats)
        # Per group and run: scale step and base, zero step and base, stored
        # as float32 and charged as fp16 (2 x 32 bits per run).
        layout["stats2"] = _Entry(
            (n_groups, 4, n_runs), np.float32, FP16_BITS, stats, "stats2_fp32"
        )
    else:
        # Scales are charged as fp16; zero points are integers, exact at 16 bits.
        layout["scales"] = _Entry((d_row, n_groups), np.float32, FP16_BITS, stats, "scales_fp32")
        layout["zeros"] = _Entry((d_row, n_groups), FP16_BITS, FP16_BITS, stats)
    n_out = meta["outlier_count"]
    if n_out:
        # An fp32 value and a 16-bit column each; the CSR row pointers are
        # stored but not charged.
        layout["outliervals"] = _Entry((n_out,), np.float32, FP32_BITS, outlier)
        layout["outliercols"] = _Entry((n_out,), 16, 16, outlier)
        layout["outlierrows"] = _Entry((d_row + 1,), 32, 0, outlier, "outlier_row_pointers")
    return layout


def bit_account(meta: dict) -> dict[str, float]:
    """What a layer is charged, as layers.json's `accounting` object stores
    it: each `_layout` entry's charge per value times its count, summed by
    category (`weight_bits`, `stats_bits`, `outlier_bits`), and their total
    over the weight count (`avg_bits_per_weight`)."""
    account = {"weight_bits": 0.0, "stats_bits": 0.0, "outlier_bits": 0.0}
    for entry in _layout(meta).values():
        account[entry.category] += float(entry.charge * entry.count)
    account["avg_bits_per_weight"] = sum(account.values()) / (meta["d_row"] * meta["d_col"])
    return account


def disk_extra_bits(name: str, meta: dict) -> dict[str, int]:
    """The bits a layer's archive entries hold beyond its accounted bits,
    by label; with them, 8 x the entries' bytes = accounted total + their sum.

    Each labelled `_layout` entry gives its stored bits beyond its charge;
    `byte_padding` is the unused bits of each packed entry's last byte and
    `entry_headers` each entry's name, dtype and dims in the archive.
    """
    layout = _layout(meta)
    terms = {e.label: (e.stored_bits - e.charge) * e.count for e in layout.values() if e.label}
    terms["byte_padding"] = sum(-(e.form * e.count) % 8 for e in layout.values() if e.packed)
    terms["entry_headers"] = 8 * sum(
        entry_header_nbytes(f"{prefix}/{name}", 1 if e.packed else len(e.shape))
        for prefix, e in layout.items()
    )
    return terms


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
    v = np.asarray(values)
    if v.dtype.kind not in "biu":
        raise DimMismatch(f"only integers are packed, got {v.dtype}")
    if v.size and (v.min() < 0 or int(v.max()) >> width):
        raise DimMismatch(f"values outside [0, 2^{width}) cannot be packed")
    # shifted in the narrowest unsigned dtype that holds `width` bits
    v = v.astype(np.min_scalar_type((1 << width) - 1), order="C", copy=False).ravel()
    if 8 * v.itemsize == width:  # whole bytes: the stream is each value's little-endian bytes
        return v.astype(v.dtype.newbyteorder("<")).view(np.uint8)
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


def layer_to_tensors(name: str, layer) -> tuple[dict[str, np.ndarray], dict]:
    """Tensor entries plus layers.json metadata for one quantized layer.

    The entries are `<prefix>/<name>`, one per entry of the layer's
    `_layout`, integers bit-packed by `pack_uint` into uint8 entries. The
    metadata is the layer's `meta` plus its `accounting` (`bit_account`).
    """
    if isinstance(layer, QuantizedLayer):
        values = {
            "codes": layer.codes,
            "scalecodes": layer.scale_codes,
            "zerocodes": layer.zero_codes,
            "stats2": layer.stats2,
            "scales": layer.scales,
            "zeros": layer.zeros.astype(np.int64),
            "outliervals": layer.outlier_vals,
            "outliercols": layer.outlier_cols,
            "outlierrows": np.searchsorted(layer.outlier_rows, np.arange(layer.d_row + 1)),
        }
    elif isinstance(layer, BinaryLayer):
        values = {
            "signs1": layer.signs1 < 0,
            "signs2": layer.signs2 < 0,
            "membership": layer.membership,
            "salient": layer.salient_cols,
            "alphas": layer.alphas,
        }
    else:
        raise DimMismatch(f"unknown layer type {type(layer)!r}")
    meta = layer.meta
    tensors = {
        f"{prefix}/{name}": (
            pack_uint(values[prefix], e.form)
            if e.packed
            else np.asarray(values[prefix], dtype=e.form)
        )
        for prefix, e in _layout(meta).items()
    }
    return tensors, {**meta, "accounting": bit_account(meta)}


def _outliers(name: str, entry: dict, meta: dict):
    """An affine layer's outliers (rows, cols, values) from its unpacked
    entries, which hold CSR row pointers in place of rows. MalformedArchive
    unless the pointers index exactly `outlier_count` outliers and each
    column is one of the layer's."""
    if not meta["outlier_count"]:
        return _NO_OUTLIERS
    pointers, cols = entry["outlierrows"], entry["outliercols"]
    per_row = np.diff(pointers)
    ends = (int(pointers[0]), int(pointers[-1]))
    if ends != (0, meta["outlier_count"]) or np.any(per_row < 0) or np.any(cols >= meta["d_col"]):
        raise MalformedArchive(
            f"layer {name!r}: outlier rows and columns do not index "
            f"{meta['outlier_count']} weights of a {meta['d_row']}x{meta['d_col']} matrix"
        )
    return np.repeat(np.arange(meta["d_row"]), per_row), cols, entry["outliervals"]


def _check_meta(name: str, meta: dict) -> None:
    """MalformedArchive unless `meta` is metadata `_layout` can read: a known
    kind, and each size it reads an integer in its range."""
    if not isinstance(meta, dict):
        raise MalformedArchive(f"layer {name!r}: metadata is {meta!r}, not an object")
    kind = meta.get("kind")
    if kind not in ("affine", "binary"):
        raise MalformedArchive(f"layer {name!r}: unknown layer kind {kind!r}")
    ranges = {"d_row": (1, math.inf), "d_col": (1, math.inf)}
    if kind == "binary":
        ranges["n_salient_cols"] = (0, meta.get("d_col"))
    else:
        ranges.update(bits=(1, 8), group_size=(1, math.inf), outlier_count=(0, math.inf))
        if type(meta.get("double_quantized")) is not bool:
            raise MalformedArchive(f"layer {name!r}: double_quantized is not true or false")
        if meta["double_quantized"]:
            ranges.update(stat_bits=(2, 8), stat_group=(1, math.inf))
    for key, (lo, hi) in ranges.items():
        value = meta.get(key)
        if type(value) is not int or not lo <= value <= hi:
            raise MalformedArchive(
                f"layer {name!r}: {key} is {value!r}, expected an integer in [{lo}, {hi}]"
            )


def layer_from_tensors(name: str, tensors: dict, meta: dict):
    """Rebuild a layer from archive tensors; inverse of layer_to_tensors.

    `meta` must pass `_check_meta`, and the layer's entries must be exactly
    the ones `_layout` derives from it, each of the dtype and size it
    implies, else MalformedArchive: an unknown kind or a size out of its
    range, a missing or leftover entry (such as those of a layer archive
    written before integers were bit-packed), a payload whose byte count
    disagrees with the metadata, or outliers that index no weights of the
    layer (`_outliers`). So must `meta`'s `accounting` agree with the one
    `bit_account` derives. A double-quantized layer gets its codes, steps
    and bases back as stored, and one `_dq_values` call over all its groups
    dequantizes its statistics as they were.
    """
    _check_meta(name, meta)
    layout = _layout(meta)
    account = bit_account(meta)
    if meta.get("accounting") != account:
        raise MalformedArchive(
            f"layer {name!r}: layers.json charges {meta.get('accounting')}, "
            f"its layout charges {account}"
        )
    held = {key.partition("/")[0] for key in tensors if key.partition("/")[2] == name}
    if held != set(layout):
        raise MalformedArchive(
            f"layer {name!r} of kind {meta['kind']!r} has entries {sorted(held)}, "
            f"expected {sorted(layout)}"
        )
    entry = {}
    for prefix, e in layout.items():
        key = f"{prefix}/{name}"
        arr = np.asarray(tensors[key])
        if e.packed:
            want = (np.dtype(np.uint8), (-(-e.count * e.form // 8),))
        else:
            want = (np.dtype(e.form), e.shape)
        if (arr.dtype, arr.shape) != want:
            raise MalformedArchive(
                f"{key} is {arr.dtype} {arr.shape}, layers.json implies {want[0]} {want[1]}"
            )
        if e.packed:
            entry[prefix] = unpack_uint(arr, e.form, e.count).reshape(e.shape)
        else:
            entry[prefix] = arr.astype(np.float64)
    if meta["kind"] == "affine":
        stats = entry.get("scalecodes"), entry.get("zerocodes"), entry.get("stats2")
        if meta["double_quantized"]:
            scales, zeros = (v.T for v in _dq_values(*stats, meta["stat_group"]))
        else:
            scales, zeros = entry["scales"], entry["zeros"].astype(np.float64)
        return QuantizedLayer(meta["bits"], meta["group_size"], entry["codes"], scales, zeros,
                              *_outliers(name, entry, meta), *stats, meta.get("stat_bits"),
                              meta.get("stat_group"))
    salient = entry["salient"] != 0
    if int(salient.sum()) != meta["n_salient_cols"]:
        raise MalformedArchive(
            f"layer {name!r}: salient mask has {int(salient.sum())} columns, "
            f"layers.json says {meta['n_salient_cols']}"
        )
    return BinaryLayer(
        signs1=(1 - 2 * entry["signs1"]).astype(np.int8),
        signs2=(1 - 2 * entry["signs2"]).astype(np.int8),
        membership=entry["membership"] != 0,
        salient_cols=salient,
        alphas=entry["alphas"],
    )
