import contextlib
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oacal.archive import archive_read, archive_write, entry_nbytes
from oacal.calibrate import Backend, CalibSpec, calibrate_layer
from oacal.errors import DimMismatch, EmptyGroup, MalformedArchive
from oacal.quant import (
    SCALE_FLOOR,
    _code_group,
    _dq_values,
    _f32_round_up,
    _fit_group_rows,
    _layout,
    QuantizedLayer,
    bit_account,
    binarize_region,
    disk_extra_bits,
    double_quantize_stats,
    layer_from_tensors,
    layer_to_tensors,
    pack_uint,
    residual_binarize,
    round_half_away,
    rtn_quantize,
    splitting_search,
    unpack_uint,
)
from sweep_reference import affine_dequantize


def affine_meta(d_row, d_col, bits, group_size, n_outliers, stat_bits=None, stat_group=None):
    """layers.json metadata of an affine layer; double-quantized iff `stat_bits`."""
    return {
        "kind": "affine", "d_row": d_row, "d_col": d_col, "bits": bits,
        "group_size": group_size, "outlier_count": n_outliers,
        "double_quantized": stat_bits is not None, "stat_bits": stat_bits,
        "stat_group": stat_group,
    }


def binary_meta(d_row, d_col, n_salient_cols):
    return {"kind": "binary", "d_row": d_row, "d_col": d_col, "n_salient_cols": n_salient_cols}


def affine_reference(n_rows, n_cols, bits, group_size, n_outliers, stat_bits=None, stat_group=None):
    """The closed-form charge of a group-affine layer, the reference for
    `bit_account`: `bits` per code; per row of each of the
    ceil(n_cols / group_size) groups, a scale and a zero point (fp16 each
    without double quantization, stat_bits each with it); with double
    quantization, 2 x 32 bits for the second-level parameters of each of a
    group's ceil(n_rows / stat_group) runs; 32 + 16 bits per outlier (fp32
    value plus a 16-bit column index). A ragged last group or run is charged
    whole, as it is stored."""
    n = n_rows * n_cols
    n_groups = -(-n_cols // group_size)
    if stat_bits is None:
        stats_bits = float(n_groups * n_rows * 2 * 16)
    else:
        n_runs = -(-n_rows // stat_group)
        stats_bits = float(n_groups * (n_rows * 2 * stat_bits + n_runs * 2 * 32))
    weight_bits = float(bits) * n
    outlier_bits = float(n_outliers) * (32 + 16)
    avg = bits + stats_bits / n + (n_outliers / n) * (32 + 16)
    return {"weight_bits": weight_bits, "stats_bits": stats_bits, "outlier_bits": outlier_bits,
            "avg_bits_per_weight": avg}


def binary_reference(n_rows, n_cols, n_salient_cols):
    """The closed-form charge of a binary layer: one sign plane per weight
    plus a second plane on salient columns; fp16 alphas (two per salient
    column, two shared low/high magnitudes, one split threshold) and a
    one-bit per-column salient mask. The low/high membership of non-salient
    weights is not charged, the convention behind ~1.1-bit binary
    footprints."""
    n = n_rows * n_cols
    weight_bits = float(n) + float(n_salient_cols * n_rows)
    stats_bits = 16 * (2 * n_salient_cols + 2 + 1) + float(n_cols)
    return {"weight_bits": weight_bits, "stats_bits": stats_bits, "outlier_bits": 0.0,
            "avg_bits_per_weight": (weight_bits + stats_bits) / n}


def charged_bits(account):
    """The total an `accounting` object charges, its categories added in order."""
    return account["weight_bits"] + account["stats_bits"] + account["outlier_bits"]


def test_round_half_away():
    np.testing.assert_array_equal(
        round_half_away([0.5, 1.5, -0.5, -1.5, 2.4, -2.6]),
        [1.0, 2.0, -1.0, -2.0, 2.0, -3.0],
    )


def one_group(values, bits):
    """RTN of `values` as one row and one group: (scale, zero, codes, reconstruction)."""
    vals = np.asarray(values, dtype=np.float64)
    layer = rtn_quantize(vals[None, :], bits, group_size=vals.size)
    return layer.scales[0, 0], layer.zeros[0, 0], layer.codes[0], layer.dequantize()[0]


class TestFitAffine:
    def test_exactly_representable(self):
        scale, zero, _, _ = one_group([0.0, 1.0, 2.0, 3.0], bits=2)
        assert scale == 1.0
        assert zero == 0.0

    def test_constant_group(self):
        # the zero-widened range is [0, 5]: every value codes at the top
        scale, zero, codes, deq = one_group([5.0, 5.0, 5.0], bits=2)
        assert scale == _f32_round_up(5.0 / 3)
        assert zero == 0.0
        np.testing.assert_array_equal(codes, [3, 3, 3])
        np.testing.assert_allclose(deq, 5.0, rtol=np.finfo(np.float32).eps, atol=0)
        # only an all-zero range meets the floor
        scale, zero, codes, deq = one_group([0.0, 0.0, 0.0], bits=2)
        assert scale == SCALE_FLOOR
        assert zero == 0.0
        np.testing.assert_array_equal(deq, [0.0, 0.0, 0.0])

    def test_symmetric_group_hand_evaluated(self):
        # scale (3 - -3)/3 = 2; zero round(3/2) = 2 with half away from zero
        scale, zero, _, _ = one_group([-3.0, 0.0, 3.0], bits=2)
        assert scale == 2.0
        assert zero == 2.0

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            _fit_group_rows(np.empty((1, 0)), bits=2)


class TestQuantizeDequantize:
    def test_zero_point_exact(self):
        scale, zero = np.array([[2.0]]), np.array([[2.0]])
        code = np.empty((1, 1), dtype=np.int64)
        deq = _code_group(np.zeros((1, 1)), scale, zero, 2, code)
        assert code[0, 0] == 2
        assert deq[0, 0] == 0.0

    def test_clamp_top_of_range(self):
        _, _, codes, deq = one_group([-3.0, 0.0, 3.0], bits=2)
        assert codes[2] == 3  # round gives 4, clamped into range
        assert deq[2] == 2.0

    def test_error_bound_random_groups(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            bits = int(rng.integers(1, 9))
            n = int(rng.integers(2, 40))
            vals = rng.standard_normal(n) * float(rng.uniform(0.01, 100))
            scale, _, _, deq = one_group(vals, bits)
            assert np.max(np.abs(vals - deq)) <= scale / 2 + 1e-9

    def test_group_min_error_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            vals = np.sort(rng.standard_normal(8))
            scale, _, _, deq = one_group(vals, bits=3)
            assert abs(vals[0] - deq[0]) <= scale / 2 + 1e-9

    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(
            st.floats(
                min_value=-1e4,
                max_value=1e4,
                allow_nan=False,
                allow_infinity=False,
                width=32,
            ),
            min_size=1,
            max_size=32,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_bound_holds_for_arbitrary_groups(self, bits, raw):
        # includes one-sided groups: the fitted range is widened to zero
        vals = np.asarray(raw, dtype=np.float64)
        scale, _, _, deq = one_group(vals, bits)
        assert np.max(np.abs(vals - deq)) <= scale / 2 + 1e-9


class TestRtnQuantize:
    def test_identity_within_half_scale(self):
        layer = rtn_quantize(np.eye(2), bits=2, group_size=2)
        err = np.abs(np.eye(2) - layer.dequantize())
        bound = layer.scales[:, 0][:, None] / 2 + 1e-9
        assert np.all(err <= bound)

    def test_exact_round_trip_on_grid(self):
        # values already on each group's 4-level grid reproduce exactly
        base = np.array([[0.0, 1.0, 2.0, 3.0], [-1.0, 0.0, 1.0, 2.0]])
        layer = rtn_quantize(base, bits=2, group_size=4)
        np.testing.assert_allclose(layer.dequantize(), base, atol=1e-12)

    def test_per_entry_bound_random(self):
        rng = np.random.default_rng(42)
        w = rng.standard_normal((8, 8))
        layer = rtn_quantize(w, bits=2, group_size=4)
        deq = layer.dequantize()
        for r in range(8):
            for c in range(8):
                s = layer.scales[r, c // 4]
                assert abs(w[r, c] - deq[r, c]) <= s / 2 + 1e-9

    def test_ragged_last_group(self):
        w = np.random.default_rng(43).standard_normal((3, 10))
        layer = rtn_quantize(w, bits=3, group_size=4)
        assert layer.scales.shape == (3, 3)  # groups of 4, 4, 2
        deq = layer.dequantize()
        assert deq.shape == w.shape

    def test_codes_in_range(self):
        w = np.random.default_rng(44).standard_normal((6, 12)) * 10
        layer = rtn_quantize(w, bits=2, group_size=3)
        assert layer.codes.min() >= 0
        assert layer.codes.max() <= 3

    def test_accounting_rtn(self):
        layer = rtn_quantize(np.zeros((4, 8)), bits=2, group_size=4)
        # 2 code bits plus two fp16 stats per 4-weight group
        assert bit_account(layer.meta)["avg_bits_per_weight"] == 2 + 32 / 4

    @pytest.mark.parametrize("group_size", [0, -1])
    def test_group_size_below_one_rejected(self, group_size):
        with pytest.raises(DimMismatch, match="group_size"):
            rtn_quantize(np.ones((2, 4)), bits=2, group_size=group_size)


class TestDoubleQuantizeStats:
    def test_constant_scales_exact(self):
        s_codes, z_codes, stats2, new_scales, new_zeros = double_quantize_stats(
            np.full(8, 0.5), np.full(8, 1.0), stat_bits=3, stat_group=4
        )
        for scale, zero in zip(new_scales, new_zeros):
            assert scale == 0.5
            assert zero == 1.0
        # a constant run codes to 0 on the floor step and takes its value as base
        assert s_codes.tolist() == z_codes.tolist() == [0] * 8
        assert stats2.tolist() == [[SCALE_FLOOR] * 2, [0.5] * 2, [SCALE_FLOOR] * 2, [1.0] * 2]

    @pytest.mark.parametrize("stat_bits", [2, 3, 8])
    def test_returns_codes_steps_and_bases(self, stat_bits):
        # 10 statistics in runs of 4: the last run is ragged
        rng = np.random.default_rng(46)
        scales, zeros = rng.uniform(0.1, 2.0, size=10), rng.integers(0, 4, size=10) * 1.0
        s_codes, z_codes, stats2, new_scales, new_zeros = double_quantize_stats(
            scales, zeros, stat_bits, stat_group=4
        )
        assert s_codes.dtype == z_codes.dtype == np.int64
        assert s_codes.shape == z_codes.shape == (10,)
        assert 0 <= min(s_codes.min(), z_codes.min())
        assert max(s_codes.max(), z_codes.max()) <= (1 << stat_bits) - 1
        assert stats2.dtype == np.float64 and stats2.shape == (4, 3)
        # rows: scale step, scale base, zero step, zero base; a base is its run's minimum
        runs = [slice(0, 4), slice(4, 8), slice(8, 10)]
        assert stats2[1].tolist() == [scales[r].min() for r in runs]
        assert stats2[3].tolist() == [zeros[r].min() for r in runs]
        r = np.arange(10) // 4
        want = np.maximum(s_codes * stats2[0, r] + stats2[1, r], SCALE_FLOOR)
        assert new_scales.tobytes() == want.astype(np.float32).astype(np.float64).tobytes()
        want = (z_codes * stats2[2, r] + stats2[3, r]).astype(np.float32).astype(np.float64)
        assert new_zeros.tobytes() == want.tobytes()

    def test_many_groups_dequantize_in_one_call(self):
        rng = np.random.default_rng(47)
        groups = [
            double_quantize_stats(rng.uniform(0.1, 2.0, 7), rng.integers(0, 8, 7) * 1.0, 3, 3)
            for _ in range(4)
        ]
        s_codes, z_codes, stats2, scales, zeros = (np.stack(v) for v in zip(*groups))
        got_scales, got_zeros = _dq_values(s_codes, z_codes, stats2, 3)
        assert got_scales.tobytes() == scales.tobytes()
        assert got_zeros.tobytes() == zeros.tobytes()

    def test_stat_error_bound(self):
        rng = np.random.default_rng(45)
        scales = rng.uniform(0.1, 2.0, size=16)
        *_, new_scales, _ = double_quantize_stats(
            scales, np.ones(16), stat_bits=8, stat_group=16
        )
        stat_range = scales.max() - scales.min()
        assert np.max(np.abs(new_scales - scales)) < 0.01 * stat_range

    def test_spqr_style_accounting_terms(self):
        account = bit_account(affine_meta(64, 64, 2, 64, 0, stat_bits=3, stat_group=16))
        expected = 2 + (3 + 3) / 64 + (2 * 32) / (64 * 16)
        assert account["avg_bits_per_weight"] == expected

    def test_accounting_with_outliers_consistent(self):
        account = bit_account(affine_meta(16, 32, 2, 16, 5, stat_bits=3, stat_group=16))
        n = 16 * 32
        recomputed = (
            account["weight_bits"] + account["stats_bits"] + account["outlier_bits"]
        ) / n
        assert account["avg_bits_per_weight"] == pytest.approx(recomputed, abs=0)

    def test_ragged_groups_and_runs_are_charged_whole(self):
        # 64 columns at group size 63 store two statistic pairs per row
        account = bit_account(affine_meta(64, 64, 2, 63, 0))
        assert account["stats_bits"] == 2 * 64 * 2 * 16
        # 24 rows in runs of 16: each group's second level has two runs
        account = bit_account(affine_meta(24, 64, 2, 63, 0, stat_bits=3, stat_group=16))
        assert account["stats_bits"] == 2 * (24 * 2 * 3 + 2 * 2 * 32)
        assert account["avg_bits_per_weight"] == 2 + account["stats_bits"] / (24 * 64)

    @pytest.mark.parametrize("stat_group", [0, -1])
    def test_stat_group_below_one_rejected(self, stat_group):
        with pytest.raises(DimMismatch, match="stat_group"):
            double_quantize_stats(np.ones(4), np.zeros(4), 3, stat_group)
        with pytest.raises(DimMismatch, match="stat_group"):
            QuantizedLayer.empty(2, 4, 2, 4, stat_bits=3, stat_group=stat_group)

    @pytest.mark.parametrize("stat_bits", [1, 9, 0])
    def test_stat_bits_outside_two_to_eight_rejected(self, stat_bits):
        with pytest.raises(DimMismatch, match="stat_bits"):
            double_quantize_stats(np.ones(4), np.zeros(4), stat_bits, 4)

    def test_empty_statistics_rejected(self):
        with pytest.raises(EmptyGroup, match="no statistics"):
            double_quantize_stats(np.empty(0), np.empty(0), 3, 4)

    @pytest.mark.parametrize("n_zeros", [3, 5])
    def test_zeros_of_another_length_rejected(self, n_zeros):
        with pytest.raises(DimMismatch, match="same length"):
            double_quantize_stats(np.ones(4), np.zeros(n_zeros), 3, 4)

    def test_dequantized_scales_stay_positive(self):
        *_, new_scales, _ = double_quantize_stats(
            np.array([1e-9, 1.0, 2.0, 3.0]), np.zeros(4), stat_bits=2, stat_group=4
        )
        assert all(scale > 0 for scale in new_scales)


class TestBinaryOps:
    def test_symmetric_pair_exact(self):
        alpha, signs = binarize_region([2.0, -2.0])
        assert alpha == 2.0
        np.testing.assert_array_equal(signs, [1.0, -1.0])

    def test_zero_region(self):
        alpha, signs = binarize_region([0.0, 0.0])
        assert alpha == 0.0
        np.testing.assert_array_equal(signs, [1.0, 1.0])  # sign(0) = +1

    def test_alpha_beats_scan(self):
        vals = np.array([1.0, 3.0])
        alpha, signs = binarize_region(vals)
        assert alpha == 2.0
        err = np.sum((vals - alpha * signs) ** 2)
        assert err == pytest.approx(2.0)
        for a in np.linspace(0.0, 4.0, 4001):
            assert err <= np.sum((vals - a * signs) ** 2) + 1e-12

    def test_residual_binarize_exact_cases(self):
        a1, s1, a2, s2 = residual_binarize([2.0, -2.0])
        assert a1 == 2.0
        assert a2 == 0.0
        a1, s1, a2, s2 = residual_binarize([1.0, 3.0])
        assert (a1, a2) == (2.0, 1.0)
        np.testing.assert_array_equal(a1 * s1 + a2 * s2, [1.0, 3.0])

    def test_two_planes_never_worse(self):
        rng = np.random.default_rng(46)
        for _ in range(200):
            v = rng.standard_normal(int(rng.integers(1, 40)))
            a1, s1, a2, s2 = residual_binarize(v)
            one = np.sum((v - a1 * s1) ** 2)
            two = np.sum((v - a1 * s1 - a2 * s2) ** 2)
            assert two <= one + 1e-12

    def test_empty_inputs(self):
        with pytest.raises(EmptyGroup):
            binarize_region([])
        with pytest.raises(EmptyGroup):
            splitting_search([])


class TestSplittingSearch:
    @staticmethod
    def split_error(mags, t):
        low = mags[mags <= t]
        high = mags[mags > t]
        err = 0.0
        if low.size:
            err += np.sum((low - low.mean()) ** 2)
        if high.size:
            err += np.sum((high - high.mean()) ** 2)
        return err

    def test_perfectly_separable(self):
        vals = np.array([0.1, -0.1] * 8 + [1.0, -1.0] * 8)
        t = splitting_search(vals)
        assert 0.1 <= t < 1.0
        assert self.split_error(np.abs(vals), t) == pytest.approx(0.0, abs=1e-15)

    def test_constant_magnitude_degenerate(self):
        t = splitting_search([0.5, -0.5, 0.5])
        assert t == 0.5

    @staticmethod
    def candidates(mags):
        distinct = np.unique(mags)
        if distinct.size <= 64:
            return distinct
        qs = np.linspace(0.0, 1.0, 64)
        return np.unique(np.quantile(distinct, qs))

    @pytest.mark.parametrize("size", [7, 40, 64, 65, 300])
    def test_returns_brute_force_best_candidate(self, size):
        # <= 64 distinct magnitudes are all candidates; more use the quantile grid
        rng = np.random.default_rng(48 + size)
        for _ in range(20):
            vals = rng.standard_normal(size) * rng.uniform(0.01, 10.0)
            mags = np.abs(vals)
            candidates = self.candidates(mags)
            errors = [self.split_error(mags, t) for t in candidates]
            assert splitting_search(vals) == candidates[int(np.argmin(errors))]

    def test_temporaries_stay_under_two_and_a_quarter_layers(self):
        # the sorted magnitudes plus one prefix sum or the distinct magnitudes;
        # measured 2.13 (5.0 when the sort was redone and each prefix copied)
        w = np.random.default_rng(49).standard_normal((512, 236))
        tracemalloc.start()
        try:
            splitting_search(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * w.nbytes

    def test_matches_fine_grid_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            vals = rng.standard_normal(256)
            mags = np.abs(vals)
            t64 = splitting_search(vals)
            grid = np.quantile(mags, np.linspace(0.0, 1.0, 1024))
            best_fine = min(self.split_error(mags, t) for t in np.unique(grid))
            got = self.split_error(mags, t64)
            assert got <= best_fine * 1.05 + 1e-12


def test_binary_accounting_lands_near_one_bit():
    account = bit_account(binary_meta(64, 64, 5))
    assert 1.05 <= account["avg_bits_per_weight"] <= 1.15
    account = bit_account(binary_meta(256, 64, 5))
    assert 1.05 <= account["avg_bits_per_weight"] <= 1.15


@st.composite
def layer_metas(draw):
    """layers.json metadata of either kind: ragged groups and statistics
    runs, double quantization on and off, 0 or more outliers, 0 to d_col
    salient columns."""
    d_row, d_col = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    if draw(st.booleans()):
        return binary_meta(d_row, d_col, draw(st.integers(0, d_col)))
    stat_bits, stat_group = None, None
    if draw(st.booleans()):
        stat_bits, stat_group = draw(st.integers(2, 8)), draw(st.integers(1, d_row + 3))
    return affine_meta(
        d_row, d_col, draw(st.integers(1, 8)), draw(st.integers(1, d_col + 3)),
        draw(st.integers(0, d_row * d_col)), stat_bits, stat_group,
    )


def reference_account(meta):
    if meta["kind"] == "binary":
        return binary_reference(meta["d_row"], meta["d_col"], meta["n_salient_cols"])
    return affine_reference(
        meta["d_row"], meta["d_col"], meta["bits"], meta["group_size"],
        meta["outlier_count"], meta["stat_bits"], meta["stat_group"],
    )


class TestBitAccount:
    """`bit_account` reads the charges off `_layout`; the closed forms above
    are the reference."""

    @settings(max_examples=400, deadline=None)
    @given(layer_metas())
    def test_matches_the_closed_forms(self, meta):
        got, want = bit_account(meta), reference_account(meta)
        for category in ("weight_bits", "stats_bits", "outlier_bits"):
            assert got[category] == want[category], category
        n = meta["d_row"] * meta["d_col"]
        assert got["avg_bits_per_weight"] == charged_bits(got) / n
        assert got["avg_bits_per_weight"] == pytest.approx(
            want["avg_bits_per_weight"], rel=1e-15, abs=0
        )

    @pytest.mark.parametrize("meta", [
        affine_meta(64, 256, 2, 16, 40, 3, 16), affine_meta(256, 1024, 2, 16, 0),
        binary_meta(256, 1024, 82), binary_meta(64, 64, 0),
    ])
    def test_power_of_two_sizes_average_as_the_closed_forms(self, meta):
        assert bit_account(meta) == reference_account(meta)

    @settings(max_examples=200, deadline=None)
    @given(layer_metas())
    def test_no_entry_is_charged_more_than_it_stores(self, meta):
        for prefix, entry in _layout(meta).items():
            assert entry.charge <= entry.stored_bits, prefix
            # bits stored beyond the charge are always labelled
            assert entry.label is not None or entry.charge == entry.stored_bits, prefix

    @pytest.mark.parametrize("field", ["weight_bits", "stats_bits", "outlier_bits", "avg_bits_per_weight"])
    def test_edited_accounting_is_malformed(self, field):
        layer = rtn_quantize(np.arange(12.0).reshape(3, 4), bits=2, group_size=4)
        tensors, meta = layer_to_tensors("blk.w", layer)
        layer_from_tensors("blk.w", tensors, meta)
        meta["accounting"][field] += 1.0
        with pytest.raises(MalformedArchive, match="charges"):
            layer_from_tensors("blk.w", tensors, meta)


def assert_same_layer(got, want):
    """`got` reloads `want` bit for bit: the weights and every stored field."""
    assert got.dequantize().tobytes() == want.dequantize().tobytes()
    assert type(got) is type(want) and bit_account(got.meta) == bit_account(want.meta)
    assert got.meta == want.meta
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert a == b, f.name


class TestArchiveReload:
    """Each layer kind written to `layers.oack` comes back bit for bit, every
    stored field included, and its entries take exactly its
    accounted bits plus the labelled extras."""

    @staticmethod
    def reload(layer, tmp_path):
        tensors, meta = layer_to_tensors("blk.w", layer)
        disk = 8 * sum(entry_nbytes(k, v) for k, v in tensors.items())
        extra = disk_extra_bits("blk.w", meta)
        assert disk == charged_bits(bit_account(layer.meta)) + sum(extra.values())
        path = tmp_path / "layers.oack"
        archive_write(path, tensors)
        assert 8 * path.stat().st_size == disk + 8 * 12  # plus the file header
        got = layer_from_tensors("blk.w", archive_read(path), meta)
        assert_same_layer(got, layer)
        return got

    @staticmethod
    def extras(layer):
        return disk_extra_bits("blk.w", layer_to_tensors("blk.w", layer)[1])

    @staticmethod
    def inputs(seed, d_row=24, d_col=48):
        rng = np.random.default_rng(seed)
        # checkpoint weights are float32 values
        w = rng.standard_normal((d_row, d_col)).astype(np.float32).astype(np.float64)
        x = rng.standard_normal((4 * d_col, d_col))
        return w, x.T @ x

    @pytest.mark.parametrize("seed", range(5))
    def test_binary_with_salient_columns(self, seed, tmp_path):
        w, h = self.inputs(seed)
        spec = CalibSpec(backend=Backend.BINARY, salient_fraction=0.1)
        layer, _ = calibrate_layer(w, h, spec)
        assert layer.salient_cols.sum() > 0
        got = self.reload(layer, tmp_path).dequantize()
        assert got.dtype == np.float64
        assert got.tobytes() == layer.dequantize().tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_spqr_with_outliers(self, seed, tmp_path):
        w, h = self.inputs(seed)
        layer, _ = calibrate_layer(w, h, CalibSpec(backend=Backend.SPQR))
        assert layer.outlier_vals.size and layer.stats2 is not None
        got = self.reload(layer, tmp_path).dequantize()
        assert got.dtype == np.float64
        assert got.tobytes() == layer.dequantize().tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_constant_group_calibrated(self, seed, tmp_path):
        # the ragged last group has one column, so every row of it is constant
        # and codes at one end of its zero-widened range: the top (3) for a
        # positive value, 0 for a negative one
        w, h = self.inputs(seed, d_row=8, d_col=17)
        layer, _ = calibrate_layer(w, h, CalibSpec(group_size=16), guard=False)
        deq = layer.dequantize()
        top_or_bottom = np.where(deq[:, -1] > 0, 3, 0)
        np.testing.assert_array_equal(layer.codes[:, -1], top_or_bottom)
        got = self.reload(layer, tmp_path).dequantize()
        assert got.tobytes() == deq.tobytes()

    def test_constant_group_rtn(self, tmp_path):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((6, 8))
        w[:, 4:] = rng.standard_normal((6, 1))
        layer = rtn_quantize(w, bits=2, group_size=4)
        np.testing.assert_array_equal(layer.codes[:, 4:], np.where(w[:, 4:] > 0, 3, 0))
        got = self.reload(layer, tmp_path).dequantize()
        assert got.tobytes() == layer.dequantize().tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_rtn_and_optq(self, seed, tmp_path):
        w, h = self.inputs(seed)
        self.reload(rtn_quantize(w, bits=3, group_size=16), tmp_path)
        layer, _ = calibrate_layer(w, h, CalibSpec())
        self.reload(layer, tmp_path)
        assert self.extras(layer)["scales_fp32"] == 16 * 24 * 3

    @pytest.mark.parametrize("seed", range(3))
    def test_spqr_without_outliers(self, seed, tmp_path):
        w, h = self.inputs(seed)
        layer, _ = calibrate_layer(w, h, CalibSpec(backend=Backend.SPQR, tau=1e9))
        assert not layer.outlier_vals.size and layer.stats2 is not None
        self.reload(layer, tmp_path)
        assert "outlier_row_pointers" not in self.extras(layer)

    @pytest.mark.parametrize("seed", range(3))
    def test_spqr_with_outliers_in_the_first_and_last_row(self, seed, tmp_path):
        w, h = self.inputs(seed)
        w[0, 5], w[-1, -1], w[-1, 0] = 40.0, -40.0, 30.0
        layer, _ = calibrate_layer(w, h, CalibSpec(backend=Backend.SPQR))
        rows = set(layer.outlier_rows.tolist())
        assert {0, w.shape[0] - 1} <= rows and layer.stats2 is not None
        self.reload(layer, tmp_path)
        assert self.extras(layer)["outlier_row_pointers"] == 32 * (w.shape[0] + 1)

    def test_ragged_group_and_statistics_run(self, tmp_path):
        # 64 columns at group size 63: a one-column last group; 24 rows in
        # runs of 16: a ragged last statistics run in every group
        w, h = self.inputs(4, d_row=24, d_col=64)
        layer, _ = calibrate_layer(w, h, CalibSpec(backend=Backend.SPQR, group_size=63))
        assert layer.scales.shape == (24, 2) and layer.stats2.shape == (2, 4, 2)
        self.reload(layer, tmp_path)
        assert self.extras(layer)["stats2_fp32"] == 2 * 32 * 2 * 2

    def test_binary_layer_holds_its_entries(self):
        """A binary layer holds its five archive entries as they are stored:
        each unpacks to the layer's own array, a set sign bit marking a -1."""
        w, h = self.inputs(6, d_row=24, d_col=50)
        layer, _ = calibrate_layer(w, h, CalibSpec(backend=Backend.BINARY, salient_fraction=0.08))
        held = {
            "signs1": layer.signs1 < 0,
            "signs2": layer.signs2 < 0,
            "membership": layer.membership,
            "salient": layer.salient_cols,
            "alphas": layer.alphas,
        }
        assert [f.name for f in fields(layer)] == [
            "signs1", "signs2", "membership", "salient_cols", "alphas"
        ]
        tensors, meta = layer_to_tensors("blk.w", layer)
        assert [key.partition("/")[0] for key in tensors] == list(held)
        for prefix, e in _layout(meta).items():
            stored = tensors[f"{prefix}/blk.w"]
            got = unpack_uint(stored, e.form, e.count).reshape(e.shape) if e.packed else stored
            want = held[prefix]
            assert got.shape == want.shape and np.array_equal(got, want), prefix

    def test_spqr_layer_holds_its_outliers_as_stored(self):
        """An affine layer holds its outliers as three arrays in (row, col)
        order: the stored columns and values, and the rows that the stored
        row pointers count."""
        w, h = self.inputs(0)
        layer, _ = calibrate_layer(w, h, CalibSpec(backend=Backend.SPQR))
        rows, cols, vals = layer.outlier_rows, layer.outlier_cols, layer.outlier_vals
        assert (rows.dtype, cols.dtype, vals.dtype) == (np.int64, np.int64, np.float64)
        assert 0 < rows.size == cols.size == vals.size
        assert np.array_equal(np.lexsort((cols, rows)), np.arange(rows.size))
        assert np.array_equal(vals, w[rows, cols])
        tensors, meta = layer_to_tensors("blk.w", layer)
        layout = _layout(meta)
        stored = {prefix: unpack_uint(tensors[f"{prefix}/blk.w"], layout[prefix].form,
                                      layout[prefix].count)
                  for prefix in ("outliercols", "outlierrows")}
        assert np.array_equal(stored["outliercols"], cols)
        per_row = np.bincount(rows, minlength=w.shape[0])
        assert np.array_equal(np.diff(stored["outlierrows"]), per_row)
        assert tensors["outliervals/blk.w"].tobytes() == vals.astype(np.float32).tobytes()

    @pytest.mark.parametrize("fraction", [0.0, 0.08, 1.0], ids=["0%", "8%", "100%"])
    def test_binary(self, fraction, tmp_path):
        w, h = self.inputs(5, d_row=24, d_col=50)
        layer, _ = calibrate_layer(w, h, CalibSpec(backend=Backend.BINARY, salient_fraction=fraction))
        n_sal = int(layer.salient_cols.sum())
        assert n_sal == round(fraction * 50)
        self.reload(layer, tmp_path)
        extra = self.extras(layer)
        assert extra["membership_bitmap"] == 24 * (50 - n_sal)
        assert extra["alphas_fp64"] == 48 * (3 + 2 * n_sal)


class TestDequantize:
    """`QuantizedLayer.dequantize` is one `_decode` call into a row-major
    array. It equals the per-group decode loop (`affine_dequantize`) byte for
    byte, and is C-ordered, for column-major layers the sweep makes and for
    their reloads, over ragged groups, with and without outliers and
    double-quantized statistics."""

    D_ROW, D_COL = 9, 20

    @staticmethod
    def assert_matches_the_loop(layer):
        tensors, meta = layer_to_tensors("blk.w", layer)
        for held in (layer, layer_from_tensors("blk.w", tensors, meta)):
            got = held.dequantize()
            assert got.flags.c_contiguous and got.dtype == np.float64
            assert got.tobytes() == affine_dequantize(held).tobytes()

    @pytest.mark.parametrize("group_size", [1, 7, D_COL])
    @pytest.mark.parametrize("outliers", [False, True], ids=["plain", "outliers"])
    @pytest.mark.parametrize("stats", [(None, None), (3, 4)], ids=["fp16-stats", "dq-stats"])
    def test_column_at_a_time_layer(self, group_size, outliers, stats):
        """Coded a column at a time into `QuantizedLayer.empty`'s
        column-major arrays, as the compensated sweep codes it."""
        rng = np.random.default_rng(group_size)
        w = rng.standard_normal((self.D_ROW, self.D_COL)).astype(np.float32).astype(np.float64)
        mask = rng.random(w.shape) < (0.1 if outliers else 0.0)
        rows, cols = np.nonzero(mask)  # (row, col) order
        layer = QuantizedLayer.empty(*w.shape, 3, group_size, (rows, cols, w[rows, cols]), *stats)
        work = np.asfortranarray(w)
        for q in range(self.D_COL):
            layer.code(q, q + 1, work, ~mask)
        assert layer.codes.flags.f_contiguous and not layer.codes.flags.c_contiguous
        assert (layer.outlier_vals.size > 0) == outliers
        self.assert_matches_the_loop(layer)

    @pytest.mark.parametrize("group_size", [1, 7, D_COL])
    @pytest.mark.parametrize("backend", [Backend.OPTQ, Backend.SPQR], ids=["optq", "spqr"])
    def test_calibrated_layer(self, group_size, backend):
        rng = np.random.default_rng(group_size)
        w = rng.standard_normal((self.D_ROW, self.D_COL)).astype(np.float32).astype(np.float64)
        x = rng.standard_normal((4 * self.D_COL, self.D_COL))
        spec = CalibSpec(backend=backend, group_size=group_size, stat_group=4, tau=1.0)
        layer, _ = calibrate_layer(w, x.T @ x, spec, guard=False)
        assert layer.codes.flags.f_contiguous
        assert (layer.stats2 is not None) == (layer.outlier_vals.size > 0) == (backend is Backend.SPQR)
        self.assert_matches_the_loop(layer)


class TestLayerFromTensorsErrors:
    """A layer's archive entries must be exactly the ones its kind writes."""

    @staticmethod
    def written():
        layer = rtn_quantize(np.arange(12.0).reshape(3, 4), bits=2, group_size=4)
        return layer_to_tensors("blk.w", layer)

    def test_missing_entry(self):
        tensors, meta = self.written()
        del tensors["zeros/blk.w"]
        with pytest.raises(MalformedArchive, match="zeros"):
            layer_from_tensors("blk.w", tensors, meta)

    def test_unknown_kind(self):
        tensors, meta = self.written()
        meta["kind"] = "ternary"
        with pytest.raises(MalformedArchive, match="ternary"):
            layer_from_tensors("blk.w", tensors, meta)

    def test_affine_layer_with_stored_mins(self):
        # archives written before constant groups followed the affine rule
        tensors, meta = self.written()
        tensors["mins/blk.w"] = np.zeros((3, 1), dtype=np.float32)
        with pytest.raises(MalformedArchive, match="mins"):
            layer_from_tensors("blk.w", tensors, meta)

    @pytest.mark.parametrize(
        "backend, key, value",
        [
            (Backend.OPTQ, "group_size", 0),
            (Backend.SPQR, "stat_group", 0),
            (Backend.OPTQ, "kind", None),
            (Backend.OPTQ, "double_quantized", None),
            (Backend.OPTQ, "d_row", "8"),
            (Backend.OPTQ, "d_col", True),
            (Backend.OPTQ, "bits", 0),
            (Backend.OPTQ, "bits", 9),
            (Backend.SPQR, "stat_bits", 1),
            (Backend.SPQR, "stat_bits", 9),
            (Backend.SPQR, "outlier_count", -1),
            (Backend.BINARY, "n_salient_cols", -1),
            (Backend.BINARY, "n_salient_cols", 17),
        ],
        ids=lambda v: v.name if isinstance(v, Backend) else repr(v),
    )
    def test_metadata_out_of_range(self, backend, key, value):
        """A layers.json field `_layout` reads, missing (None) or of the
        wrong type or range, is malformed and named, even where the
        accounting (and, for `bits`, the codes payload) agrees with it."""
        tensors, meta = TestPackedArchiveErrors.written(backend)
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        if key == "bits":  # codes at the edited width: zero bytes at 0 bits
            tensors["codes/blk.w"] = np.zeros(-(-8 * 16 * value // 8), dtype=np.uint8)
        with contextlib.suppress(ZeroDivisionError, KeyError, TypeError):
            meta["accounting"] = bit_account(meta)
        with pytest.raises(MalformedArchive, match=key):
            layer_from_tensors("blk.w", tensors, meta)


class TestPackUint:
    """One packing rule for every integer the layer archive holds."""

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 32), data=st.data())
    def test_round_trip(self, width, data):
        values = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))
        packed = pack_uint(np.array(values, dtype=np.int64), width)
        bits = len(values) * width
        assert packed.dtype == np.uint8 and packed.shape == (-(-bits // 8),)
        if bits % 8:  # the last byte is partly filled; its spare bits are zero
            assert int(packed[-1]) >> (bits % 8) == 0
        got = unpack_uint(packed, width, len(values))
        assert got.dtype == np.int64
        assert got.tolist() == values

    def test_low_bit_first(self):
        # 1, 2, 3 at two bits: stream bits 10 01 11 00 read from bit 0 up
        assert pack_uint(np.array([1, 2, 3]), 2).tolist() == [0b00111001]
        assert pack_uint(np.array([True, False, True]), 1).tolist() == [0b101]

    @pytest.mark.parametrize(
        "values, width",
        [([4], 2), ([-1], 8), ([1 << 32], 32), ([1], 0), ([1], 33), (np.array([1.0]), 4)],
        ids=["too-wide", "negative", "over-32", "width-0", "width-33", "float"],
    )
    def test_rejects_what_does_not_fit(self, values, width):
        with pytest.raises(DimMismatch):
            pack_uint(np.asarray(values), width)

    @pytest.mark.parametrize("n_bytes", [1, 3])
    def test_wrong_byte_count_is_malformed(self, n_bytes):
        # 5 values at 3 bits take 2 bytes
        with pytest.raises(MalformedArchive, match="expected uint8"):
            unpack_uint(np.zeros(n_bytes, dtype=np.uint8), 3, 5)


class TestPackedArchiveErrors:
    """A layer archive that disagrees with its metadata is malformed."""

    @staticmethod
    def written(backend=Backend.SPQR):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((8, 16))
        x = rng.standard_normal((64, 16))
        layer, _ = calibrate_layer(w, x.T @ x, CalibSpec(backend=backend, tau=1.0))
        return layer_to_tensors("blk.w", layer)

    @pytest.mark.parametrize("prefix", ["codes", "scalecodes", "outliercols", "outlierrows"])
    def test_payload_one_byte_short(self, prefix):
        tensors, meta = self.written()
        key = f"{prefix}/blk.w"
        tensors[key] = tensors[key][:-1]
        with pytest.raises(MalformedArchive, match=key):
            layer_from_tensors("blk.w", tensors, meta)

    def test_float_entry_of_the_wrong_shape(self):
        tensors, meta = self.written()
        tensors["stats2/blk.w"] = tensors["stats2/blk.w"][:, :, :0]
        with pytest.raises(MalformedArchive, match="stats2/blk.w"):
            layer_from_tensors("blk.w", tensors, meta)

    def test_salient_mask_disagreeing_with_the_metadata(self):
        tensors, meta = self.written(Backend.BINARY)
        tensors["salient/blk.w"] = pack_uint(np.ones(16, dtype=bool), 1)
        with pytest.raises(MalformedArchive, match="salient mask"):
            layer_from_tensors("blk.w", tensors, meta)

    @pytest.mark.parametrize("fault", ["last pointer", "falling pointer", "column"])
    def test_outliers_that_index_no_weights(self, fault):
        tensors, meta = self.written()
        n_out, d_row = meta["outlier_count"], meta["d_row"]
        pointers = unpack_uint(tensors["outlierrows/blk.w"], 32, d_row + 1)
        cols = unpack_uint(tensors["outliercols/blk.w"], 16, n_out)
        if fault == "last pointer":
            pointers[-1] += 1
        elif fault == "falling pointer":
            pointers[1] = n_out + 1
        else:
            cols[0] = meta["d_col"]
        tensors["outlierrows/blk.w"] = pack_uint(pointers, 32)
        tensors["outliercols/blk.w"] = pack_uint(cols, 16)
        with pytest.raises(MalformedArchive, match="outlier rows and columns"):
            layer_from_tensors("blk.w", tensors, meta)

    @pytest.mark.parametrize("backend", [Backend.OPTQ, Backend.SPQR, Backend.BINARY])
    def test_archive_written_before_packing_names_the_expected_entries(self, backend):
        # the float32 entries the unpacked writer stored for each kind
        tensors, meta = self.written(backend)
        old = (
            ["binsigns1", "binsigns2", "binmember", "binsalient", "binalphas"]
            if backend is Backend.BINARY
            else ["codes", "scales", "zeros", "outliers"]
        )
        stale = {f"{prefix}/blk.w": np.zeros(1, dtype=np.float32) for prefix in old}
        with pytest.raises(MalformedArchive, match="expected") as info:
            layer_from_tensors("blk.w", stale, meta)
        assert all(prefix in str(info.value) for prefix in (k.partition("/")[0] for k in tensors))
