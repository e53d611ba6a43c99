import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oacal.archive import archive_read, archive_write
from oacal.calibrate import Backend, CalibSpec, calibrate_layer
from oacal.errors import DimMismatch, EmptyGroup, MalformedArchive
from oacal.quant import (
    SCALE_FLOOR,
    _code_group,
    _f32_round_up,
    _fit_group_rows,
    affine_bit_account,
    binarize_region,
    binary_bit_account,
    double_quantize_stats,
    layer_from_tensors,
    layer_to_tensors,
    residual_binarize,
    round_half_away,
    rtn_quantize,
    splitting_search,
)


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
        scale, zero = np.array([2.0]), np.array([2.0])
        code, deq = _code_group(np.zeros((1, 1)), scale, zero, bits=2)
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
        assert layer.accounting.avg_bits_per_weight == 2 + 32 / 4


class TestDoubleQuantizeStats:
    def test_constant_scales_exact(self):
        record, new_scales, new_zeros = double_quantize_stats(
            np.full(8, 0.5), np.full(8, 1.0), stat_bits=3, stat_group=4
        )
        for scale, zero in zip(new_scales, new_zeros):
            assert scale == 0.5
            assert zero == 1.0

    def test_stat_error_bound(self):
        rng = np.random.default_rng(45)
        scales = rng.uniform(0.1, 2.0, size=16)
        record, new_scales, _ = double_quantize_stats(
            scales, np.ones(16), stat_bits=8, stat_group=16
        )
        stat_range = scales.max() - scales.min()
        assert np.max(np.abs(new_scales - scales)) < 0.01 * stat_range

    def test_spqr_style_accounting_terms(self):
        account = affine_bit_account(
            64, 64, bits=2, group_size=64, n_outliers=0, stat_bits=3, stat_group=16
        )
        expected = 2 + (3 + 3) / 64 + (2 * 32) / (64 * 16)
        assert account.avg_bits_per_weight == expected

    def test_accounting_with_outliers_consistent(self):
        account = affine_bit_account(
            16, 32, bits=2, group_size=16, n_outliers=5, stat_bits=3, stat_group=16
        )
        n = 16 * 32
        recomputed = (
            account.weight_bits + account.stats_bits + account.outlier_bits
        ) / n
        assert account.avg_bits_per_weight == pytest.approx(recomputed, abs=0)

    @pytest.mark.parametrize("stat_group", [0, -1])
    def test_stat_group_below_one_rejected(self, stat_group):
        with pytest.raises(DimMismatch, match="stat_group"):
            double_quantize_stats(np.ones(4), np.zeros(4), 3, stat_group)

    def test_dequantized_scales_stay_positive(self):
        _, new_scales, _ = double_quantize_stats(
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
    account = binary_bit_account(64, 64, n_salient_cols=5)
    assert 1.05 <= account.avg_bits_per_weight <= 1.15
    account = binary_bit_account(256, 64, n_salient_cols=5)
    assert 1.05 <= account.avg_bits_per_weight <= 1.15


class TestArchiveReload:
    """A calibrated layer written to an archive reloads bit-identically."""

    @staticmethod
    def reload(layer, tmp_path):
        tensors, meta = layer_to_tensors("blk.w", layer)
        path = tmp_path / "layers.oack"
        archive_write(path, tensors)
        return layer_from_tensors("blk.w", archive_read(path), meta)

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
        assert layer.outliers and layer.stats_q is not None
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
