import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import oacal.calibrate
import sweep_reference as reference
from oacal.calibrate import (
    Backend,
    CalibSpec,
    calibrate_layer,
    calibrate_layer_binary,
    detect_outliers,
    saliency,
)
from oacal.errors import ConfigError, NonPositiveDiagonal, NotPositiveDefinite
from oacal.hessian import regularize
from oacal.linalg import inverse_upper_factor, symmetrize
from oacal.quant import bit_account, rtn_quantize
from sweep_reference import direct_solver_calibrate


def random_spd(rng, dim, jitter=None):
    a = rng.standard_normal((dim, dim))
    return symmetrize(a @ a.T + (jitter if jitter is not None else dim) * np.eye(dim))


def proxy(delta, h):
    return float(np.sum((delta @ h) * delta))


def make_agnostic_h(rng, dim, n=64):
    xs = rng.standard_normal((n, dim))
    return symmetrize(xs.T @ xs)


def outlier_list(layer):
    """A layer's outliers as (row, col, value) tuples, in the order held."""
    return list(zip(layer.outlier_rows.tolist(), layer.outlier_cols.tolist(),
                    layer.outlier_vals.tolist()))


def make_adaptive_h(rng, d_row, d_col, n=16):
    h = np.zeros((d_col, d_col))
    for _ in range(n):
        g = rng.standard_normal((d_row, d_col)) * 0.2
        h += g.T @ g
    return symmetrize(h)


class TestSaliency:
    def test_zero_when_equal(self):
        assert saliency(1.5, 1.5, 0.7) == 0.0

    def test_unit_case(self):
        assert saliency(2.0, 1.0, 1.0) == 1.0

    def test_nonpositive_diag(self):
        with pytest.raises(NonPositiveDiagonal):
            saliency(1.0, 0.0, 0.0)

    def test_argmax_matches_brute_force_on_diagonal_h(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            w = rng.standard_normal((6, 8))
            hdiag = rng.uniform(0.5, 4.0, size=8)
            h = np.diag(hdiag)
            naive = rtn_quantize(w, bits=2, group_size=4).dequantize()
            inv_diag = 1.0 / hdiag
            s = saliency(w, naive, inv_diag[None, :])
            # brute force: single-weight contribution to tr(dW H dW^T)
            contrib = np.empty_like(w)
            for j in range(w.shape[0]):
                for k in range(w.shape[1]):
                    delta = np.zeros_like(w)
                    delta[j, k] = w[j, k] - naive[j, k]
                    contrib[j, k] = proxy(delta, h)
            assert np.unravel_index(np.argmax(s), s.shape) == np.unravel_index(
                np.argmax(contrib), contrib.shape
            )


def outliers(w, inv_diag, spec):
    """`detect_outliers` with the naive group RTN that `calibrate_layer` hands it."""
    return detect_outliers(w, rtn_quantize(w, spec.bits, spec.group_size).dequantize(), inv_diag, spec)


class TestDetectOutliers:
    def test_huge_tau_empty(self):
        rng = np.random.default_rng(51)
        w = rng.standard_normal((4, 8))
        spec = CalibSpec(bits=2, group_size=4, tau=1e12, backend=Backend.SPQR)
        mask = outliers(w, np.full(8, 0.5), spec)
        assert not mask.any()

    def test_dominant_weight_marked(self):
        rng = np.random.default_rng(52)
        w = rng.uniform(-0.01, 0.01, size=(8, 8))
        w[3, 5] = 1.0  # 100x larger than everything else
        spec = CalibSpec(bits=2, group_size=4, tau=3.5, backend=Backend.SPQR)
        mask = outliers(w, np.full(8, 0.5), spec)
        assert mask[3, 5]

    def test_zero_matrix_empty(self):
        spec = CalibSpec(bits=2, group_size=4, tau=3.5, backend=Backend.SPQR)
        mask = outliers(np.zeros((4, 8)), np.ones(8), spec)
        assert not mask.any()


def pin_column(w, h, q, residual, block_size):
    """Run the production sweep with column q pinned to w[:, q] - residual.

    Every other column is quantized to its current working value (a zero
    residual), so the only compensation is the rank-1 update for column q.
    Returns the swept matrix, whose columns hold the compensated weights.
    """

    def codec(q0, q1, cols):
        assert q1 == q0 + 1  # a compensated sweep codes one column at a time
        return cols - residual[:, None] if q0 == q else cols.copy()

    upper = inverse_upper_factor(symmetrize(h))
    w_hat, _ = oacal.calibrate._sweep(w.copy(), upper, block_size, codec)
    return w_hat


class TestOptimalUpdate:
    def test_diagonal_h_touches_only_q(self):
        w = np.arange(6.0).reshape(2, 3)
        residual = np.array([1.0, -2.0])
        w_hat = pin_column(w, np.diag([2.0, 4.0, 0.5]), 1, residual, 3)
        np.testing.assert_allclose(w_hat[:, 1] - w[:, 1], -residual)
        assert np.all(w_hat[:, [0, 2]] == w[:, [0, 2]])

    def test_zero_residual_noop(self):
        w = np.arange(6.0).reshape(3, 2)
        h = symmetrize(np.array([[2.0, 1.0], [1.0, 2.0]]))
        w_hat = pin_column(w, h, 0, np.zeros(3), 2)
        assert np.all(w_hat == w)

    def test_matches_constrained_least_squares(self):
        # direct KKT solve: columns < q stay, delta[:, q] is pinned, the
        # columns > q minimize tr(dW H dW^T)
        rng = np.random.default_rng(53)
        for _ in range(25):
            d_col = int(rng.integers(2, 7))
            d_row = int(rng.integers(1, 5))
            h = random_spd(rng, d_col, jitter=0.5)
            w = rng.standard_normal((d_row, d_col))
            residual = rng.standard_normal(d_row)
            q = int(rng.integers(0, d_col))
            block_size = int(rng.integers(1, d_col + 1))
            w_hat = pin_column(w, h, q, residual, block_size)
            free = list(range(q + 1, d_col))
            expected = np.zeros((d_row, d_col))
            expected[:, q] = -residual
            if free:
                sol = np.linalg.solve(
                    h[np.ix_(free, free)], -h[np.ix_(free, [q])] @ (-residual[None, :])
                )
                expected[:, free] = sol.T
            np.testing.assert_allclose(w_hat - w, expected, atol=1e-8)


class TestCalibrateLayer:
    def test_identity_h_equals_rtn(self):
        # a diagonal H has a diagonal inverse factor, so no column update
        # reaches another column and the result is RTN, identity or not
        rng = np.random.default_rng(54)
        w = rng.standard_normal((6, 8))
        spec = CalibSpec(bits=2, group_size=4, alpha=0.0, backend=Backend.OPTQ)
        ref = rtn_quantize(w, bits=2, group_size=4)
        for h in (np.eye(8), np.diag(np.linspace(0.25, 4.0, 8))):
            layer, report = calibrate_layer(w, h, spec)
            np.testing.assert_array_equal(layer.codes, ref.codes)
            np.testing.assert_array_equal(layer.scales, ref.scales)
            np.testing.assert_allclose(layer.dequantize(), ref.dequantize(), atol=0)

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_zero_h_equals_rtn(self, alpha):
        """Every input of H = 0 is dead: its diagonal becomes 1 before the
        damping, so H factorizes and, being diagonal, gives RTN's codes."""
        rng = np.random.default_rng(57)
        w = rng.standard_normal((6, 8))
        spec = CalibSpec(bits=2, group_size=4, alpha=alpha, backend=Backend.OPTQ)
        ref = rtn_quantize(w, bits=2, group_size=4)
        layer, _ = calibrate_layer(w, np.zeros((8, 8)), spec)
        np.testing.assert_array_equal(layer.codes, ref.codes)
        np.testing.assert_array_equal(layer.scales, ref.scales)
        np.testing.assert_array_equal(layer.dequantize(), ref.dequantize())

    def test_partly_dead_h(self):
        """Dead inputs are decoupled from live ones: the live group is
        calibrated as under its own block of H, and the dead group is not
        zeroed but rounded as RTN would."""
        rng = np.random.default_rng(58)
        w = rng.standard_normal((6, 8))
        live = random_spd(rng, 4, jitter=1.0)
        h = np.zeros((8, 8))
        h[:4, :4] = live
        spec = CalibSpec(bits=2, group_size=4, alpha=0.0, backend=Backend.OPTQ)
        layer, _ = calibrate_layer(w, h, spec)
        alone, _ = calibrate_layer(w[:, :4], live.copy(), spec)
        np.testing.assert_array_equal(layer.codes[:, :4], alone.codes)
        np.testing.assert_allclose(layer.dequantize()[:, :4], alone.dequantize(), rtol=1e-12)
        ref = rtn_quantize(w[:, 4:], bits=2, group_size=4)
        np.testing.assert_array_equal(layer.codes[:, 4:], ref.codes)
        np.testing.assert_array_equal(layer.dequantize()[:, 4:], ref.dequantize())

    def test_on_grid_input_zero_proxy(self):
        w = np.array([[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]])
        spec = CalibSpec(bits=2, group_size=4, alpha=0.0, backend=Backend.OPTQ)
        layer, report = calibrate_layer(w, np.eye(4) * 1.5, spec)
        np.testing.assert_allclose(layer.dequantize(), w, atol=1e-12)
        assert report["proxy_error"] == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize("mode", ["agnostic", "adaptive"])
    def test_proxy_never_worse_than_rtn(self, mode):
        rng = np.random.default_rng(55)
        for trial in range(15):
            w = rng.standard_normal((16, 16))
            if mode == "agnostic":
                h = make_agnostic_h(rng, 16)
            else:
                h = make_adaptive_h(rng, 16, 16)
            spec = CalibSpec(bits=2, group_size=8, alpha=0.1, backend=Backend.OPTQ)
            layer, report = calibrate_layer(w, h.copy(), spec)
            damped = regularize(h, spec.alpha)
            rtn_delta = rtn_quantize(w, 2, 8).dequantize() - w
            assert report["proxy_error"] <= proxy(rtn_delta, damped) + 1e-9

    def test_sequential_updates_match_direct_solver(self, monkeypatch):
        # d_col <= 6 fits in one sweep block, inside which each column's
        # compensation reaches the columns to its right at once: the working
        # matrix the codec sees at column q holds every update before q
        trace = []
        sweep = oacal.calibrate._sweep

        def watched(work, upper, block_size, codec):
            def watch(q0, q1, cols):
                if q0:
                    trace.append(work.copy())
                return codec(q0, q1, cols)

            out = sweep(work, upper, block_size, watch)
            trace.append(work.copy())
            return out

        monkeypatch.setattr(oacal.calibrate, "_sweep", watched)
        rng = np.random.default_rng(56)
        for trial in range(100):
            d_row = int(rng.integers(1, 9))
            d_col = int(rng.integers(2, 7))
            w = rng.standard_normal((d_row, d_col))
            h = random_spd(rng, d_col, jitter=1.0)
            group = int(rng.choice([2, 3, d_col]))
            spec = CalibSpec(bits=2, group_size=group, alpha=0.0, backend=Backend.OPTQ)
            trace.clear()
            layer, _ = calibrate_layer(w, h, spec, guard=False)
            assert len(trace) == d_col
            w_hat_oracle, states = direct_solver_calibrate(w, h, 2, group)
            np.testing.assert_allclose(
                layer.dequantize(), w_hat_oracle, atol=1e-8
            )
            # the working matrix after each column equals the direct solve
            for q, (oracle_work, oracle_hat) in enumerate(states):
                got = trace[q]
                want = oracle_work.copy()
                want[:, : q + 1] = oracle_hat
                # production trace pins processed columns at quantized values
                np.testing.assert_allclose(got[:, : q + 1], want[:, : q + 1], atol=1e-8)
                if q + 1 < d_col:
                    nxt = states[q + 1][0]
                    np.testing.assert_allclose(
                        got[:, q + 1 :], nxt[:, q + 1 :], atol=1e-8
                    )

    @pytest.mark.parametrize("d_col, group", [(5, 2), (4, 3), (3, 1), (6, 4), (5, 5)])
    def test_direct_solver_matches_production_to_rounding(self, d_col, group):
        # one-column tail groups (5 by 2, 4 by 3) and group 1 are constant
        # groups, which both sides code by the one affine rule
        rng = np.random.default_rng(560 + 10 * d_col + group)
        for trial in range(30):
            d_row = int(rng.integers(1, 9))
            w = rng.standard_normal((d_row, d_col))
            h = random_spd(rng, d_col, jitter=1.0)
            spec = CalibSpec(bits=2, group_size=group, alpha=0.0)
            layer, _ = calibrate_layer(w, h, spec, guard=False)
            w_hat_oracle, _ = direct_solver_calibrate(w, h, 2, group)
            np.testing.assert_allclose(layer.dequantize(), w_hat_oracle, rtol=0, atol=1e-12)

    def test_perturbed_hessian_fails_the_direct_solver_comparison(self):
        # negative control: the comparison above must see a sweep that
        # updates under the wrong Hessian, h + 0.35 diag(1..d), while the
        # true h agrees on every draw, groups from [1, d_col] included
        rng = np.random.default_rng(0)
        disagree = ragged = 0
        for trial in range(40):
            d_row = int(rng.integers(1, 9))
            d_col = int(rng.integers(2, 7))
            group = int(rng.integers(1, d_col + 1))
            ragged += d_col % group != 0
            w = rng.standard_normal((d_row, d_col))
            h = random_spd(rng, d_col)
            perturbed = symmetrize(h + 0.35 * np.diag(np.arange(d_col) + 1.0))
            spec = CalibSpec(bits=2, group_size=group, alpha=0.0)
            w_hat, _ = direct_solver_calibrate(w, h, 2, group)
            layer, _ = calibrate_layer(w, h.copy(), spec, guard=False)
            np.testing.assert_allclose(layer.dequantize(), w_hat, rtol=0, atol=1e-8)
            layer, _ = calibrate_layer(w, perturbed, spec, guard=False)
            disagree += np.max(np.abs(layer.dequantize() - w_hat)) > 1e-8
        assert ragged > 0 and disagree > 0

    def test_block_batching_equivalent(self, monkeypatch):
        rng = np.random.default_rng(57)
        w = rng.standard_normal((8, 24))
        h = make_agnostic_h(rng, 24)
        spec = CalibSpec(bits=2, group_size=8, alpha=0.1)
        sweep = oacal.calibrate._sweep

        def calibrated(block_size):
            monkeypatch.setattr(
                oacal.calibrate, "_sweep",
                lambda work, upper, _, codec: sweep(work, upper, block_size, codec),
            )
            return calibrate_layer(w, h.copy(), spec)[0].dequantize()

        out1 = calibrated(1)
        for bs in (4, 8, 24, 100):
            np.testing.assert_allclose(out1, calibrated(bs), atol=1e-9)

    def test_spqr_backend_outliers_keep_original_values(self):
        rng = np.random.default_rng(58)
        w = rng.uniform(-0.01, 0.01, size=(8, 16))
        w[2, 3] = 1.0
        w[5, 11] = -0.8
        h = make_agnostic_h(rng, 16)
        spec = CalibSpec(
            bits=2, group_size=4, tau=3.5, alpha=0.1, backend=Backend.SPQR
        )
        layer, report = calibrate_layer(w, h, spec)
        outliers = outlier_list(layer)
        assert report["outlier_count"] == len(outliers) > 0
        deq = layer.dequantize()
        for r, c, val in outliers:
            assert val == w[r, c]
            assert deq[r, c] == val
        assert outliers == sorted(outliers)
        assert layer.stats2 is not None

    def test_constraint_satisfaction_exact(self):
        # non-outlier weights reproduce their dequantized code exactly
        rng = np.random.default_rng(59)
        w = rng.standard_normal((6, 12))
        h = make_agnostic_h(rng, 12)
        spec = CalibSpec(bits=3, group_size=4, alpha=0.1, backend=Backend.SPQR)
        layer, _ = calibrate_layer(w, h, spec)
        deq = layer.dequantize()
        out_mask = np.zeros(w.shape, dtype=bool)
        out_mask[layer.outlier_rows, layer.outlier_cols] = True
        edges = range(0, 12, 4)
        for r in range(6):
            for c in range(12):
                if out_mask[r, c]:
                    continue
                g = c // 4
                s, z = layer.scales[r, g], layer.zeros[r, g]
                assert deq[r, c] == (layer.codes[r, c] - z) * s

    def test_determinism(self):
        rng = np.random.default_rng(60)
        w = rng.standard_normal((8, 16))
        h = make_agnostic_h(rng, 16)
        spec = CalibSpec(bits=2, group_size=8, alpha=0.1, backend=Backend.SPQR)
        a, _ = calibrate_layer(w, h.copy(), spec)
        b, _ = calibrate_layer(w, h, spec)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.scales, b.scales)
        assert outlier_list(a) == outlier_list(b)

    def test_backend_by_hessian_mode_matrix(self):
        rng = np.random.default_rng(61)
        w = rng.standard_normal((6, 8))
        hs = {
            "agnostic": make_agnostic_h(rng, 8),
            "adaptive": make_adaptive_h(rng, 6, 8),
        }
        for backend in Backend:
            for h in hs.values():
                spec = CalibSpec(bits=2, group_size=4, alpha=0.1, backend=backend)
                _, report = calibrate_layer(w, h.copy(), spec)
                assert report["backend"] == backend.value
                assert report["proxy_error"] >= -1e-9

    @pytest.mark.parametrize("backend", [Backend.RTN, Backend.BINARY], ids=["rtn", "binary"])
    def test_dispatch(self, backend):
        """RTN returns exactly `rtn_quantize`'s layer, reads no Hessian and
        reports no damping; BINARY returns the better of its plan's
        compensated and plain sweeps and echoes the plan."""
        rng = np.random.default_rng(62)
        w = rng.standard_normal((6, 10))
        spec = CalibSpec(bits=3, group_size=4, alpha=0.1, backend=backend)
        if backend is Backend.RTN:
            h = None
            expected = rtn_quantize(w, 3, 4)
            expected_report = {
                "layer": "l", "backend": "rtn", "proxy_error": 0.0, "outlier_count": 0,
                "outlier_rate": 0.0, "column_update_norms": [0.0] * 10,
                "avg_bits_per_weight": bit_account(expected.meta)["avg_bits_per_weight"],
                "alpha": 0.0, "tau": None, "tau_normalization": "mean_saliency",
            }
        else:
            h = make_agnostic_h(rng, 10)
            m, damped, inv_diag, upper = oacal.calibrate._prepare(w, h.copy(), spec)
            quantize, plan_extra = calibrate_layer_binary(m, inv_diag, spec)
            sweeps = [quantize(upper), quantize(None)]
            errors = [proxy(w_hat - m, damped) for _, w_hat, _ in sweeps]
            best = int(errors[1] < errors[0])  # this layer falls back
            expected, _, norms = sweeps[best]
            expected_report = {
                "layer": "l", "backend": "binary", "proxy_error": errors[best],
                "outlier_count": 0, "outlier_rate": 0.0, "column_update_norms": norms,
                "avg_bits_per_weight": bit_account(expected.meta)["avg_bits_per_weight"],
                "alpha": 0.1, "tau": None, "tau_normalization": "mean_saliency",
                **plan_extra, "plain_proxy_error": errors[1],
            }
            if best:
                expected_report["fallback"] = "no_compensation"
        layer, report = calibrate_layer(w, h, spec, "l")
        assert type(layer) is type(expected)
        for f in fields(layer):
            assert np.array_equal(getattr(layer, f.name), getattr(expected, f.name))
        stages = report.pop("stage_seconds")  # timings
        assert list(stages) == list(oacal.calibrate.STAGES)
        assert all(s >= 0.0 for s in stages.values())
        assert report == expected_report


class TestCalibSpec:
    @pytest.mark.parametrize(
        "field, value, message",
        [("bits", 0, "bits must be in [1, 8], got 0"),
         ("bits", 9, "bits must be in [1, 8], got 9"),
         ("group_size", 0, "group_size must be >= 1, got 0")],
    )
    def test_rejects_out_of_range(self, field, value, message):
        with pytest.raises(ConfigError) as excinfo:
            CalibSpec(**{field: value})
        assert str(excinfo.value) == message


class TestCalibrateLayerBinary:
    """The BINARY backend through `calibrate_layer`."""

    def spec(self, **kw):
        defaults = dict(bits=2, group_size=4, alpha=0.1, backend=Backend.BINARY)
        defaults.update(kw)
        return CalibSpec(**defaults)

    def test_dominant_column_is_salient(self):
        rng = np.random.default_rng(62)
        w = rng.uniform(-0.01, 0.01, size=(8, 10))
        w[:, 4] = rng.uniform(0.9, 1.1, size=8) * np.sign(rng.standard_normal(8))
        layer, _ = calibrate_layer(w, np.eye(10) * 2.0, self.spec(salient_fraction=0.10))
        assert layer.salient_cols[4]
        assert layer.salient_cols.sum() == 1

    def test_sign_matrix_exact(self):
        rng = np.random.default_rng(63)
        c = 0.7
        w = c * np.sign(rng.standard_normal((6, 8)))
        w[w == 0] = c
        layer, report = calibrate_layer(w, np.eye(8) * 1.5, self.spec())
        np.testing.assert_allclose(layer.dequantize(), w, rtol=0, atol=1e-12)
        assert report["proxy_error"] == pytest.approx(0.0, abs=1e-16)

    def test_compensation_helps(self):
        rng = np.random.default_rng(64)
        better = 0
        for trial in range(10):
            w = rng.standard_normal((12, 16))
            h = make_agnostic_h(rng, 16)
            _, report = calibrate_layer(w, h, self.spec())
            without = report["plain_proxy_error"]
            assert report["proxy_error"] <= without + 1e-9
            better += report["proxy_error"] < without
        assert better >= 8  # strictly better almost always

    def test_accounting_in_binary_band(self):
        rng = np.random.default_rng(65)
        w = rng.standard_normal((64, 64))
        layer, _ = calibrate_layer(w, np.eye(64), self.spec(salient_fraction=0.08))
        assert 1.05 <= bit_account(layer.meta)["avg_bits_per_weight"] <= 1.15


class TestOneFactorizationPerLayer:
    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        original = getattr(oacal.calibrate, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(oacal.calibrate, name, counting)
        return calls

    def test_guarded_binary_factorizes_and_splits_once(self, monkeypatch):
        rng = np.random.default_rng(66)
        w = rng.standard_normal((12, 16))
        h = make_agnostic_h(rng, 16)
        spec = CalibSpec(alpha=0.1, backend=Backend.BINARY)
        _, with_comp = calibrate_layer(w, h.copy(), spec, guard=False)
        factorizations = self.count_calls(monkeypatch, "inverse_upper_factor")
        searches = self.count_calls(monkeypatch, "splitting_search")
        _, guarded = calibrate_layer(w, h, spec)
        assert len(factorizations) == 1
        assert len(searches) == 1
        plain = guarded["plain_proxy_error"]
        assert guarded["proxy_error"] == min(with_comp["proxy_error"], plain)

    def test_spqr_factorizes_once(self, monkeypatch):
        """One factorization and one RTN per layer: the outlier saliency and
        the guard share the RTN."""
        rng = np.random.default_rng(67)
        w = rng.standard_normal((8, 16))
        h = make_agnostic_h(rng, 16)
        spec = CalibSpec(bits=2, group_size=4, alpha=0.1, backend=Backend.SPQR)
        factorizations = self.count_calls(monkeypatch, "inverse_upper_factor")
        rtns = self.count_calls(monkeypatch, "rtn_quantize")
        calibrate_layer(w, h, spec)
        assert len(factorizations) == 1
        assert len(rtns) == 1


class TestHessianHandover:
    """`calibrate_layer` damps the Hessian it is given in place and makes no
    more than about two more d x d arrays: the Cholesky factor and its
    triangular inverse."""

    def test_damps_the_given_hessian_in_place(self):
        rng = np.random.default_rng(68)
        w = rng.standard_normal((6, 8))
        h = make_agnostic_h(rng, 8)
        expected = regularize(h.copy(), 0.1)
        calibrate_layer(w, h, CalibSpec(alpha=0.1))
        assert h.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "backend", [Backend.OPTQ, Backend.SPQR, Backend.BINARY], ids=["optq", "spqr", "binary"]
    )
    def test_temporaries_stay_under_two_and_a_quarter_hessians(self, backend, monkeypatch):
        """The whole call stays under 2.25 Hessians (2.13 measured, in the
        factorization). The factor and the compensated sweep's dequantized
        matrix are freed before the guard sweeps, so from then on no d x d
        array is alive: 0.11-0.23 Hessians measured, against 1.20-1.32
        while the factor stayed."""
        d = 512
        hessian = d * d * np.dtype(np.float64).itemsize
        rng = np.random.default_rng(69)
        w = rng.standard_normal((16, d))
        h = make_agnostic_h(rng, d, n=2 * d)
        sweep = oacal.calibrate._sweep
        peaks = []

        def sweep_from_guard_on(work, upper, *args):
            if upper is None:  # the guard's sweep
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            return sweep(work, upper, *args)

        monkeypatch.setattr(oacal.calibrate, "_sweep", sweep_from_guard_on)
        tracemalloc.start()
        try:
            calibrate_layer(w, h, CalibSpec(backend=backend))
            _, guard_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peak = max(peaks + [guard_peak])
        assert guard_peak <= 0.25 * hessian
        assert peak <= 2.25 * hessian


class TestGuard:
    """One guard rule for every Hessian backend: the plan's codec swept
    without compensation, kept when its damped proxy error is lower."""

    @staticmethod
    def draw(rng):
        """A small layer with ragged groups and, often, constant groups."""
        d_row, d_col = int(rng.integers(1, 7)), int(rng.integers(1, 13))
        group = int(rng.integers(1, d_col + 3))
        w = rng.standard_normal((d_row, d_col))
        for c0 in range(0, d_col, group):
            if rng.random() < 0.3:  # every row of this group constant
                w[:, c0 : c0 + group] = rng.standard_normal((d_row, 1)) * rng.integers(0, 2)
        return w, make_agnostic_h(rng, d_col, n=int(rng.integers(1, 2 * d_col + 2))), group

    def test_optq_plain_sweep_is_rtn(self):
        rng = np.random.default_rng(70)
        for trial in range(150):
            w, h, group = self.draw(rng)
            spec = CalibSpec(bits=int(rng.integers(1, 9)), group_size=group, alpha=0.1)
            m, damped, inv_diag, _ = oacal.calibrate._prepare(w, h.copy(), spec)
            quantize, _ = oacal.calibrate._affine_plan(m, inv_diag, spec)
            plain, w_hat, norms = quantize(None)
            ref = rtn_quantize(w, spec.bits, group)
            for f in fields(ref):
                assert np.array_equal(getattr(plain, f.name), getattr(ref, f.name)), f.name
            assert w_hat.tobytes() == ref.dequantize().tobytes()
            assert norms == [0.0] * w.shape[1]
            _, report = calibrate_layer(w, h, spec)
            assert report["plain_proxy_error"] == proxy(ref.dequantize() - m, damped)

    @pytest.mark.parametrize(
        "backend", [Backend.OPTQ, Backend.SPQR, Backend.BINARY], ids=["optq", "spqr", "binary"]
    )
    def test_guarded_proxy_is_the_lower_of_both(self, backend):
        rng = np.random.default_rng(71)
        fallbacks = 0
        for trial in range(60):
            w = rng.standard_normal((6, 8))
            h = make_agnostic_h(rng, 8, n=12)
            spec = CalibSpec(bits=2, group_size=4, alpha=(0.0, 0.01, 0.1)[trial % 3],
                             backend=backend)
            _, compensated = calibrate_layer(w, h.copy(), spec, guard=False)
            _, guarded = calibrate_layer(w, h, spec)
            plain = guarded["plain_proxy_error"]
            assert guarded["proxy_error"] == min(compensated["proxy_error"], plain)
            fell_back = plain < compensated["proxy_error"]
            assert guarded.get("fallback") == ("no_compensation" if fell_back else None)
            fallbacks += fell_back
        assert fallbacks > 0  # the draws reach the fallback branch

    def test_spqr_fallback_keeps_the_plan(self):
        """A SpQR layer that falls back keeps its outliers, its double-quantized
        statistics and the bits its plan accounted for."""
        rng = np.random.default_rng(72)
        for trial in range(100):
            w = rng.standard_normal((6, 8))
            h = make_agnostic_h(rng, 8, n=12)
            spec = CalibSpec(bits=2, group_size=4, alpha=0.01, backend=Backend.SPQR)
            layer, report = calibrate_layer(w, h.copy(), spec)
            if "fallback" in report and layer.outlier_vals.size:
                break
        else:
            pytest.fail("no SpQR layer fell back")
        compensated, _ = calibrate_layer(w, h, spec, guard=False)
        assert report["proxy_error"] == report["plain_proxy_error"]
        assert report["outlier_count"] == layer.outlier_vals.size
        assert outlier_list(layer) == outlier_list(compensated)
        assert layer.stats2.shape == compensated.stats2.shape == (2, 4, 1)
        assert bit_account(layer.meta) == bit_account(compensated.meta)
        assert report["avg_bits_per_weight"] == bit_account(compensated.meta)["avg_bits_per_weight"]


def column_at_a_time(work, upper, block_size, codec):
    """The uncompensated sweep driven as the compensated one drives its
    codec: one column per call, left to right."""
    assert upper is None
    w_hat = np.empty_like(work)
    for q in range(work.shape[1]):
        w_hat[:, q : q + 1] = codec(q, q + 1, work[:, q : q + 1])
    return w_hat, [0.0] * work.shape[1]


class TestPlainSweep:
    """Without compensation the columns are independent, so the plain sweep
    codes them all in one codec call; that call equals one call per column."""

    @pytest.mark.parametrize(
        "backend", [Backend.OPTQ, Backend.SPQR, Backend.BINARY], ids=["optq", "spqr", "binary"]
    )
    def test_one_call_equals_column_at_a_time(self, backend, monkeypatch):
        rng = np.random.default_rng(73)
        # 37 columns in groups of 8 leave a ragged 5-column last group
        w = rng.standard_t(3, size=(12, 37))
        h = make_agnostic_h(rng, 37)
        spec = CalibSpec(bits=3, group_size=8, tau=2.0, backend=backend,
                         stat_group=5, salient_fraction=0.2)
        m, _, inv_diag, _ = oacal.calibrate._prepare(w, h, spec)
        plan = (oacal.calibrate.calibrate_layer_binary if backend is Backend.BINARY
                else oacal.calibrate._affine_plan)
        quantize, _ = plan(m, inv_diag, spec)
        calls = []
        sweep = oacal.calibrate._sweep

        def counted(work, upper, block_size, codec):
            def count(q0, q1, cols):
                calls.append((q0, q1))
                return codec(q0, q1, cols)

            return sweep(work, upper, block_size, count)

        monkeypatch.setattr(oacal.calibrate, "_sweep", counted)
        layer, w_hat, norms = quantize(None)
        assert calls == [(0, 37)]
        monkeypatch.setattr(oacal.calibrate, "_sweep", column_at_a_time)
        ref, ref_hat, ref_norms = quantize(None)
        assert w_hat.tobytes() == ref_hat.tobytes()
        assert norms == ref_norms == [0.0] * 37
        for f in fields(ref):
            got, want = getattr(layer, f.name), getattr(ref, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape, f.name
                assert got.tobytes() == want.tobytes(), f.name
            else:
                assert got == want, f.name
        if backend is Backend.SPQR:
            # one row per group; 12 rows in runs of 5 make 3 runs
            assert layer.outlier_vals.size and layer.stats2.shape == (5, 4, 3)
        if backend is Backend.BINARY:
            n_sal = int(layer.salient_cols.sum())
            assert 0 < n_sal < 37 and layer.membership.any()
            assert layer.membership.shape == (12, 37 - n_sal)
            assert layer.signs2.shape == (12, n_sal)


def assert_same_layer(got, want):
    """Every field of two layers equal, arrays byte for byte."""
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


class TestCompensatedSweepReference:
    """The column-major sweep and its one-column codec calls reproduce the
    row-major reference (`tests/sweep_reference.py`) byte for byte: codes,
    statistics and their records, outliers, planes, membership and alphas,
    the dequantized matrix, its proxy error and the update norms, and
    diag(H^-1)."""

    # d_row, d_col, group, stat_group: one row; one column; a ragged last
    # group and runs of 5 over 12 rows; groups of 12 straddling the 32-column
    # blocks, with salient columns and outliers in several blocks
    SHAPES = [(1, 40, 8, 16), (7, 1, 4, 16), (12, 37, 8, 5), (9, 100, 12, 4), (33, 70, 16, 16)]
    BACKENDS = pytest.mark.parametrize(
        "backend", [Backend.OPTQ, Backend.SPQR, Backend.BINARY], ids=["optq", "spqr", "binary"]
    )

    @staticmethod
    def assert_matches_reference(w, h, spec):
        """Both sweeps of `spec`'s plan against the reference; returns the
        compensated layer."""
        m, damped, inv_diag, upper = oacal.calibrate._prepare(w, h, spec)
        assert inv_diag.tobytes() == reference.inv_diag(upper).tobytes()
        if spec.backend is Backend.BINARY:
            quantize, _ = calibrate_layer_binary(m, inv_diag, spec)
        else:
            quantize, _ = oacal.calibrate._affine_plan(m, inv_diag, spec)
        layers = []
        for compensate in (upper, None):
            layer, w_hat, norms = quantize(compensate)
            if spec.backend is Backend.BINARY:
                ref, ref_hat, ref_norms = reference.binary_quantize(m, layer, compensate)
            else:
                ref, ref_hat, ref_norms = reference.affine_quantize(m, inv_diag, spec, compensate)
            assert_same_layer(layer, ref)
            assert w_hat.tobytes() == ref_hat.tobytes()
            assert norms == ref_norms
            proxy_error = oacal.calibrate._proxy_error
            assert proxy_error(w_hat, m, damped) == proxy_error(ref_hat, m, damped)
            layers.append(layer)
        return layers[0]

    @BACKENDS
    @pytest.mark.parametrize("d_row, d_col, group, stat_group", SHAPES)
    def test_matches_row_major_reference(self, backend, d_row, d_col, group, stat_group):
        rng = np.random.default_rng(d_row * 1000 + d_col)
        w = rng.standard_t(3, size=(d_row, d_col))
        h = make_agnostic_h(rng, d_col, n=d_col + 3)
        spec = CalibSpec(bits=3, group_size=group, tau=1.5, backend=backend,
                         stat_group=stat_group, salient_fraction=0.2)
        layer = self.assert_matches_reference(w, h, spec)
        if d_col > 64 and backend is Backend.SPQR:  # the shapes of several blocks
            assert len(set(layer.outlier_cols // 32)) > 1
        if d_col > 64 and backend is Backend.BINARY:
            assert len(set(np.flatnonzero(layer.salient_cols) // 32)) > 1

    @pytest.mark.parametrize("backend", [Backend.OPTQ, Backend.SPQR], ids=["optq", "spqr"])
    def test_ties_round_half_away_from_zero(self, backend):
        """Half-integer weights, each group spanning [-3, 4] (scale 1, zero
        3 at 3 bits), code exactly half-way between two codes wherever
        compensation has not moved them: the plain sweep everywhere and the
        compensated one in its first column."""
        rng = np.random.default_rng(74)
        w = rng.integers(-3, 4, size=(6, 24)) + 0.5
        w[:, ::8], w[:, 1::8] = -3.0, 4.0
        h = make_agnostic_h(rng, 24)
        self.assert_matches_reference(w, h, CalibSpec(bits=3, group_size=8, tau=1.5, backend=backend))


class TestSweepAlpha:
    """The alpha sweep runs whole quantize runs (tests/test_pipeline.py);
    outside it a failing Cholesky is an error, not a recorded candidate."""

    def test_cholesky_failure_propagates_without_sweep(self):
        # indefinite at the default damping; H = 0 would factorize (dead inputs)
        w = np.zeros((2, 2))
        with pytest.raises(NotPositiveDefinite):
            calibrate_layer(w, np.array([[1.0, 2.0], [2.0, 1.0]]), CalibSpec(bits=2, group_size=2))
