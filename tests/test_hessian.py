import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oacal.errors import (
    DimMismatch,
    EmptyAccumulator,
    NegativeAlpha,
    NonFinite,
)
from oacal.hessian import (
    HessianAccumulator,
    HessianMode,
    accumulate_adaptive,
    accumulate_agnostic_batch,
    finalize,
    regularize,
)
from oacal.linalg import cholesky, symmetrize


def row_blocks(gradient_samples):
    """Per-row curvature blocks (1/N) sum_i G_i[j]^T G_i[j], one per row j."""
    d_row = gradient_samples[0].shape[0]
    return [
        sum(np.outer(g[j], g[j]) for g in gradient_samples) / len(gradient_samples)
        for j in range(d_row)
    ]


def add_gradient(acc, g):
    """Add G^T G through the factor pair (x, dy) = (G, I), whose dy^T x is G."""
    g = np.asarray(g, dtype=np.float64)
    accumulate_adaptive(acc, g, np.eye(g.shape[0]))


class TestAccumulators:
    def test_single_outer_product(self):
        acc = HessianAccumulator(2, HessianMode.AGNOSTIC)
        accumulate_agnostic_batch(acc, [[1.0, 0.0]])
        np.testing.assert_allclose(acc.sum, [[1.0, 0.0], [0.0, 0.0]])
        assert acc.n_samples == 1

    def test_doubling(self):
        acc = HessianAccumulator(2, HessianMode.AGNOSTIC)
        accumulate_agnostic_batch(acc, [[1.0, 2.0]])
        accumulate_agnostic_batch(acc, [[1.0, 2.0]])
        np.testing.assert_allclose(finalize(acc), [[2.0, 4.0], [4.0, 8.0]])

    def test_agnostic_matches_brute_force(self):
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((100, 6))
        acc = HessianAccumulator(6, HessianMode.AGNOSTIC)
        for x in xs:
            accumulate_agnostic_batch(acc, x[None, :])
        brute = np.zeros((6, 6))
        for x in xs:
            brute += np.outer(x, x)
        np.testing.assert_allclose(finalize(acc), brute, atol=1e-10)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(15)
        xs = rng.standard_normal((40, 5))
        a = HessianAccumulator(5, HessianMode.AGNOSTIC)
        b = HessianAccumulator(5, HessianMode.AGNOSTIC)
        for x in xs:
            accumulate_agnostic_batch(a, x[None, :])
        accumulate_agnostic_batch(b, xs)
        np.testing.assert_allclose(a.sum, b.sum, atol=1e-10)
        assert b.n_samples == 40

    @pytest.mark.parametrize("d", [64, 256, 1024])
    @pytest.mark.parametrize("t", [64, 128])
    def test_agnostic_equals_gram_running_sum_bit_for_bit(self, t, d):
        rng = np.random.default_rng(t + d)
        acc = HessianAccumulator(d, HessianMode.AGNOSTIC)
        expected = np.zeros((d, d))
        for _ in range(3):
            m = rng.standard_normal((t, d))
            accumulate_agnostic_batch(acc, m)
            expected += m.T @ m
        h = finalize(acc)
        np.testing.assert_array_equal(h, expected)
        np.testing.assert_array_equal(h, h.T)

    def test_agnostic_batch_allocates_no_square_temporary(self):
        """The fold updates the sum in place: one call at d = 1024 allocates < one d x d array."""
        d = 1024
        acc = HessianAccumulator(d, HessianMode.AGNOSTIC)
        m = np.random.default_rng(7).standard_normal((128, d))
        tracemalloc.start()
        try:
            accumulate_agnostic_batch(acc, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * np.dtype(np.float64).itemsize
        assert acc.sum[d - 1, 0] != 0.0

    def test_adaptive_fold_allocates_no_square_temporary(self):
        """The fold adds into the sum in place: one call at d_col = 1024 allocates < one d x d array."""
        d = 1024
        acc = HessianAccumulator(d, HessianMode.ADAPTIVE)
        rng = np.random.default_rng(8)
        x, dy = rng.standard_normal((128, d)), rng.standard_normal((128, 256))
        tracemalloc.start()
        try:
            accumulate_adaptive(acc, x, dy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * np.dtype(np.float64).itemsize
        assert acc.sum[d - 1, 0] != 0.0

    # the toy's and the M model's (d_row, d_col) layer shapes, at their window lengths
    @pytest.mark.parametrize(
        "t, d_row, d_col",
        [(64, 64, 64), (64, 256, 64), (64, 64, 256),
         (128, 256, 256), (128, 1024, 256), (128, 256, 1024)],
    )
    def test_adaptive_fold_equals_product_running_sum_bit_for_bit(self, t, d_row, d_col):
        rng = np.random.default_rng(t + d_row + 3 * d_col)
        acc = HessianAccumulator(d_col, HessianMode.ADAPTIVE)
        expected = np.zeros((d_col, d_col))
        for _ in range(3):
            x, dy = rng.standard_normal((t, d_col)), rng.standard_normal((t, d_row))
            accumulate_adaptive(acc, x, dy)
            expected += x.T @ ((dy @ dy.T) @ x)
        np.testing.assert_array_equal(acc.sum, expected)

    def test_adaptive_rank_one(self):
        acc = HessianAccumulator(2, HessianMode.ADAPTIVE)
        add_gradient(acc, [[1.0, 2.0]])
        np.testing.assert_allclose(acc.sum, [[1.0, 2.0], [2.0, 4.0]])

    def test_adaptive_orthonormal_rows(self):
        acc = HessianAccumulator(2, HessianMode.ADAPTIVE)
        add_gradient(acc, np.eye(2))
        np.testing.assert_allclose(acc.sum, np.eye(2))

    def test_adaptive_equals_row_sum(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((4, 3))
        acc = HessianAccumulator(3, HessianMode.ADAPTIVE)
        add_gradient(acc, g)
        by_rows = sum(np.outer(row, row) for row in g)
        np.testing.assert_allclose(acc.sum, by_rows, atol=1e-12)

    def test_mode_and_dim_checks(self):
        acc = HessianAccumulator(2, HessianMode.AGNOSTIC)
        with pytest.raises(DimMismatch):
            add_gradient(acc, np.eye(2))
        with pytest.raises(DimMismatch):
            accumulate_agnostic_batch(acc, [[1.0, 2.0, 3.0]])

    def test_adaptive_row_count_mismatch(self):
        acc = HessianAccumulator(3, HessianMode.ADAPTIVE)
        with pytest.raises(DimMismatch):
            accumulate_adaptive(acc, np.ones((4, 3)), np.ones((5, 2)))
        with pytest.raises(DimMismatch):
            accumulate_adaptive(acc, np.ones((4, 2)), np.ones((4, 2)))
        assert acc.n_samples == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_adaptive_non_finite_factor(self, bad):
        acc = HessianAccumulator(3, HessianMode.ADAPTIVE)
        x, dy = np.ones((4, 3)), np.ones((4, 2))
        dy[2, 1] = bad
        with pytest.raises(NonFinite):
            accumulate_adaptive(acc, x, dy)
        x[1, 0] = bad
        with pytest.raises(NonFinite):
            accumulate_adaptive(acc, x, np.ones((4, 2)))
        assert acc.n_samples == 0
        assert not acc.sum.any()

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(1, 12),
        d_row=st.integers(1, 12),
        d_col=st.integers(1, 8),
        zero_last_row=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(t=11, d_row=1, d_col=1, zero_last_row=False, seed=999_999_999)
    def test_factor_form_equals_explicit_gram(self, t, d_row, d_col, zero_last_row, seed):
        """T below, at and above d_row; a zero last row of dy (a position with no loss).

        The bound is the forward-error scale of x^T (dy dy^T) x, elementwise
        A^T A with A = |dy|^T |x|: a G^T G entry that cancels far below it (the
        pinned example has G = 0.0100 against A = 6.78) is not held to its own
        relative accuracy.
        """
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((t, d_col))
        dy = rng.standard_normal((t, d_row))
        if zero_last_row:
            dy[-1] = 0.0
        acc = HessianAccumulator(d_col, HessianMode.ADAPTIVE)
        accumulate_adaptive(acc, x, dy)
        g = dy.T @ x
        expected = g.T @ g
        a = np.abs(dy).T @ np.abs(x)
        assert np.all(np.abs(acc.sum - expected) <= 1e-12 * (a.T @ a))
        assert acc.n_samples == 1


class TestFinalize:
    def test_single_sample_sum_equals_mean(self):
        acc = HessianAccumulator(2, HessianMode.AGNOSTIC)
        accumulate_agnostic_batch(acc, [[3.0, -1.0]])
        np.testing.assert_allclose(finalize(acc), np.outer([3, -1], [3, -1]))

    def test_empty_accumulator(self):
        with pytest.raises(EmptyAccumulator):
            finalize(HessianAccumulator(2, HessianMode.AGNOSTIC))

    @pytest.mark.parametrize("mode", list(HessianMode), ids=lambda m: m.value)
    def test_overflowing_sum_is_non_finite(self, mode):
        # finite samples whose products overflow the sum to inf
        acc = HessianAccumulator(2, mode)
        x = np.array([[1e200, 1.0]])
        if mode is HessianMode.AGNOSTIC:
            accumulate_agnostic_batch(acc, x)
        else:
            accumulate_adaptive(acc, x, np.ones((1, 1)))
        assert not np.all(np.isfinite(acc.sum))
        with pytest.raises(NonFinite, match="hessian"):
            finalize(acc)

    def test_psd_after_random_sequences(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            dim = int(rng.integers(1, 9))
            acc = HessianAccumulator(dim, HessianMode.ADAPTIVE)
            for _ in range(int(rng.integers(1, 6))):
                add_gradient(
                    acc, rng.standard_normal((int(rng.integers(1, 5)), dim))
                )
            eigs = np.linalg.eigvalsh(finalize(acc))
            assert eigs.min() >= -1e-9


class TestRegularize:
    def test_damps_in_place(self):
        h = np.diag([2.0, 4.0])
        assert regularize(h, 0.1) is h
        np.testing.assert_allclose(h, np.diag([2.3, 4.3]))

    def test_direct_formula(self):
        out = regularize(np.diag([2.0, 4.0]), 0.1)
        np.testing.assert_allclose(out, np.diag([2.3, 4.3]))

    def test_alpha_zero_identity(self):
        h = symmetrize(np.arange(9.0).reshape(3, 3))
        np.testing.assert_array_equal(regularize(h.copy(), 0.0), h)

    def test_dead_inputs_get_a_unit_diagonal_before_damping(self):
        """Zero rows of h (dead inputs) get diagonal 1 first, and the mean
        that sets the damping counts them so: h = 0 becomes (1 + alpha) I."""
        np.testing.assert_array_equal(regularize(np.zeros((3, 3)), 0.5), 1.5 * np.eye(3))
        h = np.zeros((4, 4))
        h[1:3, 1:3] = [[2.0, 1.0], [1.0, 4.0]]
        expected = h.copy()
        expected[[0, 3], [0, 3]] = 1.0
        expected[np.diag_indices(4)] += 0.1 * 2.0  # mean of (1, 2, 4, 1)
        np.testing.assert_array_equal(regularize(h, 0.1), expected)

    def test_negative_alpha(self):
        with pytest.raises(NegativeAlpha):
            regularize(np.eye(2), -0.5)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0])
    def test_alpha_must_be_finite_and_non_negative(self, alpha):
        with pytest.raises(NegativeAlpha):
            regularize(np.eye(2), alpha)

    def test_alpha_one_makes_cholesky_succeed(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            dim = int(rng.integers(2, 10))
            if rng.random() < 0.5:
                a = rng.standard_normal((dim, dim))
                h = symmetrize(a @ a.T)
            else:
                # rank-deficient: fewer factors than dimensions
                a = rng.standard_normal((dim, max(1, dim // 2)))
                h = symmetrize(a @ a.T)
            cholesky(regularize(h, 1.0))

    @given(
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_diagonal_shift_only(self, dim, alpha, seed):
        h = symmetrize(np.random.default_rng(seed).standard_normal((dim, dim)))
        out = regularize(h.copy(), alpha)
        shift = alpha * np.mean(np.diag(h))
        np.testing.assert_allclose(np.diag(out), np.diag(h) + shift, atol=1e-12)
        off = ~np.eye(dim, dtype=bool)
        np.testing.assert_array_equal(out[off], h[off])


# ---------------------------------------------------------------------------
# Logistic Fisher oracle: exact, expected and sampled curvature of one
# binomial logistic regression, P(y=1|x) = sigmoid(w.x)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogisticModel:
    """Weights of a binomial logistic classifier."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.float64))
        if self.w.ndim != 1:
            raise ValueError("logistic weights must be a vector")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("logistic weights contain NaN or Inf")


def sigmoid(t):
    """Numerically stable sigmoid, branching on the sign of t."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out if out.ndim else float(out)


def _check_x(m: LogisticModel, x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != m.w.shape:
        raise ValueError(f"x has shape {v.shape}, weights {m.w.shape}")
    return v


def logistic_loss(m: LogisticModel, x, y: int) -> float:
    """Per-sample cross-entropy -[y log pi + (1-y) log(1-pi)], overflow-safe."""
    v = _check_x(m, x)
    t = float(m.w @ v)
    # log(1 + e^t) computed stably:  max(t, 0) + log1p(e^{-|t|})
    softplus = max(t, 0.0) + np.log1p(np.exp(-abs(t)))
    return softplus - y * t


def logistic_gradient(m: LogisticModel, x, y: int) -> np.ndarray:
    """Per-sample gradient x * (pi - y)."""
    v = _check_x(m, x)
    pi = sigmoid(float(m.w @ v))
    return v * (pi - y)


def _as_sample_block(m: LogisticModel, xs) -> np.ndarray:
    block = np.asarray(xs, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] == 0:
        raise ValueError("need a nonempty list of input vectors")
    if block.shape[1] != m.w.shape[0]:
        raise ValueError(f"inputs have dim {block.shape[1]}, weights {m.w.shape[0]}")
    if not np.all(np.isfinite(block)):
        raise ValueError("inputs contain NaN or Inf")
    return block


def logistic_exact_hessian(m: LogisticModel, xs) -> np.ndarray:
    """Closed-form mean Hessian (1/N) sum_i x_i pi(1-pi) x_i^T."""
    block = _as_sample_block(m, xs)
    pi = sigmoid(block @ m.w)
    weights = pi * (1.0 - pi)
    h = (block * weights[:, None]).T @ block / block.shape[0]
    return symmetrize(h)


def fisher_expected_outer(m: LogisticModel, xs) -> np.ndarray:
    """Mean over samples of E_{y|x}[g g^T], summing y in {0, 1} analytically."""
    block = _as_sample_block(m, xs)
    pi = sigmoid(block @ m.w)
    # E_y[(pi - y)^2] expanded literally: P(y=0) pi^2 + P(y=1) (pi-1)^2
    weights = (1.0 - pi) * pi**2 + pi * (pi - 1.0) ** 2
    h = (block * weights[:, None]).T @ block / block.shape[0]
    return symmetrize(h)


def fisher_sampled_outer(m: LogisticModel, xs, n_draws: int, rng) -> np.ndarray:
    """Monte-Carlo estimate of the Fisher matrix.

    Draws (x, y) pairs with x uniform over the rows of `xs` and
    y ~ Bernoulli(sigmoid(w.x)), then averages the gradient outer products.
    """
    block = _as_sample_block(m, xs)
    if n_draws < 1:
        raise ValueError("need at least one draw")
    idx = rng.integers(0, block.shape[0], size=n_draws)
    chosen = block[idx]
    pi = sigmoid(chosen @ m.w)
    y = (rng.random(n_draws) < pi).astype(np.float64)
    scaled = chosen * (pi - y)[:, None]
    return symmetrize(scaled.T @ scaled / n_draws)



class TestLogisticOracle:
    def test_gradient_at_zero_weights(self):
        m = LogisticModel(np.zeros(2))
        np.testing.assert_allclose(
            logistic_gradient(m, [1.0, 0.0], 1), [-0.5, 0.0]
        )
        np.testing.assert_allclose(
            logistic_gradient(m, [1.0, 0.0], 0), [0.5, 0.0]
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = int(rng.integers(1, 8))
            w = rng.standard_normal(d)
            x = rng.standard_normal(d)
            y = int(rng.integers(0, 2))
            grad = logistic_gradient(LogisticModel(w), x, y)
            h = 1e-6
            fd = np.empty(d)
            for k in range(d):
                e = np.zeros(d)
                e[k] = h
                fd[k] = (
                    logistic_loss(LogisticModel(w + e), x, y)
                    - logistic_loss(LogisticModel(w - e), x, y)
                ) / (2 * h)
            np.testing.assert_allclose(grad, fd, atol=1e-6)

    def test_exact_hessian_at_zero_weights(self):
        m = LogisticModel(np.zeros(2))
        np.testing.assert_allclose(
            logistic_exact_hessian(m, [[1.0, 0.0]]), [[0.25, 0.0], [0.0, 0.0]]
        )
        np.testing.assert_allclose(
            logistic_exact_hessian(m, [[0.0, 0.0]]), np.zeros((2, 2))
        )

    def test_exact_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        d = 4
        w = rng.standard_normal(d) * 0.5
        xs = rng.standard_normal((12, d))
        ys = rng.integers(0, 2, size=12)
        exact = logistic_exact_hessian(LogisticModel(w), xs)

        def mean_loss(wv):
            model = LogisticModel(wv)
            return np.mean(
                [logistic_loss(model, x, int(y)) for x, y in zip(xs, ys)]
            )

        h = 1e-4
        fd = np.empty((d, d))
        for a in range(d):
            for b in range(d):
                ea = np.zeros(d)
                eb = np.zeros(d)
                ea[a] = h
                eb[b] = h
                fd[a, b] = (
                    mean_loss(w + ea + eb)
                    - mean_loss(w + ea - eb)
                    - mean_loss(w - ea + eb)
                    + mean_loss(w - ea - eb)
                ) / (4 * h * h)
        np.testing.assert_allclose(exact, fd, atol=1e-5)

    def test_fisher_identity_exact(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(1, 17))
            m = LogisticModel(rng.standard_normal(d))
            xs = rng.standard_normal((int(rng.integers(1, 30)), d))
            diff = np.max(
                np.abs(fisher_expected_outer(m, xs) - logistic_exact_hessian(m, xs))
            )
            worst = max(worst, diff)
        assert worst < 1e-12

    def test_fisher_vanishes_at_saturation(self):
        m = LogisticModel(np.array([50.0]))
        out = fisher_expected_outer(m, [[-10.0]])  # pi ~ 0
        assert np.max(np.abs(out)) < 1e-12

    def test_sampled_fisher_converges(self):
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            d = 4
            m = LogisticModel(rng.standard_normal(d))
            xs = rng.standard_normal((32, d))
            exact = logistic_exact_hessian(m, xs)
            err_small = np.max(
                np.abs(fisher_sampled_outer(m, xs, 100, rng) - exact)
            )
            err_big = np.max(
                np.abs(fisher_sampled_outer(m, xs, 10_000, rng) - exact)
            )
            wins += err_big < err_small
        assert wins >= 19  # >= 95% of 20 trials

    def test_empty_inputs(self):
        m = LogisticModel(np.zeros(2))
        with pytest.raises(ValueError, match="nonempty"):
            logistic_exact_hessian(m, np.empty((0, 2)))
        with pytest.raises(ValueError, match="nonempty"):
            fisher_expected_outer(m, np.empty((0, 2)))

    def test_sigmoid_stable_extremes(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0
        assert sigmoid(0.0) == 0.5


class TestAggregation:
    def test_upper_bound_over_row_hessians(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            d_row = int(rng.integers(1, 6))
            d_col = int(rng.integers(1, 6))
            blocks = []
            for _ in range(d_row):
                a = rng.standard_normal((d_col, d_col))
                blocks.append(symmetrize(a @ a.T))
            total = sum(blocks)
            delta = rng.standard_normal((d_row, d_col))
            lhs = float(np.sum((delta @ total) * delta))
            rhs = sum(
                float(delta[j] @ blocks[j] @ delta[j]) for j in range(d_row)
            )
            assert lhs >= rhs - 1e-9

    def test_gram_equals_row_hessian_sum(self):
        # each window's G = dy^T x, added through the pair (G, I) and
        # through a general factor pair
        rng = np.random.default_rng(32)
        samples = [rng.standard_normal((5, 4)) for _ in range(7)]
        factor_pairs = [(rng.standard_normal((3, 4)), rng.standard_normal((3, 5)))
                        for _ in range(6)]
        for pairs in ([(g, np.eye(5)) for g in samples], factor_pairs):
            acc = HessianAccumulator(4, HessianMode.ADAPTIVE)
            for x, dy in pairs:
                accumulate_adaptive(acc, x, dy)
            via_rows = sum(row_blocks([dy.T @ x for x, dy in pairs]))
            np.testing.assert_allclose(finalize(acc) / acc.n_samples, via_rows, atol=1e-10)
