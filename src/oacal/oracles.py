"""Reference oracles, kept off the quantization path: the logistic Fisher
oracle (exact, expected and sampled curvature of one logistic regression),
the column sweep's direct-solver reference, and `run_verify_oracles`, the
property bundle behind `oacal verify-oracles`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import CalibSpec, calibrate_layer
from .errors import DimMismatch, EmptyInput
from .hessian import HessianAccumulator, HessianMode, accumulate_adaptive, finalize
from .linalg import require_finite, symmetrize
from .quant import QuantizedLayer

__all__ = [
    "LogisticModel",
    "sigmoid",
    "logistic_loss",
    "logistic_gradient",
    "logistic_exact_hessian",
    "fisher_expected_outer",
    "fisher_sampled_outer",
    "direct_solver_calibrate",
    "run_verify_oracles",
]


# ---------------------------------------------------------------------------
# Binomial logistic regression oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogisticModel:
    """Weights of a binomial logistic classifier, P(y=1|x) = sigmoid(w.x)."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.float64))
        if self.w.ndim != 1:
            raise DimMismatch("logistic weights must be a vector")
        require_finite(self.w, "logistic weights")


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
        raise DimMismatch(f"x has shape {v.shape}, weights {m.w.shape}")
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
        raise EmptyInput("need a nonempty list of input vectors")
    if block.shape[1] != m.w.shape[0]:
        raise DimMismatch(
            f"inputs have dim {block.shape[1]}, weights {m.w.shape[0]}"
        )
    require_finite(block, "inputs")
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
        raise EmptyInput("need at least one draw")
    idx = rng.integers(0, block.shape[0], size=n_draws)
    chosen = block[idx]
    pi = sigmoid(chosen @ m.w)
    y = (rng.random(n_draws) < pi).astype(np.float64)
    scaled = chosen * (pi - y)[:, None]
    return symmetrize(scaled.T @ scaled / n_draws)


# ---------------------------------------------------------------------------
# Oracle bundle
# ---------------------------------------------------------------------------


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


def run_verify_oracles(seed: int = 0, corrupt_update: bool = False) -> dict:
    """Self-contained property checks with measured error magnitudes.

    `corrupt_update` is a negative-control hook: it perturbs the Hessian fed
    to the production column loop (but not the reference solver), which must
    make the update-optimality oracle fail.
    """
    rng = np.random.default_rng(seed)
    results = {}

    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 17))
        m = LogisticModel(rng.standard_normal(d))
        xs = rng.standard_normal((int(rng.integers(1, 30)), d))
        worst = max(
            worst,
            float(
                np.max(
                    np.abs(fisher_expected_outer(m, xs) - logistic_exact_hessian(m, xs))
                )
            ),
        )
    results["fisher_identity_exact"] = {"max_abs_err": worst, "pass": worst < 1e-12}

    wins = 0
    for trial in range(20):
        trial_rng = np.random.default_rng(seed * 1000 + trial)
        d = 4
        m = LogisticModel(trial_rng.standard_normal(d))
        xs = trial_rng.standard_normal((32, d))
        exact = logistic_exact_hessian(m, xs)
        e_small = float(np.max(np.abs(fisher_sampled_outer(m, xs, 100, trial_rng) - exact)))
        e_big = float(np.max(np.abs(fisher_sampled_outer(m, xs, 10_000, trial_rng) - exact)))
        wins += e_big < e_small
    results["fisher_sampled_convergence"] = {"wins": wins, "trials": 20, "pass": wins >= 19}

    worst_dev = 0.0
    ragged = 0
    for _ in range(100):
        d_row = int(rng.integers(1, 9))
        d_col = int(rng.integers(2, 7))
        group = int(rng.integers(1, d_col + 1))  # includes 1 and ragged tails
        ragged += d_col % group != 0
        w = rng.standard_normal((d_row, d_col))
        a = rng.standard_normal((d_col, d_col))
        h = symmetrize(a @ a.T + d_col * np.eye(d_col))
        h_prod = h.copy()
        if corrupt_update:
            h_prod = symmetrize(h_prod + 0.35 * np.diag(np.arange(d_col) + 1.0))
        spec = CalibSpec(bits=2, group_size=group, alpha=0.0)
        layer, _ = calibrate_layer(w, h_prod, spec, guard=False)
        got = layer.dequantize()
        w_hat, _ = direct_solver_calibrate(w, h, 2, group)
        worst_dev = max(worst_dev, float(np.max(np.abs(got - w_hat))))
    results["update_optimality"] = {
        "max_abs_dev": worst_dev,
        "pass": worst_dev < 1e-8,
        "ragged_draws": ragged,
        "corrupt_update": corrupt_update,
    }

    bound_ok = True
    worst_gap = 0.0
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
        rhs = sum(float(delta[j] @ blocks[j] @ delta[j]) for j in range(d_row))
        worst_gap = min(worst_gap, lhs - rhs)
        bound_ok &= lhs >= rhs - 1e-9
    results["aggregation_bound"] = {"worst_margin": worst_gap, "pass": bool(bound_ok)}

    pairs = [(rng.standard_normal((3, 4)), rng.standard_normal((3, 5))) for _ in range(6)]
    samples = [dy.T @ x for x, dy in pairs]
    acc = HessianAccumulator(4, HessianMode.ADAPTIVE)
    for x, dy in pairs:
        accumulate_adaptive(acc, x, dy)
    mean = finalize(acc) / acc.n_samples
    rows = [sum(np.outer(g[j], g[j]) for g in samples) / len(samples) for j in range(5)]
    gram_dev = float(np.max(np.abs(mean - sum(rows))))
    results["aggregation_equivalence"] = {"max_abs_dev": gram_dev, "pass": gram_dev < 1e-10}

    results["all_pass"] = all(
        v["pass"] for k, v in results.items() if isinstance(v, dict)
    )
    results["seed"] = seed
    return results
