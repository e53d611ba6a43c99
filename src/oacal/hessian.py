"""Hessian accumulation for calibration.

Two Hessian flavours share one accumulator type:

* agnostic  - running sum of layer-input outer products x x^T, added a batch
              of input rows at a time by BLAS's symmetric rank-k update
              (syrk) into the lower triangle of the sum, in place; the
              upper triangle stays zero until `finalize` mirrors the lower
              one. A symmetric update does half the flops of the general
              product m^T m, and updating in place allocates no d x d
              temporary per batch.
* adaptive  - running sum of per-window gradient Grams G^T G, each added as
              X^T (dY dY^T) X from the factors of G = dY^T X (layer input X,
              T x d_col; output gradient dY, T x d_row), never forming G.
              The last product is one general matrix multiply (gemm) that
              adds into the sum in place, so no d x d temporary is
              allocated per window either.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, EmptyAccumulator, NegativeAlpha
from .linalg import as_matrix, as_sym_matrix, require_finite

# after .linalg, which imports scipy.linalg first: importing it from here
# instead loads the same modules in another order and measured about 10 ms
# more CPU time per process start
from scipy.linalg.blas import dgemm, dsyrk

__all__ = [
    "HessianMode",
    "HessianAccumulator",
    "accumulate_agnostic_batch",
    "accumulate_adaptive",
    "finalize",
    "regularize",
]


class HessianMode(enum.Enum):
    AGNOSTIC = "agnostic"
    ADAPTIVE = "adaptive"


@dataclass
class HessianAccumulator:
    """Single-writer running sum of x x^T or G^T G, with its sample count.

    An agnostic `sum` holds its Hessian in the lower triangle only (the
    upper one is left at zero), because the in-place syrk update writes one
    triangle; read it through `finalize`, which mirrors it. An adaptive
    `sum` is the full matrix.
    """

    dim: int
    mode: HessianMode
    sum: np.ndarray = field(init=False)
    n_samples: int = field(init=False, default=0)

    def __post_init__(self):
        if self.dim < 1:
            raise DimMismatch("accumulator dim must be >= 1")
        self.sum = np.zeros((self.dim, self.dim))


def accumulate_agnostic_batch(acc: HessianAccumulator, xs) -> None:
    """Add every row of `xs` as one agnostic sample: m^T m into the lower triangle.

    Rows of any float dtype are widened to float64 (`as_matrix`, which
    copies only rows that are not float64) before the dsyrk, so the sum is
    float64 whatever dtype the forward ran in. `m.T` and `acc.sum.T` are
    Fortran-ordered views, so dsyrk reads the rows and updates the upper
    triangle of `acc.sum.T` (the lower one of `acc.sum`) where it lies,
    without a copy.
    """
    if acc.mode is not HessianMode.AGNOSTIC:
        raise DimMismatch("accumulator mode is not agnostic")
    m = as_matrix(xs, cols=acc.dim)
    dsyrk(1.0, m.T, beta=1.0, c=acc.sum.T, overwrite_c=1)
    acc.n_samples += m.shape[0]


def accumulate_adaptive(acc: HessianAccumulator, x, dy) -> None:
    """Add one window's G^T G, with G = dy^T x, as x^T (dy dy^T) x.

    Accurate to the magnitudes summed, elementwise A^T A with A = |dy|^T |x|,
    not to the result: where dy^T x cancels, an entry carries more relative
    error than the explicit G^T G would.

    As in the agnostic fold, `acc.sum.T` is a Fortran-ordered view, so dgemm
    adds `b^T x` (with b = (dy dy^T) x) to it where it lies: the same
    product, with the same operand roles, that `x.T @ b` hands to BLAS.
    """
    if acc.mode is not HessianMode.ADAPTIVE:
        raise DimMismatch("accumulator mode is not adaptive")
    x = as_matrix(x, cols=acc.dim)
    dy = as_matrix(dy, rows=x.shape[0])
    b = (dy @ dy.T) @ x
    dgemm(1.0, b.T, x.T, beta=1.0, c=acc.sum.T, trans_b=1, overwrite_c=1)
    acc.n_samples += 1


def finalize(acc: HessianAccumulator) -> np.ndarray:
    """Return the accumulated (summed) Hessian as a new, exactly symmetric matrix.

    An agnostic sum's lower triangle is mirrored onto the upper one; an
    adaptive sum, full but not exactly symmetric, is symmetrized. `acc` is
    left as it is, so accumulating may go on. The result is checked once for
    NaN and Inf, which any non-finite entry of the sum leaves in it.
    """
    if acc.n_samples < 1:
        raise EmptyAccumulator("no samples accumulated")
    s = acc.sum
    if acc.mode is HessianMode.AGNOSTIC:
        h = np.where(np.tri(acc.dim, dtype=bool), s, s.T)
    else:
        h = (s + s.T) / 2.0
    return require_finite(h, "hessian")


def regularize(h, alpha: float) -> np.ndarray:
    """Add alpha * mean(diag(h)) to every diagonal entry of h, in place, and
    return h; alpha finite and >= 0. Only input that is not a float64 array
    is damped in a new one. Pass a copy to keep h.

    A dead input, whose row of h is zero (for a positive semidefinite h:
    whose diagonal entry is zero), first gets h[dead, dead] = 1 as in GPTQ
    (arXiv 2210.17323), so even h = 0 can be damped. Unlike GPTQ, its weights are
    not zeroed: an OAC Hessian is 0 wherever the loss ignores the layer,
    even when the layer's inputs are not."""
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise NegativeAlpha(f"alpha must be finite and >= 0, got {alpha}")
    sym = as_sym_matrix(h)
    dead = ~np.any(sym, axis=0)
    sym[dead, dead] = 1.0
    sym[np.diag_indices_from(sym)] += alpha * float(np.mean(np.diag(sym)))
    return sym
