"""Design matrices and the efficiency-constrained weighted least squares solve.

The constrained problem  min ||X phi - y||  s.t.  <phi, 1> = c  is solved by
eliminating one coordinate: substituting  phi_0 = c - sum_{j>0} phi_j  leaves
the unconstrained problem  min ||A x - b||  with  A = X[:, 1:] - X[:, :1]  and
b = y - X[:, 0] c,  and  phi = (c - sum(x), x)  sums to c by construction.
A has full column rank exactly when the constrained solution is unique.
A is never formed: the elimination is a fixed linear map, so with
G = X^T X,  h = X^T y  and  g0 = G[0, 1:]  the eliminated normal equations are

    A^T A = G[1:, 1:] - (g0 1^T + 1 g0^T) + G[0, 0],
    A^T b = (h[1:] - h[0]) - c (g0 - G[0, 0]),

built in O(d'^2) on G's trailing block. The solve factors  A^T A = L L^T  by
Cholesky, solves, and takes one step of corrected semi-normal refinement
(Bjorck, 1987):  x += (A^T A)^{-1} A^T r,  which recovers the digits that
forming the Gram loses on ill-conditioned designs. The residual is computed
from X,  r = b - A x = y - X phi,  and read back through the same map,
A^T r = (X^T r)[1:] - (X^T r)[0].

The result is accepted when both tests hold, each against sqrt(eps):

* pivots: min diag(L)^2 >= sqrt(eps) * max diag(A^T A), which rejects
  structurally singular designs, underdetermined ones included;
* refinement: ||step||_inf <= sqrt(eps) * ||x||_inf, which rejects a solve
  that lost too many digits.

Otherwise, or when the factorization fails, the minimum-norm fallback runs:
with P = I - (1/d') 1 1^T, solve  beta = argmin ||X P beta - (y - X 1 c/d')||
by SVD and return  phi = P beta + 1 c/d'.  Its rank, its rank-deficiency
flag and its singular-value cutoff are reported as computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coalitions import containment, membership, shapley_weight
from .frontier import InteractionFrontier


@dataclass
class DesignSystem:
    """Weighted design matrix, weighted centered target, and the efficiency constant."""

    matrix: np.ndarray
    target: np.ndarray
    constraint_value: float


@dataclass
class SolveReport:
    coefficients: np.ndarray
    rank: int
    rank_deficient: bool
    residual_norm: float
    constraint_value: float
    singular_value_cutoff: float
    solver: str  # "cholesky" or "svd"
    pivot_ratio: float | None  # max diag(A^T A) / min diag(L)^2; None when the factorization failed


def design_columns(masks: list[int], frontier: InteractionFrontier) -> np.ndarray:
    """(n, d') 0/1 matrix over singleton columns then frontier term columns."""
    d = frontier.d
    return containment(membership(masks, d), frontier.membership)


def build_design(batch, frontier: InteractionFrontier) -> DesignSystem:
    """Assemble the weighted design from a sample batch.

    Entry (row, T) is weight_row * 1[T subseteq S_row]; the target is
    weight_row * (value(S_row) - value(empty)).
    """
    if batch.d != frontier.d:
        raise ValueError(f"dimension mismatch: batch d={batch.d}, frontier d={frontier.d}")
    matrix = design_columns(batch.masks, frontier)
    weights = np.asarray(batch.weights, dtype=float)
    matrix *= weights[:, None]
    target = weights * (np.asarray(batch.values, dtype=float) - batch.nu_empty)
    return DesignSystem(
        matrix=matrix,
        target=target,
        constraint_value=batch.nu_full - batch.nu_empty,
    )


_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)  # threshold of both acceptance tests
_BLOCK = 64  # diagonal block size of the substitutions


def _cholesky_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """G^{-1} rhs for G = L L^T, by blocked forward then back substitution.

    numpy has no triangular solver: each diagonal block goes through
    np.linalg.solve, the rest is matrix-vector products.
    """
    n = lower.shape[0]
    starts = range(0, n, _BLOCK)
    z = rhs.copy()
    for i in starts:
        j = min(i + _BLOCK, n)
        z[i:j] = np.linalg.solve(lower[i:j, i:j], z[i:j] - lower[i:j, :i] @ z[:i])
    for i in reversed(starts):
        j = min(i + _BLOCK, n)
        z[i:j] = np.linalg.solve(lower[i:j, i:j].T, z[i:j] - lower[j:, i:j].T @ z[j:])
    return z


def constrained_lstsq(
    matrix: np.ndarray, target: np.ndarray, constraint_value: float
) -> SolveReport:
    """Solution of the sum-constrained weighted least squares problem.

    Cholesky on the eliminated system, refined once, is accepted when its
    pivot and refinement tests pass (see the module docstring); its rank is
    d' - 1 and its cutoff is an estimate, sqrt(max diag A^T A) * max(m, d') * eps
    with sqrt(max diag A^T A) standing in for sigma_max. Otherwise the
    minimum-norm SVD solve runs, with singular values below
    sigma_max * max(m, d') * eps treated as zero (numpy's lstsq default);
    rank deficiency of the projected matrix is flagged rather than raised.
    """
    matrix = np.asarray(matrix, dtype=float)
    target = np.asarray(target, dtype=float)
    if matrix.ndim != 2 or target.ndim != 1 or matrix.shape[0] != target.shape[0]:
        raise ValueError(
            f"bad system shapes: matrix {matrix.shape}, target {target.shape}"
        )
    if not (np.isfinite(matrix).all() and np.isfinite(target).all() and np.isfinite(constraint_value)):
        raise ValueError("non-finite entries in least squares system")
    m, n_cols = matrix.shape
    if n_cols < 1 or m < 1:
        raise ValueError("system must have at least one row and one column")
    report, pivot_ratio = _refined_cholesky(matrix, target, constraint_value)
    if report is None:  # its arrays are freed before the SVD allocates its own
        report = _projected_svd(matrix, target, constraint_value, pivot_ratio)
    return report


def _refined_cholesky(
    matrix: np.ndarray, target: np.ndarray, constraint_value: float
) -> tuple[SolveReport | None, float | None]:
    """Cholesky solve of the eliminated system with one refinement step.

    The eliminated system is mapped from the Gram  G = X^T X  and  h = X^T y;
    the refinement residual comes from X itself, so no eliminated copy of
    the design is made. Returns the report, or None when a test rejects the
    result, together with the pivot ratio (None when the factorization failed).
    """
    m, n_cols = matrix.shape
    c = constraint_value
    gram = matrix.T @ matrix
    h = matrix.T @ target
    g00, g0 = gram[0, 0], gram[0, 1:].copy()
    eliminated_gram = gram[1:, 1:]  # A^T A, built in place on G's trailing block
    eliminated_gram -= g0[:, None] + g0[None, :]  # summed first, so A^T A stays exactly symmetric
    eliminated_gram += g00
    gram_max = float(eliminated_gram.diagonal().max(initial=0.0))
    try:
        lower = np.linalg.cholesky(eliminated_gram)
    except np.linalg.LinAlgError:
        return None, None
    del gram, eliminated_gram
    pivot_min = float((lower.diagonal() ** 2).min(initial=math.inf))
    pivot_ratio = gram_max / pivot_min
    if pivot_min < _SQRT_EPS * gram_max:
        return None, pivot_ratio
    x = _cholesky_solve(lower, (h[1:] - h[0]) - c * (g0 - g00))
    phi = np.concatenate(([c - x.sum()], x))
    back = matrix.T @ (target - matrix @ phi)  # A^T r = (X^T r)[1:] - (X^T r)[0]
    step = _cholesky_solve(lower, back[1:] - back[0])
    x += step
    if np.abs(step).max(initial=0.0) > _SQRT_EPS * np.abs(x).max(initial=0.0):
        return None, pivot_ratio
    phi = np.concatenate(([c - x.sum()], x))
    report = SolveReport(
        coefficients=phi,
        rank=n_cols - 1,
        rank_deficient=False,
        residual_norm=float(np.linalg.norm(target - matrix @ phi)),
        constraint_value=float(c),
        singular_value_cutoff=math.sqrt(gram_max) * max(m, n_cols) * _EPS,
        solver="cholesky",
        pivot_ratio=pivot_ratio,
    )
    return report, pivot_ratio


def _projected_svd(
    matrix: np.ndarray, target: np.ndarray, constraint_value: float, pivot_ratio: float | None
) -> SolveReport:
    """Minimum-norm solve of the rank-one projected system by SVD (np.linalg.lstsq)."""
    m, n_cols = matrix.shape
    row_sums = matrix.sum(axis=1)
    projected = matrix - row_sums[:, None] / n_cols
    rhs = target - row_sums * (constraint_value / n_cols)
    beta, _, rank, singulars = np.linalg.lstsq(projected, rhs, rcond=None)
    coefficients = beta - beta.mean() + constraint_value / n_cols
    residual = float(np.linalg.norm(projected @ beta - rhs))
    cutoff = float(singulars[0]) * max(m, n_cols) * _EPS if singulars.size else 0.0
    return SolveReport(
        coefficients=coefficients,
        rank=int(rank),
        rank_deficient=int(rank) < n_cols - 1,
        residual_norm=residual,
        constraint_value=float(constraint_value),
        singular_value_cutoff=cutoff,
        solver="svd",
        pivot_ratio=pivot_ratio,
    )


def solve_constrained(system: DesignSystem) -> SolveReport:
    return constrained_lstsq(system.matrix, system.target, system.constraint_value)


def full_design_matrix(d: int, frontier: InteractionFrontier) -> np.ndarray:
    """The deterministic 2^d x d' design with sqrt-kernel-weight rows (zero at extremes)."""
    if d > 14:
        raise ValueError(f"full design needs d <= 14, got d={d}")
    masks = range(1 << d)
    matrix = design_columns(masks, frontier)
    matrix *= np.sqrt([shapley_weight(m.bit_count(), d) for m in masks])[:, None]
    return matrix
