"""Design matrices and the efficiency-constrained weighted least squares solve.

The constrained problem  min ||X phi - y||  s.t.  <phi, 1> = c  is reduced to
an unconstrained one by projecting off the all-ones direction: with
P = I - (1/d') 1 1^T, solve  beta = argmin ||X P beta - (y - X 1 c/d')||  by
minimum-norm least squares and return  phi = P beta + 1 c/d'.  The returned
vector sums to c by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coalitions import Coalition, containment, membership, shapley_weight
from .frontier import InteractionFrontier
from .games import Game


@dataclass
class DesignSystem:
    """Weighted design matrix, weighted centered target, and the efficiency constant."""

    matrix: np.ndarray
    target: np.ndarray
    columns: tuple[Coalition, ...]
    constraint_value: float
    d: int


@dataclass
class SolveReport:
    coefficients: np.ndarray
    rank: int
    rank_deficient: bool
    residual_norm: float
    constraint_value: float
    singular_value_cutoff: float


def design_columns(masks: list[int], frontier: InteractionFrontier) -> np.ndarray:
    """(n, d') 0/1 matrix over singleton columns then frontier term columns."""
    d = frontier.d
    return containment(membership(masks, d), membership(frontier.column_masks, d))


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
    columns = tuple(Coalition(1 << i, batch.d) for i in range(batch.d)) + frontier.terms
    return DesignSystem(
        matrix=matrix,
        target=target,
        columns=columns,
        constraint_value=batch.nu_full - batch.nu_empty,
        d=batch.d,
    )


def constrained_lstsq(
    matrix: np.ndarray, target: np.ndarray, constraint_value: float
) -> SolveReport:
    """Minimum-norm solution of the sum-constrained weighted least squares problem.

    Singular values below sigma_max * max(m, d') * machine epsilon are
    treated as zero (numpy's lstsq default); rank deficiency of the projected
    matrix is flagged rather than raised.
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
    row_sums = matrix.sum(axis=1)
    projected = matrix - row_sums[:, None] / n_cols
    rhs = target - row_sums * (constraint_value / n_cols)
    beta, _, rank, singulars = np.linalg.lstsq(projected, rhs, rcond=None)
    coefficients = beta - beta.mean() + constraint_value / n_cols
    residual = float(np.linalg.norm(projected @ beta - rhs))
    cutoff = (
        float(singulars[0]) * max(m, n_cols) * float(np.finfo(float).eps)
        if singulars.size
        else 0.0
    )
    return SolveReport(
        coefficients=coefficients,
        rank=int(rank),
        rank_deficient=int(rank) < n_cols - 1,
        residual_norm=residual,
        constraint_value=float(constraint_value),
        singular_value_cutoff=cutoff,
    )


def solve_constrained(system: DesignSystem) -> SolveReport:
    return constrained_lstsq(system.matrix, system.target, system.constraint_value)


def _sqrt_kernel_weights(masks: range, d: int) -> np.ndarray:
    return np.sqrt([shapley_weight(m.bit_count(), d) for m in masks])


def full_design_matrix(d: int, frontier: InteractionFrontier) -> np.ndarray:
    """The deterministic 2^d x d' design with sqrt-kernel-weight rows (zero at extremes)."""
    if d > 14:
        raise ValueError(f"full design needs d <= 14, got d={d}")
    masks = range(1 << d)
    matrix = design_columns(masks, frontier)
    matrix *= _sqrt_kernel_weights(masks, d)[:, None]
    return matrix


def solve_exact_full(game: Game, frontier: InteractionFrontier) -> SolveReport:
    """Exact representation: solve over every proper nonempty coalition with sqrt-kernel weights."""
    d = game.d
    if d > 14:
        raise ValueError(f"exact solve needs d <= 14, got d={d}")
    if frontier.d != d:
        raise ValueError(f"dimension mismatch: game d={d}, frontier d={frontier.d}")
    nu_empty = game.evaluate(Coalition.empty(d))
    nu_full = game.evaluate(Coalition.full(d))
    masks = range(1, (1 << d) - 1)
    values = np.array([game.evaluate(Coalition(m, d)) for m in masks])
    target = _sqrt_kernel_weights(masks, d) * (values - nu_empty)
    matrix = full_design_matrix(d, frontier)[1:-1]
    return constrained_lstsq(matrix, target, nu_full - nu_empty)
