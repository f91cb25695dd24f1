"""End-to-end Shapley value estimators.

The regression estimators follow one pipeline: sample a batch, build the
weighted design over the chosen interaction frontier, solve the constrained
least squares problem, then fold each interaction coefficient evenly onto
its members. KernelSHAP is the empty-frontier special case. A permutation
baseline is included for benchmarking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .coalitions import Coalition, fold, membership
from .frontier import InteractionFrontier, empty_frontier, k_additive
from .games import Game
from .regression import build_design, solve_constrained
from .sampling import SampleBatch, SamplerConfig, sample


@dataclass
class AttributionResult:
    """Baseline value, Shapley estimates, and optional interaction representation."""

    baseline: float
    shapley: np.ndarray
    representation: np.ndarray | None = None
    frontier_label: str | None = None
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "baseline": self.baseline,
            "shapley": [float(x) for x in self.shapley],
            "frontier_label": self.frontier_label,
            "diagnostics": self.diagnostics,
        }
        if self.representation is not None:
            out["representation"] = [float(x) for x in self.representation]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def polyshap_to_sv(rep: np.ndarray, frontier: InteractionFrontier) -> np.ndarray:
    """Fold interaction coefficients onto players: each term splits evenly over its members.

    Preserves the coefficient sum.
    """
    rep = np.asarray(rep, dtype=float)
    if rep.shape != (frontier.n_columns,):
        raise ValueError(
            f"representation length {rep.shape} does not match d'={frontier.n_columns}"
        )
    return fold(membership(frontier.column_masks, frontier.d), rep)


def project_2poly_to_sv(rep2: np.ndarray) -> np.ndarray:
    """Project a pairs-frontier representation (pairs in colexicographic order) down to d values."""
    rep2 = np.asarray(rep2, dtype=float)
    length = rep2.shape[0]
    d = int((math.isqrt(8 * length + 1) - 1) // 2)
    if d * (d + 1) // 2 != length:
        raise ValueError(f"length {length} is not d + C(d,2) for any integer d")
    return polyshap_to_sv(rep2, k_additive(d, 2))


def _efficiency_gap(shapley: np.ndarray, constraint: float) -> float:
    return abs(float(shapley.sum()) - constraint) / max(1.0, abs(constraint))


def polyshap_from_batch(
    batch: SampleBatch,
    frontier: InteractionFrontier,
    seed: int | None = None,
) -> AttributionResult:
    """Run the regression pipeline on an existing batch (exact replay support)."""
    system = build_design(batch, frontier)
    report = solve_constrained(system)
    shapley = polyshap_to_sv(report.coefficients, frontier)
    return AttributionResult(
        baseline=batch.nu_empty,
        shapley=shapley,
        representation=report.coefficients,
        frontier_label=frontier.order_label,
        diagnostics={
            "budget_used": batch.effective_m,
            "seed": seed,
            "rank": report.rank,
            "rank_deficient": report.rank_deficient,
            "residual_norm": report.residual_norm,
            "enumerated_sizes": sorted(batch.enumerated_sizes),
            "odd_unpaired": batch.odd_unpaired,
            "efficiency_gap": _efficiency_gap(shapley, system.constraint_value),
        },
    )


def polyshap(
    game: Game, frontier: InteractionFrontier, cfg: SamplerConfig
) -> AttributionResult:
    """Sample, fit the interaction-aware weighted regression, and return Shapley estimates."""
    if frontier.d != game.d:
        raise ValueError(f"dimension mismatch: game d={game.d}, frontier d={frontier.d}")
    batch = sample(cfg, game)
    return polyshap_from_batch(batch, frontier, seed=cfg.seed)


def kernelshap(game: Game, cfg: SamplerConfig) -> AttributionResult:
    """The order-1 special case: no interaction columns."""
    return polyshap(game, empty_frontier(game.d), cfg)


def kernelshap_from_batch(batch: SampleBatch, seed: int | None = None) -> AttributionResult:
    return polyshap_from_batch(batch, empty_frontier(batch.d), seed=seed)


def permutation_baseline(game: Game, budget_m: int, seed: int) -> AttributionResult:
    """Average marginal contributions along random permutations.

    One permutation sweep evaluates the d chain prefixes; the empty value is
    evaluated once per run. Whole sweeps only: the number of permutations is
    floor((budget_m - 1) / d), so leftover budget below one sweep is unused
    and reported in the diagnostics.
    """
    d = game.d
    if budget_m < d + 1:
        raise ValueError(f"permutation baseline needs budget >= d+1={d + 1}, got {budget_m}")
    n_perms = (budget_m - 1) // d
    rng = np.random.default_rng(seed)
    nu_empty = game.evaluate(Coalition.empty(d))
    phi = np.zeros(d)
    for _ in range(n_perms):
        perm = rng.permutation(d)
        prev = nu_empty
        coalition = Coalition.empty(d)
        for player in perm:
            coalition = coalition.add(int(player))
            value = game.evaluate(coalition)
            phi[int(player)] += value - prev
            prev = value
    phi /= n_perms
    nu_full = prev  # every chain ends at the grand coalition
    return AttributionResult(
        baseline=nu_empty,
        shapley=phi,
        representation=None,
        frontier_label=None,
        diagnostics={
            "budget_used": 1 + n_perms * d,
            "requested_budget": budget_m,
            "n_permutations": n_perms,
            "seed": seed,
            "rank_deficient": False,
            "enumerated_sizes": [],
            "efficiency_gap": _efficiency_gap(phi, nu_full - nu_empty),
        },
    )
