"""Numerical verification suites for the estimator's structural guarantees.

Each suite runs a deterministic battery at desk scale and reports the worst
observed deviation. These back the CLI ``verify`` subcommand and the
acceptance tests, so the guarantees are exercised on every change.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coalitions import binomial
from .estimators import (
    kernelshap_from_batch,
    polyshap,
    polyshap_from_batch,
    polyshap_to_sv,
)
from .evaluation import bruteforce_shapley
from .frontier import InteractionFrontier, empty_frontier, k_additive, percent_of_order
from .games import Game, make_random_game
from .regression import build_design, constrained_lstsq, full_design_matrix
from .sampling import SampleBatch, SamplerConfig, sample

# Draws allowed per requested full-rank trial before a suite stops short.
ATTEMPTS_PER_TRIAL = 10


@dataclass
class VerifyReport:
    suite: str
    passed: bool
    max_deviation: float
    n_trials: int
    discarded: int = 0
    details: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.suite}: max deviation {self.max_deviation:.3e} "
            f"over {self.n_trials} trials, {self.discarded} discarded"
        )


def _full_rank_paired_batches(
    trials: int, frontier: InteractionFrontier, budget: int, game_for: Callable[[int], Game]
) -> tuple[list[SampleBatch], int, list[str]]:
    """Paired batches of ``game_for(a)`` at seed a = 0, 1, ... until ``trials`` have full rank.

    A batch whose design over ``frontier`` lacks full column rank is
    discarded. At most ``ATTEMPTS_PER_TRIAL * trials`` are drawn, so a budget
    that cannot reach full rank ends the search; the details then say so.
    Returns the kept batches, the number discarded and the details.
    """
    limit = ATTEMPTS_PER_TRIAL * trials
    kept: list[SampleBatch] = []
    attempt = 0
    while len(kept) < trials and attempt < limit:
        cfg = SamplerConfig(budget_m=budget, paired=True, seed=attempt)
        batch = sample(cfg, game_for(attempt))
        attempt += 1
        if np.linalg.matrix_rank(build_design(batch, frontier).matrix) == frontier.n_columns:
            kept.append(batch)
    note = f"stopped after {limit} draws: {len(kept)} of {trials} designs had full rank"
    return kept, attempt - len(kept), [note] if len(kept) < trials else []


def verify_consistency(
    dims: tuple[int, ...] = (4, 6, 8, 10),
    games_per_dim: int = 20,
    tolerance: float = 1e-7,
) -> VerifyReport:
    """Full-budget runs recover the brute-force oracle for every frontier shape."""
    worst = 0.0
    trials = 0
    details: list[str] = []
    for d in dims:
        n_terms = min(5 * d, sum(binomial(d, s) for s in range(1, min(3, d) + 1)))
        for g_idx in range(games_per_dim):
            game = make_random_game(d, min(3, d), n_terms, seed=1000 * d + g_idx)
            truth = bruteforce_shapley(game).shapley
            frontiers = [
                empty_frontier(d),
                k_additive(d, 2),
                k_additive(d, 3),
                percent_of_order(d, 3, 0.5, seed=g_idx),
            ]
            for frontier in frontiers:
                cfg = SamplerConfig(budget_m=1 << d, paired=False, seed=g_idx)
                result = polyshap(game, frontier, cfg)
                dev = float(np.max(np.abs(result.shapley - truth)))
                worst = max(worst, dev)
                trials += 1
        details.append(f"d={d}: worst so far {worst:.3e}")
    return VerifyReport(
        suite="consistency",
        passed=worst < tolerance,
        max_deviation=worst,
        n_trials=trials,
        details=details,
    )


def verify_paired_equivalence(
    dims: tuple[int, ...] = (6, 8, 10),
    trials_per_dim: int = 50,
    tolerance: float = 1e-6,
) -> VerifyReport:
    """Paired batches: the empty-frontier solve equals the projected pairs-frontier solve.

    Trials whose pairs-frontier design lacks full column rank are discarded
    and resampled, as the equivalence is only guaranteed at full rank.
    """
    worst = 0.0
    trials = 0
    discarded = 0
    details: list[str] = []
    for d in dims:
        pairs_frontier = k_additive(d, 2)
        batches, dropped, notes = _full_rank_paired_batches(
            trials_per_dim,
            pairs_frontier,
            2 * pairs_frontier.n_columns + 2,
            lambda a: make_random_game(d, min(3, d), 4 * d, seed=7000 * d + a),
        )
        for batch in batches:
            ksh = kernelshap_from_batch(batch)
            rep2 = polyshap_from_batch(batch, pairs_frontier).representation
            projected = polyshap_to_sv(rep2, pairs_frontier)
            worst = max(worst, float(np.max(np.abs(ksh.shapley - projected))))
        trials += len(batches)
        discarded += dropped
        details.extend(notes)
        details.append(f"d={d}: worst so far {worst:.3e}")
    return VerifyReport(
        suite="paired-equivalence",
        passed=worst < tolerance and trials == trials_per_dim * len(dims),
        max_deviation=worst,
        n_trials=trials,
        discarded=discarded,
        details=details,
    )


def verify_projection_lemma(
    n_systems: int = 20,
    n_rows: int = 100,
    n_cols: int = 6,
    n_cols_extended: int = 10,
    tolerance: float = 1e-8,
    seed: int = 42,
) -> VerifyReport:
    """Constrained fit against y equals the constrained fit against the extended fit of y."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_systems):
        x = rng.standard_normal((n_rows, n_cols))
        extra = rng.standard_normal((n_rows, n_cols_extended - n_cols))
        x_plus = np.hstack([x, extra])
        y = rng.standard_normal(n_rows)
        c = float(rng.standard_normal())
        direct = constrained_lstsq(x, y, c).coefficients
        beta_plus = constrained_lstsq(x_plus, y, c).coefficients
        via_extended = constrained_lstsq(x, x_plus @ beta_plus, c).coefficients
        worst = max(worst, float(np.max(np.abs(direct - via_extended))))
    return VerifyReport(
        suite="projection-lemma",
        passed=worst < tolerance,
        max_deviation=worst,
        n_trials=n_systems,
    )


def leverage_scores_bruteforce(
    d: int, frontier: InteractionFrontier
) -> dict[int, float]:
    """Per-size row influence of the full projected design, by direct pseudoinverse.

    Builds the complete 2^d x d' matrix, projects off the all-ones direction,
    and evaluates the quadratic form for every row. Scores are constant per
    size when the frontier is symmetric under player permutations, i.e. holds
    all or none of the C(d, t) subsets of each size t; other frontiers are
    rejected. That constancy and the trace identity (scores sum to the
    projected rank) are verified, not assumed.
    """
    if d > 14:
        raise ValueError(f"brute-force leverage scores need d <= 14, got d={d}")
    if frontier.d != d:
        raise ValueError(f"dimension mismatch: d={d}, frontier d={frontier.d}")
    per_term_size = Counter(t.bit_count() for t in frontier.terms)
    for t, count in sorted(per_term_size.items()):
        if count != binomial(d, t):
            raise ValueError(
                f"leverage scores need a permutation-symmetric frontier: it holds "
                f"{count} of the {binomial(d, t)} subsets of size {t}"
            )
    x = full_design_matrix(d, frontier)
    n_cols = frontier.n_columns
    xp = x - x.sum(axis=1)[:, None] / n_cols
    # Pseudoinverse of the projected Gram via SVD of the projected design;
    # the default eigenvalue cutoff of pinv sits at the noise floor of the
    # null direction and corrupts the quadratic form.
    _, singulars, vt = np.linalg.svd(xp, full_matrices=False)
    cutoff = singulars.max() * max(xp.shape) * np.finfo(float).eps if singulars.size else 0.0
    keep = singulars > cutoff
    rank = int(keep.sum())
    gram_pinv = (vt[keep].T * singulars[keep] ** -2) @ vt[keep]
    scores = np.einsum("ij,jk,ik->i", xp, gram_pinv, xp)
    if scores.min() < -1e-10:
        raise AssertionError(f"negative leverage score: {scores.min()!r}")
    scores = np.clip(scores, 0.0, None)
    total = float(scores.sum())
    if abs(total - rank) > 1e-6 * max(1.0, rank):
        raise AssertionError(
            f"leverage scores sum to {total!r}, expected projected rank {rank}"
        )
    sizes = np.array([int(m).bit_count() for m in range(1 << d)])
    per_size: dict[int, float] = {}
    for s in range(d + 1):
        vals = scores[sizes == s]
        if float(vals.max() - vals.min()) >= 1e-8:
            raise AssertionError(
                f"leverage scores vary within size {s}: spread {vals.max() - vals.min()!r}"
            )
        per_size[s] = float(vals.mean())
    return per_size


def verify_leverage_closed_form(
    dims: tuple[int, ...] = (5, 6, 8),
    tolerance: float = 1e-6,
) -> VerifyReport:
    """Empty-frontier leverage scores are proportional to inverse binomials per size."""
    worst = 0.0
    details: list[str] = []
    for d in dims:
        scores = leverage_scores_bruteforce(d, empty_frontier(d))
        ratios = np.array([scores[s] * binomial(d, s) for s in range(1, d)])
        dev = float(np.max(np.abs(ratios - ratios.mean())) / ratios.mean())
        worst = max(worst, dev)
        details.append(f"d={d}: proportionality deviation {dev:.3e}")
        if scores[0] != 0.0 or scores[d] != 0.0:
            worst = max(worst, abs(scores[0]), abs(scores[d]))
    return VerifyReport(
        suite="leverage-closed-form",
        passed=worst < tolerance,
        max_deviation=worst,
        n_trials=len(dims),
        details=details,
    )


def verify_oddk_conjecture(
    d: int = 8,
    trials: int = 30,
    budget: int = 220,
) -> VerifyReport:
    """Paired 3rd-order and 4th-order fits yield the same Shapley estimates, within 1e-9.

    Trials without a full-column-rank 4th-order design are discarded and
    resampled.
    """
    frontier3 = k_additive(d, 3)
    frontier4 = k_additive(d, 4)
    batches, discarded, details = _full_rank_paired_batches(
        trials, frontier4, budget, lambda a: make_random_game(d, d, 6 * d, seed=9000 + a)
    )
    worst = 0.0
    for batch in batches:
        sv3 = polyshap_from_batch(batch, frontier3).shapley
        sv4 = polyshap_from_batch(batch, frontier4).shapley
        worst = max(worst, float(np.max(np.abs(sv3 - sv4))))
    return VerifyReport(
        suite="oddk-conjecture",
        passed=worst < 1e-9 and len(batches) == trials,
        max_deviation=worst,
        n_trials=len(batches),
        discarded=discarded,
        details=details,
    )


SUITES = {
    "consistency": verify_consistency,
    "paired-equivalence": verify_paired_equivalence,
    "projection-lemma": verify_projection_lemma,
    "leverage-closed-form": verify_leverage_closed_form,
    "oddk-conjecture": verify_oddk_conjecture,
}
