"""Numerical verification suites for the estimator's structural guarantees.

Each suite runs one fixed, deterministic battery at desk scale and reports
the worst observed deviation. A suite takes no arguments: the CLI
``verify`` subcommand and the tests run it the same way, so each battery
is defined once, in its suite's body, and named in its docstring.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .coalitions import binomial
from .estimators import kernelshap_from_batch, polyshap, polyshap_from_batch
from .evaluation import bruteforce_shapley
from .frontier import InteractionFrontier, empty_frontier, k_additive, percent_of_order
from .games import Game, make_random_game, mobius_exact_shapley
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


def _max_abs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _full_rank_paired_batches(
    trials: int, frontier: InteractionFrontier, budget: int, game_for: Callable[[int], Game]
) -> tuple[list[tuple[Game, SampleBatch]], int, list[str]]:
    """Paired batches of ``game_for(a)`` at seed a = 0, 1, ... until ``trials`` have full rank.

    A batch whose design over ``frontier`` lacks full column rank is
    discarded. At most ``ATTEMPTS_PER_TRIAL * trials`` are drawn, so a budget
    that cannot reach full rank ends the search; the details then say so.
    Returns the kept (game, batch) pairs, the number discarded and the details.
    """
    limit = ATTEMPTS_PER_TRIAL * trials
    kept: list[tuple[Game, SampleBatch]] = []
    attempt = 0
    while len(kept) < trials and attempt < limit:
        game = game_for(attempt)
        batch = sample(SamplerConfig(budget_m=budget, paired=True, seed=attempt), game)
        attempt += 1
        if np.linalg.matrix_rank(build_design(batch, frontier).matrix) == frontier.n_columns:
            kept.append((game, batch))
    note = f"stopped after {limit} draws: {len(kept)} of {trials} designs had full rank"
    return kept, attempt - len(kept), [note] if len(kept) < trials else []


def verify_consistency() -> VerifyReport:
    """Full-budget runs recover the brute-force oracle for every frontier shape.

    Battery: d in (4, 6, 8, 10), 20 games ``make_random_game(d, 3, n, seed=1000 d + g)``
    per d, each fitted at budget 2^d over the empty, 2-additive, 3-additive and
    half-of-order-3 frontiers: 320 trials, passing below 1e-7.
    """
    worst = 0.0
    trials = 0
    details: list[str] = []
    for d in (4, 6, 8, 10):
        n_terms = min(5 * d, sum(binomial(d, s) for s in range(1, 4)))
        for g_idx in range(20):
            game = make_random_game(d, 3, n_terms, seed=1000 * d + g_idx)
            truth = bruteforce_shapley(game).shapley
            shapes = (empty_frontier(d), k_additive(d, 2), k_additive(d, 3))
            for frontier in (*shapes, percent_of_order(d, 3, 0.5, seed=g_idx)):
                cfg = SamplerConfig(budget_m=1 << d, paired=False, seed=g_idx)
                worst = max(worst, _max_abs(polyshap(game, frontier, cfg).shapley, truth))
                trials += 1
        details.append(f"d={d}: worst so far {worst:.3e}")
    return VerifyReport("consistency", worst < 1e-7, worst, trials, details=details)


def _paired_suite(
    suite: str,
    tolerance: float,
    trials: int,
    batteries: list[tuple[InteractionFrontier, int, Callable[[int], Game]]],
    deviation: Callable[[InteractionFrontier, Game, SampleBatch], float],
) -> VerifyReport:
    """Score ``trials`` full-rank paired draws of each ``(frontier, budget, game_for)`` battery.

    Each kept draw is scored by ``deviation(frontier, game, batch)``. The
    suite passes when every requested trial was kept and the worst
    deviation is below ``tolerance``.
    """
    worst = 0.0
    n_kept = 0
    discarded = 0
    details: list[str] = []
    for frontier, budget, game_for in batteries:
        kept, dropped, notes = _full_rank_paired_batches(trials, frontier, budget, game_for)
        for game, batch in kept:
            worst = max(worst, deviation(frontier, game, batch))
        n_kept += len(kept)
        discarded += dropped
        details.extend(notes)
        details.append(f"d={frontier.d}: worst so far {worst:.3e}")
    passed = worst < tolerance and n_kept == trials * len(batteries)
    return VerifyReport(suite, passed, worst, n_kept, discarded, details)


def verify_paired_equivalence() -> VerifyReport:
    """Paired batches: the empty-frontier solve equals the projected pairs-frontier solve.

    Battery: d in (6, 8, 10), 50 full-rank trials per d on games
    ``make_random_game(d, 3, 4d, seed=7000 d + a)`` with batch seed a, at the
    paired budget 2 d' + 2 over ``k_additive(d, 2)``: 150 trials, passing below
    1e-6. The equivalence holds at full rank only, so a draw whose pairs
    design lacks full column rank is discarded and redrawn.
    """

    def battery(d: int) -> tuple[InteractionFrontier, int, Callable[[int], Game]]:
        pairs = k_additive(d, 2)
        return pairs, 2 * pairs.n_columns + 2, lambda a: make_random_game(d, 3, 4 * d, seed=7000 * d + a)

    def deviation(pairs: InteractionFrontier, _: Game, batch: SampleBatch) -> float:
        return _max_abs(kernelshap_from_batch(batch).shapley, polyshap_from_batch(batch, pairs).shapley)

    return _paired_suite("paired-equivalence", 1e-6, 50, [battery(d) for d in (6, 8, 10)], deviation)


def verify_degree2_recovery() -> VerifyReport:
    """Paired KernelSHAP recovers the Shapley values of a degree-2 game exactly.

    Battery: d = 8, 30 full-rank trials on games ``make_random_game(8, 2, 20,
    seed=4000 + a)`` with batch seed a, at the paired budget 2 d' + 2 = 74 over
    ``k_additive(8, 2)``; each estimate is compared with
    ``mobius_exact_shapley``, passing below 1e-7. A draw whose pairs design
    lacks full column rank is discarded and redrawn.
    """
    pairs = k_additive(8, 2)
    return _paired_suite(
        "degree2-recovery",
        1e-7,
        30,
        [(pairs, 2 * pairs.n_columns + 2, lambda a: make_random_game(8, 2, 20, seed=4000 + a))],
        lambda _, game, batch: _max_abs(kernelshap_from_batch(batch).shapley, mobius_exact_shapley(game)),
    )


def verify_projection_lemma() -> VerifyReport:
    """Constrained fit against y equals the constrained fit against the extended fit of y.

    Battery: 20 random systems (seed 42) of 100 rows, 6 columns extended by 4
    more, passing below 1e-8.
    """
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal((100, 6))
        x_plus = np.hstack([x, rng.standard_normal((100, 4))])
        y = rng.standard_normal(100)
        c = float(rng.standard_normal())
        direct = constrained_lstsq(x, y, c).coefficients
        beta_plus = constrained_lstsq(x_plus, y, c).coefficients
        via_extended = constrained_lstsq(x, x_plus @ beta_plus, c).coefficients
        worst = max(worst, _max_abs(direct, via_extended))
    return VerifyReport("projection-lemma", worst < 1e-8, worst, 20)


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


def verify_leverage_closed_form() -> VerifyReport:
    """Empty-frontier leverage scores are proportional to inverse binomials per size.

    Battery: d in (5, 6, 8), by brute force over all 2^d rows, passing when the
    relative deviation from proportionality stays below 1e-6.
    """
    worst = 0.0
    details: list[str] = []
    for d in (5, 6, 8):
        scores = leverage_scores_bruteforce(d, empty_frontier(d))
        ratios = np.array([scores[s] * binomial(d, s) for s in range(1, d)])
        dev = float(np.max(np.abs(ratios - ratios.mean())) / ratios.mean())
        worst = max(worst, dev)
        details.append(f"d={d}: proportionality deviation {dev:.3e}")
        if scores[0] != 0.0 or scores[d] != 0.0:
            worst = max(worst, abs(scores[0]), abs(scores[d]))
    return VerifyReport("leverage-closed-form", worst < 1e-6, worst, 3, details=details)


def verify_oddk_conjecture() -> VerifyReport:
    """Paired 3rd-order and 4th-order fits yield the same Shapley estimates.

    Battery: d = 8, 30 full-rank trials on games ``make_random_game(8, 8, 48,
    seed=9000 + a)`` with batch seed a, at paired budget 220, passing below
    1e-9. A draw whose 4th-order design lacks full column rank is discarded
    and redrawn.
    """
    frontier3 = k_additive(8, 3)
    return _paired_suite(
        "oddk-conjecture",
        1e-9,
        30,
        [(k_additive(8, 4), 220, lambda a: make_random_game(8, 8, 48, seed=9000 + a))],
        lambda frontier4, _, batch: _max_abs(
            polyshap_from_batch(batch, frontier3).shapley, polyshap_from_batch(batch, frontier4).shapley
        ),
    )


SUITES = {
    "consistency": verify_consistency,
    "paired-equivalence": verify_paired_equivalence,
    "degree2-recovery": verify_degree2_recovery,
    "projection-lemma": verify_projection_lemma,
    "leverage-closed-form": verify_leverage_closed_form,
    "oddk-conjecture": verify_oddk_conjecture,
}
