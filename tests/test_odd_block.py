"""The paired fit through its odd block, and the downward closure it rests on.

For a downward-closed frontier F the columns 1[T ⊆ S] span the same space
as the parities chi_U(S) = (-1)^{|U \\ S|} over the same index set. In a
complement-closed batch the weighted fit splits into an even and an odd
block, even parities have zero Shapley value, and the efficiency
constraint touches only the odd block. So the Shapley estimate is the fold
of an odd-block fit with one row per complement pair, defined whenever
that block has full column rank, even when the full design does not.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyshap.coalitions import fold, membership
from polyshap.estimators import polyshap_from_batch
from polyshap.frontier import k_additive, log_frontier, percent_of_order
from polyshap.games import make_random_game
from polyshap.regression import constrained_lstsq
from polyshap.sampling import SamplerConfig, sample

FAMILIES = ("k_additive", "percent_of_order", "log_frontier")


@st.composite
def built_in_frontiers(draw, d):
    family = draw(st.sampled_from(FAMILIES))
    seed = draw(st.integers(0, 1000))
    if family == "k_additive":
        return k_additive(d, draw(st.integers(1, 3)))
    if family == "percent_of_order":
        k = draw(st.integers(2, 3))
        return percent_of_order(d, k, draw(st.floats(0.0, 1.0)), seed)
    return log_frontier(d, seed)


def odd_block_fold(batch, frontier):
    """Shapley estimate of the odd-block fit, and whether that block has full column rank."""
    d = batch.d
    full = (1 << d) - 1
    row_of = {mask: r for r, mask in enumerate(batch.masks)}
    pairs = [(r, row_of[mask ^ full]) for r, mask in enumerate(batch.masks) if mask < mask ^ full]
    assert 2 * len(pairs) == len(batch.masks), "the batch is not complement closed"
    first, second = (np.array(side) for side in zip(*pairs))
    weights = batch.weights[first]
    assert np.array_equal(weights, batch.weights[second])
    odd = [u for u in frontier.column_masks if u.bit_count() % 2]
    odd_members = membership(odd, d)
    inside = membership([batch.masks[r] for r in first], d).astype(int) @ odd_members.T.astype(int)
    chi = np.where((odd_members.sum(axis=1) - inside) % 2, -1.0, 1.0)
    target = (batch.values[first] - batch.values[second]) / 2
    report = constrained_lstsq(
        weights[:, None] * chi / 2, weights * target, batch.nu_full - batch.nu_empty
    )
    full_rank = np.linalg.matrix_rank(chi) == len(odd)
    return fold(odd_members, report.coefficients), full_rank


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_paired_estimate_is_the_odd_block_fold(data):
    d = data.draw(st.integers(4, 10), label="d")
    frontier = data.draw(built_in_frontiers(d), label="frontier")
    # Budgets from just enough pairs for the odd columns upward: many such
    # designs have fewer rows than columns and are flagged rank deficient.
    n_odd = sum(u.bit_count() % 2 for u in frontier.column_masks)
    extra_pairs = data.draw(st.integers(0, 2 * n_odd), label="extra pairs")
    budget = 2 * min(1 << (d - 1), n_odd + 1 + extra_pairs)
    seed = data.draw(st.integers(0, 10_000), label="seed")
    game = make_random_game(d, 4, 2 * d, seed)
    batch = sample(SamplerConfig(budget_m=budget, paired=True, seed=seed), game)
    assume(not batch.odd_unpaired)
    expected, full_rank = odd_block_fold(batch, frontier)
    assume(full_rank)
    estimate = polyshap_from_batch(batch, frontier).shapley
    np.testing.assert_allclose(estimate, expected, rtol=0, atol=1e-9)


def test_deficient_paired_pairs_fit_is_the_odd_block_fold():
    d, frontier = 10, k_additive(10, 2)
    game = make_random_game(d, 3, 40, 500)
    for budget in (30, 40, 50):
        for seed in range(3):
            batch = sample(SamplerConfig(budget_m=budget, paired=True, seed=seed), game)
            expected, full_rank = odd_block_fold(batch, frontier)
            result = polyshap_from_batch(batch, frontier)
            assert full_rank and result.diagnostics["rank_deficient"]
            np.testing.assert_allclose(result.shapley, expected, rtol=0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_built_in_families_are_downward_closed(data):
    d = data.draw(st.integers(4, 13), label="d")
    frontier = data.draw(built_in_frontiers(d), label="frontier")
    terms = set(frontier.terms)
    for term in terms:
        if term.bit_count() > 2:
            members = [1 << i for i in range(d) if term >> i & 1]
            assert all(term ^ bit in terms for bit in members), (frontier.order_label, term)
