import json

import numpy as np
import pytest

from polyshap.coalitions import Coalition
from polyshap.estimators import (
    kernelshap,
    kernelshap_from_batch,
    permutation_baseline,
    polyshap,
    polyshap_from_batch,
    polyshap_to_sv,
)
from polyshap.evaluation import bruteforce_shapley
from polyshap.frontier import InteractionFrontier, empty_frontier, k_additive
from polyshap.games import (
    LookupGame,
    MobiusGame,
    NonFiniteValueError,
    make_random_game,
    mobius_exact_shapley,
)
from polyshap.sampling import SampleBatch, SamplerConfig, sample

from conftest import shapley_by_permutation_enum


def mask_of(players):
    return sum(1 << i for i in players)


class TestPolyshapToSv:
    def test_single_pair(self):
        d = 3
        frontier = InteractionFrontier(d, (mask_of([0, 1]),), "pair")
        sv = polyshap_to_sv(np.array([1.0, 0.0, 2.0, 1.0]), frontier)
        assert np.allclose(sv, [1.5, 0.5, 2.0])

    def test_empty_frontier_is_identity(self):
        rep = np.array([0.3, -1.0, 2.0])
        assert np.array_equal(polyshap_to_sv(rep, empty_frontier(3)), rep)

    def test_triple_split(self):
        d = 4
        frontier = InteractionFrontier(d, (mask_of([0, 1, 2]),), "triple")
        sv = polyshap_to_sv(np.array([0.0, 0.0, 0.0, 0.0, 3.0]), frontier)
        assert np.allclose(sv, [1.0, 1.0, 1.0, 0.0])

    def test_preserves_coefficient_sum(self):
        rng = np.random.default_rng(0)
        frontier = k_additive(6, 3)
        rep = rng.standard_normal(frontier.n_columns)
        sv = polyshap_to_sv(rep, frontier)
        assert sv.sum() == pytest.approx(rep.sum(), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            polyshap_to_sv(np.zeros(5), empty_frontier(3))


class TestProject2Poly:
    """A pairs-frontier representation folded onto the players by ``polyshap_to_sv``."""

    def test_normalization_identity(self):
        for d in (3, 5, 8):
            frontier = k_additive(d, 2)
            c = 2.7
            out = polyshap_to_sv(np.full(frontier.n_columns, c / frontier.n_columns), frontier)
            assert np.allclose(out, np.full(d, c / d))

    def test_zero_maps_to_zero(self):
        assert np.array_equal(polyshap_to_sv(np.zeros(10), k_additive(4, 2)), np.zeros(4))

    def test_matrix_entries(self):
        # the fold of k_additive(3, 2), read off column by column
        m = np.column_stack([polyshap_to_sv(e, k_additive(3, 2)) for e in np.eye(6)])
        # columns: {0},{1},{2},{0,1},{0,2},{1,2}
        expected = np.array(
            [
                [1, 0, 0, 0.5, 0.5, 0.0],
                [0, 1, 0, 0.5, 0.0, 0.5],
                [0, 0, 1, 0.0, 0.5, 0.5],
            ]
        )
        assert np.array_equal(m, expected)


class TestPolyshap:
    def test_full_budget_matches_oracle(self):
        d = 8
        g = make_random_game(d, 3, 25, seed=10)
        truth = bruteforce_shapley(g).shapley
        for frontier in (empty_frontier(d), k_additive(d, 2)):
            fresh = make_random_game(d, 3, 25, seed=10)
            result = polyshap(fresh, frontier, SamplerConfig(budget_m=1 << d, seed=0))
            assert np.max(np.abs(result.shapley - truth)) < 1e-7

    def test_degree2_game_paired_exact(self):
        d = 8
        g = make_random_game(d, 2, 20, seed=11)
        truth = mobius_exact_shapley(g)
        frontier = k_additive(d, 2)
        cfg = SamplerConfig(budget_m=2 * frontier.n_columns + 2, paired=True, seed=5)
        result = polyshap(g, frontier, cfg)
        if not result.diagnostics["rank_deficient"]:
            assert np.max(np.abs(result.shapley - truth)) < 1e-7

    def test_kernelshap_alias_identity(self):
        d = 7
        cfg = SamplerConfig(budget_m=60, paired=True, seed=8)
        a = kernelshap(make_random_game(d, 3, 20, seed=12), cfg)
        b = polyshap(make_random_game(d, 3, 20, seed=12), empty_frontier(d), cfg)
        assert np.array_equal(a.shapley, b.shapley)
        assert a.frontier_label == b.frontier_label == "k=1"

    def test_budget_bounds_enforced(self):
        g = make_random_game(5, 2, 5, seed=0)
        with pytest.raises(ValueError):
            polyshap(g, empty_frontier(5), SamplerConfig(budget_m=6, seed=0))

    def test_efficiency(self):
        g = make_random_game(9, 3, 30, seed=13)
        v_empty, v_full = g.evaluate_many([0, (1 << 9) - 1])
        total = v_full - v_empty
        result = polyshap(g, k_additive(9, 2), SamplerConfig(budget_m=120, paired=True, seed=2))
        assert result.shapley.sum() == pytest.approx(total, abs=1e-8 * max(1, abs(total)))

    def test_budget_respected_exactly(self):
        g = make_random_game(8, 3, 20, seed=14)
        before = g.eval_counter
        result = polyshap(g, k_additive(8, 2), SamplerConfig(budget_m=90, paired=False, seed=3))
        assert g.eval_counter - before == 90
        assert result.diagnostics["budget_used"] == 90

    def test_json_serialization(self):
        g = make_random_game(5, 2, 5, seed=15)
        result = kernelshap(g, SamplerConfig(budget_m=20, seed=1))
        blob = json.loads(result.to_json())
        assert set(blob) >= {"baseline", "shapley", "frontier_label", "diagnostics"}
        assert len(blob["shapley"]) == 5

    def test_solver_diagnostics(self):
        g = make_random_game(8, 3, 20, seed=14)
        full_rank = polyshap(g, k_additive(8, 2), SamplerConfig(budget_m=120, paired=True, seed=3))
        assert full_rank.diagnostics["solver"] == "cholesky"
        assert full_rank.diagnostics["pivot_ratio"] >= 1.0
        # fewer rows than d' - 1 columns: the factorization is rejected, the SVD flags it
        deficient = polyshap(g, k_additive(8, 3), SamplerConfig(budget_m=40, paired=True, seed=3))
        assert deficient.diagnostics["solver"] == "svd"
        assert deficient.diagnostics["rank_deficient"]


class TestKernelshap:
    def test_additive_game_exact_at_full_rank(self):
        d = 6
        g = MobiusGame(d, {1 << i: float(i + 1) for i in range(d)})
        result = kernelshap(g, SamplerConfig(budget_m=30, paired=False, seed=4))
        assert not result.diagnostics["rank_deficient"]
        assert np.allclose(result.shapley, np.arange(1.0, d + 1), atol=1e-8)

    def test_counter_equals_budget(self):
        g = make_random_game(6, 2, 10, seed=17)
        before = g.eval_counter
        kernelshap(g, SamplerConfig(budget_m=40, paired=True, seed=7))
        assert g.eval_counter - before == 40


class TestPairedEquivalence:
    def test_replay_through_csv(self, tmp_path):
        from polyshap.sampling import load_batch, save_batch

        d = 6
        g = make_random_game(d, 3, 20, seed=18)
        batch = sample(SamplerConfig(budget_m=44, paired=True, seed=9), g)
        path = tmp_path / "replay.csv"
        save_batch(batch, str(path))
        replayed = load_batch(str(path))
        a = kernelshap_from_batch(batch).shapley
        b = kernelshap_from_batch(replayed).shapley
        assert np.array_equal(a, b)


class TestSymmetry:
    def test_transposed_batch_swaps_estimates(self):
        # game symmetric in players 0 and 1; swapping those bits in every
        # sampled row must swap the two estimates
        d = 6
        terms = {
            mask_of([0]): 1.5,
            mask_of([1]): 1.5,
            mask_of([0, 1]): 2.0,
            mask_of([2, 3]): -1.0,
                mask_of([4]): 0.5,
        }
        g = MobiusGame(d, terms)
        batch = sample(SamplerConfig(budget_m=40, paired=False, seed=12), g)

        def swap01(mask: int) -> int:
            b0, b1 = mask & 1, (mask >> 1) & 1
            return (mask & ~0b11) | (b0 << 1) | b1

        swapped = SampleBatch(
            d=d,
            masks=[swap01(m) for m in batch.masks],
            weights=batch.weights.copy(),
            values=batch.values.copy(),
            nu_empty=batch.nu_empty,
            nu_full=batch.nu_full,
            enumerated_sizes=batch.enumerated_sizes,
        )
        base = polyshap_from_batch(batch, empty_frontier(d)).shapley
        perm = polyshap_from_batch(swapped, empty_frontier(d)).shapley
        expected = base.copy()
        expected[[0, 1]] = expected[[1, 0]]
        assert np.allclose(perm, expected, atol=1e-10)


class TestPermutationBaseline:
    def test_two_player_single_permutation(self):
        # one sweep is exact for additive games; for general games each
        # sweep still satisfies efficiency, and the two possible sweeps
        # average to the exact values
        g_add = MobiusGame(2, {1: 2.0, 2: -1.0})
        result = permutation_baseline(g_add, budget_m=3, seed=0)
        assert np.allclose(result.shapley, [2.0, -1.0])

        g_gen = LookupGame(2, {0: 0.0, 1: 0.0, 2: 0.0, 3: 1.0})
        estimates = []
        for seed in range(8):
            fresh = LookupGame(2, {0: 0.0, 1: 0.0, 2: 0.0, 3: 1.0})
            r = permutation_baseline(fresh, budget_m=3, seed=seed)
            assert r.shapley.sum() == pytest.approx(1.0)
            estimates.append(tuple(r.shapley))
        # both orders occur and average to the exact (0.5, 0.5)
        assert {(0.0, 1.0), (1.0, 0.0)} == set(estimates)

    def test_additive_game_exact_any_budget(self):
        d = 5
        g = MobiusGame(d, {1 << i: float(2 * i - 3) for i in range(d)})
        result = permutation_baseline(g, budget_m=d + 1, seed=3)
        assert np.allclose(result.shapley, [2 * i - 3 for i in range(d)], atol=1e-12)

    def test_statistical_agreement_with_oracle(self):
        d = 8
        base = make_random_game(d, 3, 25, seed=19)
        truth = bruteforce_shapley(base).shapley
        runs = []
        for seed in range(200):
            g = make_random_game(d, 3, 25, seed=19)
            runs.append(permutation_baseline(g, budget_m=10 * (d + 1), seed=seed).shapley)
        runs = np.array(runs)
        mean = runs.mean(axis=0)
        sem = runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
        assert np.all(np.abs(mean - truth) <= 3 * sem + 1e-12)

    def test_budget_accounting_whole_sweeps(self):
        d = 6
        g = make_random_game(d, 2, 10, seed=20)
        before = g.eval_counter
        result = permutation_baseline(g, budget_m=32, seed=1)
        used = 1 + d * ((32 - 1) // d)
        assert g.eval_counter - before == used
        assert result.diagnostics["budget_used"] == used
        assert result.diagnostics["n_permutations"] == (32 - 1) // d

    def test_insufficient_budget(self):
        g = make_random_game(4, 2, 4, seed=0)
        with pytest.raises(ValueError):
            permutation_baseline(g, budget_m=4, seed=0)

    def test_efficiency_per_run(self):
        g = make_random_game(7, 3, 15, seed=21)
        v_empty, v_full = g.evaluate_many([0, (1 << 7) - 1])
        total = v_full - v_empty
        result = permutation_baseline(g, budget_m=50, seed=5)
        assert result.shapley.sum() == pytest.approx(total, abs=1e-10)

    def test_matches_enumeration_oracle_in_expectation(self):
        d = 4
        base = make_random_game(d, 2, 6, seed=22)
        truth = shapley_by_permutation_enum(base)
        runs = []
        for seed in range(300):
            g = make_random_game(d, 2, 6, seed=22)
            runs.append(permutation_baseline(g, budget_m=2 * (d + 1), seed=seed).shapley)
        runs = np.array(runs)
        sem = runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
        assert np.all(np.abs(runs.mean(axis=0) - truth) <= 4 * sem + 1e-12)


class TestNonFiniteGameValues:
    @staticmethod
    def nan_at_grand(d=3):
        table = {m: float(m.bit_count()) for m in range(1 << d)}
        table[(1 << d) - 1] = float("nan")
        return LookupGame(d, table)

    def test_permutation_baseline_raises(self):
        with pytest.raises(NonFiniteValueError, match="111"):
            permutation_baseline(self.nan_at_grand(), budget_m=10, seed=0)

    def test_polyshap_raises(self):
        with pytest.raises(NonFiniteValueError, match="not finite"):
            polyshap(self.nan_at_grand(), k_additive(3, 2), SamplerConfig(budget_m=8, seed=0))

    def test_infinite_row_value_raises(self):
        table = {m: 1.0 for m in range(16)}
        table[0b0110] = float("-inf")
        with pytest.raises(NonFiniteValueError) as info:
            kernelshap(LookupGame(4, table), SamplerConfig(budget_m=16, seed=0))
        assert info.value.bitstring == "0110"
        assert isinstance(info.value, ValueError)

    def test_non_finite_value_is_not_cached(self):
        g = self.nan_at_grand()
        for _ in range(2):
            with pytest.raises(NonFiniteValueError):
                g.evaluate_many([0b111])
        assert g.eval_counter == 2


class TestHighDimensional:
    def test_d60_kernelshap_against_mobius_oracle(self):
        # oracle-free dimensions rely on the coefficient oracle; the
        # estimate should rank players well at a tiny fraction of 2^d
        d = 60
        g = make_random_game(d, 3, 120, seed=77)
        truth = mobius_exact_shapley(g)
        result = kernelshap(g, SamplerConfig(budget_m=800, paired=True, seed=1))
        assert result.diagnostics["efficiency_gap"] < 1e-12
        from polyshap.evaluation import spearman

        assert spearman(result.shapley, truth) > 0.9


class TestOddKConjecture:
    def test_unreachable_rank_stops_instead_of_looping(self):
        import time

        from polyshap.verify import ATTEMPTS_PER_TRIAL, _full_rank_paired_batches

        # 84 complement pairs cannot give the d'=162 columns of k=4 full rank
        start = time.perf_counter()
        kept, discarded, details = _full_rank_paired_batches(
            1, k_additive(8, 4), 170, lambda a: make_random_game(8, 8, 48, seed=9000 + a)
        )
        assert time.perf_counter() - start < 10
        assert kept == []
        assert discarded == ATTEMPTS_PER_TRIAL
        assert any("stopped after" in line for line in details)


def per_player_chain_baseline(game, budget_m, seed):
    """The per-player chain loop the batched permutation baseline replaced."""
    d = game.d
    n_perms = (budget_m - 1) // d
    rng = np.random.default_rng(seed)
    nu_empty = game.evaluate(Coalition(0, d))
    phi = np.zeros(d)
    for _ in range(n_perms):
        perm = rng.permutation(d)
        prev = nu_empty
        mask = 0
        for player in perm:
            mask |= 1 << int(player)
            value = game.evaluate(Coalition(mask, d))
            phi[int(player)] += value - prev
            prev = value
    phi /= n_perms
    return phi, nu_empty, prev


class TestPermutationBaselineChains:
    @pytest.mark.parametrize("d", [2, 10, 128])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_per_player_chains(self, d, seed):
        budget = 5 * d + 3
        n_terms = {2: 3, 10: 20, 128: 256}[d]
        game = make_random_game(d, min(3, d), n_terms, seed=d + seed)
        reference_game = make_random_game(d, min(3, d), n_terms, seed=d + seed)
        result = permutation_baseline(game, budget, seed)
        phi, nu_empty, nu_full = per_player_chain_baseline(reference_game, budget, seed)
        assert np.array_equal(result.shapley, phi)
        assert type(result.baseline) is float and result.baseline == nu_empty
        gap = abs(float(phi.sum()) - (nu_full - nu_empty)) / max(1.0, abs(nu_full - nu_empty))
        assert result.diagnostics["efficiency_gap"] == gap
        assert game.eval_counter == reference_game.eval_counter == 1 + d * ((budget - 1) // d)
