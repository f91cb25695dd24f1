import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshap.coalitions import FileFormatError, binomial, shapley_weight
from polyshap.estimators import polyshap_from_batch
from polyshap.frontier import empty_frontier, k_additive, percent_of_order
from polyshap.games import make_random_game
from polyshap.regression import build_design, full_design_matrix
from polyshap.sampling import (
    SampleBatch,
    SamplerConfig,
    load_batch,
    sample,
    save_batch,
)
from polyshap.verify import leverage_scores_bruteforce


class TestSample:
    def test_full_enumeration_boundary_d4(self):
        g = make_random_game(4, 2, 5, seed=1)
        batch = sample(SamplerConfig(budget_m=16, paired=True, seed=0), g)
        assert len(batch.masks) == 14
        assert len(set(batch.masks)) == 14
        assert batch.enumerated_sizes == frozenset({1, 2, 3})
        expected = [np.sqrt(shapley_weight(m.bit_count(), 4)) for m in batch.masks]
        assert np.allclose(batch.weights, expected)

    def test_deterministic_and_complement_closed(self):
        runs = []
        for _ in range(2):
            g = make_random_game(10, 3, 30, seed=2)
            runs.append(sample(SamplerConfig(budget_m=40, paired=True, seed=11), g))
        a, b = runs
        assert a.masks == b.masks
        assert np.array_equal(a.weights, b.weights)
        full = (1 << 10) - 1
        assert sorted(a.masks) == sorted(m ^ full for m in a.masks)

    def test_no_empty_or_grand_rows(self):
        g = make_random_game(6, 3, 10, seed=3)
        batch = sample(SamplerConfig(budget_m=40, paired=False, seed=5), g)
        sizes = {m.bit_count() for m in batch.masks}
        assert 0 not in sizes and 6 not in sizes

    def test_budget_consumed_exactly(self):
        g = make_random_game(8, 3, 20, seed=4)
        before = g.eval_counter
        batch = sample(SamplerConfig(budget_m=57, paired=False, seed=9), g)
        assert g.eval_counter - before == 57
        assert batch.effective_m == 57

    def test_odd_paired_budget_flagged(self):
        g = make_random_game(8, 3, 20, seed=4)
        batch = sample(SamplerConfig(budget_m=41, paired=True, seed=9), g)
        assert batch.odd_unpaired
        assert len(batch.masks) == 39

    def test_even_paired_budget_not_flagged(self):
        g = make_random_game(8, 3, 20, seed=4)
        batch = sample(SamplerConfig(budget_m=40, paired=True, seed=9), g)
        assert not batch.odd_unpaired

    def test_enumerated_sizes_have_unit_p_eff(self):
        # at this budget the extreme sizes enumerate; their rows carry sqrt(mu)
        g = make_random_game(8, 3, 20, seed=6)
        batch = sample(SamplerConfig(budget_m=150, paired=False, seed=1), g)
        assert batch.enumerated_sizes
        for mask, w in zip(batch.masks, batch.weights):
            s = mask.bit_count()
            if s in batch.enumerated_sizes:
                assert w == pytest.approx(np.sqrt(shapley_weight(s, 8)))

    def test_enumerated_strata_complete_and_unique(self):
        g = make_random_game(8, 3, 20, seed=6)
        batch = sample(SamplerConfig(budget_m=150, paired=False, seed=1), g)
        for s in batch.enumerated_sizes:
            in_stratum = [m for m in batch.masks if m.bit_count() == s]
            assert len(in_stratum) == binomial(8, s)
            assert len(set(in_stratum)) == len(in_stratum)

    def test_random_rows_weight_formula(self):
        d = 8
        g = make_random_game(d, 3, 20, seed=6)
        batch = sample(SamplerConfig(budget_m=150, paired=False, seed=1), g)
        # Horvitz-Thompson: kernel weight over n p(S), with sizes uniform over
        # the active (non-enumerated) sizes and n the number of random rows
        active = [s for s in range(1, d) if s not in batch.enumerated_sizes]
        n_random = sum(m.bit_count() in active for m in batch.masks)
        assert n_random > 0
        for mask, w in zip(batch.masks, batch.weights):
            s = mask.bit_count()
            if s in active:
                p_eff = 1 / (len(active) * binomial(d, s))
                assert w == pytest.approx(np.sqrt(shapley_weight(s, d) / (n_random * p_eff)))

    def test_without_replacement_within_sizes(self):
        g = make_random_game(10, 2, 10, seed=7)
        batch = sample(SamplerConfig(budget_m=80, paired=False, seed=3), g)
        by_size: dict[int, list[int]] = {}
        for m in batch.masks:
            by_size.setdefault(m.bit_count(), []).append(m)
        for s, masks in by_size.items():
            if s in batch.enumerated_sizes:
                continue
            assert len(set(masks)) == len(masks)

    def test_budget_bounds(self):
        g = make_random_game(5, 2, 5, seed=0)
        with pytest.raises(ValueError):
            sample(SamplerConfig(budget_m=6, seed=0), g)  # below d+2
        with pytest.raises(ValueError):
            sample(SamplerConfig(budget_m=33, seed=0), g)  # above 2^d

    def test_values_match_game(self):
        g = make_random_game(6, 3, 10, seed=8)
        batch = sample(SamplerConfig(budget_m=30, paired=False, seed=2), g)
        fresh = make_random_game(6, 3, 10, seed=8)
        assert np.array_equal(batch.values, fresh.evaluate_many(batch.masks))
        assert [batch.nu_empty, batch.nu_full] == fresh.evaluate_many([0, (1 << 6) - 1]).tolist()

    def test_border_tie_enumerates_in_integers(self):
        # 315 * (1/7) rounds below C(10, 2) = 45 in floating point; the border
        # test must still enumerate sizes 2 and 8
        g = make_random_game(10, 2, 10, seed=7)
        batch = sample(SamplerConfig(budget_m=337, paired=True, seed=19), g)
        assert batch.enumerated_sizes == frozenset({1, 2, 8, 9})
        assert len(set(batch.masks)) == len(batch.masks)

    @pytest.mark.parametrize("budget_m, paired", [(60, False), (60, True), (150, True)])
    def test_mean_gram_matches_full_design(self, budget_m, paired):
        # Horvitz-Thompson unbiasedness: over seeds, the weighted Gram of a
        # batch averages to the kernel-weighted Gram of all 2^d coalitions
        d = 8
        frontier = k_additive(d, 2)
        full = full_design_matrix(d, frontier)
        expected = full.T @ full
        mean = np.zeros_like(expected)
        n_seeds = 400
        for seed in range(n_seeds):
            g = make_random_game(d, 2, 10, seed=1)
            x = build_design(sample(SamplerConfig(budget_m, paired, seed), g), frontier).matrix
            mean += x.T @ x / n_seeds
        assert np.linalg.norm(mean - expected) / np.linalg.norm(expected) < 0.02


@st.composite
def sampler_cases(draw):
    d = draw(st.integers(2, 12))
    budget_m = draw(st.integers(d + 2, 1 << d))
    return d, SamplerConfig(budget_m, draw(st.booleans()), draw(st.integers(0, 2**32 - 1)))


class TestSamplerContract:
    @settings(max_examples=150, deadline=None)
    @given(sampler_cases())
    def test_contract(self, case):
        d, cfg = case
        g = make_random_game(d, 1, d, seed=0)
        before = g.eval_counter
        batch = sample(cfg, g)
        assert len(set(batch.masks)) == len(batch.masks)
        for s in batch.enumerated_sizes:
            assert sum(m.bit_count() == s for m in batch.masks) == binomial(d, s)
        assert g.eval_counter - before == batch.effective_m == cfg.budget_m
        if cfg.paired and cfg.budget_m % 2 == 0:
            full = (1 << d) - 1
            assert set(batch.masks) == {m ^ full for m in batch.masks}


class TestBatchReplay:
    def test_csv_roundtrip(self, tmp_path):
        g = make_random_game(8, 3, 20, seed=4)
        batch = sample(SamplerConfig(budget_m=74, paired=True, seed=13), g)
        path = tmp_path / "batch.csv"
        save_batch(batch, str(path))
        loaded = load_batch(str(path))
        assert loaded.d == batch.d
        assert loaded.masks == batch.masks
        assert np.array_equal(loaded.weights, batch.weights)
        assert np.array_equal(loaded.values, batch.values)
        assert loaded.nu_empty == batch.nu_empty
        assert loaded.nu_full == batch.nu_full
        assert loaded.enumerated_sizes == batch.enumerated_sizes
        assert loaded.odd_unpaired == batch.odd_unpaired

    def test_bitstring_of_wrong_length_rejected(self, tmp_path):
        g = make_random_game(6, 2, 10, seed=5)
        batch = sample(SamplerConfig(budget_m=30, paired=False, seed=2), g)
        path = tmp_path / "batch.csv"
        save_batch(batch, str(path))
        lines = path.read_text().splitlines()
        row = lines.index("bitstring,weight,value") + 3
        lines[row] = "0" + lines[row]  # a 7-character bitstring in a d=6 file
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"batch.csv:{row + 1}: .* expected d=6"):
            load_batch(str(path))

    @pytest.mark.parametrize("key", ["nu_empty", "nu_full"])
    def test_non_finite_header_value_rejected(self, tmp_path, key):
        g = make_random_game(6, 2, 10, seed=5)
        batch = sample(SamplerConfig(budget_m=30, paired=True, seed=2), g)
        path = tmp_path / "batch.csv"
        save_batch(batch, str(path))
        text = path.read_text().replace(f"# {key}={getattr(batch, key)!r}", f"# {key}=nan")
        path.write_text(text)
        with pytest.raises(FileFormatError, match="batch.csv: nu_empty and nu_full must be finite"):
            load_batch(str(path))

    @pytest.mark.parametrize("mask", [0, 0b111111, 0b1000000, 0b1000001, -1])
    def test_mask_outside_proper_range_rejected(self, mask):
        with pytest.raises(ValueError, match=f"mask {mask} is not a proper"):
            SampleBatch(
                d=6,
                masks=[0b000011, mask],
                weights=np.ones(2),
                values=np.zeros(2),
                nu_empty=0.0,
                nu_full=1.0,
                enumerated_sizes=frozenset(),
            )

    def test_hand_built_batch_reports_its_rows(self):
        g = make_random_game(6, 2, 10, seed=5)
        batch = sample(SamplerConfig(budget_m=30, paired=True, seed=2), g)
        rows = 11
        cut = SampleBatch(
            d=6,
            masks=batch.masks[:rows],
            weights=batch.weights[:rows],
            values=batch.values[:rows],
            nu_empty=batch.nu_empty,
            nu_full=batch.nu_full,
            enumerated_sizes=frozenset(),
        )
        assert cut.effective_m == 2 + rows
        assert polyshap_from_batch(cut, empty_frontier(6)).diagnostics["budget_used"] == 2 + rows


class TestLeverageScores:
    def test_empty_frontier_inverse_binomial(self):
        d = 6
        scores = leverage_scores_bruteforce(d, empty_frontier(d))
        ratios = [scores[s] * binomial(d, s) for s in range(1, d)]
        mean = np.mean(ratios)
        assert max(abs(r - mean) for r in ratios) / mean < 1e-6
        assert scores[0] == 0.0 and scores[d] == 0.0

    def test_all_nonnegative(self):
        scores = leverage_scores_bruteforce(6, k_additive(6, 2))
        assert all(v >= 0 for v in scores.values())

    def test_pairs_frontier_scores_recorded(self, capsys):
        # qualitative: higher-order frontier keeps per-size scores in a narrow band
        d = 6
        scores = leverage_scores_bruteforce(d, k_additive(d, 2))
        proper = {s: v for s, v in scores.items() if 0 < s < d}
        print("per-size leverage scores with pairs frontier:", proper)
        spread = max(proper.values()) / min(proper.values())
        print("max/min ratio:", spread)
        assert all(v > 0 for v in proper.values())

    def test_asymmetric_frontier_rejected(self):
        with pytest.raises(ValueError, match="size 3"):
            leverage_scores_bruteforce(4, percent_of_order(4, 3, 0.5, 1))

    def test_d_too_large(self):
        with pytest.raises(ValueError):
            leverage_scores_bruteforce(15, empty_frontier(15))
