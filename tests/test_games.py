import numpy as np
import pytest

from polyshap.coalitions import Coalition
from polyshap.evaluation import bruteforce_shapley
from polyshap.games import (
    GameFileError,
    LookupMissError,
    MobiusGame,
    dump_lookup_file,
    load_lookup_game,
    load_mobius_game,
    make_random_game,
    mobius_exact_shapley,
    save_mobius_game,
)

from conftest import shapley_by_permutation_enum


def mask_of(players, d):
    return Coalition.of(players, d).mask


class TestMobiusEvaluate:
    def test_pair_example(self):
        g = MobiusGame(2, {mask_of([0], 2): 1.0, mask_of([0, 1], 2): 2.0})
        assert g.evaluate(Coalition.of([0, 1], 2)) == 3.0

    def test_empty_set_is_zero(self):
        g = MobiusGame(3, {mask_of([0], 3): 5.0})
        assert g.evaluate(Coalition.empty(3)) == 0.0

    def test_grand_coalition_sums_all_coefficients(self):
        g = make_random_game(8, 3, 5, seed=11)
        # independent oracle: direct sum of the stored coefficients
        expected = sum(g.terms.values())
        assert g.evaluate(Coalition.full(8)) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        g = MobiusGame(3, {})
        with pytest.raises(ValueError):
            g.evaluate(Coalition.empty(4))

    def test_locality(self):
        # value depends only on terms inside the queried coalition
        g = MobiusGame(4, {mask_of([0], 4): 1.0, mask_of([2, 3], 4): 7.0})
        assert g.evaluate(Coalition.of([0, 1], 4)) == 1.0


class TestMobiusExactShapley:
    def test_pair_term_splits(self):
        g = MobiusGame(3, {mask_of([0, 1], 3): 1.0})
        assert np.allclose(mobius_exact_shapley(g), [0.5, 0.5, 0.0])

    def test_additive_game(self):
        g = MobiusGame(2, {mask_of([0], 2): 2.5, mask_of([1], 2): -1.0})
        assert np.allclose(mobius_exact_shapley(g), [2.5, -1.0])

    def test_matches_bruteforce_oracle(self):
        g = make_random_game(8, 3, 25, seed=3)
        phi = mobius_exact_shapley(g)
        oracle = bruteforce_shapley(g).shapley
        assert np.max(np.abs(phi - oracle)) < 1e-10

    def test_matches_permutation_enumeration(self):
        g = make_random_game(5, 3, 12, seed=9)
        phi = mobius_exact_shapley(g)
        enum = shapley_by_permutation_enum(g)
        assert np.max(np.abs(phi - enum)) < 1e-10

    def test_efficiency(self):
        g = make_random_game(7, 4, 30, seed=21)
        total = g.evaluate(Coalition.full(7)) - g.evaluate(Coalition.empty(7))
        assert mobius_exact_shapley(g).sum() == pytest.approx(total, abs=1e-10)


class TestMakeRandomGame:
    def test_deterministic(self):
        a = make_random_game(6, 2, 10, seed=7)
        b = make_random_game(6, 2, 10, seed=7)
        assert a.terms == b.terms

    def test_term_sizes_bounded(self):
        g = make_random_game(4, 4, 15, seed=0)
        assert len(g.terms) == 15
        assert all(1 <= m.bit_count() <= 4 for m in g.terms)

    def test_too_many_terms_rejected(self):
        # d=4, max_order=1 has only 4 candidates
        with pytest.raises(ValueError):
            make_random_game(4, 1, 5, seed=0)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            make_random_game(4, 0, 1, seed=0)
        with pytest.raises(ValueError):
            make_random_game(4, 5, 1, seed=0)


class TestEvalCounter:
    def test_counter_counts_duplicates(self):
        g = MobiusGame(3, {mask_of([0], 3): 1.0})
        c = Coalition.of([0], 3)
        g.evaluate(c)
        g.evaluate(c)
        assert g.eval_counter == 2

    def test_deterministic_values(self):
        g = make_random_game(6, 3, 10, seed=4)
        c = Coalition.of([1, 4], 6)
        assert g.evaluate(c) == g.evaluate(c)

    def test_counter_safe_under_concurrent_evaluation(self):
        import threading

        g = make_random_game(8, 3, 20, seed=5)
        per_thread = 500

        def worker(offset):
            for i in range(per_thread):
                g.evaluate(Coalition((offset + i) % 255 + 1, 8))

        threads = [threading.Thread(target=worker, args=(t * 37,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert g.eval_counter == 8 * per_thread


class TestLookupGame:
    def test_full_two_player_file(self, tmp_path):
        path = tmp_path / "two.game"
        path.write_text("d=2\n00,0.0\n10,1.0\n01,3.0\n11,4.0\n")
        g = load_lookup_game(str(path))
        assert g.d == 2
        assert g.evaluate(Coalition.from_bitstring("01")) == 3.0
        assert g.evaluate(Coalition.full(2)) == 4.0

    def test_missing_row_errors_at_query_time(self, tmp_path):
        path = tmp_path / "partial.game"
        path.write_text("d=2\n00,0.0\n10,1.0\n01,3.0\n")
        g = load_lookup_game(str(path))
        assert g.evaluate(Coalition.of([0], 2)) == 1.0
        with pytest.raises(LookupMissError) as err:
            g.evaluate(Coalition.full(2))
        assert err.value.bitstring == "11"

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "dup.game"
        path.write_text("d=2\n00,0.0\n00,1.0\n")
        with pytest.raises(GameFileError):
            load_lookup_game(str(path))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.game"
        path.write_text("players=2\n00,0.0\n")
        with pytest.raises(GameFileError):
            load_lookup_game(str(path))

    def test_bad_bitstring_length(self, tmp_path):
        path = tmp_path / "bad2.game"
        path.write_text("d=3\n00,0.0\n")
        with pytest.raises(GameFileError):
            load_lookup_game(str(path))

    def test_roundtrip_full_table(self, tmp_path):
        g = make_random_game(6, 3, 12, seed=5)
        path = tmp_path / "dump.game"
        dump_lookup_file(g, str(path))
        reloaded = load_lookup_game(str(path))
        fresh = make_random_game(6, 3, 12, seed=5)
        for mask in range(1 << 6):
            c = Coalition(mask, 6)
            assert reloaded.evaluate(c) == fresh.evaluate(c)


class TestMobiusFileRoundtrip:
    def test_roundtrip_exact(self, tmp_path):
        g = make_random_game(8, 3, 20, seed=1)
        path = tmp_path / "g.mobius"
        save_mobius_game(g, str(path))
        reloaded = load_mobius_game(str(path))
        assert reloaded.terms == g.terms

    def test_same_seed_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.mobius", tmp_path / "b.mobius"
        save_mobius_game(make_random_game(8, 3, 20, seed=1), str(p1))
        save_mobius_game(make_random_game(8, 3, 20, seed=1), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
