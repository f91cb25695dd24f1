import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshap.coalitions import Coalition, FileFormatError
from polyshap.evaluation import bruteforce_shapley
from polyshap.games import (
    LookupGame,
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


def mask_of(players):
    return sum(1 << i for i in players)


class TestMobiusEvaluate:
    def test_pair_example(self):
        g = MobiusGame(2, {mask_of([0]): 1.0, mask_of([0, 1]): 2.0})
        assert g.evaluate(Coalition(0b11, 2)) == 3.0

    def test_empty_set_is_zero(self):
        g = MobiusGame(3, {mask_of([0]): 5.0})
        assert g.evaluate(Coalition(0, 3)) == 0.0

    def test_grand_coalition_sums_all_coefficients(self):
        g = make_random_game(8, 3, 5, seed=11)
        # independent oracle: direct sum of the stored coefficients
        expected = sum(g.terms.values())
        assert g.evaluate(Coalition(0xFF, 8)) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        g = MobiusGame(3, {})
        with pytest.raises(ValueError):
            g.evaluate(Coalition(0, 4))

    def test_keys_must_be_int_masks(self):
        assert MobiusGame(3, {np.int64(3): 1.0}).terms == {3: 1.0}
        for key in (Coalition(3, 3), 3.0):
            with pytest.raises(TypeError):
                MobiusGame(3, {key: 1.0})

    def test_locality(self):
        # value depends only on terms inside the queried coalition
        g = MobiusGame(4, {mask_of([0]): 1.0, mask_of([2, 3]): 7.0})
        assert g.evaluate(Coalition(mask_of([0, 1]), 4)) == 1.0


@pytest.mark.parametrize("cls", [MobiusGame, LookupGame])
def test_table_keys_are_int_masks_in_range(cls):
    game = cls(3, {np.int64(3): 1.0})
    assert game.evaluate(Coalition(3, 3)) == 1.0
    for key in (Coalition(3, 3), 1.5):
        with pytest.raises(TypeError):
            cls(3, {key: 1.0})
    for key in (8, -1):
        with pytest.raises(ValueError, match="out of range for d=3"):
            cls(3, {key: 1.0})


class TestMobiusExactShapley:
    def test_pair_term_splits(self):
        g = MobiusGame(3, {mask_of([0, 1]): 1.0})
        assert np.allclose(mobius_exact_shapley(g), [0.5, 0.5, 0.0])

    def test_additive_game(self):
        g = MobiusGame(2, {mask_of([0]): 2.5, mask_of([1]): -1.0})
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
        v_empty, v_full = g.evaluate_many([0, (1 << 7) - 1])
        total = v_full - v_empty
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
        g = MobiusGame(3, {mask_of([0]): 1.0})
        c = Coalition(mask_of([0]), 3)
        g.evaluate(c)
        g.evaluate(c)
        assert g.eval_counter == 2

    def test_deterministic_values(self):
        g = make_random_game(6, 3, 10, seed=4)
        c = Coalition(mask_of([1, 4]), 6)
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


def mobius_or_lookup(kind, d, seed):
    """A random Mobius game, or the lookup game holding its full table."""
    game = make_random_game(d, min(3, d), d, seed=seed)
    if kind == "mobius":
        return game
    return LookupGame(d, dict(enumerate(game.evaluate_many(range(1 << d)))))


class TestEvaluateMany:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["mobius", "lookup"]), st.integers(1, 12), st.data())
    def test_equals_per_row_evaluate_and_counts_every_row(self, kind, d, data):
        masks = data.draw(st.lists(st.integers(0, (1 << d) - 1), max_size=30))
        masks += data.draw(st.lists(st.sampled_from(masks), max_size=10)) if masks else []
        game = mobius_or_lookup(kind, d, seed=d)
        before = game.eval_counter
        got = game.evaluate_many(masks)
        assert game.eval_counter - before == len(masks)
        assert got.dtype == np.float64 and got.shape == (len(masks),)
        fresh = mobius_or_lookup(kind, d, seed=d)
        assert got.tolist() == [fresh.evaluate(Coalition(m, d)) for m in masks]

    def test_empty_input(self):
        g = make_random_game(4, 2, 4, seed=0)
        got = g.evaluate_many([])
        assert got.shape == (0,) and got.dtype == np.float64
        assert g.eval_counter == 0

    def test_first_missing_row_raises_with_counter_through_it(self):
        g = LookupGame(3, {0b000: 0.0, 0b001: 1.0, 0b011: 2.0})
        with pytest.raises(LookupMissError) as err:
            g.evaluate_many([0b001, 0b011, 0b110, 0b001, 0b111])
        assert err.value.bitstring == "011"
        assert g.eval_counter == 3

    def test_masks_out_of_range_rejected(self):
        g = make_random_game(3, 2, 3, seed=0)
        with pytest.raises(ValueError):
            g.evaluate_many([1 << 3])


class TestLookupGame:
    def test_full_two_player_file(self, tmp_path):
        path = tmp_path / "two.game"
        path.write_text("d=2\n00,0.0\n10,1.0\n01,3.0\n11,4.0\n")
        g = load_lookup_game(str(path))
        assert g.d == 2
        assert g.evaluate_many([0b10, 0b11]).tolist() == [3.0, 4.0]

    def test_missing_row_errors_at_query_time(self, tmp_path):
        path = tmp_path / "partial.game"
        path.write_text("d=2\n00,0.0\n10,1.0\n01,3.0\n")
        g = load_lookup_game(str(path))
        assert g.evaluate(Coalition(0b01, 2)) == 1.0
        with pytest.raises(LookupMissError) as err:
            g.evaluate(Coalition(0b11, 2))
        assert err.value.bitstring == "11"

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "dup.game"
        path.write_text("d=2\n00,0.0\n00,1.0\n")
        with pytest.raises(FileFormatError):
            load_lookup_game(str(path))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.game"
        path.write_text("players=2\n00,0.0\n")
        with pytest.raises(FileFormatError):
            load_lookup_game(str(path))

    def test_bad_bitstring_length(self, tmp_path):
        path = tmp_path / "bad2.game"
        path.write_text("d=3\n00,0.0\n")
        with pytest.raises(FileFormatError):
            load_lookup_game(str(path))

    def test_roundtrip_full_table(self, tmp_path):
        g = make_random_game(6, 3, 12, seed=5)
        path = tmp_path / "dump.game"
        dump_lookup_file(g, str(path))
        reloaded = load_lookup_game(str(path))
        fresh = make_random_game(6, 3, 12, seed=5)
        assert np.array_equal(reloaded.evaluate_many(range(1 << 6)), fresh.evaluate_many(range(1 << 6)))


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
