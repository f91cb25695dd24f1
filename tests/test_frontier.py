import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshap.coalitions import binomial
from polyshap.frontier import (
    InteractionFrontier,
    empty_frontier,
    k_additive,
    load_frontier,
    log_frontier,
    parse_frontier_spec,
    partial,
    percent_of_order,
    save_frontier,
)


def assert_well_formed(frontier):
    sizes = [t.bit_count() for t in frontier.terms]
    assert all(s >= 2 for s in sizes)
    assert sizes == sorted(sizes)
    masks = list(frontier.terms)
    assert len(set(masks)) == len(masks)
    # colex within each size
    for s in set(sizes):
        in_size = [m for m, sz in zip(masks, sizes) if sz == s]
        assert in_size == sorted(in_size)


class TestKAdditive:
    def test_d10_k2(self):
        f = k_additive(10, 2)
        assert len(f) == 45
        assert f.n_columns == 55

    def test_k1_is_empty(self):
        f = k_additive(10, 1)
        assert len(f) == 0
        assert f.n_columns == 10
        assert f.order_label == "k=1"

    def test_d8_k3(self):
        f = k_additive(8, 3)
        assert len(f) == 28 + 56

    def test_strictly_growing_in_k(self):
        counts = [len(k_additive(7, k)) for k in range(1, 8)]
        assert counts == sorted(set(counts))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            k_additive(5, 6)
        with pytest.raises(ValueError):
            k_additive(5, 0)

    def test_well_formed(self):
        assert_well_formed(k_additive(6, 4))


class TestPartial:
    def test_exact_pair_boundary(self):
        f = partial(10, 45, seed=0)
        assert set(f.terms) == set(k_additive(10, 2).terms)

    def test_pairs_plus_five_triples(self):
        f = partial(10, 50, seed=3)
        sizes = [t.bit_count() for t in f.terms]
        assert sizes.count(2) == 45
        assert sizes.count(3) == 5
        again = partial(10, 50, seed=3)
        assert list(f.terms) == list(again.terms)

    def test_zero_is_empty(self):
        assert len(partial(10, 0, seed=0)) == 0

    def test_different_seed_differs(self):
        a = partial(10, 50, seed=1)
        b = partial(10, 50, seed=2)
        assert list(a.terms) != list(b.terms)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            partial(4, (1 << 4) - 4 - 1, seed=0)

    def test_well_formed(self):
        assert_well_formed(partial(8, 40, seed=5))


class TestPercentOfOrder:
    def test_half_of_triples(self):
        f = percent_of_order(10, 3, 0.5, seed=0)
        sizes = [t.bit_count() for t in f.terms]
        assert sizes.count(2) == 45
        assert sizes.count(3) == 60  # floor(0.5 * 120)

    def test_full_fraction_equals_k_additive(self):
        f = percent_of_order(10, 3, 1.0, seed=0)
        assert set(f.terms) == set(k_additive(10, 3).terms)

    def test_zero_fraction_equals_lower_order(self):
        f = percent_of_order(10, 3, 0.0, seed=0)
        assert set(f.terms) == set(k_additive(10, 2).terms)

    def test_label(self):
        assert percent_of_order(10, 3, 0.5, seed=0).order_label == "k=3@50%"

    def test_well_formed(self):
        assert_well_formed(percent_of_order(9, 4, 0.25, seed=2))


class TestLogFrontier:
    def test_d60_counts(self):
        f = log_frontier(60, seed=0)
        sizes = [t.bit_count() for t in f.terms]
        assert sizes.count(2) == 1770
        # independent arithmetic: floor(60 * ln C(60,3))
        expected = math.floor(60 * math.log(binomial(60, 3)))
        assert expected == 626
        assert sizes.count(3) == expected

    def test_d4_counts(self):
        f = log_frontier(4, seed=0)
        sizes = [t.bit_count() for t in f.terms]
        assert sizes.count(2) == 6
        assert sizes.count(3) == min(math.floor(4 * math.log(4)), 4) == 4

    def test_deterministic(self):
        a = log_frontier(12, seed=9)
        b = log_frontier(12, seed=9)
        assert list(a.terms) == list(b.terms)

    def test_needs_d4(self):
        with pytest.raises(ValueError):
            log_frontier(3, seed=0)


class TestFrontierType:
    def test_rejects_singletons(self):
        with pytest.raises(ValueError):
            InteractionFrontier(4, (0b0010,))

    def test_rejects_duplicates(self):
        t = 0b0011
        with pytest.raises(ValueError):
            InteractionFrontier(4, (t, t))

    def test_rejects_bad_order(self):
        t3 = 0b0111
        t2 = 0b0011
        with pytest.raises(ValueError):
            InteractionFrontier(4, (t3, t2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 12), st.integers(2, 4), st.integers(0, 10_000))
    def test_k_additive_always_well_formed(self, d, k, seed):
        k = min(k, d)
        assert_well_formed(k_additive(d, k))
        ell = min(10, (1 << d) - d - 2)
        assert_well_formed(partial(d, ell, seed=seed))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        f = percent_of_order(8, 3, 0.5, seed=4)
        path = tmp_path / "frontier.txt"
        save_frontier(f, str(path))
        loaded = load_frontier(str(path))
        assert list(loaded.terms) == list(f.terms)

    def test_empty_needs_d(self, tmp_path):
        path = tmp_path / "empty.txt"
        save_frontier(empty_frontier(5), str(path))
        loaded = load_frontier(str(path), d=5)
        assert len(loaded) == 0


class TestParseSpec:
    def test_plain_order(self):
        assert parse_frontier_spec("2", 6).order_label == "k=2"

    def test_percent(self):
        f = parse_frontier_spec("3@50", 10, seed=1)
        sizes = [t.bit_count() for t in f.terms]
        assert sizes.count(3) == 60

    def test_log(self):
        assert parse_frontier_spec("log", 8).order_label == "log"

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            parse_frontier_spec("quadratic", 8)
