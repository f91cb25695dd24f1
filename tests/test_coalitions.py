import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshap.coalitions import (
    Coalition,
    InvalidDimensionError,
    binomial,
    bitstring,
    containment,
    enumerate_subset_masks,
    fold,
    masks_from_membership,
    membership,
    parse_bitstring,
    shapley_weight,
)
from polyshap.frontier import k_additive


class TestCoalition:
    def test_bitstring_roundtrip(self):
        mask = parse_bitstring("1010")
        assert mask == 0b0101  # players 0 and 2
        assert bitstring(mask, 4) == "1010"

    def test_high_bits_rejected(self):
        with pytest.raises(ValueError):
            Coalition(1 << 4, 4)
        with pytest.raises(InvalidDimensionError):
            Coalition(0, 0)
        with pytest.raises(InvalidDimensionError):
            Coalition(0, 129)


class TestBinomial:
    def test_outside_triangle_is_zero(self):
        assert binomial(5, 6) == 0
        assert binomial(5, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_large_values_exact(self):
        # exceeds 64 bits
        assert binomial(126, 63) == math.comb(126, 63)
        assert binomial(128, 64) == math.comb(128, 64)


class TestShapleyWeight:
    def test_known_values(self):
        assert shapley_weight(1, 4) == 1.0
        assert shapley_weight(2, 4) == 0.5
        assert shapley_weight(0, 4) == 0.0
        assert shapley_weight(4, 4) == 0.0

    def test_d_below_two_rejected(self):
        with pytest.raises(InvalidDimensionError):
            shapley_weight(0, 1)

    def test_size_out_of_range(self):
        with pytest.raises(ValueError):
            shapley_weight(5, 4)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 60), st.data())
    def test_complement_symmetry(self, d, data):
        s = data.draw(st.integers(0, d))
        assert shapley_weight(s, d) == pytest.approx(shapley_weight(d - s, d), rel=1e-15)


class TestEnumerateSubsets:
    def test_size_zero(self):
        assert list(enumerate_subset_masks(3, 0)) == [0]

    def test_d3_size2(self):
        assert list(enumerate_subset_masks(3, 2)) == [0b011, 0b101, 0b110]

    def test_counts_and_distinct(self):
        masks = list(enumerate_subset_masks(5, 3))
        assert len(masks) == 10
        assert len(set(masks)) == 10
        assert all(m.bit_count() == 3 for m in masks)

    def test_colex_is_ascending_masks(self):
        for size in range(7):
            masks = list(enumerate_subset_masks(6, size))
            assert masks == sorted(masks)

    def test_order_stable_across_runs(self):
        assert list(enumerate_subset_masks(8, 4)) == list(enumerate_subset_masks(8, 4))

    def test_size_above_d_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_subset_masks(3, 4))


BOUNDARY_DIMS = (1, 7, 8, 9, 63, 64, 65, 127, 128)


def masks_for(d):
    return st.lists(st.integers(0, (1 << d) - 1), max_size=12)


def old_fold(columns, coefficients, d):
    """The per-term loop the fold replaced: each share added member by member."""
    out = np.zeros(d)
    for mask, coef in zip(columns, coefficients):
        share = coef / mask.bit_count()
        for i in range(d):
            if mask >> i & 1:
                out[i] += share
    return out


class TestMembership:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(BOUNDARY_DIMS), st.data())
    def test_matches_bit_shifts(self, d, data):
        masks = data.draw(masks_for(d))
        got = membership(masks, d)
        assert got.shape == (len(masks), d)
        assert got.dtype == bool
        expected = [[bool(m >> i & 1) for i in range(d)] for m in masks]
        assert got.tolist() == expected

    def test_highest_player(self):
        got = membership([1 << 127, 1], 128)
        assert got[0].nonzero()[0].tolist() == [127]
        assert got[1].nonzero()[0].tolist() == [0]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(BOUNDARY_DIMS), st.data())
    def test_inverse_round_trips(self, d, data):
        masks = data.draw(masks_for(d))
        assert masks_from_membership(membership(masks, d)) == masks


class TestBitstring:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(BOUNDARY_DIMS), st.data())
    def test_player_i_is_character_i(self, d, data):
        mask = data.draw(st.integers(0, (1 << d) - 1))
        text = bitstring(mask, d)
        assert text == "".join("1" if mask >> i & 1 else "0" for i in range(d))
        assert parse_bitstring(text) == mask

    @pytest.mark.parametrize("text", ["", "1x1", "012", " 01", "1" * 129])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_bitstring(text)


class TestContainment:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(BOUNDARY_DIMS), st.data())
    def test_matches_mask_subset_test(self, d, data):
        rows = data.draw(masks_for(d))
        cols = data.draw(masks_for(d))
        got = containment(membership(rows, d), membership(cols, d))
        assert got.dtype == float
        expected = [[float(t & ~s == 0) for t in cols] for s in rows]
        assert got.tolist() == expected


class TestFold:
    @pytest.mark.parametrize("d", [3, 8, 12])
    def test_bit_identical_to_per_term_loop(self, d):
        frontier = k_additive(d, 3)
        columns = frontier.column_masks
        coefs = np.random.default_rng(d).standard_normal(len(columns))
        got = fold(membership(columns, d), coefs)
        assert np.array_equal(got, old_fold(columns, coefs, d))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(BOUNDARY_DIMS), st.data())
    def test_bit_identical_on_random_terms(self, d, data):
        columns = data.draw(st.lists(st.integers(1, (1 << d) - 1), max_size=12))
        coefs = np.array(
            data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(columns), max_size=len(columns)))
        )
        got = fold(membership(columns, d), coefs)
        assert np.array_equal(got, old_fold(columns, coefs, d))
