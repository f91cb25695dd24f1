import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshap.coalitions import binomial, enumerate_subset_masks, membership
from polyshap.frontier import (
    InteractionFrontier,
    empty_frontier,
    k_additive,
    load_frontier,
    log_frontier,
    parse_frontier_spec,
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
        assert_well_formed(percent_of_order(d, k, 0.5, seed=seed))

    def test_membership_is_built_once_and_read_only(self):
        frontier = log_frontier(12, seed=3)
        members = frontier.membership
        assert frontier.membership is members
        assert not members.flags.writeable
        with pytest.raises(ValueError):
            members[0, 0] = not members[0, 0]
        assert np.array_equal(members, membership(frontier.column_masks, frontier.d))
        assert members.shape == (frontier.n_columns, frontier.d)
        # a copy sent to a worker process builds its own, read-only too
        copy = pickle.loads(pickle.dumps(frontier))
        assert copy == frontier and not copy.membership.flags.writeable


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
        loaded = load_frontier(str(path))
        assert (loaded.d, len(loaded)) == (5, 0)


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

    def test_percent_is_always_a_percentage(self):
        one = parse_frontier_spec("3@1", 10, seed=2)
        assert [t.bit_count() for t in one.terms].count(3) == 1
        assert one.order_label == "k=3@1%"
        half = parse_frontier_spec("3@0.5", 10, seed=2)
        assert set(half.terms) == set(k_additive(10, 2).terms)
        assert half.order_label == "k=3@0.5%"
        assert set(parse_frontier_spec("3@100", 10, seed=2).terms) == set(k_additive(10, 3).terms)


# The three builders and the per-item reservoir as they were before the
# families shared one builder: the reference the shared builder must equal.


def _reference_sorted(d, masks, label):
    return InteractionFrontier(d, tuple(sorted(set(masks), key=lambda m: (m.bit_count(), m))), label)


def _reference_full(d, k):
    return [m for size in range(2, k + 1) for m in enumerate_subset_masks(d, size)]


def _reference_reservoir(stream, n, rng):
    kept = []
    for i, item in enumerate(stream):
        if i < n:
            kept.append(item)
        else:
            j = int(rng.integers(0, i + 1))
            if j < n:
                kept[j] = item
    return kept


def _reference_draw(d, size, n, seed):
    if not n:
        return []
    return _reference_reservoir(enumerate_subset_masks(d, size), n, np.random.default_rng(seed))


def reference_k_additive(d, k):
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    return _reference_sorted(d, _reference_full(d, k), f"k={k}")


def reference_percent_of_order(d, k, fraction, seed):
    if k < 2 or k > d:
        raise ValueError(f"k must be in [2, {d}], got {k}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    n_extra = math.floor(fraction * binomial(d, k))
    masks = _reference_full(d, k - 1) + _reference_draw(d, k, n_extra, seed)
    return _reference_sorted(d, masks, f"k={k}@{fraction * 100:g}%")


def reference_log_frontier(d, seed):
    if d < 4:
        raise ValueError(f"log frontier needs d >= 4, got d={d}")
    n_triples = min(math.floor(d * math.log(binomial(d, 3))), binomial(d, 3))
    return _reference_sorted(d, _reference_full(d, 2) + _reference_draw(d, 3, n_triples, seed), "log")


def family_calls(d, seed):
    """(name, args) for every family at d: full blocks, one term off a block edge, top-ups."""
    calls = [("k_additive", (d, k)) for k in sorted({1, 2, 3, d}) if d <= 8 or k <= 3]
    for k in (2, 3):
        edge = 1 / binomial(d, k)
        for fraction in (0.0, edge, 0.01, 0.37, 0.5, 1.0 - edge, 1.0):
            calls.append(("percent_of_order", (d, k, fraction, seed)))
    calls.append(("log_frontier", (d, seed)))
    return calls


BUILDERS = {
    "k_additive": (k_additive, reference_k_additive),
    "percent_of_order": (percent_of_order, reference_percent_of_order),
    "log_frontier": (log_frontier, reference_log_frontier),
}


class TestOneBuilder:
    @pytest.mark.parametrize("d", [4, 5, 8, 13, 40])
    def test_every_family_equals_the_reference(self, d):
        for seed in range(5):
            for name, args in family_calls(d, seed):
                built, reference = (f(*args) for f in BUILDERS[name])
                assert built.terms == reference.terms, (name, args)
                assert built.order_label == reference.order_label, (name, args)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_log_frontier_at_d128_equals_the_reference(self, seed):
        # the reference walks all C(128, 3) = 341,376 triples; the builder
        # unranks only the 1,630 it keeps
        built, reference = log_frontier(128, seed), reference_log_frontier(128, seed)
        assert built.terms == reference.terms
        assert built.order_label == reference.order_label

    @pytest.mark.parametrize(
        "name, args",
        [
            ("k_additive", (5, 0)),
            ("k_additive", (5, 6)),
            ("percent_of_order", (6, 3, float("nan"), 0)),
            ("percent_of_order", (3, 4, 0.5, 0)),
            ("percent_of_order", (6, 1, 0.5, 0)),
            ("percent_of_order", (6, 7, 0.5, 0)),
            ("percent_of_order", (6, 3, 1.5, 0)),
            ("percent_of_order", (6, 3, -0.1, 0)),
            ("log_frontier", (3, 0)),
        ],
    )
    def test_validation_errors_unchanged(self, name, args):
        built, reference = BUILDERS[name]
        with pytest.raises(ValueError) as expected:
            reference(*args)
        with pytest.raises(ValueError) as raised:
            built(*args)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
