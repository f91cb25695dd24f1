"""Interaction frontiers: the ordered sets of interaction terms added as regression columns.

A frontier holds the masks of coalitions of size >= 2, ordered size-major
and colexicographically within a size. The regression then has
d' = d + len(terms) columns: the d singletons first, then the frontier.
Every built-in family is all interactions of sizes 2..k plus a seeded
uniform draw of size k + 1, so each is downward closed: every subset of
size >= 2 of a term is a term.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coalitions import (
    FileFormatError,
    _check_d,
    binomial,
    enumerate_subset_masks,
    membership,
    read_rows,
    write_rows,
)


@dataclass(frozen=True)
class InteractionFrontier:
    d: int
    terms: tuple[int, ...]
    order_label: str = "custom"

    def __post_init__(self) -> None:
        _check_d(self.d)
        prev_key = (0, 0)  # below the key of every term of size >= 2
        for t in self.terms:
            if not 0 <= t < 1 << self.d:
                raise ValueError(f"term mask {t:#x} out of range for d={self.d}")
            if t.bit_count() < 2:
                raise ValueError(f"interaction terms must have size >= 2, got mask {t:#x}")
            key = (t.bit_count(), t)
            if key <= prev_key:
                raise ValueError(
                    "terms must be distinct, ordered by size, then colexicographically"
                )
            prev_key = key

    @property
    def n_columns(self) -> int:
        """Total regression columns d' = d + number of interaction terms."""
        return self.d + len(self.terms)

    @property
    def column_masks(self) -> list[int]:
        """Masks of the d' regression columns: the singletons, then the terms."""
        return [1 << i for i in range(self.d)] + list(self.terms)

    @cached_property
    def membership(self) -> np.ndarray:
        """Read-only (d', d) membership array of ``column_masks``, built on first read."""
        members = membership(self.column_masks, self.d)
        members.flags.writeable = False
        return members

    def __getstate__(self) -> dict:
        """The fields alone: a pickled copy builds its own read-only ``membership``."""
        return {k: v for k, v in self.__dict__.items() if k != "membership"}

    def __len__(self) -> int:
        return len(self.terms)


def _unrank(d: int, size: int, ranks: list[int]) -> list[int]:
    """The size-``size`` masks over d players at the given colex ranks.

    Combinatorial number system: the rank of {c_1 < ... < c_size} is
    sum_i C(c_i, i), so c_i is the largest c with C(c, i) <= what is left.
    """
    tables = [[binomial(c, i) for c in range(d)] for i in range(size + 1)]
    masks = []
    for rank in ranks:
        mask = 0
        for i in range(size, 0, -1):
            c = bisect_right(tables[i], rank) - 1
            mask |= 1 << c
            rank -= tables[i][c]
        masks.append(mask)
    return masks


def _build(d: int, k: int, n: int, seed: int, label: str) -> InteractionFrontier:
    """All interactions of sizes 2..k, then n of size k + 1 drawn uniformly (seeded).

    The draw is a reservoir over the C(d, k + 1) size-(k+1) masks in
    ascending (colex) order: item i >= n replaces slot ``rng.integers(0, i + 1)``
    when that is below n. One call draws every slot, advancing the generator
    exactly as one call per item would; only the n kept items are unranked
    into masks. The blocks come out in frontier order.
    """
    masks = [m for size in range(2, k + 1) for m in enumerate_subset_masks(d, size)]
    if n:
        slots = np.random.default_rng(seed).integers(0, np.arange(n + 1, binomial(d, k + 1) + 1))
        kept = list(range(n))
        hits = np.flatnonzero(slots < n)
        for slot, item in zip(slots[hits].tolist(), (hits + n).tolist()):
            kept[slot] = item
        masks.extend(_unrank(d, k + 1, sorted(kept)))
    return InteractionFrontier(d, tuple(masks), label)


def empty_frontier(d: int) -> InteractionFrontier:
    return InteractionFrontier(d, (), "k=1")


def k_additive(d: int, k: int) -> InteractionFrontier:
    """All interactions of size 2..k; k=1 gives the empty frontier."""
    _check_d(d)
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    return _build(d, k, 0, 0, f"k={k}")


def percent_of_order(d: int, k: int, fraction: float, seed: int) -> InteractionFrontier:
    """Full (k-1)-additive frontier plus floor(fraction * C(d, k)) random size-k terms."""
    _check_d(d)
    if k < 2 or k > d:
        raise ValueError(f"k must be in [2, {d}], got {k}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    n = math.floor(fraction * binomial(d, k))
    return _build(d, k - 1, n, seed, f"k={k}@{fraction * 100:g}%")


def log_frontier(d: int, seed: int) -> InteractionFrontier:
    """Full 2-additive frontier plus min(floor(d * ln C(d,3)), C(d,3)) random triples.

    Natural log; chosen to keep the column count near-linear in d.
    """
    _check_d(d)
    if d < 4:
        raise ValueError(f"log frontier needs d >= 4, got d={d}")
    n_triples = min(math.floor(d * math.log(binomial(d, 3))), binomial(d, 3))
    return _build(d, 2, n_triples, seed, "log")


def save_frontier(frontier: InteractionFrontier, path: str) -> None:
    """A ``d=`` header, then one bitstring per term, for experiment provenance."""
    write_rows(path, [f"d={frontier.d}"], frontier.d, ((t, ()) for t in frontier.terms))


def load_frontier(path: str) -> InteractionFrontier:
    """Read a frontier file as ``save_frontier`` writes it."""
    _, d, rows = read_rows(path, 0)
    terms = sorted({mask for mask, _ in rows}, key=lambda m: (m.bit_count(), m))
    try:
        return InteractionFrontier(d, tuple(terms), "custom")
    except ValueError as exc:
        raise FileFormatError(path, str(exc)) from None


def parse_frontier_spec(spec: str, d: int, seed: int = 0) -> InteractionFrontier:
    """Parse a frontier flag: 'K', 'K@P' (P percent of order K), or 'log'."""
    spec = spec.strip()
    if spec == "log":
        return log_frontier(d, seed)
    if "@" in spec:
        left, right = spec.split("@", 1)
        try:
            k = int(left)
            pct = float(right)
        except ValueError as exc:
            raise ValueError(f"bad frontier spec {spec!r}") from exc
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percent must be in [0, 100], got {right.strip()}")
        return percent_of_order(d, k, pct / 100.0, seed)
    try:
        k = int(spec)
    except ValueError as exc:
        raise ValueError(f"bad frontier spec {spec!r}") from exc
    return k_additive(d, k)
