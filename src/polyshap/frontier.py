"""Interaction frontiers: the ordered sets of interaction terms added as regression columns.

A frontier holds coalitions of size >= 2, ordered size-major and
colexicographically within a size. The regression then has
d' = d + len(terms) columns: the d singletons first, then the frontier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .coalitions import Coalition, binomial, enumerate_subset_masks, _check_d


@dataclass(frozen=True)
class InteractionFrontier:
    d: int
    terms: tuple[Coalition, ...]
    order_label: str = "custom"

    def __post_init__(self) -> None:
        _check_d(self.d)
        seen: set[int] = set()
        prev_key: tuple[int, int] | None = None
        for t in self.terms:
            if t.d != self.d:
                raise ValueError(f"term {t} has d={t.d}, frontier has d={self.d}")
            if t.size() < 2:
                raise ValueError(f"interaction terms must have size >= 2, got {t}")
            if t.mask in seen:
                raise ValueError(f"duplicate interaction term {t}")
            seen.add(t.mask)
            key = (t.size(), t.mask)
            if prev_key is not None and key < prev_key:
                raise ValueError("terms must be ordered by size, then colexicographically")
            prev_key = key

    @property
    def n_columns(self) -> int:
        """Total regression columns d' = d + number of interaction terms."""
        return self.d + len(self.terms)

    @property
    def column_masks(self) -> list[int]:
        """Masks of the d' regression columns: the singletons, then the terms."""
        return [1 << i for i in range(self.d)] + [t.mask for t in self.terms]

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Coalition]:
        return iter(self.terms)


def _sorted_frontier(d: int, masks: Iterable[int], label: str) -> InteractionFrontier:
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    return InteractionFrontier(d, tuple(Coalition(m, d) for m in ordered), label)


def empty_frontier(d: int) -> InteractionFrontier:
    return InteractionFrontier(d, (), "k=1")


def k_additive(d: int, k: int) -> InteractionFrontier:
    """All interactions of size 2..k; k=1 gives the empty frontier."""
    _check_d(d)
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    masks: list[int] = []
    for size in range(2, k + 1):
        masks.extend(enumerate_subset_masks(d, size))
    return _sorted_frontier(d, masks, f"k={k}")


def _reservoir(stream: Iterator[int], n: int, rng: np.random.Generator) -> list[int]:
    """Uniform sample of n items from a stream, reproducible under the generator."""
    kept: list[int] = []
    for i, item in enumerate(stream):
        if i < n:
            kept.append(item)
        else:
            j = int(rng.integers(0, i + 1))
            if j < n:
                kept[j] = item
    if len(kept) < n:
        raise ValueError(f"stream shorter than requested sample ({len(kept)} < {n})")
    return kept


def partial(d: int, ell: int, seed: int) -> InteractionFrontier:
    """Frontier with exactly ell terms: the largest complete order block, topped up randomly.

    Covers the full k-additive frontier for the largest k whose term count
    fits within ell, then adds uniformly chosen terms of the next order.
    """
    _check_d(d)
    max_ell = (1 << d) - d - 2
    if not 0 <= ell <= max_ell:
        raise ValueError(f"ell must be in [0, {max_ell}] for d={d}, got {ell}")
    covered = 0
    k = 1
    while k < d:
        block = binomial(d, k + 1)
        if covered + block > ell:
            break
        covered += block
        k += 1
    masks: list[int] = []
    for size in range(2, k + 1):
        masks.extend(enumerate_subset_masks(d, size))
    extra = ell - covered
    if extra:
        rng = np.random.default_rng(seed)
        masks.extend(_reservoir(enumerate_subset_masks(d, k + 1), extra, rng))
    return _sorted_frontier(d, masks, f"partial:{ell}")


def percent_of_order(d: int, k: int, fraction: float, seed: int) -> InteractionFrontier:
    """Full (k-1)-additive frontier plus floor(fraction * C(d, k)) random size-k terms."""
    _check_d(d)
    if k < 2 or k > d:
        raise ValueError(f"k must be in [2, {d}], got {k}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    masks: list[int] = []
    for size in range(2, k):
        masks.extend(enumerate_subset_masks(d, size))
    n_extra = math.floor(fraction * binomial(d, k))
    if n_extra:
        rng = np.random.default_rng(seed)
        masks.extend(_reservoir(enumerate_subset_masks(d, k), n_extra, rng))
    pct = f"{fraction * 100:g}%"
    return _sorted_frontier(d, masks, f"k={k}@{pct}")


def log_frontier(d: int, seed: int) -> InteractionFrontier:
    """Full 2-additive frontier plus min(floor(d * ln C(d,3)), C(d,3)) random triples.

    Natural log; chosen to keep the column count near-linear in d.
    """
    _check_d(d)
    if d < 4:
        raise ValueError(f"log frontier needs d >= 4, got d={d}")
    masks = list(enumerate_subset_masks(d, 2))
    n_triples = min(math.floor(d * math.log(binomial(d, 3))), binomial(d, 3))
    if n_triples:
        rng = np.random.default_rng(seed)
        masks.extend(_reservoir(enumerate_subset_masks(d, 3), n_triples, rng))
    return _sorted_frontier(d, masks, "log")


def save_frontier(frontier: InteractionFrontier, path: str) -> None:
    """One bitstring per line, for experiment provenance."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in frontier.terms:
            fh.write(t.bitstring() + "\n")


def load_frontier(path: str, d: int | None = None) -> InteractionFrontier:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines and d is None:
        raise ValueError(f"{path}: empty frontier file needs an explicit d")
    masks = []
    inferred = d if d is not None else len(lines[0])
    for ln in lines:
        c = Coalition.from_bitstring(ln)
        if c.d != inferred:
            raise ValueError(f"{path}: inconsistent bitstring length {len(ln)}")
        masks.append(c.mask)
    return _sorted_frontier(inferred, masks, "custom")


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
        if pct > 1.0:
            pct /= 100.0
        return percent_of_order(d, k, pct, seed)
    try:
        k = int(spec)
    except ValueError as exc:
        raise ValueError(f"bad frontier spec {spec!r}") from exc
    return k_additive(d, k)
