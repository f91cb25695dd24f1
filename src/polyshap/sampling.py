"""Sampling coalitions: size-stratified draws, paired complements, and the border trick.

The sampler spends a budget of game evaluations. Two go to the empty and
grand coalitions; the remaining r become weighted rows. Sizes are uniform
over 1..d-1. A unit is one size, or the complement pair {s, d-s} when
paired; its capacity is the number of coalitions it holds. A unit is
either enumerated whole or sampled, by three rules:

1. Border trick. Take the active size with the smallest (C(d, s), s) and
   enumerate its unit iff r >= C(d, s) * (number of active sizes); repeat.
   The test is in integers, so rounding cannot flip it.
2. Counts first. The sizes of all random draws are drawn in one call,
   uniform over the active sizes. When paired, a draw is a complement
   pair and an odd r makes the last draw one unpaired row. A unit whose
   rows reach its capacity is enumerated and the sizes are drawn again for
   what is left, so every sampled unit ends below capacity.
3. Draws. A row of size s takes the players ranked below s in a uniform
   random permutation. A coalition already taken (accepted, or the
   complement of an accepted one when paired) is redrawn with the same
   size, so within a size the coalitions are uniform without replacement.

Enumerated rows carry weight sqrt(mu(S)). The n random rows are weighted
by kernel weight over inclusion, sqrt(mu(S) / (n p(S))) with
p(S) = 1 / (a C(d, |S|)) over the a active sizes (Horvitz-Thompson), so
random rows stand for the kernel mass of the sizes left unenumerated as
enumerated rows stand for their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coalitions import FileFormatError, binomial, enumerate_subset_masks
from .coalitions import masks_from_membership, read_rows, shapley_weight, write_rows
from .games import Game


@dataclass
class SamplerConfig:
    """Budget, pairing, and seed of one batch."""

    budget_m: int
    paired: bool = False
    seed: int = 0


@dataclass
class SampleBatch:
    """Sampled coalitions with row weights and raw game values.

    Rows never include the empty or grand coalition; those two values ride
    along separately so designs can be centered downstream.
    """

    d: int
    masks: list[int]
    weights: np.ndarray
    values: np.ndarray
    nu_empty: float
    nu_full: float
    enumerated_sizes: frozenset[int]
    odd_unpaired: bool = False

    def __post_init__(self) -> None:
        if not (len(self.masks) == len(self.weights) == len(self.values)):
            raise ValueError("masks, weights, and values must have equal lengths")
        full = (1 << self.d) - 1
        bad = next((m for m in self.masks if not 0 < m < full), None)
        if bad is not None:
            raise ValueError(
                f"mask {bad} is not a proper nonempty coalition of d={self.d} players"
            )
        if not all(0 < s < self.d for s in self.enumerated_sizes):
            sizes = sorted(self.enumerated_sizes)
            raise ValueError(f"enumerated sizes must be in 1..{self.d - 1}, got {sizes}")
        w = np.asarray(self.weights, dtype=float)
        if len(w) and not (np.isfinite(w).all() and (w > 0).all()):
            raise ValueError("row weights must be strictly positive and finite")
        if not (math.isfinite(self.nu_empty) and math.isfinite(self.nu_full)):
            raise ValueError("nu_empty and nu_full must be finite")

    @property
    def effective_m(self) -> int:
        """Game evaluations the batch stands for: its rows, the empty and the grand coalition."""
        return 2 + len(self.masks)


def sample(cfg: SamplerConfig, game: Game) -> SampleBatch:
    """Draw a batch per the config, consuming exactly cfg.budget_m game evaluations."""
    d = game.d
    if d < 2:
        raise ValueError(f"sampling needs d >= 2, got d={d}")
    min_budget = d + 2
    max_budget = 1 << d
    if not min_budget <= cfg.budget_m <= max_budget:
        raise ValueError(
            f"budget must be in [{min_budget}, {max_budget}] for d={d}, got {cfg.budget_m}"
        )
    rng = np.random.default_rng(cfg.seed)
    full_mask = (1 << d) - 1

    nu_empty, nu_full = game.evaluate_many([0, full_mask]).tolist()
    remaining = cfg.budget_m - 2

    # Smallest stratum first; when paired, a unit is named by its smaller size.
    active = sorted(range(1, d), key=lambda s: (binomial(d, s), s))
    enumerated: list[int] = []
    masks: list[int] = []

    def unit(s: int) -> list[int]:
        return sorted({s, d - s}) if cfg.paired else [s]

    def enumerate_unit(s: int) -> None:
        nonlocal remaining
        for t in unit(s):
            masks.extend(enumerate_subset_masks(d, t))
            enumerated.append(t)
            active.remove(t)
            remaining -= binomial(d, t)

    def draw_sizes() -> tuple[np.ndarray, list[int]]:
        """One size per draw, and the units whose rows reach their capacity."""
        n_draws = (remaining + 1) // 2 if cfg.paired else remaining
        sizes = np.array(active, dtype=np.int64)[rng.integers(len(active), size=n_draws)]
        rows = np.full(n_draws, 2 if cfg.paired else 1)
        if cfg.paired and remaining % 2:
            rows[-1] = 1
        names = np.minimum(sizes, d - sizes) if cfg.paired else sizes
        per_unit = np.bincount(names, weights=rows, minlength=d)
        full = [s for s in active if per_unit[s] >= sum(binomial(d, t) for t in unit(s))]
        return sizes, full

    while active and remaining >= binomial(d, active[0]) * len(active):
        enumerate_unit(active[0])
    sizes, full = draw_sizes()
    while full:
        for s in full:
            enumerate_unit(s)
        sizes, full = draw_sizes()

    # Enumerated sizes are never drawn, so only accepted draws can be taken.
    drawn = [0] * len(sizes)
    taken: set[int] = set()
    pending = np.arange(len(sizes))
    while pending.size:
        ranks = rng.permuted(np.tile(np.arange(d, dtype=np.uint8), (pending.size, 1)), axis=1)
        rejected = []
        for row, mask in zip(pending, masks_from_membership(ranks < sizes[pending, None])):
            if mask in taken:
                rejected.append(row)
                continue
            drawn[row] = mask
            taken.add(mask)
            if cfg.paired:
                taken.add(mask ^ full_mask)
        pending = np.array(rejected, dtype=np.int64)

    n_random = remaining
    for row, mask in enumerate(drawn):
        masks.append(mask)
        if cfg.paired and row < n_random // 2:
            masks.append(mask ^ full_mask)

    # Expected number of rows per coalition: 1 when enumerated, n p(S) when drawn.
    inclusion = {s: 1.0 for s in enumerated}
    if n_random:
        inclusion.update({s: n_random / (len(active) * binomial(d, s)) for s in active})
    row_weight = {s: math.sqrt(shapley_weight(s, d) / inclusion[s]) for s in inclusion}
    weights = np.array([row_weight[m.bit_count()] for m in masks])

    values = game.evaluate_many(masks)
    if 2 + len(masks) != cfg.budget_m:
        raise AssertionError(
            f"sampler consumed {2 + len(masks)} evaluations for budget {cfg.budget_m}"
        )
    return SampleBatch(
        d=d,
        masks=masks,
        weights=weights,
        values=values,
        nu_empty=nu_empty,
        nu_full=nu_full,
        enumerated_sizes=frozenset(enumerated),
        odd_unpaired=cfg.paired and n_random % 2 == 1,
    )


def save_batch(batch: SampleBatch, path: str) -> None:
    """CSV dump (bitstring, weight, value) with metadata comments, for exact replay."""
    header = [
        f"# d={batch.d}",
        f"# nu_empty={batch.nu_empty!r}",
        f"# nu_full={batch.nu_full!r}",
        f"# enumerated_sizes={','.join(map(str, sorted(batch.enumerated_sizes)))}",
        f"# odd_unpaired={int(batch.odd_unpaired)}",
        "bitstring,weight,value",
    ]
    write_rows(path, header, batch.d, zip(batch.masks, zip(batch.weights, batch.values)))


def load_batch(path: str) -> SampleBatch:
    header, d, rows = read_rows(path, 2)
    try:
        odd_unpaired = header["odd_unpaired"]
        if odd_unpaired not in ("0", "1"):
            raise ValueError(f"odd_unpaired must be 0 or 1, got {odd_unpaired!r}")
        return SampleBatch(
            d=d,
            masks=[mask for mask, _ in rows],
            weights=np.array([w for _, (w, _) in rows]),
            values=np.array([v for _, (_, v) in rows]),
            nu_empty=float(header["nu_empty"]),
            nu_full=float(header["nu_full"]),
            enumerated_sizes=frozenset(int(s) for s in header["enumerated_sizes"].split(",") if s),
            odd_unpaired=odd_unpaired == "1",
        )
    except KeyError as exc:
        raise FileFormatError(path, f"missing header {exc}") from None
    except ValueError as exc:
        raise FileFormatError(path, str(exc)) from None
