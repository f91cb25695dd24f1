"""Coalition sampling: size-stratified draws, paired complements, and the border trick.

The sampler spends a budget of game evaluations. Two go to the empty and
grand coalitions; the rest become weighted rows. Sizes whose expected
sample count under the remaining budget reaches their subset count are
exhaustively enumerated (weight sqrt(mu), treated as deterministic
inclusion), the size distribution is renormalized over what is left, and
the leftover budget is spent on random draws: sizes i.i.d. from the
renormalized distribution, coalitions uniformly without replacement within
each size, in complement pairs when paired. Random rows carry weight
sqrt(mu(S) / p_eff(S)) with p_eff(S) = q(|S|) / C(d, |S|).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coalitions import Coalition, binomial, enumerate_subset_masks, shapley_weight
from .frontier import InteractionFrontier
from .games import Game
from .regression import full_design_matrix

_MATERIALIZE_LIMIT = 1 << 16


def default_size_distribution(d: int) -> np.ndarray:
    """Uniform over sizes 1..d-1 (order-1 leverage sampling): entry i is size i+1."""
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")
    return np.full(d - 1, 1.0 / (d - 1))


@dataclass
class SamplerConfig:
    """Budget, pairing, seed, and the probability vector over sizes 1..d-1."""

    budget_m: int
    paired: bool = False
    seed: int = 0
    size_distribution: Sequence[float] | None = None

    def resolved_distribution(self, d: int) -> np.ndarray:
        if self.size_distribution is None:
            return default_size_distribution(d)
        p = np.asarray(self.size_distribution, dtype=float)
        if p.shape != (d - 1,):
            raise ValueError(
                f"size distribution must have length d-1={d - 1}, got shape {p.shape}"
            )
        if (p < 0).any() or not np.isfinite(p).all():
            raise ValueError("size distribution entries must be finite and nonnegative")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"size distribution must sum to 1, got {p.sum()!r}")
        if self.paired and not np.allclose(p, p[::-1], atol=1e-12):
            raise ValueError("paired sampling needs a complement-symmetric size distribution")
        return p


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
    effective_m: int
    odd_unpaired: bool = False

    def __post_init__(self) -> None:
        if not (len(self.masks) == len(self.weights) == len(self.values)):
            raise ValueError("masks, weights, and values must have equal lengths")
        full = (1 << self.d) - 1
        if any(m == 0 or m == full for m in self.masks):
            raise ValueError("batches never contain the empty or grand coalition")
        w = np.asarray(self.weights, dtype=float)
        if len(w) and not (np.isfinite(w).all() and (w > 0).all()):
            raise ValueError("row weights must be strictly positive and finite")


class _Stratum:
    """Without-replacement draws from the coalitions of one size."""

    def __init__(self, d: int, s: int, rng: np.random.Generator) -> None:
        self.d = d
        self.s = s
        self.count = binomial(d, s)
        self.used: set[int] = set()
        if self.count <= _MATERIALIZE_LIMIT:
            self._pool = list(enumerate_subset_masks(d, s))
            self._order = rng.permutation(self.count)
            self._next = 0
        else:
            self._pool = None

    def mark(self, mask: int) -> None:
        self.used.add(mask)

    def draw(self, rng: np.random.Generator) -> int:
        if self._pool is not None:
            while self._next < self.count:
                mask = self._pool[int(self._order[self._next])]
                self._next += 1
                if mask not in self.used:
                    self.used.add(mask)
                    return mask
            # Stratum exhausted: fall back to uniform with replacement.
            return self._pool[int(rng.integers(self.count))]
        while True:
            players = rng.choice(self.d, size=self.s, replace=False)
            mask = 0
            for i in players:
                mask |= 1 << int(i)
            if mask not in self.used:
                self.used.add(mask)
                return mask


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
    p = cfg.resolved_distribution(d)
    rng = np.random.default_rng(cfg.seed)

    nu_empty = game.evaluate(Coalition.empty(d))
    nu_full = game.evaluate(Coalition.full(d))
    remaining = cfg.budget_m - 2

    q = {s: float(p[s - 1]) for s in range(1, d) if p[s - 1] > 0.0}
    order = sorted(q, key=lambda s: (binomial(d, s), s))
    enumerated: list[int] = []
    masks: list[int] = []
    weights: list[float] = []

    def enumerate_stratum(s: int) -> None:
        w = np.sqrt(shapley_weight(s, d))
        for mask in enumerate_subset_masks(d, s):
            masks.append(mask)
            weights.append(float(w))

    # Border trick: from the extremes inward, exhaust any size whose expected
    # sample count under the current distribution covers the whole stratum.
    while True:
        fired = False
        for s in order:
            if s not in q:
                continue
            c_s = binomial(d, s)
            if remaining * q[s] < c_s:
                continue
            enumerate_stratum(s)
            enumerated.append(s)
            cost = c_s
            del q[s]
            if cfg.paired and (d - s) in q:
                enumerate_stratum(d - s)
                enumerated.append(d - s)
                cost += binomial(d, d - s)
                del q[d - s]
            remaining -= cost
            total = sum(q.values())
            if total > 0:
                q = {s2: v / total for s2, v in q.items()}
            fired = True
            break
        if not fired:
            break

    if remaining > 0 and not q:
        raise ValueError(
            "budget cannot be consumed: all sizes with positive mass are enumerated"
        )

    odd_unpaired = False
    if remaining > 0:
        active = np.array(sorted(q), dtype=np.int64)
        probs = np.array([q[int(s)] for s in active])
        strata = {int(s): _Stratum(d, int(s), rng) for s in active}

        def row_weight(s: int) -> float:
            p_eff = q[s] / binomial(d, s)
            return float(np.sqrt(shapley_weight(s, d) / p_eff))

        if cfg.paired:
            n_pairs, odd = divmod(remaining, 2)
            sizes = rng.choice(active, size=n_pairs + odd, p=probs)
            for idx in range(n_pairs):
                s = int(sizes[idx])
                mask = strata[s].draw(rng)
                comp = mask ^ ((1 << d) - 1)
                if (d - s) in strata:
                    strata[d - s].mark(comp)
                masks.append(mask)
                weights.append(row_weight(s))
                masks.append(comp)
                weights.append(row_weight(d - s))
            if odd:
                s = int(sizes[-1])
                masks.append(strata[s].draw(rng))
                weights.append(row_weight(s))
                odd_unpaired = True
        else:
            sizes = rng.choice(active, size=remaining, p=probs)
            for s in sizes:
                s = int(s)
                masks.append(strata[s].draw(rng))
                weights.append(row_weight(s))

    values = np.array([game.evaluate(Coalition(m, d)) for m in masks])
    effective_m = 2 + len(masks)
    if effective_m != cfg.budget_m:
        raise AssertionError(
            f"sampler consumed {effective_m} evaluations for budget {cfg.budget_m}"
        )
    return SampleBatch(
        d=d,
        masks=masks,
        weights=np.array(weights),
        values=values,
        nu_empty=nu_empty,
        nu_full=nu_full,
        enumerated_sizes=frozenset(enumerated),
        effective_m=effective_m,
        odd_unpaired=odd_unpaired,
    )


def save_batch(batch: SampleBatch, path: str) -> None:
    """CSV dump (bitstring, weight, value) with metadata comments, for exact replay."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# d={batch.d}\n")
        fh.write(f"# nu_empty={batch.nu_empty!r}\n")
        fh.write(f"# nu_full={batch.nu_full!r}\n")
        fh.write(f"# enumerated_sizes={','.join(map(str, sorted(batch.enumerated_sizes)))}\n")
        fh.write(f"# odd_unpaired={int(batch.odd_unpaired)}\n")
        fh.write("bitstring,weight,value\n")
        for mask, w, v in zip(batch.masks, batch.weights, batch.values):
            fh.write(f"{Coalition(mask, batch.d).bitstring()},{float(w)!r},{float(v)!r}\n")


def load_batch(path: str) -> SampleBatch:
    meta: dict[str, str] = {}
    masks: list[int] = []
    weights: list[float] = []
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                meta[key.strip()] = val.strip()
                continue
            if line.startswith("bitstring"):
                continue
            bits, w, v = line.split(",")
            masks.append(Coalition.from_bitstring(bits).mask)
            weights.append(float(w))
            values.append(float(v))
    d = int(meta["d"])
    sizes = meta.get("enumerated_sizes", "")
    return SampleBatch(
        d=d,
        masks=masks,
        weights=np.array(weights),
        values=np.array(values),
        nu_empty=float(meta["nu_empty"]),
        nu_full=float(meta["nu_full"]),
        enumerated_sizes=frozenset(int(s) for s in sizes.split(",") if s),
        effective_m=2 + len(masks),
        odd_unpaired=bool(int(meta.get("odd_unpaired", "0"))),
    )


def leverage_scores_bruteforce(
    d: int, frontier: InteractionFrontier
) -> dict[int, float]:
    """Per-size row influence of the full projected design, by direct pseudoinverse.

    Builds the complete 2^d x d' matrix, projects off the all-ones direction,
    and evaluates the quadratic form for every row. Scores are constant per
    size by symmetry; that constancy and the trace identity (scores sum to
    the projected rank) are verified, not assumed.
    """
    if d > 14:
        raise ValueError(f"brute-force leverage scores need d <= 14, got d={d}")
    if frontier.d != d:
        raise ValueError(f"dimension mismatch: d={d}, frontier d={frontier.d}")
    x = full_design_matrix(d, frontier)
    n_cols = frontier.n_columns
    xp = x - x.sum(axis=1)[:, None] / n_cols
    # Pseudoinverse of the projected Gram via SVD of the projected design;
    # the default eigenvalue cutoff of pinv sits at the noise floor of the
    # null direction and corrupts the quadratic form.
    _, singulars, vt = np.linalg.svd(xp, full_matrices=False)
    cutoff = singulars.max() * max(xp.shape) * np.finfo(float).eps if singulars.size else 0.0
    keep = singulars > cutoff
    rank = int(keep.sum())
    gram_pinv = (vt[keep].T * singulars[keep] ** -2) @ vt[keep]
    scores = np.einsum("ij,jk,ik->i", xp, gram_pinv, xp)
    if scores.min() < -1e-10:
        raise AssertionError(f"negative leverage score: {scores.min()!r}")
    scores = np.clip(scores, 0.0, None)
    total = float(scores.sum())
    if abs(total - rank) > 1e-6 * max(1.0, rank):
        raise AssertionError(
            f"leverage scores sum to {total!r}, expected projected rank {rank}"
        )
    sizes = np.array([int(m).bit_count() for m in range(1 << d)])
    per_size: dict[int, float] = {}
    for s in range(d + 1):
        vals = scores[sizes == s]
        if float(vals.max() - vals.min()) >= 1e-8:
            raise AssertionError(
                f"leverage scores vary within size {s}: spread {vals.max() - vals.min()!r}"
            )
        per_size[s] = float(vals.mean())
    return per_size
