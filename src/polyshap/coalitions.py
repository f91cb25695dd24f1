"""Coalitions as fixed-capacity bitsets, the mask codec, and kernel weights.

Players are indexed 0..d-1 internally; all user-facing text renders them
1-based. A coalition is stored as an integer bitmask where bit i set means
player i is present. The textual form is a binary string of length d with
player 0 leftmost, e.g. "1010" is {0, 2} for d=4.

Batches of masks enter numpy through one codec, ``membership``, an (n, d)
boolean array. Both linear maps of the estimator are built on it: the
containment kernel 1[T subseteq S] (design entries) and the fold
1[i in T] / |T| (coefficients to Shapley values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

MAX_PLAYERS = 128


class InvalidDimensionError(ValueError):
    """Raised when a player count is out of the supported range."""


def _check_d(d: int) -> None:
    if not isinstance(d, int) or d < 1 or d > MAX_PLAYERS:
        raise InvalidDimensionError(
            f"player count must be an integer in [1, {MAX_PLAYERS}], got {d!r}"
        )


@dataclass(frozen=True)
class Coalition:
    """An immutable subset of the d players, held as a bitmask."""

    mask: int
    d: int

    def __post_init__(self) -> None:
        _check_d(self.d)
        if self.mask < 0 or self.mask >> self.d:
            raise ValueError(
                f"mask {self.mask:#x} has bits outside the {self.d}-player range"
            )

    @staticmethod
    def empty(d: int) -> "Coalition":
        return Coalition(0, d)

    @staticmethod
    def full(d: int) -> "Coalition":
        return Coalition((1 << d) - 1, d)

    @staticmethod
    def of(members: Sequence[int], d: int) -> "Coalition":
        mask = 0
        for i in members:
            if not 0 <= i < d:
                raise ValueError(f"player index {i} out of range for d={d}")
            mask |= 1 << i
        return Coalition(mask, d)

    @staticmethod
    def from_bitstring(text: str) -> "Coalition":
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"not a coalition bitstring: {text!r}")
        d = len(text)
        mask = 0
        for i, ch in enumerate(text):
            if ch == "1":
                mask |= 1 << i
        return Coalition(mask, d)

    def bitstring(self) -> str:
        return "".join("1" if self.mask >> i & 1 else "0" for i in range(self.d))

    def size(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.d) if self.mask >> i & 1)

    def has(self, player: int) -> bool:
        return bool(self.mask >> player & 1)

    def add(self, player: int) -> "Coalition":
        if not 0 <= player < self.d:
            raise ValueError(f"player index {player} out of range for d={self.d}")
        return Coalition(self.mask | (1 << player), self.d)

    def union(self, other: "Coalition") -> "Coalition":
        self._check_same_d(other)
        return Coalition(self.mask | other.mask, self.d)

    def intersection(self, other: "Coalition") -> "Coalition":
        self._check_same_d(other)
        return Coalition(self.mask & other.mask, self.d)

    def complement(self) -> "Coalition":
        return Coalition(self.mask ^ ((1 << self.d) - 1), self.d)

    def issubset(self, other: "Coalition") -> bool:
        self._check_same_d(other)
        return self.mask & ~other.mask == 0

    def _check_same_d(self, other: "Coalition") -> None:
        if self.d != other.d:
            raise ValueError(f"dimension mismatch: d={self.d} vs d={other.d}")

    def __str__(self) -> str:
        # 1-based in human-readable output.
        return "{" + ",".join(str(i + 1) for i in self.members()) + "}"


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 outside the triangle."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(n, k) if k >= 0 else 0


def shapley_weight(s: int, d: int) -> float:
    """Kernel weight of a coalition of size s among d players.

    1 / C(d-2, s-1) for proper nonempty coalitions, 0 at the empty and
    grand coalitions.
    """
    if d < 2:
        raise InvalidDimensionError(f"kernel weight needs d >= 2, got d={d}")
    if not 0 <= s <= d:
        raise ValueError(f"coalition size {s} out of range [0, {d}]")
    if s == 0 or s == d:
        return 0.0
    return 1.0 / binomial(d - 2, s - 1)


def enumerate_subset_masks(d: int, size: int) -> Iterator[int]:
    """Yield all C(d, size) masks of the given popcount in colexicographic order.

    Colex order on fixed-size subsets coincides with ascending mask order,
    which Gosper's hack produces directly.
    """
    _check_d(d)
    if size < 0 or size > d:
        raise ValueError(f"subset size {size} out of range [0, {d}]")
    if size == 0:
        yield 0
        return
    limit = 1 << d
    mask = (1 << size) - 1
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((mask ^ ripple) >> (low.bit_length() + 1))


def enumerate_subsets(d: int, size: int) -> Iterator[Coalition]:
    """Coalitions of a fixed size, in the deterministic colexicographic order."""
    for mask in enumerate_subset_masks(d, size):
        yield Coalition(mask, d)


def membership(masks: Sequence[int], d: int) -> np.ndarray:
    """Boolean (n, d) array: entry (r, i) says player i is in coalition masks[r]."""
    width = (d + 7) // 8
    raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(masks), 8 * width)[:, :d].view(bool)


def containment(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Float (n, k) 0/1 array with entry (r, j) = 1[T_j subseteq S_r].

    ``rows`` and ``columns`` are membership arrays of the S_r and the T_j.
    T is inside S exactly when S holds all |T| members of T, so one matrix
    product counts the shared members and the count is compared in place.
    """
    counts = rows.astype(float) @ columns.T.astype(float)
    np.equal(counts, columns.sum(axis=1), out=counts)
    return counts


def fold(columns: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Split each coefficient evenly over its coalition: out[i] = sum_T 1[i in T] c_T / |T|.

    ``columns`` is the membership array of the coalitions T (none empty).
    Shares are added term by term, members ascending, so every sum is
    accumulated in a fixed order and reproduces bit for bit.
    """
    term, player = np.nonzero(columns)
    out = np.zeros(columns.shape[1])
    np.add.at(out, player, (coefficients / columns.sum(axis=1))[term])
    return out
