"""Coalitions as int masks, their text form, the mask codec, and kernel weights.

Players are indexed 0..d-1 internally; all user-facing text renders them
1-based. A coalition is an integer bitmask where bit i set means player i
is present. Its text form, ``bitstring``, is a binary string of length d
with player 0 leftmost, e.g. "1010" is {0, 2} for d=4; ``parse_bitstring``
reads it back. ``Coalition`` only wraps a mask, range-checked, as the
argument of ``Game.evaluate``.

Batches of masks enter numpy through one codec, ``membership``, an (n, d)
boolean array, and leave it through its inverse, ``masks_from_membership``.
Both linear maps of the estimator are built on it: the containment kernel
1[T subseteq S] (design entries) and the fold 1[i in T] / |T|
(coefficients to Shapley values).

Every file of coalitions (games, sample batches, frontiers) is one text
format, read by ``read_rows`` and written by ``write_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
    """The argument of ``Game.evaluate``: a bitmask over d players, range-checked."""

    mask: int
    d: int

    def __post_init__(self) -> None:
        _check_d(self.d)
        if self.mask < 0 or self.mask >> self.d:
            raise ValueError(
                f"mask {self.mask:#x} has bits outside the {self.d}-player range"
            )


def bitstring(mask: int, d: int) -> str:
    """The text form of a mask: d characters, player 0 leftmost."""
    return format(mask, f"0{d}b")[::-1]


def parse_bitstring(text: str) -> int:
    """Inverse of ``bitstring``: the mask of a string of 1 to 128 zeros and ones."""
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"not a coalition bitstring: {text!r}")
    _check_d(len(text))
    return int(text[::-1], 2)


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


def membership(masks: Sequence[int], d: int) -> np.ndarray:
    """Boolean (n, d) array: entry (r, i) says player i is in coalition masks[r]."""
    width = (d + 7) // 8
    raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(masks), 8 * width)[:, :d].view(bool)


def masks_from_membership(members: np.ndarray) -> list[int]:
    """Inverse of ``membership``: the mask of each row of an (n, d) boolean array."""
    packed = np.packbits(members, axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


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


class FileFormatError(ValueError):
    """A coalition text file is unreadable or breaks its format; names the file and line."""

    def __init__(self, path: str, message: str, line: int | None = None) -> None:
        super().__init__(f"{path}:{line}: {message}" if line else f"{path}: {message}")
        self.path, self.line = path, line


Row = tuple[int, tuple[float, ...]]  # a coalition mask and its fields


def read_rows(path: str, n_fields: int) -> tuple[dict[str, str], int, list[Row]]:
    """Parse a coalition text file into its header, its player count and its rows.

    Header lines are ``key=value``, with or without a leading ``#``, and
    come before the first row; other ``#`` lines, blank lines and the
    ``bitstring,...`` column line are skipped. The header must give the
    player count ``d``. Each row is a ``d``-bit bitstring and ``n_fields``
    finite floats. Every malformed line, a repeated coalition included, and
    a missing ``d`` header raise ``FileFormatError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(path, f"cannot read file: {exc}") from exc
    header: dict[str, str] = {}
    rows: list[Row] = []
    seen: set[int] = set()
    d = None
    for line, text in enumerate((raw.strip() for raw in lines), 1):
        key, eq, value = (part.strip() for part in text.lstrip("#").partition("="))
        if eq and key.isidentifier():
            if rows:
                raise FileFormatError(path, f"header line {text!r} after the first row", line)
            header[key] = value
            if key == "d":
                try:
                    d = int(value)
                    _check_d(d)
                except ValueError as exc:
                    raise FileFormatError(path, f"bad header {text!r}: {exc}", line) from None
            continue
        if not text or text.startswith(("#", "bitstring")):
            continue
        if d is None:
            break  # a row before any 'd=' header
        bits, *raw_fields = (part.strip() for part in text.split(","))
        if len(raw_fields) != n_fields:
            raise FileFormatError(path, f"expected {1 + n_fields} comma-separated values", line)
        if len(bits) != d:
            message = f"bitstring {bits!r} has {len(bits)} players, expected d={d}"
            raise FileFormatError(path, message, line)
        try:
            mask = parse_bitstring(bits)
            fields = tuple(map(float, raw_fields))
        except ValueError as exc:
            raise FileFormatError(path, str(exc), line) from None
        if not all(map(math.isfinite, fields)):
            raise FileFormatError(path, f"non-finite value in row {text!r}", line)
        if mask in seen:
            raise FileFormatError(path, f"repeated coalition {bits}", line)
        seen.add(mask)
        rows.append((mask, fields))
    if d is None:
        raise FileFormatError(path, "expected header 'd=<int>' before the rows")
    return header, d, rows


def write_rows(path: str, header_lines: Sequence[str], d: int, rows: Iterable[Row]) -> None:
    """Inverse of ``read_rows``; fields are written by ``repr``, so they read back exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for text in header_lines:
            fh.write(text + "\n")
        for mask, fields in rows:
            fh.write(",".join([bitstring(mask, d), *(repr(float(f)) for f in fields)]))
            fh.write("\n")
