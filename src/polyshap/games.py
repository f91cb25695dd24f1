"""Cooperative games: the evaluation contract, synthetic families, and file IO.

A game maps coalitions to real values. Every ``evaluate`` call consumes one
unit of budget (the counter is monotone), while the actual computation is
cached per coalition so repeated rows are cheap but never free. A computed
value that is not finite raises ``NonFiniteValueError``.
"""

from __future__ import annotations

import math
import threading
from typing import Mapping

import numpy as np

from .coalitions import Coalition, binomial, fold, membership, _check_d


class GameFileError(ValueError):
    """A game file failed to parse or violated its format contract."""


class LookupMissError(KeyError):
    """A lookup-backed game was queried for a coalition missing from its table."""

    def __init__(self, bitstring: str) -> None:
        super().__init__(bitstring)
        self.bitstring = bitstring

    def __str__(self) -> str:
        return f"coalition {self.bitstring} not present in lookup table"


class NonFiniteValueError(ValueError):
    """A game returned NaN or an infinity for a coalition."""

    def __init__(self, bitstring: str, value: float) -> None:
        super().__init__(bitstring, value)
        self.bitstring = bitstring
        self.value = value

    def __str__(self) -> str:
        return f"game value {self.value!r} at coalition {self.bitstring} is not finite"


class Game:
    """Base class: a deterministic set function over d players with budget accounting."""

    def __init__(self, d: int) -> None:
        _check_d(d)
        self.d = d
        self._eval_count = 0
        self._cache: dict[int, float] = {}
        self._lock = threading.Lock()

    @property
    def eval_counter(self) -> int:
        return self._eval_count

    def evaluate(self, coalition: Coalition) -> float:
        if coalition.d != self.d:
            raise ValueError(
                f"dimension mismatch: game d={self.d}, coalition d={coalition.d}"
            )
        with self._lock:
            self._eval_count += 1
        value = self._cache.get(coalition.mask)
        if value is None:
            value = float(self._value(coalition))
            if not math.isfinite(value):
                raise NonFiniteValueError(coalition.bitstring(), value)
            self._cache[coalition.mask] = value
        return value

    def _value(self, coalition: Coalition) -> float:
        raise NotImplementedError


class MobiusGame(Game):
    """Game given by interaction coefficients: value(S) = sum of coefficients on T subseteq S."""

    def __init__(self, d: int, terms: Mapping[int, float] | Mapping[Coalition, float]) -> None:
        super().__init__(d)
        clean: dict[int, float] = {}
        for key, coef in terms.items():
            mask = key.mask if isinstance(key, Coalition) else int(key)
            if mask < 0 or mask >> d:
                raise ValueError(f"term mask {mask:#x} out of range for d={d}")
            if mask in clean:
                raise ValueError(f"duplicate term for mask {mask:#x}")
            clean[mask] = float(coef)
        self.terms = clean

    def _value(self, coalition: Coalition) -> float:
        mask = coalition.mask
        return sum(c for t, c in self.terms.items() if t & ~mask == 0)


def mobius_exact_shapley(game: MobiusGame) -> np.ndarray:
    """Exact Shapley values of a coefficient-based game.

    Each term of size t splits its coefficient evenly over its t members;
    the constant term contributes to nobody.
    """
    masks = [mask for mask in game.terms if mask != 0]
    coefs = np.array([game.terms[mask] for mask in masks])
    return fold(membership(masks, game.d), coefs)


def make_random_game(d: int, max_order: int, n_terms: int, seed: int) -> MobiusGame:
    """Random game with n_terms distinct coefficients on coalitions of size 1..max_order.

    Coalitions are drawn uniformly over all candidates of the allowed sizes;
    coefficients come from a standard normal stream. Fully determined by the
    seed.
    """
    _check_d(d)
    if not 1 <= max_order <= d:
        raise ValueError(f"max_order must be in [1, {d}], got {max_order}")
    n_candidates = sum(binomial(d, s) for s in range(1, max_order + 1))
    if n_terms < 1 or n_terms > n_candidates:
        raise ValueError(
            f"n_terms must be in [1, {n_candidates}] for d={d}, max_order={max_order}"
        )
    rng = np.random.default_rng(seed)
    sizes = np.arange(1, max_order + 1)
    size_weights = np.array([binomial(d, int(s)) for s in sizes], dtype=float)
    size_weights /= size_weights.sum()
    chosen: set[int] = set()
    while len(chosen) < n_terms:
        s = int(rng.choice(sizes, p=size_weights))
        players = rng.choice(d, size=s, replace=False)
        mask = 0
        for i in players:
            mask |= 1 << int(i)
        chosen.add(mask)
    ordered = sorted(chosen, key=lambda m: (m.bit_count(), m))
    coefs = rng.standard_normal(n_terms)
    return MobiusGame(d, dict(zip(ordered, (float(c) for c in coefs))))


class LookupGame(Game):
    """Game answered from a (possibly partial) precomputed table of values."""

    def __init__(self, d: int, table: Mapping[int, float]) -> None:
        super().__init__(d)
        self.table = {int(m): float(v) for m, v in table.items()}

    def _value(self, coalition: Coalition) -> float:
        try:
            return self.table[coalition.mask]
        except KeyError:
            raise LookupMissError(coalition.bitstring()) from None


def _parse_game_lines(path: str, kind: str) -> tuple[int, dict[int, float]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise GameFileError(f"cannot read {kind} file {path}: {exc}") from exc
    rows = [ln.strip() for ln in lines if ln.strip() and not ln.startswith("#")]
    if not rows or not rows[0].startswith("d="):
        raise GameFileError(f"{path}: expected header 'd=<int>' on the first line")
    try:
        d = int(rows[0][2:])
    except ValueError as exc:
        raise GameFileError(f"{path}: malformed header {rows[0]!r}") from exc
    try:
        _check_d(d)
    except ValueError as exc:
        raise GameFileError(f"{path}: {exc}") from exc
    table: dict[int, float] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        parts = row.split(",")
        if len(parts) != 2:
            raise GameFileError(f"{path}:{lineno}: expected '<bitstring>,<value>'")
        bits, raw = parts[0].strip(), parts[1].strip()
        if len(bits) != d or any(ch not in "01" for ch in bits):
            raise GameFileError(f"{path}:{lineno}: bad bitstring {bits!r} for d={d}")
        mask = Coalition.from_bitstring(bits).mask
        if mask in table:
            raise GameFileError(f"{path}:{lineno}: duplicate coalition {bits!r}")
        try:
            table[mask] = float(raw)
        except ValueError as exc:
            raise GameFileError(f"{path}:{lineno}: bad value {raw!r}") from exc
    return d, table


def load_lookup_game(path: str) -> LookupGame:
    """Read a ``.game`` file: header ``d=<int>``, then ``<bitstring>,<float>`` rows."""
    d, table = _parse_game_lines(path, "lookup game")
    return LookupGame(d, table)


def load_mobius_game(path: str) -> MobiusGame:
    """Read a ``.mobius`` file: header ``d=<int>``, then ``<bitstring>,<coefficient>`` rows."""
    d, terms = _parse_game_lines(path, "mobius game")
    return MobiusGame(d, terms)


def load_game(path: str) -> Game:
    """Dispatch on file extension: ``.mobius`` for coefficients, anything else as lookup."""
    if path.endswith(".mobius"):
        return load_mobius_game(path)
    return load_lookup_game(path)


def save_mobius_game(game: MobiusGame, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"d={game.d}\n")
        for mask in sorted(game.terms, key=lambda m: (m.bit_count(), m)):
            fh.write(f"{Coalition(mask, game.d).bitstring()},{game.terms[mask]!r}\n")


def dump_lookup_file(game: Game, path: str) -> None:
    """Write the complete value table of a small game as a ``.game`` file."""
    if game.d > 24:
        raise ValueError(f"complete tables are limited to d <= 24, got d={game.d}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"d={game.d}\n")
        for mask in range(1 << game.d):
            c = Coalition(mask, game.d)
            fh.write(f"{c.bitstring()},{game.evaluate(c)!r}\n")
