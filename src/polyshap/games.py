"""Cooperative games: the evaluation contract, synthetic families, and file IO.

A game maps coalitions to real values. Every ``evaluate`` call consumes one
unit of budget (the counter is monotone), while the actual computation is
cached per coalition so repeated rows are cheap but never free. A computed
value that is not finite raises ``NonFiniteValueError``. Callers evaluate
int masks through ``evaluate_many``, one counted ``evaluate`` per mask;
games compute their values on masks.
"""

from __future__ import annotations

import math
import operator
import threading
from typing import Iterable, Mapping

import numpy as np

from .coalitions import Coalition, binomial, bitstring, fold, membership
from .coalitions import _check_d, read_rows, write_rows


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
        mask = coalition.mask
        value = self._cache.get(mask)
        if value is None:
            value = float(self._value(mask))
            if not math.isfinite(value):
                raise NonFiniteValueError(bitstring(mask, self.d), value)
            self._cache[mask] = value
        return value

    def evaluate_many(self, masks: Iterable[int]) -> np.ndarray:
        """Values of the coalitions ``masks``, in order: one counted ``evaluate`` per mask.

        The first bad row in row order raises, with the counter advanced
        through that row.
        """
        return np.array([self.evaluate(Coalition(m, self.d)) for m in masks], dtype=float)

    def _value(self, mask: int) -> float:
        raise NotImplementedError


def _by_mask(values: Mapping[int, float], d: int, what: str) -> dict[int, float]:
    """``values`` as floats keyed by int masks below 2^d; a float or a Coalition key raises
    ``TypeError``, a mask out of range or met twice ``ValueError``."""
    clean: dict[int, float] = {}
    for key, value in values.items():
        mask = operator.index(key)
        if mask < 0 or mask >> d:
            raise ValueError(f"{what} mask {mask:#x} out of range for d={d}")
        if mask in clean:
            raise ValueError(f"duplicate {what} for mask {mask:#x}")
        clean[mask] = float(value)
    return clean


class MobiusGame(Game):
    """Game given by interaction coefficients: value(S) = sum of coefficients on T subseteq S."""

    def __init__(self, d: int, terms: Mapping[int, float]) -> None:
        super().__init__(d)
        self.terms = _by_mask(terms, d, "term")

    def _value(self, mask: int) -> float:
        outside = ~mask
        return sum(c for t, c in self.terms.items() if not t & outside)


def mobius_exact_shapley(game: MobiusGame) -> np.ndarray:
    """Exact Shapley values of a coefficient-based game.

    Each term of size t splits its coefficient evenly over its t members;
    the constant term contributes to nobody.
    """
    masks = [mask for mask in game.terms if mask != 0]
    coefs = np.array([game.terms[mask] for mask in masks])
    return fold(membership(masks, game.d), coefs)


def check_random_game(d: int, max_order: int, n_terms: int) -> None:
    """``make_random_game``'s rule for its arguments: a ``ValueError`` unless it can draw
    ``n_terms`` distinct coalitions of size 1..``max_order`` over ``d`` players."""
    _check_d(d)
    if not 1 <= max_order <= d:
        raise ValueError(f"max_order must be in [1, {d}], got {max_order}")
    n_candidates = sum(binomial(d, s) for s in range(1, max_order + 1))
    if n_terms < 1 or n_terms > n_candidates:
        raise ValueError(
            f"n_terms must be in [1, {n_candidates}] for d={d}, max_order={max_order}"
        )


def make_random_game(d: int, max_order: int, n_terms: int, seed: int) -> MobiusGame:
    """Random game with n_terms distinct coefficients on coalitions of size 1..max_order.

    Coalitions are drawn uniformly over all candidates of the allowed sizes;
    coefficients come from a standard normal stream. Fully determined by the
    seed.
    """
    check_random_game(d, max_order, n_terms)
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
        self.table = _by_mask(table, d, "table")

    def _value(self, mask: int) -> float:
        try:
            return self.table[mask]
        except KeyError:
            raise LookupMissError(bitstring(mask, self.d)) from None


def _read_game(path: str) -> tuple[int, dict[int, float]]:
    _, d, rows = read_rows(path, 1)
    return d, {mask: value for mask, (value,) in rows}


def load_lookup_game(path: str) -> LookupGame:
    """Read a ``.game`` file: header ``d=<int>``, then ``<bitstring>,<float>`` rows."""
    return LookupGame(*_read_game(path))


def load_mobius_game(path: str) -> MobiusGame:
    """Read a ``.mobius`` file: header ``d=<int>``, then ``<bitstring>,<coefficient>`` rows."""
    return MobiusGame(*_read_game(path))


def load_game(path: str) -> Game:
    """Dispatch on file extension: ``.mobius`` for coefficients, anything else as lookup."""
    if path.endswith(".mobius"):
        return load_mobius_game(path)
    return load_lookup_game(path)


def save_mobius_game(game: MobiusGame, path: str) -> None:
    ordered = sorted(game.terms, key=lambda m: (m.bit_count(), m))
    write_rows(path, [f"d={game.d}"], game.d, ((mask, (game.terms[mask],)) for mask in ordered))


def dump_lookup_file(game: Game, path: str) -> None:
    """Write the complete value table of a small game as a ``.game`` file."""
    if game.d > 24:
        raise ValueError(f"complete tables are limited to d <= 24, got d={game.d}")
    values = game.evaluate_many(range(1 << game.d))
    write_rows(path, [f"d={game.d}"], game.d, enumerate(zip(values)))
