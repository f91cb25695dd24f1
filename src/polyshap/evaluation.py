"""Exact oracles, accuracy metrics, and the benchmark harness.

The harness sweeps (game x method x budget x seed) cells, compares each
run's estimates against an exact oracle, and aggregates per-run metrics
into mean +/- SEM rows, pooled over instances and seeds. One game instance
is the unit of work: its game, its oracle and each frontier are built once.
Cells whose budget cannot support the method are recorded as absent rather
than silently dropped; individual failures are collected and the sweep
continues.
"""

from __future__ import annotations

import json
import os
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from multiprocessing import get_context
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .coalitions import binomial
from .estimators import AttributionResult, permutation_baseline, polyshap
from .frontier import InteractionFrontier, empty_frontier, parse_frontier_spec
from .games import Game, MobiusGame, load_game, make_random_game, mobius_exact_shapley
from .sampling import SamplerConfig

METRIC_NAMES = ("mse", "precision_at_k", "spearman")
FLOAT_FORMAT = ".9g"


@dataclass
class OracleResult:
    shapley: np.ndarray
    method: str


def bruteforce_shapley(game: Game) -> OracleResult:
    """Ground truth from the averaged-marginal formula over all 2^d coalitions."""
    d = game.d
    if d > 14:
        raise ValueError(f"brute-force oracle needs d <= 14, got d={d}")
    n = 1 << d
    values = game.evaluate_many(range(n))
    masks = np.arange(n)
    sizes = np.zeros(n, dtype=np.int64)
    for i in range(d):
        sizes += (masks >> i) & 1
    inv_binom = np.array([1.0 / binomial(d - 1, s) for s in range(d)])
    phi = np.zeros(d)
    for i in range(d):
        without = masks[((masks >> i) & 1) == 0]
        gains = values[without | (1 << i)] - values[without]
        phi[i] = float(np.sum(gains * inv_binom[sizes[without]])) / d
    return OracleResult(shapley=phi, method="bruteforce")


def oracle_shapley(game: Game) -> OracleResult:
    """Exact Shapley values: coefficient folding for coefficient games, else brute force."""
    if isinstance(game, MobiusGame):
        return OracleResult(shapley=mobius_exact_shapley(game), method="mobius")
    return bruteforce_shapley(game)


def _vectors(estimate: Sequence[float], truth: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(estimate, dtype=float)
    b = np.asarray(truth, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return a, b


def mse(estimate: Sequence[float], truth: Sequence[float]) -> float:
    a, b = _vectors(estimate, truth)
    return float(np.mean((a - b) ** 2))


def _top_k(values: np.ndarray, k: int) -> set[int]:
    # Rank by absolute value, ties broken toward the lower player index.
    order = sorted(range(len(values)), key=lambda i: (-abs(values[i]), i))
    return set(order[:k])


def precision_at_k(estimate: Sequence[float], truth: Sequence[float], k: int) -> float:
    a, b = _vectors(estimate, truth)
    if not 1 <= k <= len(a):
        raise ValueError(f"k must be in [1, {len(a)}], got {k}")
    return len(_top_k(a, k) & _top_k(b, k)) / k


def _average_ranks(values: np.ndarray) -> np.ndarray:
    # The values equal to v hold the 1-based ranks (number below v) + 1 through
    # (number at or below v); v's rank is their mean.
    ordered = np.sort(values)
    return (np.searchsorted(ordered, values, "left") + np.searchsorted(ordered, values, "right") + 1) / 2


def spearman(estimate: Sequence[float], truth: Sequence[float]) -> float:
    """Pearson correlation of average ranks; 0.0 (with a warning) if either side is constant."""
    a, b = _vectors(estimate, truth)
    if len(a) < 2:
        raise ValueError("spearman needs at least 2 entries")
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    sa = ra - ra.mean()
    sb = rb - rb.mean()
    denom = float(np.linalg.norm(sa) * np.linalg.norm(sb))
    if denom == 0.0:
        warnings.warn("zero rank variance: spearman defined as 0", stacklevel=2)
        return 0.0
    return float(np.dot(sa, sb) / denom)


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------


def _check_types(spec: Any, kind: type, *names: str) -> None:
    """A ``ValueError`` naming the first of ``spec``'s fields ``names`` that is not a
    ``kind``; a bool is not an int here, as in a JSON config."""
    for name in names:
        value = getattr(spec, name)
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ValueError(f"{name} must be {_JSON_NAMES[kind]}, got {value!r}")


def _named(entry: str, build: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``build(*args, **kwargs)``, with a ``ValueError`` it raises prefixed by the config ``entry``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{entry}: {exc}") from exc


@dataclass(frozen=True)
class GameSpec:
    """Either a seeded family of random coefficient games or a game file."""

    game_id: str
    kind: str  # "random" | "file"
    d: int = 0
    max_order: int = 0
    n_terms: int = 0
    seed: int = 0
    instances: int = 1
    path: str = ""

    def __post_init__(self) -> None:
        _check_types(self, str, "game_id", "kind", "path")
        _check_types(self, int, "d", "max_order", "n_terms", "seed", "instances")
        if self.kind not in ("random", "file"):
            raise ValueError(f"unknown game kind {self.kind!r}")
        if self.instances < 1:
            raise ValueError(f"game {self.game_id} needs instances >= 1, got {self.instances}")

    def build(self, instance: int) -> Game:
        if self.kind == "random":
            return make_random_game(self.d, self.max_order, self.n_terms, self.seed + instance)
        return load_game(self.path)


@dataclass(frozen=True)
class MethodSpec:
    estimator: str  # "polyshap" | "kernelshap" | "permutation"
    frontier_spec: str | None = None
    paired: bool = False
    frontier_seed: int = 0

    def __post_init__(self) -> None:
        _check_types(self, str, "estimator")
        if self.frontier_spec is not None:
            _check_types(self, str, "frontier_spec")
        _check_types(self, int, "frontier_seed")
        if self.estimator not in ("polyshap", "kernelshap", "permutation"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if not isinstance(self.paired, bool):
            raise ValueError(f"paired must be true or false, got {self.paired!r}")
        if self.estimator == "permutation" and (self.frontier_spec is not None or self.paired):
            raise ValueError("permutation takes neither a frontier nor paired sampling")
        if self.estimator == "kernelshap" and self.frontier_spec not in (None, "1"):
            raise ValueError("kernelshap has no interaction frontier")

    def frontier_for(self, d: int) -> InteractionFrontier | None:
        if self.estimator == "permutation":
            return None
        if self.estimator == "kernelshap" or self.frontier_spec is None:
            return empty_frontier(d)
        return parse_frontier_spec(self.frontier_spec, d, self.frontier_seed)

    def label(self, d: int) -> tuple[str, str]:
        frontier = self.frontier_for(d)
        return self.estimator, "" if frontier is None else frontier.order_label

    def run(
        self, game: Game, frontier: InteractionFrontier | None, budget: int, seed: int
    ) -> AttributionResult:
        """One estimate on ``frontier``, as built by ``frontier_for(game.d)``."""
        if frontier is None:
            return permutation_baseline(game, budget, seed)
        return polyshap(game, frontier, SamplerConfig(budget_m=budget, paired=self.paired, seed=seed))


# One copy of each distinct frontier while any config holds it: the configs that
# ``dataclasses.replace`` makes (one per unit of a sweep, say) share theirs.
_FRONTIERS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class BenchmarkConfig:
    """A sweep, validated once when built (by ``dataclasses.replace`` too).

    ``dims`` holds each game spec's d, read once from its file if it has one;
    ``frontiers[g][m]`` is method m's frontier at game spec g's d, built once.
    """

    games: list[GameSpec]
    methods: list[MethodSpec]
    budgets: list[int]
    seeds: list[int]
    metrics: list[str] = field(default_factory=lambda: list(METRIC_NAMES))
    k_for_precision: int = 5
    dims: list[int] = field(init=False, repr=False, compare=False)
    frontiers: list[list[InteractionFrontier | None]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Check the config; set ``dims`` and ``frontiers``."""
        for name in ("games", "methods", "budgets", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"benchmark config needs at least one {name[:-1]}")
        for metric in self.metrics:
            if metric not in METRIC_NAMES:
                raise ValueError(f"unknown metric {metric!r}")
        if self.k_for_precision < 1:
            raise ValueError(f"k_for_precision must be >= 1, got {self.k_for_precision}")
        dims = []
        for spec in self.games:
            d = spec.d if spec.kind == "random" else load_game(spec.path).d
            for budget in self.budgets:
                if budget > (1 << d):
                    raise ValueError(
                        f"budget {budget} exceeds 2^d for game {spec.game_id} (d={d})"
                    )
            dims.append(d)
        built = [
            [_named(f"methods[{j}]", m.frontier_for, d) for j, m in enumerate(self.methods)]
            for d in dims
        ]
        shared = [[f if f is None else _FRONTIERS.setdefault(f, f) for f in row] for row in built]
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "frontiers", shared)


@dataclass
class Cell:
    """One sweep cell: a game, one method configuration and one budget."""

    game_id: str
    method: str
    frontier: str
    paired: bool
    budget: int

    @property
    def key(self) -> tuple:
        return (self.game_id, self.method, self.frontier, self.paired, self.budget)


@dataclass
class RunRecord(Cell):
    instance: int
    seed: int
    metrics: dict[str, float]
    evals_used: int
    rank_deficient: bool


@dataclass
class SkippedCell(Cell):
    reason: str


@dataclass
class FailedCell(Cell):
    instance: int
    seed: int
    error: str


@dataclass
class MetricsRow(Cell):
    metric: str
    mean: float
    sem: float
    n_runs: int


@dataclass
class BenchmarkResult:
    runs: list[RunRecord]
    rows: list[MetricsRow]
    skipped: list[SkippedCell]
    failures: list[FailedCell]
    config: BenchmarkConfig


def derive_run_seed(base_seed: int, instance: int, budget: int) -> int:
    """Deterministic per-run sampler seed, independent of the method so that
    methods sharing (seed, instance, budget) replay identical batches."""
    mix = (base_seed * 1_000_003 + instance * 7_919 + budget * 104_729 + 12_345) % (1 << 63)
    return int(mix)


def series_label(cell: Cell) -> str:
    """``method|frontier|paired-or-standard``: one method configuration of a cell."""
    return f"{cell.method}|{cell.frontier}|{'paired' if cell.paired else 'standard'}"


def _run_instance(args: tuple) -> tuple[list[RunRecord], list[FailedCell]]:
    """Run every (method, budget) cell and seed of one instance on one game and oracle.

    Game values are deterministic and cached evaluations are counted too, so
    the cache warmed by earlier runs changes no estimate and no ``evals_used``.
    """
    spec, instance, cells, seeds, metrics, k = args

    def failed(cell: Cell, seed: int, exc: Exception) -> FailedCell:
        return FailedCell(*cell.key, instance, seed, f"{type(exc).__name__}: {exc}")

    try:
        game = spec.build(instance)
        truth = oracle_shapley(game).shapley
    except Exception as exc:  # game/oracle failures poison the instance's cells, not the sweep
        return [], [failed(cell, -1, exc) for _, _, cell in cells]
    records: list[RunRecord] = []
    failures: list[FailedCell] = []
    for method, frontier, cell in cells:
        for seed in seeds:
            before = game.eval_counter
            try:
                result = method.run(game, frontier, cell.budget, derive_run_seed(seed, instance, cell.budget))
                evals_used = game.eval_counter - before
                values: dict[str, float] = {}
                for name in metrics:
                    if name == "mse":
                        values[name] = mse(result.shapley, truth)
                    elif name == "precision_at_k":
                        values[name] = precision_at_k(result.shapley, truth, min(k, game.d))
                    elif name == "spearman":
                        values[name] = spearman(result.shapley, truth)
            except Exception as exc:  # run failures recorded, sweep continues
                failures.append(failed(cell, seed, exc))
                continue
            rank_deficient = bool(result.diagnostics.get("rank_deficient", False))
            records.append(RunRecord(*cell.key, instance, seed, values, evals_used, rank_deficient))
    return records, failures


def run_benchmark(config: BenchmarkConfig, jobs: int = 1) -> BenchmarkResult:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    work = []
    skipped: dict[tuple, SkippedCell] = {}
    for spec, d, frontiers in zip(config.games, config.dims, config.frontiers):
        cells = []
        for method, frontier in zip(config.methods, frontiers):
            if frontier is None:
                label, minimum = "", d + 1
                reason = f"budget below one permutation sweep (d+1={d + 1})"
            else:
                label, minimum = frontier.order_label, max(frontier.n_columns, d + 2)
                reason = f"columns d'={frontier.n_columns} exceed budget or budget below d+2"
            for budget in config.budgets:
                cell = Cell(spec.game_id, method.estimator, label, method.paired, budget)
                if budget >= minimum:
                    cells.append((method, frontier, cell))
                else:
                    skipped.setdefault(cell.key, SkippedCell(*cell.key, reason))
        if cells:
            shared = (tuple(cells), tuple(config.seeds), tuple(config.metrics))
            work.extend((spec, i, *shared, config.k_for_precision) for i in range(spec.instances))

    runs: list[RunRecord] = []
    failures: list[FailedCell] = []
    if jobs > 1 and len(work) > 1:
        # Fresh workers with one BLAS thread each, so jobs x BLAS threads do
        # not oversubscribe the cores; the parent's own environment is restored.
        saved = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            with ProcessPoolExecutor(jobs, mp_context=get_context("spawn")) as pool:
                outcomes = list(pool.map(_run_instance, work))
        finally:
            if saved is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = saved
    else:
        outcomes = map(_run_instance, work)
    for records, fails in outcomes:
        runs.extend(records)
        failures.extend(fails)

    runs.sort(key=lambda r: (*r.key, r.instance, r.seed))
    failures.sort(key=lambda f: (*f.key, f.seed))
    rows = aggregate_runs(runs, config.metrics)
    absent = sorted(skipped.values(), key=lambda s: s.key)
    return BenchmarkResult(runs=runs, rows=rows, skipped=absent, failures=failures, config=config)


def aggregate_runs(runs: Sequence[RunRecord], metrics: Sequence[str]) -> list[MetricsRow]:
    """Pool per-run metric values over instances and seeds; SEM is stddev/sqrt(n)."""
    grouped: dict[tuple, list[RunRecord]] = {}
    for run in runs:
        grouped.setdefault(run.key, []).append(run)
    rows: list[MetricsRow] = []
    for key in sorted(grouped):
        bucket = grouped[key]
        for metric in metrics:
            vals = np.array([r.metrics[metric] for r in bucket])
            n = len(vals)
            sem = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            rows.append(MetricsRow(*key, metric, float(vals.mean()), sem, n))
    return rows


def _fmt(x: float) -> str:
    return format(float(x), FLOAT_FORMAT)


def _csv_fields(row: MetricsRow) -> tuple:
    return (*row.key, row.metric, _fmt(row.mean), _fmt(row.sem), str(row.n_runs))


def _csv_text(entries: Iterable[tuple]) -> str:
    lines = ["game,method,frontier,paired,budget,metric,mean,sem,n_runs"]
    for e in entries:
        lines.append(
            f"{e[0]},{e[1]},{e[2]},{'true' if e[3] else 'false'},{e[4]},{e[5]},{e[6]},{e[7]},{e[8]}"
        )
    return "\n".join(lines) + "\n"


def rows_to_csv(rows: Sequence[MetricsRow], skipped: Sequence[SkippedCell], metrics: Sequence[str]) -> str:
    """Canonical CSV: absent cells carry the literal marker 'absent' instead of numbers."""
    entries = [_csv_fields(row) for row in rows]
    entries += [(*cell.key, metric, "absent", "absent", "0") for cell in skipped for metric in metrics]
    entries.sort(key=lambda e: e[:6])
    return _csv_text(entries)


def per_instance_csv(runs: Sequence[RunRecord], metrics: Sequence[str]) -> str:
    """One row per (game#instance, method, frontier, paired, budget, metric), metrics in config order."""
    keyed = [replace(run, game_id=f"{run.game_id}#{run.instance}") for run in runs]
    return _csv_text(_csv_fields(row) for row in aggregate_runs(keyed, metrics))


def plot_data(result: BenchmarkResult) -> dict[str, Any]:
    """Per (game, metric) series of budget points, consumable by any plotting tool."""
    points: list[tuple[Cell, str, dict[str, Any]]] = [
        (
            row,
            row.metric,
            {"budget": row.budget, "mean": float(_fmt(row.mean)), "sem": float(_fmt(row.sem)), "n_runs": row.n_runs},
        )
        for row in result.rows
    ]
    points += [
        (cell, metric, {"budget": cell.budget, "status": "absent"})
        for cell in result.skipped
        for metric in result.config.metrics
    ]
    series: dict[str, Any] = {}
    for cell, metric, point in sorted(points, key=lambda p: p[0].budget):
        metric_block = series.setdefault(cell.game_id, {}).setdefault(metric, {})
        metric_block.setdefault(series_label(cell), []).append(point)
    return {
        "metadata": {
            "ranking_key": "absolute value",
            "sem": "pooled over instances and seeds",
            "float_format": FLOAT_FORMAT,
            "budgets": list(result.config.budgets),
            "seeds": list(result.config.seeds),
            "n_failures": len(result.failures),
        },
        "series": series,
    }


# Each JSON object of a config: JSON key -> (field, JSON type, default), where
# [type] is a list of that type, a spec class a nested object and ... required.
_TABLES: dict[type, dict[str, tuple[str, Any, Any]]] = {
    BenchmarkConfig: {
        "games": ("games", [GameSpec], ...),
        "methods": ("methods", [MethodSpec], ...),
        "budgets": ("budgets", [int], ...),
        "seeds": ("seeds", [int], ...),
        "metrics": ("metrics", [str], list(METRIC_NAMES)),
        "k_for_precision": ("k_for_precision", int, 5),
    },
    GameSpec: {
        "id": ("game_id", str, ...),
        "type": ("kind", str, ...),
        "d": ("d", int, 0),
        "max_order": ("max_order", int, 0),
        "n_terms": ("n_terms", int, 0),
        "seed": ("seed", int, 0),
        "instances": ("instances", int, 1),
        "path": ("path", str, ""),
    },
    MethodSpec: {
        "estimator": ("estimator", str, ...),
        "frontier": ("frontier_spec", str, None),
        "paired": ("paired", bool, False),
        "frontier_seed": ("frontier_seed", int, 0),
    },
}
_JSON_NAMES = {bool: "true or false", int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _read(raw: Any, kind: Any, where: str) -> Any:
    """``raw`` as ``kind``; an unknown or missing key or a wrong JSON type (a bool or a
    float is not an integer) is a ``ValueError`` that names it."""
    json_type = list if isinstance(kind, list) else dict if kind in _TABLES else kind
    if type(raw) is not json_type:
        raise ValueError(f"{where} must be {_JSON_NAMES[json_type]}, got {raw!r}")
    if json_type is list:
        return [_read(item, kind[0], f"{where}[{i}]") for i, item in enumerate(raw)]
    if json_type is not dict:
        return raw
    for key in raw:
        if key not in _TABLES[kind]:
            raise ValueError(f"unknown key {key!r} in {where}")
    values = {}
    for key, (name, sub, default) in _TABLES[kind].items():
        if key not in raw and default is ...:
            raise ValueError(f"missing key {key!r} in {where}")
        value = raw.get(key, default)
        path = key if kind is BenchmarkConfig else f"{where}.{key}"
        values[name] = None if value is None and default is None else _read(value, sub, path)
    return kind(**values) if kind is BenchmarkConfig else _named(where, kind, **values)


def benchmark_config_from_dict(raw: dict[str, Any]) -> BenchmarkConfig:
    return _read(raw, BenchmarkConfig, "benchmark config")


def load_benchmark_config(path: str) -> BenchmarkConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return benchmark_config_from_dict(raw)
