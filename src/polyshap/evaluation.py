"""Exact oracles, accuracy metrics, and the benchmark harness.

The harness sweeps (game x method x budget x seed) cells, compares each
run's estimates against an exact oracle, and aggregates per-run metrics
into mean +/- SEM rows, pooled over instances and seeds. Cells whose budget
cannot support the method are recorded as absent rather than silently
dropped; individual failures are collected and the sweep continues.
"""

from __future__ import annotations

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

import numpy as np

from .coalitions import Coalition, binomial
from .estimators import (
    AttributionResult,
    permutation_baseline,
    polyshap,
)
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
    values = np.array([game.evaluate(Coalition(m, d)) for m in range(n)])
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


def mse(estimate: Sequence[float], truth: Sequence[float]) -> float:
    a = np.asarray(estimate, dtype=float)
    b = np.asarray(truth, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def _top_k(values: np.ndarray, k: int) -> set[int]:
    # Rank by absolute value, ties broken toward the lower player index.
    order = sorted(range(len(values)), key=lambda i: (-abs(values[i]), i))
    return set(order[:k])


def precision_at_k(estimate: Sequence[float], truth: Sequence[float], k: int) -> float:
    a = np.asarray(estimate, dtype=float)
    b = np.asarray(truth, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if not 1 <= k <= len(a):
        raise ValueError(f"k must be in [1, {len(a)}], got {k}")
    return len(_top_k(a, k) & _top_k(b, k)) / k


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(estimate: Sequence[float], truth: Sequence[float]) -> float:
    """Pearson correlation of average ranks; 0.0 (with a warning) if either side is constant."""
    a = np.asarray(estimate, dtype=float)
    b = np.asarray(truth, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
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

    def frontier_for(self, d: int) -> InteractionFrontier | None:
        if self.estimator == "permutation":
            return None
        if self.estimator == "kernelshap" or self.frontier_spec is None:
            return empty_frontier(d)
        return parse_frontier_spec(self.frontier_spec, d, self.frontier_seed)

    def label(self, d: int) -> tuple[str, str]:
        frontier = self.frontier_for(d)
        return self.estimator, "" if frontier is None else frontier.order_label


@dataclass
class BenchmarkConfig:
    games: list[GameSpec]
    methods: list[MethodSpec]
    budgets: list[int]
    seeds: list[int]
    metrics: list[str] = field(default_factory=lambda: list(METRIC_NAMES))
    k_for_precision: int = 5

    def validate(self) -> None:
        if not self.games:
            raise ValueError("benchmark config needs at least one game")
        if not self.methods:
            raise ValueError("benchmark config needs at least one method")
        if not self.budgets:
            raise ValueError("benchmark config needs at least one budget")
        if not self.seeds:
            raise ValueError("benchmark config needs at least one seed")
        for metric in self.metrics:
            if metric not in METRIC_NAMES:
                raise ValueError(f"unknown metric {metric!r}")
        for spec in self.games:
            if spec.kind not in ("random", "file"):
                raise ValueError(f"unknown game kind {spec.kind!r}")
            d = spec.d if spec.kind == "random" else load_game(spec.path).d
            for budget in self.budgets:
                if budget > (1 << d):
                    raise ValueError(
                        f"budget {budget} exceeds 2^d for game {spec.game_id} (d={d})"
                    )
        for method in self.methods:
            if method.estimator not in ("polyshap", "kernelshap", "permutation"):
                raise ValueError(f"unknown estimator {method.estimator!r}")


@dataclass
class RunRecord:
    game_id: str
    instance: int
    method: str
    frontier: str
    paired: bool
    budget: int
    seed: int
    metrics: dict[str, float]
    evals_used: int
    rank_deficient: bool


@dataclass
class SkippedCell:
    game_id: str
    method: str
    frontier: str
    paired: bool
    budget: int
    reason: str


@dataclass
class FailedCell:
    game_id: str
    instance: int
    method: str
    frontier: str
    paired: bool
    budget: int
    seed: int
    error: str


@dataclass
class MetricsRow:
    game_id: str
    method: str
    frontier: str
    paired: bool
    budget: int
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


def _run_single(
    game: Game,
    truth: np.ndarray,
    method: MethodSpec,
    budget: int,
    run_seed: int,
    metrics: Sequence[str],
    k: int,
) -> tuple[dict[str, float], AttributionResult, int]:
    before = game.eval_counter
    if method.estimator == "permutation":
        result = permutation_baseline(game, budget, run_seed)
    else:
        frontier = method.frontier_for(game.d)
        cfg = SamplerConfig(budget_m=budget, paired=method.paired, seed=run_seed)
        result = polyshap(game, frontier, cfg)
    evals_used = game.eval_counter - before
    values: dict[str, float] = {}
    for name in metrics:
        if name == "mse":
            values[name] = mse(result.shapley, truth)
        elif name == "precision_at_k":
            values[name] = precision_at_k(result.shapley, truth, min(k, game.d))
        elif name == "spearman":
            values[name] = spearman(result.shapley, truth)
    return values, result, evals_used


def _run_cell(args: tuple) -> tuple[list[RunRecord], list[FailedCell]]:
    spec, instance, method, budget, seeds, metrics, k = args
    est = method.estimator
    try:
        game = spec.build(instance)
        truth = oracle_shapley(game).shapley
        est, frontier_label = method.label(game.d)
    except Exception as exc:  # game/oracle failures poison the cell, not the sweep
        return [], [
            FailedCell(
                game_id=spec.game_id,
                instance=instance,
                method=est,
                frontier=method.frontier_spec or "",
                paired=method.paired,
                budget=budget,
                seed=-1,
                error=f"{type(exc).__name__}: {exc}",
            )
        ]
    records: list[RunRecord] = []
    failures: list[FailedCell] = []
    for seed in seeds:
        run_seed = derive_run_seed(seed, instance, budget)
        try:
            values, result, evals_used = _run_single(
                game, truth, method, budget, run_seed, metrics, k
            )
        except Exception as exc:  # cell failures recorded, sweep continues
            failures.append(
                FailedCell(
                    game_id=spec.game_id,
                    instance=instance,
                    method=est,
                    frontier=frontier_label,
                    paired=method.paired,
                    budget=budget,
                    seed=seed,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        records.append(
            RunRecord(
                game_id=spec.game_id,
                instance=instance,
                method=est,
                frontier=frontier_label,
                paired=method.paired,
                budget=budget,
                seed=seed,
                metrics=values,
                evals_used=evals_used,
                rank_deficient=bool(result.diagnostics.get("rank_deficient", False)),
            )
        )
    return records, failures


def _method_minimum_budget(method: MethodSpec, d: int) -> tuple[int, str]:
    if method.estimator == "permutation":
        return d + 1, f"budget below one permutation sweep (d+1={d + 1})"
    frontier = method.frontier_for(d)
    n_cols = frontier.n_columns
    return max(n_cols, d + 2), f"columns d'={n_cols} exceed budget or budget below d+2"


def run_benchmark(config: BenchmarkConfig, jobs: int = 1) -> BenchmarkResult:
    config.validate()
    cells = []
    skipped: list[SkippedCell] = []
    seen_skip: set[tuple] = set()
    for spec in config.games:
        d = spec.d if spec.kind == "random" else load_game(spec.path).d
        for method in config.methods:
            est, frontier_label = method.label(d)
            minimum, reason = _method_minimum_budget(method, d)
            for budget in config.budgets:
                if budget < minimum:
                    key = (spec.game_id, est, frontier_label, method.paired, budget)
                    if key not in seen_skip:
                        seen_skip.add(key)
                        skipped.append(SkippedCell(*key, reason=reason))
                    continue
                for instance in range(spec.instances):
                    cells.append(
                        (
                            spec,
                            instance,
                            method,
                            budget,
                            tuple(config.seeds),
                            tuple(config.metrics),
                            config.k_for_precision,
                        )
                    )

    runs: list[RunRecord] = []
    failures: list[FailedCell] = []
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for records, fails in pool.map(_run_cell, cells, chunksize=4):
                runs.extend(records)
                failures.extend(fails)
    else:
        for cell in cells:
            records, fails = _run_cell(cell)
            runs.extend(records)
            failures.extend(fails)

    runs.sort(
        key=lambda r: (r.game_id, r.method, r.frontier, r.paired, r.budget, r.instance, r.seed)
    )
    skipped.sort(key=lambda s: (s.game_id, s.method, s.frontier, s.paired, s.budget))
    failures.sort(key=lambda f: (f.game_id, f.method, f.frontier, f.paired, f.budget, f.seed))
    rows = aggregate_runs(runs, config.metrics)
    return BenchmarkResult(runs=runs, rows=rows, skipped=skipped, failures=failures, config=config)


def aggregate_runs(runs: Sequence[RunRecord], metrics: Sequence[str]) -> list[MetricsRow]:
    """Pool per-run metric values over instances and seeds; SEM is stddev/sqrt(n)."""
    grouped: dict[tuple, list[RunRecord]] = {}
    for run in runs:
        grouped.setdefault((run.game_id, run.method, run.frontier, run.paired, run.budget), []).append(run)
    rows: list[MetricsRow] = []
    for key in sorted(grouped):
        bucket = grouped[key]
        for metric in metrics:
            vals = np.array([r.metrics[metric] for r in bucket])
            n = len(vals)
            sem = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            rows.append(
                MetricsRow(*key, metric=metric, mean=float(vals.mean()), sem=sem, n_runs=n)
            )
    return rows


def _fmt(x: float) -> str:
    return format(float(x), FLOAT_FORMAT)


def _csv_fields(row: MetricsRow) -> tuple:
    return (
        row.game_id,
        row.method,
        row.frontier,
        row.paired,
        row.budget,
        row.metric,
        _fmt(row.mean),
        _fmt(row.sem),
        str(row.n_runs),
    )


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
    for cell in skipped:
        for metric in metrics:
            entries.append(
                (cell.game_id, cell.method, cell.frontier, cell.paired, cell.budget, metric, "absent", "absent", "0")
            )
    entries.sort(key=lambda e: (e[0], e[1], e[2], e[3], e[4], e[5]))
    return _csv_text(entries)


def per_instance_csv(runs: Sequence[RunRecord], metrics: Sequence[str]) -> str:
    """One row per (game#instance, method, frontier, paired, budget, metric), metrics in config order."""
    keyed = [replace(run, game_id=f"{run.game_id}#{run.instance}") for run in runs]
    return _csv_text(_csv_fields(row) for row in aggregate_runs(keyed, metrics))


def plot_data(result: BenchmarkResult) -> dict[str, Any]:
    """Per (game, metric) series of budget points, consumable by any plotting tool."""
    series: dict[str, Any] = {}
    for row in result.rows:
        game_block = series.setdefault(row.game_id, {})
        metric_block = game_block.setdefault(row.metric, {})
        label = f"{row.method}|{row.frontier}|{'paired' if row.paired else 'standard'}"
        metric_block.setdefault(label, []).append(
            {
                "budget": row.budget,
                "mean": float(_fmt(row.mean)),
                "sem": float(_fmt(row.sem)),
                "n_runs": row.n_runs,
            }
        )
    for cell in result.skipped:
        game_block = series.setdefault(cell.game_id, {})
        for metric in result.config.metrics:
            metric_block = game_block.setdefault(metric, {})
            label = f"{cell.method}|{cell.frontier}|{'paired' if cell.paired else 'standard'}"
            metric_block.setdefault(label, []).append({"budget": cell.budget, "status": "absent"})
    for game_block in series.values():
        for metric_block in game_block.values():
            for label in metric_block:
                metric_block[label].sort(key=lambda pt: pt["budget"])
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


def benchmark_config_from_dict(raw: dict[str, Any]) -> BenchmarkConfig:
    try:
        games = [
            GameSpec(
                game_id=g["id"],
                kind=g["type"],
                d=int(g.get("d", 0)),
                max_order=int(g.get("max_order", 0)),
                n_terms=int(g.get("n_terms", 0)),
                seed=int(g.get("seed", 0)),
                instances=int(g.get("instances", 1)),
                path=g.get("path", ""),
            )
            for g in raw["games"]
        ]
        methods = [
            MethodSpec(
                estimator=m["estimator"],
                frontier_spec=m.get("frontier"),
                paired=bool(m.get("paired", False)),
                frontier_seed=int(m.get("frontier_seed", 0)),
            )
            for m in raw["methods"]
        ]
        config = BenchmarkConfig(
            games=games,
            methods=methods,
            budgets=[int(b) for b in raw["budgets"]],
            seeds=[int(s) for s in raw["seeds"]],
            metrics=list(raw.get("metrics", METRIC_NAMES)),
            k_for_precision=int(raw.get("k_for_precision", 5)),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed benchmark config: {exc}") from exc
    config.validate()
    return config


def load_benchmark_config(path: str) -> BenchmarkConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return benchmark_config_from_dict(raw)
