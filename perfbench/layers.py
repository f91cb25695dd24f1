"""The library calls the traced phase wraps, and the per-layer metrics made from its spans.

Layers are named after the library's modules. Each wrapper replaces a
public function where its caller imports it (``polyshap.estimators.sample``
is what ``polyshap()`` calls, ``polyshap.evaluation.polyshap`` what
``run_benchmark`` calls, ``workloads.kernelshap`` what the benchmark
calls). ``Game.evaluate`` is a method, so it is wrapped on the class. The
wrappers exist only during the traced phase.
"""

from __future__ import annotations

from polyshap import estimators, evaluation
from polyshap.games import Game
from polyshap.sampling import SamplerConfig

import workloads
from spans import Patch, SpanTotals, Tracer

# Per-layer time metrics: mean self time per estimate of these spans.
SELF_TIME_MS = {
    "frontier.build_ms": ("frontier.build",),
    "games.evaluate_ms": ("games.evaluate",),
    "sampling.draw_ms": ("sampling.sample",),
    "regression.design_ms": ("regression.build_design",),
    "regression.solve_ms": ("regression.solve",),
    "estimators.fold_ms": ("estimators.fold",),
    "estimators.self_ms": (
        "estimators.kernelshap",
        "estimators.polyshap",
        "estimators.polyshap_from_batch",
    ),
    "evaluation.game_build_ms": ("evaluation.game_build",),
    "evaluation.oracle_ms": ("evaluation.oracle",),
    "evaluation.metrics_ms": ("evaluation.metrics",),
    "evaluation.aggregate_ms": ("evaluation.aggregate",),
    "evaluation.self_ms": ("evaluation.run_benchmark",),
}


def patches(tracer: Tracer) -> list[Patch]:
    """Wrappers for every layer boundary, with hooks that count work where it happens."""
    counts = tracer.counts
    seen: set[int] = set()  # distinct coalitions evaluated in the current estimate

    def on_evaluate(args, kwargs, value):
        seen.add(args[1].mask)

    def on_estimate(args, kwargs, result):
        cfg = next(a for a in args if isinstance(a, SamplerConfig))
        counts["estimates"] += 1
        counts["budget"] += cfg.budget_m
        counts["distinct"] += len(seen)
        seen.clear()

    def on_sample(args, kwargs, batch):
        counts["rows"] += len(batch.masks)
        counts["unique_rows"] += len(set(batch.masks))
        sizes = batch.enumerated_sizes
        counts["enumerated_rows"] += sum(1 for m in batch.masks if m.bit_count() in sizes)

    def on_design(args, kwargs, system):
        rows, cols = system.matrix.shape
        counts["columns"] += cols
        counts["design_bytes"] += 8 * rows * cols

    def on_solve(args, kwargs, report):
        rows, cols = args[0].matrix.shape
        counts["solve_flop"] += 2 * rows * cols * cols
        counts["rank_deficient"] += int(report.rank_deficient)

    return [
        Patch(Game, "evaluate", "games.evaluate", on_evaluate),
        Patch(estimators, "sample", "sampling.sample", on_sample),
        Patch(estimators, "build_design", "regression.build_design", on_design),
        Patch(estimators, "solve_constrained", "regression.solve", on_solve),
        Patch(estimators, "polyshap_to_sv", "estimators.fold"),
        Patch(estimators, "polyshap_from_batch", "estimators.polyshap_from_batch"),
        Patch(estimators, "polyshap", "estimators.polyshap"),
        Patch(estimators, "empty_frontier", "frontier.build"),
        Patch(evaluation, "make_random_game", "evaluation.game_build"),
        Patch(evaluation, "oracle_shapley", "evaluation.oracle"),
        Patch(evaluation, "parse_frontier_spec", "frontier.build"),
        Patch(evaluation, "empty_frontier", "frontier.build"),
        Patch(evaluation, "polyshap", "estimators.polyshap", on_estimate),
        Patch(evaluation, "mse", "evaluation.metrics"),
        Patch(evaluation, "precision_at_k", "evaluation.metrics"),
        Patch(evaluation, "spearman", "evaluation.metrics"),
        Patch(evaluation, "aggregate_runs", "evaluation.aggregate"),
        Patch(workloads, "run_benchmark", "evaluation.run_benchmark"),
        Patch(workloads, "log_frontier", "frontier.build"),
        Patch(workloads, "polyshap", "estimators.polyshap", on_estimate),
        Patch(workloads, "kernelshap", "estimators.kernelshap", on_estimate),
    ]


def budget_error(tracer: Tracer, totals: SpanTotals) -> str | None:
    """The game must be evaluated exactly once per unit of budget, summed over estimates."""
    evals = totals.calls["games.evaluate"]
    budget = tracer.counts["budget"]
    if evals != budget:
        return f"traced estimates evaluated their games {evals} times for a total budget of {budget}"
    return None


def layer_metrics(
    tracer: Tracer, totals: SpanTotals, overhead_frac: float
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); times and counts are means per estimate."""
    counts = tracer.counts
    n = counts["estimates"]
    if n == 0:
        raise ValueError("the traced phase completed no estimate")
    out = {
        name: (sum(totals.self_ns[s] for s in spans) / n / 1e6, "ms")
        for name, spans in SELF_TIME_MS.items()
    }
    evals = totals.calls["games.evaluate"]
    solves = totals.calls["regression.solve"]
    solve_s = totals.self_ns["regression.solve"] / 1e9
    out.update(
        {
            "frontier.build_calls": (totals.calls["frontier.build"] / n, "count"),
            "frontier.columns": (counts["columns"] / n, "count"),
            "games.evals": (evals / n, "count"),
            "games.distinct_ratio": (counts["distinct"] / evals if evals else 0.0, "ratio"),
            "sampling.calls": (totals.calls["sampling.sample"] / n, "count"),
            "sampling.rows": (counts["rows"] / n, "count"),
            "sampling.enumerated_rows": (counts["enumerated_rows"] / n, "count"),
            "sampling.unique_row_ratio": (
                counts["unique_rows"] / counts["rows"] if counts["rows"] else 0.0,
                "ratio",
            ),
            "regression.design_mb_computed": (counts["design_bytes"] / n / 1e6, "MB"),
            "regression.solve_calls": (solves / n, "count"),
            "regression.solve_gflop_computed": (counts["solve_flop"] / n / 1e9, "GFLOP"),
            "regression.solve_gflops": (
                counts["solve_flop"] / 1e9 / solve_s if solve_s else 0.0,
                "GFLOP/s",
            ),
            "regression.rank_deficient_frac": (
                counts["rank_deficient"] / solves if solves else 0.0,
                "ratio",
            ),
            "evaluation.run_ms": (totals.total_ns["evaluation.run_benchmark"] / n / 1e6, "ms"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
        }
    )
    return out
