"""Tests of the benchmark's own code: span arithmetic, seeded inputs, output checks.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import numpy as np
import pytest

import run

run.import_library()

import spans  # noqa: E402
import workloads  # noqa: E402
from polyshap import SamplerConfig, make_random_game, mobius_exact_shapley, polyshap  # noqa: E402
from polyshap.frontier import k_additive  # noqa: E402


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    #             root  a   b   a.1  c
    start = [0, 10, 30, 15, 90]
    end = [100, 40, 60, 20, 120]
    parent = [-1, 0, 0, 1, 0]
    # a and b overlap (their union is 10..60); c is clipped to the root's end at 100.
    assert spans.self_times(start, end, parent) == [100 - 50 - 10, 30 - 5, 30, 5, 30]


def test_self_time_of_a_leaf_is_its_duration():
    assert spans.self_times([5], [12], [-1]) == [7]


def test_tracer_records_parents_estimates_and_restores_patches():
    class Api:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Api.inner(Api.inner(x))

    original_inner = Api.inner
    tracer = spans.Tracer()
    with tracer.patched([spans.Patch(Api, "inner", "inner"), spans.Patch(Api, "outer", "outer")]):
        tracer.current_estimate = 7
        assert Api.outer(1) == 3
    assert Api.inner is original_inner
    assert [tracer.names[n] for n in tracer.name] == ["outer", "inner", "inner"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.estimate) == [7, 7, 7]
    totals = spans.totals_by_name(tracer)
    assert totals.calls == {"outer": 1, "inner": 2}
    assert totals.self_ns["outer"] == totals.total_ns["outer"] - totals.total_ns["inner"]


def test_hook_sees_arguments_and_result():
    seen = []
    tracer = spans.Tracer()
    traced = tracer.wrap("f", lambda a, b=0: a * b, hook=lambda args, kw, res: seen.append((args, kw, res)))
    assert traced(3, b=4) == 12
    assert seen == [((3,), {"b": 4}, 12)]


def test_derived_seeds_repeat_for_one_seed_and_differ_across_seeds_and_salts():
    assert workloads.derive_seeds(5, "x", 4) == workloads.derive_seeds(5, "x", 4)
    assert workloads.derive_seeds(5, "x", 4) != workloads.derive_seeds(6, "x", 4)
    assert workloads.derive_seeds(5, "x", 4) != workloads.derive_seeds(5, "y", 4)


def _pool_signature(seed: int) -> list[tuple]:
    inputs = workloads.SolveWorkload(seed, 1.0, run.ROOT).make_inputs(3)
    return [(inp.game.terms, inp.sampler_seed, inp.frontier_seed) for inp in inputs]


def test_pooled_inputs_repeat_for_one_seed_and_differ_across_seeds():
    assert _pool_signature(1) == _pool_signature(1)
    assert _pool_signature(1) != _pool_signature(2)


def _sweep_unit(seed: int, unit: int):
    sweep = workloads.SweepWorkload(seed, 1.0, run.ROOT)
    sweep.setup()
    config = sweep.unit_config(unit)
    return [(g.seed, g.instances) for g in config.games], config.seeds, sweep.truths[0].tolist()


def test_sweep_requests_repeat_for_one_seed_and_differ_across_seeds():
    assert _sweep_unit(3, 31) == _sweep_unit(3, 31)
    assert _sweep_unit(3, 31) != _sweep_unit(4, 31)


def test_efficiency_check_rejects_an_estimate_shifted_by_1e_6():
    game = make_random_game(6, 3, 12, seed=0)
    v_full, v_empty = workloads.mobius_extremes(game)
    estimate = polyshap(game, k_additive(6, 2), SamplerConfig(40, paired=True, seed=1)).shapley
    assert workloads.efficiency_gap(estimate, v_full, v_empty) <= workloads.EFFICIENCY_TOL
    assert workloads.efficiency_gap(estimate + 1e-6, v_full, v_empty) > workloads.EFFICIENCY_TOL


def test_pooled_check_counts_the_shifted_estimate_as_failed():
    game = make_random_game(6, 3, 12, seed=0)
    truth = mobius_exact_shapley(game)
    budget = workloads.SolveWorkload.budget

    def outcome(shapley):
        return workloads.Outcome(shapley, truth, *workloads.mobius_extremes(game), budget, budget)

    checks = workloads.SolveWorkload(0, 1.0, run.ROOT).check(
        [(0, outcome(truth.copy())), (1, outcome(truth + 1e-6))]
    )
    assert checks.attempted == 2
    assert checks.failed == 1
    assert list(checks.failures) == ["estimate 1"]
    assert not checks.correct


def test_accuracy_check_fails_when_no_better_than_the_zero_estimate():
    checks = workloads.Checks()
    checks.check_accuracy([1.0, 1.0], [1.0, 1.0])
    assert checks.errors and not checks.correct
    checks = workloads.Checks()
    checks.check_accuracy([0.1], [1.0])
    assert checks.correct


@pytest.mark.parametrize(
    "n, pct, beyond",
    [(215, 95, 10), (100, 90, 10), (20, 50, 10), (12, 50, 6), (1, 50, 0)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct, beyond):
    samples = list(np.arange(n, dtype=float))
    assert run.tail_percentile(n) == pct
    value = run.percentile(samples, pct)
    assert sum(1 for x in samples if x > value) == beyond
    assert value >= run.percentile(samples, 50)
