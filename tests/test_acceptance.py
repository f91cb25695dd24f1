"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The statistical criteria share one benchmark sweep (the bundled d=10
config) through a session fixture so budget accounting, accuracy ordering,
and the paired-collapse byte comparison all refer to the same runs.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from polyshap.estimators import (
    kernelshap,
    kernelshap_from_batch,
    permutation_baseline,
    polyshap,
)
from polyshap.evaluation import (
    load_benchmark_config,
    run_benchmark,
)
from polyshap.frontier import k_additive, log_frontier, percent_of_order
from polyshap.games import dump_lookup_file, load_lookup_game, make_random_game, mobius_exact_shapley
from polyshap.regression import build_design
from polyshap.sampling import SamplerConfig, sample
from polyshap.verify import (
    ATTEMPTS_PER_TRIAL,
    verify_consistency,
    verify_leverage_closed_form,
    verify_oddk_conjecture,
    verify_paired_equivalence,
    verify_projection_lemma,
)

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "paired_vs_standard_d10.json"


@pytest.fixture(scope="session")
def sweep():
    config = load_benchmark_config(str(CONFIG_PATH))
    start = time.perf_counter()
    # one BLAS thread per worker, so the bytes are those of the one-thread sweep
    result = run_benchmark(config, jobs=min(2, len(os.sched_getaffinity(0))))
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_01_consistency():
    start = time.perf_counter()
    report = verify_consistency(dims=(4, 6, 8, 10), games_per_dim=20, tolerance=1e-7)
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 1 consistency: max dev {report.max_deviation:.3e} over "
        f"{report.n_trials} runs in {elapsed:.1f}s"
    )
    assert report.passed, report.summary()
    assert elapsed < 60.0
    print("ACCEPTANCE 1 consistency: PASS")


def test_criterion_02_paired_equivalence():
    start = time.perf_counter()
    report = verify_paired_equivalence(dims=(6, 8, 10), trials_per_dim=50, tolerance=1e-6)
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 2 paired-equivalence: max dev {report.max_deviation:.3e} over "
        f"{report.n_trials} trials ({report.discarded} discarded) in {elapsed:.1f}s"
    )
    assert report.passed, report.summary()
    assert elapsed < 120.0
    print("ACCEPTANCE 2 paired-equivalence: PASS")


def test_criterion_03_degree2_exact_recovery():
    d = 8
    frontier2 = k_additive(d, 2)
    budget = 2 * frontier2.n_columns + 2
    worst = 0.0
    done = 0
    attempt = 0
    discarded = 0
    while done < 30 and attempt < ATTEMPTS_PER_TRIAL * 30:
        game = make_random_game(d, 2, 20, seed=4000 + attempt)
        truth = mobius_exact_shapley(game)
        cfg = SamplerConfig(budget_m=budget, paired=True, seed=attempt)
        attempt += 1
        batch = sample(cfg, game)
        if np.linalg.matrix_rank(build_design(batch, frontier2).matrix) < frontier2.n_columns:
            discarded += 1
            continue
        estimate = kernelshap_from_batch(batch).shapley
        worst = max(worst, float(np.max(np.abs(estimate - truth))))
        done += 1
    assert done == 30, f"only {done} of 30 full-rank draws in {attempt} attempts"
    print(
        f"ACCEPTANCE 3 degree-2 exact recovery: max dev {worst:.3e} over 30 trials "
        f"({discarded} discarded)"
    )
    assert worst < 1e-7
    print("ACCEPTANCE 3 degree-2 exact recovery: PASS")


def test_criterion_04_projection_lemma():
    report = verify_projection_lemma(
        n_systems=20, n_rows=100, n_cols=6, n_cols_extended=10, tolerance=1e-8
    )
    print(f"ACCEPTANCE 4 projection lemma: max dev {report.max_deviation:.3e} over 20 systems")
    assert report.passed, report.summary()
    print("ACCEPTANCE 4 projection lemma: PASS")


def test_criterion_05_leverage_closed_form():
    report = verify_leverage_closed_form(dims=(5, 6, 8), tolerance=1e-6)
    print(
        f"ACCEPTANCE 5 leverage closed form: max relative deviation {report.max_deviation:.3e} "
        f"at d in (5, 6, 8)"
    )
    assert report.passed, report.summary()
    print("ACCEPTANCE 5 leverage closed form: PASS")


def _median_mse(result, method, frontier, paired, budget):
    vals = [
        r.metrics["mse"]
        for r in result.runs
        if r.method == method
        and r.frontier == frontier
        and r.paired == paired
        and r.budget == budget
    ]
    assert len(vals) >= 900, f"expected >= 900 runs, got {len(vals)}"
    return float(np.median(vals))


def test_criterion_06_accuracy_ordering(sweep):
    result, elapsed = sweep
    ksh_220 = _median_mse(result, "kernelshap", "k=1", False, 220)
    poly2_220 = _median_mse(result, "polyshap", "k=2", False, 220)
    poly2_350 = _median_mse(result, "polyshap", "k=2", False, 350)
    poly3_350 = _median_mse(result, "polyshap", "k=3", False, 350)
    print(
        f"ACCEPTANCE 6 accuracy ordering (sweep {elapsed:.0f}s): at m=220 median MSE "
        f"2-poly {poly2_220:.3e} vs kernelshap {ksh_220:.3e}; at m=350 median MSE "
        f"3-poly {poly3_350:.3e} vs 2-poly {poly2_350:.3e}"
    )
    assert elapsed < 300.0
    assert poly2_220 < ksh_220
    assert poly3_350 < poly2_350
    print("ACCEPTANCE 6 accuracy ordering: PASS")


def test_criterion_07_paired_collapse(sweep):
    result, _ = sweep
    series = {}
    for row in result.rows:
        if row.paired and row.method in ("kernelshap", "polyshap") and row.frontier in ("k=1", "k=2"):
            key = (row.method, row.frontier)
            series.setdefault(key, {})[(row.budget, row.metric)] = (
                format(row.mean, ".9g"),
                format(row.sem, ".9g"),
                row.n_runs,
            )
    ksh = series[("kernelshap", "k=1")]
    poly2 = series[("polyshap", "k=2")]
    shared = sorted(set(ksh) & set(poly2))
    assert shared, "no shared budgets between paired kernelshap and paired 2-polyshap"
    mismatches = [k for k in shared if ksh[k] != poly2[k]]
    print(
        f"ACCEPTANCE 7 paired collapse: {len(shared)} shared (budget, metric) cells, "
        f"{len(mismatches)} byte mismatches"
    )
    assert not mismatches, f"differing cells: {mismatches}"
    print("ACCEPTANCE 7 paired collapse: PASS")


def test_criterion_08_oddk_observation():
    report = verify_oddk_conjecture(d=8, trials=30, budget=220)
    print(
        f"ACCEPTANCE 8 odd-k conjecture: max |3-poly - 4-poly| = {report.max_deviation:.3e} "
        f"over {report.n_trials} paired full-rank trials (asserted < 1e-9)"
    )
    assert report.n_trials == 30
    assert report.max_deviation < 1e-9
    assert report.passed
    print("ACCEPTANCE 8 odd-k conjecture: PASS")


def test_criterion_09_budget_accounting(sweep):
    result, _ = sweep
    violations = [r for r in result.runs if r.evals_used != r.budget]
    print(
        f"ACCEPTANCE 9 budget accounting: {len(result.runs)} runs, "
        f"{len(violations)} budget violations"
    )
    assert len(result.runs) > 0
    assert not violations
    print("ACCEPTANCE 9 budget accounting: PASS")


def test_criterion_10_efficiency(tmp_path):
    results = []
    d = 8
    game_seeds = range(3)
    for gs in game_seeds:
        for paired in (False, True):
            for frontier in (
                k_additive(d, 1),
                k_additive(d, 2),
                percent_of_order(d, 3, 0.5, seed=gs),
                log_frontier(d, seed=gs),
            ):
                g = make_random_game(d, 3, 25, seed=600 + gs)
                cfg = SamplerConfig(budget_m=120, paired=paired, seed=gs)
                results.append(polyshap(g, frontier, cfg))
        g = make_random_game(d, 3, 25, seed=600 + gs)
        results.append(kernelshap(g, SamplerConfig(budget_m=40, paired=True, seed=gs)))
        g = make_random_game(d, 3, 25, seed=600 + gs)
        results.append(permutation_baseline(g, budget_m=100, seed=gs))
    # include a lookup-backed game exercised through file IO
    g = make_random_game(4, 2, 6, seed=99)
    path = tmp_path / "t.game"
    dump_lookup_file(g, str(path))
    lookup = load_lookup_game(str(path))
    results.append(polyshap(lookup, k_additive(4, 2), SamplerConfig(budget_m=16, seed=0)))

    worst = max(r.diagnostics["efficiency_gap"] for r in results)
    print(f"ACCEPTANCE 10 efficiency: worst relative gap {worst:.3e} over {len(results)} results")
    assert worst <= 1e-8
    print("ACCEPTANCE 10 efficiency: PASS")
