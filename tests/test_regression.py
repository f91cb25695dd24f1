import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyshap
from polyshap.evaluation import bruteforce_shapley
from polyshap.frontier import (
    InteractionFrontier,
    empty_frontier,
    k_additive,
    log_frontier,
    percent_of_order,
)
from polyshap.games import LookupGame, MobiusGame, make_random_game
from polyshap.regression import (
    DesignSystem,
    _cholesky_solve,
    build_design,
    constrained_lstsq,
    solve_constrained,
)
from polyshap.sampling import SamplerConfig, sample


def mask_of(players):
    return sum(1 << i for i in players)


def reference_lstsq(matrix, target, constraint_value):
    """The projected minimum-norm SVD solve, kept verbatim as the reference.

    Returns the coefficients and the rank-deficiency flag.
    """
    m, n_cols = matrix.shape
    row_sums = matrix.sum(axis=1)
    projected = matrix - row_sums[:, None] / n_cols
    rhs = target - row_sums * (constraint_value / n_cols)
    beta, _, rank, singulars = np.linalg.lstsq(projected, rhs, rcond=None)
    coefficients = beta - beta.mean() + constraint_value / n_cols
    return coefficients, int(rank) < n_cols - 1


def reference_refined_cholesky(matrix, target, constraint_value):
    """The Cholesky path on an eliminated copy A = X[:, 1:] - X[:, :1] of the design,
    kept as the reference for the Gram-first solve.

    Returns the coefficients, or None when a test rejects the result.
    """
    eps = np.finfo(float).eps
    eliminated = matrix[:, 1:] - matrix[:, :1]
    rhs = target - matrix[:, 0] * constraint_value
    gram = eliminated.T @ eliminated
    gram_max = float(gram.diagonal().max(initial=0.0))
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    if float((lower.diagonal() ** 2).min(initial=np.inf)) < np.sqrt(eps) * gram_max:
        return None
    x = _cholesky_solve(lower, eliminated.T @ rhs)
    step = _cholesky_solve(lower, eliminated.T @ (rhs - eliminated @ x))
    x += step
    if np.abs(step).max(initial=0.0) > np.sqrt(eps) * np.abs(x).max(initial=0.0):
        return None
    return np.concatenate(([constraint_value - x.sum()], x))


def weighted_design(rng, m, n_cols, weights):
    """A random 0/1 design with weighted rows and a weighted target."""
    return rng.integers(0, 2, (m, n_cols)) * weights[:, None], weights * rng.standard_normal(m)


class TestBuildDesign:
    def test_row_entries(self):
        d = 4
        frontier = InteractionFrontier(
            d, (mask_of([0, 1]), mask_of([0, 2])), "test"
        )
        g = MobiusGame(d, {mask_of([0]): 1.0})
        batch = sample(SamplerConfig(budget_m=16, paired=False, seed=0), g)
        system = build_design(batch, frontier)
        row = batch.masks.index(mask_of([0, 2]))
        w = batch.weights[row]
        assert system.matrix[row, 0] == pytest.approx(w)   # {0} present
        assert system.matrix[row, 1] == 0.0                # {1} absent
        assert system.matrix[row, 4] == 0.0                # {0,1} not contained
        assert system.matrix[row, 5] == pytest.approx(w)   # {0,2} contained
        assert system.target[row] == pytest.approx(w * 1.0)  # value({0,2}) - value(empty)

    def test_full_enumeration_shape(self):
        g = make_random_game(4, 2, 5, seed=1)
        batch = sample(SamplerConfig(budget_m=16, paired=False, seed=0), g)
        system = build_design(batch, empty_frontier(4))
        assert system.matrix.shape == (14, 4)

    def test_interaction_nonzero_iff_members_present(self):
        g = make_random_game(5, 2, 8, seed=2)
        frontier = k_additive(5, 3)
        batch = sample(SamplerConfig(budget_m=32, paired=False, seed=1), g)
        system = build_design(batch, frontier)
        for j, term in enumerate(frontier.terms):
            col = system.matrix[:, 5 + j]
            singles = system.matrix[:, [i for i in range(5) if term >> i & 1]]
            assert np.array_equal(col != 0, (singles != 0).all(axis=1))

    def test_dimension_mismatch(self):
        g = make_random_game(4, 2, 5, seed=1)
        batch = sample(SamplerConfig(budget_m=16, paired=False, seed=0), g)
        with pytest.raises(ValueError):
            build_design(batch, empty_frontier(5))


class TestSolveConstrained:
    def test_hand_checked_two_player_game(self):
        # full enumeration of the proper subsets of d=2; additive game
        # value({0})=1, value({1})=3, value(D)=4; the exact fit is (1, 3)
        g = LookupGame(2, {0: 0.0, 1: 1.0, 2: 3.0, 3: 4.0})
        batch = sample(SamplerConfig(budget_m=4, paired=False, seed=0), g)
        system = build_design(batch, empty_frontier(2))
        report = solve_constrained(system)
        assert np.allclose(report.coefficients, [1.0, 3.0], atol=1e-12)
        assert report.residual_norm < 1e-12

    def test_sum_equals_constraint(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m, n = 30, 7
            report = constrained_lstsq(
                rng.standard_normal((m, n)), rng.standard_normal(m), float(rng.standard_normal())
            )
            assert report.coefficients.sum() == pytest.approx(report.constraint_value, abs=1e-12)

    def test_zero_target_zero_constraint(self):
        report = constrained_lstsq(np.eye(4), np.zeros(4), 0.0)
        assert np.allclose(report.coefficients, 0.0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 5))
        y = rng.standard_normal(20)
        c = 1.7
        base = constrained_lstsq(x, y, c).coefficients
        scaled = constrained_lstsq(x, 3.0 * y, 3.0 * c).coefficients
        assert np.allclose(scaled, 3.0 * base, atol=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((25, 6))
        y = rng.standard_normal(25)
        c = -0.4
        perm = rng.permutation(6)
        base = constrained_lstsq(x, y, c).coefficients
        permuted = constrained_lstsq(x[:, perm], y, c).coefficients
        assert np.allclose(permuted, base[perm], atol=1e-10)

    def test_rank_deficiency_flagged_minimum_norm(self):
        x = np.zeros((6, 4))
        x[:, 0] = 1.0
        x[:, 1] = 1.0  # duplicate column
        y = np.arange(6.0)
        report = constrained_lstsq(x, y, 2.0)
        assert report.rank_deficient
        assert report.solver == "svd"
        assert report.coefficients.sum() == pytest.approx(2.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            constrained_lstsq(np.array([[np.nan, 1.0]]), np.array([1.0]), 0.0)

    def test_cutoff_reported(self):
        report = constrained_lstsq(np.eye(3), np.ones(3), 1.0)
        assert report.singular_value_cutoff > 0

    def test_single_column_returns_constraint(self):
        report = constrained_lstsq(np.ones((3, 1)), np.arange(3.0), 1.5)
        assert report.coefficients.tolist() == [1.5]
        assert report.rank == 0 and not report.rank_deficient


def _grid_frontiers(d, seed):
    yield k_additive(d, 1)
    yield k_additive(d, 2)
    yield k_additive(d, 3)
    yield log_frontier(d, seed)
    yield percent_of_order(d, 3, 0.5, seed)


def _grid_budgets(d, n_cols):
    budgets = (d + 2, n_cols, n_cols + 1, n_cols + 2, n_cols + 4, 3 * n_cols // 2 + 2,
               2 * n_cols + 2, 1 << d)
    return sorted({m for m in budgets if d + 2 <= m <= 1 << d})


class TestAgainstSvdReference:
    """The Cholesky path against the projected SVD solve on sampled designs.

    Budgets sit around d' so the grid holds underdetermined, square-ish and
    ill-conditioned designs. It guards both acceptance tests: without the
    refinement step the worst full-rank design here drifts by 5e-8 (d=10,
    k=3, m=176, pivot ratio 8e5), and without the pivot test 21 deficient
    designs, underdetermined ones among them, are reported full rank.
    """

    @pytest.mark.parametrize("d", [4, 5, 6, 8, 10])
    def test_grid(self, d):
        for seed in (0, 1):
            game = make_random_game(d, 3, 3 * d, seed=seed)
            for frontier in _grid_frontiers(d, seed):
                for budget in _grid_budgets(d, frontier.n_columns):
                    for paired in (False, True):
                        batch = sample(SamplerConfig(budget, paired, seed), game)
                        system = build_design(batch, frontier)
                        report = solve_constrained(system)
                        ref, deficient = reference_lstsq(
                            system.matrix, system.target, system.constraint_value
                        )
                        case = (frontier.order_label, budget, paired, seed)
                        assert report.rank_deficient == deficient, case
                        if deficient:
                            assert np.array_equal(report.coefficients, ref), case
                        else:
                            assert np.max(np.abs(report.coefficients - ref)) <= 1e-10, case

    def test_large_paired_design_takes_cholesky_path(self):
        d = 20
        game = make_random_game(d, 3, 4 * d, seed=0)
        batch = sample(SamplerConfig(budget_m=1000, paired=True, seed=0), game)
        report = solve_constrained(build_design(batch, k_additive(d, 2)))
        assert report.solver == "cholesky"
        assert not report.rank_deficient and report.rank == d + d * (d - 1) // 2 - 1
        assert 1.0 <= report.pivot_ratio < 1 / np.sqrt(np.finfo(float).eps)


class TestGramSolve:
    """The solve from X^T X against the reference solve on an eliminated copy."""

    @settings(max_examples=200)
    @given(st.data())
    def test_equals_the_eliminated_copy_solve(self, data):
        n_cols = data.draw(st.integers(1, 24), label="d'")
        m = data.draw(st.integers(2 * n_cols + 2, 6 * n_cols + 8), label="m")
        weights = np.array(data.draw(st.lists(st.floats(0.05, 4.0), min_size=m, max_size=m)))
        c = data.draw(st.floats(-10.0, 10.0), label="c")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        matrix, target = weighted_design(rng, m, n_cols, weights)
        report = constrained_lstsq(matrix, target, c)
        reference = reference_refined_cholesky(matrix, target, c)
        if reference is None:
            coefficients, deficient = reference_lstsq(matrix, target, c)
            assert report.solver == "svd"
            assert report.rank_deficient == deficient
            assert np.array_equal(report.coefficients, coefficients)
        else:
            assert report.solver == "cholesky" and not report.rank_deficient
            assert np.max(np.abs(report.coefficients - reference)) <= 1e-10

    def test_allocates_no_copy_of_the_design(self):
        # an eliminated copy of the design would take 8 m (d' - 1) bytes; the
        # solve needs only d' x d' arrays and m-vectors
        rng = np.random.default_rng(0)
        m, n_cols = 4000, 200
        matrix, target = weighted_design(rng, m, n_cols, rng.uniform(0.1, 2.0, m))
        system = DesignSystem(matrix, target, 1.5)
        tracemalloc.start()
        try:
            report = solve_constrained(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.solver == "cholesky"
        assert peak < matrix.nbytes / 2, (peak, matrix.nbytes)


class TestSolveExactFull:
    """At budget 2^d the sampler enumerates every proper coalition with weight sqrt(mu(S)),
    so ``polyshap.polyshap`` solves the exact full system."""

    @staticmethod
    def exact(game, frontier):
        return polyshap.polyshap(game, frontier, SamplerConfig(budget_m=1 << game.d))

    def test_empty_frontier_gives_exact_shapley(self):
        g = make_random_game(7, 3, 20, seed=3)
        result = self.exact(g, empty_frontier(7))
        oracle = bruteforce_shapley(g).shapley
        assert np.max(np.abs(result.representation - oracle)) < 1e-8

    def test_residual_zero_when_frontier_covers_game(self):
        g = make_random_game(6, 3, 15, seed=4)
        result = self.exact(g, k_additive(6, 3))
        assert result.diagnostics["residual_norm"] < 1e-8

    def test_unanimity_game_mass_on_pair(self):
        d = 3
        g = MobiusGame(d, {mask_of([0, 1]): 1.0})
        frontier = InteractionFrontier(d, (mask_of([0, 1]),), "pair")
        result = self.exact(g, frontier)
        assert np.allclose(result.representation, [0.0, 0.0, 0.0, 1.0], atol=1e-10)
        assert result.diagnostics["residual_norm"] < 1e-10


class TestProjectionLemma:
    def test_numerical_projection_lemma(self):
        # the constrained fit of X to y equals the constrained fit of X to
        # the extended system's fitted values, on random full-rank systems
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, d, d_plus = 40, 5, 8
            x = rng.standard_normal((n, d))
            x_plus = np.hstack([x, rng.standard_normal((n, d_plus - d))])
            y = rng.standard_normal(n)
            c = float(rng.standard_normal())
            direct = constrained_lstsq(x, y, c).coefficients
            beta_plus = constrained_lstsq(x_plus, y, c).coefficients
            indirect = constrained_lstsq(x, x_plus @ beta_plus, c).coefficients
            assert np.max(np.abs(direct - indirect)) < 1e-8


def test_import_leaves_scipy_out():
    # scipy.linalg would add 0.3-0.5 s to every import of the package; the
    # solver does its triangular solves with numpy alone.
    src = str(Path(polyshap.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, polyshap; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
