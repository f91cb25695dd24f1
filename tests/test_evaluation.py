import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyshap.evaluation import (
    BenchmarkConfig,
    GameSpec,
    MethodSpec,
    _average_ranks,
    bruteforce_shapley,
    benchmark_config_from_dict,
    mse,
    oracle_shapley,
    per_instance_csv,
    plot_data,
    precision_at_k,
    rows_to_csv,
    run_benchmark,
    spearman,
)
from polyshap.games import LookupGame, MobiusGame, make_random_game, mobius_exact_shapley

from conftest import shapley_by_permutation_enum


class TestBruteforceShapley:
    def test_additive_game(self):
        g = MobiusGame(3, {1: 1.0, 2: 2.0, 4: 3.0})
        assert np.allclose(bruteforce_shapley(g).shapley, [1, 2, 3])

    def test_majority_game(self):
        d = 3
        table = {m: (1.0 if bin(m).count("1") >= 2 else 0.0) for m in range(8)}
        g = LookupGame(d, table)
        assert np.allclose(bruteforce_shapley(g).shapley, [1 / 3, 1 / 3, 1 / 3])

    def test_dual_oracle_agreement_d10(self):
        g = make_random_game(10, 3, 40, seed=1)
        bf = bruteforce_shapley(g).shapley
        mb = mobius_exact_shapley(g)
        assert np.max(np.abs(bf - mb)) < 1e-10

    def test_matches_permutation_enumeration(self):
        g = make_random_game(5, 3, 10, seed=2)
        bf = bruteforce_shapley(g).shapley
        enum = shapley_by_permutation_enum(make_random_game(5, 3, 10, seed=2))
        assert np.max(np.abs(bf - enum)) < 1e-12

    def test_efficiency(self):
        g = make_random_game(9, 3, 30, seed=3)
        bf = bruteforce_shapley(g)
        v_empty, v_full = g.evaluate_many([0, (1 << 9) - 1])
        total = v_full - v_empty
        assert bf.shapley.sum() == pytest.approx(total, abs=1e-10)

    def test_d_too_large(self):
        with pytest.raises(ValueError):
            bruteforce_shapley(MobiusGame(15, {}))

    def test_oracle_dispatch(self):
        assert oracle_shapley(make_random_game(6, 2, 8, seed=4)).method == "mobius"
        assert oracle_shapley(LookupGame(3, {m: 0.0 for m in range(8)})).method == "bruteforce"


class TestMse:
    def test_identical_is_zero(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_third(self):
        assert mse([1, 2, 3], [1, 2, 4]) == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])


class TestPrecisionAtK:
    def test_identical(self):
        v = list(range(10))
        assert precision_at_k(v, v, 5) == 1.0

    def test_disjoint_top_sets(self):
        est = [9, 8, 7, 6, 5, 0, 0, 0, 0, 0]
        tru = [0, 0, 0, 0, 0, 5, 6, 7, 8, 9]
        assert precision_at_k(est, tru, 5) == 0.0

    def test_k_equals_d(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        assert precision_at_k(a, b, 8) == 1.0

    def test_ranks_by_absolute_value(self):
        est = [-10.0, 1.0, 0.0]
        tru = [10.0, 0.5, 0.0]
        assert precision_at_k(est, tru, 1) == 1.0

    def test_tie_break_by_lower_index(self):
        est = [1.0, 1.0, 0.0]
        tru = [1.0, 0.0, 1.0]
        # top-1 of est is player 0 (tie 0 vs 1 broken low), of truth player 0 (tie 0 vs 2)
        assert precision_at_k(est, tru, 1) == 1.0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            precision_at_k([1.0], [1.0], 2)


class TestSpearman:
    def test_identical_rankings(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed_half(self):
        assert spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_zero_variance_flagged(self):
        with pytest.warns(UserWarning):
            assert spearman([1.0, 1.0, 1.0], [1, 2, 3]) == 0.0

    def test_ties_average_ranks(self):
        # ranks of [1, 1, 2] are [1.5, 1.5, 3]
        val = spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        expected = np.corrcoef([1.5, 1.5, 3.0], [1.0, 2.0, 3.0])[0, 1]
        assert val == pytest.approx(expected)


def average_ranks_loop(values: np.ndarray) -> np.ndarray:
    """The tie-run loop that ``_average_ranks`` replaced, kept as its reference."""
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


class TestAverageRanks:
    @settings(max_examples=300)
    @given(
        st.lists(
            st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0]) | st.floats(allow_nan=False),
            min_size=1,
            max_size=16,
        )
    )
    def test_equals_the_loop(self, values):
        # a small pool makes ties, -0.0 against 0.0 included
        a = np.array(values)
        assert _average_ranks(a).tobytes() == average_ranks_loop(a).tobytes()


class TestMetricInvariances:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_simultaneous_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        perm = rng.permutation(8)
        assert mse(a[perm], b[perm]) == pytest.approx(mse(a, b))
        assert precision_at_k(a[perm], b[perm], 5) == pytest.approx(precision_at_k(a, b, 5))
        assert spearman(a[perm], b[perm]) == pytest.approx(spearman(a, b))

    def test_spearman_monotone_invariance(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        assert spearman(np.exp(a), b) == pytest.approx(spearman(a, b))

    def test_precision_monotone_invariance_on_abs(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        scaled = np.sign(a) * (np.abs(a) ** 3)
        assert precision_at_k(scaled, b, 3) == pytest.approx(precision_at_k(a, b, 3))


def partial_lookup_spec(tmp_path, d=3):
    """A lookup game missing its grand coalition: the oracle cannot enumerate it."""
    path = tmp_path / "partial.game"
    rows = [f"d={d}"] + [f"{m:0{d}b}"[::-1] + ",1.0" for m in range((1 << d) - 1)]
    path.write_text("\n".join(rows) + "\n")
    return GameSpec(game_id="broken", kind="file", path=str(path))


def tiny_config(**overrides):
    base = dict(
        games=[GameSpec(game_id="g", kind="random", d=6, max_order=2, n_terms=10, seed=5, instances=2)],
        methods=[
            MethodSpec(estimator="kernelshap", paired=True),
            MethodSpec(estimator="polyshap", frontier_spec="2", paired=True),
        ],
        budgets=[34, 64],
        seeds=[0, 1, 2],
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


class TestRunBenchmark:
    def test_full_budget_mse_vanishes(self):
        config = tiny_config(budgets=[64])
        result = run_benchmark(config)
        for row in result.rows:
            if row.metric == "mse":
                assert row.mean < 1e-12

    def test_deterministic_csv_bytes(self):
        a = run_benchmark(tiny_config())
        b = run_benchmark(tiny_config())
        csv_a = rows_to_csv(a.rows, a.skipped, a.config.metrics)
        csv_b = rows_to_csv(b.rows, b.skipped, b.config.metrics)
        assert csv_a == csv_b

    def test_jobs_do_not_change_output(self, tmp_path):
        config = tiny_config(
            games=tiny_config().games + [partial_lookup_spec(tmp_path, d=6)], budgets=[16, 34, 64]
        )
        a = run_benchmark(config, jobs=1)
        b = run_benchmark(config, jobs=2)
        assert a.runs and a.skipped and a.failures
        assert a.runs == b.runs
        assert a.skipped == b.skipped
        assert a.failures == b.failures
        assert rows_to_csv(a.rows, a.skipped, a.config.metrics) == rows_to_csv(
            b.rows, b.skipped, b.config.metrics
        )

    @pytest.mark.parametrize("threads", [None, "3"])
    def test_jobs_leave_the_parent_environment(self, monkeypatch, threads):
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        run_benchmark(tiny_config(budgets=[34], seeds=[0]), jobs=2)
        assert os.environ.get("OPENBLAS_NUM_THREADS") == threads

    def test_game_oracle_and_frontier_built_once(self, tmp_path, monkeypatch):
        import polyshap.evaluation as evaluation
        import polyshap.games as games

        calls = {"oracle": 0, "random_game": 0, "frontier": 0, "file_read": 0}
        path = tmp_path / "full.game"
        games.dump_lookup_file(make_random_game(6, 2, 10, seed=9), str(path))

        def counted(module, name, key, only_path=None):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                if only_path is None or args[0] == only_path:
                    calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(evaluation, "oracle_shapley", "oracle")
        counted(evaluation, "make_random_game", "random_game")
        counted(evaluation, "parse_frontier_spec", "frontier")
        counted(evaluation, "empty_frontier", "frontier")
        counted(games, "read_rows", "file_read", str(path))
        file_spec = GameSpec(game_id="file", kind="file", path=str(path), instances=2)
        config = tiny_config(games=tiny_config().games + [file_spec])
        # each constructed config builds one frontier per (game spec, method):
        # one game spec for the inner tiny_config(), two for this config
        builds = (1 + len(config.games)) * len(config.methods)
        assert calls["frontier"] == builds
        result = run_benchmark(config)

        assert not result.failures
        random_instances = config.games[0].instances
        assert calls["oracle"] == random_instances + file_spec.instances
        assert calls["random_game"] == random_instances
        assert calls["frontier"] == builds  # run_benchmark builds none
        # the config reads the file once for its d when built, then each instance reads it
        assert calls["file_read"] == 1 + file_spec.instances

        # a JSON config is validated once, when it is built, like any other
        calls["file_read"] = 0
        raw = {
            "games": [{"id": "file", "type": "file", "path": str(path), "instances": 2}],
            "methods": [{"estimator": "kernelshap"}],
            "budgets": config.budgets,
            "seeds": config.seeds,
        }
        run_benchmark(benchmark_config_from_dict(raw))
        assert calls["file_read"] == 1 + file_spec.instances
        assert calls["frontier"] == builds + 1

    def test_absent_marker_when_columns_exceed_budget(self):
        config = tiny_config(budgets=[16, 64])
        result = run_benchmark(config)
        # pairs frontier has d'=21 columns > 16 budget
        assert any(s.budget == 16 and s.method == "polyshap" for s in result.skipped)
        csv_text = rows_to_csv(result.rows, result.skipped, config.metrics)
        assert "absent" in csv_text

    def test_paired_methods_share_batches(self):
        # degree-3 games: neither method is exact, so agreement is the
        # paired-equivalence theorem at work rather than a zero floor
        config = tiny_config(
            games=[GameSpec(game_id="g", kind="random", d=6, max_order=3, n_terms=15, seed=5, instances=2)],
            budgets=[46],
        )
        result = run_benchmark(config)
        by_method = {}
        for row in result.rows:
            if row.metric == "mse":
                by_method[row.method] = (row.mean, row.sem)
        # paired equivalence: identical aggregated numbers after formatting
        a, b = by_method["kernelshap"], by_method["polyshap"]
        assert a[0] > 1e-6  # sanity: not comparing noise floors
        assert f"{a[0]:.9g}" == f"{b[0]:.9g}"
        assert f"{a[1]:.9g}" == f"{b[1]:.9g}"

    def test_budget_accounting_across_sweep(self):
        result = run_benchmark(tiny_config())
        for run in result.runs:
            assert run.evals_used == run.budget

    def test_budget_above_capacity_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark(tiny_config(budgets=[100]))

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_benchmark(tiny_config(), jobs=jobs)

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark(tiny_config(methods=[]))

    def test_top_player_matches_at_full_budget(self):
        config = tiny_config(budgets=[64])
        result = run_benchmark(config)
        for row in result.rows:
            if row.metric == "precision_at_k":
                assert row.mean == 1.0

    def test_argmax_matches_oracle_at_full_budget(self):
        from polyshap.estimators import polyshap
        from polyshap.frontier import k_additive
        from polyshap.sampling import SamplerConfig

        for seed in range(5):
            g = make_random_game(7, 3, 20, seed=40 + seed)
            truth = mobius_exact_shapley(g)
            result = polyshap(g, k_additive(7, 2), SamplerConfig(budget_m=1 << 7, seed=seed))
            assert np.argmax(np.abs(result.shapley)) == np.argmax(np.abs(truth))

    def test_per_instance_breakdown(self):
        result = run_benchmark(tiny_config(budgets=[64]))
        text = per_instance_csv(result.runs, result.config.metrics)
        assert "g#0" in text and "g#1" in text

    def test_plot_data_marks_absent_points(self):
        result = run_benchmark(tiny_config(budgets=[16, 34, 64]))
        series = plot_data(result)["series"]["g"]
        # the pairs frontier (d'=21) is absent at 16, numeric at 34 and 64
        assert [(s.method, s.budget) for s in result.skipped] == [("polyshap", 16)]
        for metric in result.config.metrics:
            points = series[metric]["polyshap|k=2|paired"]
            assert points[0] == {"budget": 16, "status": "absent"}
            assert [p["budget"] for p in points] == [16, 34, 64]
            assert all("mean" in p for p in points[1:])

    def test_plot_data_structure(self):
        result = run_benchmark(tiny_config(budgets=[34]))
        data = plot_data(result)
        assert "series" in data and "g" in data["series"]
        assert "mse" in data["series"]["g"]


def full_raw_config():
    """A valid JSON config that names every key of the schema."""
    return {
        "games": [
            {"id": "g", "type": "random", "d": 5, "max_order": 2, "n_terms": 5, "seed": 1, "instances": 1, "path": ""}
        ],
        "methods": [{"estimator": "polyshap", "frontier": "2", "paired": True, "frontier_seed": 0}],
        "budgets": [20],
        "seeds": [0],
        "metrics": ["mse"],
        "k_for_precision": 5,
    }


def json_values(value, path=()):
    """(path, value) for every value nested in a JSON document, the root excluded."""
    if path:
        yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from json_values(item, path + (key,))


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


class TestConfigParsing:
    def test_from_dict_roundtrip(self):
        raw = {
            "games": [
                {"id": "a", "type": "random", "d": 6, "max_order": 2, "n_terms": 8, "seed": 1, "instances": 2}
            ],
            "methods": [{"estimator": "kernelshap", "paired": True}],
            "budgets": [20],
            "seeds": [0, 1],
        }
        config = benchmark_config_from_dict(raw)
        assert config.games[0].instances == 2
        assert config.k_for_precision == 5

    def test_full_config_names_every_field(self):
        # so that test_wrong_json_type_is_value_error reaches every field of the schema
        def keys(spec):
            return {f.metadata.get("key", f.name) for f in fields(spec) if f.init}

        raw = full_raw_config()
        assert set(raw) == keys(BenchmarkConfig)
        assert set(raw["games"][0]) == keys(GameSpec)
        assert set(raw["methods"][0]) == keys(MethodSpec)

    def test_full_config_loads(self):
        config = benchmark_config_from_dict(full_raw_config())
        assert config.methods == [MethodSpec("polyshap", "2", True, 0)]
        assert [[f.order_label for f in row] for row in config.frontiers] == [["k=2"]]

    @settings(max_examples=300)
    @given(st.data())
    def test_wrong_json_type_is_value_error(self, data):
        # any one value of a valid config, replaced by one of another JSON type
        raw = full_raw_config()
        path, old = data.draw(st.sampled_from(list(json_values(raw))))
        new = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)))
        assume(not (path[-1] == "frontier" and new is None))  # null is the frontier's default
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
        with pytest.raises(ValueError):
            benchmark_config_from_dict(raw)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: GameSpec("g", "random", instances="2"), "instances must be an integer, got '2'"),
            (lambda: GameSpec("g", "random", d=True), "d must be an integer, got True"),
            (lambda: GameSpec("g", "random", d=6, seed=1.0), "seed must be an integer, got 1.0"),
            (lambda: GameSpec(7, "random"), "game_id must be a string, got 7"),
            (lambda: GameSpec("g", None), "kind must be a string, got None"),
            (lambda: GameSpec("g", "file", path=0), "path must be a string, got 0"),
            (lambda: MethodSpec("polyshap", 5), "frontier_spec must be a string, got 5"),
            (lambda: MethodSpec(1), "estimator must be a string, got 1"),
            (lambda: MethodSpec("polyshap", "2", frontier_seed=False), "frontier_seed must be an integer, got False"),
        ],
        ids=[
            "instances-string", "d-bool", "seed-float", "id-number", "kind-none", "path-number",
            "frontier-number", "estimator-number", "frontier-seed-bool",
        ],
    )
    def test_spec_built_in_python_rejects_wrong_type(self, build, message):
        with pytest.raises(ValueError) as raised:
            build()
        assert type(raised.value) is ValueError
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"budgets": [20.5]}, "budgets[0] must be an integer, got 20.5"),
            ({"seeds": ["0"]}, "seeds[0] must be an integer, got '0'"),
            ({"budgets": [True]}, "budgets[0] must be an integer, got True"),
            ({"k_for_precision": 2.5}, "k_for_precision must be an integer, got 2.5"),
            ({"budgets": [20, "20"]}, "budgets[1] must be an integer, got '20'"),
        ],
        ids=["budget-float", "seed-string", "budget-bool", "k-float", "budget-string"],
    )
    def test_config_built_in_python_rejects_wrong_type(self, overrides, message):
        with pytest.raises(ValueError) as raised:
            tiny_config(**overrides)
        assert type(raised.value) is ValueError
        assert str(raised.value) == message

    def test_replace_validates_again(self):
        config = tiny_config(budgets=[20])
        smaller = [replace(config.games[0], d=5)]
        assert config.dims == [6]
        assert replace(config, games=smaller).dims == [5]
        # configs made by replace share equal frontiers rather than each keeping a copy
        assert replace(config, seeds=[9]).frontiers[0][1] is config.frontiers[0][1]
        with pytest.raises(ValueError, match="budget 64 exceeds"):
            replace(config, games=smaller, budgets=[64])

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            benchmark_config_from_dict({"games": []})

    def test_unknown_metric_rejected(self):
        raw = {
            "games": [{"id": "a", "type": "random", "d": 6, "max_order": 2, "n_terms": 8, "seed": 1}],
            "methods": [{"estimator": "kernelshap"}],
            "budgets": [20],
            "seeds": [0],
            "metrics": ["rmse"],
        }
        with pytest.raises(ValueError):
            benchmark_config_from_dict(raw)

    def test_aggregate_pools_instances_and_seeds(self):
        result = run_benchmark(tiny_config(budgets=[64]))
        for row in result.rows:
            assert row.n_runs == 6  # 2 instances x 3 seeds

    def test_oracle_failure_recorded_not_raised(self, tmp_path):
        # partial lookup table: the oracle cannot enumerate it, so the cell
        # must fail in place while the sweep carries on
        config = tiny_config(
            games=[
                GameSpec(game_id="ok", kind="random", d=6, max_order=2, n_terms=8, seed=5),
                partial_lookup_spec(tmp_path),
            ],
            budgets=[8],
            methods=[MethodSpec(estimator="kernelshap", paired=False)],
        )
        result = run_benchmark(config)
        assert any(f.game_id == "broken" for f in result.failures)
        assert all(row.game_id == "ok" for row in result.rows)

    def test_oracle_failure_names_each_cell(self, tmp_path):
        methods = [
            MethodSpec(estimator="kernelshap", paired=False),
            MethodSpec(estimator="polyshap", frontier_spec="2", paired=True),
        ]
        config = tiny_config(games=[partial_lookup_spec(tmp_path)], budgets=[6, 8], methods=methods)
        result = run_benchmark(config)
        assert not result.runs and not result.skipped
        cells = sorted((f.method, f.frontier, f.paired, f.budget) for f in result.failures)
        expected = sorted((*m.label(3), m.paired, b) for m in methods for b in (6, 8))
        assert cells == expected
        assert all(f.seed == -1 and f.instance == 0 for f in result.failures)
        assert all(f.error.startswith("LookupMissError") for f in result.failures)
