import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyshap
from polyshap.cli import main
from polyshap.coalitions import Coalition
from polyshap.evaluation import bruteforce_shapley
from polyshap.games import dump_lookup_file, load_mobius_game, make_random_game


@pytest.fixture()
def lookup_game_file(tmp_path):
    g = make_random_game(4, 2, 6, seed=31)
    path = tmp_path / "small.game"
    dump_lookup_file(g, str(path))
    return str(path), make_random_game(4, 2, 6, seed=31)


class TestExplain:
    def test_full_budget_exact(self, lookup_game_file, capsys):
        path, game = lookup_game_file
        code = main(["explain", "--game", path, "--method", "kernelshap", "--budget", "16", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        blob = json.loads(out)
        truth = bruteforce_shapley(game).shapley
        assert np.max(np.abs(np.array(blob["shapley"]) - truth)) < 1e-8
        assert blob["diagnostics"]["budget_used"] == 16

    def test_paired_order1_exact_on_degree2_game(self, tmp_path, capsys):
        from polyshap.games import mobius_exact_shapley, save_mobius_game

        g = make_random_game(8, 2, 15, seed=32)
        truth = mobius_exact_shapley(g)
        path = tmp_path / "deg2.mobius"
        save_mobius_game(g, str(path))

        code = main(
            ["explain", "--game", str(path), "--method", "polyshap", "--frontier", "1",
             "--budget", "100", "--paired", "--seed", "4"]
        )
        paired_out = json.loads(capsys.readouterr().out)
        assert code == 0
        paired_err = np.max(np.abs(np.array(paired_out["shapley"]) - truth))

        code = main(
            ["explain", "--game", str(path), "--method", "polyshap", "--frontier", "1",
             "--budget", "100", "--seed", "4"]
        )
        std_out = json.loads(capsys.readouterr().out)
        assert code == 0
        std_err = np.max(np.abs(np.array(std_out["shapley"]) - truth))

        assert paired_err < 1e-7
        assert std_err > paired_err

    def test_malformed_game_file(self, tmp_path, capsys):
        path = tmp_path / "broken.game"
        path.write_text("this is not a game file\n")
        code = main(["explain", "--game", str(path), "--budget", "16"])
        captured = capsys.readouterr()
        assert code == 3
        blob = json.loads(captured.out)
        assert blob["error"]["type"] == "parse"
        # no partial output: the error object is the only stdout document
        assert captured.out.strip().count("\n") == 0

    def test_mutated_game_file_exits_3(self, lookup_game_file, capsys):
        path, _ = lookup_game_file
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines.insert(3, lines[2])  # repeat the coalition on line 3
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        code = main(["explain", "--game", path, "--budget", "16"])
        assert code == 3
        blob = json.loads(capsys.readouterr().out)
        assert blob["error"]["type"] == "parse"
        assert blob["error"]["message"].startswith(f"{path}:4: repeated coalition")

    def test_non_finite_game_value_exits_3(self, tmp_path, capsys):
        path = tmp_path / "nan.game"
        path.write_text("d=2\n00,0.0\n10,1.0\n01,nan\n11,2.0\n")
        code = main(["explain", "--game", str(path), "--budget", "4"])
        assert code == 3
        blob = json.loads(capsys.readouterr().out)
        assert blob["error"]["type"] == "parse"
        assert blob["error"]["message"].startswith(f"{path}:4: non-finite value")

    def test_budget_out_of_bounds_is_config_error(self, lookup_game_file, capsys):
        path, _ = lookup_game_file
        code = main(["explain", "--game", path, "--budget", "3"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "config"

    def test_config_echo_on_stderr(self, lookup_game_file, capsys):
        path, _ = lookup_game_file
        main(["explain", "--game", path, "--budget", "16", "--seed", "7"])
        captured = capsys.readouterr()
        assert captured.err.startswith("config: ")
        assert '"seed": 7' in captured.err

    def test_permutation_method(self, lookup_game_file, capsys):
        path, game = lookup_game_file
        code = main(["explain", "--game", path, "--method", "permutation", "--budget", "13", "--seed", "1"])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["diagnostics"]["n_permutations"] == 3


class TestGenGame:
    def test_writes_valid_file(self, tmp_path, capsys):
        out = tmp_path / "g.mobius"
        code = main(["gen-game", "--d", "8", "--max-order", "3", "--n-terms", "20", "--seed", "1", "--out", str(out)])
        assert code == 0
        g = load_mobius_game(str(out))
        assert g.d == 8
        assert len(g.terms) == 20
        assert all(m.bit_count() <= 3 for m in g.terms)

    def test_roundtrip_table_equality(self, tmp_path, capsys):
        out = tmp_path / "g.mobius"
        main(["gen-game", "--d", "8", "--max-order", "3", "--n-terms", "20", "--seed", "1", "--out", str(out)])
        reloaded = load_mobius_game(str(out))
        fresh = make_random_game(8, 3, 20, seed=1)
        for mask in range(1 << 8):
            c = Coalition(mask, 8)
            assert reloaded.evaluate(c) == pytest.approx(fresh.evaluate(c), abs=1e-15)

    def test_same_seed_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.mobius", tmp_path / "b.mobius"
        main(["gen-game", "--d", "6", "--max-order", "2", "--n-terms", "9", "--seed", "3", "--out", str(a)])
        main(["gen-game", "--d", "6", "--max-order", "2", "--n-terms", "9", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_parameters(self, tmp_path, capsys):
        out = tmp_path / "g.mobius"
        code = main(["gen-game", "--d", "4", "--max-order", "1", "--n-terms", "99", "--seed", "0", "--out", str(out)])
        assert code == 2


class TestBenchmarkCommand:
    def make_config(self, tmp_path):
        config = {
            "games": [
                {"id": "mini", "type": "random", "d": 6, "max_order": 2, "n_terms": 8, "seed": 2, "instances": 2}
            ],
            "methods": [
                {"estimator": "kernelshap", "paired": True},
                {"estimator": "polyshap", "frontier": "2", "paired": True},
            ],
            "budgets": [40, 64],
            "seeds": [0, 1],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_writes_outputs(self, tmp_path, capsys):
        config = self.make_config(tmp_path)
        out = tmp_path / "results.csv"
        code = main(["benchmark", "--config", str(config), "--out", str(out), "--jobs", "1"])
        assert code == 0
        text = out.read_text()
        assert text.startswith("game,method,frontier,paired,budget,metric,mean,sem,n_runs\n")
        assert (tmp_path / "results.plot.json").exists()
        assert (tmp_path / "results.per_instance.csv").exists()

    def test_rerun_identical_bytes(self, tmp_path, capsys):
        config = self.make_config(tmp_path)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        main(["benchmark", "--config", str(config), "--out", str(out1), "--jobs", "1"])
        main(["benchmark", "--config", str(config), "--out", str(out2), "--jobs", "1"])
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "r1.plot.json").read_bytes() == (tmp_path / "r2.plot.json").read_bytes()

    def test_jobs_write_the_same_bytes(self, tmp_path):
        config = self.make_config(tmp_path)
        src = str(Path(polyshap.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for jobs in ("1", "2"):
            stem = tmp_path / f"jobs{jobs}"
            subprocess.run(
                [sys.executable, "-m", "polyshap.cli", "benchmark", "--config", str(config),
                 "--out", f"{stem}.csv", "--jobs", jobs],
                env=env, check=True, capture_output=True, timeout=120,
            )
            outputs.append(
                [Path(f"{stem}{suffix}").read_bytes() for suffix in (".csv", ".per_instance.csv", ".plot.json")]
            )
        assert outputs[0] == outputs[1]

    def test_empty_methods_is_config_error(self, tmp_path, capsys):
        config = {
            "games": [{"id": "g", "type": "random", "d": 5, "max_order": 2, "n_terms": 5, "seed": 1}],
            "methods": [],
            "budgets": [10],
            "seeds": [0],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code = main(["benchmark", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda raw: raw["methods"][0].update(paired="false"),
             "methods[0].paired must be true or false, got 'false'"),
            (lambda raw: raw["methods"][0].update(pairred=True), "unknown key 'pairred' in methods[0]"),
            (lambda raw: raw["games"][0].update(instance=2), "unknown key 'instance' in games[0]"),
            (lambda raw: raw.update(seed=3), "unknown key 'seed' in benchmark config"),
            (lambda raw: raw.update(k_for_precision=0), "k_for_precision must be >= 1, got 0"),
            (lambda raw: raw["games"][0].update(instances=0), "games[0]: game g needs instances >= 1, got 0"),
            (lambda raw: raw["methods"][0].update(estimator="polyshap", frontier="banana"),
             "methods[0]: bad frontier spec 'banana'"),
            (lambda raw: raw["methods"][0].update(estimator="polyshap", frontier="3@x"),
             "methods[0]: bad frontier spec '3@x'"),
            (lambda raw: raw["methods"][0].update(estimator="polyshap", frontier="12"),
             "methods[0]: k must be in [1, 5], got 12"),
            (lambda raw: raw["methods"][0].update(estimator="polyshap", frontier="3@150"),
             "methods[0]: percent must be in [0, 100], got 150"),
            (lambda raw: raw["methods"][0].update(estimator="polyshap", frontier="3@-1"),
             "methods[0]: percent must be in [0, 100], got -1"),
            (lambda raw: raw["methods"][0].update(frontier=5), "methods[0].frontier must be a string, got 5"),
            (lambda raw: raw["games"][0].update(path=0), "games[0].path must be a string, got 0"),
            (lambda raw: raw["games"][0].update(d=6.9), "games[0].d must be an integer, got 6.9"),
            (lambda raw: raw.update(budgets=[40.7]), "budgets[0] must be an integer, got 40.7"),
            (lambda raw: raw.update(seeds=[True]), "seeds[0] must be an integer, got True"),
            (lambda raw: raw["methods"][0].update(estimator="permutation", paired=True, frontier="2"),
             "methods[0]: permutation takes neither a frontier nor paired sampling"),
            (lambda raw: raw["methods"][0].update(frontier="3"),
             "methods[0]: kernelshap has no interaction frontier"),
            (lambda raw: raw["games"].append(dict(raw["games"][0], id="h", d=6.5)),
             "games[1].d must be an integer, got 6.5"),
            (lambda raw: raw["methods"].append({"estimator": "polyshap", "frontier": "12"}),
             "methods[1]: k must be in [1, 5], got 12"),
            (lambda raw: raw["games"][0].update(d=4, n_terms=500),
             "games[0]: n_terms must be in [1, 10] for d=4, max_order=2"),
            (lambda raw: raw["games"][0].pop("d"),
             "games[0]: player count must be an integer in [1, 128], got 0"),
        ],
        ids=[
            "paired-string", "method-key", "game-key", "top-key", "k-zero", "no-instances",
            "frontier-word", "frontier-percent", "frontier-order", "percent-above", "percent-below",
            "frontier-number", "path-number",
            "d-float", "budget-float", "seed-bool", "permutation-frontier", "kernelshap-frontier",
            "second-game-d-float", "second-method-frontier-order", "random-n-terms", "random-no-d",
        ],
    )
    def test_bad_config_input_is_config_error(self, tmp_path, capsys, change, message):
        config = {
            "games": [{"id": "g", "type": "random", "d": 5, "max_order": 2, "n_terms": 5, "seed": 1}],
            "methods": [{"estimator": "kernelshap", "paired": False}],
            "budgets": [10],
            "seeds": [0],
        }
        change(config)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code = main(["benchmark", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert json.loads(capsys.readouterr().out) == {"error": {"type": "config", "message": message}}
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_config_error(self, tmp_path, capsys, jobs):
        config = self.make_config(tmp_path)
        out = tmp_path / "o.csv"
        code = main(["benchmark", "--config", str(config), "--out", str(out), "--jobs", jobs])
        assert code == 2
        message = f"jobs must be >= 1, got {jobs}"
        assert json.loads(capsys.readouterr().out) == {"error": {"type": "config", "message": message}}
        assert not out.exists()

    def test_malformed_file_game_is_parse_error(self, tmp_path, capsys):
        game = tmp_path / "short.game"
        game.write_text("d=3\n10,1.0\n")
        config = {
            "games": [{"id": "g", "type": "file", "path": str(game)}],
            "methods": [{"estimator": "kernelshap"}],
            "budgets": [8],
            "seeds": [0],
        }
        path = tmp_path / "file.json"
        path.write_text(json.dumps(config))
        code = main(["benchmark", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 3
        blob = json.loads(capsys.readouterr().out)
        assert blob["error"]["type"] == "parse"
        assert blob["error"]["message"].startswith(f"{game}:2: ")

    def test_failure_lines_name_frontier_and_pairing(self, tmp_path, capsys):
        # lookup table without its grand coalition: the oracle fails on every cell
        rows = ["d=4"] + [f"{m:04b}"[::-1] + ",1.0" for m in range(15)]
        game = tmp_path / "partial.game"
        game.write_text("\n".join(rows) + "\n")
        config = {
            "games": [{"id": "g", "type": "file", "path": str(game)}],
            "methods": [
                {"estimator": "polyshap", "frontier": "2", "paired": True},
                {"estimator": "polyshap", "frontier": "3", "paired": True},
                {"estimator": "kernelshap"},
            ],
            "budgets": [16],
            "seeds": [0],
        }
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(config))
        code = main(["benchmark", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 0
        failures = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("failure:")]
        assert [ln.split(":")[1] for ln in failures] == [
            " g#0 kernelshap|k=1|standard budget=16 seed=-1",
            " g#0 polyshap|k=2|paired budget=16 seed=-1",
            " g#0 polyshap|k=3|paired budget=16 seed=-1",
        ]

    def test_unparseable_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["benchmark", "--config", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2


class TestVerifyCommand:
    def test_projection_lemma_suite(self, capsys):
        code = main(["verify", "projection-lemma"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PASS projection-lemma")

    def test_leverage_suite(self, capsys):
        code = main(["verify", "leverage-closed-form"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_degree2_recovery_suite(self, capsys):
        code = main(["verify", "degree2-recovery"])
        assert code == 0
        assert any(ln.startswith("PASS degree2-recovery") for ln in capsys.readouterr().out.splitlines())

    def test_suites_take_no_arguments(self):
        import inspect

        from polyshap.verify import SUITES

        assert {name: list(inspect.signature(suite).parameters) for name, suite in SUITES.items()} == {
            name: [] for name in SUITES
        }

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "nonsense"])
        assert err.value.code == 2

    def test_property_failure_exits_4(self, capsys, monkeypatch):
        from polyshap.verify import VerifyReport
        import polyshap.cli as cli

        def broken():
            return VerifyReport(suite="projection-lemma", passed=False, max_deviation=1.0, n_trials=1)

        monkeypatch.setitem(cli.SUITES, "projection-lemma", broken)
        code = main(["verify", "projection-lemma"])
        assert code == 4
        assert "FAIL" in capsys.readouterr().out


class TestExplainPartialLookup:
    def test_lookup_miss_surfaces_coalition(self, tmp_path, capsys):
        # partial table: the sampler will request a missing coalition
        rows = ["d=3"] + [f"{m:03b}"[::-1] + ",1.0" for m in range(7)]  # all but 111
        path = tmp_path / "partial.game"
        path.write_text("\n".join(rows) + "\n")
        code = main(["explain", "--game", str(path), "--method", "kernelshap", "--budget", "8"])
        captured = capsys.readouterr()
        assert code == 3
        blob = json.loads(captured.out)
        assert blob["error"]["type"] == "lookup-miss"
        assert "111" in blob["error"]["message"]
