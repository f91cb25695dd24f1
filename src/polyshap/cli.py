"""Command line surface: explain, benchmark, verify, gen-game.

Every command echoes its fully resolved configuration (seeds, frontier
labels, paths) to stderr before producing results, keeps stdout to a single
machine-readable document where one is promised, and maps failures to
stable exit codes: 0 ok, 2 config error, 3 io/parse error, 4 property
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from .coalitions import FileFormatError
from .evaluation import (
    MethodSpec,
    load_benchmark_config,
    per_instance_csv,
    plot_data,
    rows_to_csv,
    run_benchmark,
    series_label,
)
from .games import load_game, make_random_game, save_mobius_game
from .verify import SUITES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PROPERTY = 4


def _echo(config: dict[str, Any]) -> None:
    print("config: " + json.dumps(config, sort_keys=True), file=sys.stderr)


def _error_json(kind: str, message: str) -> str:
    return json.dumps({"error": {"type": kind, "message": message}}, sort_keys=True)


def _cmd_explain(args: argparse.Namespace) -> int:
    try:
        game = load_game(args.game)
    except FileFormatError as exc:
        print(_error_json("parse", str(exc)))
        return EXIT_IO

    try:
        method = MethodSpec(args.method, args.frontier, args.paired, args.seed)
        frontier = method.frontier_for(game.d)
        _echo(
            {
                "command": "explain",
                "game": args.game,
                "d": game.d,
                "method": args.method,
                "frontier": None if frontier is None else frontier.order_label,
                "budget": args.budget,
                "paired": args.paired,
                "seed": args.seed,
            }
        )
        result = method.run(game, frontier, args.budget, args.seed)
    except ValueError as exc:
        print(_error_json("config", str(exc)))
        return EXIT_CONFIG
    except KeyError as exc:
        print(_error_json("lookup-miss", str(exc)))
        return EXIT_IO

    print(result.to_json())
    return EXIT_OK


def _cmd_benchmark(args: argparse.Namespace) -> int:
    try:
        if args.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {args.jobs}")
        config = load_benchmark_config(args.config)
    except FileFormatError as exc:
        print(_error_json("parse", str(exc)))
        return EXIT_IO
    except (OSError, ValueError) as exc:
        print(_error_json("config", str(exc)))
        return EXIT_CONFIG if isinstance(exc, ValueError) else EXIT_IO
    _echo(
        {
            "command": "benchmark",
            "config": args.config,
            "out": args.out,
            "jobs": args.jobs,
            "games": [g.game_id for g in config.games],
            "methods": [
                {
                    "estimator": m.estimator,
                    "frontier": m.frontier_spec,
                    "frontier_label": "" if f is None else f.order_label,
                    "paired": m.paired,
                }
                for m, f in zip(config.methods, config.frontiers[0])
            ],
            "budgets": config.budgets,
            "seeds": config.seeds,
            "metrics": config.metrics,
        }
    )
    try:
        result = run_benchmark(config, jobs=args.jobs)
        csv_text = rows_to_csv(result.rows, result.skipped, config.metrics)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        stem = args.out[:-4] if args.out.endswith(".csv") else args.out
        with open(stem + ".plot.json", "w", encoding="utf-8") as fh:
            json.dump(plot_data(result), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(stem + ".per_instance.csv", "w", encoding="utf-8") as fh:
            fh.write(per_instance_csv(result.runs, config.metrics))
    except OSError as exc:
        print(_error_json("io", str(exc)))
        return EXIT_IO
    print(
        f"wrote {args.out}: {len(result.rows)} rows, {len(result.skipped)} absent cells, "
        f"{len(result.runs)} runs, {len(result.failures)} failures"
    )
    for failure in result.failures[:20]:
        print(
            f"failure: {failure.game_id}#{failure.instance} {series_label(failure)} "
            f"budget={failure.budget} seed={failure.seed}: {failure.error}"
        )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    _echo({"command": "verify", "suites": names})
    failed = False
    for name in names:
        report = SUITES[name]()
        print(report.summary())
        for line in report.details:
            print("  " + line)
        if not report.passed:
            failed = True
    return EXIT_PROPERTY if failed else EXIT_OK


def _cmd_gen_game(args: argparse.Namespace) -> int:
    _echo(
        {
            "command": "gen-game",
            "d": args.d,
            "max_order": args.max_order,
            "n_terms": args.n_terms,
            "seed": args.seed,
            "out": args.out,
        }
    )
    try:
        game = make_random_game(args.d, args.max_order, args.n_terms, args.seed)
    except ValueError as exc:
        print(_error_json("config", str(exc)))
        return EXIT_CONFIG
    try:
        save_mobius_game(game, args.out)
    except OSError as exc:
        print(_error_json("io", str(exc)))
        return EXIT_IO
    print(f"wrote {args.out}: d={args.d}, {len(game.terms)} terms")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyshap",
        description="Shapley value estimation via interaction-aware weighted regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    explain = sub.add_parser("explain", help="estimate Shapley values for one game file")
    explain.add_argument("--game", required=True, help=".game or .mobius file")
    explain.add_argument(
        "--method",
        choices=["polyshap", "kernelshap", "permutation"],
        default="polyshap",
    )
    explain.add_argument("--frontier", default=None, help="frontier spec: K, K@PERCENT, or log")
    explain.add_argument("--budget", type=int, required=True, help="total game evaluations")
    explain.add_argument("--paired", action="store_true", help="sample coalitions in complement pairs")
    explain.add_argument("--seed", type=int, default=0)
    explain.set_defaults(func=_cmd_explain)

    bench = sub.add_parser("benchmark", help="run a benchmark sweep from a JSON config")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", required=True, help="output CSV path")
    bench.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    bench.set_defaults(func=_cmd_benchmark)

    ver = sub.add_parser("verify", help="run a numerical verification suite")
    ver.add_argument("suite", choices=sorted(SUITES) + ["all"])
    ver.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen-game", help="write a random coefficient game file")
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--max-order", type=int, required=True)
    gen.add_argument("--n-terms", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen_game)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
