"""The benchmark's workloads: inputs derived from the workload seed, closed-loop
requests into the library, and the checks of their outputs.

Every timed estimate runs on a game whose value cache is cold.
``solve-d40-log`` and ``draw-d128-k1`` build one game per estimate in
set-up and never reuse one. ``sweep-d10`` calls ``run_benchmark`` with one
instance and one seed per request, so every run builds its own game.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import zlib
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from polyshap import (
    SamplerConfig,
    kernelshap,
    log_frontier,
    make_random_game,
    oracle_shapley,
    polyshap,
)
from polyshap.evaluation import (
    BenchmarkConfig,
    BenchmarkResult,
    aggregate_runs,
    derive_run_seed,
    load_benchmark_config,
    mse,
    rows_to_csv,
    run_benchmark,
)

EFFICIENCY_TOL = 1e-9
SWEEP_CONFIG = Path("configs") / "paired_vs_standard_d10.json"


def derive_seeds(seed: int, salt: str, n: int) -> list[int]:
    """n input seeds from the workload seed; another salt gives an independent stream."""
    seq = np.random.SeedSequence([seed, zlib.crc32(salt.encode())])
    return [int(s) for s in seq.generate_state(n)]


def mobius_extremes(game: Any) -> tuple[float, float]:
    """v(D) and v(empty) of a Mobius game, read from its coefficients, not from evaluate()."""
    return float(sum(game.terms.values())), float(game.terms.get(0, 0.0))


def efficiency_gap(shapley: np.ndarray, v_full: float, v_empty: float) -> float:
    """|sum(phi) - (v(D) - v(empty))| / max(1, |v(D) - v(empty)|)."""
    target = v_full - v_empty
    return abs(float(np.sum(shapley)) - target) / max(1.0, abs(target))


@dataclass
class Checks:
    """Outcome of the output checks of one run.

    ``failures`` maps each failed request or estimate to its reasons and the
    number of estimates it stands for; ``errors`` are checks that fail the
    whole run.
    """

    attempted: int = 0
    failures: dict[str, tuple[list[str], int]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    mse: float = math.nan
    zero_mse: float = math.nan
    info: dict[str, Any] = field(default_factory=dict)

    def fail(self, key: str, reason: str, estimates: int = 1) -> None:
        self.failures.setdefault(key, ([], estimates))[0].append(reason)

    @property
    def failed(self) -> int:
        return sum(estimates for _, estimates in self.failures.values())

    def failure_lines(self) -> list[str]:
        return [f"{key}: {'; '.join(reasons)}" for key, (reasons, _) in self.failures.items()]

    @property
    def correct(self) -> bool:
        return not self.failures and not self.errors

    def check_accuracy(self, mses: list[float], zero_mses: list[float]) -> None:
        """Mean MSE against the oracle must be finite and below that of the all-zero estimate."""
        self.mse = float(np.mean(mses)) if mses else math.nan
        self.zero_mse = float(np.mean(zero_mses)) if zero_mses else math.nan
        if not (math.isfinite(self.mse) and self.mse < self.zero_mse):
            self.errors.append(
                f"mean MSE {self.mse!r} is not finite and below the all-zero "
                f"estimate's {self.zero_mse!r}"
            )


@dataclass
class Input:
    game: Any
    truth: np.ndarray
    v_full: float
    v_empty: float
    sampler_seed: int
    frontier_seed: int


@dataclass
class Outcome:
    shapley: np.ndarray
    truth: np.ndarray
    v_full: float
    v_empty: float
    evals: int
    budget_used: int


class PooledWorkload:
    """One estimate per request, each on its own cold game built in set-up.

    The pool holds enough games for ``max_rate`` estimates per second over
    the whole run; the run ends early if a faster library drains it.
    """

    name = ""
    d = 0
    budget = 0
    max_rate = 1.0
    min_requests = 1
    estimates_per_request = 1

    def __init__(self, seed: int, seconds: float, root: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.pool: deque[Input] = deque()

    def make_inputs(self, n: int) -> list[Input]:
        streams = [derive_seeds(self.seed, f"{self.name}/{part}", n) for part in ("game", "sampler", "frontier")]
        inputs = []
        for game_seed, sampler_seed, frontier_seed in zip(*streams):
            game = make_random_game(self.d, 3, 4 * self.d, game_seed)
            truth = oracle_shapley(game).shapley
            inputs.append(Input(game, truth, *mobius_extremes(game), sampler_seed, frontier_seed))
        return inputs

    def setup(self) -> None:
        n = max(8, math.ceil(self.seconds * self.max_rate))
        pool = deque(self.make_inputs(n + 1))
        self.run(pool.pop())  # untimed warm-up on an input of its own
        self.pool = pool

    def requests(self) -> Iterator[Callable[[], Outcome]]:
        while self.pool:
            yield functools.partial(self.run, self.pool.popleft())

    def estimate(self, inp: Input) -> Any:
        raise NotImplementedError

    def run(self, inp: Input) -> Outcome:
        result = self.estimate(inp)
        return Outcome(
            result.shapley,
            inp.truth,
            inp.v_full,
            inp.v_empty,
            inp.game.eval_counter,
            result.diagnostics["budget_used"],
        )

    def check(self, outputs: list[tuple[int, Outcome]]) -> Checks:
        checks = Checks(attempted=len(outputs))
        for index, out in outputs:
            key = f"estimate {index}"
            if out.evals != self.budget or out.budget_used != self.budget:
                checks.fail(
                    key, f"{out.evals} evaluations ({out.budget_used} reported) for budget {self.budget}"
                )
            gap = efficiency_gap(out.shapley, out.v_full, out.v_empty)
            if not gap <= EFFICIENCY_TOL:
                checks.fail(key, f"efficiency gap {gap!r}")
        checks.check_accuracy(
            [mse(out.shapley, out.truth) for _, out in outputs],
            [float(np.mean(out.truth**2)) for _, out in outputs],
        )
        return checks


class SolveWorkload(PooledWorkload):
    """Large solve: d=40, log frontier (d'=1187), m=6000 paired."""

    name = "solve-d40-log"
    d = 40
    budget = 6000
    max_rate = 2.0

    def estimate(self, inp: Input) -> Any:
        frontier = log_frontier(self.d, inp.frontier_seed)
        return polyshap(inp.game, frontier, SamplerConfig(self.budget, paired=True, seed=inp.sampler_seed))


class DrawWorkload(PooledWorkload):
    """Huge strata: KernelSHAP at d=128, m=2000 unpaired, every stratum drawn by rng.choice."""

    name = "draw-d128-k1"
    d = 128
    budget = 2000
    max_rate = 4.0

    def estimate(self, inp: Input) -> Any:
        return kernelshap(inp.game, SamplerConfig(self.budget, paired=False, seed=inp.sampler_seed))


def run_key(unit: int, run: Any) -> str:
    """Name of one sweep estimate (a run record or a failed cell) in the failure list."""
    return (
        f"unit {unit} {run.method} {run.frontier} paired={run.paired} "
        f"budget={run.budget} seed={run.seed}"
    )


class SweepWorkload:
    """The bundled d=10 sweep config, one instance and one seed per request.

    Request ``u`` runs every method and budget of the config on instance
    ``u mod instances`` with the ``u div instances``-th derived seed. The
    first ``instances`` requests therefore cover one seed over all
    instances; their CSV is hashed and every estimate in them is replayed
    for the efficiency check.
    """

    name = "sweep-d10"

    def __init__(self, seed: int, seconds: float, root: Path) -> None:
        self.seed = seed
        self.config_path = root / SWEEP_CONFIG

    def setup(self) -> None:
        config = load_benchmark_config(str(self.config_path))
        (self.spec,) = config.games
        self.config = config
        self.game_base, self.seed_base, warm_seed = derive_seeds(self.seed, self.name, 3)
        self.truths = [
            oracle_shapley(self.game_spec(i).build(0)).shapley for i in range(self.spec.instances)
        ]
        warm = run_benchmark(replace(self.unit_config(0), seeds=[warm_seed]), jobs=1)
        self.estimates_per_request = len(warm.runs) + len(warm.failures)
        self.min_requests = self.spec.instances

    def game_spec(self, instance: int) -> Any:
        return replace(self.spec, seed=self.game_base + instance, instances=1)

    def unit_config(self, unit: int) -> BenchmarkConfig:
        rep, instance = divmod(unit, self.spec.instances)
        return replace(self.config, games=[self.game_spec(instance)], seeds=[self.seed_base + rep])

    def requests(self) -> Iterator[Callable[[], BenchmarkResult]]:
        for unit in itertools.count():
            yield functools.partial(self.run, self.unit_config(unit))

    def run(self, config: BenchmarkConfig) -> BenchmarkResult:
        return run_benchmark(config, jobs=1)

    def check(self, outputs: list[tuple[int, BenchmarkResult]]) -> Checks:
        checks = Checks()
        n = self.spec.instances
        mses: list[float] = []
        zero_mses: list[float] = []
        for unit, result in outputs:
            checks.attempted += len(result.runs) + len(result.failures)
            for f in result.failures:
                checks.fail(run_key(unit, f), f.error)
            zero = float(np.mean(self.truths[unit % n] ** 2))
            for r in result.runs:
                if r.evals_used != r.budget:
                    checks.fail(run_key(unit, r), f"{r.evals_used} evaluations for budget {r.budget}")
                mses.append(r.metrics["mse"])
                zero_mses.append(zero)
        checks.check_accuracy(mses, zero_mses)

        first = [(unit, result) for unit, result in outputs if unit < n]
        if len(first) < n:
            checks.errors.append(f"only {len(first)} of the first {n} requests completed")
            return checks
        runs = [r for _, result in first for r in result.runs]
        metrics = self.config.metrics
        csv = rows_to_csv(aggregate_runs(runs, metrics), first[0][1].skipped, metrics)
        checks.info["sweep_csv_sha256"] = hashlib.sha256(csv.encode()).hexdigest()
        checks.info["efficiency_checked"] = self.replay(first, checks)
        return checks

    def replay(self, first: list[tuple[int, BenchmarkResult]], checks: Checks) -> int:
        """Re-run each estimate of ``first`` directly; check efficiency and the recorded MSE."""
        d = self.spec.d
        methods = {(*m.label(d), m.paired): m for m in self.config.methods}
        replayed = 0
        for unit, result in first:
            truth = self.truths[unit % self.spec.instances]
            for r in result.runs:
                game = self.game_spec(unit % self.spec.instances).build(0)
                frontier = methods[(r.method, r.frontier, r.paired)].frontier_for(d)
                cfg = SamplerConfig(r.budget, paired=r.paired, seed=derive_run_seed(r.seed, 0, r.budget))
                shapley = polyshap(game, frontier, cfg).shapley
                gap = efficiency_gap(shapley, *mobius_extremes(game))
                again = mse(shapley, truth)
                if not gap <= EFFICIENCY_TOL:
                    checks.fail(run_key(unit, r), f"efficiency gap {gap!r}")
                if not math.isclose(again, r.metrics["mse"], rel_tol=1e-9):
                    checks.fail(
                        run_key(unit, r),
                        f"replayed MSE {again!r} differs from recorded {r.metrics['mse']!r}",
                    )
                replayed += 1
        return replayed


WORKLOADS = {w.name: w for w in (SweepWorkload, SolveWorkload, DrawWorkload)}
