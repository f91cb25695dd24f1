"""Shapley value estimation via interaction-aware weighted least-squares regression."""

from .coalitions import (
    FileFormatError,
    binomial,
    shapley_weight,
)
from .estimators import (
    AttributionResult,
    kernelshap,
    kernelshap_from_batch,
    permutation_baseline,
    polyshap,
    polyshap_from_batch,
    polyshap_to_sv,
)
from .evaluation import (
    BenchmarkConfig,
    MetricsRow,
    OracleResult,
    bruteforce_shapley,
    mse,
    oracle_shapley,
    precision_at_k,
    run_benchmark,
    spearman,
)
from .frontier import (
    InteractionFrontier,
    empty_frontier,
    k_additive,
    log_frontier,
    percent_of_order,
)
from .games import (
    Game,
    LookupGame,
    LookupMissError,
    MobiusGame,
    NonFiniteValueError,
    load_game,
    load_lookup_game,
    load_mobius_game,
    make_random_game,
    mobius_exact_shapley,
    save_mobius_game,
)
from .regression import (
    DesignSystem,
    SolveReport,
    build_design,
    constrained_lstsq,
    solve_constrained,
)
from .sampling import (
    SampleBatch,
    SamplerConfig,
    load_batch,
    sample,
    save_batch,
)
from .verify import leverage_scores_bruteforce

__version__ = "0.1.0"
