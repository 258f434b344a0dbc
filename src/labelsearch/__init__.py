"""Search over binary labelings of an unlabeled pool, scored on a small
trusted set, plus the analytic cost model for why hardware speedups
rescale the sweep but never flatten its exponential growth."""

from .core import (
    Labeling,
    SearchOutcome,
    Task,
    TrustedSet,
    UnlabeledPool,
    evaluate_mu,
    load_task,
    save_task,
)
from .costmodel import (
    CostLedger,
    SpeedupRegime,
    classical_runtime,
    grover_queries,
    perf_per_cost,
    regime_runtime,
    scaling_table,
)
from .harness import (
    ScalingReport,
    TaskSpec,
    conventional_pipeline,
    generate_task,
    scaling_experiment,
    self_training_baseline,
)
from .learners import LearnerState, fit, predict, predict_points
from .search import (
    HeuristicConfig,
    chance_hit_experiment,
    error_counts_for_words,
    exhaustive_search,
    heuristic_search,
)

__version__ = "0.1.0"

__all__ = [
    "CostLedger",
    "HeuristicConfig",
    "Labeling",
    "LearnerState",
    "ScalingReport",
    "SearchOutcome",
    "SpeedupRegime",
    "Task",
    "TaskSpec",
    "TrustedSet",
    "UnlabeledPool",
    "chance_hit_experiment",
    "classical_runtime",
    "conventional_pipeline",
    "error_counts_for_words",
    "evaluate_mu",
    "exhaustive_search",
    "fit",
    "generate_task",
    "grover_queries",
    "heuristic_search",
    "load_task",
    "perf_per_cost",
    "predict",
    "predict_points",
    "regime_runtime",
    "save_task",
    "scaling_experiment",
    "scaling_table",
    "self_training_baseline",
]
