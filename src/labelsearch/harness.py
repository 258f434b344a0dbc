"""Synthetic tasks, baselines, and wall-clock scaling measurement.

Tasks are drawn from a two-component spherical Gaussian mixture with a
controllable class-mean separation; the trusted set and the pool come
from the same mixture and the pool's true labels are recorded.  All
protocol constants here (holdout split, confidence definitions, seed
derivation) are artifact decisions, documented where they are made.

Generated coordinates are snapped to the dyadic grid ``core.COORD_GRID``
so that every learner-path comparison in this package is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import COORD_GRID, SearchOutcome, Task, TrustedSet, UnlabeledPool, _check_integer, evaluate_mu
from .learners import (
    CENTROID,
    _check_kind,
    fit,
    nearest_two_gap,
    predict,
    predict_points,
    squared_distances,
)
from .search import DEFAULT_EXHAUSTIVE_CAP, _check_exhaustive_cap, _check_workers, exhaustive_search


@dataclass(frozen=True)
class TaskSpec:
    """Recipe for one synthetic task.

    ``separation`` is the distance between the two class means (along
    the first axis); ``noise_sigma`` the per-coordinate Gaussian spread.
    """

    m: int
    n: int
    d: int
    separation: float
    noise_sigma: float
    seed: int

    def __post_init__(self):
        for name in ("m", "n", "d", "seed"):
            _check_integer(name, getattr(self, name))
        if self.m < 1 or self.n < 1 or self.d < 1:
            raise ValueError("m, n, d must all be at least 1")
        for name in ("separation", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.separation < 0:
            raise ValueError("separation must be nonnegative")
        if not self.noise_sigma > 0:
            raise ValueError("noise sigma must be positive")


def _snap_to_grid(x: np.ndarray) -> np.ndarray:
    # exact: scaling by a power of two and rounding to integers
    return np.round(x / COORD_GRID) * COORD_GRID


def _mixture_sample(rng: np.random.Generator, count: int, spec: TaskSpec) -> tuple[np.ndarray, np.ndarray]:
    """Balanced-within-1 labels (shuffled order) and their coordinates."""
    labels = np.zeros(count, dtype=np.int8)
    labels[(count + 1) // 2 :] = 1
    labels = labels[rng.permutation(count)]
    means = np.zeros((2, spec.d))
    means[0, 0] = -spec.separation / 2.0
    means[1, 0] = spec.separation / 2.0
    coords = means[labels] + spec.noise_sigma * rng.standard_normal((count, spec.d))
    return _snap_to_grid(coords), labels


def generate_task(spec: TaskSpec) -> Task:
    """Draw a task from the mixture; deterministic per seed.

    The trusted set is drawn first, then the pool; per-class counts are
    balanced within one in each. The pool's true labels are recorded.
    """
    rng = np.random.default_rng(spec.seed)
    ax, ay = _mixture_sample(rng, spec.m, spec)
    bx, by = _mixture_sample(rng, spec.n, spec)
    return Task(
        trusted=TrustedSet(ax, ay),
        pool=UnlabeledPool(bx),
        ground_truth=by,
        seed=spec.seed,
    )


def split_trusted(trusted: TrustedSet) -> tuple[TrustedSet, TrustedSet | None]:
    """Deterministic fit/holdout split of the trusted set.

    Even positions fit, odd positions hold out (generated trusted sets
    are already in shuffled order). A one-example set has no holdout.
    """
    fit_half = TrustedSet(trusted.x[0::2], trusted.y[0::2])
    if trusted.m < 2:
        return fit_half, None
    return fit_half, TrustedSet(trusted.x[1::2], trusted.y[1::2])


def conventional_pipeline(task: Task, learner_kind: str = CENTROID) -> dict:
    """Train on the trusted set itself and score both directions.

    ``accuracy_on_B_truth`` comes from a model trained on all of the
    trusted set and scored against the pool's true labels (None when the
    task carries no ground truth).  ``mu_on_A_holdout`` comes from a
    model trained on the even-position half only, scored on the odd
    half (None when the trusted set is a single example).
    """
    _check_kind(learner_kind)
    fit_half, holdout = split_trusted(task.trusted)

    mu_on_holdout = None
    if holdout is not None:
        half_model = fit(UnlabeledPool(fit_half.x), fit_half.y, learner_kind)
        mu_on_holdout = evaluate_mu(predict(half_model, holdout), holdout)

    accuracy = None
    if task.ground_truth is not None:
        full_model = fit(UnlabeledPool(task.trusted.x), task.trusted.y, learner_kind)
        pred_b = predict_points(full_model, task.pool.x)
        accuracy = float(np.count_nonzero(pred_b == task.ground_truth)) / task.n

    return {"mu_on_A_holdout": mu_on_holdout, "accuracy_on_B_truth": accuracy}


def _confidence(state, x: np.ndarray, learner_kind: str) -> np.ndarray:
    """Per-point confidence of the current model on query rows.

    Centroid: absolute squared-distance margin between the two class
    centroids (zeros when a class is empty, every point equally
    confident).  One-NN: squared-distance gap between the second-nearest
    and nearest training items.
    """
    if learner_kind == CENTROID:
        n0, n1 = state.class_counts
        if n0 == 0 or n1 == 0:
            return np.zeros(x.shape[0])
        d0 = squared_distances(x, state.class_sums[0] / n0)
        d1 = squared_distances(x, state.class_sums[1] / n1)
        return np.abs(d0 - d1)
    return nearest_two_gap(state.pool_x, x)


def self_training_baseline(
    task: Task,
    learner_kind: str = CENTROID,
    confidence_quantile: float = 0.5,
    max_rounds: int = 10,
) -> dict:
    """Iterative pseudo-labeling seeded by the trusted fit half.

    Each round pseudo-labels the most confident ``confidence_quantile``
    fraction (ceiling) of the still-unlabeled pool with the current
    model's predictions, then refits on the trusted fit half plus every
    pseudo-labeled item; labels once assigned stay fixed.  Stops after
    ``max_rounds`` rounds or once the pool is fully labeled.

    ``final_mu`` is scored on the trusted holdout half, which never
    enters any fit; it is None for a one-example trusted set.  The report also
    carries the full induced pool labeling: assigned pseudo-labels,
    with the final model's predictions filling any never-labeled rest.
    """
    _check_kind(learner_kind)
    if not 0.0 < confidence_quantile <= 1.0:
        raise ValueError("confidence quantile must lie in (0, 1]")
    _check_integer("max_rounds", max_rounds)
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")

    fit_half, holdout = split_trusted(task.trusted)
    n = task.n
    labeled = np.zeros(n, dtype=bool)
    pseudo = np.full(n, -1, dtype=np.int8)
    model = fit(UnlabeledPool(fit_half.x), fit_half.y, learner_kind)

    fractions: list[float] = []
    rounds = 0
    for _ in range(max_rounds):
        remaining = np.flatnonzero(~labeled)
        if remaining.size == 0:
            break
        conf = _confidence(model, task.pool.x[remaining], learner_kind)
        take = math.ceil(confidence_quantile * remaining.size)
        order = np.argsort(-conf, kind="stable")  # ties -> lowest pool index
        chosen = remaining[order[:take]]
        pseudo[chosen] = predict_points(model, task.pool.x[chosen])
        labeled[chosen] = True

        train_x = np.vstack([fit_half.x, task.pool.x[labeled]])
        train_y = np.concatenate([fit_half.y, pseudo[labeled]])
        model = fit(UnlabeledPool(train_x), train_y, learner_kind)
        rounds += 1
        fractions.append(float(labeled.sum()) / n)

    final_mu = None
    if holdout is not None:
        final_mu = evaluate_mu(predict(model, holdout), holdout)

    induced = pseudo.copy()
    if not labeled.all():
        rest = np.flatnonzero(~labeled)
        induced[rest] = predict_points(model, task.pool.x[rest])

    return {
        "final_mu": final_mu,
        "rounds": rounds,
        "labeled_fraction_per_round": fractions,
        "induced_labels_B": [int(v) for v in induced],
    }


# --- scaling experiment -----------------------------------------------------

@dataclass(frozen=True)
class ScalingReport:
    """Per-n exhaustive sweep outcomes plus the fitted growth exponent
    of log2(elapsed) against n."""

    rows: tuple[SearchOutcome, ...]
    fitted_slope: float
    slope_stderr: float


def fit_log2_slope(ns, values) -> tuple[float, float]:
    """OLS slope of log2(values) against ns, with residual stderr.

    The stderr is 0.0 when there are no degrees of freedom (two points).
    """
    xs = np.asarray(ns, dtype=np.float64)
    ys = np.log2(np.asarray(values, dtype=np.float64))
    if np.unique(xs).size < 2:
        raise ValueError("slope fit needs at least two distinct n values")
    xbar = xs.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    slope = float(((xs - xbar) * ys).sum()) / sxx
    intercept = float(ys.mean()) - slope * xbar
    resid = ys - (slope * xs + intercept)
    dof = xs.size - 2
    if dof <= 0:
        return slope, 0.0
    stderr = math.sqrt(float((resid**2).sum()) / dof / sxx)
    return slope, stderr


def fit_fixed_cost(ns, values) -> tuple[float, float]:
    """Least-squares fit of values = a + b * 2**n on relative residuals.

    Minimizes the sum of ((a + b * 2**n) / value - 1) ** 2, so a small
    rung, where the fixed cost a shows, weighs as much as a large one,
    where the per-labeling cost b does.  Returns (a, b).  On timings a
    may come out negative when their noise exceeds the fixed cost.
    """
    xs = np.asarray(ns, dtype=np.float64)
    ts = np.asarray(values, dtype=np.float64)
    if np.unique(xs).size < 2:
        raise ValueError("fixed-cost fit needs at least two distinct n values")
    top = xs.max()
    # b's column is scaled by 2**-top so that its entries, like a's, are at
    # most 1 / value, which keeps the solve well conditioned for any n
    design = np.column_stack([1.0 / ts, np.exp2(xs - top) / ts])
    (a, scaled_b), *_ = np.linalg.lstsq(design, np.ones_like(ts), rcond=None)
    return float(a), float(scaled_b * np.exp2(-top))


def scaling_experiment(
    n_values,
    template: TaskSpec,
    learner_kind: str = CENTROID,
    workers: int = 1,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> ScalingReport:
    """Measure exhaustive sweep wall clock across pool sizes.

    One task per n (seed derived as template.seed + n), swept after a
    discarded warm-up at the smallest n; timings use the monotonic
    clock.  ``workers`` must lie in [1, ``search.MAX_WORKERS``]; with
    more than one, the sweep's persistent workers are forked by the
    warm-up and serve every n, so per-call overhead stays flat.  Fewer
    than two distinct n, which no slope fits, are refused before any
    sweep.
    """
    _check_kind(learner_kind)
    ns = sorted(set(_check_integer("n", n) for n in n_values))
    for n in ns:
        _check_exhaustive_cap(n, cap)
    workers = _check_workers(workers)
    if len(ns) < 2:
        raise ValueError("slope fit needs at least two distinct n values")

    def task_for(n: int) -> Task:
        return generate_task(replace(template, n=n, seed=template.seed + n))

    # warm-up sweep: forks the workers, result discarded
    exhaustive_search(task_for(ns[0]), learner_kind, workers, cap)
    rows = tuple(exhaustive_search(task_for(n), learner_kind, workers, cap) for n in ns)
    slope, stderr = fit_log2_slope(ns, [r.elapsed for r in rows])
    return ScalingReport(rows=rows, fitted_slope=slope, slope_stderr=stderr)
