"""Core data model for label-search experiments.

A task couples a small trusted set (feature vectors with known binary
labels, the sole source of the objective signal) with a larger unlabeled
pool whose labels are the decision variable.  A candidate assignment is
packed into a single unsigned word, one bit per pool item, so the
hypothesis space of an n-item pool is exactly the 2**n words.

The objective of every search is ``mu``: the 0-1 error rate that a model
trained on (pool, labeling) achieves on the trusted set.

Task files are JSON documents; :func:`save_task` and :func:`load_task`
fix the schema (field names are part of the on-disk contract).
:func:`save_task` and the CLI's outputs are written atomically.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Largest pool size representable as a packed labeling word.
MAX_LABELING_BITS = 63

#: Spacing of the dyadic grid the task generator snaps coordinates to.
#: On-grid coordinates make every subset sum exactly representable in
#: float64 (for |sum| < 2**29), so incremental updates, refits, and
#: batched evaluation of the same labeling agree bit-for-bit.
COORD_GRID = 2.0**-24


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_feature_matrix(x: np.ndarray, name: str) -> None:
    if x.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array of shape (count, d), got shape {x.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"{name} needs at least one row and one feature dimension, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite coordinates")


def _check_integer(name: str, value) -> int:
    """``value`` as an int, after refusing a bool or a non-integer (a
    float, or a numeric string) with ``ValueError`` naming the parameter.
    The worker counts, caps, budgets, trial and round counts, task sizes
    and seeds of the search and harness entry points go through this
    check, so that a run never uses a value other than the one it was
    given and its result file echoes."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_binary(labels: np.ndarray, name: str) -> None:
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError(f"{name} must contain only 0/1 values")


@dataclass(frozen=True)
class TrustedSet:
    """The small labeled sample carrying ground truth.

    ``x`` is the (m, d) feature matrix, ``y`` the (m,) array of 0/1
    labels.  Both classes being present is not required; a single-class
    trusted set is a legal (degenerate) objective.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _frozen_array(self.x, np.float64)
        y = _frozen_array(self.y, np.int8)
        _check_feature_matrix(x, "trusted set features")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("trusted labels must be one per feature row")
        _check_binary(y, "trusted labels")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class UnlabeledPool:
    """The unlabeled feature vectors whose labels are searched over."""

    x: np.ndarray

    def __post_init__(self):
        x = _frozen_array(self.x, np.float64)
        _check_feature_matrix(x, "pool features")
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class Labeling:
    """One candidate assignment of 0/1 labels to pool items.

    Bit i of ``bits`` is the label of pool item i.  ``n`` is the number
    of significant bits; words are bounded to 63 bits so a labeling
    always fits a single unsigned machine word.
    """

    bits: int
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_LABELING_BITS:
            raise ValueError(f"labeling width must be in [1, {MAX_LABELING_BITS}], got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"labeling word {self.bits:#x} out of range for {self.n} bits")

    def labels(self) -> np.ndarray:
        """Unpack to an (n,) int8 array, item i at index i."""
        return np.array([(self.bits >> i) & 1 for i in range(self.n)], dtype=np.int8)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a search over labelings.

    ``argmin_labelings`` holds the words achieving ``best_mu``, sorted
    ascending and capped at ``search.ARGMIN_CAP`` (1024) words.
    ``argmin_count`` is the number of optima found.  It is exact for
    exhaustive sweeps, which count beyond the cap, and for random
    search, which counts the distinct optimum words it drew.  For the
    greedy-flip and annealing walks, which may revisit words, it is
    exact while fewer than 1024 distinct optima have been seen; after
    that it is an upper bound, because a revisited optimum that is not
    in the list counts again.  ``mean_eval_time`` is the measured
    seconds per train-and-score cycle.
    """

    best_mu: float
    argmin_labelings: tuple[Labeling, ...]
    argmin_count: int
    evaluations: int
    elapsed: float
    mean_eval_time: float

    def __post_init__(self):
        if self.evaluations < 1:
            raise ValueError("a search outcome needs at least one evaluation")
        if not self.argmin_labelings:
            raise ValueError("argmin list must be nonempty")
        words = [lab.bits for lab in self.argmin_labelings]
        if words != sorted(words):
            raise ValueError("argmin list must be sorted ascending by word")


@dataclass(frozen=True)
class Task:
    """A trusted set and an unlabeled pool sharing one feature space.

    ``ground_truth`` optionally records the pool's true labels (known
    for synthetic tasks), as an (n,) 0/1 array.
    """

    trusted: TrustedSet
    pool: UnlabeledPool
    ground_truth: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.trusted.d != self.pool.d:
            raise ValueError(
                f"trusted set dimension {self.trusted.d} != pool dimension {self.pool.d}"
            )
        if self.ground_truth is not None:
            gt = _frozen_array(self.ground_truth, np.int8)
            if gt.ndim != 1 or gt.shape[0] != self.pool.n:
                raise ValueError("ground truth must assign one label per pool item")
            _check_binary(gt, "ground truth labels")
            object.__setattr__(self, "ground_truth", gt)

    @property
    def n(self) -> int:
        return self.pool.n

    @property
    def m(self) -> int:
        return self.trusted.m

    @property
    def d(self) -> int:
        return self.trusted.d


def evaluate_mu(predictions: Sequence[int] | np.ndarray, trusted: TrustedSet) -> float:
    """Score predictions on the trusted set with 0-1 error.

    Returns ``mu``, the number of disagreements divided by m, on the
    grid {0, 1/m, ..., 1}.  Raises if the prediction vector length does
    not match the trusted set.
    """
    pred = np.asarray(predictions)
    if pred.ndim != 1 or pred.shape[0] != trusted.m:
        raise ValueError(f"expected {trusted.m} predictions, got shape {pred.shape}")
    _check_binary(pred, "predictions")
    correct = int(np.count_nonzero(pred.astype(np.int8) == trusted.y))
    errors = trusted.m - correct
    return errors / trusted.m


# --- task file schema ------------------------------------------------------

def task_to_dict(task: Task) -> dict:
    """Render a task in the on-disk JSON schema (exact field names)."""
    doc: dict = {
        "d": task.d,
        "A": [
            {"x": [float(v) for v in row], "y": int(label)}
            for row, label in zip(task.trusted.x, task.trusted.y)
        ],
        "B": [[float(v) for v in row] for row in task.pool.x],
    }
    if task.ground_truth is not None:
        doc["ground_truth_B"] = [int(v) for v in task.ground_truth]
    doc["seed"] = int(task.seed)
    return doc


def task_from_dict(doc: dict) -> Task:
    for key in ("d", "A", "B", "seed"):
        if key not in doc:
            raise ValueError(f"task document missing required field {key!r}")
    d = int(doc["d"])
    ax = np.array([entry["x"] for entry in doc["A"]], dtype=np.float64)
    ay = np.array([entry["y"] for entry in doc["A"]], dtype=np.int8)
    bx = np.array(doc["B"], dtype=np.float64)
    if ax.ndim != 2 or ax.shape[1] != d or bx.ndim != 2 or bx.shape[1] != d:
        raise ValueError("task document feature widths disagree with field 'd'")
    gt = doc.get("ground_truth_B")
    return Task(
        trusted=TrustedSet(ax, ay),
        pool=UnlabeledPool(bx),
        ground_truth=None if gt is None else np.asarray(gt, dtype=np.int8),
        seed=int(doc["seed"]),
    )


def task_to_json(task: Task) -> str:
    return json.dumps(task_to_dict(task), indent=2) + "\n"


def _write_atomic(path, text: str) -> None:
    """Write text to a temp file beside ``path``, then rename it over
    ``path``: a failed write leaves any existing file unchanged."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_task(task: Task, path) -> None:
    _write_atomic(path, task_to_json(task))


def load_task(path) -> Task:
    with open(path, "r", encoding="utf-8") as fh:
        return task_from_dict(json.load(fh))
