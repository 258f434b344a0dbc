"""Cheap classifiers trained on (pool, labeling) pairs.

Two learner kinds:

* ``centroid`` (nearest class centroid): the state holds per-class
  coordinate sums and counts; a flip moves one item's vector between
  the class sums.
* ``onenn`` (one nearest neighbor): a query point takes the current
  label of its nearest pool item, so the labeling itself is the model
  and a flip is free.

``fit``/``predict`` train and apply one model.  Searches score
labelings through one evaluator per learner instead, which serves the
exhaustive sweep, the heuristics, batch scoring and chance-hit alike:
it flips one bit at a time without retraining from scratch, and scores
arrays of packed words in vectorized batches.

Determinism rules, fixed here and relied on by every caller: distance
comparisons use squared Euclidean distance; centroid distance ties
predict class 0; an empty centroid class predicts the nonempty class
for every query; nearest-item ties resolve to the lowest pool index.

The centroid evaluator keeps its running class sums as Python floats and
updates and scores them with the same IEEE operations, in the same
order, as numpy (2, d) sum rows scored by ``centroid_predictions``, so
the two agree bit-for-bit on any data.  On coordinates from the
generator's dyadic grid (see ``core.COORD_GRID``) all sums are exact in
float64, so flip-updated states also match refit states bit-for-bit;
on arbitrary float data a flip-updated state and a refit agree to about
1e-9 relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

import numpy as np

from .core import Labeling, TrustedSet, UnlabeledPool

CENTROID = "centroid"
ONE_NN = "onenn"
KINDS = (CENTROID, ONE_NN)

_NN_CHUNK = 65536


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown learner kind {kind!r}; expected one of {KINDS}")


def _as_label_array(labels, n: int) -> np.ndarray:
    """Normalize a Labeling or 0/1 sequence to an (n,) int8 array."""
    if isinstance(labels, Labeling):
        if labels.n != n:
            raise ValueError(f"labeling width {labels.n} != pool size {n}")
        return labels.labels()
    arr = np.asarray(labels, dtype=np.int8)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValueError(f"expected {n} labels, got shape {arr.shape}")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("labels must be 0/1")
    return arr.copy()


def class_sums_and_counts(pool_x: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """Per-class coordinate sums (2, d) and counts, in pool index order."""
    mask1 = labels == 1
    sums = np.empty((2, pool_x.shape[1]), dtype=np.float64)
    sums[0] = pool_x[~mask1].sum(axis=0)
    sums[1] = pool_x[mask1].sum(axis=0)
    n1 = int(np.count_nonzero(mask1))
    return sums, (pool_x.shape[0] - n1, n1)


def squared_distances(x: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each row of x to one point.

    Accumulates coordinates in ascending index order so every code path
    that scores the same operands rounds identically.
    """
    diff = x[:, 0] - point[0]
    acc = diff * diff
    for k in range(1, x.shape[1]):
        diff = x[:, k] - point[k]
        acc = acc + diff * diff
    return acc


def centroid_predictions(class_sums: np.ndarray, class_counts: tuple[int, int], x: np.ndarray) -> np.ndarray:
    """Predict rows of x against the centroids implied by sums/counts."""
    n0, n1 = class_counts
    if n0 == 0:
        return np.ones(x.shape[0], dtype=np.int8)
    if n1 == 0:
        return np.zeros(x.shape[0], dtype=np.int8)
    c0 = class_sums[0] / n0
    c1 = class_sums[1] / n1
    d0 = squared_distances(x, c0)
    d1 = squared_distances(x, c1)
    return (d1 < d0).astype(np.int8)  # tie -> class 0


def _pairwise_squared_distances(pool_x: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(queries, pool items) squared distances, accumulated over the
    coordinates in ascending index order as in ``squared_distances``."""
    diff = queries[:, 0, None] - pool_x[None, :, 0]
    dist = diff * diff
    for k in range(1, pool_x.shape[1]):
        diff = queries[:, k, None] - pool_x[None, :, k]
        dist = dist + diff * diff
    return dist


def nearest_pool_index(pool_x: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of each query's nearest pool item (ties -> lowest index)."""
    nq = queries.shape[0]
    best = np.full(nq, np.inf)
    best_idx = np.zeros(nq, dtype=np.int64)
    for start in range(0, pool_x.shape[0], _NN_CHUNK):
        chunk = pool_x[start : start + _NN_CHUNK]
        dist = _pairwise_squared_distances(chunk, queries)
        local = np.argmin(dist, axis=1)
        local_best = dist[np.arange(nq), local]
        better = local_best < best  # strict keeps the earliest chunk on ties
        best_idx[better] = local[better] + start
        best[better] = local_best[better]
    return best_idx


def nearest_two_gap(pool_x: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Second-nearest minus nearest squared distance per query.

    A single-item pool has no runner-up; the gap is 0 for every query
    (all equally confident).
    """
    if pool_x.shape[0] < 2:
        return np.zeros(queries.shape[0])
    dist = _pairwise_squared_distances(pool_x, queries)
    two = np.partition(dist, 1, axis=1)[:, :2]
    return two[:, 1] - two[:, 0]


@dataclass(frozen=True)
class LearnerState:
    """An immutable trained model: the pool, its current labels, and for
    the centroid kind the per-class running sums and counts."""

    kind: str
    pool_x: np.ndarray
    labels: np.ndarray
    class_sums: np.ndarray | None = None
    class_counts: tuple[int, int] | None = None


def fit(pool: UnlabeledPool, labels, kind: str = CENTROID) -> LearnerState:
    """Train a fresh state on the pool under the given labeling.

    Degenerate single-class labelings are valid states. Deterministic
    for fixed inputs.
    """
    _check_kind(kind)
    lab = _as_label_array(labels, pool.n)
    lab.setflags(write=False)
    if kind == CENTROID:
        sums, counts = class_sums_and_counts(pool.x, lab)
        sums.setflags(write=False)
        return LearnerState(kind=kind, pool_x=pool.x, labels=lab, class_sums=sums, class_counts=counts)
    return LearnerState(kind=kind, pool_x=pool.x, labels=lab)


def predict_points(state: LearnerState, x: np.ndarray) -> np.ndarray:
    """Predict 0/1 labels for the rows of an arbitrary query matrix."""
    if x.shape[1] != state.pool_x.shape[1]:
        raise ValueError(f"query dimension {x.shape[1]} != pool dimension {state.pool_x.shape[1]}")
    if state.kind == CENTROID:
        return centroid_predictions(state.class_sums, state.class_counts, x)
    nn = nearest_pool_index(state.pool_x, x)
    return state.labels[nn]


def predict(state: LearnerState, trusted: TrustedSet) -> np.ndarray:
    """Predict the trusted set's points; returns an (m,) int8 array."""
    return predict_points(state, trusted.x)


# --- byte tables ------------------------------------------------------------
#
# Batch scoring splits each word into bytes: byte j holds the labels of
# pool rows 8j..8j+7.  For each byte, a table holds the subset sums of
# those rows' values for all 256 byte values, so the sum over a word's
# set bits is one gather and one add per byte.

def _byte_subset_sums(values: np.ndarray) -> np.ndarray:
    """(bytes, columns, 256) subset sums of the (n, columns) per-row
    values: entry s of byte j sums the rows 8j + b for the set bits b of
    s, added in ascending b onto a zero.  Rows past n count as zeros."""
    n, width = values.shape
    nbytes = -(-n // 8)
    rows = np.zeros((nbytes * 8, width), dtype=values.dtype)
    rows[:n] = values
    rows = rows.reshape(nbytes, 8, width).transpose(0, 2, 1)
    tables = np.zeros((nbytes, width, 256), dtype=values.dtype)
    for b in range(8):
        tables[:, :, 1 << b : 2 << b] = tables[:, :, : 1 << b] + rows[:, :, b, None]
    return tables


def _sum_byte_tables(tables: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(columns, len(words)) sums of each word's byte-table entries,
    added in ascending byte order."""
    nbytes, width, _ = tables.shape
    index = np.empty((nbytes, words.shape[0]), dtype=np.intp)
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8).reshape(-1, 8)
    np.copyto(index, octets[:, :nbytes].T)
    acc = np.empty((width, words.shape[0]), dtype=tables.dtype)
    for k in range(width):
        acc[k] = tables[0, k][index[0]]
        for j in range(1, nbytes):
            acc[k] += tables[j, k][index[j]]
    return acc


def _column_distances(columns: np.ndarray, point: list[float], acc: np.ndarray, diff: np.ndarray) -> None:
    """Write into ``acc`` the ``squared_distances`` to ``point`` of the
    points whose coordinate k is row k of ``columns``, with the same
    operations in the same order; ``diff`` is scratch space."""
    np.subtract(columns[0], point[0], out=acc)
    np.multiply(acc, acc, out=acc)
    for k in range(1, len(point)):
        np.subtract(columns[k], point[k], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add(acc, diff, out=acc)


# --- evaluators -------------------------------------------------------------
#
# An evaluator holds one labeling word of the pool and the learner state
# fitted to it.  ``reset(word)`` refits and returns the error count on the
# trusted points, ``flip(i)`` toggles bit i and updates the state without
# scoring, and ``errors()`` scores the current state.  Walks that undo a
# rejected flip call ``flip`` twice and score once.
# ``errors_for_words(words)`` scores a uint64 array of words at once and
# leaves the current state alone.

class _CentroidEvaluator:
    """Centroid learner driven by single-bit flips or word batches.

    Both paths predict with the arithmetic of ``centroid_predictions``
    and ``squared_distances``, as the public learner does, so they match
    refit-from-scratch results (bit-for-bit on dyadic-grid coordinates).

    The single-flip path keeps the running class sums as Python floats
    and the pool rows as float tuples: a flip is then 2*d float adds,
    where numpy rows of length d would cost more per call than the
    arithmetic.  ``errors`` divides the sums in Python and does the same
    IEEE operations, in the same order, on contiguous trusted columns.

    The batch path gathers each word's class sums and class-1 count from
    per-byte subset tables, divides them into contiguous centroid
    columns and scores those with the operations of
    ``squared_distances``: no bit matrix and no BLAS call.
    """

    def __init__(self, pool_x, ax, ay):
        self.pool_x = pool_x
        self.ax = ax
        self.ay = ay
        self.word = 0
        self.sums = None
        self.counts = [0, 0]
        self._rows = [tuple(row) for row in pool_x.tolist()]
        self._columns = [np.ascontiguousarray(ax[:, k]) for k in range(ax.shape[1])]
        self._is_one = ay == 1
        self._points = ax.tolist()
        # rows 0..d-1 class-0 sums, d..2d-1 class-1 sums, 2d the class-1
        # count, for every byte value of every byte of the word
        ones = _byte_subset_sums(np.column_stack([pool_x, np.ones(pool_x.shape[0])]))
        self._tables = np.concatenate([ones[:, :-1, ::-1], ones], axis=1)
        self._errors_y0 = int(np.count_nonzero(ay == 0))
        self._errors_y1 = ay.shape[0] - self._errors_y0

    def reset(self, word: int) -> int:
        self.word = word
        labels = Labeling(word, self.pool_x.shape[0]).labels()
        sums, counts = class_sums_and_counts(self.pool_x, labels)
        self.sums = sums.tolist()
        self.counts = list(counts)
        return self.errors()

    def flip(self, i: int) -> None:
        old = (self.word >> i) & 1
        row = self._rows[i]
        sums, counts = self.sums, self.counts
        sums[old] = list(map(sub, sums[old], row))
        sums[1 - old] = list(map(add, sums[1 - old], row))
        counts[old] -= 1
        counts[1 - old] += 1
        self.word ^= 1 << i

    def _distances(self, class_sums: list[float], count: int) -> np.ndarray:
        """``squared_distances(ax, class_sums / count)``, column by column."""
        columns = self._columns
        diff = columns[0] - class_sums[0] / count
        acc = diff * diff
        for k in range(1, len(columns)):
            diff = columns[k] - class_sums[k] / count
            acc += diff * diff
        return acc

    def errors(self) -> int:
        n0, n1 = self.counts
        # an empty class predicts the nonempty one for every query
        if n0 == 0:
            return self._errors_y0
        if n1 == 0:
            return self._errors_y1
        d0 = self._distances(self.sums[0], n0)
        d1 = self._distances(self.sums[1], n1)
        return int(np.count_nonzero((d1 < d0) != self._is_one))  # tie -> class 0

    def errors_for_words(self, words: np.ndarray) -> np.ndarray:
        d = self.pool_x.shape[1]
        sums = _sum_byte_tables(self._tables, words)
        counts1 = sums[2 * d]
        counts0 = self.pool_x.shape[0] - counts1
        # start from every trusted point predicted 0, then count each
        # class-1 prediction as one error more or one fewer
        wrong = np.full(words.shape[0], self._errors_y1, dtype=np.int32)
        d0, d1, diff = (np.empty(words.shape[0]) for _ in range(3))
        pred1 = np.empty(words.shape[0], dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            c0 = sums[:d] / counts0
            c1 = sums[d : 2 * d] / counts1
            for point, is_one in zip(self._points, self._is_one.tolist()):
                _column_distances(c0, point, d0, diff)
                _column_distances(c1, point, d1, diff)
                np.less(d1, d0, out=pred1)  # tie -> class 0
                if is_one:
                    np.subtract(wrong, pred1, out=wrong)
                else:
                    np.add(wrong, pred1, out=wrong)
        errs = wrong.astype(np.int64)
        # degenerate single-class labelings predict the nonempty class
        errs[counts1 == 0] = self._errors_y1
        errs[counts0 == 0] = self._errors_y0
        return errs


class _OneNNEvaluator:
    """One-nearest-neighbor learner driven by single-bit flips or word
    batches.

    The trusted-to-pool nearest index is computed once and reduced to
    per-item class tallies: y0[i] and y1[i] count the trusted points of
    class 0 and 1 whose nearest pool item is i.  A word's error count is
    then ``sum(y1) + sum over set bits i of (y0[i] - y1[i])``, so a flip
    updates it in O(1), and a batch adds one byte-table entry of summed
    gains per byte of the word.  The tallies are Python ints: numpy
    scalars would cost more per flip than the update itself.
    """

    def __init__(self, pool_x, ax, ay):
        nn = nearest_pool_index(pool_x, ax)
        n = pool_x.shape[0]
        self._y0 = np.bincount(nn[ay == 0], minlength=n).tolist()
        self._y1 = np.bincount(nn[ay == 1], minlength=n).tolist()
        self.word = 0
        self._errors = 0
        self._delta: list[int] = []
        # errors of the all-zeros word, and the summed change from
        # setting the bits of each byte value
        self._base = sum(self._y1)
        gains = np.subtract(self._y0, self._y1, dtype=np.int64)
        self._tables = _byte_subset_sums(gains[:, None])

    def reset(self, word: int) -> int:
        self.word = word
        bits = [(word >> i) & 1 for i in range(len(self._y0))]
        tallies = list(zip(bits, self._y0, self._y1))
        self._errors = sum(y0 if bit else y1 for bit, y0, y1 in tallies)
        # errors added by flipping item i away from its current label
        self._delta = [y1 - y0 if bit else y0 - y1 for bit, y0, y1 in tallies]
        return self._errors

    def flip(self, i: int) -> None:
        delta = self._delta[i]
        self._errors += delta
        self._delta[i] = -delta
        self.word ^= 1 << i

    def errors(self) -> int:
        return self._errors

    def errors_for_words(self, words: np.ndarray) -> np.ndarray:
        return self._base + _sum_byte_tables(self._tables, words)[0]


def _make_evaluator(kind: str, pool_x, ax, ay):
    return _CentroidEvaluator(pool_x, ax, ay) if kind == CENTROID else _OneNNEvaluator(pool_x, ax, ay)
