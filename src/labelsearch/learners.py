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
it flips one bit at a time without retraining from scratch, scores
arrays of packed words in vectorized batches, and sweeps a subcube of
the labeling hypercube together with the subcube of its complements,
merging optimum summaries of the blocks it scores into a tracker that
takes summaries in any order.  The centroid evaluator sweeps in blocks
of consecutive words, each with its mirror block of their complements;
the one-NN evaluator walks the subcube in reflected-Gray order, so
consecutive candidates differ in one bit and its state is updated
instead of refit.  The walk applies that update to its error count,
per-item deltas and word held in locals; the heuristics update the same
state through ``flip`` and ``errors``.  That order comes from one place, the 4095-step ruler behind
``_gray_flip_blocks`` (the loopless reflected-Gray walk of Bitner,
Ehrlich and Reingold, CACM 19(9), 1976); it is the package's only Gray
code.

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
1e-9 relative.  A sweep block forms each word's class sums as the left
fold of its rows in ascending pool index, so on any data a word scores
the same in whichever block it falls.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

import numpy as np

from .core import Labeling, TrustedSet, UnlabeledPool, _check_binary

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
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValueError(f"expected {n} labels, got shape {arr.shape}")
    _check_binary(arr, "labels")
    return arr.astype(np.int8)


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
    dist = _pairwise_squared_distances(pool_x[:_NN_CHUNK], queries)
    best_idx = np.argmin(dist, axis=1)
    if pool_x.shape[0] <= _NN_CHUNK:
        return best_idx
    rows = np.arange(queries.shape[0])
    best = dist[rows, best_idx]
    for start in range(_NN_CHUNK, pool_x.shape[0], _NN_CHUNK):
        dist = _pairwise_squared_distances(pool_x[start : start + _NN_CHUNK], queries)
        local = np.argmin(dist, axis=1)
        local_best = dist[rows, local]
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


# --- subset tables ----------------------------------------------------------
#
# A subset table holds, for every subset of a few pool rows, the sum of
# those rows' values, each added in ascending row order onto a zero.
# Batch scoring splits each word into bytes (byte j holds the labels of
# pool rows 8j..8j+7) and reads one 256-entry table per byte, so the sum
# over a word's set bits is one gather and one add per byte.  The
# centroid sweep reads one table of the low ``_BLOCK_BITS`` rows.

#: Width of the centroid sweep's low-bit table, in bits: a sweep block
#: scores 2**9 words, 2**8 consecutive words and their complements.
#: Wider blocks cost less per word on large pools, but pools of fewer
#: items cannot fill them, so their sweeps would spread each block's
#: fixed cost over fewer words than larger pools do, and the time per
#: labeling would then depend on n.
_BLOCK_BITS = 9

#: Distances computed per numpy call when scoring class-sum columns:
#: 2**14 float64 values, 128 KiB, stay in L2.
_SCORE_CELLS = 1 << 14


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """(..., columns, 2**b) subset sums of (..., b, columns) rows: entry
    s sums the rows of the set bits of s, added in ascending bit order
    onto a zero."""
    *lead, bits, width = rows.shape
    tables = np.empty((*lead, width, 1 << bits), dtype=rows.dtype)
    tables[..., 0] = 0
    for b in range(bits):
        np.add(tables[..., : 1 << b], rows[..., b, :, None], out=tables[..., 1 << b : 2 << b])
    return tables


def _byte_subset_sums(values: np.ndarray) -> np.ndarray:
    """(bytes, columns, 256) subset sums of the (n, columns) per-row
    values, one table per byte of the word.  Rows past n count as zeros."""
    n, width = values.shape
    nbytes = -(-n // 8)
    rows = np.zeros((nbytes * 8, width), dtype=values.dtype)
    rows[:n] = values
    return _subset_sums(rows.reshape(nbytes, 8, width))


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


def _column_distances(columns: np.ndarray, point, acc: np.ndarray, diff: np.ndarray) -> None:
    """Write into ``acc`` the ``squared_distances`` to ``point`` of the
    candidates whose coordinate k is row k of ``columns``, with the same
    operations in the same order; ``diff`` is scratch space.  ``point[k]``
    is coordinate k of one trusted point, or the (r, 1) column of
    coordinate k of r points, whose distances fill the r rows of
    ``acc``."""
    np.subtract(columns[0], point[0], out=acc)
    np.multiply(acc, acc, out=acc)
    for k in range(1, len(point)):
        np.subtract(columns[k], point[k], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add(acc, diff, out=acc)


def _page_view(buffer: np.ndarray, start: int, size: int, offset: int) -> tuple[np.ndarray, int]:
    """``size`` values of ``buffer`` from its first index at or after
    ``start`` whose address is ``offset`` bytes past a multiple of 4 KiB,
    and the index after them."""
    start += (offset - buffer.ctypes.data - start * buffer.itemsize) % 4096 // buffer.itemsize
    return buffer[start : start + size], start + size


# --- evaluators -------------------------------------------------------------
#
# An evaluator holds one labeling word of the pool and the learner state
# fitted to it.  ``reset(word)`` refits and returns the error count on the
# trusted points, ``flip(i)`` toggles bit i and updates the state without
# scoring, and ``errors()`` scores the current state.  Walks that undo a
# rejected flip call ``flip`` twice and score once.
# ``errors_for_words(words)`` scores a uint64 array of words at once and
# leaves the current state alone.
# ``sweep(prefix_word, low_bits, tracker)`` scores the subcube of the
# 2**low_bits words that share ``prefix_word``'s higher bits, whose top
# bit is clear, together with the subcube of their complements: the
# complement ~w of a word w puts every pool item in the other class, so
# its class sums are w's swapped and one set of class sums or tallies
# scores both words.  It calls ``tracker.merge(best, count, words)`` for
# the words it scores, a block at a time, with the block's best error,
# the exact count of its words that reach it and those words in
# ascending order (all of them: the tracker keeps the smallest).  Blocks
# may report in any order.  The centroid evaluator reports a block of
# consecutive words and its mirror block of their complements as one,
# the one-NN evaluator each block of its Gray walk and, apart, the
# complements of its words.  The exhaustive search calls only ``sweep``,
# so how a learner walks a subcube is decided here.


def _merge_pair(tracker, high: int, mirror: int, wrong: np.ndarray) -> None:
    """Merge into ``tracker``, unless its best is above the tracker's,
    the summary of a block and its mirror block: the words ``high + s``
    with errors ``wrong[0, s]`` and their complements ``mirror + (width
    - 1 - s)`` with errors ``wrong[1, s]``."""
    low = int(wrong.min())
    if low <= tracker.best:
        hits = np.flatnonzero(wrong == low)
        width = wrong.shape[1]
        split = int(np.searchsorted(hits, width))
        # the block's words have the top bit clear and the mirror block's
        # have it set, so the block's come first
        words = np.concatenate((hits[:split] + high, (mirror + 2 * width - 1) - hits[split:][::-1]))
        tracker.merge(low, hits.size, words)


class _CentroidEvaluator:
    """Centroid learner driven by single-bit flips, word batches or
    sweep blocks.

    Every path predicts with the arithmetic of ``centroid_predictions``
    and ``squared_distances``, as the public learner does, so they match
    refit-from-scratch results (bit-for-bit on dyadic-grid coordinates).

    The single-flip path keeps the running class sums as Python floats
    and the pool rows as float tuples: a flip is then 2*d float adds,
    where numpy rows of length d would cost more per call than the
    arithmetic.  ``errors`` divides the sums in Python and does the same
    IEEE operations, in the same order, on contiguous trusted columns.

    The batch and block paths form class-sum columns for many words at
    once and score them in ``_errors_of_sums``: no bit matrix and no
    BLAS call.  A batch gathers each word's class sums and class-1 count
    from per-byte subset tables.  A sweep block takes the 2**bits words
    that share their bits from ``bits`` up; it copies a subset table of
    the low rows and adds each high row to the whole copy, in ascending
    row order, so each word's class sums are the left folds of its rows
    in ascending index order, whatever the block.  The same class sums,
    swapped, are those of the block's complements, so the sweep scores
    each block together with its mirror block from the one set of
    distances.
    """

    def __init__(self, pool_x, ax, ay):
        self.pool_x = pool_x
        self.word = 0
        self.sums = None
        self.counts = [0, 0]
        self._rows = [tuple(row) for row in pool_x.tolist()]
        # each pool row with a 1 after it, which counts it in its class
        counted = np.column_stack([pool_x, np.ones(pool_x.shape[0])])
        self._row_columns = list(counted[:, :, None])
        self._columns = [np.ascontiguousarray(ax[:, k]) for k in range(ax.shape[1])]
        self._is_one = ay == 1
        # coordinate k of trusted point j at [k, j, 0], class-0 points first
        self._point_columns = np.ascontiguousarray(ax[np.argsort(ay, kind="stable")].T)[:, :, None]
        self._errors_y0 = int(np.count_nonzero(ay == 0))
        self._errors_y1 = ay.shape[0] - self._errors_y0
        self._byte_tables = None
        # rows 0..d-1 the sums and row d the count of every subset of the
        # low rows, for blocks of up to 2**_BLOCK_BITS words
        self._block_table = _subset_sums(counted[:_BLOCK_BITS])
        # scratch arrays for the widest sweep block of this pool, made
        # here once instead of in the sweep
        self._scratch_width, self._scratch = 0, ()
        self._scratch_for(1 << min(pool_x.shape[0] - 1, _BLOCK_BITS - 1))

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

    def _scratch_for(self, width: int) -> tuple:
        """Centroid columns, distances, their scratch space and
        missed-point flags for scoring ``width`` candidates and their
        complements; a sweep's blocks share one set."""
        if width != self._scratch_width:
            coords = self._point_columns.shape[0]
            rows = min(max(1, _SCORE_CELLS // (2 * width)), self._point_columns.shape[1])
            cells = rows * 2 * width
            # One buffer holds the distances, their scratch space and the
            # centroids, 0, 2 and 1 KiB past a multiple of 4 KiB.  Apart,
            # the heap may put one a few bytes past a multiple of 4 KiB from
            # another, and a load from it then waits for each store to the
            # other (4K aliasing), so that a sweep's speed would depend on
            # the heap's earlier history.
            buffer = np.empty(2 * cells + coords * 2 * width + 3 * 512)
            dist, end = _page_view(buffer, 0, cells, 0)
            diff, end = _page_view(buffer, end, cells, 2048)
            centroids, _ = _page_view(buffer, end, coords * 2 * width, 1024)
            # per trusted point, [d0, d1] beside [d1, d0]
            by_class = dist.reshape(rows, 2, width)
            miss = np.empty((rows, 2, width), dtype=bool)
            self._scratch = (centroids.reshape(coords, 2, width), dist.reshape(rows, 2 * width),
                             diff.reshape(rows, 2 * width), by_class, by_class[:, ::-1], miss)
            self._scratch_width = width
        return self._scratch

    def _errors_of_sums(self, sums: np.ndarray, counts: np.ndarray, pairs: bool = False) -> np.ndarray:
        """Error counts of candidate labelings given as class-sum columns,
        in row 0 of a (1, candidates) array, or with ``pairs`` in row 0
        of a (2, candidates) array whose row 1 holds the error counts of
        the candidates' complements.

        ``sums[k, c, j]`` is coordinate k of class c's sum for candidate
        j and ``counts[c, j]`` the size of class c, as a positive float:
        a caller gives an empty class any count and overwrites the
        candidate's errors.  The sums are divided into centroid columns
        and scored with the operations of ``squared_distances``: both
        classes at once, for as many trusted points per numpy call as
        keep about ``_SCORE_CELLS`` distances.  A complement's class
        sums are its candidate's swapped, so its distances are too: a
        candidate predicts class 1 where d1 < d0, its complement where
        d0 < d1, and a tie predicts class 0 under both.
        """
        width = counts.shape[1]
        centroids, dist, diff, ours, theirs, miss = self._scratch_for(width)
        np.divide(sums, counts, out=centroids)
        centroids = centroids.reshape(sums.shape[0], 2 * width)
        tests = 2 if pairs else 1
        rows = dist.shape[0]
        wrong = np.zeros((tests, width), dtype=np.int64)
        for start in range(0, self._point_columns.shape[1], rows):
            points = self._point_columns[:, start : start + rows]
            r = points.shape[1]
            zeros = min(max(self._errors_y0 - start, 0), r)  # class-0 points of this chunk, sorted first
            if r == 1:
                # one point per call on 1-D rows, which costs less per call
                _column_distances(centroids, points[:, 0, 0], dist[0], diff[0])
            else:
                _column_distances(centroids, points, dist[:r], diff[:r])
            if zeros:  # a class-0 point is missed where it predicts class 1
                np.less(theirs[:zeros, :tests], ours[:zeros, :tests], out=miss[:zeros, :tests])
            if zeros < r:  # a class-1 point where it predicts class 0
                np.less_equal(ours[zeros:r, :tests], theirs[zeros:r, :tests], out=miss[zeros:r, :tests])
            if r == 1:
                wrong += miss[0, :tests]
            else:
                wrong += np.add.reduce(miss[:r, :tests].view(np.uint8), axis=0, dtype=np.int32)
        return wrong

    def errors_for_words(self, words: np.ndarray) -> np.ndarray:
        n, d = self.pool_x.shape
        if self._byte_tables is None:
            # rows 2k and 2k + 1 the class-0 and class-1 sums of coordinate
            # k, row 2d the class-1 count, for every byte value of every
            # byte of the word
            ones = _byte_subset_sums(np.column_stack([self.pool_x, np.ones(n)]))
            tables = np.empty((ones.shape[0], 2 * d + 1, 256))
            tables[:, 0 : 2 * d : 2] = ones[:, :d, ::-1]
            tables[:, 1 : 2 * d : 2] = ones[:, :d]
            tables[:, 2 * d] = ones[:, d]
            self._byte_tables = tables
        sums = _sum_byte_tables(self._byte_tables, words)
        counts = np.empty((2, words.shape[0]))
        counts[1] = sums[2 * d]
        np.subtract(n, counts[1], out=counts[0])
        # a labeling with an empty class predicts the nonempty class
        empty = counts == 0
        np.maximum(counts, 1, out=counts)
        wrong = self._errors_of_sums(sums[: 2 * d].reshape(d, 2, -1), counts)[0]
        wrong[empty[1]] = self._errors_y1
        wrong[empty[0]] = self._errors_y0
        return wrong

    def _block_errors(self, high: int, bits: int) -> np.ndarray:
        """Error counts of the 2**bits words ``high + s`` in ascending s,
        in row 0, and of their complements, in row 1; ``high`` has no set
        bit below ``bits`` and the block's words have the top bit clear.
        Word 0, the only one of them with an empty class, predicts class
        0 everywhere and its complement class 1."""
        sums, counts = self._block_sums(high, bits)
        if high == 0:
            counts[1, 0] = 1
        wrong = self._errors_of_sums(sums, counts, pairs=True)
        if high == 0:
            wrong[:, 0] = self._errors_y1, self._errors_y0
        return wrong

    def sweep(self, prefix_word: int, low_bits: int, tracker) -> None:
        """Score the words that share ``prefix_word``'s bits from
        ``low_bits`` up, whose top bit is clear, in blocks of up to
        2**(``_BLOCK_BITS`` - 1) consecutive words, each with its mirror
        block of their complements, and merge each pair's summary into
        ``tracker`` unless its best is above the tracker's."""
        bits = min(low_bits, _BLOCK_BITS - 1)
        # the complement of high + s is mirror - high + (2**bits - 1 - s)
        mirror = (1 << len(self._rows)) - (1 << bits)
        for high in range(prefix_word, prefix_word + (1 << low_bits), 1 << bits):
            _merge_pair(tracker, high, mirror - high, self._block_errors(high, bits))

    def _block_sums(self, high: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
        """Class sums (d, 2, 2**bits) and class counts (2, 2**bits) of the
        2**bits words ``high + s`` in ascending s, laid out as
        ``_errors_of_sums`` takes them.  The counts are one more column
        of the same folds, a 1 for each row."""
        table = self._block_table[:, : 1 << bits]
        sums = np.empty((table.shape[0], 2, 1 << bits))
        by_class = (sums[:, 0], sums[:, 1])
        np.copyto(by_class[0], table[:, ::-1])  # the clear bits of s are the set bits of its complement
        np.copyto(by_class[1], table)
        for i in range(bits, len(self._rows)):
            bit = (high >> i) & 1
            np.add(by_class[bit], self._row_columns[i], out=by_class[bit])
        return sums[:-1], sums[-1]


# --- Gray-code enumeration --------------------------------------------------

#: Flipped bit of steps 1..4095 of a reflected-Gray sweep (the number of
#: trailing zeros of the step).  Wider sweeps repeat it between flips of
#: their higher bits, so the table stays 4 KiB for any width.
_RULER_BITS = 12
_RULER = bytes((s & -s).bit_length() - 1 for s in range(1, 1 << _RULER_BITS))


def _gray_flip_blocks(bits: int):
    """Yield the flip indices of a ``bits``-wide reflected-Gray sweep in
    bytes blocks.  Applied from word 0, the joined flips visit every
    ``bits``-bit word once; the word after step s is ``s ^ (s >> 1)``."""
    inner = min(bits, _RULER_BITS)
    yield _RULER[: (1 << inner) - 1]
    for block in range(1, 1 << (bits - inner)):
        yield bytes(((block & -block).bit_length() - 1 + _RULER_BITS,)) + _RULER


class _OneNNEvaluator:
    """One-nearest-neighbor learner driven by single-bit flips, word
    batches or Gray sweeps.

    The trusted-to-pool nearest index is computed once and reduced to
    per-item class tallies: y0[i] and y1[i] count the trusted points of
    class 0 and 1 whose nearest pool item is i.  A word's error count is
    then ``sum(y1) + sum over set bits i of (y0[i] - y1[i])``, so a flip
    updates it in O(1), and a batch adds one byte-table entry of summed
    gains per byte of the word.  The tallies are Python ints: numpy
    scalars would cost more per flip than the update itself.  For the
    same reason the sweep applies ``flip``'s update to locals instead of
    calling ``flip`` and ``errors`` per word; the heuristic walks call
    them.
    """

    def __init__(self, pool_x, ax, ay):
        n = pool_x.shape[0]
        # entry 2i + c counts the class-c trusted points nearest to item i
        tallies = np.bincount(2 * nearest_pool_index(pool_x, ax) + ay, minlength=2 * n).tolist()
        self._y0 = tallies[0::2]
        self._y1 = tallies[1::2]
        self.word = 0
        self._errors = 0
        self._delta: list[int] = []
        self._base = sum(self._y1)  # errors of the all-zeros word
        self._tables = None

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
        if self._tables is None:
            # the summed change from setting the bits of each byte value
            gains = np.subtract(self._y0, self._y1, dtype=np.int64)
            self._tables = _byte_subset_sums(gains[:, None])
        return self._base + _sum_byte_tables(self._tables, words)[0]

    def sweep(self, prefix_word: int, low_bits: int, tracker) -> None:
        """Walk the words that share ``prefix_word``'s bits from
        ``low_bits`` up in Gray order, from a fresh reset, and merge
        into ``tracker`` two summaries per block of ``_gray_flip_blocks``:
        one of the words walked and one of their complements.

        Every trusted point is an error under exactly one of w and ~w,
        so err(~w) = m - err(w).  A block lists the words that tie the
        best error seen so far in the walk, and the words whose
        complements tie the complements' best, which is the highest
        err(w) seen; each list starts anew when its best drops.  The
        other candidates could not change the summaries.

        The walk keeps the error count, the deltas and the word in
        locals, updating the delta list in place.  It leaves ``word`` and
        the error count at its last word, so ``flip``, ``errors`` and
        ``reset`` work after it as after any walk of ``flip`` calls.
        """
        trusted = self._base + sum(self._y0)
        mask = (1 << len(self._y0)) - 1
        best = worst = err = self.reset(prefix_word)
        delta, word = self._delta, prefix_word
        words, complements = [word], [word]
        for block in _gray_flip_blocks(low_bits):
            for i in block:
                d = delta[i]
                err += d
                delta[i] = -d
                word ^= 1 << i
                if err <= best:
                    if err < best:
                        best, words = err, []
                    words.append(word)
                if err >= worst:
                    if err > worst:
                        worst, complements = err, []
                    complements.append(word)
            if words:
                tracker.merge(best, len(words), np.sort(np.array(words, dtype=np.int64)))
                words = []
            if complements:
                flipped = mask ^ np.array(complements, dtype=np.int64)
                tracker.merge(trusted - worst, len(complements), np.sort(flipped))
                complements = []
        self.word, self._errors = word, err


def _make_evaluator(kind: str, pool_x, ax, ay):
    return _CentroidEvaluator(pool_x, ax, ay) if kind == CENTROID else _OneNNEvaluator(pool_x, ax, ay)
