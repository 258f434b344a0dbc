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
takes summaries in any order.  The centroid evaluator sweeps in calls
of a few blocks of 2**8 consecutive words, together with their
complements, and forms class sums from the per-byte subset tables
batch scoring reads; the one-NN evaluator walks the subcube in
reflected-Gray order, so consecutive candidates differ in one bit and
its state is updated instead of refit.  The walk applies that update to its error count,
per-item deltas and word held in locals; the annealing walk updates the
same state through ``flip`` and ``errors``, and the greedy walk scores
all one-flip neighbours of its word in one ``neighbour_errors`` call
that leaves the state alone.  That order comes from one place, the 4095-step ruler behind
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
1e-9 relative.  A neighbour scan forms each neighbour's class sums from
the current sums with ``flip``'s operations and scores them in the
batch scorer, so entry i is what ``flip(i)`` then ``errors()`` gives, on
any data.  The sweep and batch scoring both form a word's class
sums as its per-byte table entries added in ascending byte order, so on
any data a word scores the same on either path and in whichever sweep
call it falls.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
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
# Each word is split into bytes (byte j holds the labels of pool rows
# 8j..8j+7) and one 256-entry table is read per byte, so the sum over a
# word's set bits is one entry per byte, added in ascending byte order.
# Batch scoring gathers the entries of arbitrary words.  The centroid
# sweep reads the same tables a block at a time: the 2**8 words of a
# block differ only in byte 0, so their sums are byte 0's whole table
# plus one entry of each higher byte.

#: Width of a centroid sweep block and its mirror block, in bits: a
#: block is the 2**8 words of one byte-0 table, and its mirror block
#: their complements.
_BLOCK_BITS = 9

#: Distances computed per numpy call when scoring class-sum columns:
#: 2**14 float64 values, 128 KiB, so that a sweep call of 2**11 words
#: and their complements scores 4 trusted points per numpy call.  Its
#: rows of 2**12 values matter more than the points per call: numpy
#: broadcasts a point's coordinate over rows of 2**11 values or fewer at
#: about four times the cost per value.  A budget of 2**16, 16 points
#: per call, scored 15-20% faster per labeling but bent the benchmark's
#: 1-worker curve: in processes where Python and numpy dispatch ran slow,
#: the per-call fixed cost grew and the per-labeling cost did not.
_SCORE_CELLS = 1 << 14


def _byte_subset_sums(rows: np.ndarray, tables: np.ndarray) -> None:
    """Write into ``tables`` (256, bytes, columns), whose entry 0 is
    zero, the subset sums of the (bytes, 8, columns) pool rows of each
    byte of the word, with zero rows past the pool: entry s of byte j
    sums the byte's rows i of the set bits i of s, added in ascending i
    onto a zero."""
    for b in range(8):
        np.add(tables[: 1 << b], rows[:, b], out=tables[1 << b : 2 << b])


def _sum_byte_tables(tables: np.ndarray, words: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` (columns, len(words)) the sums of each word's
    entries of the (bytes, columns, 256) tables, added in ascending byte
    order."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8).reshape(-1, 8)
    np.take(tables[0], octets[:, 0], axis=1, out=out, mode="clip")  # "clip" writes to out unbuffered
    for j in range(1, tables.shape[0]):
        out += np.take(tables[j], octets[:, j], axis=1, mode="clip")


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


class _ScoringBuffer(threading.local):
    """One float64 buffer per thread, from which every centroid scoring
    call of the thread cuts its arrays, and the arrays cut from it so
    far, by shape.  The buffer grows to the largest call's need and is
    never shrunk, so that after a thread's first calls no scoring call
    allocates its arrays or faults in their pages, whatever the task and
    the call's width.  A forked process keeps its own copy."""

    def __init__(self):
        self.values = np.empty(0)
        self.cuts = {}


_SCORING = _ScoringBuffer()

#: Page offsets of the scoring arrays, in bytes past a multiple of 4 KiB,
#: in the order ``_scoring_arrays`` cuts them.  Each pair of arrays that
#: one numpy call reads and writes lies at least 512 bytes apart within
#: a page: an array a few bytes past a multiple of 4 KiB from another
#: makes each load from it wait for the stores to the other (4K
#: aliasing), and as separate heap blocks their offsets, and so the
#: sweep's speed, would follow the heap's earlier history.
_PAGE_OFFSETS = (1024, 0, 2048, 3072, 512)

#: Shapes whose arrays a thread keeps cut, at most.
_KEPT_CUTS = 32


def _scoring_arrays(coords: int, points: int, width: int) -> tuple:
    """Arrays for scoring ``width`` candidates and their complements
    against ``points`` trusted points in ``coords`` dimensions, cut from
    this thread's scoring buffer: class sums with the class sizes in the
    last row, which the scoring divides into centroids in place;
    distances and their scratch space for as many points as keep about
    ``_SCORE_CELLS`` distances, and at most 255, so that a byte counts
    their misses; the distances by class and with the classes swapped;
    missed-point flags, which overwrite the scratch space; their counts;
    and error counts.  Their values last until the thread's next
    scoring call."""
    rows = min(max(1, _SCORE_CELLS // (2 * width)), points, 255)
    scoring = _SCORING
    arrays = scoring.cuts.get((coords, rows, width))
    if arrays is not None:
        return arrays
    cells = rows * 2 * width
    sizes = ((coords + 1) * 2 * width, cells, cells, 2 * width, -(-width // 4))
    need = sum(sizes) + 512 * len(sizes)
    if scoring.values.size < need:
        scoring.values, scoring.cuts = np.empty(need), {}
    elif len(scoring.cuts) == _KEPT_CUTS:
        scoring.cuts.clear()
    values = scoring.values
    address, start, cut = values.ctypes.data, 0, []
    for size, offset in zip(sizes, _PAGE_OFFSETS):
        start += (offset - address - 8 * start) % 4096 // 8
        cut.append(values[start : start + size])
        start += size
    sums, dist, diff, wrong, counted = cut
    by_class = dist.reshape(rows, 2, width)  # per trusted point, [d0, d1] ...
    arrays = (sums.reshape(coords + 1, 2, width), dist.reshape(rows, 2 * width), diff.reshape(rows, 2 * width),
              by_class, by_class[:, ::-1],  # ... beside [d1, d0]
              diff.view(bool)[:cells].reshape(rows, 2, width), counted.view(np.uint8)[: 2 * width].reshape(2, width),
              wrong.view(np.int64).reshape(2, width))
    scoring.cuts[coords, rows, width] = arrays
    return arrays


def _sweep_call_bits(points: int) -> int:
    """Width in bits of the centroid sweep's scoring calls: K
    consecutive blocks of 2**8 words each, K the smallest power of two
    at or above ``points`` / 8, at most 8.

    A call's numpy dispatch is spread over its K blocks.  At a few
    trusted points a block scores fast, and a pool too small to fill K
    blocks per call would pay more per word than larger pools do, so
    the time per labeling would fall with n; at many points scoring
    outweighs dispatch, and long rows cost less per word."""
    return _BLOCK_BITS - 1 + min(3, ((points - 1) // 8).bit_length())


# --- evaluators -------------------------------------------------------------
#
# An evaluator holds one labeling word of the pool and the learner state
# fitted to it.  ``reset(word)`` refits and returns the error count on the
# trusted points, ``flip(i)`` toggles bit i and updates the state without
# scoring, and ``errors()`` scores the current state.  Walks that undo a
# rejected flip call ``flip`` twice and score once.
# ``neighbour_errors()`` returns, as a list, the error counts of the n
# words ``word ^ (1 << i)``, each as ``flip(i)`` then ``errors()`` would
# score it, and leaves the current state alone.
# ``errors_for_words(words)`` scores a uint64 array of words at once and
# leaves the current state alone.
# ``sweep(prefix_word, low_bits, tracker)`` scores the subcube of the
# 2**low_bits words that share ``prefix_word``'s higher bits, whose top
# bit is clear, together with the subcube of their complements: the
# complement ~w of a word w puts every pool item in the other class, so
# its class sums are w's swapped and one set of class sums or tallies
# scores both words.  It calls ``tracker.merge(best, count, words)`` for
# the words it scores, a part at a time, with the part's best error,
# the exact count of its words that reach it and those words in
# ascending order (all of them: the tracker keeps the smallest).  Parts
# may report in any order.  The centroid evaluator reports each scoring
# call's consecutive words and their complements as one part, the
# one-NN evaluator each block of its Gray walk and, apart, the
# complements of its words.  The exhaustive search calls only ``sweep``,
# so how a learner walks a subcube is decided here.


def _merge_pair(tracker, high: int, mirror: int, wrong: np.ndarray) -> None:
    """Merge into ``tracker``, unless its best is above the tracker's,
    the summary of a run of consecutive words and the run of their
    complements: the words ``high + s`` with errors ``wrong[0, s]`` and
    their complements ``mirror + (width - 1 - s)`` with errors
    ``wrong[1, s]``."""
    low = int(wrong.min())
    if low <= tracker.best:
        words = (wrong.reshape(-1) == low).nonzero()[0]
        width = wrong.shape[1]
        split = int(words.searchsorted(width))
        # the run's words have the top bit clear and their complements
        # have it set, so the run's come first
        words[:split] += high
        words[split:] = (mirror + 2 * width - 1) - words[split:][::-1]
        tracker.merge(low, words.size, words)


class _CentroidEvaluator:
    """Centroid learner driven by single-bit flips, word batches or
    sweep calls.

    Every path predicts with the arithmetic of ``centroid_predictions``
    and ``squared_distances``, as the public learner does, so they match
    refit-from-scratch results (bit-for-bit on dyadic-grid coordinates).

    The single-flip path keeps the running class sums as Python floats
    and the pool rows as float tuples: a flip is then 2*d float adds,
    where numpy rows of length d would cost more per call than the
    arithmetic.  ``errors`` divides the sums in Python and does the same
    IEEE operations, in the same order, on contiguous trusted columns.
    The build makes only what the sweep reads; the single-flip path
    makes its rows and columns when it first needs them.  A neighbour
    scan adds each item's signed row, held per bit value in ``_moves``,
    to the current sums and scores the n neighbours at once in
    ``_errors_of_sums``.

    The batch and sweep paths form class-sum columns for many words at
    once from one set of per-byte subset tables, adding each word's
    entries in ascending byte order, and score them in
    ``_errors_of_sums``: no bit matrix and no BLAS call.  So a word's
    class sums are the same whether a batch or a sweep forms them.  A
    batch gathers each word's entries.  A sweep call takes K
    consecutive blocks of 2**8 words (``_sweep_call_bits``): each block
    is byte 0's table plus the higher bytes' entries of the block.  The
    same class sums, swapped, are those of the words' complements, so
    the sweep scores each call's words together with their complements
    from the one set of distances.
    """

    def __init__(self, pool_x, ax, ay):
        self.pool_x = pool_x
        self._ax = ax
        self._ay = ay
        self.word = 0
        self.sums = None
        self.counts = [0, 0]
        # coordinate k of trusted point j at [k, j, 0], class-0 points first
        self._point_columns = ax.take(ay.argsort(kind="stable"), axis=0).T[:, :, None]
        self._errors_y1 = int(np.count_nonzero(ay))
        self._errors_y0 = ay.shape[0] - self._errors_y1
        # per byte of the word and byte value b, the sum of coordinate k
        # of the byte's class-0 rows at [k, 0, b] and of its class-1 rows
        # at [k, 1, b], and the class sizes at [d, :, b]: the class-0 rows
        # of b are the class-1 rows of 255 - b
        n, d = pool_x.shape
        rows = np.zeros((-(-n // 8) * 8, d + 1))
        rows[:n, :d] = pool_x
        rows[:n, d] = 1
        ones = np.zeros((256, rows.shape[0] // 8, d + 1))
        _byte_subset_sums(rows.reshape(-1, 8, d + 1), ones)
        self._tables = np.empty((ones.shape[1], d + 1, 2, 256))
        self._tables[:, :, 0] = ones[::-1].transpose(1, 2, 0)
        self._tables[:, :, 1] = ones.transpose(1, 2, 0)
        self._call_bits = _sweep_call_bits(ay.shape[0])

    @cached_property
    def _rows(self) -> list:
        return [tuple(row) for row in self.pool_x.tolist()]

    @cached_property
    def _columns(self) -> list:
        return [np.ascontiguousarray(self._ax[:, k]) for k in range(self._ax.shape[1])]

    @cached_property
    def _is_one(self) -> np.ndarray:
        return self._ay == 1

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

    @cached_property
    def _moves(self) -> np.ndarray:
        """Per bit value b, the change to the class sums and sizes at
        [b, k, c, i] when item i leaves class b: the negated pool row in
        class b's column and the row itself in the other's, with 1 for
        the item in row d."""
        n, d = self.pool_x.shape
        rows = np.ones((d + 1, n))
        rows[:d] = self.pool_x.T
        moves = np.empty((2, d + 1, 2, n))
        moves[0, :, 0] = moves[1, :, 1] = -rows
        moves[0, :, 1] = moves[1, :, 0] = rows
        return moves

    def neighbour_errors(self) -> list[int]:
        n = self.pool_x.shape[0]
        arrays = _scoring_arrays(*self._point_columns.shape[:2], n)
        sums = arrays[0]
        (n0, n1), word = self.counts, self.word
        bits = np.unpackbits(np.frombuffer(word.to_bytes(8, "little"), np.uint8), count=n, bitorder="little")
        # flip's operations: a sum plus a negated row is the sum minus the row
        current = np.array([self.sums[0] + [n0], self.sums[1] + [n1]]).T[:, :, None]
        np.add(current, np.where(bits.view(bool), self._moves[1], self._moves[0]), out=sums)
        return self._errors_of_sums(arrays, 1)[0].tolist()

    def _errors_of_sums(self, arrays: tuple, tests: int) -> np.ndarray:
        """Error counts of candidate labelings given as the class-sum
        columns of ``arrays``, in row 0 of its error counts, and with
        ``tests`` = 2 those of the candidates' complements in row 1.  The
        counts are valid until the thread's next scoring call.

        ``sums[k, c, j]`` is coordinate k of class c's sum for candidate
        j and ``sums[d, c, j]`` the size of class c, as a float.  The sums
        are divided, in place, into centroid columns and scored with the
        operations of ``squared_distances``: both
        classes at once, for as many trusted points per numpy call as
        keep about ``_SCORE_CELLS`` distances.  A complement's class
        sums are its candidate's swapped, so its distances are too: a
        candidate predicts class 1 where d1 < d0, its complement where
        d0 < d1, and a tie predicts class 0 under both.  A candidate
        with an empty class predicts the nonempty class, and its
        complement the other one.
        """
        sums, dist, diff, ours, theirs, miss, counted, wrong = arrays
        width = sums.shape[-1]
        # rows of 2 * width values: numpy broadcasts a row over shorter
        # rows at several times the cost per value
        columns = sums.reshape(-1, 2 * width)
        centroids, sizes = columns[:-1], columns[-1]
        empty = []
        if not sizes.all():
            empty = (sizes == 0).nonzero()[0].tolist()  # class c of candidate j at c * width + j
            sizes[empty] = 1
        np.divide(centroids, sizes, out=centroids)
        rows = dist.shape[0]
        wrong = wrong[:tests]
        wrong.fill(0)
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
                np.add.reduce(miss[:r, :tests].view(np.uint8), axis=0, out=counted[:tests])
                wrong += counted[:tests]
        # a candidate whose class c is empty predicts the other class for
        # every point and so misses the points of class c; its
        # complement's empty class is the other one
        missed = (self._errors_y0, self._errors_y1, self._errors_y0)
        for at in empty:
            c, j = divmod(at, width)
            wrong[:, j] = missed[c : c + tests]
        return wrong

    def errors_for_words(self, words: np.ndarray) -> np.ndarray:
        arrays = _scoring_arrays(*self._point_columns.shape[:2], words.shape[0])
        sums = arrays[0]
        _sum_byte_tables(self._tables.reshape(self._tables.shape[0], -1, 256), words,
                         sums.reshape(-1, words.shape[0]))
        return self._errors_of_sums(arrays, 1)[0].copy()

    def _block_sums(self, high: int, sums: np.ndarray) -> None:
        """Write into ``sums`` (d + 1, 2, width) the class sums and, in
        row d, the class sizes of the words ``high + s`` in ascending s,
        one or more whole blocks, or part of one, that differ only in
        their low bits: byte 0's table entries of the words plus the
        entries of each higher byte, in ascending byte order."""
        tables = self._tables
        width = sums.shape[-1]
        blocks = max(1, width >> 8)
        low = high & 255
        # one block of consecutive byte-0 entries per byte-1 value
        by_block = sums.reshape(sums.shape[0], 2, blocks, width // blocks)
        first = tables[0, :, :, None, low : low + width // blocks]
        if tables.shape[0] > 1:
            byte = (high >> 8) & 255
            np.add(first, tables[1, :, :, byte : byte + blocks, None], out=by_block)
        else:
            np.copyto(by_block, first)
        for j in range(2, tables.shape[0]):
            sums += tables[j, :, :, (high >> 8 * j) & 255, None]

    def _block_errors(self, high: int, width: int) -> np.ndarray:
        """Error counts of the ``width`` words ``high + s`` in ascending
        s, in row 0, and of their complements, in row 1; ``high`` is a
        multiple of ``width``, a power of two, and the words have the top
        bit clear."""
        arrays = _scoring_arrays(*self._point_columns.shape[:2], width)
        self._block_sums(high, arrays[0])
        return self._errors_of_sums(arrays, 2)

    def sweep(self, prefix_word: int, low_bits: int, tracker) -> None:
        """Score the words that share ``prefix_word``'s bits from
        ``low_bits`` up, whose top bit is clear, in calls of up to
        2**``_call_bits`` consecutive words, each with their complements,
        and merge each call's summary into ``tracker`` unless its best is
        above the tracker's."""
        bits = min(low_bits, self._call_bits)
        # the complement of high + s is mirror - high + (2**bits - 1 - s)
        mirror = (1 << self.pool_x.shape[0]) - (1 << bits)
        for high in range(prefix_word, prefix_word + (1 << low_bits), 1 << bits):
            _merge_pair(tracker, high, mirror - high, self._block_errors(high, 1 << bits))


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
    calling ``flip`` and ``errors`` per word; the annealing walk calls
    them, and a neighbour scan adds each item's delta to the error
    count.
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

    def neighbour_errors(self) -> list[int]:
        err = self._errors
        return [err + d for d in self._delta]

    def errors_for_words(self, words: np.ndarray) -> np.ndarray:
        if self._tables is None:
            # the summed change from setting the bits of each byte value
            n = len(self._y0)
            gains = np.zeros((-(-n // 8) * 8, 1), dtype=np.int64)
            gains[:n, 0] = np.subtract(self._y0, self._y1)
            self._tables = np.zeros((gains.shape[0] // 8, 1, 256), dtype=np.int64)
            _byte_subset_sums(gains.reshape(-1, 8, 1), self._tables.transpose(2, 0, 1))
        gains = np.empty((1, words.shape[0]), dtype=np.int64)
        _sum_byte_tables(self._tables, words, gains)
        return self._base + gains[0]

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
