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
the labeling hypercube.  The centroid evaluator sweeps in blocks of
consecutive words; the one-NN evaluator walks the subcube in
reflected-Gray order, so consecutive candidates differ in one bit and
its state is updated instead of refit.  That order comes from one
place, the 4095-step ruler behind ``_gray_flip_blocks`` (the loopless
reflected-Gray walk of Bitner, Ehrlich and Reingold, CACM 19(9),
1976); it is the package's only Gray code.

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


# --- subset tables ----------------------------------------------------------
#
# A subset table holds, for every subset of a few pool rows, the sum of
# those rows' values, each added in ascending row order onto a zero.
# Batch scoring splits each word into bytes (byte j holds the labels of
# pool rows 8j..8j+7) and reads one 256-entry table per byte, so the sum
# over a word's set bits is one gather and one add per byte.  The
# centroid sweep reads one table of the low ``_BLOCK_BITS`` rows.

#: Width of the centroid sweep's low-bit table, in bits: a sweep block
#: scores 2**9 words.  Wider blocks cost less per word on large pools,
#: but on pools of fewer than 2**12 items they spread each block's fixed
#: cost over fewer words than on larger pools, and the time per labeling
#: would then depend on n.
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


# --- evaluators -------------------------------------------------------------
#
# An evaluator holds one labeling word of the pool and the learner state
# fitted to it.  ``reset(word)`` refits and returns the error count on the
# trusted points, ``flip(i)`` toggles bit i and updates the state without
# scoring, and ``errors()`` scores the current state.  Walks that undo a
# rejected flip call ``flip`` twice and score once.
# ``errors_for_words(words)`` scores a uint64 array of words at once and
# leaves the current state alone, as does the centroid evaluator's
# ``errors_for_block(high, bits)`` for the 2**bits words from ``high``.
# ``sweep(prefix_word, low_bits, tracker)`` scores the subcube of the
# 2**low_bits words that share ``prefix_word``'s higher bits and offers
# the tracker every word that could be an optimum: the centroid
# evaluator in ascending blocks (``offer_block``), the one-NN evaluator
# one flip at a time in Gray order (``offer``).  The exhaustive search
# calls only ``sweep``, so how a learner walks a subcube is decided here.

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
    in ascending index order, whatever the block.
    """

    def __init__(self, pool_x, ax, ay):
        self.pool_x = pool_x
        self.word = 0
        self.sums = None
        self.counts = [0, 0]
        self._rows = [tuple(row) for row in pool_x.tolist()]
        self._row_columns = list(pool_x[:, :, None])
        self._columns = [np.ascontiguousarray(ax[:, k]) for k in range(ax.shape[1])]
        self._is_one = ay == 1
        self._points = ax[np.argsort(ay, kind="stable")]  # class-0 points first
        self._errors_y0 = int(np.count_nonzero(ay == 0))
        self._errors_y1 = ay.shape[0] - self._errors_y0
        self._byte_tables = None
        # rows 0..d-1 the sums and row d the count of every subset of the
        # low rows, for sweep blocks of up to 2**_BLOCK_BITS words
        bits = min(pool_x.shape[0], _BLOCK_BITS)
        self._block_table = _subset_sums(np.column_stack([pool_x[:bits], np.ones(bits)]))

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

    def _errors_of_sums(self, sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Error counts of candidate labelings given as class-sum columns.

        ``sums[k, c, j]`` is coordinate k of class c's sum for candidate
        j and ``counts[c, j]`` the size of class c, as a float.  The sums
        are divided into centroid columns and scored with the operations
        of ``squared_distances``: both classes at once, for as many
        trusted points per numpy call as keep about ``_SCORE_CELLS``
        distances.
        """
        width = counts.shape[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            centroids = (sums / counts).reshape(sums.shape[0], 2 * width)
        rows = min(max(1, _SCORE_CELLS // (2 * width)), self._points.shape[0])
        dist, diff = np.empty((rows, 2 * width)), np.empty((rows, 2 * width))
        pred1 = np.empty((rows, width), dtype=bool)
        # start from every trusted point predicted 0, then count each
        # class-1 prediction as one error more (class-0 points, sorted
        # first) or one fewer (class-1 points)
        wrong = np.full(width, self._errors_y1, dtype=np.int64)
        for start in range(0, self._points.shape[0], rows):
            points = self._points[start : start + rows]
            r = points.shape[0]
            zeros = min(max(self._errors_y0 - start, 0), r)  # class-0 points of this chunk
            if r == 1:
                # one point per call on 1-D rows, which costs less per call
                _column_distances(centroids, points[0], dist[0], diff[0])
                np.less(dist[0, width:], dist[0, :width], out=pred1[0])  # tie -> class 0
                (np.add if zeros else np.subtract)(wrong, pred1[0], out=wrong)
                continue
            _column_distances(centroids, points.T[:, :, None], dist[:r], diff[:r])
            np.less(dist[:r, width:], dist[:r, :width], out=pred1[:r])  # tie -> class 0
            votes = pred1[:r].view(np.uint8)
            if zeros:
                wrong += np.add.reduce(votes[:zeros], axis=0, dtype=np.int32)
            if zeros < r:
                wrong -= np.add.reduce(votes[zeros:], axis=0, dtype=np.int32)
        # degenerate single-class labelings predict the nonempty class
        wrong[counts[1] == 0] = self._errors_y1
        wrong[counts[0] == 0] = self._errors_y0
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
        return self._errors_of_sums(sums[: 2 * d].reshape(d, 2, -1), counts)

    def errors_for_block(self, high: int, bits: int) -> np.ndarray:
        """Error counts of the 2**bits words ``high + s`` in ascending s;
        ``high`` has no set bit below ``bits``."""
        return self._errors_of_sums(*self._block_sums(high, bits))

    def sweep(self, prefix_word: int, low_bits: int, tracker) -> None:
        """Offer ``tracker`` the words that share ``prefix_word``'s bits
        from ``low_bits`` up, in blocks of up to 2**``_BLOCK_BITS``
        consecutive words, in ascending order."""
        bits = min(low_bits, _BLOCK_BITS)
        for high in range(prefix_word, prefix_word + (1 << low_bits), 1 << bits):
            tracker.offer_block(high, self.errors_for_block(high, bits))

    def _block_sums(self, high: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
        """Class sums (d, 2, 2**bits) and class counts (2, 2**bits) of the
        words of ``errors_for_block``, laid out as ``_errors_of_sums``
        takes them."""
        table = self._block_table[:, : 1 << bits]
        d = self.pool_x.shape[1]
        sums = np.empty((d, 2, 1 << bits))
        by_class = (sums[:, 0], sums[:, 1])
        np.copyto(by_class[0], table[:d, ::-1])  # the clear bits of s are the set bits of its complement
        np.copyto(by_class[1], table[:d])
        set_high = 0
        for i in range(bits, len(self._rows)):
            bit = (high >> i) & 1
            np.add(by_class[bit], self._row_columns[i], out=by_class[bit])
            set_high += bit
        counts = np.empty((2, 1 << bits))
        np.add(table[d], set_high, out=counts[1])
        np.subtract(len(self._rows), counts[1], out=counts[0])
        return sums, counts


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
        ``low_bits`` up in Gray order, from a fresh reset.

        Only candidates that tie or beat the best so far reach the
        tracker; the others could not change it.
        """
        best = self.reset(prefix_word)
        tracker.offer(prefix_word, best)
        flip, errors, offer = self.flip, self.errors, tracker.offer
        for block in _gray_flip_blocks(low_bits):
            for i in block:
                flip(i)
                err = errors()
                if err <= best:
                    offer(self.word, err)
                    best = err


def _make_evaluator(kind: str, pool_x, ax, ay):
    return _CentroidEvaluator(pool_x, ax, ay) if kind == CENTROID else _OneNNEvaluator(pool_x, ax, ay)
