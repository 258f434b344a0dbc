"""Independent references that every benchmark output is checked against.

Nothing here calls the library's learners or search code; only task
objects are read.

* one-NN: the error is separable per pool item, ``err(word) =
  sum_i (bit_i ? y0_i : y1_i)`` with y0_i / y1_i the trusted points of
  each class whose nearest pool item is i.  So ``best = sum min(y0, y1)``,
  ``k_opt = 2**#ties`` and the optima are the forced bits (``y0 < y1``)
  combined with every subset of the tied bits.  Holds for any n <= 63.
* centroid: every word is refit in vectorized form.  Class sums are
  taken in integers on the generator's dyadic grid, so they are exact,
  and distances accumulate coordinates in ascending order, like
  ``learners.squared_distances``; on grid data the result is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Spacing of the task generator's coordinate grid (2**-24).
GRID = 2.0**-24

#: Optimum words an outcome lists at most (the library's documented cap).
ARGMIN_CAP = 1024

#: Words scored per numpy call; small, so that the references add little
#: to the benchmark's peak RSS.
_CHUNK = 256


@dataclass(frozen=True)
class Optimum:
    """Exact optimum of a task: error count, optimum count and the
    smallest optimum words (at most ``ARGMIN_CAP``), ascending."""

    errors: int
    count: int
    words: tuple[int, ...]


def word_bits(words, n: int) -> np.ndarray:
    """(len(words), n) 0/1 int64 matrix, column i holding bit i."""
    words = np.asarray(words, dtype=np.uint64)
    shifts = np.arange(n, dtype=np.uint64)
    return ((words[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)


def nearest_index(pool_x: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Nearest pool item per query (squared distance, ties to lowest index)."""
    diff = queries[:, None, 0] - pool_x[None, :, 0]
    dist = diff * diff
    for k in range(1, pool_x.shape[1]):
        diff = queries[:, None, k] - pool_x[None, :, k]
        dist = dist + diff * diff
    return np.argmin(dist, axis=1)  # argmin returns the first minimum


class OneNNReference:
    """Closed-form one-NN optimum and error counts."""

    def __init__(self, task):
        n = task.n
        nn = nearest_index(task.pool.x, task.trusted.x)
        y = task.trusted.y
        self.n = n
        self.y0 = np.bincount(nn[y == 0], minlength=n).astype(np.int64)
        self.y1 = np.bincount(nn[y == 1], minlength=n).astype(np.int64)
        self.tied = [i for i in range(n) if self.y0[i] == self.y1[i]]
        self.forced = sum(1 << i for i in range(n) if self.y0[i] < self.y1[i])

    def errors(self, words) -> np.ndarray:
        words = np.asarray(words, dtype=np.uint64)
        out = np.empty(words.shape[0], dtype=np.int64)
        for start in range(0, words.shape[0], _CHUNK):
            bits = word_bits(words[start : start + _CHUNK], self.n)
            out[start : start + bits.shape[0]] = bits @ self.y0 + (1 - bits) @ self.y1
        return out

    def optimum(self) -> Optimum:
        count = 1 << len(self.tied)
        words = []
        # Depositing the bits of t onto the tied positions is monotone in
        # t, so t = 0, 1, ... gives the optima in ascending word order.
        for t in range(min(count, ARGMIN_CAP)):
            word = self.forced
            for j, pos in enumerate(self.tied):
                if (t >> j) & 1:
                    word |= 1 << pos
            words.append(word)
        return Optimum(int(np.minimum(self.y0, self.y1).sum()), count, tuple(words))


class CentroidReference:
    """Nearest-centroid error counts by refitting each word."""

    def __init__(self, task):
        scaled = task.pool.x / GRID
        self.pool_int = np.rint(scaled).astype(np.int64)
        if not np.array_equal(self.pool_int, scaled):
            raise ValueError("centroid reference needs pool coordinates on the 2**-24 grid")
        self.total = self.pool_int.sum(axis=0)
        self.n = task.n
        self.ax = task.trusted.x
        self.ay = task.trusted.y.astype(np.int64)

    def errors(self, words) -> np.ndarray:
        words = np.asarray(words, dtype=np.uint64)
        out = np.empty(words.shape[0], dtype=np.int64)
        for start in range(0, words.shape[0], _CHUNK):
            bits = word_bits(words[start : start + _CHUNK], self.n)
            n1 = bits.sum(axis=1)
            n0 = self.n - n1
            s1 = bits @ self.pool_int
            s0 = self.total[None, :] - s1
            with np.errstate(divide="ignore", invalid="ignore"):
                c0 = (s0 * GRID) / n0[:, None]
                c1 = (s1 * GRID) / n1[:, None]
            d0 = _squared_distances(self.ax, c0)
            d1 = _squared_distances(self.ax, c1)
            pred = (d1 < d0).astype(np.int64)  # tie -> class 0
            pred[n0 == 0] = 1  # an empty class predicts the other one
            pred[n1 == 0] = 0
            out[start : start + bits.shape[0]] = np.count_nonzero(pred != self.ay[None, :], axis=1)
        return out

    def optimum(self) -> Optimum:
        errs = self.errors(np.arange(1 << self.n, dtype=np.uint64))
        best = int(errs.min())
        hits = np.flatnonzero(errs == best)
        return Optimum(best, int(hits.size), tuple(int(w) for w in hits[:ARGMIN_CAP]))


def _squared_distances(ax: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(words, m) squared distances, coordinates accumulated in order."""
    diff = ax[None, :, 0] - centroids[:, None, 0]
    acc = diff * diff
    for k in range(1, ax.shape[1]):
        diff = ax[None, :, k] - centroids[:, None, k]
        acc = acc + diff * diff
    return acc


def make_reference(task, learner: str):
    if learner == "onenn":
        return OneNNReference(task)
    if learner == "centroid":
        return CentroidReference(task)
    raise ValueError(f"no reference for learner {learner!r}")
