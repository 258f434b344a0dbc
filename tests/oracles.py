"""Independent reference implementations used to check the library.

Everything here deliberately avoids the library's fast paths: the brute
force below refits per labeling in plain binary order (no Gray walk, no
incremental state), means come from math.fsum, and nearest neighbors
from nested Python loops.
"""

import math

import numpy as np

from labelsearch.core import Labeling
from labelsearch.learners import centroid_predictions, class_sums_and_counts, fit, predict


def pack_word(labels):
    """Labeling word of a 0/1 sequence, item i at bit i."""
    return sum(int(v) << i for i, v in enumerate(labels))


def inverse_gray(words, n):
    """Step of each reflected-Gray word: the XOR of all its right shifts."""
    steps = words.copy()
    for shift in range(1, n):
        steps ^= words >> np.uint64(shift)
    return steps


def naive_error_counts(task, kind):
    """Error count per labeling word, refit from scratch, binary order."""
    counts = np.empty(1 << task.n, dtype=np.int64)
    for word in range(1 << task.n):
        state = fit(task.pool, Labeling(word, task.n), kind)
        pred = predict(state, task.trusted)
        counts[word] = int(np.count_nonzero(pred != task.trusted.y))
    return counts


def naive_best(task, kind):
    """Global optimum and the full sorted list of optimum words."""
    counts = naive_error_counts(task, kind)
    best = int(counts.min())
    return best, [int(w) for w in np.flatnonzero(counts == best)]


def fsum_class_means(pool_x, labels):
    """Per-class coordinate means via math.fsum, None for empty classes."""
    means = []
    for cls in (0, 1):
        rows = [row for row, lab in zip(pool_x, labels) if lab == cls]
        if not rows:
            means.append(None)
        else:
            means.append([math.fsum(r[k] for r in rows) / len(rows) for k in range(len(rows[0]))])
    return means


def brute_nearest(pool_x, queries):
    """Nearest pool index per query, nested loops, ties to lowest index."""
    out = []
    for q in queries:
        best_i, best_d = 0, math.inf
        for i, p in enumerate(pool_x):
            dist = math.fsum((float(a) - float(b)) ** 2 for a, b in zip(q, p))
            if dist < best_d:
                best_i, best_d = i, dist
        out.append(best_i)
    return np.array(out, dtype=np.int64)


def onenn_closed_form(task):
    """Exact one-NN optimum without a search.

    With y0_i / y1_i the trusted points of class 0 / 1 whose nearest pool
    item is i, err(word) = sum_i (y0_i if bit i else y1_i): each bit
    chooses its own term.  Returns (best errors, number of optimum words,
    smallest optimum word).
    """
    nn = brute_nearest(task.pool.x, task.trusted.x)
    y0 = [0] * task.n
    y1 = [0] * task.n
    for i, label in zip(nn, task.trusted.y):
        (y1 if label == 1 else y0)[i] += 1
    best = sum(min(a, b) for a, b in zip(y0, y1))
    k_opt = 2 ** sum(a == b for a, b in zip(y0, y1))
    smallest = sum(1 << i for i, (a, b) in enumerate(zip(y0, y1)) if a < b)
    return best, k_opt, smallest


class NumpyRowCentroidEvaluator:
    """The centroid evaluator's single-flip path on numpy rows.

    Running class sums form a (2, d) float64 array that a flip updates a
    row at a time, and every score calls ``centroid_predictions``: the
    arithmetic the library's evaluator must reproduce bit for bit.
    """

    def __init__(self, pool_x, ax, ay):
        self.pool_x = pool_x
        self.ax = ax
        self.ay = ay
        self.word = 0
        self.sums = None
        self.counts = [0, 0]

    def reset(self, word):
        self.word = word
        labels = Labeling(word, self.pool_x.shape[0]).labels()
        self.sums, counts = class_sums_and_counts(self.pool_x, labels)
        self.counts = list(counts)
        return self.errors()

    def flip(self, i):
        old = (self.word >> i) & 1
        x_i = self.pool_x[i]
        self.sums[old] -= x_i
        self.sums[1 - old] += x_i
        self.counts[old] -= 1
        self.counts[1 - old] += 1
        self.word ^= 1 << i

    def errors(self):
        pred = centroid_predictions(self.sums, self.counts, self.ax)
        return int(np.count_nonzero(pred != self.ay))


def scalar_draw_anneal_walk(evaluator, n, config, tracker, rng):
    """The annealing walk with numpy's scalar draws: every proposal calls
    ``rng.integers(0, n)``, every uphill move ``rng.random()``, and every
    candidate is offered to the tracker.  The library's walk must give
    the same outcome and leave ``rng`` in the same state."""
    evals = 0
    starts = 0
    per_restart = max(1, config.budget // config.restarts)
    while evals < config.budget and starts < config.restarts:
        word = int(rng.integers(0, 1 << n, dtype=np.uint64))
        err = evaluator.reset(word)
        evals += 1
        tracker.offer(word, err)
        temperature = config.initial_temp
        steps = 1
        while steps < per_restart and evals < config.budget:
            i = int(rng.integers(0, n))
            evaluator.flip(i)
            candidate = word ^ (1 << i)
            cand_err = evaluator.errors()
            evals += 1
            steps += 1
            tracker.offer(candidate, cand_err)
            delta = cand_err - err
            if delta <= 0 or (temperature > 0.0 and rng.random() < math.exp(-delta / temperature)):
                word, err = candidate, cand_err
            else:
                evaluator.flip(i)
            temperature *= config.decay
        starts += 1
    return evals


def single_flip_greedy_walk(evaluator, n, config, tracker, rng):
    """The first-improvement greedy walk one candidate at a time: flip,
    score, and flip back unless the move strictly improves.  The
    library's walk must give the same outcome and leave ``rng`` in the
    same state."""
    evals = 0
    starts = 0
    while evals < config.budget and starts < config.restarts:
        word = 0 if starts == 0 else int(rng.integers(0, 1 << n, dtype=np.uint64))
        err = evaluator.reset(word)
        evals += 1
        tracker.offer(word, err)
        while evals < config.budget:
            improved = False
            for i in range(n):
                if evals >= config.budget:
                    break
                evaluator.flip(i)
                candidate = word ^ (1 << i)
                cand_err = evaluator.errors()
                evals += 1
                if cand_err <= tracker.best:
                    tracker.offer(candidate, cand_err)
                if cand_err < err:
                    word, err = candidate, cand_err
                    improved = True
                    break
                evaluator.flip(i)
            if not improved:
                break
        starts += 1
    return evals


def ols_slope(xs, ys):
    """Least-squares slope via the closed form, independent of the library."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    n = len(xs)
    xbar = math.fsum(xs) / n
    ybar = math.fsum(ys) / n
    num = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = math.fsum((x - xbar) ** 2 for x in xs)
    return num / den
