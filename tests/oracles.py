"""Independent reference implementations used to check the library.

Everything here deliberately avoids the library's fast paths: the brute
force below refits per labeling in plain binary order (no Gray walk, no
incremental state), means come from math.fsum, and nearest neighbors
from nested Python loops.
"""

import math

import numpy as np

from labelsearch.core import Labeling
from labelsearch.learners import fit, predict


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
