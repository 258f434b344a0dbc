"""Search over the 2**n labelings of an unlabeled pool.

The exhaustive searcher walks each subcube of the labeling hypercube in
reflected-Gray order, so consecutive candidates differ in one bit and
the learner state is updated instead of refit.  Parallel runs fix the
top bits per subcube and merge associatively, making the outcome
independent of worker count and scheduling.

Heuristic searchers (uniform random, first-improvement greedy flips,
simulated annealing) share the evaluators and the outcome format; they
can only match, never beat, the exhaustive optimum.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import signal
import time
from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np

from .core import MAX_LABELING_BITS, Labeling, SearchOutcome, Task
from .learners import (
    CENTROID,
    ONE_NN,
    _check_kind,
    centroid_predictions,
    class_sums_and_counts,
    nearest_pool_index,
)

#: Default / hard ceiling on pool size for exhaustive sweeps.  Runtime is
#: the experiment here, so the refusal is a guard rail, not a nuisance.
DEFAULT_EXHAUSTIVE_CAP = 24
HARD_EXHAUSTIVE_CAP = 32

#: Maximum number of optimum words kept in an outcome's argmin list.
#: Degenerate tasks can have exponentially many optima; the exact count
#: is still reported.
ARGMIN_CAP = 1024

GRAY_MAX_BITS = 32

_WORD_CHUNK = 8192

HEURISTIC_KINDS = ("random", "greedy-flip", "anneal")


# --- Gray-code enumeration --------------------------------------------------

def _gray_word(step: int, n: int) -> int:
    return (step ^ (step >> 1)) & ((1 << n) - 1)


@dataclass
class GrayCursor:
    """Position in a reflected-Gray sweep of n-bit words.

    ``current_word`` always equals ``step ^ (step >> 1)`` masked to n
    bits; each :meth:`advance` flips exactly one bit.
    """

    n: int
    step: int = 0

    def __post_init__(self):
        if not 1 <= self.n <= GRAY_MAX_BITS:
            raise ValueError(f"gray sweep width must be in [1, {GRAY_MAX_BITS}], got {self.n}")
        if not 0 <= self.step < (1 << self.n):
            raise ValueError("cursor step out of range")

    @property
    def current_word(self) -> int:
        return _gray_word(self.step, self.n)

    def advance(self) -> tuple[int, int]:
        """Step forward; returns (flipped bit index, new word)."""
        if self.step + 1 >= (1 << self.n):
            raise ValueError("gray sweep exhausted")
        self.step += 1
        flip = (self.step & -self.step).bit_length() - 1
        return flip, self.current_word


def gray_sequence(n: int):
    """Yield (flipped_bit, labeling) over all 2**n words, each exactly once.

    Starts at the all-zeros word (flipped_bit None); every later step
    reports the single bit that changed.
    """
    cursor = GrayCursor(n)
    yield None, Labeling(0, n)
    for _ in range((1 << n) - 1):
        flip, word = cursor.advance()
        yield flip, Labeling(word, n)


#: Flipped bit of steps 1..4095 of a reflected-Gray sweep (the number of
#: trailing zeros of the step).  Wider sweeps repeat it between flips of
#: their higher bits, so the table stays 4 KiB for any width.
_RULER_BITS = 12
_RULER = bytes((s & -s).bit_length() - 1 for s in range(1, 1 << _RULER_BITS))


def _gray_flip_blocks(bits: int):
    """Yield the flip indices of a ``bits``-wide reflected-Gray sweep in
    bytes blocks; joined, they are :meth:`GrayCursor.advance`'s flips."""
    inner = min(bits, _RULER_BITS)
    yield _RULER[: (1 << inner) - 1]
    for block in range(1, 1 << (bits - inner)):
        yield bytes(((block & -block).bit_length() - 1 + _RULER_BITS,)) + _RULER


# --- incremental evaluators -------------------------------------------------
#
# An evaluator holds one labeling word and the learner state fitted to
# it.  ``reset(word)`` refits and returns the error count, ``flip(i)``
# toggles bit i and updates the state without scoring, and ``errors()``
# scores the current state.  Walks that undo a rejected flip call
# ``flip`` twice and score once.

class _CentroidEvaluator:
    """Centroid learner driven by single-bit flips.

    Predictions are produced by the same helper as the public learner,
    so a sweep matches refit-from-scratch results (bit-for-bit on
    dyadic-grid coordinates).
    """

    def __init__(self, pool_x, ax, ay):
        self.pool_x = pool_x
        self.ax = ax
        self.ay = ay
        self.word = 0
        self.sums = None
        self.counts = [0, 0]

    def reset(self, word: int) -> int:
        self.word = word
        labels = Labeling(word, self.pool_x.shape[0]).labels()
        self.sums, counts = class_sums_and_counts(self.pool_x, labels)
        self.counts = list(counts)
        return self.errors()

    def flip(self, i: int) -> None:
        old = (self.word >> i) & 1
        x_i = self.pool_x[i]
        self.sums[old] -= x_i
        self.sums[1 - old] += x_i
        self.counts[old] -= 1
        self.counts[1 - old] += 1
        self.word ^= 1 << i

    def errors(self) -> int:
        pred = centroid_predictions(self.sums, self.counts, self.ax)
        return int(np.count_nonzero(pred != self.ay))


class _OneNNEvaluator:
    """One-nearest-neighbor learner driven by single-bit flips.

    The trusted-to-pool nearest index is precomputed once; flipping pool
    item i only moves the predictions of trusted points mapped to i, so
    the error count updates in O(1) from per-item class tallies.  The
    tallies are Python ints: numpy scalars would cost more per flip
    than the update itself.
    """

    def __init__(self, pool_x, ax, ay):
        nn = nearest_pool_index(pool_x, ax)
        n = pool_x.shape[0]
        self._y0 = np.bincount(nn[ay == 0], minlength=n).tolist()
        self._y1 = np.bincount(nn[ay == 1], minlength=n).tolist()
        self.word = 0
        self._errors = 0
        self._delta: list[int] = []

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


def _make_evaluator(kind: str, pool_x, ax, ay):
    return _CentroidEvaluator(pool_x, ax, ay) if kind == CENTROID else _OneNNEvaluator(pool_x, ax, ay)


# --- optimum tracking -------------------------------------------------------

class _SmallestTracker:
    """Track the minimum error and the smallest-by-word optima.

    Meant for enumerations that visit each word at most once: the count
    is exact and the kept list is the ``cap`` smallest optimum words
    (max-heap of negated words).
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.best: int | None = None
        self.count = 0
        self._heap: list[int] = []

    def offer(self, word: int, err: int) -> None:
        if self.best is None or err < self.best:
            self.best = err
            self.count = 1
            self._heap = [-word]
        elif err == self.best:
            self.count += 1
            if len(self._heap) < self.cap:
                heapq.heappush(self._heap, -word)
            elif -self._heap[0] > word:
                heapq.heapreplace(self._heap, -word)

    def sorted_words(self) -> list[int]:
        return sorted(-w for w in self._heap)


class _DedupeTracker:
    """Optimum tracker for heuristic walks that may revisit words.

    Keeps the first ``cap`` distinct optima seen; the count is exact
    while under the cap and may double-count revisits once it is full.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.best: int | None = None
        self.count = 0
        self._words: set[int] = set()

    def offer(self, word: int, err: int) -> None:
        if self.best is None or err < self.best:
            self.best = err
            self.count = 1
            self._words = {word}
        elif err == self.best:
            if word in self._words:
                return
            self.count += 1
            if len(self._words) < self.cap:
                self._words.add(word)

    def sorted_words(self) -> list[int]:
        return sorted(self._words)


# --- exhaustive search ------------------------------------------------------

def _sweep_subcube(evaluator, prefix_word: int, low_bits: int) -> _SmallestTracker:
    """Walk the words that share ``prefix_word``'s high bits in Gray order.

    Only candidates that tie or beat the best so far reach the tracker;
    the others could not change it.
    """
    tracker = _SmallestTracker(ARGMIN_CAP)
    best = evaluator.reset(prefix_word)
    tracker.offer(prefix_word, best)
    flip, errors, offer = evaluator.flip, evaluator.errors, tracker.offer
    for block in _gray_flip_blocks(low_bits):
        for i in block:
            flip(i)
            err = errors()
            if err <= best:
                offer(evaluator.word, err)
                best = err
    return tracker


def _run_sweep_jobs(payload):
    """Sweep a batch of subcubes; runs in this process or in a worker.

    Each job fixes the top bits of the word (the subcube prefix) and
    walks the remaining low bits in Gray order from a freshly fitted
    state.  Returns per-job (prefix, best errors, capped sorted optimum
    words, exact optimum count, evaluations, busy seconds).
    """
    pool_x, ax, ay, kind, jobs = payload
    evaluator = _make_evaluator(kind, pool_x, ax, ay)
    results = []
    for prefix_word, low_bits in jobs:
        start = time.perf_counter()
        tracker = _sweep_subcube(evaluator, prefix_word, low_bits)
        busy = time.perf_counter() - start
        results.append((prefix_word, tracker.best, tracker.sorted_words(), tracker.count, 1 << low_bits, busy))
    return results


def _sweep_child(conn, payload) -> None:
    """Body of a forked sweep worker: send ("ok", results) or
    ("error", message) to the parent; a failure exits with code 1."""
    # Ctrl-C reaches the whole process group; the parent stops the children.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        results = _run_sweep_jobs(payload)
    except Exception as exc:
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        raise SystemExit(1)
    conn.send(("ok", results))


def _run_forked(base: tuple, shares: list) -> list:
    """Sweep ``shares[0]`` here and every other share in a forked child.

    Children inherit the task arrays instead of unpickling them.  A
    child that raises or dies makes this raise ``RuntimeError`` naming
    the worker and its exit code; on any exit, Ctrl-C included, every
    child is stopped and joined.
    """
    context = multiprocessing.get_context("fork")
    children = []
    try:
        for worker, share in enumerate(shares[1:], start=1):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_sweep_child, args=(sender, base + (share,)),
                                    name=f"labelsearch-sweep-{worker}")
            child.start()
            sender.close()
            children.append((worker, child, receiver))
        results = _run_sweep_jobs(base + (shares[0],))
        for worker, child, receiver in children:
            try:
                status, value = receiver.recv()
            except EOFError:
                status, value = "error", "died without a result"
            child.join()
            if status != "ok":
                raise RuntimeError(f"sweep worker {worker} failed with exit code {child.exitcode}: {value}")
            results.extend(value)
        return results
    finally:
        for _, child, receiver in children:
            if child.exitcode is None:
                child.terminate()
            child.join()
            receiver.close()


def _check_exhaustive_cap(n: int, cap: int) -> None:
    if not 1 <= cap <= HARD_EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive cap must be in [1, {HARD_EXHAUSTIVE_CAP}], got {cap}")
    if n < 1:
        raise ValueError("pool must contain at least one item")
    if n > cap:
        raise ValueError(
            f"exhaustive search refused: pool size n={n} exceeds cap {cap} "
            f"(hard cap {HARD_EXHAUSTIVE_CAP})"
        )


def exhaustive_search(
    task: Task,
    learner_kind: str = CENTROID,
    workers: int = 1,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
    executor: Executor | None = None,
) -> SearchOutcome:
    """Find the global minimum error over all 2**n labelings.

    The outcome (best error, optimum set, evaluation count) is
    deterministic and identical for any worker count; only the wall
    clock changes.  With ``workers`` > 1 the top bits of the word split
    the sweep into subcubes dealt round-robin to ``workers`` shares.
    ``executor`` lets callers reuse one process pool across many
    searches; without one, this process sweeps the first share and
    forks one child per other share (POSIX ``fork`` start method).  A
    failed or killed child raises ``RuntimeError``.
    """
    _check_kind(learner_kind)
    n = task.n
    _check_exhaustive_cap(n, cap)
    workers = max(1, int(workers))

    prefix_bits = 0 if workers == 1 else min(n, (workers - 1).bit_length())
    low_bits = n - prefix_bits
    jobs = [(p << low_bits, low_bits) for p in range(1 << prefix_bits)]

    started = time.perf_counter()
    base = (task.pool.x, task.trusted.x, task.trusted.y, learner_kind)
    shares = [jobs[w::workers] for w in range(workers) if jobs[w::workers]]
    if workers == 1:
        results = _run_sweep_jobs(base + (jobs,))
    elif executor is not None:
        futures = [executor.submit(_run_sweep_jobs, base + (share,)) for share in shares]
        results = [item for fut in futures for item in fut.result()]
    else:
        results = _run_forked(base, shares)
    elapsed = time.perf_counter() - started

    # Subcube prefixes cover disjoint consecutive word ranges, so a
    # prefix-ordered merge yields the globally smallest optimum words.
    results.sort(key=lambda r: r[0])
    best = min(r[1] for r in results)
    count = sum(r[3] for r in results if r[1] == best)
    words: list[int] = []
    for r in results:
        if r[1] == best and len(words) < ARGMIN_CAP:
            words.extend(r[2][: ARGMIN_CAP - len(words)])
    evaluations = sum(r[4] for r in results)
    busy = sum(r[5] for r in results)

    return SearchOutcome(
        best_mu=best / task.m,
        argmin_labelings=tuple(Labeling(w, n) for w in words),
        argmin_count=count,
        evaluations=evaluations,
        elapsed=elapsed,
        mean_eval_time=busy / evaluations,
    )


# --- batched evaluation of arbitrary word lists -----------------------------

def error_counts_for_words(task: Task, words, learner_kind: str = CENTROID) -> np.ndarray:
    """Trusted-set error count of each labeling word, evaluated in batches.

    Matches per-word fit-and-predict exactly on dyadic-grid coordinates
    (the generator's output); on arbitrary float data the class sums may
    differ from a refit by one rounding, so knife-edge distance ties
    could in principle diverge.
    """
    _check_kind(learner_kind)
    n = task.n
    if n > MAX_LABELING_BITS:
        raise ValueError(f"pool size {n} exceeds the {MAX_LABELING_BITS}-bit labeling bound")
    words = np.asarray(words, dtype=np.uint64)
    ax, ay = task.trusted.x, task.trusted.y
    m = task.m
    out = np.empty(words.shape[0], dtype=np.int64)
    shifts = np.arange(n, dtype=np.uint64)
    nn = nearest_pool_index(task.pool.x, ax) if learner_kind == ONE_NN else None
    errors_y0 = int(np.count_nonzero(ay == 0))

    for start in range(0, words.shape[0], _WORD_CHUNK):
        chunk = words[start : start + _WORD_CHUNK]
        errs = np.zeros(chunk.shape[0], dtype=np.int64)
        if learner_kind == ONE_NN:
            for j in range(m):
                pred = (chunk >> np.uint64(nn[j])) & np.uint64(1)
                errs += pred != np.uint64(ay[j])
        else:
            bits = ((chunk[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.float64)
            sums1 = bits @ task.pool.x
            sums0 = (1.0 - bits) @ task.pool.x
            counts1 = bits.sum(axis=1)
            counts0 = n - counts1
            with np.errstate(divide="ignore", invalid="ignore"):
                c0 = sums0 / counts0[:, None]
                c1 = sums1 / counts1[:, None]
                for j in range(m):
                    diff = ax[j, 0] - c0[:, 0]
                    d0 = diff * diff
                    diff = ax[j, 0] - c1[:, 0]
                    d1 = diff * diff
                    for k in range(1, task.d):
                        diff = ax[j, k] - c0[:, k]
                        d0 = d0 + diff * diff
                        diff = ax[j, k] - c1[:, k]
                        d1 = d1 + diff * diff
                    pred1 = d1 < d0  # tie -> class 0
                    errs += pred1 != (ay[j] == 1)
            # degenerate single-class labelings predict the nonempty class
            errs[counts1 == 0] = m - errors_y0
            errs[counts0 == 0] = errors_y0
        out[start : start + chunk.shape[0]] = errs
    return out


def mu_for_words(task: Task, words, learner_kind: str = CENTROID) -> np.ndarray:
    """Trusted-set error rate of each labeling word."""
    return error_counts_for_words(task, words, learner_kind) / task.m


# --- heuristic search -------------------------------------------------------

@dataclass(frozen=True)
class HeuristicConfig:
    """Knobs for the budgeted searchers.

    ``budget`` bounds the total number of error evaluations across all
    restarts.  ``initial_temp`` / ``decay`` drive the annealing
    schedule (temperature multiplies by ``decay`` every proposal);
    greedy and random ignore them.
    """

    kind: str
    budget: int
    restarts: int = 1
    initial_temp: float = 1.0
    decay: float = 0.95
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in HEURISTIC_KINDS:
            raise ValueError(f"unknown heuristic kind {self.kind!r}; expected one of {HEURISTIC_KINDS}")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if not self.initial_temp > 0:
            raise ValueError("initial temperature must be positive")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("temperature decay must lie strictly between 0 and 1")


def _greedy_walk(evaluator, n, config, tracker, rng) -> int:
    """First-improvement greedy: scan flips in index order, take the first
    strictly improving one; restart from a random word at local optima.
    The first start is the all-zeros word."""
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


def _anneal_walk(evaluator, n, config, tracker, rng) -> int:
    """Single-flip annealing; a worse move costing ``delta`` extra errors
    is accepted with probability exp(-delta / T)."""
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


def heuristic_search(task: Task, learner_kind: str, config: HeuristicConfig) -> SearchOutcome:
    """Run a budgeted heuristic; fully reproducible from ``rng_seed``.

    The returned best error can never undercut the exhaustive optimum
    on the same task and learner.
    """
    _check_kind(learner_kind)
    n = task.n
    if n > MAX_LABELING_BITS:
        raise ValueError(f"pool size {n} exceeds the {MAX_LABELING_BITS}-bit labeling bound")
    rng = np.random.default_rng(config.rng_seed)
    started = time.perf_counter()

    if config.kind == "random":
        words = rng.integers(0, 1 << n, size=config.budget, dtype=np.uint64)
        errs = error_counts_for_words(task, words, learner_kind)
        best = int(errs.min())
        best_words = np.unique(words[errs == best])
        count = int(best_words.size)
        listed = [int(w) for w in best_words[:ARGMIN_CAP]]
        evals = config.budget
    else:
        evaluator = _make_evaluator(learner_kind, task.pool.x, task.trusted.x, task.trusted.y)
        tracker = _DedupeTracker(ARGMIN_CAP)
        if config.kind == "greedy-flip":
            evals = _greedy_walk(evaluator, n, config, tracker, rng)
        else:
            evals = _anneal_walk(evaluator, n, config, tracker, rng)
        best = tracker.best
        count = tracker.count
        listed = tracker.sorted_words()

    elapsed = time.perf_counter() - started
    return SearchOutcome(
        best_mu=best / task.m,
        argmin_labelings=tuple(Labeling(w, n) for w in listed),
        argmin_count=count,
        evaluations=evals,
        elapsed=elapsed,
        mean_eval_time=elapsed / evals,
    )


# --- chance-hit experiment --------------------------------------------------

def chance_hit_experiment(
    task: Task,
    trials: int,
    rng_seed: int = 0,
    learner_kind: str = CENTROID,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> dict:
    """Measure how often a uniform random labeling attains the optimum.

    Runs the exhaustive search to learn the optimum error and the exact
    number of optimum words k_opt, then draws ``trials`` uniform words;
    the predicted hit rate is k_opt / 2**n.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    outcome = exhaustive_search(task, learner_kind, workers=1, cap=cap)
    best_errors = int(round(outcome.best_mu * task.m))
    rng = np.random.default_rng(rng_seed)
    words = rng.integers(0, 1 << task.n, size=trials, dtype=np.uint64)
    errs = error_counts_for_words(task, words, learner_kind)
    hits = int(np.count_nonzero(errs == best_errors))
    return {
        "k_opt": outcome.argmin_count,
        "empirical_rate": hits / trials,
        "predicted_rate": outcome.argmin_count / (1 << task.n),
        "best_mu": outcome.best_mu,
        "trials": trials,
        "n": task.n,
    }
