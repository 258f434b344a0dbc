"""Search over the 2**n labelings of an unlabeled pool.

The exhaustive searcher splits the half of the labeling hypercube whose
words have the top bit clear into subcubes by the top bits of the word
(``_sweep_shares``) and has each subcube swept by the learner's
evaluator (``sweep`` in ``learners``).  The evaluator scores the
subcube together with the subcube of its complements, whose class sums
or tallies are the subcube's swapped, and merges optimum summaries of
the blocks it scores into its share's tracker; how a learner walks a
subcube is decided there, and a word scores the same whichever subcube
it falls in.  Summaries (best error, exact optimum count, smallest
optimum words) merge in any order, so blocks, subcubes and shares may
report in any order, and the outcome is independent of worker count
and scheduling.

Parallel sweeps run on a group of worker processes forked once, the
first time a call asks for more than one worker, and kept for the life
of the process; each worker is pinned to one CPU when it is forked, and
each call sends it the task and its share over a pipe.  Each share
builds its own evaluator, so the group is the only state this module
keeps between calls.

Heuristic searchers (uniform random, first-improvement greedy flips,
simulated annealing) share the evaluators and the outcome format; they
can only match, never beat, the exhaustive optimum.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np

from .core import MAX_LABELING_BITS, SearchOutcome, Task, _check_integer
from .learners import CENTROID, _check_kind, _make_evaluator

#: Default / hard ceiling on pool size for exhaustive sweeps.  Runtime is
#: the experiment here, so the refusal is a guard rail, not a nuisance.
DEFAULT_EXHAUSTIVE_CAP = 24
HARD_EXHAUSTIVE_CAP = 32

#: Hard ceiling on sweep workers.  Every worker is a process, so a
#: mistyped count is refused before any of them starts.
MAX_WORKERS = 256

#: Maximum number of optimum words kept in an outcome's argmin list.
#: Degenerate tasks can have exponentially many optima; the exact count
#: is still reported.
ARGMIN_CAP = 1024

_WORD_CHUNK = 8192

HEURISTIC_KINDS = ("random", "greedy-flip", "anneal")


# --- optimum tracking -------------------------------------------------------

_NO_WORDS = np.empty(0, dtype=np.int64)


class _SmallestTracker:
    """Fold optimum summaries into one, in whatever order they arrive.

    A summary of a set of words visited once each is its best error,
    the exact count of its words that reach it, and an int64 array of
    its smallest optimum words in ascending order: all of them, or at
    least ``ARGMIN_CAP``.  Summaries of disjoint word sets merge to the
    summary of their union, capped at ``ARGMIN_CAP`` words, whatever the
    order of the merges.
    """

    def __init__(self):
        self.best = math.inf  # the summary of no words
        self.count = 0
        self.words = _NO_WORDS

    def merge(self, best: int, count: int, words: np.ndarray) -> None:
        if best < self.best:
            self.best, self.count, self.words = best, count, words[:ARGMIN_CAP]
        elif best == self.best:
            self.count += count
            # a full list keeps out any summary whose smallest word is larger
            if self.words.size < ARGMIN_CAP or words[0] < self.words[-1]:
                self.words = np.sort(np.concatenate((self.words, words)))[:ARGMIN_CAP]


class _DedupeTracker:
    """Optimum tracker for heuristic walks that may revisit words.

    Keeps the first ``ARGMIN_CAP`` distinct optima seen.  The count is
    exact while the list has room; once it is full, a revisit of an
    optimum that is not in the list counts again, so the count is an
    upper bound.
    """

    def __init__(self):
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
            if len(self._words) < ARGMIN_CAP:
                self._words.add(word)

    def sorted_words(self) -> list[int]:
        return sorted(self._words)


# --- exhaustive search ------------------------------------------------------

def _sweep_shares(n: int, workers: int) -> list:
    """Cut the 2**n words into jobs and deal them round-robin into at
    most ``workers`` shares.

    A job ``(prefix_word, low_bits)`` is the subcube of words that share
    the prefix's bits from ``low_bits`` up.  Every prefix has the top
    bit clear, and the learner's sweep scores each subcube together with
    its complement subcube, so the jobs cover every word or its
    complement exactly once.  One worker takes the whole half cube.
    More take ``ceil(log2(workers)) + 1`` prefix bits, one more than a
    cut of the whole cube into one subcube per share would, so that the
    half cube still holds a job for each share where n allows.
    """
    prefix_bits = 1 if workers == 1 else min(n, (workers - 1).bit_length() + 1)
    low_bits = n - prefix_bits
    jobs = [(p << low_bits, low_bits) for p in range(1 << (prefix_bits - 1))]
    return [jobs[w::workers] for w in range(workers) if jobs[w::workers]]


def _run_sweep_jobs(payload):
    """Sweep a share of jobs; runs in this process or in a worker.

    Each job fixes the top bits of the word (the subcube prefix) and the
    evaluator sweeps the remaining low bits, and the complements of
    those words, into the share's tracker.  Returns the share's optimum
    summary and busy seconds: (best errors, exact optimum count, capped
    ascending optimum words, busy).
    """
    pool_x, ax, ay, kind, jobs = payload
    evaluator = _make_evaluator(kind, pool_x, ax, ay)
    start = time.perf_counter()
    tracker = _SmallestTracker()
    for prefix_word, low_bits in jobs:
        evaluator.sweep(prefix_word, low_bits, tracker)
    return tracker.best, tracker.count, tracker.words, time.perf_counter() - start


# --- the worker group -------------------------------------------------------

def _group_worker(conn, parent_end) -> None:
    """Body of a group worker: answer each payload received with
    ("ok", summary), until the parent closes the pipe.  A failure sends
    ("error", message) and exits with code 1."""
    # Ctrl-C reaches the whole process group; the parent stops the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()
    while True:
        try:
            payload = conn.recv()
        except EOFError:
            return
        try:
            summary = _run_sweep_jobs(payload)
        except Exception as exc:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
            raise SystemExit(1)
        conn.send(("ok", summary))


class _SweepGroup:
    """Sweep workers forked once and kept for the life of the process.

    Worker i (from 1) sweeps share i of every parallel call.  The group
    grows when a call needs more workers than it has and is forked anew
    when one of them has died.  Each worker is pinned once, when it is
    forked, to CPU i modulo k of the k CPUs the caller may use then: a
    worker woken by the caller's pipe write is otherwise queued on the
    caller's CPU, and the scheduler may leave it there for a whole call.
    The pins keep the caller's affinity at the fork; the caller itself
    stays unpinned, and a pin that cannot be set is left out.  The
    workers are daemon processes and are closed at exit; a process
    forked from this one drops the group without touching its workers.
    """

    def __init__(self):
        self.workers: list = []  # (process, connection) pairs
        self.lock = threading.Lock()

    def grow(self, count: int) -> list:
        """The first ``count`` workers, forking and pinning any that are
        missing."""
        if any(not process.is_alive() for process, _ in self.workers):
            self.close()
        context = multiprocessing.get_context("fork")
        while len(self.workers) < count:
            number = len(self.workers) + 1
            here, there = context.Pipe()
            process = context.Process(target=_group_worker, args=(there, here), daemon=True,
                                      name=f"labelsearch-sweep-{number}")
            process.start()
            there.close()
            self.workers.append((process, here))
            if hasattr(os, "sched_setaffinity"):
                cpus = sorted(os.sched_getaffinity(0))
                with contextlib.suppress(OSError):  # a worker that died is reported when read
                    os.sched_setaffinity(process.pid, {cpus[number % len(cpus)]})
        return self.workers[:count]

    def close(self) -> None:
        """Stop and join every worker."""
        workers, self.workers = self.workers, []
        for process, _ in workers:
            if process.exitcode is None:
                process.terminate()
        for process, conn in workers:
            process.join()
            conn.close()

    def forget(self) -> None:
        """Drop the workers of the process this one was forked from."""
        for process, _ in self.workers:
            multiprocessing.process._children.discard(process)
        self.workers = []
        self.lock = threading.Lock()


_GROUP = _SweepGroup()
os.register_at_fork(after_in_child=_GROUP.forget)
atexit.register(_GROUP.close)


def _run_on_group(base: tuple, shares: list) -> list:
    """Sweep ``shares[0]`` here and share i on the group's worker i;
    returns the shares' summaries.

    A worker that raises or dies makes this raise ``RuntimeError``
    naming the worker and its exit code.  On any failure, Ctrl-C
    included, the group is stopped and joined.  Calls from several
    threads take turns.
    """
    with _GROUP.lock:
        try:
            workers = _GROUP.grow(len(shares) - 1)
            for (_, conn), share in zip(workers, shares[1:]):
                try:
                    conn.send(base + (share,))
                except OSError:
                    pass  # the worker died; receiving from it reports that
            results = [_run_sweep_jobs(base + (shares[0],))]
            for number, (process, conn) in enumerate(workers, start=1):
                try:
                    status, value = conn.recv()
                except (EOFError, OSError):
                    status, value = "error", "died without a result"
                if status != "ok":
                    process.join()
                    raise RuntimeError(f"sweep worker {number} failed with exit code {process.exitcode}: {value}")
                results.append(value)
            return results
        except BaseException:
            _GROUP.close()
            raise


def _check_exhaustive_cap(n: int, cap: int) -> None:
    _check_integer("cap", cap)
    if not 1 <= cap <= HARD_EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive cap must be in [1, {HARD_EXHAUSTIVE_CAP}], got {cap}")
    if n < 1:
        raise ValueError("pool must contain at least one item")
    if n > cap:
        raise ValueError(
            f"exhaustive search refused: pool size n={n} exceeds cap {cap} "
            f"(hard cap {HARD_EXHAUSTIVE_CAP})"
        )


def _check_workers(workers: int) -> int:
    workers = _check_integer("workers", workers)
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")
    return workers


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
    clock changes.  Every word is scored once, each in a job with its
    complement, so ``evaluations`` is 2**n.  ``workers`` must lie in
    [1, ``MAX_WORKERS``]; with more than one, the top bits of the word
    split the sweep into jobs dealt round-robin to ``workers`` shares
    (``_sweep_shares``).  This process sweeps the first share and the
    persistent worker group the others (POSIX ``fork`` start method);
    the group is forked at the first such call, grown when a call needs
    more workers, and forked anew after a worker has died; each worker
    is pinned to one CPU when it is forked (``_SweepGroup``), and calls
    from several threads take turns.  A worker that raises or dies raises
    ``RuntimeError`` here; on that or on Ctrl-C the group is stopped
    and joined.  A caller that passes ``executor`` has every share
    submitted to that pool instead.
    """
    _check_kind(learner_kind)
    n = task.n
    _check_exhaustive_cap(n, cap)
    workers = _check_workers(workers)

    shares = _sweep_shares(n, workers)
    started = time.perf_counter()
    base = (task.pool.x, task.trusted.x, task.trusted.y, learner_kind)
    if workers == 1:
        results = [_run_sweep_jobs(base + (shares[0],))]
    elif executor is not None:
        futures = [executor.submit(_run_sweep_jobs, base + (share,)) for share in shares]
        results = [fut.result() for fut in futures]
    else:
        results = _run_on_group(base, shares)
    elapsed = time.perf_counter() - started

    tracker = _SmallestTracker()
    for best, count, words, _ in results:
        tracker.merge(best, count, words)
    evaluations = 1 << n
    busy = sum(r[3] for r in results)

    return SearchOutcome(
        best_mu=tracker.best / task.m,
        n=n,
        argmin_words=tuple(tracker.words.tolist()),
        argmin_count=tracker.count,
        evaluations=evaluations,
        elapsed=elapsed,
        mean_eval_time=busy / evaluations,
    )


# --- batched evaluation of arbitrary word lists -----------------------------

def _word_array(words, n: int) -> np.ndarray:
    """``words`` as a uint64 array, after refusing input that is not a
    1-D sequence of integers in [0, 2**n)."""
    if not isinstance(words, np.ndarray):
        # each element is checked as the integer it is: numpy would turn
        # [0, 2**63] into floats and [-1] into an error of its own
        words = np.array(words, dtype=object)
    if words.ndim != 1:
        raise ValueError(f"words must form a 1-D sequence, got shape {words.shape}")
    if words.dtype == object:
        for word in words.tolist():
            if isinstance(word, (bool, np.bool_)) or not isinstance(word, (int, np.integer)):
                raise ValueError(f"word {word!r} is not an integer")
            if word < 0:
                raise ValueError(f"word {word} is negative")
            if word >> n:
                raise ValueError(f"word {word} has bits at or above the pool size n={n}")
        return words.astype(np.uint64)
    if words.dtype.kind not in "iu":
        raise ValueError(f"words must be integers, got dtype {words.dtype}")
    if words.dtype.kind == "i":
        negative = np.flatnonzero(words < 0)
        if negative.size:
            raise ValueError(f"word {int(words[negative[0]])} is negative")
        words = words.astype(np.uint64)
    outside = np.flatnonzero(words >> np.uint64(n))
    if outside.size:
        raise ValueError(f"word {int(words[outside[0]])} has bits at or above the pool size n={n}")
    return words


def error_counts_for_words(task: Task, words, learner_kind: str = CENTROID) -> np.ndarray:
    """Trusted-set error count of each labeling word, evaluated in batches.

    Each word is split into bytes and its class sums (centroid) or its
    per-item gains (one-NN) are gathered from per-byte tables of all 256
    subsets and added in a fixed order, with no BLAS call, so the
    result is the same on every machine.  It matches per-word
    fit-and-predict exactly on dyadic-grid coordinates (the generator's
    output); on arbitrary float data the class sums may differ from a
    refit by one rounding, so knife-edge distance ties could in
    principle diverge.  ``words`` must be a 1-D sequence or array of
    integers; a non-integer, a negative word or a word with a bit at or
    above ``task.n`` is refused with ``ValueError``.
    """
    _check_kind(learner_kind)
    n = task.n
    if n > MAX_LABELING_BITS:
        raise ValueError(f"pool size {n} exceeds the {MAX_LABELING_BITS}-bit labeling bound")
    words = _word_array(words, n)
    evaluator = _make_evaluator(learner_kind, task.pool.x, task.trusted.x, task.trusted.y)
    out = np.empty(words.shape[0], dtype=np.int64)
    for start in range(0, words.shape[0], _WORD_CHUNK):
        chunk = words[start : start + _WORD_CHUNK]
        out[start : start + chunk.shape[0]] = evaluator.errors_for_words(chunk)
    return out


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
        for name in ("budget", "restarts", "rng_seed"):
            _check_integer(name, getattr(self, name))
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if not (self.initial_temp > 0 and math.isfinite(self.initial_temp)):
            raise ValueError(f"initial_temp must be positive and finite, got {self.initial_temp!r}")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("temperature decay must lie strictly between 0 and 1")


class _ReplayedDraws:
    """Scalar ``integers(0, k)`` and ``random()`` calls of a PCG64
    ``Generator``, replayed from blocks of its raw output.

    A scalar call into numpy costs more than an annealing step's own
    work.  The replay reads ``random_raw``
    blocks and applies numpy's algorithms to them: ``integers`` is
    Lemire's bounded method ("Fast Random Integer Generation in an
    Interval", ACM TOMACS 2019) on the 32-bit halves the bit generator
    buffers (``has_uint32``/``uinteger``), with k == 1 giving 0 without
    a draw, and ``random`` is ``(raw >> 11) * 2**-53``.  As a context
    manager it takes the generator over on entry; on exit it restores
    the saved state, advances it by the raw outputs used and sets the
    buffered half, so the generator ends where the scalar calls would
    have left it and the values drawn are theirs.
    """

    _BLOCK = 1024

    def __init__(self, rng: np.random.Generator):
        self._bitgen = rng.bit_generator

    def __enter__(self) -> "_ReplayedDraws":
        self._saved = self._bitgen.state
        self._has_half = self._saved["has_uint32"]
        self._half = self._saved["uinteger"]
        self._raw: list[int] = []
        self._pos = 0
        self._skipped = 0  # raw outputs in the blocks before ``_raw``
        return self

    def __exit__(self, *exc) -> None:
        bitgen = self._bitgen
        bitgen.state = self._saved
        bitgen.advance(self._skipped + self._pos)
        state = bitgen.state
        state["has_uint32"] = self._has_half
        state["uinteger"] = self._half
        bitgen.state = state

    def _next64(self) -> int:
        if self._pos == len(self._raw):
            self._skipped += self._pos
            self._raw = self._bitgen.random_raw(self._BLOCK).tolist()
            self._pos = 0
        raw = self._raw[self._pos]
        self._pos += 1
        return raw

    def _next32(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        raw = self._next64()
        self._has_half = 1
        self._half = raw >> 32
        return raw & 0xFFFFFFFF

    def integers(self, k: int) -> int:
        """``int(Generator.integers(0, k))`` for 1 <= k <= 2**32."""
        if k == 1:
            return 0
        scaled = self._next32() * k
        if (scaled & 0xFFFFFFFF) < k:
            threshold = (0x100000000 - k) % k
            while (scaled & 0xFFFFFFFF) < threshold:
                scaled = self._next32() * k
        return scaled >> 32

    def random(self) -> float:
        """``Generator.random()``."""
        return (self._next64() >> 11) * 2.0**-53


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


def _anneal_walk(evaluator, n, config, tracker, rng) -> int:
    """Single-flip annealing; a worse move costing ``delta`` extra errors
    is accepted with probability exp(-delta / T).  The steps draw from
    ``rng`` through ``_ReplayedDraws``, with the values of scalar
    ``rng.integers(0, n)`` and ``rng.random()`` calls."""
    evals = 0
    starts = 0
    per_restart = max(1, config.budget // config.restarts)
    draws = _ReplayedDraws(rng)
    while evals < config.budget and starts < config.restarts:
        word = int(rng.integers(0, 1 << n, dtype=np.uint64))
        err = evaluator.reset(word)
        evals += 1
        tracker.offer(word, err)
        temperature = config.initial_temp
        steps = 1
        with draws:
            while steps < per_restart and evals < config.budget:
                i = draws.integers(n)
                evaluator.flip(i)
                candidate = word ^ (1 << i)
                cand_err = evaluator.errors()
                evals += 1
                steps += 1
                if cand_err <= tracker.best:
                    tracker.offer(candidate, cand_err)
                delta = cand_err - err
                if delta <= 0 or (temperature > 0.0 and draws.random() < math.exp(-delta / temperature)):
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
        tracker = _DedupeTracker()
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
        n=n,
        argmin_words=tuple(listed),
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
    _check_integer("trials", trials)
    _check_integer("rng_seed", rng_seed)
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
