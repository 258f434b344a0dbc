import multiprocessing
import multiprocessing.util
import os
import re
import signal
import statistics
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from labelsearch import (
    HeuristicConfig,
    Task,
    TaskSpec,
    TrustedSet,
    UnlabeledPool,
    chance_hit_experiment,
    error_counts_for_words,
    exhaustive_search,
    generate_task,
    heuristic_search,
    load_task,
    save_task,
)
from labelsearch import learners, search
from labelsearch.learners import _make_evaluator
from labelsearch.search import ARGMIN_CAP

from conftest import close_group_leaving_no_child, learner_kinds, ruler_walk, small_tasks
from oracles import (
    inverse_gray,
    naive_best,
    naive_error_counts,
    onenn_closed_form,
    pack_word,
    scalar_draw_anneal_walk,
)


# --- Gray enumeration -------------------------------------------------------
#
# The sweep's only Gray code is the ruler behind ``_gray_flip_blocks``;
# these tests walk it from word 0.

def test_gray_sequence_n2_is_the_reflected_order():
    flips, words = ruler_walk(2)
    assert words.tolist() == [0b00, 0b01, 0b11, 0b10]
    assert flips.tolist() == [0, 1, 0]


def test_gray_sequence_n3_single_bit_transitions():
    _, words = ruler_walk(3)
    words = words.tolist()
    assert len(set(words)) == 8
    for prev, cur in zip(words, words[1:]):
        assert bin(prev ^ cur).count("1") == 1


@given(st.integers(1, 12))
def test_gray_sequence_is_a_bijection(n):
    _, words = ruler_walk(n)
    assert sorted(words.tolist()) == list(range(1 << n))
    assert words[0] == 0


@given(st.integers(1, 16), st.data())
def test_gray_cursor_closed_form(n, data):
    # the cursor is the position in the ruler walk
    step = data.draw(st.integers(0, (1 << n) - 1))
    flips, words = ruler_walk(n)
    word = int(words[step])
    assert word == step ^ (step >> 1)
    assert int(inverse_gray(words[step : step + 1], n)[0]) == step
    if step + 1 < (1 << n):
        assert int(words[step + 1]) == word ^ (1 << int(flips[step]))


@pytest.mark.parametrize("bits", range(1, 17))
def test_gray_flip_blocks_follow_the_cursor(bits):
    # past 12 bits the 4095-step ruler repeats between higher-bit flips;
    # the cursor is the closed form: step s flips the one bit in which
    # the codes of s - 1 and s differ
    def code(step):
        return step ^ (step >> 1)

    expected = bytes((code(s) ^ code(s - 1)).bit_length() - 1 for s in range(1, 1 << bits))
    assert b"".join(learners._gray_flip_blocks(bits)) == expected


# --- exhaustive search ------------------------------------------------------

def test_exhaustive_contains_ground_truth_on_separable_task():
    task = generate_task(TaskSpec(m=6, n=4, d=2, separation=12.0, noise_sigma=1.0, seed=4))
    out = exhaustive_search(task, "centroid")
    assert out.best_mu == 0.0
    assert pack_word(task.ground_truth) in out.argmin_words


def test_exhaustive_evaluation_count_is_two_to_the_n():
    task = generate_task(TaskSpec(m=3, n=4, d=1, separation=0.5, noise_sigma=1.0, seed=9))
    assert exhaustive_search(task, "onenn").evaluations == 16


@pytest.mark.parametrize("kind", ["centroid", "onenn"])
def test_exhaustive_matches_naive_brute_force(kind):
    task = generate_task(TaskSpec(m=7, n=10, d=2, separation=1.0, noise_sigma=1.0, seed=31))
    out = exhaustive_search(task, kind)
    best, words = naive_best(task, kind)
    assert out.best_mu == best / task.m
    assert out.argmin_count == len(words)
    assert list(out.argmin_words) == words[:ARGMIN_CAP]


def test_exhaustive_is_worker_count_independent():
    task = generate_task(TaskSpec(m=6, n=10, d=2, separation=1.5, noise_sigma=1.0, seed=13))
    outcomes = [exhaustive_search(task, "centroid", workers=w) for w in (1, 2, 4, 8)]
    reference = outcomes[0]
    for out in outcomes[1:]:
        assert out.best_mu == reference.best_mu
        assert out.argmin_count == reference.argmin_count
        assert out.argmin_words == reference.argmin_words
        assert out.evaluations == reference.evaluations


_K = learners._BLOCK_BITS


@pytest.mark.parametrize("n", [1, _K - 1, _K, _K + 1, _K + 3])
def test_centroid_sweep_matches_naive_at_block_boundaries(n):
    # pools just below, at and past one table width, swept with 0 to 3
    # prefix bits (1, 2, 3 and 5 workers); d = 1 has a single trusted
    # point and many tied optima, d = 2 and d = 4 single-class trusted
    # sets, whose optima include a labeling with an empty class
    for d in range(1, 5):
        task = generate_task(TaskSpec(m=1 if d == 1 else 7, n=n, d=d, separation=1.0, noise_sigma=1.0,
                                      seed=1000 + 10 * n + d))
        if d in (2, 4):
            label = d // 2 - 1
            task = Task(trusted=TrustedSet(task.trusted.x, np.full_like(task.trusted.y, label)), pool=task.pool)
        best, words = naive_best(task, "centroid")
        for workers in (1, 2, 3, 5):
            out = exhaustive_search(task, "centroid", workers=workers)
            assert out.best_mu == best / task.m
            assert out.argmin_count == len(words)
            assert list(out.argmin_words) == words[:ARGMIN_CAP], (d, workers)


def _summary(outcome):
    return (outcome.best_mu, outcome.argmin_count,
            outcome.argmin_words, outcome.evaluations)


@given(small_tasks(), learner_kinds)
def test_outcome_is_bit_identical_for_any_worker_count(task, kind):
    reference = _summary(exhaustive_search(task, kind))
    for workers in (2, 3, 5, 8):
        assert _summary(exhaustive_search(task, kind, workers=workers)) == reference
    close_group_leaving_no_child()


def _jittered(task, rng):
    """The task moved off the dyadic grid and read back from a task file."""
    def jitter(x):
        return x + rng.uniform(-1e-3, 1e-3, size=x.shape)

    moved = Task(trusted=TrustedSet(jitter(task.trusted.x), task.trusted.y), pool=UnlabeledPool(jitter(task.pool.x)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "task.json")
        save_task(moved, path)
        return load_task(path)


@given(small_tasks(max_n=14, max_m=16), st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_off_grid_centroid_outcome_is_identical_for_any_worker_count(task, seed):
    # a word's class sums are its byte-table entries added in ascending
    # byte order, whatever subcube and call it falls in, so even rounded
    # sums do not depend on how the workers split the sweep
    task = _jittered(task, np.random.default_rng(seed))
    reference = _summary(exhaustive_search(task, "centroid"))
    for workers in (2, 3, 5, 8):
        assert _summary(exhaustive_search(task, "centroid", workers=workers)) == reference


@pytest.mark.parametrize("workers", [*range(1, 10), 16, 256])
def test_sweep_shares_cover_every_word_or_its_complement_once(workers):
    for n in range(1, 21):
        shares = search._sweep_shares(n, workers)
        # every share gets a job where the half cube has enough words,
        # and round-robin dealing keeps their sizes within one job
        assert len(shares) == min(workers, 1 << (n - 1))
        assert max(map(len, shares)) - min(map(len, shares)) <= 1
        subcubes = [prefix + np.arange(1 << low_bits) for share in shares for prefix, low_bits in share]
        words = np.concatenate(subcubes)
        assert not np.any(words >> (n - 1)), "a job word with its top bit set"
        visits = np.bincount(np.concatenate((words, ((1 << n) - 1) ^ words)), minlength=1 << n)
        assert visits.size == 1 << n and np.all(visits == 1), n


def test_fan_out_forks_one_child_per_extra_share(monkeypatch):
    # the group forks each worker once and keeps it; it grows to the
    # largest number of extra shares any call has asked for
    started = []
    real_start = multiprocessing.context.ForkProcess.start

    def counting_start(process):
        started.append(process)
        real_start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
    largest = 0
    for repeat in range(2):
        for n in (1, 2, 10):
            task = generate_task(TaskSpec(m=4, n=n, d=2, separation=1.0, noise_sigma=1.0, seed=n))
            for workers in (2, 3, 5, 8):
                exhaustive_search(task, "onenn", workers=workers)
                largest = max(largest, len(search._sweep_shares(n, workers)) - 1)
                assert len(started) == largest
    assert [process for process, _ in search._GROUP.workers] == started
    assert len(set(started)) == largest == 7


def test_group_reforks_after_a_worker_is_killed():
    task = generate_task(TaskSpec(m=5, n=10, d=2, separation=1.0, noise_sigma=1.0, seed=2))
    reference = _summary(exhaustive_search(task, "centroid"))
    assert _summary(exhaustive_search(task, "centroid", workers=3)) == reference
    first = [process for process, _ in search._GROUP.workers]
    assert len(first) == 2
    os.kill(first[1].pid, signal.SIGKILL)
    first[1].join(timeout=30)
    assert first[1].exitcode == -signal.SIGKILL
    assert _summary(exhaustive_search(task, "centroid", workers=3)) == reference
    second = [process for process, _ in search._GROUP.workers]
    assert len(second) == 2 and not set(second) & set(first)
    assert not first[0].is_alive()
    close_group_leaving_no_child()


def test_a_forked_child_holds_no_group():
    task = generate_task(TaskSpec(m=5, n=10, d=2, separation=1.0, noise_sigma=1.0, seed=2))
    exhaustive_search(task, "onenn", workers=3)
    workers = [process for process, _ in search._GROUP.workers]
    receiver, sender = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child reports what it holds, then runs the exit hooks of both modules
        try:
            held = (len(search._GROUP.workers), len(multiprocessing.active_children()))
            search._GROUP.close()
            multiprocessing.util._exit_function()
            os.write(sender, repr(held).encode())
        finally:
            os._exit(0)
    os.close(sender)
    with os.fdopen(receiver) as pipe:
        held = pipe.read()
    os.waitpid(pid, 0)
    assert held == "(0, 0)"
    # the child's exit left the parent's workers running, and they serve on
    assert all(process.is_alive() for process in workers)
    exhaustive_search(task, "onenn", workers=3)
    assert [process for process, _ in search._GROUP.workers] == workers
    close_group_leaving_no_child()


def test_closing_the_group_leaves_no_child():
    task = generate_task(TaskSpec(m=5, n=10, d=2, separation=1.0, noise_sigma=1.0, seed=2))
    exhaustive_search(task, "centroid", workers=8)
    assert len(search._GROUP.workers) == 7
    search._GROUP.close()
    assert search._GROUP.workers == []
    assert multiprocessing.active_children() == []
    search._GROUP.close()  # closing again is harmless


def test_parallel_calls_from_threads_take_turns_on_the_group():
    tasks = [generate_task(TaskSpec(m=5, n=10, d=2, separation=1.0, noise_sigma=1.0, seed=seed)) for seed in range(4)]
    references = [_summary(exhaustive_search(task, "centroid")) for task in tasks]
    exhaustive_search(tasks[0], "centroid", workers=3)  # fork the group before any thread starts

    def repeated(task):
        return [_summary(exhaustive_search(task, "centroid", workers=3)) for _ in range(20)]

    with ThreadPoolExecutor(max_workers=len(tasks)) as threads:
        outcomes = list(threads.map(repeated, tasks))
    assert outcomes == [[reference] * 20 for reference in references]
    close_group_leaving_no_child()


def test_concurrent_centroid_searches_keep_to_their_own_scoring_buffers():
    # each thread cuts its scoring arrays from its own buffer; tasks of
    # different trusted-set sizes and pools make different widths, so a
    # shared buffer would mix one search's distances into another's
    tasks = [generate_task(TaskSpec(m=m, n=n, d=2, separation=1.0, noise_sigma=1.0, seed=n))
             for m, n in ((64, 13), (5, 11), (20, 12), (1, 9))]
    references = [_summary(exhaustive_search(task, "centroid")) for task in tasks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(tasks)) as threads:
            outcomes = list(threads.map(lambda task: [_summary(exhaustive_search(task, "centroid"))
                                                      for _ in range(6)], tasks))
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == [[reference] * 6 for reference in references]


def test_a_forked_worker_scores_after_the_callers_buffer_grows():
    # the group's worker is forked with a copy of the caller's small
    # scoring buffer; the caller's buffer then grows, and the worker must
    # grow its own copy for the wider calls that follow
    small = generate_task(TaskSpec(m=2, n=6, d=2, separation=1.0, noise_sigma=1.0, seed=6))
    wide = generate_task(TaskSpec(m=64, n=14, d=2, separation=1.0, noise_sigma=1.0, seed=14))
    learners._SCORING.values = np.empty(0)
    small_reference = _summary(exhaustive_search(small, "centroid"))
    assert _summary(exhaustive_search(small, "centroid", workers=2)) == small_reference
    forked_with = learners._SCORING.values
    wide_reference = _summary(exhaustive_search(wide, "centroid"))
    assert learners._SCORING.values.size > forked_with.size
    for _ in range(2):
        assert _summary(exhaustive_search(wide, "centroid", workers=2)) == wide_reference
        assert _summary(exhaustive_search(small, "centroid", workers=2)) == small_reference
    assert _summary(exhaustive_search(wide, "centroid")) == wide_reference
    close_group_leaving_no_child()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_each_worker_is_pinned_once_when_it_is_forked(monkeypatch):
    cpus = sorted(os.sched_getaffinity(0))
    task = generate_task(TaskSpec(m=5, n=10, d=2, separation=1.0, noise_sigma=1.0, seed=2))

    def pins():
        return [os.sched_getaffinity(process.pid) for process, _ in search._GROUP.workers]

    expected = [{cpus[i % len(cpus)]} for i in range(1, 8)]
    exhaustive_search(task, "onenn", workers=2)
    exhaustive_search(task, "onenn", workers=8)
    assert pins() == expected
    pinned = []
    real = os.sched_setaffinity

    def counting(pid, mask):
        pinned.append(pid)
        real(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", counting)
    for workers in (8, 3, 2):  # calls that fork no worker pin none
        exhaustive_search(task, "centroid", workers=workers)
    assert pinned == []
    killed = search._GROUP.workers[2][0]
    os.kill(killed.pid, signal.SIGKILL)
    killed.join(timeout=30)
    assert killed.exitcode == -signal.SIGKILL
    exhaustive_search(task, "onenn", workers=8)  # forks the group anew
    assert pinned == [process.pid for process, _ in search._GROUP.workers]
    assert pins() == expected
    close_group_leaving_no_child()


@pytest.mark.parametrize("kind", ["centroid", "onenn"])
def test_two_worker_call_costs_at_most_a_millisecond_more(kind):
    # the workers are forked once, so a small all-cores call pays a pipe
    # round trip, not a fork
    task = generate_task(TaskSpec(m=8, n=6, d=2, separation=1.0, noise_sigma=1.0, seed=6))
    timings = {1: [], 2: []}
    exhaustive_search(task, kind, workers=2)
    for _ in range(30):
        for workers in (1, 2):
            start = time.perf_counter()
            exhaustive_search(task, kind, workers=workers)
            timings[workers].append(time.perf_counter() - start)
    extra = statistics.median(timings[2]) - statistics.median(timings[1])
    assert extra < 1e-3, f"a 2-worker call costs {extra * 1e3:.2f} ms more than a 1-worker call"


def _in_sweep_children(monkeypatch, action):
    """Make forked sweep workers run ``action`` instead of their share."""
    parent = os.getpid()
    real = search._run_sweep_jobs

    def patched(payload):
        if os.getpid() != parent:
            action()
        return real(payload)

    monkeypatch.setattr(search, "_run_sweep_jobs", patched)


def _boom():
    raise ValueError("boom")


@pytest.mark.parametrize("action, message", [
    (lambda: os._exit(7), r"sweep worker 1 failed with exit code 7: died without a result"),
    (_boom, r"sweep worker 1 failed with exit code 1: ValueError: boom"),
])
def test_failed_sweep_worker_raises_and_leaves_no_child(monkeypatch, action, message):
    _in_sweep_children(monkeypatch, action)
    task = generate_task(TaskSpec(m=5, n=10, d=2, separation=1.0, noise_sigma=1.0, seed=2))
    with pytest.raises(RuntimeError, match=message):
        exhaustive_search(task, "onenn", workers=3)
    assert multiprocessing.active_children() == []


def test_interrupt_stops_the_sweep_children(monkeypatch):
    parent = os.getpid()

    def patched(payload):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(search, "_run_sweep_jobs", patched)
    task = generate_task(TaskSpec(m=5, n=10, d=2, separation=1.0, noise_sigma=1.0, seed=2))
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        exhaustive_search(task, "centroid", workers=4)
    assert time.perf_counter() - started < 30
    assert multiprocessing.active_children() == []


@given(small_tasks(max_n=16, max_m=24))
def test_onenn_optimum_matches_the_closed_form(task):
    best, k_opt, smallest = onenn_closed_form(task)
    out = exhaustive_search(task, "onenn")
    assert out.best_mu == best / task.m
    assert out.argmin_count == k_opt
    assert out.argmin_words[0] == smallest


@given(small_tasks(max_n=14, max_m=8))
def test_onenn_optimum_count_is_at_least_two_to_the_n_minus_m(task):
    # at most m pool items are some trusted point's nearest, and either
    # label of every other item leaves an optimum optimal
    assert exhaustive_search(task, "onenn").argmin_count >= 2 ** (task.n - task.m)


@pytest.mark.parametrize("n", range(13, 17))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_onenn_ladder_tasks_match_the_closed_form_at_any_worker_count(n, seed):
    # tasks shaped like the benchmark's one-NN ladder, where the sweep's
    # fixed cost weighs most
    task = generate_task(TaskSpec(m=8, n=n, d=2, separation=4.0, noise_sigma=1.0, seed=seed * 1000 + n))
    best, k_opt, smallest = onenn_closed_form(task)
    assert k_opt >= 2 ** (n - 8)
    for workers in (1, 2, 3):
        out = exhaustive_search(task, "onenn", workers=workers)
        assert (out.best_mu, out.argmin_count, out.argmin_words[0]) == (best / 8, k_opt, smallest), workers
        assert out.evaluations == 1 << n


def test_exhaustive_refuses_over_cap_naming_the_cap():
    task = generate_task(TaskSpec(m=3, n=10, d=1, separation=1.0, noise_sigma=1.0, seed=0))
    with pytest.raises(ValueError, match=r"cap 8"):
        exhaustive_search(task, "centroid", cap=8)
    with pytest.raises(ValueError, match=r"32"):
        exhaustive_search(task, "centroid", cap=40)


def test_argmin_list_cap_keeps_smallest_words():
    # m=1 trusted point far on class-0 side: every labeling whose
    # centroid splits still predicts 0 -> huge optimum set, list capped
    task = generate_task(TaskSpec(m=1, n=12, d=2, separation=0.0, noise_sigma=1.0, seed=3))
    out = exhaustive_search(task, "centroid")
    counts = naive_error_counts(task, "centroid")
    words = np.flatnonzero(counts == counts.min())
    assert out.argmin_count == words.size
    assert list(out.argmin_words) == words[:ARGMIN_CAP].tolist()
    assert len(out.argmin_words) <= ARGMIN_CAP


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_capped_centroid_optima_span_blocks_and_subcubes(workers):
    # 1275 optima of 4096 words; the 1024 smallest run up to word 3692,
    # across the 512-word blocks and the 1, 2 or 4 subcubes of the sweep
    task = generate_task(TaskSpec(m=2, n=12, d=1, separation=0.5, noise_sigma=1.0, seed=4))
    best, words = naive_best(task, "centroid")
    assert len(words) > ARGMIN_CAP and words[ARGMIN_CAP - 1] > 3 << 10
    out = exhaustive_search(task, "centroid", workers=workers)
    assert out.best_mu == best / task.m
    assert out.argmin_count == len(words)
    assert list(out.argmin_words) == words[:ARGMIN_CAP]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_capped_onenn_optima_arrive_in_a_late_block(workers):
    # the one trusted point (class 1) sits on pool item 13, so the 8192
    # words with bit 13 set are optimal; at 1 worker the Gray walk visits
    # words 12288..16383 before 8192..12287, which hold the 1024 smallest
    x = np.arange(14.0)[:, None]
    task = Task(trusted=TrustedSet(x[13:], [1]), pool=UnlabeledPool(x))
    best, words = naive_best(task, "onenn")
    assert len(words) == 1 << 13 and words[ARGMIN_CAP - 1] < 3 << 12
    out = exhaustive_search(task, "onenn", workers=workers)
    assert out.best_mu == best / task.m
    assert out.argmin_count == len(words)
    assert list(out.argmin_words) == words[:ARGMIN_CAP]


def _tracker_streams():
    rng = np.random.default_rng(7)
    # ties fill the list, then a lower best arrives in a later block
    late = np.full(3000, 4)
    late[2600] = late[2900:2950] = 1
    return {
        "lower best after a full list": late,
        "random errors": rng.integers(0, 3, size=2500),
        "every word optimal": np.zeros(2100, dtype=np.int64),
    }


def _stream_summary(errs, first):
    """Optimum summary of the words ``first + j`` with errors ``errs[j]``."""
    best = int(errs.min())
    optima = np.flatnonzero(errs == best) + first
    return best, optima.size, optima[:ARGMIN_CAP]


@pytest.mark.parametrize("stream", sorted(_tracker_streams()))
@pytest.mark.parametrize("block", [1, 100, 512])
@settings(max_examples=10)
@given(cuts=st.lists(st.integers(1, 2099), max_size=20), shuffle_seed=st.integers(0, 2**32 - 1))
def test_smallest_tracker_blocks_equal_word_by_word_offers(stream, block, cuts, shuffle_seed):
    # the summaries of blocks of ``block`` words, cut further at random
    # and merged in a random order, merge to the stream's own summary
    errs = _tracker_streams()[stream]
    first = 5 << 20
    bounds = sorted(set(range(0, errs.size, block)) | set(cuts)) + [errs.size]
    summaries = [_stream_summary(errs[a:b], first + a) for a, b in zip(bounds, bounds[1:])]
    tracker = search._SmallestTracker()
    for j in np.random.default_rng(shuffle_seed).permutation(len(summaries)):
        tracker.merge(*summaries[j])
    best, count, words = _stream_summary(errs, first)
    assert (tracker.best, tracker.count) == (best, count)
    assert tracker.words.tolist() == words.tolist()


# --- integer parameters -----------------------------------------------------

@pytest.mark.parametrize("name, call", [
    ("workers", lambda task: exhaustive_search(task, workers=2.7)),
    ("workers", lambda task: exhaustive_search(task, workers=True)),
    ("workers", lambda task: exhaustive_search(task, workers="2")),
    ("cap", lambda task: exhaustive_search(task, cap=24.5)),
    ("budget", lambda task: HeuristicConfig(kind="random", budget=2.5)),
    ("budget", lambda task: HeuristicConfig(kind="greedy-flip", budget=2.5)),
    ("budget", lambda task: HeuristicConfig(kind="anneal", budget=True)),
    ("restarts", lambda task: HeuristicConfig(kind="greedy-flip", budget=10, restarts=1.5)),
    ("rng_seed", lambda task: HeuristicConfig(kind="anneal", budget=10, rng_seed=3.0)),
    ("trials", lambda task: chance_hit_experiment(task, 2.5)),
    ("rng_seed", lambda task: chance_hit_experiment(task, 10, rng_seed=0.5)),
    ("cap", lambda task: chance_hit_experiment(task, 10, cap=24.5)),
])
def test_search_refuses_count_parameters_that_are_not_integers(name, call):
    task = generate_task(TaskSpec(m=4, n=6, d=2, separation=1.0, noise_sigma=1.0, seed=0))
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(task)


# --- batched word evaluation ------------------------------------------------

@given(small_tasks(max_n=8), learner_kinds)
@settings(max_examples=20)
def test_batched_word_scores_match_per_word_refits(task, kind):
    words = np.arange(1 << task.n, dtype=np.uint64)
    assert np.array_equal(error_counts_for_words(task, words, kind), naive_error_counts(task, kind))


@pytest.mark.parametrize("n", [5, 40, 63])
@pytest.mark.parametrize("kind", ["centroid", "onenn"])
def test_batch_scoring_refuses_words_outside_the_pool(kind, n):
    task = generate_task(TaskSpec(m=6, n=n, d=2, separation=1.0, noise_sigma=1.0, seed=n))
    # (1 << n) | 3 at n = 5 is word 35, which used to score as word 3
    outside = [1 << n, (1 << n) | 3, 1 << 63] + ([1 << 62] if n < 62 else [])
    for word in outside:
        with pytest.raises(ValueError, match=f"word {word} has bits at or above the pool size n={n}"):
            error_counts_for_words(task, [0, (1 << n) - 1, word, 1 << 63], kind)
    assert error_counts_for_words(task, [0, (1 << n) - 1], kind).shape == (2,)


@pytest.mark.parametrize("kind", ["centroid", "onenn"])
def test_batch_scoring_refuses_words_that_are_not_nonnegative_integers(kind):
    # at n = 5, [2.7] used to score as word 2, [-1] raised numpy's
    # OverflowError and a 2-D input a broadcast error
    task = generate_task(TaskSpec(m=6, n=5, d=2, separation=1.0, noise_sigma=1.0, seed=5))
    refused = {
        "word 2.7 is not an integer": [[2.7]],
        "word 2.0 is not an integer": [[1, 2.0]],
        "word True is not an integer": [[True]],
        "words must be integers, got dtype float64": [np.array([2.7]), np.array([2.0])],
        "word -1 is negative": [[-1], [3, -1, 4], np.array([0, -1], dtype=np.int64)],
        "words must form a 1-D sequence, got shape (1, 2)": [[[1, 2]], np.array([[1, 2]], dtype=np.uint64)],
        "words must form a 1-D sequence, got shape ()": [3],
    }
    for message, inputs in refused.items():
        for words in inputs:
            with pytest.raises(ValueError, match=re.escape(message)):
                error_counts_for_words(task, words, kind)
    expected = error_counts_for_words(task, np.array([2, 31, 0], dtype=np.uint64), kind).tolist()
    for words in ([2, 31, 0], [np.int64(2), np.uint8(31), 0], np.array([2, 31, 0]), np.array([2, 31, 0], np.int8)):
        assert error_counts_for_words(task, words, kind).tolist() == expected
    assert error_counts_for_words(task, [], kind).shape == (0,)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 40, 63])
@pytest.mark.parametrize("kind", ["centroid", "onenn"])
def test_byte_table_batch_at_byte_boundaries(kind, n):
    # the byte tables split words at multiples of 8 bits; a pool that ends
    # just before, on or after such a boundary must score every word as
    # the evaluator's own per-word reset and, where 2**n is small, as a
    # refit from scratch
    for d in range(1, 5):
        task = generate_task(TaskSpec(m=9, n=n, d=d, separation=1.0, noise_sigma=1.0, seed=100 * n + d))
        rng = np.random.default_rng(n + d)
        top = (1 << n) - 1
        words = np.concatenate([
            rng.integers(0, 1 << n, size=200, dtype=np.uint64),
            np.array([0, top, 1 << (n - 1), top >> 1], dtype=np.uint64),
            np.uint64(1) << np.arange(n, dtype=np.uint64),
            np.uint64(top) ^ (np.uint64(1) << np.arange(n, dtype=np.uint64)),
        ])
        evaluator = _make_evaluator(kind, task.pool.x, task.trusted.x, task.trusted.y)
        assert error_counts_for_words(task, words, kind).tolist() == [evaluator.reset(int(w)) for w in words]
        if n <= 9:
            every = np.arange(1 << n, dtype=np.uint64)
            assert np.array_equal(error_counts_for_words(task, every, kind), naive_error_counts(task, kind))


# --- heuristics -------------------------------------------------------------

_REPLAY_BOUNDS = [1, 2, 3, 40, 63, 2**31 + 11, 2**32]


@pytest.mark.parametrize("seed", range(8))
def test_replayed_draws_match_numpy_scalar_calls(seed):
    # the same calls on two generators of one seed: scalar numpy calls on
    # one, the replay on the other, with uint64 start-word draws through
    # numpy itself in between, at widths that use the buffered 32-bit half
    # (n <= 32) and the full 64-bit output (n > 32)
    scalar = np.random.default_rng(seed)
    replayed = np.random.default_rng(seed)
    plan = np.random.default_rng(1000 + seed)
    draws = search._ReplayedDraws(replayed)
    for width in (1, 17, 32, 33, 40, 63):
        assert int(scalar.integers(0, 1 << width, dtype=np.uint64)) == int(
            replayed.integers(0, 1 << width, dtype=np.uint64))
        calls = [int(k) if plan.random() < 0.6 else None
                 for k in plan.choice(_REPLAY_BOUNDS, size=int(plan.integers(0, 2500)))]
        expected = [float(scalar.random()) if k is None else int(scalar.integers(0, k)) for k in calls]
        with draws:
            got = [draws.random() if k is None else draws.integers(k) for k in calls]
        assert got == expected
        assert replayed.bit_generator.state == scalar.bit_generator.state
    assert float(replayed.random()) == float(scalar.random())


@pytest.mark.parametrize("kind", ["centroid", "onenn"])
def test_anneal_matches_the_scalar_draw_walk(kind):
    plan = np.random.default_rng(77)
    for case in range(40):
        n = 1 + case * 62 // 39
        task = generate_task(TaskSpec(m=int(plan.integers(1, 12)), n=n, d=int(plan.integers(1, 5)),
                                      separation=1.0, noise_sigma=1.0, seed=case))
        config = HeuristicConfig(
            kind="anneal", budget=int(plan.integers(1, 900)), restarts=int(plan.integers(1, 7)),
            initial_temp=float(plan.choice([1e-300, 1e-3, 0.5, 2.0])), decay=float(plan.choice([0.5, 0.95, 0.999])),
            rng_seed=case,
        )
        outcomes = []
        for walk in (search._anneal_walk, scalar_draw_anneal_walk):
            evaluator = _make_evaluator(kind, task.pool.x, task.trusted.x, task.trusted.y)
            tracker = search._DedupeTracker()
            rng = np.random.default_rng(config.rng_seed)
            evals = walk(evaluator, n, config, tracker, rng)
            outcomes.append((evals, tracker.best, tracker.count, tracker.sorted_words(), evaluator.word,
                             rng.bit_generator.state))
        assert outcomes[0] == outcomes[1], (case, config)


def test_greedy_from_all_zeros_local_optimum_eval_count():
    # all-zero labels are already perfect when the trusted set is all
    # class 0, so greedy stops after the initial eval plus n failed flips
    x = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    task = Task(trusted=TrustedSet(x[:3], np.zeros(3, dtype=np.int8)), pool=UnlabeledPool(x))
    config = HeuristicConfig(kind="greedy-flip", budget=10_000, restarts=1)
    out = heuristic_search(task, "centroid", config)
    assert out.best_mu == 0.0
    assert out.evaluations == task.n + 1


def test_random_search_dominates_and_reproduces():
    task = generate_task(TaskSpec(m=5, n=10, d=2, separation=1.0, noise_sigma=1.0, seed=8))
    exact = exhaustive_search(task, "centroid")
    config = HeuristicConfig(kind="random", budget=1 << 10, rng_seed=5)
    first = heuristic_search(task, "centroid", config)
    second = heuristic_search(task, "centroid", config)
    assert first.best_mu >= exact.best_mu
    assert first.best_mu == second.best_mu
    assert first.argmin_words == second.argmin_words
    assert first.evaluations == config.budget


def test_anneal_against_exhaustive_with_equality_frequency():
    hits = 0
    for seed in range(10):
        task = generate_task(TaskSpec(m=6, n=12, d=2, separation=1.0, noise_sigma=1.0, seed=seed))
        exact = exhaustive_search(task, "centroid")
        out = heuristic_search(
            task, "centroid",
            HeuristicConfig(kind="anneal", budget=4096, restarts=4, rng_seed=7),
        )
        assert out.best_mu >= exact.best_mu
        assert out.evaluations <= 4096
        hits += out.best_mu == exact.best_mu
    print(f"anneal matched the exhaustive optimum on {hits}/10 tasks")
    assert hits >= 1  # budget 4096 on n=12 should find the optimum sometimes


def test_heuristic_config_validation():
    with pytest.raises(ValueError):
        HeuristicConfig(kind="tabu", budget=10)
    with pytest.raises(ValueError):
        HeuristicConfig(kind="anneal", budget=0)
    with pytest.raises(ValueError):
        HeuristicConfig(kind="anneal", budget=1, decay=1.0)
    with pytest.raises(ValueError):
        HeuristicConfig(kind="anneal", budget=1, restarts=0)
    for temp in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="initial_temp must be positive and finite"):
            HeuristicConfig(kind="anneal", budget=1, initial_temp=temp)


@given(small_tasks(max_n=9, min_m=2), learner_kinds, st.data())
@settings(max_examples=25)
def test_heuristics_never_beat_exhaustive(task, kind, data):
    exact = exhaustive_search(task, kind)
    config = HeuristicConfig(
        kind=data.draw(st.sampled_from(["random", "greedy-flip", "anneal"])),
        budget=data.draw(st.integers(1, 200)),
        restarts=data.draw(st.integers(1, 3)),
        rng_seed=data.draw(st.integers(0, 2**31 - 1)),
    )
    out = heuristic_search(task, kind, config)
    assert out.best_mu >= exact.best_mu
    assert out.evaluations <= config.budget
    # every listed optimum really scores best_mu
    words = np.array(out.argmin_words, dtype=np.uint64)
    assert np.all(error_counts_for_words(task, words, kind) == round(out.best_mu * task.m))


def _constant_objective_task(n):
    # two coincident trusted points with opposite labels force one error
    # under any prediction, so every labeling word is an optimum
    pool = UnlabeledPool(np.arange(n, dtype=float)[:, None])
    trusted = TrustedSet(np.array([[0.5], [0.5]]), np.array([0, 1], dtype=np.int8))
    return Task(trusted=trusted, pool=pool)


@pytest.mark.parametrize("heuristic", ["random", "greedy-flip", "anneal"])
@pytest.mark.parametrize("kind", ["centroid", "onenn"])
def test_heuristic_argmin_count_is_exact_below_the_cap(heuristic, kind):
    # n <= 10 has at most ARGMIN_CAP words, so the list never overflows and
    # a revisited optimum must not count twice; on the constant task every
    # word is an optimum, so the walks revisit optima many times
    tasks = [_constant_objective_task(10)] + [
        generate_task(TaskSpec(m=5, n=n, d=2, separation=0.5, noise_sigma=1.0, seed=n)) for n in (3, 6, 10)
    ]
    config = HeuristicConfig(kind=heuristic, budget=5000, restarts=400, rng_seed=3)
    for task in tasks:
        out = heuristic_search(task, kind, config)
        assert out.argmin_count == len(out.argmin_words)


@given(small_tasks(max_n=10))
@settings(max_examples=25)
def test_optimum_never_above_ground_truth_score(task):
    truth = pack_word(task.ground_truth)
    for kind in ("centroid", "onenn"):
        exact = exhaustive_search(task, kind)
        truth_errors = error_counts_for_words(task, [truth], kind)[0]
        assert exact.best_mu <= truth_errors / task.m


# --- chance-hit experiment --------------------------------------------------

def _four_anchor_task():
    # one trusted point glued to each pool item with alternating labels:
    # exactly one labeling word (0b1010) scores zero error under one-NN
    pool = UnlabeledPool(np.array([[0.0], [10.0], [20.0], [30.0]]))
    trusted = TrustedSet(
        np.array([[0.1], [10.1], [20.1], [30.1]]),
        np.array([0, 1, 0, 1], dtype=np.int8),
    )
    return Task(trusted=trusted, pool=pool)


def test_chance_hit_unique_optimum_predicts_one_over_sixteen():
    result = chance_hit_experiment(_four_anchor_task(), trials=4096, rng_seed=1, learner_kind="onenn")
    assert result["k_opt"] == 1
    assert result["predicted_rate"] == 1 / 16


def test_chance_hit_constant_objective_predicts_one():
    # two coincident trusted points with opposite labels force one error
    # under any prediction, so every labeling is optimal
    pool = UnlabeledPool(np.array([[0.0], [1.0], [2.0]]))
    trusted = TrustedSet(np.array([[0.5], [0.5]]), np.array([0, 1], dtype=np.int8))
    task = Task(trusted=trusted, pool=pool)
    result = chance_hit_experiment(task, trials=500, rng_seed=2, learner_kind="centroid")
    assert result["predicted_rate"] == 1.0
    assert result["empirical_rate"] == 1.0
    assert result["best_mu"] == 0.5


def test_chance_hit_matches_binomial_concentration():
    task = generate_task(TaskSpec(m=9, n=10, d=2, separation=1.0, noise_sigma=1.0, seed=77))
    result = chance_hit_experiment(task, trials=100_000, rng_seed=5)
    p = result["predicted_rate"]
    assert 0 < p < 1
    bound = 3 * np.sqrt(p * (1 - p) / result["trials"])
    assert abs(result["empirical_rate"] - p) <= bound


def test_chance_hit_respects_the_exhaustive_cap():
    task = generate_task(TaskSpec(m=3, n=12, d=1, separation=1.0, noise_sigma=1.0, seed=1))
    with pytest.raises(ValueError, match="cap"):
        chance_hit_experiment(task, trials=10, cap=10)
