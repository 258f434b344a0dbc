import multiprocessing
import os
import time

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
)
from labelsearch import search
from labelsearch.learners import _make_evaluator
from labelsearch.search import ARGMIN_CAP

from conftest import learner_kinds, ruler_walk, small_tasks
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
    assert b"".join(search._gray_flip_blocks(bits)) == expected


# --- exhaustive search ------------------------------------------------------

def test_exhaustive_contains_ground_truth_on_separable_task():
    task = generate_task(TaskSpec(m=6, n=4, d=2, separation=12.0, noise_sigma=1.0, seed=4))
    out = exhaustive_search(task, "centroid")
    assert out.best_mu == 0.0
    assert pack_word(task.ground_truth) in {lab.bits for lab in out.argmin_labelings}


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
    assert [lab.bits for lab in out.argmin_labelings] == words[:ARGMIN_CAP]


def test_exhaustive_is_worker_count_independent():
    task = generate_task(TaskSpec(m=6, n=10, d=2, separation=1.5, noise_sigma=1.0, seed=13))
    outcomes = [exhaustive_search(task, "centroid", workers=w) for w in (1, 2, 4, 8)]
    reference = outcomes[0]
    for out in outcomes[1:]:
        assert out.best_mu == reference.best_mu
        assert out.argmin_count == reference.argmin_count
        assert [l.bits for l in out.argmin_labelings] == [l.bits for l in reference.argmin_labelings]
        assert out.evaluations == reference.evaluations


def _summary(outcome):
    return (outcome.best_mu, outcome.argmin_count,
            [lab.bits for lab in outcome.argmin_labelings], outcome.evaluations)


@given(small_tasks(), learner_kinds)
def test_outcome_is_bit_identical_for_any_worker_count(task, kind):
    reference = _summary(exhaustive_search(task, kind))
    for workers in (2, 3, 5, 8):
        assert _summary(exhaustive_search(task, kind, workers=workers)) == reference
    assert multiprocessing.active_children() == []


def test_fan_out_forks_one_child_per_extra_share(monkeypatch):
    started = []
    real_start = multiprocessing.context.ForkProcess.start

    def counting_start(process):
        started.append(process)
        real_start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
    for n in (1, 2, 10):
        task = generate_task(TaskSpec(m=4, n=n, d=2, separation=1.0, noise_sigma=1.0, seed=n))
        for workers in (2, 3, 5, 8):
            started.clear()
            exhaustive_search(task, "onenn", workers=workers)
            subcubes = 1 << min(n, (workers - 1).bit_length())
            assert len(started) == min(workers, subcubes) - 1


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
    assert out.argmin_labelings[0].bits == smallest


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
    assert [lab.bits for lab in out.argmin_labelings] == words[:ARGMIN_CAP].tolist()
    assert len(out.argmin_labelings) <= ARGMIN_CAP


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
    assert [l.bits for l in first.argmin_labelings] == [l.bits for l in second.argmin_labelings]
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
    with pytest.raises(ValueError):
        HeuristicConfig(kind="anneal", budget=1, initial_temp=0.0)


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
    words = np.array([lab.bits for lab in out.argmin_labelings], dtype=np.uint64)
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
        assert out.argmin_count == len(out.argmin_labelings)


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
