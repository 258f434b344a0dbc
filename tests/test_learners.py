import copy
import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from labelsearch import (
    Labeling,
    Task,
    TaskSpec,
    TrustedSet,
    UnlabeledPool,
    evaluate_mu,
    fit,
    generate_task,
    predict,
)
from labelsearch import learners, search
from labelsearch.search import error_counts_for_words
from labelsearch.learners import _BLOCK_BITS, _make_evaluator, nearest_pool_index, predict_points, squared_distances

from conftest import learner_kinds, small_tasks
from oracles import NumpyRowCentroidEvaluator, brute_nearest, fsum_class_means, naive_error_counts


# --- fit --------------------------------------------------------------------

def test_fit_one_point_per_class():
    pool = UnlabeledPool(np.array([[0.0, 0.0], [2.0, 2.0]]))
    state = fit(pool, Labeling(0b10, 2), "centroid")
    assert state.class_counts == (1, 1)
    assert np.array_equal(state.class_sums[0], [0.0, 0.0])
    assert np.array_equal(state.class_sums[1], [2.0, 2.0])


def test_fit_degenerate_all_zero_labels():
    pool = UnlabeledPool(np.arange(10.0)[:, None])
    state = fit(pool, Labeling(0, 10), "centroid")
    assert state.class_counts == (10, 0)
    assert np.array_equal(state.class_sums[1], [0.0])


def test_fit_centroids_match_hand_summation():
    pool = UnlabeledPool(np.array([[1.0, -2.0], [3.5, 0.25], [-4.0, 8.0], [0.5, 0.5]]))
    lab = Labeling(0b0011, 4)  # items 0,1 -> class 1; items 2,3 -> class 0
    state = fit(pool, lab, "centroid")
    expected = fsum_class_means(pool.x, lab.labels())
    for cls in (0, 1):
        got = state.class_sums[cls] / state.class_counts[cls]
        assert np.allclose(got, expected[cls], rtol=1e-15, atol=0)


def test_fit_rejects_unknown_kind():
    pool = UnlabeledPool(np.ones((2, 1)))
    with pytest.raises(ValueError):
        fit(pool, Labeling(0, 2), "svm")


@pytest.mark.parametrize("labels", [[0.5, 1], [1.9, 0], [257, 0]])
def test_fit_refuses_labels_that_are_not_zero_or_one(labels):
    pool = UnlabeledPool(np.ones((2, 1)))
    with pytest.raises(ValueError, match="0/1"):
        fit(pool, labels, "centroid")


def test_fit_accepts_label_arrays_of_any_length():
    # label sequences work beyond the 63-bit packed-word bound
    pool = UnlabeledPool(np.arange(70.0)[:, None])
    labels = np.zeros(70, dtype=np.int8)
    labels[::2] = 1
    state = fit(pool, labels, "centroid")
    assert state.class_counts == (35, 35)


# --- evaluators -------------------------------------------------------------

def _evaluator(kind, pool, trusted, word):
    evaluator = _make_evaluator(kind, pool.x, trusted.x, trusted.y)
    evaluator.reset(word)
    return evaluator


def _assert_matches_refit(evaluator, kind, pool, trusted, word):
    """The evaluator holds ``word`` and scores it as a refit does; a
    centroid evaluator's running sums and counts equal the refit's
    exactly (the pools here sit on a dyadic grid)."""
    assert evaluator.word == word
    fresh = fit(pool, Labeling(word, pool.n), kind)
    assert evaluator.errors() == int(np.count_nonzero(predict(fresh, trusted) != trusted.y))
    if kind == "centroid":
        assert np.array_equal(evaluator.sums, fresh.class_sums)
        assert tuple(evaluator.counts) == fresh.class_counts


def test_flip_emptying_a_class():
    # two class-0 points and one class-1 point: an empty class 1 predicts
    # class 0 everywhere (1 error), an empty class 0 predicts class 1
    # everywhere (2 errors), so swapping the two rules shows
    pool = UnlabeledPool(np.arange(5.0)[:, None])
    trusted = TrustedSet(np.array([[-1.0], [-2.0], [6.0]]), np.array([0, 0, 1]))
    evaluator = _evaluator("centroid", pool, trusted, 0b00100)
    evaluator.flip(2)
    assert evaluator.counts == [5, 0]
    assert evaluator.errors() == 1
    _assert_matches_refit(evaluator, "centroid", pool, trusted, 0)
    evaluator = _evaluator("centroid", pool, trusted, 0b11011)
    evaluator.flip(2)
    assert evaluator.counts == [0, 5]
    assert evaluator.errors() == 2
    _assert_matches_refit(evaluator, "centroid", pool, trusted, 0b11111)


def test_flip_then_flip_back_restores_predictions():
    pool = UnlabeledPool(np.array([[0.0, 1.0], [4.0, -1.0], [2.0, 2.0]]))
    trusted = TrustedSet(np.array([[1.0, 1.0], [3.0, 0.0]]), np.array([0, 1]))
    for kind in ("centroid", "onenn"):
        evaluator = _evaluator(kind, pool, trusted, 0b011)
        evaluator.flip(1)
        _assert_matches_refit(evaluator, kind, pool, trusted, 0b001)
        evaluator.flip(1)
        _assert_matches_refit(evaluator, kind, pool, trusted, 0b011)


def test_single_flip_matches_refit_on_random_task():
    task = generate_task(TaskSpec(m=5, n=10, d=2, separation=1.5, noise_sigma=1.0, seed=21))
    for kind in ("centroid", "onenn"):
        evaluator = _evaluator(kind, task.pool, task.trusted, 0b1011001110)
        evaluator.flip(4)
        _assert_matches_refit(evaluator, kind, task.pool, task.trusted, 0b1011001110 ^ (1 << 4))


@given(small_tasks(max_n=16), learner_kinds, st.data())
def test_flip_sequences_equal_refit(task, kind, data):
    n = task.n
    word = data.draw(st.integers(0, (1 << n) - 1))
    evaluator = _evaluator(kind, task.pool, task.trusted, word)
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)):
        evaluator.flip(i)
        word ^= 1 << i
    # generator coordinates sit on a dyadic grid, so running sums are exact
    _assert_matches_refit(evaluator, kind, task.pool, task.trusted, word)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_centroid_flips_match_numpy_row_reference(d):
    # off the dyadic grid flips and refits may round differently, but the
    # evaluator must still do the numpy-row reference's arithmetic exactly
    rng = np.random.default_rng(100 + d)
    for _ in range(5):
        n = int(rng.integers(2, 12))
        pool_x = rng.normal(size=(n, d)) * 3.0
        ax = rng.normal(size=(int(rng.integers(1, 16)), d)) * 3.0
        ay = rng.integers(0, 2, size=ax.shape[0]).astype(np.int8)
        evaluator = _make_evaluator("centroid", pool_x, ax, ay)
        reference = NumpyRowCentroidEvaluator(pool_x, ax, ay)
        word = int(rng.integers(0, 1 << n))
        assert evaluator.reset(word) == reference.reset(word)

        def walk(flips):
            for i in flips:
                evaluator.flip(i)
                reference.flip(i)
                assert evaluator.word == reference.word
                assert evaluator.counts == reference.counts
                assert np.array(evaluator.sums).tobytes() == reference.sums.tobytes()
                assert evaluator.errors() == reference.errors()
                for cls, count in enumerate(reference.counts):
                    if count:  # the distances centroid_predictions compares
                        expected = squared_distances(ax, reference.sums[cls] / count)
                        assert evaluator._distances(evaluator.sums[cls], count).tobytes() == expected.tobytes()

        walk(rng.integers(0, n, size=3 * n).tolist())
        walk([i for i in range(n) if (evaluator.word >> i) & 1])
        assert evaluator.counts == [n, 0]
        walk(range(n))
        assert evaluator.counts == [0, n]
        walk(rng.integers(0, n, size=3 * n).tolist())


@pytest.mark.parametrize("n", [40, 63])
@pytest.mark.parametrize("kind", ["centroid", "onenn"])
def test_errors_for_words_match_reset_on_wide_pools(kind, n):
    # far past any refit oracle's reach: the batch kernel must agree with
    # the evaluator's own per-word scoring, top bit and degenerate words too
    task = generate_task(TaskSpec(m=24, n=n, d=3, separation=1.0, noise_sigma=1.0, seed=n))
    rng = np.random.default_rng(n)
    top = 1 << (n - 1)
    words = np.concatenate([
        rng.integers(0, 1 << n, size=300, dtype=np.uint64),
        rng.integers(0, top, size=100, dtype=np.uint64) | np.uint64(top),
        np.array([0, (1 << n) - 1, top, (1 << n) - 1 - top], dtype=np.uint64),
    ])
    evaluator = _make_evaluator(kind, task.pool.x, task.trusted.x, task.trusted.y)
    batch = evaluator.errors_for_words(words)
    assert batch.tolist() == [evaluator.reset(int(w)) for w in words]


#: The state of each evaluator that scores its current word.
_WORD_STATE = {"centroid": ("word", "sums", "counts"), "onenn": ("word", "_errors", "_delta")}


def _word_state(evaluator, kind):
    return copy.deepcopy({name: getattr(evaluator, name) for name in _WORD_STATE[kind]})


@pytest.mark.parametrize("n, m, d", [(1, 3, 1), (2, 5, 2), (5, 1, 3), (8, 12, 2), (13, 64, 1), (40, 64, 2),
                                     (63, 20, 3)])
@pytest.mark.parametrize("kind", ["centroid", "onenn"])
def test_neighbour_errors_match_single_flips(kind, n, m, d):
    # entry i is what flip(i), errors() gives, from a reset state and from
    # one reached by flips, on grid and off-grid tasks, where neighbours
    # with an empty class take the nonempty class's errors; the call
    # leaves the state alone
    rng = np.random.default_rng(1000 * n + m)
    grid = generate_task(TaskSpec(m=m, n=n, d=d, separation=1.0, noise_sigma=1.0, seed=n))
    naive = naive_error_counts(grid, kind) if n <= 8 else None
    full = (1 << n) - 1
    words = {0, full, *(1 << i for i in range(n)), *(full ^ (1 << i) for i in range(n)),
             *rng.integers(0, 1 << n, size=6, dtype=np.uint64).tolist()}
    for scale in (0.0, 1e-3, 0.37):
        pool_x = grid.pool.x + rng.uniform(-scale, scale, size=grid.pool.x.shape)
        ax = grid.trusted.x + rng.uniform(-scale, scale, size=grid.trusted.x.shape)
        evaluator = _make_evaluator(kind, pool_x, ax, grid.trusted.y)
        for word in sorted(words):
            for walk in (0, int(rng.integers(0, 1 << n, dtype=np.uint64))):
                evaluator.reset(word ^ walk)
                for i in range(n):
                    if (walk >> i) & 1:
                        evaluator.flip(i)
                state, err = _word_state(evaluator, kind), evaluator.errors()
                scan = evaluator.neighbour_errors()
                assert (_word_state(evaluator, kind), evaluator.errors()) == (state, err)
                expected = []
                for i in range(n):
                    evaluator.flip(i)
                    expected.append(evaluator.errors())
                    evaluator.flip(i)
                    vars(evaluator).update(copy.deepcopy(state))  # off the grid the undo may round the sums
                assert scan == expected, (scale, word, walk)
                if naive is not None and scale == 0.0:
                    assert scan == [int(naive[word ^ (1 << i)]) for i in range(n)]


# --- centroid sweep blocks --------------------------------------------------

def _off_grid_pool(rng, n, d):
    # magnitudes spread over six decades, so that regrouping any sum
    # changes its rounding
    return rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))


def _byte_fold(rows, word):
    """Class sums and sizes of ``word`` as batch scoring forms them, in
    plain Python: per byte, the byte's rows of each class added in
    ascending index onto a zero; then the bytes' sums added in ascending
    byte order.  Rows past the pool count as zeros."""
    width = len(rows[0]) + 1
    padded = [row + [1.0] for row in rows] + [[0.0] * width] * (-len(rows) % 8)
    folds = [[0.0] * width, [0.0] * width]
    for first in range(0, len(padded), 8):
        part = [[0.0] * width, [0.0] * width]
        for i in range(first, first + 8):
            cls = (word >> i) & 1
            part[cls] = [t + v for t, v in zip(part[cls], padded[i])]
        folds = [[t + v for t, v in zip(fold, p)] for fold, p in zip(folds, part)] if first else part
    return folds


@pytest.mark.parametrize("n, workers", [(1, 1), (3, 8), (5, 5), (8, 3), (10, 1), (12, 3), (17, 2), (20, 1)])
def test_sweep_class_sums_equal_batch_byte_sums(n, workers):
    # each sweep call forms its words' class sums and sizes as batch
    # scoring does, bit for bit, on grid and on off-grid pools; the calls
    # take 1, 2, 4 and 8 blocks at 1, 12, 24 and 64 trusted points, fewer
    # where a job is smaller, and small pools at many workers have jobs
    # whose prefix sets bits inside byte 0
    rng = np.random.default_rng(100 * n + workers)
    for d, m in ((1, 1), (3, 12), (2, 24), (2, 64)):
        grid = generate_task(TaskSpec(m=m, n=n, d=d, separation=1.0, noise_sigma=1.0, seed=n))
        for pool_x in (grid.pool.x, grid.pool.x + rng.uniform(-1e-3, 1e-3, size=grid.pool.x.shape),
                       _off_grid_pool(rng, n, d)):
            evaluator = _make_evaluator("centroid", pool_x, grid.trusted.x, grid.trusted.y)
            assert evaluator._call_bits == 8 + {1: 0, 12: 1, 24: 2, 64: 3}[m]
            tables = evaluator._tables.reshape(evaluator._tables.shape[0], -1, 256)
            calls = []
            real_block_sums = evaluator._block_sums

            def recording_block_sums(high, sums):
                real_block_sums(high, sums)
                calls.append((high, sums.copy()))

            evaluator._block_sums = recording_block_sums
            for share in search._sweep_shares(n, workers):
                for prefix_word, low_bits in share:
                    evaluator.sweep(prefix_word, low_bits, _Recorder())
            scored = []
            rows = pool_x.tolist()
            for high, sums in calls:
                words = high + np.arange(sums.shape[-1], dtype=np.uint64)
                expected = np.empty((tables.shape[1], words.size))
                learners._sum_byte_tables(tables, words, expected)
                assert sums.tobytes() == expected.tobytes(), (d, m, high)
                for s in {0, words.size - 1, *rng.integers(0, words.size, size=4).tolist()}:
                    assert sums[:, :, s].T.tolist() == _byte_fold(rows, high + s), (d, m, high + s)
                scored.append(words)
            # the calls score each word whose top bit is clear once
            assert np.sort(np.concatenate(scored)).tolist() == list(range(1 << (n - 1)))


def _class_variants(task):
    """The task, and the task with every trusted label 0 and every one 1
    (a single-class labeling is then an optimum)."""
    y = task.trusted.y
    return [task] + [
        Task(trusted=TrustedSet(task.trusted.x, np.full_like(y, label)), pool=task.pool) for label in (0, 1)
    ]


@pytest.mark.parametrize("n", [1, 2, 7, 11, 12])
def test_block_errors_match_refits(n):
    # every call the sweep can make: one to eight blocks of 2**8 words or
    # part of one block, whose words have the top bit clear; row 0 scores
    # them and row 1 their complements
    for d in (1, 2, 4):
        task = generate_task(TaskSpec(m=1 + 3 * d, n=n, d=d, separation=1.0, noise_sigma=1.0, seed=10 * n + d))
        for variant in _class_variants(task):
            counts = naive_error_counts(variant, "centroid")
            evaluator = _make_evaluator("centroid", variant.pool.x, variant.trusted.x, variant.trusted.y)
            for bits in range(min(n, _BLOCK_BITS + 3)):
                for high in range(0, 1 << (n - 1), 1 << bits):
                    words = high + np.arange(1 << bits)
                    expected = [counts[words].tolist(), counts[(1 << n) - 1 - words].tolist()]
                    assert evaluator._block_errors(high, 1 << bits).tolist() == expected, (d, bits, high)


def test_distance_scratch_arrays_lie_apart_within_a_page():
    # a few bytes past a multiple of 4 KiB from each other, a load from one
    # array waits for each store to another (4K aliasing)
    for m, d in ((1, 1), (6, 2), (64, 4), (1000, 2)):
        for width in (1, 3, 256, 2048, 8192):
            sums, dist, diff, _, _, miss, counted, wrong = learners._scoring_arrays(d, m, width)
            cut = (sums, dist, diff, wrong, counted)
            assert [a.ctypes.data % 4096 for a in cut] == list(learners._PAGE_OFFSETS), (m, d, width)
            rows = min(m, max(1, learners._SCORE_CELLS // (2 * width)), 255)
            assert sums.shape == (d + 1, 2, width) and dist.shape == diff.shape == (rows, 2 * width)
            assert miss.shape == (rows, 2, width) and miss.ctypes.data == diff.ctypes.data
            assert counted.shape == wrong.shape == (2, width)
            # in order, apart, inside the thread's buffer
            ends = [(a.ctypes.data, a.ctypes.data + a.nbytes) for a in cut]
            assert all(end <= start for (_, end), (start, _) in zip(ends, ends[1:]))
            values = learners._SCORING.values
            assert values.ctypes.data <= ends[0][0] and ends[-1][1] <= values.ctypes.data + values.nbytes


# --- predict ----------------------------------------------------------------

def test_predict_tie_goes_to_class_zero():
    pool = UnlabeledPool(np.array([[0.0], [2.0]]))
    trusted = TrustedSet(np.array([[1.0]]), np.array([1]))
    state = fit(pool, Labeling(0b10, 2), "centroid")
    assert predict(state, trusted).tolist() == [0]


def test_predict_empty_class_takes_nonempty_side():
    pool = UnlabeledPool(np.array([[0.0], [1.0], [2.0]]))
    trusted = TrustedSet(np.array([[-5.0], [9.0]]), np.array([0, 1]))
    all_ones = fit(pool, Labeling(0b111, 3), "centroid")
    assert predict(all_ones, trusted).tolist() == [1, 1]
    all_zeros = fit(pool, Labeling(0, 3), "centroid")
    assert predict(all_zeros, trusted).tolist() == [0, 0]


def test_predict_separable_blobs_reach_zero_error():
    # blob centers 10 apart, every point within 1 of its center: the
    # margin dominates, so the true labeling classifies A perfectly
    rng = np.random.default_rng(3)
    centers = np.array([[-5.0, 0.0], [5.0, 0.0]])
    pool_labels = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
    pool_x = centers[pool_labels] + rng.uniform(-0.5, 0.5, size=(6, 2))
    a_labels = np.array([0, 1, 0, 1], dtype=np.int8)
    a_x = centers[a_labels] + rng.uniform(-0.5, 0.5, size=(4, 2))
    for kind in ("centroid", "onenn"):
        state = fit(UnlabeledPool(pool_x), pool_labels, kind)
        assert evaluate_mu(predict(state, TrustedSet(a_x, a_labels)), TrustedSet(a_x, a_labels)) == 0.0
    # direct distance verification: each A point is nearer its own centroid
    c0 = pool_x[pool_labels == 0].mean(axis=0)
    c1 = pool_x[pool_labels == 1].mean(axis=0)
    for point, label in zip(a_x, a_labels):
        own, other = (c0, c1) if label == 0 else (c1, c0)
        assert ((point - own) ** 2).sum() < ((point - other) ** 2).sum()


def _tie_task():
    """Pool [0] and [2] and one trusted point [1] of class 1: under words
    0b01 and 0b10 the point is as near one centroid as the other."""
    return Task(trusted=TrustedSet(np.array([[1.0]]), np.array([1])), pool=UnlabeledPool(np.array([[0.0], [2.0]])))


def _label_swap_sides(task, word, kind):
    """Errors of ``word`` on the trusted set, errors of its complement on
    the trusted set with every label swapped, and the difference of the
    two that the label-swap identity gives."""
    swapped = TrustedSet(task.trusted.x, 1 - task.trusted.y)
    state = fit(task.pool, Labeling(word, task.n), kind)
    errors = int(np.count_nonzero(predict(state, task.trusted) != task.trusted.y))
    complement = fit(task.pool, Labeling(word ^ ((1 << task.n) - 1), task.n), kind)
    errors_swapped = int(np.count_nonzero(predict(complement, swapped) != swapped.y))
    # swapping the class names everywhere keeps each prediction right or
    # wrong, except that a point equally near both centroids predicts
    # class 0 under both words: an error under the word if its label is
    # 1, and under the complement if it is 0
    gap = 0
    if kind == "centroid" and min(state.class_counts) > 0:
        c0, c1 = (state.class_sums[c] / state.class_counts[c] for c in (0, 1))
        tied = task.trusted.y[squared_distances(task.trusted.x, c0) == squared_distances(task.trusted.x, c1)]
        gap = int(np.count_nonzero(tied == 1)) - int(np.count_nonzero(tied == 0))
    return errors, errors_swapped, gap


@given(small_tasks(max_n=10), learner_kinds, st.data())
def test_label_swap_symmetry(task, kind, data):
    # swapping class names everywhere (pool labels and trusted labels)
    # leaves the error count unchanged, but for centroid ties
    word = data.draw(st.integers(0, (1 << task.n) - 1))
    errors, errors_swapped, gap = _label_swap_sides(task, word, kind)
    assert errors - errors_swapped == gap


def test_label_swap_symmetry_at_a_centroid_tie():
    assert _label_swap_sides(_tie_task(), 0b10, "centroid") == (1, 0, 1)
    assert _label_swap_sides(_tie_task(), 0b10, "onenn") == (1, 1, 0)


# --- complement pairing -----------------------------------------------------

def _pairing_tasks(*sizes):
    """The tie task, and grid and jittered tasks of part of one centroid
    sweep call and of several calls, and of pools of the given sizes.
    Forty trusted points make each call of the sweep eight blocks wide."""
    rng = np.random.default_rng(21)
    tasks = {"tie": _tie_task()}
    for n in (_BLOCK_BITS - 2, _BLOCK_BITS + 2, *sizes):
        task = generate_task(TaskSpec(m=40, n=n, d=2, separation=1.0, noise_sigma=1.0, seed=n))
        tasks[f"grid-{n}"] = task
        tasks[f"jittered-{n}"] = Task(
            trusted=TrustedSet(task.trusted.x + rng.uniform(-1e-3, 1e-3, size=task.trusted.x.shape), task.trusted.y),
            pool=UnlabeledPool(task.pool.x + rng.uniform(-1e-3, 1e-3, size=task.pool.x.shape)),
        )
    return tasks


class _Recorder:
    """A tracker whose best never drops, so every summary reaches it."""

    best = math.inf

    def __init__(self):
        self.summaries = []

    def merge(self, best, count, words):
        self.summaries.append((best, count, words.tolist()))


@pytest.mark.parametrize("name, task", _pairing_tasks(17, 20).items())
@pytest.mark.parametrize("kind", ["centroid", "onenn"])
def test_sweep_scores_complements_as_batch_scoring_does(name, task, kind, monkeypatch):
    n = task.n
    expected = error_counts_for_words(task, np.arange(1 << n), kind)
    if not name.startswith("jittered") and n <= 11:  # refits round their sums otherwise
        assert expected.tolist() == naive_error_counts(task, kind).tolist()
    scored = []  # the centroid sweep's words and errors of each call
    real_merge_pair = learners._merge_pair

    def recording_merge_pair(tracker, high, mirror, wrong):
        width = wrong.shape[1]
        scored.append((np.arange(high, high + width), wrong[0].copy()))
        scored.append((np.arange(mirror + width - 1, mirror - 1, -1), wrong[1].copy()))
        real_merge_pair(tracker, high, mirror, wrong)

    monkeypatch.setattr(learners, "_merge_pair", recording_merge_pair)
    for workers in (1, 2, 5):
        scored.clear()
        evaluator = _make_evaluator(kind, task.pool.x, task.trusted.x, task.trusted.y)
        recorder = _Recorder()
        for share in search._sweep_shares(n, workers):
            for prefix_word, low_bits in share:
                evaluator.sweep(prefix_word, low_bits, recorder)
        # each summary lists every word of its part that reaches its best
        listed = []
        for best, count, words in recorder.summaries:
            assert count == len(words) and words == sorted(words)
            assert expected[words].tolist() == [best] * count, (workers, best, words)
            listed += words
        assert len(listed) == len(set(listed))
        assert any(word >> (n - 1) for word in listed)  # complements are reported
        if kind == "centroid":
            # the calls score every word and its complement once
            words = np.concatenate([words for words, _ in scored])
            errors = np.concatenate([errors for _, errors in scored])
            assert np.array_equal(np.sort(words), np.arange(1 << n)), workers
            assert np.array_equal(errors, expected[words]), workers


@pytest.mark.parametrize("name, task", _pairing_tasks().items())
def test_onenn_state_after_a_sweep_matches_a_fresh_evaluator(name, task):
    # the sweep's walk updates its own state, not through flip and errors;
    # flip, errors, reset and batch scoring must still work after it
    n = task.n
    args = (task.pool.x, task.trusted.x, task.trusted.y)
    every_word = np.arange(1 << n, dtype=np.uint64)
    for workers in (1, 2, 5):
        for share in search._sweep_shares(n, workers):
            for prefix_word, low_bits in share:
                swept = _make_evaluator("onenn", *args)
                swept.sweep(prefix_word, low_bits, _Recorder())
                # the walk ends on the last word of its reflected-Gray order
                assert swept.word == prefix_word | (1 << low_bits >> 1)
                fresh = _make_evaluator("onenn", *args)
                assert swept.errors() == fresh.reset(swept.word)
                for i in range(n):
                    swept.flip(i)
                    fresh.flip(i)
                    assert (swept.word, swept.errors()) == (fresh.word, fresh.errors()), (prefix_word, i)
                assert swept.errors_for_words(every_word).tolist() == fresh.errors_for_words(every_word).tolist()
                for word in (0, prefix_word, (1 << n) - 1):
                    assert swept.reset(word) == fresh.reset(word)


# --- nearest-neighbor machinery ---------------------------------------------

@given(small_tasks(max_n=10))
def test_nearest_pool_index_matches_brute_force(task):
    got = nearest_pool_index(task.pool.x, task.trusted.x)
    expected = brute_nearest(task.pool.x, task.trusted.x)
    assert np.array_equal(got, expected)
    assert np.all((got >= 0) & (got < task.n))


def test_nearest_tie_resolves_to_lowest_index():
    pool_x = np.array([[1.0], [1.0], [3.0]])
    queries = np.array([[1.0], [2.0]])
    assert nearest_pool_index(pool_x, queries).tolist() == [0, 0]


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_nearest_pool_index_is_the_same_in_chunks(chunk, monkeypatch):
    # pools wider than one chunk keep each query's nearest across chunks,
    # and a tie between chunks goes to the earlier one
    monkeypatch.setattr(learners, "_NN_CHUNK", chunk)
    pool_x = np.array([[3.0], [1.0], [5.0], [1.0], [0.0], [3.0]])
    queries = np.array([[1.0], [2.0], [4.0], [3.0], [6.0], [-1.0]])
    assert nearest_pool_index(pool_x, queries).tolist() == [1, 0, 0, 0, 2, 4]
    task = generate_task(TaskSpec(m=9, n=11, d=3, separation=1.0, noise_sigma=1.0, seed=chunk))
    expected = brute_nearest(task.pool.x, task.trusted.x)
    assert nearest_pool_index(task.pool.x, task.trusted.x).tolist() == list(expected)


def test_one_nn_flip_changes_only_mapped_points():
    task = generate_task(TaskSpec(m=9, n=12, d=2, separation=1.0, noise_sigma=1.0, seed=17))
    nn = nearest_pool_index(task.pool.x, task.trusted.x)
    word = 0b101010101010
    correct = Labeling(word, task.n).labels()[nn] == task.trusted.y
    evaluator = _evaluator("onenn", task.pool, task.trusted, word)
    before = evaluator.errors()
    for i in range(task.n):
        evaluator.flip(i)
        # only the points mapped to item i change prediction, so each of
        # them turns from right to wrong or from wrong to right
        mapped = nn == i
        assert evaluator.errors() == (
            before + int(np.count_nonzero(mapped & correct)) - int(np.count_nonzero(mapped & ~correct))
        )
        _assert_matches_refit(evaluator, "onenn", task.pool, task.trusted, word ^ (1 << i))
        evaluator.flip(i)


def test_predict_points_on_external_queries():
    task = generate_task(TaskSpec(m=4, n=8, d=2, separation=6.0, noise_sigma=0.5, seed=2))
    state = fit(task.pool, task.ground_truth, "centroid")
    assert np.array_equal(predict_points(state, task.pool.x), task.ground_truth)
