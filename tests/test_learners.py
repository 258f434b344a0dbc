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


# --- centroid sweep blocks --------------------------------------------------

def _off_grid_pool(rng, n, d):
    # magnitudes spread over six decades, so that regrouping any sum
    # changes its rounding
    return rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))


def _left_fold(rows):
    total = [0.0] * len(rows[0]) if rows else None
    for row in rows:
        total = [t + v for t, v in zip(total, row)]
    return total


@pytest.mark.parametrize("n, bits", [(1, 0), (1, 1), (5, 0), (5, 2), (9, 5), (9, 9), (16, 8), (20, 9)])
def test_block_class_sums_are_ascending_left_folds(n, bits):
    # every word's class sums are its rows added one at a time in
    # ascending pool index onto a zero, whichever block it falls in
    rng = np.random.default_rng(100 * n + bits)
    for d in (1, 3):
        pool_x = _off_grid_pool(rng, n, d)
        rows = pool_x.tolist()
        evaluator = _make_evaluator("centroid", pool_x, rng.standard_normal((2, d)), np.array([0, 1], dtype=np.int8))
        highs = rng.integers(0, 1 << (n - bits), size=4) << bits if n > bits else [0]
        for high in [0, ((1 << n) - 1) >> bits << bits, *highs]:
            sums, counts = evaluator._block_sums(int(high), bits)
            for s in sorted({0, (1 << bits) - 1, *rng.integers(0, 1 << bits, size=64).tolist()}):
                word = int(high) + s
                for cls in (0, 1):
                    members = [row for i, row in enumerate(rows) if (word >> i) & 1 == cls]
                    assert counts[cls, s] == len(members)
                    if members:
                        assert sums[:, cls, s].tolist() == _left_fold(members)
                    else:
                        assert not sums[:, cls, s].any()


def _class_variants(task):
    """The task, and the task with every trusted label 0 and every one 1
    (a single-class labeling is then an optimum)."""
    y = task.trusted.y
    return [task] + [
        Task(trusted=TrustedSet(task.trusted.x, np.full_like(y, label)), pool=task.pool) for label in (0, 1)
    ]


@pytest.mark.parametrize("n", [1, 2, 7, 11])
def test_block_errors_match_refits(n):
    for d in (1, 2, 4):
        task = generate_task(TaskSpec(m=1 + 3 * d, n=n, d=d, separation=1.0, noise_sigma=1.0, seed=10 * n + d))
        for variant in _class_variants(task):
            counts = naive_error_counts(variant, "centroid")
            evaluator = _make_evaluator("centroid", variant.pool.x, variant.trusted.x, variant.trusted.y)
            for bits in sorted({0, 1, n // 2, n - 1, n} & set(range(_BLOCK_BITS + 1))):
                for high in range(0, 1 << n, 1 << bits):
                    expected = counts[high : high + (1 << bits)]
                    assert evaluator.errors_for_block(high, bits).tolist() == expected.tolist(), (d, bits, high)


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


@given(small_tasks(max_n=10), learner_kinds, st.data())
def test_label_swap_symmetry(task, kind, data):
    # swapping class names everywhere (pool labels and trusted labels)
    # leaves the error rate unchanged
    word = data.draw(st.integers(0, (1 << task.n) - 1))
    swapped_word = word ^ ((1 << task.n) - 1)
    mu = evaluate_mu(
        predict(fit(task.pool, Labeling(word, task.n), kind), task.trusted),
        task.trusted,
    )
    swapped_trusted = TrustedSet(task.trusted.x, 1 - task.trusted.y)
    mu_swapped = evaluate_mu(
        predict(fit(task.pool, Labeling(swapped_word, task.n), kind), swapped_trusted),
        swapped_trusted,
    )
    assert mu == mu_swapped


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
