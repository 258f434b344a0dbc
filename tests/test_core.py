import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from labelsearch import (
    Labeling,
    Task,
    TrustedSet,
    UnlabeledPool,
    evaluate_mu,
    generate_task,
    labeling_from_array,
    labeling_from_word,
)
from labelsearch import core
from labelsearch.core import load_task, save_task, task_from_dict, task_to_dict, task_to_json
from labelsearch import TaskSpec

from conftest import small_tasks


# --- labeling words ---------------------------------------------------------

def test_labeling_bit_positions():
    assert labeling_from_word(0b101, 3).labels().tolist() == [1, 0, 1]


def test_labeling_zero_word():
    assert labeling_from_word(0, 5).labels().tolist() == [0] * 5


def test_labeling_saturated_word():
    assert labeling_from_word(2**4 - 1, 4).labels().tolist() == [1] * 4


def test_labeling_word_out_of_range():
    with pytest.raises(ValueError):
        labeling_from_word(1 << 3, 3)
    with pytest.raises(ValueError):
        labeling_from_word(0, 64)
    with pytest.raises(ValueError):
        labeling_from_word(-1, 3)


def test_labeling_array_round_trip():
    lab = labeling_from_array([1, 0, 0, 1, 1])
    assert lab.bits == 0b11001
    assert labeling_from_word(lab.bits, lab.n).labels().tolist() == [1, 0, 0, 1, 1]


@given(st.integers(1, 63), st.data())
def test_flip_twice_is_identity(n, data):
    bits = data.draw(st.integers(0, (1 << n) - 1))
    i = data.draw(st.integers(0, n - 1))
    lab = Labeling(bits, n)
    assert lab.flip(i).flip(i) == lab
    assert lab.flip(i).label_of(i) == 1 - lab.label_of(i)


# --- mu evaluation ----------------------------------------------------------

def _trusted(ys):
    ys = np.asarray(ys)
    return TrustedSet(np.arange(len(ys), dtype=float)[:, None], ys)


def test_mu_perfect_agreement():
    t = _trusted([0, 1, 1, 0])
    assert evaluate_mu([0, 1, 1, 0], t).mu == 0.0


def test_mu_total_disagreement():
    t = _trusted([0, 1, 1, 0])
    assert evaluate_mu([1, 0, 0, 1], t).mu == 1.0


def test_mu_one_of_five_wrong():
    t = _trusted([0, 0, 0, 0, 0])
    res = evaluate_mu([1, 0, 0, 0, 0], t)
    assert res.mu == 0.2
    assert res.correct_count == 4


def test_mu_length_mismatch_rejected():
    with pytest.raises(ValueError):
        evaluate_mu([0, 1], _trusted([0, 1, 1]))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40), st.data())
def test_mu_permutation_equivariant(labels, data):
    t = _trusted(labels)
    preds = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(labels), max_size=len(labels))))
    perm = np.array(data.draw(st.permutations(range(len(labels)))))
    base = evaluate_mu(preds, t)
    shuffled = evaluate_mu(preds[perm], _trusted(np.asarray(labels)[perm]))
    assert shuffled == base


@given(st.lists(st.integers(0, 1), min_size=1, max_size=30), st.data())
def test_mu_lives_on_the_k_over_m_grid(labels, data):
    m = len(labels)
    preds = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    res = evaluate_mu(preds, _trusted(labels))
    assert res.mu in {k / m for k in range(m + 1)}
    assert Fraction(m - res.correct_count, m) == Fraction(res.mu).limit_denominator(m)


# --- type validation --------------------------------------------------------

def test_trusted_set_rejects_bad_inputs():
    with pytest.raises(ValueError):
        TrustedSet(np.array([[np.nan]]), np.array([0]))
    with pytest.raises(ValueError):
        TrustedSet(np.ones((2, 2)), np.array([0, 2]))
    with pytest.raises(ValueError):
        TrustedSet(np.ones((2, 2)), np.array([0]))
    with pytest.raises(ValueError):
        TrustedSet(np.ones((0, 2)), np.array([]))


def test_task_rejects_dimension_mismatch():
    trusted = TrustedSet(np.ones((2, 2)), np.array([0, 1]))
    with pytest.raises(ValueError):
        Task(trusted=trusted, pool=UnlabeledPool(np.ones((3, 3))))


def test_task_ground_truth_must_match_pool():
    trusted = TrustedSet(np.ones((2, 2)), np.array([0, 1]))
    pool = UnlabeledPool(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Task(trusted=trusted, pool=pool, ground_truth=np.array([0, 1]))


def test_arrays_are_frozen():
    trusted = TrustedSet(np.ones((2, 2)), np.array([0, 1]))
    with pytest.raises(ValueError):
        trusted.x[0, 0] = 5.0


# --- task files -------------------------------------------------------------

def test_task_file_schema_field_names(tmp_path):
    task = generate_task(TaskSpec(m=3, n=4, d=2, separation=1.0, noise_sigma=1.0, seed=7))
    path = tmp_path / "task.json"
    save_task(task, path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["d", "A", "B", "ground_truth_B", "seed"]
    assert list(doc["A"][0]) == ["x", "y"]
    assert doc["d"] == 2 and doc["seed"] == 7
    assert len(doc["A"]) == 3 and len(doc["B"]) == 4


def test_task_file_round_trip_exact(tmp_path):
    task = generate_task(TaskSpec(m=5, n=6, d=3, separation=2.5, noise_sigma=0.7, seed=12))
    path = tmp_path / "task.json"
    save_task(task, path)
    loaded = load_task(path)
    assert np.array_equal(loaded.trusted.x, task.trusted.x)
    assert np.array_equal(loaded.trusted.y, task.trusted.y)
    assert np.array_equal(loaded.pool.x, task.pool.x)
    assert np.array_equal(loaded.ground_truth, task.ground_truth)
    assert loaded.seed == task.seed
    assert task_to_json(loaded) == path.read_text()


def test_failed_save_leaves_the_existing_task_file_unchanged(tmp_path, monkeypatch):
    task = generate_task(TaskSpec(m=3, n=4, d=2, separation=1.0, noise_sigma=1.0, seed=7))
    path = tmp_path / "task.json"
    save_task(task, path)
    before = path.read_bytes()
    # a lone surrogate cannot be encoded, so the write fails after it began
    monkeypatch.setattr(core, "task_to_json", lambda _task: '{"d": 2, "\ud800"')
    with pytest.raises(UnicodeEncodeError):
        save_task(task, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["task.json"]


def test_ground_truth_is_optional():
    task = generate_task(TaskSpec(m=2, n=3, d=1, separation=1.0, noise_sigma=1.0, seed=0))
    doc = task_to_dict(task)
    del doc["ground_truth_B"]
    loaded = task_from_dict(doc)
    assert loaded.ground_truth is None
    assert loaded.ground_truth_labeling() is None


def test_task_document_missing_field_rejected():
    task = generate_task(TaskSpec(m=2, n=3, d=1, separation=1.0, noise_sigma=1.0, seed=0))
    doc = task_to_dict(task)
    del doc["seed"]
    with pytest.raises(ValueError):
        task_from_dict(doc)


@given(small_tasks(max_n=6))
def test_task_dict_round_trip(task):
    again = task_from_dict(task_to_dict(task))
    assert np.array_equal(again.pool.x, task.pool.x)
    assert np.array_equal(again.trusted.y, task.trusted.y)
    assert again.ground_truth_labeling() == task.ground_truth_labeling()
