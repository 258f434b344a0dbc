import json
import stat
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from labelsearch import (
    Labeling,
    SearchOutcome,
    Task,
    TrustedSet,
    UnlabeledPool,
    evaluate_mu,
    generate_task,
)
from labelsearch import core
from labelsearch.core import load_task, save_task, task_from_dict, task_to_dict, task_to_json
from labelsearch import TaskSpec

from conftest import small_tasks, umask
from oracles import pack_word


# --- labeling words ---------------------------------------------------------

def test_labeling_bit_positions():
    assert Labeling(0b101, 3).labels().tolist() == [1, 0, 1]


def test_labeling_zero_word():
    assert Labeling(0, 5).labels().tolist() == [0] * 5


def test_labeling_saturated_word():
    assert Labeling(2**4 - 1, 4).labels().tolist() == [1] * 4


def test_labeling_word_out_of_range():
    with pytest.raises(ValueError):
        Labeling(1 << 3, 3)
    with pytest.raises(ValueError):
        Labeling(0, 64)
    with pytest.raises(ValueError):
        Labeling(-1, 3)


def test_labeling_array_round_trip():
    word = pack_word([1, 0, 0, 1, 1])
    assert word == 0b11001
    assert Labeling(word, 5).labels().tolist() == [1, 0, 0, 1, 1]


# --- search outcomes -------------------------------------------------------

def _outcome(n, words):
    return SearchOutcome(best_mu=0.0, n=n, argmin_words=tuple(words), argmin_count=len(words),
                         evaluations=1 << n, elapsed=0.0, mean_eval_time=0.0)


@pytest.mark.parametrize("n, words", [
    (3, []),
    (3, [5, 2]),
    (3, [2, 2]),
    (3, [-1, 2]),
    (3, [2, 8]),
    (63, [1 << 63]),
])
def test_search_outcome_refuses_bad_optimum_lists(n, words):
    with pytest.raises(ValueError, match="argmin"):
        _outcome(n, words)


def test_search_outcome_lists_its_optima_as_labelings():
    out = _outcome(3, [0, 5, 7])
    assert out.argmin_labelings == (Labeling(0, 3), Labeling(5, 3), Labeling(7, 3))
    assert [lab.bits for lab in out.argmin_labelings] == list(out.argmin_words)
    assert all(lab.n == 3 for lab in out.argmin_labelings)


# --- mu evaluation ----------------------------------------------------------

def _trusted(ys):
    ys = np.asarray(ys)
    return TrustedSet(np.arange(len(ys), dtype=float)[:, None], ys)


def test_mu_perfect_agreement():
    t = _trusted([0, 1, 1, 0])
    assert evaluate_mu([0, 1, 1, 0], t) == 0.0


def test_mu_total_disagreement():
    t = _trusted([0, 1, 1, 0])
    assert evaluate_mu([1, 0, 0, 1], t) == 1.0


def test_mu_one_of_five_wrong():
    t = _trusted([0, 0, 0, 0, 0])
    assert evaluate_mu([1, 0, 0, 0, 0], t) == 0.2


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
    mu = evaluate_mu(preds, _trusted(labels))
    assert mu in {k / m for k in range(m + 1)}
    errors = sum(p != y for p, y in zip(preds, labels))
    assert Fraction(errors, m) == Fraction(mu).limit_denominator(m)


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


@pytest.mark.parametrize("labels", [[0, 0.5], [0, 1.9], [0, 257], [0, "1"], [0, None]])
def test_labels_that_are_not_zero_or_one_are_refused_not_truncated(labels):
    with pytest.raises(ValueError, match="trusted labels must contain only 0/1"):
        TrustedSet(np.ones((2, 2)), labels)
    with pytest.raises(ValueError, match="ground truth labels must contain only 0/1"):
        Task(trusted=TrustedSet(np.ones((2, 2)), [0, 1]), pool=UnlabeledPool(np.ones((2, 2))),
             ground_truth=labels)


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


@pytest.mark.parametrize("mask", [0o022, 0o027])
def test_saved_task_files_get_the_mode_open_gives(tmp_path, mask):
    # a new file gets 0o666 less the umask, and a replaced one keeps its mode
    task = generate_task(TaskSpec(m=3, n=4, d=2, separation=1.0, noise_sigma=1.0, seed=7))
    new, opened, old = tmp_path / "new.json", tmp_path / "opened.json", tmp_path / "old.json"
    old.write_text("{}")
    old.chmod(0o604)
    with umask(mask):
        save_task(task, new)
        save_task(task, old)
        open(opened, "w").close()
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(opened.stat().st_mode) == 0o666 & ~mask
    assert stat.S_IMODE(old.stat().st_mode) == 0o604
    assert load_task(old).seed == 7


def test_ground_truth_is_optional():
    task = generate_task(TaskSpec(m=2, n=3, d=1, separation=1.0, noise_sigma=1.0, seed=0))
    doc = task_to_dict(task)
    del doc["ground_truth_B"]
    loaded = task_from_dict(doc)
    assert loaded.ground_truth is None


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
    assert np.array_equal(again.ground_truth, task.ground_truth)
