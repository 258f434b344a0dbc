"""Tests of the benchmark's own references and checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from labelsearch.harness import TaskSpec, generate_task  # noqa: E402
from labelsearch.search import (  # noqa: E402
    chance_hit_experiment,
    error_counts_for_words,
    exhaustive_search,
)

from checks import chance_hit_problems, exhaustive_problems, summary  # noqa: E402
from reference import make_reference  # noqa: E402

# (m, d, separation): the benchmark's two sweep shapes, plus a 3-d task
# with coinciding class means, which has many ties.
SHAPES = [(8, 2, 4.0), (64, 2, 1.0), (5, 3, 0.0)]


def _task(shape, n, seed):
    m, d, separation = shape
    return generate_task(TaskSpec(m=m, n=n, d=d, separation=separation, noise_sigma=1.0, seed=seed))


@pytest.mark.parametrize("learner", ["centroid", "onenn"])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", [1, 4, 8, 12])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_reference_optimum_matches_exhaustive_search(learner, shape, n, seed):
    task = _task(shape, n, seed)
    outcome = exhaustive_search(task, learner)
    optimum = make_reference(task, learner).optimum()
    assert optimum.errors / task.m == outcome.best_mu
    assert optimum.count == outcome.argmin_count
    assert optimum.words == tuple(lab.bits for lab in outcome.argmin_labelings)
    assert exhaustive_problems(summary(outcome), task, optimum) == []


@pytest.mark.parametrize("learner", ["centroid", "onenn"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_errors_match_batch_scoring_past_the_sweep_cap(learner, seed):
    task = _task((64, 2, 1.0), 40, seed)
    words = np.random.default_rng(seed).integers(0, 1 << 40, size=2000, dtype=np.uint64)
    words[:2] = [0, (1 << 40) - 1]  # single-class labelings
    ref = make_reference(task, learner)
    assert np.array_equal(ref.errors(words), error_counts_for_words(task, words, learner))


def test_onenn_closed_form_is_a_lower_bound_at_n_40():
    task = _task((64, 2, 1.0), 40, 7)
    ref = make_reference(task, "onenn")
    optimum = ref.optimum()
    words = np.random.default_rng(7).integers(0, 1 << 40, size=5000, dtype=np.uint64)
    assert ref.errors(words).min() >= optimum.errors
    assert np.all(ref.errors(np.array(optimum.words, dtype=np.uint64)) == optimum.errors)


@pytest.mark.parametrize("learner", ["centroid", "onenn"])
def test_chance_hit_check_accepts_the_library_and_rejects_a_wrong_count(learner):
    task = _task((8, 2, 4.0), 10, 3)
    ref = make_reference(task, learner)
    optimum = ref.optimum()
    result = chance_hit_experiment(task, 3000, rng_seed=5, learner_kind=learner)
    assert chance_hit_problems(result, task, ref, optimum, 3000, 5) == []
    assert chance_hit_problems(result | {"k_opt": result["k_opt"] + 1}, task, ref, optimum, 3000, 5)


def test_exhaustive_check_rejects_a_tampered_outcome():
    task = _task((8, 2, 4.0), 8, 1)
    optimum = make_reference(task, "onenn").optimum()
    good = summary(exhaustive_search(task, "onenn"))
    for key, value in [("count", good["count"] + 1), ("evaluations", 255), ("words", good["words"][1:] or [1]),
                       ("best_mu", good["best_mu"] + 1 / task.m)]:
        assert exhaustive_problems(good | {key: value}, task, optimum), key


def test_benchmark_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sweep-onenn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
