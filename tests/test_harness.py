import numpy as np
import pytest

from labelsearch import (
    Task,
    TaskSpec,
    TrustedSet,
    UnlabeledPool,
    conventional_pipeline,
    evaluate_mu,
    exhaustive_search,
    fit,
    generate_task,
    predict,
    scaling_experiment,
    self_training_baseline,
)
from labelsearch.core import COORD_GRID, task_to_json
from labelsearch.harness import fit_log2_slope, scaling_report_csv, scaling_report_json, split_trusted


# --- task generation --------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec(m=0, n=5, d=2, separation=1.0, noise_sigma=1.0, seed=0)
    with pytest.raises(ValueError):
        TaskSpec(m=2, n=5, d=2, separation=-1.0, noise_sigma=1.0, seed=0)
    with pytest.raises(ValueError):
        TaskSpec(m=2, n=5, d=2, separation=1.0, noise_sigma=0.0, seed=0)


def test_generated_classes_balanced_within_one():
    task = generate_task(TaskSpec(m=9, n=13, d=2, separation=2.0, noise_sigma=1.0, seed=5))
    for labels, count in ((task.trusted.y, 9), (task.ground_truth, 13)):
        ones = int(labels.sum())
        assert abs((count - ones) - ones) <= 1


def test_generated_coordinates_sit_on_the_dyadic_grid():
    task = generate_task(TaskSpec(m=4, n=6, d=3, separation=1.3, noise_sigma=0.9, seed=8))
    for arr in (task.trusted.x, task.pool.x):
        scaled = arr / COORD_GRID
        assert np.array_equal(scaled, np.round(scaled))


def test_zero_separation_classes_coincide():
    task = generate_task(TaskSpec(m=400, n=400, d=2, separation=0.0, noise_sigma=1.0, seed=2))
    x0 = task.pool.x[task.ground_truth == 0]
    x1 = task.pool.x[task.ground_truth == 1]
    # identical distributions: both class means land near the origin
    assert np.allclose(x0.mean(axis=0), 0.0, atol=0.25)
    assert np.allclose(x1.mean(axis=0), 0.0, atol=0.25)


def test_wide_separation_ground_truth_scores_zero():
    task = generate_task(TaskSpec(m=8, n=12, d=2, separation=10.0, noise_sigma=1.0, seed=6))
    for kind in ("centroid", "onenn"):
        state = fit(task.pool, task.ground_truth, kind)
        assert evaluate_mu(predict(state, task.trusted), task.trusted) == 0.0


def test_same_seed_gives_byte_identical_task_json():
    spec = TaskSpec(m=5, n=7, d=2, separation=3.0, noise_sigma=1.0, seed=123)
    assert task_to_json(generate_task(spec)) == task_to_json(generate_task(spec))
    other = TaskSpec(m=5, n=7, d=2, separation=3.0, noise_sigma=1.0, seed=124)
    assert task_to_json(generate_task(other)) != task_to_json(generate_task(spec))


# --- trusted split ----------------------------------------------------------

def test_split_takes_even_positions_for_fitting():
    trusted = TrustedSet(np.arange(5.0)[:, None], np.array([0, 1, 0, 1, 0]))
    fit_half, holdout = split_trusted(trusted)
    assert fit_half.x[:, 0].tolist() == [0.0, 2.0, 4.0]
    assert holdout.x[:, 0].tolist() == [1.0, 3.0]


def test_split_single_example_has_no_holdout():
    trusted = TrustedSet(np.ones((1, 2)), np.array([1]))
    fit_half, holdout = split_trusted(trusted)
    assert fit_half.m == 1
    assert holdout is None


# --- conventional pipeline --------------------------------------------------

def test_conventional_separable_task_is_perfect():
    task = generate_task(TaskSpec(m=8, n=30, d=2, separation=12.0, noise_sigma=1.0, seed=1))
    result = conventional_pipeline(task, "centroid")
    assert result["accuracy_on_B_truth"] == 1.0
    assert result["mu_on_A_holdout"] == 0.0


def test_conventional_single_example_predicts_one_class_everywhere():
    task = generate_task(TaskSpec(m=1, n=21, d=2, separation=3.0, noise_sigma=1.0, seed=11))
    result = conventional_pipeline(task, "centroid")
    only_class = int(task.trusted.y[0])
    prevalence = float(np.count_nonzero(task.ground_truth == only_class)) / task.n
    assert result["accuracy_on_B_truth"] == prevalence
    assert result["mu_on_A_holdout"] is None


def test_conventional_golden_regression_value():
    # frozen after the first verified run; strictly inside (0.5, 1.0)
    task = generate_task(TaskSpec(m=4, n=40, d=2, separation=1.0, noise_sigma=1.0, seed=3))
    result = conventional_pipeline(task, "centroid")
    assert result["accuracy_on_B_truth"] == 0.55
    assert 0.5 < result["accuracy_on_B_truth"] < 1.0


def test_conventional_without_ground_truth_reports_only_holdout():
    base = generate_task(TaskSpec(m=6, n=9, d=2, separation=2.0, noise_sigma=1.0, seed=4))
    task = Task(trusted=base.trusted, pool=base.pool, ground_truth=None)
    result = conventional_pipeline(task, "onenn")
    assert result["accuracy_on_B_truth"] is None
    assert result["mu_on_A_holdout"] is not None


@pytest.mark.parametrize("field", ["m", "n", "d", "seed"])
@pytest.mark.parametrize("value", [4.0, True, "4"])
def test_spec_refuses_integer_fields_that_are_not_integers(field, value):
    fields = dict(m=4, n=6, d=2, separation=1.0, noise_sigma=1.0, seed=0)
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        TaskSpec(**{**fields, field: value})


# --- self-training ----------------------------------------------------------

def test_self_training_rejects_bad_parameters():
    task = generate_task(TaskSpec(m=4, n=6, d=2, separation=2.0, noise_sigma=1.0, seed=0))
    with pytest.raises(ValueError):
        self_training_baseline(task, "centroid", confidence_quantile=0.5, max_rounds=0)
    with pytest.raises(ValueError):
        self_training_baseline(task, "centroid", confidence_quantile=0.0)
    with pytest.raises(ValueError):
        self_training_baseline(task, "centroid", confidence_quantile=1.5)


def test_self_training_one_shot_labels_everything():
    task = generate_task(TaskSpec(m=6, n=10, d=2, separation=2.0, noise_sigma=1.0, seed=9))
    result = self_training_baseline(task, "centroid", confidence_quantile=1.0, max_rounds=1)
    assert result["rounds"] == 1
    assert result["labeled_fraction_per_round"] == [1.0]
    assert len(result["induced_labels_B"]) == task.n
    assert set(result["induced_labels_B"]) <= {0, 1}


def test_self_training_separable_task_reaches_zero():
    task = generate_task(TaskSpec(m=8, n=24, d=2, separation=12.0, noise_sigma=1.0, seed=14))
    for kind in ("centroid", "onenn"):
        result = self_training_baseline(task, kind, confidence_quantile=0.4, max_rounds=12)
        assert result["final_mu"] == 0.0


def test_self_training_fractions_grow_to_one():
    task = generate_task(TaskSpec(m=6, n=17, d=2, separation=1.0, noise_sigma=1.0, seed=3))
    result = self_training_baseline(task, "centroid", confidence_quantile=0.3, max_rounds=50)
    fracs = result["labeled_fraction_per_round"]
    assert all(b > a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == 1.0


def test_joint_report_exhaustive_dominates_everything():
    # the searched optimum can never sit above the ground-truth labeling
    # or the labeling induced by self-training
    task = generate_task(TaskSpec(m=8, n=12, d=2, separation=1.0, noise_sigma=1.0, seed=3))
    for kind in ("centroid", "onenn"):
        best = exhaustive_search(task, kind)
        st = self_training_baseline(task, kind, confidence_quantile=0.5, max_rounds=10)
        for labels in (task.ground_truth, np.asarray(st["induced_labels_B"], dtype=np.int8)):
            state = fit(task.pool, labels, kind)
            mu = evaluate_mu(predict(state, task.trusted), task.trusted)
            assert best.best_mu <= mu


# --- scaling experiment -----------------------------------------------------

def test_slope_fit_recovers_exact_lines():
    ns = list(range(5, 15))
    values = [0.003 * 2.0**n for n in ns]
    slope, stderr = fit_log2_slope(ns, values)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-9)
    half, _ = fit_log2_slope(ns, [2.0 ** (0.5 * n) for n in ns])
    assert half == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        fit_log2_slope([3], [1.0])


def test_scaling_experiment_rows_and_determinism():
    template = TaskSpec(m=5, n=10, d=2, separation=1.5, noise_sigma=1.0, seed=20)
    first = scaling_experiment(range(6, 11), template, "centroid", workers=1)
    second = scaling_experiment(range(6, 11), template, "centroid", workers=1)
    assert [r.n for r in first.rows] == [6, 7, 8, 9, 10]
    assert [r.evaluations for r in first.rows] == [64, 128, 256, 512, 1024]
    # wall-clock fields aside, reruns are identical
    assert [r.best_mu for r in first.rows] == [r.best_mu for r in second.rows]
    assert [r.argmin_words for r in first.rows] == [r.argmin_words for r in second.rows]
    assert first.workers == 1


def test_scaling_mean_eval_time_is_stable():
    template = TaskSpec(m=6, n=12, d=2, separation=1.0, noise_sigma=1.0, seed=30)
    report = scaling_experiment(range(8, 13), template, "centroid", workers=1)
    times = np.array([r.mean_eval_time for r in report.rows])
    assert times.std() / times.mean() < 0.5


def test_scaling_report_serializations():
    template = TaskSpec(m=4, n=8, d=1, separation=2.0, noise_sigma=1.0, seed=40)
    report = scaling_experiment([6, 7, 8], template, "onenn", workers=1)
    csv_text = scaling_report_csv(report)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "n,evaluations,best_mu,total_time,mean_eval_time"
    assert len(lines) == 4
    import json

    doc = json.loads(scaling_report_json(report, template, "onenn"))
    assert set(doc) >= {"spec", "results", "slope"}
    assert [row["n"] for row in doc["results"]] == [6, 7, 8]
    assert doc["spec"]["learner"] == "onenn"


@pytest.mark.parametrize("name, call", [
    ("max_rounds", lambda task, template: self_training_baseline(task, max_rounds=2.5)),
    ("max_rounds", lambda task, template: self_training_baseline(task, max_rounds=True)),
    ("n", lambda task, template: scaling_experiment([4, 5.5], template)),
    ("workers", lambda task, template: scaling_experiment([4], template, workers=2.7)),
    ("cap", lambda task, template: scaling_experiment([4], template, cap=10.5)),
])
def test_harness_refuses_count_parameters_that_are_not_integers(name, call):
    template = TaskSpec(m=4, n=6, d=2, separation=1.0, noise_sigma=1.0, seed=0)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(generate_task(template), template)


def test_scaling_rejects_oversized_n():
    template = TaskSpec(m=4, n=8, d=1, separation=2.0, noise_sigma=1.0, seed=1)
    with pytest.raises(ValueError, match="cap"):
        scaling_experiment([4, 30], template, "centroid", workers=1)
