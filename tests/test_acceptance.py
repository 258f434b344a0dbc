"""Acceptance gate: every project-level criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criteria 1 and 2 time full scaling runs and assume
an unloaded 8-core machine; criterion 2's wall-clock reduction cannot
physically pass on fewer cores (the line reports the installed count).
"""

import math
import os
import time

import numpy as np
import pytest

from labelsearch import (
    HeuristicConfig,
    Labeling,
    SpeedupRegime,
    Task,
    TaskSpec,
    TrustedSet,
    UnlabeledPool,
    chance_hit_experiment,
    classical_runtime,
    error_counts_for_words,
    exhaustive_search,
    fit,
    generate_task,
    grover_queries,
    heuristic_search,
    predict,
    regime_runtime,
    scaling_experiment,
    scaling_table,
)
from labelsearch.learners import _make_evaluator, centroid_predictions, nearest_pool_index
from labelsearch.search import ARGMIN_CAP

from conftest import ruler_walk
from oracles import inverse_gray, naive_best, ols_slope, pack_word


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


_SCALING_NS = range(12, 21)
_SCALING_TEMPLATE = TaskSpec(m=8, n=20, d=2, separation=2.0, noise_sigma=1.0, seed=101)


@pytest.fixture(scope="module")
def scaling_runs():
    start = time.perf_counter()
    one = scaling_experiment(_SCALING_NS, _SCALING_TEMPLATE, "centroid", workers=1)
    wall_one = time.perf_counter() - start
    start = time.perf_counter()
    eight = scaling_experiment(_SCALING_NS, _SCALING_TEMPLATE, "centroid", workers=8)
    wall_eight = time.perf_counter() - start
    return one, wall_one, eight, wall_eight


def test_criterion_1_exponential_scaling(scaling_runs):
    one, wall_one, _, _ = scaling_runs
    ok = 0.85 <= one.fitted_slope <= 1.15 and wall_one < 300.0
    _report(
        1,
        "exhaustive sweep doubles per pool item (1 worker)",
        ok,
        f"slope={one.fitted_slope:.4f} (stderr {one.slope_stderr:.4f}), wall={wall_one:.1f}s < 300s",
    )


def test_criterion_2_speedup_is_multiplicative(scaling_runs):
    one, _, eight, _ = scaling_runs
    ratio = eight.fitted_slope / one.fitted_slope
    total_one = sum(r.elapsed for r in one.rows)
    total_eight = sum(r.elapsed for r in eight.rows)
    reduction = total_one / total_eight
    identical = all(
        a.best_mu == b.best_mu and a.argmin_words == b.argmin_words and a.argmin_count == b.argmin_count
        for a, b in zip(one.rows, eight.rows)
    )
    ok = 0.85 <= ratio <= 1.15 and reduction >= 4.0 and identical
    _report(
        2,
        "8 workers rescale the curve without bending it",
        ok,
        f"slope ratio={ratio:.4f}, wall-clock reduction={reduction:.2f}x (need >= 4x, "
        f"os.cpu_count()={os.cpu_count()}), identical outcomes={identical}",
    )


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    mismatches = 0
    for trial in range(200):
        kind = "centroid" if trial % 2 == 0 else "onenn"
        task = generate_task(
            TaskSpec(
                m=int(rng.integers(1, 11)),
                n=int(rng.integers(4, 13)),
                d=int(rng.integers(1, 4)),
                separation=float(rng.uniform(0.0, 4.0)),
                noise_sigma=1.0,
                seed=int(rng.integers(0, 2**31)),
            )
        )
        fast = exhaustive_search(task, kind, workers=1)
        best, words = naive_best(task, kind)
        same = (
            fast.best_mu == best / task.m
            and fast.argmin_count == len(words)
            and list(fast.argmin_words) == words[:ARGMIN_CAP]
        )
        mismatches += not same
    _report(
        3,
        "Gray+incremental sweep equals refit-per-labeling brute force",
        mismatches == 0,
        f"200 random tasks (n <= 12, both learners), mismatches={mismatches}",
    )


def _anchored_unique_optimum_task(n: int, offset: float) -> Task:
    # one trusted point glued to each pool item, alternating labels:
    # under one-NN exactly one labeling word scores zero error
    pool = UnlabeledPool((10.0 * np.arange(n))[:, None])
    trusted = TrustedSet(
        (10.0 * np.arange(n) + offset)[:, None],
        np.arange(n, dtype=np.int8) % 2,
    )
    return Task(trusted=trusted, pool=pool)


def test_criterion_4_chance_hit_probability():
    cases = []
    for i in range(4):
        cases.append((_anchored_unique_optimum_task(10, 0.1 + 0.05 * i), "onenn"))
    rng = np.random.default_rng(44)
    for i in range(16):
        spec = TaskSpec(
            m=int(rng.integers(4, 17)),
            n=10,
            d=2,
            separation=float(rng.uniform(0.5, 3.0)),
            noise_sigma=1.0,
            seed=int(rng.integers(0, 2**31)),
        )
        cases.append((generate_task(spec), "centroid"))

    trials = 100_000
    failures = []
    k_opts = []
    for idx, (task, kind) in enumerate(cases):
        result = chance_hit_experiment(task, trials=trials, rng_seed=1000 + idx, learner_kind=kind)
        p = result["predicted_rate"]
        k_opts.append(result["k_opt"])
        bound = 3.0 * math.sqrt(p * (1.0 - p) / trials)
        if abs(result["empirical_rate"] - p) > bound:
            failures.append((idx, result["empirical_rate"], p, bound))
    unique = sum(1 for k in k_opts if k == 1)
    _report(
        4,
        "uniform-guess hit rate matches k_opt / 2^n within 3 sigma",
        not failures,
        f"20 tasks at n=10 ({unique} with a unique optimum), 1e5 draws each, "
        f"violations={failures or 0}",
    )


def test_criterion_5_dominance_invariants():
    rng = np.random.default_rng(55)
    heuristics = ["random", "greedy-flip", "anneal"]
    violations = 0
    for run in range(500):
        kind = "centroid" if run % 2 == 0 else "onenn"
        task = generate_task(
            TaskSpec(
                m=int(rng.integers(2, 11)),
                n=int(rng.integers(4, 11)),
                d=int(rng.integers(1, 4)),
                separation=float(rng.uniform(0.0, 4.0)),
                noise_sigma=1.0,
                seed=int(rng.integers(0, 2**31)),
            )
        )
        exact = exhaustive_search(task, kind, workers=1)
        config = HeuristicConfig(
            kind=heuristics[run % 3],
            budget=int(rng.integers(1, 200)),
            restarts=int(rng.integers(1, 4)),
            rng_seed=int(rng.integers(0, 2**31)),
        )
        approx = heuristic_search(task, kind, config)
        if approx.best_mu < exact.best_mu:
            violations += 1
        truth_errors = int(error_counts_for_words(task, [pack_word(task.ground_truth)], kind)[0])
        if exact.best_mu > truth_errors / task.m:
            violations += 1
    _report(
        5,
        "heuristics never beat the sweep; the sweep never loses to ground truth",
        violations == 0,
        f"500 seeded runs across both learners and all heuristics, violations={violations}",
    )


def test_criterion_6_incremental_refit_equivalence():
    rng = np.random.default_rng(66)
    sequences = 10_000
    per_task = 25
    pred_mismatches = 0
    error_mismatches = 0
    worst_rel = 0.0
    for block in range(sequences // per_task):
        kind = "centroid" if block % 2 == 0 else "onenn"
        task = generate_task(
            TaskSpec(
                m=int(rng.integers(1, 10)),
                n=int(rng.integers(2, 17)),
                d=int(rng.integers(1, 4)),
                separation=float(rng.uniform(0.0, 4.0)),
                noise_sigma=1.0,
                seed=int(rng.integers(0, 2**31)),
            )
        )
        n = task.n
        ax, ay = task.trusted.x, task.trusted.y
        evaluator = _make_evaluator(kind, task.pool.x, ax, ay)
        nn = nearest_pool_index(task.pool.x, ax)
        for _ in range(per_task):
            word = int(rng.integers(0, 1 << n))
            evaluator.reset(word)
            for _ in range(int(rng.integers(1, 2 * n + 1))):
                i = int(rng.integers(0, n))
                evaluator.flip(i)
                word ^= 1 << i
            fresh = fit(task.pool, Labeling(word, n), kind)
            expected = predict(fresh, task.trusted)
            if kind == "centroid":
                sums = np.array(evaluator.sums)
                got = centroid_predictions(sums, evaluator.counts, ax)
            else:
                got = Labeling(evaluator.word, n).labels()[nn]
            if not np.array_equal(got, expected):
                pred_mismatches += 1
            if evaluator.errors() != int(np.count_nonzero(expected != ay)):
                error_mismatches += 1
            if kind == "centroid":
                for cls in (0, 1):
                    count = fresh.class_counts[cls]
                    if count == 0:
                        continue
                    inc = sums[cls] / count
                    ref = fresh.class_sums[cls] / count
                    denom = np.maximum(np.abs(ref), 1e-300)
                    worst_rel = max(worst_rel, float(np.max(np.abs(inc - ref) / denom)))
    ok = pred_mismatches == 0 and error_mismatches == 0 and worst_rel <= 1e-9
    _report(
        6,
        "flip-updated states equal refits",
        ok,
        f"{sequences} flip sequences (n <= 16): prediction mismatches={pred_mismatches}, "
        f"error-count mismatches={error_mismatches}, "
        f"worst centroid relative deviation={worst_rel:.3g} <= 1e-9",
    )


def test_criterion_7_cost_model_exactness():
    worst = 0.0
    t_c = 0.003
    for n in range(0, 64):
        worst = max(worst, abs(classical_runtime(n, t_c) - math.ldexp(t_c, n)) / math.ldexp(t_c, n))
        worst = max(worst, abs(grover_queries(n) - math.sqrt(2**n)) / math.sqrt(2**n))
        for beta in (0.25, 0.5, 1.0):
            got = regime_runtime(n, t_c, SpeedupRegime.exponential(beta))
            want = math.exp((1.0 - beta) * n * math.log(2.0)) * t_c
            worst = max(worst, abs(got - want) / want)
        if n >= 1:
            got = regime_runtime(n, t_c, SpeedupRegime.polynomial(2.0))
            want = math.ldexp(t_c, n) / n**2
            worst = max(worst, abs(got - want) / want)
        got = regime_runtime(n, t_c, SpeedupRegime.constant(4.0))
        worst = max(worst, abs(got - math.ldexp(t_c, n) / 4.0) / (math.ldexp(t_c, n) / 4.0))

    regimes = [SpeedupRegime.constant(4.0), SpeedupRegime.polynomial(2.0), SpeedupRegime.exponential(0.25)]
    rows = scaling_table(range(1, 41), t_c, regimes)
    ns = [r["n"] for r in rows]
    slope_errs = [
        abs(ols_slope(ns, [math.log2(r["T_classical"]) for r in rows]) - 1.0),
        abs(ols_slope(ns, [math.log2(r["T_const"]) for r in rows]) - 1.0),
        abs(ols_slope(ns, [math.log2(r["T_exp"]) for r in rows]) - 0.75),
        abs(ols_slope(ns, [math.log2(r["grover_queries"]) for r in rows]) - 0.5),
    ]
    ratio_err = max(
        abs(b["T_poly"] / a["T_poly"] - 2.0 * (a["n"] / b["n"]) ** 2.0)
        / (2.0 * (a["n"] / b["n"]) ** 2.0)
        for a, b in zip(rows, rows[1:])
    )
    ok = worst <= 1e-9 and max(slope_errs) <= 1e-9 and ratio_err <= 1e-9
    _report(
        7,
        "analytic runtimes match closed forms and slope laws",
        ok,
        f"n in 0..63: worst closed-form rel err={worst:.3g}; slope errs={max(slope_errs):.3g}; "
        f"polynomial doubling-ratio err={ratio_err:.3g} (all <= 1e-9)",
    )


def test_criterion_8_gray_code_properties():
    # the ruler the exhaustive sweep runs, walked from word 0 at every step
    problems = []
    for n in range(1, 21):
        flips, words = ruler_walk(n)
        steps = np.arange(1 << n, dtype=np.uint64)
        if words[0] != 0 or np.unique(words).size != 1 << n:
            problems.append(f"n={n}: not a bijection from zero")
        moved = words[1:] ^ words[:-1]
        if flips.max() >= n or np.any(moved & (moved - np.uint64(1))) or not np.all(moved):
            problems.append(f"n={n}: a step that is not a single in-range bit")
        if not np.array_equal(words, steps ^ (steps >> np.uint64(1))):
            problems.append(f"n={n}: word after step s is not s ^ (s >> 1)")
        if not np.array_equal(inverse_gray(words, n), steps):
            problems.append(f"n={n}: not invertible")
    _report(
        8,
        "the sweep's Gray ruler hits every word once, one bit at a time",
        not problems,
        f"joined _gray_flip_blocks(n) checked at every step for n in 1..20; problems={problems or 0}",
    )
