#!/usr/bin/env python3
"""Pit the label search against honest baselines on one synthetic task.

Reports, for the same task and learner:
  * the conventional direction (train on the trusted set, score against
    the pool's true labels, plus trusted-holdout error),
  * iterative self-training from the trusted fit half,
  * the exhaustive search optimum over all pool labelings,
  * the trusted-set error of the ground-truth and self-training-induced
    labelings (the exhaustive optimum can never sit above either).

Example:
    python3 scripts/compare_baselines.py --n 14 --sep 1.0 --seed 5
"""

import argparse

import numpy as np

from labelsearch import (
    TaskSpec,
    conventional_pipeline,
    evaluate_mu,
    exhaustive_search,
    fit,
    generate_task,
    predict,
    self_training_baseline,
)
from labelsearch.learners import CENTROID, KINDS


def labeling_mu(task, labels, learner):
    state = fit(task.pool, np.asarray(labels, dtype=np.int8), learner)
    return evaluate_mu(predict(state, task.trusted), task.trusted)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=8)
    ap.add_argument("--n", type=int, default=14)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--sep", type=float, default=1.0)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--learner", choices=KINDS, default=CENTROID)
    ap.add_argument("--quantile", type=float, default=0.5)
    ap.add_argument("--max-rounds", type=int, default=10)
    args = ap.parse_args()

    spec = TaskSpec(m=args.m, n=args.n, d=args.d, separation=args.sep,
                    noise_sigma=args.sigma, seed=args.seed)
    task = generate_task(spec)
    print(f"task: m={task.m} n={task.n} d={task.d} sep={args.sep} seed={args.seed}\n")

    conv = conventional_pipeline(task, args.learner)
    print(f"conventional: accuracy on pool truth = {conv['accuracy_on_B_truth']:.4f}, "
          f"trusted-holdout error = {conv['mu_on_A_holdout']}")

    st = self_training_baseline(task, args.learner, args.quantile, args.max_rounds)
    print(f"self-training: holdout error = {st['final_mu']} after {st['rounds']} rounds "
          f"(labeled fractions {['%.2f' % f for f in st['labeled_fraction_per_round']]})")

    best = exhaustive_search(task, args.learner)
    print(f"exhaustive: best trusted-set error = {best.best_mu:.4f} "
          f"over {best.evaluations} labelings ({best.argmin_count} optima, "
          f"{best.elapsed:.2f}s)")

    gt_mu = labeling_mu(task, task.ground_truth, args.learner)
    st_mu = labeling_mu(task, st["induced_labels_B"], args.learner)
    print(f"\ntrusted-set error of ground-truth labeling:   {gt_mu:.4f}")
    print(f"trusted-set error of self-training labeling:  {st_mu:.4f}")
    ok = best.best_mu <= min(gt_mu, st_mu)
    print(f"exhaustive optimum dominates both: {ok}")


if __name__ == "__main__":
    main()
