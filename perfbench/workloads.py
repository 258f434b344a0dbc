"""The benchmark's three workloads and the per-layer probes.

``sweep-centroid`` and ``sweep-onenn`` run ``exhaustive_search`` over a
ladder of pool sizes, each rung at 1 worker and at all cores with a
process pool per call, as ``labelsearch search exhaustive`` does.
``heuristics`` runs rounds of the budgeted searchers and chance-hit on
pools past the exhaustive cap, part of them through ``cli.main``.

Every call into a layer goes through a tracer span named after the
layer's public function; with tracing off the spans record nothing.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import NamedTuple

import numpy as np

from labelsearch import cli
from labelsearch.core import Task, load_task, save_task
from labelsearch.harness import TaskSpec, fit_log2_slope, generate_task
from labelsearch.learners import centroid_predictions, class_sums_and_counts, nearest_pool_index
from labelsearch.search import (
    HeuristicConfig,
    chance_hit_experiment,
    error_counts_for_words,
    exhaustive_search,
    heuristic_search,
)

from checks import Checker, chance_hit_problems, exhaustive_problems, heuristic_problems, summary
from measure import NullTracer, Op, Timer, calibration_block, median
from reference import CentroidReference, nearest_index, word_bits

LEARNERS = ("centroid", "onenn")
HEURISTIC_KINDS = ("random", "greedy-flip", "anneal")

#: Bounds of the criterion-1 slope check.
SLOPE_RANGE = (0.85, 1.15)

#: Heuristic evaluation budgets per round, sized on the reference host so
#: that no call kind takes more than half of a round.
ROUND_BUDGETS = {
    "random": {"centroid": 50_000, "onenn": 200_000},
    "greedy-flip": {"centroid": 2_500, "onenn": 20_000},
    "anneal": {"centroid": 2_000, "onenn": 10_000},
}
ROUND_RESTARTS = {"random": 1, "greedy-flip": 1_000, "anneal": 4}
ANNEAL_T0 = 2.0
ANNEAL_DECAY = 0.999
#: Calls of these kinds go through ``cli.main`` and a task file.
CLI_KINDS = {"greedy-flip": "greedy"}
CHANCE_TRIALS = 25_000

#: Smaller budgets for the probes the sweep workloads run off their path.
PROBE_BUDGETS = {
    "random": {"centroid": 8_192, "onenn": 8_192},
    "greedy-flip": {"centroid": 1_000, "onenn": 10_000},
    "anneal": {"centroid": 1_000, "onenn": 10_000},
}


def task_spec(m: int, n: int, separation: float, seed: int) -> TaskSpec:
    return TaskSpec(m=m, n=n, d=2, separation=separation, noise_sigma=1.0, seed=seed)


def workers_used(n: int, workers: int) -> int:
    """Processes ``exhaustive_search`` keeps busy: one job per subcube."""
    if workers == 1:
        return 1
    return min(workers, 1 << min(n, (workers - 1).bit_length()))


def _run_cli(tracer, argv: list[str], out_path: str, **attrs) -> dict:
    with tracer.span("cli.main", **attrs) as rec:
        code = cli.main(argv + ["--out", out_path])
    if code != 0:
        raise RuntimeError(f"cli.main({argv}) exited {code}")
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    rec["elapsed_s"] = doc["elapsed_s"]
    rec["evaluations"] = doc["evaluations"]
    return {
        "best_mu": doc["best_mu"],
        "words": doc["argmin_labelings"],
        "count": doc["argmin_count"],
        "evaluations": doc["evaluations"],
        "elapsed": doc["elapsed_s"],
    }


# --- sweeps ------------------------------------------------------------------

class SweepRecord(NamedTuple):
    """What the per-layer metrics need from one timed sweep."""

    op: Op
    elapsed: float
    mean_eval_time: float
    evaluations: int
    argmin_count: int


class SweepWorkload:
    """Exhaustive sweeps over a ladder of pool sizes for one learner."""

    def __init__(self, learner, m, separation, ladder, seed, workdir, cores):
        self.learner = learner
        self.m = m
        self.separation = separation
        self.ladder = tuple(ladder)
        self.top = self.ladder[-1]
        self.seed = seed
        self.workdir = workdir
        self.cores = cores
        self.tasks: dict[int, Task] = {}
        self.paths: dict[int, str] = {}
        self.records: list[SweepRecord] = []
        self.primary = ("sweep", self.top)

    def spec(self, n: int) -> TaskSpec:
        return task_spec(self.m, n, self.separation, self.seed * 1000 + n)

    def setup(self) -> None:
        for n in self.ladder:
            self.tasks[n] = generate_task(self.spec(n))
            self.paths[n] = os.path.join(self.workdir, f"task-n{n}.json")
            save_task(self.tasks[n], self.paths[n])
        exhaustive_search(self.tasks[self.ladder[0]], self.learner, workers=1)

    def start(self, checker: Checker) -> None:
        for task in self.tasks.values():
            checker.optimum(task, self.learner)

    def close(self) -> None:
        pass

    def run_pass(self, index: int, tracer, timer: Timer, checker: Checker) -> None:
        order = (1, self.cores) if index % 2 == 0 else (self.cores, 1)
        for n in self.ladder:
            task = self.tasks[n]
            results = {}
            for workers in order:
                try:
                    outcome, op = timer.run(
                        lambda: exhaustive_search(task, self.learner, workers=workers),
                        "sweep", n, workers, 1 << n, tracer, "search.exhaustive_search",
                    )
                except Exception as exc:  # counted as a failed operation
                    checker.fail(f"exhaustive {self.learner} n={n} workers={workers}", exc)
                    continue
                self.records.append(SweepRecord(op, outcome.elapsed, outcome.mean_eval_time,
                                                outcome.evaluations, outcome.argmin_count))
                results[workers] = summary(outcome)
            optimum = checker.optimum(task, self.learner)
            for workers, result in results.items():
                problems = exhaustive_problems(result, task, optimum)
                if workers != 1 and 1 in results and result != results[1]:
                    problems.append("all-cores outcome differs from the 1-worker outcome")
                checker.record(f"exhaustive {self.learner} n={n} workers={workers}", problems)

    def slopes(self, timer: Timer) -> dict[int, float]:
        """Fitted log2 slope of the per-rung median corrected wall clock."""
        out = {}
        for workers in sorted({1, self.cores}):
            walls = [median(op.corrected for op in timer.select("sweep", workers, n)) for n in self.ladder]
            out[workers] = fit_log2_slope(self.ladder, walls)[0]
        return out

    def path_metrics(self) -> dict:
        top = [r for r in self.records if r.op.n == self.top]
        one = [r for r in top if r.op.workers == 1]
        many = [r for r in top if r.op.workers == self.cores]
        used = workers_used(self.top, self.cores)
        return {
            "search.busy_ns_per_labeling": median(r.mean_eval_time * 1e9 for r in one),
            "search.parallel_overhead_ms": median(
                (r.elapsed - r.mean_eval_time * r.evaluations / used) * 1e3 for r in many
            ),
            "search.evaluations": float(one[0].evaluations),
            "search.argmin_count": float(one[0].argmin_count),
        }

    def probe(self, tracer, timer: Timer, checker: Checker) -> None:
        top = self.tasks[self.top]
        bottom = self.tasks[self.ladder[0]]
        probe_common(tracer, checker, top, self.spec(self.top), self.learner, self.workdir, self.cores)
        for learner in LEARNERS:
            for kind in HEURISTIC_KINDS:
                config = HeuristicConfig(
                    kind=kind, budget=PROBE_BUDGETS[kind][learner], restarts=ROUND_RESTARTS[kind],
                    initial_temp=ANNEAL_T0, decay=ANNEAL_DECAY, rng_seed=self.seed,
                )
                for _ in range(3):
                    with tracer.span("search.heuristic_search", kind=kind, learner=learner) as rec:
                        outcome = heuristic_search(top, learner, config)
                    rec["evaluations"] = outcome.evaluations
                    checker.record(
                        f"probe {kind} {learner}",
                        heuristic_problems(summary(outcome), top, checker.reference(top, learner),
                                           config.budget, checker.optimum(top, learner)),
                    )
        optimum = checker.optimum(bottom, self.learner)
        for rep in range(3):
            with tracer.span("search.chance_hit_experiment", learner=self.learner):
                result = chance_hit_experiment(bottom, 4096, rng_seed=rep, learner_kind=self.learner)
            checker.record(
                "probe chance-hit",
                chance_hit_problems(result, bottom, checker.reference(bottom, self.learner), optimum, 4096, rep),
            )
            argv = ["search", "exhaustive", "--task", self.paths[self.ladder[0]],
                    "--learner", self.learner, "--workers", "1"]
            result = _run_cli(tracer, argv, os.path.join(self.workdir, "cli-exhaustive.json"), mode="exhaustive")
            checker.record("probe cli exhaustive", exhaustive_problems(result, bottom, optimum))


# --- heuristics --------------------------------------------------------------

@dataclass(frozen=True)
class RoundJob:
    """Everything one heuristics round needs; sent to pool workers as is."""

    task: Task
    task_path: str
    chance_task: Task
    out_dir: str
    rng_seed: int


def heuristic_round(job: RoundJob, tracer=NullTracer()) -> dict:
    """One round: each heuristic kind on both learners, then chance-hit.

    Returns the round's own wall clock and one record per call; the
    records depend only on the job, not on the process that ran it.
    """
    start = time.perf_counter()
    calls = []
    for learner in LEARNERS:
        for kind in HEURISTIC_KINDS:
            budget = ROUND_BUDGETS[kind][learner]
            if kind in CLI_KINDS:
                argv = ["search", CLI_KINDS[kind], "--task", job.task_path, "--learner", learner,
                        "--budget", str(budget), "--restarts", str(ROUND_RESTARTS[kind]),
                        "--t0", str(ANNEAL_T0), "--gamma", str(ANNEAL_DECAY), "--seed", str(job.rng_seed)]
                out_path = os.path.join(job.out_dir, f"{kind}-{learner}.json")
                result = _run_cli(tracer, argv, out_path, mode=CLI_KINDS[kind], kind=kind, learner=learner)
            else:
                config = HeuristicConfig(
                    kind=kind, budget=budget, restarts=ROUND_RESTARTS[kind],
                    initial_temp=ANNEAL_T0, decay=ANNEAL_DECAY, rng_seed=job.rng_seed,
                )
                with tracer.span("search.heuristic_search", kind=kind, learner=learner) as rec:
                    outcome = heuristic_search(job.task, learner, config)
                rec["evaluations"] = outcome.evaluations
                result = summary(outcome) | {"elapsed": outcome.elapsed}
            calls.append({"call": kind, "learner": learner, "budget": budget, **result})
    with tracer.span("search.chance_hit_experiment", learner="onenn"):
        chance = chance_hit_experiment(job.chance_task, CHANCE_TRIALS, rng_seed=job.rng_seed, learner_kind="onenn")
    calls.append({"call": "chance-hit", "learner": "onenn", "result": chance})
    return {"wall": time.perf_counter() - start, "calls": calls}


def calibrated_round(job: RoundJob) -> dict:
    """A round in a pool worker, between two calibration blocks timed in
    the same worker; their mean is returned under ``cal``."""
    before = calibration_block()
    result = heuristic_round(job)
    result["cal"] = (before + calibration_block()) / 2
    return result


def round_labelings(round_result: dict) -> int:
    total = 0
    for call in round_result["calls"]:
        if call["call"] == "chance-hit":
            total += (1 << call["result"]["n"]) + call["result"]["trials"]
        else:
            total += call["evaluations"]
    return total


def round_totals(round_result: dict) -> dict:
    """Round wall clock, and elapsed, evaluations and optima summed over
    the heuristic calls."""
    calls = [c for c in round_result["calls"] if c["call"] != "chance-hit"]
    return {
        "wall": round_result["wall"],
        "elapsed": sum(c["elapsed"] for c in calls),
        "evaluations": sum(c["evaluations"] for c in calls),
        "count": sum(c["count"] for c in calls),
    }


def _strip_elapsed(calls: list[dict]) -> list[dict]:
    return [{k: v for k, v in call.items() if k != "elapsed"} for call in calls]


def _warm_worker(seconds: float) -> None:
    time.sleep(seconds)


class HeuristicsWorkload:
    """Rounds of heuristics and chance-hit at 1 worker, and the same round
    on every core at once through a spawn pool made at start."""

    def __init__(self, seed, workdir, cores):
        self.seed = seed
        self.workdir = workdir
        self.cores = cores
        self.learner = "onenn"  # for the pool start-up probe
        self.pool = None
        self.rounds: list[tuple] = []  # (op, round_totals of each process's round)
        self.first_calls: list[dict] | None = None
        self.primary = ("round", 40)

    def spec(self) -> TaskSpec:
        return task_spec(64, 40, 1.0, self.seed * 1000 + 40)

    def chance_spec(self, n: int = 14) -> TaskSpec:
        return task_spec(8, n, 4.0, self.seed * 1000 + n)

    def job(self, out_dir: str) -> RoundJob:
        os.makedirs(out_dir, exist_ok=True)
        return RoundJob(self.task, self.task_path, self.chance_task, out_dir, self.seed)

    def setup(self) -> None:
        self.task = generate_task(self.spec())
        self.chance_task = generate_task(self.chance_spec())
        self.task_path = os.path.join(self.workdir, "task-n40.json")
        save_task(self.task, self.task_path)
        for learner in LEARNERS:
            heuristic_search(self.task, learner, HeuristicConfig(kind="random", budget=64, rng_seed=self.seed))

    def start(self, checker: Checker) -> None:
        for learner in LEARNERS:
            checker.optimum(self.task, learner)
        checker.optimum(self.chance_task, "onenn")
        self.pool = ProcessPoolExecutor(max_workers=self.cores, mp_context=multiprocessing.get_context("spawn"))
        warm = [self.pool.submit(_warm_worker, 0.5) for _ in range(self.cores)]
        for fut in warm:
            fut.result()
        self.jobs = [self.job(os.path.join(self.workdir, f"worker{w}")) for w in range(self.cores)]
        self.main_job = self.job(os.path.join(self.workdir, "main"))

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
            # The spawn pool started multiprocessing's resource tracker
            # process; once the pool's semaphores are collected, end it so
            # that no process outlives the run.
            gc.collect()
            stop = getattr(resource_tracker._resource_tracker, "_stop", None)
            if stop is not None:
                stop()

    def _fan_out(self) -> list[dict]:
        futures = [self.pool.submit(calibrated_round, job) for job in self.jobs]
        return [fut.result() for fut in futures]

    def check_round(self, checker: Checker, result: dict, where: str) -> None:
        calls = result["calls"]
        if self.first_calls is None:
            self.first_calls = _strip_elapsed(calls)
        same = _strip_elapsed(calls) == self.first_calls
        for call in calls:
            what = f"{where} {call['call']} {call['learner']}"
            if call["call"] == "chance-hit":
                task = self.chance_task
                problems = chance_hit_problems(call["result"], task, checker.reference(task, "onenn"),
                                               checker.optimum(task, "onenn"), CHANCE_TRIALS, self.seed)
            else:
                problems = heuristic_problems(call, self.task, checker.reference(self.task, call["learner"]),
                                              call["budget"], checker.optimum(self.task, call["learner"]))
            if not same:
                problems.append("round differs from the first round with the same seeds")
            checker.record(what, problems)

    def run_pass(self, index: int, tracer, timer: Timer, checker: Checker) -> None:
        order = (1, self.cores) if index % 2 == 0 else (self.cores, 1)
        for workers in order:
            try:
                if workers == 1:
                    result, op = timer.run(
                        lambda: heuristic_round(self.main_job, tracer),
                        "round", 40, 1, round_labelings, tracer, "bench.round",
                    )
                    results = [result]
                else:
                    results, op = timer.run(
                        self._fan_out, "round", 40, workers,
                        lambda rs: sum(round_labelings(r) for r in rs), tracer, "bench.fan_out",
                        cal_of=lambda rs: sum(r["cal"] for r in rs) / len(rs),
                    )
            except Exception as exc:  # counted as a failed operation
                checker.fail(f"round workers={workers}", exc)
                continue
            self.rounds.append((op, [round_totals(r) for r in results]))
            for w, result in enumerate(results):
                self.check_round(checker, result, f"round workers={workers} worker={w}")

    def slopes(self, timer: Timer) -> dict[int, float]:
        ladder = sorted({op.n for op in timer.ops if op.kind == "ladder"})
        if not ladder:  # the ladder runs only as a probe of a traced run
            return {}
        out = {}
        for workers in sorted({1, self.cores}):
            walls = [median(op.corrected for op in timer.select("ladder", workers, n, True)) for n in ladder]
            out[workers] = fit_log2_slope(ladder, walls)[0]
        return out

    def path_metrics(self) -> dict:
        one = [totals[0] for op, totals in self.rounds if op.workers == 1]
        many = [(op, totals) for op, totals in self.rounds if op.workers == self.cores]
        return {
            "search.busy_ns_per_labeling": median(t["elapsed"] / t["evaluations"] * 1e9 for t in one),
            "search.parallel_overhead_ms": median(
                (op.wall - sum(t["wall"] for t in totals) / len(totals)) * 1e3 for op, totals in many
            ),
            "search.evaluations": float(one[0]["evaluations"]),
            "search.argmin_count": float(one[0]["count"]),
        }

    def probe(self, tracer, timer: Timer, checker: Checker) -> None:
        self.close()  # the probes below start their own pools
        probe_common(tracer, checker, self.task, self.spec(), self.learner, self.workdir, self.cores)
        # exhaustive ladder on chance-hit-sized one-NN tasks, for the slopes
        ladder = {n: generate_task(self.chance_spec(n)) for n in range(13, 17)}
        for rep in range(4):
            for n, task in ladder.items():
                optimum = checker.optimum(task, "onenn")
                for workers in ((1, self.cores) if rep % 2 == 0 else (self.cores, 1)):
                    outcome, _ = timer.run(
                        lambda: exhaustive_search(task, "onenn", workers=workers),
                        "ladder", n, workers, 1 << n, tracer, "search.exhaustive_search",
                    )
                    checker.record(f"ladder n={n} workers={workers}", exhaustive_problems(summary(outcome), task, optimum))


# --- probes shared by every workload ------------------------------------------

def probe_common(tracer, checker: Checker, task: Task, spec: TaskSpec, learner: str, workdir: str, cores: int) -> None:
    """Time each layer function once per repeat on the workload's task."""
    path = os.path.join(workdir, "probe-task.json")
    for _ in range(5):
        with tracer.span("harness.generate_task"):
            generate_task(spec)
        with tracer.span("core.save_task"):
            save_task(task, path)
        with tracer.span("core.load_task"):
            loaded = load_task(path)
    same = all(np.array_equal(a, b) for a, b in (
        (loaded.trusted.x, task.trusted.x), (loaded.trusted.y, task.trusted.y), (loaded.pool.x, task.pool.x)))
    checker.record("probe task file round trip", [] if same else ["loaded task differs from the saved one"])

    rng = np.random.default_rng(task.seed)
    word = int(rng.integers(1, (1 << task.n) - 1))
    labels = word_bits([word], task.n)[0].astype(np.int8)
    for _ in range(200):
        with tracer.span("learners.class_sums_and_counts"):
            sums, counts = class_sums_and_counts(task.pool.x, labels)
        with tracer.span("learners.centroid_predictions"):
            pred = centroid_predictions(sums, counts, task.trusted.x)
        with tracer.span("learners.nearest_pool_index"):
            nn = nearest_pool_index(task.pool.x, task.trusted.x)
    problems = []
    errors = int(np.count_nonzero(pred != task.trusted.y))
    expected = int(CentroidReference(task).errors([word])[0])
    if errors != expected:
        problems.append(f"centroid_predictions gives {errors} errors, the reference {expected}")
    if not np.array_equal(nn, nearest_index(task.pool.x, task.trusted.x)):
        problems.append("nearest_pool_index differs from the reference")
    checker.record("probe learners", problems)

    words = rng.integers(0, 1 << task.n, size=8192, dtype=np.uint64)
    for kind in LEARNERS:
        expected = checker.reference(task, kind).errors(words)
        for _ in range(3):
            with tracer.span("search.error_counts_for_words", learner=kind, words=words.size):
                errs = error_counts_for_words(task, words, kind)
            checker.record(f"probe batch {kind}", [] if np.array_equal(errs, expected) else ["batch errors differ"])

    tiny = generate_task(task_spec(8, 6, 1.0, spec.seed))
    optimum = checker.optimum(tiny, learner)
    # a pool per call first, then one reused pool, so that no more than
    # ``cores`` workers exist at once
    for _ in range(6):
        with tracer.span("search.exhaustive_search", n=tiny.n, workers=cores, pool="own"):
            outcome = exhaustive_search(tiny, learner, workers=cores)
        checker.record("probe pool own", exhaustive_problems(summary(outcome), tiny, optimum))
    executor = ProcessPoolExecutor(max_workers=cores)
    try:
        exhaustive_search(tiny, learner, workers=cores, executor=executor)  # starts the workers
        for _ in range(6):
            with tracer.span("search.exhaustive_search", n=tiny.n, workers=cores, pool="reused"):
                outcome = exhaustive_search(tiny, learner, workers=cores, executor=executor)
            checker.record("probe pool reused", exhaustive_problems(summary(outcome), tiny, optimum))
    finally:
        executor.shutdown()


WORKLOADS = ("sweep-centroid", "sweep-onenn", "heuristics")


def make(name: str, seed: int, workdir: str, cores: int):
    if name == "sweep-centroid":
        return SweepWorkload("centroid", 64, 1.0, range(12, 16), seed, workdir, cores)
    if name == "sweep-onenn":
        return SweepWorkload("onenn", 8, 4.0, range(16, 20), seed, workdir, cores)
    if name == "heuristics":
        return HeuristicsWorkload(seed, workdir, cores)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
