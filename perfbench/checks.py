"""Output checks: every operation the benchmark times is checked here
against the references in ``reference.py``, and counted."""

from __future__ import annotations

import numpy as np

from reference import ARGMIN_CAP, Optimum, make_reference

#: Largest n whose centroid optimum the reference enumerates.
ENUMERATION_CAP = 20


class Checker:
    """Counts operations attempted and failed; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._refs: dict = {}
        self._optima: dict = {}

    def reference(self, task, learner: str):
        key = (id(task), learner)
        if key not in self._refs:
            self._refs[key] = (task, make_reference(task, learner))
        return self._refs[key][1]

    def optimum(self, task, learner: str) -> Optimum | None:
        """The task's exact optimum, or None where only a 2**n refit could
        find it and n is past ``ENUMERATION_CAP``."""
        key = (id(task), learner)
        if key not in self._optima:
            ref = self.reference(task, learner)
            enumerable = learner == "onenn" or task.n <= ENUMERATION_CAP
            self._optima[key] = ref.optimum() if enumerable else None
        return self._optima[key]

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def fail(self, what: str, exc: BaseException) -> None:
        self.record(what, [f"raised {type(exc).__name__}: {exc}"])

    def condition(self, what: str, ok: bool, message: str) -> bool:
        """Record a check on a derived result, such as the fitted slope."""
        return self.record(what, [] if ok else [message])


def summary(outcome) -> dict:
    """The parts of a SearchOutcome that must not depend on how it was run."""
    return {
        "best_mu": outcome.best_mu,
        "words": [lab.bits for lab in outcome.argmin_labelings],
        "count": outcome.argmin_count,
        "evaluations": outcome.evaluations,
    }


def exhaustive_problems(result: dict, task, optimum: Optimum) -> list[str]:
    problems = []
    if result["evaluations"] != 1 << task.n:
        problems.append(f"evaluations {result['evaluations']} != 2**{task.n}")
    if result["best_mu"] != optimum.errors / task.m:
        problems.append(f"best_mu {result['best_mu']} != {optimum.errors}/{task.m}")
    if result["count"] != optimum.count:
        problems.append(f"argmin_count {result['count']} != {optimum.count}")
    if tuple(result["words"]) != optimum.words[:ARGMIN_CAP]:
        problems.append("argmin words differ from the reference's smallest optima")
    return problems


def heuristic_problems(result: dict, task, ref, budget: int, optimum: Optimum | None) -> list[str]:
    """A heuristic may not beat a known optimum, and each word it lists
    must rescore to its best."""
    problems = []
    errors = round(result["best_mu"] * task.m)
    if result["best_mu"] != errors / task.m:
        problems.append(f"best_mu {result['best_mu']} is off the k/m grid")
    if not 1 <= result["evaluations"] <= budget:
        problems.append(f"evaluations {result['evaluations']} outside [1, {budget}]")
    words = result["words"]
    if not 1 <= len(words) <= min(ARGMIN_CAP, result["count"]):
        problems.append(f"{len(words)} argmin words for argmin_count {result['count']}")
    if words != sorted(set(words)):
        problems.append("argmin words are not distinct and ascending")
    if optimum is not None and errors < optimum.errors:
        problems.append(f"best error {errors} undercuts the optimum {optimum.errors}")
    if words:
        rescored = ref.errors(np.array(words, dtype=np.uint64))
        if np.any(rescored != errors):
            problems.append(f"argmin words rescore to {sorted(set(rescored.tolist()))}, not {errors}")
    return problems


def chance_hit_problems(result: dict, task, ref, optimum: Optimum, trials: int, rng_seed: int) -> list[str]:
    """Checks every field, recounting the hits from the same uniform draw
    that ``chance_hit_experiment`` documents (default_rng(seed))."""
    n = task.n
    words = np.random.default_rng(rng_seed).integers(0, 1 << n, size=trials, dtype=np.uint64)
    hits = int(np.count_nonzero(ref.errors(words) == optimum.errors))
    expected = {
        "k_opt": optimum.count,
        "empirical_rate": hits / trials,
        "predicted_rate": optimum.count / (1 << n),
        "best_mu": optimum.errors / task.m,
        "trials": trials,
        "n": n,
    }
    return [f"{key} {result.get(key)!r} != {value!r}" for key, value in expected.items() if result.get(key) != value]
