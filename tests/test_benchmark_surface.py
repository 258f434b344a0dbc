"""Guard for the calls the benchmark in ``perfbench/`` makes into the library.

``perfbench/workloads.probe_common`` drives the executor path of
``exhaustive_search``, ``argmin_labelings[i].bits``, batch scoring and
the three learner kernels the benchmark times, and checks every result
against the benchmark's own references.  Running it here makes a change
that drops or breaks one of those calls fail the tests, not only the
benchmark.
"""

import multiprocessing
import os

import pytest

from labelsearch.harness import generate_task

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("learner, separation", [("centroid", 1.0), ("onenn", 4.0)])
def test_benchmark_probe_runs_clean(learner, separation, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    from checks import Checker
    from measure import NullTracer

    spec = workloads.task_spec(8, 10, separation, seed=7)
    checker = Checker()
    workloads.probe_common(NullTracer(), checker, generate_task(spec), spec, learner, str(tmp_path), 2)
    assert checker.attempted > 0
    assert checker.failed == 0, checker.messages
    assert multiprocessing.active_children() == []
