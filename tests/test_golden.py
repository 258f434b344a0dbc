"""Golden outputs: the CLI's results on committed task files.

Each command below runs through ``cli.main`` on the grid task files in
``tests/data`` and its result, without timing fields and output paths,
must equal the entry recorded in ``tests/data/golden.json``.  A change
that is meant to keep every result the same passes this test unchanged;
a change that is meant to alter a result regenerates the file with
``golden_results`` and says why.
"""

import contextlib
import io
import json
import os

from labelsearch.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden.json")
TASKS = ("task_m1_n6_d1", "task_m5_n7_d3", "task_m16_n9_d4", "task_m8_n10_d2")

_TIMING = ("elapsed_s", "mean_eval_time_s")
_PATHS = ("task", "out")


def _task_commands(task: str) -> dict:
    """Name and CLI arguments of each command run on one task file."""
    commands = {}
    for learner in ("centroid", "onenn"):
        common = ["--task", task, "--learner", learner]
        for workers in (1, 2):
            commands[f"{learner}/search exhaustive w{workers}"] = (
                ["search", "exhaustive", *common, "--workers", str(workers)])
        for mode, extra in (("random", ["--budget", "300"]),
                            ("greedy", ["--budget", "300", "--restarts", "3"]),
                            ("anneal", ["--budget", "300", "--restarts", "2", "--t0", "2.0"])):
            commands[f"{learner}/search {mode}"] = (
                ["search", mode, *common, "--workers", "1", "--seed", "5", *extra])
        commands[f"{learner}/chance-hit"] = ["chance-hit", *common, "--trials", "2000", "--seed", "7"]
        commands[f"{learner}/baseline conventional"] = ["baseline", "conventional", *common]
        commands[f"{learner}/baseline selftrain"] = (
            ["baseline", "selftrain", *common, "--quantile", "0.4", "--max-rounds", "4"])
    return commands


def _stripped(doc: dict) -> dict:
    doc = {k: v for k, v in doc.items() if k not in _TIMING}
    doc["config"] = {k: v for k, v in doc["config"].items() if k not in _PATHS}
    return doc


def golden_results(tmp_dir) -> dict:
    """Every command's result, keyed by task file and command."""
    out = os.path.join(str(tmp_dir), "result")
    results = {}
    for name in TASKS:
        task = os.path.join(DATA, name + ".json")
        for key, argv in _task_commands(task).items():
            assert main([*argv, "--out", out]) == 0, (name, key)
            with open(out, encoding="utf-8") as fh:
                results[f"{name}/{key}"] = _stripped(json.load(fh))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["cost-model", "table", "--n", "1:12", "--tc-ms", "0.5",
                     "--regimes", "const:4,poly:2,exp:0.5", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        results["cost-model table"] = {"csv": fh.read(), "stdout": printed.getvalue()}
    assert main(["cost-model", "ledger", "--label", "3", "--curate", "1.5", "--compute", "0.25",
                 "--latency", "2", "--risk", "0.5", "--quality", "0.8", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        results["cost-model ledger"] = _stripped(json.load(fh))
    return results


def test_cli_results_match_the_golden_file(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    results = json.loads(json.dumps(golden_results(tmp_path)))
    assert sorted(results) == sorted(golden)
    for key in golden:
        assert results[key] == golden[key], key
