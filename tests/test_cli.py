import json
import multiprocessing
import os
import re
import shlex
import signal
import stat
import subprocess
import sys
import textwrap

import pytest

from labelsearch import (
    TaskSpec,
    cli,
    conventional_pipeline,
    evaluate_mu,
    exhaustive_search,
    fit,
    generate_task,
    harness,
    load_task,
    predict,
    scaling_experiment,
    search,
    self_training_baseline,
)
from labelsearch.cli import main
from labelsearch.harness import fit_fixed_cost, fit_log2_slope

from conftest import umask

DATA = os.path.join(os.path.dirname(__file__), "data")


def _gen(tmp_path, name="task.json", n=12, m=8, seed=1, sep=4.0):
    path = tmp_path / name
    rc = main([
        "gen-data", "--m", str(m), "--n", str(n), "--d", "2",
        "--sep", str(sep), "--sigma", "1.0", "--seed", str(seed),
        "--out", str(path),
    ])
    assert rc == 0
    return path


#: Result fields read from the clock, or fitted to it, which reruns do not
#: reproduce.
_TIMING = ("elapsed_s", "mean_eval_time_s", "total_time", "mean_eval_time",
           "slope", "slope_stderr", "fixed_cost_s", "per_labeling_s")


def _strip_timing(doc):
    doc = {k: v for k, v in doc.items() if k not in _TIMING}
    if "results" in doc:  # a scaling result's rows
        doc["results"] = [_strip_timing(row) for row in doc["results"]]
    return doc


def test_gen_data_writes_schema_conformant_file(tmp_path):
    path = _gen(tmp_path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["d", "A", "B", "ground_truth_B", "seed"]
    assert len(doc["A"]) == 8 and len(doc["B"]) == 12
    assert all(set(entry) == {"x", "y"} for entry in doc["A"])


def test_gen_data_is_byte_reproducible(tmp_path):
    a = _gen(tmp_path, "a.json", seed=9)
    b = _gen(tmp_path, "b.json", seed=9)
    assert a.read_bytes() == b.read_bytes()


def test_search_exhaustive_counts_all_labelings(tmp_path):
    task = _gen(tmp_path)
    out = tmp_path / "result.json"
    rc = main([
        "search", "exhaustive", "--task", str(task), "--learner", "centroid",
        "--workers", "2", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["evaluations"] == 2**12
    assert doc["mode"] == "exhaustive"
    assert doc["argmin_count"] >= len(doc["argmin_labelings"]) >= 1


@pytest.mark.parametrize("mode", ["random", "greedy", "anneal"])
def test_heuristic_modes_run_and_reproduce(tmp_path, mode):
    task = _gen(tmp_path, n=10)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["search", mode, "--task", str(task), "--budget", "200", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    d1["config"].pop("out"), d2["config"].pop("out")
    assert _strip_timing(d1) == _strip_timing(d2)
    assert d1["evaluations"] <= 200


def test_search_over_cap_exits_one_naming_cap(tmp_path, capsys):
    task = _gen(tmp_path, n=12)
    out = tmp_path / "never.json"
    rc = main(["search", "exhaustive", "--task", str(task), "--cap", "10", "--out", str(out)])
    assert rc == 1
    assert "cap 10" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob(".tmp*"))  # no partial outputs left behind


@pytest.mark.parametrize("workers", ["0", "-3", "257", "5000"])
def test_bad_worker_counts_exit_one_before_any_process_starts(tmp_path, capsys, monkeypatch, workers):
    task = _gen(tmp_path, n=13)
    starts = []

    def refuse_start(*args, **kwargs):
        starts.append(args)
        raise AssertionError("a process was started")

    # the sweep workers, for search and scaling alike, start through
    # BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse_start)
    out = tmp_path / "never.json"
    rc = main(["search", "exhaustive", "--task", str(task), "--workers", workers, "--out", str(out)])
    assert rc == 1
    assert f"workers must be in [1, {search.MAX_WORKERS}], got {workers}" in capsys.readouterr().err
    rc = main(["scaling", "--n-values", "13", "--workers", workers, "--out", str(out)])
    assert rc == 1
    assert f"workers must be in [1, {search.MAX_WORKERS}], got {workers}" in capsys.readouterr().err
    assert starts == []
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    (["search", "exhaustive"], {"workers": 2.7}, "workers must be an integer, got 2.7"),
    (["search", "exhaustive"], {"workers": "2"}, "workers must be an integer, got '2'"),
    (["search", "exhaustive"], {"cap": 24.5}, "cap must be an integer, got 24.5"),
    (["search", "random"], {"budget": 9.9}, "budget must be an integer, got 9.9"),
    (["search", "greedy"], {"restarts": True}, "restarts must be an integer, got True"),
    (["search", "anneal"], {"seed": 1.5}, "rng_seed must be an integer, got 1.5"),
    (["chance-hit"], {"trials": 1e3}, "trials must be an integer, got 1000.0"),
    (["baseline", "selftrain"], {"max_rounds": 2.5}, "max_rounds must be an integer, got 2.5"),
])
def test_config_counts_that_are_not_integers_exit_one(tmp_path, capsys, command, config, message):
    task = _gen(tmp_path, n=6)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "never.json"
    rc = main([*command, "--task", str(task), "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    (["gen-data", "--out", "{tmp}/task.json"], {"m": 4, "n": 6.0}, "n must be an integer, got 6.0"),
    (["gen-data", "--out", "{tmp}/task.json"], {"m": 4, "n": 6, "seed": "1"}, "seed must be an integer, got '1'"),
    (["scaling", "--n-values", "4:5", "--out", "{tmp}/s.json"], {"m": 3.5}, "m must be an integer, got 3.5"),
    (["scaling", "--n-values", "4:5", "--out", "{tmp}/s.json"], {"workers": 1.0}, "workers must be an integer, got 1.0"),
])
def test_config_task_integers_that_are_not_integers_exit_one(tmp_path, capsys, command, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = main([arg.format(tmp=tmp_path) for arg in command] + ["--config", str(path)])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("task.json")) and not list(tmp_path.glob("s.json"))


@pytest.mark.parametrize("args, message", [
    (["scaling", "--n-values", ",", "--out", "{tmp}/s.json"], "no integers in ','"),
    (["cost-model", "table", "--n", ",,", "--out", "{tmp}/s.csv"], "no integers in ',,'"),
    (["gen-data", "--m", "4", "--n", "6", "--sep", "nan", "--out", "{tmp}/t.json"],
     "separation must be finite, got nan"),
    (["gen-data", "--m", "4", "--n", "6", "--sep", "inf", "--out", "{tmp}/t.json"],
     "separation must be finite, got inf"),
    (["gen-data", "--m", "4", "--n", "6", "--sigma", "inf", "--out", "{tmp}/t.json"],
     "noise_sigma must be finite, got inf"),
    (["scaling", "--n-values", "4:5", "--sep=-inf", "--out", "{tmp}/s.json"],
     "separation must be finite, got -inf"),
    (["cost-model", "ledger", "--label", "inf", "--quality", "1", "--out", "{tmp}/l.json"],
     "ledger component label must be finite, got inf"),
    (["cost-model", "ledger", "--label", "nan", "--out", "{tmp}/l.json"],
     "ledger component label must be finite, got nan"),
    (["cost-model", "ledger", "--label", "nan", "--quality", "nan", "--out", "{tmp}/l.json"],
     "ledger component label must be finite, got nan"),
    (["cost-model", "ledger", "--label", "1", "--quality", "inf", "--out", "{tmp}/l.json"],
     "quality must be finite, got inf"),
    (["cost-model", "table", "--n", "1:4", "--regimes", "poly:inf", "--out", "{tmp}/s.csv"],
     "speedup regime value must be finite, got inf"),
    (["cost-model", "table", "--n", "1:4", "--tc-ms", "nan", "--out", "{tmp}/s.csv"],
     "per-cycle time t_c must be finite, got nan"),
    (["cost-model", "table", "--n", "1100", "--out", "{tmp}/s.csv"],
     "runtime at n=1100 with t_c=0.001 overflows the float range"),
    (["cost-model", "table", "--n", "1:30", "--tc-ms", "1e308", "--out", "{tmp}/s.csv"],
     "runtime at n=11 with t_c=1e+305 overflows the float range"),
    (["cost-model", "table", "--n", "5,5", "--out", "{tmp}/s.csv"], "n_values must be strictly ascending"),
    (["search", "anneal", "--t0", "inf", "--task", "{data}/task_m1_n6_d1.json", "--out", "{tmp}/r.json"],
     "initial_temp must be positive and finite, got inf"),
    (["search", "exhaustive", "--t0", "inf", "--task", "{data}/task_m1_n6_d1.json", "--out", "{tmp}/r.json"],
     "Out of range float values are not JSON compliant"),
    (["cost-model", "table", "--n", "1:30", "--tc-ms", "1e-320", "--out", "{tmp}/s.csv"],
     "runtime at n=1 with t_c=1e-323 underflows the normal float range"),
])
def test_malformed_flag_values_exit_one_with_message(tmp_path, capsys, args, message):
    rc = main([arg.format(tmp=tmp_path, data=DATA) for arg in args])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mask", [0o022, 0o027])
def test_outputs_get_the_mode_open_gives(tmp_path, mask):
    # a new output gets 0o666 less the umask, and a replaced one keeps its mode
    kept = tmp_path / "kept.json"
    kept.write_text("{}")
    kept.chmod(0o604)
    with umask(mask):
        task = _gen(tmp_path)
        for out in (tmp_path / "new.json", kept):
            assert main(["search", "exhaustive", "--task", str(task), "--workers", "1", "--out", str(out)]) == 0
    for path in (task, tmp_path / "new.json"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~mask
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604
    assert json.loads(kept.read_text())["evaluations"] == 2**12


def test_argument_errors_exit_two(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for args in (
        ["search", "exhaustive"],  # missing --task/--out
        ["search", "warp", "--task", "x", "--out", "y"],
        ["no-such-command"],
        # a flag of the other cost-model mode
        ["cost-model", "ledger", "--n", "5", "--label", "1", "--out", "y"],
        ["cost-model", "table", "--n", "1:3", "--label", "1", "--out", "y"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2, args
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["gen-data", "search", "chance-hit", "baseline", "scaling", "cost-model"])
def test_help_lists_every_default(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for (name, _), params in cli._PARAMS.items():
        for param, (_, default, _) in params.items():
            if name == command:
                shown = "required" if default is cli._REQUIRED else f"default: {default}"
                assert f"--{param.replace('_', '-')}" in text and f"({shown})" in text, param


def test_missing_output_directory_names_the_path_asked_for(tmp_path, capsys):
    rc = main(["gen-data", "--m", "2", "--n", "3", "--out", str(tmp_path / "absent" / "t.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "t.json" in err and ".tmp." not in err


def test_missing_task_file_is_a_runtime_refusal(tmp_path, capsys):
    rc = main(["search", "exhaustive", "--task", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "out.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _first_label(value):
    return lambda doc: doc | {"A": [doc["A"][0] | {"y": value}] + doc["A"][1:]}


@pytest.mark.parametrize("edit, message", [
    (lambda doc: 5, "task document must be a JSON object, got int"),
    (lambda doc: [doc], "task document must be a JSON object, got list"),
    (lambda doc: doc | {"A": [{"y": 1}] + doc["A"][1:]}, "field 'A' must be a list of objects"),
    (lambda doc: doc | {"A": [{"x": [0.0, 0.0]}] + doc["A"][1:]}, "field 'A' must be a list of objects"),
    (lambda doc: doc | {"A": 5}, "field 'A' must be a list of objects"),
    (lambda doc: doc | {"B": [[{}, 0.0]] * 6}, "task document coordinates must be numbers"),
    (lambda doc: doc | {"d": "2"}, "d must be an integer, got '2'"),
    (lambda doc: doc | {"d": 2.0}, "d must be an integer, got 2.0"),
    (lambda doc: doc | {"seed": 1.5}, "seed must be an integer, got 1.5"),
    (lambda doc: doc | {"seed": True}, "seed must be an integer, got True"),
    (lambda doc: doc | {"seed": 1e30}, "seed must be an integer, got 1e+30"),
    (_first_label(0.5), "trusted labels must contain only 0/1 values"),
    (_first_label(1.9), "trusted labels must contain only 0/1 values"),
    (_first_label(257), "trusted labels must contain only 0/1 values"),
    (lambda doc: doc | {"ground_truth_B": [1.7] + doc["ground_truth_B"][1:]},
     "ground truth labels must contain only 0/1 values"),
], ids=["number", "list", "entry-without-x", "entry-without-y", "A-not-a-list", "object-coordinate",
        "d-string", "d-float", "seed-fraction", "seed-bool", "seed-1e30",
        "y-0.5", "y-1.9", "y-257", "ground-truth-1.7"])
def test_malformed_task_documents_exit_one_with_message(tmp_path, capsys, edit, message):
    task = _gen(tmp_path, n=6)
    task.write_text(json.dumps(edit(json.loads(task.read_text()))))
    out = tmp_path / "never.json"
    rc = main(["search", "exhaustive", "--task", str(task), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_dead_sweep_worker_exits_one_with_message(tmp_path, capsys, monkeypatch):
    task = _gen(tmp_path, n=10)
    parent = os.getpid()
    real = search._run_sweep_jobs
    monkeypatch.setattr(search, "_run_sweep_jobs",
                        lambda payload: os._exit(9) if os.getpid() != parent else real(payload))
    out = tmp_path / "never.json"
    rc = main(["search", "exhaustive", "--task", str(task), "--workers", "2", "--out", str(out)])
    assert rc == 1
    assert "error: sweep worker 1 failed with exit code 9" in capsys.readouterr().err
    assert not out.exists()


# Every sweep process announces itself, then blocks until interrupted.
_BLOCKED_SWEEP = textwrap.dedent("""
    import os, sys, time
    from labelsearch import cli, search

    def blocked(payload):
        os.write(1, f"{os.getpid()}\\n".encode())  # one write: lines never interleave
        time.sleep(60)

    search._run_sweep_jobs = blocked
    sys.exit(cli.main(sys.argv[1:]))
""")


def test_ctrl_c_exits_one_without_worker_tracebacks(tmp_path):
    task = _gen(tmp_path, n=10)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen(
        [sys.executable, "-c", _BLOCKED_SWEEP, "search", "exhaustive", "--task", str(task),
         "--workers", "3", "--out", str(tmp_path / "never.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,  # a process group of its own, as a terminal gives
    )
    try:
        pids = [int(proc.stdout.readline()) for _ in range(3)]
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 1
    assert "error: interrupted" in err
    assert "Traceback" not in err
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_chance_hit_subcommand(tmp_path):
    task = _gen(tmp_path, n=10)
    out = tmp_path / "chance.json"
    rc = main(["chance-hit", "--task", str(task), "--trials", "2000", "--seed", "4",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["predicted_rate"] == doc["k_opt"] / 2**10
    assert 0.0 <= doc["empirical_rate"] <= 1.0


def test_baseline_subcommands(tmp_path):
    task = _gen(tmp_path, n=14, sep=8.0)
    conv, st = tmp_path / "conv.json", tmp_path / "st.json"
    assert main(["baseline", "conventional", "--task", str(task), "--out", str(conv)]) == 0
    assert main(["baseline", "selftrain", "--task", str(task), "--quantile", "0.5",
                 "--max-rounds", "6", "--out", str(st)]) == 0
    cdoc, sdoc = json.loads(conv.read_text()), json.loads(st.read_text())
    assert cdoc["accuracy_on_B_truth"] == 1.0
    assert sdoc["final_mu"] == 0.0


def test_scaling_subcommand_outputs(tmp_path):
    out = tmp_path / "scal.json"
    rc = main(["scaling", "--n-values", "6:9", "--m", "5", "--seed", "2", "--learner", "onenn",
               "--workers", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["command", "config", "results", "slope", "slope_stderr", "fixed_cost_s", "per_labeling_s"]
    assert doc["command"] == "scaling" and doc["config"]["learner"] == "onenn"
    expected = [exhaustive_search(generate_task(TaskSpec(m=5, n=n, d=2, separation=4.0, noise_sigma=1.0, seed=2 + n)),
                                  "onenn") for n in range(6, 10)]
    assert [(row["n"], row["evaluations"], row["best_mu"], row["argmin_count"]) for row in doc["results"]] == [
        (outcome.n, outcome.evaluations, outcome.best_mu, outcome.argmin_count) for outcome in expected]
    times = [row["total_time"] for row in doc["results"]]
    assert all(time > 0 for time in times)
    assert (doc["slope"], doc["slope_stderr"]) == fit_log2_slope(range(6, 10), times)
    assert (doc["fixed_cost_s"], doc["per_labeling_s"]) == fit_fixed_cost(range(6, 10), times)
    # the CSV and JSON report flags are gone, and the result path is required
    again = str(tmp_path / "again.json")
    for extra in (["--out", again, "--out-csv", again], ["--out", again, "--out-json", again], []):
        with pytest.raises(SystemExit) as exc:
            main(["scaling", "--n-values", "6:9", "--workers", "1", *extra])
        assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("n_values", ["20", "20,20"])
def test_scaling_over_one_distinct_n_exits_one_before_any_sweep(tmp_path, capsys, monkeypatch, n_values):
    def refuse_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(harness, "exhaustive_search", refuse_sweep)
    template = TaskSpec(m=8, n=20, d=2, separation=4.0, noise_sigma=1.0, seed=0)
    with pytest.raises(ValueError, match="^slope fit needs at least two distinct n values$"):
        scaling_experiment([int(n) for n in n_values.split(",")], template)
    out = tmp_path / "never.json"
    assert main(["scaling", "--n-values", n_values, "--out", str(out)]) == 1
    assert "error: slope fit needs at least two distinct n values" in capsys.readouterr().err
    assert not out.exists()


def test_cost_model_table_row_count(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(["cost-model", "table", "--n", "1:24", "--tc-ms", "1",
               "--regimes", "const:4,poly:2,exp:0.5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,T_classical,T_const,T_poly,T_exp,grover_queries"
    assert len(lines) == 25


def test_cost_model_table_prints_column_slopes(tmp_path, capsys):
    rc = main(["cost-model", "table", "--n", "1:30", "--regimes", "const:4,exp:0.5",
               "--out", str(tmp_path / "table.csv")])
    assert rc == 0
    slopes = dict(line.split(": log2 slope = ") for line in capsys.readouterr().out.splitlines())
    # the polynomial column was not requested, so it has no slope line
    assert sorted(slopes) == ["T_classical", "T_const", "T_exp", "grover_queries"]
    assert float(slopes["T_classical"]) == pytest.approx(1.0)
    assert float(slopes["T_const"]) == pytest.approx(1.0)
    assert float(slopes["T_exp"]) == pytest.approx(0.5)
    assert float(slopes["grover_queries"]) == pytest.approx(0.5)


def test_cost_model_table_past_a_float_step(tmp_path):
    # 1000**200 overflows a float on its own; the runtime it divides fits
    out = tmp_path / "table.csv"
    assert main(["cost-model", "table", "--n", "1000:1001", "--regimes", "poly:200", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "1000" and float(row[3]) == pytest.approx(1.0715086071862673e-302, rel=1e-12)


def test_baseline_compare_on_the_readme_task(tmp_path):
    task = _gen(tmp_path, n=14, sep=1.0, seed=5)
    out = tmp_path / "compare.json"
    assert main(["baseline", "compare", "--task", str(task), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["conventional"] == {"mu_on_A_holdout": 0.5, "accuracy_on_B_truth": 11 / 14}
    assert (doc["selftrain"]["final_mu"], doc["selftrain"]["rounds"]) == (0.5, 4)
    assert doc["exhaustive"] == {"best_mu": 0.25, "argmin_count": 2117, "evaluations": 2**14}
    assert doc["labeling_mu"] == {"ground_truth": 0.375, "selftrain": 0.25}
    assert doc["optimum_dominates"] is True


@pytest.mark.parametrize("learner", ["centroid", "onenn"])
def test_baseline_compare_matches_the_library(tmp_path, learner):
    out = tmp_path / "compare.json"
    for name in ("task_m1_n6_d1", "task_m5_n7_d3", "task_m16_n9_d4", "task_m8_n10_d2"):
        path = os.path.join(DATA, name + ".json")
        assert main(["baseline", "compare", "--task", path, "--learner", learner, "--quantile", "0.4",
                     "--max-rounds", "4", "--out", str(out)]) == 0
        task = load_task(path)
        best = exhaustive_search(task, learner)
        selftrain = self_training_baseline(task, learner, 0.4, 4)

        def mu(labels):
            return evaluate_mu(predict(fit(task.pool, labels, learner), task.trusted), task.trusted)

        labeling_mu = {"ground_truth": mu(task.ground_truth), "selftrain": mu(selftrain["induced_labels_B"])}
        assert best.best_mu <= min(labeling_mu.values())
        assert json.loads(out.read_text()) == {
            "command": "baseline",
            "mode": "compare",
            "config": {"learner": learner, "quantile": 0.4, "max_rounds": 4, "task": path, "out": str(out)},
            "conventional": conventional_pipeline(task, learner),
            "selftrain": selftrain,
            "exhaustive": {"best_mu": best.best_mu, "argmin_count": best.argmin_count,
                           "evaluations": best.evaluations},
            "labeling_mu": labeling_mu,
            "optimum_dominates": True,
        }


def test_baseline_compare_without_ground_truth_or_over_the_cap(tmp_path, capsys):
    with open(os.path.join(DATA, "task_m5_n7_d3.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["ground_truth_B"]
    task = tmp_path / "no_truth.json"
    task.write_text(json.dumps(doc))
    out = tmp_path / "compare.json"
    assert main(["baseline", "compare", "--task", str(task), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["conventional"]["accuracy_on_B_truth"] is None
    assert result["labeling_mu"]["ground_truth"] is None
    assert result["exhaustive"]["best_mu"] <= result["labeling_mu"]["selftrain"]
    assert result["optimum_dominates"] is True
    # a pool over the exhaustive cap is refused and writes nothing
    big = _gen(tmp_path, "big.json", n=search.DEFAULT_EXHAUSTIVE_CAP + 1)
    never = tmp_path / "never.json"
    assert main(["baseline", "compare", "--task", str(big), "--out", str(never)]) == 1
    assert f"exceeds cap {search.DEFAULT_EXHAUSTIVE_CAP}" in capsys.readouterr().err
    assert not never.exists()
    assert not list(tmp_path.glob(".tmp*"))


def test_readme_commands_parse():
    """Every ``labelsearch`` line of the README's bash blocks names flags,
    modes and values that the CLI takes."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```bash\n(.*?)```", fh.read(), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("labelsearch ")]
    assert {line.split()[1] for line in lines} == set(cli._HANDLERS)  # every subcommand is shown
    parser = cli.build_parser()
    for line in lines:
        try:
            cli._resolve(parser, parser.parse_args(shlex.split(line)[1:]))
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_cost_model_ledger(tmp_path):
    out = tmp_path / "ledger.json"
    rc = main(["cost-model", "ledger", "--label", "1", "--curate", "1", "--compute", "1",
               "--latency", "1", "--risk", "1", "--quality", "0.9", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["total"] == 5.0
    assert doc["perf_per_cost"] == pytest.approx(0.18)


def test_config_file_precedence(tmp_path):
    task = _gen(tmp_path, n=8)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"budget": 50, "seed": 11}))
    out = tmp_path / "r.json"
    # config overrides the built-in default budget
    assert main(["search", "random", "--task", str(task), "--config", str(config),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["budget"] == 50 and doc["config"]["seed"] == 11
    # explicit flags override the config
    assert main(["search", "random", "--task", str(task), "--config", str(config),
                 "--budget", "25", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["budget"] == 25 and doc["config"]["seed"] == 11
    assert doc["evaluations"] == 25


@pytest.mark.parametrize("args, config, floats", [
    (["search", "exhaustive", "--workers", "1"], {"cap": 10}, ()),
    (["search", "random", "--budget", "64"], {"seed": 6}, ()),
    (["search", "greedy", "--restarts", "2"], {"budget": 64}, ()),
    (["search", "anneal", "--budget", "64", "--gamma", "0.9"], {"t0": 2, "seed": 6}, ("t0",)),
    (["chance-hit", "--trials", "500"], {"seed": 3}, ()),
    (["baseline", "conventional", "--learner", "onenn"], {}, ()),
    (["baseline", "selftrain", "--max-rounds", "3"], {"quantile": 1}, ("quantile",)),
    (["baseline", "compare", "--learner", "onenn"], {"quantile": 1, "max_rounds": 2}, ("quantile",)),
    (["cost-model", "ledger", "--label", "3"], {"risk": 1, "quality": 0.5}, ("risk",)),
    (["scaling", "--n-values", "4:6", "--workers", "1"], {"m": 3, "sigma": 2}, ("sigma",)),
], ids=["search-exhaustive", "search-random", "search-greedy", "search-anneal", "chance-hit",
        "baseline-conventional", "baseline-selftrain", "baseline-compare", "cost-model-ledger", "scaling"])
def test_config_round_trips_losslessly(tmp_path, args, config, floats):
    if args[0] not in ("cost-model", "scaling"):
        config = {**config, "task": str(_gen(tmp_path, n=8))}
    first = tmp_path / "first.json"
    first.write_text(json.dumps(config))
    out1 = tmp_path / "a.json"
    assert main([*args, "--config", str(first), "--out", str(out1)]) == 0
    doc1 = json.loads(out1.read_text())
    # a float given as a JSON integer is echoed as the float that was used
    for name in floats:
        assert type(doc1["config"][name]) is float and doc1["config"][name] == config[name]
    resolved = tmp_path / "resolved.json"
    resolved.write_text(json.dumps(doc1["config"]))
    out2 = tmp_path / "b.json"
    assert main([*args[:1 if args[1].startswith("--") else 2], "--config", str(resolved),
                 "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["config"] == {**doc1["config"], "out": str(out2)}
    assert _strip_timing({**doc1, "config": None}) == _strip_timing({**doc2, "config": None})


def test_unknown_config_keys_are_argument_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    for args, config in (
        (["gen-data", "--m", "2", "--n", "2", "--out", "t.json"], {"bogus": 1}),
        # a key of the other cost-model mode, or of another subcommand
        (["cost-model", "ledger", "--out", "l.json"], {"regimes": "const:2"}),
        (["cost-model", "table", "--n", "1:3", "--out", "s.csv"], {"quality": 1.0}),
        (["scaling", "--n-values", "4:5", "--out", "s.json"], {"task": "t.json"}),
    ):
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(args + ["--config", str(path)])
        assert exc.value.code == 2, config
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("args, config, message", [
    (["search", "anneal"], {"t0": True}, "t0 must be a number, got True"),
    (["search", "anneal"], {"gamma": "0.5"}, "gamma must be a number, got '0.5'"),
    (["search", "anneal"], {"t0": 10**400}, "t0 must be a number, got 1000"),
    (["baseline", "selftrain"], {"quantile": None}, "quantile must be a number, got None"),
    (["gen-data", "--m", "4", "--n", "6"], {"sep": None}, "sep must be a number, got None"),
    (["cost-model", "ledger"], {"label": "1"}, "label must be a number, got '1'"),
    (["search", "exhaustive"], {"task": 0}, "task must be a string, got 0"),
    (["chance-hit"], {"task": None}, "task must be a string, got None"),
    (["scaling", "--out", "{tmp}/out"], {"n_values": [4, 5]}, "n_values must be a string, got [4, 5]"),
    (["cost-model", "table", "--n", "1:3"], {"regimes": ["const:2"]}, "regimes must be a string, got ['const:2']"),
    (["search", "exhaustive", "--task", "{tmp}/t.json"], {"out": 5}, "out must be a string, got 5"),
], ids=["bool-float", "string-float", "huge-float", "null-float", "null-task-shape-float", "string-ledger",
        "number-path", "null-path", "list-list", "list-regimes", "number-out"])
def test_config_values_of_the_wrong_type_exit_one(tmp_path, capsys, args, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [arg.format(tmp=tmp_path) for arg in args] + ["--config", str(path)]
    if "out" not in config and not any(arg.startswith("--out") for arg in args):
        argv += ["--out", str(tmp_path / "out")]
    rc = main(argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert list(tmp_path.iterdir()) == [path]
