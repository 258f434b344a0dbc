import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from labelsearch import search
from labelsearch.cli import main


def _gen(tmp_path, name="task.json", n=12, m=8, seed=1, sep=4.0):
    path = tmp_path / name
    rc = main([
        "gen-data", "--m", str(m), "--n", str(n), "--d", "2",
        "--sep", str(sep), "--sigma", "1.0", "--seed", str(seed),
        "--out", str(path),
    ])
    assert rc == 0
    return path


def _strip_timing(doc):
    return {k: v for k, v in doc.items() if k not in ("elapsed_s", "mean_eval_time_s")}


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
    rc = main(["scaling", "--n-values", "13", "--workers", workers, "--out-csv", str(out)])
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
    (["scaling", "--n-values", "4:5", "--out-csv", "{tmp}/s.csv"], {"m": 3.5}, "m must be an integer, got 3.5"),
    (["scaling", "--n-values", "4:5", "--out-csv", "{tmp}/s.csv"], {"workers": 1.0}, "workers must be an integer, got 1.0"),
])
def test_config_task_integers_that_are_not_integers_exit_one(tmp_path, capsys, command, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = main([arg.format(tmp=tmp_path) for arg in command] + ["--config", str(path)])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("task.json")) and not list(tmp_path.glob("s.csv"))


def test_argument_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["search", "exhaustive"])  # missing --task/--out
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["search", "warp", "--task", "x", "--out", "y"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_task_file_is_a_runtime_refusal(tmp_path, capsys):
    rc = main(["search", "exhaustive", "--task", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "out.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


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
    csv_path, json_path = tmp_path / "scal.csv", tmp_path / "scal.json"
    rc = main(["scaling", "--n-values", "6:9", "--m", "5", "--seed", "2",
               "--workers", "1", "--out-csv", str(csv_path), "--out-json", str(json_path)])
    assert rc == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "n,evaluations,best_mu,total_time,mean_eval_time"
    assert len(lines) == 5
    doc = json.loads(json_path.read_text())
    assert set(doc) >= {"spec", "results", "slope"}
    with pytest.raises(SystemExit) as exc:
        main(["scaling", "--n-values", "6:9"])  # no outputs requested
    assert exc.value.code == 2


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


def test_compare_baselines_script_runs():
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "compare_baselines.py")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, script, "--n", "8"], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "exhaustive optimum dominates both: True" in proc.stdout


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


def test_config_round_trips_losslessly(tmp_path):
    task = _gen(tmp_path, n=8)
    out1 = tmp_path / "a.json"
    assert main(["search", "anneal", "--task", str(task), "--budget", "64",
                 "--t0", "2.0", "--gamma", "0.9", "--seed", "6", "--out", str(out1)]) == 0
    doc1 = json.loads(out1.read_text())
    config = tmp_path / "resolved.json"
    config.write_text(json.dumps(doc1["config"]))
    out2 = tmp_path / "b.json"
    assert main(["search", "anneal", "--config", str(config), "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["config"] == {**doc1["config"], "out": str(out2)}
    assert _strip_timing({**doc1, "config": None}) == _strip_timing({**doc2, "config": None})


def test_unknown_config_keys_are_argument_errors(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--m", "2", "--n", "2", "--out", str(tmp_path / "t.json"),
              "--config", str(config)])
    assert exc.value.code == 2
