import json
import os
import subprocess
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_record.py")

END_TO_END = {
    "ns_per_labeling_1w_p50": "ns",
    "ns_per_labeling_allcores_p50": "ns",
    "parallel_speedup": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def write_run(path, seed, ns_1w, speedup, failures=()):
    metrics = {name: {"value": 1.0, "unit": unit} for name, unit in END_TO_END.items()}
    metrics["ns_per_labeling_1w_p50"]["value"] = ns_1w
    metrics["parallel_speedup"]["value"] = speedup
    meta = {"workload": "heuristics", "seed": seed, "affinity_cores": 2, "python": "3.x",
            "cpu_model": "test cpu", "failures": list(failures)}
    path.write_text(json.dumps({"meta": meta, "detail": {}, "metrics": metrics, "ops": []}))
    return str(path)


def run_script(tmp_path, *args):
    proc = subprocess.run([sys.executable, SCRIPT, *args, "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bench_record_folds_two_run_files_per_side(tmp_path):
    parent = [write_run(tmp_path / "p1.json", 1, 700.0, 1.8), write_run(tmp_path / "p2.json", 2, 720.0, 1.7)]
    change = [write_run(tmp_path / "c1.json", 1, 540.0, 1.9), write_run(tmp_path / "c2.json", 2, 730.0, 1.6)]
    out = run_script(tmp_path, "--label", "first", "--parent", *parent, "--change", *change)
    assert "change wins 1/2" in out
    record = json.loads((tmp_path / "BENCH_first.json").read_text())
    assert record["label"] == "first" and record["previous"] is None
    assert set(record["end_to_end"]) == set(END_TO_END)
    entry = record["workloads"]["heuristics"]
    assert entry["parent"]["seeds"] == [1, 2] and entry["change"]["seeds"] == [1, 2]
    assert entry["change"]["correct"] and entry["parent"]["correct"]
    assert entry["parent"]["end_to_end"]["ns_per_labeling_1w_p50"]["p50"] == pytest.approx(710.0)
    assert entry["change"]["end_to_end"]["ns_per_labeling_1w_p50"]["samples"] == 2
    assert [r["file"] for r in entry["change"]["runs"]] == ["c1.json", "c2.json"]
    assert entry["change"]["runs"][0]["cpu_model"] == "test cpu"
    # ns is lower-is-better and the speedup higher-is-better: seed 1 wins both
    assert entry["pairs"]["pairs"] == 2
    assert entry["pairs"]["change_wins"]["ns_per_labeling_1w_p50"] == 1
    assert entry["pairs"]["change_wins"]["parallel_speedup"] == 1
    assert entry["pairs"]["change_wins"]["peak_rss_mb"] == 0  # ties are not wins
    assert "delta_vs_previous" not in entry

    later = [write_run(tmp_path / "c3.json", 3, 567.5, 1.8, failures=["a check failed"])]
    run_script(tmp_path, "--label", "second", "--parent", *change, "--change", *later,
               "--previous", str(tmp_path / "BENCH_first.json"))
    second = json.loads((tmp_path / "BENCH_second.json").read_text())
    assert second["previous"] == "first"
    entry = second["workloads"]["heuristics"]
    assert entry["pairs"]["pairs"] == 0  # no seed in common
    assert not entry["change"]["correct"]
    assert entry["delta_vs_previous"]["ns_per_labeling_1w_p50"] == pytest.approx(567.5 / 635.0 - 1.0)
