#!/usr/bin/env python3
"""Fold benchmark run files of a parent and a change into BENCH_<label>.json.

Each run file is one ``perfbench/out/<workload>-seed<N>-trace<T>.json``
written by ``perfbench/run.py``.  Per workload and side the record holds
the median and quartiles of the end-to-end metrics named in
BENCHMARK.json (over ``--trace 0`` runs), the medians of the per-layer
metrics (over ``--trace 1`` runs), the seeds, and each run's metadata.
Untraced runs of the two sides with the same workload and seed form a
pair; the record counts, per end-to-end metric, the pairs the
change wins.  With ``--previous``, it also gives the change side's
relative change of each end-to-end median against that earlier record.

Example:
    python3 scripts/bench_record.py --label heuristics-bytetables \\
        --parent parent-out/heuristics-seed*-trace0.json \\
        --change perfbench/out/heuristics-seed*-trace0.json \\
        --previous BENCH_baseline.json
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Run metadata copied into the record, per run.
META_KEYS = ("seed", "affinity_cores", "workers_used", "passes", "python", "numpy", "cpu_model", "loadavg")


def quartiles(values: list[float]) -> dict:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return {"p50": values[0], "q1": values[0], "q3": values[0], "samples": 1}
    q1, p50, q3 = statistics.quantiles(values, n=4)
    return {"p50": p50, "q1": q1, "q3": q3, "samples": len(values)}


def load_run(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    meta = report["meta"]
    return {
        "file": os.path.basename(path),
        "workload": meta["workload"],
        "seed": meta["seed"],
        "traced": "ns_per_labeling_1w_p50" not in report["metrics"],
        "values": {name: metric["value"] for name, metric in report["metrics"].items()},
        "meta": {key: meta[key] for key in META_KEYS if key in meta} | {"failures": len(meta.get("failures", []))},
    }


def side_record(runs: list[dict], end_to_end: list[str]) -> dict:
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    layers = sorted({name for r in traced for name in r["values"]})
    return {
        "seeds": sorted({r["seed"] for r in runs}),
        "correct": all(r["meta"]["failures"] == 0 for r in runs),
        "end_to_end": {name: quartiles([r["values"][name] for r in plain]) for name in end_to_end if plain},
        "per_layer_p50": {name: statistics.median(r["values"][name] for r in traced if name in r["values"])
                          for name in layers},
        "runs": [{"file": r["file"], **r["meta"]} for r in runs],
    }


def better(value: float, than: float, direction: str) -> bool:
    return value < than if direction == "lower" else value > than


def pair_wins(parent: list[dict], change: list[dict], end_to_end: dict) -> dict:
    by_seed = {r["seed"]: r for r in parent if not r["traced"]}
    pairs = [(by_seed[r["seed"]], r) for r in change if not r["traced"] and r["seed"] in by_seed]
    return {
        "pairs": len(pairs),
        "seeds": sorted(c["seed"] for _, c in pairs),
        "change_wins": {name: sum(better(c["values"][name], p["values"][name], spec["better"]) for p, c in pairs)
                        for name, spec in end_to_end.items()},
    }


def build_record(label: str, parent_files, change_files, benchmark: dict, previous: dict | None) -> dict:
    end_to_end = {m["name"]: {k: m[k] for k in ("unit", "better", "bound")} for m in benchmark["end_to_end"]}
    sides = {"parent": [load_run(p) for p in parent_files], "change": [load_run(p) for p in change_files]}
    workloads = {}
    for name in sorted({r["workload"] for runs in sides.values() for r in runs}):
        parent = [r for r in sides["parent"] if r["workload"] == name]
        change = [r for r in sides["change"] if r["workload"] == name]
        entry = {side: side_record(runs, list(end_to_end)) for side, runs in (("parent", parent), ("change", change))}
        entry["pairs"] = pair_wins(parent, change, end_to_end)
        if previous is not None and name in previous["workloads"]:
            before = previous["workloads"][name]["change"]["end_to_end"]
            now = entry["change"]["end_to_end"]
            entry["delta_vs_previous"] = {m: now[m]["p50"] / before[m]["p50"] - 1.0
                                          for m in end_to_end if m in now and m in before}
        workloads[name] = entry
    return {
        "label": label,
        "previous": previous["label"] if previous is not None else None,
        "end_to_end": end_to_end,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--parent", nargs="+", required=True, metavar="RUN", help="run files of the parent commit")
    ap.add_argument("--change", nargs="+", required=True, metavar="RUN", help="run files of the change")
    ap.add_argument("--previous", metavar="BENCH", help="an earlier BENCH_*.json to compare the change with")
    ap.add_argument("--benchmark", default=os.path.join(HERE, os.pardir, "BENCHMARK.json"),
                    help="benchmark declaration naming the end-to-end metrics (default: the checkout's)")
    ap.add_argument("--out-dir", default=".", help="directory for BENCH_<label>.json (default: .)")
    args = ap.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        benchmark = json.load(fh)
    previous = None
    if args.previous:
        with open(args.previous, encoding="utf-8") as fh:
            previous = json.load(fh)
    record = build_record(args.label, args.parent, args.change, benchmark, previous)
    out = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for name, entry in record["workloads"].items():
        wins = entry["pairs"]
        for metric, stats in entry["change"]["end_to_end"].items():
            before = entry["parent"]["end_to_end"].get(metric)
            was = f"{before['p50']:.6g} -> " if before else ""
            print(f"{name:15s} {metric:30s} {was}{stats['p50']:.6g}  "
                  f"change wins {wins['change_wins'][metric]}/{wins['pairs']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
