"""labelsearch benchmark: nanoseconds per labeling evaluated.

Run from the root of a labelsearch checkout:

    python3 perfbench/run.py --workload sweep-centroid --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a traced run.  Every output is checked against
the references in ``reference.py``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).  The lines before it
give quartiles, sample counts, raw wall clock and run metadata; the
same, with the spans of a traced run, goes to ``perfbench/out/``.

Times are corrected for host drift (see ``measure.py``).  Workloads,
metrics and their predicted links are described in PREDICTIONS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# numpy, labelsearch and the benchmark modules that import them are
# imported inside the functions below, so that a set-up child can time
# those imports as part of set-up.

#: Minimum measurement passes, so every median has quartiles.
MIN_PASSES = 4
#: Set-up runs, each in a fresh interpreter; setup_s is their median.
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "ns_per_labeling_1w_p50": "ns",
    "ns_per_labeling_allcores_p50": "ns",
    "parallel_speedup": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep-centroid", "sweep-onenn", "heuristics"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def find_library(root: str) -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "labelsearch", "__init__.py")):
        raise SystemExit(f"error: {src}/labelsearch not found; run from the root of a labelsearch checkout")
    sys.path.insert(0, src)


def setup_only(args) -> int:
    """Child process: time importing labelsearch, generating the tasks,
    writing the task files and the warm-up call.

    numpy is imported first and not timed: it is a dependency whose
    import the program does not control, and most of the set-up's
    run-to-run variance.  The calibration blocks before and after
    correct the time for host drift like every other timing.
    """
    import numpy  # noqa: F401
    from measure import CAL_REF_S, calibration_block

    before = calibration_block()
    start = time.perf_counter()
    import workloads  # imports labelsearch

    workloads.make(args.workload, args.seed, args.setup_only, len(os.sched_getaffinity(0))).setup()
    elapsed = time.perf_counter() - start
    cal = (before + calibration_block()) / 2
    print(json.dumps({"setup_s": elapsed * CAL_REF_S / cal, "raw_setup_s": elapsed}))
    return 0


def time_setups(args, root: str, workdir: str) -> list[dict]:
    """Each set-up child's timings, children run one at a time."""
    samples = []
    for k in range(SETUP_REPEATS):
        child_dir = os.path.join(workdir, f"setup{k}")
        os.makedirs(child_dir)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-only", child_dir],
            cwd=root, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def stat(values) -> dict:
    from measure import quartiles

    q1, med, q3 = quartiles(values)
    return {"p50": med, "q1": q1, "q3": q3, "samples": len(values)}


def end_to_end(wl, timer, setups) -> tuple[dict, dict]:
    from measure import peak_rss_mib

    kind, n = wl.primary
    one, many = timer.select(kind, 1, n), timer.select(kind, wl.cores, n)
    detail = {
        "ns_per_labeling_1w_p50": stat([op.ns_per_labeling for op in one]),
        "ns_per_labeling_allcores_p50": stat([op.ns_per_labeling for op in many]),
        "setup_s": stat([s["setup_s"] for s in setups]),
        "raw_wall_ns_per_labeling_1w": stat([op.wall / op.labelings * 1e9 for op in one]),
        "raw_wall_ns_per_labeling_allcores": stat([op.wall / op.labelings * 1e9 for op in many]),
        "raw_setup_s": stat([s["raw_setup_s"] for s in setups]),
    }
    values = {
        "ns_per_labeling_1w_p50": detail["ns_per_labeling_1w_p50"]["p50"],
        "ns_per_labeling_allcores_p50": detail["ns_per_labeling_allcores_p50"]["p50"],
        "parallel_speedup": detail["ns_per_labeling_1w_p50"]["p50"] / detail["ns_per_labeling_allcores_p50"]["p50"],
        "peak_rss_mb": max(peak_rss_mib()),
        "setup_s": detail["setup_s"]["p50"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, detail


def per_layer(wl, timer, tracer, slopes) -> dict:
    from measure import median
    from workloads import HEURISTIC_KINDS, LEARNERS

    def ms(name, **attrs):
        return median(t for _, t in tracer.self_times(name, **attrs)) * 1e3

    values = {
        "core.save_task_ms": ms("core.save_task"),
        "core.load_task_ms": ms("core.load_task"),
        "harness.generate_task_ms": ms("harness.generate_task"),
        "learners.centroid_predictions_us": ms("learners.centroid_predictions") * 1e3,
        "learners.class_sums_and_counts_us": ms("learners.class_sums_and_counts") * 1e3,
        "learners.nearest_pool_index_us": ms("learners.nearest_pool_index") * 1e3,
        "search.pool_start_ms": ms("search.exhaustive_search", pool="own") - ms("search.exhaustive_search", pool="reused"),
        "search.chance_hit_ms": ms("search.chance_hit_experiment"),
        "cli.overhead_ms": median((t - rec["elapsed_s"]) * 1e3 for rec, t in tracer.self_times("cli.main")),
    }
    for learner in LEARNERS:
        values[f"search.batch_ns_per_word.{learner}"] = median(
            t / rec["words"] * 1e9 for rec, t in tracer.self_times("search.error_counts_for_words", learner=learner)
        )
        for kind in HEURISTIC_KINDS:
            per_eval = [t / rec["evaluations"] for rec, t in tracer.self_times("search.heuristic_search", kind=kind, learner=learner)]
            # calls made through the CLI are timed by the library itself
            per_eval += [rec["elapsed_s"] / rec["evaluations"] for rec, _ in tracer.self_times("cli.main", kind=kind, learner=learner)]
            values[f"search.{kind}_ns_per_eval.{learner}"] = median(per_eval) * 1e9
    values.update(wl.path_metrics())
    values["harness.slope_1w"] = slopes[1]
    values["harness.slope_allcores"] = slopes[wl.cores]
    kind, n = wl.primary
    traced = median(op.corrected for op in timer.select(kind, 1, n, traced=True))
    untraced = median(op.corrected for op in timer.select(kind, 1, n, traced=False))
    values["trace.overhead_frac"] = traced / untraced - 1.0
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in sorted(values.items())}


def layer_unit(name: str) -> str:
    if name.startswith("harness.slope"):
        return "log2/n"
    if name in ("search.evaluations", "search.argmin_count"):
        return "count"
    if name == "trace.overhead_frac":
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    return "ns"


def run(args, root: str) -> dict:
    import labelsearch

    if not os.path.abspath(labelsearch.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"error: imported labelsearch from {labelsearch.__file__}, not from this checkout")
    import workloads
    from checks import Checker
    from measure import NullTracer, Timer, Tracer, calibration_summary, peak_rss_mib, run_metadata
    from workloads import SLOPE_RANGE

    cores = len(os.sched_getaffinity(0))
    meta = run_metadata(args.workload, args.seed, cores)
    meta["calibration_before"] = calibration_summary()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    wl = workloads.make(args.workload, args.seed, workdir, cores)
    try:
        wl.setup()  # this process's own set-up is not timed
        setups = time_setups(args, root, workdir) if not args.trace else []
        checker = Checker()
        wl.start(checker)
        timer = Timer()
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}") if args.trace else NullTracer()
        untraced = NullTracer()
        deadline = time.perf_counter() + args.seconds
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() < deadline:
            # a traced run alternates traced and untraced passes, which
            # gives trace.overhead_frac from one process
            wl.run_pass(passes, tracer if args.trace and passes % 2 else untraced, timer, checker)
            passes += 1
        if args.trace:
            wl.probe(tracer, timer, checker)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    slopes = wl.slopes(timer)
    if 1 in slopes:
        lo, hi = SLOPE_RANGE
        checker.condition("harness.slope_1w", lo <= slopes[1] <= hi, f"slope {slopes[1]:.4f} outside [{lo}, {hi}]")
    if args.trace:
        metrics, detail = per_layer(wl, timer, tracer, slopes), {}
        tracer.write(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans.jsonl"))
    else:
        metrics, detail = end_to_end(wl, timer, setups)
    meta.update(passes=passes, workers_used=sorted({op.workers for op in timer.ops}),
                peak_rss_mib_self_and_children=peak_rss_mib(),
                calibration_after=calibration_summary(), failures=checker.messages)
    report = {"meta": meta, "detail": detail, "metrics": metrics, "ops": [vars(op) for op in timer.ops]}
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    for name, metric in metrics.items():
        extra = detail.get(name)
        spread = f"  q1 {extra['q1']:.6g}  q3 {extra['q3']:.6g}  samples {extra['samples']}" if extra else ""
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}{spread}")
    for name, extra in detail.items():
        if name not in metrics:
            print(f"{name:44s} p50 {extra['p50']:.6g}  q1 {extra['q1']:.6g}  q3 {extra['q3']:.6g}  samples {extra['samples']}")
    for message in checker.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print("meta " + json.dumps(meta))
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    find_library(root)
    if args.setup_only:
        return setup_only(args)
    print(json.dumps(run(args, root)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
