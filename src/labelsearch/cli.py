"""Command-line surface.

One subcommand per capability: ``gen-data``, ``search`` (exhaustive,
random, greedy, anneal), ``chance-hit``, ``baseline`` (conventional,
selftrain), ``scaling``, and ``cost-model`` (table, ledger).

Every subcommand accepts ``--config FILE`` (a JSON object of parameter
names); explicit flags override config values, which override built-in
defaults.  Result JSON files echo the fully resolved parameters under
``"config"``, which can be fed back verbatim as a config file.  All
outputs are written atomically (temp file, then rename).

Exit codes: 0 success, 2 argument errors (with usage), 1 runtime
refusals and failures (for example a pool over the exhaustive cap, a
failed sweep worker, or Ctrl-C), with a message on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import costmodel
from .core import _write_atomic, load_task, task_to_json
from .harness import (
    TaskSpec,
    conventional_pipeline,
    fit_log2_slope,
    generate_task,
    scaling_experiment,
    scaling_report_csv,
    scaling_report_json,
    self_training_baseline,
)
from .search import (
    MAX_WORKERS,
    HeuristicConfig,
    chance_hit_experiment,
    exhaustive_search,
    heuristic_search,
)

_SEARCH_MODES = {"exhaustive": None, "random": "random", "greedy": "greedy-flip", "anneal": "anneal"}

#: Cores this process may run on, so the default never oversubscribes,
#: and never more than the worker ceiling.
_DEFAULT_WORKERS = min(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
    MAX_WORKERS,
)


def _parse_int_list(text: str) -> list[int]:
    """Accept 'LO:HI' (inclusive) or a comma list '12,14,16'."""
    text = str(text).strip()
    if ":" in text:
        lo_s, hi_s = text.split(":", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _parse_regimes(text: str) -> list[costmodel.SpeedupRegime]:
    """Parse 'const:4,poly:2,exp:0.5' into regime objects."""
    makers = {
        "const": costmodel.SpeedupRegime.constant,
        "poly": costmodel.SpeedupRegime.polynomial,
        "exp": costmodel.SpeedupRegime.exponential,
    }
    regimes = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition(":")
        if name not in makers or not value:
            raise ValueError(f"bad regime spec {part!r}; expected name:value with name in {sorted(makers)}")
        regimes.append(makers[name](float(value)))
    if not regimes:
        raise ValueError("no regimes given")
    return regimes


def _resolve(parser: argparse.ArgumentParser, ns: argparse.Namespace, defaults: dict, required: tuple[str, ...]) -> dict:
    """Apply precedence: explicit flags > config file > defaults."""
    allowed = set(defaults) | set(required)
    config: dict = {}
    path = getattr(ns, "config", None)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file {path}: {exc}")
        if not isinstance(config, dict):
            parser.error(f"config file {path} must hold a JSON object")
        unknown = sorted(set(config) - allowed)
        if unknown:
            parser.error(f"unknown config keys for this subcommand: {', '.join(unknown)}")
    flags = {
        key: value
        for key, value in vars(ns).items()
        if key not in ("config", "command", "mode", "handler")
    }
    resolved = {**defaults, **config, **flags}
    missing = [name for name in required if resolved.get(name) is None]
    if missing:
        parser.error(f"missing required argument(s): {', '.join('--' + m.replace('_', '-') for m in missing)}")
    return resolved


def _result_json(command: str, mode: str | None, config: dict, payload: dict) -> str:
    doc: dict = {"command": command}
    if mode is not None:
        doc["mode"] = mode
    doc["config"] = config
    doc.update(payload)
    return json.dumps(doc, indent=2) + "\n"


# --- subcommand handlers ----------------------------------------------------

_GEN_DEFAULTS = {"d": 2, "sep": 4.0, "sigma": 1.0, "seed": 0}


def _run_gen_data(parser, ns) -> int:
    cfg = _resolve(parser, ns, _GEN_DEFAULTS | {"m": None, "n": None, "out": None}, ("m", "n", "out"))
    spec = TaskSpec(
        m=cfg["m"],
        n=cfg["n"],
        d=cfg["d"],
        separation=float(cfg["sep"]),
        noise_sigma=float(cfg["sigma"]),
        seed=cfg["seed"],
    )
    _write_atomic(cfg["out"], task_to_json(generate_task(spec)))
    return 0


_SEARCH_DEFAULTS = {
    "learner": "centroid",
    "workers": _DEFAULT_WORKERS,
    "cap": 24,
    "budget": 4096,
    "restarts": 1,
    "t0": 1.0,
    "gamma": 0.95,
    "seed": 0,
}


def _run_search(parser, ns) -> int:
    cfg = _resolve(parser, ns, _SEARCH_DEFAULTS | {"task": None, "out": None}, ("task", "out"))
    task = load_task(cfg["task"])
    if ns.mode == "exhaustive":
        outcome = exhaustive_search(task, cfg["learner"], workers=cfg["workers"], cap=cfg["cap"])
    else:
        heuristic = HeuristicConfig(
            kind=_SEARCH_MODES[ns.mode],
            budget=cfg["budget"],
            restarts=cfg["restarts"],
            initial_temp=float(cfg["t0"]),
            decay=float(cfg["gamma"]),
            rng_seed=cfg["seed"],
        )
        outcome = heuristic_search(task, cfg["learner"], heuristic)
    payload = {
        "n": task.n,
        "learner": cfg["learner"],
        "best_mu": outcome.best_mu,
        "argmin_labelings": [lab.bits for lab in outcome.argmin_labelings],
        "argmin_count": outcome.argmin_count,
        "evaluations": outcome.evaluations,
        "elapsed_s": outcome.elapsed,
        "mean_eval_time_s": outcome.mean_eval_time,
    }
    _write_atomic(cfg["out"], _result_json("search", ns.mode, cfg, payload))
    return 0


_CHANCE_DEFAULTS = {"learner": "centroid", "trials": 100000, "seed": 0, "cap": 24}


def _run_chance_hit(parser, ns) -> int:
    cfg = _resolve(parser, ns, _CHANCE_DEFAULTS | {"task": None, "out": None}, ("task", "out"))
    task = load_task(cfg["task"])
    result = chance_hit_experiment(
        task,
        trials=cfg["trials"],
        rng_seed=cfg["seed"],
        learner_kind=cfg["learner"],
        cap=cfg["cap"],
    )
    _write_atomic(cfg["out"], _result_json("chance-hit", None, cfg, result))
    return 0


_BASELINE_DEFAULTS = {"learner": "centroid", "quantile": 0.5, "max_rounds": 10}


def _run_baseline(parser, ns) -> int:
    cfg = _resolve(parser, ns, _BASELINE_DEFAULTS | {"task": None, "out": None}, ("task", "out"))
    task = load_task(cfg["task"])
    if ns.mode == "conventional":
        result = conventional_pipeline(task, cfg["learner"])
    else:
        result = self_training_baseline(
            task,
            cfg["learner"],
            confidence_quantile=float(cfg["quantile"]),
            max_rounds=cfg["max_rounds"],
        )
    _write_atomic(cfg["out"], _result_json("baseline", ns.mode, cfg, result))
    return 0


_SCALING_DEFAULTS = {
    "m": 8,
    "d": 2,
    "sep": 4.0,
    "sigma": 1.0,
    "seed": 0,
    "learner": "centroid",
    "workers": _DEFAULT_WORKERS,
    "cap": 24,
    "out_csv": None,
    "out_json": None,
}


def _run_scaling(parser, ns) -> int:
    cfg = _resolve(parser, ns, _SCALING_DEFAULTS | {"n_values": None}, ("n_values",))
    if cfg["out_csv"] is None and cfg["out_json"] is None:
        parser.error("scaling needs --out-csv and/or --out-json")
    n_values = _parse_int_list(cfg["n_values"])
    template = TaskSpec(
        m=cfg["m"],
        n=max(n_values),
        d=cfg["d"],
        separation=float(cfg["sep"]),
        noise_sigma=float(cfg["sigma"]),
        seed=cfg["seed"],
    )
    report = scaling_experiment(n_values, template, cfg["learner"], workers=cfg["workers"], cap=cfg["cap"])
    if cfg["out_csv"] is not None:
        _write_atomic(cfg["out_csv"], scaling_report_csv(report))
    if cfg["out_json"] is not None:
        _write_atomic(cfg["out_json"], scaling_report_json(report, template, cfg["learner"]))
    return 0


_TABLE_DEFAULTS = {"tc_ms": 1.0, "regimes": "const:4,poly:2,exp:0.5"}
_LEDGER_DEFAULTS = {"label": 0.0, "curate": 0.0, "compute": 0.0, "latency": 0.0, "risk": 0.0, "quality": None}


def _run_cost_model(parser, ns) -> int:
    if ns.mode == "table":
        cfg = _resolve(parser, ns, _TABLE_DEFAULTS | {"n": None, "out": None}, ("n", "out"))
        n_values = _parse_int_list(cfg["n"])
        rows = costmodel.scaling_table(n_values, float(cfg["tc_ms"]) / 1000.0, _parse_regimes(cfg["regimes"]))
        _write_atomic(cfg["out"], costmodel.scaling_table_csv(rows))
        # a constant speedup keeps the classical slope of 1, a polynomial one
        # approaches it from below as n grows, an exponential one with rate
        # beta lowers it to 1 - beta, and the quadratic-search count sits at 0.5
        for column in costmodel.SCALING_CSV_HEADER[1:]:
            if len(n_values) > 1 and rows[0][column] is not None:
                slope, _ = fit_log2_slope(n_values, [row[column] for row in rows])
                print(f"{column}: log2 slope = {slope:.6f}")
        return 0
    cfg = _resolve(parser, ns, _LEDGER_DEFAULTS | {"out": None}, ("out",))
    ledger = costmodel.CostLedger(
        label=float(cfg["label"]),
        curate=float(cfg["curate"]),
        compute=float(cfg["compute"]),
        latency=float(cfg["latency"]),
        risk=float(cfg["risk"]),
    )
    payload: dict = {"total": ledger.total}
    if cfg["quality"] is not None:
        payload["perf_per_cost"] = costmodel.perf_per_cost(float(cfg["quality"]), ledger)
    _write_atomic(cfg["out"], _result_json("cost-model", "ledger", cfg, payload))
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelsearch",
        description="Search binary labelings of an unlabeled pool against a trusted set; "
        "baselines, chance-hit rates, scaling runs, and the analytic cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    S = argparse.SUPPRESS

    p = sub.add_parser("gen-data", help="generate a synthetic task file")
    p.add_argument("--m", type=int, default=S, help="trusted set size")
    p.add_argument("--n", type=int, default=S, help="pool size")
    p.add_argument("--d", type=int, default=S, help="feature dimension (default 2)")
    p.add_argument("--sep", type=float, default=S, help="class mean separation (default 4.0)")
    p.add_argument("--sigma", type=float, default=S, help="noise sigma (default 1.0)")
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--out", default=S, help="task JSON path")
    p.add_argument("--config", default=None, help="JSON file of parameter defaults")
    p.set_defaults(handler=_run_gen_data, mode=None)

    p = sub.add_parser("search", help="search labelings of a task's pool")
    p.add_argument("mode", choices=sorted(_SEARCH_MODES))
    p.add_argument("--task", default=S, help="task JSON path")
    p.add_argument("--learner", choices=("centroid", "onenn"), default=S)
    p.add_argument("--workers", type=int, default=S, help=f"parallel workers, 1..{MAX_WORKERS} (exhaustive only)")
    p.add_argument("--cap", type=int, default=S, help="exhaustive size cap (default 24, hard 32)")
    p.add_argument("--budget", type=int, default=S, help="heuristic evaluation budget")
    p.add_argument("--restarts", type=int, default=S)
    p.add_argument("--t0", type=float, default=S, help="annealing initial temperature")
    p.add_argument("--gamma", type=float, default=S, help="annealing temperature decay in (0,1)")
    p.add_argument("--seed", type=int, default=S, help="heuristic RNG seed")
    p.add_argument("--out", default=S, help="result JSON path")
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_run_search)

    p = sub.add_parser("chance-hit", help="uniform-labeling hit rate against the optimum")
    p.add_argument("--task", default=S)
    p.add_argument("--learner", choices=("centroid", "onenn"), default=S)
    p.add_argument("--trials", type=int, default=S)
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--cap", type=int, default=S)
    p.add_argument("--out", default=S)
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_run_chance_hit, mode=None)

    p = sub.add_parser("baseline", help="conventional or self-training baseline")
    p.add_argument("mode", choices=("conventional", "selftrain"))
    p.add_argument("--task", default=S)
    p.add_argument("--learner", choices=("centroid", "onenn"), default=S)
    p.add_argument("--quantile", type=float, default=S, help="self-training confidence quantile in (0,1]")
    p.add_argument("--max-rounds", type=int, default=S)
    p.add_argument("--out", default=S)
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_run_baseline)

    p = sub.add_parser("scaling", help="exhaustive sweep wall clock across pool sizes")
    p.add_argument("--n-values", default=S, help="pool sizes, 'LO:HI' or comma list")
    p.add_argument("--m", type=int, default=S)
    p.add_argument("--d", type=int, default=S)
    p.add_argument("--sep", type=float, default=S)
    p.add_argument("--sigma", type=float, default=S)
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--learner", choices=("centroid", "onenn"), default=S)
    p.add_argument("--workers", type=int, default=S, help=f"parallel workers, 1..{MAX_WORKERS}")
    p.add_argument("--cap", type=int, default=S)
    p.add_argument("--out-csv", default=S)
    p.add_argument("--out-json", default=S)
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_run_scaling, mode=None)

    p = sub.add_parser("cost-model", help="analytic runtime table or spend ledger")
    p.add_argument("mode", choices=("table", "ledger"))
    p.add_argument("--n", default=S, help="table: n values, 'LO:HI' or comma list")
    p.add_argument("--tc-ms", type=float, default=S, help="table: per-cycle time in milliseconds")
    p.add_argument("--regimes", default=S, help="table: e.g. const:4,poly:2,exp:0.5")
    p.add_argument("--label", type=float, default=S)
    p.add_argument("--curate", type=float, default=S)
    p.add_argument("--compute", type=float, default=S)
    p.add_argument("--latency", type=float, default=S)
    p.add_argument("--risk", type=float, default=S)
    p.add_argument("--quality", type=float, default=S, help="ledger: quality for perf-per-cost")
    p.add_argument("--out", default=S)
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_run_cost_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.handler(parser, ns)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
