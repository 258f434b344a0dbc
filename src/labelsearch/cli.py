"""Command-line surface.

One subcommand per capability: ``gen-data``, ``search`` (exhaustive,
random, greedy, anneal), ``chance-hit``, ``baseline`` (conventional,
selftrain, and compare, which sets both beside the exhaustive optimum
and the trusted-set errors of the true and self-training labelings),
``scaling``, and ``cost-model`` (table, ledger).

``_PARAMS`` declares each parameter of each subcommand and mode once;
the flags, ``--help``, the config checks and the echoed config all read
it.  Every subcommand accepts ``--config FILE`` (a JSON object of
parameter names); explicit flags override config values, which override
the defaults.  A config value is checked as its flag is: a float must be
a JSON number and is kept as a float, a path or list must be a string,
and integers and learner kinds are checked by the library.  A flag or
key that the subcommand and mode do not take is an argument error.
Result JSON files echo the resolved parameters under ``"config"``, which
can be fed back verbatim as a config file.  All outputs are written
atomically (temp file, then rename).

Exit codes: 0 success, 2 argument errors (with usage), 1 runtime
refusals and failures (for example a pool over the exhaustive cap, a
failed sweep worker, or Ctrl-C), with a message on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import costmodel, harness, search
from .core import _write_atomic, evaluate_mu, load_task, task_to_json
from .learners import CENTROID, KINDS, fit, predict

_SEARCH_MODES = {"exhaustive": None, "random": "random", "greedy": "greedy-flip", "anneal": "anneal"}

#: Cores this process may run on, so the default never oversubscribes,
#: and never more than the worker ceiling.
_DEFAULT_WORKERS = min(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
    search.MAX_WORKERS,
)

#: Default of a parameter that has none.
_REQUIRED = object()

# Each parameter is (type, default, help).  The type is int, float, str
# (a path or a list written as text) or a tuple of the allowed values.
_LEARNER = (KINDS, CENTROID, "learner kind")
_WORKERS = (int, _DEFAULT_WORKERS, f"parallel workers, 1..{search.MAX_WORKERS}")
_CAP = (int, search.DEFAULT_EXHAUSTIVE_CAP, f"exhaustive pool-size cap, at most {search.HARD_EXHAUSTIVE_CAP}")
_TASK = (str, _REQUIRED, "task JSON path")
_OUT = (str, _REQUIRED, "output path")
_TASK_SHAPE = {
    "d": (int, 2, "feature dimension"),
    "sep": (float, 4.0, "class mean separation"),
    "sigma": (float, 1.0, "noise sigma"),
    "seed": (int, 0, "task RNG seed"),
}
_SEARCH = {
    "learner": _LEARNER,
    "workers": _WORKERS,
    "cap": _CAP,
    "budget": (int, 4096, "heuristic evaluation budget"),
    "restarts": (int, search.HeuristicConfig.restarts, "heuristic restarts"),
    "t0": (float, search.HeuristicConfig.initial_temp, "annealing initial temperature"),
    "gamma": (float, search.HeuristicConfig.decay, "annealing temperature decay in (0,1)"),
    "seed": (int, search.HeuristicConfig.rng_seed, "heuristic RNG seed"),
    "task": _TASK,
    "out": _OUT,
}
_BASELINE = {
    "learner": _LEARNER,
    "quantile": (float, 0.5, "self-training confidence quantile in (0,1]"),
    "max_rounds": (int, 10, "self-training rounds"),
    "task": _TASK,
    "out": _OUT,
}

#: The parameters of each subcommand and mode, in the order result files
#: echo them.  The flags, defaults, config checks and ``--help`` all come
#: from here.
_PARAMS = {
    ("gen-data", None): {
        "m": (int, _REQUIRED, "trusted set size"),
        "n": (int, _REQUIRED, "pool size"),
        **_TASK_SHAPE,
        "out": _OUT,
    },
    **{("search", mode): _SEARCH for mode in _SEARCH_MODES},
    ("chance-hit", None): {
        "learner": _LEARNER,
        "trials": (int, 100000, "uniform labelings drawn"),
        "seed": (int, 0, "sampling RNG seed"),
        "cap": _CAP,
        "task": _TASK,
        "out": _OUT,
    },
    **{("baseline", mode): _BASELINE for mode in ("conventional", "selftrain", "compare")},
    ("scaling", None): {
        "m": (int, 8, "trusted set size"),
        **_TASK_SHAPE,
        "learner": _LEARNER,
        "workers": _WORKERS,
        "cap": _CAP,
        "out_csv": (str, None, "CSV report path"),
        "out_json": (str, None, "JSON report path"),
        "n_values": (str, _REQUIRED, "pool sizes, 'LO:HI' or comma list"),
    },
    ("cost-model", "table"): {
        "tc_ms": (float, 1.0, "per-cycle time in milliseconds"),
        "regimes": (str, "const:4,poly:2,exp:0.5", "speedup regimes, name:value list"),
        "n": (str, _REQUIRED, "n values, 'LO:HI' or comma list"),
        "out": _OUT,
    },
    ("cost-model", "ledger"): {
        **{name: (float, 0.0, f"{name} spend") for name in costmodel.LEDGER_COMPONENTS},
        "quality": (float, None, "quality for perf-per-cost"),
        "out": _OUT,
    },
}


def _parse_int_list(text: str) -> list[int]:
    """Accept 'LO:HI' (inclusive) or a comma list '12,14,16'."""
    text = text.strip()
    if ":" in text:
        lo_s, hi_s = text.split(":", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    values = [int(part) for part in text.split(",") if part.strip() != ""]
    if not values:
        raise ValueError(f"no integers in {text!r}; expected 'LO:HI' or a comma list")
    return values


def _parse_regimes(text: str) -> list[costmodel.SpeedupRegime]:
    """Parse 'const:4,poly:2,exp:0.5' into regime objects."""
    kinds = {"const": costmodel.CONSTANT, "poly": costmodel.POLYNOMIAL, "exp": costmodel.EXPONENTIAL}
    regimes = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition(":")
        if name not in kinds or not value:
            raise ValueError(f"bad regime spec {part!r}; expected name:value with name in {sorted(kinds)}")
        regimes.append(costmodel.SpeedupRegime(kinds[name], float(value)))
    if not regimes:
        raise ValueError("no regimes given")
    return regimes


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _config_value(name: str, value, kind, default):
    """A config file's value as its flag would give it.  Integers and
    learner kinds are left for the library to check."""
    if value is None and default is None or kind not in (float, str):
        return value
    if kind is str and isinstance(value, str):
        return value
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer past the float range
            pass
    raise ValueError(f"{name} must be {'a string' if kind is str else 'a number'}, got {value!r}")


def _resolve(parser: argparse.ArgumentParser, ns: argparse.Namespace) -> dict:
    """The parameters of the subcommand and mode, in ``_PARAMS`` order:
    explicit flags > config file > defaults."""
    params = _PARAMS[ns.command, ns.mode]
    config: dict = {}
    if ns.config is not None:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file {ns.config}: {exc}")
        if not isinstance(config, dict):
            parser.error(f"config file {ns.config} must hold a JSON object")
    flags = {key: value for key, value in vars(ns).items() if key not in ("config", "command", "mode", "handler")}
    # a flag is declared for every mode of its subcommand, so a flag of
    # another mode reaches this check too
    unknown = sorted(set(config) - set(params)) + [_flag(name) for name in flags if name not in params]
    if unknown:
        where = " ".join(filter(None, (ns.command, ns.mode)))
        parser.error(f"unknown config keys or flags for {where}: {', '.join(unknown)}")
    resolved = {name: default for name, (_, default, _) in params.items()}
    for name, value in config.items():
        resolved[name] = _config_value(name, value, *params[name][:2])
    resolved.update(flags)
    missing = [_flag(name) for name, value in resolved.items() if value is _REQUIRED]
    if missing:
        parser.error(f"missing required argument(s): {', '.join(missing)}")
    return resolved


# --- subcommand handlers ----------------------------------------------------
#
# A handler returns the payload of the result JSON that main writes to
# ``out``, or None when it writes its own outputs.

def _task_spec(cfg: dict, n: int) -> harness.TaskSpec:
    return harness.TaskSpec(m=cfg["m"], n=n, d=cfg["d"], separation=cfg["sep"], noise_sigma=cfg["sigma"],
                            seed=cfg["seed"])


def _run_gen_data(parser, mode, cfg) -> None:
    """generate a synthetic task file"""
    _write_atomic(cfg["out"], task_to_json(harness.generate_task(_task_spec(cfg, cfg["n"]))))


def _run_search(parser, mode, cfg) -> dict:
    """search labelings of a task's pool"""
    task = load_task(cfg["task"])
    if mode == "exhaustive":
        outcome = search.exhaustive_search(task, cfg["learner"], workers=cfg["workers"], cap=cfg["cap"])
    else:
        heuristic = search.HeuristicConfig(kind=_SEARCH_MODES[mode], budget=cfg["budget"], restarts=cfg["restarts"],
                                           initial_temp=cfg["t0"], decay=cfg["gamma"], rng_seed=cfg["seed"])
        outcome = search.heuristic_search(task, cfg["learner"], heuristic)
    return {
        "n": task.n,
        "learner": cfg["learner"],
        "best_mu": outcome.best_mu,
        "argmin_labelings": list(outcome.argmin_words),
        "argmin_count": outcome.argmin_count,
        "evaluations": outcome.evaluations,
        "elapsed_s": outcome.elapsed,
        "mean_eval_time_s": outcome.mean_eval_time,
    }


def _run_chance_hit(parser, mode, cfg) -> dict:
    """uniform-labeling hit rate against the optimum"""
    task = load_task(cfg["task"])
    return search.chance_hit_experiment(task, cfg["trials"], cfg["seed"], cfg["learner"], cfg["cap"])


def _labeling_mu(task, labels, learner: str) -> float:
    """Trusted-set error of the learner fitted to one labeling of the pool."""
    return evaluate_mu(predict(fit(task.pool, labels, learner), task.trusted), task.trusted)


def _run_baseline(parser, mode, cfg) -> dict:
    """conventional or self-training baseline, or both against the exhaustive optimum"""
    task, learner = load_task(cfg["task"]), cfg["learner"]
    if mode == "conventional":
        return harness.conventional_pipeline(task, learner)
    selftrain = harness.self_training_baseline(task, learner, cfg["quantile"], cfg["max_rounds"])
    if mode == "selftrain":
        return selftrain
    best = search.exhaustive_search(task, learner)
    labeling_mu = {
        "ground_truth": None if task.ground_truth is None else _labeling_mu(task, task.ground_truth, learner),
        "selftrain": _labeling_mu(task, selftrain["induced_labels_B"], learner),
    }
    return {
        "conventional": harness.conventional_pipeline(task, learner),
        "selftrain": selftrain,
        "exhaustive": {"best_mu": best.best_mu, "argmin_count": best.argmin_count, "evaluations": best.evaluations},
        "labeling_mu": labeling_mu,
        # no labeling of the pool can score below the exhaustive optimum
        "optimum_dominates": all(best.best_mu <= mu for mu in labeling_mu.values() if mu is not None),
    }


def _run_scaling(parser, mode, cfg) -> None:
    """exhaustive sweep wall clock across pool sizes"""
    if cfg["out_csv"] is None and cfg["out_json"] is None:
        parser.error("scaling needs --out-csv and/or --out-json")
    n_values = _parse_int_list(cfg["n_values"])
    template = _task_spec(cfg, max(n_values))
    report = harness.scaling_experiment(n_values, template, cfg["learner"], workers=cfg["workers"], cap=cfg["cap"])
    if cfg["out_csv"] is not None:
        _write_atomic(cfg["out_csv"], harness.scaling_report_csv(report))
    if cfg["out_json"] is not None:
        _write_atomic(cfg["out_json"], harness.scaling_report_json(report, template, cfg["learner"]))


def _run_cost_model(parser, mode, cfg) -> dict | None:
    """analytic runtime table or spend ledger"""
    if mode == "ledger":
        ledger = costmodel.CostLedger(*(cfg[name] for name in costmodel.LEDGER_COMPONENTS))
        if cfg["quality"] is None:
            return {"total": ledger.total}
        return {"total": ledger.total, "perf_per_cost": costmodel.perf_per_cost(cfg["quality"], ledger)}
    n_values = _parse_int_list(cfg["n"])
    rows = costmodel.scaling_table(n_values, cfg["tc_ms"] / 1000.0, _parse_regimes(cfg["regimes"]))
    _write_atomic(cfg["out"], costmodel.scaling_table_csv(rows))
    # a constant speedup keeps the classical slope of 1, a polynomial one
    # approaches it from below as n grows, an exponential one with rate
    # beta lowers it to 1 - beta, and the quadratic-search count sits at 0.5
    for column in costmodel.SCALING_CSV_HEADER[1:]:
        if len(n_values) > 1 and rows[0][column] is not None:
            slope, _ = harness.fit_log2_slope(n_values, [row[column] for row in rows])
            print(f"{column}: log2 slope = {slope:.6f}")
    return None


# --- parser -----------------------------------------------------------------

#: Each handler's docstring is its subcommand's help line.
_HANDLERS = {"gen-data": _run_gen_data, "search": _run_search, "chance-hit": _run_chance_hit,
             "baseline": _run_baseline, "scaling": _run_scaling, "cost-model": _run_cost_model}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelsearch",
        description="Search binary labelings of an unlabeled pool against a trusted set; "
        "baselines, chance-hit rates, scaling runs, and the analytic cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in _HANDLERS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        p.set_defaults(handler=handler, mode=None)
        modes = [mode for name, mode in _PARAMS if name == command]
        if modes != [None]:
            p.add_argument("mode", choices=modes)
        # a flag of one mode is refused in another by _resolve
        params = {name: param for mode in modes for name, param in _PARAMS[command, mode].items()}
        for name, (kind, default, text) in params.items():
            choices = kind if isinstance(kind, tuple) else None
            shown = "required" if default is _REQUIRED else f"default: {default}"
            p.add_argument(_flag(name), type=None if choices else kind, choices=choices,
                           default=argparse.SUPPRESS, help=f"{text} ({shown})")
        p.add_argument("--config", help="JSON file of parameter values, overridden by flags")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _resolve(parser, ns)
        payload = ns.handler(parser, ns.mode, cfg)
        if payload is not None:
            mode = {} if ns.mode is None else {"mode": ns.mode}
            doc = {"command": ns.command, **mode, "config": cfg, **payload}
            _write_atomic(cfg["out"], json.dumps(doc, indent=2, allow_nan=False) + "\n")
        return 0
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
