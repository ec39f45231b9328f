"""Command-line frontend: single queries, closed-loop runs, benchmarks.

Exit codes are the machine contract: 0 success, 1 error, 2 query unsolved
(plan), 3 collision (simulate). Output files are written atomically
(write-then-rename) so interrupted runs never leave partial CSVs, and a run
first removes the files its command writes, so --out never mixes two runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

from .road import RouteExhaustedError
from .sim import (
    ScenarioError,
    build_scenario_grid,
    compute_metrics,
    load_scenario,
    plan_query,
    run_closed_loop,
    simlog_to_csv,
    simlog_to_dict,
)
from .sst import PlannerConfig

# command -> the files it writes into --out
_OUTPUTS = {
    "plan": ("tree_stats.json", "trajectory.csv"),
    "simulate": ("simlog.json", "simlog.csv", "metrics.json"),
    "benchmark": ("cells.json", "summary.csv"),
}

# the PlanResult fields of tree_stats.json, in file order
_TREE_STATS = ("solved", "cost", "iterations", "n_nodes", "n_witnesses", "cost_history")

# a benchmark runs at most this many seeds per scenario and mode
_MAX_SEEDS = 100_000


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_json(path: Path, data) -> None:
    """data as indented JSON, where null stands for a float that is not finite."""
    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        return [finite(x) for x in v] if isinstance(v, (list, tuple)) else v
    _atomic_write(path, json.dumps(finite(data), indent=2, allow_nan=False) + "\n")


def _clear_outputs(args) -> Path:
    """--out without the files args.command writes, so a failed run leaves none of them."""
    out = Path(args.out)
    for name in _OUTPUTS[args.command]:
        (out / name).unlink(missing_ok=True)
    return out


def _parse_budget(spec):
    """--budget time:SECS or iters:N as plan_query's budget; zero runs no iteration."""
    if spec is None:
        return None
    kind, _, value = spec.partition(":")
    try:
        cfg = PlannerConfig().with_budget(kind, value)
    except ValueError as exc:
        raise ScenarioError(f"--budget {spec!r}: {exc}") from exc
    if 0 in (cfg.iteration_budget, cfg.query_time):
        raise ScenarioError(f"--budget {spec!r}: a zero budget runs no iteration")
    return (kind, cfg.iteration_budget or cfg.query_time)


def _parse_seeds(spec: str):
    """--seeds "0,3,5-7" as a list of at most _MAX_SEEDS distinct non-negative seeds, ranges inclusive."""
    seeds = []
    for chunk in spec.split(","):
        lo, dash, hi = chunk.strip().partition("-")
        try:
            first = int(lo)
            last = int(hi) if dash else first
        except ValueError:
            raise ScenarioError(f"--seeds expects a comma list of N or LO-HI, got {spec!r}") from None
        if last < first:
            raise ScenarioError(f"--seeds: range {chunk.strip()!r} selects no seed")
        if len(seeds) + (last - first + 1) > _MAX_SEEDS:
            raise ScenarioError(f"--seeds {spec!r}: selects more than {_MAX_SEEDS} seeds")
        seeds.extend(range(first, last + 1))
    _once("--seeds", seeds)
    return seeds


def _once(flag: str, values, keys=None) -> None:
    """Reject a value of flag given twice (compared by keys): its cells would run and count twice."""
    seen = set()
    for value, key in zip(values, keys or values):
        if key in seen:
            raise ScenarioError(f"{flag}: {value} is given twice")
        seen.add(key)


def cmd_plan(args) -> int:
    budget = _parse_budget(args.budget)
    out = _clear_outputs(args)
    sc = load_scenario(args.scenario, args.set)
    result = plan_query(sc, args.mode, build_scenario_grid(sc), sc.ego_state, 0.0, (args.seed, 0), budget)
    _write_json(out / "tree_stats.json", {k: getattr(result, k) for k in _TREE_STATS})
    if not result.solved:
        return 2
    lines = ["t,x,y,theta,v,a,delta"]
    for s in result.trajectory.samples:
        u = map(repr, s.input) if s.input else ("", "")
        lines.append(",".join((repr(s.t), *map(repr, s.state), *u)))
    _atomic_write(out / "trajectory.csv", "\n".join(lines) + "\n")
    return 0


def _closed_loop(path, mode, seed, budget, overrides):
    """One closed-loop run: (scenario, log, metrics as a dict or None if no tick ran)."""
    sc = load_scenario(path, overrides)
    log = run_closed_loop(sc, mode, seed, budget=budget)
    return sc, log, (asdict(compute_metrics(log, sc)) if log.ticks else None)


def cmd_simulate(args) -> int:
    budget = _parse_budget(args.budget)
    out = _clear_outputs(args)
    _, log, metrics = _closed_loop(args.scenario, args.mode, args.seed, budget, args.set)
    _write_json(out / "simlog.json", simlog_to_dict(log))
    _atomic_write(out / "simlog.csv", simlog_to_csv(log))
    if metrics is not None:
        _write_json(out / "metrics.json", metrics)
    return 3 if log.termination == "collision" else 0


def _run_cell(job):
    path, mode, seed, _, _ = job
    try:
        sc, log, metrics = _closed_loop(*job)
        return (sc.name, mode, seed, metrics, log.termination, None)
    except Exception as exc:  # recorded per cell, matrix continues
        return (Path(path).stem, mode, seed, None, "", f"{type(exc).__name__}: {exc}")


_GAIN_METRICS = {
    "mean_abs_acceleration": "lower",
    "mean_speed_deviation": "lower",
    "mean_lane_deviation": "lower",
    "min_target_distance": "higher",
}


def cmd_benchmark(args) -> int:
    if args.jobs < 1:
        raise ScenarioError(f"--jobs: expected a positive integer, got {args.jobs}")
    budget = _parse_budget(args.budget)
    seeds = _parse_seeds(args.seeds)
    modes = args.modes.split(",")
    if not set(modes) <= {"base", "dki"}:
        raise ScenarioError(f"--modes expects a comma list of base and dki, got {args.modes!r}")
    _once("--modes", modes)
    _once("--scenario", args.scenario, [Path(p).resolve() for p in args.scenario])
    out = _clear_outputs(args)
    jobs = [
        (path, mode, seed, budget, args.set)
        for path in args.scenario
        for mode in modes
        for seed in seeds
    ]
    # under the fork start method the pool starts all its workers at once,
    # so start no more than there are cells and CPUs
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, jobs))
    else:
        results = [_run_cell(j) for j in jobs]

    cells = [dict(zip(("scenario", "mode", "seed", "metrics", "termination", "error"), r)) for r in results]
    # (scenario, mode, metric) -> the cells' finite values, in cell order
    values = {}
    for c in cells:
        if c["error"] is not None:
            print(f"cell failed: {c['scenario']}/{c['mode']}/seed{c['seed']}: {c['error']}", file=sys.stderr)
        for k in _GAIN_METRICS:
            v = (c["metrics"] or {}).get(k)
            if v is not None and not (isinstance(v, float) and math.isnan(v)):
                values.setdefault((c["scenario"], c["mode"], k), []).append(v)
    _write_json(out / "cells.json", cells)

    means = {key: sum(v) / len(v) for key, v in values.items()}
    lines = ["scenario,metric,base,dki,gain_pct"]
    for name in sorted({c["scenario"] for c in cells}):
        for metric, sense in _GAIN_METRICS.items():
            b, d = (means.get((name, mode, metric)) for mode in ("base", "dki"))
            gain = ""
            if b is not None and d is not None and b != 0:
                gain = f"{((b - d) if sense == 'lower' else (d - b)) / b * 100.0:.2f}"
            b_s, d_s = ("" if v is None else f"{v:.6f}" for v in (b, d))
            lines.append(f"{name},{metric},{b_s},{d_s},{gain}")
    _atomic_write(out / "summary.csv", "\n".join(lines) + "\n")
    return 0 if all(c["error"] is None for c in cells) else 1


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ScenarioErrors, so that they exit 1 and
    not argparse's 2, which means "query unsolved"; subparsers share the class."""

    def error(self, message):
        raise ScenarioError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="urbansst", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags of every command, and those of the two single-scenario commands
    every = argparse.ArgumentParser(add_help=False)
    every.add_argument("--budget", default=None, help="time:SECS or iters:N")
    every.add_argument("--out", required=True)
    every.add_argument("--set", action="append", default=[], help="dotted-path scenario override")
    single = argparse.ArgumentParser(add_help=False)
    single.add_argument("--scenario", required=True)
    single.add_argument("--mode", choices=("base", "dki"), default="dki")
    single.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("plan", parents=[single, every], help="run a single planning query from the scenario start")
    p.set_defaults(func=cmd_plan)
    p = sub.add_parser("simulate", parents=[single, every], help="closed-loop run with replanning")
    p.set_defaults(func=cmd_simulate)
    p = sub.add_parser("benchmark", parents=[every], help="scenario x mode x seed matrix with summary table")
    p.add_argument("--scenario", action="append", required=True)
    p.add_argument("--modes", default="base,dki")
    p.add_argument("--seeds", default="0", help="comma list or lo-hi range")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # benchmark takes --seeds instead
            raise ScenarioError(f"--seed: expected a non-negative integer, got {args.seed}")
        return args.func(args)
    except (OSError, ScenarioError, RouteExhaustedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
