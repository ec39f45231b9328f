"""Command-line frontend: single queries, closed-loop runs, benchmarks.

Exit codes are the machine contract: 0 success, 1 error, 2 query unsolved
(plan), 3 collision (simulate). Output files are written atomically
(write-then-rename) so interrupted runs never leave partial CSVs.
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


def _atomic_write(path: Path, text: str) -> None:
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
    """--seeds "0,3,5-7" as a list of non-negative seeds; ranges are inclusive."""
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
        seeds.extend(range(first, last + 1))
    return seeds


def cmd_plan(args) -> int:
    sc = load_scenario(args.scenario, args.set)
    result = plan_query(
        sc, args.mode, build_scenario_grid(sc), sc.ego_state, 0.0, (args.seed, 0), _parse_budget(args.budget)
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stats = {
        "solved": result.solved,
        "cost": result.cost,
        "iterations": result.iterations,
        "n_nodes": result.n_nodes,
        "n_witnesses": result.n_witnesses,
        "cost_history": result.cost_history,
    }
    _write_json(out / "tree_stats.json", stats)
    if result.solved:
        lines = ["t,x,y,theta,v,a,delta"]
        for s in result.trajectory.samples:
            u = map(repr, s.input) if s.input else ("", "")
            lines.append(",".join((repr(s.t), *map(repr, s.state), *u)))
        _atomic_write(out / "trajectory.csv", "\n".join(lines) + "\n")
        return 0
    return 2


def cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario, args.set)
    log = run_closed_loop(sc, args.mode, args.seed, budget=_parse_budget(args.budget))
    metrics = compute_metrics(log, sc) if log.ticks else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "simlog.json", simlog_to_dict(log))
    _atomic_write(out / "simlog.csv", simlog_to_csv(log))
    if metrics is not None:
        _write_json(out / "metrics.json", asdict(metrics))
    return 3 if log.termination == "collision" else 0


def _run_cell(job):
    path, mode, seed, budget, overrides = job
    try:
        sc = load_scenario(path, overrides)
        log = run_closed_loop(sc, mode, seed, budget=budget)
        metrics = asdict(compute_metrics(log, sc)) if log.ticks else None
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
    budget = _parse_budget(args.budget)
    seeds = _parse_seeds(args.seeds)
    modes = args.modes.split(",")
    jobs = [
        (path, mode, seed, budget, args.set)
        for path in args.scenario
        for mode in modes
        for seed in seeds
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_cell, jobs))
    else:
        results = [_run_cell(j) for j in jobs]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cells = []
    failed = 0
    for name, mode, seed, metrics, termination, error in results:
        cells.append(
            {
                "scenario": name, "mode": mode, "seed": seed,
                "metrics": metrics, "termination": termination, "error": error,
            }
        )
        if error is not None:
            failed += 1
            print(f"cell failed: {name}/{mode}/seed{seed}: {error}", file=sys.stderr)
    _write_json(out / "cells.json", cells)

    lines = ["scenario,metric,base,dki,gain_pct"]
    for name in sorted({c["scenario"] for c in cells}):
        per_mode = {}
        for mode in ("base", "dki"):
            vals = {k: [] for k in _GAIN_METRICS}
            for c in cells:
                if c["scenario"] == name and c["mode"] == mode and c["metrics"]:
                    for k in _GAIN_METRICS:
                        v = c["metrics"].get(k)
                        if v is not None and not (isinstance(v, float) and math.isnan(v)):
                            vals[k].append(v)
            per_mode[mode] = {k: (sum(v) / len(v) if v else None) for k, v in vals.items()}
        for metric, sense in _GAIN_METRICS.items():
            b = per_mode.get("base", {}).get(metric)
            d = per_mode.get("dki", {}).get(metric)
            if b is not None and d is not None and b != 0:
                gain = (b - d) / b * 100.0 if sense == "lower" else (d - b) / b * 100.0
                gain_s = f"{gain:.2f}"
            else:
                gain_s = ""
            b_s = f"{b:.6f}" if b is not None else ""
            d_s = f"{d:.6f}" if d is not None else ""
            lines.append(f"{name},{metric},{b_s},{d_s},{gain_s}")
    _atomic_write(out / "summary.csv", "\n".join(lines) + "\n")
    return 0 if failed == 0 else 1


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ScenarioErrors, so that they exit 1 and
    not argparse's 2, which means "query unsolved"; subparsers share the class."""

    def error(self, message):
        raise ScenarioError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="urbansst", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="run a single planning query from the scenario start")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", choices=("base", "dki"), default="dki")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", default=None, help="time:SECS or iters:N")
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", default=[], help="dotted-path scenario override")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="closed-loop run with replanning")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", choices=("base", "dki"), default="dki")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", default=[])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("benchmark", help="scenario x mode x seed matrix with summary table")
    p.add_argument("--scenario", action="append", required=True)
    p.add_argument("--modes", default="base,dki")
    p.add_argument("--seeds", default="0", help="comma list or lo-hi range")
    p.add_argument("--budget", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", default=[])
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
