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
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dki import plan_dki
from .road import RouteExhaustedError, compute_goal_region
from .sim import (
    Scenario,
    ScenarioError,
    build_scenario_grid,
    compute_metrics,
    load_scenario,
    metrics_to_dict,
    run_closed_loop,
    scenario_from_dict,
    simlog_to_csv,
    simlog_to_dict,
)
from .sst import plan


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _apply_overrides(data: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ScenarioError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = key.split(".")
        node = data
        try:
            for part in parts[:-1]:
                if part.isdigit() and isinstance(node, list):
                    node = node[int(part)]
                else:
                    node = node.setdefault(part, {})
            last = parts[-1]
            if last.isdigit() and isinstance(node, list):
                node[int(last)] = value
            else:
                node[last] = value
        except (AttributeError, IndexError, TypeError) as exc:
            raise ScenarioError(f"--set {key}: no such field") from exc
    return data


def _load(args) -> Scenario:
    with open(args.scenario, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return scenario_from_dict(_apply_overrides(data, getattr(args, "set", None)))


def _parse_budget(spec):
    if spec is None:
        return None
    kind, _, value = spec.partition(":")
    if kind == "time":
        return ("time", float(value))
    if kind == "iters":
        return ("iters", int(value))
    raise ScenarioError(f"--budget expects time:SECS or iters:N, got {spec!r}")


def _parse_seeds(spec: str):
    seeds = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if "-" in chunk.lstrip("-")[0:]:
            lo, _, hi = chunk.partition("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(chunk))
    return seeds


def cmd_plan(args) -> int:
    sc = _load(args)
    budget = _parse_budget(args.budget)
    grid = build_scenario_grid(sc)
    goal = compute_goal_region(
        sc.road, sc.ego_state, sc.goal_distance, sc.goal_threshold,
        lateral_band=sc.goal_lateral_band,
    )
    bx0, by0, bx1, by1 = goal.bbox
    m = sc.sampling_margin
    cfg = sc.planner
    if budget is not None:
        if budget[0] == "iters":
            cfg = replace(cfg, iteration_budget=budget[1], query_time=None)
        else:
            cfg = replace(cfg, iteration_budget=None, query_time=budget[1])
    cfg = cfg.with_bounds(
        (min(sc.ego_state.x, bx0) - m, max(sc.ego_state.x, bx1) + m),
        (min(sc.ego_state.y, by0) - m, max(sc.ego_state.y, by1) + m),
    )
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0)))
    if args.mode == "dki":
        result = plan_dki(
            sc.ego_state, 0.0, goal, grid, sc.world, sc.road, None,
            cfg, sc.dki, sc.weights, sc.ego_params, rng,
        )
    else:
        result = plan(sc.ego_state, 0.0, goal, grid, sc.world, cfg, sc.weights, sc.ego_params, rng)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stats = {
        "solved": result.solved,
        "cost": result.cost if math.isfinite(result.cost) else None,
        "iterations": result.iterations,
        "n_nodes": result.n_nodes,
        "n_witnesses": result.n_witnesses,
        "cost_history": result.cost_history,
    }
    _atomic_write(out / "tree_stats.json", json.dumps(stats, indent=2) + "\n")
    if result.solved:
        lines = ["t,x,y,theta,v,a,delta"]
        for s in result.trajectory.samples:
            a = repr(s.input.a) if s.input else ""
            d = repr(s.input.delta) if s.input else ""
            lines.append(f"{s.t!r},{s.state.x!r},{s.state.y!r},{s.state.theta!r},{s.state.v!r},{a},{d}")
        _atomic_write(out / "trajectory.csv", "\n".join(lines) + "\n")
        return 0
    return 2


def cmd_simulate(args) -> int:
    sc = _load(args)
    log = run_closed_loop(sc, args.mode, args.seed, budget=_parse_budget(args.budget))
    metrics = compute_metrics(log, sc) if log.ticks else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "simlog.json", json.dumps(simlog_to_dict(log), indent=2) + "\n")
    _atomic_write(out / "simlog.csv", simlog_to_csv(log))
    if metrics is not None:
        _atomic_write(out / "metrics.json", json.dumps(metrics_to_dict(metrics), indent=2) + "\n")
    return 3 if log.termination == "collision" else 0


def _run_cell(job):
    path, mode, seed, budget, overrides = job
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        sc = scenario_from_dict(_apply_overrides(data, overrides))
        log = run_closed_loop(sc, mode, seed, budget=budget)
        metrics = metrics_to_dict(compute_metrics(log, sc)) if log.ticks else None
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
    _atomic_write(out / "cells.json", json.dumps(cells, indent=2) + "\n")

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="urbansst", description=__doc__)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ScenarioError, RouteExhaustedError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
