#!/usr/bin/env python3
"""Closed-loop benchmark of the urbansst planner.

One client drives ``sim.run_closed_loop``: each planning query is issued
only after the previous tick has executed, with no wait in host time, in
a single process. The command prints every metric with its unit, checks
the outputs, and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics``. The gated times are scaled to a
reference host speed by the probe in hostspeed.py.

    python3 perfbench/run.py --workload lane_follow --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload vru_steer --trace 1   # per-layer run
    python3 perfbench/run.py                                  # every workload

perfbench/README.md explains the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from hostspeed import REFERENCE_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# workload -> (scenario file, planner mode, typical seconds per query on a
# 2-core x86 VM); the reasons for each workload are in BENCHMARK.json.
# A run simulates whole cells until it has timed ceil(--seconds / typical)
# queries. So the work in a run depends on the seed and on the planner's
# outputs, never on how fast the host happens to be. Counting queries, not
# cells, keeps the sample size comparable on roundabout_base, where a cell
# whose car leaves the road refuses every later query and ends after about
# 20 queries.
WORKLOADS = {
    "lane_follow": ("scenario_i_straight_road.json", "dki", 0.09),
    "vru_steer": ("scenario_iv_vru_steering.json", "dki", 1.1),
    "roundabout_base": ("scenario_iii_roundabout.json", "base", 0.2),
}
SETUP_PROBES = 5
# After each timed query the host-speed probe runs for this share of the
# query's time (at least once); hostspeed.py explains why.
PROBE_SHARE = 0.05
# An untraced run re-runs the first ticks of its first cell and requires
# the same CSV rows; a full repeat of a 30 s cell would not fit the run.
PREFIX_TICKS = 3
# Cell i of a run with --seed n simulates seed n * SEEDS_PER_RUN + i.
SEEDS_PER_RUN = 1000
# The reported tail is the highest percentile with this many queries beyond it.
TAIL_BEYOND = 10

UNITS = {
    "setup_s": "s",
    "setup_s_wall": "s",
    "host_probe_ms": "ms",
    "sim_wall_s": "s",
    "query_ms_p50": "ms",
    "query_ms_p50_wall": "ms",
    "query_ms_tail": "ms",
    "plan_iters_per_s": "1/s",
    "plan_iters_per_s_wall": "1/s",
    "replan_miss_ratio": "ratio",
    "peak_rss_mb": "MB",
    "solved_ratio": "ratio",
    "collision_count": "count",
    "progress_m": "m",
    "mean_lane_deviation_m": "m",
    "mean_abs_accel_mps2": "m/s2",
    "mean_speed_dev_mps": "m/s",
    "min_target_distance_m": "m",
}


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


@dataclass
class Cell:
    seed: int
    wall_s: float
    log: object
    report: object
    csv: str
    queries: list = field(default_factory=list)  # (seconds, PlanResult) of its timed queries
    probes: list = field(default_factory=list)  # seconds of each host-speed probe

    @property
    def host_factor(self) -> float:
        """Scales this cell's query times to a host that runs the probe in REFERENCE_S."""
        return REFERENCE_S / statistics.median(self.probes)

    @property
    def sha1(self) -> str:
        return hashlib.sha1(self.csv.encode()).hexdigest()


class QueryTimer:
    """Times every call to sim.plan and sim.plan_dki: two clock reads per query.

    With a `probe_share`, the host-speed probe runs after each query, outside
    its timed window, for that share of the query's time.
    """

    NAMES = ("plan", "plan_dki")

    def __init__(self, sim, probe_share: float = 0.0) -> None:
        missing = [n for n in self.NAMES if not callable(getattr(sim, n, None))]
        if missing:
            raise RuntimeError(f"urbansst.sim has no {', '.join(missing)}: queries cannot be timed")
        self.sim = sim
        self.samples: list = []  # (seconds, PlanResult)
        self.rejected = 0  # calls that raised, such as InvalidStartError
        self.probe_share = probe_share
        self.probes: list = []  # seconds of each host-speed probe
        self._originals: dict = {}

    def __enter__(self) -> "QueryTimer":
        for name in self.NAMES:
            fn = getattr(self.sim, name)
            self._originals[name] = fn
            setattr(self.sim, name, self._timed(fn))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._originals.items():
            setattr(self.sim, name, fn)

    def _timed(self, fn):
        samples = self.samples
        clock = time.perf_counter
        share, probes = self.probe_share, self.probes

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.rejected += 1
                raise
            dt = clock() - t0
            samples.append((dt, result))
            if share:
                probe(share * dt, probes)
            return result

        return timed


def run_cell(sim, sc, mode: str, seed: int) -> Cell:
    t0 = time.perf_counter()
    log = sim.run_closed_loop(sc, mode, seed)
    wall = time.perf_counter() - t0
    return Cell(seed, wall, log, sim.compute_metrics(log, sc), sim.simlog_to_csv(log))


def measure(sim, sc, mode: str, seeds, n_queries: int, timer, failures: dict) -> tuple:
    """Run cells for successive seeds until `n_queries` queries were timed.

    Returns the cells, the time taken and the number of cells attempted; a
    cell that raises or times no query is recorded in `failures` and ends
    the measurement.
    """
    cells = []
    t0 = time.perf_counter()
    for i, seed in enumerate(seeds):
        n0, p0 = len(timer.samples), len(timer.probes)
        try:
            cells.append(run_cell(sim, sc, mode, seed))
        except Exception:
            failures[f"cell {i} (seed {seed})"] = f"raised:\n{traceback.format_exc()}"
            return cells, time.perf_counter() - t0, i + 1
        cells[-1].queries = timer.samples[n0:]
        cells[-1].probes = timer.probes[p0:]
        if not cells[-1].queries:
            failures[f"cell {i} (seed {seed})"] = "no query was timed: run_closed_loop called neither sim.plan nor sim.plan_dki"
            break
        if len(timer.samples) >= n_queries:
            break
    return cells, time.perf_counter() - t0, len(cells)


def check_cell(sc, cell: Cell, grid) -> list:
    """Problems with a cell's closed-loop log; an empty list means it is correct.

    Beyond the tick bookkeeping, every returned plan must be reproduced by
    the vehicle model from its own inputs, and every integration substate
    must lie on the road and clear of every predicted object.
    """
    from urbansst.geometry import obb_overlap
    from urbansst.vehicle import propagate

    log = cell.log
    cfg = sc.planner
    p = sc.ego_params
    dt_tick = 1.0 / sc.replan_rate
    if not log.ticks:
        return ["no ticks"]
    problems = []
    for k, tick in enumerate(log.ticks):
        where = f"seed {cell.seed} tick {k}"
        if abs(tick.t - k * dt_tick) > 1e-9:
            problems.append(f"{where}: t is {tick.t}")
        if k > 0 and tick.state != log.ticks[k - 1].exec_states[-1].state:
            problems.append(f"{where}: start state does not continue the previous tick")
        if tick.solved != (tick.planned is not None) or tick.solved == tick.fallback:
            problems.append(f"{where}: solved/fallback/plan disagree")
        if tick.planned is None:
            continue
        samples = tick.planned.samples
        if samples[0].state != tick.state or samples[0].t != tick.t or not math.isfinite(tick.cost):
            problems.append(f"{where}: plan does not start at the tick state or has no cost")
        for a, b in zip(samples, samples[1:]):
            if b.input is None or abs(b.t - a.t - cfg.t_prop) > 1e-9:
                problems.append(f"{where}: plan edge at t={a.t} has no input or wrong duration")
                break
            states = propagate(a.state, b.input, cfg.t_prop, cfg.t_step, p)
            end = states[-1]
            err = max(
                abs(end.x - b.state.x),
                abs(end.y - b.state.y),
                abs(math.remainder(end.theta - b.state.theta, math.tau)),
                abs(end.v - b.state.v),
            )
            if err > 1e-9:
                problems.append(f"{where}: plan edge at t={a.t} is off the vehicle model by {err}")
            for j, s in enumerate(states, 1):
                t = a.t + j * cfg.t_step
                if grid.lookup(s.x, s.y) >= grid.p_invalid:
                    problems.append(f"{where}: plan leaves the road at t={t}")
                for obj in sc.world.objects:
                    ox, oy, oth = obj.pose_at(t)
                    if obb_overlap(s.x, s.y, s.theta, p.length, p.width, ox, oy, oth, obj.length, obj.width):
                        problems.append(f"{where}: plan hits {obj.id} at t={t}")
    return problems


def setup_seconds(scenario: Path) -> list:
    """(set-up seconds, median probe seconds) of cold set-ups, each in a fresh interpreter."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(scenario)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        setup_s, probe_s = map(float, proc.stdout.strip().splitlines()[-1].split())
        out.append((setup_s, probe_s))
    return out


def tail_index(n: int) -> int:
    return max(0, n - TAIL_BEYOND - 1)


def end_to_end_metrics(sc, cells: list, setup: list) -> dict:
    secs = sorted(t for c in cells for t, _ in c.queries)
    scaled = [t * c.host_factor for c in cells for t, _ in c.queries]
    reports = [c.report for c in cells]
    lane = [r.mean_lane_deviation for r in reports if not math.isnan(r.mean_lane_deviation)]
    accel = [r.mean_abs_acceleration for r in reports if not math.isnan(r.mean_abs_acceleration)]
    speed = [r.mean_speed_deviation for r in reports if not math.isnan(r.mean_speed_deviation)]
    targets = [r.min_target_distance for r in reports if r.min_target_distance is not None]
    return {
        # the gated times are scaled to the reference host speed; the _wall
        # figures are as the clock read them
        "setup_s": statistics.median(s * REFERENCE_S / p for s, p in setup),
        "setup_s_wall": statistics.median(s for s, _ in setup),
        "host_probe_ms": 1000.0 * statistics.median(p for c in cells for p in c.probes),
        "sim_wall_s": statistics.median(c.wall_s for c in cells),
        "query_ms_p50": 1000.0 * statistics.median(scaled),
        "query_ms_p50_wall": 1000.0 * statistics.median(secs),
        "query_ms_tail": 1000.0 * secs[tail_index(len(secs))],
        # the median over queries of each query's iterations over its time
        "plan_iters_per_s": statistics.median(
            r.iterations / (t * c.host_factor) for c in cells for t, r in c.queries
        ),
        "plan_iters_per_s_wall": statistics.median(r.iterations / t for c in cells for t, r in c.queries),
        "replan_miss_ratio": sum(s > 1.0 / sc.replan_rate for s in secs) / len(secs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solved_ratio": sum(r.n_solved for r in reports) / sum(r.n_ticks for r in reports),
        "collision_count": sum(r.collision_count for r in reports),
        "progress_m": statistics.fmean(r.progress_distance for r in reports),
        "mean_lane_deviation_m": statistics.fmean(lane) if lane else math.nan,
        "mean_abs_accel_mps2": statistics.fmean(accel) if accel else math.nan,
        "mean_speed_dev_mps": statistics.fmean(speed) if speed else math.nan,
        "min_target_distance_m": min(targets) if targets else None,
    }


def per_layer_metrics(tracer, cells: list, timer: QueryTimer, traced_s: float, overhead_pct: float) -> dict:
    reps = len(cells)

    def per_cell(x):
        v = x / reps
        return int(v) if float(v).is_integer() else v

    def share(part, whole):
        return part / whole if whole else 0.0

    st = tracer.stats
    m = {}
    for name, s in st.items():
        m[f"{name}.calls"] = per_cell(s.calls)
        m[f"{name}.self_pct"] = 100.0 * s.self_s / traced_s
        m[f"{name}.inclusive_pct"] = 100.0 * s.inclusive_s / traced_s
    m["sst.try_insert.dominated_ratio"] = share(st["sst.try_insert"].none_results, st["sst.try_insert"].calls)
    m["sst.propagate_checked.reject_ratio"] = share(
        st["sst.propagate_checked"].none_results, st["sst.propagate_checked"].calls
    )
    seeding = ("dki.seed_lane_branch", "dki.seed_previous_branch")
    for name in seeding:
        m[f"{name}.nodes_added"] = per_cell(st[name].nodes_added)
    results = [r for _, r in timer.samples]
    m["dki.iterations_share"] = share(
        sum(st[name].iterations for name in seeding), sum(r.iterations for r in results)
    )
    m["sst.n_nodes_mean"] = statistics.fmean(r.n_nodes for r in results)
    m["sst.n_witnesses_mean"] = statistics.fmean(r.n_witnesses for r in results)
    m["trace.overhead_pct"] = overhead_pct
    return m


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, allow_nan=False) + "\n")
    tmp.replace(path)


def finite_or_none(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple:
    """Run one workload; returns the report lines and the result object."""
    scenario_file, mode, query_s = WORKLOADS[name]
    n_queries = max(1, math.ceil(seconds / query_s))
    scenario = ROOT / "scenarios" / scenario_file
    sys.path.insert(0, str(SRC))
    import urbansst.sim as sim
    from tracing import Tracer

    setup = [] if trace else setup_seconds(scenario)
    sc = sim.load_scenario(scenario)
    grid = sim.build_scenario_grid(sc)
    seed0 = seed * SEEDS_PER_RUN
    failures: dict = {}  # failed operation -> why
    lines = [f"workload {name}: {scenario_file} in {mode} mode, seed {seed}, trace {int(trace)}"]

    if trace:
        # The untraced reference gives the tracing overhead and the sha1
        # every traced repeat of the same cell must match.
        reference = run_cell(sim, sc, mode, seed0)
        checked = [("reference", reference)]
        with Tracer() as tracer, QueryTimer(sim) as timer:
            cells, traced_s, attempted = measure(sim, sc, mode, itertools.repeat(seed0), n_queries, timer, failures)
        attempted += 1
        for i, c in enumerate(cells):
            if c.sha1 != reference.sha1:
                failures[f"cell {i}"] = f"traced simlog.csv sha1 {c.sha1} != untraced {reference.sha1}"
    else:
        prefix = run_cell(sim, replace(sc, duration=PREFIX_TICKS / sc.replan_rate), mode, seed0)
        with QueryTimer(sim, PROBE_SHARE) as timer:
            cells, _, attempted = measure(sim, sc, mode, itertools.count(seed0), n_queries, timer, failures)
        checked = []
        if cells and not cells[0].csv.startswith(prefix.csv):
            failures["cell 0"] = f"the first {PREFIX_TICKS} ticks of seed {seed0} differ on repeat"
    checked += [(f"cell {i}", c) for i, c in enumerate(cells)]
    for key, c in checked:
        problems = check_cell(sc, c, grid)
        if problems:
            failures[key] = "; ".join(problems[:5])

    metrics: dict = {}
    if not cells or not timer.samples:
        failures.setdefault("run", "no cell was measured")
    elif trace:
        overhead_pct = 100.0 * (statistics.median(c.wall_s for c in cells) / reference.wall_s - 1.0)
        metrics = per_layer_metrics(tracer, cells, timer, traced_s, overhead_pct)
        lines.append(f"per layer over {len(cells)} traced repeat(s) of seed {seed0}, {traced_s:.3f} s traced:")
        lines.append(f"  {'layer':<28} {'calls/cell':>12} {'incl s':>10} {'self s':>10} {'self %':>7}")
        for lname, s in tracer.stats.items():
            lines.append(
                f"  {lname:<28} {metrics[lname + '.calls']:>12} {s.inclusive_s:>10.3f} "
                f"{s.self_s:>10.3f} {metrics[lname + '.self_pct']:>7.2f}"
            )
        lines += [
            f"  {k:<36} {v!r} {layer_unit(k)}"
            for k, v in metrics.items()
            if not k.endswith((".calls", "_pct")) or k == "trace.overhead_pct"
        ]
        if tracer.absent:
            lines.append(f"absent hook targets, reported as 0: {', '.join(tracer.absent)}")
        write_json(OUT / f"trace-{name}-seed{seed}.json", {
            "workload": name, "seed": seed, "cell_seed": seed0, "repeats": len(cells),
            "reference_wall_s": reference.wall_s, "traced_wall_s": [c.wall_s for c in cells],
            "traced_s": traced_s, "overhead_pct": overhead_pct, "absent": tracer.absent,
            "layers": tracer.layers(), "spans": tracer.spans,
        })
    else:
        metrics = end_to_end_metrics(sc, cells, setup)
        n = len(timer.samples)
        tail_pct = math.floor(100.0 * (tail_index(n) + 1) / n)
        lines.append(
            f"{n} queries timed, {timer.rejected} refused by the planner (InvalidStartError); "
            f"query_ms_tail is p{tail_pct} of {n}"
        )
        lines += [f"  {k:<24} {v!r:>24} {UNITS[k]}" for k, v in metrics.items()]

    listed = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if finite_or_none(metrics.get(m["name"])) is None]
    if metrics and missing:
        failures["run"] = f"metrics not measured: {', '.join(missing)}"
    for key, c in checked:
        lines.append(f"  {key}, seed {c.seed}: {c.wall_s:.3f} s, {len(c.log.ticks)} ticks, "
                     f"{c.log.termination}, simlog.csv sha1 {c.sha1}")
    lines += [f"FAILED {key}: {why}" for key, why in failures.items()]
    write_json(OUT / f"run-{name}-seed{seed}-trace{int(trace)}.json", {
        "workload": name, "seed": seed, "trace": int(trace),
        "metrics": {k: finite_or_none(v) for k, v in metrics.items()},
        "cells": [
            {"cell": key, "seed": c.seed, "wall_s": c.wall_s, "ticks": len(c.log.ticks),
             "termination": c.log.termination, "simlog_csv_sha1": c.sha1}
            for key, c in checked
        ],
        "failures": failures,
    })
    unit_of = layer_unit if trace else UNITS.get
    result = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": min(len(failures), max(attempted, 1)),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": unit_of(m["name"])}
            for m in listed
            if m["name"] not in missing
        },
    }
    return lines, result


def run_all(args) -> int:
    """Every workload in its own process, so that peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        status = status or proc.returncode
        try:
            res = json.loads(out[-1])
        except (IndexError, json.JSONDecodeError):
            total["correct"] = False
            total["failed"] += 1
            continue
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "urbansst" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"run.py: needs {SRC}/urbansst and {spec_path}; run it from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads(spec_path.read_text())
    try:
        lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except Exception:  # the benchmark's own boundary: report the run as failed
        traceback.print_exc()
        lines, result = [], {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print("\n".join(lines), flush=True)
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
