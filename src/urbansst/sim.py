"""Scenario files, deterministic closed-loop simulation, and metrics.

A scenario is a JSON document with sections road / ego / objects /
weights / planner / dki / goal / grid / sim; omitted parameters fall back
to the tuned defaults baked into the config dataclasses. The closed loop
replans at a fixed rate and executes the planned inputs open-loop on the
same kinematic model the planner uses, which isolates planner quality
from tracking-controller effects.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .cost import CostWeights
from .dki import DkiConfig, plan_dki
from .objects import FieldParams, ObjectPrediction, PoseMemo, WorldModel, object_hit
from .road import (
    DEFAULT_GRID_RESOLUTION,
    Lane,
    PenaltyGrid,
    RoadNetwork,
    RouteExhaustedError,
    build_penalty_grid,
    compute_goal_region,
    nearest_lane_center,
)
from .sst import InvalidStartError, PlannerConfig, PlanResult, plan
from .vehicle import ControlInput, TimedState, Trajectory, VehicleParams, VehicleState, step

FOOTPRINT_DEFAULTS = {
    "pedestrian": (0.6, 0.6),
    "vehicle": (4.0, 2.0),
}
FIELD_DEFAULTS = {"amplitude": 100.0, "sigma_x": 3.0, "sigma_y": 2.0}


class ScenarioError(ValueError):
    """Scenario file failed parsing or semantic validation."""


@dataclass
class Scenario:
    name: str
    road: RoadNetwork
    ego_state: VehicleState
    ego_params: VehicleParams
    world: WorldModel
    weights: CostWeights
    planner: PlannerConfig
    dki: DkiConfig
    goal_distance: float = 30.0
    goal_threshold: float = 2.0
    goal_lateral_band: float = 6.0
    duration: float = 10.0
    replan_rate: float = 2.0
    grid_resolution: float = DEFAULT_GRID_RESOLUTION
    p_max: float = 100.0
    p_invalid: float = 99.0
    sampling_margin: float = 15.0
    metrics_mode: str = "pooled"

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise ScenarioError("sim.duration: must be positive")
        if self.replan_rate <= 0.0:
            raise ScenarioError("sim.replan_rate: must be positive")
        if self.sampling_margin < 0.0:
            raise ScenarioError("sim.sampling_margin: must not be negative")
        if self.metrics_mode not in ("pooled", "per_trajectory"):
            raise ScenarioError("sim.metrics_mode: must be 'pooled' or 'per_trajectory'")


def _section(data: dict, key: str, prefix: str = "") -> dict:
    sec = data.get(key, {})
    if not isinstance(sec, dict):
        raise ScenarioError(f"{prefix}{key}: expected an object")
    return sec


def _items(data: dict, key: str, prefix: str = "") -> list:
    items = data.get(key, [])
    if not isinstance(items, list):
        raise ScenarioError(f"{prefix}{key}: expected a list")
    return items


_REQUIRED = object()


def _num(sec: dict, key: str, default, prefix: str = "", kind=float):
    """sec[key], or default if absent, as a finite number of `kind` (float or int).

    A default of None makes the field optional: an absent or null value
    gives None. A default of _REQUIRED makes it mandatory.
    """
    value = sec.get(key, default)
    if value is _REQUIRED:
        raise ScenarioError(f"{prefix}{key}: required")
    if value is None and default is None:
        return None
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    if not ok:
        expected = "an integer" if kind is int else "a finite number"
        raise ScenarioError(f"{prefix}{key}: expected {expected}, got {value!r}")
    return kind(value)


def _build(where: str, cls, **kwargs):
    """cls(**kwargs), with its validation error named after the section."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected an object")
    try:
        road_sec = data.get("road")
        if not isinstance(road_sec, dict):
            raise ScenarioError("road: section is required")
        lanes = []
        for i, ld in enumerate(_items(road_sec, "lanes", "road.")):
            where = f"road.lanes[{i}]"
            if not isinstance(ld, dict):
                raise ScenarioError(f"{where}: expected an object")
            width = _num(ld, "width", _REQUIRED, f"{where}.")
            try:
                lanes.append(
                    Lane(
                        id=str(ld["id"]),
                        width=width,
                        centerline=ld["centerline"],
                        successors=[str(s) for s in ld.get("successors", [])],
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ScenarioError(f"{where}: {exc}") from exc
        try:
            road = RoadNetwork(lanes, road_sec.get("route", []))
        except ValueError as exc:
            raise ScenarioError(f"road: {exc}") from exc

        ego = _section(data, "ego")
        st = _section(ego, "state", "ego.")
        ego_state = VehicleState(*(_num(st, k, 0.0, "ego.state.") for k in ("x", "y", "theta", "v")))
        pd = _section(ego, "params", "ego.")
        ego_params = _build(
            "ego.params", VehicleParams,
            wheelbase=_num(pd, "wheelbase", 2.7, "ego.params."),
            length=_num(pd, "length", 4.0, "ego.params."),
            width=_num(pd, "width", 2.0, "ego.params."),
            v_bounds=tuple(pd.get("v_bounds", (0.0, 6.0))),
            a_bounds=tuple(pd.get("a_bounds", (-0.8, 0.8))),
            delta_bounds=tuple(pd.get("delta_bounds", (-0.4, 0.4))),
        )

        objects = []
        fields = []
        for i, od in enumerate(_items(data, "objects")):
            where = f"objects[{i}]"
            if not isinstance(od, dict):
                raise ScenarioError(f"{where}: expected an object")
            otype = od.get("type", "vehicle")
            fl, fw = FOOTPRINT_DEFAULTS.get(otype, FOOTPRINT_DEFAULTS["vehicle"])
            fp = _section(od, "footprint", f"{where}.")
            length = _num(fp, "length", fl, f"{where}.footprint.")
            width = _num(fp, "width", fw, f"{where}.footprint.")
            fd = _section(od, "field", f"{where}.")
            field_args = {k: _num(fd, k, d, f"{where}.field.") for k, d in FIELD_DEFAULTS.items()}
            try:
                objects.append(
                    ObjectPrediction(str(od.get("id", f"object{i}")), length, width, od["poses"])
                )
                fields.append(FieldParams(**field_args))
            except (KeyError, TypeError, ValueError) as exc:
                raise ScenarioError(f"{where}: {exc}") from exc
        world = WorldModel(objects, fields)

        wd = _section(data, "weights")
        weights = _build(
            "weights", CostWeights,
            path_length=_num(wd, "path_length", 0.05, "weights."),
            desired_velocity=_num(wd, "desired_velocity", 0.5, "weights."),
            penalty_grid=_num(wd, "penalty_grid", 0.2, "weights."),
            target_clearance=_num(wd, "target_clearance", 2.0, "weights."),
            v_desired=_num(wd, "v_desired", 5.0, "weights."),
        )

        pl = _section(data, "planner")
        planner = _build(
            "planner", PlannerConfig,
            iteration_budget=_num(pl, "iteration_budget", None, "planner.", int),
            query_time=_num(pl, "query_time", None, "planner."),
            d_near=_num(pl, "d_near", 0.2, "planner."),
            d_prune=_num(pl, "d_prune", 0.1, "planner."),
            t_prop=_num(pl, "t_prop", 0.4, "planner."),
            t_step=_num(pl, "t_step", 0.04, "planner."),
            sigma_a=_num(pl, "sigma_a", 0.8, "planner."),
            sigma_delta=_num(pl, "sigma_delta", 0.2, "planner."),
            v_bounds=ego_params.v_bounds,
            metric_xy_scale=_num(pl, "metric_xy_scale", 10.0, "planner."),
            rng_seed=_num(pl, "rng_seed", 0, "planner.", int),
        )
        if planner.iteration_budget is None and planner.query_time is None:
            planner = replace(planner, iteration_budget=2000)

        dk = _section(data, "dki")
        dki = _build(
            "dki", DkiConfig,
            d_lookahead=_num(dk, "d_lookahead", 3.0, "dki."),
            d_branch_max=_num(dk, "d_branch_max", 40.0, "dki."),
            n_candidates=_num(dk, "n_candidates", 100, "dki.", int),
            d_reuse=_num(dk, "d_reuse", 1.0, "dki."),
        )

        goal = _section(data, "goal")
        grid = _section(data, "grid")
        sim = _section(data, "sim")
        return Scenario(
            name=str(data.get("name", "scenario")),
            road=road,
            ego_state=ego_state,
            ego_params=ego_params,
            world=world,
            weights=weights,
            planner=planner,
            dki=dki,
            goal_distance=_num(goal, "distance", 30.0, "goal."),
            goal_threshold=_num(goal, "threshold", 2.0, "goal."),
            goal_lateral_band=_num(goal, "lateral_band", 6.0, "goal."),
            duration=_num(sim, "duration", 10.0, "sim."),
            replan_rate=_num(sim, "replan_rate", 2.0, "sim."),
            grid_resolution=_num(grid, "resolution", DEFAULT_GRID_RESOLUTION, "grid."),
            p_max=_num(grid, "p_max", 100.0, "grid."),
            p_invalid=_num(grid, "p_invalid", 99.0, "grid."),
            sampling_margin=_num(sim, "sampling_margin", 15.0, "sim."),
            metrics_mode=str(sim.get("metrics_mode", "pooled")),
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(data)


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "name": sc.name,
        "road": {
            "lanes": [
                {
                    "id": lane.id,
                    "width": lane.width,
                    "centerline": [[p.x, p.y] for p in lane.centerline],
                    "successors": list(lane.successors),
                }
                for lane in sc.road.lanes
            ],
            "route": list(sc.road.route),
        },
        "ego": {
            "state": {
                "x": sc.ego_state.x,
                "y": sc.ego_state.y,
                "theta": sc.ego_state.theta,
                "v": sc.ego_state.v,
            },
            "params": {
                "wheelbase": sc.ego_params.wheelbase,
                "length": sc.ego_params.length,
                "width": sc.ego_params.width,
                "v_bounds": list(sc.ego_params.v_bounds),
                "a_bounds": list(sc.ego_params.a_bounds),
                "delta_bounds": list(sc.ego_params.delta_bounds),
            },
        },
        "objects": [
            {
                "id": obj.id,
                "footprint": {"length": obj.length, "width": obj.width},
                "poses": [list(p) for p in obj.poses],
                "field": {
                    "amplitude": fp.amplitude,
                    "sigma_x": fp.sigma_x,
                    "sigma_y": fp.sigma_y,
                },
            }
            for obj, fp in zip(sc.world.objects, sc.world.fields)
        ],
        "weights": {
            "path_length": sc.weights.path_length,
            "desired_velocity": sc.weights.desired_velocity,
            "penalty_grid": sc.weights.penalty_grid,
            "target_clearance": sc.weights.target_clearance,
            "v_desired": sc.weights.v_desired,
        },
        "planner": {
            "iteration_budget": sc.planner.iteration_budget,
            "query_time": sc.planner.query_time,
            "d_near": sc.planner.d_near,
            "d_prune": sc.planner.d_prune,
            "t_prop": sc.planner.t_prop,
            "t_step": sc.planner.t_step,
            "sigma_a": sc.planner.sigma_a,
            "sigma_delta": sc.planner.sigma_delta,
            "metric_xy_scale": sc.planner.metric_xy_scale,
            "rng_seed": sc.planner.rng_seed,
        },
        "dki": {
            "d_lookahead": sc.dki.d_lookahead,
            "d_branch_max": sc.dki.d_branch_max,
            "n_candidates": sc.dki.n_candidates,
            "d_reuse": sc.dki.d_reuse,
        },
        "goal": {
            "distance": sc.goal_distance,
            "threshold": sc.goal_threshold,
            "lateral_band": sc.goal_lateral_band,
        },
        "grid": {
            "resolution": sc.grid_resolution,
            "p_max": sc.p_max,
            "p_invalid": sc.p_invalid,
        },
        "sim": {
            "duration": sc.duration,
            "replan_rate": sc.replan_rate,
            "sampling_margin": sc.sampling_margin,
            "metrics_mode": sc.metrics_mode,
        },
    }


def build_scenario_grid(sc: Scenario) -> PenaltyGrid:
    """Penalty grid covering every lane band; out-of-grid lookups are p_max anyway."""
    xs = [p.x for lane in sc.road.lanes for p in lane.centerline]
    ys = [p.y for lane in sc.road.lanes for p in lane.centerline]
    margin = max(lane.width for lane in sc.road.lanes) / 2 + 2 * sc.grid_resolution
    bounds = (min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin)
    return build_penalty_grid(sc.road, bounds, sc.grid_resolution, sc.p_max, sc.p_invalid)


@dataclass
class TickRecord:
    index: int
    t: float
    state: VehicleState
    solved: bool
    fallback: bool
    cost: float
    iterations: int
    n_nodes: int
    a_cmd: float
    delta_cmd: float
    planned: Optional[Trajectory]
    exec_states: list = field(default_factory=list)


@dataclass
class SimLog:
    scenario: str
    mode: str
    seed: int
    ticks: list = field(default_factory=list)
    collisions: list = field(default_factory=list)
    termination: str = ""


def _plan_input_at(traj: Trajectory, t: float) -> ControlInput:
    """Input the plan applies at absolute time t; held constant per edge."""
    samples = traj.samples
    for i in range(1, len(samples)):
        if t < samples[i].t - 1e-12:
            return samples[i].input
    last = samples[-1].input
    return last if last is not None else ControlInput(0.0, 0.0)


def rollout_inputs(
    state: VehicleState,
    t0: float,
    duration: float,
    input_at,
    ts: float,
    params: VehicleParams,
):
    """Integrate input_at(t) from t0 for duration; a trailing partial step
    covers replan intervals that are not integer multiples of ts."""
    out = []
    cur = state
    t = t0
    remaining = duration
    while remaining > 1e-12:
        dt = ts if remaining >= ts - 1e-12 else remaining
        u = input_at(t)
        cur = step(cur, u, dt, params)
        t = t0 + (duration - (remaining - dt))
        remaining -= dt
        out.append(TimedState(cur, t, u))
    return out


def _first_collision(states, world: WorldModel, params: VehicleParams):
    poses = PoseMemo(world, params.length, params.width)
    for i, ts_ in enumerate(states):
        s = ts_.state
        obj = object_hit(s.x, s.y, s.theta, params.length, params.width, poses.at(ts_.t))
        if obj is not None:
            return i, obj
    return None


def run_closed_loop(sc: Scenario, mode: str, seed: int, budget=None) -> SimLog:
    """Replan at the configured rate and execute the plan open-loop.

    mode is "base" or "dki". budget optionally overrides the planner budget
    as ("iters", n) or ("time", seconds). On a failed query the vehicle
    falls back to full braking with zero steering for one interval.
    """
    if mode not in ("base", "dki"):
        raise ValueError("mode must be 'base' or 'dki'")
    log = SimLog(scenario=sc.name, mode=mode, seed=seed)
    grid = build_scenario_grid(sc)
    route = sc.road.route_path
    params = sc.ego_params
    dt_tick = 1.0 / sc.replan_rate
    base_cfg = sc.planner
    if budget is not None:
        kind, value = budget
        if kind == "iters":
            base_cfg = replace(base_cfg, iteration_budget=int(value), query_time=None)
        elif kind == "time":
            base_cfg = replace(base_cfg, iteration_budget=None, query_time=float(value))
        else:
            raise ValueError("budget must be ('iters', n) or ('time', seconds)")

    ego = sc.ego_state
    s_prev, _ = route.project(ego.x, ego.y)
    prev_traj: Optional[Trajectory] = None
    k = 0
    log.termination = "duration"
    while k * dt_tick < sc.duration - 1e-9:
        t = k * dt_tick
        hit = _first_collision([TimedState(ego, t)], sc.world, params)
        if hit is not None:
            log.collisions.append((t, hit[1].id))
            log.termination = "collision"
            break
        try:
            goal = compute_goal_region(
                sc.road, ego, sc.goal_distance, sc.goal_threshold,
                s_hint=s_prev, lateral_band=sc.goal_lateral_band,
            )
        except RouteExhaustedError:
            log.termination = "route_exhausted"
            break
        bx0, by0, bx1, by1 = goal.bbox
        m = sc.sampling_margin
        cfg = base_cfg.with_bounds(
            (min(ego.x, bx0) - m, max(ego.x, bx1) + m),
            (min(ego.y, by0) - m, max(ego.y, by1) + m),
        )
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        try:
            if mode == "dki":
                result = plan_dki(
                    ego, t, goal, grid, sc.world, sc.road, prev_traj,
                    cfg, sc.dki, sc.weights, params, rng,
                )
            else:
                result = plan(ego, t, goal, grid, sc.world, cfg, sc.weights, params, rng)
        except InvalidStartError:
            result = PlanResult(False, None, math.inf, 0, 0.0, 0, 0)

        if result.solved:
            fallback = False
            traj = result.trajectory
            exec_states = rollout_inputs(
                ego, t, dt_tick, lambda tau: _plan_input_at(traj, tau), cfg.t_step, params
            )
            first_u = _plan_input_at(traj, t)
            prev_traj = traj
        else:
            fallback = True
            brake = ControlInput(params.a_bounds[0], 0.0)
            exec_states = rollout_inputs(ego, t, dt_tick, lambda tau: brake, cfg.t_step, params)
            first_u = brake

        hit = _first_collision(exec_states, sc.world, params)
        if hit is not None:
            exec_states = exec_states[: hit[0] + 1]
        tick = TickRecord(
            index=k,
            t=t,
            state=ego,
            solved=result.solved,
            fallback=fallback,
            cost=result.cost,
            iterations=result.iterations,
            n_nodes=result.n_nodes,
            a_cmd=first_u.a,
            delta_cmd=first_u.delta,
            planned=result.trajectory,
            exec_states=exec_states,
        )
        log.ticks.append(tick)
        if hit is not None:
            log.collisions.append((exec_states[-1].t, hit[1].id))
            log.termination = "collision"
            break
        ego = exec_states[-1].state
        s_prev, _ = route.project(ego.x, ego.y, s_window=(s_prev - 2.0, s_prev + 10.0))
        k += 1
    return log


@dataclass
class MetricsReport:
    mean_abs_acceleration: float
    mean_speed_deviation: float
    mean_lane_deviation: float
    min_target_distance: Optional[float]
    collision_count: int
    progress_distance: float
    n_ticks: int
    n_solved: int
    n_fallback: int


def _pool_or_mean_of_means(groups, mode: str) -> float:
    groups = [g for g in groups if g]
    if not groups:
        return math.nan
    if mode == "per_trajectory":
        return float(np.mean([np.mean(g) for g in groups]))
    return float(np.mean(np.concatenate([np.asarray(g) for g in groups])))


def compute_metrics(log: SimLog, sc: Scenario) -> MetricsReport:
    """Planner-quality means over planned trajectories plus safety indicators."""
    if not log.ticks:
        raise ValueError("cannot compute metrics for an empty log")
    accel_groups = []
    speed_groups = []
    lane_groups = []
    for tick in log.ticks:
        if tick.planned is None:
            continue
        samples = tick.planned.samples
        accel_groups.append([abs(s.input.a) for s in samples if s.input is not None])
        speed_groups.append([abs(s.state.v - sc.weights.v_desired) for s in samples])
        lane_groups.append(
            [nearest_lane_center(sc.road, (s.state.x, s.state.y))[1] for s in samples]
        )
    mode = sc.metrics_mode
    min_dist: Optional[float] = None
    if sc.world.objects:
        best = math.inf
        for tick in log.ticks:
            for ts_ in tick.exec_states or [TimedState(tick.state, tick.t)]:
                for obj in sc.world.objects:
                    ox, oy, _ = obj.pose_at(ts_.t)
                    d = math.hypot(ts_.state.x - ox, ts_.state.y - oy)
                    if d < best:
                        best = d
        min_dist = best
    route = sc.road.route_path
    s0, _ = route.project(log.ticks[0].state.x, log.ticks[0].state.y)
    s = s0
    for tick in log.ticks:
        for ts_ in tick.exec_states:
            s, _ = route.project(ts_.state.x, ts_.state.y, s_window=(s - 2.0, s + 10.0))
    return MetricsReport(
        mean_abs_acceleration=_pool_or_mean_of_means(accel_groups, mode),
        mean_speed_deviation=_pool_or_mean_of_means(speed_groups, mode),
        mean_lane_deviation=_pool_or_mean_of_means(lane_groups, mode),
        min_target_distance=min_dist,
        collision_count=len(log.collisions),
        progress_distance=s - s0,
        n_ticks=len(log.ticks),
        n_solved=sum(1 for t in log.ticks if t.solved),
        n_fallback=sum(1 for t in log.ticks if t.fallback),
    )


def metrics_to_dict(m: MetricsReport) -> dict:
    return {
        "mean_abs_acceleration": m.mean_abs_acceleration,
        "mean_speed_deviation": m.mean_speed_deviation,
        "mean_lane_deviation": m.mean_lane_deviation,
        "min_target_distance": m.min_target_distance,
        "collision_count": m.collision_count,
        "progress_distance": m.progress_distance,
        "n_ticks": m.n_ticks,
        "n_solved": m.n_solved,
        "n_fallback": m.n_fallback,
    }


def _trajectory_to_dict(traj: Optional[Trajectory]) -> Optional[list]:
    if traj is None:
        return None
    return [
        {
            "t": s.t,
            "x": s.state.x,
            "y": s.state.y,
            "theta": s.state.theta,
            "v": s.state.v,
            "a": s.input.a if s.input else None,
            "delta": s.input.delta if s.input else None,
        }
        for s in traj.samples
    ]


def simlog_to_dict(log: SimLog) -> dict:
    return {
        "scenario": log.scenario,
        "mode": log.mode,
        "seed": log.seed,
        "termination": log.termination,
        "collisions": [{"t": t, "object": oid} for t, oid in log.collisions],
        "ticks": [
            {
                "index": tick.index,
                "t": tick.t,
                "state": {
                    "x": tick.state.x,
                    "y": tick.state.y,
                    "theta": tick.state.theta,
                    "v": tick.state.v,
                },
                "solved": tick.solved,
                "fallback": tick.fallback,
                "cost": tick.cost if math.isfinite(tick.cost) else None,
                "iterations": tick.iterations,
                "n_nodes": tick.n_nodes,
                "a_cmd": tick.a_cmd,
                "delta_cmd": tick.delta_cmd,
                "planned": _trajectory_to_dict(tick.planned),
                "executed": _trajectory_to_dict(Trajectory(tick.exec_states)),
            }
            for tick in log.ticks
        ],
    }


def simlog_to_csv(log: SimLog) -> str:
    """Per-tick flat table; float repr keeps re-runs byte-identical."""
    lines = ["t,x,y,theta,v,a_cmd,delta_cmd,solved,cost,fallback"]
    for tick in log.ticks:
        s = tick.state
        cost = repr(tick.cost) if math.isfinite(tick.cost) else ""
        lines.append(
            f"{tick.t!r},{s.x!r},{s.y!r},{s.theta!r},{s.v!r},"
            f"{tick.a_cmd!r},{tick.delta_cmd!r},{int(tick.solved)},{cost},{int(tick.fallback)}"
        )
    return "\n".join(lines) + "\n"
