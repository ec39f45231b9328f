"""Scenario files, deterministic closed-loop simulation, and metrics.

A scenario is a JSON document with sections road / ego / objects /
planner / goal / sim; omitted parameters fall back to the tuned
defaults baked into the config dataclasses; _config reads every section but
sim into one, and sim's keys are Scenario fields. The vehicle model
(VehicleParams()), the cost weights (CostWeights()) and the grid's cell size
(GRID_RESOLUTION) are not sections. The closed loop replans at a fixed rate
and executes the planned inputs open-loop on the same kinematic model the
planner uses, which isolates planner quality from tracking-controller effects.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np

from .cost import CostWeights
from .dki import plan_dki
from .objects import FieldParams, ObjectPrediction, WorldModel, WorldPoser, object_hit
from .road import (
    GRID_RESOLUTION,
    GoalConfig,
    Lane,
    PenaltyGrid,
    RoadNetwork,
    RouteExhaustedError,
    build_penalty_grid,
    compute_goal_region,
    nearest_lane_points,
)
from .sst import InvalidStartError, PlannerConfig, PlanResult, plan
from .vehicle import ControlInput, TimedState, Trajectory, VehicleParams, VehicleState, step, substep_count

FOOTPRINT_DEFAULTS = {
    "pedestrian": (0.6, 0.6),
    "vehicle": (4.0, 2.0),
}


class ScenarioError(ValueError):
    """Scenario file failed parsing or semantic validation."""


@dataclass
class Scenario:
    name: str
    road: RoadNetwork
    ego_state: VehicleState
    world: WorldModel
    planner: PlannerConfig
    ego_params: VehicleParams = VehicleParams()
    weights: CostWeights = CostWeights()
    goal: GoalConfig = GoalConfig()
    duration: float = 10.0
    replan_rate: float = 2.0

    def __post_init__(self) -> None:
        # the fallback brakes from the start; past v_bounds its first step can leave the route
        lo, hi = self.ego_params.v_bounds
        if not lo <= self.ego_state.v <= hi:
            raise ScenarioError(f"ego.state.v: must lie within [{lo:g}, {hi:g}] m/s, got {self.ego_state.v!r}")
        for name in ("duration", "replan_rate"):
            if getattr(self, name) <= 0.0:
                raise ScenarioError(f"sim.{name}: must be positive")
        if 1.0 / self.replan_rate < self.planner.t_step:
            # a tick shorter than one integration step plans for less than
            # one edge, and one of 1e-12 s or less executes no state at all
            raise ScenarioError(
                f"sim.replan_rate: its period of {1.0 / self.replan_rate:.3g} s is shorter than "
                f"planner.t_step ({self.planner.t_step!r} s)"
            )


# The sim section's keys: each is the Scenario field of its name.
_SIM_FIELDS = ("duration", "replan_rate")
# The largest penalty grid a scenario's lanes may span. The shipped ones need
# at most 61 901 cells (scenario III); this many cells are 32 MB of floats,
# and building them takes several times that.
_MAX_GRID_CELLS = 4_000_000
# PlannerConfig fields that each query sets, never a scenario file.
_PER_QUERY = ("x_bounds", "y_bounds")
# The largest |x| and |y| (m) of a position that a scenario gives: the ego
# start, the lane centerline points and the object poses. No difference or
# square of such coordinates overflows; the shipped ones stay within 200 m.
_MAX_COORD = 1e6


def _known(sec: dict, keys, prefix: str = "") -> None:
    """Reject a key of sec that is not in keys: a typo would otherwise be ignored."""
    for key in sec:
        if key not in keys:
            raise ScenarioError(f"{prefix}{key}: unknown key")


def _read(value, kind, where: str):
    """value as the declared type `kind`, or a ScenarioError naming where.

    The kinds are float (finite; booleans are not numbers), int, str, dict
    (an object), tuple[float, ...] (that many finite floats; a bare tuple is
    a pair), list[kind] (element j is named where[j]) and Optional[kind]."""
    args = get_args(kind)
    if type(None) in args:
        return None if value is None else _read(value, args[0], where)
    origin = get_origin(kind) or kind
    if origin is tuple:
        n = len(args) or 2
        if not isinstance(value, (list, tuple)) or len(value) != n:
            raise ScenarioError(f"{where}: expected {n} finite numbers, got {value!r}")
        return tuple(_read(v, float, where) for v in value)
    if origin is list:
        if not isinstance(value, list):
            raise ScenarioError(f"{where}: expected a list, got {value!r}")
        return [_read(v, args[0], f"{where}[{j}]") for j, v in enumerate(value)]
    if origin is float:  # NaN, infinities and ints too large for a float compare false
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, origin)
    if not ok or isinstance(value, bool):
        expected = {float: "a finite number", int: "an integer", str: "a string", dict: "an object"}[origin]
        raise ScenarioError(f"{where}: expected {expected}, got {value!r}")
    return float(value) if origin is float else value


def _coordinates(values, where: str) -> None:
    """Reject a coordinate of values past _MAX_COORD, naming where."""
    for c in values:
        if not abs(c) <= _MAX_COORD:
            raise ScenarioError(f"{where}: a coordinate must lie within {_MAX_COORD:g} m of 0, got {c!r}")


def _section(data: dict, key: str, prefix: str = "", keys=None) -> dict:
    """data[key] as an object ({} if absent), holding only keys if they are given."""
    sec = _read(data.get(key, {}), dict, prefix + key)
    if keys is not None:
        _known(sec, keys, f"{prefix}{key}.")
    return sec


def _build(where: str, cls, **kwargs):
    """cls(**kwargs), with its validation error named after the section."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _config(where: str, cls, sec: dict):
    """A config dataclass from its section: each field that the section
    holds, or that has no default, is read by its declared type; the others
    keep the class defaults."""
    hints = get_type_hints(cls)
    own = [f for f in fields(cls) if f.name not in _PER_QUERY]
    _known(sec, [f.name for f in own], f"{where}.")
    kwargs = {
        f.name: _read(sec.get(f.name), hints[f.name], f"{where}.{f.name}")
        for f in own if f.name in sec or f.default is f.default_factory is MISSING
    }
    return _build(where, cls, **kwargs)


def scenario_from_dict(data: dict) -> Scenario:
    """The scenario in a parsed JSON document. Every value is read by its
    declared kind through _read, so any malformed value raises a
    ScenarioError that names its field."""
    _read(data, dict, "scenario")
    _known(data, ("name", "road", "ego", "objects", "planner", "goal", "sim"))
    try:
        if "road" not in data:
            raise ScenarioError("road: section is required")
        road_sec = _section(data, "road", keys=("lanes", "route"))
        lanes = [
            _config(f"road.lanes[{i}]", Lane, ld)
            for i, ld in enumerate(_read(road_sec.get("lanes", []), list[dict], "road.lanes"))
        ]
        for i, lane in enumerate(lanes):
            for j, p in enumerate(lane.centerline):
                _coordinates(p, f"road.lanes[{i}].centerline[{j}]")
        route = _read(road_sec.get("route", []), list[str], "road.route")
        road = _build("road", RoadNetwork, lanes=lanes, route=route)

        ego = _section(data, "ego", keys=("state",))
        st = _section(ego, "state", "ego.", VehicleState._fields)
        ego_state = VehicleState(*(_read(st.get(k, 0.0), float, f"ego.state.{k}") for k in VehicleState._fields))
        for k in ("x", "y"):
            _coordinates([getattr(ego_state, k)], f"ego.state.{k}")

        objects = []
        for i, od in enumerate(_read(data.get("objects", []), list[dict], "objects")):
            where = f"objects[{i}]"
            _known(od, ("id", "type", "footprint", "poses", "field"), f"{where}.")
            oid = _read(od.get("id", f"object{i}"), str, f"{where}.id")
            otype = _read(od.get("type", "vehicle"), str, f"{where}.type")
            if otype not in FOOTPRINT_DEFAULTS:
                raise ScenarioError(f"{where}.type: expected one of {sorted(FOOTPRINT_DEFAULTS)}, got {otype!r}")
            fl, fw = FOOTPRINT_DEFAULTS[otype]
            fp = _section(od, "footprint", f"{where}.", ("length", "width"))
            length = _read(fp.get("length", fl), float, f"{where}.footprint.length")
            width = _read(fp.get("width", fw), float, f"{where}.footprint.width")
            poses = _read(od.get("poses", []), list[tuple[float, float, float, float]], f"{where}.poses")
            for j, pose in enumerate(poses):
                _coordinates(pose[1:3], f"{where}.poses[{j}]")
            objects.append(_build(
                where, ObjectPrediction, obj_id=oid, length=length, width=width, poses=poses,
                field=_config(f"{where}.field", FieldParams, _section(od, "field", f"{where}.")),
            ))
        world = WorldModel(objects)

        planner = _config("planner", PlannerConfig, _section(data, "planner"))
        if planner.iteration_budget is None and planner.query_time is None:
            planner = replace(planner, iteration_budget=2000)
        if 0 in (planner.iteration_budget, planner.query_time):
            raise ScenarioError("planner: a zero budget runs no iteration")

        sim = _section(data, "sim", keys=_SIM_FIELDS)
        return Scenario(
            name=_read(data.get("name", "scenario"), str, "name"),
            road=road,
            ego_state=ego_state,
            world=world,
            planner=planner,
            goal=_config("goal", GoalConfig, _section(data, "goal")),
            **{key: _read(sim[key], float, f"sim.{key}") for key in _SIM_FIELDS if key in sim},
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc


def _apply_overrides(data: dict, overrides) -> dict:
    for item in overrides:
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


def load_scenario(path, overrides=()) -> Scenario:
    """The scenario in the JSON file at path, after the dotted-path
    overrides ("road.lanes.0.width=3.5", values in JSON) are applied."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(_apply_overrides(data, overrides))


def build_scenario_grid(sc: Scenario) -> PenaltyGrid:
    """Penalty grid covering every lane band; out-of-grid lookups are P_MAX anyway.

    Lanes that span more than _MAX_GRID_CELLS cells are an error before
    anything is allocated.
    """
    res = GRID_RESOLUTION
    xs = [p.x for lane in sc.road.lanes for p in lane.centerline]
    ys = [p.y for lane in sc.road.lanes for p in lane.centerline]
    margin = max(lane.width for lane in sc.road.lanes) / 2 + 2 * res
    bounds = (min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin)
    width, height = bounds[2] - bounds[0], bounds[3] - bounds[1]
    cells = width / res * (height / res)
    if cells > _MAX_GRID_CELLS:
        raise ScenarioError(f"road.lanes: a grid of {res:g} m cells over the lanes' extent of {width:.6g} m "
                            f"by {height:.6g} m needs {cells:.3g} cells, more than {_MAX_GRID_CELLS}")
    return build_penalty_grid(sc.road, bounds, res)


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


def rollout_inputs(
    state: VehicleState,
    t0: float,
    duration: float,
    inputs: list,
    ts: float,
    params: VehicleParams,
):
    """Integrate from t0 for duration; step i applies inputs[i], chosen by
    index and never by time, and the last input holds past the list's end.
    A trailing partial step covers replan intervals that are not integer
    multiples of ts."""
    out = []
    cur = state
    remaining = duration
    while remaining > 1e-12:
        dt = ts if remaining >= ts - 1e-12 else remaining
        u = inputs[min(len(out), len(inputs) - 1)]
        cur = step(cur, u, dt, params)
        remaining -= dt
        out.append(TimedState(cur, t0 + (duration - remaining), u))
    return out


def _first_collision(states, world: WorldModel, params: VehicleParams):
    poser = WorldPoser(world, params.length, params.width)
    for i, ts_ in enumerate(states):
        s = ts_.state
        obj = object_hit(s.x, s.y, s.theta, params.length, params.width, poser.at(ts_.t))
        if obj is not None:
            return i, obj
    return None


# How far the sampling bounds reach past ego and the goal region (m).
SAMPLING_MARGIN = 15.0


def plan_query(
    sc: Scenario, mode: str, grid: PenaltyGrid, ego: VehicleState, t: float, rng_key,
    budget=None, prev: Optional[Trajectory] = None, s: Optional[float] = None,
) -> PlanResult:
    """One planning query of the scenario from ego at time t.

    This is the one query setup: the budget override (("iters", n) or
    ("time", seconds)), ego's route arc length s (by default its projection
    on the whole route), the goal region ahead of s, the sampling bounds
    around ego and the goal, an rng seeded by rng_key and the base or dki
    planner; dki seeds from s and from prev, the previous solution. plan,
    plan_dki and compute_goal_region are this module's globals at call time,
    so that a profiler or a query timer can replace them here. Raises
    RouteExhaustedError when the goal lies past the route's end (naming ego,
    its arc length and its distance from the route when s was not given) and
    InvalidStartError when ego is not a valid state.
    """
    cfg = sc.planner if budget is None else sc.planner.with_budget(*budget)
    off = None
    if s is None:
        s, off = sc.road.route_path.project(ego.x, ego.y)
    try:
        goal = compute_goal_region(sc.road, s, sc.goal)
    except RouteExhaustedError as exc:
        if off is None:
            raise
        # a start far off the road projects onto the route's end
        raise RouteExhaustedError(
            f"start ({ego.x:.6g}, {ego.y:.6g}) is {off:.6g} m off the route, at arc length {s:.6g} m: {exc}"
        ) from exc
    bx0, by0, bx1, by1 = goal.bbox
    m = SAMPLING_MARGIN
    cfg = cfg.with_bounds(
        (min(ego.x, bx0) - m, max(ego.x, bx1) + m),
        (min(ego.y, by0) - m, max(ego.y, by1) + m),
    )
    rng = np.random.default_rng(np.random.SeedSequence(rng_key))
    if mode == "dki":
        return plan_dki(ego, t, goal, grid, sc.world, sc.road, s, prev, cfg, sc.weights, sc.ego_params, rng)
    return plan(ego, t, goal, grid, sc.world, cfg, sc.weights, sc.ego_params, rng)


def run_closed_loop(sc: Scenario, mode: str, seed: int, budget=None) -> SimLog:
    """Replan at the configured rate and execute the plan open-loop.

    mode is "base" or "dki". budget optionally overrides the planner budget
    as ("iters", n) or ("time", seconds). Each tick executes its plan until
    the next replan or the end of the run, whichever comes first. On a failed
    query the vehicle falls back to full braking with zero steering instead.
    """
    if mode not in ("base", "dki"):
        raise ValueError("mode must be 'base' or 'dki'")
    log = SimLog(scenario=sc.name, mode=mode, seed=seed)
    grid = build_scenario_grid(sc)
    route = sc.road.route_path
    params = sc.ego_params
    ts = sc.planner.t_step
    n_sub = substep_count(sc.planner.t_prop, ts)
    dt_tick = 1.0 / sc.replan_rate

    ego = sc.ego_state
    s_ego, _ = route.project(ego.x, ego.y)
    prev_traj: Optional[Trajectory] = None
    k = 0
    log.termination = "duration"
    while k * dt_tick < sc.duration - 1e-9:
        t = k * dt_tick
        span = min(dt_tick, sc.duration - t)  # never integrate past the end of the run
        hit = _first_collision([TimedState(ego, t)], sc.world, params)
        if hit is not None:
            log.collisions.append((t, hit[1].id))
            log.termination = "collision"
            break
        try:
            result = plan_query(sc, mode, grid, ego, t, (seed, k), budget, prev_traj, s_ego)
        except RouteExhaustedError:
            log.termination = "route_exhausted"
            break
        except InvalidStartError:
            result = PlanResult(False, None, math.inf, 0, 0, 0)

        if result.solved:
            prev_traj = result.trajectory
            # step i runs edge i // n_sub's input; a one-sample plan holds still
            inputs = [s.input for s in prev_traj.samples[1:] for _ in range(n_sub)] or [ControlInput(0.0, 0.0)]
        else:
            inputs = [ControlInput(params.a_bounds[0], 0.0)]
        exec_states = rollout_inputs(ego, t, span, inputs, ts, params)
        hit = _first_collision(exec_states, sc.world, params)
        if hit is not None:
            exec_states = exec_states[: hit[0] + 1]
        tick = TickRecord(
            index=k,
            t=t,
            state=ego,
            solved=result.solved,
            fallback=not result.solved,
            cost=result.cost,
            iterations=result.iterations,
            n_nodes=result.n_nodes,
            a_cmd=exec_states[0].input.a,
            delta_cmd=exec_states[0].input.delta,
            planned=result.trajectory,
            exec_states=exec_states,
        )
        log.ticks.append(tick)
        if hit is not None:
            log.collisions.append((exec_states[-1].t, hit[1].id))
            log.termination = "collision"
            break
        ego = exec_states[-1].state
        s_ego = route.advance(s_ego, ego.x, ego.y)
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


def _pooled_mean(groups) -> float:
    values = [v for g in groups for v in g]
    return float(np.mean(values)) if values else math.nan


def compute_metrics(log: SimLog, sc: Scenario) -> MetricsReport:
    """Planner-quality means over planned trajectories plus safety indicators."""
    if not log.ticks:
        raise ValueError("cannot compute metrics for an empty log")
    accel_groups = []
    speed_groups = []
    planned_xy = []
    for tick in log.ticks:
        if tick.planned is None:
            continue
        samples = tick.planned.samples
        accel_groups.append([abs(s.input.a) for s in samples if s.input is not None])
        speed_groups.append([abs(s.state.v - sc.weights.v_desired) for s in samples])
        planned_xy.extend((s.state.x, s.state.y) for s in samples)
    xy = np.array(planned_xy, dtype=float).reshape(-1, 2)
    lane_dist, _ = nearest_lane_points(sc.road, GRID_RESOLUTION / 2, xy[:, 0], xy[:, 1])
    min_dist: Optional[float] = None
    if sc.world.objects:
        best = math.inf
        for tick in log.ticks:
            for ts_ in tick.exec_states:
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
            s = route.advance(s, ts_.state.x, ts_.state.y)
    return MetricsReport(
        mean_abs_acceleration=_pooled_mean(accel_groups),
        mean_speed_deviation=_pooled_mean(speed_groups),
        mean_lane_deviation=_pooled_mean([lane_dist.tolist()]),
        min_target_distance=min_dist,
        collision_count=len(log.collisions),
        progress_distance=s - s0,
        n_ticks=len(log.ticks),
        n_solved=sum(1 for t in log.ticks if t.solved),
        n_fallback=sum(1 for t in log.ticks if t.fallback),
    )


def _trajectory_to_dict(traj: Optional[Trajectory]) -> Optional[list]:
    if traj is None:
        return None
    return [
        {
            "t": s.t,
            **s.state._asdict(),
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
                "state": tick.state._asdict(),
                "solved": tick.solved,
                "fallback": tick.fallback,
                "cost": tick.cost,
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
