import copy
import importlib.util
import json
import math
from dataclasses import asdict, replace
from typing import Optional

import numpy as np
import pytest

from urbansst import sim
from urbansst.road import GoalConfig
from urbansst.sim import (
    _PER_QUERY,
    _SIM_FIELDS,
    _read,
    Scenario,
    ScenarioError,
    SimLog,
    TickRecord,
    build_scenario_grid,
    compute_metrics,
    load_scenario,
    rollout_inputs,
    run_closed_loop,
    scenario_from_dict,
    simlog_to_csv,
    simlog_to_dict,
)
from urbansst.sst import PlanResult
from urbansst.vehicle import ControlInput, TimedState, Trajectory, VehicleState, substep_count

from conftest import SCENARIO_DIR

MINIMAL = {
    "road": {
        "lanes": [
            {"id": "right", "width": 3.75, "centerline": [[-10.0, 0.0], [130.0, 0.0]]},
            {"id": "left", "width": 3.75, "centerline": [[-10.0, 3.5], [130.0, 3.5]]},
        ],
        "route": ["right"],
    },
    "ego": {"state": {"x": 0.0, "y": 0.0, "theta": 0.0, "v": 5.0}},
}


def scenario_to_dict(sc: Scenario) -> dict:
    """The scenario as a document that scenario_from_dict reads back; every
    field is written, the defaulted ones included."""
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
        "ego": {"state": sc.ego_state._asdict()},
        "objects": [
            {
                "id": obj.id,
                "footprint": {"length": obj.length, "width": obj.width},
                "poses": [list(p) for p in obj.poses],
                "field": asdict(obj.field),
            }
            for obj in sc.world.objects
        ],
        "planner": {k: v for k, v in asdict(sc.planner).items() if k not in _PER_QUERY},
        "goal": asdict(sc.goal),
        "sim": {key: getattr(sc, key) for key in _SIM_FIELDS},
    }


def _leaves(node, path=()):
    """(path, value) of every leaf of a document; list items are keyed by index."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, (list, tuple)):
        children = enumerate(node)
    else:
        yield path, node
        return
    for key, child in children:
        yield from _leaves(child, path + (key,))


class TestLoader:
    def test_defaults(self):
        sc = scenario_from_dict(copy.deepcopy(MINIMAL))
        assert sc.planner.iteration_budget == 2000
        assert sc.planner.query_time is None
        assert sc.weights.v_desired == 5.0
        assert sc.goal == GoalConfig()
        assert sc.duration == 10.0
        assert sc.replan_rate == 2.0
        assert not sc.world.objects

    def test_footprint_and_field_defaults(self):
        data = copy.deepcopy(MINIMAL)
        data["objects"] = [
            {"id": "p", "type": "pedestrian", "poses": [[0.0, 20.0, 0.0, 0.0]]},
            {"id": "c", "type": "vehicle", "poses": [[0.0, 40.0, 0.0, 0.0]]},
        ]
        sc = scenario_from_dict(data)
        ped, car = sc.world.objects
        assert (ped.length, ped.width) == (0.6, 0.6)
        assert (car.length, car.width) == (4.0, 2.0)
        fp = ped.field
        assert (fp.amplitude, fp.sigma_x, fp.sigma_y) == (100.0, 3.0, 2.0)

    def test_negative_lane_width_diagnostic(self):
        data = copy.deepcopy(MINIMAL)
        data["road"]["lanes"][0]["width"] = -1.0
        with pytest.raises(ScenarioError, match=r"road\.lanes\[0\]"):
            scenario_from_dict(data)

    def test_bad_planner_section(self):
        data = copy.deepcopy(MINIMAL)
        data["planner"] = {"d_prune": 0.5, "d_near": 0.2}
        with pytest.raises(ScenarioError, match="planner"):
            scenario_from_dict(data)

    def test_bad_metrics_mode(self):
        data = copy.deepcopy(MINIMAL)
        data["sim"] = {"metrics_mode": "bogus"}
        with pytest.raises(ScenarioError, match="metrics_mode"):
            scenario_from_dict(data)

    def test_missing_road(self):
        with pytest.raises(ScenarioError, match="road"):
            scenario_from_dict({"ego": {}})

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("scenario_*.json")), ids=lambda p: p.stem)
    def test_shipped_files_roundtrip(self, path):
        doc = scenario_to_dict(load_scenario(path))
        again = scenario_from_dict(doc)
        assert scenario_to_dict(again) == doc
        # every value the file sets is read into its own field; an object's
        # type only picks the default footprint
        want = {
            leaf: value for leaf, value in _leaves(json.loads(path.read_text()))
            if not (leaf[0] == "objects" and leaf[2:] == ("type",))
        }
        loaded = dict(_leaves(doc))
        assert {leaf: loaded.get(leaf) for leaf in want} == want

    def test_json_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(bad)


@pytest.mark.parametrize(
    "kind, value, want",
    [
        (float, 2, 2.0),
        (float, -0.5, -0.5),
        (int, 7, 7),
        (str, "lane", "lane"),
        (dict, {"a": 1}, {"a": 1}),
        (tuple, [1, 2.5], (1.0, 2.5)),
        (tuple[float, float, float], [0, 1, 2], (0.0, 1.0, 2.0)),
        (list[str], ["a", "b"], ["a", "b"]),
        (list[tuple], [[0, 1], [2, 3]], [(0.0, 1.0), (2.0, 3.0)]),
        (list[dict], [], []),
        (Optional[int], None, None),
        (Optional[int], 3, 3),
        (Optional[tuple], [0, 1], (0.0, 1.0)),
    ],
)
def test_read_accepts_its_kind(kind, value, want):
    got = _read(value, kind, "x")
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize(
    "kind, value, where",
    [
        (float, True, "x:"),
        (int, False, "x:"),
        (float, math.nan, "x:"),
        (float, math.inf, "x:"),
        (float, -math.inf, "x:"),
        (float, 10**400, "x:"),
        (float, "1.0", "x:"),
        (int, 2.5, "x:"),
        (str, 7, "x:"),
        (dict, [], "x:"),
        (float, None, "x:"),
        (tuple, [1, 2, 3], "x:"),
        (tuple[float, float, float, float], [1, 2, 3], "x:"),
        (tuple, 5, "x:"),
        (tuple, [1, math.nan], "x:"),
        (list[str], "ab", "x:"),
        (list[str], {"a": 1}, "x:"),
        (list[str], ["a", 1], "x[1]:"),
        (list[tuple], [[0, 1], [2]], "x[1]:"),
        (list[dict], [{}, {}, 3], "x[2]:"),
        (Optional[float], math.nan, "x:"),
    ],
)
def test_read_rejects_other_values(kind, value, where):
    with pytest.raises(ScenarioError) as exc:
        _read(value, kind, "x")
    assert str(exc.value).startswith(where + " expected")


def test_scenario_files_match_their_generator():
    spec = importlib.util.spec_from_file_location("make_scenarios", SCENARIO_DIR / "make_scenarios.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sorted(module.FILES) == sorted(p.name for p in SCENARIO_DIR.glob("scenario_*.json"))
    for name, make in module.FILES.items():
        assert (SCENARIO_DIR / name).read_text(encoding="utf-8") == json.dumps(make(), indent=2) + "\n", name


class TestGrid:
    def test_covers_all_lanes(self):
        sc = scenario_from_dict(copy.deepcopy(MINIMAL))
        grid = build_scenario_grid(sc)
        # on-lane lookups are far below the invalid threshold for both lanes
        assert grid.lookup(50.0, 0.0) < grid.p_invalid / 2
        assert grid.lookup(50.0, 3.5) < grid.p_invalid / 2
        # well off-road saturates
        assert grid.lookup(50.0, -30.0) == grid.p_max


class TestRollout:
    def test_partial_trailing_step(self):
        from urbansst.vehicle import VehicleParams

        params = VehicleParams()
        out = rollout_inputs(VehicleState(0, 0, 0, 5), 1.0, 0.5, [ControlInput(0, 0)], 0.04, params)
        assert len(out) == 13  # 12 full steps + one 0.02 s remainder
        assert out[-1].t == pytest.approx(1.5)
        assert out[-1].state.x == pytest.approx(2.5)

    # One 0.5 s tick at t_step 0.04 and t_prop 0.4 (10 steps per edge):
    # 12 full steps and a 0.02 s one. Each case is the plan a query returns
    # (None: the query failed) and the input that each of the 13 steps runs.
    @pytest.mark.parametrize(
        "edges, want",
        [
            ([(0.5, 0.1), (-0.3, -0.2)], [(0.5, 0.1)] * 10 + [(-0.3, -0.2)] * 3),
            ([(0.5, 0.1)], [(0.5, 0.1)] * 13),  # the last edge's input holds past the plan's end
            ([], [(0.0, 0.0)] * 13),  # a one-sample plan: the start lies in the goal
            (None, [(-0.8, 0.0)] * 13),  # full braking (a_bounds[0]), zero steering
        ],
        ids=["two-edges", "one-edge", "one-sample", "failed"],
    )
    def test_each_step_runs_its_edges_input(self, monkeypatch, edges, want):
        data = copy.deepcopy(MINIMAL)
        data["sim"] = {"duration": 0.5}
        sc = scenario_from_dict(data)
        assert (sc.planner.t_prop, sc.planner.t_step) == (0.4, 0.04)

        def fake_query(_sc, _mode, _grid, ego, t, *_):
            if edges is None:
                return PlanResult(False, None, math.inf, 0, 0, 0)
            samples = [TimedState(ego, t, None)]
            for a, delta in edges:
                samples.append(TimedState(ego, samples[-1].t + 0.4, ControlInput(a, delta)))
            return PlanResult(True, Trajectory(samples), 1.0, 0, len(samples), len(samples))

        monkeypatch.setattr(sim, "plan_query", fake_query)
        (tick,) = run_closed_loop(sc, "base", seed=0).ticks
        assert [tuple(s.input) for s in tick.exec_states] == want
        assert (tick.a_cmd, tick.delta_cmd) == want[0]
        times = [0.0] + [s.t for s in tick.exec_states]
        assert [b - a for a, b in zip(times, times[1:])] == pytest.approx([0.04] * 12 + [0.02])


def _tick(index, t, state, planned, exec_states, solved, fallback):
    return TickRecord(
        index=index, t=t, state=state, solved=solved, fallback=fallback,
        cost=1.0 if solved else math.inf, iterations=10, n_nodes=5,
        a_cmd=0.0, delta_cmd=0.0, planned=planned, exec_states=exec_states,
    )


class TestMetrics:
    def test_hand_computed_three_ticks(self):
        sc = scenario_from_dict(copy.deepcopy(MINIMAL))
        planned0 = Trajectory([
            TimedState(VehicleState(0, 0, 0, 5), 0.0, None),
            TimedState(VehicleState(2, 0, 0, 4), 0.4, ControlInput(0.5, 0.0)),
        ])
        planned2 = Trajectory([
            TimedState(VehicleState(2, 1, 0, 3), 1.0, None),
            TimedState(VehicleState(4, 1, 0, 4), 1.4, ControlInput(-0.8, 0.1)),
        ])
        log = SimLog(scenario="hand", mode="base", seed=0, ticks=[
            _tick(0, 0.0, VehicleState(0, 0, 0, 5), planned0,
                  [TimedState(VehicleState(1, 0, 0, 5), 0.25),
                   TimedState(VehicleState(2, 0.5, 0, 5), 0.5)], True, False),
            _tick(1, 0.5, VehicleState(2, 0.5, 0, 5), None,
                  [TimedState(VehicleState(3, 0, 0, 4), 1.0)], False, True),
            _tick(2, 1.0, VehicleState(3, 0, 0, 4), planned2,
                  [TimedState(VehicleState(4, 1, 0, 4), 1.5)], True, False),
        ], termination="duration")
        m = compute_metrics(log, sc)
        # |a| pool: {0.5, 0.8}
        assert m.mean_abs_acceleration == pytest.approx(0.65)
        # |v - 5| pool: {0, 1, 2, 1}
        assert m.mean_speed_deviation == pytest.approx(1.0)
        # lane distance pool for y in {0, 0, 1, 1}: min(|y|, |y - 3.5|)
        assert m.mean_lane_deviation == pytest.approx(0.5, abs=1e-3)
        assert m.min_target_distance is None  # no objects in the scenario
        assert m.collision_count == 0
        # last executed state (4, 1) projects to s = 14 on a route from x = -10
        assert m.progress_distance == pytest.approx(4.0)
        assert (m.n_ticks, m.n_solved, m.n_fallback) == (3, 2, 1)

    def test_min_target_distance_center_to_center(self):
        data = copy.deepcopy(MINIMAL)
        data["objects"] = [{"id": "p", "type": "pedestrian", "poses": [[0.0, 10.0, 3.0, 0.0]]}]
        sc = scenario_from_dict(data)
        log = SimLog(scenario="hand", mode="base", seed=0, ticks=[
            _tick(0, 0.0, VehicleState(0, 0, 0, 5), None,
                  [TimedState(VehicleState(6, 0, 0, 5), 0.5)], False, True),
        ], termination="duration")
        m = compute_metrics(log, sc)
        assert m.min_target_distance == pytest.approx(5.0)

    def test_empty_log_rejected(self):
        sc = scenario_from_dict(copy.deepcopy(MINIMAL))
        with pytest.raises(ValueError):
            compute_metrics(SimLog("s", "base", 0), sc)

    def test_metrics_dict_keys(self):
        sc = scenario_from_dict(copy.deepcopy(MINIMAL))
        log = SimLog("s", "base", 0, ticks=[
            _tick(0, 0.0, VehicleState(0, 0, 0, 5), None,
                  [TimedState(VehicleState(1, 0, 0, 5), 0.5)], False, True),
        ])
        d = asdict(compute_metrics(log, sc))
        assert set(d) == {
            "mean_abs_acceleration", "mean_speed_deviation", "mean_lane_deviation",
            "min_target_distance", "collision_count", "progress_distance",
            "n_ticks", "n_solved", "n_fallback",
        }


class TestClosedLoop:
    def test_initial_collision_terminates_at_tick_zero(self):
        data = copy.deepcopy(MINIMAL)
        data["objects"] = [{"id": "blocker", "type": "vehicle", "poses": [[0.0, 2.0, 0.0, 0.0]]}]
        sc = scenario_from_dict(data)
        log = run_closed_loop(sc, "base", seed=0)
        assert log.termination == "collision"
        assert log.ticks == []
        assert log.collisions == [(0.0, "blocker")]

    def test_duration_termination_and_tick_count(self):
        data = copy.deepcopy(MINIMAL)
        data["sim"] = {"duration": 3.0}
        data["planner"] = {"iteration_budget": 300}
        sc = scenario_from_dict(data)
        log = run_closed_loop(sc, "dki", seed=0)
        assert log.termination == "duration"
        assert len(log.ticks) == 6  # 3 s at 2 Hz
        assert log.ticks[0].t == 0.0
        assert log.ticks[-1].t == pytest.approx(2.5)

    def test_run_ends_at_duration_when_replan_period_is_longer(self):
        sc = load_scenario(SCENARIO_DIR / "scenario_i_straight_road.json")
        sc = replace(sc, replan_rate=1e-6)  # one replan period is 1e6 s
        log = run_closed_loop(sc, "dki", seed=0, budget=("iters", 50))
        assert (log.termination, len(log.ticks)) == ("duration", 1)
        assert abs(log.ticks[-1].exec_states[-1].t - sc.duration) <= 1e-9

    def test_invalid_mode_and_budget(self):
        sc = scenario_from_dict(copy.deepcopy(MINIMAL))
        with pytest.raises(ValueError):
            run_closed_loop(sc, "magic", seed=0)
        with pytest.raises(ValueError):
            run_closed_loop(sc, "base", seed=0, budget=("steps", 10))

    def test_bit_identical_reruns(self):
        sc = load_scenario(SCENARIO_DIR / "scenario_i_straight_road.json")
        a = run_closed_loop(sc, "dki", seed=3, budget=("iters", 200))
        b = run_closed_loop(sc, "dki", seed=3, budget=("iters", 200))
        assert simlog_to_csv(a) == simlog_to_csv(b)
        assert simlog_to_dict(a) == simlog_to_dict(b)

    def test_seed_changes_log(self):
        sc = load_scenario(SCENARIO_DIR / "scenario_i_straight_road.json")
        a = run_closed_loop(sc, "base", seed=0, budget=("iters", 200))
        b = run_closed_loop(sc, "base", seed=1, budget=("iters", 200))
        assert simlog_to_csv(a) != simlog_to_csv(b)

    @pytest.mark.parametrize(
        "name, mode",
        [
            ("scenario_ii_static_overtake.json", "base"),
            ("scenario_iii_roundabout.json", "dki"),
            ("scenario_iv_vru_steering.json", "dki"),
        ],
    )
    def test_executed_states_are_planned_states(self, name, mode):
        # the rollout integrates each edge's input with the planner's steps, so
        # after d edges it is at the plan's depth-d state; the times may differ
        # by a few ulps (chained sums), so they are not compared
        sc = replace(load_scenario(SCENARIO_DIR / name), duration=6.0)
        log = run_closed_loop(sc, mode, seed=0, budget=("iters", 2000))
        n_sub = substep_count(sc.planner.t_prop, sc.planner.t_step)
        pairs = [
            (tick.exec_states[d * n_sub - 1].state, tick.planned.samples[d].state)
            for tick in log.ticks
            if tick.solved
            for d in range(1, min(len(tick.planned.samples), len(tick.exec_states) // n_sub + 1))
        ]
        # one pair per solved tick: a tick runs one whole edge of its plan
        assert len(pairs) == sum(tick.solved for tick in log.ticks) >= 9
        assert [np.array(e).tobytes() for e, _ in pairs] == [np.array(p).tobytes() for _, p in pairs]

    def test_csv_shape(self):
        sc = load_scenario(SCENARIO_DIR / "scenario_i_straight_road.json")
        log = run_closed_loop(sc, "base", seed=0, budget=("iters", 200))
        lines = simlog_to_csv(log).strip().split("\n")
        assert lines[0] == "t,x,y,theta,v,a_cmd,delta_cmd,solved,cost,fallback"
        assert len(lines) == len(log.ticks) + 1
        assert all(len(line.split(",")) == 10 for line in lines[1:])
