import math
from dataclasses import replace

import pytest

from urbansst.cost import CostWeights, edge_cost, state_cost
from urbansst.objects import ObjectPrediction, WorldModel, clearance_cost_xy
from urbansst.sim import build_scenario_grid, load_scenario, run_closed_loop
from urbansst.vehicle import TimedState, Trajectory, VehicleState

from conftest import SCENARIO_DIR


def motion_cost(s_n, s_next, grid, world, w):
    """Cost of the edge from timed state s_n to s_next, recomputed from the
    states alone: each state's grid value and clearance field are looked up
    afresh, not taken from the planner's tree."""
    dt = s_next.t - s_n.t
    if dt <= 0.0:
        raise ValueError("motion cost requires strictly increasing timestamps")
    a = s_n.state
    b = s_next.state
    c0 = state_cost(w, a.v, grid.lookup(a.x, a.y), clearance_cost_xy(a.x, a.y, s_n.t, world))
    c1 = state_cost(w, b.v, grid.lookup(b.x, b.y), clearance_cost_xy(b.x, b.y, s_next.t, world))
    return edge_cost(w, math.hypot(b.x - a.x, b.y - a.y), c0, c1, dt)


def trajectory_cost(traj, grid, world, w):
    """Sum of motion_cost over the trajectory's edges: the planner's cost oracle."""
    if not traj.samples:
        raise ValueError("trajectory must have at least one sample")
    total = 0.0
    for a, b in zip(traj.samples, traj.samples[1:]):
        total += motion_cost(a, b, grid, world, w)
    return total


@pytest.fixture(scope="module")
def world_one():
    return WorldModel([ObjectPrediction("o", 0.6, 0.6, [(0.0, 20.0, 0.0, 0.0)])])


def state_cost_at(s, t, grid, world, w):
    """Weighted state cost at s: a stationary edge of unit duration costs exactly it."""
    return motion_cost(TimedState(s, t), TimedState(s, t + 1.0), grid, world, w)


def only(term):
    """Weights that keep one state-cost term at unit weight and zero the rest."""
    zero = dict(path_length=0.0, desired_velocity=0.0, penalty_grid=0.0, target_clearance=0.0)
    return CostWeights(**{**zero, term: 1.0})


def state_cost_components(s, t, grid, world):
    """Unweighted (desired-velocity, penalty-grid, target-clearance) components."""
    return tuple(
        state_cost_at(s, t, grid, world, only(term))
        for term in ("desired_velocity", "penalty_grid", "target_clearance")
    )


class TestWeights:
    def test_defaults(self):
        w = CostWeights()
        assert w.path_length == 0.05
        assert w.desired_velocity == 0.5
        assert w.penalty_grid == 0.2
        assert w.target_clearance == 2.0
        assert w.v_desired == 5.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CostWeights(path_length=-0.1)


class TestStateCost:
    def test_components(self, straight_grid, empty_world, weights):
        s = VehicleState(20.0, 0.01, 0.0, 3.48)
        c_dv, c_pg, c_tc = state_cost_components(s, 0.0, straight_grid, empty_world)
        assert c_dv == pytest.approx(1.52)
        assert c_pg == straight_grid.lookup(20.0, 0.01)
        assert c_tc == 0.0

    def test_weighted_combination(self, straight_grid, world_one, weights):
        s = VehicleState(20.0, 0.01, 0.0, 3.0)
        c_dv, c_pg, c_tc = state_cost_components(s, 0.0, straight_grid, world_one)
        want = 0.5 * c_dv + 0.2 * c_pg + 2.0 * c_tc
        assert state_cost_at(s, 0.0, straight_grid, world_one, weights) == pytest.approx(want)
        assert c_tc == pytest.approx(100.0, abs=0.01)  # essentially on top of the object


class TestMotionCost:
    def test_path_length_term(self, straight_grid, empty_world):
        # isolate the distance term: all state weights zero
        w = CostWeights(desired_velocity=0.0, penalty_grid=0.0, target_clearance=0.0)
        a = TimedState(VehicleState(0.0, 0.0, 0.0, 5.0), 0.0)
        b = TimedState(VehicleState(3.0, 4.0, 0.0, 5.0), 0.4)
        # 0.05 * 5 m
        assert motion_cost(a, b, straight_grid, empty_world, w) == pytest.approx(0.25)

    def test_trapezoid_term(self, straight_grid, empty_world):
        # isolate the state-cost integral: same position, speed error 2 then 4
        w = CostWeights(path_length=0.0, desired_velocity=1.0, penalty_grid=0.0, target_clearance=0.0)
        a = TimedState(VehicleState(20.0, 0.0, 0.0, 3.0), 0.0)
        b = TimedState(VehicleState(20.0, 0.0, 0.0, 1.0), 0.4)
        # 0.4 * (2 + 4) / 2
        assert motion_cost(a, b, straight_grid, empty_world, w) == pytest.approx(1.2)

    def test_rejects_nonincreasing_time(self, straight_grid, empty_world, weights):
        a = TimedState(VehicleState(0, 0, 0, 5), 1.0)
        b = TimedState(VehicleState(1, 0, 0, 5), 1.0)
        with pytest.raises(ValueError):
            motion_cost(a, b, straight_grid, empty_world, weights)


class TestTrajectoryCost:
    def _traj(self):
        return [
            TimedState(VehicleState(0.0, 0.0, 0.0, 5.0), 0.0),
            TimedState(VehicleState(2.0, 0.1, 0.0, 4.5), 0.4),
            TimedState(VehicleState(3.8, 0.3, 0.1, 4.0), 0.8),
        ]

    def test_sum_of_edges(self, straight_grid, empty_world, weights):
        samples = self._traj()
        want = motion_cost(samples[0], samples[1], straight_grid, empty_world, weights) + motion_cost(
            samples[1], samples[2], straight_grid, empty_world, weights
        )
        got = trajectory_cost(Trajectory(samples), straight_grid, empty_world, weights)
        assert got == pytest.approx(want)

    def test_concatenation_additive(self, straight_grid, empty_world, weights):
        samples = self._traj()
        whole = trajectory_cost(Trajectory(samples), straight_grid, empty_world, weights)
        first = trajectory_cost(Trajectory(samples[:2]), straight_grid, empty_world, weights)
        second = trajectory_cost(Trajectory(samples[1:]), straight_grid, empty_world, weights)
        assert whole == pytest.approx(first + second)

    def test_single_sample_zero(self, straight_grid, empty_world, weights):
        traj = Trajectory(self._traj()[:1])
        assert trajectory_cost(traj, straight_grid, empty_world, weights) == 0.0

    def test_empty_rejected(self, straight_grid, empty_world, weights):
        with pytest.raises(ValueError):
            trajectory_cost(Trajectory([]), straight_grid, empty_world, weights)


class TestPlannerCost:
    @pytest.mark.parametrize("mode", ["base", "dki"])
    @pytest.mark.parametrize("stem", ["scenario_ii_static_overtake", "scenario_iv_vru_steering"])
    def test_plan_cost_is_trajectory_cost(self, stem, mode):
        # the tree accumulates edge costs with the formulas trajectory_cost uses
        sc = replace(load_scenario(SCENARIO_DIR / f"{stem}.json"), duration=3.0)
        log = run_closed_loop(sc, mode, 0, budget=("iters", 2000))
        grid = build_scenario_grid(sc)
        plans = [tick for tick in log.ticks if tick.solved]
        assert len(plans) >= 3
        for tick in plans:
            want = trajectory_cost(tick.planned, grid, sc.world, sc.weights)
            assert tick.cost == pytest.approx(want, rel=1e-12, abs=0.0)
