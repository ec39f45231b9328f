import gc
import math

import numpy as np
import pytest

from urbansst.dki import DkiConfig, plan_dki, seed_lane_branch, seed_previous_branch
from urbansst.objects import ObjectPrediction, WorldModel
from urbansst.sst import PlannerTree, plan
from urbansst.vehicle import ControlInput, TimedState, Trajectory, VehicleState, propagate

from conftest import LANE_WIDTH, live_nodes, make_planner_config


def make_tree(goal, grid, world, weights, params, budget=2000, seed=0, start=None):
    cfg = make_planner_config(budget=budget)
    return PlannerTree(
        start if start is not None else VehicleState(0.0, 0.0, 0.0, 5.0),
        0.0, goal, grid, world, cfg, weights, params, np.random.default_rng(seed),
    )


class TestDkiConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DkiConfig(d_lookahead=0.0)
        with pytest.raises(ValueError):
            DkiConfig(d_reuse=-1.0)
        DkiConfig(d_branch_max=0.0)  # zero branch extent is allowed


class TestLaneBranch:
    def test_reaches_goal_near_center(self, node_refs, straight_net, straight_goal, straight_grid, empty_world, weights, params):
        tree = make_tree(straight_goal, straight_grid, empty_world, weights, params)
        added = seed_lane_branch(tree, straight_net, DkiConfig())
        assert added > 10
        in_goal = [
            n for n in live_nodes(node_refs) if straight_goal.contains_xy(n.state.x, n.state.y)
        ]
        assert in_goal
        # the branch hugs the route: every goal hit is within half a lane width
        assert all(abs(n.state.y) <= LANE_WIDTH / 2 for n in in_goal)
        # seeding work was charged to the query budget
        assert tree.iterations_used >= added

    def test_blocked_root_adds_nothing(self, straight_net, straight_goal, straight_grid, weights, params):
        # wall just ahead: the start is valid but every propagation from it
        # runs into the wall (braking cannot stop 5 m/s within a meter)
        wall = WorldModel([ObjectPrediction("wall", 1.5, 40.0, [(0.0, 3.75, 0.0, 0.0)])])
        tree = make_tree(straight_goal, straight_grid, wall, weights, params)
        added = seed_lane_branch(tree, straight_net, DkiConfig())
        assert added == 0
        assert tree.n_nodes == 1

    def test_zero_branch_extent(self, straight_net, straight_goal, straight_grid, empty_world, weights, params):
        tree = make_tree(straight_goal, straight_grid, empty_world, weights, params)
        added = seed_lane_branch(tree, straight_net, DkiConfig(d_branch_max=0.0))
        assert added == 0


def _straight_prev(params, n_edges=6, start=None):
    """Constant-input straight-line solution: exact propagation endpoints."""
    s = start if start is not None else VehicleState(0.0, 0.0, 0.0, 5.0)
    u = ControlInput(0.0, 0.0)
    samples = [TimedState(s, 0.0, None)]
    for k in range(n_edges):
        s = propagate(s, u, 0.4, 0.04, params)[-1]
        samples.append(TimedState(s, 0.4 * (k + 1), u))
    return Trajectory(samples)


class TestPreviousBranch:
    def test_exact_root_match_replays_all(self, straight_goal, straight_grid, empty_world, weights, params):
        prev = _straight_prev(params)
        tree = make_tree(straight_goal, straight_grid, empty_world, weights, params)
        added = seed_previous_branch(tree, prev, DkiConfig())
        assert added == len(prev.samples) - 1

    def test_match_at_second_sample(self, straight_goal, straight_grid, empty_world, weights, params):
        prev = _straight_prev(params)
        tree = make_tree(
            straight_goal, straight_grid, empty_world, weights, params,
            start=prev.samples[1].state,
        )
        added = seed_previous_branch(tree, prev, DkiConfig())
        assert added == len(prev.samples) - 2

    def test_far_root_adds_nothing(self, straight_goal, straight_grid, empty_world, weights, params):
        prev = _straight_prev(params)
        tree = make_tree(
            straight_goal, straight_grid, empty_world, weights, params,
            start=VehicleState(0.0, 0.0, 0.0, 5.0),
        )
        shifted = Trajectory(
            [
                TimedState(
                    VehicleState(ts.state.x + 30.0, ts.state.y, ts.state.theta, ts.state.v),
                    ts.t,
                    ts.input,
                )
                for ts in prev.samples
            ]
        )
        assert seed_previous_branch(tree, shifted, DkiConfig()) == 0

    def test_stops_at_first_blocked_edge(self, straight_goal, straight_grid, weights, params):
        # small obstacle placed so replay edges 1-3 clear it but the 4th
        # (x 6 -> 8, front bumper to 10) collides
        prev = _straight_prev(params)
        world = WorldModel([ObjectPrediction("cone", 0.6, 0.6, [(0.0, 8.5, 0.0, 0.0)])])
        tree = make_tree(straight_goal, straight_grid, world, weights, params)
        added = seed_previous_branch(tree, prev, DkiConfig())
        assert added == 3

    def test_none_and_trivial_prev(self, straight_goal, straight_grid, empty_world, weights, params):
        tree = make_tree(straight_goal, straight_grid, empty_world, weights, params)
        assert seed_previous_branch(tree, None, DkiConfig()) == 0
        one = Trajectory([TimedState(VehicleState(0, 0, 0, 5), 0.0, None)])
        assert seed_previous_branch(tree, one, DkiConfig()) == 0


class TestPlanDki:
    def test_budget_accounting(self, straight_net, straight_goal, straight_grid, empty_world, weights, params, ego_start):
        cfg = make_planner_config(budget=3000)
        result = plan_dki(
            ego_start, 0.0, straight_goal, straight_grid, empty_world, straight_net,
            None, cfg, DkiConfig(), weights, params, np.random.default_rng(1),
        )
        assert result.solved
        assert result.iterations == 3000

    def test_tree_freed_without_cyclic_gc(self, node_refs, straight_net, straight_goal, straight_grid, empty_world, weights, params, ego_start):
        cfg = make_planner_config(budget=3000)
        gc.disable()
        try:
            result = plan_dki(
                ego_start, 0.0, straight_goal, straight_grid, empty_world, straight_net,
                None, cfg, DkiConfig(), weights, params, np.random.default_rng(1),
            )
            alive = sum(ref() is not None for ref in node_refs)
        finally:
            gc.enable()
        assert result.solved and len(node_refs) > 100
        assert alive == 0

    def test_paired_seeds_rarely_worse(self, straight_net, straight_goal, straight_grid, empty_world, weights, params, ego_start):
        wins = 0
        n = 20
        for seed in range(n):
            cfg = make_planner_config(budget=2000)
            base = plan(
                ego_start, 0.0, straight_goal, straight_grid, empty_world, cfg, weights, params,
                np.random.default_rng(seed),
            )
            dki = plan_dki(
                ego_start, 0.0, straight_goal, straight_grid, empty_world, straight_net,
                None, cfg, DkiConfig(), weights, params, np.random.default_rng(seed),
            )
            assert dki.solved
            if not base.solved or dki.cost <= base.cost + 1e-9:
                wins += 1
        assert wins >= 0.8 * n
