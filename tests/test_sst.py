import gc
import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urbansst import objects
from urbansst.cost import CostWeights
from urbansst.geometry import obb_overlap
from urbansst.objects import ObjectPrediction, WorldModel
from urbansst.road import GoalConfig, GridConfig, PenaltyGrid, compute_goal_region
from urbansst.sst import (
    _FULL_PASS,
    _LOOK_UP,
    InvalidStartError,
    PlannerConfig,
    PlannerTree,
    TreeNode,
    norm_state,
    norm_states,
    normalize_angles,
    plan,
    sample_batch,
    sample_input,
    sample_inputs,
    sample_state,
    state_distance,
)
from urbansst.sim import _chance_within, build_scenario_grid, load_scenario, plan_query, run_closed_loop, simlog_to_csv
from urbansst.vehicle import ControlInput, VehicleParams, VehicleState, normalize_angle, propagate

from conftest import SCENARIO_DIR, is_state_valid, live_nodes, make_planner_config, wrap_dist


def planner_metric(a, b, config):
    """The metric the planner searches with, applied to two states of a default vehicle."""
    params = VehicleParams()
    return state_distance(norm_state(a, config, params), norm_state(b, config, params))


class TestConfig:
    def test_prune_not_exceeding_near(self):
        with pytest.raises(ValueError):
            PlannerConfig(iteration_budget=10, d_prune=0.3, d_near=0.2)

    def test_positive_sigmas(self):
        with pytest.raises(ValueError):
            PlannerConfig(iteration_budget=10, sigma_a=0.0)

    def test_positive_metric_scale(self):
        with pytest.raises(ValueError):
            PlannerConfig(iteration_budget=10, metric_xy_scale=-1.0)

    @pytest.mark.parametrize("t_prop, t_step", [(0.4, 0.3), (0.4, 0.0002), (0.4, 1e-300), (0.4, 1e-320)])
    def test_step_must_divide_propagation(self, t_prop, t_step):
        # a multiple of t_step is still rejected beyond 1 000 substeps
        with pytest.raises(ValueError):
            PlannerConfig(iteration_budget=10, t_prop=t_prop, t_step=t_step)

    @pytest.mark.parametrize(
        "budget", [dict(iteration_budget=-1), dict(query_time=-1.0), dict(query_time=math.inf),
                   dict(query_time=math.nan)],
    )
    def test_budget_must_end(self, budget):
        with pytest.raises(ValueError, match="iteration_budget|query_time"):
            PlannerConfig(**budget)

    def test_exactly_one_budget(self, straight_grid, empty_world, weights, params, straight_goal, ego_start):
        with pytest.raises(ValueError, match="must not both be set"):
            make_planner_config(budget=10, query_time=0.01)
        neither = PlannerConfig().with_bounds((-15.0, 50.0), (-10.0, 12.0))
        with pytest.raises(ValueError):
            plan(ego_start, 0.0, straight_goal, straight_grid, empty_world, neither, weights, params, np.random.default_rng(0))


class TestMetric:
    CFG = make_planner_config(budget=1)

    def test_identity_zero(self):
        s = VehicleState(3.0, -1.0, 0.7, 2.0)
        assert planner_metric(s, s, self.CFG) == 0.0

    def test_xy_normalization(self):
        a = VehicleState(0, 0, 0, 0)
        b = VehicleState(self.CFG.metric_xy_scale, 0, 0, 0)
        assert planner_metric(a, b, self.CFG) == pytest.approx(1.0)

    def test_speed_normalization(self):
        a = VehicleState(0, 0, 0, 0)
        b = VehicleState(0, 0, 0, 6.0)  # full v range
        assert planner_metric(a, b, self.CFG) == pytest.approx(1.0)

    def test_heading_wrap(self):
        # headings 0.02 turns apart across the wrap, not 0.98
        a = VehicleState(0, 0, math.pi - 0.02 * math.pi, 0)
        b = VehicleState(0, 0, -math.pi + 0.02 * math.pi, 0)
        assert planner_metric(a, b, self.CFG) == pytest.approx(0.02)

    def test_norm_states_equal_norm_state(self, params):
        rng = np.random.default_rng(19)
        edges = [k * math.pi + e for k in range(-3, 4) for e in (0.0, 1e-15, -1e-15)]
        th = np.concatenate((rng.uniform(-3 * math.pi, 3 * math.pi, 2000), edges))
        rows = np.column_stack((rng.uniform(-20, 60, len(th)), rng.uniform(-15, 15, len(th)), th,
                                rng.uniform(0, 6, len(th))))
        got = norm_states(rows, self.CFG, params)
        want = [norm_state(VehicleState(*row), self.CFG, params) for row in rows.tolist()]
        assert got.T.tolist() == [list(n) for n in want]

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(5)
        states = [
            VehicleState(*rng.uniform(-20, 20, 2), rng.uniform(-9, 9), rng.uniform(0, 6))
            for _ in range(30)
        ]
        for a in states[:10]:
            for b in states[10:20]:
                dab = planner_metric(a, b, self.CFG)
                assert dab == pytest.approx(planner_metric(b, a, self.CFG))
                for c in states[20:]:
                    assert dab <= (
                        planner_metric(a, c, self.CFG) + planner_metric(c, b, self.CFG) + 1e-12
                    )


class TestSampling:
    def test_state_bounds_and_mean(self, params):
        cfg = make_planner_config()
        rng = np.random.default_rng(11)
        n = 10_000
        draws = np.array(
            [[s.x, s.y, s.theta, s.v] for s in (sample_state(cfg, rng, params) for _ in range(n))]
        )
        bounds = [cfg.x_bounds, cfg.y_bounds, (-math.pi, math.pi), params.v_bounds]
        for i, (lo, hi) in enumerate(bounds):
            col = draws[:, i]
            assert col.min() >= lo and col.max() <= hi
            se = (hi - lo) / math.sqrt(12 * n)
            assert abs(col.mean() - (lo + hi) / 2) < 3 * se

    def test_input_bounds_and_mean(self, params):
        cfg = make_planner_config()
        rng = np.random.default_rng(13)
        n = 10_000
        draws = np.array([[u.a, u.delta] for u in (sample_input(cfg, rng, params) for _ in range(n))])
        assert draws[:, 0].min() >= params.a_bounds[0] and draws[:, 0].max() <= params.a_bounds[1]
        assert draws[:, 1].min() >= params.delta_bounds[0] and draws[:, 1].max() <= params.delta_bounds[1]
        # symmetric truncation keeps the mean at zero; the untruncated sigma
        # over-estimates the standard error, so 3 SE is conservative
        assert abs(draws[:, 0].mean()) < 3 * cfg.sigma_a / math.sqrt(n)
        assert abs(draws[:, 1].mean()) < 3 * cfg.sigma_delta / math.sqrt(n)

    def test_state_matches_scalar_uniform_oracle(self, params):
        cfg = make_planner_config()
        rng = np.random.default_rng(29)
        ref = np.random.default_rng(29)
        bounds = (cfg.x_bounds, cfg.y_bounds, (-math.pi, math.pi), params.v_bounds)
        for _ in range(1000):
            s = sample_state(cfg, rng, params)
            assert s == VehicleState(*(ref.uniform(lo, hi) for lo, hi in bounds))
            assert all(type(f) is float for f in (s.x, s.y, s.theta, s.v))
            # interleaved input draws keep both streams in step
            assert sample_input(cfg, rng, params) == sample_input(cfg, ref, params)

    def test_state_determinism(self, params):
        cfg = make_planner_config()
        a = [sample_state(cfg, np.random.default_rng(7), params) for _ in range(50)]
        b = [sample_state(cfg, np.random.default_rng(7), params) for _ in range(50)]
        assert a == b


class TestValidity:
    def test_in_lane_valid(self, straight_grid, empty_world, params):
        cfg = make_planner_config()
        assert is_state_valid(VehicleState(20, 0, 0, 5), 0.0, straight_grid, empty_world, cfg, params)

    def test_off_road_invalid(self, straight_grid, empty_world, params):
        cfg = make_planner_config()
        assert not is_state_valid(VehicleState(20, -8, 0, 5), 0.0, straight_grid, empty_world, cfg, params)

    def test_outside_bounds_invalid(self, straight_grid, empty_world, params):
        cfg = make_planner_config()
        assert not is_state_valid(VehicleState(200, 0, 0, 5), 0.0, straight_grid, empty_world, cfg, params)

    def test_speed_out_of_range_invalid(self, straight_grid, empty_world, params):
        cfg = make_planner_config()
        assert not is_state_valid(VehicleState(20, 0, 0, 7.0), 0.0, straight_grid, empty_world, cfg, params)

    def test_object_overlap_invalid(self, straight_grid, params):
        cfg = make_planner_config()
        world = WorldModel([ObjectPrediction("car", 4.0, 2.0, [(0.0, 22.0, 0.0, 0.0)])])
        assert not is_state_valid(VehicleState(20, 0, 0, 5), 0.0, straight_grid, world, cfg, params)
        # same pose but the object has moved away by t = 10
        world_moving = WorldModel(
            [ObjectPrediction("car", 4.0, 2.0, [(0.0, 22.0, 0.0, 0.0), (10.0, 80.0, 0.0, 0.0)])]
        )
        assert is_state_valid(VehicleState(20, 0, 0, 5), 10.0, straight_grid, world_moving, cfg, params)


def _crossing_world():
    """A pedestrian crossing the road, and a car that turns into the ego lane and stops."""
    return WorldModel([
        ObjectPrediction("ped", 0.6, 0.6, [(0.0, 14.0, 8.0, -math.pi / 2), (8.0, 14.0, -6.0, -math.pi / 2)]),
        ObjectPrediction(
            "car", 4.0, 2.0,
            [(0.0, 24.0, -8.0, math.pi / 2), (3.0, 24.5, -1.0, 1.4), (5.0, 25.0, 0.0, 0.0)],
        ),
    ])


def _chained_time(tree, depth):
    """The time of a node at depth: the start time plus depth chained additions of
    n_sub*t_step, the time from an edge's start to its last substep."""
    t = tree._times[0]
    for _ in range(depth):
        t += tree._n_sub * tree.config.t_step
    return t


def _propagation_oracle(tree, node, u):
    """Endpoint of u from node, or None, by the uncached reference model, and
    why: "road" (bounds or grid), "object" or "valid"."""
    cfg, params, grid, world = tree.config, tree.params, tree.grid, tree.world
    empty = WorldModel()
    states = propagate(node.state, u, cfg.t_prop, cfg.t_step, params)
    t0 = _chained_time(tree, node.depth)
    for k, s in enumerate(states, start=1):
        t = t0 + k * cfg.t_step
        on_road = is_state_valid(s, t, grid, empty, cfg, params)
        hit = any(
            obb_overlap(s.x, s.y, s.theta, params.length, params.width, *obj.pose_at(t), obj.length, obj.width)
            for obj in world.objects
        )
        assert is_state_valid(s, t, grid, world, cfg, params) == (on_road and not hit)
        if not on_road:
            return None, "road"
        if hit:
            return None, "object"
    end = states[-1]
    return (end.x, end.y, end.theta, end.v), "valid"


def _scenario_tree(node_refs, monkeypatch, name, ego, t):
    """The tree of one dki query of a shipped scenario from ego at time t, and its nodes."""
    sc = load_scenario(SCENARIO_DIR / name)
    trees = []
    run = PlannerTree.run

    def keep(tree):
        trees.append(tree)
        return run(tree)

    monkeypatch.setattr(PlannerTree, "run", keep)
    plan_query(sc, "dki", build_scenario_grid(sc), ego, t, (0, 0), budget=("iters", 1500))
    return trees[0], live_nodes(node_refs)


class TestPropagationKernel:
    def test_matches_uncached_oracle(self, node_refs, straight_goal, straight_grid, weights, params):
        cfg = make_planner_config(budget=1500)
        tree = PlannerTree(
            VehicleState(0.0, 0.0, 0.0, 5.0), 0.0, straight_goal, straight_grid, _crossing_world(), cfg, weights,
            params, np.random.default_rng(4),
        )
        tree.run()

        # every node at every depth, so that nodes of one depth share pose rows
        nodes = live_nodes(node_refs)
        assert len({node.depth for node in nodes}) >= 10
        rng = np.random.default_rng(23)
        outcomes = Counter()
        for node in nodes:
            for _ in range(8):
                u = sample_input(cfg, rng, params)
                expected, why = _propagation_oracle(tree, node, u)
                assert tree.propagate_checked(node, u) == expected
                outcomes[why] += 1
        assert sum(outcomes.values()) >= 300
        assert min(outcomes[w] for w in ("road", "object", "valid")) >= 10, outcomes

    @pytest.mark.parametrize(
        "name, ego, t",
        [
            # the parked car at x = 30 lies ahead
            ("scenario_ii_static_overtake.json", VehicleState(22.0, 0.0, 0.0, 5.0), 0.0),
            # both pedestrians cross the ego lane at x = 55
            ("scenario_iv_vru_steering.json", VehicleState(47.0, 0.0, 0.0, 5.0), 6.0),
        ],
    )
    def test_batch_matches_scalar_path(self, node_refs, monkeypatch, name, ego, t):
        tree, nodes = _scenario_tree(node_refs, monkeypatch, name, ego, t)
        assert len({node.depth for node in nodes}) >= 10
        rng = np.random.default_rng(37)
        # one kernel call for candidates from every node, in mixed order
        starts = [nodes[i] for i in rng.permutation(np.repeat(np.arange(len(nodes)), 8)).tolist()]
        a, delta = sample_inputs(tree.config, rng, tree.params, len(starts))
        idx, ends = tree.propagate_batch(starts, a, delta)
        got = dict(zip(idx.tolist(), map(tuple, ends.tolist())))
        outcomes = Counter()
        for i, (node, u) in enumerate(zip(starts, map(ControlInput, a.tolist(), delta.tolist()))):
            assert got.get(i) == tree.propagate_checked(node, u)
            outcomes[_propagation_oracle(tree, node, u)[1]] += 1
        assert min(outcomes[w] for w in ("road", "object", "valid")) >= 10, outcomes

    def test_integrate_from_broadcast_start(self, node_refs, monkeypatch):
        # the lane branch's call: one read-only start row for every candidate
        tree, nodes = _scenario_tree(
            node_refs, monkeypatch, "scenario_ii_static_overtake.json", VehicleState(22.0, 0.0, 0.0, 5.0), 0.0,
        )
        rng = np.random.default_rng(67)
        cfg, params = tree.config, tree.params
        outcomes = Counter()
        for node in nodes[:: max(1, len(nodes) // 20)]:
            starts = np.broadcast_to(node.state, (100, 4))
            assert not starts.flags.writeable
            a, delta = sample_inputs(cfg, rng, params, 100)
            ends = np.column_stack([M[:, -1] for M in tree.integrate(starts, a, delta)])
            for row, u in zip(ends, map(ControlInput, a.tolist(), delta.tolist())):
                want = tree.propagate_checked(node, u)
                outcomes[want is None] += 1
                if want is None:
                    want = propagate(node.state, u, cfg.t_prop, cfg.t_step, params)[-1]
                # bytes, so that the sign of a zero counts too
                assert row.tobytes() == np.array(want).tobytes(), (node.state, u)
        assert min(outcomes[True], outcomes[False]) >= 10, outcomes

    def test_pose_table_equals_uncached_poses(self, node_refs, monkeypatch):
        # the IV tree has more depths than _xyr's first 16 rows, so that _xyr doubled
        tree, nodes = _scenario_tree(
            node_refs, monkeypatch, "scenario_iv_vru_steering.json", VehicleState(47.0, 0.0, 0.0, 5.0), 6.0,
        )
        n = len(tree._pose_rows)
        assert max(node.depth for node in nodes) < n == len(tree._times) - 1 and 16 < n <= len(tree._xyr)
        assert len(tree.world.objects) == 2
        cfg, params = tree.config, tree.params
        r_ego = 0.5 * math.hypot(params.length, params.width)
        reach = [r_ego + 0.5 * math.hypot(o.length, o.width) for o in tree.world.objects]
        reach2 = [r * r for r in reach]
        # bytes, so that the sign of a zero counts too
        times = [_chained_time(tree, d) for d in range(n + 1)]
        assert times[0] == 6.0 and np.array(tree._times).tobytes() == np.array(times).tobytes()
        for d, row in enumerate(tree._pose_rows):
            # the substeps after depth d's time, the last one at depth d + 1's
            assert len(row) == tree._n_sub
            for k, entry in enumerate(row, start=1):
                t = times[d] + k * cfg.t_step
                want = [(*obj.pose_at(t), r2) for obj, r2 in zip(tree.world.objects, reach2)]
                assert [e[3] for e in entry] == tree.world.objects
                assert np.array([e[:3] + e[4:] for e in entry]).tobytes() == np.array(want).tobytes(), (d, k)
            xyr = [[(e[0], e[1], e[4]) for e in entry] for entry in row]
            assert tree._xyr[d].tobytes() == np.array(xyr).tobytes(), d

    def test_batch_matches_scalar_path_past_the_pose_rows(self, node_refs, monkeypatch):
        # a fresh tree has no pose row, and _xyr fewer rows than the IV tree
        # has depths, so that both grow within one kernel call
        tree, nodes = _scenario_tree(
            node_refs, monkeypatch, "scenario_iv_vru_steering.json", VehicleState(47.0, 0.0, 0.0, 5.0), 6.0,
        )
        fresh = PlannerTree(
            tree.root.state, tree._times[0], tree.goal, tree.grid, tree.world, tree.config, tree.weights, tree.params,
            np.random.default_rng(0),
        )
        rows = len(fresh._xyr)
        depth = max(node.depth for node in nodes)
        assert not fresh._pose_rows and depth >= rows
        rng = np.random.default_rng(61)
        starts = [nodes[i] for i in rng.permutation(np.repeat(np.arange(len(nodes)), 4)).tolist()]
        a, delta = sample_inputs(fresh.config, rng, fresh.params, len(starts))
        idx, ends = fresh.propagate_batch(starts, a, delta)
        assert len(fresh._pose_rows) == depth + 1 and len(fresh._xyr) > rows
        got = dict(zip(idx.tolist(), map(tuple, ends.tolist())))
        outcomes = Counter()
        for i, (node, u) in enumerate(zip(starts, map(ControlInput, a.tolist(), delta.tolist()))):
            assert got.get(i) == fresh.propagate_checked(node, u)
            outcomes[_propagation_oracle(fresh, node, u)[1]] += 1
        assert min(outcomes[w] for w in ("road", "object", "valid")) >= 10, outcomes

    def test_node_time_is_its_edges_last_substep_time(self, node_refs, straight_goal, straight_grid, weights, params):
        # 3 substeps of 0.1 s do not add up to t_prop = 0.3 s: a node's time is
        # that of its edge's last substep, at which its endpoint was checked
        cfg = make_planner_config(budget=600, t_prop=0.3, t_step=0.1)
        assert 3 * cfg.t_step != cfg.t_prop
        tree = PlannerTree(
            VehicleState(0.0, 0.0, 0.0, 5.0), 0.0, straight_goal, straight_grid, _crossing_world(), cfg, weights,
            params, np.random.default_rng(4),
        )
        tree.run()
        nodes = [node for node in live_nodes(node_refs) if node.parent is not None]
        assert len({node.depth for node in nodes}) >= 5
        poser = objects.WorldPoser(tree.world, params.length, params.width)
        for node in nodes:
            t = tree._times[node.parent.depth] + 3 * cfg.t_step
            assert tree._times[node.depth] == t
            # and the node is priced with the objects posed at that time
            s = node.state
            assert node.state_cost_w == tree._state_cost_w(s.x, s.y, s.v, poser.at(t))

    @staticmethod
    def _assert_rows_equal_scalar(tree, starts, a, delta):
        """Each row of one propagate_batch call is propagate_checked's state, bytes and all; returns the rows."""
        idx, ends = tree.propagate_batch(starts, np.array(a), np.array(delta))
        got = dict(zip(idx.tolist(), ends))
        for i, (node, u) in enumerate(zip(starts, map(ControlInput, a, delta))):
            want = tree.propagate_checked(node, u)
            assert (i in got) == (want is not None), (node.state, u)
            if want is not None:
                # bytes, so that the sign of a zero counts too
                assert got[i].tobytes() == np.array(want).tobytes(), (node.state, u, got[i], want)
        return got

    def test_batch_matches_scalar_path_at_speed_bounds(self, straight_goal, straight_grid, empty_world, weights,
                                                       params):
        # a start may lie up to 1e-9 outside v_bounds; step 1 clamps it, and
        # a start at a bound may be clamped at every substep or leave it
        v_lo, v_hi = params.v_bounds
        speeds = [v_lo, -0.0, v_lo - 5e-10, v_lo - 1e-9, v_lo + 0.05, v_hi, v_hi + 5e-10, v_hi + 1e-9, v_hi - 0.05]
        accels = [0.8, 0.3, 1e-12, 0.0, -0.0, -1e-12, -0.3, -0.8]
        cfg = make_planner_config(budget=1)
        tree = PlannerTree(
            VehicleState(0.0, 0.0, 0.0, 5.0), 0.0, straight_goal, straight_grid, empty_world, cfg, weights, params,
            np.random.default_rng(0),
        )
        cases = [(v, acc, d) for v in speeds for acc in accels for d in (0.0, 0.1)]
        starts = [TreeNode(VehicleState(20.0, 0.0, 0.0, v), None, None, 0.0, 0.0) for v, _, _ in cases]
        got = self._assert_rows_equal_scalar(tree, starts, [c[1] for c in cases], [c[2] for c in cases])
        assert len(got) == len(cases)
        ends = {float(row[3]) for row in got.values()}
        assert {v_lo, v_hi} <= ends and len(ends) > 4

    def test_batch_matches_scalar_path_across_heading_wrap(self, straight_goal, straight_grid, empty_world, weights,
                                                           params):
        # headings that cross +-pi mid-propagation, and starts outside (-pi, pi]
        cfg = make_planner_config(budget=1)
        tree = PlannerTree(
            VehicleState(0.0, 0.0, 0.0, 5.0), 0.0, straight_goal, straight_grid, empty_world, cfg, weights, params,
            np.random.default_rng(0),
        )
        headings = [math.pi, -math.pi, math.pi - 0.15, -math.pi + 0.15, 3.0 * math.pi, -7.0, 0.01, -0.01]
        cases = [(th, d) for th in headings for d in (0.4, 0.0, -0.4)]
        starts = [TreeNode(VehicleState(30.0, 1.75, th, 6.0), None, None, 0.0, 0.0) for th, _ in cases]
        got = self._assert_rows_equal_scalar(tree, starts, [0.5] * len(cases), [d for _, d in cases])
        assert len(got) == len(cases)
        # a start 0.15 short of pi, steered left, crosses it after a few substeps
        assert got[headings.index(math.pi - 0.15) * 3][2] < 0.0

    @pytest.mark.parametrize(
        "name, ego, t",
        [
            ("scenario_ii_static_overtake.json", VehicleState(22.0, 0.0, 0.0, 5.0), 0.0),
            ("scenario_iv_vru_steering.json", VehicleState(47.0, 0.0, 0.0, 5.0), 6.0),
        ],
    )
    def test_batch_makes_the_scalar_object_checks(self, node_refs, monkeypatch, name, ego, t):
        # the kernel runs object_hit where the scalar path runs it, and no
        # further: the separating-axis test runs as often in both
        tree, nodes = _scenario_tree(node_refs, monkeypatch, name, ego, t)
        rng = np.random.default_rng(53)
        starts = [nodes[i] for i in rng.permutation(np.repeat(np.arange(len(nodes)), 4)).tolist()]
        a, delta = sample_inputs(tree.config, rng, tree.params, len(starts))
        calls = Counter()
        side = "batch"

        def counted(*args):
            calls[side] += 1
            return obb_overlap(*args)

        monkeypatch.setattr(objects, "obb_overlap", counted)
        tree.propagate_batch(starts, a, delta)
        side = "scalar"
        for node, u in zip(starts, map(ControlInput, a.tolist(), delta.tolist())):
            tree.propagate_checked(node, u)
        assert calls["scalar"] > 100
        assert calls["batch"] == calls["scalar"]


class TestKernelExactness:
    """Host properties that let propagate_batch equal propagate_checked bit for bit."""

    def test_numpy_sin_cos_equal_math(self):
        th = np.random.default_rng(41).uniform(-2.0 * math.pi, 2.0 * math.pi, 100_000)
        for name in ("sin", "cos"):
            got = getattr(np, name)(th).tolist()
            want = list(map(getattr(math, name), th.tolist()))
            bad = sum(g != w for g, w in zip(got, want))
            assert bad == 0, (
                f"host property: np.{name} differs from math.{name} on {bad} of {len(want)} arguments, "
                "so the batched propagation kernel cannot match the scalar one on this host"
            )

    def test_accumulate_equals_running_sum(self):
        # rows of mixed signs and magnitudes, accumulated in place in a column slice as the kernel does
        rng = np.random.default_rng(59)
        rows = rng.standard_normal((2_000, 12)) * 10.0 ** rng.integers(-12, 3, (2_000, 12))
        rows[::7, 1:] = rows[::7, 1:2]
        got = rows.copy()
        np.add.accumulate(got[:, 1:], axis=1, out=got[:, 1:])
        want = rows.tolist()
        for row in want:
            for k in range(2, len(row)):
                row[k] = row[k - 1] + row[k]
        bad = int(np.count_nonzero(got != np.array(want)))
        assert bad == 0, (
            f"host property: np.add.accumulate differs from a running sum in {bad} places, so the batched "
            "propagation kernel cannot match the scalar one on this host"
        )

    def test_fmod_wrap_equals_math_remainder(self):
        th = np.random.default_rng(43).uniform(-3.0 * math.pi, 3.0 * math.pi, 100_000)
        edges = [k * math.pi + e for k in range(-4, 5) for e in (0.0, 1e-15, -1e-15)]
        th = np.concatenate((th, edges, np.nextafter(edges, math.inf), np.nextafter(edges, -math.inf)))
        got = normalize_angles(th.copy()).tolist()
        want = list(map(normalize_angle, th.tolist()))
        bad = sum(g != w for g, w in zip(got, want))
        assert bad == 0, (
            f"host property: np.fmod with one 2 pi correction differs from math.remainder on {bad} of "
            f"{len(want)} angles, so the batched propagation kernel cannot match the scalar one on this host"
        )

    def test_scaled_standard_normal_equals_normal(self):
        scale = (0.8, 0.2)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            for m in (1, 2, 7, 64, 100):
                got = 0.0 + np.multiply(scale, rng.standard_normal((m, 2)))
                want = ref.normal(0.0, scale, size=(m, 2))
                # bytes, so that the sign of a zero counts too
                assert got.tobytes() == want.tobytes(), (
                    f"host property: 0.0 + scale * standard_normal differs from normal(0.0, scale) at seed "
                    f"{seed}, size {m}, so sample_inputs does not draw what rng.normal would"
                )
                got = np.array([0.0 + sigma * rng.standard_normal() for sigma in scale])
                want = np.array([ref.normal(0.0, sigma) for sigma in scale])
                assert got.tobytes() == want.tobytes(), (
                    f"host property: 0.0 + sigma * standard_normal() differs from normal(0.0, sigma) at seed "
                    f"{seed}, so sample_input does not draw what rng.normal would"
                )
                assert rng.bit_generator.state == ref.bit_generator.state

    # (2.45, 8.0): a joint chance of 1.05e-3, just above the loader's floor, so
    # that the look-ahead of 2n draws has to double about nine times
    @pytest.mark.parametrize("a_bounds", [(-0.8, 0.8), (0.1, 0.15), (2.45, 8.0)])
    def test_sample_inputs_equal_scalar_draws(self, a_bounds):
        cfg = make_planner_config()
        params = VehicleParams(a_bounds=a_bounds)
        chance = _chance_within(a_bounds, cfg.sigma_a) * _chance_within(params.delta_bounds, cfg.sigma_delta)
        assert chance > 1e-3
        rng = np.random.default_rng(47)
        ref = np.random.default_rng(47)
        for n in (0, 1, 7, 100):
            a, delta = sample_inputs(cfg, rng, params, n)
            want = [sample_input(cfg, ref, params) for _ in range(n)]
            assert a.shape == delta.shape == (n,)
            assert list(map(ControlInput, a.tolist(), delta.tolist())) == want
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("a_bounds", [(-0.8, 0.8), (0.1, 0.15)])
    def test_sample_batch_equals_scalar_draws(self, a_bounds):
        cfg = make_planner_config()
        params = VehicleParams(a_bounds=a_bounds)
        rng = np.random.default_rng(59)
        ref = np.random.default_rng(59)
        for k in (0, 1, 64):
            states, inputs = sample_batch(cfg, rng, params, k)
            want_states, want_inputs = [], []
            for _ in range(k):
                want_states.append(sample_state(cfg, ref, params))
                want_inputs.append(sample_input(cfg, ref, params))
            # bytes, so that the sign of a zero counts too
            assert states.tobytes() == np.array(want_states, float).reshape(k, 4).tobytes()
            assert inputs.tobytes() == np.array(want_inputs, float).reshape(k, 2).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


class TestGridCells:
    def test_propagation_uses_the_lookup_cell_rule(self, straight_goal, empty_world, weights, params):
        # columns of a 0.2 m grid alternate valid and invalid; a state on a
        # cell edge x = k * 0.2 lies in the cell PenaltyGrid.lookup picks
        res = 0.2
        n_cols = 484
        cells = np.tile(np.arange(n_cols) % 2 * 100.0, (50, 1))
        grid = PenaltyGrid((0.0, -5.0), cells, GridConfig(res))
        cfg = PlannerConfig(iteration_budget=1).with_bounds((0.0, n_cols * res), (-5.0, 5.0))
        tree = PlannerTree(
            VehicleState(0.1, 0.0, 0.0, 0.0), 0.0, straight_goal, grid, empty_world, cfg, weights, params,
            np.random.default_rng(0),
        )
        nodes = [TreeNode(VehicleState(k * res, 0.0, 0.0, 0.0), None, None, 0.0, 0.0) for k in range(n_cols)]
        valid = [is_state_valid(node.state, 0.0, grid, empty_world, cfg, params) for node in nodes]
        assert 200 < sum(valid) < n_cols - 200
        # at v = 0 a zero input leaves every substate at its start
        ends = [tree.propagate_checked(node, ControlInput(0.0, 0.0)) for node in nodes]
        assert [end is not None for end in ends] == valid
        # the kernel, with every cell-edge state in one call
        idx, _ = tree.propagate_batch(nodes, np.zeros(n_cols), np.zeros(n_cols))
        assert idx.tolist() == np.flatnonzero(valid).tolist()


# a 0.2 m grid of 100 x 50 cells from (0, -5), for the batch price test
_RES = 0.2
_PRICE_GRID = PenaltyGrid((0.0, -5.0), np.random.default_rng(0).uniform(0.0, 50.0, (50, 100)), GridConfig(_RES))


def _coordinate(origin, n_cells):
    """A coordinate on a cell edge origin + k * _RES, some past the grid's
    ends (where lookup gives p_max), or anywhere around the grid."""
    return st.one_of(
        st.integers(-3, n_cells + 3).map(lambda k: origin + k * _RES),
        st.floats(origin - 2.0, origin + (n_cells + 2) * _RES),
    )


# one endpoint: its parent's depth below the root, state, cost and state
# cost, and the endpoint's (x, y, v)
_PRICE_ROW = st.tuples(
    st.integers(0, 40),
    st.tuples(_coordinate(0.0, 100), _coordinate(-5.0, 50), st.floats(-3.0, 3.0), st.floats(0.0, 15.0)),
    # large costs make near ties: the edge cost is then a few ulps of the sum
    st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(1e12, 1e16)),
    st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    st.tuples(_coordinate(0.0, 100), _coordinate(-5.0, 50), st.floats(0.0, 15.0)),
)


def _price_tree(straight_net, params, start_time, with_objects, term):
    """A tree on _PRICE_GRID, with or without moving objects, and the default
    weights, or one term alone (no other term's rounding hides it)."""
    weights = CostWeights()
    if term is not None:
        zero = dict(path_length=0.0, desired_velocity=0.0, penalty_grid=0.0, target_clearance=0.0)
        weights = CostWeights(**{**zero, term: 1.0})
    start = VehicleState(1.0, 0.0, 0.0, 5.0)
    return PlannerTree(
        start, start_time, compute_goal_region(straight_net, 11.0, GoalConfig()), _PRICE_GRID,
        _crossing_world() if with_objects else WorldModel(), make_planner_config(), weights, params,
        np.random.default_rng(0),
    )


def _assert_prices_equal(tree, parents, ends):
    """_price gives try_insert's state cost and cost, row by row, as bytes."""
    scw, cost = tree._price(parents, np.array(ends))
    nodes = [tree.try_insert(p, VehicleState(*e), ControlInput(0.0, 0.0), None) for p, e in zip(parents, ends)]
    assert scw.tobytes() == np.array([node.state_cost_w for node in nodes]).tobytes()
    assert cost.tobytes() == np.array([node.cost for node in nodes]).tobytes()


_TERMS = [None, "path_length", "penalty_grid", "target_clearance"]


class TestBatchPrices:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        rows=st.lists(_PRICE_ROW, min_size=1, max_size=24),
        start_time=st.sampled_from([0.0, 0.3, 6.0]),
        with_objects=st.booleans(),
        n_ties=st.integers(0, 4),
        term=st.sampled_from(_TERMS),
    )
    def test_equal_try_insert(self, straight_net, params, rows, start_time, with_objects, n_ties, term):
        tree = _price_tree(straight_net, params, start_time, with_objects, term)
        # a chain of nodes below the root: node k lies at depth k, and so does
        # a parent that shares its parent
        chain = [tree.root]
        for _ in range(40):
            chain.append(TreeNode(tree.root.state, None, chain[-1], 0.0, 0.0))
        parents = [
            TreeNode(VehicleState(*state), None, chain[depth].parent, cost, scw)
            for depth, state, cost, scw, _ in rows
        ]
        ends = [(x, y, 0.0, v) for *_, (x, y, v) in rows]
        # endpoints one ulp apart from the same parent: their costs tie or
        # differ by an ulp
        for _ in range(n_ties):
            x, y, th, v = ends[-1]
            parents.append(parents[-1])
            ends.append((float(np.nextafter(x, math.inf)), y, th, v))
        _assert_prices_equal(tree, parents, ends)

    @pytest.mark.parametrize("term", _TERMS)
    def test_equal_try_insert_in_bulk(self, straight_net, params, term):
        # numpy's hypot and exp differ from math's in about 0.5 % and 5 % of
        # values; thousands of rows around the objects, from parents of zero
        # cost, show such a difference in any one term
        tree = _price_tree(straight_net, params, 0.3, True, term)
        rng = np.random.default_rng(1)
        starts = rng.uniform((0.0, -5.0), (30.0, 8.0), (4096, 2))
        xy = starts + rng.uniform(-2.5, 2.5, starts.shape)
        ends = np.column_stack((xy, np.zeros(4096), rng.uniform(0.0, 15.0, 4096)))
        # parents at depths 0-19, so that the objects are posed at 20 times
        chain = [tree.root]
        for _ in range(19):
            chain.append(TreeNode(tree.root.state, None, chain[-1], 0.0, 0.0))
        parents = [
            TreeNode(VehicleState(x, y, 0.0, 5.0), None, chain[k % 20].parent, 0.0, 0.0)
            for k, (x, y) in enumerate(starts.tolist())
        ]
        assert {p.depth for p in parents} == set(range(20))
        _assert_prices_equal(tree, parents, ends.tolist())


def _grow_tree(straight_goal, straight_grid, empty_world, weights, params, budget, seed=0):
    cfg = make_planner_config(budget=budget)
    tree = PlannerTree(
        VehicleState(0.0, 0.0, 0.0, 5.0), 0.0, straight_goal, straight_grid, empty_world,
        cfg, weights, params, np.random.default_rng(seed),
    )
    result = tree.run()
    return tree, result


class TestSelect:
    def test_best_cost_within_radius(self, straight_goal, straight_grid, empty_world, weights, params):
        tree, _ = _grow_tree(straight_goal, straight_grid, empty_world, weights, params, budget=0)
        # hand-placed nodes: cheap node at 0.15, expensive node at 0.05
        sample = VehicleState(20.0, 0.0, 0.0, 3.0)

        def add(state, cost):
            node = TreeNode(state, None, tree.root, cost, 0.0)
            tree._add_witness(node, norm_state(state, tree.config, params))
            return node

        cheap = add(VehicleState(21.5, 0.0, 0.0, 3.0), 5.0)   # dist 0.15
        add(VehicleState(20.5, 0.0, 0.0, 3.0), 10.0)          # dist 0.05
        assert tree.select(sample) is cheap

    def test_nearest_when_none_in_radius(self, straight_goal, straight_grid, empty_world, weights, params):
        tree, _ = _grow_tree(straight_goal, straight_grid, empty_world, weights, params, budget=0)
        # only the root exists, far from the sample
        picked = tree.select(VehicleState(45.0, 10.0, 1.0, 0.0))
        assert picked is tree.root

    def test_brute_force_oracle(self, straight_goal, straight_grid, empty_world, weights, params):
        tree, _ = _grow_tree(straight_goal, straight_grid, empty_world, weights, params, budget=2000)
        cfg = tree.config
        active = tree._reps
        assert len(active) > 50
        rng = np.random.default_rng(17)
        for _ in range(1000):
            sample = sample_state(cfg, rng, params)
            n = norm_state(sample, cfg, params)
            dists = np.array([wrap_dist(norm_state(node.state, cfg, params), n) for node in active])
            picked = tree.select(sample)
            picked_dist = wrap_dist(norm_state(picked.state, cfg, params), n)
            in_range = dists <= cfg.d_near
            if in_range.any():
                best_cost = min(node.cost for node, ok in zip(active, in_range) if ok)
                assert picked_dist <= cfg.d_near
                assert picked.cost == best_cost
            else:
                assert picked_dist == pytest.approx(dists.min())


def _brute_nearest(cols, pts):
    """The oracle of PlannerTree._nearest: argmin over each point's full distance row."""
    index, dist = [], []
    for r in range(pts.shape[1]):
        d = state_distance(cols, pts[:, r])
        index.append(int(d.argmin()))
        dist.append(d[index[-1]])
    return index, np.array(dist)


class TestNearest:
    @settings(max_examples=150, deadline=None)
    @given(
        # n * w on both sides of _FULL_PASS, n = 0 a batch with no valid endpoint
        n=st.sampled_from([0, 1, 5, 64]),
        w=st.sampled_from([1, 2, 40, 128, 129, 400, 1500]),
        # normalized xy near 1e4 make the product's error largest
        offset=st.sampled_from([0.0, 1.0, 1e4]),
        spread=st.sampled_from([1e-6, 0.05, 1.0, 8.0]),
        n_dup=st.integers(0, 30),
        n_hit=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=64, w=129, offset=1e4, spread=0.05, n_dup=30, n_hit=10, seed=0)
    def test_equals_brute_force(self, n, w, offset, spread, n_dup, n_hit, seed):
        rng = np.random.default_rng(seed)
        cols = np.vstack((offset + spread * rng.random((2, w)), rng.random((2, w))))
        pts = np.vstack((offset + spread * rng.random((2, n)), rng.random((2, n))))
        # duplicate columns, earlier and later ones: the first index wins a tie
        cols[:, rng.integers(0, w, n_dup)] = cols[:, rng.integers(0, w, n_dup)]
        if n:
            # points on a column, and points on a column's xy only
            pts[:, rng.integers(0, n, n_hit)] = cols[:, rng.integers(0, w, n_hit)]
            pts[:2, rng.integers(0, n, n_hit)] = cols[:2, rng.integers(0, w, n_hit)]
        index, dist = PlannerTree._nearest(cols, pts)
        want_index, want_dist = _brute_nearest(cols, pts)
        assert index.tolist() == want_index
        assert dist.tobytes() == want_dist.tobytes()


def _assert_witnesses_sparse(tree):
    """No two witnesses of the tree lie within d_prune of each other."""
    norms = tree._table[:4, : len(tree._reps)].T
    assert len(norms) == tree.n_witnesses
    # chunked pairwise distances with heading wrap
    d_prune = tree.config.d_prune
    for i in range(0, len(norms), 512):
        chunk = norms[i : i + 512]
        dx = chunk[:, None, 0] - norms[None, :, 0]
        dy = chunk[:, None, 1] - norms[None, :, 1]
        dth = np.abs(chunk[:, None, 2] - norms[None, :, 2])
        dth = np.minimum(dth, 1.0 - dth)
        dv = chunk[:, None, 3] - norms[None, :, 3]
        dist = np.sqrt(dx * dx + dy * dy + dth * dth + dv * dv)
        # ignore self-distances on the diagonal block
        np.fill_diagonal(dist[:, i : i + 512], np.inf)
        assert dist.min() > d_prune


class TestWitnessSparsity:
    def test_pairwise_separation(self, straight_goal, straight_grid, empty_world, weights, params):
        tree, _ = _grow_tree(straight_goal, straight_grid, empty_world, weights, params, budget=10_000)
        assert tree.n_witnesses > 100
        _assert_witnesses_sparse(tree)

    def test_wall_time_budget(self, monkeypatch):
        # a wall-time budget checks its deadline once per batch of the main loop
        sc = load_scenario(SCENARIO_DIR / "scenario_iv_vru_steering.json")
        trees = []
        run = PlannerTree.run
        monkeypatch.setattr(PlannerTree, "run", lambda tree: trees.append(tree) or run(tree))
        grid = build_scenario_grid(sc)
        started = time.perf_counter()
        result = plan_query(sc, "base", grid, VehicleState(47.0, 0.0, 0.0, 5.0), 6.0, (0, 0), budget=("time", 0.05))
        assert time.perf_counter() - started < 5.0
        assert result.iterations > 0 and result.n_witnesses == trees[0].n_witnesses > 1
        _assert_witnesses_sparse(trees[0])

    def test_active_nodes_are_exactly_reps(self, straight_goal, straight_grid, empty_world, weights, params):
        tree, _ = _grow_tree(straight_goal, straight_grid, empty_world, weights, params, budget=5_000)
        reps = {id(rep) for rep in tree._reps}
        assert len(reps) == len(tree._reps) == tree.n_witnesses
        # each table column mirrors its representative
        for i, rep in enumerate(tree._reps):
            assert tuple(tree._table[4:8, i]) == norm_state(rep.state, tree.config, params)
            assert tree._table[8, i] == rep.cost


class TestPlan:
    def test_solves_straight_road(self, straight_goal, straight_grid, empty_world, weights, params, ego_start):
        cfg = make_planner_config(budget=20_000)
        result = plan(ego_start, 0.0, straight_goal, straight_grid, empty_world, cfg, weights, params, np.random.default_rng(7))
        assert result.solved
        assert result.iterations == 20_000
        assert math.isfinite(result.cost) and result.cost > 0
        traj = result.trajectory
        assert traj.samples[0].state == ego_start
        assert straight_goal.contains_xy(traj.samples[-1].state.x, traj.samples[-1].state.y)
        # timestamps advance by exactly one propagation period per edge
        for a, b in zip(traj.samples, traj.samples[1:]):
            assert b.t - a.t == pytest.approx(cfg.t_prop)

    def test_solution_validity_closure(self, straight_goal, straight_grid, empty_world, weights, params, ego_start):
        cfg = make_planner_config(budget=20_000)
        result = plan(ego_start, 0.0, straight_goal, straight_grid, empty_world, cfg, weights, params, np.random.default_rng(7))
        traj = result.trajectory
        for a, b in zip(traj.samples, traj.samples[1:]):
            # every edge is an exact replay of its stored input, and all
            # integration substates are valid at their own timestamps
            subs = propagate(a.state, b.input, cfg.t_prop, cfg.t_step, params)
            end = subs[-1]
            assert (end.x, end.y, end.v) == (b.state.x, b.state.y, b.state.v)
            for k, s in enumerate(subs, start=1):
                assert is_state_valid(s, a.t + k * cfg.t_step, straight_grid, empty_world, cfg, params)

    def test_anytime_cost_monotone(self, straight_goal, straight_grid, empty_world, weights, params, ego_start):
        cfg = make_planner_config(budget=20_000)
        result = plan(ego_start, 0.0, straight_goal, straight_grid, empty_world, cfg, weights, params, np.random.default_rng(3))
        assert result.solved
        history = result.cost_history
        assert history and history[-1][1] == result.cost
        iters = [h[0] for h in history]
        costs = [h[1] for h in history]
        assert iters == sorted(iters)
        assert all(c1 < c0 for c0, c1 in zip(costs, costs[1:]))

    def test_every_insert_makes_its_depths_time(self, straight_goal, straight_grid, empty_world, weights, params):
        # the batch commits an endpoint with its prices; without objects
        # nothing else makes a new depth's time, which _chain_trajectory reads
        tree, _ = _grow_tree(straight_goal, straight_grid, empty_world, weights, params, budget=0)
        node, u = tree.root, ControlInput(0.5, 0.0)
        for depth in range(1, 6):
            s = node.state
            end = VehicleState(s.x + 2.0, s.y, s.theta, s.v)
            node = tree.try_insert(node, end, u, None, (0.0, float(depth), norm_state(end, tree.config, params)))
            assert node.depth == depth and len(tree._times) == depth + 1
        tree._record_solution(node)
        assert [sample.t for sample in tree.best_trajectory.samples] == [_chained_time(tree, d) for d in range(6)]

    def test_zero_budget_unsolved(self, straight_goal, straight_grid, empty_world, weights, params, ego_start):
        cfg = make_planner_config(budget=0)
        result = plan(ego_start, 0.0, straight_goal, straight_grid, empty_world, cfg, weights, params, np.random.default_rng(0))
        assert not result.solved
        assert result.trajectory is None
        assert result.cost == math.inf
        assert result.n_nodes == 1

    def test_goal_outside_bounds_unsolved(self, straight_net, straight_grid, empty_world, weights, params, ego_start):
        from urbansst.road import compute_goal_region

        goal = compute_goal_region(straight_net, 10.0, GoalConfig())
        cfg = PlannerConfig(iteration_budget=2_000).with_bounds((-15.0, 10.0), (-10.0, 12.0))
        result = plan(ego_start, 0.0, goal, straight_grid, empty_world, cfg, weights, params, np.random.default_rng(0))
        assert not result.solved

    def test_deterministic_given_seed(self, straight_goal, straight_grid, empty_world, weights, params, ego_start):
        cfg = make_planner_config(budget=3_000)
        r1 = plan(ego_start, 0.0, straight_goal, straight_grid, empty_world, cfg, weights, params, np.random.default_rng(21))
        r2 = plan(ego_start, 0.0, straight_goal, straight_grid, empty_world, cfg, weights, params, np.random.default_rng(21))
        assert r1.cost == r2.cost
        assert r1.n_nodes == r2.n_nodes
        assert r1.n_witnesses == r2.n_witnesses
        if r1.solved:
            assert [s.state for s in r1.trajectory.samples] == [s.state for s in r2.trajectory.samples]

    def test_tree_freed_without_cyclic_gc(self, node_refs, straight_goal, straight_grid, empty_world, weights, params, ego_start):
        cfg = make_planner_config(budget=3_000)
        gc.disable()
        try:
            result = plan(ego_start, 0.0, straight_goal, straight_grid, empty_world, cfg, weights, params, np.random.default_rng(21))
            alive = sum(ref() is not None for ref in node_refs)
        finally:
            gc.enable()
        assert result.solved and len(node_refs) > 100
        assert alive == 0

    def test_invalid_start_raises(self, straight_goal, straight_grid, empty_world, weights, params):
        cfg = make_planner_config()
        with pytest.raises(InvalidStartError):
            plan(
                VehicleState(0.0, -8.0, 0.0, 5.0), 0.0, straight_goal, straight_grid, empty_world, cfg, weights, params,
                np.random.default_rng(0),
            )

    def test_start_in_goal_immediately_solved(self, straight_goal, straight_grid, empty_world, weights, params):
        cfg = make_planner_config(budget=0)
        start = VehicleState(30.0, 0.0, 0.0, 5.0)
        result = plan(start, 0.0, straight_goal, straight_grid, empty_world, cfg, weights, params, np.random.default_rng(0))
        assert result.solved
        assert result.cost == 0.0
        assert len(result.trajectory.samples) == 1

    @pytest.mark.xfail(
        strict=True,
        reason="known limitation: from rest, one 0.4 s edge ends at most about 0.054 from the root in the "
        "planner metric, within d_prune = 0.1 of its witness, so no edge from below about 1.9 m/s is kept",
    )
    @pytest.mark.parametrize("mode", ["base", "dki"])
    def test_query_from_slow_start_grows_the_tree(self, mode):
        sc = load_scenario(SCENARIO_DIR / "scenario_iii_roundabout.json")
        assert sc.planner.d_prune == 0.1
        ego = sc.ego_state._replace(v=1.0)
        result = plan_query(sc, mode, build_scenario_grid(sc), ego, 0.0, (0, 0), budget=("iters", 300))
        assert result.n_witnesses > 1


def _run_sequentially(tree):
    """The main loop one iteration at a time: the oracle of PlannerTree.run's batches."""
    cfg, params, rng = tree.config, tree.params, tree.rng
    while tree.iterations_used < cfg.iteration_budget:
        tree.iterations_used += 1
        x_rand = sample_state(cfg, rng, params)
        node = tree.select(x_rand)
        u = sample_input(cfg, rng, params)
        end = tree.propagate_checked(node, u)
        if end is not None:
            tree.try_insert(node, end, u)


class TestBatchedLoop:
    @pytest.mark.parametrize("d_near", [0.2, 1.0])
    @pytest.mark.parametrize("mode", ["base", "dki"])
    @pytest.mark.parametrize(
        "name, ego, t",
        [
            ("scenario_ii_static_overtake.json", VehicleState(22.0, 0.0, 0.0, 5.0), 0.0),
            ("scenario_iii_roundabout.json", None, 0.0),
            ("scenario_iv_vru_steering.json", VehicleState(47.0, 0.0, 0.0, 5.0), 6.0),
        ],
    )
    def test_equals_sequential_loop(self, monkeypatch, name, ego, t, mode, d_near):
        sc = load_scenario(SCENARIO_DIR / name)
        sc = replace(sc, planner=replace(sc.planner, d_near=d_near))
        grid = build_scenario_grid(sc)
        trees = []
        run = PlannerTree.run
        select = PlannerTree.select
        nearest = PlannerTree._nearest
        stale_by = PlannerTree._stale_by
        try_insert = PlannerTree.try_insert
        selects = Counter()
        filtered = Counter()
        revived = Counter()
        looked_up = Counter()
        # the iteration of the last select call
        selected = [None]

        def counted_select(tree, x_rand):
            selects[len(trees)] += 1
            selected[0] = tree.iterations_used
            return select(tree, x_rand)

        def counted_nearest(cols, pts):
            filtered[len(trees)] += cols.shape[1] * pts.shape[1] > _FULL_PASS
            return nearest(cols, pts)

        def counted_stale_by(norm, samples, reach):
            # one state's row, in an iteration that redid no pick: an endpoint
            # that its snapshot witness dominated, revived by a nearer
            # witness that the batch appended
            revived[len(trees)] += np.ndim(norm) == 1 and trees[-1].iterations_used != selected[0]
            return stale_by(norm, samples, reach)

        def counted_try_insert(tree, parent, state, u, near=_LOOK_UP, priced=None):
            # a kernel endpoint that a witness the batch appended is nearer to
            # than its snapshot witness: the table gives its witness
            looked_up[len(trees)] += priced is not None and near is _LOOK_UP
            return try_insert(tree, parent, state, u, near, priced)

        def grow(tree):
            trees.append(tree)
            if len(trees) == 2:
                _run_sequentially(tree)
            return run(tree)

        monkeypatch.setattr(PlannerTree, "run", grow)
        monkeypatch.setattr(PlannerTree, "select", counted_select)
        monkeypatch.setattr(PlannerTree, "_nearest", staticmethod(counted_nearest))
        monkeypatch.setattr(PlannerTree, "_stale_by", staticmethod(counted_stale_by))
        monkeypatch.setattr(PlannerTree, "try_insert", counted_try_insert)
        # a budget that is not a multiple of the batch size; dki seeding
        # spends up to 1 400 of it
        batched, sequential = (
            plan_query(sc, mode, grid, ego or sc.ego_state, t, (0, 0), budget=("iters", 3037)) for _ in range(2)
        )
        assert (batched.iterations, batched.n_nodes, batched.n_witnesses) == (
            sequential.iterations, sequential.n_nodes, sequential.n_witnesses,
        )
        assert batched.cost_history == sequential.cost_history
        assert batched.trajectory == sequential.trajectory
        a, b = trees
        w = a.n_witnesses
        assert a._table[:, :w].tobytes() == b._table[:, :w].tobytes()
        assert [(r.state, r.depth, r.cost) for r in a._reps] == [(r.state, r.depth, r.cost) for r in b._reps]
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
        # the batched loop redid some of its picks through the scalar path
        assert selects[1] > 0
        # and ranked past the one-pass limit through the xy filter, except on
        # III/dki, whose witness table stays small
        assert filtered[1] > 0 or (name, mode) == ("scenario_iii_roundabout.json", "dki")
        # and, on II and IV/dki, committed an endpoint that its snapshot
        # witness dominated
        if name.startswith("scenario_ii_") or (name, mode) == ("scenario_iv_vru_steering.json", "dki"):
            assert revived[1] > 0
        # and looked an endpoint's witness up in the table
        assert looked_up[1] > 0

    @pytest.mark.parametrize(
        "name, mode",
        [
            ("scenario_ii_static_overtake.json", "dki"),
            ("scenario_ii_static_overtake.json", "base"),
            ("scenario_iv_vru_steering.json", "dki"),
        ],
    )
    def test_closed_loop_equals_sequential_loop(self, monkeypatch, name, mode):
        # after the first tick, a dki tree is seeded from the previous solution
        sc = replace(load_scenario(SCENARIO_DIR / name), duration=3.0)
        batched = simlog_to_csv(run_closed_loop(sc, mode, 0, budget=("iters", 3037)))
        run = PlannerTree.run

        def run_sequentially(tree):
            _run_sequentially(tree)
            return run(tree)

        monkeypatch.setattr(PlannerTree, "run", run_sequentially)
        assert simlog_to_csv(run_closed_loop(sc, mode, 0, budget=("iters", 3037))) == batched

    def test_representative_at_reach_makes_pick_stale(self, straight_goal, straight_grid, empty_world, weights,
                                                      params):
        # a pick's reach is at least d_near, and select takes the cheapest
        # representative within d_near, bounds included: a new representative
        # at exactly the reach can be selected in the pick's place
        tree, _ = _grow_tree(straight_goal, straight_grid, empty_world, weights, params, budget=0)
        cfg = tree.config
        sample = VehicleState(cfg.x_bounds[0], cfg.y_bounds[0], 0.0, params.v_bounds[0])
        samples = np.array(norm_state(sample, cfg, params))[:, None]
        # the root, the only representative, is the pick, beyond d_near
        assert state_distance(norm_state(tree.root.state, cfg, params), samples[:, 0]) > cfg.d_near
        reach = np.array([cfg.d_near])
        new = TreeNode(sample._replace(x=sample.x + cfg.d_near * cfg.metric_xy_scale), None, tree.root, 1.0, 0.0)
        norm = norm_state(new.state, cfg, params)
        assert state_distance(norm, samples[:, 0]) == reach[0]
        tree._add_witness(new, norm)
        assert tree.select(sample) is new
        assert PlannerTree._stale_by(norm, samples, reach).tolist() == [True]


class TestPruning:
    def test_node_count_consistency(self, node_refs, straight_goal, straight_grid, empty_world, weights, params):
        tree, result = _grow_tree(straight_goal, straight_grid, empty_world, weights, params, budget=5_000)
        counted = len(live_nodes(node_refs))
        assert counted == tree.n_nodes == result.n_nodes
        assert result.n_witnesses <= result.n_nodes + 1

    def test_inactive_nonleaves_retained(self, node_refs, straight_goal, straight_grid, empty_world, weights, params):
        # pruning only removes inactive leaves, so every node still alive is
        # a representative or the parent of a live node
        tree, _ = _grow_tree(straight_goal, straight_grid, empty_world, weights, params, budget=5_000)
        live = live_nodes(node_refs)
        kept = set(tree._reps) | {node.parent for node in live}
        assert all(node in kept for node in live)
