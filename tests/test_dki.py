import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urbansst.dki import (
    D_BRANCH_MAX, D_LOOKAHEAD, D_REUSE, N_CANDIDATES, _reuse_anchor, plan_dki, seed_lane_branch, seed_previous_branch,
)
from urbansst.objects import ObjectPrediction, WorldModel
from urbansst.road import GRID_RESOLUTION, GoalConfig, PenaltyGrid, build_penalty_grid, compute_goal_region
from urbansst.sst import PlannerTree, norm_state, plan, sample_inputs, state_distance
from urbansst.vehicle import ControlInput, TimedState, Trajectory, VehicleState, normalize_angle, propagate

from conftest import LANE_WIDTH, live_nodes, make_crossing_net, make_planner_config, propagate_nodes


def make_tree(goal, grid, world, weights, params, budget=2000, seed=0, start=None):
    cfg = make_planner_config(budget=budget)
    return PlannerTree(
        start if start is not None else VehicleState(0.0, 0.0, 0.0, 5.0),
        0.0, goal, grid, world, cfg, weights, params, np.random.default_rng(seed),
    )


class TestLaneBranch:
    def test_reaches_goal_near_center(self, node_refs, straight_net, straight_goal, straight_grid, empty_world, weights, params):
        tree = make_tree(straight_goal, straight_grid, empty_world, weights, params)
        added = seed_lane_branch(tree, straight_net, 10.0)
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
        added = seed_lane_branch(tree, straight_net, 10.0)
        assert added == 0
        assert tree.n_nodes == 1

    def test_follows_tracked_arc_on_crossing_route(self, node_refs, empty_world, weights, params):
        # The root sits on the first leg (tracked arc 30 m), but the whole
        # route projects it onto the last one (arc 169.7 m), whose lookahead
        # points lead south, off the first lane.
        net = make_crossing_net(width=3.5)
        root = VehicleState(20.0, 0.3, 0.0, 5.0)
        assert net.route_path.project(root.x, root.y)[0] == pytest.approx(169.7)
        grid = build_penalty_grid(net, (-15.0, -45.0, 65.0, 35.0), GRID_RESOLUTION)
        goal = compute_goal_region(net, 30.0, GoalConfig())
        cfg = make_planner_config(budget=2000).with_bounds((-15.0, 65.0), (-45.0, 35.0))
        tree = PlannerTree(root, 0.0, goal, grid, empty_world, cfg, weights, params, np.random.default_rng(0))
        added = seed_lane_branch(tree, net, 30.0)
        seeded = [n for n in live_nodes(node_refs) if n is not tree.root]
        assert added == len(seeded) > 0
        assert any(goal.contains_xy(n.state.x, n.state.y) for n in seeded)
        assert all(abs(n.state.y) < 1.75 for n in seeded)


def _lane_branch_oracle(tree, net, s_root):
    """seed_lane_branch with the pick rule of one propagate_batch over all
    candidates, then the first math.hypot minimum among the valid rows."""
    rng = tree.rng
    route = net.route_path
    root = tree.root.state
    tip = tree.root
    s_tip = s_root
    added = 0
    visited = {tip}
    while not tree.goal.contains_xy(tip.state.x, tip.state.y):
        if math.hypot(tip.state.x - root.x, tip.state.y - root.y) >= D_BRANCH_MAX:
            break
        s_tip = route.advance(s_tip, tip.state.x, tip.state.y)
        v_cmd = tip.state.v + 0.25 * (tree.weights.v_desired - tip.state.v)
        target = route.point_at(s_tip + min(D_LOOKAHEAD, v_cmd * tree.config.t_prop))
        tree.iterations_used += N_CANDIDATES
        a, delta = sample_inputs(rng, tree.params, N_CANDIDATES)
        idx, ends, _ = propagate_nodes(tree, [tip] * N_CANDIDATES, a, delta)
        if not len(idx):
            break
        ends = ends.tolist()
        dists = [math.hypot(x - target.x, y - target.y) for x, y, _, _ in ends]
        j = dists.index(min(dists))
        i = int(idx[j])
        end, u = VehicleState(*ends[j]), ControlInput(float(a[i]), float(delta[i]))
        node = tree.try_insert(tip, end, u)
        if node is None:
            node = tree.representative_near(end)
            if node in visited:
                break
        else:
            added += 1
        tip = node
        visited.add(tip)
    return added


def _recorded_inserts(tree):
    """The (parent state, end state, input) of every try_insert call on tree from now on, bytes and all."""
    calls = []

    def recorded(parent, end, u):
        calls.append((np.array(parent.state).tobytes(), np.array(end).tobytes(), u))
        return PlannerTree.try_insert(tree, parent, end, u)

    tree.try_insert = recorded
    return calls


def _assert_branch_equals_oracle(new_tree, net, s_root):
    """Grows the lane branch of new_tree, a fresh make_tree tree, and the oracle's
    on its twin, and asserts the same inserts, rng state and node count; returns
    the valid-row counts of the fallback passes, one per extension whose
    nearest endpoint was invalid."""
    twin = make_tree(new_tree.goal, new_tree.grid, new_tree.world, new_tree.weights, new_tree.params)
    twin.rng.bit_generator.state = new_tree.rng.bit_generator.state
    fallbacks = []

    def counted(depths, X, Y, TH):
        ok, penalties = PlannerTree.valid_rows(new_tree, depths, X, Y, TH)
        fallbacks.append(int(ok.sum()))
        return ok, penalties

    new_tree.valid_rows = counted
    got, want = _recorded_inserts(new_tree), _recorded_inserts(twin)
    added = seed_lane_branch(new_tree, net, s_root)
    assert added == _lane_branch_oracle(twin, net, s_root)
    assert got == want and len(want) >= added
    assert new_tree.rng.bit_generator.state == twin.rng.bit_generator.state
    assert new_tree.iterations_used == twin.iterations_used
    assert new_tree.n_nodes == twin.n_nodes == added + 1
    return fallbacks


class TestLaneBranchPick:
    """seed_lane_branch validates the nearest endpoint only, and ranks the
    valid rows of one pass only when it is invalid: the oracle's picks."""

    def test_nearest_valid(self, straight_net, straight_goal, straight_grid, empty_world, weights, params):
        tree = make_tree(straight_goal, straight_grid, empty_world, weights, params)
        assert _assert_branch_equals_oracle(tree, straight_net, 10.0) == []

    def test_nearest_blocked_by_object(self, straight_net, straight_goal, straight_grid, weights, params):
        # a cone on the lane center; at seed 1 the branch reaches it twice with
        # some candidates clear of it, once with a single one
        cone = WorldModel([ObjectPrediction("cone", 0.4, 0.4, [(0.0, 20.0, 0.0, 0.0)])])
        tree = make_tree(straight_goal, straight_grid, cone, weights, params, seed=1)
        fallbacks = _assert_branch_equals_oracle(tree, straight_net, 10.0)
        assert len(fallbacks) >= 2 and min(fallbacks) == 1

    def test_nearest_blocked_off_road(self, straight_net, straight_goal, straight_grid, empty_world, weights, params):
        # an all-valid 5 cm grid but for the cell of the oracle's third pick
        twin = make_tree(straight_goal, straight_grid, empty_world, weights, params)
        picks = _recorded_inserts(twin)
        _lane_branch_oracle(twin, straight_net, 10.0)
        x, y, _, _ = np.frombuffer(picks[2][1])
        res = 0.05
        cells = np.zeros((int(12.0 / res), int(140.0 / res)))
        cells[int((y + 4.0) / res), int((x + 10.0) / res)] = 100.0
        grid = PenaltyGrid((-10.0, -4.0), cells, res)
        tree = make_tree(straight_goal, grid, empty_world, weights, params)
        fallbacks = _assert_branch_equals_oracle(tree, straight_net, 10.0)
        assert len(fallbacks) >= 1 and all(0 < k < N_CANDIDATES for k in fallbacks)

    def test_every_candidate_blocked(self, straight_net, straight_goal, straight_grid, weights, params):
        wall = WorldModel([ObjectPrediction("wall", 1.5, 40.0, [(0.0, 3.75, 0.0, 0.0)])])
        tree = make_tree(straight_goal, straight_grid, wall, weights, params)
        assert _assert_branch_equals_oracle(tree, straight_net, 10.0) == [0]


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
        added = seed_previous_branch(tree, prev)
        assert added == len(prev.samples) - 1

    def test_match_at_second_sample(self, straight_goal, straight_grid, empty_world, weights, params):
        prev = _straight_prev(params)
        tree = make_tree(
            straight_goal, straight_grid, empty_world, weights, params,
            start=prev.samples[1].state,
        )
        added = seed_previous_branch(tree, prev)
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
        assert seed_previous_branch(tree, shifted) == 0

    def test_stops_at_first_blocked_edge(self, straight_goal, straight_grid, weights, params):
        # small obstacle placed so replay edges 1-3 clear it but the 4th
        # (x 6 -> 8, front bumper to 10) collides
        prev = _straight_prev(params)
        world = WorldModel([ObjectPrediction("cone", 0.6, 0.6, [(0.0, 8.5, 0.0, 0.0)])])
        tree = make_tree(straight_goal, straight_grid, world, weights, params)
        added = seed_previous_branch(tree, prev)
        assert added == 3

    def test_none_and_trivial_prev(self, straight_goal, straight_grid, empty_world, weights, params):
        tree = make_tree(straight_goal, straight_grid, empty_world, weights, params)
        assert seed_previous_branch(tree, None) == 0
        one = Trajectory([TimedState(VehicleState(0, 0, 0, 5), 0.0, None)])
        assert seed_previous_branch(tree, one) == 0


def _interpolated_states(prev: Trajectory, t_step: float):
    """Linear state-space interpolation of a solution at integration granularity.

    Yields (state, index of the first original sample at or after it).
    """
    out = []
    for i in range(1, len(prev.samples)):
        a = prev.samples[i - 1]
        b = prev.samples[i]
        n = max(1, round((b.t - a.t) / t_step))
        dth = normalize_angle(b.state.theta - a.state.theta)
        for k in range(n):
            w = k / n
            out.append(
                (
                    VehicleState(
                        a.state.x + w * (b.state.x - a.state.x),
                        a.state.y + w * (b.state.y - a.state.y),
                        normalize_angle(a.state.theta + w * dth),
                        a.state.v + w * (b.state.v - a.state.v),
                    ),
                    i,
                )
            )
    out.append((prev.samples[-1].state, len(prev.samples)))
    return out


def _anchor_oracle(prev, root, cfg, params):
    """The scalar form of _reuse_anchor: every interpolated state through norm_state."""
    states = _interpolated_states(prev, cfg.t_step)
    norms = np.transpose([norm_state(s, cfg, params) for s, _ in states])
    d = state_distance(norms, norm_state(root, cfg, params))
    i = int(np.argmin(d))
    return d[i], states[i][1]


# A pool of four states that edges visit; reusing one makes exact ties. Headings
# near +-pi make an edge cross the wrap.
_POOL = st.lists(
    st.tuples(
        st.floats(-20.0, 40.0), st.floats(-8.0, 8.0),
        st.sampled_from([math.pi, -math.pi, 3.1, -3.1, 0.0]) | st.floats(-7.0, 7.0), st.floats(0.0, 15.0),
    ),
    min_size=4, max_size=4,
)
# two states 1 m apart on a line
_LINE = [(0.0, 0.0, 0.0, 5.0), (1.0, 0.0, 0.0, 5.0)] * 2
# two states on the line, then one off it
_BENT = _LINE[:2] + [(3.0, 1.0, 0.5, 6.0), (0.0, 0.0, 0.0, 0.0)]


class TestReuseAnchor:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        # 0.04 is the shipped step; a dyadic step keeps every edge duration exact
        t_step=st.sampled_from([0.04, 0.0625]),
        t0=st.sampled_from([0.0, 0.5, 7.25]),
        # edge durations in steps: halves round to even, 0.25 rounds to zero
        edges=st.lists(
            st.tuples(st.sampled_from([0.25, 1.0, 1.5, 2.5, 2.7, 3.5, 4.5, 10.0]), st.integers(0, 3)),
            min_size=1, max_size=6,
        ),
        start=st.integers(0, 3),
        pool=_POOL,
        # the root is an interpolated state (-1: the last sample), moved by offset
        pick=st.integers(-1, 400),
        offset=st.sampled_from([0.0, 1e-3, 50.0]),
    )
    # at t_step 0.04 a 0.1 s edge is 2.5 steps and a 0.06 s edge 1.5 steps: both round to 2
    @example(t_step=0.04, t0=0.0, edges=[(2.5, 1)], start=0, pool=_LINE, pick=1, offset=0.0)
    @example(t_step=0.04, t0=0.0, edges=[(1.5, 1)], start=0, pool=_LINE, pick=1, offset=0.0)
    # an edge whose heading crosses +-pi
    @example(
        t_step=0.0625, t0=0.0, edges=[(4.5, 1), (2.5, 0)], start=0,
        pool=[(0.0, 0.0, 3.0, 5.0), (2.0, 0.0, -3.0, 5.0)] * 2, pick=2, offset=0.0,
    )
    # a root on two equal states: the first wins
    @example(
        t_step=0.0625, t0=0.0, edges=[(2.5, 1), (2.5, 0), (2.5, 1)], start=0,
        pool=_LINE, pick=4, offset=0.0,
    )
    # a root on the last sample replays nothing; one 50 m away lies beyond D_REUSE
    @example(t_step=0.0625, t0=0.5, edges=[(10.0, 1), (2.7, 2)], start=0, pool=_BENT, pick=-1, offset=0.0)
    @example(t_step=0.0625, t0=0.5, edges=[(10.0, 1), (2.7, 2)], start=0, pool=_BENT, pick=3, offset=50.0)
    def test_equals_scalar_interpolation(self, params, t_step, t0, edges, start, pool, pick, offset):
        cfg = make_planner_config(t_step=t_step, t_prop=16 * t_step)
        t = t0
        samples = [TimedState(VehicleState(*pool[start]), t, None)]
        for units, j in edges:
            t += units * t_step
            samples.append(TimedState(VehicleState(*pool[j]), t, ControlInput(0.0, 0.0)))
        prev = Trajectory(samples)
        states = _interpolated_states(prev, t_step)
        x, y, theta, v = states[pick % len(states)][0]
        root = VehicleState(x + offset, y, theta, v)
        d, first = _reuse_anchor(prev, root, cfg, params)
        want_d, want_first = _anchor_oracle(prev, root, cfg, params)
        assert (d.tobytes(), first) == (want_d.tobytes(), want_first)
        if offset == 50.0:
            assert d > D_REUSE


class TestPlanDki:
    def test_budget_accounting(self, straight_net, straight_goal, straight_grid, empty_world, weights, params, ego_start):
        cfg = make_planner_config(budget=3000)
        result = plan_dki(
            ego_start, 0.0, straight_goal, straight_grid, empty_world, straight_net, 10.0,
            None, cfg, weights, params, np.random.default_rng(1),
        )
        assert result.solved
        assert result.iterations == 3000

    def test_tree_freed_without_cyclic_gc(self, node_refs, straight_net, straight_goal, straight_grid, empty_world, weights, params, ego_start):
        cfg = make_planner_config(budget=3000)
        gc.disable()
        try:
            result = plan_dki(
                ego_start, 0.0, straight_goal, straight_grid, empty_world, straight_net, 10.0,
                None, cfg, weights, params, np.random.default_rng(1),
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
                ego_start, 0.0, straight_goal, straight_grid, empty_world, straight_net, 10.0,
                None, cfg, weights, params, np.random.default_rng(seed),
            )
            assert dki.solved
            if not base.solved or dki.cost <= base.cost + 1e-9:
                wins += 1
        assert wins >= 0.8 * n
