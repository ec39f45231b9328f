"""Domain-knowledge seeding for the sparse-tree planner.

Two exploration branches are grown before the main sampling loop: one that
follows the route's lane center with a rolling lookahead target, and one
that replays the previous query's solution when the new start state is
close enough to it. Both insert nodes through the standard witness path
and validate every integration substate, so seeded nodes obey the same
contracts as sampled ones. Each propagation counts in the tree's
iterations_used (N_CANDIDATES per lane-branch extension), but neither branch
checks what is left of the budget or reads the clock.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .cost import CostWeights
from .objects import WorldModel
from .road import GoalRegion, PenaltyGrid, RoadNetwork
from .sst import PlannerConfig, PlannerTree, PlanResult, norm_state, norm_states, normalize_angles
from .sst import sample_inputs, state_distance
from .vehicle import ControlInput, Trajectory, VehicleParams, VehicleState


# The lane branch's farthest lookahead (m), its largest reach from the root
# (m) and the inputs it draws per extension; the previous-solution branch
# grows only from a root within D_REUSE (planner metric) of that solution.
D_LOOKAHEAD = 3.0
D_BRANCH_MAX = 40.0
N_CANDIDATES = 100
D_REUSE = 1.0


def seed_lane_branch(tree: PlannerTree, net: RoadNetwork, s_root: float) -> int:
    """Grow a branch that chases the lane center ahead of the branch tip.

    The tip's route arc length is tracked with RoutePath.advance from s_root,
    the root's. Each extension draws N_CANDIDATES inputs, integrates them from
    the tip and keeps the fully-valid propagation whose endpoint is closest to
    the lane-center point D_LOOKAHEAD ahead of the tip: propagate_checked
    validates the nearest one, and only if it fails does one valid_rows pass
    rank the valid rest. The branch stops at the goal, when no valid
    candidate exists, or once the branch strays D_BRANCH_MAX from the root.
    """
    rng = tree.rng
    route = net.route_path
    root = tree.root.state
    tip = tree.root
    s_tip = s_root
    # The rolling target sits at most one propagation step ahead: with a
    # farther target every candidate undershoots and the argmin rewards
    # maximum acceleration until the branch pins at v_max. Closing only a
    # fraction of the speed error per edge keeps the desired speed the
    # fixed point of the selection without bang-bang hunting around it.
    v_des = tree.weights.v_desired
    t_prop = tree.config.t_prop
    gain = 0.25
    added = 0
    # Nodes, not their ids: pruning can free a visited node, and a new node
    # can then be given its id.
    visited = {tip}
    while True:
        if tree.goal.contains_xy(tip.state.x, tip.state.y):
            break
        if math.hypot(tip.state.x - root.x, tip.state.y - root.y) >= D_BRANCH_MAX:
            break
        s_tip = route.advance(s_tip, tip.state.x, tip.state.y)
        v_cmd = tip.state.v + gain * (v_des - tip.state.v)
        d_target = min(D_LOOKAHEAD, v_cmd * t_prop)
        target = route.point_at(s_tip + d_target)
        tree.iterations_used += N_CANDIDATES
        a, delta = sample_inputs(tree.config, rng, tree.params, N_CANDIDATES)
        X, Y, TH, V = tree.integrate(np.broadcast_to(tip.state, (N_CANDIDATES, 4)), a, delta)
        # math.hypot, not np.hypot, whose last bit differs; the first minimum wins
        dists = [math.hypot(x - target.x, y - target.y) for x, y in zip(X[:, -1].tolist(), Y[:, -1].tolist())]
        i = dists.index(min(dists))
        best_u = ControlInput(float(a[i]), float(delta[i]))
        best_end = tree.propagate_checked(tip, best_u)
        if best_end is None:
            # rank the valid rows instead; a row's end is propagate_checked's, bit for bit
            ok = tree.valid_rows([tip.depth] * N_CANDIDATES, X, Y, TH).tolist()
            if not any(ok):
                break
            i = min((d, j) for j, d in enumerate(dists) if ok[j])[1]
            best_u = ControlInput(float(a[i]), float(delta[i]))
            best_end = VehicleState(*(float(M[i, -1]) for M in (X, Y, TH, V)))
        node = tree.try_insert(tip, best_end, best_u)
        if node is None:
            # The corridor is already held by a cheaper node (typically the
            # previous-solution branch); continue the march from that
            # representative instead of abandoning the branch.
            node = tree.representative_near(best_end)
            if node in visited:
                break
        else:
            added += 1
        tip = node
        visited.add(tip)
    return added


def _reuse_anchor(prev: Trajectory, root: VehicleState, config: PlannerConfig, params: VehicleParams):
    """Planner-metric distance from root to the nearest state of prev, and
    the index of the first sample to replay from that state.

    prev is interpolated at integration granularity: edge i-1 -> i holds
    n = max(1, round(dt / t_step)) states at weights k / n, k < n, linear in
    x, y and v and along the shorter arc in heading, and they replay from
    sample i; the last sample replays nothing. The first nearest state wins.
    """
    rows = np.array([s.state for s in prev.samples], dtype=float)
    n = np.maximum(1, np.rint(np.diff([s.t for s in prev.samples]) / config.t_step)).astype(np.int64)
    edge = np.repeat(np.arange(len(n)), n)
    w = (np.arange(len(edge)) - np.repeat(np.cumsum(n) - n, n)) / n[edge]
    a, b = rows[edge], rows[edge + 1]
    states = a + w[:, None] * (b - a)
    states[:, 2] = normalize_angles(a[:, 2] + w * normalize_angles(np.diff(rows[:, 2]))[edge])
    norms = norm_states(np.vstack([states, rows[-1]]), config, params)
    d = state_distance(norms, norm_state(root, config, params))
    i = int(np.argmin(d))
    return d[i], (int(edge[i]) + 1 if i < len(edge) else len(rows))


def seed_previous_branch(tree: PlannerTree, prev: Trajectory) -> int:
    """Replay the previous solution's inputs from the new root.

    The branch is only grown when the root is within D_REUSE (planner
    metric) of the interpolated previous solution; replaying the stored
    inputs keeps the reused segment propagation-exact from the new root.
    Growth aborts at the first invalid state.
    """
    if prev is None or len(prev.samples) < 2:
        return 0
    d, first = _reuse_anchor(prev, tree.root.state, tree.config, tree.params)
    if d > D_REUSE:
        return 0
    tip = tree.root
    added = 0
    for j in range(first, len(prev.samples)):
        u = prev.samples[j].input
        tree.iterations_used += 1
        end = tree.propagate_checked(tip, u)
        if end is None:
            break
        node = tree.try_insert(tip, end, u)
        if node is None:
            break
        tip = node
        added += 1
    return added


def plan_dki(
    start: VehicleState,
    start_time: float,
    goal: GoalRegion,
    grid: PenaltyGrid,
    world: WorldModel,
    net: RoadNetwork,
    s: float,
    prev: Optional[Trajectory],
    config: PlannerConfig,
    weights: CostWeights,
    params: VehicleParams,
    rng: np.random.Generator,
) -> PlanResult:
    """Seeded query: previous-solution branch, lane branch from start's arc length s, then the base loop."""
    tree = PlannerTree(start, start_time, goal, grid, world, config, weights, params, rng)
    seed_previous_branch(tree, prev)
    seed_lane_branch(tree, net, s)
    return tree.run()
