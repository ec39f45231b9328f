"""Shared fixtures: a straight two-lane road and planner components."""

import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from urbansst import sst
from urbansst.cost import CostWeights
from urbansst.objects import WorldModel, WorldPoser
from urbansst.road import GoalConfig, GridConfig, Lane, RoadNetwork, build_penalty_grid, compute_goal_region
from urbansst.sst import PlannerConfig
from urbansst.vehicle import VehicleParams, VehicleState

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

LANE_WIDTH = 3.75
LANE_SPACING = 3.5


def make_straight_net(n_lanes=2, x0=-10.0, x1=130.0):
    lanes = [
        Lane(
            id=f"lane{i}",
            width=LANE_WIDTH,
            centerline=[[x0, i * LANE_SPACING], [x1, i * LANE_SPACING]],
            successors=[],
        )
        for i in range(n_lanes)
    ]
    return RoadNetwork(lanes, ["lane0"])


def make_crossing_net(width=3.5):
    """A route east along y = 0 from x = -10, back west along y = 30 and
    south along x = 20, one lane per leg: it crosses its own first leg at
    (20, 0), 30 m and 169.7 m along it."""
    corners = [(-10.0, 0.0), (60.0, 0.0), (60.0, 30.0), (20.0, 30.0), (20.0, -40.0)]
    ids = ["a", "b", "c", "d"]
    legs = zip(ids, corners, corners[1:])
    lanes = [Lane(lid, width, [p, q], ids[i + 1 : i + 2]) for i, (lid, p, q) in enumerate(legs)]
    return RoadNetwork(lanes, ids)


@pytest.fixture(scope="session")
def straight_net():
    return make_straight_net()


@pytest.fixture(scope="session")
def straight_grid(straight_net):
    return build_penalty_grid(straight_net, (-10.0, -4.0, 130.0, 8.0), GridConfig())


@pytest.fixture(scope="session")
def empty_world():
    return WorldModel()


@pytest.fixture(scope="session")
def params():
    return VehicleParams()


@pytest.fixture(scope="session")
def weights():
    return CostWeights()


@pytest.fixture()
def ego_start():
    return VehicleState(0.0, 0.0, 0.0, 5.0)


def wrap_dist(a, b):
    """Scalar oracle of the planner metric between two normalized states."""
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dth = abs(a[2] - b[2])
    if dth > 0.5:
        dth = 1.0 - dth
    dv = a[3] - b[3]
    return math.sqrt(dx * dx + dy * dy + dth * dth + dv * dv)


def is_state_valid(s, t, grid, world, config, params):
    """The planner's validity rule for s at time t, over a fresh WorldPoser."""
    poses = WorldPoser(world, params.length, params.width).at(t)
    return sst._validator(grid, config, params)((s,), (poses,)) is not None


def propagate_nodes(tree, nodes, a, delta):
    """tree.propagate_batch for the inputs (a[i], delta[i]) from nodes[i], whose
    states and depths it takes as arrays, as _run_batch reads them from the table."""
    starts = np.array([node.state for node in nodes], float).reshape(-1, 4)
    return tree.propagate_batch(starts, np.array([node.depth for node in nodes], np.intp), a, delta)


def make_planner_config(budget=2000, **kw):
    cfg = PlannerConfig(iteration_budget=budget, **kw)
    return cfg.with_bounds((-15.0, 50.0), (-10.0, 12.0))


@pytest.fixture()
def straight_goal(straight_net):
    # ego_start, at x = 0, is 10 m along the route from x = -10
    return compute_goal_region(straight_net, 10.0, GoalConfig())


@pytest.fixture()
def node_refs(monkeypatch):
    """Weak references to every tree node the planner creates while the test runs."""
    refs = []

    class WeakRefNode(sst.TreeNode):
        __slots__ = ("__weakref__",)

        def __init__(self, *args) -> None:
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(sst, "TreeNode", WeakRefNode)
    return refs


def live_nodes(refs):
    """The nodes of node_refs that are still alive: no node refers to its
    children, so these are the nodes of the trees the test still holds."""
    return [node for node in (ref() for ref in refs) if node is not None]
