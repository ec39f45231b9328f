import math

import numpy as np
import pytest

from urbansst.geometry import Point2
from urbansst.road import (
    GoalRegion,
    Lane,
    PenaltyGrid,
    RoadNetwork,
    RouteExhaustedError,
    build_penalty_grid,
    compute_goal_region,
    nearest_lane_center,
)
from urbansst.vehicle import VehicleState

from conftest import LANE_SPACING, LANE_WIDTH, make_straight_net


class TestLane:
    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="width"):
            Lane(id="l", width=0.0, centerline=[[0, 0], [1, 0]], successors=[])

    def test_rejects_short_centerline(self):
        with pytest.raises(ValueError):
            Lane(id="l", width=3.0, centerline=[[0, 0]], successors=[])

    def test_rejects_duplicate_consecutive_points(self):
        with pytest.raises(ValueError):
            Lane(id="l", width=3.0, centerline=[[0, 0], [0, 0], [1, 0]], successors=[])


class TestRoadNetwork:
    def test_route_validation(self):
        lane = Lane(id="a", width=3.0, centerline=[[0, 0], [1, 0]], successors=[])
        with pytest.raises(ValueError):
            RoadNetwork([lane], ["missing"])
        with pytest.raises(ValueError):
            RoadNetwork([lane], [])

    def test_route_connectivity(self):
        a = Lane(id="a", width=3.0, centerline=[[0, 0], [1, 0]], successors=[])
        b = Lane(id="b", width=3.0, centerline=[[1, 0], [2, 0]], successors=[])
        with pytest.raises(ValueError, match="successor"):
            RoadNetwork([a, b], ["a", "b"])

    def test_nearest_lane_center(self, straight_net):
        pt, dist, lane_id = nearest_lane_center(straight_net, Point2(20.0, 1.0))
        assert dist == pytest.approx(1.0, abs=1e-6)
        assert lane_id == "lane0"
        assert pt.y == pytest.approx(0.0, abs=1e-9)
        # closer to the second lane center
        _, dist2, lane_id2 = nearest_lane_center(straight_net, Point2(20.0, 3.0))
        assert lane_id2 == "lane1"
        assert dist2 == pytest.approx(0.5, abs=1e-6)


class TestPenaltyGrid:
    def test_on_center_zero(self, straight_grid):
        # cell centers sit at origin + (i + 0.5) * res, so y = 0.125 is the
        # cell containing the centerline; its center is 0.125 m off center
        assert straight_grid.lookup(20.0, 0.01) == pytest.approx(
            2.0 * 100.0 * 0.125 / LANE_WIDTH
        )

    def test_linear_ramp_quarter_width(self, straight_net):
        # fine grid so cell-center quantization is negligible
        grid = build_penalty_grid(straight_net, (0.0, -4.0, 40.0, 8.0), resolution=0.01, p_max=100.0, p_invalid=99.0)
        d = LANE_WIDTH / 4
        assert grid.lookup(20.0, -d) == pytest.approx(50.0, abs=1.0)

    def test_saturates_at_half_width(self, straight_net):
        grid = build_penalty_grid(straight_net, (0.0, -8.0, 40.0, 8.0), resolution=0.05, p_max=100.0, p_invalid=99.0)
        assert grid.lookup(20.0, -LANE_WIDTH / 2 - 0.5) == pytest.approx(100.0)

    def test_out_of_bounds_returns_p_max(self, straight_grid):
        assert straight_grid.lookup(-1000.0, 0.0) == straight_grid.p_max
        assert straight_grid.lookup(20.0, 1000.0) == straight_grid.p_max

    def test_lookups_equal_lookup(self, straight_grid):
        # random points over and around the grid, and points on cell edges and the grid's own edges
        grid = straight_grid
        rng = np.random.default_rng(61)
        x = rng.uniform(grid.origin.x - 5.0, grid.origin.x + grid.n_cols * grid.resolution + 5.0, 4_000)
        y = rng.uniform(grid.origin.y - 5.0, grid.origin.y + grid.n_rows * grid.resolution + 5.0, 4_000)
        edges = grid.origin.x + grid.resolution * np.arange(-2, grid.n_cols + 3)
        x = np.concatenate((x, edges, np.nextafter(edges, -math.inf)))
        rows = grid.origin.y + grid.resolution * np.arange(-2, grid.n_rows + 3)
        y = np.concatenate((y, np.resize(rows, 2 * len(edges))))
        got = grid.lookups(x.reshape(2, -1), y.reshape(2, -1))
        assert got.shape == (2, len(x) // 2)
        assert got.ravel().tolist() == [grid.lookup(a, b) for a, b in zip(x.tolist(), y.tolist())]

    def test_analytic_oracle_random_cells(self, straight_net):
        # straight two-lane road: distance to nearest center is
        # min(|y|, |y - 3.5|) exactly, and the owning lane has width 3.75
        grid = build_penalty_grid(straight_net, (-10.0, -4.0, 130.0, 8.0), 0.25, 100.0, 99.0)
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            col = rng.integers(0, grid.n_cols)
            row = rng.integers(0, grid.n_rows)
            cx = grid.origin.x + (col + 0.5) * grid.resolution
            cy = grid.origin.y + (row + 0.5) * grid.resolution
            d = min(abs(cy), abs(cy - LANE_SPACING))
            if -10.0 <= cx <= 130.0:
                want = 2.0 * 100.0 * d / LANE_WIDTH if d < LANE_WIDTH / 2 else 100.0
                assert grid.cells[row, col] == pytest.approx(want, abs=1e-6), (cx, cy)

    def test_invalid_threshold_ordering(self):
        with pytest.raises(ValueError):
            PenaltyGrid((0, 0), 0.25, np.zeros((2, 2)), p_max=100.0, p_invalid=150.0)


class TestGoalRegion:
    def test_window_extent(self, straight_goal):
        # ego at x = 0 projects to s = 10 on a route starting at x = -10;
        # goal 30 m ahead with 2 m threshold -> arc window [38, 42]
        lo, hi = straight_goal.arc_window
        assert hi - lo == pytest.approx(4.0)
        # route starts at x = -10, ego at x = 0 -> s_ego = 10
        assert lo == pytest.approx(38.0)

    def test_contains_goal_band(self, straight_goal):
        # points near the route 30 m ahead, across the lane width
        assert straight_goal.contains_xy(30.0, 0.0)
        assert straight_goal.contains_xy(30.0, -LANE_WIDTH / 2 + 0.1)
        assert straight_goal.contains_xy(30.0, LANE_WIDTH / 2 - 0.1)
        assert not straight_goal.contains_xy(20.0, 0.0)
        assert not straight_goal.contains_xy(40.0, 0.0)

    def test_spans_all_lanes(self, straight_goal):
        assert straight_goal.contains_xy(30.0, 0.0)
        assert straight_goal.contains_xy(30.0, LANE_SPACING)

    def test_projection_invariance(self, straight_net):
        # lateral offset of the ego does not move the goal window
        g0 = compute_goal_region(straight_net, VehicleState(0, 0, 0, 5), 30.0, 2.0, 6.0)
        g1 = compute_goal_region(straight_net, VehicleState(0, 1.5, 0.2, 3), 30.0, 2.0, 6.0)
        assert g0.arc_window == pytest.approx(g1.arc_window)

    def test_wrong_way_heading_still_in_goal(self, straight_goal):
        # membership is positional only
        s = VehicleState(30.0, 0.0, math.pi, 5.0)
        assert straight_goal.contains_xy(s.x, s.y)

    def test_route_exhausted(self, straight_net):
        with pytest.raises(RouteExhaustedError):
            compute_goal_region(straight_net, VehicleState(125.0, 0, 0, 5), 30.0, 2.0, 6.0)

    def test_threshold_validation(self, straight_net):
        with pytest.raises(ValueError):
            compute_goal_region(straight_net, VehicleState(0, 0, 0, 5), 30.0, 0.0, 6.0)

    def test_s_hint_disambiguation(self):
        # self-crossing route: figure-eight style overlap at x ~ 0
        net = make_straight_net(n_lanes=1)
        route = net.route_path
        s, _ = route.project(20.0, 0.0, s_window=(25.0, 40.0))
        # window forces the projection onto the clamped segment start
        assert s >= 25.0 - 1e-9

    def test_degenerate_region_rejected(self):
        with pytest.raises(ValueError):
            GoalRegion((0, 1), [])
