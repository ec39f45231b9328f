import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import urbansst
from urbansst.road import (
    DEFAULT_GRID_RESOLUTION,
    GoalConfig,
    GoalRegion,
    GridConfig,
    Lane,
    RoadNetwork,
    RouteExhaustedError,
    build_penalty_grid,
    compute_goal_region,
    nearest_lane_points,
)
from urbansst.sim import build_scenario_grid, load_scenario
from urbansst.vehicle import VehicleState

from conftest import LANE_SPACING, LANE_WIDTH, SCENARIO_DIR, make_crossing_net, make_straight_net


def nearest_lane_center(net, p, spacing=DEFAULT_GRID_RESOLUTION / 2):
    """Brute-force oracle of nearest_lane_points: the smallest sqrt(dx*dx + dy*dy)
    from p to a densified lane point, and the lane of the first point at that
    distance, all lanes' points taken in lane order."""
    dense = net.lane_points(spacing)
    points = np.vstack(dense)
    owners = np.repeat(np.arange(len(dense)), [len(d) for d in dense])
    dx = points[:, 0] - p[0]
    dy = points[:, 1] - p[1]
    dist = np.sqrt(dx * dx + dy * dy)
    i = int(np.argmin(dist))
    return float(dist[i]), int(owners[i])


def oracle_grid(net, bounds, resolution, p_max):
    """Penalty cells of build_penalty_grid, from nearest_lane_center at every cell center."""
    x_min, y_min, x_max, y_max = bounds
    n_cols = max(1, int(math.ceil((x_max - x_min) / resolution)))
    n_rows = max(1, int(math.ceil((y_max - y_min) / resolution)))
    xs = x_min + (np.arange(n_cols) + 0.5) * resolution
    ys = y_min + (np.arange(n_rows) + 0.5) * resolution
    cells = np.empty((n_rows, n_cols))
    for r, y in enumerate(ys.tolist()):
        for c, x in enumerate(xs.tolist()):
            d, lane = nearest_lane_center(net, (x, y), resolution / 2)
            w = net.lanes[lane].width
            cells[r, c] = 2.0 * p_max * d / w if d < w / 2 else p_max
    return cells


def two_width_net():
    """Parallel lanes 2 m apart, 3 m and 4 m wide, with the same point abscissae:
    every point on y = 1 is equidistant from both lanes, and the first lane's
    width decides its penalty."""
    lanes = [
        Lane(id="narrow", width=3.0, centerline=[[0.0, 0.0], [6.0, 0.0]], successors=[]),
        Lane(id="wide", width=4.0, centerline=[[0.0, 2.0], [6.0, 2.0]], successors=[]),
    ]
    return RoadNetwork(lanes, ["narrow"])


def arc_net(n_seg=54, radius=12.0):
    """A 3/4 circle of many short segments, like scenario III's ring, and a straight exit lane."""
    th = np.linspace(0.0, 1.5 * math.pi, n_seg + 1)
    ring = np.column_stack([radius * np.cos(th), radius * np.sin(th)]).tolist()
    lanes = [
        Lane(id="ring", width=3.5, centerline=ring, successors=["exit"]),
        Lane(id="exit", width=3.0, centerline=[ring[-1], [4.0, -radius - 2.0]], successors=[]),
    ]
    return RoadNetwork(lanes, ["ring", "exit"])


def many_lanes_net(n=130):
    """n short lanes 0.5 m apart, four widths and slants in turn: from 129 lanes
    on, the lane index of nearest_lane_points is int16."""
    lanes = [
        Lane(id=f"l{i}", width=(1.0, 2.5, 3.0, 4.0)[i % 4],
             centerline=[[0.5 * i, 0.0], [0.5 * i + 0.25 * (i % 3), 1.0 + 0.25 * (i % 4)]], successors=[])
        for i in range(n)
    ]
    return RoadNetwork(lanes, ["l0"])


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
        dist, lane = nearest_lane_points(straight_net, DEFAULT_GRID_RESOLUTION / 2, np.array([20.0, 20.0]), np.array([1.0, 3.0]))
        assert dist[0] == pytest.approx(1.0, abs=1e-6)
        assert lane[0] == 0
        # closer to the second lane center
        assert lane[1] == 1
        assert dist[1] == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize(
        "net", [make_straight_net(), two_width_net(), arc_net(), many_lanes_net()], ids=["straight", "two_width", "arc", "130_lanes"]
    )
    def test_nearest_lane_points_equal_brute_force(self, net):
        # random queries over and around the network, plus every seventh densified point
        points = np.vstack(net.lane_points(DEFAULT_GRID_RESOLUTION / 2))
        lo, hi = points.min(axis=0) - 3.0, points.max(axis=0) + 3.0
        rng = np.random.default_rng(16)
        q = np.vstack([rng.uniform(lo, hi, (1_500, 2)), points[::7]])
        dist, lane = nearest_lane_points(net, DEFAULT_GRID_RESOLUTION / 2, q[:, 0], q[:, 1])
        want = [nearest_lane_center(net, p) for p in q.tolist()]
        assert list(zip(dist.tolist(), lane.tolist())) == want
        assert lane.dtype == (np.int16 if len(net.lanes) > 128 else np.int8)

    @settings(max_examples=60, deadline=None)
    @given(
        lines=st.lists(
            st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=2, max_size=6, unique=True),
            min_size=1,
            max_size=3,
        ),
        spacing=st.sampled_from([0.05, 0.125, 0.3, 0.7]),
        seed=st.integers(0, 2**16),
    )
    def test_nearest_lane_points_random_networks(self, lines, spacing, seed):
        # quarter-metre vertices, so points, ties and queries fall on exact binary fractions
        lanes = [
            Lane(id=f"l{i}", width=3.0, centerline=[[x / 4, y / 4] for x, y in line], successors=[])
            for i, line in enumerate(lines)
        ]
        net = RoadNetwork(lanes, ["l0"])
        rng = np.random.default_rng(seed)
        q = np.vstack([rng.integers(-48, 48, (100, 2)) / 4, rng.uniform(-12.0, 12.0, (100, 2))])
        dist, lane = nearest_lane_points(net, spacing, q[:, 0], q[:, 1])
        want = [nearest_lane_center(net, p, spacing) for p in q.tolist()]
        assert list(zip(dist.tolist(), lane.tolist())) == want


class TestPenaltyGrid:
    def test_on_center_zero(self, straight_grid):
        # cell centers sit at origin + (i + 0.5) * res, so y = 0.125 is the
        # cell containing the centerline; its center is 0.125 m off center
        assert straight_grid.lookup(20.0, 0.01) == pytest.approx(
            2.0 * 100.0 * 0.125 / LANE_WIDTH
        )

    def test_linear_ramp_quarter_width(self, straight_net):
        # fine grid so cell-center quantization is negligible
        grid = build_penalty_grid(straight_net, (0.0, -4.0, 40.0, 8.0), GridConfig(resolution=0.01))
        d = LANE_WIDTH / 4
        assert grid.lookup(20.0, -d) == pytest.approx(50.0, abs=1.0)

    def test_saturates_at_half_width(self, straight_net):
        grid = build_penalty_grid(straight_net, (0.0, -8.0, 40.0, 8.0), GridConfig(resolution=0.05))
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
        grid = build_penalty_grid(straight_net, (-10.0, -4.0, 130.0, 8.0), GridConfig())
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

    @pytest.mark.parametrize(
        "net, bounds, resolution",
        [
            # cell centers at y = -3 + 0.25 i put a row exactly on y = 1, where the lanes tie
            (two_width_net(), (-1.0, -3.125, 7.0, 5.0), 0.25),
            (arc_net(), (-15.0, -17.0, 15.0, 15.0), 0.25),
            (many_lanes_net(), (-2.5, -2.5, 67.0, 3.5), 0.25),
        ],
        ids=["two_width", "arc", "130_lanes"],
    )
    def test_grid_equals_brute_force(self, net, bounds, resolution):
        grid = build_penalty_grid(net, bounds, GridConfig(resolution))
        assert grid.cells.tobytes() == oracle_grid(net, bounds, resolution, 100.0).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        lines=st.lists(
            st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=2, max_size=5, unique=True),
            min_size=1,
            max_size=3,
        ),
        widths=st.lists(st.sampled_from([1.0, 2.5, 3.0, 4.0]), min_size=3, max_size=3),
        resolution=st.sampled_from([0.25, 0.5]),
    )
    def test_grid_random_networks(self, lines, widths, resolution):
        lanes = [
            Lane(id=f"l{i}", width=w, centerline=[[x / 4, y / 4] for x, y in line], successors=[])
            for i, (line, w) in enumerate(zip(lines, widths))
        ]
        net = RoadNetwork(lanes, ["l0"])
        bounds = (-6.0, -6.5, 6.5, 6.0)
        grid = build_penalty_grid(net, bounds, GridConfig(resolution))
        assert grid.cells.tobytes() == oracle_grid(net, bounds, resolution, 100.0).tobytes()

    def test_equidistant_tie_takes_the_first_lane(self):
        grid = build_penalty_grid(two_width_net(), (-1.0, -3.125, 7.0, 5.0), GridConfig())
        # 1 m from both centerlines: the 3 m lane's ramp, not the 4 m lane's
        assert grid.lookup(3.0, 1.0) == 2.0 * 100.0 * 1.0 / 3.0

    def test_fine_straight_grid_equals_brute_force(self, straight_net):
        # 0.05 m cells against 11 202 points: the oracle ranks every row of two
        # columns and a random sample of cells
        bounds = (0.0, -8.0, 40.0, 8.0)
        grid = build_penalty_grid(straight_net, bounds, GridConfig(0.05))
        rng = np.random.default_rng(5)
        rows = np.concatenate([np.arange(grid.n_rows), np.arange(grid.n_rows), rng.integers(0, grid.n_rows, 600)])
        cols = np.concatenate([np.full(grid.n_rows, 0), np.full(grid.n_rows, 401), rng.integers(0, grid.n_cols, 600)])
        for r, c in zip(rows.tolist(), cols.tolist()):
            d, _ = nearest_lane_center(straight_net, (0.0 + (c + 0.5) * 0.05, -8.0 + (r + 0.5) * 0.05), 0.025)
            want = 2.0 * 100.0 * d / LANE_WIDTH if d < LANE_WIDTH / 2 else 100.0
            assert grid.cells[r, c] == want, (r, c)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_grid_memory_at_the_cell_cap(self):
        # scenario III at 0.031 m is 3.9 M cells, just under the cap: the 30 MB
        # grid, the block temporaries and a one-byte lane index per cell. The
        # peak is VmHWM, the high-water mark of ru_maxrss for this process image
        # alone: a child's ru_maxrss starts at its parent's peak, here pytest's.
        code = (
            "import sys\n"
            "from urbansst.sim import build_scenario_grid, load_scenario\n"
            "def peak_kib():\n"
            "    return int(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')))\n"
            "sc = load_scenario(sys.argv[1], ['grid.resolution=0.031'])\n"
            "before = peak_kib()\n"
            "cells = build_scenario_grid(sc).cells.size\n"
            "print(cells, peak_kib() - before)\n"
        )
        src = str(Path(urbansst.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        path = str(SCENARIO_DIR / "scenario_iii_roundabout.json")
        out = subprocess.run([sys.executable, "-c", code, path], env=env, capture_output=True, text=True, timeout=120, check=True)
        cells, rise_kib = map(int, out.stdout.split())
        assert cells == 3_915_900
        assert rise_kib < 50 * 1024

    @pytest.mark.parametrize(
        "stem, sha1",
        [
            ("scenario_i_straight_road", "62df5e2b859ff688a02fa90c635581a6e3a8d191"),
            ("scenario_ii_static_overtake", "62df5e2b859ff688a02fa90c635581a6e3a8d191"),
            ("scenario_iii_roundabout", "742503947e831585c455e1e6f63f2cd529a75a9c"),
            ("scenario_iv_vru_steering", "62df5e2b859ff688a02fa90c635581a6e3a8d191"),
            ("scenario_v_vru_braking", "62df5e2b859ff688a02fa90c635581a6e3a8d191"),
        ],
    )
    def test_shipped_grid_hash(self, stem, sha1):
        grid = build_scenario_grid(load_scenario(SCENARIO_DIR / f"{stem}.json"))
        assert hashlib.sha1(grid.cells.tobytes()).hexdigest() == sha1

    def test_invalid_threshold_ordering(self):
        with pytest.raises(ValueError, match="p_invalid must not exceed p_max"):
            GridConfig(p_max=100.0, p_invalid=150.0)


class TestGoalRegion:
    def test_window_extent(self, straight_goal):
        # ego at s = 10 on a route starting at x = -10; goal 30 m ahead with
        # 2 m threshold -> arc window [38, 42], which is x in [28, 32]
        x0, _, x1, _ = straight_goal.bbox
        assert (x0, x1) == pytest.approx((28.0, 32.0), abs=0.2)

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
        # lateral offset of the ego moves neither its arc nor the goal window
        route = straight_net.route_path
        s0, _ = route.project(0.0, 0.0)
        s1, _ = route.project(0.0, 1.5)
        assert s0 == pytest.approx(s1)
        g0 = compute_goal_region(straight_net, s0, GoalConfig())
        g1 = compute_goal_region(straight_net, s1, GoalConfig())
        assert g0.bbox == pytest.approx(g1.bbox)

    def test_wrong_way_heading_still_in_goal(self, straight_goal):
        # membership is positional only
        s = VehicleState(30.0, 0.0, math.pi, 5.0)
        assert straight_goal.contains_xy(s.x, s.y)

    def test_route_exhausted(self, straight_net):
        with pytest.raises(RouteExhaustedError):
            compute_goal_region(straight_net, 135.0, GoalConfig())

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="threshold must be positive"):
            GoalConfig(threshold=0.0)
        with pytest.raises(ValueError, match="threshold must be at least 0.001 m"):
            GoalConfig(threshold=9e-4)
        assert GoalConfig(threshold=1e-3).threshold == 1e-3

    def test_s_window_disambiguation(self):
        # (20, 0.3) is 0.3 m from the route's first leg (s = 30) and on its
        # last leg (s = 169.7); a window around the first pass picks the first
        route = make_crossing_net().route_path
        assert route.project(20.0, 0.3)[0] == pytest.approx(169.7)
        s, lateral = route.project(20.0, 0.3, s_window=(25.0, 40.0))
        assert (s, lateral) == pytest.approx((30.0, 0.3))

    def test_degenerate_region_rejected(self):
        with pytest.raises(ValueError):
            GoalRegion([])
