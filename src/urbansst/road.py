"""Road network, lane-deviation penalty grid, and goal region handling.

Lanes are polyline centerlines with a width. The penalty field grows
linearly with distance to the closest lane-center point and saturates at
p_max half a lane width out; lookups outside the grid also return p_max.
"Closest lane center point" is evaluated against centerlines densified at
half the grid resolution so that sparse waypoints do not scallop the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Point2, Polygon, point_in_polygon
from .vehicle import VehicleState


class RouteExhaustedError(Exception):
    """The goal window extends past the end of the declared route."""


@dataclass
class Lane:
    id: str
    width: float
    centerline: list
    successors: list

    def __post_init__(self) -> None:
        if self.width <= 0.0:
            raise ValueError(f"lane {self.id}: width must be positive")
        if len(self.centerline) < 2:
            raise ValueError(f"lane {self.id}: needs at least 2 centerline points")
        self.centerline = [Point2(float(x), float(y)) for x, y in self.centerline]
        for a, b in zip(self.centerline, self.centerline[1:]):
            if a == b:
                raise ValueError(f"lane {self.id}: consecutive centerline points must differ")


def _resample_polyline(points: np.ndarray, spacing: float) -> np.ndarray:
    """Resample a polyline at most `spacing` apart, keeping original endpoints."""
    seg = np.diff(points, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    arc = np.concatenate(([0.0], np.cumsum(seg_len)))
    total = arc[-1]
    n = max(2, int(math.ceil(total / spacing)) + 1)
    s = np.linspace(0.0, total, n)
    x = np.interp(s, arc, points[:, 0])
    y = np.interp(s, arc, points[:, 1])
    return np.column_stack([x, y])


class RoadNetwork:
    """A set of lanes plus the ordered lane sequence the ego should follow."""

    def __init__(self, lanes, route) -> None:
        self.lanes = list(lanes)
        self.route = list(route)
        self._by_id = {lane.id: lane for lane in self.lanes}
        if len(self._by_id) != len(self.lanes):
            raise ValueError("duplicate lane ids")
        if not self.route:
            raise ValueError("route must not be empty")
        for lid in self.route:
            if lid not in self._by_id:
                raise ValueError(f"route references unknown lane {lid!r}")
        for cur, nxt in zip(self.route, self.route[1:]):
            if nxt not in self._by_id[cur].successors:
                raise ValueError(f"route is not connected: {nxt!r} is not a successor of {cur!r}")
        self._indices: dict = {}
        self._route_path: Optional[RoutePath] = None

    def lane(self, lane_id) -> Lane:
        return self._by_id[lane_id]

    def point_index(self, spacing: float):
        """KD-tree over all lanes' densified centerline points, cached per spacing."""
        key = round(spacing, 9)
        cached = self._indices.get(key)
        if cached is None:
            pts = []
            owner = []
            for i, lane in enumerate(self.lanes):
                dense = _resample_polyline(np.asarray(lane.centerline, dtype=float), spacing)
                pts.append(dense)
                owner.append(np.full(len(dense), i, dtype=np.intp))
            all_pts = np.vstack(pts)
            owners = np.concatenate(owner)
            cached = (cKDTree(all_pts), all_pts, owners)
            self._indices[key] = cached
        return cached

    @property
    def route_path(self) -> "RoutePath":
        if self._route_path is None:
            self._route_path = RoutePath(self)
        return self._route_path


DEFAULT_GRID_RESOLUTION = 0.25


def nearest_lane_center(net: RoadNetwork, p: Point2):
    """Closest densified lane-center point to p: (point, distance, lane_id)."""
    if not net.lanes:
        raise ValueError("road network has no lanes")
    tree, pts, owners = net.point_index(DEFAULT_GRID_RESOLUTION / 2)
    dist, idx = tree.query([p[0], p[1]])
    lane = net.lanes[owners[idx]]
    return Point2(float(pts[idx, 0]), float(pts[idx, 1])), float(dist), lane.id


class PenaltyGrid:
    """Rasterized lane-deviation penalty field, row-major cells."""

    def __init__(self, origin, resolution, cells, p_max, p_invalid) -> None:
        if resolution <= 0.0:
            raise ValueError("resolution must be positive")
        if p_invalid > p_max:
            raise ValueError("p_invalid must not exceed p_max")
        self.origin = Point2(float(origin[0]), float(origin[1]))
        self.resolution = float(resolution)
        self.cells = np.asarray(cells, dtype=float)
        self.n_rows, self.n_cols = self.cells.shape
        self.p_max = float(p_max)
        self.p_invalid = float(p_invalid)

    def lookup(self, x: float, y: float) -> float:
        col = int((x - self.origin.x) / self.resolution)
        row = int((y - self.origin.y) / self.resolution)
        if x < self.origin.x or y < self.origin.y or col >= self.n_cols or row >= self.n_rows:
            return self.p_max
        return float(self.cells[row, col])

    def lookups(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """lookup of every (x, y) element pair, bit for bit; int() and astype both truncate."""
        col = ((x - self.origin.x) / self.resolution).astype(np.intp)
        row = ((y - self.origin.y) / self.resolution).astype(np.intp)
        inside = (x >= self.origin.x) & (y >= self.origin.y) & (col < self.n_cols) & (row < self.n_rows)
        return np.where(inside, self.cells.ravel()[np.where(inside, row * self.n_cols + col, 0)], self.p_max)


def build_penalty_grid(
    net: RoadNetwork, bounds, resolution: float, p_max: float, p_invalid: float
) -> PenaltyGrid:
    """Rasterize the lane-deviation penalty over a rectangle.

    bounds is (x_min, y_min, x_max, y_max); each cell's penalty is computed
    from the cell center distance to the closest densified lane-center
    point, using the width of the lane owning that point.
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    x_min, y_min, x_max, y_max = (float(b) for b in bounds)
    n_cols = max(1, int(math.ceil((x_max - x_min) / resolution)))
    n_rows = max(1, int(math.ceil((y_max - y_min) / resolution)))
    xs = x_min + (np.arange(n_cols) + 0.5) * resolution
    ys = y_min + (np.arange(n_rows) + 0.5) * resolution
    gx, gy = np.meshgrid(xs, ys)
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    tree, _, owners = net.point_index(resolution / 2)
    dist, idx = tree.query(centers)
    widths = np.array([lane.width for lane in net.lanes])[owners[idx]]
    cells = np.where(dist < widths / 2, 2.0 * p_max * dist / widths, p_max)
    return PenaltyGrid((x_min, y_min), resolution, cells.reshape(n_rows, n_cols), p_max, p_invalid)


class RoutePath:
    """Arc-length parameterization of the route's concatenated centerlines."""

    def __init__(self, net: RoadNetwork) -> None:
        pts = []
        for lid in net.route:
            for p in net.lane(lid).centerline:
                if pts and p == pts[-1]:
                    continue
                pts.append(p)
        self.points = np.asarray(pts, dtype=float)
        seg = np.diff(self.points, axis=0)
        self._a = self.points[:-1]
        self._d = seg
        self._len = np.hypot(seg[:, 0], seg[:, 1])
        self._arc = np.concatenate(([0.0], np.cumsum(self._len)))
        self.length = float(self._arc[-1])

    def project(self, x: float, y: float, s_window=None):
        """Arc-length projection of (x, y): (s, lateral distance).

        s_window restricts the candidate segments to an arc range, which
        disambiguates projections where route segments cross each other.
        """
        if s_window is None:
            lo, hi = 0, len(self._len)
        else:
            lo = int(np.searchsorted(self._arc, s_window[0], side="right")) - 1
            hi = int(np.searchsorted(self._arc, s_window[1], side="left"))
            lo = max(0, lo)
            hi = min(len(self._len), max(hi, lo + 1))
        a = self._a[lo:hi]
        d = self._d[lo:hi]
        seg_len = self._len[lo:hi]
        px = x - a[:, 0]
        py = y - a[:, 1]
        t = np.clip((px * d[:, 0] + py * d[:, 1]) / (seg_len**2), 0.0, 1.0)
        cx = a[:, 0] + t * d[:, 0] - x
        cy = a[:, 1] + t * d[:, 1] - y
        dist2 = cx * cx + cy * cy
        i = int(np.argmin(dist2))
        s = self._arc[lo + i] + t[i] * seg_len[i]
        return float(s), float(math.sqrt(dist2[i]))

    def point_at(self, s: float) -> Point2:
        s = min(max(s, 0.0), self.length)
        x = float(np.interp(s, self._arc, self.points[:, 0]))
        y = float(np.interp(s, self._arc, self.points[:, 1]))
        return Point2(x, y)

    def slice(self, s0: float, s1: float) -> np.ndarray:
        """Polyline of the route between arc-lengths s0 and s1, points at most 0.5 m apart."""
        s0 = min(max(s0, 0.0), self.length)
        s1 = min(max(s1, s0), self.length)
        inner = self._arc[(self._arc > s0) & (self._arc < s1)]
        svals = np.unique(np.concatenate([[s0], inner, [s1]]))
        x = np.interp(svals, self._arc, self.points[:, 0])
        y = np.interp(svals, self._arc, self.points[:, 1])
        pts = np.column_stack([x, y])
        return _resample_polyline(pts, 0.5)


class GoalRegion:
    """Lateral band across the lanes around a route arc-length window."""

    def __init__(self, lane_ids, arc_window, polygons) -> None:
        self.lane_ids = list(lane_ids)
        self.arc_window = tuple(arc_window)
        self.polygons = list(polygons)
        xs = [v.x for poly in self.polygons for v in poly.vertices]
        ys = [v.y for poly in self.polygons for v in poly.vertices]
        if not xs:
            raise ValueError("goal region is degenerate: no lane crosses the window")
        self.bbox = (min(xs), min(ys), max(xs), max(ys))

    def contains_xy(self, x: float, y: float) -> bool:
        x0, y0, x1, y1 = self.bbox
        if x < x0 or x > x1 or y < y0 or y > y1:
            return False
        p = Point2(x, y)
        return any(point_in_polygon(p, poly) for poly in self.polygons)


def _window_membership(pts: np.ndarray, window: np.ndarray, band: float) -> np.ndarray:
    """Mask of points whose unclamped projection falls inside the window polyline."""
    a = window[:-1]
    d = np.diff(window, axis=0)
    seg_len2 = d[:, 0] ** 2 + d[:, 1] ** 2
    mask = np.zeros(len(pts), dtype=bool)
    for ai, di, l2 in zip(a, d, seg_len2):
        px = pts[:, 0] - ai[0]
        py = pts[:, 1] - ai[1]
        t = (px * di[0] + py * di[1]) / l2
        interior = (t >= 0.0) & (t <= 1.0)
        cx = px - t * di[0]
        cy = py - t * di[1]
        lateral2 = cx * cx + cy * cy
        mask |= interior & (lateral2 <= band * band)
    return mask


def compute_goal_region(
    net: RoadNetwork,
    ego: VehicleState,
    goal_distance: float,
    goal_threshold: float,
    lateral_band: float,
    s_hint: Optional[float] = None,
) -> GoalRegion:
    """Goal band spanning all lanes that cross the route window at g_d ahead."""
    if goal_threshold <= 0.0:
        raise ValueError("goal threshold must be positive")
    route = net.route_path
    if s_hint is None:
        s_ego, _ = route.project(ego.x, ego.y)
    else:
        s_ego, _ = route.project(ego.x, ego.y, s_window=(s_hint - 5.0, s_hint + 15.0))
    s_goal = s_ego + goal_distance
    if s_goal > route.length:
        raise RouteExhaustedError(
            f"route ends at {route.length:.1f} m but goal center is at {s_goal:.1f} m"
        )
    window = route.slice(s_goal - goal_threshold, min(s_goal + goal_threshold, route.length))
    lane_ids = []
    polygons = []
    for lane in net.lanes:
        dense = _resample_polyline(np.asarray(lane.centerline, dtype=float), 0.2)
        mask = _window_membership(dense, window, lateral_band)
        if not mask.any():
            continue
        # Contiguous runs of in-window points become quad strips of +-width/2.
        idx = np.flatnonzero(mask)
        splits = np.flatnonzero(np.diff(idx) > 1)
        runs = np.split(idx, splits + 1)
        half = lane.width / 2
        added = False
        for run in runs:
            if len(run) < 2:
                continue
            seg = dense[run]
            tang = np.gradient(seg, axis=0)
            norm = np.hypot(tang[:, 0], tang[:, 1])
            nx = -tang[:, 1] / norm
            ny = tang[:, 0] / norm
            left = seg + half * np.column_stack([nx, ny])
            right = seg - half * np.column_stack([nx, ny])
            ring = np.vstack([left, right[::-1]])
            polygons.append(Polygon(ring))
            added = True
        if added:
            lane_ids.append(lane.id)
    return GoalRegion(lane_ids, (s_goal - goal_threshold, s_goal + goal_threshold), polygons)
