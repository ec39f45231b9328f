"""Road network, lane-deviation penalty grid, and goal region handling.

Lanes are polyline centerlines with a width. The penalty field grows
linearly with distance to the closest lane-center point and saturates at
P_MAX half that point's lane width out; lookups outside the grid also
return P_MAX. Lane-center points are each lane's centerline densified at
half the grid resolution, so that sparse waypoints do not scallop the field.
A scenario's grid has GRID_RESOLUTION cells; its goal section is GoalConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Point2, Polygon, point_in_polygon


class RouteExhaustedError(Exception):
    """The goal window extends past the end of the declared route."""


@dataclass
class Lane:
    id: str
    width: float
    centerline: list[tuple] = field(default_factory=list)
    successors: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        # the grid divides distances by the width, and nearest_lane_points by a
        # segment's squared length: below a millimetre a quotient can overflow
        if not self.width >= 1e-3:
            raise ValueError(f"lane {self.id}: width must be at least 0.001 m, got {self.width!r}")
        if len(self.centerline) < 2:
            raise ValueError(f"lane {self.id}: needs at least 2 centerline points")
        self.centerline = [Point2(float(x), float(y)) for x, y in self.centerline]
        for a, b in zip(self.centerline, self.centerline[1:]):
            if not math.hypot(b.x - a.x, b.y - a.y) >= 1e-3:
                raise ValueError(f"lane {self.id}: consecutive centerline points must lie at least 0.001 m apart")


def _arc_lengths(points: np.ndarray) -> np.ndarray:
    """Arc length of a polyline at each of its points."""
    seg = np.diff(points, axis=0)
    return np.concatenate(([0.0], np.cumsum(np.hypot(seg[:, 0], seg[:, 1]))))


def _resample_polyline(points: np.ndarray, spacing: float) -> np.ndarray:
    """Resample a polyline at most `spacing` apart, keeping original endpoints."""
    arc = _arc_lengths(points)
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
            # RoutePath merges only equal join points, and project divides by
            # each segment's squared length
            a, b = self._by_id[cur].centerline[-1], self._by_id[nxt].centerline[0]
            if a != b and not math.hypot(b.x - a.x, b.y - a.y) >= 1e-3:
                raise ValueError(f"route join {cur!r} -> {nxt!r}: join points must be equal or at least 0.001 m apart")
        self._lane_points: dict = {}
        self.route_path = RoutePath(self)

    def lane(self, lane_id) -> Lane:
        return self._by_id[lane_id]

    def lane_points(self, spacing: float) -> list:
        """Each lane's centerline densified at spacing: one (n_i, 2) array per
        lane, in lane order, cached per spacing."""
        key = round(spacing, 9)
        cached = self._lane_points.get(key)
        if cached is None:
            cached = [_resample_polyline(np.asarray(lane.centerline, dtype=float), spacing) for lane in self.lanes]
            self._lane_points[key] = cached
        return cached


# The scenario grid's cell size (m).
GRID_RESOLUTION = 0.25

# The penalty off the lanes, and the least penalty of an undrivable cell.
P_MAX = 100.0
P_INVALID = 99.0


# cells per row block of a grid pass, so no temporary is grid-sized
_BLOCK_CELLS = 65_536


def _windows(x, y, a, b, reach):
    """Index windows of the queries that segment a-b ranks: all of them without
    reach; else those within reach of its bounding box, in row blocks of at
    most _BLOCK_CELLS cells (or one row)."""
    if reach is None:
        yield ...
        return
    # one query of slack each side: an interpolated point may lie a rounding
    # error outside its segment's bounding box
    c0, c1 = np.searchsorted(x[0], (min(a[0], b[0]) - reach, max(a[0], b[0]) + reach))
    r0, r1 = np.searchsorted(y[:, 0], (min(a[1], b[1]) - reach, max(a[1], b[1]) + reach))
    cols = slice(max(c0 - 1, 0), min(c1 + 1, x.shape[1]))
    r_end = min(r1 + 1, y.shape[0])
    step = max(1, _BLOCK_CELLS // (cols.stop - cols.start))
    for r in range(max(r0 - 1, 0), r_end, step):
        yield slice(r, min(r + step, r_end)), cols


def nearest_lane_points(net: RoadNetwork, spacing: float, x, y, reach=None):
    """Distance to the nearest densified lane point of every query (x, y), and
    the index into net.lanes of its lane (narrowest signed dtype): (dist,
    lane), shaped like x and y broadcast together.

    dist is sqrt(dx*dx + dy*dy), and lane that of the first point at that
    distance, as a brute-force argmin over net.lane_points(spacing) gives: a
    later lane wins only when strictly nearer. Densified points sit on their
    centerline segment at arc lengths j*h, so along one segment their
    distance to a query is convex in j: the nearest are the points around
    the query's clamped projection onto the segment, and each segment ranks
    only three. Without reach every segment ranks every query. With reach, x
    is a sorted row (1, C) and y a sorted column (R, 1), and each segment
    ranks only the queries within reach of its bounding box, in row blocks
    (_windows), as every cell is ranked on its own; a query that no segment
    reaches keeps dist inf and lane -1.
    """
    dist = np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), np.inf)
    nearest = np.full(dist.shape, -1, dtype=np.min_scalar_type(-len(net.lanes)))
    for k, (lane, points) in enumerate(zip(net.lanes, net.lane_points(spacing))):
        line = np.asarray(lane.centerline, dtype=float)
        arc = _arc_lengths(line)
        h = arc[-1] / (len(points) - 1)
        for a, b, s0 in zip(line[:-1], line[1:], arc[:-1]):
            d = b - a
            for win in _windows(x, y, a, b, reach):
                qx, qy = (x, y) if win is ... else (x[:, win[1]], y[win[0], :])
                t = np.clip(((qx - a[0]) * d[0] + (qy - a[1]) * d[1]) / (d @ d), 0.0, 1.0)
                j = np.rint((s0 + t * math.hypot(d[0], d[1])) / h)
                best_d, best_lane = dist[win], nearest[win]
                for off in (-1.0, 0.0, 1.0):
                    g = np.clip(j + off, 0, len(points) - 1).astype(np.intp)
                    dx = points[g, 0] - qx
                    dy = points[g, 1] - qy
                    dg = np.sqrt(dx * dx + dy * dy)
                    better = dg < best_d
                    np.copyto(best_d, dg, where=better)
                    np.copyto(best_lane, k, where=better)
    return dist, nearest


class PenaltyGrid:
    """Rasterized lane-deviation penalty field, row-major cells."""

    def __init__(self, origin, cells, resolution: float) -> None:
        self.origin = Point2(float(origin[0]), float(origin[1]))
        self.resolution = float(resolution)
        self.cells = np.asarray(cells, dtype=float)
        self.n_rows, self.n_cols = self.cells.shape
        self.p_max, self.p_invalid = P_MAX, P_INVALID

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


def build_penalty_grid(net: RoadNetwork, bounds, resolution: float) -> PenaltyGrid:
    """Rasterize the lane-deviation penalty over a rectangle in cells of resolution (m).

    bounds is (x_min, y_min, x_max, y_max); each cell's penalty is computed
    from the cell center distance to the closest densified lane-center
    point, using the width of the lane owning that point.
    """
    x_min, y_min, x_max, y_max = (float(b) for b in bounds)
    n_cols = max(1, int(math.ceil((x_max - x_min) / resolution)))
    n_rows = max(1, int(math.ceil((y_max - y_min) / resolution)))
    xs = x_min + (np.arange(n_cols) + 0.5) * resolution
    ys = y_min + (np.arange(n_rows) + 0.5) * resolution
    # a cell farther than half the widest lane from every lane point is P_MAX
    # whichever point is nearest
    lane_widths = np.array([lane.width for lane in net.lanes])
    dist, lane = nearest_lane_points(net, resolution / 2, xs[None, :], ys[:, None], reach=lane_widths.max() / 2)
    # each cell's penalty replaces its distance, row block by row block
    step = max(1, _BLOCK_CELLS // n_cols)
    for r in range(0, n_rows, step):
        d = dist[r : r + step]
        widths = lane_widths[lane[r : r + step]]
        d[...] = np.where(d < widths / 2, 2.0 * P_MAX * d / widths, P_MAX)
    return PenaltyGrid((x_min, y_min), dist, resolution)


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

    def advance(self, s: float, x: float, y: float) -> float:
        """Arc length of (x, y) for a vehicle last at arc length s: its projection
        on the route within 2 m behind and 10 m ahead of s."""
        return self.project(x, y, s_window=(s - 2.0, s + 10.0))[0]

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


# Half the length (m) of the route window around the goal's center.
GOAL_THRESHOLD = 2.0


@dataclass(frozen=True)
class GoalConfig:
    """The goal section: the goal's route distance ahead and its window's lateral band."""

    distance: float = 30.0
    lateral_band: float = 6.0

    def __post_init__(self) -> None:
        for name in ("distance", "lateral_band"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


class GoalRegion:
    """Lateral band across the lanes around a route arc-length window."""

    def __init__(self, polygons) -> None:
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


def compute_goal_region(net: RoadNetwork, s_ego: float, config: GoalConfig) -> GoalRegion:
    """Goal band of every lane that crosses the route window GOAL_THRESHOLD either side of the point
    config.distance ahead of arc length s_ego."""
    route = net.route_path
    s_goal = s_ego + config.distance
    if s_goal > route.length:
        raise RouteExhaustedError(
            f"route ends at {route.length:.6g} m but goal center is at {s_goal:.6g} m"
        )
    window = route.slice(s_goal - GOAL_THRESHOLD, min(s_goal + GOAL_THRESHOLD, route.length))
    polygons = []
    for lane, dense in zip(net.lanes, net.lane_points(0.2)):
        # Contiguous runs of in-window points become quad strips of +-width/2.
        idx = np.flatnonzero(_window_membership(dense, window, config.lateral_band))
        splits = np.flatnonzero(np.diff(idx) > 1)
        half = lane.width / 2
        for run in np.split(idx, splits + 1):
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
    return GoalRegion(polygons)
