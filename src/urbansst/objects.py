"""Predicted traffic participants and the repulsive clearance cost.

Predictions are scenario inputs: timestamped pose samples per object,
interpolated linearly in position and shortest-arc in heading. The
clearance cost is an additive Gaussian-shaped repulsive field around each
object's time-dependent predicted position; squared offsets are divided
by the first power of the sigmas, matching the planner's tuned field
widths, so this is deliberately not a unit-normalized Gaussian.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .geometry import obb_overlap
from .vehicle import normalize_angle


class ObjectPrediction:
    """Timestamped pose sequence with a rectangular footprint."""

    def __init__(self, obj_id, length: float, width: float, poses) -> None:
        poses = [(float(t), float(x), float(y), float(th)) for t, x, y, th in poses]
        if not poses:
            raise ValueError(f"object {obj_id}: needs at least one pose")
        times = [p[0] for p in poses]
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError(f"object {obj_id}: pose times must be strictly increasing")
        if length <= 0.0 or width <= 0.0:
            raise ValueError(f"object {obj_id}: footprint must be positive")
        self.id = obj_id
        self.length = float(length)
        self.width = float(width)
        self.poses = poses
        self._times = times
        # Unwrapped headings make linear interpolation follow the shortest arc.
        self._thetas = np.unwrap([p[3] for p in poses]).tolist()
        self._static = len(poses) == 1 or all(
            p[1:] == poses[0][1:] for p in poses[1:]
        )

    def pose_at(self, t: float):
        """Interpolated (x, y, theta); clamped outside the sampled horizon."""
        poses = self.poses
        if self._static or t <= poses[0][0]:
            p = poses[0]
            return p[1], p[2], p[3]
        if t >= poses[-1][0]:
            p = poses[-1]
            return p[1], p[2], p[3]
        i = bisect_right(self._times, t)
        t0, x0, y0, _ = poses[i - 1]
        t1, x1, y1, _ = poses[i]
        w = (t - t0) / (t1 - t0)
        th0 = self._thetas[i - 1]
        th1 = self._thetas[i]
        return (
            x0 + w * (x1 - x0),
            y0 + w * (y1 - y0),
            normalize_angle(th0 + w * (th1 - th0)),
        )


@dataclass(frozen=True)
class FieldParams:
    """Repulsive field shape of one object: amplitude and axis spreads."""

    amplitude: float = 100.0
    sigma_x: float = 3.0
    sigma_y: float = 2.0

    def __post_init__(self) -> None:
        if self.amplitude < 0.0 or self.sigma_x <= 0.0 or self.sigma_y <= 0.0:
            raise ValueError("field amplitude must be >= 0 and sigmas > 0")


class WorldModel:
    """The perceived object set with per-object field parameters."""

    def __init__(self, objects=(), fields=None) -> None:
        self.objects = list(objects)
        if fields is None:
            fields = [FieldParams() for _ in self.objects]
        self.fields = list(fields)
        if len(self.fields) != len(self.objects):
            raise ValueError("one field parameter set per object required")


class PoseMemo:
    """Every object's predicted pose by exact timestamp, for one ego footprint.

    An entry is a tuple with one (x, y, theta, object, reach2) per object,
    where reach2 is the squared centre distance beyond which the ego box
    cannot touch the object: the bound of the two circumscribed circles.
    Keys are the exact floats asked for, so an entry holds exactly what
    pose_at returns for them.
    """

    def __init__(self, world: WorldModel, ego_length: float, ego_width: float) -> None:
        r_ego = 0.5 * math.hypot(ego_length, ego_width)
        # r * r, as r ** 2 raises OverflowError where the square leaves the float range
        reach = [(obj, r_ego + 0.5 * math.hypot(obj.length, obj.width)) for obj in world.objects]
        self._reach = [(obj, r * r) for obj, r in reach]
        self._memo: dict = {}

    def at(self, t: float) -> tuple:
        poses = self._memo.get(t)
        if poses is None:
            poses = self._memo[t] = tuple((*obj.pose_at(t), obj, r2) for obj, r2 in self._reach)
        return poses


def object_hit(x: float, y: float, theta: float, ego_length: float, ego_width: float, poses):
    """The first object whose box overlaps the ego box at (x, y, theta), else None.

    poses is one PoseMemo entry. The circle test rejects most pairs here, and
    only the rest go through the separating-axis test.
    """
    for ox, oy, oth, obj, reach2 in poses:
        dx = ox - x
        dy = oy - y
        if dx * dx + dy * dy > reach2:
            continue
        if obb_overlap(x, y, theta, ego_length, ego_width, ox, oy, oth, obj.length, obj.width):
            return obj
    return None


def clearance_cost(x: float, y: float, poses, fields) -> float:
    """Field of objects posed at (poses[i][0], poses[i][1]) with fields[i]."""
    total = 0.0
    for pose, fp in zip(poses, fields):
        dx = x - pose[0]
        dy = y - pose[1]
        f = dx * dx / fp.sigma_x + dy * dy / fp.sigma_y
        total += fp.amplitude * math.exp(-f)
    return total


def clearance_cost_xy(x: float, y: float, t: float, world: WorldModel) -> float:
    return clearance_cost(x, y, [obj.pose_at(t) for obj in world.objects], world.fields)
