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


@dataclass(frozen=True)
class FieldParams:
    """Repulsive field shape of one object: amplitude and axis spreads."""

    amplitude: float = 100.0
    sigma_x: float = 3.0
    sigma_y: float = 2.0

    def __post_init__(self) -> None:
        if self.amplitude < 0.0:
            raise ValueError("field amplitude must be >= 0")
        # the field divides squared offsets by them; below a millimetre a quotient can overflow
        for name in ("sigma_x", "sigma_y"):
            if not getattr(self, name) >= 1e-3:
                raise ValueError(f"{name} must be at least 0.001 m, got {getattr(self, name)!r}")


class ObjectPrediction:
    """Timestamped pose sequence with a rectangular footprint and the object's
    repulsive field."""

    def __init__(self, obj_id, length: float, width: float, poses, field: FieldParams = FieldParams()) -> None:
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
        self.field = field
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


class WorldModel:
    """The perceived object set."""

    def __init__(self, objects=()) -> None:
        self.objects = list(objects)


class WorldPoser:
    """Every object's predicted pose at one time, for one ego footprint.

    at(t) gives a tuple with one (x, y, theta, object, reach2) per object,
    where reach2 is the squared centre distance beyond which the ego box
    cannot touch the object: the bound of the two circumscribed circles.
    """

    def __init__(self, world: WorldModel, ego_length: float, ego_width: float) -> None:
        r_ego = 0.5 * math.hypot(ego_length, ego_width)
        # r * r, as r ** 2 raises OverflowError where the square leaves the float range
        reach = [(obj, r_ego + 0.5 * math.hypot(obj.length, obj.width)) for obj in world.objects]
        self._reach = [(obj, r * r) for obj, r in reach]

    def at(self, t: float) -> tuple:
        return tuple((*obj.pose_at(t), obj, r2) for obj, r2 in self._reach)


def object_hit(x: float, y: float, theta: float, ego_length: float, ego_width: float, poses):
    """The first object whose box overlaps the ego box at (x, y, theta), else None.

    poses is one WorldPoser.at entry. The circle test rejects most pairs here, and
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


def clearance_cost(x, y, poses):
    """Field of the objects at (x, y), each posed as in poses (one WorldPoser.at entry).

    x, y and the posed positions may also be arrays of one length, for many points at
    once; math.exp then runs per value, as numpy's exp can differ in the last bit.
    """
    total = 0.0
    for ox, oy, _, obj, _ in poses:
        fp = obj.field
        dx = x - ox
        dy = y - oy
        f = dx * dx / fp.sigma_x + dy * dy / fp.sigma_y
        e = math.exp(-f) if isinstance(f, float) else np.fromiter(map(math.exp, (-f).tolist()), float, len(f))
        total += fp.amplitude * e
    return total


def clearance_cost_xy(x: float, y: float, t: float, world: WorldModel) -> float:
    """Field at (x, y) of the world's objects posed at time t (the field needs no reach2)."""
    return clearance_cost(x, y, [(*obj.pose_at(t), obj, None) for obj in world.objects])
