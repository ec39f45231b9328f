"""Planar geometry primitives for collision checking.

Points and simple polygons with a point-in-polygon test (ray casting,
boundary counts as inside), and the separating-axis overlap test of two
oriented boxes. Everything here is immutable and safe to share between
planner instances.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple


class Point2(NamedTuple):
    x: float
    y: float


class Polygon:
    """Simple polygon, its vertices in either winding order."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable) -> None:
        self.vertices = tuple(Point2(float(x), float(y)) for x, y in vertices)
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")

    def __repr__(self) -> str:
        return f"Polygon({list(self.vertices)!r})"


_EPS = 1e-12


def _on_segment(px, py, ax, ay, bx, by) -> bool:
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    scale = max(abs(bx - ax), abs(by - ay), 1.0)
    if abs(cross) > 1e-9 * scale:
        return False
    dot = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
    return -_EPS <= dot <= (bx - ax) ** 2 + (by - ay) ** 2 + _EPS


def point_in_polygon(p: Point2, poly: Polygon) -> bool:
    """Ray-casting containment test; boundary points count as inside."""
    px, py = p
    verts = poly.vertices
    n = len(verts)
    inside = False
    ax, ay = verts[-1]
    for i in range(n):
        bx, by = verts[i]
        if _on_segment(px, py, ax, ay, bx, by):
            return True
        # Half-open rule on y avoids double-counting vertex crossings.
        if (ay > py) != (by > py):
            x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
            if px < x_cross:
                inside = not inside
        ax, ay = bx, by
    return inside


def obb_overlap(
    cx1, cy1, h1, l1, w1,
    cx2, cy2, h2, l2, w2,
) -> bool:
    """Separating-axis overlap test for two oriented boxes.

    Touching boundaries count as overlap (collision-conservative).
    Scalar arguments keep this cheap enough for per-substate checks; the
    planner's callers reject far pairs by their circumscribed circles first
    (objects.object_hit).
    """
    dx = cx2 - cx1
    dy = cy2 - cy1
    c1 = math.cos(h1)
    s1 = math.sin(h1)
    c2 = math.cos(h2)
    s2 = math.sin(h2)
    hl1 = 0.5 * l1
    hw1 = 0.5 * w1
    hl2 = 0.5 * l2
    hw2 = 0.5 * w2
    for ax, ay in ((c1, s1), (-s1, c1), (c2, s2), (-s2, c2)):
        ra = hl1 * abs(ax * c1 + ay * s1) + hw1 * abs(-ax * s1 + ay * c1)
        rb = hl2 * abs(ax * c2 + ay * s2) + hw2 * abs(-ax * s2 + ay * c2)
        if abs(ax * dx + ay * dy) > ra + rb:
            return False
    return True
