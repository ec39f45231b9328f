import math
from dataclasses import dataclass

import numpy as np
import pytest

from urbansst.geometry import Point2, Polygon, _on_segment, obb_overlap, point_in_polygon

# Polygon-based oracles of obb_overlap: an exact overlap test of two simple
# polygons (vertex containment plus edge crossings) and box corner lists.


@dataclass(frozen=True)
class OrientedBox:
    center: Point2
    heading: float
    length: float
    width: float

    def __post_init__(self) -> None:
        if self.length <= 0.0 or self.width <= 0.0:
            raise ValueError("box length and width must be positive")


def box_corners(cx: float, cy: float, heading: float, length: float, width: float):
    """Corner coordinates of an oriented box, counter-clockwise."""
    c = math.cos(heading)
    s = math.sin(heading)
    hl = 0.5 * length
    hw = 0.5 * width
    return [
        (cx + c * hl - s * hw, cy + s * hl + c * hw),
        (cx - c * hl - s * hw, cy - s * hl + c * hw),
        (cx - c * hl + s * hw, cy - s * hl - c * hw),
        (cx + c * hl + s * hw, cy + s * hl - c * hw),
    ]


def box_to_polygon(box: OrientedBox) -> Polygon:
    return Polygon(box_corners(box.center.x, box.center.y, box.heading, box.length, box.width))


def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def segments_intersect(a1, a2, b1, b2) -> bool:
    """True iff closed segments a1-a2 and b1-b2 share at least one point."""
    d1 = _orient(b1[0], b1[1], b2[0], b2[1], a1[0], a1[1])
    d2 = _orient(b1[0], b1[1], b2[0], b2[1], a2[0], a2[1])
    d3 = _orient(a1[0], a1[1], a2[0], a2[1], b1[0], b1[1])
    d4 = _orient(a1[0], a1[1], a2[0], a2[1], b2[0], b2[1])
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    if d1 == 0 and _on_segment(a1[0], a1[1], b1[0], b1[1], b2[0], b2[1]):
        return True
    if d2 == 0 and _on_segment(a2[0], a2[1], b1[0], b1[1], b2[0], b2[1]):
        return True
    if d3 == 0 and _on_segment(b1[0], b1[1], a1[0], a1[1], a2[0], a2[1]):
        return True
    if d4 == 0 and _on_segment(b2[0], b2[1], a1[0], a1[1], a2[0], a2[1]):
        return True
    return False


def polygons_overlap(a: Polygon, b: Polygon) -> bool:
    """True iff the two simple polygons share any point.

    Vertex containment alone misses cross-shaped configurations, so edge
    pairs are tested explicitly as well.
    """
    for v in a.vertices:
        if point_in_polygon(v, b):
            return True
    for v in b.vertices:
        if point_in_polygon(v, a):
            return True
    na = len(a.vertices)
    nb = len(b.vertices)
    for i in range(na):
        p1 = a.vertices[i]
        p2 = a.vertices[(i + 1) % na]
        for j in range(nb):
            q1 = b.vertices[j]
            q2 = b.vertices[(j + 1) % nb]
            if segments_intersect(p1, p2, q1, q2):
                return True
    return False


UNIT_SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def _cyclic_equal(got, want, tol=1e-12):
    n = len(want)
    for shift in range(n):
        rolled = got[shift:] + got[:shift]
        if all(
            abs(a[0] - b[0]) < tol and abs(a[1] - b[1]) < tol
            for a, b in zip(rolled, want)
        ):
            return True
    # also allow reversed order
    rev = got[::-1]
    for shift in range(n):
        rolled = rev[shift:] + rev[:shift]
        if all(
            abs(a[0] - b[0]) < tol and abs(a[1] - b[1]) < tol
            for a, b in zip(rolled, want)
        ):
            return True
    return False


class TestBoxCorners:
    def test_axis_aligned(self):
        got = box_corners(0, 0, 0.0, 4, 2)
        assert _cyclic_equal(got, [(2, 1), (-2, 1), (-2, -1), (2, -1)])

    def test_rotated_quarter_turn(self):
        got = box_corners(0, 0, math.pi / 2, 4, 2)
        assert _cyclic_equal(got, [(-1, 2), (-1, -2), (1, -2), (1, 2)])

    def test_translation(self):
        got = box_corners(10, 5, 0.0, 2, 2)
        assert _cyclic_equal(got, [(11, 6), (9, 6), (9, 4), (11, 4)])

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            OrientedBox(Point2(0, 0), 0.0, 0.0, 1.0)


def _winding_number_inside(px, py, verts):
    """Independent containment oracle via winding number."""
    wn = 0
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        if ay <= py:
            if by > py and (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                wn += 1
        else:
            if by <= py and (bx - ax) * (py - ay) - (by - ay) * (px - ax) < 0:
                wn -= 1
    return wn != 0


class TestPointInPolygon:
    def test_interior(self):
        assert point_in_polygon(Point2(0.5, 0.5), UNIT_SQUARE)

    def test_exterior(self):
        assert not point_in_polygon(Point2(2, 2), UNIT_SQUARE)

    def test_boundary_counts_as_inside(self):
        assert point_in_polygon(Point2(1.0, 0.5), UNIT_SQUARE)

    def test_winding_number_oracle(self):
        rng = np.random.default_rng(12345)
        for _ in range(20):
            # random convex polygon via hull of a rotated box plus a triangle
            cx, cy = rng.uniform(-5, 5, 2)
            poly = Polygon(box_corners(cx, cy, rng.uniform(0, math.pi), rng.uniform(1, 6), rng.uniform(1, 6)))
            pts = rng.uniform(-8, 8, size=(500, 2))
            for px, py in pts:
                want = _winding_number_inside(px, py, poly.vertices)
                got = point_in_polygon(Point2(px, py), poly)
                # the implementations may only disagree exactly on the boundary,
                # which has measure zero for random queries
                assert got == want, (px, py, poly)


class TestSegmentsIntersect:
    def test_crossing(self):
        assert segments_intersect((0, 0), (1, 1), (0, 1), (1, 0))

    def test_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_touching_endpoint(self):
        assert segments_intersect((0, 0), (1, 0), (1, 0), (2, 5))

    def test_collinear_overlap(self):
        assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))


class TestPolygonsOverlap:
    def test_shifted_squares_overlap(self):
        b = Polygon([(0.5, 0), (1.5, 0), (1.5, 1), (0.5, 1)])
        assert polygons_overlap(UNIT_SQUARE, b)

    def test_disjoint_squares(self):
        b = Polygon([(3, 0), (4, 0), (4, 1), (3, 1)])
        assert not polygons_overlap(UNIT_SQUARE, b)

    def test_cross_configuration(self):
        # no vertex of either box lies inside the other
        a = Polygon(box_corners(0, 0, 0.0, 4, 1))
        b = Polygon(box_corners(0, 0, math.pi / 2, 4, 1))
        assert polygons_overlap(a, b)

    def test_dense_sampling_oracle(self):
        rng = np.random.default_rng(777)
        grid = np.linspace(0.02, 0.98, 12)
        for _ in range(200):
            c1 = rng.uniform(-3, 3, 2)
            c2 = rng.uniform(-3, 3, 2)
            h1, h2 = rng.uniform(0, math.pi, 2)
            l1, w1, l2, w2 = rng.uniform(0.5, 4, 4)
            a = Polygon(box_corners(c1[0], c1[1], h1, l1, w1))
            b = Polygon(box_corners(c2[0], c2[1], h2, l2, w2))
            got = polygons_overlap(a, b)
            # dense interior sampling of both boxes
            found = False
            for poly, other in ((a, b), (b, a)):
                v = np.asarray(poly.vertices)
                for u in grid:
                    for w in grid:
                        p = (
                            v[0] + u * (v[1] - v[0]) + w * (v[3] - v[0])
                        )
                        if point_in_polygon(Point2(p[0], p[1]), other):
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                assert got, (a, b)
            # sampling misses thin overlaps, so absence does not refute got


class TestObbOverlap:
    def test_matches_polygon_overlap(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            c1 = rng.uniform(-3, 3, 2)
            c2 = rng.uniform(-3, 3, 2)
            h1, h2 = rng.uniform(0, math.tau, 2)
            l1, w1, l2, w2 = rng.uniform(0.5, 4, 4)
            got = obb_overlap(c1[0], c1[1], h1, l1, w1, c2[0], c2[1], h2, l2, w2)
            want = polygons_overlap(
                Polygon(box_corners(c1[0], c1[1], h1, l1, w1)),
                Polygon(box_corners(c2[0], c2[1], h2, l2, w2)),
            )
            assert got == want

    def test_touching_counts_as_overlap(self):
        assert obb_overlap(0, 0, 0, 2, 2, 2, 0, 0, 2, 2)

    def test_box_to_polygon_roundtrip(self):
        box = OrientedBox(Point2(1, 2), 0.3, 4, 2)
        poly = box_to_polygon(box)
        assert len(poly.vertices) == 4
