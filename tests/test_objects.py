import math

import pytest

from urbansst.objects import (
    FieldParams,
    ObjectPrediction,
    WorldModel,
    clearance_cost_xy,
)


def make_ped(poses, obj_id="ped"):
    return ObjectPrediction(obj_id, 0.6, 0.6, poses)


class TestObjectPrediction:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_ped([])
        with pytest.raises(ValueError):
            make_ped([(0, 0, 0, 0), (0, 1, 0, 0)])  # non-increasing times
        with pytest.raises(ValueError):
            ObjectPrediction("o", -1.0, 0.6, [(0, 0, 0, 0)])

    def test_static_object(self):
        obj = make_ped([(0.0, 3.0, 4.0, 0.5)])
        assert obj.pose_at(-10.0) == (3.0, 4.0, 0.5)
        assert obj.pose_at(100.0) == (3.0, 4.0, 0.5)

    def test_linear_interpolation(self):
        obj = make_ped([(0.0, 0.0, 0.0, 0.0), (2.0, 4.0, 2.0, 0.0)])
        x, y, th = obj.pose_at(0.5)
        assert x == pytest.approx(1.0)
        assert y == pytest.approx(0.5)
        assert th == pytest.approx(0.0)

    def test_clamped_outside_horizon(self):
        obj = make_ped([(1.0, 0.0, 0.0, 0.0), (2.0, 4.0, 2.0, 0.0)])
        assert obj.pose_at(0.0) == (0.0, 0.0, 0.0)
        assert obj.pose_at(5.0) == (4.0, 2.0, 0.0)

    def test_heading_shortest_arc(self):
        # from +170deg to -170deg should pass through 180deg, not 0
        a = math.radians(170)
        b = math.radians(-170)
        obj = make_ped([(0.0, 0, 0, a), (1.0, 0, 0, b)])
        _, _, th = obj.pose_at(0.5)
        assert abs(th) == pytest.approx(math.pi, abs=1e-9)


class TestWorldModel:
    def test_default_fields(self):
        wm = WorldModel([make_ped([(0, 0, 0, 0)])])
        assert [obj.field for obj in wm.objects] == [FieldParams(100.0, 3.0, 2.0)]

    def test_field_validation(self):
        with pytest.raises(ValueError):
            FieldParams(sigma_x=0.0)
        with pytest.raises(ValueError):
            FieldParams(amplitude=-1.0)
        # squared offsets divided by a smaller spread can overflow
        for name in ("sigma_x", "sigma_y"):
            with pytest.raises(ValueError, match=f"{name} must be at least 0.001 m"):
                FieldParams(**{name: 9e-4})
            assert getattr(FieldParams(**{name: 1e-3}), name) == 1e-3


class TestClearanceCost:
    def test_empty_world_zero(self):
        assert clearance_cost_xy(0.0, 0.0, 0.0, WorldModel()) == 0.0

    def test_peak_at_center(self):
        wm = WorldModel([make_ped([(0, 10, 5, 0)])])
        assert clearance_cost_xy(10.0, 5.0, 0.0, wm) == pytest.approx(100.0)

    def test_longitudinal_falloff(self):
        # default sigma_x = 3; a sqrt(3) m longitudinal offset gives
        # exp(-3/3) = e^-1 of the amplitude
        wm = WorldModel([make_ped([(0, 0, 0, 0)])])
        got = clearance_cost_xy(math.sqrt(3.0), 0.0, 0.0, wm)
        assert got == pytest.approx(100.0 * math.exp(-1.0))

    def test_lateral_falloff(self):
        # default sigma_y = 2; a sqrt(2) m lateral offset gives e^-1
        wm = WorldModel([make_ped([(0, 0, 0, 0)])])
        got = clearance_cost_xy(0.0, math.sqrt(2.0), 0.0, wm)
        assert got == pytest.approx(100.0 * math.exp(-1.0))

    def test_additive_over_objects(self):
        a = make_ped([(0, 0, 0, 0)], "a")
        b = make_ped([(0, 5, 0, 0)], "b")
        wm = WorldModel([a, b])
        lone_a = clearance_cost_xy(1.0, 1.0, 0.0, WorldModel([a]))
        lone_b = clearance_cost_xy(1.0, 1.0, 0.0, WorldModel([b]))
        assert clearance_cost_xy(1.0, 1.0, 0.0, wm) == pytest.approx(lone_a + lone_b)

    def test_each_object_its_own_field(self):
        a = ObjectPrediction("a", 0.6, 0.6, [(0, 0, 0, 0)], FieldParams(amplitude=10.0))
        b = ObjectPrediction("b", 0.6, 0.6, [(0, 50, 0, 0)], FieldParams(amplitude=40.0))
        wm = WorldModel([a, b])
        assert clearance_cost_xy(0.0, 0.0, 0.0, wm) == pytest.approx(10.0)
        assert clearance_cost_xy(50.0, 0.0, 0.0, wm) == pytest.approx(40.0)

    def test_tracks_moving_object(self):
        obj = make_ped([(0.0, 0.0, 0.0, 0.0), (10.0, 10.0, 0.0, 0.0)])
        wm = WorldModel([obj])
        assert clearance_cost_xy(5.0, 0.0, 5.0, wm) == pytest.approx(100.0)
