import math

import numpy as np
import pytest

from urbansst.sim import rollout_inputs
from urbansst.vehicle import (
    ControlInput,
    VehicleParams,
    VehicleState,
    normalize_angle,
    propagate,
    step,
    substep_count,
    substeps,
)


class TestNormalizeAngle:
    def test_identity_in_range(self):
        assert normalize_angle(0.5) == pytest.approx(0.5)

    def test_wraps_down(self):
        assert normalize_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_wraps_up(self):
        assert normalize_angle(-3 * math.pi / 2) == pytest.approx(math.pi / 2)

    def test_half_open_interval(self):
        # result lies in (-pi, pi]: -pi maps to +pi
        assert normalize_angle(-math.pi) == pytest.approx(math.pi)
        rng = np.random.default_rng(3)
        for th in rng.uniform(-50, 50, 1000):
            r = normalize_angle(th)
            assert -math.pi < r <= math.pi
            # same direction up to full turns
            assert abs(math.remainder(r - th, math.tau)) < 1e-9


class TestParams:
    def test_defaults(self):
        p = VehicleParams()
        assert p.wheelbase == 2.7
        assert p.length == 4.0 and p.width == 2.0
        assert p.v_bounds == (0.0, 6.0)
        assert p.a_bounds == (-0.8, 0.8)
        assert p.delta_bounds == (-0.4, 0.4)

    def test_rejects_reverse(self):
        with pytest.raises(ValueError):
            VehicleParams(v_bounds=(-1.0, 6.0))

    def test_rejects_unordered_bounds(self):
        with pytest.raises(ValueError):
            VehicleParams(a_bounds=(1.0, -1.0))


class TestStep:
    def test_coast_straight(self, params):
        s = step(VehicleState(0, 0, 0, 5), ControlInput(0, 0), 0.04, params)
        assert s.x == pytest.approx(0.2)
        assert s.y == pytest.approx(0.0)
        assert s.theta == pytest.approx(0.0)
        assert s.v == pytest.approx(5.0)

    def test_accelerate(self, params):
        s = step(VehicleState(0, 0, 0, 5), ControlInput(0.8, 0), 0.04, params)
        assert s.v == pytest.approx(5.032)
        assert s.x == pytest.approx(0.2)  # position uses pre-update speed

    def test_speed_clamped_at_upper_bound(self, params):
        s = step(VehicleState(0, 0, 0, 6.0), ControlInput(0.8, 0), 0.04, params)
        assert s.v == 6.0

    def test_speed_clamped_at_zero(self, params):
        s = step(VehicleState(0, 0, 0, 0.01), ControlInput(-0.8, 0), 0.04, params)
        assert s.v == 0.0

    def test_heading_update(self, params):
        s = step(VehicleState(0, 0, 0, 5), ControlInput(0, 0.3), 0.04, params)
        assert s.theta == pytest.approx(0.04 * (5 / 2.7) * math.tan(0.3))


def _euler_oracle(s, u, n, ts, p):
    """Independent forward-Euler reference implementation."""
    x, y, th, v = s.x, s.y, s.theta, s.v
    out = []
    for _ in range(n):
        x += ts * v * math.cos(th)
        y += ts * v * math.sin(th)
        th += ts * (v / p.wheelbase) * math.tan(u.delta)
        v = min(max(v + ts * u.a, p.v_bounds[0]), p.v_bounds[1])
        out.append((x, y, th, v))
    return out


class TestPropagate:
    def test_substep_count(self):
        assert substep_count(0.4, 0.04) == 10
        with pytest.raises(ValueError):
            substep_count(0.4, 0.03)
        with pytest.raises(ValueError):
            substep_count(0.4, -0.04)

    def test_returns_all_substates(self, params):
        out = propagate(VehicleState(0, 0, 0, 5), ControlInput(0, 0), 0.4, 0.04, params)
        assert len(out) == 10
        assert out[-1].x == pytest.approx(2.0)

    def test_matches_euler_oracle(self, params):
        rng = np.random.default_rng(42)
        for _ in range(200):
            s = VehicleState(*rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi), rng.uniform(0, 6))
            u = ControlInput(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))
            got = propagate(s, u, 0.4, 0.04, params)
            want = _euler_oracle(s, u, 10, 0.04, params)
            for g, (wx, wy, wth, wv) in zip(got, want):
                assert g.x == pytest.approx(wx, abs=1e-9)
                assert g.y == pytest.approx(wy, abs=1e-9)
                assert normalize_angle(g.theta - wth) == pytest.approx(0.0, abs=1e-9)
                assert g.v == pytest.approx(wv, abs=1e-9)

    def test_bit_exact_replay(self, params):
        # propagation is deterministic: replaying the same input gives
        # bit-identical states
        s = VehicleState(1.0, 2.0, 0.3, 4.0)
        u = ControlInput(0.31, -0.17)
        a = propagate(s, u, 0.4, 0.04, params)
        b = propagate(s, u, 0.4, 0.04, params)
        assert a == b

    def test_concatenation_equals_long_propagation(self, params):
        s = VehicleState(0, 0, 0.1, 3.0)
        u = ControlInput(0.2, 0.1)
        long = propagate(s, u, 0.8, 0.04, params)
        first = propagate(s, u, 0.4, 0.04, params)
        second = propagate(first[-1], u, 0.4, 0.04, params)
        assert long == first + second


def _step_oracle(s, u, ts, p):
    """One Euler step as vehicle.step computed it before substeps took its
    place: the integrator's independent reference, bit for bit."""
    x, y, theta, v0 = s
    a, delta = u
    x += ts * v0 * math.cos(theta)
    y += ts * v0 * math.sin(theta)
    theta = normalize_angle(theta + ts * (v0 / p.wheelbase) * math.tan(delta))
    v = v0 + ts * a
    v_min, v_max = p.v_bounds
    if v < v_min:
        v = v_min
    elif v > v_max:
        v = v_max
    return VehicleState(x, y, theta, v)


def _oracle_path(s, u, steps, p):
    """The oracle's states after each step of the durations in steps."""
    out = []
    for ts in steps:
        s = _step_oracle(s, u, ts, p)
        out.append(s)
    return out


def _bytes(states):
    # bytes, so that the sign of a zero counts too
    return np.array(states, dtype=float).tobytes()


class TestSubsteps:
    @pytest.mark.parametrize("v", [0.0, -0.0, -1e-9, 1e-9, 6.0, 6.0 + 1e-9, 6.0 - 1e-9, 3.0])
    @pytest.mark.parametrize("a", [0.8, 1e-12, 0.0, -0.0, -1e-12, -0.8])
    def test_speed_bounds_and_signed_zeros(self, params, v, a):
        for delta in (0.0, -0.0, 0.3):
            s, u = VehicleState(1.0, -2.0, 0.4, v), ControlInput(a, delta)
            want = _oracle_path(s, u, [0.04] * 10, params)
            assert _bytes(list(substeps(s, u, 0.04, 10, params))) == _bytes(want)
            assert _bytes(propagate(s, u, 0.4, 0.04, params)) == _bytes(want)
            assert _bytes([step(s, u, 0.04, params)]) == _bytes(want[:1])

    def test_partial_last_step(self, params):
        # rollout_inputs ends a replan interval that is not a multiple of
        # t_step with one shorter step
        s, u = VehicleState(0.0, 0.0, 0.2, 4.0), ControlInput(0.5, -0.2)
        full = list(substeps(s, u, 0.04, 12, params))
        last = step(VehicleState(*full[-1]), u, 0.013, params)
        assert _bytes(full + [last]) == _bytes(_oracle_path(s, u, [0.04] * 12 + [0.013], params))
        rollout = rollout_inputs(s, 0.0, 0.493, [u], 0.04, params)
        remaining = 0.493
        for _ in range(12):
            remaining -= 0.04
        assert len(rollout) == 13 and 0.0129 < remaining < 0.0131
        assert _bytes([r.state for r in rollout]) == _bytes(_oracle_path(s, u, [0.04] * 12 + [remaining], params))

    @pytest.mark.parametrize("theta", [math.pi, -math.pi, math.pi - 0.05, -math.pi + 0.05, 3.0 * math.pi, -7.0])
    @pytest.mark.parametrize("delta", [0.4, -0.4, 0.0])
    def test_headings_across_pi(self, params, theta, delta):
        s, u = VehicleState(5.0, 1.0, theta, 6.0), ControlInput(0.3, delta)
        got = list(substeps(s, u, 0.04, 25, params))
        assert _bytes(got) == _bytes(_oracle_path(s, u, [0.04] * 25, params))
        assert all(-math.pi < q[2] <= math.pi for q in got)

    def test_yields_lazily_plain_tuples(self, params):
        path = substeps(VehicleState(0.0, 0.0, 0.0, 5.0), ControlInput(0.1, 0.1), 0.04, 10**9, params)
        first = next(path)
        assert type(first) is tuple and len(first) == 4
