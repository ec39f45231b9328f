"""Kinematic bicycle model: state types, Euler integration, propagation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    r = math.remainder(theta, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


@dataclass(frozen=True)
class VehicleState:
    x: float
    y: float
    theta: float
    v: float


@dataclass(frozen=True)
class ControlInput:
    a: float
    delta: float


@dataclass(frozen=True)
class VehicleParams:
    wheelbase: float = 2.7
    length: float = 4.0
    width: float = 2.0
    v_bounds: tuple = (0.0, 6.0)
    a_bounds: tuple = (-0.8, 0.8)
    delta_bounds: tuple = (-0.4, 0.4)

    def __post_init__(self) -> None:
        if self.wheelbase <= 0.0 or self.length <= 0.0 or self.width <= 0.0:
            raise ValueError("wheelbase, length and width must be positive")
        for lo, hi in (self.v_bounds, self.a_bounds, self.delta_bounds):
            if lo > hi:
                raise ValueError("bounds must be ordered (min, max)")
        # the planner metric divides by the speed range
        if self.v_bounds[0] == self.v_bounds[1]:
            raise ValueError("v_bounds must span a range: v_min must be < v_max")
        if self.v_bounds[0] < 0.0:
            raise ValueError("reverse driving is unsupported: v_min must be >= 0")


@dataclass(frozen=True)
class TimedState:
    state: VehicleState
    t: float
    input: Optional[ControlInput] = None


@dataclass
class Trajectory:
    samples: list = field(default_factory=list)


def step(s: VehicleState, u: ControlInput, ts: float, p: VehicleParams) -> VehicleState:
    """One Euler step of the bicycle model.

    Speed is clamped to the vehicle bounds after the update and heading is
    re-normalized; sampled accelerations may otherwise push v out of range
    mid-propagation.
    """
    x = s.x + ts * s.v * math.cos(s.theta)
    y = s.y + ts * s.v * math.sin(s.theta)
    theta = normalize_angle(s.theta + ts * (s.v / p.wheelbase) * math.tan(u.delta))
    v = s.v + ts * u.a
    v_min, v_max = p.v_bounds
    if v < v_min:
        v = v_min
    elif v > v_max:
        v = v_max
    return VehicleState(x, y, theta, v)


# Integration steps one propagation may take; the shipped scenarios take 10.
_MAX_SUBSTEPS = 1000


def substep_count(tp: float, ts: float) -> int:
    """Number of integration steps in a propagation; rejects non-multiples and more than _MAX_SUBSTEPS."""
    if ts <= 0.0 or tp <= 0.0:
        raise ValueError("time steps must be positive")
    # also rejects a ratio that overflows to infinity, which round() cannot take
    if not tp / ts < _MAX_SUBSTEPS + 0.5:
        raise ValueError(f"propagation time {tp} takes more than {_MAX_SUBSTEPS} steps of {ts}")
    n = round(tp / ts)
    if n < 1 or abs(n * ts - tp) > 1e-9 * max(tp, ts):
        raise ValueError(f"propagation time {tp} is not an integer multiple of {ts}")
    return n


def propagate(s: VehicleState, u: ControlInput, tp: float, ts: float, p: VehicleParams) -> list:
    """Apply a constant control for tp seconds; returns the tp/ts intermediate states."""
    n = substep_count(tp, ts)
    out = []
    cur = s
    for _ in range(n):
        cur = step(cur, u, ts, p)
        out.append(cur)
    return out
