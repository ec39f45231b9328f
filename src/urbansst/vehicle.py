"""Kinematic bicycle model: state types, Euler integration, propagation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    r = math.remainder(theta, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


class VehicleState(NamedTuple):
    x: float
    y: float
    theta: float
    v: float


class ControlInput(NamedTuple):
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


class TimedState(NamedTuple):
    state: VehicleState
    t: float
    input: Optional[ControlInput] = None


@dataclass
class Trajectory:
    samples: list = field(default_factory=list)


def substeps(s, u, ts: float, n: int, p: VehicleParams):
    """The states after each of n Euler steps of the bicycle model from s under
    the constant input u, as plain (x, y, theta, v) tuples.

    Position and heading advance with the speed before the step. The speed is
    clamped to the vehicle bounds after the update, since sampled accelerations
    may otherwise push it out of range mid-propagation, and the heading is
    re-normalized. tan(delta), the wheelbase and the bounds are read once.
    """
    x, y, theta, v = s
    a, delta = u
    tan_d = math.tan(delta)
    wheelbase = p.wheelbase
    v_min, v_max = p.v_bounds
    dv = ts * a
    for _ in range(n):
        tv = ts * v
        x += tv * math.cos(theta)
        y += tv * math.sin(theta)
        theta = normalize_angle(theta + ts * (v / wheelbase) * tan_d)
        v += dv
        if v < v_min:
            v = v_min
        elif v > v_max:
            v = v_max
        yield x, y, theta, v


def step(s: VehicleState, u: ControlInput, ts: float, p: VehicleParams) -> VehicleState:
    """One Euler step of the bicycle model (substeps)."""
    return VehicleState(*next(substeps(s, u, ts, 1, p)))


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
    return [VehicleState(*q) for q in substeps(s, u, ts, substep_count(tp, ts), p)]
