"""Multi-objective motion costs.

Path length is an intrinsic per-edge cost; desired-velocity deviation,
penalty-grid and target-clearance terms are state costs integrated over
time with the trapezoid rule between edge endpoints. state_cost and
edge_cost are the only definitions of the two formulas; the planner's tree
accumulates its costs through them. Both take floats or numpy arrays: they
use only abs, +, * and /, which round the same way on either, so the
planner prices a whole batch of endpoints at once with the scalar path's
bits. The caller supplies the transcendental parts (math.hypot for the path
length, math.exp inside the clearance field), as numpy's versions of them
can differ in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostWeights:
    path_length: float = 0.05
    desired_velocity: float = 0.5
    penalty_grid: float = 0.2
    target_clearance: float = 2.0
    v_desired: float = 5.0

    def __post_init__(self) -> None:
        if min(self.path_length, self.desired_velocity, self.penalty_grid, self.target_clearance) < 0.0:
            raise ValueError("cost weights must be non-negative")


def state_cost(w: CostWeights, v: float, penalty: float, clearance: float) -> float:
    """Weighted cost of one state at speed v, with its penalty-grid value and
    its target-clearance field value."""
    return w.desired_velocity * abs(v - w.v_desired) + w.penalty_grid * penalty + w.target_clearance * clearance


def edge_cost(w: CostWeights, length: float, c0: float, c1: float, dt: float) -> float:
    """Cost of an edge of the given path length from a state of cost c0 to one
    of cost c1, dt seconds later: path length plus the trapezoid state-cost integral."""
    return w.path_length * length + dt * (c0 + c1) / 2.0
