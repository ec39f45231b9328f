"""Multi-objective motion costs.

Path length is an intrinsic per-edge cost; desired-velocity deviation,
penalty-grid and target-clearance terms are state costs integrated over
time with the trapezoid rule between edge endpoints. state_cost and
edge_cost are the only definitions of the two formulas; the planner's tree
accumulates its costs through them.
"""

from __future__ import annotations

import math
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


def edge_cost(w: CostWeights, x0: float, y0: float, c0: float, x1: float, y1: float, c1: float, dt: float) -> float:
    """Cost of an edge from (x0, y0) with state cost c0 to (x1, y1) with state
    cost c1, dt seconds later: path length plus the trapezoid state-cost integral."""
    return w.path_length * math.hypot(x1 - x0, y1 - y0) + dt * (c0 + c1) / 2.0
