"""Kinodynamic urban trajectory planning: sparse-tree search over a
kinematic bicycle model with road-layout and previous-solution seeding,
plus a deterministic closed-loop scenario simulator."""

__version__ = "0.1.0"
