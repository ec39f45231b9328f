"""Kinodynamic urban trajectory planning: sparse-tree search over a
kinematic bicycle model with road-layout and previous-solution seeding,
plus a deterministic closed-loop scenario simulator."""

from .cost import CostWeights, motion_cost, state_cost_components, trajectory_cost, weighted_state_cost
from .dki import DkiConfig, plan_dki, seed_lane_branch, seed_previous_branch
from .geometry import OrientedBox, Point2, Polygon, box_corners, obb_overlap, point_in_polygon, polygons_overlap
from .objects import FieldParams, ObjectPrediction, WorldModel, clearance_cost_xy
from .road import (
    GoalRegion,
    Lane,
    PenaltyGrid,
    RoadNetwork,
    RouteExhaustedError,
    RoutePath,
    build_penalty_grid,
    compute_goal_region,
    nearest_lane_center,
)
from .sim import (
    MetricsReport,
    Scenario,
    ScenarioError,
    SimLog,
    build_scenario_grid,
    compute_metrics,
    load_scenario,
    run_closed_loop,
    scenario_from_dict,
    scenario_to_dict,
)
from .sst import (
    InvalidStartError,
    PlannerConfig,
    PlannerTree,
    PlanResult,
    extract_best_trajectory,
    is_state_valid,
    plan,
    sample_input,
    sample_state,
)
from .vehicle import (
    ControlInput,
    TimedState,
    Trajectory,
    VehicleParams,
    VehicleState,
    normalize_angle,
    propagate,
    step,
)

__version__ = "0.1.0"
