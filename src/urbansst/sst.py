"""Anytime stable-sparse tree planner over the kinematic bicycle model.

The search loop is the classic selection-propagation-pruning scheme:
uniform state sampling, best-cost selection within a radius, truncated
Gaussian control sampling, fixed-time propagation with per-substep
validity checks, and witness-based sparsification of the tree.

The loop runs in batches of up to 64 iterations with the outcome of as
many sequential ones: the draws do not depend on the tree, so a batch draws
them first, as two arrays, then selects (nearest first), propagates and
looks up witnesses for all of them against the tree as it stood at batch
start, commits the results in order and redoes through the scalar path each
iteration that an earlier commit may have changed. That snapshot pass reads
arrays only: each witness-table column also holds its representative's
state, cost, state cost and depth, which one helper (_set_rep) writes. The
two nearest-neighbour passes rank exactly only the table columns that an xy
lower bound, one matrix product, cannot rule out; the witness pass only needs
witnesses within d_prune, so it bounds every pair by d_prune alone. Every
edge takes n_sub substeps, so a node's time is its depth's: the object poses
at the substep times of a propagation from depth d are row d of one pose
table, gathered by the kernel as one array.
The scalar path integrates with vehicle.substeps and checks the substates
with one per-tree closure over a path (_validator), the one validity rule,
which the start check and the lane branch's pick apply too. The kernel,
propagate_batch, gives its results bit for bit from two passes over all
candidates and substeps, held substep-major as (n_sub + 1, n) planes:
integrate (speeds and positions as running sums along axis 0, the heading
with its wrap) and valid_rows (bounds and grid cells, then object checks up
to each candidate's first failing substep); the lane branch calls them apart.
The batch's endpoints are then priced in one array pass (_price) with
try_insert's bits, math's exp and hypot mapped over arrays, from the parents'
table columns and the grid penalties that valid_rows looked up, so
that an endpoint its snapshot witness dominates is dropped after one compare,
before any state, input or stale-tracking row is built for it. A batch in
which every endpoint is so dropped commits nothing and ends there.

The state-space metric is Euclidean over components normalized by the
sampling-bound extents (wrap-aware in heading), so that the unitless
selection and pruning radii are meaningful across heterogeneous units.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .cost import CostWeights, edge_cost, state_cost
from .objects import WorldModel, WorldPoser, clearance_cost, object_hit
from .road import GoalRegion, PenaltyGrid
from .vehicle import (
    ControlInput, TimedState, Trajectory, VehicleParams, VehicleState, normalize_angle, substep_count, substeps,
)


# Rows of PlannerTree's witness table: the witness's norm, then its
# representative's norm, cost, state (x, y, theta, v), state cost and depth.
_WIT = slice(0, 4)
_REP = slice(4, 8)
_COST = 8
_STATE = slice(9, 13)
_SCW = 13
_DEPTH = 14

# Main-loop iterations done as one batch.
_BATCH = 64

# Up to this many (point, column) pairs, one exact pass over all of them is
# faster than the xy filter of PlannerTree._nearest.
_FULL_PASS = 8192

class InvalidStartError(ValueError):
    """The query's start state fails validity checking."""


@dataclass(frozen=True)
class PlannerConfig:
    iteration_budget: Optional[int] = None
    query_time: Optional[float] = None
    d_near: float = 0.2
    d_prune: float = 0.1
    t_prop: float = 0.4
    t_step: float = 0.04
    sigma_a: float = 0.8
    sigma_delta: float = 0.2
    # Sampling bounds of one query, set by with_bounds; speed bounds are the
    # vehicle's (VehicleParams.v_bounds), heading spans the full circle.
    x_bounds: Optional[tuple] = None
    y_bounds: Optional[tuple] = None
    # Characteristic length normalizing x/y in the planner metric. Dividing
    # by the sampling extents instead would shrink a full propagation step
    # below d_prune and freeze the tree at its root.
    metric_xy_scale: float = 10.0

    def __post_init__(self) -> None:
        # A budget must end; a zero budget builds the root alone and stops.
        if self.iteration_budget is not None and self.iteration_budget < 0:
            raise ValueError(f"iteration_budget must not be negative, got {self.iteration_budget!r}")
        if self.query_time is not None and not (math.isfinite(self.query_time) and self.query_time >= 0.0):
            raise ValueError(f"query_time must be finite and not negative, got {self.query_time!r}")
        if self.iteration_budget is not None and self.query_time is not None:
            raise ValueError("iteration_budget and query_time must not both be set")
        if self.d_prune > self.d_near:
            raise ValueError("d_prune must not exceed d_near")
        if self.sigma_a <= 0.0 or self.sigma_delta <= 0.0:
            raise ValueError("input sampling sigmas must be positive")
        # the planner metric divides positions by it; below a millimetre their squares can overflow
        if not self.metric_xy_scale >= 1e-3:
            raise ValueError(f"metric_xy_scale must be at least 0.001 m, got {self.metric_xy_scale!r}")
        substep_count(self.t_prop, self.t_step)

    def with_bounds(self, x_bounds, y_bounds) -> "PlannerConfig":
        return replace(self, x_bounds=tuple(x_bounds), y_bounds=tuple(y_bounds))

    def with_budget(self, kind: str, value) -> "PlannerConfig":
        """This config with the budget ("iters", n) or ("time", seconds) in place of its own."""
        if kind == "iters":
            return replace(self, iteration_budget=int(value), query_time=None)
        if kind == "time":
            return replace(self, iteration_budget=None, query_time=float(value))
        raise ValueError(f"budget kind must be 'iters' or 'time', got {kind!r}")


def norm_state(s: VehicleState, config: PlannerConfig, params: VehicleParams) -> tuple:
    """State in the planner's normalized space; heading maps onto [0, 1)."""
    x, y, theta, v = s
    return _normalized(x, y, normalize_angle(theta), v, config, params)


def norm_states(rows: np.ndarray, config: PlannerConfig, params: VehicleParams) -> np.ndarray:
    """norm_state of each row (x, y, theta, v) of rows, bit for bit, as the columns of a (4, n) array."""
    x, y, th, v = rows.T
    return np.array(_normalized(x, y, normalize_angles(th), v, config, params))


def _normalized(x, y, th, v, config: PlannerConfig, params: VehicleParams) -> tuple:
    """The normalized components of floats or of arrays; th is already wrapped."""
    inv_xy = 1.0 / config.metric_xy_scale
    v_lo, v_hi = params.v_bounds
    return (
        (x - config.x_bounds[0]) * inv_xy,
        (y - config.y_bounds[0]) * inv_xy,
        (th + math.pi) / math.tau,
        (v - v_lo) * (1.0 / (v_hi - v_lo)),
    )


def state_distance(a, b):
    """Wrap-aware Euclidean distance between normalized states a and b.

    Both are indexed by component (x, y, heading, v) along their first axis.
    The other axes broadcast, and a 4-vector broadcasts over all of the other
    argument's; two 4-vectors give a 0-d result. One subtraction takes all four
    differences, and the squares are summed in the left-to-right order of the
    plain sum, so the rounding is the same.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == 1:
        a = a.reshape(4, *[1] * (b.ndim - 1))
    elif b.ndim == 1:
        b = b.reshape(4, *[1] * (a.ndim - 1))
    # C order, so that each component is one contiguous plane whatever the inputs' strides
    d = np.subtract(a, b, order="C")
    th = d[2:3]
    np.abs(th, out=th)
    np.minimum(th, 1.0 - th, out=th)
    d *= d
    d2 = d[0] + d[1]
    d2 += d[2]
    d2 += d[3]
    return np.sqrt(d2)


def normalize_angles(th: np.ndarray) -> np.ndarray:
    """normalize_angle of every element, bit for bit.

    np.fmod is exact, and so is each +-2 pi step after it (both operands lie
    within a factor of two), so the result is the one value th - k * 2 pi in
    (-pi, pi] that math.remainder and its <= -pi fix give.
    """
    th = np.fmod(th, math.tau)
    th[th > math.pi] -= math.tau
    th[th <= -math.pi] += math.tau
    return th


def sample_state(config: PlannerConfig, rng: np.random.Generator, params: VehicleParams) -> VehicleState:
    """Uniform state in the sampling bounds, any heading, the vehicle's speed range.

    One four-value draw gives bit for bit what four scalar rng.uniform calls
    give; tolist() keeps the fields Python floats.
    """
    ux, uy, uth, uv = rng.random(4).tolist()
    (x_lo, x_hi), (y_lo, y_hi) = config.x_bounds, config.y_bounds
    v_lo, v_hi = params.v_bounds
    return VehicleState(
        x_lo + (x_hi - x_lo) * ux,
        y_lo + (y_hi - y_lo) * uy,
        -math.pi + math.tau * uth,
        v_lo + (v_hi - v_lo) * uv,
    )


def sample_input(config: PlannerConfig, rng: np.random.Generator, params: VehicleParams) -> ControlInput:
    """Zero-mean Gaussian input, jointly redrawn until both components are in bounds.

    0.0 + sigma * standard_normal() is rng.normal(0.0, sigma) bit for bit
    (the 0.0 turns -0.0 into 0.0, as the mean does), without its argument
    handling.
    """
    a_lo, a_hi = params.a_bounds
    d_lo, d_hi = params.delta_bounds
    while True:
        a = 0.0 + config.sigma_a * rng.standard_normal()
        d = 0.0 + config.sigma_delta * rng.standard_normal()
        if a_lo <= a <= a_hi and d_lo <= d <= d_hi:
            return ControlInput(a, d)


def sample_batch(config: PlannerConfig, rng: np.random.Generator, params: VehicleParams, k: int):
    """k alternating sample_state and sample_input calls at once, bit for bit.

    Returns the states as the rows (x, y, theta, v) of a (k, 4) array and the
    inputs as the rows (a, delta) of a (k, 2) array. Iteration j draws into
    row j, so the generator ends in the state the k call pairs leave it in;
    the scaling then runs over whole arrays, in the scalar functions'
    operation order (a product and a sum round the same either way round).
    """
    u = np.empty((k, 4))
    z = np.empty((k, 2))
    sigma_a, sigma_d = config.sigma_a, config.sigma_delta
    a_lo, a_hi = params.a_bounds
    d_lo, d_hi = params.delta_bounds
    for j in range(k):
        rng.random(out=u[j])
        zj = z[j]
        while True:
            rng.standard_normal(out=zj)
            za, zd = zj.tolist()
            if a_lo <= 0.0 + sigma_a * za <= a_hi and d_lo <= 0.0 + sigma_d * zd <= d_hi:
                break
    (x_lo, x_hi), (y_lo, y_hi) = config.x_bounds, config.y_bounds
    v_lo, v_hi = params.v_bounds
    u *= (x_hi - x_lo, y_hi - y_lo, math.tau, v_hi - v_lo)
    u += (x_lo, y_lo, -math.pi, v_lo)
    z *= (sigma_a, sigma_d)
    z += 0.0
    return u, z


def sample_inputs(config: PlannerConfig, rng: np.random.Generator, params: VehicleParams, n: int):
    """n sample_input calls at once: arrays (a, delta) of the same values.

    A look-ahead draws 2n pairs, twice as many each time fewer than n are
    in bounds; the generator is then reset and draws exactly up to the n-th
    accepted pair, so it ends in the state that n sample_input calls leave it in.
    """
    if not n:
        return np.empty(0), np.empty(0)
    a_lo, a_hi = params.a_bounds
    d_lo, d_hi = params.delta_bounds
    scale = (config.sigma_a, config.sigma_delta)
    saved = rng.bit_generator.state
    m = 2 * n
    while True:
        a, d = (0.0 + np.multiply(scale, rng.standard_normal((m, 2)))).T
        kept = ((a_lo <= a) & (a <= a_hi) & (d_lo <= d) & (d <= d_hi)).nonzero()[0][:n]
        rng.bit_generator.state = saved
        if len(kept) == n:
            break
        m *= 2
    rng.standard_normal((int(kept[-1]) + 1, 2))
    return a[kept], d[kept]


def _validator(grid: PenaltyGrid, config: PlannerConfig, params: VehicleParams):
    """The validity rule, with its bounds read once, as a function valid_end(path, poses_row).

    A state is valid if it lies in the sampling bounds and the vehicle's speed
    range, on a grid cell below p_invalid, and overlaps no object posed as in
    its entry of poses_row (WorldPoser.at entries, one per state of path).
    valid_end returns path's last state if every state is valid, else None;
    it reads path, which may be an iterator, only up to the first invalid state.
    """
    (x_lo, x_hi), (y_lo, y_hi) = config.x_bounds, config.y_bounds
    v_lo, v_hi = params.v_bounds[0] - 1e-9, params.v_bounds[1] + 1e-9
    lookup, p_invalid = grid.lookup, grid.p_invalid
    length, width = params.length, params.width

    def valid_end(path, poses_row):
        s = None
        for s, poses in zip(path, poses_row):
            x, y, theta, v = s
            # object_hit finds nothing among no objects
            if not (
                x_lo <= x <= x_hi and y_lo <= y <= y_hi and v_lo <= v <= v_hi and lookup(x, y) < p_invalid
                and (not poses or object_hit(x, y, theta, length, width, poses) is None)
            ):
                return None
        return s

    return valid_end


class TreeNode:
    """A tree node; its time is PlannerTree._times[depth], that of its edge's last substep."""

    __slots__ = ("state", "depth", "input", "parent", "cost", "state_cost_w")

    def __init__(self, state, u, parent, cost, state_cost_w) -> None:
        self.state = state
        self.depth = 0 if parent is None else parent.depth + 1
        self.input = u
        self.parent = parent
        self.cost = cost
        self.state_cost_w = state_cost_w


@dataclass
class PlanResult:
    solved: bool
    trajectory: Optional[Trajectory]
    cost: float
    iterations: int
    n_nodes: int
    n_witnesses: int
    cost_history: list = field(default_factory=list)


class PlannerTree:
    """Single-query search tree over witnesses and their representatives.

    A node becomes a representative (SST's active node) only by founding a
    witness or by replacing a witness's representative, so one append-only
    table indexed by witness serves both selection and pruning.

    A node links only to its parent, so a tree holds no reference cycle.
    SST prunes a replaced representative, then each ancestor left inactive
    with no child; reference counting frees exactly those nodes, and a
    finished tree whole. A wall-time budget counts from construction, which
    charges seeding to the query.

    Not shared between queries; one instance per call to plan().
    """

    def __init__(
        self,
        start: VehicleState,
        start_time: float,
        goal: GoalRegion,
        grid: PenaltyGrid,
        world: WorldModel,
        config: PlannerConfig,
        weights: CostWeights,
        params: VehicleParams,
        rng: np.random.Generator,
    ) -> None:
        self._started = time.perf_counter()
        if config.x_bounds is None or config.y_bounds is None:
            raise ValueError("planner config needs x_bounds and y_bounds")
        self.goal = goal
        self.grid = grid
        self.world = world
        self.config = config
        self.weights = weights
        self.params = params
        self.rng = rng
        self.iterations_used = 0
        self.best_cost = math.inf
        self.best_trajectory: Optional[Trajectory] = None
        self.cost_history: list = []
        self._n_sub = substep_count(config.t_prop, config.t_step)
        # The pose table: _times[d] is the time of every node at depth d, and
        # _pose_rows[d] the object poses at each substep time after it.
        self._poser = WorldPoser(world, params.length, params.width)
        self._times = [start_time]
        self._pose_rows: list = []
        self._xyr = np.empty((16, self._n_sub, len(world.objects), 3))
        self._valid_path = _validator(grid, config, params)

        # Column i: witness i's norm and its representative's rows (_WIT to
        # _DEPTH, see there); self._reps[i] is the representative.
        self._table = np.empty((_DEPTH + 1, 1024))
        self._reps: list = []

        poses = self._poser.at(start_time)
        if self._valid_path((start,), (poses,)) is None:
            raise InvalidStartError("start state is invalid")
        scw = self._state_cost_w(start.x, start.y, start.v, poses)
        self.root = TreeNode(start, None, None, 0.0, scw)
        self._add_witness(self.root, norm_state(start, config, params))
        if goal.contains_xy(start.x, start.y):
            self._record_solution(self.root)

    @property
    def n_witnesses(self) -> int:
        return len(self._reps)

    @property
    def n_nodes(self) -> int:
        """Nodes not pruned: the representatives and their ancestors."""
        alive = set()
        for node in self._reps:
            while node is not None and node not in alive:
                alive.add(node)
                node = node.parent
        return len(alive)

    # -- witness table ------------------------------------------------------

    def _add_witness(self, node: TreeNode, norm) -> None:
        i = len(self._reps)
        if i == self._table.shape[1]:
            self._table = np.concatenate((self._table, np.empty_like(self._table)), axis=1)
        self._table[_WIT, i] = norm
        self._reps.append(node)
        self._set_rep(i, node, norm)

    def _set_rep(self, i: int, node: TreeNode, norm) -> None:
        """Make node, whose normalized state is norm, witness i's representative, in
        _reps and in the table rows that the batch reads in place of its attributes."""
        self._reps[i] = node
        # norm apart: a batch passes an array column, which numpy copies faster than a tuple
        self._table[_REP, i] = norm
        self._table[_COST:_DEPTH, i] = (node.cost, *node.state, node.state_cost_w)
        self._table[_DEPTH, i] = node.depth

    @staticmethod
    def _nearest(cols: np.ndarray, pts: np.ndarray, r: Optional[float] = None):
        """Index of the first nearest column of cols (4, W) to each column of
        pts (4, n), and its state_distance: argmin over the full distance row,
        bit for bit. With a radius r, only where that distance is at most r:
        elsewhere the distance is inf and the index any column's.

        Up to _FULL_PASS pairs that is one exact pass. Above it, one matrix
        product approximates every squared xy distance G = |s|^2 - 2 s.w +
        |w|^2, and only the pairs with G within a bound are ranked exactly:
        r^2, or without r each row's ub^2, ub being the exact distance to its
        G-argmin. The rounded dx^2 + dy^2 is at most the rounded full d^2
        (rounding is monotone; heading and speed only add), and the bound's
        margin is hundreds of times the rounding of r^2 or ub^2 and of the
        four-term product, so every column as near as the nearest, if that
        lies within the bound, is ranked.
        """
        n, w = pts.shape[1], cols.shape[1]
        if n * w <= _FULL_PASS:
            d = state_distance(cols[:, None], pts[:, :, None])
            i = d.argmin(axis=1)
            best = d[np.arange(n), i]
        else:
            x, y = cols[0], cols[1]
            r2 = x * x + y * y
            sx, sy = pts[0], pts[1]
            s2 = sx * sx + sy * sy
            g = np.column_stack((-2.0 * sx, -2.0 * sy, np.ones(n), s2)) @ np.vstack((x, y, r2, np.ones(w)))
            if r is None:
                ub = state_distance(cols[:, g.argmin(axis=1)], pts)
                sel = g <= (ub * ub * (1.0 + 1e-12) + 1e-12 * (s2 + r2.max() + 1.0))[:, None]
            else:
                sel = g <= r * r * (1.0 + 1e-12) + 1e-12 * (s2.max() + r2.max() + 1.0)
                # column 0 too, so that every row has a pair; one beyond r becomes inf below
                sel[:, 0] = True
            # row-major, so each row's pairs are one run, in column order
            row, col = np.divmod(np.flatnonzero(sel), w)
            d = state_distance(cols[:, col], pts[:, row])
            starts = np.searchsorted(row, np.arange(n))
            best = np.minimum.reduceat(d, starts)
            i = np.minimum.reduceat(np.where(d == best[row], col, w), starts)
        if r is not None:
            best[best > r] = math.inf
        return i, best

    def _nearest_witness(self, n) -> Optional[int]:
        """Index of the nearest witness if it lies within d_prune of n."""
        d = state_distance(self._table[_WIT, : len(self._reps)], n)
        i = int(d.argmin())
        return i if d[i] <= self.config.d_prune else None

    def representative_near(self, s: VehicleState) -> Optional[TreeNode]:
        """Representative of the witness within d_prune of s, if any."""
        i = self._nearest_witness(norm_state(s, self.config, self.params))
        return None if i is None else self._reps[i]

    # -- spec operations ----------------------------------------------------

    def select(self, x_rand: VehicleState) -> TreeNode:
        """Lowest-cost representative within d_near of the sample, else the nearest."""
        table = self._table[:, : len(self._reps)]
        d = state_distance(table[_REP], norm_state(x_rand, self.config, self.params))
        i = int(d.argmin())
        if d[i] <= self.config.d_near:
            i = int(np.where(d <= self.config.d_near, table[_COST], math.inf).argmin())
        return self._reps[i]

    def _state_cost_w(self, x: float, y: float, v: float, poses) -> float:
        clearance = clearance_cost(x, y, poses) if self.world.objects else 0.0
        return state_cost(self.weights, v, self.grid.lookup(x, y), clearance)

    def _price(self, cols: np.ndarray, ends: np.ndarray, penalties: np.ndarray):
        """try_insert's state costs and costs of the end states ends[i] (rows x, y, theta, v)
        from the representatives whose table columns are cols[:, i], as two arrays, bit for
        bit: clearance_cost, state_cost and edge_cost run over whole arrays, math.exp and
        math.hypot mapped over them, as both run per state there. The objects are posed as
        _xyr[depth, -1] holds them. Column i of penalties holds the grid penalties of the
        substates that end in ends[i], as valid_rows looked them up; the last row is the
        endpoints'."""
        n = len(ends)
        x, y, _, v = ends.T
        clearance = 0.0
        if self.world.objects and n:
            depth = cols[_DEPTH].astype(np.intp)
            self._pose_row(int(depth.max()))
            at = self._xyr[depth, -1]
            # WorldPoser.at entries whose positions are arrays: each object as posed for each endpoint
            clearance = clearance_cost(x, y, [(at[:, j, 0], at[:, j, 1], None, obj, None)
                                              for j, obj in enumerate(self.world.objects)])
        scw = state_cost(self.weights, v, penalties[-1], clearance)
        x0, y0 = cols[_STATE][:2]
        length = np.fromiter(map(math.hypot, (x - x0).tolist(), (y - y0).tolist()), float, n)
        return scw, cols[_COST] + edge_cost(self.weights, length, cols[_SCW], scw, self.config.t_prop)

    @staticmethod
    def _stale_by(norm, samples: np.ndarray, reach: np.ndarray) -> np.ndarray:
        """The picks that a representative at norm makes stale: their sample is within their reach."""
        return state_distance(norm, samples) <= reach

    def _pose_row(self, d: int) -> list:
        """Every object's pose at each substep time _times[d] + k*t_step, k = 1..n_sub, of a
        propagation from depth d (the last is _times[d + 1]), as n_sub WorldPoser.at entries;
        builds the rows up to d the first time one is asked for. _xyr[d] holds the row as an
        (n_sub, n_obj, 3) array of (x, y, reach2) for the kernel, and doubles its rows when full."""
        rows = self._pose_rows
        while len(rows) <= d:
            t0, ts = self._times[-1], self.config.t_step
            row = [self._poser.at(t0 + k * ts) for k in range(1, self._n_sub + 1)]
            self._times.append(t0 + self._n_sub * ts)
            if len(rows) == len(self._xyr):
                self._xyr = np.concatenate((self._xyr, np.empty_like(self._xyr)))
            # reshape, so that a world without objects fills (n_sub, 0, 3) too
            xyr = [[(q[0], q[1], q[4]) for q in entry] for entry in row]
            self._xyr[len(rows)] = np.reshape(xyr, self._xyr.shape[1:])
            rows.append(row)
        return rows[d]

    def valid_end(self, depth: int, path) -> Optional[VehicleState]:
        """The end state of path, the substates of a propagation from depth, or None
        if any substate is invalid at its own absolute timestamp."""
        end = self._valid_path(path, self._pose_row(depth))
        return None if end is None else VehicleState(*end)

    def propagate_checked(self, node: TreeNode, u: ControlInput) -> Optional[VehicleState]:
        """Propagate a constant input from a node, validating every substate: valid_end of vehicle.substeps."""
        return self.valid_end(node.depth, substeps(node.state, u, self.config.t_step, self._n_sub, self.params))

    def propagate_batch(self, starts: np.ndarray, depths: np.ndarray, a: np.ndarray, delta: np.ndarray):
        """propagate_checked for the inputs (a[i], delta[i]) from the state in row i
        (x, y, theta, v) of starts at depth depths[i] (an int array), at once.

        Returns the indices of the candidates whose every substate is valid,
        in candidate order, their end states as rows (x, y, theta, v) of a
        float array, each bit for bit what propagate_checked returns, and
        valid_rows's grid penalties of their substates, one column each.
        """
        paths = self.integrate(starts, a, delta)
        ok, penalties = self.valid_rows(depths, *paths[:3])
        idx = ok.nonzero()[0]
        return idx, paths[:, -1, idx].T, penalties[:, idx]

    def integrate(self, starts: np.ndarray, a: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """vehicle.substeps's states for the inputs (a[i], delta[i]) from the rows (x, y, theta, v)
        of starts, which may be a read-only broadcast, as one (4, n_sub + 1, n) array X, Y, TH, V.

        Plane k holds the states after k substeps, bit for bit what vehicle.substeps gives,
        so every running sum runs along a plane's axis 0:
        - V: step 1, clamp included, brings a start up to 1e-9 past v_bounds
          into range. The running sums of [v1, dv, dv, ...] (np.add.accumulate
          adds in order, as vehicle.substeps does) are monotone: once one crosses
          a bound, every later one does, so clipping gives the per-step clamps.
        - TH: wraps at each substep, by exact fmod steps to math.remainder's
          value. The wrap is the identity on (-pi, pi], so after step 1 the
          running sums of the increments are the headings if all stay in it;
          else a loop wraps substep by substep. The increments after step 1
          share tan(delta)'s sign, as V[1:] lies in v_bounds and v_min >= 0, so
          each row's sums from the wrapped TH[1] are monotone, and all lie in
          (-pi, pi] if the last plane does.
        - X, Y: running sums of tv*cos(th) and tv*sin(th) from x0 and y0,
          both accumulated in one call; np.sin and np.cos give math's results,
          np.tan does not, so math.tan is mapped over the steering angles.
        np.clip keeps the sign of a zero speed, which np.minimum and np.maximum
        do not.
        """
        p = self.params
        ts = self.config.t_step
        n_sub = self._n_sub
        tan_d = np.fromiter(map(math.tan, delta.tolist()), float, len(delta))
        dv = ts * a
        out = np.empty((4, n_sub + 1, len(dv)))
        out[:, 0] = starts.T
        X, Y, TH, V = out
        np.clip(V[0] + dv, *p.v_bounds, out=V[1])
        V[2:] = dv
        np.add.accumulate(V[1:], out=V[1:])
        np.clip(V[2:], *p.v_bounds, out=V[2:])
        inc = ts * (V[:-1] / p.wheelbase) * tan_d
        TH[1] = normalize_angles(TH[0] + inc[0])
        TH[2:] = inc[1:]
        np.add.accumulate(TH[1:], out=TH[1:])
        last = TH[-1]
        if not ((last > -math.pi) & (last <= math.pi)).all():
            for k in range(1, n_sub):
                TH[k + 1] = normalize_angles(TH[k] + inc[k])
        np.cos(TH[:-1], out=X[1:])
        np.sin(TH[:-1], out=Y[1:])
        out[:2, 1:] *= ts * V[:-1]
        np.add.accumulate(out[:2], axis=1, out=out[:2])
        return out

    def valid_rows(self, depths: np.ndarray, X: np.ndarray, Y: np.ndarray, TH: np.ndarray):
        """Whether each candidate i of integrate's planes, propagated from depths[i] (an int
        array), is valid at every substep: one bool per candidate, propagate_checked's verdict;
        and the (n_sub, n) grid penalties of the substates after the start, which _price reads.

        One (n_sub, n) pass checks the sampling bounds and the grid cells;
        first_bad[i] is candidate i's first failing substep, n_sub if none.
        One circle test over all objects, posed from each candidate's depth
        (_xyr), picks the substeps before first_bad that object_hit checks,
        each candidate's in substep order up to its first hit: the calls
        propagate_checked makes.
        """
        cfg = self.config
        p = self.params
        n_sub = self._n_sub
        xs, ys = X[1:], Y[1:]
        (x_lo, x_hi), (y_lo, y_hi) = cfg.x_bounds, cfg.y_bounds
        ok = (xs >= x_lo) & (xs <= x_hi) & (ys >= y_lo) & (ys <= y_hi)
        penalties = self.grid.lookups(xs, ys)
        ok &= penalties < self.grid.p_invalid
        first_bad = np.where(ok.all(axis=0), n_sub, ok.argmin(axis=0))
        if self.world.objects:
            self._pose_row(int(depths.max()))
            at = self._xyr[depths].swapaxes(0, 1)
            dx = at[..., 0] - xs[..., None]
            dy = at[..., 1] - ys[..., None]
            near = (dx * dx + dy * dy <= at[..., 2]).any(axis=2) & (np.arange(n_sub)[:, None] < first_bad)
            # nonzero runs substep by substep, so each candidate's in substep order
            for k, i in zip(*(ix.tolist() for ix in near.nonzero())):
                if k < first_bad[i]:
                    pose = float(xs[k, i]), float(ys[k, i]), float(TH[k + 1, i])
                    if object_hit(*pose, p.length, p.width, self._pose_rows[depths[i]][k]) is not None:
                        first_bad[i] = k
        return first_bad == n_sub, penalties

    def try_insert(self, parent: TreeNode, state: VehicleState, u: ControlInput, priced=None) -> Optional[TreeNode]:
        """Witness-gated insertion of a propagation's end state: kept only if its nearest witness
        is absent or holds a costlier representative (SST's rule).

        priced is the state's (state cost, cost, norm, near), near being the index of its nearest
        witness if that lies within d_prune, else None, as _price, norm_states and
        _nearest_witness give them bit for bit; without it, try_insert computes all four.
        """
        x, y, _, v = state
        # every insert makes its depth's time, which _chain_trajectory reads
        poses = self._pose_row(parent.depth)[-1]
        if priced is None:
            x0, y0, _, _ = parent.state
            scw = self._state_cost_w(x, y, v, poses)
            length = math.hypot(x - x0, y - y0)
            cost = parent.cost + edge_cost(self.weights, length, parent.state_cost_w, scw, self.config.t_prop)
            norm = norm_state(state, self.config, self.params)
            i = self._nearest_witness(norm)
        else:
            scw, cost, norm, i = priced
        if i is not None and cost >= self._table[_COST, i]:
            return None
        node = TreeNode(state, u, parent, cost, scw)
        if i is None:
            self._add_witness(node, norm)
        else:
            self._set_rep(i, node, norm)
        if cost < self.best_cost and self.goal.contains_xy(x, y):
            self._record_solution(node)
        return node

    def _record_solution(self, node: TreeNode) -> None:
        self.best_cost = node.cost
        self.best_trajectory = _chain_trajectory(node, self._times)
        self.cost_history.append((self.iterations_used, node.cost))

    # -- main loop ----------------------------------------------------------

    def _run_batch(self, k: int) -> None:
        """k main-loop iterations, with the outcome of k sequential ones.

        An iteration samples a state, selects the node to extend (SST's
        BestNear rule: the cheapest representative within d_near, else the
        nearest; Li, Littlefield and Bekris, IJRR 2016), samples an input,
        propagates and inserts the endpoint unless its witness holds a
        cheaper one. The draws do not depend on the tree, so all k are made
        first, in stream order, as the rows of two arrays (sample_batch);
        states and inputs are built from a row only where a pick is redone or
        committed. Selection, propagation and witness lookup then run for all
        k against the table as it stands (the snapshot), and the results are
        committed in order. The snapshot reads no node: the picks' states,
        depths, costs and state costs are their table columns. The snapshot
        selection takes each sample's nearest representative first, and the
        cheapest within d_near only where the nearest lies within d_near; both
        it and the witness lookup find the nearest through _nearest, which on
        a large table ranks only the columns whose xy distance alone does not
        rule them out. The witness lookup asks only for witnesses within
        d_prune (the others neither dominate nor take an endpoint), and an
        endpoint with none gets the distance inf. A commit writes one table
        column. Pick j is stale once a commit replaced the
        node it picked, or placed a representative within reach[j] of its
        sample: within d_near it may be cheaper, and when nothing was within
        d_near, one as near as the pick may be the nearest. A stale pick is
        redone on the current tree. Witnesses never move and appended ones
        come after the snapshot's, so an endpoint's nearest witness is the
        snapshot's (argmin takes the first minimum) unless one the batch
        appended is strictly nearer: then, if that one lies within d_prune,
        _nearest_witness finds it in the table; beyond d_prune neither is a
        witness of the endpoint.

        Every endpoint is priced up front (_price). A witness's cost only falls
        (a replacement is strictly cheaper), so an endpoint that its snapshot
        witness dominates stays dominated unless an appended witness is
        strictly nearer; only the others (live) get stale-tracking rows and
        distances to the endpoints up front, which a revived endpoint or a
        redone pick computes in the one commit tail they share with them. A
        dominated endpoint's witness, and so any nearer one, lies within
        d_prune: its lookup never appends. Without a live endpoint nothing
        commits, no pick goes stale and none is revived, so the batch ends.
        """
        cfg = self.config
        params = self.params
        reps = self._reps
        states, inputs = sample_batch(cfg, self.rng, params, k)
        samples = norm_states(states, cfg, params)

        table = self._table[:, : len(reps)]
        pick, reach = self._nearest(table[_REP], samples)
        # the nearest, unless one lies within d_near: then the cheapest of
        # those is the pick (rare on most trees)
        for r in (reach <= cfg.d_near).nonzero()[0].tolist():
            d = state_distance(table[_REP], samples[:, r])
            pick[r] = np.where(d <= cfg.d_near, table[_COST], math.inf).argmin()
        reach = np.maximum(reach, cfg.d_near)
        # the picks' representatives, as the table holds them
        cols = table[:, pick]
        idx, ends, penalties = self.propagate_batch(cols[_STATE].T, cols[_DEPTH].astype(np.intp), *inputs.T)
        scw, cost = self._price(cols[:, idx], ends, penalties)
        ends_norm = norm_states(ends, cfg, params)
        d_prune = cfg.d_prune
        wit, wit_d = self._nearest(table[_WIT], ends_norm, d_prune)
        # the endpoints that their snapshot witness does not dominate
        live = ((wit_d > d_prune) | (cost < table[_COST, wit])).nonzero()[0]
        if not len(live):
            # nothing commits, so no pick goes stale and no endpoint is revived
            self.iterations_used += k
            return
        pick = pick.tolist()
        nodes = [reps[i] for i in pick]
        # row r: the samples that endpoint live[r], made a representative,
        # would make stale, and its distance to every endpoint as a witness
        hits = self._stale_by(ends_norm[:, live, None], samples[:, None, :], reach)
        to_ends = state_distance(ends_norm[:, live, None], ends_norm[:, None, :])

        row_of = dict(zip(idx.tolist(), range(len(idx))))
        live_row = dict(zip(live.tolist(), range(len(live))))
        ends, scw, cost, wit, wit_d = (a.tolist() for a in (ends, scw, cost, wit, wit_d))
        stale = np.zeros(k, dtype=bool)
        # each endpoint's distance to the nearest witness the batch appended
        added = np.full(len(idx), math.inf)
        base = self.iterations_used
        for j in range(k):
            self.iterations_used = base + j + 1
            node = nodes[j]
            r = priced = None
            if stale[j] or reps[pick[j]] is not node:
                node = self.select(VehicleState(*states[j].tolist()))
                u = ControlInput(*inputs[j].tolist())
                end = self.propagate_checked(node, u)
                if end is None:
                    continue
                norm = norm_state(end, cfg, params)
            else:
                e = row_of.get(j)
                if e is None:
                    continue
                moved = added[e] < wit_d[e] and added[e] <= d_prune
                r = live_row.get(e)
                if r is None and not moved:
                    continue
                norm = ends_norm[:, e]
                near = self._nearest_witness(norm) if moved else (wit[e] if wit_d[e] <= d_prune else None)
                priced = (scw[e], cost[e], norm, near)
                end = VehicleState(*ends[e])
                u = ControlInput(*inputs[j].tolist())
            n_wit = len(reps)
            if self.try_insert(node, end, u, priced) is None:
                continue
            stale |= self._stale_by(norm, samples, reach) if r is None else hits[r]
            if len(reps) > n_wit:
                np.minimum(added, state_distance(norm, ends_norm) if r is None else to_ends[r], out=added)

    def run(self) -> PlanResult:
        """Exhaust the remaining budget; seeding work done beforehand counts
        through iterations_used (iteration mode) or the clock (wall mode).

        The loop runs in batches of up to _BATCH iterations, and a wall-time
        budget checks its deadline once per batch, so a query can overrun it
        by up to one batch.
        """
        cfg = self.config
        if cfg.iteration_budget is None and cfg.query_time is None:
            raise ValueError("one of iteration_budget and query_time must be set")
        if cfg.iteration_budget is not None:
            while self.iterations_used < cfg.iteration_budget:
                self._run_batch(min(_BATCH, cfg.iteration_budget - self.iterations_used))
        else:
            deadline = self._started + cfg.query_time
            while time.perf_counter() < deadline:
                self._run_batch(_BATCH)
        solved = self.best_trajectory is not None
        return PlanResult(
            solved=solved,
            trajectory=self.best_trajectory,
            cost=self.best_cost if solved else math.inf,
            iterations=self.iterations_used,
            n_nodes=self.n_nodes,
            n_witnesses=self.n_witnesses,
            cost_history=list(self.cost_history),
        )


def _chain_trajectory(node: TreeNode, times: list) -> Trajectory:
    samples = []
    while node is not None:
        samples.append(TimedState(node.state, times[node.depth], node.input))
        node = node.parent
    samples.reverse()
    return Trajectory(samples)


def plan(
    start: VehicleState,
    start_time: float,
    goal: GoalRegion,
    grid: PenaltyGrid,
    world: WorldModel,
    config: PlannerConfig,
    weights: CostWeights,
    params: VehicleParams,
    rng: np.random.Generator,
) -> PlanResult:
    return PlannerTree(start, start_time, goal, grid, world, config, weights, params, rng).run()
