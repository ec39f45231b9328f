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
iteration that an earlier commit may have changed. The two nearest-neighbour
passes rank exactly only the table columns that an xy lower bound, one
matrix product, cannot rule out. Every edge takes n_sub substeps, so a node's
time is its depth's: the object poses at the substep times of a propagation
from depth d are row d of one pose table, gathered by the kernel as one array.
The scalar path integrates with vehicle.step and checks each substate with
_valid, the one validity predicate. The kernel, propagate_batch, gives its
results bit for bit from two passes over all candidates and substeps:
integrate (speeds and positions as running sums, the heading with its wrap)
and valid_rows (bounds and grid cells, then object checks up to each
candidate's first failing substep); the lane branch calls them apart. The
batch's endpoints are then priced in one array pass (_price) with try_insert's
bits, so that an endpoint its snapshot witness dominates is dropped after
one compare, before any state, input or stale-tracking row is built for it.

The state-space metric is Euclidean over components normalized by the
sampling-bound extents (wrap-aware in heading), so that the unitless
selection and pruning radii are meaningful across heterogeneous units.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Optional

import numpy as np

from .cost import CostWeights, edge_cost, state_cost
from .objects import WorldModel, WorldPoser, clearance_cost, object_hit
from .road import GoalRegion, PenaltyGrid
from .vehicle import (
    ControlInput, TimedState, Trajectory, VehicleParams, VehicleState, normalize_angle, step, substep_count,
)


# Row blocks of PlannerTree's witness table.
_WIT = slice(0, 4)
_REP = slice(4, 8)
_COST = 8

# Main-loop iterations done as one batch.
_BATCH = 64

# Up to this many (point, column) pairs, one exact pass over all of them is
# faster than the xy filter of PlannerTree._nearest.
_FULL_PASS = 8192

# try_insert's default: look the nearest witness up in the table.
_LOOK_UP = object()


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
        if self.metric_xy_scale <= 0.0:
            raise ValueError("metric_xy_scale must be positive")
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

    Both are indexed by component (x, y, heading, v). A component may be an
    array holding that component of many states; the result is then an array.
    The squares are accumulated in place, which saves temporaries, in the
    left-to-right order of the plain sum, so the rounding is the same.
    """
    d2 = a[0] - b[0]
    d2 *= d2
    dy = a[1] - b[1]
    dy *= dy
    d2 += dy
    dth = np.abs(a[2] - b[2])
    dth = np.minimum(dth, 1.0 - dth)
    dth *= dth
    d2 += dth
    dv = a[3] - b[3]
    dv *= dv
    d2 += dv
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


def _rows(tuples: list, width: int) -> np.ndarray:
    """Tuples of width floats as the rows of an array; np.array takes several times longer."""
    return np.fromiter(chain.from_iterable(tuples), float, width * len(tuples)).reshape(-1, width)


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


def _valid(s: VehicleState, grid: PenaltyGrid, poses, config: PlannerConfig, params: VehicleParams) -> bool:
    """The validity rule: s lies in the sampling bounds and the vehicle's
    speed range, on a grid cell below p_invalid, and overlaps no object
    posed as in poses (one WorldPoser.at entry)."""
    x, y, theta, v = s
    return (
        config.x_bounds[0] <= x <= config.x_bounds[1]
        and config.y_bounds[0] <= y <= config.y_bounds[1]
        and params.v_bounds[0] - 1e-9 <= v <= params.v_bounds[1] + 1e-9
        and grid.lookup(x, y) < grid.p_invalid
        and object_hit(x, y, theta, params.length, params.width, poses) is None
    )


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

        # Column i: witness i's norm, its representative's norm and cost
        # (rows _WIT, _REP, _COST); self._reps[i] is the representative.
        self._table = np.empty((9, 1024))
        self._reps: list = []

        poses = self._poser.at(start_time)
        if not _valid(start, grid, poses, config, params):
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
        self._table[:, i] = (*norm, *norm, node.cost)
        self._reps.append(node)

    @staticmethod
    def _nearest(cols: np.ndarray, pts: np.ndarray):
        """Index of the first nearest column of cols (4, W) to each column of
        pts (4, n), and its state_distance: argmin over the full distance row,
        bit for bit.

        Up to _FULL_PASS pairs that is one exact pass. Above it, one matrix
        product approximates every squared xy distance G = |s|^2 - 2 s.w +
        |w|^2, the distance to each row's G-argmin is an exact upper bound
        ub, and only the pairs with G within ub^2 are ranked exactly. The
        rounded dx^2 + dy^2 is at most the rounded full d^2 (rounding is
        monotone; heading and speed only add), and the bound's margin is
        hundreds of times the rounding of ub^2 and of the four-term product,
        so every column as near as the nearest is ranked.
        """
        n, w = pts.shape[1], cols.shape[1]
        if n * w <= _FULL_PASS:
            d = state_distance(cols[:, None], pts[:, :, None])
            i = d.argmin(axis=1)
            return i, d[np.arange(n), i]
        x, y = cols[0], cols[1]
        r2 = x * x + y * y
        sx, sy = pts[0], pts[1]
        s2 = sx * sx + sy * sy
        g = np.column_stack((-2.0 * sx, -2.0 * sy, np.ones(n), s2)) @ np.vstack((x, y, r2, np.ones(w)))
        ub = state_distance(cols[:, g.argmin(axis=1)], pts)
        bound = ub * ub * (1.0 + 1e-12) + 1e-12 * (s2 + r2.max() + 1.0)
        # row-major, so each row's pairs are one run, in column order
        row, col = np.divmod(np.flatnonzero(g <= bound[:, None]), w)
        d = state_distance(cols[:, col], pts[:, row])
        starts = np.searchsorted(row, np.arange(n))
        best = np.minimum.reduceat(d, starts)
        return np.minimum.reduceat(np.where(d == best[row], col, w), starts), best

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

    def _price(self, parents: list, ends: np.ndarray):
        """try_insert's state costs and costs of the end states ends[i] (rows x, y, theta, v)
        from parents[i] as two arrays, bit for bit: math.exp (clearance_cost) and math.hypot
        run per row, as there, and state_cost and edge_cost over whole arrays."""
        t_prop = self.config.t_prop
        x, y, _, v = ends.T
        xy = list(zip(parents, x.tolist(), y.tolist()))
        clearance = 0.0
        if self.world.objects:
            row = self._pose_row
            clearance = np.array([clearance_cost(xe, ye, row(p.depth)[-1]) for p, xe, ye in xy])
        scw = state_cost(self.weights, v, self.grid.lookups(x, y), clearance)
        length = np.array([math.hypot(xe - p.state.x, ye - p.state.y) for p, xe, ye in xy])
        c0, g0 = _rows([(p.state_cost_w, p.cost) for p in parents], 2).T
        return scw, g0 + edge_cost(self.weights, length, c0, scw, t_prop)

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

    def propagate_checked(self, node: TreeNode, u: ControlInput):
        """Propagate a constant input from a node, validating every substate.

        Returns the end state or None if any substate is invalid at its own
        absolute timestamp.
        """
        cfg = self.config
        s = node.state
        for poses in self._pose_row(node.depth):
            s = step(s, u, cfg.t_step, self.params)
            if not _valid(s, self.grid, poses, cfg, self.params):
                return None
        return s

    def propagate_batch(self, nodes: list, a: np.ndarray, delta: np.ndarray):
        """propagate_checked for the inputs (a[i], delta[i]) from nodes[i], at once.

        Returns the indices of the candidates whose every substate is valid,
        in candidate order, and their end states as rows (x, y, theta, v) of
        a float array; each row is bit for bit what propagate_checked returns.
        """
        X, Y, TH, V = self.integrate(_rows([node.state for node in nodes], 4), a, delta)
        idx = self.valid_rows([node.depth for node in nodes], X, Y, TH).nonzero()[0]
        return idx, np.column_stack((X[:, -1], Y[:, -1], TH[:, -1], V[:, -1]))[idx]

    def integrate(self, starts: np.ndarray, a: np.ndarray, delta: np.ndarray):
        """vehicle.step's substates for the inputs (a[i], delta[i]) from the rows (x, y, theta, v)
        of starts, which may be a read-only broadcast, as arrays X, Y, TH and V.

        Column k holds the state after k substeps, bit for bit what vehicle.step gives:
        - V: step 1, clamp included, brings a start up to 1e-9 past v_bounds
          into range. The running sums of [v1, dv, dv, ...] (np.add.accumulate
          adds in order, as vehicle.step does) are monotone: once one crosses
          a bound, every later one does, so clipping gives the per-step clamps.
        - TH: wraps at each substep, by exact fmod steps to math.remainder's
          value. The wrap is the identity on (-pi, pi], so after step 1 the
          running sums of the increments are the headings if all stay in it;
          else a loop wraps substep by substep.
        - X, Y: running sums of tv*cos(th) and tv*sin(th) from x0 and y0; np.sin
          and np.cos give math's results, np.tan does not, so the tangent
          comes from math once per candidate.
        """
        p = self.params
        ts = self.config.t_step
        n_sub = self._n_sub
        x0, y0, th0, v0 = starts.T
        tan_d = np.array([math.tan(d) for d in delta.tolist()])
        dv = ts * a
        V = np.column_stack((v0, np.clip(v0 + dv, *p.v_bounds), np.repeat(dv[:, None], n_sub - 1, axis=1)))
        np.add.accumulate(V[:, 1:], axis=1, out=V[:, 1:])
        np.clip(V[:, 2:], *p.v_bounds, out=V[:, 2:])
        inc = ts * (V[:, :-1] / p.wheelbase) * tan_d[:, None]
        TH = np.column_stack((th0, normalize_angles(th0 + inc[:, 0]), inc[:, 1:]))
        np.add.accumulate(TH[:, 1:], axis=1, out=TH[:, 1:])
        if not ((TH[:, 2:] > -math.pi) & (TH[:, 2:] <= math.pi)).all():
            for k in range(1, n_sub):
                TH[:, k + 1] = normalize_angles(TH[:, k] + inc[:, k])
        tv = ts * V[:, :-1]
        X = np.add.accumulate(np.column_stack((x0, tv * np.cos(TH[:, :-1]))), axis=1)
        Y = np.add.accumulate(np.column_stack((y0, tv * np.sin(TH[:, :-1]))), axis=1)
        return X, Y, TH, V

    def valid_rows(self, depths: list, X: np.ndarray, Y: np.ndarray, TH: np.ndarray) -> np.ndarray:
        """Whether each row of integrate's substates, propagated from depths[i], is valid
        at every substep: one bool per row, propagate_checked's verdict.

        One (n, n_sub) pass checks the sampling bounds and the grid cells;
        first_bad[i] is row i's first failing substep, n_sub if none.
        One circle test over all objects, posed from each row's depth
        (_xyr), picks the substeps before first_bad that object_hit checks, in
        substep order up to the first hit: the calls propagate_checked makes.
        """
        cfg = self.config
        p = self.params
        n_sub = self._n_sub
        xs, ys = X[:, 1:], Y[:, 1:]
        (x_lo, x_hi), (y_lo, y_hi) = cfg.x_bounds, cfg.y_bounds
        ok = (xs >= x_lo) & (xs <= x_hi) & (ys >= y_lo) & (ys <= y_hi)
        ok &= self.grid.lookups(xs, ys) < self.grid.p_invalid
        first_bad = np.where(ok.all(axis=1), n_sub, ok.argmin(axis=1))
        if self.world.objects:
            self._pose_row(max(depths))
            at = self._xyr[depths]
            dx = at[..., 0] - xs[:, :, None]
            dy = at[..., 1] - ys[:, :, None]
            near = (dx * dx + dy * dy <= at[..., 2]).any(axis=2) & (np.arange(n_sub) < first_bad[:, None])
            # nonzero runs row by row, each in substep order
            for i, k in zip(*(ix.tolist() for ix in near.nonzero())):
                if k < first_bad[i]:
                    pose = float(xs[i, k]), float(ys[i, k]), float(TH[i, k + 1])
                    if object_hit(*pose, p.length, p.width, self._pose_rows[depths[i]][k]) is not None:
                        first_bad[i] = k
        return first_bad == n_sub

    def try_insert(
        self, parent: TreeNode, state: VehicleState, u: ControlInput, near=_LOOK_UP, priced=None
    ) -> Optional[TreeNode]:
        """Witness-gated insertion of a propagation's end state.

        near is the index of the state's nearest witness if that lies
        within d_prune, else None; by default it is looked up in the table.
        priced is the state's (state cost, cost, norm) if the caller has them
        (_price and norm_states give them bit for bit).
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
        else:
            scw, cost, norm = priced
        i = self._nearest_witness(norm) if near is _LOOK_UP else near
        if i is not None and cost >= self._table[_COST, i]:
            return None
        node = TreeNode(state, u, parent, cost, scw)
        if i is None:
            self._add_witness(node, norm)
        else:
            self._reps[i] = node
            self._table[_REP, i] = norm
            self._table[_COST, i] = cost
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
        committed in order. The snapshot selection takes each sample's
        nearest representative first, and the cheapest within d_near only
        where the nearest lies within d_near; both it and the witness lookup
        find the nearest through _nearest, which on a large table ranks only
        the columns whose xy distance alone does not rule them out. A commit
        writes one table column. Pick j is stale once a commit replaced the
        node it picked, or placed a representative within reach[j] of its
        sample: within d_near it may be cheaper, and when nothing was within
        d_near, one as near as the pick may be the nearest. A stale pick is
        redone on the current tree. Witnesses never move and appended ones
        come after the snapshot's, so an endpoint's nearest witness is the
        snapshot's (argmin takes the first minimum) unless one the batch
        appended is strictly nearer: then try_insert looks it up in the table.

        Every endpoint is priced up front (_price). A witness's cost only falls
        (a replacement is strictly cheaper), so an endpoint that its snapshot
        witness dominates stays dominated unless an appended witness is
        strictly nearer; only the others (live) get stale-tracking rows and
        distances to the endpoints at once. A dominated endpoint's witness,
        and so any nearer one, lies within d_prune: its lookup never appends.
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
        pick = pick.tolist()
        nodes = [reps[i] for i in pick]

        idx, ends = self.propagate_batch(nodes, *inputs.T)
        scw, cost = self._price([nodes[j] for j in idx.tolist()], ends)
        ends_norm = norm_states(ends, cfg, params)
        wit, wit_d = self._nearest(table[_WIT], ends_norm)
        # the endpoints that their snapshot witness does not dominate
        live = ((wit_d > cfg.d_prune) | (cost < table[_COST, wit])).nonzero()[0]
        # row r: the samples that endpoint live[r], made a representative,
        # would make stale, and its distance to every endpoint as a witness
        hits = self._stale_by(ends_norm[:, live, None], samples[:, None, :], reach)
        to_ends = state_distance(ends_norm[:, live, None], ends_norm[:, None, :])

        row_of = dict(zip(idx.tolist(), range(len(idx))))
        live_row = dict(zip(live.tolist(), range(len(live))))
        ends = ends.tolist()
        scw = scw.tolist()
        cost = cost.tolist()
        wit = wit.tolist()
        wit_d = wit_d.tolist()
        stale = np.zeros(k, dtype=bool)
        # each endpoint's distance to the nearest witness the batch appended
        added = np.full(len(idx), math.inf)
        base = self.iterations_used
        for j in range(k):
            self.iterations_used = base + j + 1
            node = nodes[j]
            if stale[j] or reps[pick[j]] is not node:
                node = self.select(VehicleState(*states[j].tolist()))
                u = ControlInput(*inputs[j].tolist())
                end = self.propagate_checked(node, u)
                if end is None:
                    continue
                n_wit = len(reps)
                new = self.try_insert(node, end, u)
                if new is None:
                    continue
                norm = norm_state(new.state, cfg, params)
                stale |= self._stale_by(norm, samples, reach)
                if len(reps) > n_wit:
                    np.minimum(added, state_distance(norm, ends_norm), out=added)
                continue
            e = row_of.get(j)
            if e is None:
                continue
            moved = added[e] < wit_d[e]
            r = live_row.get(e)
            if r is None and not moved:
                continue
            near = _LOOK_UP if moved else (wit[e] if wit_d[e] <= cfg.d_prune else None)
            n_wit = len(reps)
            u = ControlInput(*inputs[j].tolist())
            if self.try_insert(node, VehicleState(*ends[e]), u, near, (scw[e], cost[e], ends_norm[:, e])) is None:
                continue
            stale |= self._stale_by(ends_norm[:, e], samples, reach) if r is None else hits[r]
            if len(reps) > n_wit:
                np.minimum(added, to_ends[r], out=added)

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
