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
iteration that an earlier commit may have changed. Object poses at each
substep are memoized per propagation start time, as one row of one array
that the kernel gathers. The scalar path integrates with vehicle.step and
checks each substate with _valid, the one validity predicate. The kernel,
propagate_batch, gives its results bit for bit from one pass per quantity
over all candidates and substeps: speeds and positions as running sums, the
heading with its wrap, one validity pass over bounds and grid cells, then
object checks up to each candidate's first failing substep.

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
from .objects import PoseMemo, WorldModel, clearance_cost, object_hit
from .road import GoalRegion, PenaltyGrid
from .vehicle import (
    ControlInput, TimedState, Trajectory, VehicleParams, VehicleState, normalize_angle, step, substep_count,
)

_TWO_PI = 2.0 * math.pi

# Row blocks of PlannerTree's witness table.
_WIT = slice(0, 4)
_REP = slice(4, 8)
_COST = 8

# Main-loop iterations done as one batch, and the samples or endpoints per
# distance pass against the witness table (a pass holds _CHUNK x W floats).
_BATCH = 64
_CHUNK = 16

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
        (th + math.pi) / _TWO_PI,
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
    th = np.fmod(th, _TWO_PI)
    th[th > math.pi] -= _TWO_PI
    th[th <= -math.pi] += _TWO_PI
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
        -math.pi + _TWO_PI * uth,
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
    u *= (x_hi - x_lo, y_hi - y_lo, _TWO_PI, v_hi - v_lo)
    u += (x_lo, y_lo, -math.pi, v_lo)
    z *= (sigma_a, sigma_d)
    z += 0.0
    return u, z


def sample_inputs(config: PlannerConfig, rng: np.random.Generator, params: VehicleParams, n: int):
    """n sample_input calls at once: arrays (a, delta) of the same values.

    Rejected pairs are redrawn in rounds of exactly the number still missing,
    so no round draws past the n-th accepted pair and the generator ends in
    the state that n sample_input calls leave it in.
    """
    a_lo, a_hi = params.a_bounds
    d_lo, d_hi = params.delta_bounds
    scale = (config.sigma_a, config.sigma_delta)
    kept = []
    missing = n
    while missing:
        ad = 0.0 + np.multiply(scale, rng.standard_normal((missing, 2)))
        a = ad[:, 0]
        d = ad[:, 1]
        ok = (a_lo <= a) & (a <= a_hi) & (d_lo <= d) & (d <= d_hi)
        kept.append(ad[ok])
        missing -= int(np.count_nonzero(ok))
    ad = np.concatenate(kept)
    return ad[:, 0], ad[:, 1]


def _valid(s: VehicleState, grid: PenaltyGrid, poses, config: PlannerConfig, params: VehicleParams) -> bool:
    """The validity rule: s lies in the sampling bounds and the vehicle's
    speed range, on a grid cell below p_invalid, and overlaps no object
    posed as in poses (one PoseMemo entry)."""
    x, y, theta, v = s
    return (
        config.x_bounds[0] <= x <= config.x_bounds[1]
        and config.y_bounds[0] <= y <= config.y_bounds[1]
        and params.v_bounds[0] - 1e-9 <= v <= params.v_bounds[1] + 1e-9
        and grid.lookup(x, y) < grid.p_invalid
        and object_hit(x, y, theta, params.length, params.width, poses) is None
    )


class TreeNode:
    __slots__ = ("state", "t", "input", "parent", "cost", "state_cost_w")

    def __init__(self, state, t, u, parent, cost, state_cost_w) -> None:
        self.state = state
        self.t = t
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
        # Object poses by timestamp, and the substep poses of a propagation
        # as one row per start time: every node at one depth shares one row.
        self._poses = PoseMemo(world, params.length, params.width)
        self._step_rows: dict = {}
        self._step_poses: list = []
        self._xyr = np.empty((16, self._n_sub, len(world.objects), 3))

        # Column i: witness i's norm, its representative's norm and cost
        # (rows _WIT, _REP, _COST); self._reps[i] is the representative.
        self._table = np.empty((9, 1024))
        self._reps: list = []

        if not _valid(start, grid, self._poses.at(start_time), config, params):
            raise InvalidStartError("start state is invalid")
        scw = self._state_cost_w(start.x, start.y, start.v, start_time)
        self.root = TreeNode(start, start_time, None, None, 0.0, scw)
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

    def _state_cost_w(self, x: float, y: float, v: float, t: float) -> float:
        world = self.world
        clearance = clearance_cost(x, y, self._poses.at(t), world.fields) if world.objects else 0.0
        return state_cost(self.weights, v, self.grid.lookup(x, y), clearance)

    def _substep_row(self, t0: float) -> int:
        """Row of the object poses at each substep time t0 + k*t_step of a propagation from t0.

        _step_poses[row] holds them as n_sub PoseMemo entries, and
        _xyr[row] as an (n_sub, n_obj, 3) array of their (x, y, reach2) for
        the kernel; _xyr doubles its rows when full, as the witness table does.
        """
        row = self._step_rows.get(t0)
        if row is None:
            row = self._step_rows[t0] = len(self._step_poses)
            at = self._poses.at
            ts = self.config.t_step
            poses = [at(t0 + k * ts) for k in range(1, self._n_sub + 1)]
            self._step_poses.append(poses)
            if row == len(self._xyr):
                self._xyr = np.concatenate((self._xyr, np.empty_like(self._xyr)))
            # reshape, so that a world without objects fills (n_sub, 0, 3) too
            xyr = [[(q[0], q[1], q[4]) for q in entry] for entry in poses]
            self._xyr[row] = np.reshape(xyr, self._xyr.shape[1:])
        return row

    def propagate_checked(self, node: TreeNode, u: ControlInput):
        """Propagate a constant input from a node, validating every substate.

        Returns the end state or None if any substate is invalid at its own
        absolute timestamp.
        """
        cfg = self.config
        s = node.state
        for poses in self._step_poses[self._substep_row(node.t)]:
            s = step(s, u, cfg.t_step, self.params)
            if not _valid(s, self.grid, poses, cfg, self.params):
                return None
        return s

    def propagate_batch(self, nodes: list, a: np.ndarray, delta: np.ndarray):
        """propagate_checked for the inputs (a[i], delta[i]) from nodes[i], at once.

        Returns the indices of the candidates whose every substate is valid,
        in candidate order, and their end states as rows (x, y, theta, v) of
        a float array; each row is bit for bit what propagate_checked returns.
        Column k of V, TH, X and Y holds the state after k substeps:
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
        One (n, n_sub) pass checks the sampling bounds and the grid cells;
        first_bad[i] is candidate i's first failing substep, n_sub if none.
        One circle test over all objects, posed from each candidate's start
        time, picks the substeps before first_bad that object_hit checks, in
        substep order up to the first hit: the calls propagate_checked makes.
        """
        cfg = self.config
        p = self.params
        ts = cfg.t_step
        n_sub = self._n_sub
        x0, y0, th0, v0 = _rows([node.state for node in nodes], 4).T
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
        xs, ys = X[:, 1:], Y[:, 1:]
        (x_lo, x_hi), (y_lo, y_hi) = cfg.x_bounds, cfg.y_bounds
        ok = (xs >= x_lo) & (xs <= x_hi) & (ys >= y_lo) & (ys <= y_hi)
        ok &= self.grid.lookups(xs, ys) < self.grid.p_invalid
        first_bad = np.where(ok.all(axis=1), n_sub, ok.argmin(axis=1))
        if self.world.objects:
            rows = [self._substep_row(node.t) for node in nodes]
            at = self._xyr[rows]
            dx = at[..., 0] - xs[:, :, None]
            dy = at[..., 1] - ys[:, :, None]
            near = (dx * dx + dy * dy <= at[..., 2]).any(axis=2) & (np.arange(n_sub) < first_bad[:, None])
            # nonzero runs candidate by candidate, each in substep order
            for i, k in zip(*(ix.tolist() for ix in near.nonzero())):
                if k < first_bad[i]:
                    pose = float(xs[i, k]), float(ys[i, k]), float(TH[i, k + 1])
                    if object_hit(*pose, p.length, p.width, self._step_poses[rows[i]][k]) is not None:
                        first_bad[i] = k
        idx = (first_bad == n_sub).nonzero()[0]
        return idx, np.column_stack((X[:, -1], Y[:, -1], TH[:, -1], V[:, -1]))[idx]

    def try_insert(self, parent: TreeNode, state: VehicleState, u: ControlInput, near=_LOOK_UP) -> Optional[TreeNode]:
        """Witness-gated insertion of a propagation's end state.

        near is the index of the state's nearest witness if that lies
        within d_prune, else None; by default it is looked up in the table.
        """
        x, y, _, v = state
        x0, y0, _, _ = parent.state
        t_new = parent.t + self.config.t_prop
        scw = self._state_cost_w(x, y, v, t_new)
        cost = parent.cost + edge_cost(
            self.weights, x0, y0, parent.state_cost_w, x, y, scw, self.config.t_prop
        )
        norm = norm_state(state, self.config, self.params)
        i = self._nearest_witness(norm) if near is _LOOK_UP else near
        if i is not None and cost >= self._table[_COST, i]:
            return None
        node = TreeNode(state, t_new, u, parent, cost, scw)
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
        self.best_trajectory = _chain_trajectory(node)
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
        where the nearest lies within d_near. A commit writes one table
        column. Pick j is stale once a commit replaced the node it picked,
        or placed a representative within reach[j] of its sample: within
        d_near it may be cheaper, and when nothing was within d_near, one
        as near as the pick may be the nearest. A stale pick is redone on
        the current tree. Witnesses never move, so an endpoint's nearest
        witness is the snapshot's unless one appended in the batch is
        strictly nearer (argmin takes the first minimum).
        """
        cfg = self.config
        params = self.params
        reps = self._reps
        states, inputs = sample_batch(cfg, self.rng, params, k)
        samples = norm_states(states, cfg, params)

        table = self._table[:, : len(reps)]
        pick = np.empty(k, np.intp)
        reach = np.empty(k)
        for c in range(0, k, _CHUNK):
            d = state_distance(table[_REP, None], samples[:, c : c + _CHUNK, None])
            # the nearest, unless one lies within d_near: then the nearest
            # does, and the cheapest of those is the pick (rare on most trees)
            i = d.argmin(axis=1)
            d_i = d[np.arange(len(i)), i]
            for r in (d_i <= cfg.d_near).nonzero()[0].tolist():
                i[r] = np.where(d[r] <= cfg.d_near, table[_COST], math.inf).argmin()
            pick[c : c + _CHUNK] = i
            reach[c : c + _CHUNK] = d_i
        reach = np.maximum(reach, cfg.d_near)
        pick = pick.tolist()
        nodes = [reps[i] for i in pick]

        idx, ends = self.propagate_batch(nodes, *inputs.T)
        m = len(idx)
        ends_norm = norm_states(ends, cfg, params)
        wit = np.empty(m, np.intp)
        wit_d = np.empty(m)
        for c in range(0, m, _CHUNK):
            d = state_distance(table[_WIT, None], ends_norm[:, c : c + _CHUNK, None])
            i = d.argmin(axis=1)
            wit[c : c + _CHUNK] = i
            wit_d[c : c + _CHUNK] = d[np.arange(len(i)), i]
        # row e: the samples that endpoint e, made a representative, would
        # make stale, and its distance to every endpoint as a witness
        hits = state_distance(ends_norm[:, :, None], samples[:, None, :]) <= reach
        to_ends = state_distance(ends_norm[:, :, None], ends_norm[:, None, :])

        row_of = dict(zip(idx.tolist(), range(m)))
        ends = ends.tolist()
        wit = wit.tolist()
        wit_d = wit_d.tolist()
        stale = np.zeros(k, dtype=bool)
        # (column, distances to every endpoint) of each witness the batch appended
        added = []
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
                stale |= state_distance(norm, samples) <= reach
                if len(reps) > n_wit:
                    added.append((n_wit, state_distance(norm, ends_norm)))
                continue
            e = row_of.get(j)
            if e is None:
                continue
            i = wit[e]
            d_i = wit_d[e]
            for col, dist in added:
                if dist[e] < d_i:
                    i = col
                    d_i = dist[e]
            near = i if d_i <= cfg.d_prune else None
            u = ControlInput(*inputs[j].tolist())
            if self.try_insert(node, VehicleState(*ends[e]), u, near) is None:
                continue
            stale |= hits[e]
            if near is None:
                added.append((len(reps) - 1, to_ends[e]))

    def run(self) -> PlanResult:
        """Exhaust the remaining budget; seeding work done beforehand counts
        through iterations_used (iteration mode) or the clock (wall mode).

        The loop runs in batches of up to _BATCH iterations, and a wall-time
        budget checks its deadline once per batch, so a query can overrun it
        by up to one batch.
        """
        cfg = self.config
        if (cfg.iteration_budget is None) == (cfg.query_time is None):
            raise ValueError("exactly one of iteration_budget and query_time must be set")
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


def _chain_trajectory(node: TreeNode) -> Trajectory:
    samples = []
    while node is not None:
        samples.append(TimedState(node.state, node.t, node.input))
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
