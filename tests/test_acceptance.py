"""End-to-end acceptance checks for the planner and closed-loop stack.

Each criterion prints a single PASS/FAIL line so a log scrape gives the
verdict without parsing pytest output.
"""

import math
import time

import numpy as np
import pytest

from urbansst.cli import main as cli_main
from urbansst.dki import DkiConfig, plan_dki
from urbansst.objects import ObjectPrediction, WorldModel, clearance_cost_xy
from urbansst.road import build_penalty_grid, compute_goal_region
from urbansst.sim import (
    build_scenario_grid,
    compute_metrics,
    load_scenario,
    run_closed_loop,
)
from urbansst.sst import PlannerTree, norm_state, plan, sample_state
from urbansst.vehicle import ControlInput, VehicleState, propagate

from conftest import SCENARIO_DIR, is_state_valid, make_straight_net, wrap_dist

SEEDS = list(range(10))


def _report(criterion, ok, detail):
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _exec_states(log):
    return [ts for tick in log.ticks for ts in tick.exec_states]


def _mode_means(sc, mode, seeds):
    acc, spd, lane = [], [], []
    for seed in seeds:
        log = run_closed_loop(sc, mode, seed)
        m = compute_metrics(log, sc)
        acc.append(m.mean_abs_acceleration)
        spd.append(m.mean_speed_deviation)
        lane.append(m.mean_lane_deviation)
    return float(np.mean(acc)), float(np.mean(spd)), float(np.mean(lane))


class TestAcceptance:
    def test_criterion_1_straight_road_metric_matrix(self):
        sc = load_scenario(SCENARIO_DIR / "scenario_i_straight_road.json")
        b_acc, b_spd, b_lane = _mode_means(sc, "base", SEEDS)
        d_acc, d_spd, d_lane = _mode_means(sc, "dki", SEEDS)
        ok = (
            d_spd <= 0.3
            and d_spd <= 0.25 * b_spd
            and d_lane <= 0.15
            and d_lane <= 0.5 * b_lane
            and d_acc <= 0.5 * b_acc
        )
        _report(
            1, ok,
            f"speed dev {b_spd:.3f}->{d_spd:.3f}, lane dev {b_lane:.3f}->{d_lane:.3f}, "
            f"|a| {b_acc:.3f}->{d_acc:.3f} (10 seeds, both modes)",
        )

    def test_criterion_2_static_overtake_safety(self):
        sc = load_scenario(SCENARIO_DIR / "scenario_ii_static_overtake.json")
        collisions = 0
        min_dists = []
        for seed in SEEDS:
            for mode in ("base", "dki"):
                log = run_closed_loop(sc, mode, seed)
                m = compute_metrics(log, sc)
                collisions += m.collision_count
                if mode == "dki":
                    min_dists.append(m.min_target_distance)
        ok = collisions == 0 and all(d >= 3.0 for d in min_dists)
        _report(
            2, ok,
            f"{collisions} collisions over 10 seeds x 2 modes, "
            f"dki min distance {min(min_dists):.2f} m (threshold 3.0)",
        )

    def test_criterion_3_roundabout_completion(self):
        sc = load_scenario(SCENARIO_DIR / "scenario_iii_roundabout.json")
        grid = build_scenario_grid(sc)
        successes = 0
        for seed in SEEDS:
            log = run_closed_loop(sc, "dki", seed)
            states = [ts.state for ts in _exec_states(log)]
            invalid = sum(1 for s in states if grid.lookup(s.x, s.y) >= sc.p_invalid)
            reached_exit = bool(states) and states[-1].x < -5.0 and states[-1].y < -5.0
            if (
                log.termination == "route_exhausted"
                and not log.collisions
                and invalid == 0
                and reached_exit
            ):
                successes += 1
        ok = successes >= 8
        _report(3, ok, f"{successes}/10 seeds completed the route to the third exit cleanly")

    def test_criterion_4_vru_reactions(self):
        # preventive braking: speed dips by >= 2 m/s and recovers to >= 4.5
        sc_v = load_scenario(SCENARIO_DIR / "scenario_v_vru_braking.json")
        brake_ok = True
        brake_detail = []
        for seed in (0, 1, 2):
            log = run_closed_loop(sc_v, "dki", seed)
            speeds = [ts.state.v for ts in _exec_states(log)]
            i_min = int(np.argmin(speeds))
            v_min = speeds[i_min]
            v_rec = max(speeds[i_min:])
            clean = not log.collisions
            brake_ok &= clean and v_min <= 3.0 and v_rec >= 4.5
            brake_detail.append(f"seed{seed} vmin={v_min:.2f} rec={v_rec:.2f}")
        # evasive steering: lane change before the longitudinal gap to the
        # crossing pedestrian (at x = 55) falls below 10 m
        sc_iv = load_scenario(SCENARIO_DIR / "scenario_iv_vru_steering.json")
        lane_boundary = 3.75 / 2
        ped_x = 55.0
        steer_ok = True
        steer_detail = []
        for seed in (0, 1, 4):
            log = run_closed_loop(sc_iv, "dki", seed)
            cross = next(
                (ts for ts in _exec_states(log) if ts.state.y > lane_boundary), None
            )
            gap = ped_x - cross.state.x if cross is not None else -math.inf
            steer_ok &= (not log.collisions) and cross is not None and gap >= 10.0
            steer_detail.append(f"seed{seed} gap={gap:.1f}")
        ok = brake_ok and steer_ok
        _report(
            4, ok,
            "braking [" + ", ".join(brake_detail) + "]; steering [" + ", ".join(steer_detail) + "]",
        )

    def test_criterion_5_property_suites(self):
        sc = load_scenario(SCENARIO_DIR / "scenario_i_straight_road.json")
        net = sc.road
        grid = build_scenario_grid(sc)
        world = sc.world
        params = sc.ego_params
        weights = sc.weights
        ego = sc.ego_state
        goal = compute_goal_region(net, ego, sc.goal_distance, sc.goal_threshold,
                                   lateral_band=sc.goal_lateral_band)
        bx0, by0, bx1, by1 = goal.bbox
        m = sc.sampling_margin
        cfg = sc.planner.with_bounds(
            (min(ego.x, bx0) - m, max(ego.x, bx1) + m),
            (min(ego.y, by0) - m, max(ego.y, by1) + m),
        )
        durations = {}

        def timed(name):
            durations[name] = time.perf_counter()
            return name

        def done(name):
            durations[name] = time.perf_counter() - durations[name]

        # 1. kinematic replay determinism
        timed("replay")
        s0 = VehicleState(1.0, 0.5, 0.2, 4.0)
        u = ControlInput(0.3, -0.1)
        assert propagate(s0, u, 0.4, 0.04, params) == propagate(s0, u, 0.4, 0.04, params)
        done("replay")

        # 2. penalty-grid brute-force oracle on 10^3 cells
        timed("grid_oracle")
        rng = np.random.default_rng(0)
        for _ in range(1000):
            row = rng.integers(0, grid.n_rows)
            col = rng.integers(0, grid.n_cols)
            cx = grid.origin.x + (col + 0.5) * grid.resolution
            cy = grid.origin.y + (row + 0.5) * grid.resolution
            if -10.0 <= cx <= 130.0:
                d = min(abs(cy), abs(cy - 3.5))
                want = 2.0 * sc.p_max * d / 3.75 if d < 3.75 / 2 else sc.p_max
                assert grid.cells[row, col] == pytest.approx(want, abs=1e-6)
        done("grid_oracle")

        # 3. witness sparsity after 10^4 iterations
        timed("witness")
        from dataclasses import replace
        tree = PlannerTree(ego, 0.0, goal, grid, world,
                           replace(cfg, iteration_budget=10_000), weights, params, np.random.default_rng(0))
        tree.run()
        norms = tree._table[:4, : len(tree._reps)].T
        dx = norms[:, None, 0] - norms[None, :, 0]
        dy = norms[:, None, 1] - norms[None, :, 1]
        dth = np.abs(norms[:, None, 2] - norms[None, :, 2])
        dth = np.minimum(dth, 1.0 - dth)
        dv = norms[:, None, 3] - norms[None, :, 3]
        dist = np.sqrt(dx * dx + dy * dy + dth * dth + dv * dv)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > cfg.d_prune
        done("witness")

        # 4. anytime monotonicity within one query
        timed("anytime")
        costs = [c for _, c in tree.cost_history]
        assert costs and all(c1 < c0 for c0, c1 in zip(costs, costs[1:]))
        done("anytime")

        # 5. validity closure of the returned trajectory
        timed("closure")
        traj = tree.best_trajectory
        assert traj is not None
        for a, b in zip(traj.samples, traj.samples[1:]):
            subs = propagate(a.state, b.input, cfg.t_prop, cfg.t_step, params)
            assert (subs[-1].x, subs[-1].y, subs[-1].v) == (b.state.x, b.state.y, b.state.v)
            for k, s in enumerate(subs, start=1):
                assert is_state_valid(s, a.t + k * cfg.t_step, grid, world, cfg, params)
        done("closure")

        # 6. select_node brute-force oracle on 10^3 queries
        timed("select")
        active = tree._reps
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x_rand = sample_state(cfg, rng, params)
            n = norm_state(x_rand, cfg, params)
            picked = tree.select(x_rand)
            dists = np.array([wrap_dist(norm_state(node.state, cfg, params), n) for node in active])
            in_range = dists <= cfg.d_near
            if in_range.any():
                best = min(node.cost for node, hit in zip(active, in_range) if hit)
                assert picked.cost == best
            else:
                assert wrap_dist(norm_state(picked.state, cfg, params), n) == pytest.approx(dists.min())
        done("select")

        # 7. clearance spot values
        timed("clearance")
        wm = WorldModel([ObjectPrediction("o", 0.6, 0.6, [(0.0, 10.0, 0.0, 0.0)])])
        assert clearance_cost_xy(10.0, 0.0, 0.0, wm) == pytest.approx(100.0)
        assert clearance_cost_xy(10.0 + math.sqrt(3.0), 0.0, 0.0, wm) == pytest.approx(
            100.0 * math.exp(-1.0)
        )
        done("clearance")

        # 8. paired-seed comparison, 20 runs
        timed("paired")
        wins = 0
        net20 = make_straight_net()
        for seed in range(20):
            cfg_s = replace(cfg, iteration_budget=2000)
            base = plan(ego, 0.0, goal, grid, world, cfg_s, weights, params, np.random.default_rng(seed))
            dki = plan_dki(ego, 0.0, goal, grid, world, net20, None,
                           cfg_s, DkiConfig(), weights, params, np.random.default_rng(seed))
            if dki.solved and (not base.solved or dki.cost <= base.cost + 1e-9):
                wins += 1
        assert wins >= 16
        done("paired")

        slowest = max(durations.values())
        ok = slowest < 60.0
        summary = ", ".join(f"{k} {v:.1f}s" for k, v in durations.items())
        _report(5, ok, f"8/8 property suites passed ({summary})")

    def test_criterion_6_simulate_determinism(self, tmp_path):
        argv = [
            "simulate",
            "--scenario", str(SCENARIO_DIR / "scenario_i_straight_road.json"),
            "--mode", "dki", "--seed", "0", "--budget", "iters:300",
        ]
        blobs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            rc = cli_main(argv + ["--out", str(out)])
            assert rc == 0
            blobs.append((out / "simlog.csv").read_bytes())
        ok = blobs[0] == blobs[1]
        _report(6, ok, f"two identical invocations, {len(blobs[0])} byte CSV, byte-identical={ok}")
