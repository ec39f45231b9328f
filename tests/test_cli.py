import json
from dataclasses import replace

import pytest

from urbansst.cli import _parse_budget, _parse_seeds, main
from urbansst.sim import ScenarioError, load_scenario, run_closed_loop

from conftest import SCENARIO_DIR

STRAIGHT = str(SCENARIO_DIR / "scenario_i_straight_road.json")
OVERTAKE = str(SCENARIO_DIR / "scenario_ii_static_overtake.json")


@pytest.fixture()
def blocked_scenario(tmp_path):
    """Straight road with a parked car close enough that braking cannot avoid it."""
    data = json.loads((SCENARIO_DIR / "scenario_i_straight_road.json").read_text())
    data["objects"] = [
        {"id": "wall", "type": "vehicle", "poses": [[0.0, 6.0, 0.0, 0.0]],
         "footprint": {"length": 1.5, "width": 40.0}},
    ]
    path = tmp_path / "blocked.json"
    path.write_text(json.dumps(data))
    return str(path)


def strict_json(path):
    """The JSON document in path; NaN and Infinity, which strict parsers reject, raise."""
    def reject(constant):
        raise ValueError(f"{path.name}: {constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


class TestArgHelpers:
    def test_parse_budget(self):
        assert _parse_budget(None) is None
        assert _parse_budget("iters:500") == ("iters", 500)
        assert _parse_budget("time:0.25") == ("time", 0.25)
        with pytest.raises(ScenarioError):
            _parse_budget("steps:5")

    def test_parse_seeds(self):
        assert _parse_seeds("0") == [0]
        assert _parse_seeds("0,3,5") == [0, 3, 5]
        assert _parse_seeds("2-5") == [2, 3, 4, 5]
        assert _parse_seeds("0-2,7") == [0, 1, 2, 7]
        assert _parse_seeds("4-4") == [4]
        for spec in ("3-1", "0,3-1", "1-", "a", "-1", "0,,1", "2--1", ""):
            with pytest.raises(ScenarioError, match="--seeds"):
                _parse_seeds(spec)

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--budget", "time:inf"],
            ["plan", "--budget", "time:nan"],
            ["plan", "--budget", "time:-1"],
            ["plan", "--budget", "time:0"],
            ["plan", "--budget", "time:"],
            ["plan", "--budget", "iters:0"],
            ["plan", "--budget", "iters:-5"],
            ["plan", "--budget", "iters:abc"],
            ["plan", "--budget", "iters:1.5"],
            ["plan", "--seed", "-1"],
            ["simulate", "--seed", "-1"],
            ["simulate", "--budget", "time:inf"],
            ["benchmark", "--seeds", "3-1"],
            ["benchmark", "--seeds", "1-"],
            ["benchmark", "--seeds", "a"],
            ["benchmark", "--budget", "iters:0"],
        ],
        ids=" ".join,
    )
    def test_bad_flag_exit_one(self, tmp_path, capsys, argv):
        command, flag, value = argv
        rc = main([command, "--scenario", OVERTAKE, f"{flag}={value}", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["plan", "--scenario", OVERTAKE, "--budget", "-iters:5"], "--budget"),
            (["benchmark", "--scenario", OVERTAKE, "--seeds", "-0,3"], "--seeds"),
            (["plan"], "--scenario"),
            (["plan", "--scenario", OVERTAKE, "--seed", "x"], "--seed"),
            (["replay", "--scenario", OVERTAKE], "replay"),
        ],
        ids=["budget-dash", "seeds-dash", "no-scenario", "seed-not-int", "unknown-command"],
    )
    def test_usage_error_exit_one(self, tmp_path, capsys, argv, message):
        # exit code 2 means "query unsolved", not argparse's usage error
        rc = main(argv + ["--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--help"])
        assert exc.value.code == 0
        assert "--scenario" in capsys.readouterr().out


class TestPlan:
    def test_solved_exit_zero(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "plan", "--scenario", STRAIGHT, "--mode", "dki",
            "--budget", "iters:2000", "--out", str(out),
        ])
        assert rc == 0
        stats = json.loads((out / "tree_stats.json").read_text())
        assert stats["solved"] is True
        assert stats["iterations"] == 2000
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert lines[0] == "t,x,y,theta,v,a,delta"
        times = [float(l.split(",")[0]) for l in lines[1:]]
        assert times == sorted(times) and times[0] == 0.0

    def test_unsolved_exit_two(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "plan", "--scenario", STRAIGHT, "--mode", "base",
            "--budget", "iters:1", "--out", str(out),
        ])
        assert rc == 2
        stats = json.loads((out / "tree_stats.json").read_text())
        assert stats["solved"] is False
        assert not (out / "trajectory.csv").exists()

    def test_missing_scenario_exit_one(self, tmp_path, capsys):
        rc = main(["plan", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_goal_past_route_end_exit_one(self, tmp_path, capsys):
        rc = main([
            "plan", "--scenario", STRAIGHT,
            "--set", "ego.state.x=125.0",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert "route" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, field",
        [
            ("objects=[[1,2]]", "objects[0]"),
            ("objects.0=5", "objects[0]"),
            ("ego.state=[1]", "ego.state"),
            ('planner.iteration_budget="abc"', "planner.iteration_budget"),
            ("objects.3.id=x", "objects.3.id"),
            ("objects=5", "objects:"),
            ("road.lanes=7", "road.lanes:"),
            ('ego.state.x="abc"', "ego.state.x"),
            ("dki.n_candidates=2.5", "dki.n_candidates"),
            ("road.lanes.0.width=NaN", "road.lanes[0].width"),
            ("sim.sampling_margin=-1", "sim.sampling_margin"),
            ("objects.0.poses.0.1=NaN", "objects[0].poses[0]"),
            ("road.lanes.0.centerline.0.0=NaN", "road.lanes[0].centerline[0]"),
            ("ego.params.v_bounds=5", "ego.params.v_bounds"),
            ('ego.params.a_bounds=["a",1]', "ego.params.a_bounds"),
            ("ego.params.v_bounds=[0,NaN]", "ego.params.v_bounds"),
            ("ego.params.v_bounds=[5,5]", "ego.params"),
            ("ego.params.length=-1", "ego.params"),
            ("ego.params.width=0", "ego.params"),
            ("planner.d_prunee=0.1", "planner.d_prunee"),
            ("dki.n_candidatez=3", "dki.n_candidatez"),
            ("bogus.x=1", "bogus"),
            ("planner.rng_seed=3", "planner.rng_seed"),
            ("planner.x_bounds=[0,50]", "planner.x_bounds"),
            ("goal.lateral_band=-1", "goal.lateral_band"),
            ("goal.distance=-5", "goal.distance"),
            ("goal.threshold=0", "goal.threshold"),
            ("grid.resolution=0", "grid.resolution"),
            # 1e15 cells: the grid would not fit in memory
            ("grid.resolution=1e-6", "grid.resolution"),
            # a replan period of 1e-12 s executes no state
            ("sim.replan_rate=1e12", "sim.replan_rate"),
            ("grid.p_invalid=200", "grid.p_invalid"),
            ("road.route=5", "road.route"),
            ("road.route=[5]", "road.route[0]"),
            ('objects.0.type="bike"', "objects[0].type"),
            ("road.lanes.0.id=7", "road.lanes[0].id"),
            ('road.lanes.0.successors="text"', "road.lanes[0].successors"),
            ("road.lanes.0.successors=[1]", "road.lanes[0].successors[0]"),
            ("objects.0.id=7", "objects[0].id"),
            ("name=[]", "error: name:"),
            ("ego.params.a_bounds=[0,0]", "ego.params.a_bounds"),
            ("ego.params.delta_bounds=[2,3]", "ego.params.delta_bounds"),
            ("objects.0.type=[1]", "objects[0].type"),
            ("planner.iteration_budget=-5", "planner: iteration_budget"),
            ("planner.iteration_budget=0", "planner: a zero budget"),
            ("planner.query_time=0", "planner: a zero budget"),
            ("planner.query_time=-1", "planner: query_time"),
            ("planner.query_time=Infinity", "planner.query_time"),
            ("planner.t_step=1e-300", "planner"),
            ("road.lanes.0.width=null", "road.lanes[0].width"),
            ("objects.0.poses.0=[1,2,3]", "objects[0].poses[0]"),
            ("objects.0.footprint.length=true", "objects[0].footprint.length"),
            ("road.lanes.0.centerline=5", "road.lanes[0].centerline"),
            ("objects.0.field=[]", "objects[0].field"),
            ("ego=3", "ego"),
        ],
    )
    def test_malformed_override_exit_one(self, tmp_path, capsys, override, field):
        rc = main(["plan", "--scenario", OVERTAKE, "--set", override, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("mode", ["base", "dki"])
    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("scenario_*.json")), ids=lambda p: p.stem)
    def test_matches_first_closed_loop_tick(self, tmp_path, path, mode):
        # one query setup: a single query is the first tick of a closed-loop run
        out = tmp_path / "out"
        argv = ["plan", "--scenario", str(path), "--mode", mode, "--seed", "3", "--budget", "iters:600"]
        rc = main(argv + ["--out", str(out)])
        sc = load_scenario(path)
        log = run_closed_loop(replace(sc, duration=1.0 / sc.replan_rate), mode, 3, budget=("iters", 600))
        tick = log.ticks[0]
        stats = json.loads((out / "tree_stats.json").read_text())
        assert rc == (0 if tick.solved else 2)
        assert (stats["solved"], stats["iterations"], stats["n_nodes"]) == (tick.solved, tick.iterations, tick.n_nodes)
        if tick.solved:
            assert stats["cost"] == tick.cost
            rows = (out / "trajectory.csv").read_text().split("\n")[1:-1]
            want = [
                [s.t, s.state.x, s.state.y, s.state.theta, s.state.v]
                + ([s.input.a, s.input.delta] if s.input else [None, None])
                for s in tick.planned.samples
            ]
            assert [[float(v) if v else None for v in row.split(",")] for row in rows] == want

    @pytest.mark.parametrize(
        "override", ["ego.params.length=1e300", "ego.params.width=1e200", "objects.0.footprint.length=1e300"]
    )
    @pytest.mark.filterwarnings("error")
    def test_huge_footprint_exits_with_a_code(self, tmp_path, override):
        # the squared reach of the two footprints' circles overflows to inf
        argv = ["plan", "--scenario", OVERTAKE, "--budget", "iters:200", "--set", override]
        assert main(argv + ["--out", str(tmp_path / "o")]) in (0, 1, 2)

    def test_set_override_applies(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "plan", "--scenario", STRAIGHT, "--mode", "base",
            "--set", "planner.iteration_budget=50",
            "--out", str(out),
        ])
        stats = json.loads((out / "tree_stats.json").read_text())
        assert stats["iterations"] == 50
        assert rc in (0, 2)


class TestSimulate:
    def test_clean_run_exit_zero(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "simulate", "--scenario", STRAIGHT, "--mode", "dki", "--seed", "0",
            "--budget", "iters:300", "--out", str(out),
        ])
        assert rc == 0
        assert (out / "simlog.json").exists()
        assert (out / "metrics.json").exists()
        csv = (out / "simlog.csv").read_text()
        assert csv.startswith("t,x,y,theta,v,a_cmd,delta_cmd,solved,cost,fallback\n")

    def test_collision_exit_three(self, tmp_path, blocked_scenario):
        out = tmp_path / "out"
        rc = main([
            "simulate", "--scenario", blocked_scenario, "--mode", "base",
            "--budget", "iters:100", "--out", str(out),
        ])
        assert rc == 3
        log = json.loads((out / "simlog.json").read_text())
        assert log["termination"] == "collision"
        assert log["collisions"]

    def test_no_planned_tick_writes_strict_json(self, tmp_path):
        # one iteration solves no tick, so the means over planned ticks are NaN
        out = tmp_path / "out"
        rc = main([
            "simulate", "--scenario", STRAIGHT, "--mode", "base", "--budget", "iters:1",
            "--set", "sim.duration=1.0", "--out", str(out),
        ])
        assert rc == 0
        assert strict_json(out / "metrics.json")["mean_abs_acceleration"] is None
        strict_json(out / "simlog.json")

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main([
                "simulate", "--scenario", STRAIGHT, "--mode", "dki", "--seed", "5",
                "--budget", "iters:300", "--out", str(out),
            ])
            assert rc == 0
            outs.append((out / "simlog.csv").read_bytes())
        assert outs[0] == outs[1]


class TestBenchmark:
    def test_summary_rows(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "benchmark", "--scenario", STRAIGHT, "--modes", "base,dki",
            "--seeds", "0-1", "--budget", "iters:300", "--out", str(out),
        ])
        assert rc == 0
        cells = json.loads((out / "cells.json").read_text())
        assert len(cells) == 4  # 1 scenario x 2 modes x 2 seeds
        assert all(c["error"] is None for c in cells)
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert lines[0] == "scenario,metric,base,dki,gain_pct"
        metrics = [l.split(",")[1] for l in lines[1:]]
        assert metrics == [
            "mean_abs_acceleration", "mean_speed_deviation",
            "mean_lane_deviation", "min_target_distance",
        ]

    def test_no_planned_tick_writes_strict_json(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "benchmark", "--scenario", STRAIGHT, "--modes", "base", "--budget", "iters:1",
            "--set", "sim.duration=1.0", "--out", str(out),
        ])
        assert rc == 0
        assert strict_json(out / "cells.json")[0]["metrics"]["mean_abs_acceleration"] is None

    def test_failing_cell_exit_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "benchmark", "--scenario", str(tmp_path / "missing.json"),
            "--seeds", "0", "--out", str(out),
        ])
        assert rc == 1
        assert "cell failed" in capsys.readouterr().err
        cells = json.loads((out / "cells.json").read_text())
        assert cells[0]["error"] is not None
