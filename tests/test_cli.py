import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import urbansst
from urbansst import cli
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


def test_import_loads_no_scipy():
    # the package needs only numpy; scipy alone would double start-up time and memory
    src = str(Path(urbansst.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, urbansst.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


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
        assert len(_parse_seeds(f"0-{cli._MAX_SEEDS - 1}")) == cli._MAX_SEEDS
        # too many seeds raise before any list of them is built
        too_many = (f"0-{cli._MAX_SEEDS}", f"0-{cli._MAX_SEEDS // 2},1-{cli._MAX_SEEDS // 2}", f"0-{10**30}")
        # a repeated seed would run its cells twice and count them twice
        repeated = ("0,0", "0,0-1", "1-3,2")
        for spec in ("3-1", "0,3-1", "1-", "a", "-1", "0,,1", "2--1", "", *too_many, *repeated):
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
            # a billion seeds would not fit in memory
            ["benchmark", "--seeds", "0-1000000000"],
            ["benchmark", "--budget", "iters:0"],
            ["benchmark", "--jobs", "0"],
            ["benchmark", "--jobs", "-2"],
            ["benchmark", "--modes", "dkii"],
            ["benchmark", "--modes", "base,"],
            # a repeated cell would run and count twice
            ["benchmark", "--seeds", "0,0-1"],
            ["benchmark", "--modes", "base,base"],
            ["benchmark", "--scenario", OVERTAKE],
            ["benchmark", "--scenario", str(SCENARIO_DIR / ".." / SCENARIO_DIR.name / Path(OVERTAKE).name)],
        ],
        ids=lambda argv: " ".join(argv).replace(str(SCENARIO_DIR), SCENARIO_DIR.name),
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
        single = ("--scenario", "--mode", "--seed")
        for command, flags in (("plan", single), ("simulate", single), ("benchmark", ("--scenario", "--seeds"))):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            for flag in ("--budget", "--out", "--set", *flags):
                assert flag in out, (command, flag)


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

    def test_unsolved_rerun_removes_old_plan(self, tmp_path):
        # the plan of a solved run must not sit next to the stats of an unsolved one
        argv = ["plan", "--scenario", STRAIGHT, "--mode", "base", "--out", str(tmp_path / "out")]
        assert main(argv + ["--budget", "iters:2000"]) == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()
        assert main(argv + ["--budget", "iters:1"]) == 2
        assert json.loads((tmp_path / "out" / "tree_stats.json").read_text())["solved"] is False
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_failed_rerun_removes_outputs(self, tmp_path):
        # a run that fails after loading must not leave an earlier run's files
        out = tmp_path / "out"
        argv = ["plan", "--scenario", STRAIGHT, "--budget", "iters:50", "--out", str(out)]
        assert main(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(cli._OUTPUTS["plan"])
        assert main(argv + ["--set", "goal.distance=1000"]) == 1
        assert list(out.iterdir()) == []

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

    def test_start_far_off_the_route_is_named(self, tmp_path, capsys):
        # the start projects onto the route's end, so the goal lies past it: the
        # message names the start, its arc length and its distance from the route
        argv = ["plan", "--scenario", STRAIGHT, "--set", "ego.state.x=1e6", "--budget", "iters:300"]
        rc = main(argv + ["--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (
            "error: start (1e+06, 0) is 999870 m off the route, at arc length 140 m: "
            "route ends at 140 m but goal center is at 170 m\n"
        )

    def test_goal_far_past_route_end_has_a_short_message(self, tmp_path, capsys):
        # both arc lengths in a bounded width: {:.1f} printed 1e300 as 301 digits
        rc = main(["plan", "--scenario", STRAIGHT, "--set", "goal.distance=1e300", "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and len(err[0]) < 120, err
        assert "route ends at 140 m" in err[0] and "goal center is at 1e+300 m" in err[0]

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
            ("dki.n_candidates=2.5", "dki: unknown key"),
            ("road.lanes.0.width=NaN", "road.lanes[0].width"),
            ("sim.sampling_margin=-1", "sim.sampling_margin: unknown key"),
            ("objects.0.poses.0.1=NaN", "objects[0].poses[0]"),
            ("road.lanes.0.centerline.0.0=NaN", "road.lanes[0].centerline[0]"),
            ("ego.params.v_bounds=5", "ego.params.v_bounds"),
            ('ego.params.a_bounds=["a",1]', "ego.params.a_bounds"),
            ("ego.params.v_bounds=[0,NaN]", "ego.params.v_bounds"),
            ("ego.params.v_bounds=[5,5]", "ego.params"),
            ("ego.params.length=-1", "ego.params"),
            ("ego.params.width=0", "ego.params"),
            ("planner.d_prunee=0.1", "planner.d_prunee"),
            ("weights.v_desird=3", "weights.v_desird"),
            ("bogus.x=1", "bogus"),
            ("planner.rng_seed=3", "planner.rng_seed"),
            ("planner.x_bounds=[0,50]", "planner.x_bounds"),
            ("goal.lateral_band=-1", "goal: lateral_band"),
            ("goal.distance=-5", "goal: distance"),
            ("goal.threshold=0", "goal: threshold"),
            ("goal.distanse=3", "goal.distanse"),
            ("grid.resolution=0", "grid: resolution"),
            ("grid.p_maxx=1", "grid.p_maxx"),
            # 1e15 cells: the grid would not fit in memory
            ("grid.resolution=1e-6", "grid.resolution"),
            # a replan period of 1e-12 s executes no state
            ("sim.replan_rate=1e12", "sim.replan_rate"),
            ("grid.p_invalid=200", "grid: p_invalid"),
            # a zero p_max makes the grid 0 * inf where no lane reaches
            ('grid={"p_max":0,"p_invalid":0}', "grid: p_max must be positive"),
            ('grid={"p_max":-100,"p_invalid":-101}', "grid: p_max must be positive"),
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
            # in place of the iteration budget: with it, both budgets would be set
            ('planner={"query_time":0}', "planner: a zero budget"),
            ("planner.query_time=-1", "planner: query_time"),
            ("planner.query_time=Infinity", "planner.query_time"),
            # scenario II sets an iteration budget
            ("planner.query_time=0.2", "planner: "),
            ("planner.t_step=1e-300", "planner"),
            ("road.lanes.0.width=null", "road.lanes[0].width"),
            ("objects.0.poses.0=[1,2,3]", "objects[0].poses[0]"),
            ("objects.0.footprint.length=true", "objects[0].footprint.length"),
            ("road.lanes.0.centerline=5", "road.lanes[0].centerline"),
            ("objects.0.field=[]", "objects[0].field"),
            ("ego=3", "ego"),
            # the seeding parameters are constants: a dki section is not read
            ("dki={}", "dki: unknown key"),
            # values whose products overflow, or divide to NaN, inside the planner
            ("ego.state.x=1e300", "ego.state.x"),
            ("ego.state.y=-1000001", "ego.state.y"),
            ("planner.metric_xy_scale=1e-300", "planner: metric_xy_scale"),
            ("goal.threshold=1e-300", "goal: threshold"),
            ("objects.0.poses.0.1=1e300", "objects[0].poses[0]"),
            ("road.lanes.0.centerline.1.1=-1e300", "road.lanes[0].centerline[1]"),
            # the clearance field divides by its spreads
            ("objects.0.field.sigma_y=5e-324", "objects[0].field: sigma_y"),
            ("objects.0.field.sigma_x=1e-300", "objects[0].field: sigma_x"),
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

    def test_rerun_without_ticks_removes_old_metrics(self, tmp_path):
        out = tmp_path / "out"
        argv = ["simulate", "--scenario", STRAIGHT, "--budget", "iters:300", "--set", "sim.duration=1.0"]
        assert main(argv + ["--out", str(out)]) == 0
        assert (out / "metrics.json").exists()
        # a goal past the route's end ends the run before its first tick
        assert main(argv + ["--set", "goal.distance=1000", "--out", str(out)]) == 0
        assert json.loads((out / "simlog.json").read_text())["ticks"] == []
        assert not (out / "metrics.json").exists()

    def test_failed_rerun_removes_outputs(self, tmp_path):
        out = tmp_path / "out"
        argv = ["simulate", "--scenario", STRAIGHT, "--budget", "iters:300", "--set", "sim.duration=1.0", "--out", str(out)]
        assert main(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(cli._OUTPUTS["simulate"])
        # a grid of 1 mm cells is over the size limit
        assert main(argv + ["--set", "grid.resolution=0.001"]) == 1
        assert list(out.iterdir()) == []

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

    @pytest.mark.parametrize(
        "jobs, cpus, workers", [("100000", 4, 2), ("2", 4, 2), ("3", 1, None), ("3", None, None), ("1", 4, None)],
    )
    def test_workers_capped_by_cells_and_cpus(self, tmp_path, monkeypatch, jobs, cpus, workers):
        pools = []

        class InlinePool:
            """Records its worker count and runs the cells in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        out = tmp_path / "out"
        rc = main([
            "benchmark", "--scenario", STRAIGHT, "--modes", "dki", "--seeds", "0-1", "--jobs", jobs,
            "--budget", "iters:50", "--set", "sim.duration=1.0", "--out", str(out),
        ])
        assert rc == 0
        assert pools == ([] if workers is None else [workers])
        assert [c["seed"] for c in strict_json(out / "cells.json")] == [0, 1]

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
