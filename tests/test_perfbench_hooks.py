"""The benchmark's hooks still find their targets.

perfbench/tracing.py wraps urbansst functions and methods by name, and
perfbench/run.py times each query by replacing urbansst.sim.plan and
urbansst.sim.plan_dki. A refactor that renames a target, or that makes the
simulator call the planners other than through those module globals,
silently zeroes a per-layer metric or leaves every query untimed. These
tests only import perfbench modules; they write nothing there.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import urbansst.sim as sim

from conftest import SCENARIO_DIR

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_tracer_hook_is_absent(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = _import_perfbench("tracing")
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == []


def test_queries_go_through_sim_planners(monkeypatch):
    assert callable(sim.plan) and callable(sim.plan_dki)
    calls = []
    for name in ("plan", "plan_dki"):
        original = getattr(sim, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(sim, name, counted)
    sc = sim.load_scenario(SCENARIO_DIR / "scenario_i_straight_road.json")
    sc = replace(sc, duration=2.0 / sc.replan_rate)
    for mode in ("base", "dki"):
        sim.run_closed_loop(sc, mode, 0, budget=("iters", 50))
    assert calls == ["plan", "plan", "plan_dki", "plan_dki"]
