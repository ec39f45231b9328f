"""Fuzz test of the scenario loader, planner and simulator behind the CLI.

Each scenario example takes one shipped scenario, applies one mutation at a
random JSON path (drop a key or element, retype a value, set NaN, negate a
number or empty a list), writes the result to a temporary directory and
plans a short query on it, or simulates one replan period. The extreme-value
test sets each numeric path of each shipped scenario to each of five extreme
values in turn, and plans and simulates every one. Each flag example
edits the valid `--seeds` and `--budget` strings of `urbansst benchmark` a
character or two at a time. Bad input must end in one of the CLI's exit
codes, never in an exception or a hang.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbansst import cli
from urbansst.cli import main

from conftest import SCENARIO_DIR

SCENARIOS = sorted(SCENARIO_DIR.glob("scenario_*.json"))


def _kind(value) -> str:
    """The JSON type of value; booleans are not numbers."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


# A value of each JSON type, for retyping.
_RETYPED = (None, True, "text", 7, 0.5, [], {})

# mutation -> the values it applies to
_APPLIES = {
    "drop": lambda v: True,
    "retype": lambda v: True,
    "nan": lambda v: True,
    "negate": lambda v: _kind(v) == "number",
    "empty": lambda v: isinstance(v, list),
}


def _paths(node, prefix=()):
    """The path (keys and indices) to every value below node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,), value
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """doc, changed in place by one mutation, and a description of it."""
    mutation = draw(st.sampled_from(sorted(_APPLIES)))
    targets = [(path, value) for path, value in _paths(doc) if _APPLIES[mutation](value)]
    path, value = draw(st.sampled_from(targets))
    new = None
    if mutation == "retype":
        new = draw(st.sampled_from([v for v in _RETYPED if _kind(v) != _kind(value)]))
    elif mutation == "nan":
        new = math.nan
    elif mutation == "negate":
        new = -value
    elif mutation == "empty":
        new = []
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc, f"{mutation} {'.'.join(map(str, path))} -> {new!r}"


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_scenario_exits_with_a_code(path, data):
    doc, note = data.draw(mutated(json.loads(path.read_text())), label="mutation")
    mode = data.draw(st.sampled_from(["base", "dki"]), label="mode")
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(doc))
        argv = ["plan", "--scenario", str(scenario), "--mode", mode, "--budget", "iters:50", "--out", str(Path(tmp) / "out")]
        assert main(argv) in (0, 1, 2, 3), note


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_scenario_simulates_with_a_code(path, data):
    doc, note = data.draw(mutated(json.loads(path.read_text())), label="mutation")
    mode = data.draw(st.sampled_from(["base", "dki"]), label="mode")
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(doc))
        argv = ["simulate", "--scenario", str(scenario), "--mode", mode, "--budget", "iters:50",
                "--set", "sim.duration=0.5", "--out", str(Path(tmp) / "out")]
        assert main(argv) in (0, 1, 2, 3), note


# The numeric keys that a shipped file may leave at their defaults, by section,
# and those of each object.
_DEFAULTED = {"planner": ("d_near", "d_prune", "t_prop", "t_step", "metric_xy_scale"),
              "goal": ("distance", "lateral_band"), "sim": ("duration", "replan_rate")}
_OBJECT_DEFAULTED = {"footprint": ("length", "width"), "field": ("amplitude", "sigma_x", "sigma_y")}
# Values past every scale of the format: huge, huge negative, tiny, large, and the least subnormal.
_EXTREMES = ("1e300", "-1e300", "1e-300", "1e15", "5e-324")


def _numeric_paths(doc) -> list:
    """The dotted path of every numeric leaf of doc, and of each key in
    _DEFAULTED and _OBJECT_DEFAULTED that doc leaves out."""
    paths = [".".join(map(str, path)) for path, value in _paths(doc) if _kind(value) == "number"]
    extra = [f"{sec}.{key}" for sec, keys in _DEFAULTED.items() for key in keys]
    extra += [f"objects.{i}.{sec}.{key}" for i in range(len(doc.get("objects", [])))
              for sec, keys in _OBJECT_DEFAULTED.items() for key in keys]
    return paths + [p for p in extra if p not in paths]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_extreme_values_exit_with_a_code(path, tmp_path):
    # each numeric path at each extreme, through a short query and one replan
    # period: a traceback, or a numeric warning (an error under pyproject's
    # filter), fails the run
    out = str(tmp_path / "out")
    failures = []
    for key in _numeric_paths(json.loads(path.read_text())):
        for value in _EXTREMES:
            override = ["--set", f"{key}={value}"]
            for argv in (["plan", "--budget", "iters:300", *override],
                         ["simulate", "--budget", "iters:50", *override, "--set", "sim.duration=0.5"]):
                try:
                    rc = main([*argv, "--scenario", str(path), "--out", out])
                except Exception as exc:  # every failure is collected
                    rc = f"{type(exc).__name__}: {exc}"
                if rc not in (0, 1, 2, 3):
                    failures.append(f"{argv[0]} {key}={value}: {rc}")
    assert not failures, "\n".join(failures)


# Characters that valid --seeds and --budget strings are made of, and some that they are not.
_FLAG_CHARS = "0123456789,-:.e+ itersmnaf"


@st.composite
def edited(draw, text):
    """text with one or two characters inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(chars)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            chars.insert(i, draw(st.sampled_from(_FLAG_CHARS)))
        elif i < len(chars):
            if edit == "delete":
                del chars[i]
            else:
                chars[i] = draw(st.sampled_from(_FLAG_CHARS))
    return "".join(chars)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_edited_flags_exit_with_a_code(data):
    seeds = data.draw(st.sampled_from(["0", "0,3,5-7", "2-4"]), label="seeds")
    budget = data.draw(st.sampled_from(["iters:50", "time:0.05"]), label="budget")
    if data.draw(st.booleans(), label="edit seeds"):
        seeds = data.draw(edited(seeds), label="edited seeds")
    else:
        budget = data.draw(edited(budget), label="edited budget")
    # the cells are stubbed, so a flag that parses to a long run costs nothing
    cells = []

    def run_cell(job):
        cells.append(job)
        path, mode, seed, _, _ = job
        return (Path(path).stem, mode, seed, None, "duration", None)

    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(cli, "_run_cell", run_cell)
        # a separate value that starts with "-" is a usage error, which exits 1 like a bad value
        argv = ["benchmark", "--scenario", str(SCENARIOS[0]), "--modes", "base", "--seeds", seeds,
                "--budget", budget, "--out", tmp]
        rc = main(argv)
    assert rc in (0, 1), (seeds, budget)
    if rc == 0:
        assert [job[2] for job in cells] == cli._parse_seeds(seeds)
        assert all(job[3] == cli._parse_budget(budget) for job in cells)
