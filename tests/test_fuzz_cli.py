"""Fuzz test of the scenario loader and planner behind `urbansst plan`.

Each example takes one shipped scenario, applies one mutation at a random
JSON path (drop a key or element, retype a value, set NaN, negate a number
or empty a list), writes the result to a temporary directory and plans a
short query on it. Bad input must end in one of the CLI's exit codes, never
in an exception or a hang.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
