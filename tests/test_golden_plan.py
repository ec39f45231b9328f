"""Determinism gate for single queries: `urbansst plan --seed 0` writes the
pinned bytes for every shipped scenario in both modes.

tests/golden_plan_sha1.txt holds one `sha1  <scenario>/<mode>/<file>` line
per file written, in `sha1sum -c` form: tree_stats.json always, and
trajectory.csv only for a solved query. A changed hash means that a change
altered the planner's output; such a change must say why and record the
new hashes.
"""

import hashlib
from pathlib import Path

import pytest

from urbansst.cli import main

from conftest import SCENARIO_DIR

GOLDEN_FILE = Path(__file__).resolve().parent / "golden_plan_sha1.txt"
MODES = ("base", "dki")


def _golden() -> dict:
    """(scenario stem, mode) -> {file name: sha1} of the pinned lines."""
    cells = {}
    for line in GOLDEN_FILE.read_text().splitlines():
        sha1, path = line.split()
        stem, mode, name = path.split("/")
        cells.setdefault((stem, mode), {})[name] = sha1
    return cells


GOLDEN = _golden()


def test_every_shipped_scenario_is_covered():
    stems = {p.stem for p in SCENARIO_DIR.glob("scenario_*.json")}
    assert set(GOLDEN) == {(stem, mode) for stem in stems for mode in MODES}


@pytest.mark.parametrize("stem, mode", sorted(GOLDEN), ids=lambda v: v)
def test_plan_output_hashes(tmp_path, stem, mode):
    rc = main(["plan", "--scenario", str(SCENARIO_DIR / f"{stem}.json"), "--mode", mode, "--seed", "0",
               "--out", str(tmp_path)])
    written = {p.name: hashlib.sha1(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == GOLDEN[(stem, mode)]
    assert rc == (0 if "trajectory.csv" in written else 2)
