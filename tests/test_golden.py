"""Determinism gate: closed-loop logs of every shipped scenario stay byte-identical.

Each scenario runs in both modes at seed 0 for 6 s of simulated time with
2 000 iterations per query, which gives every cell at least one solved
tick. A changed hash means that a change altered the planner's or the
simulator's output; such a change must say why and record the new hashes.
"""

import hashlib
from dataclasses import replace

import pytest

from urbansst.sim import load_scenario, run_closed_loop, simlog_to_csv

from conftest import SCENARIO_DIR

DURATION = 6.0
BUDGET = ("iters", 2000)

# sha1 of simlog.csv per (scenario file stem, mode)
GOLDEN = {
    ("scenario_i_straight_road", "base"): "a720d76f62d520c60ee941ea23dae8aabc5210df",
    ("scenario_i_straight_road", "dki"): "8306c3e7df2b75bf6037eb9dd14138532e2c5d82",
    ("scenario_ii_static_overtake", "base"): "1f69730700f5aee9ffbde2f4e669482253d25448",
    ("scenario_ii_static_overtake", "dki"): "194a73266214afa4e89a3be9e42ffd73978d1552",
    ("scenario_iii_roundabout", "base"): "92f37451c39256c57bdbadad9976c003c11bddcc",
    ("scenario_iii_roundabout", "dki"): "901a8af7aff2b9032330b458306851b25b06265f",
    ("scenario_iv_vru_steering", "base"): "5187adb9353ce7c84875e4f3aaed84a44a3dd144",
    ("scenario_iv_vru_steering", "dki"): "428d298a3cfceaac6b34994cd5226b510def20d2",
    ("scenario_v_vru_braking", "base"): "b72a028b0f4a8f7150dc6b128c16589e74191e59",
    ("scenario_v_vru_braking", "dki"): "661267cfa61480c4b0d4379daef9e1409dbd5a9d",
}


def test_every_shipped_scenario_is_covered():
    stems = {p.stem for p in SCENARIO_DIR.glob("scenario_*.json")}
    assert {stem for stem, _ in GOLDEN} == stems


@pytest.mark.parametrize("stem, mode", sorted(GOLDEN), ids=lambda v: v)
def test_simlog_csv_hash(stem, mode):
    sc = replace(load_scenario(SCENARIO_DIR / f"{stem}.json"), duration=DURATION)
    log = run_closed_loop(sc, mode, 0, budget=BUDGET)
    assert any(tick.solved for tick in log.ticks)
    assert hashlib.sha1(simlog_to_csv(log).encode()).hexdigest() == GOLDEN[(stem, mode)]
