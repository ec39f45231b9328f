"""Time one cold set-up in a fresh interpreter.

Set-up is what a user pays before the first query: importing urbansst
(with numpy and scipy), loading the scenario file and building its
penalty grid. Afterwards the host-speed probe runs for 50 ms. The last line
printed holds the set-up seconds and the median probe seconds.

    python3 perfbench/setup_probe.py <src dir> <scenario.json>
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from urbansst.sim import build_scenario_grid, load_scenario  # noqa: E402

build_scenario_grid(load_scenario(sys.argv[2]))
setup_s = time.perf_counter() - t0

import statistics  # noqa: E402

from hostspeed import probe  # noqa: E402

probes: list = []
probe(0.05, probes)
print(repr(setup_s), repr(statistics.median(probes)))
