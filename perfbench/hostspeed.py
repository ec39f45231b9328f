"""Host-speed probe: a fixed piece of work whose time tracks how fast the host runs now.

The benchmark's host is a few cores of a shared machine. Its speed moves by
30-50 % over tens of seconds as other tenants load it, and process CPU time
moves with wall time, so neither clock alone gives steady figures. The
probe runs a mix like the one the planner spends its time on (float arithmetic,
``math`` calls, small objects in Python, and small numpy nearest searches)
between planning queries. A timed figure is then scaled by
``REFERENCE_S / median probe time``: it reads what it would on a host that
runs the probe in ``REFERENCE_S``. The probe is part of the benchmark, not of
``urbansst``, so a change to the program never changes it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median probe time on a 2-core x86 VM in a quiet period (about 3.3-3.5 ms
# at best, 5-6 ms when the host is loaded).
REFERENCE_S = 0.0035

_POINTS = np.random.default_rng(1).random((400, 4))


class _State:
    __slots__ = ("x", "y", "th", "v")

    def __init__(self, x, y, th, v):
        self.x, self.y, self.th, self.v = x, y, th, v


def _work(rollouts: int = 60) -> float:
    acc = 0.0
    for j in range(rollouts):
        s = _State(0.0, 0.0, 0.1 * j, 5.0)
        path = []
        for i in range(40):
            a, d = 0.3 * math.sin(i), 0.05 * math.cos(j + i)
            s = _State(
                s.x + s.v * math.cos(s.th) * 0.05,
                s.y + s.v * math.sin(s.th) * 0.05,
                s.th + s.v * math.tan(d) / 2.7 * 0.05,
                max(0.0, s.v + a * 0.05),
            )
            path.append(s)
        q = np.array((path[-1].x % 1.0, path[-1].y % 1.0, 0.5, 0.5))
        k = int(np.argmin(((_POINTS - q) ** 2).sum(axis=1)))
        acc += _POINTS[k, 0] + path[-1].v
    return acc


_EXPECTED = _work()


def probe(budget_s: float, out: list) -> None:
    """Run the probe at least once and until `budget_s` has passed; append each time in seconds."""
    clock = time.perf_counter
    end = clock() + budget_s
    while True:
        t0 = clock()
        value = _work()
        t1 = clock()
        if value != _EXPECTED:
            raise RuntimeError("host-speed probe computed a different value")
        out.append(t1 - t0)
        if t1 >= end:
            return
