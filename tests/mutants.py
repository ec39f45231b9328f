"""Mutation gate: each mutant of src/ below must fail the planner's tests.

Run from anywhere:  python tests/mutants.py

For each mutant, the script copies src/ into a temporary directory, applies
one edit and runs pytest on tests/test_sst.py, tests/test_dki.py,
tests/test_golden.py and tests/test_golden_plan.py with the copy first on
the import path. The edit's
pattern must occur exactly once in its file, so a refactor that moves or
rewrites the code fails the gate until the mutant is updated. The script
exits 1 if a pattern does not match once, if the copy is not the package
that gets imported, or if a mutant's run does not end in failed tests.

Pytest does not collect this file (its name does not start with test_).

Equivalent mutants, which no test can kill, are left out:
- `cost <= table[_COST, wit]` in _run_batch's live test: a tied endpoint is
  then live, but try_insert's `cost >= ...` compare still drops it;
- `added[e] <= wit_d[e]` for `moved`: on a tie, the table's first minimum
  is the snapshot witness;
- `moved` without its `added[e] <= d_prune` test: a witness the batch appended
  beyond d_prune is then looked up in the table, which finds no witness within
  d_prune either.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_sst.py", "tests/test_dki.py", "tests/test_golden.py", "tests/test_golden_plan.py"]

# (name, file under src/urbansst, pattern, replacement)
MUTANTS = [
    (
        "an appended witness is never nearer (moved always false)",
        "sst.py",
        "moved = added[e] < wit_d[e]",
        "moved = False",
    ),
    (
        "a representative at a pick's reach does not make it stale",
        "sst.py",
        "return state_distance(norm, samples) <= reach",
        "return state_distance(norm, samples) < reach",
    ),
    (
        "object checks read the heading one substep early",
        "sst.py",
        "float(TH[k + 1, i])",
        "float(TH[k, i])",
    ),
    (
        "the lane branch validates all but its pick's last substate",
        "dki.py",
        "zip(*paths[:, 1:, i].tolist())",
        "zip(*paths[:, 1:-1, i].tolist())",
    ),
    (
        "_price reads the penalty of substep 0, not of the endpoint",
        "sst.py",
        "penalties[-1]",
        "penalties[0]",
    ),
    (
        "integrate's heading-range test reads the first summed plane, not the last",
        "sst.py",
        "last = TH[-1]",
        "last = TH[1]",
    ),
    (
        "the representative's row writer skips the depth row",
        "sst.py",
        "self._table[_DEPTH, i] = node.depth",
        "pass",
    ),
    (
        "the radius lookup's bound has no rounding margin",
        "sst.py",
        "sel = g <= r * r * (1.0 + 1e-12) + 1e-12 * (s2.max() + r2.max() + 1.0)",
        "sel = g <= r * r",
    ),
    (
        "substeps moves x with the speed after the step",
        "vehicle.py",
        "x += tv * math.cos(theta)",
        "x += ts * min(max(v + dv, v_min), v_max) * math.cos(theta)",
    ),
]


def run_mutant(file: str, pattern: str, replacement: str) -> tuple[int, str]:
    """Pytest's exit code and last output line on a copy of src/ with one edit."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "urbansst" / file
        text = path.read_text()
        if text.count(pattern) != 1:
            sys.exit(f"mutants.py: {pattern!r} occurs {text.count(pattern)} times in {file}, not once")
        path.write_text(text.replace(pattern, replacement))
        paths = [str(src), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import urbansst; print(urbansst.__file__)"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if Path(where).resolve() != (src / "urbansst" / "__init__.py").resolve():
            sys.exit(f"mutants.py: the tests would import urbansst from {where}, not from the mutated copy")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *TESTS],
            env=env, cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        return proc.returncode, lines[-1] if lines else ""


def main() -> int:
    survived = 0
    for name, file, pattern, replacement in MUTANTS:
        code, summary = run_mutant(file, pattern, replacement)
        # exit code 1: tests ran and some failed; anything else (0 passed,
        # 2 interrupted, 4 usage, 5 nothing collected) does not kill it
        killed = code == 1
        survived += not killed
        print(f"{'killed  ' if killed else 'SURVIVED'} {name}: {summary}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
