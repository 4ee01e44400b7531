"""Shows that the outcome checks catch corrupted outputs.

Runs each workload once on seed 0, requires its check to pass, then edits
one number in a copy of the output and requires the check to fail.  Takes
about a minute.  Exit code 0 when every corruption was caught.

Usage: python3 bench/check_selftest.py
"""

from __future__ import annotations

import os
import shutil
import sys

import run  # sets the thread limits before numpy is imported
from workloads import WORKLOADS, read_table

import numpy as np  # noqa: E402  (after run has set the thread limits)

OUT = os.path.join(run.OUT, "selftest")


def _edit(path: str, row: int, column: str, change) -> None:
    """Replace one cell of a CSV (row 0 is the first data row)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    k = header.index(column)
    cells[k] = repr(change(float(cells[k])))
    lines[row + 1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _shift_pair(path: str) -> None:
    """Move 1e-2 of alpha between two inner nodes (equal quadrature weight):
    bounds and mean still hold, so only the KKT check can notice."""
    table = read_table(path)
    movable = (table["alpha"] > 0.011) & (table["alpha"] < 0.239)
    for axis in ("x", "y"):
        if axis in table:
            movable &= (table[axis] > 0.0) & (table[axis] < 1.0)
    nodes = np.flatnonzero(movable)
    _edit(path, int(nodes[0]), "alpha", lambda v: v + 1e-2)
    _edit(path, int(nodes[-1]), "alpha", lambda v: v - 1e-2)


def _first_nash_csv(out_dir: str) -> str:
    sub = sorted(d for d in os.listdir(out_dir) if os.path.isdir(os.path.join(out_dir, d)))[0]
    return os.path.join(sub, "nash.csv")


OPTIMIZE = [
    ("alpha raised at one node", "optimize.csv",
     lambda p: _edit(p, 10, "alpha", lambda v: v + 1e-3)),
    ("alpha moved between nodes", "optimize.csv", _shift_pair),
    ("J off by 1e-8", "optimize.summary.csv",
     lambda p: _edit(p, 0, "J", lambda v: v + 1e-8)),
]

# workload -> (label, output file or a function of the output dir, edit)
CORRUPTIONS = {
    "optimize-1d": OPTIMIZE,
    "optimize-2d": OPTIMIZE,
    "sweep-nash8": [
        ("total harvest off by 2e-4", "sweep.csv",
         lambda p: _edit(p, 0, "total_harvest", lambda v: v + 2e-4)),
        ("one player's alpha off by 2e-4", _first_nash_csv,
         lambda p: _edit(p, 5, "alpha_3", lambda v: v + 2e-4)),
    ],
    "mfhg-2d": [
        ("densest agent node scaled by 1.001", "slices.csv",
         lambda p: _edit(p, int(np.argmax(read_table(p)["m"])), "m", lambda v: v * 1.001)),
    ],
}


def main() -> int:
    run._import_fishgame()
    from fishgame import cli

    os.chdir(run.ROOT)
    missed = 0
    for name, workload in WORKLOADS.items():
        case = os.path.join(OUT, name)
        shutil.rmtree(case, ignore_errors=True)
        os.makedirs(os.path.join(case, "inputs"))
        inputs = workload.make(0, os.path.join(case, "inputs"))
        clean = os.path.join(case, "clean")
        code = cli.run(inputs.config, clean, quiet=True)
        problems = workload.check(inputs, clean)
        print(f"{name}: exit {code}, clean output check: {problems or 'pass'}")
        if code not in (0, 2) or problems:
            return 1
        for label, target, corrupt in CORRUPTIONS[name]:
            bad = os.path.join(case, "corrupt")
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(clean, bad)
            corrupt(os.path.join(bad, target(bad) if callable(target) else target))
            try:
                found = workload.check(inputs, bad)
            except Exception as exc:  # a check that raises has also caught it
                found = [f"raised {type(exc).__name__}"]
            missed += not found
            print(f"  {label}: {'caught: ' + found[0] if found else 'MISSED'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
