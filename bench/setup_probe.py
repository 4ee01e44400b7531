"""Set-up work of one experiment in a fresh process.

Imports fishgame, loads a generated config and builds the grid and the input
fields (and the problem and constraints where the experiment has them).
Then it times a burst of host-speed reference chunks and prints, as JSON,
their mean CPU time and the burst's wall time.  ``run.py`` times whole
invocations of this script; the set-up time is that minus the burst, rescaled
by this process's own speed factor.

Usage: python3 bench/setup_probe.py CONFIG
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from fishgame import Grid, LogisticProblem, StrategyConstraints  # noqa: E402
from fishgame.cli import load_config, parse_field_spec  # noqa: E402


def main(path: str) -> None:
    cfg = load_config(path)
    dim = int(cfg["grid"]["dim"])
    grid = Grid((0.0,) * dim, (1.0,) * dim, (int(cfg["grid"]["nodes"]),) * dim)
    if "mfhg" in cfg:
        parse_field_spec(grid, cfg["mfhg"]["u0"])
        parse_field_spec(grid, cfg["mfhg"]["m0"])
        return
    problem = cfg["problem"]
    LogisticProblem(grid, parse_field_spec(grid, problem["K"]), float(problem["mu"]))
    c = cfg["constraints"]
    StrategyConstraints(float(c["kappa"]), float(c["V0"]), c["mode"])


if __name__ == "__main__":
    main(sys.argv[1])
    import json
    import statistics
    import time

    import hostspeed

    t0 = time.perf_counter()
    samples = hostspeed.burst()
    print(json.dumps({"chunk_mean_s": statistics.fmean(samples),
                      "burst_s": time.perf_counter() - t0}))
