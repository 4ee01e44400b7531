"""Seeded inputs and outcome checks for the benchmark workloads.

Each workload turns a seed into a config file plus any field CSVs it names
(the program receives nothing else), and checks one run's output directory.
The same seed always writes byte-identical inputs.  Resource fields stay in
[0, 1].  Seeded perturbations are kept small so that every seed runs the
same kind of solve; the seed moves the numbers, not the regime.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Outcome-check tolerances.
NASH_TOL = 1e-4
KKT_TOL = 1e-6
J_TOL = 1e-9
MASS_DRIFT_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, str], "Inputs"]
    check: Callable[["Inputs", str], list]   # -> failure messages, empty if correct
    reference: str = "small"                 # host-speed reference chunk, see hostspeed.py


@dataclass(frozen=True)
class Inputs:
    config: str     # path of the generated INI file
    params: dict    # the generated values the check needs


def _g(v: float) -> str:
    return f"{v:.17g}"


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_config(path: str, sections: dict) -> None:
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in items.items()]
        lines.append("")
    _write(path, "\n".join(lines))


def _write_field_csv(path: str, axes: list, values: np.ndarray) -> None:
    """Field CSV in the layout ``csv:`` specs read: x[,y],value, row-major."""
    if len(axes) == 1:
        rows = ["x,value"] + [f"{_g(x)},{_g(v)}" for x, v in zip(axes[0], values)]
    else:
        rows = ["x,y,value"] + [f"{_g(x)},{_g(y)},{_g(values[i, j])}"
                                for i, x in enumerate(axes[0])
                                for j, y in enumerate(axes[1])]
    _write(path, "\n".join(rows) + "\n")


def _cosine_k(seed: int, nodes: int, dim: int) -> tuple[list, np.ndarray]:
    """0.6 + 0.35*cos(pi x)[*cos(pi y)] plus a seeded low-mode Fourier term,
    so K stays inside [0.2, 1).

    The 1D modes have amplitude 1e-3 at most.  The 1D ascent's best start
    stops where the line search meets the state-solve noise floor, and that
    point moves with K: with 1e-2 modes it stopped after 1421 to 3342
    iterations on seeds 1-10 (0.11 of the run's total ascent work, as an
    interquartile spread), with 1e-3 modes after 2145 to 2471 on seeds 1-8.  The 2D
    starts all stop at max_iter, so the 2D modes keep 1e-2."""
    rng = np.random.default_rng([seed, dim])
    x = np.linspace(0.0, 1.0, nodes)
    if dim == 1:
        K = 0.6 + 0.35 * np.cos(np.pi * x)
        for k in range(2, 6):
            K = K + 1e-3 * rng.uniform(-1.0, 1.0) / k * np.cos(k * np.pi * x)
        axes = [x]
    else:
        X, Y = np.meshgrid(x, x, indexing="ij")
        K = 0.6 + 0.35 * np.cos(np.pi * X) * np.cos(np.pi * Y)
        for i, j in [(1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3), (1, 2), (2, 1)]:
            K = K + (0.01 * rng.uniform(-1.0, 1.0) / (i + j)
                     * np.cos(i * np.pi * X) * np.cos(j * np.pi * Y))
        axes = [x, x]
    if not (K.min() >= 0.0 and K.max() <= 1.0):
        raise AssertionError("generated K left [0, 1]")
    return axes, K


def _make_optimize(seed: int, directory: str, dim: int, nodes: int, solver: dict) -> Inputs:
    axes, K = _cosine_k(seed, nodes, dim)
    k_path = os.path.join(directory, "K.csv")
    _write_field_csv(k_path, axes, K)
    params = {"dim": dim, "nodes": nodes, "mu": 0.1, "kappa": 0.25, "V0": 0.12, "K": K}
    config = os.path.join(directory, "experiment.ini")
    _write_config(config, {
        "experiment": {"name": "optimize", "seed": seed},
        "grid": {"dim": dim, "nodes": nodes},
        "problem": {"K": f"csv:{k_path}", "mu": params["mu"]},
        "constraints": {"kappa": params["kappa"], "V0": params["V0"], "mode": "equality"},
        **({"solver": solver} if solver else {}),
    })
    return Inputs(config, params)


def make_optimize_1d(seed: int, directory: str) -> Inputs:
    """The KKT case.  The best start stalls at the state-solve noise floor
    after about 2400 iterations; a cap below that leaves the KKT residual
    above 1e-6 on some seeds, so max_iter stays at 5000."""
    return _make_optimize(seed, directory, 1, 129, {"tol": "1e-10", "max_iter": 5000})


def make_optimize_2d(seed: int, directory: str) -> Inputs:
    return _make_optimize(seed, directory, 2, 33, {})


def make_sweep_nash8(seed: int, directory: str) -> Inputs:
    """Eight players on constant K = k, k in [0.9, 0.94].  At V0 = 0.9k/8
    the budget is slack and alpha = k/9 (total 8k^2/81); at V0 = 0.8k/8 it
    binds and alpha = 0.1k (total 0.16k^2).  The slack point takes 23 Nash
    rounds for k up to 0.95 and 24 from about 0.97, so k stays below 0.94
    and every seed does the same number of rounds."""
    k = float(np.random.default_rng([seed, 8]).uniform(0.9, 0.94))
    V0_list = [0.9 * k / 8, 0.8 * k / 8]
    params = {"k": k, "players": 8, "V0_list": V0_list,
              "alpha": [k / 9, 0.1 * k], "total": [8 * k**2 / 81, 0.16 * k**2]}
    config = os.path.join(directory, "experiment.ini")
    _write_config(config, {
        "experiment": {"name": "sweep", "seed": seed},
        "grid": {"dim": 1, "nodes": 65},
        "problem": {"K": f"constant:{_g(k)}", "mu": 1.0},
        "constraints": {"kappa": 2.0, "V0": _g(V0_list[0]), "mode": "inequality",
                        "players": 8},
        "sweep": {"V0_list": ",".join(_g(v) for v in V0_list)},
    })
    return Inputs(config, params)


def make_mfhg_2d(seed: int, directory: str) -> Inputs:
    """The agents' bump is centred at a seeded point of [0.44, 0.46]^2.
    With centres anywhere in [0.35, 0.65]^2 the Picard iteration took 14 to
    16 sweeps; every centre tried in [0.44, 0.46]^2 takes 14, ending with a
    residual of 6.0e-7 to 7.7e-7 against the tolerance 1e-6."""
    cx, cy = np.random.default_rng([seed, 2, 2]).uniform(0.44, 0.46, size=2)
    params = {"nodes": 49, "steps": 400, "slice_stride": 20}
    config = os.path.join(directory, "experiment.ini")
    _write_config(config, {
        "experiment": {"name": "mfhg", "seed": seed},
        "grid": {"dim": 2, "nodes": params["nodes"]},
        "problem": {"mu": 0.5, "nu": 0.2},
        "mfhg": {"steps": params["steps"], "u0": "cosine:0.5,0.3",
                 "m0": f"bump:{_g(cx)},0.13,center_y={_g(cy)}",
                 "slice_stride": params["slice_stride"]},
    })
    return Inputs(config, params)


def read_table(path: str) -> dict:
    """Columns of a numeric CSV with a header row, keyed by header name."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} columns, header has {len(header)}")
    return {name: data[:, i] for i, name in enumerate(header)}


def check_optimize(inputs: Inputs, out_dir: str) -> list:
    """alpha feasible, KKT residual ||alpha - P(alpha + grad J)|| recomputed
    through gateaux_gradient and project, and J equal to fishing_output."""
    from fishgame import (EQUALITY, Field, Grid, LogisticProblem, StrategyConstraints,
                          fishing_output, gateaux_gradient, mean, norm_l2, project)

    p = inputs.params
    grid = Grid((0.0,) * p["dim"], (1.0,) * p["dim"], (p["nodes"],) * p["dim"])
    table = read_table(os.path.join(out_dir, "optimize.csv"))
    summary = read_table(os.path.join(out_dir, "optimize.summary.csv"))
    alpha_vals = table["alpha"]
    if alpha_vals.size != grid.node_count or not np.all(np.isfinite(alpha_vals)):
        return [f"optimize.csv: alpha has {alpha_vals.size} finite-checked rows, "
                f"grid has {grid.node_count} nodes"]
    problems = []
    c = StrategyConstraints(p["kappa"], p["V0"], EQUALITY)
    alpha = Field(grid, alpha_vals)
    if alpha_vals.min() < -1e-12 or alpha_vals.max() > c.kappa + 1e-12:
        problems.append(f"alpha outside [0, kappa]: [{alpha_vals.min():g}, {alpha_vals.max():g}]")
    if abs(mean(alpha) - c.V0) > 1e-9:
        problems.append(f"mean(alpha) = {mean(alpha):.12g} misses V0 = {c.V0:g}")
    problem = LogisticProblem(grid, Field(grid, p["K"]), p["mu"])
    kkt = norm_l2(alpha - project(alpha + gateaux_gradient(problem, alpha), c))
    if not kkt <= KKT_TOL:
        problems.append(f"KKT residual {kkt:.3g} > {KKT_TOL:g}")
    J = fishing_output(problem, alpha)
    J_csv = float(summary["J"][0])
    if not abs(J - J_csv) <= J_TOL:
        problems.append(f"J in summary {J_csv:.15g} != fishing_output {J:.15g}")
    return problems


def check_sweep_nash8(inputs: Inputs, out_dir: str) -> list:
    """Totals and every player's strategy match the closed forms to 1e-4."""
    p = inputs.params
    sweep = read_table(os.path.join(out_dir, "sweep.csv"))
    problems = []
    if not np.allclose(sweep["V0"], p["V0_list"], rtol=0, atol=1e-15):
        return [f"sweep.csv rows V0 = {list(sweep['V0'])}, expected {p['V0_list']}"]
    for V0, total, want in zip(sweep["V0"], sweep["total_harvest"], p["total"]):
        if not abs(total - want) <= NASH_TOL:
            problems.append(f"V0={V0:.6g}: total {total:.10g}, closed form {want:.10g}")
    nash_files = sorted(os.path.join(out_dir, d, "nash.csv") for d in os.listdir(out_dir)
                        if os.path.isfile(os.path.join(out_dir, d, "nash.csv")))
    if len(nash_files) != len(p["V0_list"]):
        return problems + [f"{len(nash_files)} nash.csv files, expected {len(p['V0_list'])}"]
    matched = set()
    for path in nash_files:
        table = read_table(path)
        alphas = np.stack([table[f"alpha_{i + 1}"] for i in range(p["players"])])
        devs = [float(np.max(np.abs(alphas - a))) for a in p["alpha"]]
        best = int(np.argmin(devs))
        if not devs[best] <= NASH_TOL:
            problems.append(f"{path}: strategies {devs[best]:.3g} from the closed form")
        matched.add(best)
    if len(matched) != len(p["alpha"]):
        problems.append("both budgets did not produce their own closed-form equilibrium")
    return problems


def check_mfhg_2d(inputs: Inputs, out_dir: str) -> list:
    """Agent mass is conserved to 1e-9 on every written slice, recomputed
    from slices.csv with trapezoid weights, and as the summary reports it."""
    p = inputs.params
    table = read_table(os.path.join(out_dir, "slices.csv"))
    summary = dict(zip(*np.loadtxt(os.path.join(out_dir, "mfhg_summary.csv"),
                                   delimiter=",", skiprows=1, dtype=str).T))
    n = p["nodes"]
    levels = p["steps"] // p["slice_stride"] + 1
    m = table["m"]
    if m.size != levels * n * n:
        return [f"slices.csv has {m.size} rows, expected {levels * n * n}"]
    problems = []
    if not (np.all(np.isfinite(m)) and m.min() >= 0.0 and np.all(table["u"] >= 0.0)):
        problems.append("negative or non-finite density in slices.csv")
    h = 1.0 / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    masses = np.einsum("kij,i,j->k", m.reshape(levels, n, n), w, w)
    drift = float(np.max(np.abs(masses - masses[0])))
    if not (abs(masses[0] - 1.0) <= MASS_DRIFT_TOL and drift <= MASS_DRIFT_TOL):
        problems.append(f"mass {masses[0]:.15g} at t=0, drift {drift:.3g} over slices")
    reported = float(summary.get("mass_drift", "nan"))
    if not reported <= MASS_DRIFT_TOL:
        problems.append(f"summary mass_drift {reported:.3g} > {MASS_DRIFT_TOL:g}")
    return problems


def file_hashes(directory: str, suffix: str = "") -> dict:
    """sha256 of every file under directory whose name ends with suffix,
    keyed by relative path."""
    hashes = {}
    for root, _, files in os.walk(directory):
        for name in files:
            if name.endswith(suffix):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    hashes[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


WORKLOADS = {w.name: w for w in [
    Workload("optimize-1d",
             "KKT case: long projected-gradient ascent on a cheap banded 1D state; "
             "project, line search and Field overhead dominate, no 2D algebra",
             make_optimize_1d, check_optimize),
    Workload("sweep-nash8",
             "8-player Nash sweep with 2 threads: many short warm-started best responses "
             "plus the eps-Nash certificate; closed-form answers",
             make_sweep_nash8, check_sweep_nash8),
    Workload("optimize-2d",
             "33x33 optimize: 2D elliptic solves (per-Newton-step splu, Jacobi-PCG) "
             "dominate; no 1D workload runs them",
             make_optimize_2d, check_optimize),
    Workload("mfhg-2d",
             "49x49 coupled mean-field run: SuperLU diffusion steps, fp_forward and "
             "5 MB of slice CSV; bypasses elliptic, harvest and game",
             make_mfhg_2d, check_mfhg_2d, reference="large"),
]}
