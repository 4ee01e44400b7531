"""Command-line experiment runner.

Experiments are described by INI-style config files (flat key=value under
section headers) and emit deterministic CSV files plus a JSON run manifest.
Identical config + seed reproduces identical CSV bytes; unknown sections or
keys are rejected with the offending name.

Exit codes: 0 converged, 2 completed but not converged, 1 error.

The full config schema is documented in the project README.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .grid import Field, Grid, field_to_csv, integral, mean, norm_l2, write_table
from .elliptic import LogisticProblem, SolverError, solve_steady
from .game import GameSpec, nash_fixed_point, potential_game_counterexample, regulation_sweep, write_sweep_csv
from .harvest import (
    EQUALITY,
    INEQUALITY,
    OptimizeOptions,
    StrategyConstraints,
    bang_bang_strategy,
    interval_strategy,
    j0_argmax,
    j1_eval,
    j1_gradient,
    optimize_single,
    project,
)
from .mfhg import Bistable, MfhgSpec, Monostable, fish_forward, front_speed, mfhg_solve, write_slices_csv

EXPERIMENTS = ("steady", "optimize", "nash", "sweep", "asymptotic", "mfhg", "wave",
               "potential-check")

_SECTION_KEYS = {
    "experiment": {"name", "seed"},
    "grid": {"dim", "lower", "upper", "nodes"},
    "problem": {"K", "mu", "nu"},
    "constraints": {"kappa", "V0", "mode", "players"},
    "solver": {"tol", "max_iter", "max_rounds", "relaxation", "starts", "nash_tol"},
    "steady": {"alpha"},
    "optimize": set(),
    "nash": set(),
    "sweep": {"V0_list"},
    "asymptotic": {"V0", "sweep_points"},
    "mfhg": {"T", "steps", "reaction", "u0", "m0", "sweep_damping", "sweep_tol",
             "max_sweeps", "hjb_sign", "drift_sign", "slice_stride"},
    "wave": {"T", "steps", "reaction", "u0", "m0", "threshold", "coupled",
             "slice_stride"},
    "potential-check": {"V0"},
}


class ConfigError(ValueError):
    pass


def k_preset(grid: Grid, name: str, params: dict, rng: np.random.Generator | None = None) -> Field:
    """Named resource distributions.

    constant:VALUE; cosine with K0/amplitude; decreasing-linear with K0
    (profile 2*K0*(1-x) on the unit interval); random-fourier with
    seed/n_modes/amplitude/K0, deterministic per seed, clipped into [0, 1]
    and recentered so the mean hits the requested K0.
    """
    if name == "constant":
        return Field.constant(grid, float(params.get("value", params.get("K0", 1.0))))
    if name == "cosine":
        K0 = float(params.get("K0", 0.5))
        amp = float(params.get("amplitude", 0.3))
        if grid.dim == 1:
            f = Field.from_callable(grid, lambda x: K0 + amp * np.cos(np.pi * _unit(grid, x, 0)))
        else:
            f = Field.from_callable(
                grid,
                lambda x, y: K0 + amp * np.cos(np.pi * _unit(grid, x, 0)) * np.cos(np.pi * _unit(grid, y, 1)),
            )
        if np.min(f.values) < 0 or np.max(f.values) > 1:
            raise ConfigError("cosine preset leaves [0, 1]; reduce amplitude")
        return f
    if name == "decreasing-linear":
        K0 = float(params.get("K0", 0.5))
        if not (0.0 < K0 <= 0.5):
            raise ConfigError("decreasing-linear needs 0 < K0 <= 0.5 to stay in [0, 1]")
        return Field.from_callable(grid, lambda x, *_: 2.0 * K0 * (1.0 - _unit(grid, x, 0)))
    if name == "random-fourier":
        seed = int(params.get("seed", 0))
        n_modes = int(params.get("n_modes", params.get("modes", 8)))
        amp = float(params.get("amplitude", 0.3))
        K0 = float(params.get("K0", 0.5))
        if not (0.0 < K0 < 1.0):
            raise ConfigError("random-fourier needs K0 strictly inside (0, 1)")
        gen = np.random.default_rng(seed)
        base = np.zeros(grid.shape)
        x = _unit(grid, grid.coordinates()[0], 0)
        if grid.dim == 1:
            for k in range(1, n_modes + 1):
                base += gen.standard_normal() / k * np.cos(k * np.pi * x)
        else:
            y = _unit(grid, grid.coordinates()[1], 1)
            for i in range(n_modes + 1):
                for j in range(n_modes + 1):
                    if i == j == 0:
                        continue
                    base += gen.standard_normal() / (i + j) * np.cos(i * np.pi * x) * np.cos(j * np.pi * y)
        # Recenter after clipping: mean(clip(K0 + amp*base + c)) is monotone in c.
        lo, hi = -2.0 - amp * float(np.max(np.abs(base))), 2.0 + amp * float(np.max(np.abs(base)))
        for _ in range(80):
            c = 0.5 * (lo + hi)
            m = mean(Field(grid, np.clip(K0 + amp * base + c, 0.0, 1.0)))
            if m < K0:
                lo = c
            else:
                hi = c
        return Field(grid, np.clip(K0 + amp * base + 0.5 * (lo + hi), 0.0, 1.0))
    raise ConfigError(f"unknown resource preset {name!r}")


def _unit(grid: Grid, coord, axis: int):
    return (coord - grid.lower[axis]) / (grid.upper[axis] - grid.lower[axis])


def parse_field_spec(grid: Grid, spec: str) -> Field:
    """Parse 'name:params' field strings used for K, alpha, u0 and m0."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    params = {}
    if rest:
        parts = [p.strip() for p in rest.split(",") if p.strip()]
        bare = [p for p in parts if "=" not in p]
        for p in parts:
            if "=" in p:
                k, v = p.split("=", 1)
                params[k.strip()] = v.strip()
        if name == "constant" and bare:
            params["value"] = bare[0]
        elif name in ("cosine", "decreasing-linear") and bare:
            params["K0"] = bare[0]
            if len(bare) > 1:
                params["amplitude"] = bare[1]
        elif name in ("step", "bump") and bare:
            params["center"] = bare[0]
            if len(bare) > 1:
                params["width"] = bare[1]
        elif name == "csv" and bare:
            params["path"] = bare[0]
    if name == "csv":
        path = params.get("path") or rest.strip()
        if not os.path.exists(path):
            raise ConfigError(f"field CSV not found: {path}")
        data = np.genfromtxt(path, delimiter=",", names=True)
        vals = np.asarray(data["value"], dtype=float)
        if vals.size != grid.node_count:
            raise ConfigError(
                f"field CSV has {vals.size} rows, grid has {grid.node_count} nodes")
        return Field(grid, vals.reshape(grid.shape))
    if name == "uniform":
        return Field.constant(grid, 1.0 / grid.volume)
    if name == "step":
        x0 = float(params.get("center", 0.5 * (grid.lower[0] + grid.upper[0])))
        return Field.from_callable(grid, lambda x, *_: np.where(x < x0, 1.0, 0.0))
    if name == "bump":
        x0 = float(params.get("center", 0.5 * (grid.lower[0] + grid.upper[0])))
        width = float(params.get("width", 0.1 * (grid.upper[0] - grid.lower[0])))
        if grid.dim == 1:
            f = Field.from_callable(grid, lambda x: np.exp(-((x - x0) / width) ** 2))
        else:
            y0 = float(params.get("center_y", 0.5 * (grid.lower[1] + grid.upper[1])))
            f = Field.from_callable(
                grid, lambda x, y: np.exp(-(((x - x0) ** 2 + (y - y0) ** 2) / width**2)))
        return f
    return k_preset(grid, name, params)


def _parse_floats(text: str) -> list:
    return [float(p) for p in text.split(",") if p.strip()]


def load_config(path: str) -> dict:
    """Read and validate a config file into a nested dict of strings."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (V0, K, T)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if not read:
        raise ConfigError(f"config not readable: {path}")
    cfg = {}
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _SECTION_KEYS[section]
        cfg[section] = {}
        for key, value in parser.items(section):
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            cfg[section][key] = value
    if "experiment" not in cfg or "name" not in cfg["experiment"]:
        raise ConfigError("missing [experiment] name")
    name = cfg["experiment"]["name"]
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; pick one of {EXPERIMENTS}")
    return cfg


def _build_grid(cfg: dict) -> Grid:
    sec = cfg.get("grid", {})
    dim = int(sec.get("dim", 1))
    lower = _parse_floats(sec.get("lower", "0"))
    upper = _parse_floats(sec.get("upper", "1"))
    nodes = [int(float(v)) for v in sec.get("nodes", "257").split(",")]
    if len(lower) == 1 and dim == 2:
        lower = lower * 2
    if len(upper) == 1 and dim == 2:
        upper = upper * 2
    if len(nodes) == 1 and dim == 2:
        nodes = nodes * 2
    if not (len(lower) == len(upper) == len(nodes) == dim):
        raise ConfigError("grid lower/upper/nodes must match dim")
    return Grid(tuple(lower), tuple(upper), tuple(nodes))


def _build_problem(cfg: dict, grid: Grid) -> LogisticProblem:
    sec = cfg.get("problem", {})
    K = parse_field_spec(grid, sec.get("K", "constant:1.0"))
    mu = float(sec.get("mu", 1.0))
    return LogisticProblem(grid, K, mu)


def _build_constraints(cfg: dict):
    sec = cfg.get("constraints", {})
    mode = sec.get("mode", INEQUALITY)
    if mode not in (EQUALITY, INEQUALITY):
        raise ConfigError(f"unknown constraint mode {mode!r}")
    kappas = _parse_floats(sec.get("kappa", "1.0"))
    V0s = _parse_floats(sec.get("V0", "0.25"))
    n = int(sec.get("players", max(len(kappas), len(V0s), 1)))
    if len(kappas) == 1:
        kappas = kappas * n
    if len(V0s) == 1:
        V0s = V0s * n
    if not (len(kappas) == len(V0s) == n):
        raise ConfigError("kappa/V0 lists must have one entry or one per player")
    return [StrategyConstraints(k, v, mode) for k, v in zip(kappas, V0s)]


def _solver_options(cfg: dict) -> OptimizeOptions:
    sec = cfg.get("solver", {})
    return OptimizeOptions(
        tol=float(sec.get("tol", 1e-8)),
        max_iter=int(sec.get("max_iter", 500)),
    )


def _initial_strategies(cfg: dict, grid: Grid, players: list, rng: np.random.Generator):
    kind = cfg.get("solver", {}).get("starts", "constant")
    out = []
    for c in players:
        if kind == "constant":
            out.append(Field.constant(grid, c.V0))
        elif kind == "bang-left":
            out.append(bang_bang_strategy(grid, c.kappa, c.V0, "left"))
        elif kind == "bang-right":
            out.append(bang_bang_strategy(grid, c.kappa, c.V0, "right"))
        elif kind == "random":
            raw = Field(grid, c.V0 + 0.25 * c.kappa * rng.standard_normal(grid.shape))
            out.append(project(raw, c))
        else:
            raise ConfigError(f"unknown starts {kind!r}")
    return out


def _build_mfhg_spec(cfg: dict, grid: Grid, section: str) -> MfhgSpec:
    sec = cfg.get(section, {})
    prob = cfg.get("problem", {})
    reaction_spec = sec.get("reaction", "monostable:1.0")
    rname, _, rparam = reaction_spec.partition(":")
    if rname == "monostable":
        reaction = Monostable(float(rparam or 1.0))
    elif rname == "bistable":
        reaction = Bistable(float(rparam or 0.25))
    else:
        raise ConfigError(f"unknown reaction {rname!r}")
    u0 = parse_field_spec(grid, sec.get("u0", "constant:0.5"))
    m0 = parse_field_spec(grid, sec.get("m0", "uniform"))
    total = integral(m0)
    if total <= 0:
        raise ConfigError("m0 must have positive mass")
    m0 = Field(grid, m0.values / total)
    return MfhgSpec(
        grid=grid,
        T=float(sec.get("T", 1.0)),
        steps=int(sec.get("steps", 200)),
        nu=float(prob.get("nu", 0.5)),
        mu=float(prob.get("mu", 1.0)),
        reaction=reaction,
        u0=u0,
        m0=m0,
        sweep_damping=float(sec.get("sweep_damping", 0.5)),
        sweep_tol=float(sec.get("sweep_tol", 1e-6)),
        max_sweeps=int(sec.get("max_sweeps", 200)),
        drift_sign=float(sec.get("drift_sign", 1.0)),
        hjb_sign=float(sec.get("hjb_sign", 1.0)),
    )


def _write_manifest(out_dir: str, cfg: dict, stages: dict, outputs: list,
                    wall_time: float) -> None:
    manifest = {
        "config": cfg,
        "version": __version__,
        "wall_time_s": wall_time,
        "stages": stages,
        "outputs": sorted(outputs),
    }
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".manifest.tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))


def _run_steady(cfg, out_dir, rng):
    grid = _build_grid(cfg)
    problem = _build_problem(cfg, grid)
    alpha = parse_field_spec(grid, cfg.get("steady", {}).get("alpha", "constant:0.0"))
    report = solve_steady(problem, alpha)
    path = os.path.join(out_dir, "theta.csv")
    field_to_csv(report.solution, path)
    return {"steady": report.converged}, [path]


def _run_optimize(cfg, out_dir, rng):
    grid = _build_grid(cfg)
    problem = _build_problem(cfg, grid)
    c = _build_constraints(cfg)[0]
    report = optimize_single(problem, c, _solver_options(cfg))
    path = os.path.join(out_dir, "optimize.csv")
    report.write_csv(path)
    return {"optimize": report.converged}, [path, os.path.join(out_dir, "optimize.summary.csv")]


def _run_nash(cfg, out_dir, rng):
    grid = _build_grid(cfg)
    problem = _build_problem(cfg, grid)
    players = _build_constraints(cfg)
    sec = cfg.get("solver", {})
    spec = GameSpec(problem, players,
                    tol=float(sec.get("nash_tol", 1e-6)),
                    max_rounds=int(sec.get("max_rounds", 100)),
                    relaxation=float(sec.get("relaxation", 1.0)),
                    options=_solver_options(cfg))
    report = nash_fixed_point(spec, _initial_strategies(cfg, grid, players, rng))
    path = os.path.join(out_dir, "nash.csv")
    report.write_csv(path)
    summary = os.path.join(out_dir, "nash_summary.csv")
    write_table(summary, ("player", "payoff"),
                [(i + 1, p) for i, p in enumerate(report.payoffs)]
                + [("total", report.total_harvest), ("rounds", report.rounds),
                   ("converged", report.converged),
                   ("eps_certificate", report.eps_nash_certificate)])
    return {"nash": report.converged}, [path, summary]


def _run_sweep(cfg, out_dir, rng):
    grid = _build_grid(cfg)
    problem = _build_problem(cfg, grid)
    template = _build_constraints(cfg)
    V0_list = _parse_floats(cfg.get("sweep", {}).get("V0_list", ""))
    if not V0_list:
        raise ConfigError("sweep needs V0_list")
    sec = cfg.get("solver", {})
    rows = regulation_sweep(problem, len(template), V0_list,
                            kappa=[c.kappa for c in template], mode=template[0].mode,
                            tol=float(sec.get("nash_tol", 1e-6)),
                            max_rounds=int(sec.get("max_rounds", 100)),
                            options=_solver_options(cfg))
    outputs = []
    for r in rows:
        sub = os.path.join(out_dir, f"V0_{r.V0:.6g}")
        os.makedirs(sub, exist_ok=True)
        if r.report is not None:
            outputs.append(os.path.join(sub, "nash.csv"))
            r.report.write_csv(outputs[-1])
    outputs.append(os.path.join(out_dir, "sweep.csv"))
    write_sweep_csv(rows, outputs[-1])
    return {"sweep": all(r.converged for r in rows)}, outputs


def _run_asymptotic(cfg, out_dir, rng):
    grid = _build_grid(cfg)
    problem = _build_problem(cfg, grid)
    c = _build_constraints(cfg)[0]
    sec = cfg.get("asymptotic", {})
    V0 = float(sec.get("V0", c.V0))
    K0 = problem.K0
    K = problem.K
    const = Field.constant(grid, V0)
    grad = j1_gradient(grid, K, const, V0, K0)
    pg_norm = norm_l2(grad - mean(grad))
    rows = [("j0_argmax", j0_argmax(K0, c)),
            ("j1_const_projgrad_norm", pg_norm),
            ("j1_const_value", j1_eval(grid, K, const, V0, K0))]
    outputs = []
    if grid.dim == 1:
        n_pts = int(sec.get("sweep_points", 100))
        length = V0 / c.kappa * (grid.upper[0] - grid.lower[0])
        starts = np.linspace(grid.lower[0], grid.upper[0] - length, n_pts)
        path = os.path.join(out_dir, "j1_sweep.csv")
        values = [j1_eval(grid, K, interval_strategy(grid, c.kappa, V0, s), V0, K0)
                  for s in starts]
        write_table(path, ("start", "J1"), zip(starts.tolist(), values))
        best = int(np.argmax(values))
        rows.append(("j1_best_interval_start", starts[best]))
        rows.append(("j1_best_interval_value", values[best]))
        outputs.append(path)
    summary = os.path.join(out_dir, "asymptotic.csv")
    write_table(summary, ("quantity", "value"), rows)
    outputs.append(summary)
    return {"asymptotic": True}, outputs


def _run_mfhg(cfg, out_dir, rng):
    grid = _build_grid(cfg)
    spec = _build_mfhg_spec(cfg, grid, "mfhg")
    state = mfhg_solve(spec)
    stride = int(cfg.get("mfhg", {}).get("slice_stride", max(1, spec.steps // 20)))
    path = os.path.join(out_dir, "slices.csv")
    write_slices_csv(state, path, stride)
    masses = [integral(state.field_at("m", k)) for k in range(spec.steps + 1)]
    summary = os.path.join(out_dir, "mfhg_summary.csv")
    write_table(summary, ("quantity", "value"),
                [("sweeps", state.sweeps_used), ("residual", state.sweep_residual),
                 ("converged", state.converged),
                 ("mass_drift", max(abs(m - masses[0]) for m in masses))])
    return {"mfhg": state.converged}, [path, summary]


def _run_wave(cfg, out_dir, rng):
    grid = _build_grid(cfg)
    if grid.dim != 1:
        raise ConfigError("wave experiment is one-dimensional")
    sec = cfg.get("wave", {})
    spec = _build_mfhg_spec(cfg, grid, "wave")
    threshold = float(sec.get("threshold", 0.5))
    coupled = sec.get("coupled", "false").lower() in ("1", "true", "yes")
    stages = {}
    outputs = []
    if coupled:
        state = mfhg_solve(spec)
        stages["mfhg"] = state.converged
        series = front_speed(spec, threshold, u=state.u)
        stride = int(sec.get("slice_stride", max(1, spec.steps // 20)))
        spath = os.path.join(out_dir, "slices.csv")
        write_slices_csv(state, spath, stride)
        outputs.append(spath)
    else:
        series = front_speed(spec, threshold)
        stages["wave"] = not series.truncated
    path = os.path.join(out_dir, "front.csv")
    series.write_csv(path)
    outputs.append(path)
    return stages, outputs


def _run_potential_check(cfg, out_dir, rng):
    grid = _build_grid(cfg)
    problem = _build_problem(cfg, grid)
    V0 = float(cfg.get("potential-check", {}).get("V0", 1.0 / 3.0))
    sym, asym = potential_game_counterexample(problem, V0)
    path = os.path.join(out_dir, "potential.csv")
    write_table(path, ("pair", "value"), [("identical", sym), ("asymmetric", asym)])
    return {"potential-check": True}, [path]


_RUNNERS = {
    "steady": _run_steady,
    "optimize": _run_optimize,
    "nash": _run_nash,
    "sweep": _run_sweep,
    "asymptotic": _run_asymptotic,
    "mfhg": _run_mfhg,
    "wave": _run_wave,
    "potential-check": _run_potential_check,
}


def run(config_path: str, out_dir: str = "./out", seed: int | None = None,
        quiet: bool = False) -> int:
    """Execute the configured experiment.  Returns the process exit code."""
    start = time.time()
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if seed is not None:
        cfg.setdefault("experiment", {})["seed"] = str(seed)
    rng = np.random.default_rng(int(cfg["experiment"].get("seed", 0)))
    name = cfg["experiment"]["name"]
    os.makedirs(out_dir, exist_ok=True)
    try:
        stages, outputs = _RUNNERS[name](cfg, out_dir, rng)
    except (ConfigError, ValueError) as exc:
        print(f"error in experiment {name!r}: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"numeric failure in experiment {name!r}: {exc}", file=sys.stderr)
        return 1
    _write_manifest(out_dir, cfg, stages, [os.path.relpath(p, out_dir) for p in outputs],
                    time.time() - start)
    converged = all(stages.values())
    if not quiet:
        status = "converged" if converged else "completed (not converged)"
        print(f"{name}: {status}; outputs in {out_dir}")
    return 0 if converged else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fishgame",
        description="Spatial fishing experiments: steady states, optimal strategies, "
                    "Nash equilibria, large-diffusivity asymptotics and the coupled "
                    "harvesting dynamics.")
    parser.add_argument("--config", required=True, help="experiment config (INI)")
    parser.add_argument("--out", default="./out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    return run(args.config, args.out, args.seed, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
