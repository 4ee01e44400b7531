"""Multi-player fishing games on a shared resource pool.

The joint state solves the logistic-diffusive equation with the summed
harvesting rates; each player's payoff is mean(alpha_i * theta).  Nash
candidates are computed by a sequential (Gauss-Seidel) best-response sweep:
player i maximizes against effective resources K - sum(others), which is
exactly the single-player problem, so the inner solver is reused verbatim.
Convergence of the sweep is an open question; non-convergence is reported,
never asserted against.  A finite stopping tolerance only certifies an
eps-Nash profile, so every run ends with one extra best-response pass that
measures the largest unilateral improvement found.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .grid import Field, grid_rows, mean, norm_l2, write_table
from .elliptic import LogisticProblem, SolverError, solve_steady
from .harvest import (
    INEQUALITY,
    OptimizeOptions,
    OptimizeReport,
    StrategyConstraints,
    bang_bang_strategy,
    interval_strategy,
    optimize_single,
)

__all__ = [
    "GameSpec",
    "NashReport",
    "SweepRow",
    "joint_state",
    "best_response",
    "nash_fixed_point",
    "eps_nash_check",
    "price_of_anarchy",
    "potential_game_counterexample",
    "regulation_sweep",
    "write_sweep_csv",
]


@dataclass
class GameSpec:
    """An n-player game: shared problem, per-player constraints, and the
    fixed-point stopping rule (L2 distance between successive strategies)."""

    problem: LogisticProblem
    players: list
    tol: float = 1e-6
    max_rounds: int = 100
    relaxation: float = 1.0  # damping on strategy updates; 1.0 = plain sweep
    # Inner stopping must sit well below tol or the sweep stalls on
    # best-response noise before reaching it.
    options: OptimizeOptions = dc_field(default_factory=lambda: OptimizeOptions(tol=1e-8))

    def __post_init__(self):
        if len(self.players) < 1:
            raise ValueError("need at least one player")
        if not (0.0 < self.relaxation <= 1.0):
            raise ValueError("relaxation must lie in (0, 1]")
        total = sum(c.V0 for c in self.players)
        if total >= self.problem.K0:
            raise ValueError(
                f"joint budget {total:g} must stay below mean(K) = {self.problem.K0:g}"
            )


@dataclass
class NashReport:
    strategies: list
    payoffs: list
    total_harvest: float
    rounds: int
    converged: bool
    eps_nash_certificate: float
    theta: Field

    def write_csv(self, path) -> None:
        g = self.theta.grid
        alphas = tuple(f"alpha_{i + 1}" for i in range(len(self.strategies)))
        write_table(path, g.axis_names + alphas + ("theta",),
                    grid_rows(g, *(s.values for s in self.strategies), self.theta.values))


def joint_state(problem: LogisticProblem, strategies: list) -> Field:
    """Steady state under the summed strategies."""
    total = strategies[0]
    for s in strategies[1:]:
        total = total + s
    if mean(total) >= problem.K0:
        raise ValueError("joint strategies exceed the resource mean")
    return solve_steady(problem, total).solution


def best_response(problem: LogisticProblem, others: list, c: StrategyConstraints,
                  options: OptimizeOptions | None = None) -> OptimizeReport:
    """Optimal reply against fixed opponents: the single-player problem with
    effective resources K - sum(others)."""
    K_eff = problem.K
    for s in others:
        K_eff = K_eff - s
    reduced = LogisticProblem.unchecked(problem.grid, K_eff, problem.mu)
    return optimize_single(reduced, c, options)


def nash_fixed_point(spec: GameSpec, initial: list | None = None) -> NashReport:
    """Sequential best-response iteration (player 1, then 2, ... per round).

    Each inner maximization is warm-started from the player's current
    strategy.  Stops when every player's update moved by at most tol in L2,
    or after max_rounds; either way the eps-Nash certificate is computed by
    one extra best-response pass.
    """
    n = len(spec.players)
    grid = spec.problem.grid
    if initial is None:
        strategies = [Field.constant(grid, c.V0) for c in spec.players]
    else:
        if len(initial) != n:
            raise ValueError("one initial strategy per player required")
        strategies = list(initial)

    converged = False
    rounds = 0
    for rounds in range(1, spec.max_rounds + 1):
        max_delta = 0.0
        for i in range(n):
            others = strategies[:i] + strategies[i + 1:]
            opts = replace(spec.options, starts=[strategies[i]])
            rep = best_response(spec.problem, others, spec.players[i], opts)
            updated = rep.alpha_star
            if spec.relaxation < 1.0:
                updated = spec.relaxation * updated + (1.0 - spec.relaxation) * strategies[i]
            max_delta = max(max_delta, norm_l2(updated - strategies[i]))
            strategies[i] = updated
        if max_delta <= spec.tol:
            converged = True
            break

    theta = joint_state(spec.problem, strategies)
    payoffs = [mean(s * theta) for s in strategies]
    certificate = eps_nash_check(spec, strategies, theta=theta)
    return NashReport(strategies, payoffs, float(sum(payoffs)), rounds, converged,
                      certificate, theta)


def eps_nash_check(spec: GameSpec, strategies: list, theta: Field | None = None) -> float:
    """Largest unilateral best-response improvement over the profile.

    The search per player uses the default multi-start set plus the player's
    current strategy, so the certificate is measured rather than assumed.
    The probe branches run on a bounded iteration budget; a capped search
    can only under-report improvements, never invent them.
    """
    if theta is None:
        theta = joint_state(spec.problem, strategies)
    worst = -math.inf
    grid = spec.problem.grid
    for i, c in enumerate(spec.players):
        others = strategies[:i] + strategies[i + 1:]
        starts = [Field.constant(grid, c.V0)]
        try:
            starts.append(bang_bang_strategy(grid, c.kappa, c.V0, "left"))
            starts.append(bang_bang_strategy(grid, c.kappa, c.V0, "right"))
        except ValueError:
            pass
        starts.append(strategies[i])
        opts = replace(spec.options, starts=starts,
                       max_iter=min(spec.options.max_iter, 150))
        rep = best_response(spec.problem, others, c, opts)
        current = mean(strategies[i] * theta)
        worst = max(worst, rep.J_value - current)
    return float(worst)


def price_of_anarchy(spec: GameSpec, nash: NashReport) -> tuple[float, float]:
    """(equilibrium total harvest, cooperative optimum).

    The cooperative benchmark pools the players: one strategy under the
    summed caps and budgets, inequality-constrained.
    """
    pooled = StrategyConstraints(
        kappa=sum(c.kappa for c in spec.players),
        V0=sum(c.V0 for c in spec.players),
        mode=INEQUALITY,
    )
    coop = optimize_single(spec.problem, pooled, spec.options if spec.options.starts is None
                           else OptimizeOptions())
    return nash.total_harvest, coop.J_value


def potential_game_counterexample(problem: LogisticProblem, V0: float = 1.0 / 3.0
                                  ) -> tuple[float, float]:
    """Certificate that the game admits no potential function.

    If a potential existed, mean((alpha_2 - alpha_1) * theta) would take the
    same value for every strategy pair; the identical pair gives 0, so the
    quantity must vanish everywhere.  Mirror-symmetric pairs also evaluate
    to zero by the x -> 1-x symmetry, so the second pair combines a
    left-concentrated indicator with a uniform strategy of the same volume,
    for which the quantity is genuinely nonzero.  Returns both values.
    """
    grid = problem.grid
    if grid.dim != 1:
        raise ValueError("counterexample is one-dimensional")
    if float(np.ptp(problem.K.values)) > 1e-12:
        raise ValueError("counterexample assumes constant resources")
    const = Field.constant(grid, V0)
    theta_sym = joint_state(problem, [const, const])
    value_sym = mean((const - const) * theta_sym)

    indicator = interval_strategy(grid, 1.0, V0, grid.lower[0])
    theta_asym = joint_state(problem, [indicator, const])
    value_asym = mean((const - indicator) * theta_asym)
    return float(value_sym), float(value_asym)


@dataclass
class SweepRow:
    V0: float
    total_harvest: float
    rounds: int
    converged: bool
    eps_certificate: float
    report: NashReport | None = None  # None when the inner solver failed


def regulation_sweep(problem: LogisticProblem, n_players: int, V0_list,
                     kappa: float | Sequence[float] = 1.0, mode: str = INEQUALITY,
                     tol: float = 1e-6, max_rounds: int = 100,
                     options: OptimizeOptions | None = None) -> list:
    """Total equilibrium harvest as a function of the volume regulation V0.

    ``kappa`` is one cap for all players or one per player.  Runs the
    fixed-point iteration from constant starts for each V0, serially (the
    work holds the GIL, so threads gain nothing), and records what it finds;
    only equilibria reachable from those starts are reported.  Non-converged
    entries are flagged, inner-solver failures are recorded as NaN rows
    rather than aborting the sweep.
    """
    kappas = [kappa] * n_players if np.isscalar(kappa) else list(kappa)
    if len(kappas) != n_players:
        raise ValueError("kappa needs one value or one per player")
    rows = []
    for V0 in V0_list:
        players = [StrategyConstraints(k, V0, mode) for k in kappas]
        spec = GameSpec(problem, players, tol=tol, max_rounds=max_rounds,
                        options=options or OptimizeOptions())
        try:
            report = nash_fixed_point(spec)
            rows.append(SweepRow(float(V0), report.total_harvest, report.rounds,
                                 report.converged, report.eps_nash_certificate, report))
        except SolverError:
            rows.append(SweepRow(float(V0), float("nan"), 0, False, float("nan")))
    return rows


def write_sweep_csv(rows: list, path) -> None:
    write_table(path, ("V0", "total_harvest", "rounds", "converged", "eps_certificate"),
                ((r.V0, r.total_harvest, r.rounds, r.converged, r.eps_certificate)
                 for r in rows))
