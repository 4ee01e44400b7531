"""Single-player fishing optimization.

The objective is the total fishing output J(alpha) = mean(alpha * theta)
where theta is the positive steady state of the logistic-diffusive equation
with harvesting rate alpha.  The gradient comes from the adjoint state p
(solving -mu*lap(p) - p*(K - alpha - 2*theta) = alpha): the L2 gradient
density is the switch function (1 - p) * theta.  Constrained ascent is a
projected gradient method with Barzilai-Borwein initial steps and Armijo
backtracking; the feasible set is a box [0, kappa] intersected with a
volume budget (equality or inequality), realized by clamping plus an exact
breakpoint search for the additive threshold.

The large-diffusivity expansion J = J0 + J1/mu + O(1/mu^2) is covered by
j0_eval/j0_argmax (closed forms) and j1_eval/j1_gradient, which work with a
zero-mean Neumann potential.  The J1 energy term is evaluated through the
discrete operator quadratic form so that the analytic gradient and finite
differences of j1_eval agree to solver precision.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import Field, Grid, grid_rows, integral, laplacian_apply, mean, norm_l2, write_table
from .elliptic import (
    LogisticProblem,
    solve_linear_reaction,
    solve_steady,
    solve_zero_mean_poisson,
)

__all__ = [
    "EQUALITY",
    "INEQUALITY",
    "StrategyConstraints",
    "OptimizeOptions",
    "OptimizeReport",
    "project",
    "bang_bang_strategy",
    "interval_strategy",
    "fishing_output",
    "adjoint_state",
    "gateaux_gradient",
    "gateaux_second",
    "optimize_single",
    "j0_eval",
    "j0_argmax",
    "j1_eval",
    "j1_gradient",
]

EQUALITY = "equality"
INEQUALITY = "inequality"

@dataclass(frozen=True)
class StrategyConstraints:
    """Pointwise cap kappa and volume budget V0 (in mean units).

    mode selects mean(alpha) = V0 (equality) or mean(alpha) <= V0
    (inequality).  V0 <= kappa is required, otherwise the equality class is
    empty on a unit-volume domain.
    """

    kappa: float
    V0: float
    mode: str = INEQUALITY

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if not (0.0 < self.V0 <= self.kappa):
            raise ValueError("need 0 < V0 <= kappa")
        if self.mode not in (EQUALITY, INEQUALITY):
            raise ValueError(f"unknown constraint mode {self.mode!r}")


def project(g: Field, c: StrategyConstraints) -> Field:
    """L2 projection of g onto the feasible strategies.

    Equality: alpha = clamp(g + tau, 0, kappa), with tau found exactly by a
    breakpoint search (Kiwiel 2008) on the piecewise linear budget map
    tau -> mean(clamp(g + tau, 0, kappa)).  Inequality: the plain clamp when
    it already fits the budget, the equality projection otherwise.
    """
    w = g.grid.quad_weights()
    clamped = np.clip(g.values, 0.0, c.kappa)
    if c.mode == INEQUALITY and float(np.sum(w * clamped)) / g.grid.volume <= c.V0:
        return Field(g.grid, clamped)
    v, w = g.values.reshape(-1), w.reshape(-1)
    # Node i turns active at kink -v_i (slope +w_i) and capped at kappa - v_i
    # (slope -w_i, offset +w_i*kappa); the map is 0 at the first kink, so k >= 0.
    kinks = np.concatenate((-v, c.kappa - v))
    order = np.argsort(kinks, kind="stable")
    slope = np.cumsum(np.concatenate((w, -w))[order])
    offset = np.cumsum(np.concatenate((w * v, w * (c.kappa - v)))[order])
    target = c.V0 * g.grid.volume
    k = min(int(np.searchsorted(slope * kinks[order] + offset, target)), len(kinks) - 1) - 1
    tau = (target - offset[k]) / slope[k]
    return Field(g.grid, np.clip(v + tau, 0.0, c.kappa))


def interval_strategy(grid: Grid, kappa: float, V0: float, start: float,
                      reverse: bool = False) -> Field:
    """Bang-bang strategy kappa * indicator filled from x = start along the
    first axis, with a fractional edge node so mean(alpha) == V0 exactly at
    the trapezoid quadrature.  ``reverse`` fills towards smaller x instead.
    """
    xs = grid.axis(0)
    wx = grid.axis_weights(0)
    length = grid.upper[0] - grid.lower[0]
    target = V0 * length
    order = np.arange(len(xs))
    if reverse:
        eligible = list(order[xs <= start][::-1])
        spill = order[xs > start]
        if len(spill):
            eligible.append(spill[0])  # node straddling the anchor takes any remainder
    else:
        eligible = list(order[xs >= start])
        spill = order[xs < start]
        if len(spill):
            eligible.append(spill[-1])
    profile = np.zeros(len(xs))
    remaining = target
    for i in eligible:
        if remaining <= 0:
            break
        take = min(kappa, remaining / wx[i])
        profile[i] = take
        remaining -= take * wx[i]
    if remaining > 1e-12 * max(target, 1.0):
        raise ValueError("interval does not fit: start too close to the domain end")
    if grid.dim == 1:
        return Field(grid, profile)
    return Field(grid, np.repeat(profile[:, None], grid.shape[1], axis=1))


def bang_bang_strategy(grid: Grid, kappa: float, V0: float, side: str = "left") -> Field:
    """kappa * indicator anchored at a domain end, exact mean V0."""
    if side == "left":
        return interval_strategy(grid, kappa, V0, grid.lower[0])
    if side == "right":
        return interval_strategy(grid, kappa, V0, grid.upper[0], reverse=True)
    raise ValueError(f"unknown side {side!r}")


def _check_admissible(problem: LogisticProblem, alpha: Field) -> None:
    if np.min(alpha.values) < -1e-14:
        raise ValueError("alpha must be nonnegative")
    if mean(alpha) >= mean(problem.K):
        raise ValueError("alpha inadmissible: mean(alpha) >= mean(K)")


def fishing_output(problem: LogisticProblem, alpha: Field,
                   theta: Field | None = None) -> float:
    """Total fishing output mean(alpha * theta_alpha).  Pass theta to reuse
    an already-converged state."""
    if theta is None:
        _check_admissible(problem, alpha)
        theta = solve_steady(problem, alpha).solution
    return mean(alpha * theta)


def adjoint_state(problem: LogisticProblem, alpha: Field, theta: Field) -> Field:
    """Adjoint p solving -mu*lap(p) - p*(K - alpha - 2*theta) = alpha."""
    potential = problem.K - alpha - 2.0 * theta
    return solve_linear_reaction(problem.grid, problem.mu, potential, alpha)


def gateaux_gradient(problem: LogisticProblem, alpha: Field,
                     theta: Field | None = None) -> Field:
    """L2 gradient density (1 - p) * theta of the fishing output."""
    if theta is None:
        _check_admissible(problem, alpha)
        theta = solve_steady(problem, alpha).solution
    p = adjoint_state(problem, alpha, theta)
    return (1.0 - p) * theta


def gateaux_second(problem: LogisticProblem, alpha: Field, h: Field) -> float:
    """Second Gateaux derivative of the fishing output along (h, h).

    Solves the sensitivity equation for theta_dot and evaluates
    2*(mean((1-p) h theta_dot) - mean(p theta_dot^2)).
    """
    _check_admissible(problem, alpha)
    theta = solve_steady(problem, alpha).solution
    p = adjoint_state(problem, alpha, theta)
    potential = problem.K - alpha - 2.0 * theta
    theta_dot = solve_linear_reaction(problem.grid, problem.mu, potential, -1.0 * h * theta)
    return 2.0 * (mean((1.0 - p) * h * theta_dot) - mean(p * theta_dot * theta_dot))


@dataclass
class OptimizeOptions:
    tol: float = 1e-7
    max_iter: int = 500
    step_init: float = 1.0
    armijo_shrink: float = 0.5
    armijo_c: float = 1e-4
    # None = the default three starts (constant, bang-bang left/right);
    # a list of Fields overrides them (e.g. warm starts in game sweeps).
    starts: list | None = None


@dataclass
class OptimizeReport:
    alpha_star: Field
    J_value: float
    switch_function: Field
    theta_star: Field
    iterations: int
    projected_gradient_norm: float
    saturated_volume: bool
    converged: bool
    # "pg_tol" (unit-step projected gradient <= tol, i.e. converged),
    # "line_search_stalled" (no trial step raised J) or "max_iter"
    stop_reason: str
    start_values: list = dc_field(default_factory=list)

    def write_csv(self, path) -> None:
        """Strategy/state/switch columns plus a one-line summary file
        alongside (same stem, .summary.csv)."""
        g = self.alpha_star.grid
        write_table(path, g.axis_names + ("alpha", "theta", "switch"),
                    grid_rows(g, self.alpha_star.values, self.theta_star.values,
                              self.switch_function.values))
        stem, _ = os.path.splitext(path)
        write_table(stem + ".summary.csv",
                    ("J", "iterations", "saturated_volume", "projected_gradient_norm",
                     "converged"),
                    [(self.J_value, self.iterations, self.saturated_volume,
                      self.projected_gradient_norm, self.converged)])


def _default_starts(problem: LogisticProblem, c: StrategyConstraints) -> list:
    grid = problem.grid
    # In inequality mode the budget may exceed what the population supports;
    # seed below the extinction line and let the ascent find the optimum.
    V_start = min(c.V0, 0.9 * problem.K0)
    starts = [("constant", Field.constant(grid, V_start))]
    try:
        starts.append(("bang-left", bang_bang_strategy(grid, c.kappa, V_start, "left")))
        starts.append(("bang-right", bang_bang_strategy(grid, c.kappa, V_start, "right")))
    except ValueError:
        pass  # V0 close to kappa: indicators degenerate to the constant
    return starts


def _admissible_start(problem: LogisticProblem, c: StrategyConstraints,
                      start: Field) -> Field:
    alpha = project(start, c)
    m = mean(alpha)
    ceiling = 0.95 * problem.K0
    if c.mode == INEQUALITY and m > ceiling > 0:
        alpha = (ceiling / m) * alpha
    return alpha


def _ascend(problem: LogisticProblem, c: StrategyConstraints, alpha0: Field,
            opts: OptimizeOptions):
    """Projected gradient ascent from one start.  Returns (alpha, J, theta,
    iterations, converged, stop_reason).

    Each line search starts from the Barzilai-Borwein step s.s / s.y of the
    last move (spectral projected gradient, Birgin, Martinez & Raydan 2000)
    and backtracks monotonically to the Armijo condition.

    States along the line search are solved well below the default residual
    tolerance: the Armijo comparison resolves true increases of order g^2,
    so the state noise floor caps the reachable gradient accuracy at about
    sqrt(noise), and 1e-12 keeps that floor below the game tolerances.
    """
    steady_tol = 1e-12
    alpha = _admissible_start(problem, c, alpha0)
    theta = solve_steady(problem, alpha, tol=steady_tol).solution
    J = mean(alpha * theta)
    stop_reason = "max_iter"
    previous = None  # (alpha, g) at the last iterate
    it = 0
    for it in range(1, opts.max_iter + 1):
        g = gateaux_gradient(problem, alpha, theta)
        unit = project(alpha + g, c)
        if norm_l2(alpha - unit) <= opts.tol:
            stop_reason = "pg_tol"
            break
        step = opts.step_init
        if previous is not None:
            s = alpha - previous[0]
            sy = integral(s * (previous[1] - g))
            if sy > 0:
                step = min(max(integral(s * s) / sy, 1e-10), 1e10)
        previous = (alpha, g)
        accepted = False
        while step > 1e-14:
            cand = unit if step == 1.0 else project(alpha + step * g, c)
            drift = integral(g * (cand - alpha))
            if drift <= 0:
                break
            if mean(cand) >= mean(problem.K):
                step *= opts.armijo_shrink  # stepped over the extinction line
                continue
            theta_c = solve_steady(problem, cand, tol=steady_tol, initial=theta).solution
            J_c = mean(cand * theta_c)
            if J_c >= J + opts.armijo_c * drift:
                alpha, theta, J = cand, theta_c, J_c
                accepted = True
                break
            step *= opts.armijo_shrink
        if not accepted:
            stop_reason = "line_search_stalled"
            break
    return alpha, J, theta, it, stop_reason == "pg_tol", stop_reason


def optimize_single(problem: LogisticProblem, c: StrategyConstraints,
                    options: OptimizeOptions | None = None) -> OptimizeReport:
    """Maximize the fishing output over the constrained strategies.

    Multi-start by default (constant and the two end-anchored bang-bang
    strategies) because the large-budget regime is nonconcave; the best
    local optimum found is reported, with per-start values retained in
    ``start_values`` rather than any claim of global optimality.
    """
    opts = options or OptimizeOptions()
    if c.mode == EQUALITY and c.V0 >= problem.K0:
        raise ValueError("equality budget must stay below mean(K) for the state to exist")
    if problem.K0 <= 0:
        raise ValueError("mean resources must be positive")
    if opts.starts is None:
        starts = _default_starts(problem, c)
    else:
        starts = [(f"start-{i}", s) for i, s in enumerate(opts.starts)]

    best = None
    start_values = []
    for label, s0 in starts:
        alpha, J, theta, iters, conv, stop_reason = _ascend(problem, c, s0, opts)
        start_values.append((label, J))
        if best is None or J > best[1]:
            best = (alpha, J, theta, iters, conv, stop_reason)
    alpha, J, theta, iters, conv, stop_reason = best
    switch = gateaux_gradient(problem, alpha, theta)
    pg_norm = norm_l2(alpha - project(alpha + switch, c))
    saturated = abs(mean(alpha) - c.V0) <= 1e-8
    return OptimizeReport(alpha, J, switch, theta, iters, pg_norm, saturated, conv,
                          stop_reason, start_values)


def j0_eval(V: float, K0: float) -> float:
    """Leading-order output in the large-diffusivity limit: V * (K0 - V)."""
    if not (0.0 <= V <= K0):
        raise ValueError("need 0 <= V <= K0")
    return V * (K0 - V)


def j0_argmax(K0: float, c: StrategyConstraints) -> float:
    """Maximizing volume of j0 under the budget: the parabola vertex K0/2
    capped by V0 (inequality), or the full budget (equality)."""
    if c.mode == EQUALITY:
        return c.V0
    return min(c.V0, K0 / 2.0)


def _hat_v(grid: Grid, K: Field, alpha: Field, V0: float, K0: float) -> tuple[Field, float]:
    M0 = K0 - V0
    if M0 <= 0:
        raise ValueError("need V0 < K0")
    rhs = M0 * (K - alpha - M0)
    if abs(mean(alpha) - V0) > 1e-9:
        raise ValueError(f"mean(alpha) = {mean(alpha):g} differs from V0 = {V0:g} "
                         "(equality class required)")
    return solve_zero_mean_poisson(grid, rhs), M0


def j1_eval(grid: Grid, K: Field, alpha: Field, V0: float, K0: float | None = None) -> float:
    """First-order output correction in the large-diffusivity limit.

    Solves -lap(v) = M0*(K - alpha - M0) with zero mean (M0 = K0 - V0) and
    evaluates ((2*V0 - K0)/M0^2) * mean(|grad v|^2) + mean(K*v).  The energy
    uses the operator form mean(v * (-lap v)), which is what makes the
    analytic gradient below exact at the discrete level.
    """
    if K0 is None:
        K0 = mean(K)
    v, M0 = _hat_v(grid, K, alpha, V0, K0)
    energy = mean(v * (-1.0 * laplacian_apply(v)))
    return ((2.0 * V0 - K0) / M0**2) * energy + mean(K * v)


def j1_gradient(grid: Grid, K: Field, alpha: Field, V0: float,
                K0: float | None = None) -> Field:
    """L2 gradient density of j1_eval at alpha (zero-mean perturbations).

    With q the zero-mean solution of -lap(q) = K - K0 and C1 the energy
    coefficient 2*(2*V0 - K0)/M0^2, the density is -C1*M0*v - M0*q; at a
    constant strategy it is constant exactly when K is constant or
    V0 = K0/3.
    """
    if K0 is None:
        K0 = mean(K)
    v, M0 = _hat_v(grid, K, alpha, V0, K0)
    q = solve_zero_mean_poisson(grid, K - K0)
    C1 = 2.0 * (2.0 * V0 - K0) / M0**2
    return -C1 * M0 * v - M0 * q
