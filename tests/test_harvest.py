import numpy as np
import pytest

from fishgame.grid import Field, Grid, laplacian_apply, mean, norm_l2, norm_sup
from fishgame.elliptic import LogisticProblem, solve_linear_reaction, solve_steady
from fishgame.harvest import (
    EQUALITY,
    INEQUALITY,
    OptimizeOptions,
    StrategyConstraints,
    adjoint_state,
    bang_bang_strategy,
    fishing_output,
    gateaux_gradient,
    gateaux_second,
    interval_strategy,
    j0_argmax,
    j0_eval,
    j1_eval,
    j1_gradient,
    optimize_single,
    project,
)

RNG = np.random.default_rng(42)


def unit_problem(n=129, mu=1.0):
    g = Grid.interval(0, 1, n)
    return LogisticProblem(g, Field.constant(g, 1.0), mu)


def cosine_problem(n=129, mu=1.0, base=0.6, amp=0.3):
    g = Grid.interval(0, 1, n)
    K = Field.from_callable(g, lambda x: base + amp * np.cos(np.pi * x))
    return LogisticProblem(g, K, mu)


def random_strategy(grid, c, rng, center=None):
    center = c.V0 if center is None else center
    raw = Field(grid, center + 0.3 * c.kappa * rng.standard_normal(grid.shape))
    return project(raw, c)


def interior_strategy(grid, c, rng, pull=0.2):
    """Random feasible strategy pulled strictly inside the box so that
    two-sided finite-difference probes stay admissible."""
    alpha = random_strategy(grid, c, rng)
    return (1.0 - pull) * alpha + pull * Field.constant(grid, c.V0)


def zero_mean_direction(grid, rng):
    h = Field(grid, rng.standard_normal(grid.shape))
    return h - mean(h)


# ---------------------------------------------------------------- constraints


def test_constraints_validation():
    with pytest.raises(ValueError):
        StrategyConstraints(kappa=1.0, V0=1.5, mode=EQUALITY)  # V0 > kappa
    with pytest.raises(ValueError):
        StrategyConstraints(kappa=1.0, V0=0.0, mode=EQUALITY)
    with pytest.raises(ValueError):
        StrategyConstraints(kappa=1.0, V0=0.5, mode="both")


# ----------------------------------------------------------------- projection


def test_project_uniform_shift():
    g = Grid.interval(0, 1, 101)
    c = StrategyConstraints(1.0, 0.3, EQUALITY)
    out = project(Field.constant(g, 0.8), c)
    assert norm_sup(out - 0.3) < 1e-11  # tau = -0.5, no clipping active


def test_project_linear_against_bisection_oracle():
    # g(x) = x, kappa 1, V0 0.25: continuum tau = sqrt(0.5) - 1 ~ -0.29289
    g = Grid.interval(0, 1, 257)
    c = StrategyConstraints(1.0, 0.25, EQUALITY)
    f = Field.from_callable(g, lambda x: x)
    out = project(f, c)
    assert abs(mean(out) - 0.25) < 1e-10

    # independent coarse bisection on the same discrete map
    w = g.quad_weights()
    lo, hi = -1.0, 1.0
    for _ in range(80):
        tau = 0.5 * (lo + hi)
        if np.sum(w * np.clip(f.values + tau, 0, 1)) < 0.25:
            lo = tau
        else:
            hi = tau
    oracle = np.clip(f.values + 0.5 * (lo + hi), 0, 1)
    assert np.max(np.abs(out.values - oracle)) < 1e-10
    assert 0.5 * (lo + hi) == pytest.approx(np.sqrt(0.5) - 1.0, abs=1e-3)


def test_project_inequality_passthrough():
    g = Grid.interval(0, 1, 101)
    c = StrategyConstraints(1.0, 0.3, INEQUALITY)
    out = project(Field.constant(g, 0.2), c)
    assert norm_sup(out - 0.2) == 0.0


def test_project_feasibility_random():
    g = Grid.interval(0, 1, 101)
    for mode in (EQUALITY, INEQUALITY):
        c = StrategyConstraints(0.7, 0.2, mode)
        for _ in range(5):
            out = project(Field(g, RNG.standard_normal(g.shape)), c)
            assert np.min(out.values) >= 0.0
            assert np.max(out.values) <= 0.7 + 1e-12
            if mode == EQUALITY:
                assert abs(mean(out) - 0.2) < 1e-8
            else:
                assert mean(out) <= 0.2 + 1e-8


def bisection_projection(g, c):
    """The bisection on the additive threshold that project() used before
    its breakpoint search, kept as the reference."""
    vals = g.values
    clamped = np.clip(vals, 0.0, c.kappa)
    if c.mode == INEQUALITY and mean(Field(g.grid, clamped)) <= c.V0:
        return clamped
    w = g.grid.quad_weights()
    target = c.V0 * g.grid.volume
    lo = -float(np.max(vals))
    hi = c.kappa - float(np.min(vals))
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        tau = 0.5 * (lo + hi)
        if float(np.sum(w * np.clip(vals + tau, 0.0, c.kappa))) < target:
            lo = tau
        else:
            hi = tau
    return np.clip(vals + 0.5 * (lo + hi), 0.0, c.kappa)


def test_project_matches_bisection_reference():
    rng = np.random.default_rng(5)
    grids = [Grid.interval(0, 1, 129), Grid.interval(0, 2, 40),
             Grid.rectangle((0, 0), (1, 1), (33, 33)), Grid.rectangle((0, 0), (2, 1), (17, 9))]
    for grid in grids:
        for mode in (EQUALITY, INEQUALITY):
            for kappa in (0.05, 0.25, 1.0, 3.0):
                for share in (1e-3, 0.1, 0.48, 0.9):
                    c = StrategyConstraints(kappa, share * kappa, mode)
                    spread = rng.uniform(0.05, 2.0) * kappa
                    g = Field(grid, rng.normal(c.V0, spread, grid.shape))
                    out = project(g, c)
                    assert np.max(np.abs(out.values - bisection_projection(g, c))) <= 1e-12
                    if mode == EQUALITY or mean(out) > c.V0:
                        assert abs(mean(out) - c.V0) <= 1e-13


def test_project_edge_cases():
    for grid in (Grid.interval(0, 1, 129), Grid.rectangle((0, 0), (1, 1), (33, 33))):
        rng = np.random.default_rng(9)
        noisy = Field(grid, rng.standard_normal(grid.shape))
        # V0 == kappa: every node sits at the cap
        full = StrategyConstraints(0.4, 0.4, EQUALITY)
        assert norm_sup(project(noisy, full) - 0.4) <= 1e-12
        # constant input: all kinks tie, a uniform shift onto the budget
        c = StrategyConstraints(1.0, 0.3, EQUALITY)
        assert norm_sup(project(Field.constant(grid, 0.9), c) - 0.3) <= 1e-12
        # already feasible (a bang-bang strategy with a fractional node)
        feasible = bang_bang_strategy(grid, 1.0, 0.3, "left")
        assert norm_sup(project(feasible, c) - feasible) <= 1e-12
        # V0 close to 0
        tiny = StrategyConstraints(1.0, 1e-9, EQUALITY)
        out = project(noisy, tiny)
        assert np.max(np.abs(out.values - bisection_projection(noisy, tiny))) <= 1e-12
        assert np.min(out.values) >= 0.0
        assert abs(mean(out) - 1e-9) <= 1e-13


def test_bang_bang_exact_mean():
    g = Grid.interval(0, 1, 100)  # even count: interval endpoints off-node
    for side in ("left", "right"):
        b = bang_bang_strategy(g, 0.8, 0.3, side)
        assert abs(mean(b) - 0.3) < 1e-12
        assert np.max(b.values) <= 0.8 + 1e-12
    s = interval_strategy(g, 1.0, 0.25, 0.37)
    assert abs(mean(s) - 0.25) < 1e-12


# ----------------------------------------------------------------- functional


def test_fishing_output_constants():
    prob = unit_problem()
    g = prob.grid
    assert fishing_output(prob, Field.constant(g, 0.5)) == pytest.approx(0.25, abs=1e-10)
    assert fishing_output(prob, Field.constant(g, 0.0)) == pytest.approx(0.0, abs=1e-12)
    assert fishing_output(prob, Field.constant(g, 0.3)) == pytest.approx(0.21, abs=1e-10)


def test_adjoint_constant_cases():
    prob = unit_problem()
    g = prob.grid
    alpha = Field.constant(g, 0.5)
    theta = solve_steady(prob, alpha).solution
    p = adjoint_state(prob, alpha, theta)
    assert norm_sup(p - 1.0) < 1e-9

    # K = K0 constant, alpha = a: theta = K0 - a and p = a / (K0 - a),
    # verified by substituting back into the adjoint equation
    g2 = Grid.interval(0, 1, 65)
    prob2 = LogisticProblem(g2, Field.constant(g2, 0.8), 1.3)
    a = 0.3
    alpha2 = Field.constant(g2, a)
    theta2 = solve_steady(prob2, alpha2).solution
    assert norm_sup(theta2 - 0.5) < 1e-10
    p2 = adjoint_state(prob2, alpha2, theta2)
    expected = a / (0.8 - a)
    assert norm_sup(p2 - expected) < 1e-9
    residual = -1.3 * laplacian_apply(p2) - (prob2.K - alpha2 - 2.0 * theta2) * p2 - alpha2
    assert norm_sup(residual) < 1e-9


def test_adjoint_small_budget_below_one():
    prob = cosine_problem()
    g = prob.grid
    c = StrategyConstraints(0.5, 0.01, EQUALITY)
    for _ in range(3):
        alpha = random_strategy(g, c, RNG)
        theta = solve_steady(prob, alpha).solution
        p = adjoint_state(prob, alpha, theta)
        assert np.max(p.values) < 1.0
        assert np.min(p.values) > 0.0


def test_gradient_zero_at_interior_optimum():
    prob = unit_problem()
    g = prob.grid
    grad = gateaux_gradient(prob, Field.constant(g, 0.5))
    assert norm_sup(grad) < 1e-9


def test_gradient_finite_difference():
    prob = cosine_problem()
    g = prob.grid
    c = StrategyConstraints(0.5, 0.2, EQUALITY)
    rng = np.random.default_rng(7)
    eps = 1e-5
    for _ in range(3):
        alpha = interior_strategy(g, c, rng)
        h = zero_mean_direction(g, rng)
        lhs = mean(gateaux_gradient(prob, alpha) * h)
        fd = (fishing_output(prob, alpha + eps * h) - fishing_output(prob, alpha + (-eps) * h)) / (2 * eps)
        assert abs(lhs - fd) <= 1e-5


def test_gradient_positive_small_budget():
    prob = unit_problem()
    g = prob.grid
    c = StrategyConstraints(1.0, 0.015, INEQUALITY)
    alpha = random_strategy(g, c, np.random.default_rng(3))
    grad = gateaux_gradient(prob, alpha)
    assert np.min(grad.values) > 0.0


def test_second_derivative_cases():
    prob = cosine_problem()
    g = prob.grid
    assert gateaux_second(prob, Field.constant(g, 0.2), Field.constant(g, 0.0)) == 0.0

    rng = np.random.default_rng(11)
    c = StrategyConstraints(0.5, 0.2, EQUALITY)
    eps = 1e-4
    for _ in range(3):
        alpha = interior_strategy(g, c, rng)
        h = zero_mean_direction(g, rng)
        h = (1.0 / norm_sup(h)) * h
        dd = gateaux_second(prob, alpha, h)
        J0 = fishing_output(prob, alpha)
        fd2 = (fishing_output(prob, alpha + eps * h) - 2 * J0
               + fishing_output(prob, alpha + (-eps) * h)) / eps**2
        assert abs(dd - fd2) / max(abs(fd2), 1e-12) < 1e-3


def test_second_derivative_negative_small_budget():
    # 1D concavity regime: strictly negative quadratic form
    prob = unit_problem(65)
    g = prob.grid
    c = StrategyConstraints(1.0, 0.02, EQUALITY)
    alpha = Field.constant(g, 0.02)
    rng = np.random.default_rng(19)
    for _ in range(10):
        h = zero_mean_direction(g, rng)
        assert gateaux_second(prob, alpha, h) < 0.0


def test_monotone_regime_nested_strategies():
    prob = unit_problem(65)
    g = prob.grid
    c = StrategyConstraints(1.0, 0.02, INEQUALITY)
    rng = np.random.default_rng(23)
    for _ in range(5):
        hi = random_strategy(g, c, rng, center=0.015)
        scale = rng.uniform(0.2, 0.9)
        lo = scale * hi
        assert fishing_output(prob, lo) <= fishing_output(prob, hi) + 1e-10


def test_l1_stability_ratio_bounded():
    # ||theta_a - theta_a'||_1 / ||a - a'||_1^(1/3) stays bounded as the pair
    # distance shrinks: 20 pairs along one direction, scales descending from
    # O(1), so the first observation is the natural reference level
    prob = cosine_problem(65)
    g = prob.grid
    w = g.quad_weights()
    c = StrategyConstraints(0.6, 0.2, INEQUALITY)
    rng = np.random.default_rng(29)
    base = interior_strategy(g, c, rng)
    direction = Field(g, rng.standard_normal(g.shape))
    t_base = solve_steady(prob, base).solution
    ratios = []
    for scale in np.logspace(0, -4, 20):
        other = project(base + scale * direction, c)
        d_alpha = float(np.sum(w * np.abs(base.values - other.values)))
        if d_alpha < 1e-14:
            continue
        t_other = solve_steady(prob, other).solution
        d_theta = float(np.sum(w * np.abs(t_base.values - t_other.values)))
        ratios.append(d_theta / d_alpha ** (1.0 / 3.0))
    assert len(ratios) >= 15
    assert np.all(np.isfinite(ratios))
    assert max(ratios) < 10.0 * ratios[0]


# ------------------------------------------------------------------ optimizer


def check_stop_reason(rep):
    assert rep.stop_reason in ("pg_tol", "line_search_stalled", "max_iter")
    if rep.converged:
        assert rep.stop_reason == "pg_tol"


def test_optimize_constant_resources_interior():
    prob = unit_problem(257)
    rep = optimize_single(prob, StrategyConstraints(2.0, 0.6, INEQUALITY))
    check_stop_reason(rep)
    assert norm_sup(rep.alpha_star - 0.5) <= 1e-4
    assert rep.J_value == pytest.approx(0.25, abs=1e-5)
    assert not rep.saturated_volume


def test_optimize_small_equality_budget():
    prob = unit_problem(257)
    rep = optimize_single(prob, StrategyConstraints(1.0, 0.1, EQUALITY))
    check_stop_reason(rep)
    assert norm_sup(rep.alpha_star - 0.1) <= 1e-4
    assert rep.saturated_volume


def test_optimize_beats_brute_force_candidates():
    g = Grid.interval(0, 1, 33)
    K = Field.from_callable(g, lambda x: 0.55 + 0.35 * np.cos(np.pi * x))
    prob = LogisticProblem(g, K, 0.5)
    c = StrategyConstraints(0.8, 0.2, EQUALITY)
    rep = optimize_single(prob, c, OptimizeOptions(tol=1e-9, max_iter=2000))
    check_stop_reason(rep)

    rng = np.random.default_rng(101)
    best = -np.inf
    for _ in range(200):
        cand = random_strategy(g, c, rng, center=rng.uniform(0.0, 0.4))
        best = max(best, fishing_output(prob, cand))
    length = c.V0 / c.kappa
    for start in np.linspace(0.0, 1.0 - length, 40):
        cand = interval_strategy(g, c.kappa, c.V0, start)
        best = max(best, fishing_output(prob, cand))
    assert rep.J_value >= best - 1e-6


def test_optimize_kkt_level_set_structure():
    # at an equality optimum the switch function is flat where the strategy
    # is interior, above that level where alpha = kappa, below where alpha = 0
    g = Grid.interval(0, 1, 129)
    K = Field.from_callable(g, lambda x: 0.6 + 0.35 * np.cos(np.pi * x))
    prob = LogisticProblem(g, K, 0.1)
    c = StrategyConstraints(0.25, 0.12, EQUALITY)
    rep = optimize_single(prob, c, OptimizeOptions(tol=1e-10, max_iter=5000))
    check_stop_reason(rep)
    assert rep.iterations <= 1000
    assert rep.projected_gradient_norm <= 1e-7
    alpha = rep.alpha_star.values
    switch = rep.switch_function.values
    interior = (alpha > 1e-6) & (alpha < c.kappa - 1e-6)
    at_cap = alpha >= c.kappa - 1e-6
    at_zero = alpha <= 1e-6
    assert interior.any()
    level = float(np.mean(switch[interior]))
    assert np.max(np.abs(switch[interior] - level)) <= 1e-4
    if at_cap.any():
        assert np.min(switch[at_cap]) >= level - 1e-4
    if at_zero.any():
        assert np.max(switch[at_zero]) <= level + 1e-4


def test_optimize_multi_start_reports_all_branches():
    prob = unit_problem(65)
    rep = optimize_single(prob, StrategyConstraints(1.0, 0.3, EQUALITY))
    check_stop_reason(rep)
    labels = [name for name, _ in rep.start_values]
    assert labels == ["constant", "bang-left", "bang-right"]


def test_optimize_stop_reason_max_iter():
    rep = optimize_single(cosine_problem(65), StrategyConstraints(0.5, 0.2, EQUALITY),
                          OptimizeOptions(max_iter=1))
    assert rep.iterations == 1
    assert rep.stop_reason == "max_iter"
    assert not rep.converged


# -------------------------------------------------------- asymptotic problems


def test_j0_closed_forms():
    assert j0_eval(0.5, 1.0) == pytest.approx(0.25)
    assert j0_eval(0.0, 1.0) == 0.0
    assert j0_argmax(0.8, StrategyConstraints(2.0, 0.6, INEQUALITY)) == pytest.approx(0.4)
    assert j0_argmax(0.8, StrategyConstraints(2.0, 0.3, INEQUALITY)) == pytest.approx(0.3)
    assert j0_argmax(0.8, StrategyConstraints(2.0, 0.6, EQUALITY)) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        j0_eval(1.2, 1.0)


def test_j1_constant_configuration_vanishes():
    g = Grid.interval(0, 1, 129)
    K = Field.constant(g, 0.6)
    assert abs(j1_eval(g, K, Field.constant(g, 0.2), 0.2)) < 1e-12


def test_j1_critical_volume_one_third():
    g = Grid.interval(0, 1, 257)
    K = Field.from_callable(g, lambda x: 0.6 + 0.3 * np.cos(np.pi * x))
    K0 = mean(K)
    V0 = K0 / 3.0
    grad = j1_gradient(g, K, Field.constant(g, V0), V0, K0)
    assert norm_l2(grad - mean(grad)) <= 1e-8
    for dV in (0.1, -0.1):
        V = V0 + dV
        grad2 = j1_gradient(g, K, Field.constant(g, V), V, K0)
        assert norm_l2(grad2 - mean(grad2)) >= 1e-3


def test_j1_gradient_constant_resources():
    g = Grid.interval(0, 1, 129)
    K = Field.constant(g, 0.7)
    grad = j1_gradient(g, K, Field.constant(g, 0.3), 0.3)
    assert norm_sup(grad - mean(grad)) < 1e-12  # constant density


def test_j1_gradient_finite_difference():
    g = Grid.interval(0, 1, 129)
    K = Field.from_callable(g, lambda x: 0.5 + 0.3 * np.cos(np.pi * x))
    rng = np.random.default_rng(13)
    V0 = 0.25
    c = StrategyConstraints(1.0, V0, EQUALITY)
    for _ in range(3):
        alpha = random_strategy(g, c, rng)
        h = zero_mean_direction(g, rng)
        lhs = mean(j1_gradient(g, K, alpha, V0) * h)
        eps = 1e-6
        fd = (j1_eval(g, K, alpha + eps * h, V0) - j1_eval(g, K, alpha + (-eps) * h, V0)) / (2 * eps)
        assert abs(lhs - fd) <= 1e-6


def test_j1_right_end_bang_bang_dominates_for_decreasing_K():
    g = Grid.interval(0, 1, 257)
    K = Field.from_callable(g, lambda x: 2 * 0.5 * (1.0 - x))  # K0 = 0.5, non-increasing
    K0 = mean(K)
    kappa, V0 = 1.0, 0.3  # V0 > K0/2
    length = V0 / kappa
    right = j1_eval(g, K, interval_strategy(g, kappa, V0, 1.0 - length), V0, K0)
    for start in np.linspace(0.0, 1.0 - length, 60):
        val = j1_eval(g, K, interval_strategy(g, kappa, V0, start), V0, K0)
        assert right >= val - 1e-12


def test_j1_convex_quadratic_form_large_budget():
    # for V0 > K0/2 the second derivative C1 * mean(|grad v_dot|^2) is
    # positive for nonzero zero-mean directions
    from fishgame.elliptic import solve_zero_mean_poisson

    g = Grid.interval(0, 1, 129)
    K0, V0 = 0.5, 0.35
    M0 = K0 - V0
    C1 = 2.0 * (2.0 * V0 - K0) / M0**2
    rng = np.random.default_rng(31)
    for _ in range(5):
        h = zero_mean_direction(g, rng)
        v_dot = solve_zero_mean_poisson(g, -M0 * h)
        form = C1 * mean(v_dot * (-1.0 * laplacian_apply(v_dot)))
        assert form > 0.0


def test_j1_requires_matching_budget():
    g = Grid.interval(0, 1, 65)
    K = Field.constant(g, 0.6)
    with pytest.raises(ValueError):
        j1_eval(g, K, Field.constant(g, 0.25), 0.2)
