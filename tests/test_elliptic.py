import numpy as np
import pytest

from fishgame.grid import Field, Grid, laplacian_apply, mean, norm_sup
from fishgame.elliptic import (
    LogisticProblem,
    SolverError,
    principal_eigenvalue,
    solve_linear_reaction,
    solve_steady,
    solve_zero_mean_poisson,
)


def cosine_resources(grid, base=0.5, amp=0.4):
    return Field.from_callable(grid, lambda x: base + amp * np.cos(np.pi * x))


# Frozen oracle: mean of the steady state for K = 1/2 + (2/5)cos(pi x),
# alpha = 0, mu = 1, computed once on a 4097-node grid by the same Newton
# solve and checked below for mesh convergence against it.
_REFERENCE_GRID = Grid.interval(0, 1, 4097)
_REFERENCE_THETA = solve_steady(
    LogisticProblem(_REFERENCE_GRID, cosine_resources(_REFERENCE_GRID), 1.0),
    Field.constant(_REFERENCE_GRID, 0.0),
).solution


def test_problem_validation():
    g = Grid.interval(0, 1, 17)
    with pytest.raises(ValueError):
        LogisticProblem(g, Field.constant(g, 1.5), 1.0)
    with pytest.raises(ValueError):
        LogisticProblem(g, Field.constant(g, 0.5), -1.0)
    # unchecked admits out-of-class resources (effective K in games)
    p = LogisticProblem.unchecked(g, Field.constant(g, 1.4), 1.0)
    assert p.K0 == pytest.approx(1.4)


def test_steady_constant_root():
    g = Grid.interval(0, 1, 129)
    prob = LogisticProblem(g, Field.constant(g, 1.0), 1.0)
    rep = solve_steady(prob, Field.constant(g, 0.5))
    assert rep.converged and rep.positive_branch
    assert norm_sup(rep.solution - 0.5) < 1e-10

    prob2 = LogisticProblem(g, Field.constant(g, 0.7), 2.0)
    rep2 = solve_steady(prob2, Field.constant(g, 0.0))
    assert norm_sup(rep2.solution - 0.7) < 1e-10


def test_steady_matches_fine_grid_reference():
    g = Grid.interval(0, 1, 257)
    prob = LogisticProblem(g, cosine_resources(g), 1.0)
    rep = solve_steady(prob, Field.constant(g, 0.0))
    assert abs(mean(rep.solution) - mean(_REFERENCE_THETA)) < 1e-4


def test_steady_mesh_convergence_second_order():
    errs = []
    for n in (129, 257):
        g = Grid.interval(0, 1, n)
        rep = solve_steady(LogisticProblem(g, cosine_resources(g), 1.0),
                           Field.constant(g, 0.0))
        stride = (_REFERENCE_GRID.shape[0] - 1) // (n - 1)
        errs.append(np.max(np.abs(rep.solution.values - _REFERENCE_THETA.values[::stride])))
    assert errs[0] / errs[1] > 3.0


def test_steady_admissibility_errors():
    g = Grid.interval(0, 1, 33)
    prob = LogisticProblem(g, Field.constant(g, 0.5), 1.0)
    with pytest.raises(ValueError):
        solve_steady(prob, Field.constant(g, 0.6))
    with pytest.raises(ValueError):
        solve_steady(prob, Field.constant(g, -0.1))


def test_steady_maximum_principle_bounds():
    g = Grid.interval(0, 1, 129)
    rng = np.random.default_rng(11)
    K = cosine_resources(g)
    prob = LogisticProblem(g, K, 0.5)
    for _ in range(3):
        alpha = Field(g, np.clip(0.1 + 0.05 * rng.standard_normal(g.shape), 0.0, 0.3))
        rep = solve_steady(prob, alpha)
        theta = rep.solution.values
        assert np.min(theta) >= 0.0
        assert np.max(theta) <= np.max(K.values) + np.max(alpha.values) + 1e-9


def test_linear_reaction_constant():
    g = Grid.interval(0, 1, 65)
    w = solve_linear_reaction(g, 1.0, Field.constant(g, -2.0), Field.constant(g, 3.0))
    assert norm_sup(w - 1.5) < 1e-11
    # the adjoint-forced constant case: potential -1/2, rhs 1/2 -> w = 1
    w2 = solve_linear_reaction(g, 0.7, Field.constant(g, -0.5), Field.constant(g, 0.5))
    assert norm_sup(w2 - 1.0) < 1e-11


def test_linear_reaction_residual_oracle():
    g = Grid.interval(0, 1, 129)
    pot = Field.from_callable(g, lambda x: -1.0 - 0.3 * np.sin(2 * np.pi * x))
    rhs = Field.from_callable(g, lambda x: np.cos(np.pi * x) + 0.2)
    w = solve_linear_reaction(g, 0.8, pot, rhs)
    residual = -0.8 * laplacian_apply(w) - pot * w - rhs
    assert norm_sup(residual) < 1e-10


def test_linear_reaction_1d_singular_neumann():
    # zero potential leaves the pure-Neumann operator, whose constant null
    # space makes the tridiagonal elimination meet an exact zero pivot
    for n, mu in ((9, 1.0), (129, 0.05), (2001, 1e-3)):
        g = Grid.interval(0, 1, n)
        with pytest.raises(SolverError, match="zero pivot"):
            solve_linear_reaction(g, mu, Field.constant(g, 0.0), Field.constant(g, 1.0))


def test_linear_reaction_2d_cg_path():
    g = Grid.rectangle((0, 0), (1, 1), (25, 25))
    pot = Field.constant(g, -1.0)
    rhs = Field.from_callable(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
    w = solve_linear_reaction(g, 1.0, pot, rhs)
    residual = -1.0 * laplacian_apply(w) - pot * w - rhs
    assert norm_sup(residual) < 1e-9


def test_zero_mean_poisson_examples():
    g = Grid.interval(0, 1, 257)
    v0 = solve_zero_mean_poisson(g, Field.constant(g, 0.0))
    assert norm_sup(v0) < 1e-13

    rhs = Field.from_callable(g, lambda x: np.cos(np.pi * x))
    v = solve_zero_mean_poisson(g, rhs)
    exact = Field.from_callable(g, lambda x: np.cos(np.pi * x) / np.pi**2)
    assert norm_sup(v - exact) < 5e-6
    assert abs(mean(v)) < 1e-12

    rhs2 = Field.from_callable(g, lambda x: np.cos(2 * np.pi * x))
    v2 = solve_zero_mean_poisson(g, rhs2)
    exact2 = Field.from_callable(g, lambda x: np.cos(2 * np.pi * x) / (4 * np.pi**2))
    assert norm_sup(v2 - exact2) < 5e-6


def test_zero_mean_poisson_rejects_incompatible_rhs():
    g = Grid.interval(0, 1, 33)
    with pytest.raises(ValueError):
        solve_zero_mean_poisson(g, Field.constant(g, 0.2))


def test_eigenvalue_constant_potential():
    g = Grid.interval(0, 1, 129)
    lam, phi = principal_eigenvalue(g, 1.0, Field.constant(g, 0.7))
    assert lam == pytest.approx(-0.7, abs=1e-10)
    assert norm_sup(phi - 1.0) < 1e-8


def test_eigenvalue_structure_at_steady_state():
    g = Grid.interval(0, 1, 129)
    K = cosine_resources(g)
    prob = LogisticProblem(g, K, 1.0)
    alpha = Field.constant(g, 0.05)
    theta = solve_steady(prob, alpha).solution
    lam0, phi0 = principal_eigenvalue(g, 1.0, K - alpha - theta)
    assert abs(lam0) < 1e-8  # theta itself is the principal eigenfunction
    assert np.min(phi0.values) > 0
    lam1, _ = principal_eigenvalue(g, 1.0, K - alpha - 2.0 * theta)
    assert lam1 > 0


def test_eigenvalue_monotone_in_potential():
    g = Grid.interval(0, 1, 65)
    rng = np.random.default_rng(5)
    for _ in range(5):
        base = Field(g, rng.standard_normal(g.shape) * 0.3)
        bump = Field(g, np.abs(rng.standard_normal(g.shape)) * 0.2 + 1e-3)
        lam_low, _ = principal_eigenvalue(g, 0.8, base)
        lam_high, _ = principal_eigenvalue(g, 0.8, base + bump)
        assert lam_low > lam_high


def test_eigenvalue_rayleigh_consistency():
    g = Grid.interval(0, 1, 65)
    pot = Field.from_callable(g, lambda x: 0.4 * np.cos(3 * np.pi * x))
    mu = 0.6
    lam, phi = principal_eigenvalue(g, mu, pot)
    num = mu * mean(phi * (-1.0 * laplacian_apply(phi))) - mean(pot * phi * phi)
    den = mean(phi * phi)
    assert abs(lam - num / den) < 1e-8
    assert den == pytest.approx(1.0, abs=1e-10)  # mean-square normalization


def test_zero_branch_flagged_when_no_positive_solution():
    # mean(alpha) just below mean(K) but lambda(K - alpha) >= 0: heavy local
    # overfishing kills the population even with an admissible budget.
    g = Grid.interval(0, 1, 129)
    K = Field.constant(g, 0.2)
    prob = LogisticProblem(g, K, 5.0)  # strong mixing
    alpha = Field.from_callable(g, lambda x: 0.19 + 0.0 * x)
    rep = solve_steady(prob, alpha)
    # here a positive branch still exists (constant root); force extinction
    assert rep.positive_branch
    lam, _ = principal_eigenvalue(g, 5.0, K - alpha)
    assert lam < 0

    # with mu large and alpha eating all of K except a sliver, the principal
    # eigenvalue goes nonnegative on a short domain: use K=alpha on most of it
    g2 = Grid.interval(0, 1, 257)
    K2 = Field.constant(g2, 0.2)
    alpha2 = Field(g2, np.where(g2.axis(0) < 0.9, 0.2, 0.13))
    prob2 = LogisticProblem(g2, K2, 50.0)
    rep2 = solve_steady(prob2, alpha2)
    if not rep2.positive_branch:
        assert norm_sup(rep2.solution) == 0.0
        lam2, _ = principal_eigenvalue(g2, 50.0, K2 - alpha2)
        assert lam2 >= -1e-12
    else:
        assert np.min(rep2.solution.values) >= 0.0
