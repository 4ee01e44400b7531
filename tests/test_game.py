import numpy as np
import pytest

from fishgame.grid import Field, Grid, mean, norm_l2, norm_sup
from fishgame.elliptic import LogisticProblem
from fishgame.harvest import (
    EQUALITY,
    INEQUALITY,
    OptimizeOptions,
    StrategyConstraints,
    optimize_single,
    project,
)
from fishgame.game import (
    GameSpec,
    best_response,
    eps_nash_check,
    joint_state,
    nash_fixed_point,
    potential_game_counterexample,
    price_of_anarchy,
    regulation_sweep,
    write_sweep_csv,
)


def unit_problem(n=65, mu=1.0):
    g = Grid.interval(0, 1, n)
    return LogisticProblem(g, Field.constant(g, 1.0), mu)


def test_spec_validation():
    prob = unit_problem()
    players = [StrategyConstraints(1.0, 0.6, EQUALITY)] * 2
    with pytest.raises(ValueError):
        GameSpec(prob, players)  # joint budget 1.2 >= K0


def test_joint_state_constants():
    prob = unit_problem()
    g = prob.grid
    third = Field.constant(g, 1.0 / 3.0)
    theta = joint_state(prob, [third, third])
    assert norm_sup(theta - 1.0 / 3.0) < 1e-10

    zero = Field.constant(g, 0.0)
    assert norm_sup(joint_state(prob, [zero, zero]) - 1.0) < 1e-9

    quarter = Field.constant(g, 0.25)
    assert norm_sup(joint_state(prob, [quarter] * 3) - 0.25) < 1e-10


def test_best_response_constant_cases():
    prob = unit_problem()
    g = prob.grid
    c = StrategyConstraints(2.0, 0.5, INEQUALITY)
    rep = best_response(prob, [Field.constant(g, 1.0 / 3.0)], c)
    assert norm_sup(rep.alpha_star - 1.0 / 3.0) < 1e-6  # (K0 - 1/3)/2

    rep2 = best_response(prob, [Field.constant(g, 0.5)], c)
    assert norm_sup(rep2.alpha_star - 0.25) < 1e-6  # (K0 - 1/2)/2


def test_best_response_zero_opponents_is_identity():
    prob = unit_problem()
    g = prob.grid
    c = StrategyConstraints(1.0, 0.2, EQUALITY)
    opts = OptimizeOptions(tol=1e-8)
    solo = optimize_single(prob, c, opts)
    reduced = best_response(prob, [Field.constant(g, 0.0)], c, opts)
    assert np.array_equal(solo.alpha_star.values, reduced.alpha_star.values)


def test_nash_equality_third_fixed_point():
    prob = unit_problem()
    players = [StrategyConstraints(1.0, 1.0 / 3.0, EQUALITY)] * 2
    spec = GameSpec(prob, players, tol=1e-6, max_rounds=50)
    rep = nash_fixed_point(spec)
    assert rep.converged
    for s, p in zip(rep.strategies, rep.payoffs):
        assert norm_sup(s - 1.0 / 3.0) < 1e-8
        assert p == pytest.approx(1.0 / 9.0, abs=1e-8)
    # identical players, symmetric start: sequential sweep returns identical
    # fields exactly in this budget-saturated case
    assert np.array_equal(rep.strategies[0].values, rep.strategies[1].values)


def test_nash_tragedy_of_commons():
    prob = unit_problem()
    totals = []
    for n in (1, 2, 3, 4):
        players = [StrategyConstraints(2.0, 0.9 / n, INEQUALITY) for _ in range(n)]
        spec = GameSpec(prob, players, tol=1e-6, max_rounds=100)
        rep = nash_fixed_point(spec)
        assert rep.converged
        expected = 1.0 / (n + 1)
        assert max(norm_sup(s - expected) for s in rep.strategies) < 1e-4
        assert rep.total_harvest == pytest.approx(n / (n + 1) ** 2, abs=1e-4)
        totals.append(rep.total_harvest)
        # payoff consistency: sum of payoffs equals the joint-harvest integral
        theta = rep.theta
        total_alpha = rep.strategies[0]
        for s in rep.strategies[1:]:
            total_alpha = total_alpha + s
        assert abs(sum(rep.payoffs) - mean(total_alpha * theta)) < 1e-12
    assert all(a > b for a, b in zip(totals, totals[1:]))
    assert all(t <= 0.25 + 1e-12 for t in totals)


def test_nash_asymmetric_caps_structural():
    # kappa_1 >> kappa_2 at low diffusivity: the sweep runs (convergence is
    # an open question at low mu and is not asserted), strategies are
    # distinct, and the high-cap player concentrates harder somewhere.
    from fishgame.harvest import bang_bang_strategy

    g = Grid.interval(0, 1, 33)
    prob = LogisticProblem(g, Field.constant(g, 1.0), 0.05)
    players = [StrategyConstraints(4.0, 0.35, EQUALITY),
               StrategyConstraints(0.4, 0.35, EQUALITY)]
    spec = GameSpec(prob, players, tol=1e-5, max_rounds=12,
                    options=OptimizeOptions(tol=1e-7, max_iter=250))
    init = [bang_bang_strategy(g, 4.0, 0.35, "left"), Field.constant(g, 0.35)]
    rep = nash_fixed_point(spec, init)
    assert rep.rounds <= 12
    assert norm_l2(rep.strategies[0] - rep.strategies[1]) > 1e-3
    assert np.max(rep.strategies[0].values) > np.max(rep.strategies[1].values)
    # the profile found is still a near-equilibrium in the eps sense
    assert rep.eps_nash_certificate < 1e-4


def test_eps_nash_certificate_values():
    prob = unit_problem()
    g = prob.grid
    players = [StrategyConstraints(1.0, 1.0 / 3.0, EQUALITY)] * 2
    spec = GameSpec(prob, players, tol=1e-6)
    exact = [Field.constant(g, 1.0 / 3.0)] * 2
    assert eps_nash_check(spec, exact) <= 1e-7

    rng = np.random.default_rng(4)
    noise = Field(g, 0.05 * rng.standard_normal(g.shape))
    perturbed = [project(exact[0] + (noise - mean(noise)), players[0]),
                 exact[1]]
    assert eps_nash_check(spec, perturbed) > 0.0


def test_price_of_anarchy():
    prob = unit_problem()
    players = [StrategyConstraints(1.0, 1.0 / 3.0, EQUALITY)] * 2
    spec = GameSpec(prob, players, tol=1e-6)
    rep = nash_fixed_point(spec)
    nash_total, coop = price_of_anarchy(spec, rep)
    assert coop == pytest.approx(0.25, abs=1e-5)  # pooled budget 2/3 > 1/2
    assert nash_total == pytest.approx(2.0 / 9.0, abs=1e-6)
    assert nash_total <= coop + 1e-9

    # single player: the "game" and the cooperative problem coincide
    solo_players = [StrategyConstraints(1.0, 0.4, INEQUALITY)]
    solo = GameSpec(prob, solo_players, tol=1e-7)
    rep1 = nash_fixed_point(solo)
    t1, c1 = price_of_anarchy(solo, rep1)
    assert t1 == pytest.approx(c1, abs=1e-6)


def test_potential_game_counterexample():
    g = Grid.interval(0, 1, 257)
    prob = LogisticProblem(g, Field.constant(g, 1.0), 0.05)
    sym, asym = potential_game_counterexample(prob, 1.0 / 3.0)
    assert abs(sym) < 1e-10
    assert abs(asym) > 1e-4

    # the certificate fades as diffusion homogenizes the state
    mags = []
    for mu in (0.05, 0.5, 5.0):
        p = LogisticProblem(g, Field.constant(g, 1.0), mu)
        mags.append(abs(potential_game_counterexample(p, 1.0 / 3.0)[1]))
    assert mags[0] > mags[1] > mags[2]


def test_potential_counterexample_preconditions():
    g2 = Grid.rectangle((0, 0), (1, 1), (9, 9))
    prob2 = LogisticProblem(g2, Field.constant(g2, 1.0), 1.0)
    with pytest.raises(ValueError):
        potential_game_counterexample(prob2)
    g = Grid.interval(0, 1, 33)
    probK = LogisticProblem(g, Field.from_callable(g, lambda x: 0.5 + 0.3 * x), 1.0)
    with pytest.raises(ValueError):
        potential_game_counterexample(probK)


def test_regulation_sweep_closed_form(tmp_path):
    prob = unit_problem()
    V0s = [0.1, 0.25, 1.0 / 3.0]
    rows = regulation_sweep(prob, 2, V0s, kappa=1.0, mode=INEQUALITY)
    for row in rows:
        assert row.converged
    # where the budget binds the constant equilibrium gives 2*V0*(1 - 2*V0)
    assert rows[0].total_harvest == pytest.approx(0.16, abs=1e-6)
    assert rows[1].total_harvest == pytest.approx(0.25, abs=1e-6)
    assert rows[2].total_harvest == pytest.approx(2.0 / 9.0, abs=1e-4)

    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "V0,total_harvest,rounds,converged,eps_certificate"
    assert len(lines) == 4

    with pytest.raises(ValueError, match="kappa"):
        regulation_sweep(prob, 3, V0s, kappa=[1.0, 0.5])


def test_asymptotic_bang_bang_candidate_is_best_response():
    # constant resources, budgets above K0/4: the pair of left-anchored
    # indicators is an asymptotic equilibrium, checked through the reduced
    # first-order functional: against the opponent's indicator, the player's
    # own indicator tops an interval sweep and the constant strategy
    from fishgame.harvest import interval_strategy, j1_eval

    g = Grid.interval(0, 1, 257)
    K = Field.constant(g, 1.0)
    V = 1.0 / 3.0
    kappa = 1.0
    opponent = interval_strategy(g, kappa, V, 0.0)
    K_eff = K - opponent
    K0_eff = mean(K_eff)
    own = interval_strategy(g, kappa, V, 0.0)
    own_value = j1_eval(g, K_eff, own, V, K0_eff)
    length = V / kappa
    for start in np.linspace(0.0, 1.0 - length, 50):
        cand = interval_strategy(g, kappa, V, start)
        assert own_value >= j1_eval(g, K_eff, cand, V, K0_eff) - 1e-12
    assert own_value >= j1_eval(g, K_eff, Field.constant(g, V), V, K0_eff) - 1e-12


def test_nash_csv_format(tmp_path):
    prob = unit_problem(17)
    players = [StrategyConstraints(1.0, 0.2, EQUALITY)] * 2
    rep = nash_fixed_point(GameSpec(prob, players, tol=1e-5, max_rounds=20))
    path = tmp_path / "nash.csv"
    rep.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,alpha_1,alpha_2,theta"
    assert len(lines) == 18
