import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fishgame.elliptic import _laplacian_matrix
from fishgame.grid import Field, Grid, integral, norm_sup
from fishgame.mfhg import (
    _DiffusionStep,
    Bistable,
    MfhgSpec,
    Monostable,
    agent_payoff,
    fish_forward,
    fp_forward,
    front_speed,
    hjb_backward,
    mfhg_solve,
    optimal_feedback,
    write_slices_csv,
)


def make_spec(grid, T=0.5, steps=100, nu=0.2, mu=1.0, reaction=None, u0=None, m0=None,
              **kw):
    if reaction is None:
        reaction = Monostable(1.0)
    if u0 is None:
        u0 = Field.constant(grid, 0.5)
    if m0 is None:
        m0 = Field.constant(grid, 1.0 / grid.volume)
    return MfhgSpec(grid, T, steps, nu, mu, reaction, u0, m0, **kw)


def gaussian_density(grid, center=0.35, width=0.08):
    f = Field.from_callable(grid, lambda x: np.exp(-(((x - center) / width) ** 2)))
    return Field(grid, f.values / integral(f))


def zeros_series(spec):
    return np.zeros((spec.steps + 1,) + spec.grid.shape)


def test_spec_validation():
    g = Grid.interval(0, 1, 17)
    with pytest.raises(ValueError):
        make_spec(g, m0=Field.constant(g, 2.0))  # mass 2
    with pytest.raises(ValueError):
        make_spec(g, u0=Field.constant(g, -0.1))
    with pytest.raises(ValueError):
        Bistable(a=1.2)
    with pytest.raises(ValueError):
        Bistable(a=0.7, require_invasion=True)
    assert Bistable(a=0.25)(1.0) == 0.0


@pytest.mark.parametrize("grid", [
    Grid.interval(0, 1, 9),
    Grid.interval(0, 1, 129),
    Grid.rectangle((0, 0), (1, 2), (17, 25)),  # non-square, unequal spacing
], ids=["1d-9", "1d-129", "2d-17x25"])
def test_diffusion_step_matches_sparse_reference(grid):
    rng = np.random.default_rng(grid.node_count)
    for coef, dt in ((0.2, 2.5e-3), (1.0, 1e-2), (0.5, 0.1)):
        rhs = rng.uniform(0.0, 1.0, grid.shape)
        A = sp.identity(grid.node_count) + dt * coef * (-_laplacian_matrix(grid))
        ref = spla.spsolve(A.tocsc(), rhs.reshape(-1)).reshape(grid.shape)
        x = _DiffusionStep(grid, coef, dt)(rhs)
        assert x.shape == grid.shape
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))
        mass = integral(Field(grid, rhs))
        assert abs(integral(Field(grid, x)) - mass) <= 1e-14 * mass


def test_hjb_zero_fish_zero_value():
    g = Grid.interval(0, 1, 33)
    spec = make_spec(g)
    V = hjb_backward(spec, zeros_series(spec))
    assert np.max(np.abs(V)) == 0.0


def test_hjb_single_step_constant():
    g = Grid.interval(0, 1, 33)
    spec = make_spec(g, T=0.1, steps=1, nu=0.7)
    u = np.full((2,) + g.shape, 0.8)
    V = hjb_backward(spec, u)
    assert np.max(np.abs(V[1])) == 0.0  # terminal condition exact
    assert np.max(np.abs(V[0] + 0.64 * 0.1)) < 1e-13  # dV/dt = u^2 for constants


def test_hjb_scheme_residual():
    # the implicit-diffusion/explicit-source update satisfies its own
    # discrete equation at every level
    g = Grid.interval(0, 1, 41)
    spec = make_spec(g, T=0.2, steps=20, nu=0.3)
    xs = g.axis(0)
    u = np.array([0.5 + 0.3 * np.cos(np.pi * xs) * np.exp(-t) for t in spec.times])
    V = hjb_backward(spec, u)
    from fishgame.grid import gradient, laplacian_apply

    dt = spec.dt
    for n in (0, 7, spec.steps - 1):
        grad2 = sum(c.values**2 for c in gradient(Field(g, V[n + 1])))
        source = u[n + 1] ** 2 + grad2
        lhs = (V[n + 1] - V[n]) / dt + spec.nu * laplacian_apply(Field(g, V[n])).values - source
        assert np.max(np.abs(lhs)) < 1e-10


def test_fp_pure_diffusion_conserves_and_flattens():
    g = Grid.interval(0, 1, 41)
    spec = make_spec(g, T=1.0, steps=400, nu=0.2, m0=gaussian_density(g))
    m = fp_forward(spec, zeros_series(spec))
    for k in (0, 100, 400):
        assert abs(integral(Field(g, m[k])) - 1.0) < 1e-12
    assert np.ptp(m[-1]) < 0.1 * np.ptp(m[0])
    # second moment grows monotonically under pure diffusion
    xs = g.axis(0)
    w = g.quad_weights()
    com = [float(np.sum(w * m[k] * xs)) for k in range(0, 401, 50)]
    var = [float(np.sum(w * m[k] * (xs - c) ** 2)) for k, c in zip(range(0, 401, 50), com)]
    assert all(a < b + 1e-14 for a, b in zip(var, var[1:]))


def test_fp_drift_direction_two_cell():
    # V increasing in x and drift_sign=+1 means flux = m * dV/dx > 0: mass
    # moves toward larger x (hand computation on the first two cells)
    g = Grid.interval(0, 1, 41)
    xs = g.axis(0)
    spec = make_spec(g, T=0.05, steps=200, nu=0.01, m0=gaussian_density(g, 0.5))
    V = np.tile(xs, (spec.steps + 1, 1))
    m = fp_forward(spec, V)
    w = g.quad_weights()
    com0 = float(np.sum(w * m[0] * xs))
    com1 = float(np.sum(w * m[-1] * xs))
    assert com1 > com0 + 1e-3
    assert abs(integral(Field(g, m[-1])) - 1.0) < 1e-12
    # flipped sign convention drifts the other way
    spec_flip = make_spec(g, T=0.05, steps=200, nu=0.01, m0=gaussian_density(g, 0.5),
                          drift_sign=-1.0)
    m_flip = fp_forward(spec_flip, V)
    assert float(np.sum(w * m_flip[-1] * xs)) < com0 - 1e-3


def test_fp_positivity_and_cfl_warning():
    g = Grid.interval(0, 1, 21)
    spec = make_spec(g, T=1.0, steps=20, nu=0.05, m0=gaussian_density(g, 0.5, 0.15))
    V = 5.0 * np.tile(g.axis(0), (spec.steps + 1, 1))  # strong drift, big dt
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            m = fp_forward(spec, V)
            assert np.min(m) >= 0.0
        except Exception:
            pass  # violated restriction may abort; the warning is the contract
        assert any("restriction" in str(w.message) for w in caught)


def test_fish_zero_state_invariant():
    g = Grid.interval(0, 1, 33)
    spec = make_spec(g, u0=Field.constant(g, 0.0))
    u = fish_forward(spec, zeros_series(spec))
    assert np.max(np.abs(u)) == 0.0


def test_fish_saturated_state_stationary():
    g = Grid.interval(0, 1, 33)
    spec = make_spec(g, u0=Field.constant(g, 1.0))
    u = fish_forward(spec, zeros_series(spec))
    assert np.max(np.abs(u - 1.0)) < 1e-12


def test_fish_logistic_ode_oracle():
    g = Grid.interval(0, 1, 17)
    errs = []
    for steps in (250, 500):
        spec = make_spec(g, T=1.0, steps=steps, mu=1.0)
        u = fish_forward(spec, zeros_series(spec))
        exact = 0.5 * np.e / (1.0 + 0.5 * (np.e - 1.0))
        errs.append(abs(u[-1][0] - exact))
    assert errs[0] < 5e-4
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)  # first order in dt


def test_mfhg_decoupled_exact():
    g = Grid.interval(0, 1, 41)
    spec = make_spec(g, T=0.5, steps=200, u0=Field.constant(g, 0.0),
                     m0=gaussian_density(g))
    state = mfhg_solve(spec)
    assert state.converged and state.sweeps_used == 1
    assert np.max(np.abs(state.u)) == 0.0
    assert np.max(np.abs(state.V)) == 0.0
    m_ref = fp_forward(spec, np.zeros((spec.steps + 1,) + g.shape))
    assert np.max(np.abs(state.m - m_ref)) <= 1e-10


def test_mfhg_coupled_conservation_and_terminal():
    g = Grid.interval(0, 1, 41)
    u0 = Field.from_callable(g, lambda x: 0.5 + 0.3 * np.cos(np.pi * x))
    spec = make_spec(g, T=0.5, steps=200, nu=0.2, mu=0.5, u0=u0,
                     m0=gaussian_density(g), sweep_tol=1e-8)
    state = mfhg_solve(spec)
    assert state.converged
    for k in range(0, spec.steps + 1, 20):
        assert abs(integral(state.field_at("m", k)) - 1.0) < 1e-9
        assert np.min(state.m[k]) >= 0.0
        assert np.min(state.u[k]) >= 0.0
    assert np.max(np.abs(state.V[-1])) == 0.0


def test_mfhg_2d_conservation_and_determinism():
    g = Grid.rectangle((0, 0), (1, 1), (17, 17))
    bump = Field.from_callable(
        g, lambda x, y: np.exp(-(((x - 0.4) / 0.15) ** 2 + ((y - 0.55) / 0.15) ** 2)))
    u0 = Field.from_callable(g, lambda x, y: 0.5 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y))
    spec = make_spec(g, T=0.4, steps=40, nu=0.2, mu=0.5, u0=u0,
                     m0=Field(g, bump.values / integral(bump)))
    state = mfhg_solve(spec)
    assert state.converged and state.sweeps_used > 1
    masses = [integral(state.field_at("m", k)) for k in range(spec.steps + 1)]
    assert max(abs(m - masses[0]) for m in masses) <= 1e-12
    assert np.min(state.m) >= 0.0
    again = mfhg_solve(spec)
    for name in ("V", "m", "u"):
        assert np.array_equal(getattr(state, name), getattr(again, name))


def test_mfhg_self_convergence_in_dt():
    g = Grid.interval(0, 1, 41)
    u0 = Field.from_callable(g, lambda x: 0.4 + 0.2 * np.cos(np.pi * x))
    m0 = gaussian_density(g)
    sols = {}
    for steps in (100, 200, 400):
        spec = make_spec(g, T=0.4, steps=steps, nu=0.3, mu=0.5, u0=u0, m0=m0,
                         sweep_tol=1e-10)
        state = mfhg_solve(spec)
        mid = steps // 2
        sols[steps] = (state.V[mid], state.m[mid], state.u[mid])
    err1 = max(np.max(np.abs(a - b)) for a, b in zip(sols[100], sols[200]))
    err2 = max(np.max(np.abs(a - b)) for a, b in zip(sols[200], sols[400]))
    assert err1 / err2 == pytest.approx(2.0, rel=0.4)  # O(dt)


def test_fish_self_convergence_in_h():
    # smooth data, fixed small dt: halving h cuts the spatial error ~4x
    ref_grid = Grid.interval(0, 1, 129)
    ref_spec = make_spec(ref_grid, T=0.25, steps=500, mu=0.3,
                         u0=Field.from_callable(ref_grid, lambda x: 0.5 + 0.3 * np.cos(np.pi * x)))
    ref = fish_forward(ref_spec, zeros_series(ref_spec))[-1]
    errs = []
    for n in (33, 65):
        g = Grid.interval(0, 1, n)
        spec = make_spec(g, T=0.25, steps=500, mu=0.3,
                         u0=Field.from_callable(g, lambda x: 0.5 + 0.3 * np.cos(np.pi * x)))
        u = fish_forward(spec, zeros_series(spec))[-1]
        stride = 128 // (n - 1)
        errs.append(np.max(np.abs(u - ref[::stride])))
    assert errs[0] / errs[1] > 3.0


def test_optimal_feedback_conventions():
    g = Grid.interval(0, 1, 65)
    V = Field.from_callable(g, lambda x: x**2)
    u = Field.constant(g, 0.8)
    b, alpha = optimal_feedback(V, u)
    assert norm_sup(alpha - 0.4) == 0.0
    xs = g.axis(0)
    interior = slice(1, -1)
    assert np.max(np.abs(b[0].values[interior] - xs[interior])) < 1e-3  # grad/2 of x^2
    b2, alpha2 = optimal_feedback(V, u, rescaled=True)
    assert norm_sup(alpha2 - 0.8) == 0.0
    assert np.max(np.abs(b2[0].values[interior] - 2 * xs[interior])) < 2e-3

    bc, _ = optimal_feedback(Field.constant(g, 3.0), u)
    assert norm_sup(bc[0]) == 0.0


def test_agent_payoff_cases():
    g = Grid.interval(0, 1, 33)
    spec = make_spec(g, T=1.0, steps=100, u0=Field.constant(g, 0.6))
    state = mfhg_solve(make_spec(g, T=1.0, steps=100, u0=Field.constant(g, 0.0)))
    n = spec.steps + 1
    zero = np.zeros(n)
    x_mid = np.full(n, 0.5)
    assert agent_payoff(spec, state, x_mid, zero, zero) == 0.0

    # constant fish density c: alpha = c/2, b = 0 gives T * c^2 / 4
    u_const = np.full((n,) + g.shape, 0.6)
    state_c = type(state)(spec, state.V * 0.0, state.m, u_const, 1, 0.0, True)
    pay = agent_payoff(spec, state_c, x_mid, zero, np.full(n, 0.3))
    assert pay == pytest.approx(1.0 * 0.36 / 4.0, rel=1e-9)

    # the argmax feedback beats random perturbed controls along a fixed path
    rng = np.random.default_rng(17)
    best = agent_payoff(spec, state_c, x_mid, zero, np.full(n, 0.3))
    for _ in range(10):
        alpha_p = np.clip(0.3 + 0.1 * rng.standard_normal(n), 0.0, None)
        b_p = 0.05 * rng.standard_normal(n)
        assert agent_payoff(spec, state_c, x_mid, b_p, alpha_p) <= best + 1e-12

    # out-of-domain samples are reflected, not an error
    x_out = np.full(n, 1.3)
    assert np.isfinite(agent_payoff(spec, state_c, x_out, zero, np.full(n, 0.3)))


def test_front_speed_kpp_and_bistable():
    # coarse KPP: within 10% here; the refined 5% check lives in acceptance
    g = Grid.interval(0, 120, 601)
    u0 = Field(g, np.where(g.axis(0) < 15.0, 1.0, 0.0))
    m0 = Field.constant(g, 1.0 / g.volume)
    spec = MfhgSpec(g, T=30.0, steps=300, nu=1.0, mu=1.0,
                    reaction=Monostable(1.0), u0=u0, m0=m0)
    series = front_speed(spec, 0.5)
    assert not series.truncated
    assert series.asymptotic_speed() == pytest.approx(2.0, rel=0.10)

    a = 0.25
    spec_b = MfhgSpec(g, T=60.0, steps=600, nu=1.0, mu=1.0,
                      reaction=Bistable(a), u0=u0, m0=m0)
    series_b = front_speed(spec_b, 0.5)
    expected = np.sqrt(1.0 / 2.0) * (1.0 - 2 * a)
    assert series_b.asymptotic_speed() == pytest.approx(expected, rel=0.10)


def test_front_speed_coupled_emission(tmp_path):
    # coupled run only has to produce the series; no asserted speed
    g = Grid.interval(0, 60, 301)
    u0 = Field(g, np.where(g.axis(0) < 10.0, 1.0, 0.0))
    m0 = gaussian_density(Grid.interval(0, 60, 301), center=30.0, width=5.0)
    spec = MfhgSpec(g, T=5.0, steps=200, nu=0.5, mu=1.0,
                    reaction=Monostable(1.0), u0=u0, m0=m0, sweep_tol=1e-5,
                    max_sweeps=60)
    state = mfhg_solve(spec)
    series = front_speed(spec, 0.5, u=state.u)
    assert len(series.t) > 10
    path = tmp_path / "front.csv"
    series.write_csv(path)
    assert path.read_text().startswith("t,front_position,speed_estimate\n")


def test_front_truncates_on_exit():
    g = Grid.interval(0, 20, 201)
    u0 = Field(g, np.where(g.axis(0) < 5.0, 1.0, 0.0))
    m0 = Field.constant(g, 1.0 / g.volume)
    spec = MfhgSpec(g, T=20.0, steps=400, nu=1.0, mu=1.0,
                    reaction=Monostable(1.0), u0=u0, m0=m0)
    with pytest.warns(UserWarning, match="truncated"):
        series = front_speed(spec, 0.5)
    assert series.truncated
    assert len(series.t) < spec.steps + 1


def test_slices_csv(tmp_path):
    g = Grid.interval(0, 1, 9)
    spec = make_spec(g, T=0.1, steps=10)
    state = mfhg_solve(spec)
    path = tmp_path / "slices.csv"
    write_slices_csv(state, path, stride=5)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x,V,m,u"
    assert len(lines) == 1 + 3 * 9  # levels 0, 5, 10
