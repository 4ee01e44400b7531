import json

import numpy as np
import pytest

from fishgame.grid import Grid, mean, norm_sup
from fishgame.cli import ConfigError, k_preset, load_config, parse_field_spec, run


def write_config(path, text):
    path.write_text(text)
    return str(path)


STEADY_CFG = """
[experiment]
name = steady
seed = 0

[grid]
nodes = 65

[problem]
K = constant:1.0
mu = 1.0

[steady]
alpha = constant:0.5
"""


def test_steady_run_and_exit_code(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", STEADY_CFG)
    out = tmp_path / "out"
    assert run(cfg, str(out), quiet=True) == 0
    rows = np.genfromtxt(out / "theta.csv", delimiter=",", names=True)
    assert np.max(np.abs(rows["value"] - 0.5)) < 1e-8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stages"] == {"steady": True}
    assert "theta.csv" in manifest["outputs"]


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path / "bad.ini", "[experiment]\nname = steady\nbogus = 1\n")
    assert run(cfg, str(tmp_path / "out"), quiet=True) == 1
    with pytest.raises(ConfigError, match="bogus"):
        load_config(cfg)


def test_unknown_experiment_rejected(tmp_path):
    cfg = write_config(tmp_path / "bad.ini", "[experiment]\nname = conquer\n")
    with pytest.raises(ConfigError, match="conquer"):
        load_config(cfg)


NASH_CFG = """
[experiment]
name = nash
seed = 0

[grid]
nodes = 65

[problem]
K = constant:1.0
mu = 1.0

[constraints]
kappa = 2.0
V0 = 0.225
mode = inequality
players = 4
"""


def test_nash_tragedy_summary(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", NASH_CFG)
    out = tmp_path / "out"
    assert run(cfg, str(out), quiet=True) == 0
    text = (out / "nash_summary.csv").read_text()
    total = float([l for l in text.splitlines() if l.startswith("total")][0].split(",")[1])
    assert total == pytest.approx(4.0 / 25.0, abs=1e-4)


def test_forced_nonconvergence_exit_code(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini", NASH_CFG + "\n[solver]\nmax_rounds = 1\n")
    assert run(cfg, str(tmp_path / "out"), quiet=True) == 2


def test_determinism_identical_bytes(tmp_path):
    cfg_text = """
[experiment]
name = optimize
seed = 7

[grid]
nodes = 65

[problem]
K = random-fourier:seed=7,n_modes=6,amplitude=0.25,K0=0.5
mu = 1.0

[constraints]
kappa = 1.0
V0 = 0.2
mode = equality

[solver]
tol = 1e-7
max_iter = 200
"""
    cfg = write_config(tmp_path / "cfg.ini", cfg_text)
    run(cfg, str(tmp_path / "a"), quiet=True)
    run(cfg, str(tmp_path / "b"), quiet=True)
    assert (tmp_path / "a" / "optimize.csv").read_bytes() == \
        (tmp_path / "b" / "optimize.csv").read_bytes()
    assert (tmp_path / "a" / "optimize.summary.csv").read_bytes() == \
        (tmp_path / "b" / "optimize.summary.csv").read_bytes()


def test_sweep_outputs(tmp_path):
    cfg_text = """
[experiment]
name = sweep

[grid]
nodes = 33

[problem]
K = constant:1.0

[constraints]
kappa = 1.0
V0 = 0.25
players = 2

[sweep]
V0_list = 0.1,0.25
"""
    cfg = write_config(tmp_path / "cfg.ini", cfg_text)
    out = tmp_path / "out"
    assert run(cfg, str(out), quiet=True) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "V0,total_harvest,rounds,converged,eps_certificate"
    assert len(lines) == 3
    assert (out / "V0_0.1" / "nash.csv").exists()
    assert (out / "V0_0.25" / "nash.csv").exists()


def test_sweep_per_player_kappa(tmp_path):
    # cosine resources pull the strategies towards x = 0, where the cap of
    # player 2 binds and that of player 1 does not
    cfg_text = """
[experiment]
name = sweep

[grid]
nodes = 33

[problem]
K = cosine:0.5,0.3
mu = 0.2

[constraints]
kappa = 1.0,0.5
V0 = 0.2
players = 2

[solver]
max_rounds = 8
max_iter = 60

[sweep]
V0_list = 0.2
"""
    cfg = write_config(tmp_path / "cfg.ini", cfg_text)
    out = tmp_path / "out"
    assert run(cfg, str(out), quiet=True) in (0, 2)
    rows = np.genfromtxt(out / "V0_0.2" / "nash.csv", delimiter=",", names=True)
    assert np.max(rows["alpha_1"]) > 0.5 + 1e-3
    assert np.max(rows["alpha_2"]) <= 0.5 + 1e-12
    sweep = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True)
    assert sweep["V0"] == 0.2
    assert np.isfinite(sweep["total_harvest"])


def test_nash_random_starts_seeded(tmp_path):
    cfg_text = NASH_CFG.replace("players = 4", "players = 2").replace("nodes = 65", "nodes = 33") + \
        "\n[solver]\nstarts = random\nmax_rounds = 8\nmax_iter = 120\n"
    cfg = write_config(tmp_path / "cfg.ini", cfg_text)
    code = run(cfg, str(tmp_path / "a"), quiet=True)
    assert code in (0, 2)
    run(cfg, str(tmp_path / "b"), quiet=True)
    assert (tmp_path / "a" / "nash.csv").read_bytes() == \
        (tmp_path / "b" / "nash.csv").read_bytes()


def test_potential_check_run(tmp_path):
    cfg_text = """
[experiment]
name = potential-check

[grid]
nodes = 129

[problem]
K = constant:1.0
mu = 0.05

[potential-check]
V0 = 0.333333333333
"""
    cfg = write_config(tmp_path / "cfg.ini", cfg_text)
    out = tmp_path / "out"
    assert run(cfg, str(out), quiet=True) == 0
    lines = (out / "potential.csv").read_text().strip().splitlines()
    sym = float(lines[1].split(",")[1])
    asym = float(lines[2].split(",")[1])
    assert abs(sym) < 1e-10
    assert abs(asym) > 1e-4


def test_wave_run(tmp_path):
    cfg_text = """
[experiment]
name = wave

[grid]
lower = 0
upper = 80
nodes = 401

[problem]
mu = 1.0
nu = 0.5

[wave]
T = 15
steps = 300
reaction = monostable:1.0
u0 = step:10
m0 = uniform
threshold = 0.5
"""
    cfg = write_config(tmp_path / "cfg.ini", cfg_text)
    out = tmp_path / "out"
    assert run(cfg, str(out), quiet=True) == 0
    rows = np.genfromtxt(out / "front.csv", delimiter=",", names=True)
    speeds = rows["speed_estimate"]
    assert np.isfinite(speeds[-1])


def test_mfhg_run(tmp_path):
    cfg_text = """
[experiment]
name = mfhg

[grid]
nodes = 33

[problem]
mu = 0.5
nu = 0.2

[mfhg]
T = 0.2
steps = 40
reaction = monostable:1.0
u0 = constant:0.5
m0 = bump:0.4,0.1
"""
    cfg = write_config(tmp_path / "cfg.ini", cfg_text)
    out = tmp_path / "out"
    assert run(cfg, str(out), quiet=True) == 0
    text = (out / "mfhg_summary.csv").read_text()
    drift = float([l for l in text.splitlines() if l.startswith("mass_drift")][0].split(",")[1])
    assert drift < 1e-9


# ----------------------------------------------------------------- presets


def test_k_preset_constant_and_linear():
    g = Grid.interval(0, 1, 101)
    assert norm_sup(k_preset(g, "constant", {"value": 0.7}) - 0.7) == 0.0
    lin = k_preset(g, "decreasing-linear", {"K0": 0.5})
    assert lin.values[0] == pytest.approx(1.0)
    assert lin.values[-1] == pytest.approx(0.0)
    assert mean(lin) == pytest.approx(0.5, abs=1e-12)


def test_k_preset_random_fourier_deterministic():
    g = Grid.interval(0, 1, 101)
    params = {"seed": 42, "n_modes": 8, "amplitude": 0.3, "K0": 0.5}
    a = k_preset(g, "random-fourier", dict(params))
    b = k_preset(g, "random-fourier", dict(params))
    assert np.array_equal(a.values, b.values)
    assert np.min(a.values) >= 0.0 and np.max(a.values) <= 1.0
    assert mean(a) == pytest.approx(0.5, abs=1e-9)
    c = k_preset(g, "random-fourier", dict(params, seed=43))
    assert not np.array_equal(a.values, c.values)


def test_k_preset_errors():
    g = Grid.interval(0, 1, 33)
    with pytest.raises(ConfigError):
        k_preset(g, "mystery", {})
    with pytest.raises(ConfigError):
        k_preset(g, "decreasing-linear", {"K0": 0.9})


def test_parse_field_spec_shorthand():
    g = Grid.interval(0, 1, 51)
    f = parse_field_spec(g, "cosine:0.5,0.3")
    assert mean(f) == pytest.approx(0.5, abs=1e-9)
    s = parse_field_spec(g, "step:0.3")
    assert s.values[0] == 1.0 and s.values[-1] == 0.0
    u = parse_field_spec(g, "uniform")
    assert norm_sup(u - 1.0) == 0.0
