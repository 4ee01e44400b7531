"""Time-dependent mean-field harvesting dynamics.

Three coupled PDEs on a fixed time grid: a backward Hamilton-Jacobi-Bellman
equation for the value function V (terminal condition V(T) = 0), a forward
Fokker-Planck equation for the agent density m (no-flux, conservative), and
a forward harvested reaction-diffusion equation for the fish density u.
The coupling is circular (V needs u, m needs V, u needs m) and is resolved
by damped Picard sweeps on m.

Time stepping is IMEX throughout: diffusion implicit (a tridiagonal solve in
1D, an exact DCT-I eigenbasis solve in 2D; the operator is set up once per
solve and reused across all steps), nonlinear/drift terms explicit.  The drift
in the Fokker-Planck step is discretized in conservative flux form with
upwinding, which keeps the total mass of m exact to linear-solver roundoff
and preserves positivity under the advective time-step restriction
dt <= h / max|grad V| (checked, warned).

Sign conventions follow the displayed system verbatim: the HJB source is
+(u^2 + |grad V|^2) and the Fokker-Planck drift is +div(m grad V), i.e.
agents drift up the value gradient.  Both appear inconsistently elsewhere
in the source material, so each sits behind a switch (``hjb_sign``,
``drift_sign``) rather than a silent choice.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, gradient, grid_rows, integral, write_table
from .elliptic import SolverError, _neumann_tridiagonal_solve

__all__ = [
    "Monostable",
    "Bistable",
    "MfhgSpec",
    "MfhgState",
    "hjb_backward",
    "fp_forward",
    "fish_forward",
    "mfhg_solve",
    "optimal_feedback",
    "agent_payoff",
    "front_speed",
    "FrontSeries",
    "write_slices_csv",
]

BLOWUP_GUARD = 1e6
NEGATIVE_MASS_TOL = 1e-8


@dataclass(frozen=True)
class Monostable:
    """Logistic growth f(u) = r*u*(1-u); f(0) = 0 keeps the zero state invariant."""

    r: float = 1.0

    def __call__(self, u, coords=None):
        return self.r * u * (1.0 - u)


@dataclass(frozen=True)
class Bistable:
    """Cubic f(u) = u*(u-a)*(1-u).  The traveling wave invades (F(1) > 0)
    exactly when a < 1/2; pass require_invasion=True to enforce that."""

    a: float
    require_invasion: bool = False

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ValueError("bistable threshold a must lie in (0, 1)")
        if self.require_invasion and not self.a < 0.5:
            raise ValueError("invasion requires a < 1/2")

    def __call__(self, u, coords=None):
        return u * (u - self.a) * (1.0 - u)


@dataclass
class MfhgSpec:
    """Configuration of one coupled solve.

    The reaction is any callable f(u, coords) with f(0, .) = 0; Monostable
    and Bistable are the stock choices.  m0 must carry unit total mass.
    """

    grid: Grid
    T: float
    steps: int
    nu: float
    mu: float
    reaction: object
    u0: Field
    m0: Field
    sweep_damping: float = 0.5
    sweep_tol: float = 1e-6
    max_sweeps: int = 200
    drift_sign: float = 1.0
    hjb_sign: float = 1.0

    def __post_init__(self):
        if self.T <= 0 or self.steps < 1:
            raise ValueError("need T > 0 and steps >= 1")
        if self.nu <= 0 or self.mu <= 0:
            raise ValueError("diffusivities must be positive")
        if not (0.0 < self.sweep_damping <= 1.0):
            raise ValueError("sweep_damping must lie in (0, 1]")
        if np.min(self.u0.values) < 0:
            raise ValueError("u0 must be nonnegative")
        m_total = integral(self.m0)
        if abs(m_total - 1.0) > 1e-10:
            raise ValueError(f"m0 must have unit mass, got {m_total:.12g}")
        if abs(self.drift_sign) != 1.0 or abs(self.hjb_sign) != 1.0:
            raise ValueError("sign switches must be +1 or -1")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)


@dataclass
class MfhgState:
    """Converged (or last-iterate) triple on the time grid, each array
    shaped (steps+1, *grid.shape)."""

    spec: MfhgSpec
    V: np.ndarray
    m: np.ndarray
    u: np.ndarray
    sweeps_used: int
    sweep_residual: float
    converged: bool

    def field_at(self, name: str, k: int) -> Field:
        return Field(self.spec.grid, getattr(self, name)[k])


class _DiffusionStep:
    """Backward-Euler diffusion step: solves (I + dt*coef*(-lap)) x = rhs.

    The operator is fixed over the time loop.  1D makes a tridiagonal solve.
    2D solves exactly in the eigenbasis of the mirrored-ghost Neumann
    Laplacian, the type-I DCT (Strang, SIAM Review 41(1), 1999): per axis
    C[k, j] = c_j cos(pi j k / (n-1)), with c_j = 1 at the ends and 2 inside
    so that C @ C = 2 (n-1) I, diagonalises -lap with eigenvalues
    (2 - 2 cos(pi k / (n-1))) / h^2.  No factorization is held.
    """

    def __init__(self, grid: Grid, coef: float, dt: float):
        self.grid = grid
        if grid.dim == 1:
            self._c = dt * coef / grid.spacing[0] ** 2
            self._diag = np.full(grid.shape[0], 1.0 + 2.0 * self._c)
            return
        bases = []
        for n, h in zip(grid.shape, grid.spacing):
            k = np.arange(n)
            # Integer phases j*k mod 2(n-1) keep C @ C = 2 (n-1) I to a few ulps.
            C = np.cos(np.pi * (np.outer(k, k) % (2 * (n - 1))) / (n - 1))
            C[:, 1:-1] *= 2.0
            bases.append((C, (2.0 - 2.0 * np.cos(np.pi * k / (n - 1))) / h**2))
        (self._Cx, lx), (Cy, ly) = bases
        self._CyT = Cy.T
        scale = 4.0 * (grid.shape[0] - 1) * (grid.shape[1] - 1)
        self._inv_eig = 1.0 / (scale * (1.0 + dt * coef * (lx[:, None] + ly[None, :])))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        if self.grid.dim == 1:
            return _neumann_tridiagonal_solve(self._c, self._diag, values)
        Cx, CyT = self._Cx, self._CyT
        return Cx @ ((Cx @ values @ CyT) * self._inv_eig) @ CyT


def _grad_squared(grid: Grid, values: np.ndarray) -> np.ndarray:
    return sum(comp.values**2 for comp in gradient(Field(grid, values)))


def hjb_backward(spec: MfhgSpec, u: np.ndarray) -> np.ndarray:
    """Integrate -dV/dt - nu*lap(V) + sign*(u^2 + |grad V|^2) = 0 backward
    from V(T) = 0: implicit diffusion, source frozen at the later level."""
    grid = spec.grid
    V = np.zeros((spec.steps + 1,) + grid.shape)
    step = _DiffusionStep(grid, spec.nu, spec.dt)
    for n in range(spec.steps - 1, -1, -1):
        source = spec.hjb_sign * (u[n + 1] ** 2 + _grad_squared(grid, V[n + 1]))
        V[n] = step(V[n + 1] - spec.dt * source)
        if np.max(np.abs(V[n])) > BLOWUP_GUARD:
            raise SolverError(f"value function blew up at step {n}")
    return V


def fp_forward(spec: MfhgSpec, V: np.ndarray) -> np.ndarray:
    """Advance the agent density with conservative upwinded drift (explicit)
    and implicit diffusion; zero total flux through the boundary.

    Mass is conserved to roundoff by construction: advective interface
    fluxes telescope and the implicit operator has zero weighted column
    sums.  Positivity holds under dt <= h / max|grad V| (warned if violated);
    anything below -1e-8 aborts, roundoff-level negatives are clipped.
    """
    grid = spec.grid
    dt = spec.dt
    m = np.zeros((spec.steps + 1,) + grid.shape)
    m[0] = spec.m0.values
    step = _DiffusionStep(grid, spec.nu, dt)

    # Advective CFL check over all interface velocities.
    max_vel = 0.0
    for k in range(grid.dim):
        dV = np.diff(V, axis=k + 1) / grid.spacing[k]
        if dV.size:
            max_vel = max(max_vel, float(np.max(np.abs(dV))))
    if max_vel > 0 and dt > min(grid.spacing) / max_vel:
        warnings.warn(
            f"advective step restriction violated: dt = {dt:g} > "
            f"{min(grid.spacing) / max_vel:g}; positivity of m is not guaranteed",
            stacklevel=2,
        )

    w_cell = grid.quad_weights()
    for n in range(spec.steps):
        drift = np.zeros(grid.shape)
        for k in range(grid.dim):
            head = (slice(None),) * k + (slice(0, -1),)
            tail = (slice(None),) * k + (slice(1, None),)
            vel = spec.drift_sign * np.diff(V[n], axis=k) / grid.spacing[k]
            flux = np.where(vel >= 0, vel * m[n][head], vel * m[n][tail])
            # Transverse face measure = the other axis' trapezoid weight.
            if grid.dim == 2:
                other = grid.axis_weights(1 - k)
                flux = flux * (other[None, :] if k == 0 else other[:, None])
            drift += np.diff(flux, axis=k, prepend=0.0, append=0.0)  # no boundary flux
        advected = m[n] - dt * drift / w_cell
        m_next = step(advected)
        low = float(np.min(m_next))
        if low < -NEGATIVE_MASS_TOL:
            raise SolverError(f"agent density went negative ({low:g}) at step {n}")
        m[n + 1] = np.where(m_next < 0, 0.0, m_next)
    return m


def fish_forward(spec: MfhgSpec, m: np.ndarray) -> np.ndarray:
    """Advance the fish density: implicit diffusion, explicit reaction
    f(u) - m*u^2, clipped at zero."""
    grid = spec.grid
    dt = spec.dt
    u = np.zeros((spec.steps + 1,) + grid.shape)
    u[0] = spec.u0.values
    step = _DiffusionStep(grid, spec.mu, dt)
    coords = grid.coordinates()
    for n in range(spec.steps):
        react = spec.reaction(u[n], coords) - m[n] * u[n] ** 2
        u[n + 1] = np.maximum(step(u[n] + dt * react), 0.0)
        if np.max(u[n + 1]) > BLOWUP_GUARD:
            raise SolverError(f"fish density blew up at step {n}")
    return u


def mfhg_solve(spec: MfhgSpec) -> MfhgState:
    """Damped Picard iteration around the circular coupling.

    Starting from the pure-diffusion evolution of m0, each sweep runs
    fish_forward, hjb_backward and fp_forward in that order and damps the
    density update; convergence is the largest L2 distance over time levels
    between successive density iterates.
    """
    grid = spec.grid
    w = grid.quad_weights()
    V_zero = np.zeros((spec.steps + 1,) + grid.shape)
    m_prev = fp_forward(spec, V_zero)
    residual = np.inf
    converged = False
    sweeps = 0
    u = V = None
    for sweeps in range(1, spec.max_sweeps + 1):
        u = fish_forward(spec, m_prev)
        V = hjb_backward(spec, u)
        m_new = fp_forward(spec, V)
        m_next = spec.sweep_damping * m_new + (1.0 - spec.sweep_damping) * m_prev
        diff = m_next - m_prev
        residual = float(np.max(np.sqrt(np.sum(w * diff**2, axis=tuple(range(1, diff.ndim))))))
        m_prev = m_next
        if residual <= spec.sweep_tol:
            converged = True
            break
    # Re-derive u and V from the final density so the returned triple is
    # internally consistent.
    u = fish_forward(spec, m_prev)
    V = hjb_backward(spec, u)
    return MfhgState(spec, V, m_prev, u, sweeps, residual, converged)


def optimal_feedback(V: Field, u: Field, rescaled: bool = False):
    """Argmax controls of the agent Hamiltonian: (b, alpha) = (grad V / 2, u / 2),
    or (grad V, u) in the rescaled convention of the displayed system."""
    scale = 1.0 if rescaled else 0.5
    b = tuple(scale * comp for comp in gradient(V))
    return b, scale * u


def _reflect(x: np.ndarray, lower: float, upper: float) -> np.ndarray:
    span = upper - lower
    y = np.mod(x - lower, 2.0 * span)
    y = np.where(y > span, 2.0 * span - y, y)
    return lower + y


def agent_payoff(spec: MfhgSpec, state: MfhgState, x_path: np.ndarray,
                 b_path: np.ndarray, alpha_path: np.ndarray) -> float:
    """Riemann sum of the single-agent objective along a sampled trajectory:
    sum_t [u(x(t), t) * alpha(t) - alpha(t)^2 - |b(t)|^2] * dt.

    Paths are sampled on the solver's time grid; positions outside the
    domain are reflected, consistent with the no-flux boundary.
    """
    x_path = np.asarray(x_path, dtype=float)
    alpha_path = np.asarray(alpha_path, dtype=float).reshape(-1)
    b_path = np.asarray(b_path, dtype=float)
    if x_path.shape[0] != spec.steps + 1 or alpha_path.shape[0] != spec.steps + 1:
        raise ValueError("paths must be sampled at every time level")
    grid = spec.grid
    points = x_path.reshape(spec.steps + 1, grid.dim)
    x_ref = np.stack([_reflect(points[:, k], grid.lower[k], grid.upper[k])
                      for k in range(grid.dim)], axis=1)
    b2 = b_path.reshape(spec.steps + 1, -1) ** 2
    b2 = b2.sum(axis=1)
    total = 0.0
    for n in range(spec.steps):
        u_here = state.field_at("u", n).sample(x_ref[n]).item(0)
        total += (u_here * alpha_path[n] - alpha_path[n] ** 2 - b2[n]) * spec.dt
    return total


@dataclass
class FrontSeries:
    """Front trajectory of a thresholded profile: times, interpolated front
    positions and trailing least-squares speed estimates (NaN before the
    window fills).  Positive speed = invasion into the low-density region."""

    t: np.ndarray
    position: np.ndarray
    speed: np.ndarray
    truncated: bool = False

    def asymptotic_speed(self) -> float:
        finite = self.speed[np.isfinite(self.speed)]
        if len(finite) == 0:
            raise ValueError("no speed estimates available")
        return float(finite[-1])

    def write_csv(self, path) -> None:
        write_table(path, ("t", "front_position", "speed_estimate"),
                    zip(self.t.tolist(), self.position.tolist(), self.speed.tolist()))


def front_speed(spec: MfhgSpec, threshold: float, u: np.ndarray | None = None,
                window: int | None = None) -> FrontSeries:
    """Track the threshold crossing of a monotone 1D front over time.

    With no precomputed u the free dynamics (m = 0) is evolved.  The front
    position is the linear interpolation of the crossing; the speed at each
    time is the least-squares slope over a trailing window of positions.
    The series is truncated with a warning once the front leaves the domain.
    """
    grid = spec.grid
    if grid.dim != 1:
        raise ValueError("front tracking is one-dimensional")
    if u is None:
        u = fish_forward(spec, np.zeros((spec.steps + 1,) + grid.shape))
    xs = grid.axis(0)
    invading_right = u[0][0] >= u[0][-1]
    times = spec.times
    positions = []
    truncated = False
    for k in range(spec.steps + 1):
        prof = u[k]
        above = prof >= threshold
        if invading_right:
            if not above[0] or above[-1]:
                truncated = True
                break
            idx = int(np.nonzero(above)[0][-1])
        else:
            if not above[-1] or above[0]:
                truncated = True
                break
            idx = int(np.nonzero(above)[0][0]) - 1
        lo, hi = prof[idx], prof[idx + 1]
        frac = (threshold - lo) / (hi - lo) if hi != lo else 0.0
        positions.append(xs[idx] + frac * grid.spacing[0])
    if truncated:
        warnings.warn("front reached the domain boundary; series truncated", stacklevel=2)
    positions = np.asarray(positions)
    t_used = times[: len(positions)]
    if window is None:
        window = max(2, len(positions) // 5)
    speeds = np.full(len(positions), np.nan)
    for k in range(1, len(positions)):
        lo = max(0, k - window + 1)
        if k - lo < 1:
            continue
        tt, pp = t_used[lo:k + 1], positions[lo:k + 1]
        slope = np.polyfit(tt, pp, 1)[0]
        speeds[k] = slope if invading_right else -slope
    return FrontSeries(t_used, positions, speeds, truncated)


def write_slices_csv(state: MfhgState, path, stride: int = 1) -> None:
    """Dump t,x[,y],V,m,u rows at every ``stride``-th time level."""
    spec = state.spec
    grid = spec.grid
    times = spec.times.tolist()
    rows = ((times[k],) + row for k in range(0, spec.steps + 1, stride)
            for row in grid_rows(grid, state.V[k], state.m[k], state.u[k]))
    write_table(path, ("t",) + grid.axis_names + ("V", "m", "u"), rows)
