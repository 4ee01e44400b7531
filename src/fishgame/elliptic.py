"""Elliptic solves for the harvesting model.

Covers the steady logistic-diffusive state (damped Newton), general linear
reaction-diffusion solves, the pure-Neumann zero-mean Poisson problem and
principal Neumann eigenvalues (shifted inverse power iteration).

All operators are assembled from the same mirrored-ghost Laplacian stencil
as grid.laplacian_apply, so residuals computed nodally and matrices used in
solves agree to rounding.  The plain matrix A = -mu*lap - diag(potential)
is not symmetric at the boundary rows, but W @ A is (W = trapezoid weight
diagonal); the weighted form is what the CG and eigenvalue routines use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgtsv

from .grid import Field, Grid, mean

__all__ = [
    "SolverError",
    "LogisticProblem",
    "SolveReport",
    "solve_linear_reaction",
    "solve_zero_mean_poisson",
    "principal_eigenvalue",
    "solve_steady",
]

NONLINEAR_TOL = 1e-10
LINEAR_RTOL = 1e-12


class SolverError(RuntimeError):
    """A solve failed to converge or the system is singular/indefinite."""


@lru_cache(maxsize=32)
def _laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """Sparse Neumann Laplacian matching grid.laplacian_apply exactly."""

    def lap1d(n: int, h: float) -> sp.csr_matrix:
        main = np.full(n, -2.0)
        off = np.ones(n - 1)
        L = sp.diags([off, main, off], [-1, 0, 1], format="lil")
        L[0, 1] = 2.0  # mirrored ghost node
        L[n - 1, n - 2] = 2.0
        return (L / h**2).tocsr()

    if grid.dim == 1:
        return lap1d(grid.shape[0], grid.spacing[0])
    Lx = lap1d(grid.shape[0], grid.spacing[0])
    Ly = lap1d(grid.shape[1], grid.spacing[1])
    Ix = sp.identity(grid.shape[0], format="csr")
    Iy = sp.identity(grid.shape[1], format="csr")
    return (sp.kron(Lx, Iy) + sp.kron(Ix, Ly)).tocsr()


def _weights(grid: Grid) -> np.ndarray:
    return grid.quad_weights().reshape(-1)


def _reaction_matrix(grid: Grid, mu: float, potential: np.ndarray) -> sp.csr_matrix:
    """A = -mu * lap - diag(potential), nodal (unweighted) form."""
    return (-mu) * _laplacian_matrix(grid) - sp.diags(potential.reshape(-1))


def _pcg(S: sp.spmatrix, b: np.ndarray, rtol: float, maxiter: int,
         x0: np.ndarray | None = None, recenter=None) -> np.ndarray:
    """Jacobi-preconditioned CG on a symmetric system S x = b.

    ``recenter`` (optional) projects the iterate back onto a constraint
    subspace each step; the true residual is unaffected because the removed
    component lies in ker(S).  Used for the pure-Neumann Poisson solve.
    Raises SolverError on breakdown or when the residual target is not met.
    """
    diag = S.diagonal()
    if np.any(diag <= 0):
        raise SolverError("system is not positive definite (nonpositive diagonal)")
    x = np.zeros_like(b) if x0 is None else x0.copy()
    if recenter is not None:
        x = recenter(x)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b)
    r = b - S @ x
    z = r / diag
    p = z.copy()
    rz = r @ z
    for _ in range(maxiter):
        if np.linalg.norm(r) <= rtol * bnorm:
            return x
        Sp = S @ p
        pSp = p @ Sp
        if pSp <= 0:
            raise SolverError("CG breakdown: system indefinite")
        a = rz / pSp
        x = x + a * p
        r = r - a * Sp
        if recenter is not None:
            x = recenter(x)
        z = r / diag
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    if np.linalg.norm(r) <= rtol * bnorm:
        return x
    raise SolverError("CG failed to converge")


def _neumann_tridiagonal_solve(c: float, diag: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the 1D system with main diagonal ``diag`` and the off-diagonals
    of -c*h^2*lap (mirrored ghost rows), by LAPACK dgtsv called directly:
    the routine solve_banded((1, 1), ...) uses, without its input checks."""
    sup = np.full(len(diag) - 1, -c)
    sub = sup.copy()
    sup[0] = sub[-1] = -2.0 * c  # mirrored ghost rows
    *_, x, info = dgtsv(sub, diag, sup, b)
    if info > 0:
        raise SolverError(f"tridiagonal solve failed: zero pivot at row {info}")
    if not np.all(np.isfinite(x)):
        raise SolverError("tridiagonal solve produced non-finite values (singular system)")
    return x


def _solve_reaction_1d(grid: Grid, mu: float, potential: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Direct tridiagonal solve of (-mu*lap - diag(pot)) x = rhs in 1D.

    Assembles the three bands of the plain (unweighted) operator directly;
    no sparse machinery, so this is cheap enough for inner-loop use.
    """
    c = mu / grid.spacing[0] ** 2
    return _neumann_tridiagonal_solve(c, 2.0 * c - potential.reshape(-1), rhs.reshape(-1))


def _solve_weighted(grid: Grid, A: sp.csr_matrix, rhs: np.ndarray,
                    rtol: float = LINEAR_RTOL, direct: bool = False) -> np.ndarray:
    """Solve A x = rhs through the symmetric weighted form W A x = W rhs.

    2D uses preconditioned CG unless ``direct`` forces a sparse LU (internal
    Newton steps do, for robustness against transiently indefinite
    Jacobians).  1D callers take the banded path and never land here.
    """
    w = _weights(grid)
    S = sp.diags(w) @ A
    b = w * rhs.reshape(-1)
    if direct:
        try:
            lu = spla.splu(S.tocsc())
        except RuntimeError as exc:
            raise SolverError(f"direct solve failed: {exc}") from exc
        x = lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise SolverError("direct solve produced non-finite values (singular system)")
        return x
    return _pcg(S.tocsr(), b, rtol=rtol, maxiter=20 * len(b))


def solve_linear_reaction(grid: Grid, mu: float, potential: Field, rhs: Field,
                          rtol: float = LINEAR_RTOL) -> Field:
    """Solve -mu*lap(w) - potential*w = rhs with Neumann boundary conditions.

    The caller is responsible for the principal eigenvalue of the operator
    being positive; an indefinite system surfaces as SolverError.
    """
    if grid.dim == 1:
        return Field(grid, _solve_reaction_1d(grid, mu, potential.values, rhs.values))
    x = _solve_weighted(grid, _reaction_matrix(grid, mu, potential.values), rhs.values,
                        rtol=rtol)
    return Field(grid, x)


def solve_zero_mean_poisson(grid: Grid, rhs: Field, rtol: float = LINEAR_RTOL) -> Field:
    """Solve -lap(v) = rhs, Neumann, with mean(v) = 0.

    The rhs must be compatible (|mean| <= 1e-10).  The singular direction is
    removed by projecting rhs and iterates onto the zero-mean subspace each
    CG iteration.
    """
    rhs_mean = mean(rhs)
    if abs(rhs_mean) > 1e-10:
        raise ValueError(f"incompatible rhs for pure-Neumann problem: mean = {rhs_mean:g}")
    centered = rhs.flat - rhs_mean
    if float(np.max(np.abs(centered))) <= 1e-14 * max(1.0, float(np.max(np.abs(rhs.flat)))):
        return Field(grid, np.zeros(grid.shape))  # rhs is constant up to rounding
    w = _weights(grid)
    vol = grid.volume
    S = (sp.diags(w) @ (-_laplacian_matrix(grid))).tocsr()
    b = w * centered

    def recenter(x):
        return x - (w @ x) / vol

    x = _pcg(S, b, rtol=rtol, maxiter=40 * len(b), recenter=recenter)
    return Field(grid, recenter(x))


def principal_eigenvalue(grid: Grid, mu: float, potential: Field,
                         tol: float = 1e-12, max_iter: int = 2000) -> tuple[float, Field]:
    """Smallest eigenvalue of -mu*lap - potential (Neumann) and its positive
    eigenfunction, normalized so mean(phi^2) = 1.

    Shifted inverse power iteration on the weighted-symmetric operator; the
    shift sits strictly below the spectrum (lambda_min >= -max potential).
    """
    w = _weights(grid)
    vol = grid.volume
    A = _reaction_matrix(grid, mu, potential.values)
    S = (sp.diags(w) @ A).tocsr()
    shift = -float(np.max(potential.values)) - 1.0
    lu = spla.splu((S - shift * sp.diags(w)).tocsc())

    x = np.ones(grid.node_count)
    lam = 0.0
    residual = np.inf
    for _ in range(max_iter):
        y = lu.solve(w * x)
        y /= np.sqrt((w @ y**2) / vol)
        lam = float((y @ (S @ y)) / (w @ y**2))
        x = y
        residual = float(np.max(np.abs(A @ x - lam * x)))
        if residual <= max(tol * 100, 1e-10) * max(1.0, abs(lam)):
            break
    if residual > 1e-7 * max(1.0, abs(lam)):
        raise SolverError(f"inverse power iteration did not converge (residual {residual:g})")
    if mean(Field(grid, x)) < 0:
        x = -x
    return lam, Field(grid, x)


@dataclass(frozen=True)
class LogisticProblem:
    """Steady harvesting environment: resources K and diffusivity mu.

    The checked constructor enforces the admissible resource class
    (0 <= K <= 1, mean in (0,1)); ``unchecked`` skips the bounds for reuse
    with effective resources K - sum(others) in game computations.
    """

    grid: Grid
    K: Field
    mu: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.K.grid != self.grid:
            raise ValueError("K lives on a different grid")
        if np.min(self.K.values) < 0 or np.max(self.K.values) > 1:
            raise ValueError("K must satisfy 0 <= K <= 1 (use LogisticProblem.unchecked to relax)")
        k0 = mean(self.K)
        if not (0.0 < k0 <= 1.0):
            raise ValueError("mean(K) must lie in (0, 1]")

    @classmethod
    def unchecked(cls, grid: Grid, K: Field, mu: float) -> "LogisticProblem":
        obj = object.__new__(cls)
        object.__setattr__(obj, "grid", grid)
        object.__setattr__(obj, "K", K)
        object.__setattr__(obj, "mu", float(mu))
        if mu <= 0:
            raise ValueError("mu must be positive")
        return obj

    @property
    def K0(self) -> float:
        return mean(self.K)


@dataclass
class SolveReport:
    solution: Field
    iterations: int
    final_residual: float
    converged: bool
    positive_branch: bool = True


def _steady_residual(grid: Grid, mu: float, K: np.ndarray, alpha: np.ndarray,
                     theta: np.ndarray) -> np.ndarray:
    lap = _laplacian_matrix(grid) @ theta.reshape(-1)
    return (-mu) * lap - theta.reshape(-1) * (K.reshape(-1) - alpha.reshape(-1) - theta.reshape(-1))


def _residual_floor(grid: Grid, mu: float, theta: np.ndarray) -> float:
    """Smallest sup-norm residual representable at this resolution: the
    Laplacian stencil cancels O(theta) values, so rounding alone contributes
    about eps * mu * |theta| / h^2."""
    h_min = min(grid.spacing)
    return 16.0 * np.finfo(float).eps * mu * max(1.0, float(np.max(np.abs(theta)))) / h_min**2


def _newton(problem: LogisticProblem, alpha: Field, theta0: np.ndarray, tol: float,
            max_iter: int) -> tuple[np.ndarray, int, float, bool]:
    grid = problem.grid
    K, a = problem.K.values, alpha.values
    theta = theta0.reshape(-1).copy()
    res = _steady_residual(grid, problem.mu, K, a, theta)
    rnorm = float(np.max(np.abs(res)))
    for it in range(1, max_iter + 1):
        if rnorm <= tol:
            return theta, it - 1, rnorm, True
        # Jacobian potential K - alpha - 2*theta: same operator as the adjoint.
        pot = K.reshape(-1) - a.reshape(-1) - 2.0 * theta
        try:
            if grid.dim == 1:
                delta = _solve_reaction_1d(grid, problem.mu, pot, -res)
            else:
                A = _reaction_matrix(grid, problem.mu, pot)
                delta = _solve_weighted(grid, A, -res, direct=True)
        except SolverError:
            return theta, it, rnorm, False
        # Backtracking damping on the residual sup-norm.
        lam = 1.0
        while lam >= 2.0**-30:
            cand = theta + lam * delta
            res_c = _steady_residual(grid, problem.mu, K, a, cand)
            rnorm_c = float(np.max(np.abs(res_c)))
            if rnorm_c < (1.0 - 0.25 * lam) * rnorm or rnorm_c <= tol:
                theta, res, rnorm = cand, res_c, rnorm_c
                break
            lam /= 2.0
        else:
            # Damping exhausted: accept if we are at the rounding floor of
            # the discrete residual, otherwise report failure.
            return theta, it, rnorm, rnorm <= max(tol, _residual_floor(grid, problem.mu, theta))
    return theta, max_iter, rnorm, rnorm <= max(tol, _residual_floor(grid, problem.mu, theta))


def solve_steady(problem: LogisticProblem, alpha: Field, tol: float = NONLINEAR_TOL,
                 initial: Field | None = None, max_iter: int = 60) -> SolveReport:
    """Solve the steady logistic-diffusive equation
    -mu*lap(theta) = theta*(K - alpha - theta), Neumann, theta >= 0.

    Returns the positive branch when it exists; if Newton collapses onto the
    trivial branch while the principal eigenvalue of -mu*lap-(K-alpha) says a
    positive solution exists, restarts from the flat mean state (at most
    twice) before giving up.  When no positive branch exists the zero
    solution is returned flagged ``positive_branch=False``.

    ``tol`` is a target for the sup-norm of the discrete residual; on fine
    grids it is floored by the rounding level of the Laplacian stencil
    (about eps * mu / h^2), which is what the convergence flag honors.
    """
    if np.min(alpha.values) < -1e-14:
        raise ValueError("alpha must be nonnegative")
    gap = mean(problem.K) - mean(alpha)
    if gap <= 0:
        raise ValueError(
            f"admissibility violated: mean(alpha) = {mean(alpha):g} >= mean(K) = {mean(problem.K):g}"
        )
    if initial is not None:
        theta0 = initial.values.reshape(-1)
    else:
        # Near the large-diffusivity limit; keeps Newton in the positive basin.
        theta0 = np.maximum(problem.K.values - alpha.values, 0.01 * problem.K0).reshape(-1)

    restarts = 0
    total_iters = 0
    while True:
        theta, iters, rnorm, ok = _newton(problem, alpha, theta0, tol, max_iter)
        total_iters += iters
        collapsed = ok and float(np.max(np.abs(theta))) < 1e-8
        if ok and not collapsed:
            if float(np.min(theta)) < -1e-8:
                ok = False  # converged to a sign-changing branch; retry
            else:
                theta = np.where(np.abs(theta) < 1e-13, 0.0, np.maximum(theta, 0.0))
                return SolveReport(Field(problem.grid, theta), total_iters, rnorm, True, True)
        if ok and collapsed:
            lam, _ = principal_eigenvalue(problem.grid, problem.mu, problem.K - alpha)
            if lam >= 0:
                zero = Field(problem.grid, np.zeros(problem.grid.shape))
                return SolveReport(zero, total_iters, rnorm, True, False)
        if restarts >= 2:
            raise SolverError(
                f"steady solve failed after {restarts} restarts (residual {rnorm:g})"
            )
        restarts += 1
        theta0 = np.full(problem.grid.node_count, max(gap, 1e-3))
