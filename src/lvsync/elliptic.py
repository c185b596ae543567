"""Logistic steady state: Δθ + θ(a - θ) = 0 with zero Dirichlet boundary.

A positive solution exists iff the growth rate is supercritical, i.e. the
principal eigenvalue λ1(a) of -(Δ + a) is negative (for constant a this is
a > λ1 of -Δ). The solver gates on that condition and raises
SubcriticalError otherwise: below the threshold only θ ≡ 0 solves the
problem and silently returning it would be misleading.

Newton linearization: J(θ)δ = -(Δθ + θ(a-θ)) with J(θ) = Δ + diag(a - 2θ),
damped by step halving whenever the residual fails to decrease or an
iterate loses positivity. Each iteration factors -J and solves for the
residual itself: at the positive solution, -J = -(Δ + a - θ) + diag(θ) has
smallest eigenvalue above λ1(a - θ) = 0, so it is symmetric positive
definite there, which `grid.factorize` factors without pivoting. The
Newton loop, which `solve_logistic` and `uniqueness_probe` both run, owns
the one check of the tolerance: 0 < tol < inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, WeightedOperator, as_field, factorize, l2_norm, laplacian
from .spectral import DEFAULT_TOL, EigenPair, principal_eigenpair

__all__ = [
    "LogisticSolution",
    "SubcriticalError",
    "NewtonDivergenceError",
    "solve_logistic",
    "logistic_residual",
    "uniqueness_probe",
    "UniquenessReport",
]

MAX_NEWTON = 60
MAX_HALVINGS = 30
# uniqueness_probe: positive limits closer than this (max norm) are one solution
DISTINCT_TOL = 1e-6
# eigen tolerance of _principal_start: the gate needs the sign and rough size of
# lambda1, and the residual floor eps*h^-2 rules out tighter demands on fine grids
GATE_EIGEN_TOL = 1e-7


class SubcriticalError(ValueError):
    """Growth rate below the principal eigenvalue: only θ=0 exists."""

    def __init__(self, lambda1: float):
        super().__init__(
            f"subcritical: lambda1(a) = {lambda1:.6g} >= 0, no positive steady state"
        )
        self.lambda1 = lambda1


class NewtonDivergenceError(RuntimeError):
    """Newton iteration failed; carries the residual trace."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message + f" (residual trace: {['%.3e' % r for r in trace]})")
        self.trace = trace


@dataclass(frozen=True)
class LogisticSolution:
    """Positive solution of the logistic problem with solver diagnostics."""

    theta: Field
    a: Field
    residual_norm: float
    newton_iterations: int
    lambda1_of_a: float


def logistic_residual(theta: Field, a) -> float:
    """L2 norm of the discrete residual Δθ + θ(a - θ)."""
    a = as_field(theta.grid, a)
    op = WeightedOperator(theta.grid, a - theta)
    return l2_norm(op.apply(theta))


def _residual_vec(lap, theta: np.ndarray, a: np.ndarray) -> np.ndarray:
    return lap @ theta + theta * (a - theta)


def _newton(
    grid: Grid,
    a_vals: np.ndarray,
    theta0: np.ndarray,
    tol: float,
    enforce_positive: bool,
) -> tuple[np.ndarray, float, int]:
    """Damped Newton on the logistic residual. Returns (theta, res, iters).

    With enforce_positive, steps that drive any node nonpositive are damped;
    hitting the damping floor is a hard failure. Without it (uniqueness
    probe), iterates may roam through zero and sign changes.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    lap = laplacian(grid)
    theta = theta0.copy()
    res = grid.norm(_residual_vec(lap, theta, a_vals))
    trace = [res]
    for it in range(1, MAX_NEWTON + 1):
        if res <= tol:
            return theta, res, it - 1
        # -J δ = F: -J is symmetric positive definite near the solution,
        # where factorize hands it to LAPACK
        neg_J = -WeightedOperator(grid, Field(grid, a_vals - 2.0 * theta)).matrix
        try:
            delta = factorize(neg_J).solve(_residual_vec(lap, theta, a_vals))
        except RuntimeError as exc:  # singular Jacobian
            raise NewtonDivergenceError(f"Newton linear solve failed: {exc}", trace)
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            candidate = theta + t * delta
            if enforce_positive and candidate.min() <= 0.0:
                t *= 0.5
                continue
            new_res = grid.norm(_residual_vec(lap, candidate, a_vals))
            if new_res < res or new_res <= tol:
                theta, res = candidate, new_res
                break
            t *= 0.5
        else:
            raise NewtonDivergenceError(
                f"Newton stalled at iteration {it}: damping floor reached", trace
            )
        trace.append(res)
    if res <= tol:
        return theta, res, MAX_NEWTON
    raise NewtonDivergenceError(f"Newton did not converge in {MAX_NEWTON} iterations", trace)


def _principal_start(grid: Grid, a: Field, amax: float) -> tuple[EigenPair, np.ndarray]:
    """Principal eigenpair of Δ + a (the gate) and its eigenfunction scaled to amax/2."""
    gate = principal_eigenpair(WeightedOperator(grid, a), tol=GATE_EIGEN_TOL)
    return gate, gate.phi.values * (0.5 * amax / gate.phi.values.max())


def solve_logistic(grid: Grid, a, tol: float = DEFAULT_TOL) -> LogisticSolution:
    """Unique positive steady state of the diffusive logistic equation.

    a may be a constant or a Field on grid. Newton starts from the principal
    eigenfunction of Δ + a scaled to half of max a and, only if that run
    fails, from the constant max a. Raises SubcriticalError when λ1(a) >= 0
    and NewtonDivergenceError with the residual trace on failure.
    """
    a = as_field(grid, a)
    gate, start = _principal_start(grid, a, a.max())
    if gate.lam >= 0:
        raise SubcriticalError(gate.lam)

    def newton_from(start: np.ndarray) -> tuple[np.ndarray, float, int]:
        theta, res, iters = _newton(grid, a.values, start, tol, enforce_positive=True)
        if theta.max() <= 1e-6 * max(1.0, a.max()):
            # zero solves the equation too; silently returning it would
            # be misleading for a supercritical growth rate
            raise NewtonDivergenceError(
                "Newton collapsed to the trivial zero solution", [res]
            )
        return theta, res, iters

    try:
        theta, res, iters = newton_from(start)
    except NewtonDivergenceError:
        # the eigenfunction start is heuristic and can stall for large a
        # on coarse grids; the constant max(a) field is a discrete
        # supersolution, and for this concave reaction Newton descends
        # from it monotonically
        theta, res, iters = newton_from(np.full(grid.size, a.max()))

    if theta.min() <= 0.0:
        raise NewtonDivergenceError("converged iterate is not strictly positive", [res])
    if theta.max() >= a.max():
        raise NewtonDivergenceError(
            f"converged iterate violates the a-priori bound max θ = {theta.max():.6g} "
            f">= max a = {a.max():.6g}",
            [res],
        )
    return LogisticSolution(
        theta=Field(grid, theta),
        a=a,
        residual_norm=res,
        newton_iterations=iters,
        lambda1_of_a=gate.lam,
    )


@dataclass(frozen=True)
class UniquenessReport:
    """Multi-start Newton outcome: numerical evidence, not a proof."""

    solutions: tuple[Field, ...]  # distinct positive limits
    n_starts: int
    n_positive: int
    n_zero: int
    n_sign_changing: int
    n_failed: int

    @property
    def n_distinct_positive(self) -> int:
        return len(self.solutions)


def uniqueness_probe(
    grid: Grid,
    a,
    n_starts: int,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> UniquenessReport:
    """Run Newton from diverse positive starts and report distinct positive limits.

    Start menu: the scaled principal eigenfunction of Δ + a, constants spread
    over (0, max a], and seeded random positive fields. The inner Newton does
    not enforce positivity, so convergence to zero or to sign-changing
    solutions is observed and classified rather than masked. Non-convergent
    starts are counted, never fatal; a tol outside (0, inf) is a ValueError.
    """
    a = as_field(grid, a)
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    amax = a.max()
    if amax <= 0:
        amax = 1.0

    starts = [_principal_start(grid, a, amax)[1]]
    n_const = max(0, (n_starts - 1) // 2)
    for j in range(n_const):
        starts.append(np.full(grid.size, amax * (j + 1) / n_const))
    while len(starts) < n_starts:
        starts.append(rng.uniform(0.0, amax, size=grid.size))

    distinct: list[np.ndarray] = []
    n_zero = n_sign = n_fail = n_pos = 0
    for s in starts:
        try:
            theta, _, _ = _newton(grid, a.values, s, tol, enforce_positive=False)
        except NewtonDivergenceError:
            n_fail += 1
            continue
        if np.abs(theta).max() <= 1e-8:
            n_zero += 1
        elif theta.min() > 0.0:
            n_pos += 1
            if not any(
                np.max(np.abs(theta - d)) <= DISTINCT_TOL for d in distinct
            ):
                distinct.append(theta)
        else:
            n_sign += 1

    return UniquenessReport(
        solutions=tuple(Field(grid, d) for d in distinct),
        n_starts=n_starts,
        n_positive=n_pos,
        n_zero=n_zero,
        n_sign_changing=n_sign,
        n_failed=n_fail,
    )
