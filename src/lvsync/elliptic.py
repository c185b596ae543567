"""Logistic steady state: Δθ + θ(a - θ) = 0 with zero Dirichlet boundary.

A positive solution exists iff the growth rate is supercritical, i.e. the
principal eigenvalue λ1(a) of -(Δ + a) is negative (for constant a this is
a > λ1 of -Δ). The solver gates on that condition and raises
SubcriticalError otherwise: below the threshold only θ ≡ 0 solves the
problem and silently returning it would be misleading.

Newton linearization: J(θ)δ = -(Δθ + θ(a-θ)) with J(θ) = Δ + diag(a - 2θ),
damped by step halving whenever the residual fails to decrease. Each
iteration factors -J and solves for the residual itself: at the positive
solution, -J = -(Δ + a - θ) + diag(θ) has smallest eigenvalue above
λ1(a - θ) = 0, so it is symmetric positive definite there, which
`grid.factorize` factors without pivoting. The Newton loop, which
`solve_logistic` and `uniqueness_probe` both run, accepts θ by the one
gate, `spectral.residual_gate`, and classifies its limit by `_limit_kind`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, WeightedOperator, as_field, factorize, l2_norm, laplacian
from .spectral import DEFAULT_TOL, EigenPair, principal_eigenpair, residual_gate

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


def _limit_kind(theta: np.ndarray, amax: float) -> str:
    """The one classification of a Newton limit: "zero" (no value above
    eps·max a in magnitude), "positive" or "sign-changing"."""
    if np.abs(theta).max() <= np.finfo(float).eps * amax:
        return "zero"
    return "positive" if theta.min() > 0.0 else "sign-changing"


def _newton(
    grid: Grid,
    a_vals: np.ndarray,
    theta0: np.ndarray,
    tol: float,
    amax: float,
) -> tuple[np.ndarray, float, int, str]:
    """Damped Newton on F(θ) = Δθ + θ(a - θ). Returns (theta, res, iters,
    kind), kind the limit's _limit_kind at the positive scale amax.

    θ is accepted when ‖F(θ)‖ passes residual_gate(Δ, tol) at scale
    ‖Δθ‖ + ‖θ(a - θ)‖, or as soon as it reads as zero, which that gate
    passes only once ‖F‖ underflows. Hitting the damping floor is a hard
    failure.
    """
    lap = laplacian(grid)
    gate = residual_gate(lap, tol)

    def evaluate(theta: np.ndarray) -> tuple[np.ndarray, float, float]:
        diffusion, gap = lap @ theta, a_vals - theta
        reaction = theta * gap
        F = diffusion + reaction
        scale = grid.norm(diffusion) + grid.norm(reaction)
        return F, grid.norm(F), gate(scale, np.abs(gap).max(), grid.norm(theta))

    theta = theta0.copy()
    F, res, bound = evaluate(theta)
    trace = [res]
    for it in range(1, MAX_NEWTON + 1):
        kind = _limit_kind(theta, amax)
        if res <= bound or kind == "zero":
            return theta, res, it - 1, kind
        # -J δ = F: -J is symmetric positive definite near the solution,
        # where factorize hands it to LAPACK
        neg_J = -WeightedOperator(grid, Field(grid, a_vals - 2.0 * theta)).matrix
        try:
            delta = factorize(neg_J).solve(F)
        except RuntimeError as exc:  # singular Jacobian
            raise NewtonDivergenceError(f"Newton linear solve failed: {exc}", trace)
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            candidate = theta + t * delta
            new_F, new_res, new_bound = evaluate(candidate)
            if new_res < res or new_res <= new_bound:
                theta, F, res, bound = candidate, new_F, new_res, new_bound
                break
            t *= 0.5
        else:
            raise NewtonDivergenceError(
                f"Newton stalled at iteration {it}: damping floor reached (gate {bound:.3e})",
                trace,
            )
        trace.append(res)
    if res <= bound:
        return theta, res, MAX_NEWTON, _limit_kind(theta, amax)
    raise NewtonDivergenceError(
        f"Newton did not converge in {MAX_NEWTON} iterations (gate {bound:.3e})", trace
    )


def _principal_start(grid: Grid, a: Field, amax: float, tol: float) -> tuple[EigenPair, np.ndarray]:
    """Principal eigenpair of Δ + a (the gate on λ1) and its eigenfunction scaled to amax/2."""
    principal = principal_eigenpair(WeightedOperator(grid, a), tol=tol)
    return principal, principal.phi.values * (0.5 * amax / principal.phi.values.max())


def solve_logistic(grid: Grid, a, tol: float = DEFAULT_TOL) -> LogisticSolution:
    """Unique positive steady state of the diffusive logistic equation.

    a may be a constant or a Field on grid. Newton starts from the principal
    eigenfunction of Δ + a scaled to half of max a and, only if that run
    fails or ends at a limit that is not positive, from the constant max a,
    a supersolution. Raises SubcriticalError when λ1(a) >= 0 and
    NewtonDivergenceError with the residual trace on failure.
    """
    a = as_field(grid, a)
    principal, start = _principal_start(grid, a, a.max(), tol)
    if principal.lam >= 0:
        raise SubcriticalError(principal.lam)

    def newton_from(start: np.ndarray) -> tuple[np.ndarray, float, int]:
        theta, res, iters, kind = _newton(grid, a.values, start, tol, a.max())
        if kind != "positive":
            # zero solves the equation too; silently returning it would
            # be misleading for a supercritical growth rate
            raise NewtonDivergenceError(f"Newton limit is {kind}, not strictly positive", [res])
        return theta, res, iters

    try:
        theta, res, iters = newton_from(start)
    except NewtonDivergenceError:
        # the eigenfunction start is heuristic: for large a on coarse grids
        # it can end at zero, at a sign-changing root or in a stall. The
        # constant max(a) field is a discrete supersolution, and for this
        # concave reaction Newton descends from it monotonically to θ
        theta, res, iters = newton_from(np.full(grid.size, a.max()))

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
        lambda1_of_a=principal.lam,
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
    over (0, max a], and seeded random positive fields. A limit at zero or
    one that changes sign is classified rather than masked. Non-convergent
    starts are counted, never fatal; a tol outside (0, inf) is a ValueError.
    """
    a = as_field(grid, a)
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    amax = a.max()
    if amax <= 0:
        amax = 1.0

    starts = [_principal_start(grid, a, amax, tol)[1]]
    n_const = max(0, (n_starts - 1) // 2)
    for j in range(n_const):
        starts.append(np.full(grid.size, amax * (j + 1) / n_const))
    while len(starts) < n_starts:
        starts.append(rng.uniform(0.0, amax, size=grid.size))

    distinct: list[np.ndarray] = []
    n_zero = n_sign = n_fail = n_pos = 0
    for s in starts:
        try:
            theta, _, _, kind = _newton(grid, a.values, s, tol, amax)
        except NewtonDivergenceError:
            n_fail += 1
            continue
        if kind == "zero":
            n_zero += 1
        elif kind == "positive":
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
