"""Predator-prey parameters and the synchronized steady state.

The coupled steady system

    Δu + u(a - u - b v) = 0,    Δv + v(a - v + c u) = 0,

with 0 < b < 1, c > 0 has the positive solution u = αθ, v = βθ where θ is
the logistic steady state for the same growth rate and

    α = (1-b)/(1+bc),    β = (1+c)/(1+bc).

Both equations then reduce to the logistic one through the exact algebraic
identities α + bβ = 1 and β - cα = 1. The state is "synchronized": u/v is
the constant α/β everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, GridMismatchError, WeightedOperator, l2_norm
from .elliptic import LogisticSolution

__all__ = [
    "ModelParams",
    "SteadyState",
    "ratio_coefficients",
    "synchronized_state",
    "system_residual",
    "semi_trivial_state",
]


def _validate_bc(b: float, c: float):
    if not (math.isfinite(b) and 0.0 < b < 1.0):
        raise ValueError(f"predation rate b must lie in (0, 1), got {b}")
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"conversion rate c must be positive, got {c}")


@dataclass(frozen=True)
class ModelParams:
    """Growth rate a (constant or Field) and predation rates b, c."""

    a: object  # float or Field
    b: float
    c: float

    def __post_init__(self):
        _validate_bc(self.b, self.c)
        if not isinstance(self.a, Field):
            a = float(self.a)
            if not math.isfinite(a):
                raise ValueError(f"growth rate must be finite, got {a}")
            object.__setattr__(self, "a", a)

    def a_field(self, grid) -> Field:
        if isinstance(self.a, Field):
            if self.a.grid != grid:
                raise GridMismatchError("params.a lives on a different grid")
            return self.a
        return Field.constant(grid, self.a)


def ratio_coefficients(b: float, c: float) -> tuple[float, float]:
    """(α, β) = ((1-b)/(1+bc), (1+c)/(1+bc)); both strictly positive."""
    _validate_bc(b, c)
    denom = 1.0 + b * c
    return (1.0 - b) / denom, (1.0 + c) / denom


@dataclass(frozen=True)
class SteadyState:
    """Synchronized positive steady state u = αθ, v = βθ."""

    u: Field
    v: Field
    alpha: float
    beta: float
    theta: Field


def synchronized_state(params: ModelParams, theta: LogisticSolution) -> SteadyState:
    """Scale the logistic profile into the coupled steady state.

    Requires theta to have been solved for params.a on the same grid, and
    rejects nonpositive profiles: a zero state must never be labeled as the
    positive synchronized solution.
    """
    grid = theta.theta.grid
    a = params.a_field(grid)
    if not np.allclose(a.values, theta.a.values, rtol=1e-13, atol=1e-13):
        raise ValueError("theta was solved for a different growth rate than params.a")
    if theta.theta.min() <= 0.0:
        raise ValueError("theta must be strictly positive")
    alpha, beta = ratio_coefficients(params.b, params.c)
    return SteadyState(
        u=alpha * theta.theta,
        v=beta * theta.theta,
        alpha=alpha,
        beta=beta,
        theta=theta.theta,
    )


def system_residual(u: Field, v: Field, params: ModelParams) -> tuple[float, float]:
    """L2 norms of the two coupled steady-state residuals at (u, v)."""
    if u.grid != v.grid:
        raise GridMismatchError("u and v live on different grids")
    a = params.a_field(u.grid)
    r_u = WeightedOperator(u.grid, a - u - params.b * v).apply(u)
    r_v = WeightedOperator(u.grid, a - v + params.c * u).apply(v)
    return l2_norm(r_u), l2_norm(r_v)


def semi_trivial_state(theta: LogisticSolution, which: str) -> tuple[Field, Field]:
    """(θ, 0) or (0, θ): single-species baselines for dynamics comparisons."""
    zero = Field.constant(theta.theta.grid, 0.0)
    if which == "prey":
        return theta.theta, zero
    if which == "predator":
        return zero, theta.theta
    raise ValueError(f"which must be 'prey' or 'predator', got {which!r}")
