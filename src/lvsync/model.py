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

from .grid import Field, GridMismatchError, WeightedOperator, as_field, l2_norm
from .elliptic import LogisticSolution

__all__ = [
    "ModelParams",
    "SteadyState",
    "ratio_coefficients",
    "synchronized_state",
    "system_residual",
]


@dataclass(frozen=True)
class ModelParams:
    """Growth rate a (constant or Field) and predation rates b, c."""

    a: object  # float or Field
    b: float
    c: float

    def __post_init__(self):
        ratio_coefficients(self.b, self.c)  # checks the (b, c) range
        if not isinstance(self.a, Field):
            a = float(self.a)
            if not math.isfinite(a):
                raise ValueError(f"growth rate must be finite, got {a}")
            object.__setattr__(self, "a", a)


def ratio_coefficients(b: float, c: float) -> tuple[float, float]:
    """(α, β) = ((1-b)/(1+bc), (1+c)/(1+bc)); both strictly positive.

    The one check of the parameter range 0 < b < 1, 0 < c < ∞: ModelParams,
    s_parameter, mode_ratios and the CLI's config validation all call it.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"predation rate b must lie in (0, 1), got {b}")
    if not 0.0 < c < math.inf:
        raise ValueError(f"conversion rate c must be positive and finite, got {c}")
    denom = 1.0 + b * c
    return (1.0 - b) / denom, (1.0 + c) / denom


@dataclass(frozen=True)
class SteadyState:
    """Synchronized positive steady state u = αθ, v = βθ."""

    u: Field
    v: Field
    alpha: float
    beta: float


def synchronized_state(params: ModelParams, theta: LogisticSolution) -> SteadyState:
    """Scale the logistic profile into the coupled steady state.

    Requires theta to have been solved for params.a on the same grid, and
    rejects nonpositive or non-finite profiles: a zero or NaN state must
    never be labeled as the positive synchronized solution.
    """
    grid = theta.theta.grid
    a = as_field(grid, params.a)
    if not np.array_equal(a.values, theta.a.values):
        raise ValueError("theta was solved for a different growth rate than params.a")
    if not (theta.theta.min() > 0.0 and theta.theta.max() < np.inf):  # NaN fails both
        raise ValueError("theta must be finite and strictly positive")
    alpha, beta = ratio_coefficients(params.b, params.c)
    return SteadyState(
        u=alpha * theta.theta,
        v=beta * theta.theta,
        alpha=alpha,
        beta=beta,
    )


def system_residual(u: Field, v: Field, params: ModelParams) -> tuple[float, float]:
    """L2 norms of the two coupled steady-state residuals at (u, v)."""
    if u.grid != v.grid:
        raise GridMismatchError("u and v live on different grids")
    a = as_field(u.grid, params.a)
    r_u = WeightedOperator(u.grid, a - u - params.b * v).apply(u)
    r_v = WeightedOperator(u.grid, a - v + params.c * u).apply(v)
    return l2_norm(r_u), l2_norm(r_v)
