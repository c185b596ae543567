"""Metamorphic relations: two runs of `verify_theorem` whose answers are
tied exactly, checked without any reference solution.

- Scaling. On extents L·ℓ with growth rate a₀/L², Δ_h, θ and every
  eigenvalue scale by 1/L² exactly, so μ₁(L)·L² = μ₁(1).
- Transpose. Swapping a rectangle's axes permutes the nodes, so μ₁ is the
  same, though the kernel changes: a grid 120 nodes wide in x goes to
  SuperLU, its transpose to band Cholesky.

Both runs must end `stable`, with μ₁ equal within 100·tol relative; the
largest difference measured is about 4e-11 relative. The scaled pairs
must also report the same relative `mismatch_threshold`: the verdict's
bound has no term in units of its own, so it moves only by the rounding
of its residual floors (a few eps) and by the relative error of the
eigenvalue it is divided by, which the bound itself limits (2·threshold).

A seeded random `verify` campaign over short 1D intervals with large a,
where an absolute Newton tolerance used to stall, must end `stable` too.
"""

import functools
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from lvsync import Grid, ModelParams, verify_theorem
from lvsync.grid import LapackFactor, factorize, laplacian
from lvsync.spectral import DEFAULT_TOL

BOUND = 100 * DEFAULT_TOL
EPS = np.finfo(float).eps



def campaign_draws(count=40, seed=0):
    """(n, L, a) with n in [150, 300), L in [1, 1.4), a in [20, 60), drawn
    in that order per case."""
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(150, 300)), rng.uniform(1.0, 1.4), rng.uniform(20.0, 60.0))
            for _ in range(count)]


@functools.cache
def stable_report(grid, a):
    """The report of the default (b, c) = (0.5, 1) at k = 6; the run must be stable."""
    report = verify_theorem(ModelParams(a=a, b=0.5, c=1.0), grid, 6)
    assert (report.verdict, report.cause) == ("stable", None)
    return report


def mu1(grid, a):
    return stable_report(grid, a).mu1


def assert_scales(kind, unit, n, a0, L):
    base = stable_report(Grid(kind, unit, n), a0)
    scaled = stable_report(Grid(kind, tuple(L * x for x in unit), n), a0 / L**2)
    assert scaled.verdict == base.verdict
    assert abs(scaled.mu1 * L**2 - base.mu1) <= BOUND * base.mu1
    threshold = base.mismatch_threshold
    assert abs(scaled.mismatch_threshold - threshold) <= threshold * (2 * threshold + 16 * EPS)


@pytest.mark.parametrize("L", [1e-3, 0.1, 0.25, 0.5, 2.0, 3.0, 1e3, 1e5])
@pytest.mark.parametrize("n", [200, 400, 600])
def test_1d_scaling(n, L):
    assert_scales("interval", (math.pi,), (n,), 2.0, L)


@pytest.mark.parametrize("n, L, a", [(207, 1.252, 43.3), (277, 1.232, 38.2), (260, 1.346, 31.1)])
def test_1d_campaign_case(n, L, a):
    mu1(Grid("interval", (L,), (n,)), a)


def test_1d_seeded_campaign():
    for n, L, a in campaign_draws():
        mu1(Grid("interval", (L,), (n,)), a)


@pytest.mark.parametrize("L", [1e-3, 0.1, 0.25, 0.5, 2.0, 3.0, 1e3, 1e5])
def test_2d_scaling(L):
    assert_scales("rectangle", (math.pi, math.pi), (40, 40), 4.0, L)


def test_transpose_across_the_band_limit():
    wide = Grid("rectangle", (4.0, 1.0), (120, 30))
    tall = Grid("rectangle", (1.0, 4.0), (30, 120))
    for grid, kernel in ((wide, spla.SuperLU), (tall, LapackFactor)):
        assert isinstance(factorize(-laplacian(grid)), kernel)
    base = mu1(tall, 20.0)
    assert abs(mu1(wide, 20.0) - base) <= BOUND * base
