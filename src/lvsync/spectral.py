"""Eigenpairs of the weighted Dirichlet operator.

For a weight m(x), the scalar eigenvalue problem is

    Δφ + m(x)φ = -λφ,   φ = 0 on the boundary,

i.e. λ runs over the spectrum of -(Δ + diag(m)), which is symmetric and
bounded below. The smallest eigenvalue λ1(m) is simple with a strictly
positive eigenfunction; λ_i(m) is nonincreasing in m, strictly at i=1 when
the weights differ somewhere.

One shift-invert route, `_shift_invert`, serves this problem and the
coupled one of `linstab.coupled_eigenpairs` (Ericsson & Ruhe, *Math.
Comp.* 35, 1980). For A = -op.matrix, formed once, and a shift σ below
the wanted eigenvalues, `grid.factorize(A, σ)`, the one place that
applies a shift, factors A - σI; that factorization is ARPACK's inverse
operator (``eigsh``, or ``eigs`` for the nonsymmetric coupled matrix),
from a fixed seeded Gaussian start vector so that results are
reproducible run to run. Dense LAPACK (``eigh``, ``eig``) runs only for
k >= n - 1, where ARPACK cannot; elsewhere it is the tests' oracle. Here
σ = -max(m) - 1 lies strictly below the spectrum, so A - σI is positive
definite, and its factorization also serves the refinement that
re-evaluates every eigenvalue through the shifted inverse.

Each eigenvector's sign makes its inner product with the fixed positive
weight exp(x/Lx + √2·y/Ly) positive (`_sign_weight`), so the sign of an
eigenfunction of a simple eigenvalue does not depend on the kernel or
the library that computed it. The basis returned for an exactly multiple
eigenvalue does: any orthonormal basis of its eigenspace is an answer.

Every eigenpair this package returns, scalar or coupled, passes one gate,
`check_residuals`: its L2 residual must not exceed tol * max(1, |λ|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Field, Grid, LapackFactor, WeightedOperator, factorize

__all__ = [
    "EigenPair",
    "Spectrum",
    "EigenSolveError",
    "principal_eigenpair",
    "eigenpairs",
    "check_residuals",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-10
SCALAR_START_SEED = 0xE16


class EigenSolveError(RuntimeError):
    """Eigenvalue iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, last_residual: float | None = None):
        super().__init__(message)
        self.last_residual = last_residual


def check_residuals(
    A: sp.spmatrix, values: np.ndarray, vectors: np.ndarray, grid: Grid, tol: float,
    what: str = "eigenpair",
) -> list[float]:
    """Discrete L2 residual ‖A x_j - λ_j x_j‖ of each pair (values[j],
    vectors[:, j]): one sparse product for all pairs, one norm per vector;
    raises EigenSolveError for the first pair whose residual exceeds
    tol * max(1, |λ_j|) or is NaN."""
    AV = A @ vectors
    residuals = []
    for j, lam in enumerate(values):
        # λ·x per column: numpy's SIMD loops for a broadcast complex
        # product V * w round differently from the scalar product
        res = grid.norm(AV[:, j] - lam * vectors[:, j])
        # a NaN residual fails the gate too
        if not res <= tol * max(1.0, abs(lam)):
            raise EigenSolveError(
                f"{what} {j} residual {res:.3e} exceeds tol {tol:.1e}", last_residual=res
            )
        residuals.append(res)
    return residuals


@dataclass(frozen=True)
class EigenPair:
    """One eigenpair of -(Δ + diag(m)): lam with unit-L2 eigenfunction phi."""

    lam: float
    phi: Field
    residual: float


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenpairs of -(Δ + diag(m)) for one weight."""

    pairs: tuple[EigenPair, ...]
    tol: float

    @property
    def values(self) -> np.ndarray:
        return np.array([p.lam for p in self.pairs])


def principal_eigenpair(op: WeightedOperator, tol: float = DEFAULT_TOL) -> EigenPair:
    """Smallest eigenvalue of -(Δ + diag(m)) with its positive eigenfunction.

    The eigenfunction is sign-normalized (positive inner product with a
    positive weight) and its strict positivity is asserted.
    """
    spec = eigenpairs(op, 1, tol)
    pair = spec.pairs[0]
    if pair.phi.values.min() <= 0:
        raise EigenSolveError(
            "principal eigenfunction is not strictly positive "
            f"(min {pair.phi.values.min():.3e}); this indicates a solver failure"
        )
    return pair


def eigenpairs(op: WeightedOperator, k: int, tol: float = DEFAULT_TOL) -> Spectrum:
    """k smallest eigenpairs of -(Δ + diag(m)), ascending, L2-orthonormal.

    `_shift_invert` with eigsh (eigh for k >= n - 1); the eigenvalues are
    then refined through the shifted inverse and every pair passes
    check_residuals.
    """
    # the Rayleigh quotient of -(Δ+m) is bounded below by -max(m), so this
    # shift keeps A - sigma*I positive definite
    sigma = -float(op.weight.values.max()) - 1.0
    si, w, V = _shift_invert(op, k, tol, sigma, SCALAR_START_SEED, symmetric=True)
    w, V = _refine_through_inverse(si, w, V)

    # normalize in the discrete L2 norm and fix signs by the fixed weight
    scale = 1.0 / np.sqrt(op.grid.cell_volume)
    V = V * np.where(_sign_weight(op.grid) @ V < 0, -scale, scale)
    residuals = check_residuals(si.A, w, V, op.grid, tol)
    pairs = (EigenPair(float(lam), Field(op.grid, x), r) for lam, x, r in zip(w, V.T, residuals))
    return Spectrum(pairs=tuple(pairs), tol=tol)


@dataclass(frozen=True)
class _ShiftInvert:
    """A = -op.matrix, the shift σ and factorize(A, σ), the factorization
    of A - σI."""

    A: sp.csr_matrix
    sigma: float
    lu: LapackFactor | spla.SuperLU


def _shift_invert(
    op, k: int, tol: float, sigma: float, seed: int, *, symmetric: bool, extra: int = 0
) -> tuple[_ShiftInvert, np.ndarray, np.ndarray]:
    """Eigenpairs of A = -op.matrix nearest σ for an operator with `grid`
    and `matrix`, with A - σI factored by factorize(A, σ): ARPACK's
    k + extra (at most n - 2) in its order, or for k >= n - 1 LAPACK's
    first k by (Re, Im). ValueError unless 1 <= k <= n and tol is
    positive and finite. ARPACK runs to
    machine precision: an ARPACK tolerance of 1e-12 left residuals up to
    4e-10 on the coupled defective eigenvalues of the 2D degenerate locus."""
    A = -op.matrix
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    si = _ShiftInvert(A, sigma, factorize(A, sigma))
    if k >= n - 1:
        w, V = (sla.eigh if symmetric else sla.eig)(A.toarray())
        order = np.lexsort((w.imag, w.real))[:k]
        return si, w[order], V[:, order]
    OPinv = spla.LinearOperator((n, n), matvec=si.lu.solve, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(n)
    arpack = spla.eigsh if symmetric else spla.eigs
    w, V = arpack(A, min(k + extra, n - 2), sigma=sigma, which="LM", OPinv=OPinv, v0=v0)
    return si, w, V


def _sign_weight(grid: Grid) -> np.ndarray:
    """exp(x/Lx + √2·y/Ly) at the nodes: eigenpairs makes each
    eigenvector's inner product with it positive.

    Positive, so the principal eigenfunction comes out positive. It is a
    product of one exponential per axis, each with a nonzero inner product
    with every sine mode sin(jπx/L) of its axis, so no separable mode of a
    rectangle is orthogonal to it; 1 + x/Lx + y/Ly is orthogonal to every
    mode sin(jπx/Lx)·sin(kπy/Ly) with j and k even, such as the square's
    simple (2, 2) mode. The irrational ratio of the rates leaves it no
    symmetry of the square, so it is not orthogonal to the modes that a
    symmetric weight m makes antisymmetric under x <-> y either.
    """
    rates = np.array([1.0, math.sqrt(2.0)][: grid.ndim]) / np.array(grid.extents)
    return np.exp(grid.coords() @ rates)


def _refine_through_inverse(
    si: _ShiftInvert, w: np.ndarray, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Re-evaluate eigenvalues through the shifted inverse operator.

    Backward-stable solvers bound the eigenvalue error by eps*||A||, which
    for stencil matrices (||A|| ~ h^-2) swamps the small eigenvalues at the
    bottom of the spectrum. Evaluating lam = sigma + 1/(x'(A-sigma)^{-1}x)
    instead scales the rounding with |lam - sigma| = O(1), and the
    eigenvector's angle error only enters quadratically. Buys ~3 digits.
    """
    nu = np.sum(V * si.lu.solve(V), axis=0) / np.sum(V * V, axis=0)
    refined = si.sigma + 1.0 / nu
    order = np.argsort(refined, kind="stable")
    return refined[order], V[:, order]
