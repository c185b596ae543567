"""Eigenpairs of the weighted Dirichlet operator.

For a weight m(x), the scalar eigenvalue problem is

    Δφ + m(x)φ = -λφ,   φ = 0 on the boundary,

i.e. λ runs over the spectrum of -(Δ + diag(m)), which is symmetric and
bounded below. The smallest eigenvalue λ1(m) is simple with a strictly
positive eigenfunction; λ_i(m) is nonincreasing in m, strictly at i=1 when
the weights differ somewhere.

One shift-invert path, `_shift_invert`, takes this problem and the
coupled one of `linstab.coupled_eigenpairs` (Ericsson & Ruhe, *Math.
Comp.* 35, 1980) to checked eigenpairs, for every k that `eigen_window`
admits. `grid.factorize(A, σ)` factors A - σI, A = -op.matrix, as ARPACK's
inverse operator (``eigsh``, or ``eigs`` for the coupled matrix; fixed
seeded start vector), whose eigenvalues σ + 1/ν are sorted by (Re, Im),
the vectors scaled to unit discrete L2 norm and every pair checked; an
ARPACK failure gets one restart from a second fixed seed. Dense LAPACK is
only the tests' oracle. Here σ = -max(m), so A - σI =
-Δ + diag(max m - m) >= -Δ is positive definite: the Laplacian's λ₁ > 0
is the margin, and it scales with the problem as every eigenvalue does.

Each eigenvector's sign makes its inner product with the fixed positive
weight exp(x/Lx + √2·y/Ly) positive (`_sign_weight`), so the sign of an
eigenfunction of a simple eigenvalue does not depend on the kernel or
the library that computed it. The basis returned for an exactly multiple
eigenvalue does: any orthonormal basis of its eigenspace is an answer.

Every eigenpair this package returns, scalar or coupled, passes
`check_residuals`, and every θ `elliptic` accepts passes the same rule,
`residual_gate`: a relative backward error tol above a rounding floor,
both in the residual's own units.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Field, Grid, WeightedOperator, factorize

__all__ = [
    "EigenPair",
    "Spectrum",
    "EigenSolveError",
    "principal_eigenpair",
    "eigenpairs",
    "check_residuals",
    "residual_gate",
    "eigen_window",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-10
SCALAR_START_SEED = 0xE16
# the start of the one restart after an ARPACK failure, scalar or coupled (_shift_invert)
RETRY_START_SEED = 0x5EED
# Most float64 values one eigen solve may hold: ARPACK's basis at scipy's default ncv =
# min(n, max(2k + 1, 20)) plus the vectors it returns, n values each, complex ones twice.
# 0.8 GB, 25 times the repo's largest solve (the 150×150 verify's coupled one, k = 6: 43
# complex vectors of 45,000); nearly a whole big spectrum is a ValueError, not exhausted memory.
MAX_EIGEN_VALUES = 10**8


class EigenSolveError(RuntimeError):
    """Eigenvalue iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, last_residual: float | None = None):
        super().__init__(message)
        self.last_residual = last_residual


def residual_gate(A: sp.csr_matrix, tol: float) -> Callable[[float, float, float], float]:
    """The one acceptance rule, and the one check 0 < tol < inf, for a
    residual r = A·x + d∘x with |d| <= δ and S its own scale: gate(S, δ, ‖x‖)
    is the largest ‖r‖ accepted, max(tol·S, (m + 1)·eps·(‖A‖_∞ + δ)·‖x‖),
    with m the most nonzeros in a row of A. The second term bounds what
    evaluating r loses to rounding (README, Numerical notes)."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    unit = (np.diff(A.indptr).max() + 1) * np.finfo(float).eps
    norm_inf = np.add.reduceat(np.abs(A.data), A.indptr[:-1]).max()
    return lambda scale, shift, x_norm: max(tol * scale, unit * (norm_inf + shift) * x_norm)


def check_residuals(
    A: sp.csr_matrix, values: np.ndarray, vectors: np.ndarray, grid: Grid, tol: float,
    what: str = "eigenpair",
) -> list[float]:
    """Discrete L2 residual ‖A x_j - λ_j x_j‖ of each pair (values[j],
    vectors[:, j]), the vectors of unit discrete L2 norm: one sparse product
    for all pairs, one norm per vector; raises EigenSolveError for the first
    pair whose residual is NaN or exceeds residual_gate(A, tol) at scale
    |λ_j|·‖x_j‖ = |λ_j|."""
    gate = residual_gate(A, tol)
    AV = A @ vectors
    residuals = []
    for j, lam in enumerate(values):
        # λ·x per column: numpy's SIMD loops for a broadcast complex
        # product V * w round differently from the scalar product
        res = grid.norm(AV[:, j] - lam * vectors[:, j])
        bound = gate(abs(lam), abs(lam), 1.0)
        # a NaN residual fails the gate too
        if not res <= bound:
            raise EigenSolveError(
                f"{what} {j} residual {res:.3e} exceeds its gate {bound:.3e}", last_residual=res
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
    """k smallest eigenpairs of -(Δ + diag(m)), ascending, L2-orthonormal:
    `_shift_invert`'s with eigsh, each sign fixed by `_sign_weight`."""
    # A - σI = -Δ + diag(max m - m) >= -Δ, positive definite: the Laplacian is the margin
    sigma = -float(op.weight.values.max())
    w, V, residuals = _shift_invert(op, k, sigma, SCALAR_START_SEED, tol, symmetric=True)
    V[:, _sign_weight(op.grid) @ V < 0] *= -1.0
    pairs = (EigenPair(float(lam), Field(op.grid, x), r) for lam, x, r in zip(w, V.T, residuals))
    return Spectrum(pairs=tuple(pairs))


def eigen_window(k: int, n: int, *, extra: int = 0, symmetric: bool = True) -> int:
    """The one eigen window rule: ValueError unless 1 <= k <= n - 2, the bound of eigsh and
    eigs, and the solve of k values of n unknowns (eigs if not symmetric) holds at most
    MAX_EIGEN_VALUES values; returns the count ARPACK is asked for, k + extra up to n - 2.
    Extra values that alone break the bound are the solver's own need, not the caller's
    error: an EigenSolveError, which verify reports as its cause."""
    def held(m: int) -> int:
        return (min(n, max(2 * m + 1, 20)) + m) * n * (1 if symmetric else 2)

    if not (1 <= k <= n - 2 and held(k) <= MAX_EIGEN_VALUES):
        raise ValueError(f"{k} eigenvalues of {n} unknowns are outside the eigen window: 1 to "
                         f"{n - 2}, holding {held(k):,} of at most {MAX_EIGEN_VALUES:,} values")
    m = min(k + extra, n - 2)
    if held(m) > MAX_EIGEN_VALUES:
        raise EigenSolveError(f"a window of {m} eigenvalues of {n} unknowns holds {held(m):,} "
                              f"of at most {MAX_EIGEN_VALUES:,} values")
    return m


def _shift_invert(
    op, k: int, sigma: float, seed: int, tol: float, *, symmetric: bool, extra: int = 0
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """(values, vectors, residuals) of the k eigenpairs of A = -op.matrix nearest σ, for
    an operator with `grid` and `matrix`: ARPACK's eigen_window(k, n, …) on factorize(A, σ),
    sorted by (Re, Im), unit 2-norm vectors scaled in place to unit L2 norm, every pair
    through check_residuals. ARPACK starts from the caller's seed; after an ARPACK failure,
    no convergence included, it runs once more on the same factorization from
    RETRY_START_SEED, and a second failure is an EigenSolveError with its message's first
    sentence. Nothing else restarts it: a failed residual check, or a mismatch its caller
    finds, must stand. ARPACK runs to machine precision: its tolerance 1e-12 left
    residuals up to 4e-10 on the coupled defective eigenvalues of the 2D locus."""
    A = -op.matrix
    n = A.shape[0]
    m = eigen_window(k, n, extra=extra, symmetric=symmetric)
    OPinv = spla.LinearOperator((n, n), matvec=factorize(A, sigma).solve, dtype=float)
    arpack = spla.eigsh if symmetric else spla.eigs
    for start in (seed, RETRY_START_SEED):
        v0 = np.random.default_rng(start).standard_normal(n)
        try:
            w, V = arpack(A, m, sigma=sigma, which="LM", OPinv=OPinv, v0=v0)
            break
        except spla.ArpackError as exc:
            error = exc
    else:  # the rest of the message is advice to ARPACK's own callers
        first, stop, _ = str(error).partition(". ")
        raise EigenSolveError(first + stop.rstrip()) from error
    order = np.lexsort((w.imag, w.real))[:k]
    w, V = w[order], V[:, order]
    V *= 1.0 / math.sqrt(op.grid.cell_volume)
    what = "eigenpair" if symmetric else "coupled eigenpair"
    return w, V, check_residuals(A, w, V, op.grid, tol, what)


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
