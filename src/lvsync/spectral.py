"""Eigenpairs of the weighted Dirichlet operator.

For a weight m(x), the scalar eigenvalue problem is

    Δφ + m(x)φ = -λφ,   φ = 0 on the boundary,

i.e. λ runs over the spectrum of -(Δ + diag(m)), which is symmetric and
bounded below. The smallest eigenvalue λ1(m) is simple with a strictly
positive eigenfunction; λ_i(m) is nonincreasing in m, strictly at i=1 when
the weights differ somewhere.

One production route computes the k smallest eigenpairs: ARPACK's
shift-invert Lanczos (``eigsh``) with the shift sigma = -max(m) - 1, which
lies strictly below the spectrum, so A - sigma*I is positive definite and
the wanted eigenvalues are those of largest magnitude of its inverse. One
sparse LU factorization of A - sigma*I serves both as ARPACK's inverse
operator and in the refinement that re-evaluates every eigenvalue through
the shifted inverse. The Lanczos start vector is a fixed seeded Gaussian
(SCALAR_START_SEED), so results are reproducible run to run.

Dense LAPACK ``eigh`` is the test oracle (``method="dense"``). It is also
the fallback for k >= n - 1, where ARPACK cannot return (nearly) the whole
spectrum.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Field, WeightedOperator, fmt_g17

__all__ = [
    "EigenPair",
    "Spectrum",
    "EigenSolveError",
    "principal_eigenpair",
    "eigenpairs",
    "write_spectrum_csv",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-10
SCALAR_START_SEED = 0xE16


class EigenSolveError(RuntimeError):
    """Eigenvalue iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, last_residual: float | None = None):
        super().__init__(message)
        self.last_residual = last_residual


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
    weight: Field
    tol: float

    @property
    def values(self) -> np.ndarray:
        return np.array([p.lam for p in self.pairs])

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, i) -> EigenPair:
        return self.pairs[i]


def _sign_normalize(vec: np.ndarray) -> np.ndarray:
    """Scale so the largest-magnitude entry is positive (deterministic sign)."""
    i = int(np.argmax(np.abs(vec)))
    return -vec if vec[i] < 0 else vec


def principal_eigenpair(op: WeightedOperator, tol: float = DEFAULT_TOL) -> EigenPair:
    """Smallest eigenvalue of -(Δ + diag(m)) with its positive eigenfunction.

    The eigenfunction is sign-normalized (largest-magnitude node positive)
    and its strict positivity is asserted.
    """
    spec = eigenpairs(op, 1, tol)
    pair = spec.pairs[0]
    if pair.phi.values.min() <= 0:
        raise EigenSolveError(
            "principal eigenfunction is not strictly positive "
            f"(min {pair.phi.values.min():.3e}); this indicates a solver failure"
        )
    return pair


def eigenpairs(
    op: WeightedOperator, k: int, tol: float = DEFAULT_TOL, method: str = "shift_invert"
) -> Spectrum:
    """k smallest eigenpairs of -(Δ + diag(m)), ascending, L2-orthonormal.

    method: "shift_invert" (ARPACK eigsh, the production route) or "dense"
    (LAPACK eigh, the test oracle). k >= n - 1 always runs dense, since
    ARPACK cannot. Either way the eigenvalues are refined through the
    shifted inverse and every residual is checked against
    tol * max(1, |λ|); a failed check raises EigenSolveError.
    """
    n = op.grid.size
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if method not in ("shift_invert", "dense"):
        raise ValueError(f"unknown method {method!r}")
    A = (-op.matrix).tocsr()
    # the Rayleigh quotient of -(Δ+m) is bounded below by -max(m), so this
    # shift keeps A - sigma*I positive definite
    sigma = -float(op.weight.values.max()) - 1.0
    lu = spla.splu((A - sigma * sp.identity(n, format="csr")).tocsc())

    if method == "dense" or k >= n - 1:
        w, V = sla.eigh(A.toarray())
        w, V = w[:k], V[:, :k]
    else:
        OPinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        v0 = np.random.default_rng(SCALAR_START_SEED).standard_normal(n)
        w, V = spla.eigsh(A, k, sigma=sigma, which="LM", OPinv=OPinv, v0=v0)
    w, V = _refine_through_inverse(lu, sigma, w, V)

    # normalize in the discrete L2 norm and fix signs
    scale = 1.0 / np.sqrt(op.grid.cell_volume)
    pairs = []
    for j in range(k):
        vec = _sign_normalize(V[:, j]) * scale
        phi = Field(op.grid, vec)
        res = float(
            np.linalg.norm(A @ vec - w[j] * vec) * np.sqrt(op.grid.cell_volume)
        )
        if res > tol * max(1.0, abs(w[j])):
            raise EigenSolveError(
                f"eigenpair {j} residual {res:.3e} exceeds tol {tol:.1e}",
                last_residual=res,
            )
        pairs.append(EigenPair(lam=float(w[j]), phi=phi, residual=res))
    return Spectrum(pairs=tuple(pairs), weight=op.weight, tol=tol)


def _refine_through_inverse(
    lu: spla.SuperLU, sigma: float, w: np.ndarray, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Re-evaluate eigenvalues through the shifted inverse operator.

    Backward-stable solvers bound the eigenvalue error by eps*||A||, which
    for stencil matrices (||A|| ~ h^-2) swamps the small eigenvalues at the
    bottom of the spectrum. Evaluating lam = sigma + 1/(x'(A-sigma)^{-1}x)
    instead scales the rounding with |lam - sigma| = O(1), and the
    eigenvector's angle error only enters quadratically. Buys ~3 digits.
    """
    nu = np.sum(V * lu.solve(V), axis=0) / np.sum(V * V, axis=0)
    refined = sigma + 1.0 / nu
    order = np.argsort(refined, kind="stable")
    return refined[order], V[:, order]


def write_spectrum_csv(spec: Spectrum, path):
    """Spectrum table: index,lambda,residual."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "lambda", "residual"])
        for i, p in enumerate(spec.pairs):
            w.writerow([str(i), fmt_g17(p.lam), fmt_g17(p.residual)])
