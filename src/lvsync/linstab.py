"""Linear stability of the synchronized steady state via spectral equivalence.

Linearizing the coupled system about (u, v) gives the block operator

    J = [ Δ + diag(a - 2u - bv)      -b·diag(u)          ]
        [      c·diag(v)         Δ + diag(a - 2v + cu)   ]

whose stability eigenvalues μ solve JΦ = -μΦ. At the synchronized state
u = αθ, v = βθ the identities α + bβ = 1, β - cα = 1 collapse J into

    J = I₂⊗(Δ + diag(a)) - M⊗diag(θ),   M = [[α+1, bα], [-cβ, β+1]],

and M has eigenvalues exactly {s₁, 2} with s₁ = (2+c-b)/(1+bc) (its
characteristic polynomial factors as (x-2)(x-s₁)). A constant 2×2
similarity therefore block-diagonalizes J into the two scalar operators
Δ + diag(a - s₁θ) and Δ + diag(a - 2θ): the coupled spectrum is the union
of the two scalar families, and the coupled eigenvectors are

    (b, c)   ⊗ φ_i(a - s₁θ)   with μ = λ_i(a - s₁θ),
    (1-b,1+c)⊗ φ_i(a - 2θ)    with μ = λ_i(a - 2θ).

The component ratios φ/ψ are the roots z₁ = b/c and z₂ = (1-b)/(1+c) of
c(1+c)z² - (b+c)z + b(1-b) = 0. On the locus b = c/(2c+1) the two families
coincide (s₁ = 2), M becomes a Jordan block, and every eigenvalue of J is
a defective double eigenvalue of the single weight a - 2θ; the projection
ξ = (2c+1)φ - ψ then maps any eigenvector into the scalar eigenspace.
Since s₁ > 1 and 2 > 1, both families are strictly positive whenever θ is
the positive logistic state, which is the stability assertion this module
verifies numerically, against the spectrum of -J itself from `spectral`'s
shift-invert route.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .elliptic import LogisticSolution, NewtonDivergenceError, SubcriticalError, solve_logistic
from .grid import (
    Field, Grid, GridMismatchError, Pattern, WeightedOperator, as_field, laplacian,
)
from .model import ModelParams, ratio_coefficients, synchronized_state
from .spectral import (
    DEFAULT_TOL, EigenPair, EigenSolveError, Spectrum, _shift_invert, check_residuals, eigenpairs,
)

__all__ = [
    "CoupledJacobian",
    "coupled_pattern",
    "StabilityReport",
    "s_parameter",
    "mode_ratios",
    "degenerate_distance",
    "coupled_eigenpairs",
    "predicted_spectrum",
    "ThetaHalf",
    "theta_half",
    "verify_theorem",
    "ansatz_coefficients",
    "ansatz_residual",
    "component_projection",
    "inconclusive_report",
    "DEGENERATE_TOL",
    "DEGENERATE_WARN_BAND",
]

DEGENERATE_TOL = 1e-12
DEGENERATE_WARN_BAND = 1e-4
COUPLED_START_SEED = 0xC0
# extra Ritz values ARPACK is asked for beyond the k kept (see coupled_eigenpairs)
COUPLED_EXTRA_VALUES = 2
# how the cause of a subcritical growth rate begins (theta_half); the CLI
# exits 2 on it
SUBCRITICAL_CAUSE = "no positive steady state"


def s_parameter(b: float, c: float) -> float:
    """Decoupling exponent s₁ = (2+c-b)/(1+bc); always > 1 for valid (b, c).

    On the degenerate locus b = c/(2c+1) it equals 2 exactly (to rounding).
    """
    ratio_coefficients(b, c)  # parameter validation
    return (2.0 + c - b) / (1.0 + b * c)


def degenerate_distance(b: float, c: float) -> float:
    """|b - c/(2c+1)|, distance to the defective-spectrum locus."""
    return abs(b - c / (2.0 * c + 1.0))


def mode_ratios(b: float, c: float) -> tuple[float, float, bool]:
    """Roots (z₁, z₂) of c(1+c)z² - (b+c)z + b(1-b) = 0 in closed form.

    z₁ = b/c is the φ/ψ ratio of the s₁ family, z₂ = (1-b)/(1+c) that of
    the s=2 family. degenerate flags |b - c/(2c+1)| <= DEGENERATE_TOL,
    where the roots coincide.
    """
    ratio_coefficients(b, c)
    z1 = b / c
    z2 = (1.0 - b) / (1.0 + c)
    return z1, z2, degenerate_distance(b, c) <= DEGENERATE_TOL


@functools.lru_cache(maxsize=32)
def coupled_pattern(grid: Grid) -> tuple[Pattern, np.ndarray, np.ndarray]:
    """Pattern of kron(I₂, Δ) plus the ±N block diagonals, cached per
    grid: the kron values with explicit zeros on the block diagonals, and
    the positions of the +N (row i, column N+i) and -N (row N+i, column i)
    entries. Δ's own entries lie within nx of the diagonal, below N."""
    lap = laplacian(grid).tocoo()
    n = lap.shape[0]
    i = np.arange(n)
    rows = np.concatenate([lap.row, lap.row + n, i, i + n])
    cols = np.concatenate([lap.col, lap.col + n, i + n, i])
    # kron(I₂, Δ) holds 1.0·Δ, which is Δ exactly
    data = np.concatenate([lap.data, lap.data, np.zeros(2 * n)])
    pattern = Pattern(sp.csr_matrix((data, (rows, cols)), shape=(2 * n, 2 * n)))
    upper, lower = pattern.positions(n), pattern.positions(-n)
    upper.flags.writeable = lower.flags.writeable = False
    return pattern, upper, lower


class CoupledJacobian:
    """Block linearization of the coupled system at a state (u, v)."""

    __slots__ = ("grid", "u", "v", "params", "_matrix")

    def __init__(self, grid: Grid, u: Field, v: Field, params: ModelParams):
        if u.grid != grid or v.grid != grid:
            raise GridMismatchError("u/v live on a different grid than the Jacobian")
        self.grid = grid
        self.u = u
        self.v = v
        self.params = params
        self._matrix = None

    @property
    def size(self) -> int:
        return 2 * self.grid.size

    @property
    def matrix(self) -> sp.csr_matrix:
        """kron(I₂, Δ) plus the reaction linearization on three diagonals,
        equal in data, indices and indptr to that scipy.sparse sum: the
        reaction diagonal added to kron(I₂, Δ)'s entries, the blocks -b·u
        and c·v written into coupled_pattern's zeros."""
        if self._matrix is None:
            pattern, upper, lower = coupled_pattern(self.grid)
            a = as_field(self.grid, self.params.a).values
            b, c = self.params.b, self.params.c
            u, v = self.u.values, self.v.values
            data = pattern.values.copy()
            data[pattern.diagonal] += np.concatenate([a - 2.0 * u - b * v, a - 2.0 * v + c * u])
            data[upper] = -b * u
            data[lower] = c * v
            self._matrix = pattern.matrix(data)
        return self._matrix


def coupled_eigenpairs(
    J: CoupledJacobian, k: int, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """k eigenvalues of -J with smallest real parts, plus eigenvectors.

    Returns (values, vectors) with values sorted ascending by (Re, Im) and
    vectors normalized to unit combined L2 norm; every pair passes
    check_residuals. `spectral._shift_invert` solves, for k in its eigen
    window, with the shift one unit below the Gershgorin lower bound on the
    real parts.

    A single-vector Krylov space can miss one copy of an exactly double
    eigenvalue (the 2D square's (i,j)/(j,i) pairs, or I₂⊗(Δ+a) at the
    zero state) when it sits at the edge of the requested window, so
    ARPACK is asked for COUPLED_EXTRA_VALUES more values than k and only
    the k smallest are kept.
    """
    Jm = J.matrix
    diag = Jm.diagonal()
    # -J's bound -diag - offsum, exactly; every row holds a Laplacian neighbour
    offsum = np.add.reduceat(np.abs(Jm.data), Jm.indptr[:-1]) - np.abs(diag)
    sigma = -float((diag + offsum).max()) - 1.0
    A, _, vals, vecs = _shift_invert(
        J, k, tol, sigma, COUPLED_START_SEED, symmetric=False, extra=COUPLED_EXTRA_VALUES
    )
    order = np.lexsort((vals.imag, vals.real))[:k]
    vals, vecs = vals[order], vecs[:, order]

    out_vecs = np.empty((J.size, k), dtype=complex)
    for j in range(k):
        out_vecs[:, j] = vecs[:, j] / J.grid.norm(vecs[:, j])
    check_residuals(A, vals, out_vecs, J.grid, tol, "coupled eigenpair")
    return vals, out_vecs


def predicted_spectrum(
    grid: Grid, a: Field, theta: Field, b: float, c: float, k: int, tol: float = DEFAULT_TOL,
    two: Spectrum | None = None,
) -> tuple[list[tuple[float, str]], dict[str, "object"]]:
    """k smallest predicted coupled eigenvalues as (value, family) pairs.

    Families: "s1" (weight a - s₁θ, ratio z₁) and "two" (weight a - 2θ,
    ratio z₂); on the degenerate locus a single family "degenerate"
    (weight a - 2θ) contributes every value twice. The k smallest of the
    union are found by merging k values from each family, which is always
    enough. Also returns the scalar spectra keyed by family for reuse
    (eigenfunctions feed the direct ansatz checks).

    two: the a - 2θ family with exactly k values, already solved (it does
    not depend on b and c); solved here when None. The locus takes both
    its copies from it and makes no solve of its own.
    """
    if two is None:
        two = eigenpairs(WeightedOperator(grid, a - 2.0 * theta), k, tol)
    elif len(two.pairs) != k:
        raise ValueError(f"the a - 2θ family holds {len(two.pairs)} values, {k} needed")
    if mode_ratios(b, c)[2]:
        tagged = [(p.lam, "degenerate") for p in two.pairs for _ in range(2)]
        return tagged[:k], {"degenerate": two}
    spec1 = eigenpairs(WeightedOperator(grid, a - s_parameter(b, c) * theta), k, tol)
    tagged = [(p.lam, "s1") for p in spec1.pairs] + [(p.lam, "two") for p in two.pairs]
    tagged.sort(key=lambda t: t[0])
    return tagged[:k], {"s1": spec1, "two": two}


def ansatz_coefficients(b: float, c: float, family: str) -> tuple[float, float]:
    """Component pair (A, B) such that (Aφ, Bφ) is a coupled eigenvector.

    family "s1" pairs with eigenfunctions of weight a - s₁θ, family "two"
    with weight a - 2θ. On the degenerate locus the two pairs are parallel.
    """
    if family == "s1":
        return b, c
    if family in ("two", "degenerate"):
        return 1.0 - b, 1.0 + c
    raise ValueError(f"unknown family {family!r}")


def ansatz_residual(J: CoupledJacobian, pair: EigenPair, coeffs: tuple[float, float]) -> float:
    """L2 norm of J·(Aφ, Bφ) + λ·(Aφ, Bφ) for a scalar eigenpair (λ, φ).

    Pure matrix-vector application: no eigensolver involved. For the correct
    family pairing this is bounded by the scalar residual times
    max(|A|, |B|) plus assembly roundoff.
    """
    A, B = coeffs
    big = np.concatenate([A * pair.phi.values, B * pair.phi.values])
    return J.grid.norm(J.matrix @ big + pair.lam * big)


def component_projection(vec: np.ndarray, w_phi: float, w_psi: float, grid: Grid) -> np.ndarray:
    """w_phi·φ + w_psi·ψ for a stacked coupled vector (φ, ψ).

    With (w_phi, w_psi) a left eigenvector of the 2×2 mixing matrix, the
    result satisfies the corresponding scalar eigenproblem: (2c+1, -1)
    projects onto the a-2θ family (the degenerate-case reduction), and
    (1+c, -(1-b)) onto the a-s₁θ family.
    """
    n = grid.size
    return w_phi * vec[:n] + w_psi * vec[n:]


@dataclass(frozen=True, kw_only=True)
class StabilityReport:
    """Coupled vs predicted spectra with diagnostics and verdict; the
    defaults are those of a report with no spectra."""

    s_value: float
    s_second: float = 2.0
    degenerate: bool
    band_warning: bool
    coupled_eigs: tuple[complex, ...] = ()
    predicted_eigs: tuple[float, ...] = ()
    predicted_families: tuple[str, ...] = ()
    max_rel_mismatch: float = math.nan
    max_imag: float = math.nan
    ratio_errors: tuple[float, ...] = ()
    mu1: float = math.nan
    verdict: str
    cause: str | None
    k: int
    mismatch_threshold: float = math.nan


def inconclusive_report(params: ModelParams, k: int, cause: str | None) -> StabilityReport:
    """Report with verdict "inconclusive", the given cause and no spectra;
    every report, verify_theorem's too, takes s₁ and the locus flags from it."""
    b, c = params.b, params.c
    return StabilityReport(
        s_value=s_parameter(b, c),
        degenerate=degenerate_distance(b, c) <= DEGENERATE_TOL,
        band_warning=degenerate_distance(b, c) <= DEGENERATE_WARN_BAND,
        verdict="inconclusive",
        cause=cause,
        k=k,
    )


@dataclass(frozen=True)
class ThetaHalf:
    """The (b, c)-independent half of verify_theorem on one (a, grid).

    θ solves Δθ + θ(a - θ) = 0 and the a - 2θ family is one of the two
    predicted families (on the degenerate locus, the only one); neither
    depends on b or c, so a (b, c) sweep solves them once per (a, grid)
    and hands them to every job. `cause` is the inconclusive cause every
    job gets when either solve failed, and then `logistic` and `two` are
    None.
    """

    logistic: LogisticSolution | None
    two: Spectrum | None
    cause: str | None


def theta_half(a: Field, grid: Grid, k: int, tol: float = DEFAULT_TOL) -> ThetaHalf:
    """Solve θ for growth rate a and the 2k smallest values of the a - 2θ
    family that verify_theorem(…, k) predicts from.

    A subcritical a or a failed solve becomes the cause verify_theorem
    reports.
    """
    try:
        logistic = solve_logistic(grid, a, tol=tol)
        weight = logistic.a - 2.0 * logistic.theta
        two = eigenpairs(WeightedOperator(grid, weight), 2 * k, tol)
    except SubcriticalError as exc:
        return ThetaHalf(None, None, f"{SUBCRITICAL_CAUSE}: {exc}")
    except (NewtonDivergenceError, EigenSolveError) as exc:
        return ThetaHalf(None, None, f"solver failure: {exc}")
    return ThetaHalf(logistic, two, None)


def verify_theorem(
    params: ModelParams, grid: Grid, k: int, tol: float = DEFAULT_TOL,
    shared: ThetaHalf | None = None,
) -> StabilityReport:
    """Full stability verification pipeline at the synchronized steady state.

    Solves the logistic profile, assembles the coupled Jacobian, computes
    its 2k smallest eigenvalues, and compares them as a sorted multiset
    against the union of the two predicted scalar families. Solver failures
    (including a subcritical growth rate) yield verdict "inconclusive" with
    a cause instead of propagating.

    shared: the (b, c)-independent half, theta_half(a, grid, k, tol) for
    this params.a, taken instead of solved; a sweep solves one per (a,
    grid) for all its jobs. Without it, theta_half runs here, so a job and
    a plain call run the same solves and report the same cause.
    """
    b, c = params.b, params.c
    z1, z2, degenerate = mode_ratios(b, c)

    a = as_field(grid, params.a)
    if shared is None:
        shared = theta_half(a, grid, k, tol)
    if shared.cause is not None:
        return inconclusive_report(params, k, shared.cause)
    logistic = shared.logistic
    if not np.array_equal(logistic.a.values, a.values):
        raise ValueError("the shared θ was solved for a different growth rate")
    try:
        steady = synchronized_state(params, logistic)
        J = CoupledJacobian(grid, steady.u, steady.v, params)
        predicted, _ = predicted_spectrum(
            grid, logistic.a, logistic.theta, b, c, 2 * k, tol=tol, two=shared.two
        )
        coupled_vals, coupled_vecs = coupled_eigenpairs(J, 2 * k, tol=tol)
    except EigenSolveError as exc:
        return inconclusive_report(params, k, f"solver failure: {exc}")

    pred_vals = np.array([p[0] for p in predicted])
    pred_fams = tuple(p[1] for p in predicted)
    coupled_re = coupled_vals.real  # ascending: coupled_eigenpairs lexsorts by (Re, Im)
    max_rel_mismatch = _cluster_mismatch(coupled_re, pred_vals)
    max_imag = float(np.abs(coupled_vals.imag).max())

    # component-ratio diagnostics, skipped on the degenerate locus and for
    # eigenvalues clustered with the other family (mixed eigenspaces)
    ratio_errors: list[float] = []
    if not degenerate:
        families = [pred_vals[[f == fam for f in pred_fams]] for fam in ("s1", "two")]
        n = grid.size
        for j in range(len(coupled_vals)):
            mu = coupled_vals[j]
            if abs(mu.imag) > 1e-8 * max(1.0, abs(mu.real)):
                continue
            near = 1e-6 * max(1.0, abs(mu.real))
            if all(np.any(np.abs(mu.real - vs) <= near) for vs in families):
                continue  # cross-family cluster: eigenspace may mix the ratios
            vec = coupled_vecs[:, j]
            if np.abs(vec.imag).max() > 1e-8 * np.abs(vec).max():
                continue
            phi, psi = vec.real[:n], vec.real[n:]
            denom_psi = float(psi @ psi)
            if denom_psi == 0.0:
                continue
            z_fit = float(phi @ psi) / denom_psi
            err = min(abs(z_fit - z1) / max(1.0, abs(z1)), abs(z_fit - z2) / max(1.0, abs(z2)))
            ratio_errors.append(err)

    base = inconclusive_report(params, k, None)
    threshold = 100.0 * tol
    if base.band_warning:  # the locus lies inside the band
        threshold = max(threshold, 1e-6)
    min_pred = float(pred_vals.min())
    min_re = float(coupled_re.min())
    if max_rel_mismatch <= threshold:
        if min_pred > 0.0 and min_re > 0.0:
            verdict, cause = "stable", None
        elif min_re < 0.0:
            verdict, cause = "unstable", None
        else:
            verdict, cause = "inconclusive", "borderline spectrum (eigenvalue at zero)"
    else:
        verdict = "inconclusive"
        cause = (
            f"spectral mismatch {max_rel_mismatch:.3e} exceeds threshold {threshold:.1e}"
        )

    return replace(
        base,
        coupled_eigs=tuple(complex(v) for v in coupled_vals),
        predicted_eigs=tuple(float(v) for v in pred_vals),
        predicted_families=pred_fams,
        max_rel_mismatch=max_rel_mismatch,
        max_imag=max_imag,
        ratio_errors=tuple(ratio_errors),
        mu1=min_re,
        verdict=verdict,
        cause=cause,
        mismatch_threshold=threshold,
    )


CLUSTER_GAP = 1e-6


def _cluster_mismatch(coupled_re: np.ndarray, pred: np.ndarray) -> float:
    """Max relative mismatch between sorted multisets, cluster-aware.

    Predicted values closer than CLUSTER_GAP (relative) are grouped and
    compared by cluster mean. Defective double eigenvalues perturb as
    +/-sqrt(rounding) in an uncontrolled direction (a real or a complex
    pair), but the pair mean stays accurate to ordinary rounding, so
    comparing means is the stable check; well-separated eigenvalues reduce
    to the plain elementwise comparison.
    """
    floor = 1e-12 * max(1.0, float(np.abs(pred).max()))
    # a cluster starts wherever the gap test fails (a NaN gap splits too)
    joined = np.abs(np.diff(pred)) <= CLUSTER_GAP * np.maximum(1.0, np.abs(pred[1:]))
    starts = np.flatnonzero(~joined) + 1
    worst = 0.0
    for c_part, p_part in zip(np.split(coupled_re, starts), np.split(pred, starts)):
        c_mean = float(np.mean(c_part))
        p_mean = float(np.mean(p_part))
        worst = max(worst, abs(c_mean - p_mean) / max(abs(p_mean), floor))
    return worst
