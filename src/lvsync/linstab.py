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
ξ = (2c+1)φ - ψ then maps any eigenvector into the scalar eigenspace. The
locus is a reported flag only: both families are solved there too, and the
per-cluster bound covers their coinciding copies.
Since s₁ > 1 and 2 > 1, both families are strictly positive whenever θ is
the positive logistic state: the stability assertion this module verifies
against the spectrum of -J itself, from `spectral`'s shift-invert route.
The comparison has one rule, a bound from the measured residuals for each
cluster of predicted values (`_cluster_errors`; README, Numerical notes).
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
    DEFAULT_TOL, EigenPair, EigenSolveError, Spectrum, _shift_invert, eigenpairs, residual_gate,
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
]

DEGENERATE_TOL = 1e-12
# predicted values closer than CLUSTER_GAP·|λ| are compared as one cluster
CLUSTER_GAP = 1e-6
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


def _similarity_condition(b: float, c: float) -> float:
    """κ₂(S) = σ_max/σ_min of S = [[b, 1 - b], [c, 1 + c]], σ_max from the 2×2 SVD's closed
    form, σ_min = |det S|/σ_max with det S = b(2c + 1) - c exact before one rounding."""
    sigma_max = (math.hypot(b - 1.0 - c, 1.0 - b + c) + math.hypot(b + 1.0 + c, 1.0 - b - c)) / 2
    (nb, db), (nc, dc) = b.as_integer_ratio(), c.as_integer_ratio()
    det = abs(nb * (2 * nc + dc) - nc * db) / (db * dc)
    return sigma_max / (det / sigma_max) if det else math.inf


def degenerate_distance(b: float, c: float) -> float:
    """|b - c/(2c+1)|, distance to the defective-spectrum locus."""
    return abs(b - c / (2.0 * c + 1.0))


def mode_ratios(b: float, c: float) -> tuple[float, float]:
    """Roots (z₁, z₂) of c(1+c)z² - (b+c)z + b(1-b) = 0 in closed form.

    z₁ = b/c is the φ/ψ ratio of the s₁ family, z₂ = (1-b)/(1+c) that of
    the s=2 family; they coincide on the locus b = c/(2c+1).
    """
    ratio_coefficients(b, c)
    return b / c, (1.0 - b) / (1.0 + c)


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
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """k eigenvalues of -J with smallest real parts, plus eigenvectors.

    `spectral._shift_invert`'s (values, vectors, residuals): values
    ascending by (Re, Im), vectors of unit combined L2 norm, each pair
    checked; its shift is the Gershgorin lower bound on the real parts,
    where -J - σI is weakly diagonally dominant (README, Numerical notes).

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
    sigma = -float((diag + offsum).max())
    return _shift_invert(
        J, k, sigma, COUPLED_START_SEED, tol, symmetric=False, extra=COUPLED_EXTRA_VALUES
    )


def predicted_spectrum(
    grid: Grid, a: Field, theta: Field, b: float, c: float, two: Spectrum,
    tol: float = DEFAULT_TOL,
) -> tuple[list[tuple[float, str, float]], dict[str, "object"]]:
    """k smallest predicted coupled eigenvalues as (value, family, residual)
    triples, the residual that of the scalar eigenpair the value comes from.

    Families: "s1" (weight a - s₁θ, ratio z₁), solved here, and "two"
    (weight a - 2θ, ratio z₂), the caller's `two`, theta_half's in verify,
    whose length is k; both for every (b, c), on the degenerate locus too,
    where s₁ = 2 and the two families coincide. The k smallest of the union
    are found by merging k values from each family, which is always enough.
    Also returns the scalar spectra keyed by family for reuse (eigenfunctions
    feed the direct ansatz checks).
    """
    k = len(two.pairs)
    spec1 = eigenpairs(WeightedOperator(grid, a - s_parameter(b, c) * theta), k, tol)
    tagged = [(p.lam, fam, p.residual) for fam, spec in (("s1", spec1), ("two", two))
              for p in spec.pairs]
    tagged.sort(key=lambda t: t[0])
    return tagged[:k], {"s1": spec1, "two": two}


def ansatz_coefficients(b: float, c: float, family: str) -> tuple[float, float]:
    """Component pair (A, B) such that (Aφ, Bφ) is a coupled eigenvector.

    family "s1" pairs with eigenfunctions of weight a - s₁θ, family "two"
    with weight a - 2θ. On the degenerate locus the two pairs are parallel.
    """
    if family == "s1":
        return b, c
    if family == "two":
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
    coupled_eigs: tuple[complex, ...] = ()
    predicted_eigs: tuple[float, ...] = ()
    predicted_families: tuple[str, ...] = ()
    max_rel_mismatch: float = math.nan
    max_imag: float = math.nan
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
        verdict="inconclusive",
        cause=cause,
        k=k,
    )


@dataclass(frozen=True)
class ThetaHalf:
    """The (b, c)-independent half of verify_theorem on one (a, grid).

    θ solves Δθ + θ(a - θ) = 0 and the a - 2θ family is one of the two
    predicted families; neither depends on b or c, so a (b, c) sweep
    solves them once per (a, grid) and hands them to every job. `cause` is
    the inconclusive cause every job gets when either solve failed, and
    then `logistic` and `two` are None.
    """

    logistic: LogisticSolution | None
    two: Spectrum | None
    cause: str | None


def theta_half(a: Field, grid: Grid, k: int, tol: float = DEFAULT_TOL) -> ThetaHalf:
    """Solve θ for growth rate a and the 2k smallest values of the a - 2θ
    family that verify_theorem(…, k) predicts from: the one producer of
    that family, which predicted_spectrum takes from its caller.

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
    against the union of the two predicted scalar families, within the
    residual bounds of _cluster_errors. Solver failures (including a
    subcritical growth rate) yield "inconclusive" with a cause.

    shared: the (b, c)-independent half, theta_half(a, grid, k, tol) for
    this params.a, taken instead of solved; a sweep solves one per (a,
    grid) for all its jobs. Without it, theta_half runs here, so a job and
    a plain call run the same solves and report the same cause. A shared
    half solved for another k raises ValueError, and one solved for another
    growth rate too, from synchronized_state.
    """
    b, c = params.b, params.c
    if shared is None:
        shared = theta_half(as_field(grid, params.a), grid, k, tol)
    if shared.cause is not None:
        return inconclusive_report(params, k, shared.cause)
    logistic = shared.logistic
    if len(shared.two.pairs) != 2 * k:
        raise ValueError(f"the a - 2θ family holds {len(shared.two.pairs)} values, {2 * k} needed")
    try:
        steady = synchronized_state(params, logistic)
        J = CoupledJacobian(grid, steady.u, steady.v, params)
        predicted, _ = predicted_spectrum(grid, logistic.a, logistic.theta, b, c, shared.two, tol)
        coupled_vals, _, coupled_res = coupled_eigenpairs(J, 2 * k, tol=tol)
    except EigenSolveError as exc:
        return inconclusive_report(params, k, f"solver failure: {exc}")

    pred_vals = np.array([value for value, _, _ in predicted])
    families = np.array([family for _, family, _ in predicted])
    coupled_re = coupled_vals.real  # ascending: _shift_invert sorts by (Re, Im)
    base = inconclusive_report(params, k, None)
    # each pair's residual, floored at the rounding term of the coupled gate,
    # one gate for both sides (‖-J‖ = ‖J‖; tol·0 drops the relative term)
    gate = residual_gate(J.matrix, tol)
    rho_c = np.maximum(coupled_res, [gate(0.0, abs(v), 1.0) for v in coupled_vals])
    rho_s = np.maximum([res for _, _, res in predicted],
                       [gate(0.0, abs(v), 1.0) for v in pred_vals])
    kappa = _similarity_condition(b, c)
    weyl = abs(base.s_value - 2.0) * logistic.theta.max()
    mismatch, bound, mean = _cluster_errors(
        coupled_re, pred_vals, families, rho_c, rho_s, kappa, weyl
    )
    scale = np.maximum(np.abs(mean), bound)
    rel_mismatch, rel_bound = mismatch / scale, bound / scale

    min_pred, min_re = float(pred_vals.min()), float(coupled_re.min())
    within = mismatch <= bound  # a NaN mismatch is not within
    if within.all():
        if min_pred > 0.0 and min_re > 0.0:
            verdict, cause = "stable", None
        elif min_re < 0.0:
            verdict, cause = "unstable", None
        else:
            verdict, cause = "inconclusive", "borderline spectrum (eigenvalue at zero)"
    else:
        worst = int(np.argmax(np.where(within, 0.0, mismatch / bound)))
        verdict = "inconclusive"
        cause = (f"spectral mismatch {rel_mismatch[worst]:.3e} exceeds its bound "
                 f"{rel_bound[worst]:.3e}")

    return replace(
        base,
        coupled_eigs=tuple(complex(v) for v in coupled_vals),
        predicted_eigs=tuple(float(v) for v in pred_vals),
        predicted_families=tuple(p[1] for p in predicted),
        max_rel_mismatch=float(rel_mismatch.max()),
        max_imag=float(np.abs(coupled_vals.imag).max()),
        mu1=min_re,
        verdict=verdict,
        cause=cause,
        mismatch_threshold=float(rel_bound.max()),
    )


def _cluster_errors(
    coupled_re: np.ndarray, pred: np.ndarray, families: np.ndarray,
    rho_c: np.ndarray, rho_s: np.ndarray, kappa: float, weyl: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mismatch, bound, mean) per cluster of the sorted predicted values.

    Consecutive values join a cluster when their gap is at most
    CLUSTER_GAP·|λ|. The mismatch is |mean coupled - mean predicted|: a
    defective pair splits by ±sqrt(rounding), real or complex, but its mean
    stays accurate to rounding. The bound is max ρ_s + κ·max ρ_c (Bauer–
    Fike, κ = κ₂(S)); a cluster that holds both families' copies takes
    max ρ_c + weyl for the coupled term where that is smaller, weyl =
    |s₁ - 2|·‖θ‖∞ (README, Numerical notes). On the locus every cluster
    holds both and κ₂(S) is infinite or of order 1e16, which leaves
    max ρ_c + weyl.
    """
    joined = np.abs(np.diff(pred)) <= CLUSTER_GAP * np.abs(pred[1:])  # a NaN gap splits
    clusters = np.split(np.arange(len(pred)), np.flatnonzero(~joined) + 1)
    mismatch, bound, mean = [], [], []
    for idx in clusters:
        coupled_err = kappa * rho_c[idx].max()
        if set(families[idx]) == {"s1", "two"}:
            coupled_err = min(coupled_err, rho_c[idx].max() + weyl)
        mean.append(np.mean(pred[idx]))
        mismatch.append(abs(np.mean(coupled_re[idx]) - mean[-1]))
        bound.append(rho_s[idx].max() + coupled_err)
    return np.array(mismatch), np.array(bound), np.array(mean)
