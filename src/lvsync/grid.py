"""Uniform Dirichlet grids on intervals and rectangles, discrete fields, and
the weighted Laplacian Δ + m(x).

Only interior nodes are represented: the homogeneous Dirichlet boundary is
structural (boundary values are identically zero and never stored). Spacing
along an axis of extent L with n interior nodes is h = L/(n+1); nodes sit at
h, 2h, ..., nh. Node ordering is lexicographic with the x index fastest, so
in 2D node k maps to (ix, iy) = (k % nx, k // nx).

The weighted operator Δ + diag(m) uses the standard second-order 3-point
(1D) / 5-point (2D) stencil. Norms and inner products use the uniform
quadrature weight h1*...*hd with no boundary correction.

Every sparse solve in the package factors through `factorize`, which picks
its kernel from the matrix. One code path serves 1D and 2D: the Laplacian
is the Kronecker sum of the per-axis 3-point stencils, the coordinates one
meshgrid. Reading and writing field files is the CLI's job (`lvsync.cli`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs

__all__ = [
    "Domain",
    "Grid",
    "Field",
    "WeightedOperator",
    "GridMismatchError",
    "KIND_NDIM",
    "laplacian",
    "factorize",
    "l2_norm",
    "l2_inner",
    "interpolate",
]

KIND_NDIM = {"interval": 1, "rectangle": 2}


class GridMismatchError(ValueError):
    """Two fields/operators built on different grids were combined."""


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box anchored at the origin.

    extents are the side lengths per axis, resolution the interior node
    counts. A 1D interval has one entry each, a rectangle two.
    """

    kind: str
    extents: tuple[float, ...]
    resolution: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in KIND_NDIM:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        object.__setattr__(self, "extents", tuple(float(e) for e in self.extents))
        object.__setattr__(self, "resolution", tuple(int(n) for n in self.resolution))
        ndim = KIND_NDIM[self.kind]
        if len(self.extents) != ndim or len(self.resolution) != ndim:
            raise ValueError(
                f"{self.kind} domain needs {ndim} extent(s) and resolution(s), "
                f"got {len(self.extents)} and {len(self.resolution)}"
            )
        if any(not math.isfinite(e) or e <= 0 for e in self.extents):
            raise ValueError(f"extents must be positive, got {self.extents}")
        if any(n < 3 for n in self.resolution):
            raise ValueError(f"resolution too small: need >= 3 interior nodes per axis, got {self.resolution}")

    @property
    def ndim(self) -> int:
        return KIND_NDIM[self.kind]


class Grid:
    """Discretized domain: interior node coordinates and spacing.

    Equality and hashing are by Domain; coordinates are derived
    deterministically from it.
    """

    def __init__(self, domain: Domain):
        self.domain = domain
        self.spacing = tuple(
            e / (n + 1) for e, n in zip(domain.extents, domain.resolution)
        )
        # interior coordinates per axis: h, 2h, ..., nh
        self.axes = tuple(
            h * np.arange(1, n + 1) for h, n in zip(self.spacing, domain.resolution)
        )
        for ax in self.axes:
            ax.flags.writeable = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.domain.resolution

    @property
    def ndim(self) -> int:
        return self.domain.ndim

    @property
    def size(self) -> int:
        return int(np.prod(self.domain.resolution))

    @property
    def cell_volume(self) -> float:
        """Quadrature weight h1*...*hd shared by every interior node."""
        return float(np.prod(self.spacing))

    def coords(self) -> np.ndarray:
        """(size, ndim) array of node coordinates in lexicographic order (x fastest)."""
        mesh = np.meshgrid(*self.axes[::-1], indexing="ij")[::-1]
        return np.stack([m.ravel() for m in mesh], axis=1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and self.domain == other.domain

    def __hash__(self) -> int:
        return hash(self.domain)

    def __repr__(self) -> str:
        return f"Grid({self.domain.kind}, extents={self.domain.extents}, n={self.domain.resolution})"


def _check_same_grid(a: "Field | WeightedOperator", b: "Field | WeightedOperator"):
    if a.grid != b.grid:
        raise GridMismatchError(f"grid mismatch: {a.grid!r} vs {b.grid!r}")


class Field:
    """Real values at the interior nodes of a grid (boundary is implicitly 0).

    Values are immutable; arithmetic with scalars and same-grid fields is
    supported and returns new fields.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        vals = np.ascontiguousarray(values, dtype=float)
        if vals.shape == ():
            vals = np.full(grid.size, float(vals))
        if vals.ndim != 1 or vals.size != grid.size:
            raise ValueError(
                f"field needs {grid.size} values for grid {grid!r}, got shape {vals.shape}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        self.grid = grid
        self.values = vals

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.size, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field":
        """Sample fn(x) (1D) or fn(x, y) (2D) at the interior nodes."""
        return cls(grid, fn(*grid.coords().T))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def _coerce(self, other):
        if isinstance(other, Field):
            _check_same_grid(self, other)
            return other.values
        if np.isscalar(other):
            return float(other)
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Field(self.grid, self.values + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Field(self.grid, self.values - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Field(self.grid, v - self.values)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Field(self.grid, self.values * v)

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)

    def __repr__(self) -> str:
        return f"Field({self.grid!r}, min={self.values.min():.3g}, max={self.values.max():.3g})"


@functools.lru_cache(maxsize=32)
def laplacian(domain: Domain) -> sp.csr_matrix:
    """Discrete Dirichlet Laplacian (negative definite), cached per domain."""
    mats = []
    for e, n in zip(domain.extents, domain.resolution):
        h2 = (e / (n + 1)) ** 2
        mats.append(sp.diags([1.0 / h2, -2.0 / h2, 1.0 / h2], [-1, 0, 1], shape=(n, n)))
    # kronsum(A, B) = kron(I, A) + kron(B, I): the x block is the inner
    # Kronecker factor, so the x index runs fastest
    lap = functools.reduce(sp.kronsum, mats).tocsr()
    lap.sort_indices()
    return lap


# Widest band that gets LAPACK's banded Cholesky. Its factor fills the whole
# band, (kd+1)·n entries, so a solve costs O(kd·n), while SuperLU's
# minimum-degree factor grows more slowly with the grid: at 100×100 a
# single-vector solve costs about 1 ms on either. The limit is the
# crossover of whole `verify` runs on the square (a=4, b=0.5, c=1, k=6;
# medians of five runs each way on a 2-core x86-64 VM, BLAS on 1 thread):
# band Cholesky against SuperLU for every symmetric positive definite
# matrix took 1.00 against 1.07 s at 90×90, 1.40 against 1.39 s at 100×100
# (peak RSS 102 against 108 MB), 1.80 against 1.76 s at 110×110 and 2.31
# against 2.15 s at 120×120.
BAND_CHOLESKY_MAX_KD = 100


class LapackFactor:
    """Factors of a symmetric positive definite band matrix and the LAPACK
    routine that solves with them: `dpttrs` with LDLᵀ's diagonal d and
    subdiagonal e, or `dpbtrs` with the Cholesky factor in band storage."""

    __slots__ = ("routine", "factors")

    def __init__(self, routine, *factors: np.ndarray):
        self.routine = routine
        self.factors = factors

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution of A x = b for a vector or an (N, r) block b."""
        x, info = self.routine(*self.factors, b)
        if info != 0:
            raise ValueError(f"{self.routine.__name__} rejected argument {-info}")
        return x


def _symmetric_band(A: sp.spmatrix) -> np.ndarray | None:
    """A in LAPACK's upper band storage, (kd+1, n), when A is exactly
    symmetric with bandwidth kd <= BAND_CHOLESKY_MAX_KD; else None. A
    diagonal A (kd = 0) comes back as a two-row band, like a tridiagonal one."""
    A = A.tocsr()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    off = A.indices - rows
    kd = max(int(np.abs(off).max(initial=0)), 1)
    if kd > BAND_CHOLESKY_MAX_KD:
        return None
    # Fortran order, so that dpbtrf factors it in place: A[i, j] with
    # i <= j goes to row kd - (j - i) of column j, at flat index
    # j·(kd+1) + kd - (j - i)
    ab = np.zeros((kd + 1, n), order="F")
    flat = ab.reshape(-1, order="F")
    upper = off >= 0
    flat[A.indices[upper] * (kd + 1) + kd - off[upper]] = A.data[upper]
    # exactly symmetric: each lower entry A[i, j] equals the band's A[j, i],
    # and the strict upper triangle has no nonzero beyond those mirrors
    lower = ~upper
    vals = A.data[lower]
    mirrors = flat[rows[lower] * (kd + 1) + kd + off[lower]]
    if not (np.array_equal(mirrors, vals)
            and np.count_nonzero(A.data[off > 0]) == np.count_nonzero(vals)):
        return None
    return ab


def factorize(A: sp.spmatrix) -> LapackFactor | spla.SuperLU:
    """Factorization of the square matrix A, the one entry point for every
    sparse solve; `.solve(b)` takes a vector or an (N, r) block.

    An exactly symmetric A of bandwidth kd <= BAND_CHOLESKY_MAX_KD that
    LAPACK finds positive definite, with a finite factor, gets a LAPACK
    kernel: no pivoting, backward stable (Golub & Van Loan, *Matrix
    Computations*, §4.3), and cheaper than SuperLU at the sizes that reach
    it. At kd <= 1 that is LDLᵀ (`dpttrf`/`dpttrs`, 2–3× faster than
    `dpbtrs` at bandwidth 1), at kd >= 2 banded Cholesky
    (`dpbtrf`/`dpbtrs`). In 2D with the x index fastest the bandwidth is
    nx. So I - dt·Δ, Δ + diag(m) - σI shifted below the spectrum and
    Newton's -J near the solution reach LAPACK in 1D and on 2D grids up
    to BAND_CHOLESKY_MAX_KD nodes across.

    Every other matrix (the coupled Jacobian, with blocks at ±N; an
    indefinite or nonsymmetric matrix; a wider band) gets SuperLU with the
    minimum-degree ordering of the pattern of Aᵀ + A. COLAMD, SuperLU's
    default, orders for unsymmetric patterns; the matrices that reach
    SuperLU here have symmetric patterns, where the minimum-degree
    ordering leaves less fill. Raises RuntimeError on an exactly singular A.
    """
    ab = _symmetric_band(A)
    if ab is not None:
        if len(ab) == 2:
            # scipy's dpttrf wants e of length max(n - 1, 1)
            e = ab[0, 1:] if ab.shape[1] > 1 else ab[0]
            routine, (*factors, info) = dpttrs, dpttrf(ab[1], e)
        else:
            routine, (*factors, info) = dpbtrs, dpbtrf(ab, overwrite_ab=1)
        # factors[0] is LDLᵀ's d or the band holding Cholesky's diagonal
        if info == 0 and np.isfinite(factors[0]).all():
            return LapackFactor(routine, *factors)
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")


class WeightedOperator:
    """Discrete Δ + diag(m) with structural Dirichlet boundary.

    The Laplacian and the weight are stored separately; `matrix` materializes
    their sum on demand.
    """

    __slots__ = ("grid", "weight", "_matrix")

    def __init__(self, grid: Grid, weight: Field):
        if weight.grid != grid:
            raise GridMismatchError("weight lives on a different grid")
        self.grid = grid
        self.weight = weight
        self._matrix = None

    @property
    def matrix(self) -> sp.csr_matrix:
        """Sparse symmetric matrix of Δ + diag(weight)."""
        if self._matrix is None:
            m = (laplacian(self.grid.domain) + sp.diags(self.weight.values)).tocsr()
            m.sort_indices()
            self._matrix = m
        return self._matrix

    def apply(self, f: Field) -> Field:
        _check_same_grid(self, f)
        return Field(self.grid, self.matrix @ f.values)

    def __repr__(self) -> str:
        return f"WeightedOperator({self.grid!r})"


def l2_norm(f: Field) -> float:
    """Discrete L2 norm sqrt(sum f_i^2 * h1*...*hd)."""
    return float(np.linalg.norm(f.values) * math.sqrt(f.grid.cell_volume))


def l2_inner(f: Field, g: Field) -> float:
    """Discrete L2 inner product, consistent with l2_norm."""
    _check_same_grid(f, g)
    return float(np.dot(f.values, g.values) * f.grid.cell_volume)


def interpolate(f: Field, point) -> float:
    """Multilinear interpolation of a field at a point of the closed box.

    The zero boundary pads the grid, so points on the boundary are valid;
    a point outside the box, with the wrong number of coordinates or with
    a NaN coordinate raises ValueError.
    """
    # imported here: scipy.interpolate pulls in scipy.spatial, about 20 MB
    # of resident memory that no solve needs
    from scipy.interpolate import RegularGridInterpolator

    pt = np.asarray(point, dtype=float).reshape(1, -1)
    if np.isnan(pt).any():
        raise ValueError(f"point {pt[0]} has a NaN coordinate")
    grid = f.grid
    axes = [np.concatenate(([0.0], ax, [e])) for ax, e in zip(grid.axes, grid.domain.extents)]
    # x index fastest: the values reshape to (ny, nx), the interpolator
    # takes them indexed (ix, iy)
    values = np.pad(f.values.reshape(grid.shape[::-1]).T, 1)
    return float(RegularGridInterpolator(axes, values)(pt)[0])
