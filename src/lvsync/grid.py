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
its kernel from the matrix. A symmetric positive definite (SPD) tridiagonal
matrix gets LAPACK's LDLᵀ (`dpttrf`/`dpttrs`); an SPD matrix of bandwidth
2 <= kd <= BAND_CHOLESKY_MAX_KD gets LAPACK's banded Cholesky
(`dpbtrf`/`dpbtrs`). That covers I - dt·Δ, the scalar operator shifted
below its spectrum and Newton's negated Jacobian near the solution, in 1D
and on 2D grids up to BAND_CHOLESKY_MAX_KD nodes across. Every other
matrix (the coupled Jacobian, indefinite or nonsymmetric matrices, wider
bands) gets SuperLU with the minimum-degree ordering of the pattern of
Aᵀ + A, which suits the symmetric patterns of the stencils and of the
coupled Jacobian.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

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
    "write_field_csv",
    "read_field_csv",
    "field_from_csv",
    "fmt_g17",
]

KIND_NDIM = {"interval": 1, "rectangle": 2}


class GridMismatchError(ValueError):
    """Two fields/operators built on different grids were combined."""


def fmt_g17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


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
        if self.ndim == 1:
            return self.axes[0][:, None]
        x, y = self.axes
        nx = len(x)
        ny = len(y)
        out = np.empty((nx * ny, 2))
        out[:, 0] = np.tile(x, ny)
        out[:, 1] = np.repeat(y, nx)
        return out

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
        pts = grid.coords()
        if grid.ndim == 1:
            return cls(grid, fn(pts[:, 0]))
        return cls(grid, fn(pts[:, 0], pts[:, 1]))

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


@lru_cache(maxsize=32)
def laplacian(domain: Domain) -> sp.csr_matrix:
    """Discrete Dirichlet Laplacian (negative definite), cached per domain."""
    mats = []
    for h, n in zip(
        tuple(e / (r + 1) for e, r in zip(domain.extents, domain.resolution)),
        domain.resolution,
    ):
        main = np.full(n, -2.0 / h**2)
        off = np.full(n - 1, 1.0 / h**2)
        mats.append(sp.diags([off, main, off], [-1, 0, 1], format="csr"))
    if len(mats) == 1:
        lap = mats[0]
    else:
        ax, ay = mats
        ix = sp.identity(domain.resolution[0], format="csr")
        iy = sp.identity(domain.resolution[1], format="csr")
        # x index fastest -> x block is the inner Kronecker factor
        lap = sp.kron(iy, ax, format="csr") + sp.kron(ay, ix, format="csr")
    lap = lap.tocsr()
    lap.sort_indices()
    return lap


class TridiagonalLDLT:
    """LDLᵀ factors of a symmetric positive definite tridiagonal matrix:
    d is the diagonal of D, e the subdiagonal of the unit bidiagonal L."""

    __slots__ = ("d", "e")

    def __init__(self, d: np.ndarray, e: np.ndarray):
        self.d = d
        self.e = e

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution of A x = b for a vector or an (N, r) block b."""
        x, info = dpttrs(self.d, self.e, b)
        if info != 0:
            raise ValueError(f"dpttrs rejected argument {-info}")
        return x


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


class BandCholesky:
    """Cholesky factor of a symmetric positive definite band matrix in
    LAPACK's upper band storage: row kd - (j - i) of column j holds U[i, j]."""

    __slots__ = ("c",)

    def __init__(self, c: np.ndarray):
        self.c = c

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution of A x = b for a vector or an (N, r) block b."""
        x, info = dpbtrs(self.c, b)
        if info != 0:
            raise ValueError(f"dpbtrs rejected argument {-info}")
        return x


def _symmetric_band(A: sp.spmatrix) -> np.ndarray | None:
    """A in LAPACK's upper band storage, (kd+1, n), when A is exactly
    symmetric with bandwidth 2 <= kd <= BAND_CHOLESKY_MAX_KD; else None."""
    A = A.tocsr()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    off = A.indices - rows
    kd = int(np.abs(off).max(initial=0))
    if not 2 <= kd <= BAND_CHOLESKY_MAX_KD:
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


def factorize(A: sp.spmatrix) -> TridiagonalLDLT | BandCholesky | spla.SuperLU:
    """Factorization of the square matrix A, the one entry point for every
    sparse solve; `.solve(b)` takes a vector or an (N, r) block.

    A symmetric positive definite (SPD) matrix gets a LAPACK kernel: no
    pivoting, backward stable (Golub & Van Loan, *Matrix Computations*,
    §4.3), and cheaper than SuperLU at the sizes that reach it.

    - Tridiagonal, with exactly equal sub- and superdiagonals, and every
      pivot of `dpttrf`'s D finite and positive: LDLᵀ, solved by `dpttrs`
      (2–3× faster than `dpbtrs` at bandwidth 1). In 1D this takes
      I - dt·Δ, Δ + diag(m) - σI shifted below the spectrum and Newton's
      -J near the solution.
    - Exactly symmetric, bandwidth 2 <= kd <= BAND_CHOLESKY_MAX_KD, and
      accepted by `dpbtrf` with a finite diagonal: banded Cholesky, solved
      by `dpbtrs`. In 2D with the x index fastest the bandwidth is nx, so
      this takes the same matrices on every grid up to that many nodes
      across.

    Every other matrix (the coupled Jacobian, with blocks at ±N; an
    indefinite or nonsymmetric matrix; a wider band) gets SuperLU with the
    minimum-degree ordering of the pattern of Aᵀ + A. COLAMD, SuperLU's
    default, orders for unsymmetric patterns; the matrices that reach
    SuperLU here have symmetric patterns, where the minimum-degree
    ordering leaves less fill. Raises RuntimeError on an exactly singular A.
    """
    n = A.shape[0]
    # a tridiagonal matrix stores at most 3n - 2 entries, so the 2D
    # stencils and the coupled Jacobian are turned away without a scan
    if 1 < n and A.nnz <= 3 * n - 2:
        d, e = A.diagonal(), A.diagonal(1)
        # tridiagonal: every nonzero lies on the three central diagonals
        band = np.count_nonzero(d) + 2 * np.count_nonzero(e)
        if np.array_equal(e, A.diagonal(-1)) and A.count_nonzero() == band:
            d, e, info = dpttrf(d, e)
            if info == 0 and np.isfinite(d).all():
                return TridiagonalLDLT(d, e)
    ab = _symmetric_band(A)
    if ab is not None:
        c, info = dpbtrf(ab, overwrite_ab=1)
        if info == 0 and np.isfinite(c[-1]).all():
            return BandCholesky(c)
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
    """Multilinear interpolation of a field at an interior point.

    Uses the implicit zero boundary, so points anywhere in the closed box
    are valid.
    """
    pt = np.atleast_1d(np.asarray(point, dtype=float))
    grid = f.grid
    if pt.size != grid.ndim:
        raise ValueError(f"point must have {grid.ndim} coordinate(s)")
    for x, e in zip(pt, grid.domain.extents):
        if x < 0 or x > e:
            raise ValueError(f"point {pt} outside domain")

    # per-axis cell index and barycentric weight, boundary nodes = 0
    def axis_weights(x, h, n):
        i = int(math.floor(x / h))  # node i at i*h, i ranges 0..n+1 incl. boundary
        i = min(i, n)
        t = x / h - i
        return i, t

    shape = grid.shape
    if grid.ndim == 1:
        (n,) = shape
        h = grid.spacing[0]
        i, t = axis_weights(pt[0], h, n)
        left = f.values[i - 1] if 1 <= i <= n else 0.0
        right = f.values[i] if 0 <= i < n else 0.0
        return float((1 - t) * left + t * right)

    nx, ny = shape
    hx, hy = grid.spacing
    ix, tx = axis_weights(pt[0], hx, nx)
    iy, ty = axis_weights(pt[1], hy, ny)

    def node(jx, jy):
        if 1 <= jx <= nx and 1 <= jy <= ny:
            return f.values[(jx - 1) + nx * (jy - 1)]
        return 0.0

    return float(
        (1 - tx) * (1 - ty) * node(ix, iy)
        + tx * (1 - ty) * node(ix + 1, iy)
        + (1 - tx) * ty * node(ix, iy + 1)
        + tx * ty * node(ix + 1, iy + 1)
    )


def write_field_csv(f: Field, path):
    """Field file format: index,coord1[,coord2],value with 17 significant digits."""
    coords = f.grid.coords()
    header = ["index", "coord1", "value"] if f.grid.ndim == 1 else ["index", "coord1", "coord2", "value"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k in range(f.grid.size):
            row = [str(k)] + [fmt_g17(c) for c in coords[k]] + [fmt_g17(f.values[k])]
            w.writerow(row)


def read_field_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a field file; returns (coords, values) without grid reconstruction."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None:
            raise ValueError(f"field file {path} is empty")
        ncoord = len(header) - 2
        coords, values = [], []
        for row in r:
            coords.append([float(c) for c in row[1 : 1 + ncoord]])
            values.append(float(row[1 + ncoord]))
    return np.asarray(coords), np.asarray(values)


def field_from_csv(path, grid: Grid) -> Field:
    """Load a field file onto a known grid, validating node count and coordinates."""
    coords, values = read_field_csv(path)
    if values.size != grid.size:
        raise ValueError(
            f"field file {path} has {values.size} nodes, grid expects {grid.size}"
        )
    if coords.shape[1] != grid.ndim:
        raise ValueError(f"field file {path} is {coords.shape[1]}D, grid is {grid.ndim}D")
    if not np.allclose(coords, grid.coords(), rtol=1e-12, atol=1e-12):
        raise ValueError(f"field file {path} coordinates do not match the grid")
    if not np.isfinite(values).all():
        raise ValueError(f"field file {path} holds a non-finite value")
    return Field(grid, values)
