"""Every operator matrix is a refill of a cached per-grid pattern, and
every shifted matrix A - σI is formed inside factorize(A, σ). These tests
pin each refill to the scipy.sparse construction it replaces, entry for
entry, each shifted factorization to that of the scipy.sparse sum, and
check that nothing a caller does to a returned matrix reaches the
cache."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrs, dpttrs

import lvsync.spectral
from lvsync import (
    CoupledJacobian,
    Field,
    Grid,
    ModelParams,
    WeightedOperator,
    eigenpairs,
    solve_logistic,
    synchronized_state,
)
from lvsync.cli import RunConfig, build_growth_field
from lvsync.grid import (
    BAND_CHOLESKY_MAX_KD, LapackFactor, as_field, factorize, laplacian, laplacian_pattern,
)
from lvsync.linstab import coupled_eigenpairs, coupled_pattern

# (grid, growth rate a): a is supercritical on each grid. The 110×3
# rectangle is wider than the band Cholesky limit, so its shifted matrices
# go to SuperLU, and its cancelled diagonal entry makes factorize insert -σ
WIDE = Grid("rectangle", (3.0, 1.0), (110, 3))
assert WIDE.resolution[0] > BAND_CHOLESKY_MAX_KD
GRIDS = {
    "interval-40": (Grid("interval", (math.pi,), (40,)), 2.0),
    "square-8x8": (Grid("rectangle", (math.pi, math.pi), (8, 8)), 4.0),
    "rectangle-5x7": (Grid("rectangle", (1.0, 2.0), (5, 7)), 20.0),
    "wide-110x3": (WIDE, 20.0),
}
PARAMS = dict(b=0.4, c=1.5)


def assert_same_csr(A, B):
    """Equal data, indices and indptr, dtypes included."""
    for name in ("data", "indices", "indptr"):
        x, y = getattr(A, name), getattr(B, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    assert A.shape == B.shape


def kernel(lu):
    return lu.routine if isinstance(lu, LapackFactor) else type(lu)


def assert_same_matrix_and_kernel(A, B):
    assert_same_csr(A, B)
    assert kernel(factorize(A)) is kernel(factorize(B))


def assert_same_shifted_factor(A, sigma, shifted):
    """factorize(A, σ), for A in CSR and in CSC, picks the kernel of
    factorize(shifted), the scipy.sparse sum A - σ·I, solves bit for bit
    as it does and leaves A as it was."""
    ref = factorize(shifted)
    rhs = np.random.default_rng(5).standard_normal((A.shape[0], 3))
    for M in (A, A.tocsc()):
        before = [x.copy() for x in (M.data, M.indices, M.indptr)]
        lu = factorize(M, sigma)
        assert kernel(lu) is kernel(ref)
        assert np.array_equal(lu.solve(rhs), ref.solve(rhs))
        assert np.array_equal(lu.solve(rhs[:, 0]), ref.solve(rhs[:, 0]))
        for x, y in zip(before, (M.data, M.indices, M.indptr)):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def weights(grid):
    """A random weight, and one that cancels diagonal entry 2 of Δ exactly."""
    n = grid.size
    w = np.random.default_rng(3).standard_normal(n) * 5.0
    cancel = w.copy()
    cancel[2] = -laplacian(grid).diagonal()[2]
    return {"random": w, "cancelled-diagonal": cancel}


def scipy_weighted(grid, w):
    m = (laplacian(grid) + sp.diags(w)).tocsr()
    m.sort_indices()
    return m


def scipy_jacobian(J):
    n = J.grid.size
    a = as_field(J.grid, J.params.a).values
    b, c = J.params.b, J.params.c
    u, v = J.u.values, J.v.values
    reaction = sp.diags(
        [np.concatenate([a - 2.0 * u - b * v, a - 2.0 * v + c * u]), -b * u, c * v],
        [0, n, -n],
        format="csr",
    )
    lap = laplacian(J.grid)
    return sp.kron(sp.identity(2, format="csr"), lap, format="csr") + reaction


def stencil_kernel(grid):
    """The kernel of a symmetric positive definite stencil matrix: tridiagonal
    in 1D, banded in 2D, SuperLU where the band is wider than the limit."""
    if grid.ndim == 1:
        return dpttrs
    return dpbtrs if grid.resolution[0] <= BAND_CHOLESKY_MAX_KD else spla.SuperLU


def scipy_gershgorin_shift(M):
    diag = M.diagonal()
    offsum = np.asarray(np.abs(M).sum(axis=1)).ravel() - np.abs(diag)
    return float((diag - offsum).min())


def jacobians(grid, a):
    """The coupled Jacobian at the synchronized state and at u = v = 0."""
    params = ModelParams(a=a, **PARAMS)
    steady = synchronized_state(params, solve_logistic(grid, a))
    zero = Field.constant(grid, 0.0)
    return {
        "synchronized": CoupledJacobian(grid, steady.u, steady.v, params),
        "zero-state": CoupledJacobian(grid, zero, zero, params),
    }


@pytest.mark.parametrize("name", GRIDS)
class TestRefillEqualsScipy:
    @pytest.mark.parametrize("which", ["random", "cancelled-diagonal"])
    def test_weighted_operator(self, name, which):
        grid, _ = GRIDS[name]
        w = weights(grid)[which]
        op = WeightedOperator(grid, Field(grid, w))
        old = scipy_weighted(grid, w)
        assert_same_matrix_and_kernel(op.matrix, old)
        assert_same_matrix_and_kernel(-op.matrix, -old)
        sigma = -float(w.max()) - 1.0
        assert_same_shifted_factor(
            -op.matrix, sigma, (-old).tocsr() - sigma * sp.identity(len(w), format="csr")
        )
        if which == "cancelled-diagonal":
            # the sum drops the exact zero, and so does the refill;
            # factorize puts -σ back in its place
            assert op.matrix.nnz == laplacian(grid).nnz - 1
            assert op.matrix[2, 2] == 0.0

    @pytest.mark.parametrize("state", ["synchronized", "zero-state"])
    def test_coupled_jacobian(self, name, state):
        grid, a = GRIDS[name]
        J = jacobians(grid, a)[state]
        old = scipy_jacobian(J)
        assert_same_matrix_and_kernel(J.matrix, old)
        M = (-old).tocsr()
        assert_same_csr(-J.matrix, M)
        sigmas = [scipy_gershgorin_shift(M)]
        if state == "synchronized":
            # a diagonal entry of M, which the sum drops from M - σ·I and
            # factorize from its CSC copy (at u = v = 0 the diagonal is
            # constant, and M - σI singular on the square)
            sigmas.append(M[5, 5])
        for sigma in sigmas:
            shifted = M - sigma * sp.identity(J.size, format="csr")
            assert_same_shifted_factor(-J.matrix, sigma, shifted)
        if state == "zero-state":
            # -b·u and c·v are exact zeros: only kron(I₂, Δ)'s entries remain
            assert J.matrix.nnz == 2 * laplacian(grid).nnz

    @pytest.mark.parametrize("state", ["synchronized", "zero-state"])
    def test_coupled_eigenpairs_factors_the_scipy_shift(self, name, state, monkeypatch):
        """coupled_eigenpairs factors -J, equal to the sparse sum's to the
        last bit, with the scipy Gershgorin shift σ."""
        grid, a = GRIDS[name]
        J = jacobians(grid, a)[state]
        factored = []

        def spy(A, sigma):
            factored.append((A, sigma))
            return factorize(A, sigma)

        monkeypatch.setattr(lvsync.spectral, "factorize", spy)
        coupled_eigenpairs(J, 4)
        M = (-scipy_jacobian(J)).tocsr()
        ((A, sigma),) = factored
        assert_same_csr(A, M)
        assert sigma == scipy_gershgorin_shift(M)

    def test_zero_state_shift_reaches_lapack(self, name):
        """With the block diagonals dropped, -J - σI at u = v = 0 is two
        copies of a scalar stencil: tridiagonal in 1D, banded in 2D, and
        on SuperLU only where the band is wider than the limit."""
        grid, a = GRIDS[name]
        J = jacobians(grid, a)["zero-state"]
        lu = factorize(-J.matrix, scipy_gershgorin_shift((-J.matrix).tocsr()))
        assert kernel(lu) is stencil_kernel(grid)

    @pytest.mark.parametrize("weight", ["constant", "profile:sin"])
    def test_scalar_shift_reaches_lapack(self, name, weight, monkeypatch):
        """eigenpairs shifts at σ = -max(m): A - σI = -Δ + diag(max m - m) is
        positive definite, so it takes the stencil's LAPACK kernel."""
        grid, a = GRIDS[name]
        m = as_field(grid, a) if weight == "constant" else build_growth_field(
            RunConfig(a=weight), grid)
        factored = []

        def spy(A, sigma):
            lu = factorize(A, sigma)
            factored.append((sigma, lu))
            return lu

        monkeypatch.setattr(lvsync.spectral, "factorize", spy)
        eigenpairs(WeightedOperator(grid, m), 3)
        ((sigma, lu),) = factored
        assert sigma == -m.max()
        assert kernel(lu) is stencil_kernel(grid)

    def test_unshifted_superlu_factors_the_csc_copy(self, name, monkeypatch):
        """factorize(A, 0.0), for A in CSR and in CSC, hands SuperLU the data,
        indices and indptr of A.tocsc(copy=True) and leaves A as it was."""
        grid, a = GRIDS[name]
        A = -jacobians(grid, a)["synchronized"].matrix
        handed = []
        splu = spla.splu

        def spy(C, **kwargs):
            handed.append(C)
            return splu(C, **kwargs)

        monkeypatch.setattr(spla, "splu", spy)
        for M in (A, A.tocsc()):
            expected = M.tocsc(copy=True)
            before = [x.copy() for x in (M.data, M.indices, M.indptr)]
            assert kernel(factorize(M, 0.0)) is spla.SuperLU
            C = handed.pop()
            assert C.format == "csc"
            assert_same_csr(C, expected)
            for x, y in zip(before, (M.data, M.indices, M.indptr)):
                assert np.array_equal(x, y)


MUTATIONS = {
    "sort_indices": lambda M: M.sort_indices(),
    "sum_duplicates": lambda M: M.sum_duplicates(),
    "eliminate_zeros": lambda M: M.eliminate_zeros(),
    "factorize": factorize,
    "scale-data": lambda M: np.multiply(M.data, 7.0, out=M.data),
}


class TestCacheIntegrity:
    @pytest.mark.parametrize("name", GRIDS)
    def test_cached_arrays_are_read_only(self, name):
        grid, _ = GRIDS[name]
        coupled, upper, lower = coupled_pattern(grid)
        lap = laplacian(grid)
        for pattern, extra in ((laplacian_pattern(grid), (lap.data, lap.indices, lap.indptr)),
                               (coupled, (upper, lower))):
            for arr in (pattern.indices, pattern.indptr, pattern.values, pattern.diagonal, *extra):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[0]

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("which", ["random", "cancelled-diagonal"])
    def test_changing_a_returned_matrix_leaves_later_ones_alone(self, mutation, which):
        grid, a = GRIDS["square-8x8"]
        w = weights(grid)[which]
        J = jacobians(grid, a)["synchronized"]
        returned = [
            WeightedOperator(grid, Field(grid, w)).matrix,
            -WeightedOperator(grid, Field(grid, w)).matrix,
            CoupledJacobian(grid, J.u, J.v, J.params).matrix,
        ]
        for M in returned:
            shares = np.shares_memory(M.indices, laplacian_pattern(grid).indices) or \
                np.shares_memory(M.indices, coupled_pattern(grid)[0].indices)
            if mutation == "eliminate_zeros" and shares:
                # the structure is the cache's, so it cannot change in place
                with pytest.raises(ValueError, match="read-only"):
                    MUTATIONS[mutation](M)
            else:
                MUTATIONS[mutation](M)
        assert_same_csr(WeightedOperator(grid, Field(grid, w)).matrix, scipy_weighted(grid, w))
        assert_same_csr(CoupledJacobian(grid, J.u, J.v, J.params).matrix, scipy_jacobian(J))

    def test_domains_never_share_a_pattern(self):
        # same node counts and shapes, different extents or resolutions
        grids = [
            Grid("interval", (math.pi,), (40,)),
            Grid("interval", (1.0,), (40,)),
            Grid("interval", (math.pi,), (41,)),
            Grid("rectangle", (math.pi, math.pi), (8, 8)),
            Grid("rectangle", (1.0, 2.0), (8, 8)),
        ]
        arrays = []
        for grid in grids:
            op = WeightedOperator(grid, Field.constant(grid, 1.0))
            pattern = laplacian_pattern(grid)
            assert laplacian_pattern(Grid(grid.kind, grid.extents, grid.resolution)) is pattern
            arrays.append((pattern.indices, pattern.values, op.matrix.indices,
                           coupled_pattern(grid)[0].indices))
        for first, second in itertools.combinations(arrays, 2):
            for x, y in itertools.product(first, second):
                assert not np.shares_memory(x, y)
