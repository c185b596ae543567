"""Every operator matrix is a refill of a cached per-domain pattern. These
tests pin each refill to the scipy.sparse construction it replaces, entry
for entry, and check that nothing a caller does to a returned matrix
reaches the cache."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrs, dpttrs

import lvsync.spectral
from lvsync import (
    CoupledJacobian,
    Domain,
    Field,
    Grid,
    ModelParams,
    WeightedOperator,
    solve_logistic,
    synchronized_state,
)
from lvsync.grid import LapackFactor, as_field, factorize, laplacian, laplacian_pattern, negated
from lvsync.linstab import coupled_eigenpairs, coupled_pattern

# (domain, growth rate a): a is supercritical on each domain
DOMAINS = {
    "interval-40": (Domain("interval", (math.pi,), (40,)), 2.0),
    "square-8x8": (Domain("rectangle", (math.pi, math.pi), (8, 8)), 4.0),
    "rectangle-5x7": (Domain("rectangle", (1.0, 2.0), (5, 7)), 20.0),
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


def weights(domain):
    """A random weight, and one that cancels diagonal entry 2 of Δ exactly."""
    n = math.prod(domain.resolution)
    w = np.random.default_rng(3).standard_normal(n) * 5.0
    cancel = w.copy()
    cancel[2] = -laplacian(domain).diagonal()[2]
    return {"random": w, "cancelled-diagonal": cancel}


def scipy_weighted(domain, w):
    m = (laplacian(domain) + sp.diags(w)).tocsr()
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
    lap = laplacian(J.grid.domain)
    return sp.kron(sp.identity(2, format="csr"), lap, format="csr") + reaction


def scipy_gershgorin_shift(M):
    diag = M.diagonal()
    offsum = np.asarray(np.abs(M).sum(axis=1)).ravel() - np.abs(diag)
    return float((diag - offsum).min()) - 1.0


def jacobians(domain, a):
    """The coupled Jacobian at the synchronized state and at u = v = 0."""
    grid = Grid(domain)
    params = ModelParams(a=a, **PARAMS)
    steady = synchronized_state(params, solve_logistic(grid, a))
    zero = Field.constant(grid, 0.0)
    return {
        "synchronized": CoupledJacobian(grid, steady.u, steady.v, params),
        "zero-state": CoupledJacobian(grid, zero, zero, params),
    }


@pytest.mark.parametrize("name", DOMAINS)
class TestRefillEqualsScipy:
    @pytest.mark.parametrize("which", ["random", "cancelled-diagonal"])
    def test_weighted_operator(self, name, which):
        domain, _ = DOMAINS[name]
        w = weights(domain)[which]
        op = WeightedOperator(Grid(domain), Field(Grid(domain), w))
        old = scipy_weighted(domain, w)
        assert_same_matrix_and_kernel(op.matrix, old)
        assert_same_matrix_and_kernel(negated(op.matrix), -old)
        sigma = -float(w.max()) - 1.0
        assert_same_matrix_and_kernel(
            op.negated_shift(sigma), (-old).tocsr() - sigma * sp.identity(len(w), format="csr")
        )
        if which == "cancelled-diagonal":
            # the sum drops the exact zero, and so does the refill
            assert op.matrix.nnz == laplacian(domain).nnz - 1
            assert op.matrix[2, 2] == 0.0

    @pytest.mark.parametrize("state", ["synchronized", "zero-state"])
    def test_coupled_jacobian(self, name, state):
        domain, a = DOMAINS[name]
        J = jacobians(domain, a)[state]
        old = scipy_jacobian(J)
        assert_same_matrix_and_kernel(J.matrix, old)
        M = (-old).tocsr()
        sigma = scipy_gershgorin_shift(M)
        assert_same_matrix_and_kernel(
            J.negated_shift(sigma), M - sigma * sp.identity(J.size, format="csr")
        )
        if state == "zero-state":
            # -b·u and c·v are exact zeros: only kron(I₂, Δ)'s entries remain
            assert J.matrix.nnz == 2 * laplacian(domain).nnz

    @pytest.mark.parametrize("state", ["synchronized", "zero-state"])
    def test_coupled_eigenpairs_factors_the_scipy_shift(self, name, state, monkeypatch):
        """coupled_eigenpairs' Gershgorin shift and -J - σI equal the sparse
        sums' to the last bit."""
        domain, a = DOMAINS[name]
        J = jacobians(domain, a)[state]
        factored = []

        def spy(A):
            factored.append(A)
            return factorize(A)

        monkeypatch.setattr(lvsync.spectral, "factorize", spy)
        coupled_eigenpairs(J, 4)
        M = (-scipy_jacobian(J)).tocsr()
        sigma = scipy_gershgorin_shift(M)
        (shifted,) = factored
        assert_same_csr(shifted, M - sigma * sp.identity(J.size, format="csr"))

    def test_zero_state_shift_reaches_lapack(self, name):
        """With the block diagonals dropped, -J - σI at u = v = 0 is two
        copies of a scalar stencil: tridiagonal in 1D, banded in 2D."""
        domain, a = DOMAINS[name]
        J = jacobians(domain, a)["zero-state"]
        lu = factorize(J.negated_shift(scipy_gershgorin_shift((-J.matrix).tocsr())))
        assert kernel(lu) is (dpttrs if domain.ndim == 1 else dpbtrs)


MUTATIONS = {
    "sort_indices": lambda M: M.sort_indices(),
    "sum_duplicates": lambda M: M.sum_duplicates(),
    "eliminate_zeros": lambda M: M.eliminate_zeros(),
    "factorize": factorize,
    "scale-data": lambda M: np.multiply(M.data, 7.0, out=M.data),
}


class TestCacheIntegrity:
    @pytest.mark.parametrize("name", DOMAINS)
    def test_cached_arrays_are_read_only(self, name):
        domain, _ = DOMAINS[name]
        coupled, upper, lower = coupled_pattern(domain)
        for pattern, extra in ((laplacian_pattern(domain), ()), (coupled, (upper, lower))):
            for arr in (pattern.indices, pattern.indptr, pattern.values, pattern.diagonal, *extra):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[0]

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("which", ["random", "cancelled-diagonal"])
    def test_changing_a_returned_matrix_leaves_later_ones_alone(self, mutation, which):
        domain, a = DOMAINS["square-8x8"]
        grid = Grid(domain)
        w = weights(domain)[which]
        J = jacobians(domain, a)["synchronized"]
        returned = [
            WeightedOperator(grid, Field(grid, w)).matrix,
            negated(WeightedOperator(grid, Field(grid, w)).matrix),
            WeightedOperator(grid, Field(grid, w)).negated_shift(-3.0),
            CoupledJacobian(grid, J.u, J.v, J.params).matrix,
            CoupledJacobian(grid, J.u, J.v, J.params).negated_shift(-3.0),
        ]
        for M in returned:
            shares = np.shares_memory(M.indices, laplacian_pattern(domain).indices) or \
                np.shares_memory(M.indices, coupled_pattern(domain)[0].indices)
            if mutation == "eliminate_zeros" and shares:
                # the structure is the cache's, so it cannot change in place
                with pytest.raises(ValueError, match="read-only"):
                    MUTATIONS[mutation](M)
            else:
                MUTATIONS[mutation](M)
        assert_same_csr(WeightedOperator(grid, Field(grid, w)).matrix, scipy_weighted(domain, w))
        assert_same_csr(CoupledJacobian(grid, J.u, J.v, J.params).matrix, scipy_jacobian(J))

    def test_domains_never_share_a_pattern(self):
        # same node counts and shapes, different extents or resolutions
        domains = [
            Domain("interval", (math.pi,), (40,)),
            Domain("interval", (1.0,), (40,)),
            Domain("interval", (math.pi,), (41,)),
            Domain("rectangle", (math.pi, math.pi), (8, 8)),
            Domain("rectangle", (1.0, 2.0), (8, 8)),
        ]
        arrays = []
        for domain in domains:
            grid = Grid(domain)
            op = WeightedOperator(grid, Field.constant(grid, 1.0))
            pattern = laplacian_pattern(domain)
            assert laplacian_pattern(Domain(domain.kind, domain.extents, domain.resolution)) is pattern
            arrays.append((pattern.indices, pattern.values, op.matrix.indices,
                           coupled_pattern(domain)[0].indices))
        for first, second in itertools.combinations(arrays, 2):
            for x, y in itertools.product(first, second):
                assert not np.shares_memory(x, y)
