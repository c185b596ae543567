import itertools
import math
import pickle

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpbtrs, dpttrs

from lvsync import (
    Field,
    Grid,
    GridMismatchError,
    ModelParams,
    WeightedOperator,
    eigenpairs,
    interpolate,
    l2_inner,
    l2_norm,
    principal_eigenpair,
    solve_logistic,
    synchronized_state,
)
from lvsync.grid import BAND_CHOLESKY_MAX_KD, LapackFactor, factorize, laplacian
from lvsync.linstab import CoupledJacobian


def grid1d(n, length=math.pi):
    return Grid("interval", (length,), (n,))


def lap_eig_1d(k, h, L):
    return (4.0 / h**2) * math.sin(k * math.pi * h / (2.0 * L)) ** 2


class TestGrid:
    def test_interval_spacing_and_nodes(self):
        g = grid1d(3)
        assert g.spacing[0] == pytest.approx(math.pi / 4, rel=1e-15)
        assert np.allclose(g.axes[0], [math.pi / 4, math.pi / 2, 3 * math.pi / 4], rtol=1e-15)

    def test_rectangle_node_count(self):
        g = Grid("rectangle", (1.0, 2.0), (4, 8))
        assert g.size == 32
        assert g.coords().shape == (32, 2)

    def test_bad_resolution(self):
        with pytest.raises(ValueError, match="resolution too small"):
            Grid("interval", (1.0,), (2,))
        # a fractional or boolean node count is rejected, not truncated
        for kind, extents, resolution in (("interval", (math.pi,), (30.7,)),
                                          ("interval", (math.pi,), (True,)),
                                          ("rectangle", (1.0, 1.0), (3.9, 4.2))):
            with pytest.raises(ValueError, match="whole node counts"):
                Grid(kind, extents, resolution)
        assert Grid("interval", (1.0,), (np.int64(5),)).resolution == (5,)

    def test_equal_fields_make_equal_grids(self):
        # the operator caches and the sweep's process pool rely on this
        g = Grid("rectangle", (1, 2), (4, 5))
        same = Grid("rectangle", (1.0, 2.0), (4, 5))
        assert g == same and hash(g) == hash(same)
        assert g != Grid("rectangle", (1.0, 2.0), (5, 4))
        assert pickle.loads(pickle.dumps(g)) == g
        # unpickled through the constructor: the axes stay read-only
        for ax in pickle.loads(pickle.dumps(g)).axes:
            assert not ax.flags.writeable
        assert repr(g) == "Grid(rectangle, extents=(1.0, 2.0), n=(4, 5))"

    def test_nonpositive_extent(self):
        with pytest.raises(ValueError, match="positive"):
            Grid("interval", (0.0,), (5,))
        with pytest.raises(ValueError, match="positive"):
            Grid("rectangle", (1.0, -2.0), (4, 4))

    @pytest.mark.parametrize("kind, extents, resolution", [
        ("interval", (1e-300,), (20,)),  # h·h underflows to 0
        ("interval", (1e300,), (20,)),  # h·h overflows, so 1/h² is 0
        ("interval", (5e-324,), (20,)),  # h itself underflows to 0
        ("interval", (2.1e-153,), (20,)),  # 1/h² finite, 4/h² not
        ("rectangle", (1.0, 1e-300), (5, 5)),
    ], ids=["tiny", "huge", "h-zero", "row-sum-overflows", "rectangle-one-axis"])
    def test_spacing_out_of_range(self, kind, extents, resolution):
        # ValueError, not a ZeroDivisionError or OverflowError from the stencil
        with pytest.raises(ValueError, match="1/h²"):
            Grid(kind, extents, resolution)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Grid("interval", (1.0, 2.0), (4, 4))
        with pytest.raises(ValueError):
            Grid("rectangle", (1.0,), (4,))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Grid("disk", (1.0,), (4,))

    def test_lexicographic_order_x_fastest(self):
        g = Grid("rectangle", (1.0, 2.0), (3, 4))
        coords = g.coords()
        # first three nodes share the lowest y and walk x
        assert np.allclose(coords[:3, 1], coords[0, 1])
        assert coords[1, 0] > coords[0, 0]
        # node 3 wraps to the next y row
        assert coords[3, 1] > coords[0, 1]


class TestOperator:
    def test_1d_stencil_entries(self):
        g = grid1d(3)
        h = g.spacing[0]
        A = WeightedOperator(g, Field.constant(g, 0.0)).matrix.toarray()
        expected = np.array([[-2, 1, 0], [1, -2, 1], [0, 1, -2]]) / h**2
        assert np.array_equal(A, expected)

    def test_constant_weight_is_diagonal_shift(self):
        g = grid1d(5)
        A0 = WeightedOperator(g, Field.constant(g, 0.0)).matrix.toarray()
        A = WeightedOperator(g, Field.constant(g, 3.5)).matrix.toarray()
        assert np.abs(A - (A0 + 3.5 * np.eye(5))).max() == 0.0

    def test_2d_five_point_counts(self):
        g = Grid("rectangle", (1.0, 1.0), (3, 3))
        h = g.spacing[0]
        A = WeightedOperator(g, Field.constant(g, 0.0)).matrix.toarray()
        assert np.allclose(np.diag(A), -4.0 / h**2, rtol=1e-15)
        off = A - np.diag(np.diag(A))
        assert np.count_nonzero(off) == 24
        assert np.allclose(off[off != 0], 1.0 / h**2, rtol=1e-15)

    def test_symmetry_exact_random_weight(self):
        rng = np.random.default_rng(7)
        for g in (Grid("interval", (2.0,), (17,)), Grid("rectangle", (1.0, 1.5), (5, 7))):
            A = WeightedOperator(g, Field(g, rng.normal(size=g.size))).matrix
            assert abs(A - A.T).max() == 0.0

    def test_grid_mismatch(self):
        g1, g2 = grid1d(10), grid1d(11)
        with pytest.raises(GridMismatchError):
            WeightedOperator(g1, Field.constant(g2, 1.0))

    @pytest.mark.parametrize("n", [3, 50, 200])
    def test_laplacian_eigenvalues_closed_form(self, n):
        g = grid1d(n)
        h = g.spacing[0]
        k = min(5, n - 2)  # the eigen window: at n = 3 only λ1
        spec = eigenpairs(WeightedOperator(g, Field.constant(g, 0.0)), k, tol=1e-10)
        for j in range(k):
            exact = lap_eig_1d(j + 1, h, math.pi)
            assert abs(spec.values[j] - exact) / exact <= 1e-12


def square(n):
    return Grid("rectangle", (math.pi, math.pi), (n, n))


def shifted_matrices(g):
    """Shifted scalar and coupled matrices of the eigen solves on the grid g
    of (0, π) or the square (π, π): -(Δ + 4) + 5I and -J - σI at the
    synchronized state of (a, b, c) = (4, 0.3, 1.7), σ below the Gershgorin
    bound."""
    scalar = -WeightedOperator(g, Field.constant(g, 4.0)).matrix + 5.0 * sp.identity(g.size)
    params = ModelParams(a=4.0, b=0.3, c=1.7)
    steady = synchronized_state(params, solve_logistic(g, 4.0))
    M = -CoupledJacobian(g, steady.u, steady.v, params).matrix
    diag = M.diagonal()
    offsum = np.asarray(abs(M).sum(axis=1)).ravel() - np.abs(diag)
    sigma = float((diag - offsum).min()) - 1.0
    return {"scalar": scalar, "coupled": M - sigma * sp.identity(2 * g.size)}


def imex_matrix(g, dt=1e-3):
    return sp.identity(g.size, format="csr") - dt * laplacian(g)


def eigenfunction_start_jacobian(g, a=8.0):
    """Newton's -J = -(Δ + diag(a - 2θ₀)) at the start θ₀, the principal
    eigenfunction scaled to max a/2: symmetric and, for a = 8 on the
    square, indefinite (one negative eigenvalue, about -0.5)."""
    phi = principal_eigenpair(WeightedOperator(g, Field.constant(g, a))).phi.values
    return -WeightedOperator(g, Field(g, a - phi * (a / phi.max()))).matrix


def kernel_matrices():
    """Each kind of matrix factorize sees, on (0, π) with 40 nodes unless
    named 2D (the 8×8 square unless sized otherwise): Newton's Jacobian
    Δ + diag(4 - 2θ) is negative definite, so its negation is symmetric
    positive definite; the nonsymmetric ones are I - dt·Δ with one
    superdiagonal entry an ulp off; the diagonal ones, 40×40 and 1×1, have
    bandwidth 0; the wide band is I - dt·Δ on a rectangle one node wider
    than the band Cholesky limit; the one-sided one adds a strictly upper
    entry inside the band with no mirror below."""
    g = grid1d(40)
    theta = solve_logistic(g, 4.0).theta
    newton = WeightedOperator(g, 4.0 - 2.0 * theta).matrix

    def ulp_off(A, offset):
        A = A.tolil()
        A[0, offset] *= 1.0 + 2.0**-52
        return A.tocsr()

    wide = Grid("rectangle", (math.pi, 1.0), (BAND_CHOLESKY_MAX_KD + 1, 3))
    return {
        "imex-1d": imex_matrix(g),
        "shifted-scalar-1d": shifted_matrices(g)["scalar"],
        "newton-1d": newton,
        "negated-newton-1d": -newton,
        "nonsymmetric-tridiagonal": ulp_off(imex_matrix(g), 1),
        "coupled-1d": shifted_matrices(g)["coupled"],
        "diagonal": sp.diags(np.linspace(1.0, 2.0, 40), format="csr"),
        "one-by-one": sp.csr_matrix([[2.0]]),
        "stencil-2d": imex_matrix(square(8)),
        "indefinite-newton-2d": eigenfunction_start_jacobian(square(8)),
        "nonsymmetric-stencil-2d": ulp_off(imex_matrix(square(8)), 8),
        "one-sided-stencil-2d": (imex_matrix(square(8))
                                 + sp.csr_matrix(([-1e-4], ([0], [2])), shape=(64, 64))),
        "wider-than-limit": imex_matrix(wide),
    }


def fill(lu):
    return lu.L.nnz + lu.U.nnz


def kernel(lu):
    """The LAPACK routine that solves with a LAPACK factor, or SuperLU."""
    return lu.routine if isinstance(lu, LapackFactor) else type(lu)


class TestFactorize:
    @pytest.mark.parametrize("name", ["scalar", "coupled", "tridiagonal", "banded"])
    def test_solves_match_dense(self, name):
        # banded: the 8×8 shifted scalar matrix and the same on a 12×7
        # rectangle, whose bandwidth nx = 12 differs from ny. Each matrix
        # is factored as it is and shifted, A - σI with σ = -1.5
        square8 = shifted_matrices(square(8))
        rectangle = Grid("rectangle", (math.pi, 2.0), (12, 7))
        matrices = {
            "scalar": [square8["scalar"]],
            "coupled": [square8["coupled"]],
            "tridiagonal": [imex_matrix(grid1d(40))],
            "banded": [square8["scalar"], shifted_matrices(rectangle)["scalar"]],
        }[name]
        for A, sigma in itertools.product(matrices, (0.0, -1.5)):
            if name == "banded":
                assert kernel(factorize(A, sigma)) is dpbtrs
            dense = A.toarray() - sigma * np.eye(A.shape[0])
            for shape in [(A.shape[0],), (A.shape[0], 2), (A.shape[0], 12)]:
                rhs = np.random.default_rng(5).standard_normal(shape)
                x = factorize(A, sigma).solve(rhs)
                ref = np.linalg.solve(dense, rhs)
                assert x.shape == shape
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name, expected", [
        pytest.param("imex-1d", dpttrs, id="imex-1d"),
        pytest.param("shifted-scalar-1d", dpttrs, id="shifted-scalar-1d"),
        pytest.param("newton-1d", spla.SuperLU, id="newton-1d"),
        pytest.param("negated-newton-1d", dpttrs, id="negated-newton-1d"),
        pytest.param("nonsymmetric-tridiagonal", spla.SuperLU, id="nonsymmetric-tridiagonal"),
        pytest.param("coupled-1d", spla.SuperLU, id="coupled-1d"),
        pytest.param("diagonal", dpttrs, id="diagonal"),
        pytest.param("one-by-one", dpttrs, id="one-by-one"),
        pytest.param("stencil-2d", dpbtrs, id="stencil-2d"),
        pytest.param("indefinite-newton-2d", spla.SuperLU, id="indefinite-newton-2d"),
        pytest.param("nonsymmetric-stencil-2d", spla.SuperLU, id="nonsymmetric-stencil-2d"),
        pytest.param("one-sided-stencil-2d", spla.SuperLU, id="one-sided-stencil-2d"),
        pytest.param("wider-than-limit", spla.SuperLU, id="wider-than-limit"),
    ])
    def test_kernel_follows_the_matrix(self, name, expected):
        # LAPACK's LDLᵀ exactly for the symmetric positive definite
        # matrices of bandwidth 0 or 1, its banded Cholesky for the wider
        # ones up to the limit; SuperLU for the rest, which still solves
        A = kernel_matrices()[name]
        lu = factorize(A)
        assert kernel(lu) is expected
        rhs = np.random.default_rng(6).standard_normal((A.shape[0], 2))
        ref = np.linalg.solve(A.toarray(), rhs)
        assert np.linalg.norm(lu.solve(rhs) - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name", ["coupled-30x30", "imex-110x3"])
    def test_superlu_factors_in_symmetric_mode(self, name, monkeypatch):
        # every matrix that reaches SuperLU has a symmetric pattern, so it is
        # factored in SymmetricMode at the default threshold pivoting: the
        # coupled -J - σI at the Gershgorin bound σ and I - dt·Δ past the band
        # limit interchange no row and solve as spsolve does, to rounding
        if name == "coupled-30x30":
            g = square(30)
            params = ModelParams(a=4.0, b=0.5, c=1.0)
            steady = synchronized_state(params, solve_logistic(g, 4.0))
            A = -CoupledJacobian(g, steady.u, steady.v, params).matrix
            diag = A.diagonal()
            sigma = float((diag - (abs(A).sum(axis=1).A1 - np.abs(diag))).min())
        else:
            A, sigma = imex_matrix(Grid("rectangle", (3.0, 1.0), (110, 3)), dt=1e-2), 0.0
        handed = []
        splu = spla.splu

        def spy(C, **kwargs):
            handed.append(kwargs)
            return splu(C, **kwargs)

        monkeypatch.setattr(spla, "splu", spy)
        lu = factorize(A, sigma)
        assert handed == [{"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}]
        assert np.array_equal(lu.perm_r, lu.perm_c)
        shifted = (A - sigma * sp.identity(A.shape[0])).tocsc()
        rhs = np.random.default_rng(7).standard_normal(A.shape[0])
        ref = spla.spsolve(shifted, rhs)
        assert np.abs(lu.solve(rhs) - ref).max() <= 1e-12 * np.abs(ref).max()
        if name == "imex-110x3":
            # an M-matrix factored with no interchange: L and U have the
            # Cholesky factor's signs, so a nonnegative right-hand side gives
            # a nonnegative solution, the basis of evolve's positivity
            nonnegative = np.abs(rhs) * (np.arange(len(rhs)) % 3 == 0)
            assert not np.signbit(lu.solve(nonnegative)).any()

    @pytest.mark.parametrize("name", ["scalar", "coupled"])
    def test_fill_below_colamd(self, name):
        # 30×30, COLAMD vs minimum degree with scipy 1.17.1: the symmetric
        # indefinite scalar matrix (Newton's -J at the eigenfunction start,
        # a = 8) 30,338 vs 20,196; coupled 123,916 vs 70,258
        A = {"scalar": eigenfunction_start_jacobian(square(30)),
             "coupled": shifted_matrices(square(30))["coupled"]}[name]
        assert fill(factorize(A)) < fill(spla.splu(A.tocsc()))


class TestNorms:
    def test_zero_field(self):
        g = grid1d(10)
        assert l2_norm(Field.constant(g, 0.0)) == 0.0

    def test_inner_consistent_with_norm(self):
        rng = np.random.default_rng(3)
        g = grid1d(33)
        f = Field(g, rng.normal(size=g.size))
        assert l2_inner(f, f) == pytest.approx(l2_norm(f) ** 2, rel=1e-14)

    def test_norm_is_numpys_bit_for_bit(self):
        # real, complex and strided vectors at scales up to overflow and
        # down to subnormal squares
        rng = np.random.default_rng(7)
        g = Grid("rectangle", (1.0, 3.0), (9, 5))
        for scale in (1e-300, 1e-160, 1e-3, 1.0, 1e5, 1e160, 1e300):
            block = scale * rng.standard_normal((g.size, 3))
            cblock = block + 1j * scale * rng.standard_normal((g.size, 3))
            for x in (block[:, 0], block[:, 1], cblock[:, 2], cblock[:, 0].real, block.T[1]):
                with np.errstate(over="ignore"):
                    ref = float(np.linalg.norm(x) * math.sqrt(g.cell_volume))
                    norm = g.norm(x)
                assert type(norm) is float and np.array_equal(norm, ref)

    def test_sin_norm_squared(self):
        g = grid1d(200)
        f = Field.from_function(g, np.sin)
        assert abs(l2_norm(f) ** 2 - math.pi / 2) <= 1e-3

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
    def test_inner_bilinear_symmetric(self, seed, s, t):
        rng = np.random.default_rng(seed)
        g = grid1d(12)
        f = Field(g, rng.normal(size=g.size))
        p = Field(g, rng.normal(size=g.size))
        q = Field(g, rng.normal(size=g.size))
        assert l2_inner(f, p) == pytest.approx(l2_inner(p, f), rel=1e-13, abs=1e-15)
        lhs = l2_inner(f, s * p + t * q)
        rhs = s * l2_inner(f, p) + t * l2_inner(f, q)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_mismatch_raises(self):
        f = Field.constant(grid1d(10), 1.0)
        g = Field.constant(grid1d(12), 1.0)
        with pytest.raises(GridMismatchError):
            l2_inner(f, g)


class TestFieldArithmeticAndIO:
    def test_values_immutable(self):
        f = Field.constant(grid1d(5), 1.0)
        # a sweep's worker receives its fields pickled
        for field in (f, pickle.loads(pickle.dumps(f))):
            with pytest.raises(ValueError):
                field.values[0] = 2.0

    def test_arithmetic(self):
        g = grid1d(6)
        f = Field.from_function(g, lambda x: x)
        h = 2.0 * f - f + 1.0
        assert np.allclose(h.values, f.values + 1.0, rtol=1e-15)

    def test_interpolate_nodes_and_midpoints_1d(self):
        g = grid1d(9)
        f = Field.from_function(g, np.sin)
        x2 = g.axes[0][2]
        assert interpolate(f, [x2]) == pytest.approx(math.sin(x2), rel=1e-14)
        mid = 0.5 * (g.axes[0][3] + g.axes[0][4])
        expected = 0.5 * (f.values[3] + f.values[4])
        assert interpolate(f, [mid]) == pytest.approx(expected, rel=1e-13)
        # implicit zero boundary
        assert interpolate(f, [0.0]) == 0.0

    def test_interpolate_2d_bilinear(self):
        g = Grid("rectangle", (1.0, 1.0), (7, 7))
        f = Field.from_function(g, lambda x, y: x * y)
        assert interpolate(f, [0.5, 0.5]) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("ndim, point, match", [
        pytest.param(1, [-1e-9], "out of bounds", id="left-of-interval"),
        pytest.param(1, [math.pi * (1 + 1e-15)], "out of bounds", id="right-of-interval"),
        pytest.param(2, [0.5, 2.5], "out of bounds", id="above-rectangle"),
        pytest.param(2, [math.inf, 0.5], "out of bounds", id="infinite"),
        pytest.param(1, [1.0, 1.0], "dimension", id="two-coordinates-in-1d"),
        pytest.param(2, [1.0], "dimension", id="one-coordinate-in-2d"),
        pytest.param(1, [math.nan], "NaN", id="nan-in-1d"),
        pytest.param(2, [0.5, math.nan], "NaN", id="nan-in-2d"),
    ])
    def test_interpolate_rejects_points_off_the_box(self, ndim, point, match):
        g = grid1d(9) if ndim == 1 else Grid("rectangle", (1.0, 2.0), (7, 5))
        with pytest.raises(ValueError, match=match):
            interpolate(Field.constant(g, 1.0), point)
