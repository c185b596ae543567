import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import lvsync
from lvsync import (
    Field,
    Grid,
    ModelParams,
    WeightedOperator,
    eigenpairs,
    l2_inner,
    l2_norm,
    principal_eigenpair,
)
from lvsync.linstab import CoupledJacobian, coupled_eigenpairs
from lvsync.spectral import EigenSolveError, check_residuals, residual_gate

# dense LAPACK oracle values for the weight a - s1*theta (a=2, b=0.5, c=1,
# (0,pi), n=400), regenerated by scripts/make_goldens.py
GOLDEN_WEIGHTED_EIGS_N400 = [
    0.661519298109555,
    3.356327221407577,
    8.314774633953208,
    15.296005935758474,
    24.285308282723463,
    35.276944358733658,
    48.268268409762101,
    63.257616319696183,
    80.243641367856981,
    99.225071860386976,
]


def grid1d(n, length=math.pi):
    return Grid("interval", (length,), (n,))


def lap_eig_1d(k, h, L):
    return (4.0 / h**2) * math.sin(k * math.pi * h / (2.0 * L)) ** 2


def zero_weight_op(n):
    g = grid1d(n)
    return WeightedOperator(g, Field.constant(g, 0.0)), g


class TestPrincipal:
    def test_zero_weight_closed_form_and_eigenfunction(self):
        op, g = zero_weight_op(400)
        h = g.spacing[0]
        pair = principal_eigenpair(op, tol=1e-10)
        assert abs(pair.lam - lap_eig_1d(1, h, math.pi)) <= 1e-12
        # eigenfunction proportional to sin(x)
        sin = Field.from_function(g, np.sin)
        sin_unit = (1.0 / l2_norm(sin)) * sin
        assert np.abs(pair.phi.values - sin_unit.values).max() <= 1e-8

    def test_constant_shift(self):
        op, g = zero_weight_op(150)
        lam0 = principal_eigenpair(op, tol=1e-10).lam
        m0 = 0.75
        lam_shift = principal_eigenpair(
            WeightedOperator(g, Field.constant(g, m0)), tol=1e-10
        ).lam
        assert lam_shift == pytest.approx(lam0 - m0, abs=1e-12)

    def test_positivity(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            g = grid1d(60)
            op = WeightedOperator(g, Field(g, rng.uniform(-2, 2, size=g.size)))
            pair = principal_eigenpair(op, tol=1e-10)
            assert pair.phi.values.min() > 0.0

    @pytest.mark.xfail(
        strict=True,
        raises=EigenSolveError,
        reason="the strict sign check reads rounding noise as a solver failure: "
        "where the weight is strongly negative the eigenfunction decays to "
        "rounding level, and some of those values come back below zero",
    )
    def test_positivity_where_the_weight_is_strongly_negative(self):
        # a runs from 600 to -200 across the square; λ1 < 0, so θ exists
        g = Grid("rectangle", (math.pi, math.pi), (30, 30))
        m = Field.from_function(g, lambda x, y: 400.0 * (1.5 - 2.0 * x / math.pi))
        pair = principal_eigenpair(WeightedOperator(g, m), tol=1e-10)
        assert pair.lam < 0.0
        assert pair.phi.values.min() >= -1e-14 * pair.phi.values.max()

    def test_zero_eigenvalue_at_logistic_weight(self, grid400, theta400):
        # theta solves the weighted problem exactly at the discrete level
        op = WeightedOperator(grid400, theta400.a - theta400.theta)
        pair = principal_eigenpair(op, tol=1e-10)
        assert abs(pair.lam) <= 1e-8


def refuse_to_factorize(A, sigma=0.0):
    raise AssertionError("factorize called for a k outside the eigen window")


class TestEigenpairs:
    # ARPACK's window ends at k = n - 2
    @pytest.mark.parametrize("k", [398, 5], ids=["shift_invert-largest", "shift_invert"])
    def test_zero_weight_first_five(self, k):
        op, g = zero_weight_op(400)
        h = g.spacing[0]
        spec = eigenpairs(op, k, tol=1e-10)
        for j in range(5):
            exact = lap_eig_1d(j + 1, h, math.pi)
            assert abs(spec.values[j] - exact) / exact <= 1e-12

    @pytest.mark.parametrize("g", [grid1d(2500), grid1d(10_000),
                                   Grid("rectangle", (math.pi, math.pi), (60, 60))],
                             ids=["1d-2500", "1d-10000", "2d-60x60"])
    def test_zero_weight_first_twelve_within_the_rounding_floor(self, g):
        # ARPACK's eigenvalues σ + 1/ν against the closed form, a sum of the 1D
        # values over the axes, within residual_gate's rounding floor (m + 1)·eps·‖A‖∞
        op = WeightedOperator(g, Field.constant(g, 0.0))
        floor = residual_gate(-op.matrix, 1e-10)(0.0, 0.0, 1.0)
        per_axis = [[lap_eig_1d(j, h, L) for j in range(1, 13)]
                    for h, L in zip(g.spacing, g.extents)]
        exact = np.sort([sum(lams) for lams in itertools.product(*per_axis)])[:12]
        assert np.abs(eigenpairs(op, 12, tol=1e-10).values - exact).max() <= floor

    @pytest.mark.parametrize("g, k", [(grid1d(400), 400), (grid1d(400), 399),
                                      (Grid("rectangle", (math.pi, math.pi), (150, 150)), 22498)],
                             ids=["all", "n-1", "150x150-memory"])
    def test_k_outside_the_window_raises_before_factorizing(self, monkeypatch, g, k):
        # k = n - 1 and n are beyond ARPACK; on the 150x150 square k = n - 2
        # would hold a 22,500-vector basis, 4 GB
        monkeypatch.setattr(lvsync.spectral, "factorize", refuse_to_factorize)
        with pytest.raises(ValueError, match="eigen window"):
            eigenpairs(WeightedOperator(g, Field.constant(g, 0.0)), k, tol=1e-10)

    def test_k1_matches_principal(self):
        g = grid1d(90)
        rng = np.random.default_rng(2)
        op = WeightedOperator(g, Field(g, rng.uniform(-1, 1, size=g.size)))
        lam_a = principal_eigenpair(op, tol=1e-10).lam
        lam_b = eigenpairs(op, 1, tol=1e-10).values[0]
        assert lam_a == pytest.approx(lam_b, abs=1e-10)

    @pytest.mark.parametrize("route", ["dense", "shift_invert"])
    def test_golden_weighted_spectrum(self, route, grid400, theta400):
        s1 = 5.0 / 3.0
        op = WeightedOperator(grid400, theta400.a - s1 * theta400.theta)
        if route == "dense":  # the LAPACK oracle the golden values come from
            values = sla.eigvalsh((-op.matrix).toarray())[:10]
        else:
            values = eigenpairs(op, 10, tol=1e-10).values
        assert np.allclose(values, GOLDEN_WEIGHTED_EIGS_N400, rtol=1e-9)

    def test_orthonormality_and_residuals(self, grid400, theta400):
        op = WeightedOperator(grid400, theta400.a - 2.0 * theta400.theta)
        spec = eigenpairs(op, 6, tol=1e-10)
        for i, p in enumerate(spec.pairs):
            assert abs(l2_norm(p.phi) - 1.0) <= 1e-12
            assert p.residual <= 1e-10 * max(1.0, abs(p.lam))
            for q in spec.pairs[i + 1 :]:
                assert abs(l2_inner(p.phi, q.phi)) <= 1e-8

    def test_ascending_order(self):
        op, _ = zero_weight_op(80)
        spec = eigenpairs(op, 8, tol=1e-10)
        assert np.all(np.diff(spec.values) > 0)

    def test_sign_convention(self):
        # each eigenfunction has a positive inner product with exp(x/L):
        # on (0, π), ∫ exp(x/π)·sin(jx) dx = π²j(1 - e·(-1)^j)/(1 + π²j²),
        # far from zero for every j
        op, g = zero_weight_op(50)
        spec = eigenpairs(op, 4, tol=1e-10)
        weight = np.exp(g.coords()[:, 0] / math.pi)
        for j, p in enumerate(spec.pairs, start=1):
            sine = np.sin(j * g.coords()[:, 0])
            assert weight @ p.phi.values > 0
            assert np.sign(weight @ sine) * p.phi.values == pytest.approx(
                sine / l2_norm(Field(g, sine)), abs=1e-9)

    def test_k_too_large(self):
        op, _ = zero_weight_op(10)
        with pytest.raises(ValueError, match="k"):
            eigenpairs(op, 11, tol=1e-10)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("solver", ["scalar", "coupled"])
    def test_tol_must_be_positive_and_finite(self, solver, tol):
        # an infinite gate would accept any residual, a NaN or nonpositive
        # one none
        op, g = zero_weight_op(10)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            if solver == "scalar":
                eigenpairs(op, 2, tol=tol)
            else:
                zero = Field.constant(g, 0.0)
                coupled_eigenpairs(CoupledJacobian(g, zero, zero, ModelParams(2.0, 0.5, 1.0)),
                                   2, 2, tol=tol)

    def test_2d_square_degenerate_cluster(self):
        g = Grid("rectangle", (1.0, 1.0), (20, 20))
        h = g.spacing[0]
        spec = eigenpairs(WeightedOperator(g, Field.constant(g, 0.0)), 6, tol=1e-9)
        exact = sorted(
            lap_eig_1d(j, h, 1.0) + lap_eig_1d(k, h, 1.0)
            for j in range(1, 8)
            for k in range(1, 8)
        )[:6]
        # compare as multisets: the (1,2)/(2,1) pair is exactly degenerate
        assert np.allclose(spec.values, exact, rtol=1e-12)
        for i, p in enumerate(spec.pairs):
            for q in spec.pairs[i + 1 :]:
                assert abs(l2_inner(p.phi, q.phi)) <= 1e-8

    @pytest.mark.xfail(
        strict=True,
        reason="a single-vector Lanczos run can miss one copy of a multiple "
        "eigenvalue: on the 14x14 square k=17 keeps three copies of the "
        "fourfold 23.7936 and k=48 also drops a copy",
    )
    def test_square_multiple_eigenvalues_keep_every_copy(self):
        g = Grid("rectangle", (math.pi, math.pi), (14, 14))
        op = WeightedOperator(g, Field.constant(g, 0.0))
        dense = sla.eigvalsh((-op.matrix).toarray())
        for k in (17, 46, 48):
            np.testing.assert_allclose(eigenpairs(op, k).values, dense[:k], rtol=1e-8)

    def test_nonconvergence_raises_with_residual(self, monkeypatch):
        # an eigenvector ARPACK returns unconverged (here the second one,
        # perturbed by 1e-6 per entry) fails the gate, which names its residual
        eigsh = spla.eigsh

        def unconverged(*args, **kwargs):
            vals, vecs = eigsh(*args, **kwargs)
            vecs[:, 1] += 1e-6 * np.random.default_rng(0).standard_normal(len(vecs))
            return vals, vecs

        monkeypatch.setattr(spla, "eigsh", unconverged)
        op, _ = zero_weight_op(200)
        with pytest.raises(EigenSolveError, match="eigenpair . residual .* exceeds its gate") as err:
            eigenpairs(op, 2, tol=1e-10)
        assert err.value.last_residual > 1e-6

    @pytest.mark.parametrize("solver", ["scalar", "coupled"])
    def test_arpack_failure_is_an_eigen_solve_error(self, monkeypatch, solver, arpack_error):
        # ARPACK's own failures, dneupd's Schur reordering and no convergence,
        # reach callers as the solver failure they already handle
        def failing(*args, **kwargs):
            raise arpack_error

        monkeypatch.setattr(spla, "eigsh" if solver == "scalar" else "eigs", failing)
        op, g = zero_weight_op(40)
        with pytest.raises(EigenSolveError, match=r"^ARPACK error -?1: ") as err:
            if solver == "scalar":
                eigenpairs(op, 2, tol=1e-10)
            else:
                zero = Field.constant(g, 0.0)
                coupled_eigenpairs(CoupledJacobian(g, zero, zero, ModelParams(2.0, 0.5, 1.0)),
                                   2, 2, tol=1e-10)
        assert err.value.__cause__ is arpack_error

    def test_arpack_failure_keeps_the_first_sentence(self, monkeypatch):
        # dneupd's error 1 goes on with advice to ARPACK's callers; the cause
        # keeps the sentence that says what failed
        from scipy.sparse.linalg._eigen.arpack.arpack import DNEUPD_ERRORS

        def failing(*args, **kwargs):
            raise spla.ArpackError(1, DNEUPD_ERRORS)

        monkeypatch.setattr(spla, "eigsh", failing)
        op, _ = zero_weight_op(40)
        with pytest.raises(EigenSolveError) as err:
            eigenpairs(op, 2, tol=1e-10)
        assert str(err.value) == ("ARPACK error 1: The Schur form computed by LAPACK routine "
                                  "dlahqr could not be reordered by LAPACK routine dtrsen.")


class TestCheckResiduals:
    @pytest.mark.parametrize("where", ["vector", "value"])
    def test_nan_fails_the_gate(self, where):
        # nan > bound is False, so a gate that raises only on "residual
        # above the bound" would pass a NaN pair
        op, g = zero_weight_op(20)
        spec = eigenpairs(op, 2, tol=1e-10)
        values = spec.values
        vectors = np.column_stack([p.phi.values for p in spec.pairs])
        A = -op.matrix
        assert max(check_residuals(A, values, vectors, g, 1e-10)) <= 1e-10
        if where == "vector":
            vectors[3, 1] = math.nan
        else:
            values[1] = math.nan
        with pytest.raises(EigenSolveError, match="eigenpair 1 residual nan") as err:
            check_residuals(A, values, vectors, g, 1e-10)
        assert math.isnan(err.value.last_residual)


class TestMonotonicityAndConvergence:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_weight_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        g = grid1d(40)
        m1 = rng.uniform(-2.0, 2.0, size=g.size)
        gap = rng.uniform(0.0, 1.5, size=g.size)
        m2 = m1 + gap
        spec1 = eigenpairs(WeightedOperator(g, Field(g, m1)), 4, tol=1e-10)
        spec2 = eigenpairs(WeightedOperator(g, Field(g, m2)), 4, tol=1e-10)
        assert np.all(spec1.values >= spec2.values - 1e-10)
        if gap.max() > 1e-8:
            assert spec1.values[0] > spec2.values[0]

    def test_lambda1_grid_convergence_order(self):
        errs = []
        for n in (50, 100, 200, 400):
            op, _ = zero_weight_op(n)
            errs.append(abs(principal_eigenpair(op, tol=1e-9).lam - 1.0))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert all(1.8 <= p <= 2.2 for p in orders)

    def test_iterative_matches_dense_oracle(self):
        rng = np.random.default_rng(19)
        g = grid1d(90)
        op = WeightedOperator(g, Field(g, rng.uniform(-3, 3, size=g.size)))
        spec_it = eigenpairs(op, 6, tol=1e-10)
        dense_oracle = np.sort(sla.eigvalsh((-op.matrix).toarray()))[:6]
        assert np.allclose(spec_it.values, dense_oracle, rtol=1e-9, atol=1e-9)


# dense LAPACK eigensolvers: the tests' oracle, referenced by no module of the package
SCIPY_DENSE_EIGEN_NAMES = {"eig", "eigh"}
SCIPY_EIGEN_NAMES = {"eigs", "eigsh", "LinearOperator"} | SCIPY_DENSE_EIGEN_NAMES
SCIPY_FACTOR_NAMES = {"splu", "dpttrf", "dpttrs", "dpbtrf", "dpbtrs"}


def scipy_references(path: Path, names: set[str]) -> list[str]:
    """Each reference in a module to one of `names` of scipy: a name
    imported from scipy, or an attribute of a name bound to scipy."""
    tree = ast.parse(path.read_text())
    refs, scipy_names = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            scipy_names |= {a.asname or a.name.split(".")[0] for a in node.names
                            if a.name.split(".")[0] == "scipy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            for a in node.names:
                if a.name in names:
                    refs.append(a.name)
                else:
                    scipy_names.add(a.asname or a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in scipy_names:
                refs.append(node.attr)
    return refs


def test_one_eigen_route_lives_in_spectral():
    # the scalar and the coupled eigenproblem share spectral's one
    # shift-invert route, and every factorization goes through grid's one
    # factorize: no other module reaches for a scipy eigensolver or a
    # sparse or LAPACK factorization, and no module for a dense eigensolver
    package = Path(lvsync.__file__).parent
    for owner, names in (("spectral.py", SCIPY_EIGEN_NAMES), ("grid.py", SCIPY_FACTOR_NAMES)):
        refs = {path.name: scipy_references(path, names) for path in sorted(package.glob("*.py"))}
        assert {name: r for name, r in refs.items() if r and name != owner} == {}
        assert sorted(refs[owner]) == sorted(names - SCIPY_DENSE_EIGEN_NAMES)
