import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from lvsync import (
    Domain,
    Field,
    assemble_operator,
    build_grid,
    eigenpairs,
    l2_inner,
    l2_norm,
    principal_eigenpair,
)
from lvsync.spectral import EigenSolveError

# dense-solver oracle values for the weight a - s1*theta (a=2, b=0.5, c=1,
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
    return build_grid(Domain("interval", (length,), (n,)))


def lap_eig_1d(k, h, L):
    return (4.0 / h**2) * math.sin(k * math.pi * h / (2.0 * L)) ** 2


def zero_weight_op(n):
    g = grid1d(n)
    return assemble_operator(g, Field.constant(g, 0.0)), g


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
            assemble_operator(g, Field.constant(g, m0)), tol=1e-10
        ).lam
        assert lam_shift == pytest.approx(lam0 - m0, abs=1e-12)

    def test_positivity(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            g = grid1d(60)
            op = assemble_operator(g, Field(g, rng.uniform(-2, 2, size=g.size)))
            pair = principal_eigenpair(op, tol=1e-10)
            assert pair.phi.values.min() > 0.0

    def test_zero_eigenvalue_at_logistic_weight(self, grid400, theta400):
        # theta solves the weighted problem exactly at the discrete level
        op = assemble_operator(grid400, theta400.a - theta400.theta)
        pair = principal_eigenpair(op, tol=1e-10)
        assert abs(pair.lam) <= 1e-8


class TestEigenpairs:
    @pytest.mark.parametrize("method", ["dense", "shift_invert"])
    def test_zero_weight_first_five(self, method):
        op, g = zero_weight_op(400)
        h = g.spacing[0]
        spec = eigenpairs(op, 5, tol=1e-10, method=method)
        for j in range(5):
            exact = lap_eig_1d(j + 1, h, math.pi)
            assert abs(spec.values[j] - exact) / exact <= 1e-12

    def test_k1_matches_principal(self):
        g = grid1d(90)
        rng = np.random.default_rng(2)
        op = assemble_operator(g, Field(g, rng.uniform(-1, 1, size=g.size)))
        lam_a = principal_eigenpair(op, tol=1e-10).lam
        lam_b = eigenpairs(op, 1, tol=1e-10).values[0]
        assert lam_a == pytest.approx(lam_b, abs=1e-10)

    @pytest.mark.parametrize("method", ["dense", "shift_invert"])
    def test_golden_weighted_spectrum(self, method, grid400, theta400):
        s1 = 5.0 / 3.0
        op = assemble_operator(grid400, theta400.a - s1 * theta400.theta)
        spec = eigenpairs(op, 10, tol=1e-10, method=method)
        assert np.allclose(spec.values, GOLDEN_WEIGHTED_EIGS_N400, rtol=1e-9)

    def test_orthonormality_and_residuals(self, grid400, theta400):
        op = assemble_operator(grid400, theta400.a - 2.0 * theta400.theta)
        spec = eigenpairs(op, 6, tol=1e-10)
        for i, p in enumerate(spec.pairs):
            assert abs(l2_norm(p.phi) - 1.0) <= 1e-12
            assert p.residual <= spec.tol * max(1.0, abs(p.lam))
            for q in spec.pairs[i + 1 :]:
                assert abs(l2_inner(p.phi, q.phi)) <= 1e-8

    def test_ascending_order(self):
        op, _ = zero_weight_op(80)
        spec = eigenpairs(op, 8, tol=1e-10)
        assert np.all(np.diff(spec.values) > 0)

    def test_sign_convention(self):
        op, _ = zero_weight_op(50)
        spec = eigenpairs(op, 4, tol=1e-10)
        for p in spec.pairs:
            assert p.phi.values[np.argmax(np.abs(p.phi.values))] > 0

    def test_k_too_large(self):
        op, _ = zero_weight_op(10)
        with pytest.raises(ValueError, match="k"):
            eigenpairs(op, 11, tol=1e-10)

    def test_2d_square_degenerate_cluster(self):
        g = build_grid(Domain("rectangle", (1.0, 1.0), (20, 20)))
        h = g.spacing[0]
        spec = eigenpairs(assemble_operator(g, Field.constant(g, 0.0)), 6, tol=1e-9)
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

    def test_nonconvergence_raises_with_residual(self):
        # a tolerance below the rounding floor of the residual cannot be met
        op, _ = zero_weight_op(200)
        with pytest.raises(EigenSolveError) as err:
            eigenpairs(op, 2, tol=1e-16)
        assert err.value.last_residual is not None


class TestMonotonicityAndConvergence:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_weight_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        g = grid1d(40)
        m1 = rng.uniform(-2.0, 2.0, size=g.size)
        gap = rng.uniform(0.0, 1.5, size=g.size)
        m2 = m1 + gap
        spec1 = eigenpairs(assemble_operator(g, Field(g, m1)), 4, tol=1e-10)
        spec2 = eigenpairs(assemble_operator(g, Field(g, m2)), 4, tol=1e-10)
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
        op = assemble_operator(g, Field(g, rng.uniform(-3, 3, size=g.size)))
        spec_it = eigenpairs(op, 6, tol=1e-10, method="shift_invert")
        dense_oracle = np.sort(sla.eigvalsh((-op.matrix).toarray()))[:6]
        assert np.allclose(spec_it.values, dense_oracle, rtol=1e-9, atol=1e-9)
