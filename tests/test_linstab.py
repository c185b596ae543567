import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lvsync import (
    CoupledJacobian,
    Field,
    Grid,
    ModelParams,
    WeightedOperator,
    eigenpairs,
    mode_ratios,
    s_parameter,
    solve_logistic,
    synchronized_state,
    verify_theorem,
)
from lvsync.cli import stability_report_dict, write_eigentable_csv
from lvsync.grid import laplacian
from lvsync.linstab import (
    CLUSTER_GAP,
    DEGENERATE_TOL,
    StabilityReport,
    _cluster_errors,
    _similarity_condition,
    ansatz_coefficients,
    ansatz_residual,
    component_projection,
    coupled_eigenpairs,
    coupled_window,
    degenerate_distance,
    inconclusive_report,
    predicted_spectrum,
    theta_half,
)
from lvsync.model import ratio_coefficients
from lvsync.spectral import RETRY_START_SEED, EigenPair, Spectrum

valid_b = st.floats(0.01, 0.99)
valid_c = st.floats(0.01, 20.0)


def grid1d(n, length=math.pi):
    return Grid("interval", (length,), (n,))


def zero_state_window(g, a, k):
    """The coupled window at u = v = 0, where -J = I₂⊗(-(Δ + a)) holds two copies
    of one scalar family."""
    spec = eigenpairs(WeightedOperator(g, Field.constant(g, a)), k, tol=1e-10)
    return coupled_window(k, {"u": spec, "v": spec})


class TestParameterAlgebra:
    def test_s_reference_value(self):
        assert s_parameter(0.5, 1.0) == pytest.approx(5.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 2.0, 4.0, 17.3])
    def test_degenerate_locus_gives_two(self, c):
        b = c / (2.0 * c + 1.0)
        s = s_parameter(b, c)
        assert abs(s - 2.0) <= 4 * math.ulp(2.0)
        assert degenerate_distance(b, c) <= DEGENERATE_TOL

    @settings(max_examples=200, deadline=None)
    @given(valid_b, valid_c)
    def test_s_exceeds_one(self, b, c):
        assert s_parameter(b, c) > 1.0

    def test_boundary_limit_towards_one(self):
        # b -> 1, c -> 0 pushes s to 1 from above
        assert 1.0 < s_parameter(1.0 - 1e-9, 1e-9) < 1.0 + 1e-8

    def test_invalid_parameters(self):
        for b, c in ((0.0, 1.0), (1.0, 1.0), (0.5, 0.0)):
            with pytest.raises(ValueError):
                s_parameter(b, c)
            with pytest.raises(ValueError):
                mode_ratios(b, c)

    def test_mode_ratio_reference_values(self):
        z1, z2 = mode_ratios(0.5, 1.0)
        assert z1 == pytest.approx(0.5, abs=1e-15)
        assert z2 == pytest.approx(0.25, abs=1e-15)
        assert degenerate_distance(0.5, 1.0) > DEGENERATE_TOL
        for z in (z1, z2):
            assert abs(2.0 * z**2 - 1.5 * z + 0.25) <= 1e-15

    def test_mode_ratio_degenerate_case(self):
        z1, z2 = mode_ratios(1.0 / 3.0, 1.0)
        assert degenerate_distance(1.0 / 3.0, 1.0) <= DEGENERATE_TOL
        assert z1 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert z2 == pytest.approx(z1, abs=1e-15)

    @staticmethod
    def exact_condition(b, c):
        """κ₂(S) from exact rationals: κ + 1/κ = ‖S‖_F²/|det S| = 2t."""
        B, C = Fraction(b), Fraction(c)
        det = abs(B * (2 * C + 1) - C)
        if det == 0:
            return math.inf
        t = (B**2 + (1 - B) ** 2 + C**2 + (1 + C) ** 2) / (2 * det)
        return float(t) + math.sqrt(float(t * t - 1))

    def test_similarity_condition_matches_svd(self):
        # seeded draws away from the locus, where the SVD's own relative error,
        # about eps·κ₂, stays far below 1e-12
        rng = np.random.default_rng(30)
        draws = [(b, c) for b, c in zip(rng.uniform(0.01, 0.99, 400), rng.uniform(0.01, 20.0, 400))
                 if abs(b * (2.0 * c + 1.0) - c) >= 0.1]
        assert len(draws) >= 300
        for b, c in draws:
            kappa = np.linalg.cond(np.array([[b, 1.0 - b], [c, 1.0 + c]]))
            assert _similarity_condition(float(b), float(c)) == pytest.approx(kappa, rel=1e-12)

    @pytest.mark.parametrize("b, c", [
        (1.0 - 1e-9, 1.0), (1.0 - 1e-15, 2.0), (0.999, 1e3), (0.5, 1e6), (0.9, 1e8),
        *[(c / (2.0 * c + 1.0) + d, c) for c in (0.1, 1.0, 5.8679) for d in (0.0, 1e-12, 1e-7)],
    ])
    def test_similarity_condition_is_exact_to_rounding(self, b, c):
        # b -> 1, large c and on or near the locus, where np.linalg.cond loses up to
        # eps·κ₂ relative (6e-5 at c = 1e6, all digits on the locus): against exact
        # rational arithmetic instead
        assert _similarity_condition(b, c) == pytest.approx(self.exact_condition(b, c), rel=1e-12)

    def test_similarity_condition_of_a_singular_similarity_is_inf(self):
        # b(2c + 1) = c exactly in binary floating point
        assert _similarity_condition(0.25, 0.5) == math.inf

    @settings(max_examples=200, deadline=None)
    @given(valid_b, valid_c)
    def test_vieta_identities(self, b, c):
        z1, z2 = mode_ratios(b, c)
        prod = b * (1.0 - b) / (c * (1.0 + c))
        tot = (b + c) / (c * (1.0 + c))
        assert z1 * z2 == pytest.approx(prod, rel=1e-12)
        assert z1 + z2 == pytest.approx(tot, rel=1e-12)


class TestJacobianAssembly:
    def test_origin_is_block_diagonal(self):
        g = grid1d(50)
        params = ModelParams(a=2.0, b=0.5, c=1.0)
        zero = Field.constant(g, 0.0)
        J = CoupledJacobian(g, zero, zero, params).matrix.toarray()
        block = (laplacian(g) + sp.diags(np.full(g.size, 2.0))).toarray()
        n = g.size
        assert np.array_equal(J[:n, :n], block)
        assert np.array_equal(J[n:, n:], block)
        assert np.abs(J[:n, n:]).max() == 0.0
        assert np.abs(J[n:, :n]).max() == 0.0

    def test_origin_spectrum_duplicates_scalar(self):
        g = grid1d(200)
        params = ModelParams(a=2.0, b=0.5, c=1.0)
        zero = Field.constant(g, 0.0)
        J = CoupledJacobian(g, zero, zero, params)
        mus = coupled_eigenpairs(J, 4, zero_state_window(g, 2.0, 4), tol=1e-10)[0]
        scalar = eigenpairs(WeightedOperator(g, Field.constant(g, 2.0)), 2, tol=1e-10).values
        expected = np.repeat(scalar, 2)
        assert np.allclose([m.real for m in mus], expected, atol=1e-10)
        assert mus[0].real == pytest.approx(-1.0, abs=1e-3)  # unstable origin

    @pytest.mark.parametrize(
        "g, a",
        [
            (Grid("interval", (math.pi,), (60,)), 2.0),
            (Grid("rectangle", (math.pi, 2.0), (9, 7)), 4.0),
        ],
        ids=["1d", "2d"],
    )
    def test_kron_assembly_equals_block_matrix(self, g, a):
        # kron(I2, lap) + three diagonals against the 2x2 block layout of
        # the module docstring, entry for entry at the synchronized state
        params = ModelParams(a=a, b=0.3, c=1.7)
        steady = synchronized_state(params, solve_logistic(g, a, tol=1e-10))
        u, v = steady.u.values, steady.v.values
        lap = laplacian(g)
        blocks = sp.bmat(
            [
                [lap + sp.diags(a - 2.0 * u - params.b * v), sp.diags(-params.b * u)],
                [sp.diags(params.c * v), lap + sp.diags(a - 2.0 * v + params.c * u)],
            ],
            format="csr",
        )
        J = CoupledJacobian(g, steady.u, steady.v, params).matrix
        assert J.shape == blocks.shape
        assert (J != blocks).nnz == 0

    def test_offdiagonal_blocks_are_exact_diagonals(self, grid200, steady200, params_default):
        J = CoupledJacobian(grid200, steady200.u, steady200.v, params_default).matrix.toarray()
        n = grid200.size
        upper = J[:n, n:]
        lower = J[n:, :n]
        assert np.array_equal(np.diag(upper), -params_default.b * steady200.u.values)
        assert np.array_equal(np.diag(lower), params_default.c * steady200.v.values)
        assert np.abs(upper - np.diag(np.diag(upper))).max() == 0.0
        assert np.abs(lower - np.diag(np.diag(lower))).max() == 0.0

    def test_diagonal_block_weights_at_synchronized_state(
        self, grid200, theta200, steady200, params_default
    ):
        # substituting u = alpha*theta, v = beta*theta collapses the diagonal
        # weights to a - (alpha+1)theta and a - (beta+1)theta
        J = CoupledJacobian(grid200, steady200.u, steady200.v, params_default).matrix
        n = grid200.size
        alpha, beta = ratio_coefficients(params_default.b, params_default.c)
        lap = laplacian(grid200)
        a_vals = theta200.a.values
        th = theta200.theta.values
        w1 = J[:n, :n].toarray() - lap.toarray()
        w2 = J[n:, n:].toarray() - lap.toarray()
        # the weight rides on a diagonal of size 2/h^2, so "machine
        # precision" means a few ulps at stencil scale
        tol = 4.0 * math.ulp(2.0 / grid200.spacing[0] ** 2)
        assert np.abs(np.diag(w1) - (a_vals - (alpha + 1.0) * th)).max() <= tol
        assert np.abs(np.diag(w2) - (a_vals - (beta + 1.0) * th)).max() <= tol


class TestSpectralEquivalence:
    def test_direct_ansatz_per_family(self, grid200, theta200, steady200, params_default):
        # the crown invariant: pure matrix-vector application, no eigensolver
        b, c = params_default.b, params_default.c
        J = CoupledJacobian(grid200, steady200.u, steady200.v, params_default)
        two = theta_half(theta200.a, grid200, 6, tol=1e-10).two
        _, spectra = predicted_spectrum(
            grid200, theta200.a, theta200.theta, b, c, two, tol=1e-10
        )
        factor = max(1.0 + c, 2.0)
        for family in ("s1", "two"):
            for pair in spectra[family].pairs[:6]:
                res = ansatz_residual(J, pair, ansatz_coefficients(b, c, family))
                assert res <= factor * pair.residual + 1e-11

    def test_union_multiset_matches_coupled(self, grid200, theta200, steady200, params_default):
        J = CoupledJacobian(grid200, steady200.u, steady200.v, params_default)
        predicted, spectra = predicted_spectrum(
            grid200, theta200.a, theta200.theta, params_default.b, params_default.c,
            theta_half(theta200.a, grid200, 6, tol=1e-10).two, tol=1e-10,
        )
        mus, _, _ = coupled_eigenpairs(J, 12, coupled_window(12, spectra), tol=1e-10)
        pred_vals = np.array([p[0] for p in predicted])
        assert np.abs(mus.imag).max() <= 1e-8
        rel = np.abs(np.sort(mus.real) - pred_vals) / np.abs(pred_vals)
        assert rel.max() <= 1e-8

    @pytest.mark.parametrize(
        "g, a, k",
        [
            (Grid("interval", (math.pi,), (120,)), 2.0, 8),
            # the square's (i,j)/(j,i) modes give exactly double eigenvalues;
            # k=14 ends the window between two of them, so the window is 14
            (Grid("rectangle", (math.pi, math.pi), (12, 12)), 4.0, 14),
        ],
        ids=["1d-120", "2d-12x12"],
    )
    def test_iterative_coupled_solver_matches_dense_oracle(self, g, a, k, predicted_window):
        params = ModelParams(a=a, b=0.5, c=1.0)
        sol = solve_logistic(g, a, tol=1e-10)
        steady = synchronized_state(params, sol)
        J = CoupledJacobian(g, steady.u, steady.v, params)
        arnoldi, _, _ = coupled_eigenpairs(J, k, predicted_window(g, params, k), tol=1e-10)
        # independent oracle: raw LAPACK on the negated block matrix
        dense = np.sort(sla.eigvals((-J.matrix).toarray()).real)[:k]
        assert np.allclose(arnoldi.real, dense, rtol=1e-8)

    def test_window_edge_for_nearly_the_whole_spectrum(self):
        # k = 2N - 2 is ARPACK's largest window, a wider window capped to it;
        # k = 2N - 1 and 2N lie outside the window
        g = grid1d(10)
        params = ModelParams(a=2.0, b=0.5, c=1.0)
        steady = synchronized_state(params, solve_logistic(g, 2.0, tol=1e-10))
        J = CoupledJacobian(g, steady.u, steady.v, params)
        oracle = sla.eigvals((-J.matrix).toarray())
        oracle = oracle[np.lexsort((oracle.imag, oracle.real))]
        k = 2 * g.size - 2
        vals, vecs, _ = coupled_eigenpairs(J, k, k + 2, tol=1e-10)
        assert vecs.shape == (2 * g.size, k)
        assert np.allclose(vals, oracle[:k], rtol=1e-12, atol=1e-12)
        for k in (2 * g.size - 1, 2 * g.size):
            with pytest.raises(ValueError, match="eigen window"):
                coupled_eigenpairs(J, k, k, tol=1e-10)

    @pytest.mark.parametrize("g", [Grid("interval", (math.pi,), (40,)),
                                   Grid("rectangle", (math.pi, math.pi), (12, 12))],
                             ids=["1d-40", "2d-12x12"])
    def test_values_come_lexsorted_by_real_then_imag(self, g, predicted_window):
        # on the degenerate locus rounding may split a defective pair into
        # complex conjugates with equal real parts, whose imaginary parts
        # then decide their order; verify_theorem and the eigenvalue table
        # rely on it
        params = ModelParams(a=4.0 if g.ndim == 2 else 2.0, b=1.0 / 3.0, c=1.0)
        steady = synchronized_state(params, solve_logistic(g, params.a, tol=1e-10))
        J = CoupledJacobian(g, steady.u, steady.v, params)
        vals, _, _ = coupled_eigenpairs(J, 12, predicted_window(g, params, 12))
        assert np.array_equal(np.lexsort((vals.imag, vals.real)), np.arange(12))

    @pytest.mark.parametrize("reverse", [False, True], ids=["arpack-order", "reversed"])
    def test_exact_conjugate_pairs_come_lexsorted_by_real_then_imag(self, monkeypatch, reverse):
        # -matrix holds the 2x2 blocks [[r, ω], [-ω, r]], exact pairs r ± iω
        # with equal real parts by construction, then real values from 10 up.
        # ARPACK returns the pairs by |λ - σ|, 2 ± i first and 1 ± 5i last,
        # each r - iω first; reversed, r + iω comes first
        import scipy.sparse.linalg as spla

        from lvsync.spectral import _shift_invert

        eigs = spla.eigs
        if reverse:
            monkeypatch.setattr(spla, "eigs", lambda *args, **kwargs: tuple(
                x[..., ::-1] for x in eigs(*args, **kwargs)))
        g = grid1d(40)
        blocks = [np.array([[r, w], [-w, r]]) for r, w in [(3.0, 0.5), (1.0, 5.0), (2.0, 1.0)]]
        A = sp.block_diag([*blocks, sp.diags(np.arange(10.0, 44.0))], format="csr")
        stand_in = dataclasses.make_dataclass("StandIn", ["grid", "matrix"])(g, -A)
        vals, _, _ = _shift_invert(stand_in, 6, 0.0, 0, 1e-10, symmetric=False)
        assert np.count_nonzero(vals.imag) == 6
        assert np.array_equal(np.lexsort((vals.imag, vals.real)), np.arange(6))
        expected = [1 - 5j, 1 + 5j, 2 - 1j, 2 + 1j, 3 - 0.5j, 3 + 0.5j]
        assert np.allclose(vals, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n, k", [(10, 7), (14, 12)], ids=["10x10", "14x14"])
    def test_zero_state_window_edge_cuts_no_copy(self, n, k):
        # I2 x (lap + a) on the square makes the (i,j)/(j,i) eigenvalues
        # fourfold; k cuts the window inside such a cluster, and an Arnoldi
        # solve for exactly k values returns one copy short
        g = Grid("rectangle", (math.pi, math.pi), (n, n))
        zero = Field.constant(g, 0.0)
        J = CoupledJacobian(g, zero, zero, ModelParams(a=4.0, b=0.5, c=1.0))
        arnoldi, _, _ = coupled_eigenpairs(J, k, zero_state_window(g, 4.0, k), tol=1e-10)
        dense = np.sort(sla.eigvals((-J.matrix).toarray()).real)[:k]
        assert np.allclose(arnoldi.real, dense, rtol=1e-8)

    def test_degenerate_locus_spectrum_duplicated(self, predicted_window):
        g = grid1d(150)
        params = ModelParams(a=2.0, b=1.0 / 3.0, c=1.0)
        sol = solve_logistic(g, 2.0, tol=1e-10)
        steady = synchronized_state(params, sol)
        J = CoupledJacobian(g, steady.u, steady.v, params)
        mus, _, _ = coupled_eigenpairs(J, 8, predicted_window(g, params, 8), tol=1e-10)
        scalar = eigenpairs(
            WeightedOperator(g, sol.a - 2.0 * sol.theta), 4, tol=1e-10
        ).values
        coupled = np.sort(mus.real)
        # defective pairs split by ~sqrt(eps*||J||) in an uncontrolled
        # direction; the pair means stay at ordinary rounding accuracy
        pair_means = coupled.reshape(4, 2).mean(axis=1)
        assert np.abs(pair_means - scalar).max() / scalar.min() <= 1e-8
        rel = np.abs(coupled - np.repeat(scalar, 2)) / np.repeat(scalar, 2)
        assert rel.max() <= 1e-5

    def test_degenerate_reduction_into_scalar_eigenspace(self, predicted_window):
        g = grid1d(150)
        c = 1.0
        params = ModelParams(a=2.0, b=1.0 / 3.0, c=c)
        sol = solve_logistic(g, 2.0, tol=1e-10)
        steady = synchronized_state(params, sol)
        J = CoupledJacobian(g, steady.u, steady.v, params)
        vals, vecs, _ = coupled_eigenpairs(J, 8, predicted_window(g, params, 8), tol=1e-10)
        M2 = laplacian(g) + sp.diags(sol.a.values - 2.0 * sol.theta.values)
        scale = math.sqrt(g.cell_volume)
        for j in range(len(vals)):
            xi = component_projection(vecs[:, j], 2.0 * c + 1.0, -1.0, g)
            res = np.linalg.norm(M2 @ xi + vals[j] * xi) * scale
            assert res <= 1e-6  # scalar eigenvector, or the zero vector

    @pytest.mark.parametrize(
        "g, a, b, c, n_values",
        [
            (grid1d(200), 2.0, 0.5, 1.0, 6),
            # the a - 2θ family's (i,j)/(j,i) eigenvalues are exactly double
            (Grid("rectangle", (math.pi, math.pi), (30, 30)), 4.0,
             0.16881439780308355, 1.7198994193456842, 12),
        ],
        ids=["1d-200", "2d-30x30"],
    )
    def test_generic_left_projections_split_families(self, g, a, b, c, n_values,
                                                     predicted_window):
        # (1+c)phi - (1-b)psi lands in the s1 family, c*phi - b*psi in the
        # s=2 family; on eigenvectors of the other family both vanish
        params = ModelParams(a=a, b=b, c=c)
        sol = solve_logistic(g, a, tol=1e-10)
        steady = synchronized_state(params, sol)
        J = CoupledJacobian(g, steady.u, steady.v, params)
        vals, vecs, _ = coupled_eigenpairs(J, n_values, predicted_window(g, params, n_values),
                                           tol=1e-10)
        s1 = s_parameter(b, c)
        lap = laplacian(g)
        m_s1 = lap + sp.diags(sol.a.values - s1 * sol.theta.values)
        m_2 = lap + sp.diags(sol.a.values - 2.0 * sol.theta.values)
        scale = math.sqrt(g.cell_volume)
        for j in range(len(vals)):
            xi1 = component_projection(vecs[:, j], 1.0 + c, -(1.0 - b), g)
            xi2 = component_projection(vecs[:, j], c, -b, g)
            r1 = np.linalg.norm(m_s1 @ xi1 + vals[j] * xi1) * scale
            r2 = np.linalg.norm(m_2 @ xi2 + vals[j] * xi2) * scale
            assert min(r1, r2) <= 1e-8
            norms = sorted((np.linalg.norm(xi1), np.linalg.norm(xi2)))
            assert norms[1] > 1e-3
            # each eigenvector is (b, c)⊗φ or (1-b, 1+c)⊗φ: the ratio claim
            assert norms[0] <= 1e-10 * norms[1]

    def test_spatially_varying_growth_rate(self):
        g = grid1d(150)
        a = Field.from_function(g, lambda x: 1.5 + 0.5 * np.sin(x))
        sol = solve_logistic(g, a, tol=1e-10)
        b, c = 0.4, 1.5
        params = ModelParams(a=a, b=b, c=c)
        steady = synchronized_state(params, sol)
        J = CoupledJacobian(g, steady.u, steady.v, params)
        two = theta_half(a, g, 4, tol=1e-10).two
        _, spectra = predicted_spectrum(g, a, sol.theta, b, c, two, tol=1e-10)
        factor = max(1.0 + c, 2.0)
        for family in ("s1", "two"):
            for pair in spectra[family].pairs[:4]:
                res = ansatz_residual(J, pair, ansatz_coefficients(b, c, family))
                assert res <= factor * pair.residual + 1e-11
        report = verify_theorem(params, g, 5, tol=1e-10)
        assert report.verdict == "stable"
        assert report.max_rel_mismatch <= 1e-8


class TestVerifyTheorem:
    def test_default_case(self, report200, grid200, theta200):
        assert report200.verdict == "stable"
        assert report200.max_rel_mismatch <= 1e-8
        assert report200.max_imag <= 1e-8
        assert report200.mu1 > 0
        # mu1 equals the principal eigenvalue of the s1 weight here (s1 < 2)
        s1 = s_parameter(0.5, 1.0)
        lam = eigenpairs(
            WeightedOperator(grid200, theta200.a - s1 * theta200.theta), 1, tol=1e-10
        ).values[0]
        assert report200.mu1 == pytest.approx(lam, abs=1e-9)
        assert len(report200.coupled_eigs) == 12
        assert len(report200.predicted_eigs) == 12
        assert report200.degenerate is False
        # the bound sits at the rounding floor, far below the old 100·tol
        assert report200.max_rel_mismatch <= report200.mismatch_threshold <= 1e-9

    def test_degenerate_case(self, grid200):
        report = verify_theorem(ModelParams(a=2.0, b=1.0 / 3.0, c=1.0), grid200, 4, tol=1e-10)
        assert report.degenerate is True
        assert report.verdict == "stable"
        assert report.max_rel_mismatch <= 1e-6
        assert report.max_rel_mismatch <= report.mismatch_threshold
        assert report.s_value == pytest.approx(2.0, abs=4 * math.ulp(2.0))

    def test_bound_near_locus(self, grid200):
        # κ₂(S) ≈ ‖S‖_F²/|det S| with det S = 3·offset at c = 1. At 5e-5 the two
        # families' copies lie in separate clusters, each bounded with κ₂(S) ≈ 3.7e4;
        # at 1e-9 they share clusters, whose bound takes max ρ_c + w instead of
        # κ₂(S)·max ρ_c (κ₂(S) ≈ 1.9e9), so the bound stays below the old 1e-6 at both
        c = 1.0
        for offset in (5e-5, 1e-9):
            b = c / (2 * c + 1) + offset
            report = verify_theorem(ModelParams(a=2.0, b=b, c=c), grid200, 3, tol=1e-10)
            assert report.degenerate is False
            assert report.verdict == "stable"
            assert report.max_rel_mismatch <= 1e-6
            assert report.max_rel_mismatch <= report.mismatch_threshold <= 1e-6

    @pytest.mark.parametrize("offset", [0.0, 3e-13, 9e-13, 1.1e-12, 1e-10, 1e-7, 1e-5, 1e-4])
    @pytest.mark.parametrize(
        "g, a",
        [(Grid("rectangle", (math.pi, math.pi), (12, 12)), 4.0),
         (Grid("rectangle", (math.pi, math.pi), (30, 30)), 4.0), (grid1d(200), 2.0)],
        ids=["2d-12x12", "2d-30x30", "1d-200"],
    )
    def test_near_locus_stable(self, g, a, offset):
        # both families are solved at every offset, DEGENERATE_TOL only sets the flag; a
        # cluster that holds both families' copies is bounded by max ρ_c + |s₁ - 2|·‖θ‖∞,
        # any other by κ₂(S)·max ρ_c. The largest relative bound measured on these cases
        # is 3.4e-6 (1D, offset 1e-5). Solving the a - s₁θ family within DEGENERATE_TOL,
        # rather than standing a - 2θ in for it, keeps every mismatch at rounding level:
        # at most 0.018 of its bound measured, where the stand-in reached 0.33 (12x12, 9e-13)
        b = 1.0 / 3.0 + offset
        report = verify_theorem(ModelParams(a=a, b=b, c=1.0), g, 3)
        assert report.degenerate is (offset <= DEGENERATE_TOL)
        assert (report.verdict, report.cause) == ("stable", None)
        assert report.max_rel_mismatch <= 1e-6
        assert report.max_rel_mismatch <= report.mismatch_threshold / 10
        assert report.mismatch_threshold <= 1e-4

    def test_square_edge_pair_not_missed(self):
        # s1 = 3.73 puts one copy of the a-2θ family's exactly double
        # (2,3)/(3,2) eigenvalue at the edge of the 12 requested values
        g = Grid("rectangle", (math.pi, math.pi), (30, 30))
        params = ModelParams(a=4.0, b=0.0887739738730586, c=3.1962470317855978)
        report = verify_theorem(params, g, 6)
        assert report.verdict == "stable"
        assert report.max_rel_mismatch <= report.mismatch_threshold

    @pytest.mark.parametrize("b, c", [(0.5, 1.0), (1.0 / 3.0, 1.0)], ids=["generic", "locus"])
    @pytest.mark.parametrize(
        "g, a",
        [
            (Grid("interval", (math.pi,), (200,)), 2.0),
            (Grid("interval", (math.pi,), (600,)), 2.0),
            (Grid("interval", (math.pi,), (2500,)), 2.0),
            (Grid("interval", (math.pi,), (10_000,)), 2.0),
            (Grid("rectangle", (math.pi, math.pi), (60, 60)), 4.0),
        ],
        ids=["1d-200", "1d-600", "1d-2500", "1d-10000", "2d-60x60"],
    )
    def test_grid_ladder_default_tol_without_dense(self, monkeypatch, g, a, b, c):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense LAPACK eigensolver called")

        monkeypatch.setattr(sla, "eig", forbidden)
        monkeypatch.setattr(sla, "eigh", forbidden)
        report = verify_theorem(ModelParams(a=a, b=b, c=c), g, 6)
        assert report.verdict == "stable", report.cause

    @pytest.mark.parametrize("delta", [1e-4, 1e-5, 2e-6])
    @pytest.mark.parametrize(
        "g", [grid1d(200), Grid("rectangle", (math.pi, math.pi), (40, 40))],
        ids=["1d-200", "2d-40x40"],
    )
    def test_near_threshold_mu1_oracle(self, g, delta):
        # at a = λ₁ + δ, θ ≈ δ·φ₁/⟨φ₁³⟩ and λ₁(a - sθ) = (s - 1)·δ + O(δ²)
        # (Crandall & Rabinowitz, J. Funct. Anal. 8, 1971); λ₁ of -Δ_h in closed form
        lam1 = sum(4.0 / h**2 * math.sin(math.pi * h / (2.0 * L)) ** 2
                   for h, L in zip(g.spacing, g.extents))
        s1 = s_parameter(0.5, 1.0)
        sol = solve_logistic(g, lam1 + delta)
        mu1 = eigenpairs(WeightedOperator(g, sol.a - s1 * sol.theta), 1).values[0]
        assert abs(mu1 / ((s1 - 1.0) * delta) - 1.0) <= 1e-3
        # μ₁ → 0: a mismatch at rounding level is large against μ₁ but not
        # against the residual bound, which every cluster of a stable report meets
        report = verify_theorem(ModelParams(a=lam1 + delta, b=0.5, c=1.0), g, 6)
        assert (report.verdict, report.cause) == ("stable", None)
        assert report.max_rel_mismatch <= report.mismatch_threshold
        assert report.mu1 == pytest.approx(mu1, rel=1e-6)

    def test_nan_coupled_pair_is_inconclusive(self, monkeypatch):
        # a NaN eigenvector from the coupled eigen solve fails the residual
        # gate, so verify names the cause instead of judging NaN values
        import scipy.sparse.linalg as spla

        eigs = spla.eigs

        def nan_eigs(*args, **kwargs):
            vals, vecs = eigs(*args, **kwargs)
            vecs[:, 0] = np.nan
            return vals, vecs

        monkeypatch.setattr(spla, "eigs", nan_eigs)
        report = verify_theorem(ModelParams(a=2.0, b=0.5, c=1.0), grid1d(40), 3, tol=1e-10)
        assert report.verdict == "inconclusive"
        assert "coupled eigenpair" in report.cause and "residual nan" in report.cause

    @pytest.mark.parametrize("solver", ["eigsh", "eigs"])
    def test_arpack_failure_is_inconclusive(self, monkeypatch, solver, arpack_error):
        # a failed scalar (θ or a family) or coupled ARPACK solve ends the
        # verification inconclusive with its cause, not with a traceback
        import scipy.sparse.linalg as spla

        def failing(*args, **kwargs):
            raise arpack_error

        monkeypatch.setattr(spla, solver, failing)
        report = verify_theorem(ModelParams(a=2.0, b=0.5, c=1.0), grid1d(40), 3, tol=1e-10)
        assert report.verdict == "inconclusive"
        assert report.cause.startswith("solver failure: ARPACK error")

    @pytest.mark.parametrize("b, c, expect_stable",
                             [(0.3437759627974551, 1.1002659032289266, False),
                              (0.3575525844625929, 1.2550335964807262, False),
                              (0.43994768711467147, 3.6630369920536006, True),
                              (0.34783427185678173, 1.1429455111252134, True)],
                             ids=["seed-183", "seed-1048", "seed-195", "seed-556"])
    def test_arpack_failing_locus_draws_give_a_report(self, b, c, expect_stable):
        # draws of the 30x30 verify workload where the coupled eigs stopped in
        # dneupd (ARPACK error 1) at one shift, window or BLAS build: a report
        # either way, and a verdict for the draws that failed last
        g = Grid("rectangle", (math.pi, math.pi), (30, 30))
        report = verify_theorem(ModelParams(a=4.0, b=b, c=c), g, 6)
        if expect_stable:
            assert (report.verdict, report.cause) == ("stable", None)
        assert report.verdict in ("stable", "inconclusive")
        if report.verdict == "inconclusive":
            assert report.cause.startswith("solver failure: ARPACK error"), report.cause

    # each verdict from the real solves with their real parts moved: both
    # shifted so that mu1 = -1, both shifted so that each minimum is exactly
    # 0.0, or the coupled values alone scaled by 1 + 1e-3
    @pytest.mark.parametrize("move, verdict, cause, exit_code", [
        ("unstable", "unstable", None, 0),
        ("borderline", "inconclusive", "borderline spectrum (eigenvalue at zero)", 1),
        ("mismatch", "inconclusive",
         r"spectral mismatch 1\.000e-03 exceeds its bound \d\.\d{3}e-1[0-3]", 1),
    ], ids=["unstable", "borderline", "mismatch"])
    def test_moved_spectra_give_each_verdict(
        self, monkeypatch, tmp_path, grid200, move, verdict, cause, exit_code
    ):
        import lvsync.linstab
        from lvsync.cli import main

        params = ModelParams(a=2.0, b=0.5, c=1.0)
        real_mu1 = verify_theorem(params, grid200, 3, tol=1e-10).mu1
        predict, coupled = lvsync.linstab.predicted_spectrum, lvsync.linstab.coupled_eigenpairs
        shifts = []  # the prediction's, which the unstable case's coupled values follow

        def moved_prediction(*args, **kwargs):
            tagged, spectra = predict(*args, **kwargs)
            low = min(value for value, _, _ in tagged)
            shifts.append({"unstable": -1.0 - low, "borderline": -low}.get(move, 0.0))
            return [(value + shifts[-1], fam, res) for value, fam, res in tagged], spectra

        def moved_coupled(*args, **kwargs):
            vals, vecs, res = coupled(*args, **kwargs)
            if move == "mismatch":
                return vals * (1.0 + 1e-3), vecs, res
            if move == "borderline":
                return vals - vals.real.min(), vecs, res
            return vals + shifts[-1], vecs, res

        monkeypatch.setattr(lvsync.linstab, "predicted_spectrum", moved_prediction)
        monkeypatch.setattr(lvsync.linstab, "coupled_eigenpairs", moved_coupled)
        report = verify_theorem(params, grid200, 3, tol=1e-10)
        assert report.verdict == verdict
        if move == "mismatch":
            assert re.fullmatch(cause, report.cause)
        else:
            assert report.cause == cause
        if move == "unstable":
            assert report.mu1 == pytest.approx(-1.0, abs=1e-9)
        else:
            assert report.mu1 == {"borderline": 0.0, "mismatch": real_mu1 * (1.0 + 1e-3)}[move]
        assert main(["verify", "--n", "200", "--a", "2", "--b", "0.5", "--c", "1", "--k", "3",
                     "--tol", "1e-10", "--out", str(tmp_path / "o")]) == exit_code

    def test_subcritical_inconclusive(self, grid200):
        report = verify_theorem(ModelParams(a=0.5, b=0.5, c=1.0), grid200, 3, tol=1e-10)
        assert report.verdict == "inconclusive"
        assert "no positive steady state" in report.cause

    def test_shared_half_must_match_a_and_k(self):
        g = grid1d(40)
        params = ModelParams(a=2.0, b=0.5, c=1.0)
        shared = theta_half(Field.constant(g, 2.0), g, 3, tol=1e-10)
        assert len(shared.two.pairs) == 6
        assert verify_theorem(params, g, 3, tol=1e-10, shared=shared) == verify_theorem(
            params, g, 3, tol=1e-10
        )
        with pytest.raises(ValueError, match="different growth rate"):
            verify_theorem(ModelParams(a=3.0, b=0.5, c=1.0), g, 3, tol=1e-10, shared=shared)
        with pytest.raises(ValueError, match="6 values, 4 needed"):
            verify_theorem(params, g, 2, tol=1e-10, shared=shared)

    @pytest.mark.parametrize("n", [40, 8])
    def test_locus_solves_both_families(self, monkeypatch, n):
        # on b = c/(2c+1) the locus is only a flag: theta_half's 2k-value a - 2θ
        # solve and one 2k-value a - s₁θ solve, as off it; at n = 8, 2k = N - 2
        # is the largest window. Here s₁ == 2.0 exactly, so the two solves are
        # the same and every value comes as an s1 copy and a bit-identical two copy
        import lvsync.linstab

        solve = lvsync.linstab.eigenpairs
        calls = []

        def counting_eigenpairs(op, k, tol):
            calls.append(k)
            return solve(op, k, tol)

        monkeypatch.setattr(lvsync.linstab, "eigenpairs", counting_eigenpairs)
        b, c = 1.0 / 3.0, 1.0
        assert s_parameter(b, c) == 2.0
        report = verify_theorem(ModelParams(a=2.0, b=b, c=c), grid1d(n), 3, tol=1e-10)
        assert report.degenerate and report.verdict == "stable", report.cause
        assert calls == [6, 6]
        assert report.predicted_families == ("s1", "two") * 3
        assert report.predicted_eigs[0::2] == report.predicted_eigs[1::2]

    def test_randomized_stability_positivity(self):
        # Theorem-level property: every valid supercritical sample is stable
        rng = np.random.default_rng(42)
        g = grid1d(60)
        for _ in range(50):
            a = rng.uniform(1.3, 6.0)
            b = rng.uniform(0.05, 0.95)
            c = rng.uniform(0.1, 5.0)
            report = verify_theorem(ModelParams(a=a, b=b, c=c), g, 3, tol=1e-10)
            assert report.verdict == "stable", (a, b, c, report.cause)
            assert report.mu1 > 0

    def test_2d_rectangle_pipeline(self):
        g = Grid("rectangle", (1.0, 1.0), (14, 14))
        report = verify_theorem(ModelParams(a=25.0, b=0.5, c=1.0), g, 4, tol=1e-10)
        assert report.verdict == "stable"
        assert report.max_rel_mismatch <= 1e-8
        assert report.mu1 > 0

    def test_report_exports(self, report200, tmp_path):
        d = stability_report_dict(report200)
        text = json.dumps(d, sort_keys=True)
        assert "coupled_eigs" in d and "verdict" in d
        assert json.loads(text)["verdict"] == "stable"
        path = tmp_path / "eigentable.csv"
        write_eigentable_csv(report200, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,coupled_re,coupled_im,predicted,rel_err"
        assert len(lines) == 1 + len(report200.coupled_eigs)

    def test_report_dict_keys_are_the_report_fields(self, report200, params_default):
        # report.json holds exactly the report's fields, and no others
        names = {f.name for f in dataclasses.fields(StabilityReport)}
        assert names == {
            "s_value", "s_second", "degenerate", "coupled_eigs",
            "predicted_eigs", "predicted_families", "max_rel_mismatch", "max_imag",
            "mu1", "verdict", "cause", "k", "mismatch_threshold",
        }
        for report in (report200, inconclusive_report(params_default, 6, "cause")):
            assert set(stability_report_dict(report)) == names

    @pytest.mark.parametrize(
        "pred, coupled, families, rho_c, rho_s, kappa, weyl, mismatch, bound",
        [
            ([1.0, 2.0, 4.0], [1.0, 2.5, 4.0], "s1 two s1", [0.0] * 3, [0.0] * 3, 1.0, 0.0,
             [0.0, 0.5, 0.0], [0.0] * 3),
            ([2.0, 2.0 + 1e-7, 5.0], [1.5, 2.5 + 1e-7, 5.0], "s1 s1 two", [0.0] * 3, [0.0] * 3,
             1.0, 0.0, [0.0, 0.0], [0.0, 0.0]),
            ([3.0, 3.0 + 2e-6, 3.0 + 4e-6], [2.9, 3.0 + 2e-6, 3.1 + 4e-6], "two two two",
             [0.0] * 3, [0.0] * 3, 1.0, 0.0, [0.0], [0.0]),
            ([1.0, 1.0 + 1.01 * CLUSTER_GAP], [1.0 + 1.01 * CLUSTER_GAP, 1.0], "s1 s1",
             [0.0] * 2, [0.0] * 2, 1.0, 0.0, [1.01e-6] * 2, [0.0] * 2),
            # below 1 the gap is still relative: 2e-9 apart at 1e-3 is two clusters
            ([1e-3, 1e-3 + 2e-9], [1e-3, 1e-3 + 2e-9], "s1 s1", [1e-15] * 2, [1e-15] * 2, 1.0,
             0.0, [0.0] * 2, [2e-15] * 2),
            # an exact double zero is one cluster
            ([0.0, 0.0], [-1e-14, 2e-14], "s1 s1", [1e-13, 3e-13], [1e-13, 1e-13], 1.0, 0.0,
             [5e-15], [4e-13]),
            # one family's pair: κ·max ρ_c + max ρ_s
            ([5.0, 5.0], [5.0, 5.0], "s1 s1", [1e-3, 2e-3], [5e-4, 1e-4], 10.0, 1e-5,
             [0.0], [2.05e-2]),
            # both families' copies: max ρ_c + w where that is below κ·max ρ_c
            ([5.0, 5.0], [5.0, 5.0], "s1 two", [1e-3, 2e-3], [5e-4, 1e-4], 10.0, 1e-5,
             [0.0], [2.51e-3]),
            # the exact locus, where S is singular: max ρ_c + w
            ([5.0, 5.0], [5.0, 5.0], "s1 two", [1e-3, 2e-3], [5e-4, 1e-4],
             _similarity_condition(0.25, 0.5), 1e-5, [0.0], [2.51e-3]),
            ([5.0, 5.0], [5.0, 5.0], "two s1", [1e-3, 2e-3], [5e-4, 1e-4], 1.5, 1e-2,
             [0.0], [3.5e-3]),
        ],
        ids=["singletons", "pair-by-mean", "chain-of-three", "just-beyond-gap",
             "relative-below-one", "double-zero", "one-family-pair", "two-family-pair",
             "locus-pair", "two-family-pair-kappa"],
    )
    def test_cluster_errors_table(
        self, pred, coupled, families, rho_c, rho_s, kappa, weyl, mismatch, bound
    ):
        got_mismatch, got_bound, mean = _cluster_errors(
            np.array(coupled), np.array(pred), np.array(families.split()),
            np.array(rho_c), np.array(rho_s), kappa, weyl)
        assert got_mismatch == pytest.approx(mismatch, rel=1e-6, abs=1e-15)
        assert got_bound == pytest.approx(bound, rel=1e-12, abs=0.0)
        assert len(mean) == len(mismatch)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_cluster_errors_equal_loop_reference(self, seed):
        # the element-by-element cluster walk, kept as the reference: the
        # same means over the same pieces, so the results must be equal
        def reference(coupled_re, pred, families, rho_c, rho_s, kappa, weyl):
            out, i, m = [], 0, len(pred)
            while i < m:
                j = i + 1
                while j < m and abs(pred[j] - pred[j - 1]) <= CLUSTER_GAP * abs(pred[j]):
                    j += 1
                coupled_err = kappa * max(rho_c[i:j])
                if "s1" in families[i:j] and "two" in families[i:j]:
                    coupled_err = min(coupled_err, max(rho_c[i:j]) + weyl)
                out.append((abs(np.mean(coupled_re[i:j]) - np.mean(pred[i:j])),
                            max(rho_s[i:j]) + coupled_err, np.mean(pred[i:j])))
                i = j
            return tuple(np.array(col) for col in zip(*out))

        rng = np.random.default_rng(seed)
        # steps of 0 to 3 cluster gaps build singletons, pairs and chains
        steps = rng.integers(0, 4, size=12) * rng.uniform(0.5, 1.5, size=12) * CLUSTER_GAP
        pred = 1.0 + np.cumsum(steps)
        coupled = pred * (1.0 + 1e-7 * rng.standard_normal(12))
        families = rng.choice(["s1", "two"], size=12)
        rho_c, rho_s = rng.uniform(0.0, 1e-12, size=(2, 12))
        args = (coupled, pred, families, rho_c, rho_s, rng.uniform(1.0, 100.0), 1e-11)
        for got, expected in zip(_cluster_errors(*args), reference(*args)):
            np.testing.assert_array_equal(got, expected)

    def test_degenerate_distance_helper(self):
        assert degenerate_distance(0.4, 2.0) <= DEGENERATE_TOL
        assert degenerate_distance(0.5, 1.0) > 1e-2


SQUARE12 = Grid("rectangle", (math.pi, math.pi), (12, 12))


def spy_arpack(monkeypatch, name, fail_first=0, error=None):
    """Record (count asked for, start vector) of every call of scipy's eigs or
    eigsh; the first fail_first calls raise `error` instead of solving."""
    import scipy.sparse.linalg as spla

    solver, calls = getattr(spla, name), []

    def spy(A, k, **kwargs):
        calls.append((k, kwargs["v0"].copy()))
        if len(calls) <= fail_first:
            raise error
        return solver(A, k, **kwargs)

    monkeypatch.setattr(spla, name, spy)
    return calls


def values_spectrum(values):
    return Spectrum(pairs=tuple(EigenPair(float(v), None, 0.0) for v in values))


class TestCoupledWindow:
    """ARPACK is asked for 2k coupled values plus the rest of a predicted cluster
    that straddles position 2k, and for 2k + 2 where the prediction runs out."""

    def test_default_verify_asks_for_exactly_2k(self, monkeypatch):
        calls = spy_arpack(monkeypatch, "eigs")
        g = Grid("rectangle", (math.pi, math.pi), (30, 30))
        report = verify_theorem(ModelParams(a=4.0, b=0.5, c=1.0), g, 6)
        assert report.verdict == "stable"
        assert [k for k, _ in calls] == [12]

    @staticmethod
    def prediction(b, c, k):
        half = theta_half(Field.constant(SQUARE12, 4.0), SQUARE12, k)
        _, spectra = predicted_spectrum(SQUARE12, half.logistic.a, half.logistic.theta, b, c,
                                        half.two)
        union = sorted((v, fam) for fam, spec in spectra.items() for v in spec.values)
        return union, spectra

    def test_straddling_cluster_joins_the_window(self, monkeypatch):
        # at b = 0.1, c = 4 the a - s₁θ family's (i,j)/(j,i) pair sits at
        # positions 5 and 6 of the union, astride 2k = 6, below both families' ends
        union, spectra = self.prediction(0.1, 4.0, 3)
        (v4, _), (v5, f5), (v6, f6), (v7, _) = union[4:8]
        assert f5 == f6 == "s1" and v6 - v5 <= CLUSTER_GAP * v6
        assert v5 - v4 > CLUSTER_GAP * v5 and v7 - v6 > CLUSTER_GAP * v7
        assert v6 < min(spec.values[-1] for spec in spectra.values())
        assert coupled_window(6, spectra) == 7
        calls = spy_arpack(monkeypatch, "eigs")
        report = verify_theorem(ModelParams(a=4.0, b=0.1, c=4.0), SQUARE12, 3)
        assert (report.verdict, report.cause) == ("stable", None)
        assert [k for k, _ in calls] == [7]

    def test_edge_at_a_family_end_asks_for_2k_plus_2(self, monkeypatch):
        # at b = 0.05, c = 10 (s₁ ≈ 8) the a - s₁θ family lies above the first
        # 2k = 6 values of the a - 2θ family, so the union's sixth value is the
        # last one that family computed: its seventh, unknown, may equal it
        union, spectra = self.prediction(0.05, 10.0, 3)
        assert [fam for _, fam in union[:6]] == ["two"] * 6
        assert union[5][0] == spectra["two"].values[-1]
        assert coupled_window(6, spectra) == 8
        calls = spy_arpack(monkeypatch, "eigs")
        report = verify_theorem(ModelParams(a=4.0, b=0.05, c=10.0), SQUARE12, 3)
        assert (report.verdict, report.cause) == ("stable", None)
        assert [k for k, _ in calls] == [8]

    @pytest.mark.parametrize("s1, two, window", [
        ([1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.5, 4.5], 4),  # no cluster at the edge
        ([1.0, 2.0, 3.0, 9.0], [1.5, 3.0, 8.0, 9.5], 5),  # a pair astride position 4
        ([1.0, 2.0, 3.0, 3.0], [1.5, 3.0, 8.0, 9.0], 6),  # a triple astride it, to s1's end
        ([1.0, 2.0, 2.0, 2.0], [1.5, 2.0, 2.0, 9.0], 7),  # five copies, to s1's end
        ([5.0, 6.0, 7.0, 8.0], [1.0, 2.0, 3.0, 4.0], 6),  # the edge is two's last value
    ], ids=["none", "pair", "triple-at-end", "cluster-past-2k+2", "family-end"])
    def test_window_rule(self, s1, two, window):
        spectra = {"s1": values_spectrum(s1), "two": values_spectrum(two)}
        assert coupled_window(4, spectra) == window

    @pytest.mark.parametrize("g", [grid1d(40), SQUARE12], ids=["1d-40", "2d-12x12"])
    def test_locus_window_holds_whole_pairs(self, monkeypatch, g):
        # on the locus both families coincide: the union pairs up at positions
        # (2i, 2i + 1), so the window is exactly 2k = 12, and each defective
        # coupled pair at the edge, real or complex, lies inside it
        params = ModelParams(a=4.0 if g.ndim == 2 else 2.0, b=1.0 / 3.0, c=1.0)
        calls = spy_arpack(monkeypatch, "eigs")
        report = verify_theorem(params, g, 6)
        assert (report.verdict, report.cause) == ("stable", None)
        assert [k for k, _ in calls] == [12]


class TestArpackRetry:
    """One restart from RETRY_START_SEED after an ARPACK failure, never after a
    mismatch or a failed residual check."""

    @pytest.mark.parametrize("solver", ["eigsh", "eigs"])
    def test_one_failure_is_retried_and_ends_stable(self, monkeypatch, solver, arpack_error):
        calls = spy_arpack(monkeypatch, solver, fail_first=1, error=arpack_error)
        g = grid1d(40)
        report = verify_theorem(ModelParams(a=2.0, b=0.5, c=1.0), g, 3, tol=1e-10)
        assert (report.verdict, report.cause) == ("stable", None)
        (k, first), (k_again, retry), *_ = calls
        assert k_again == k
        assert np.array_equal(retry, np.random.default_rng(RETRY_START_SEED).standard_normal(
            len(retry)))
        assert not np.array_equal(first, retry)

    @pytest.mark.parametrize("solver", ["eigsh", "eigs"])
    def test_two_failures_end_inconclusive(self, monkeypatch, solver, arpack_error):
        calls = spy_arpack(monkeypatch, solver, fail_first=2, error=arpack_error)
        report = verify_theorem(ModelParams(a=2.0, b=0.5, c=1.0), grid1d(40), 3, tol=1e-10)
        assert report.verdict == "inconclusive"
        first, stop, _ = str(arpack_error).partition(". ")
        assert report.cause == f"solver failure: {first}{stop.rstrip()}"
        assert len(calls) == 2

    def test_no_retry_after_a_mismatch_or_a_failed_check(self, monkeypatch):
        import lvsync.linstab

        coupled = lvsync.linstab.coupled_eigenpairs

        def scaled(*args, **kwargs):
            vals, vecs, res = coupled(*args, **kwargs)
            return vals * (1.0 + 1e-3), vecs, res

        calls = spy_arpack(monkeypatch, "eigs")
        with monkeypatch.context() as patch:
            patch.setattr(lvsync.linstab, "coupled_eigenpairs", scaled)
            report = verify_theorem(ModelParams(a=2.0, b=0.5, c=1.0), grid1d(40), 3, tol=1e-10)
        assert report.cause.startswith("spectral mismatch")
        assert len(calls) == 1
        # a NaN eigenvector fails the residual gate after ARPACK returned
        import scipy.sparse.linalg as spla

        spied = spla.eigs

        def nan_vector(*args, **kwargs):
            vals, vecs = spied(*args, **kwargs)
            vecs[:, 0] = np.nan
            return vals, vecs

        monkeypatch.setattr(spla, "eigs", nan_vector)
        report = verify_theorem(ModelParams(a=2.0, b=0.5, c=1.0), grid1d(40), 3, tol=1e-10)
        assert "residual nan" in report.cause
        assert len(calls) == 2
