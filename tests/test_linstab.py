import json
import math

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
    _cluster_mismatch,
    ansatz_coefficients,
    ansatz_residual,
    component_projection,
    coupled_eigenpairs,
    degenerate_distance,
    predicted_spectrum,
    theta_half,
)
from lvsync.model import ratio_coefficients

valid_b = st.floats(0.01, 0.99)
valid_c = st.floats(0.01, 20.0)


def grid1d(n, length=math.pi):
    return Grid("interval", (length,), (n,))


class TestParameterAlgebra:
    def test_s_reference_value(self):
        assert s_parameter(0.5, 1.0) == pytest.approx(5.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 2.0, 4.0, 17.3])
    def test_degenerate_locus_gives_two(self, c):
        b = c / (2.0 * c + 1.0)
        s = s_parameter(b, c)
        assert abs(s - 2.0) <= 4 * math.ulp(2.0)
        assert mode_ratios(b, c)[2] is True

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
        z1, z2, degenerate = mode_ratios(0.5, 1.0)
        assert z1 == pytest.approx(0.5, abs=1e-15)
        assert z2 == pytest.approx(0.25, abs=1e-15)
        assert degenerate is False
        for z in (z1, z2):
            assert abs(2.0 * z**2 - 1.5 * z + 0.25) <= 1e-15

    def test_mode_ratio_degenerate_case(self):
        z1, z2, degenerate = mode_ratios(1.0 / 3.0, 1.0)
        assert degenerate is True
        assert z1 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert z2 == pytest.approx(z1, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(valid_b, valid_c)
    def test_vieta_identities(self, b, c):
        z1, z2, _ = mode_ratios(b, c)
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
        mus = coupled_eigenpairs(J, 4, tol=1e-10)[0]
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
        _, spectra = predicted_spectrum(
            grid200, theta200.a, theta200.theta, b, c, 12, tol=1e-10
        )
        factor = max(1.0 + c, 2.0)
        for family in ("s1", "two"):
            for pair in spectra[family].pairs[:6]:
                res = ansatz_residual(J, pair, ansatz_coefficients(b, c, family))
                assert res <= factor * pair.residual + 1e-11

    def test_union_multiset_matches_coupled(self, grid200, theta200, steady200, params_default):
        J = CoupledJacobian(grid200, steady200.u, steady200.v, params_default)
        mus, _ = coupled_eigenpairs(J, 12, tol=1e-10)
        predicted, _ = predicted_spectrum(
            grid200, theta200.a, theta200.theta,
            params_default.b, params_default.c, 12, tol=1e-10,
        )
        pred_vals = np.array([p[0] for p in predicted])
        assert np.abs(mus.imag).max() <= 1e-8
        rel = np.abs(np.sort(mus.real) - pred_vals) / np.abs(pred_vals)
        assert rel.max() <= 1e-8

    @pytest.mark.parametrize(
        "g, a, k",
        [
            (Grid("interval", (math.pi,), (120,)), 2.0, 8),
            # the square's (i,j)/(j,i) modes give exactly double eigenvalues;
            # k=14 cuts the window between the two copies of one of them
            (Grid("rectangle", (math.pi, math.pi), (12, 12)), 4.0, 14),
        ],
        ids=["1d-120", "2d-12x12"],
    )
    def test_iterative_coupled_solver_matches_dense_oracle(self, g, a, k):
        params = ModelParams(a=a, b=0.5, c=1.0)
        sol = solve_logistic(g, a, tol=1e-10)
        steady = synchronized_state(params, sol)
        J = CoupledJacobian(g, steady.u, steady.v, params)
        arnoldi, _ = coupled_eigenpairs(J, k, tol=1e-10)
        # independent oracle: raw LAPACK on the negated block matrix
        dense = np.sort(sla.eigvals((-J.matrix).toarray()).real)[:k]
        assert np.allclose(arnoldi.real, dense, rtol=1e-8)

    def test_window_edge_for_nearly_the_whole_spectrum(self):
        # k = 2N - 2 is ARPACK's largest window, its extra values capped away;
        # k = 2N - 1 and 2N lie outside the window
        g = grid1d(10)
        params = ModelParams(a=2.0, b=0.5, c=1.0)
        steady = synchronized_state(params, solve_logistic(g, 2.0, tol=1e-10))
        J = CoupledJacobian(g, steady.u, steady.v, params)
        oracle = sla.eigvals((-J.matrix).toarray())
        oracle = oracle[np.lexsort((oracle.imag, oracle.real))]
        k = 2 * g.size - 2
        vals, vecs = coupled_eigenpairs(J, k, tol=1e-10)
        assert vecs.shape == (2 * g.size, k)
        assert np.allclose(vals, oracle[:k], rtol=1e-12, atol=1e-12)
        for k in (2 * g.size - 1, 2 * g.size):
            with pytest.raises(ValueError, match="eigen window"):
                coupled_eigenpairs(J, k, tol=1e-10)

    @pytest.mark.parametrize("g", [Grid("interval", (math.pi,), (40,)),
                                   Grid("rectangle", (math.pi, math.pi), (12, 12))],
                             ids=["1d-40", "2d-12x12"])
    def test_values_come_lexsorted_by_real_then_imag(self, g):
        # on the degenerate locus the defective pairs split into complex
        # conjugates with equal real parts, so the imaginary part decides
        # their order; verify_theorem and the eigenvalue table rely on it
        params = ModelParams(a=4.0 if g.ndim == 2 else 2.0, b=1.0 / 3.0, c=1.0)
        steady = synchronized_state(params, solve_logistic(g, params.a, tol=1e-10))
        vals, _ = coupled_eigenpairs(CoupledJacobian(g, steady.u, steady.v, params), 12)
        assert np.count_nonzero(vals.imag) >= 4
        assert np.array_equal(np.lexsort((vals.imag, vals.real)), np.arange(12))

    @pytest.mark.parametrize("n, k", [(10, 7), (14, 12)], ids=["10x10", "14x14"])
    def test_zero_state_window_edge_cuts_no_copy(self, n, k):
        # I2 x (lap + a) on the square makes the (i,j)/(j,i) eigenvalues
        # fourfold; k cuts the window inside such a cluster, and an Arnoldi
        # solve for exactly k values returns one copy short
        g = Grid("rectangle", (math.pi, math.pi), (n, n))
        zero = Field.constant(g, 0.0)
        J = CoupledJacobian(g, zero, zero, ModelParams(a=4.0, b=0.5, c=1.0))
        arnoldi, _ = coupled_eigenpairs(J, k, tol=1e-10)
        dense = np.sort(sla.eigvals((-J.matrix).toarray()).real)[:k]
        assert np.allclose(arnoldi.real, dense, rtol=1e-8)

    def test_degenerate_locus_spectrum_duplicated(self):
        g = grid1d(150)
        params = ModelParams(a=2.0, b=1.0 / 3.0, c=1.0)
        sol = solve_logistic(g, 2.0, tol=1e-10)
        steady = synchronized_state(params, sol)
        J = CoupledJacobian(g, steady.u, steady.v, params)
        mus, _ = coupled_eigenpairs(J, 8, tol=1e-10)
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

    def test_degenerate_reduction_into_scalar_eigenspace(self):
        g = grid1d(150)
        c = 1.0
        params = ModelParams(a=2.0, b=1.0 / 3.0, c=c)
        sol = solve_logistic(g, 2.0, tol=1e-10)
        steady = synchronized_state(params, sol)
        J = CoupledJacobian(g, steady.u, steady.v, params)
        vals, vecs = coupled_eigenpairs(J, 8, tol=1e-10)
        M2 = laplacian(g) + sp.diags(sol.a.values - 2.0 * sol.theta.values)
        scale = math.sqrt(g.cell_volume)
        for j in range(len(vals)):
            xi = component_projection(vecs[:, j], 2.0 * c + 1.0, -1.0, g)
            res = np.linalg.norm(M2 @ xi + vals[j] * xi) * scale
            assert res <= 1e-6  # scalar eigenvector, or the zero vector

    def test_generic_left_projections_split_families(
        self, grid200, theta200, steady200, params_default
    ):
        # (1+c)phi - (1-b)psi lands in the s1 family, c*phi - b*psi in the
        # s=2 family; on eigenvectors of the other family both vanish
        b, c = params_default.b, params_default.c
        J = CoupledJacobian(grid200, steady200.u, steady200.v, params_default)
        vals, vecs = coupled_eigenpairs(J, 6, tol=1e-10)
        s1 = s_parameter(b, c)
        lap = laplacian(grid200)
        m_s1 = lap + sp.diags(theta200.a.values - s1 * theta200.theta.values)
        m_2 = lap + sp.diags(theta200.a.values - 2.0 * theta200.theta.values)
        scale = math.sqrt(grid200.cell_volume)
        for j in range(len(vals)):
            xi1 = component_projection(vecs[:, j], 1.0 + c, -(1.0 - b), grid200)
            xi2 = component_projection(vecs[:, j], c, -b, grid200)
            r1 = np.linalg.norm(m_s1 @ xi1 + vals[j] * xi1) * scale
            r2 = np.linalg.norm(m_2 @ xi2 + vals[j] * xi2) * scale
            assert min(r1, r2) <= 1e-8
            assert max(np.linalg.norm(xi1), np.linalg.norm(xi2)) > 1e-3

    def test_spatially_varying_growth_rate(self):
        g = grid1d(150)
        a = Field.from_function(g, lambda x: 1.5 + 0.5 * np.sin(x))
        sol = solve_logistic(g, a, tol=1e-10)
        b, c = 0.4, 1.5
        params = ModelParams(a=a, b=b, c=c)
        steady = synchronized_state(params, sol)
        J = CoupledJacobian(g, steady.u, steady.v, params)
        _, spectra = predicted_spectrum(g, a, sol.theta, b, c, 8, tol=1e-10)
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
        assert report200.mismatch_threshold == 1e-8

    def test_ratio_errors_small(self, report200):
        assert len(report200.ratio_errors) > 0
        assert max(report200.ratio_errors) <= 1e-6

    def test_degenerate_case(self, grid200):
        report = verify_theorem(ModelParams(a=2.0, b=1.0 / 3.0, c=1.0), grid200, 4, tol=1e-10)
        assert report.degenerate is True
        assert report.verdict == "stable"
        assert report.max_rel_mismatch <= 1e-6
        assert report.ratio_errors == ()
        assert report.s_value == pytest.approx(2.0, abs=4 * math.ulp(2.0))

    def test_band_warning_near_locus(self, grid200):
        # 1e-9 off the locus every coupled value has a predicted value of
        # each family within 1e-6 relative, so no component ratio is fitted
        c = 1.0
        for offset, n_ratio_errors in ((5e-5, 6), (1e-9, 0)):
            b = c / (2 * c + 1) + offset
            report = verify_theorem(ModelParams(a=2.0, b=b, c=c), grid200, 3, tol=1e-10)
            assert report.degenerate is False
            assert report.band_warning is True
            assert report.mismatch_threshold == 1e-6
            assert report.verdict == "stable"
            assert len(report.ratio_errors) == n_ratio_errors

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
            (Grid("rectangle", (math.pi, math.pi), (60, 60)), 4.0),
        ],
        ids=["1d-200", "1d-600", "2d-60x60"],
    )
    def test_grid_ladder_default_tol_without_dense(self, monkeypatch, g, a, b, c):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense LAPACK eigensolver called")

        monkeypatch.setattr(sla, "eig", forbidden)
        monkeypatch.setattr(sla, "eigh", forbidden)
        report = verify_theorem(ModelParams(a=a, b=b, c=c), g, 6)
        assert report.verdict == "stable", report.cause

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
        with pytest.warns(RuntimeWarning):
            report = verify_theorem(ModelParams(a=2.0, b=0.5, c=1.0), grid1d(40), 3, tol=1e-10)
        assert report.verdict == "inconclusive"
        assert "coupled eigenpair" in report.cause and "residual nan" in report.cause

    # each verdict from the real solves with their real parts moved: both
    # shifted so that mu1 = -1, both shifted so that each minimum is exactly
    # 0.0, or the coupled values alone scaled by 1 + 1e-3
    @pytest.mark.parametrize("move, verdict, cause, exit_code", [
        ("unstable", "unstable", None, 0),
        ("borderline", "inconclusive", "borderline spectrum (eigenvalue at zero)", 1),
        ("mismatch", "inconclusive", "spectral mismatch 1.000e-03 exceeds threshold 1.0e-08", 1),
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
            low = min(value for value, _ in tagged)
            shifts.append({"unstable": -1.0 - low, "borderline": -low}.get(move, 0.0))
            return [(value + shifts[-1], family) for value, family in tagged], spectra

        def moved_coupled(*args, **kwargs):
            vals, vecs = coupled(*args, **kwargs)
            if move == "mismatch":
                return vals * (1.0 + 1e-3), vecs
            if move == "borderline":
                return vals - vals.real.min(), vecs
            return vals + shifts[-1], vecs

        monkeypatch.setattr(lvsync.linstab, "predicted_spectrum", moved_prediction)
        monkeypatch.setattr(lvsync.linstab, "coupled_eigenpairs", moved_coupled)
        report = verify_theorem(params, grid200, 3, tol=1e-10)
        assert report.verdict == verdict
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

    @pytest.mark.parametrize("n, solved", [(40, 6), (8, 6)])
    def test_locus_predicts_from_the_shared_family_alone(self, monkeypatch, n, solved):
        # on b = c/(2c+1) both copies of every predicted value come from the
        # one 2k-value a - 2θ solve of theta_half, as in a sweep; at n = 8,
        # 2k = N - 2 is the largest window
        import lvsync.linstab

        solve = lvsync.linstab.eigenpairs
        calls = []

        def counting_eigenpairs(op, k, tol):
            calls.append(k)
            return solve(op, k, tol)

        monkeypatch.setattr(lvsync.linstab, "eigenpairs", counting_eigenpairs)
        report = verify_theorem(ModelParams(a=2.0, b=1.0 / 3.0, c=1.0), grid1d(n), 3, tol=1e-10)
        assert report.degenerate and report.verdict == "stable", report.cause
        assert calls == [solved]

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

    @pytest.mark.parametrize(
        "pred, coupled, expected",
        [
            ([1.0, 2.0, 4.0], [1.0, 2.5, 4.0], 0.25),
            ([2.0, 2.0 + 1e-7, 5.0], [1.5, 2.5 + 1e-7, 5.0], 0.0),
            ([3.0, 3.0 + 2e-6, 3.0 + 4e-6], [2.9, 3.0 + 2e-6, 3.1 + 4e-6], 0.0),
            ([1.0, 1.0 + 1.01 * CLUSTER_GAP], [1.0 + 1.01 * CLUSTER_GAP, 1.0], 1.01e-6),
        ],
        ids=["singletons", "pair-by-mean", "chain-of-three", "just-beyond-gap"],
    )
    def test_cluster_mismatch_table(self, pred, coupled, expected):
        worst = _cluster_mismatch(np.array(coupled), np.array(pred))
        assert worst == pytest.approx(expected, rel=1e-6, abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_cluster_mismatch_equals_loop_reference(self, seed):
        # the element-by-element cluster walk, kept as the reference: the
        # same means over the same pieces, so the results must be equal
        def reference(coupled_re, pred):
            floor = 1e-12 * max(1.0, float(np.abs(pred).max()))
            worst, i, m = 0.0, 0, len(pred)
            while i < m:
                j = i + 1
                while j < m and abs(pred[j] - pred[j - 1]) <= CLUSTER_GAP * max(1.0, abs(pred[j])):
                    j += 1
                c_mean = float(np.mean(coupled_re[i:j]))
                p_mean = float(np.mean(pred[i:j]))
                worst = max(worst, abs(c_mean - p_mean) / max(abs(p_mean), floor))
                i = j
            return worst

        rng = np.random.default_rng(seed)
        # steps of 0 to 3 cluster gaps build singletons, pairs and chains
        steps = rng.integers(0, 4, size=12) * rng.uniform(0.5, 1.5, size=12) * CLUSTER_GAP
        pred = 1.0 + np.cumsum(steps)
        coupled = pred * (1.0 + 1e-7 * rng.standard_normal(12))
        assert _cluster_mismatch(coupled, pred) == reference(coupled, pred)

    def test_degenerate_distance_helper(self):
        assert degenerate_distance(0.4, 2.0) <= DEGENERATE_TOL
        assert degenerate_distance(0.5, 1.0) > 1e-2
