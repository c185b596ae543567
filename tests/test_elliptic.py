import math

import numpy as np
import pytest

from lvsync import (
    Domain,
    Field,
    Grid,
    NewtonDivergenceError,
    SubcriticalError,
    WeightedOperator,
    interpolate,
    logistic_residual,
    principal_eigenpair,
    solve_logistic,
    uniqueness_probe,
)

# Richardson-extrapolated fine-grid oracle (n=2000/4000), a=2 on (0, pi);
# regenerated by scripts/make_goldens.py. Discretization error at n=400 is
# ~2.2e-6, asserted with a 2x margin.
THETA_HALF_PI_ORACLE = 1.162538238436310
THETA_N400_TOL = 5e-6


def grid1d(n, length=math.pi):
    return Grid(Domain("interval", (length,), (n,)))


class TestSolveLogistic:
    def test_subcritical_raises(self):
        g = grid1d(100)
        with pytest.raises(SubcriticalError, match="subcritical"):
            solve_logistic(g, 0.5, tol=1e-10)
        # boundary case: exactly at the continuum eigenvalue the discrete
        # lambda1(a) is barely negative, so use something clearly below
        with pytest.raises(SubcriticalError):
            solve_logistic(g, 0.99, tol=1e-10)

    def test_theta_against_fine_grid_oracle(self, grid400, theta400):
        val = interpolate(theta400.theta, [math.pi / 2])
        assert abs(val - THETA_HALF_PI_ORACLE) <= THETA_N400_TOL
        assert theta400.residual_norm <= 1e-10
        assert theta400.newton_iterations > 0
        assert theta400.lambda1_of_a < 0

    def test_positivity_and_apriori_bound(self, theta400):
        assert theta400.theta.min() > 0.0
        assert theta400.theta.max() < 2.0

    def test_residual_postcondition(self, grid200, theta200):
        assert logistic_residual(theta200.theta, theta200.a) <= 1e-10

    def test_near_bifurcation_amplitude_scaling(self):
        g = grid1d(400)
        maxima = []
        for eps in (0.05, 0.025, 0.0125):
            sol = solve_logistic(g, 1.0 + eps, tol=1e-10)
            maxima.append(sol.theta.max())
        assert maxima[0] <= 0.2
        for m0, m1 in zip(maxima, maxima[1:]):
            assert 1.8 <= m0 / m1 <= 2.2

    def test_monotone_in_a(self):
        g = grid1d(100)
        t1 = solve_logistic(g, 1.5, tol=1e-10).theta
        t2 = solve_logistic(g, 2.0, tol=1e-10).theta
        assert np.all(t1.values <= t2.values + 1e-12)

    def test_stability_seed_lambda1_positive(self):
        g = grid1d(200)
        for a in (1.5, 2.0, 5.0):
            sol = solve_logistic(g, a, tol=1e-10)
            lam = principal_eigenpair(
                WeightedOperator(g, sol.a - 2.0 * sol.theta), tol=1e-9
            ).lam
            assert lam > 0.0

    def test_varying_a(self):
        g = grid1d(150)
        a = Field.from_function(g, lambda x: 1.5 + 0.5 * np.sin(x))
        sol = solve_logistic(g, a, tol=1e-10)
        assert sol.theta.min() > 0.0
        assert logistic_residual(sol.theta, a) <= 1e-10

    def test_grid_convergence_order(self):
        vals = {}
        for n in (100, 200, 400, 800):
            sol = solve_logistic(grid1d(n), 2.0, tol=1e-9)
            vals[n] = interpolate(sol.theta, [math.pi / 2])
        d1 = vals[100] - vals[200]
        d2 = vals[200] - vals[400]
        d3 = vals[400] - vals[800]
        for p in (math.log2(d1 / d2), math.log2(d2 / d3)):
            assert 1.8 <= p <= 2.2

    def test_supersolution_start_after_eigenfunction_start_stalls(self, monkeypatch):
        # a=60 on n=20: Newton from the scaled eigenfunction reaches its
        # damping floor; the constant max(a) start converges
        import lvsync.elliptic as elliptic

        outcomes = []
        newton = elliptic._newton

        def recording_newton(grid, a_vals, theta0, tol, enforce_positive):
            try:
                result = newton(grid, a_vals, theta0, tol, enforce_positive)
            except NewtonDivergenceError as exc:
                outcomes.append((theta0.max(), str(exc)))
                raise
            outcomes.append((theta0.max(), result[2]))
            return result

        monkeypatch.setattr(elliptic, "_newton", recording_newton)
        sol = solve_logistic(grid1d(20), 60.0, tol=1e-10)
        assert [start for start, _ in outcomes] == [pytest.approx(30.0, rel=1e-12), 60.0]
        assert "damping floor" in outcomes[0][1]
        assert outcomes[1][1] == sol.newton_iterations == 5
        assert sol.residual_norm <= 1e-10
        assert logistic_residual(sol.theta, 60.0) <= 1e-10
        assert 0.0 < sol.theta.min() and sol.theta.max() < 60.0

    def test_exactly_singular_jacobian_is_newton_divergence(self):
        # h = 1 and a - 2θ = 2: J = Δ + 2I = [[0,1,0],[1,0,1],[0,1,0]]
        # has two equal rows, so its LU meets an exact zero pivot
        from lvsync.elliptic import _newton

        g = grid1d(3, length=4.0)
        with pytest.raises(NewtonDivergenceError, match="Newton linear solve failed: .*singular"):
            _newton(g, np.full(3, 4.0), np.ones(3), 1e-10, enforce_positive=True)


class TestLogisticResidual:
    def test_zero_field(self):
        g = grid1d(50)
        assert logistic_residual(Field.constant(g, 0.0), 2.0) == 0.0

    def test_constant_interior_boundary_layer(self):
        # theta == a kills the reaction term; the Laplacian is nonzero only
        # at the two boundary-adjacent nodes, each contributing -a/h^2
        g = grid1d(100)
        h = g.spacing[0]
        a = 2.0
        expected = a * math.sqrt(2.0 / h**3)
        measured = logistic_residual(Field.constant(g, a), Field.constant(g, a))
        assert measured == pytest.approx(expected, rel=1e-12)

    def test_grid_mismatch(self):
        from lvsync import GridMismatchError

        with pytest.raises(GridMismatchError):
            logistic_residual(Field.constant(grid1d(10), 1.0), Field.constant(grid1d(11), 1.0))


class TestUniquenessProbe:
    def test_supercritical_1d_single_solution(self):
        report = uniqueness_probe(grid1d(200), 2.0, 20, tol=1e-10, seed=0)
        assert report.n_starts == 20
        assert report.n_distinct_positive == 1
        assert report.n_positive + report.n_zero + report.n_sign_changing + report.n_failed == 20

    def test_subcritical_no_positive_solution(self):
        report = uniqueness_probe(grid1d(100), 0.5, 8, tol=1e-10, seed=0)
        assert report.n_distinct_positive == 0
        assert report.n_positive == 0

    def test_supercritical_2d_single_solution(self):
        g = Grid(Domain("rectangle", (1.0, 1.0), (24, 24)))
        report = uniqueness_probe(g, 25.0, 10, tol=1e-9, seed=0)
        assert report.n_distinct_positive == 1

    def test_solutions_match_solver(self):
        g = grid1d(100)
        report = uniqueness_probe(g, 2.0, 6, tol=1e-10, seed=1)
        direct = solve_logistic(g, 2.0, tol=1e-10)
        assert report.n_distinct_positive == 1
        assert np.abs(report.solutions[0].values - direct.theta.values).max() <= 1e-6
