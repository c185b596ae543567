import math

import numpy as np
import pytest

from lvsync import (
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
from lvsync.grid import laplacian

# Richardson-extrapolated fine-grid oracle (n=2000/4000), a=2 on (0, pi);
# regenerated by scripts/make_goldens.py. Discretization error at n=400 is
# ~2.2e-6, asserted with a 2x margin.
THETA_HALF_PI_ORACLE = 1.162538238436310
THETA_N400_TOL = 5e-6


def grid1d(n, length=math.pi):
    return Grid("interval", (length,), (n,))


class TestSolveLogistic:
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
    def test_tol_must_be_positive_and_finite(self, tol):
        # an infinite tol would accept the start as the solution after 0 Newton steps
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_logistic(grid1d(20), 2.0, tol=tol)

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

    @staticmethod
    def record_newton(monkeypatch):
        """Patch elliptic._newton to record (start, result) of each call."""
        import lvsync.elliptic as elliptic

        calls = []
        newton = elliptic._newton

        def recording_newton(grid, a_vals, theta0, tol, amax):
            result = newton(grid, a_vals, theta0, tol, amax)
            calls.append((theta0.copy(), result))
            return result

        monkeypatch.setattr(elliptic, "_newton", recording_newton)
        return calls

    @pytest.mark.parametrize(
        "g, a, iters",
        [(grid1d(20), 60.0, 5),
         (Grid("rectangle", (1.0, 1.0), (8, 8)), 200.0, 5),
         (Grid("rectangle", (math.pi, math.pi), (30, 30)), 8.0, 4)],
        ids=["1d-20-a60", "2d-8x8-a200", "2d-30x30-a8"],
    )
    def test_one_newton_run_from_the_torsion_start(self, monkeypatch, g, a, iters):
        # the first two inputs once sent the eigenfunction start to zero
        # and to a sign-changing root; at 30x30, a=8 its iterates had an
        # indefinite -J. One Newton run from the supersolution gives θ
        calls = self.record_newton(monkeypatch)
        sol = solve_logistic(g, a, tol=1e-10)
        [(start, (theta, res, n_iter, kind))] = calls
        # θ₀ = min(a, (a/2)²·w) with -Δw = 1, here solved densely
        w = np.linalg.solve(-laplacian(g).toarray(), np.ones(g.size))
        np.testing.assert_allclose(start, np.minimum(a, (0.5 * a) ** 2 * w), rtol=1e-12, atol=0.0)
        assert kind == "positive"
        assert np.array_equal(sol.theta.values, theta)
        assert sol.residual_norm == res
        assert sol.newton_iterations == n_iter == iters
        assert 0.0 < sol.theta.min() and sol.theta.max() < a

    @pytest.mark.parametrize("ratio", [1.025, 2.0, 10.0, 100.0])
    @pytest.mark.parametrize("profile", ["constant", "sin", "negative-in-places"])
    @pytest.mark.parametrize(
        "g", [grid1d(200), Grid("rectangle", (math.pi, math.pi), (30, 30)),
              Grid("rectangle", (4.0, 1.0), (80, 20))],
        ids=["1d-200", "2d-30x30", "2d-80x20"],
    )
    def test_torsion_start_is_a_supersolution_above_theta(self, monkeypatch, g, profile, ratio):
        # F(θ₀) <= 0 up to the rounding of its evaluation, and θ₀ >= θ:
        # the start of the monotone descent, for a/λ₁ from near the
        # threshold to far above it
        from lvsync.spectral import residual_gate

        x = g.coords()[:, 0] / g.extents[0]
        shape = {"constant": np.ones_like(x), "sin": 1.0 + 0.5 * np.sin(math.pi * x),
                 "negative-in-places": np.sin(math.pi * x) - 0.1}[profile]
        lam1 = principal_eigenpair(WeightedOperator(g, Field(g, shape)), tol=1e-10).lam
        # a = ratio·λ₁/(λ₁ - λ1(shape))·shape, with λ₁ = λ1(0) of -Δ: ratio·λ₁ for a
        # constant, and λ1(a) <= (1 - ratio)·λ₁ < 0, as λ1(c·shape) is concave in c
        lam0 = principal_eigenpair(WeightedOperator(g, Field.constant(g, 0.0)), tol=1e-10).lam
        a = Field(g, shape * (ratio * lam0 / (lam0 - lam1)))
        calls = self.record_newton(monkeypatch)
        sol = solve_logistic(g, a, tol=1e-10)
        [(start, _)] = calls
        F = laplacian(g) @ start + start * (a.values - start)
        rounding = residual_gate(laplacian(g), 1.0)(
            0.0, np.abs(a.values - start).max(), np.abs(start).max())
        assert F.max() <= rounding
        assert np.all(start >= sol.theta.values)

    @pytest.mark.parametrize(
        "g, a",
        [(grid1d(20), 60.0), (Grid("rectangle", (1.0, 1.0), (8, 8)), 200.0),
         (Grid("rectangle", (math.pi, math.pi), (30, 30)), 8.0),
         (Grid("rectangle", (math.pi, math.pi), (40, 40)), 40.0)],
        ids=["1d-20-a60", "2d-8x8-a200", "2d-30x30-a8", "2d-40x40-a40"],
    )
    def test_every_factorization_goes_to_lapack(self, monkeypatch, g, a):
        # from θ₀ no iterate has an indefinite -J, so within the band limit
        # every factorization of the θ solve, the gate's included, is LAPACK's
        import lvsync.elliptic as elliptic
        import lvsync.spectral as spectral
        from lvsync.grid import LapackFactor, factorize

        factors = []

        def spy(A, sigma=0.0):
            factors.append(factorize(A, sigma))
            return factors[-1]

        monkeypatch.setattr(elliptic, "factorize", spy)
        monkeypatch.setattr(spectral, "factorize", spy)
        solve_logistic(g, a, tol=1e-10)
        assert factors and all(isinstance(f, LapackFactor) for f in factors)

    def test_sign_changing_limit_of_every_start_is_newton_divergence(self, monkeypatch):
        # the limit is classified: Newton from the scaled principal
        # eigenfunction ends at a root with min θ ≈ -0.97, which is rejected
        import lvsync.elliptic as elliptic

        g = Grid("rectangle", (1.0, 1.0), (8, 8))
        phi = principal_eigenpair(WeightedOperator(g, Field.constant(g, 200.0)), tol=1e-10).phi
        eig_start = phi.values * (100.0 / phi.values.max())
        newton = elliptic._newton
        monkeypatch.setattr(elliptic, "_newton",
                            lambda grid, a_vals, theta0, tol, amax:
                            newton(grid, a_vals, eig_start, tol, amax))
        with pytest.raises(NewtonDivergenceError, match="not strictly positive"):
            solve_logistic(g, 200.0, tol=1e-10)

    def test_exactly_singular_jacobian_is_newton_divergence(self):
        # h = 1 and a - 2θ = 2: J = Δ + 2I = [[0,1,0],[1,0,1],[0,1,0]]
        # has two equal rows, so its LU meets an exact zero pivot
        from lvsync.elliptic import _newton

        g = grid1d(3, length=4.0)
        with pytest.raises(NewtonDivergenceError, match="Newton linear solve failed: .*singular"):
            _newton(g, np.full(3, 4.0), np.ones(3), 1e-10, 4.0)


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

    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    def test_newton_stops_at_the_zero_limit(self, n):
        # subcritical a: Newton collapses to zero and stops once no value exceeds
        # eps·max a, after 6 iterations, not when ‖F‖ underflows after 17 to 19
        from lvsync.elliptic import _newton

        g = grid1d(n)
        theta, _, iters, kind = _newton(g, np.full(n, 0.5), 0.4 * np.sin(g.axes[0]), 1e-10, 0.5)
        assert kind == "zero"
        assert iters == 6

    @pytest.mark.parametrize("a, expected_iters", [(0.0, 6), (-1.0, 5)])
    def test_newton_stops_at_the_zero_limit_when_max_a_is_not_positive(self, a, expected_iters):
        # max a <= 0: uniqueness_probe's stand-in scale 1 is the one the loop
        # tests against, so the collapse stops early here too (was 16 iterations)
        from lvsync.elliptic import _newton

        g = grid1d(100)
        _, _, iters, kind = _newton(g, np.full(100, a), np.full(100, 0.5), 1e-10, 1.0)
        assert kind == "zero"
        assert iters == expected_iters
        report = uniqueness_probe(g, a, 4, tol=1e-10, seed=0)
        assert report.n_zero == 4

    def test_supercritical_2d_single_solution(self):
        g = Grid("rectangle", (1.0, 1.0), (24, 24))
        report = uniqueness_probe(g, 25.0, 10, tol=1e-9, seed=0)
        assert report.n_distinct_positive == 1

    @pytest.mark.parametrize("delta", [1e-6, 1e-7])
    @pytest.mark.parametrize(
        "g", [grid1d(200), Grid("rectangle", (math.pi, math.pi), (40, 40))],
        ids=["1d-200", "2d-40x40"],
    )
    def test_single_solution_near_threshold(self, g, delta):
        # a = λ₁ + δ: θ is of size δ, so a Newton gate without θ's scale
        # stopped each start on its own too-large iterate, several "distinct"
        lam1 = sum(4.0 / h**2 * math.sin(math.pi * h / (2.0 * L)) ** 2
                   for h, L in zip(g.spacing, g.extents))
        report = uniqueness_probe(g, lam1 + delta, 8, tol=1e-10, seed=0)
        assert report.n_distinct_positive == 1

    def test_solutions_match_solver(self):
        g = grid1d(100)
        report = uniqueness_probe(g, 2.0, 6, tol=1e-10, seed=1)
        direct = solve_logistic(g, 2.0, tol=1e-10)
        assert report.n_distinct_positive == 1
        assert np.abs(report.solutions[0].values - direct.theta.values).max() <= 1e-6

    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
    def test_tol_must_be_positive_and_finite(self, tol):
        # an infinite tol took every start as its own limit: 6 distinct
        # positive solutions where there is one
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            uniqueness_probe(grid1d(20), 2.0, 6, tol=tol)
