import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvsync import (
    Field,
    Grid,
    ModelParams,
    logistic_residual,
    ratio_coefficients,
    solve_logistic,
    synchronized_state,
    system_residual,
)
from lvsync.elliptic import LogisticSolution

valid_b = st.floats(1e-3, 1.0 - 1e-3)
valid_c = st.floats(1e-3, 50.0)


class TestRatioCoefficients:
    def test_reference_values(self):
        alpha, beta = ratio_coefficients(0.5, 1.0)
        assert alpha == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert beta == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_prey_decoupling_limit(self):
        alpha, beta = ratio_coefficients(1e-12, 2.0)
        assert alpha == pytest.approx(1.0, abs=1e-11)
        assert beta == pytest.approx(3.0, abs=1e-11)

    @settings(max_examples=200, deadline=None)
    @given(valid_b, valid_c)
    def test_algebraic_identities(self, b, c):
        alpha, beta = ratio_coefficients(b, c)
        assert alpha > 0 and beta > 0
        scale = max(1.0, b * beta, c * alpha)
        assert abs(alpha + b * beta - 1.0) <= 1e-15 * scale
        assert abs(beta - c * alpha - 1.0) <= 1e-15 * scale

    @pytest.mark.parametrize("b,c", [(0.0, 1.0), (1.0, 1.0), (-0.1, 1.0), (0.5, 0.0), (0.5, -2.0)])
    def test_invalid_parameters(self, b, c):
        with pytest.raises(ValueError):
            ratio_coefficients(b, c)

    def test_model_params_validation(self):
        with pytest.raises(ValueError):
            ModelParams(a=2.0, b=1.5, c=1.0)
        with pytest.raises(ValueError):
            ModelParams(a=2.0, b=0.5, c=0.0)


class TestSynchronizedState:
    def test_scaled_copies(self, params_default, theta200):
        st_ = synchronized_state(params_default, theta200)
        assert np.array_equal(st_.u.values, st_.alpha * theta200.theta.values)
        assert np.array_equal(st_.v.values, st_.beta * theta200.theta.values)
        assert st_.u.min() > 0 and st_.v.min() > 0

    def test_constant_ratio(self, params_default, theta200):
        st_ = synchronized_state(params_default, theta200)
        ratio = st_.u.values / st_.v.values
        assert np.std(ratio) <= 1e-13
        assert ratio[0] == pytest.approx((1 - 0.5) / (1 + 1.0), rel=1e-13)

    def test_zero_theta_rejected(self, grid200):
        zero = Field.constant(grid200, 0.0)
        fake = LogisticSolution(
            theta=zero, a=Field.constant(grid200, 2.0), residual_norm=0.0,
            newton_iterations=0, lambda1_of_a=-1.0,
        )
        with pytest.raises(ValueError, match="positive"):
            synchronized_state(ModelParams(a=2.0, b=0.5, c=1.0), fake)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_theta_rejected(self, theta200, value):
        # min() of a profile with a NaN is NaN, which `min <= 0` let through
        values = theta200.theta.values.copy()
        values[100] = value
        fake = LogisticSolution(
            theta=Field(theta200.theta.grid, values), a=theta200.a, residual_norm=0.0,
            newton_iterations=0, lambda1_of_a=-1.0,
        )
        with pytest.raises(ValueError, match="finite and strictly positive"):
            synchronized_state(ModelParams(a=2.0, b=0.5, c=1.0), fake)

    def test_growth_rate_mismatch_rejected(self, theta200):
        with pytest.raises(ValueError, match="growth rate"):
            synchronized_state(ModelParams(a=3.0, b=0.5, c=1.0), theta200)

    def test_growth_rate_compared_exactly(self):
        """On (0, π·10⁷), where λ₁ ≈ 1e-14, growth rates twice apart differ by
        less than 1e-13: a θ solved for a = 2e-14 is not the state of a = 4e-14."""
        grid = Grid("interval", (math.pi * 1e7,), (200,))
        theta = solve_logistic(grid, 2e-14)
        synchronized_state(ModelParams(a=2e-14, b=0.5, c=1.0), theta)
        with pytest.raises(ValueError, match="growth rate"):
            synchronized_state(ModelParams(a=4e-14, b=0.5, c=1.0), theta)


class TestSystemResidual:
    def test_synchronized_state_residual(self, params_default, theta200, steady200):
        r_u, r_v = system_residual(steady200.u, steady200.v, params_default)
        rho = theta200.residual_norm
        bound = max(steady200.alpha, steady200.beta) * max(rho, 1e-12)
        assert r_u <= 10 * bound
        assert r_v <= 10 * bound

    def test_trivial_state(self, grid200, params_default):
        zero = Field.constant(grid200, 0.0)
        assert system_residual(zero, zero, params_default) == (0.0, 0.0)

    def test_reduction_identity_nonsolution(self, grid200, params_default):
        # any profile scaled by (alpha, beta) reduces both equations to the
        # scalar logistic residual
        theta = Field.from_function(grid200, lambda x: 0.8 * np.sin(x) + 0.3 * np.sin(2 * x) ** 2)
        alpha, beta = ratio_coefficients(params_default.b, params_default.c)
        rho = logistic_residual(theta, 2.0)
        r_u, r_v = system_residual(alpha * theta, beta * theta, params_default)
        assert abs(r_u - alpha * rho) <= 1e-13 * max(1.0, rho)
        assert abs(r_v - beta * rho) <= 1e-13 * max(1.0, rho)
