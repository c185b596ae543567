import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrs, dpttrs

import lvsync.dynamics
from lvsync import (
    DecayFitError,
    Domain,
    Field,
    Grid,
    InitialDataError,
    ModelParams,
    PositivityError,
    StepSizeError,
    decay_rate,
    evolve,
    random_perturbation,
)
from lvsync.cli import write_trajectory_csv
from lvsync.dynamics import (
    MAX_STEPS, MAX_STORED_VALUES, StepSchedule, Trajectory, state_distance, step_schedule,
)
from lvsync.grid import as_field, factorize, laplacian
from lvsync.linstab import ansatz_coefficients, predicted_spectrum


def grid1d(n, length=math.pi):
    return Grid(Domain("interval", (length,), (n,)))


def sub_trajectory(traj, t0, t1):
    mask = (traj.times >= t0) & (traj.times <= t1)
    idx = np.flatnonzero(mask)
    return Trajectory(
        times=traj.times[idx] - traj.times[idx[0]],
        states=tuple(traj.states[i] for i in idx),
        params=traj.params,
        dt=traj.dt,
    )


def two_solve_evolve(u0, v0, params, dt, t_end, store_every=1):
    """Reference IMEX loop: one solve and one positivity check per species.

    It factors through lvsync.dynamics.factorize, looked up at call time,
    so the solver evolve uses, real or leak_solves's fake, serves both."""
    grid = u0.grid
    lhs = sp.identity(grid.size, format="csr") - dt * laplacian(grid.domain)
    solver = lvsync.dynamics.factorize(lhs)
    a = as_field(grid, params.a).values
    a_max = float(np.abs(a).max())
    b, c = params.b, params.c
    u, v = u0.values.copy(), v0.values.copy()
    n_steps = math.ceil(t_end / dt - 1e-12)
    times, states = [0.0], [(u.copy(), v.copy())]
    for step in range(1, n_steps + 1):
        peak = max(float(u.max(initial=0.0)), float(v.max(initial=0.0)))
        if dt * (a_max + 2.0 * peak * (1.0 + b + c)) > 0.5:
            raise StepSizeError("too large")
        ru = u * (a - u - b * v)
        rv = v * (a - v + c * u)
        u = solver.solve(u + dt * ru)
        v = solver.solve(v + dt * rv)
        t = step * dt
        floor = -1e-12 * max(1.0, float(np.abs(u).max()), float(np.abs(v).max()))
        for vals, name in ((u, "u"), (v, "v")):
            worst = int(vals.argmin())
            if vals[worst] < floor:
                raise PositivityError(t, worst, float(vals[worst]), name)
        np.clip(u, 0.0, None, out=u)
        np.clip(v, 0.0, None, out=v)
        if step % store_every == 0 or step == n_steps:
            times.append(t)
            states.append((u.copy(), v.copy()))
    return np.asarray(times), states


class LeakySolver:
    """factorize stand-in that overwrites the entries `index` of every solution."""

    def __init__(self, lu, index, value):
        self.lu, self.index, self.value = lu, index, value

    def solve(self, rhs):
        x = self.lu.solve(rhs)
        x[self.index] = self.value
        return x


def leak_solves(monkeypatch, index, value):
    monkeypatch.setattr(lvsync.dynamics, "factorize",
                        lambda A: LeakySolver(factorize(A), index, value))


class TestEvolve:
    def test_zero_initial_data_stays_zero(self):
        g = grid1d(40)
        params = ModelParams(a=2.0, b=0.5, c=1.0)
        zero = Field.constant(g, 0.0)
        traj = evolve(zero, zero, params, dt=1e-2, t_end=0.5, store_every=10)
        for u, v in traj.states:
            assert u.max() == 0.0 and v.max() == 0.0

    def test_steady_state_is_fixed_point(self, grid200, steady200, params_default):
        traj = evolve(steady200.u, steady200.v, params_default, dt=1e-3, t_end=10.0,
                      store_every=2000)
        final = state_distance(*traj.states[-1], steady200)
        assert final <= 1e-8

    def test_one_step_drift_bound(self, steady200, params_default):
        traj = evolve(steady200.u, steady200.v, params_default, dt=1e-3, t_end=1e-3,
                      store_every=1)
        # scheme truncation is zero at a discrete steady state; the drift is
        # solver roundoff plus the Newton residual effect
        assert state_distance(*traj.states[-1], steady200) <= 1e-9

    def test_perturbation_decays_back(self, grid200, steady200, params_default):
        u0, v0 = random_perturbation(steady200, 1e-3, seed=0)
        traj = evolve(u0, v0, params_default, dt=1e-3, t_end=12.0, store_every=400)
        assert state_distance(*traj.states[-1], steady200) <= 1e-6

    def test_negative_initial_data_rejected(self):
        g = grid1d(20)
        params = ModelParams(a=2.0, b=0.5, c=1.0)
        bad = Field(g, -0.1 * np.ones(g.size))
        with pytest.raises(ValueError, match="nonnegative"):
            evolve(bad, Field.constant(g, 0.0), params, dt=1e-3, t_end=0.1)

    @pytest.mark.parametrize("dt, t_end", [(1e-320, 1.0), (1e-3, 1e308), (np.nan, 1.0)])
    def test_step_count_must_be_finite(self, dt, t_end):
        g = grid1d(20)
        one = Field.constant(g, 1.0)
        with pytest.raises(ValueError, match="no finite step count"):
            evolve(one, one, ModelParams(a=2.0, b=0.5, c=1.0), dt=dt, t_end=t_end)

    def test_step_bound_checked_before_factorize(self, monkeypatch):
        def no_factorize(A):
            raise AssertionError("evolve factorized before checking the step count")

        monkeypatch.setattr(lvsync.dynamics, "factorize", no_factorize)
        g = grid1d(20)
        one = Field.constant(g, 1.0)
        with pytest.raises(ValueError, match="within MAX_STEPS = 100,000,000"):
            evolve(one, one, ModelParams(a=2.0, b=0.5, c=1.0), dt=1e-3, t_end=1e300)

    def test_stored_values_bound_checked_before_factorize(self, monkeypatch):
        # 10⁸ steps, within MAX_STEPS, each stored: 4·10¹⁰ values on n=200
        def no_factorize(A):
            raise AssertionError("evolve factorized before checking the stored values")

        monkeypatch.setattr(lvsync.dynamics, "factorize", no_factorize)
        one = Field.constant(grid1d(200), 1.0)
        with pytest.raises(ValueError, match="40,000,000,400 values, more than "
                                             "MAX_STORED_VALUES = 100,000,000"):
            evolve(one, one, ModelParams(a=2.0, b=0.5, c=1.0), dt=1e-3, t_end=1e5)

    def test_schedule_at_the_bound_in_constant_memory(self):
        tracemalloc.start()
        try:
            schedule = step_schedule(1.0, float(MAX_STEPS), 1000, (0.0, float(MAX_STEPS)),
                                     nodes=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert schedule == StepSchedule(MAX_STEPS, 1000)
        assert peak < 10_000
        with pytest.raises(ValueError, match="MAX_STEPS"):
            step_schedule(1.0, MAX_STEPS + 1.0, nodes=1)

    @pytest.mark.parametrize("n_steps", [1, 2, 9, 10, 11, 23])
    @pytest.mark.parametrize("store_every", [1, 3, 10, 50])
    def test_stored_steps_and_snapshot_rule(self, n_steps, store_every):
        # the rule as evolve used to write it inline: step 0, every
        # store_every-th step and the last
        stored = [s for s in range(n_steps + 1) if s % store_every == 0 or s == n_steps]
        schedule = step_schedule(0.5, 0.5 * n_steps, store_every, nodes=5)
        assert schedule.n_steps == n_steps
        walked = [0]
        while walked[-1] < n_steps:
            walked.append(schedule.next_stored(walked[-1]))
        assert walked == stored
        for s in range(n_steps + 1):
            if s in stored:
                step_schedule(0.5, 0.5 * n_steps, store_every, (0.5 * s,), nodes=5)
            else:
                with pytest.raises(ValueError, match="stored steps"):
                    step_schedule(0.5, 0.5 * n_steps, store_every, (0.5 * s,), nodes=5)
        # the stored states hold u and v at every node, at most MAX_STORED_VALUES
        nodes = MAX_STORED_VALUES // (2 * len(stored))
        step_schedule(0.5, 0.5 * n_steps, store_every, nodes=nodes)
        with pytest.raises(ValueError, match="MAX_STORED_VALUES"):
            step_schedule(0.5, 0.5 * n_steps, store_every, nodes=nodes + 1)
        z = Field.constant(grid1d(5), 0.0)
        traj = evolve(z, z, ModelParams(a=2.0, b=0.5, c=1.0), dt=1 / 16, t_end=n_steps / 16,
                      store_every=store_every)
        assert np.array_equal(traj.times, np.array(stored) / 16)

    @pytest.mark.parametrize("species, node, value", [("u", 7, np.nan), ("v", 0, np.inf),
                                                      ("v", 19, -np.inf)])
    def test_non_finite_initial_data_rejected(self, species, node, value):
        g = grid1d(20)
        params = ModelParams(a=2.0, b=0.5, c=1.0)
        w = {"u": np.ones(g.size), "v": np.ones(g.size)}
        w[species][node] = value
        with pytest.raises(InitialDataError, match=rf"nonnegative: {species}\[{node}\] = "):
            evolve(Field(g, w["u"]), Field(g, w["v"]), params, dt=1e-3, t_end=0.01)

    def test_step_size_rule_enforced(self, steady200, params_default):
        with pytest.raises(StepSizeError, match="too large"):
            evolve(steady200.u, steady200.v, params_default, dt=0.2, t_end=1.0)

    def test_step_size_rule_checked_every_step(self):
        # admissible for the initial data; the state grows until step 15
        # breaks the rule, so the peak must be refreshed after every step
        g = grid1d(20)
        params = ModelParams(a=2.0, b=0.5, c=1.0)
        small = Field.constant(g, 0.01)
        assert len(evolve(small, small, params, dt=0.2, t_end=2.8).times) == 15
        with pytest.raises(StepSizeError, match="too large"):
            evolve(small, small, params, dt=0.2, t_end=3.0)

    @pytest.mark.parametrize("index, species, node", [
        ((7, 1), "v", 7),
        (([3, 7], [1, 0]), "u", 7),
    ])
    def test_positivity_error_names_species_and_node(self, monkeypatch, index, species, node):
        g = grid1d(20)
        params = ModelParams(a=2.0, b=0.5, c=1.0)
        leak_solves(monkeypatch, index, -1e-6)
        one = Field.constant(g, 1.0)
        with pytest.raises(PositivityError) as info:
            evolve(one, one, params, dt=1e-2, t_end=0.1)
        err = info.value
        assert (err.species, err.node, err.value, err.t) == (species, node, -1e-6, 1e-2)
        assert str(err) == f"positivity lost at t=0.01: {species}[{node}] = -1.000e-06"

    def test_positivity_preserved_random_data(self):
        g = grid1d(60)
        params = ModelParams(a=2.0, b=0.5, c=1.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u0 = Field(g, rng.uniform(0.0, 2.0, size=g.size))
            v0 = Field(g, rng.uniform(0.0, 2.0, size=g.size))
            traj = evolve(u0, v0, params, dt=5e-3, t_end=2.0, store_every=40)
            for u, v in traj.states:
                assert u.min() >= 0.0 and v.min() >= 0.0

    @staticmethod
    def assert_implicit_solve_exactly_nonnegative(g, routine):
        """No negative value and no -0.0 (np.signbit catches both) from the
        solves of I - dt·Δ by the LAPACK routine on nonnegative right-hand
        sides, with no clip behind the solve."""
        n = g.size
        rng = np.random.default_rng(n)
        underflows = 0
        for _ in range(20):
            dt = 10.0 ** rng.uniform(-6, 0)
            solver = factorize(sp.identity(n, format="csr") - dt * laplacian(g.domain))
            assert solver.routine is routine
            # column 0 is zero; columns 1 and 2 are nonzero on a random
            # window only, with magnitudes from subnormal to 1e3 and half
            # of the entries zero, so the solution underflows to exact
            # zeros far from the window; column 3 holds the smallest
            # subnormal at one node, so it underflows on any grid
            rhs = 10.0 ** rng.uniform(-310, 3, (n, 4)) * (rng.uniform(size=(n, 4)) < 0.5)
            rhs[:, 0] = rhs[:, 3] = 0.0
            rhs[rng.integers(n), 3] = 5e-324
            for col in (1, 2):
                lo, hi = np.sort(rng.integers(0, n + 1, 2))
                rhs[:lo, col] = rhs[hi:, col] = 0.0
            for b in (rhs, rhs[:, 1]):
                assert not np.signbit(solver.solve(b)).any()
            underflows += np.count_nonzero(solver.solve(rhs[:, 1:]) == 0.0)
        assert underflows > 0

    @pytest.mark.parametrize("n", [20, 200, 2500])
    def test_1d_implicit_solve_is_exactly_nonnegative(self, n):
        # the LDLᵀ of the M-matrix I - dt·Δ has d_i > 0 and l_i < 0, so
        # substitution adds only nonnegative terms
        self.assert_implicit_solve_exactly_nonnegative(grid1d(n), dpttrs)

    @pytest.mark.parametrize("n", [8, 30, 100])
    def test_2d_implicit_solve_is_exactly_nonnegative(self, n):
        # I - dt·Δ is a Stieltjes matrix, so its Cholesky factor has a
        # positive diagonal and no positive entry off it (Fiedler & Pták,
        # 1962), and substitution again adds only nonnegative terms
        g = Grid(Domain("rectangle", (math.pi, math.pi), (n, n)))
        self.assert_implicit_solve_exactly_nonnegative(g, dpbtrs)

    def test_store_every_and_final_time(self):
        g = grid1d(20)
        params = ModelParams(a=2.0, b=0.5, c=1.0)
        z = Field.constant(g, 0.0)
        traj = evolve(z, z, params, dt=1e-2, t_end=0.105, store_every=5)
        assert traj.times[0] == 0.0
        assert traj.times[-1] >= 0.105 - 1e-2
        assert np.allclose(np.diff(traj.times)[:-1], 5e-2, rtol=1e-12)

    def test_2d_fixed_point(self):
        from lvsync import ModelParams, solve_logistic, synchronized_state

        g = Grid(Domain("rectangle", (1.0, 1.0), (14, 14)))
        params = ModelParams(a=25.0, b=0.5, c=1.0)
        sol = solve_logistic(g, 25.0, tol=1e-10)
        st = synchronized_state(params, sol)
        traj = evolve(st.u, st.v, params, dt=2e-4, t_end=0.2, store_every=100)
        assert state_distance(*traj.states[-1], st) <= 1e-9

    def test_trajectory_csv(self, tmp_path, grid200, steady200, params_default):
        u0, v0 = random_perturbation(steady200, 1e-3, seed=1)
        traj = evolve(u0, v0, params_default, dt=1e-3, t_end=0.05, store_every=10)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, steady200, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,norm_u_dist,norm_v_dist,total_dist"
        assert len(lines) == 1 + len(traj.states)
        row = lines[1].split(",")
        assert math.hypot(float(row[1]), float(row[2])) == pytest.approx(float(row[3]), rel=1e-12)


class TestStackedStepMatchesTwoSolves:
    def assert_same(self, traj, ref):
        times, states = ref
        assert np.array_equal(traj.times, times)
        assert len(traj.states) == len(states)
        for (u, v), (ru, rv) in zip(traj.states, states):
            assert np.array_equal(u.values, ru) and np.array_equal(v.values, rv)

    def test_criterion_5_run(self, steady200, params_default):
        u0, v0 = random_perturbation(steady200, 1e-3, seed=0)
        args = (u0, v0, params_default, 1e-3, 2.0, 100)
        self.assert_same(evolve(*args), two_solve_evolve(*args))

    def test_2d_random_data_through_the_clip(self, monkeypatch):
        # roundoff-level negatives at three nodes of both species, above
        # the floor, so every step takes the clip
        g = Grid(Domain("rectangle", (1.0, 1.0), (20, 20)))
        rng = np.random.default_rng(4)
        u0 = Field(g, rng.uniform(0.0, 2.0, g.size))
        v0 = Field(g, rng.uniform(0.0, 2.0, g.size) * (rng.uniform(size=g.size) < 0.5))
        leak_solves(monkeypatch, [0, 57, 399], -1e-13)
        args = (u0, v0, ModelParams(a=25.0, b=0.5, c=1.0), 2e-3, 0.1, 5)
        traj = evolve(*args)
        self.assert_same(traj, two_solve_evolve(*args))
        assert traj.states[-1][1].values[57] == 0.0


@pytest.fixture(scope="module")
def mode_basis(grid200, theta200, params_default):
    predicted, spectra = predicted_spectrum(
        grid200, theta200.a, theta200.theta,
        params_default.b, params_default.c, 4, tol=1e-10,
    )
    return predicted, spectra


class TestDecayRate:
    def test_principal_eigvec_perturbation_rate(
        self, grid200, theta200, steady200, params_default, mode_basis
    ):
        predicted, spectra = mode_basis
        mu1, fam = predicted[0]
        pair = spectra[fam].pairs[0]
        A, B = ansatz_coefficients(params_default.b, params_default.c, fam)
        nrm = math.hypot(A, B)
        u0 = Field(grid200, steady200.u.values + 1e-3 * (A / nrm) * pair.phi.values)
        v0 = Field(grid200, steady200.v.values + 1e-3 * (B / nrm) * pair.phi.values)
        traj = evolve(u0, v0, params_default, dt=1e-3, t_end=15.0, store_every=100)
        fit = decay_rate(traj, steady200)
        assert abs(fit.rate + mu1) / mu1 <= 0.05
        assert fit.r_squared >= 0.999
        assert fit.monotone

    def test_higher_mode_crossover(
        self, grid200, theta200, steady200, params_default, mode_basis
    ):
        predicted, spectra = mode_basis
        mu1, fam1 = predicted[0]
        mu2, fam2 = predicted[1]
        assert fam1 != fam2
        p1 = spectra[fam1].pairs[0]
        p2 = spectra[fam2].pairs[0]
        A1, B1 = ansatz_coefficients(params_default.b, params_default.c, fam1)
        A2, B2 = ansatz_coefficients(params_default.b, params_default.c, fam2)
        n1, n2 = math.hypot(A1, B1), math.hypot(A2, B2)
        u0 = Field(grid200, steady200.u.values
                   + 1e-3 * (A2 / n2) * p2.phi.values + 3e-4 * (A1 / n1) * p1.phi.values)
        v0 = Field(grid200, steady200.v.values
                   + 1e-3 * (B2 / n2) * p2.phi.values + 3e-4 * (B1 / n1) * p1.phi.values)
        traj = evolve(u0, v0, params_default, dt=1e-3, t_end=20.0, store_every=100)
        early = decay_rate(sub_trajectory(traj, 0.4, 3.0), steady200)
        late = decay_rate(sub_trajectory(traj, 12.0, 20.0), steady200)
        assert -mu2 - 0.05 <= early.rate <= -mu1 - 0.02
        assert abs(late.rate + mu1) / mu1 <= 0.10

    def test_stationary_trajectory_flagged(self, grid200, steady200, params_default):
        traj = evolve(steady200.u, steady200.v, params_default, dt=1e-3, t_end=0.2,
                      store_every=10)
        # distances sit at the rounding floor: the norm-floor guard leaves
        # too few samples and the fit refuses
        with pytest.raises(DecayFitError, match="usable samples"):
            decay_rate(traj, steady200)

    def test_too_few_samples(self, grid200, steady200, params_default):
        u0, v0 = random_perturbation(steady200, 1e-3, seed=0)
        traj = evolve(u0, v0, params_default, dt=1e-3, t_end=4e-3, store_every=1)
        with pytest.raises(DecayFitError):
            decay_rate(traj, steady200)

    def test_non_monotone_reported_but_fitted(self, grid200, steady200, params_default):
        # hand-built trajectory with a wiggle: the fit proceeds and the
        # monotone flag goes false
        ts = np.linspace(0.0, 5.0, 30)
        states = []
        for i, t in enumerate(ts):
            bump = 1.0 + (0.3 if i == 12 else 0.0)
            amp = 1e-3 * math.exp(-0.5 * t) * bump
            states.append(
                (Field(grid200, steady200.u.values + amp),
                 Field(grid200, steady200.v.values + amp))
            )
        traj = Trajectory(times=ts, states=tuple(states),
                          params=params_default, dt=float(ts[1] - ts[0]))
        fit = decay_rate(traj, steady200)
        assert not fit.monotone
        assert fit.rate == pytest.approx(-0.5, rel=0.05)

    def test_dt_refinement_consistency(self, grid200, steady200, params_default):
        u0, v0 = random_perturbation(steady200, 1e-3, seed=0)
        rates = []
        for dt in (2e-3, 1e-3):
            traj = evolve(u0, v0, params_default, dt=dt, t_end=12.0,
                          store_every=max(1, int(0.1 / dt)))
            rates.append(decay_rate(traj, steady200).rate)
        assert abs(rates[0] - rates[1]) / abs(rates[1]) < 0.01
