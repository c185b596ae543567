"""Time integration of the coupled parabolic system and decay-rate fits.

    u_t = Δu + u(a - u - bv),    v_t = Δv + v(a - v + cu),

with zero Dirichlet boundary and nonnegative initial data. The scheme is
first-order IMEX: diffusion implicit (one `grid.factorize` of I - dt·Δ
per run, one solve per step on the stacked (N,2) state [u v]), reaction
explicit. Because the implicit part is linear, any discrete steady state
is an exact fixed point of the scheme up to solver roundoff.

Positivity: (I - dt·Δ_h) is an M-matrix, so its inverse is nonnegative;
under the step-size rule dt·(max|a| + 2·max(u,v)·(1+b+c)) <= 1/2 the
explicit reaction update keeps the right-hand side nonnegative, hence the
scheme preserves nonnegativity. I - dt·Δ is symmetric positive definite,
and the LAPACK kernels `factorize` gives it in 1D and on 2D grids up to
`grid.BAND_CHOLESKY_MAX_KD` nodes across keep nonnegativity exactly: the
LDLᵀ of the tridiagonal M-matrix has d_i > 0 and l_i < 0, and the
Cholesky factor of the symmetric M-matrix (a Stieltjes matrix) has a
positive diagonal and no positive entry off it (Fiedler & Pták, 1962),
so forward and back substitution on a nonnegative right-hand side add
only nonnegative terms. SuperLU's pivoted LU, on a wider 2D grid, has no
such sign structure: roundoff-level negatives of its solve (within
-1e-12·max(1, ‖state‖∞)) are floored to zero; anything below that raises.

Checks: `step_schedule` owns dt, t_end, the step count and its bound,
store_every, the stored steps, the bound on the values they hold and the
snapshot times, for `evolve` and the CLI alike; `evolve` checks the initial
data and, each step, the step-size rule and positivity. The (b, c) range is
`model.ratio_coefficients`'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import Field, GridMismatchError, as_field, factorize, l2_norm, laplacian
from .model import ModelParams, SteadyState

__all__ = [
    "Trajectory",
    "DecayFit",
    "StepSizeError",
    "PositivityError",
    "InitialDataError",
    "DecayFitError",
    "MAX_STEPS",
    "MAX_STORED_VALUES",
    "StepSchedule",
    "step_schedule",
    "evolve",
    "decay_rate",
    "random_perturbation",
    "state_distance",
]

REACTION_CFL = 0.5
NORM_FLOOR = 1e-10
TRANSIENT_FRACTION = 0.2
# Most steps one evolve run may take: 20–31 min at the 12–19 µs of a 1D n=200
# step (2-core x86-64 VM, BLAS on 1 thread), over 2,000 times the longest
# run of the package's scripts (44,000 steps in scripts/decay_experiment.py),
# while a mistyped t_end or dt becomes a config error, not an endless run.
MAX_STEPS = 10**8
# Most float64 values one evolve run may store, two per node per stored state:
# 0.8 GB, over 1,000 times the 221 states × 400 values of the package's 1D
# n=200 runs to t = 22 stored every 0.1, while a run that would store more
# (say 10⁸ steps each stored) becomes a config error, not exhausted memory.
MAX_STORED_VALUES = 10**8


class StepSizeError(ValueError):
    """dt violates the reaction step-size rule for the current state."""


class InitialDataError(ValueError):
    """Initial data with a negative or non-finite (NaN, ±inf) value."""


class PositivityError(RuntimeError):
    """A species density went negative during integration."""

    def __init__(self, t: float, node: int, value: float, species: str):
        super().__init__(
            f"positivity lost at t={t:.6g}: {species}[{node}] = {value:.3e}"
        )
        self.t = t
        self.node = node
        self.value = value
        self.species = species


class DecayFitError(ValueError):
    """Not enough usable samples to fit a decay rate."""


@dataclass(frozen=True)
class Trajectory:
    """Stored states of one IMEX integration."""

    times: np.ndarray
    states: tuple[tuple[Field, Field], ...]
    params: ModelParams
    dt: float


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of log distance-to-reference over a window."""

    rate: float
    r_squared: float
    window: tuple[float, float]
    n_samples: int
    monotone: bool


@dataclass(frozen=True)
class StepSchedule:
    """The steps of one evolve run: n_steps = ⌈t_end/dt⌉ of them, with the
    state stored at step 0, at every store_every-th step and at the last."""

    n_steps: int
    store_every: int

    def next_stored(self, step: int) -> int:
        """The first stored step after `step`."""
        return min(step - step % self.store_every + self.store_every, self.n_steps)


def step_schedule(
    dt: float, t_end: float, store_every: int = 1, snapshot_times=(), *, nodes: int
) -> StepSchedule:
    """The StepSchedule of one evolve run on a grid of `nodes` nodes;
    ValueError unless dt and t_end are positive with at most MAX_STEPS
    steps, store_every >= 1, the stored states hold at most
    MAX_STORED_VALUES values and each snapshot time is a stored step's, up
    to rounding. O(1) memory at any step count."""
    if dt <= 0 or t_end <= 0:
        raise ValueError(f"dt and t_end must be positive, got dt = {dt}, t_end = {t_end}")
    if not t_end / dt <= MAX_STEPS:  # also an overflow to inf, or NaN
        raise ValueError(f"t_end / dt = {t_end} / {dt} gives no finite step count "
                         f"within MAX_STEPS = {MAX_STEPS:,}")
    if int(store_every) < 1:
        raise ValueError(f"store_every must be >= 1, got {store_every}")
    schedule = StepSchedule(math.ceil(t_end / dt - 1e-12), int(store_every))
    # ⌈n_steps/store_every⌉ + 1 stored states (next_stored's), u and v in each
    n_values = (-(-schedule.n_steps // schedule.store_every) + 1) * 2 * nodes
    if n_values > MAX_STORED_VALUES:
        raise ValueError(f"the stored states would hold {n_values:,} values, more than "
                         f"MAX_STORED_VALUES = {MAX_STORED_VALUES:,}; raise store_every")
    outside = [t for t in snapshot_times if not 0.0 <= t <= t_end]
    if outside:
        raise ValueError(f"snapshot times must lie in [0, t_end = {t_end}], got {outside}")
    unstored = []
    for t in snapshot_times:
        step = round(t / dt)
        if not (math.isclose(t / dt, step, rel_tol=1e-9)
                and (step == 0 or schedule.next_stored(step - 1) == step)):
            unstored.append(t)
    if unstored:
        raise ValueError(
            f"snapshot times must be stored steps, multiples of store_every * dt = "
            f"{schedule.store_every * dt:g} or the final time {schedule.n_steps * dt:g}, "
            f"got {unstored}"
        )
    return schedule


def _check_dt(dt: float, a_max: float, peak: float, b: float, c: float):
    bound = a_max + 2.0 * peak * (1.0 + b + c)
    if dt * bound > REACTION_CFL:
        raise StepSizeError(
            f"dt = {dt:.3e} too large: dt * (max|a| + 2*max(u,v)*(1+b+c)) = "
            f"{dt * bound:.3e} > {REACTION_CFL}"
        )


def evolve(
    u0: Field,
    v0: Field,
    params: ModelParams,
    dt: float,
    t_end: float,
    store_every: int = 1,
) -> Trajectory:
    """Integrate from nonnegative initial data until at least t_end - dt.

    The steps and the stored states are step_schedule(dt, t_end,
    store_every, nodes=N)'s, whose ValueError comes before any solve. Raises
    InitialDataError when u0 or v0 has a negative or non-finite value,
    StepSizeError when the admissibility rule fails for the current state
    and PositivityError on genuine positivity loss.
    """
    if u0.grid != v0.grid:
        raise GridMismatchError("u0 and v0 live on different grids")
    grid = u0.grid
    schedule = step_schedule(dt, t_end, store_every, nodes=grid.size)
    for name, w in (("u", u0.values), ("v", v0.values)):
        bad = np.flatnonzero(~((w >= 0) & (w < np.inf)))  # NaN fails both comparisons
        if bad.size:
            raise InitialDataError(
                f"initial data must be finite and nonnegative: {name}[{bad[0]}] = {w[bad[0]]:.3e}"
            )

    lap = laplacian(grid.domain)
    n = grid.size
    solver = factorize(sp.identity(n, format="csr") - dt * lap)

    a = as_field(grid, params.a).values
    a_max = float(np.abs(a).max())
    b, c = params.b, params.c

    # W = [u v]; the reaction of both species in one expression: for v the
    # term is -u*(-c), which is exactly +c*u in IEEE arithmetic
    W = np.column_stack((u0.values, v0.values))
    a, bc = a[:, None], np.array([b, -c])
    peak = float(W.max(initial=0.0))
    times = [0.0]
    states = [(u0, v0)]

    stored = schedule.next_stored(0)
    for step in range(1, schedule.n_steps + 1):
        _check_dt(dt, a_max, peak, b, c)
        W = solver.solve(W + dt * (W * ((a - W) - W[:, ::-1] * bc)))
        t = step * dt
        hi, lo = float(W.max()), float(W.min())
        if lo <= 0.0:  # also clips -0.0 to +0.0
            floor = -1e-12 * max(1.0, hi, -lo)
            if lo < floor:
                col = int(W[:, 0].min() >= floor)  # u is reported before v
                node = int(W[:, col].argmin())
                raise PositivityError(t, node, float(W[node, col]), "uv"[col])
            np.clip(W, 0.0, None, out=W)
        peak = max(hi, 0.0)  # the clip raises only negatives, to 0
        if step == stored:
            times.append(t)
            states.append((Field(grid, W[:, 0]), Field(grid, W[:, 1])))
            stored = schedule.next_stored(step)

    return Trajectory(
        times=np.asarray(times), states=tuple(states), params=params, dt=dt
    )


def state_distance(u: Field, v: Field, reference: SteadyState) -> float:
    """Combined L2 distance sqrt(‖u-u*‖² + ‖v-v*‖²)."""
    return math.hypot(l2_norm(u - reference.u), l2_norm(v - reference.v))


def decay_rate(traj: Trajectory, reference: SteadyState) -> DecayFit:
    """Fit log(distance to the steady state) vs t by least squares.

    The window drops the initial transient (first TRANSIENT_FRACTION of the
    samples) and samples below NORM_FLOOR where roundoff dominates. A
    non-monotone distance inside the window is reported via the monotone
    flag; the fit proceeds regardless and r_squared tells the story.
    """
    dists = np.array([state_distance(u, v, reference) for u, v in traj.states])
    start = math.ceil(TRANSIENT_FRACTION * len(dists))
    keep = np.arange(len(dists)) >= start
    keep &= dists > NORM_FLOOR
    t = traj.times[keep]
    d = dists[keep]
    if len(d) < 5:
        raise DecayFitError(
            f"only {len(d)} usable samples after transient/floor filtering; need >= 5"
        )
    logd = np.log(d)
    slope, intercept = np.polyfit(t, logd, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((logd - fitted) ** 2))
    ss_tot = float(np.sum((logd - logd.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return DecayFit(
        rate=float(slope),
        r_squared=r2,
        window=(float(t[0]), float(t[-1])),
        n_samples=int(len(d)),
        monotone=bool(np.all(np.diff(d) <= 0)),
    )


def random_perturbation(
    steady: SteadyState, amplitude: float, seed: int = 0
) -> tuple[Field, Field]:
    """Steady state plus uniform noise in [-amplitude, amplitude] per node."""
    rng = np.random.default_rng(seed)
    grid = steady.u.grid
    du = rng.uniform(-amplitude, amplitude, size=grid.size)
    dv = rng.uniform(-amplitude, amplitude, size=grid.size)
    return Field(grid, steady.u.values + du), Field(grid, steady.v.values + dv)
