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
scheme preserves nonnegativity. Every kernel of `grid.factorize` keeps it
exactly, with no -0.0: the tridiagonal LDLᵀ, the band Cholesky and
SuperLU's LU, which interchanges no row (its ordering is symmetric, its
threshold pivoting keeps a diagonal entry that dominates its column, and
every Schur complement of a strictly diagonally dominant M-matrix is one
again), all have a positive diagonal and no positive entry off it
(Fiedler & Pták, 1962), so substitution on a nonnegative right-hand side
adds only nonnegative terms. Any negative or non-finite value ends the run.

Checks: `step_schedule` owns dt, t_end, the step count and its bound,
store_every, the stored steps, the bound on the values they hold and the
snapshot times, for `evolve` and the CLI alike; `evolve` checks the initial
data and, each step, the step-size rule and positivity, which a NaN or ±inf
from the solve fails too: a non-finite value ends the run with
`PositivityError`. The (b, c) range is `model.ratio_coefficients`'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import Field, GridMismatchError, as_field, factorize, laplacian
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
    "component_distances",
    "state_distance",
]

REACTION_CFL = 0.5
NORM_FLOOR = 1e-10
TRANSIENT_FRACTION = 0.2
# Most steps one evolve run may take: 15–23 min at the 9–14 µs of a 1D n=200
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
    """A species density went negative or non-finite during integration."""

    def __init__(self, t: float, node: int, value: float, species: str):
        super().__init__(
            f"positivity lost at t={t:.6g}: {species}[{node}] = {value:.3e}"
        )
        self.t = t
        self.node = node
        self.value = value
        self.species = species


class DecayFitError(ValueError):
    """A non-finite distance, or not enough usable samples to fit a decay rate."""


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
    to rounding: 0, a multiple of store_every·dt or the last step's time
    n_steps·dt, which may pass t_end. O(1) memory at any step count."""
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
    unstored = []
    for t in snapshot_times:
        x = t / dt
        # the span test fails NaN, ±inf and negative times; next_stored never
        # passes n_steps, so a time after the last stored step fails too
        if not (0.0 <= x <= schedule.n_steps + 1
                and math.isclose(x, step := round(x), rel_tol=1e-9)
                and (step == 0 or schedule.next_stored(step - 1) == step)):
            unstored.append(t)
    if unstored:
        raise ValueError(
            f"snapshot times must be stored steps: 0, the multiples of store_every * dt = "
            f"{schedule.store_every * dt:g} before the final time, and the final time "
            f"{schedule.n_steps * dt:g}, got {unstored}"
        )
    return schedule


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
    and PositivityError at the first negative or non-finite value.
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

    lap = laplacian(grid)
    n = grid.size
    solver = factorize(sp.identity(n, format="csr") - dt * lap)

    a = as_field(grid, params.a).values
    a_max = float(np.abs(a).max())
    b, c = params.b, params.c

    # W = [u v]; the reaction of both species is W + dt·(W·((a - W) -
    # W[:, ::-1]·[b, -c])), where for v the term -u*(-c) is exactly +c*u in
    # IEEE arithmetic. a, [b, -c] and dt are arrays of W's shape and of the
    # Fortran order every solver returns, and six ufuncs evaluate the
    # expression, operation for operation, into two reused buffers.
    W = np.asfortranarray(np.column_stack((u0.values, v0.values)))
    a_w, bc, dt_w, rhs, swapped = (np.empty_like(W) for _ in range(5))
    a_w[:], bc[:], dt_w[:] = a[:, None], (b, -c), dt
    hi = float(W.max(initial=0.0))  # the state's peak, as after each solve
    times = [0.0]
    states = [(u0, v0)]

    # a step on small arrays is dispatch-bound, so its callables are looked up once
    subtract, multiply, add, solve, inf = np.subtract, np.multiply, np.add, solver.solve, math.inf

    stored = schedule.next_stored(0)
    for step in range(1, schedule.n_steps + 1):
        if (rate := dt * (a_max + 2.0 * hi * (1.0 + b + c))) > REACTION_CFL:
            raise StepSizeError(f"dt = {dt:.3e} too large: dt * (max|a| + 2*max(u,v)*(1+b+c))"
                                f" = {rate:.3e} > {REACTION_CFL}")
        subtract(a_w, W, out=rhs)
        multiply(W[:, ::-1], bc, out=swapped)
        subtract(rhs, swapped, out=rhs)
        multiply(W, rhs, out=rhs)
        multiply(dt_w, rhs, out=rhs)
        add(W, rhs, out=rhs)
        W = solve(rhs)
        # argmax/argmin of W's memory cost half a ufunc reduction each on a
        # small array and, like it, return a NaN for both if there is one
        flat = W.ravel("K")
        hi, lo = flat.item(flat.argmax()), flat.item(flat.argmin())
        if not (lo >= 0.0 and hi < inf):  # NaN fails both
            worst = np.where(np.isfinite(W), W, -inf)  # a non-finite value first
            col = 0 if worst[:, 0].min() < 0.0 else 1  # u is reported before v
            node = int(worst[:, col].argmin())
            raise PositivityError(step * dt, node, float(W[node, col]), "uv"[col])
        if step == stored:
            times.append(step * dt)
            states.append((Field(grid, W[:, 0]), Field(grid, W[:, 1])))
            stored = schedule.next_stored(step)

    return Trajectory(
        times=np.asarray(times), states=tuple(states), params=params, dt=dt
    )


def component_distances(u: Field, v: Field, reference: SteadyState) -> tuple[float, float]:
    """(‖u-u*‖, ‖v-v*‖), the grid's norms of the bare differences of values;
    GridMismatchError off the reference's grid."""
    grid = reference.u.grid
    if not (u.grid is v.grid is grid or u.grid == v.grid == grid):
        raise GridMismatchError("u and v must live on the reference's grid")
    return grid.norm(u.values - reference.u.values), grid.norm(v.values - reference.v.values)


def state_distance(u: Field, v: Field, reference: SteadyState) -> float:
    """Combined L2 distance sqrt(‖u-u*‖² + ‖v-v*‖²) of component_distances."""
    return math.hypot(*component_distances(u, v, reference))


def decay_rate(traj: Trajectory, reference: SteadyState) -> DecayFit:
    """Fit log(distance to the steady state) vs t by least squares.

    DecayFitError names the first non-finite distance, which no window
    drops. The window drops the initial transient (first TRANSIENT_FRACTION
    of the samples) and samples below NORM_FLOOR where roundoff dominates. A
    non-monotone distance inside the window is reported via the monotone
    flag; the fit proceeds regardless and r_squared tells the story.
    """
    dists = np.array([state_distance(u, v, reference) for u, v in traj.states])
    bad = np.flatnonzero(~np.isfinite(dists))
    if bad.size:
        raise DecayFitError(f"non-finite distance {dists[bad[0]]} at t={traj.times[bad[0]]:.6g}")
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
