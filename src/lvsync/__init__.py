"""Synchronized steady states of the diffusive Lotka-Volterra predator-prey
system with Dirichlet boundaries: elliptic solver, spectral stability
verification, and time-domain decay checks."""

from .grid import (
    Field,
    Grid,
    GridMismatchError,
    WeightedOperator,
    interpolate,
    l2_inner,
    l2_norm,
)
from .spectral import EigenPair, EigenSolveError, Spectrum, eigenpairs, principal_eigenpair
from .elliptic import (
    LogisticSolution,
    NewtonDivergenceError,
    SubcriticalError,
    UniquenessReport,
    logistic_residual,
    solve_logistic,
    uniqueness_probe,
)
from .model import (
    ModelParams,
    SteadyState,
    ratio_coefficients,
    synchronized_state,
    system_residual,
)
from .linstab import (
    CoupledJacobian,
    StabilityReport,
    mode_ratios,
    s_parameter,
    verify_theorem,
)
from .dynamics import (
    DecayFit,
    DecayFitError,
    InitialDataError,
    PositivityError,
    StepSizeError,
    Trajectory,
    decay_rate,
    evolve,
    random_perturbation,
)

__version__ = "0.1.0"
