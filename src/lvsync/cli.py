"""Command-line front end: theta, steady, spectrum, verify, evolve, sweep.

Configuration comes from an optional JSON file (--config) whose keys mirror
RunConfig field names; command-line flags override file values and the
merged effective config is echoed into the output directory as config.json.

Every command runs one path: parse, merge, validate every outside input
(config values and types, the growth-rate spec including a field file's
contents; a sweep's through its jobs alone), create --out, run. A config
error exits 1 before --out is created. This module checks the option types,
its own options and the a-spec; the numerical modules check the rest with
the calls a library user meets: the grid (grid.Grid), the (b, c) range
(model.ratio_coefficients), every eigen solve's k (spectral.eigen_window)
and evolve's time stepping, its bounds on the steps and the stored values,
and the snapshot times (dynamics.step_schedule). A rectangle sweep runs on
n x n grids, so it needs a square --n or a --sweep-n axis.

Exit codes: 0 success, 1 usage, config or solver error, 2 mathematically
expected negative result (subcritical growth rate).

Determinism: identical config + seed produce bit-identical output files.
The only exception is sweep's timing.jsonl, a wall-clock diagnostic kept
out of the deterministic result files on purpose.

This module owns every file format the package reads or writes: the CSV
tables (fields, spectra, eigenvalue tables, trajectories; floats with 17
significant digits, so they round-trip exactly) and the JSON files. The
numerical modules write no file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import operator
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import (
    InitialDataError,
    PositivityError,
    StepSizeError,
    Trajectory,
    decay_rate,
    evolve,
    random_perturbation,
    step_schedule,
)
from .elliptic import NewtonDivergenceError, SubcriticalError, solve_logistic
from .grid import (
    KIND_NDIM,
    Field,
    Grid,
    WeightedOperator,
    l2_norm,
)
from .linstab import (
    COUPLED_EXTRA_VALUES,
    DEGENERATE_WARN_BAND,
    SUBCRITICAL_CAUSE,
    StabilityReport,
    ThetaHalf,
    degenerate_distance,
    inconclusive_report,
    s_parameter,
    theta_half,
    verify_theorem,
)
from .model import (
    ModelParams, SteadyState, ratio_coefficients, synchronized_state, system_residual,
)
from .spectral import DEFAULT_TOL, EigenSolveError, eigen_window, eigenpairs, principal_eigenpair

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SUBCRITICAL = 2

SWEEP_AXES = ("a", "b", "c", "resolution")
# most values one start:stop:step range may expand to
MAX_RANGE_VALUES = 10_000
# exact JSON types of the scalar RunConfig fields, by annotation: a bool is not a number
_SCALAR_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,)}


class ConfigError(ValueError):
    """Invalid configuration; reported before any computation starts."""


@dataclass
class RunConfig:
    """Flat run configuration; JSON config files mirror these field names."""

    kind: str = "interval"
    extents: tuple = (math.pi,)
    resolution: tuple = (200,)
    a: object = 2.0  # number | "profile:sin" | "file:<path>"
    a0: float = 1.5
    a1: float = 0.5
    b: float = 0.5
    c: float = 1.0
    tol: float = DEFAULT_TOL
    k: int = 6
    dt: float = 1e-3
    t_end: float = 10.0
    amplitude: float = 1e-3
    store_every: int = 10
    snapshot_times: tuple = ()
    functions: bool = False
    seed: int = 0
    out: str = "out"
    format: str = "csv"
    workers: int = 1


def _parse_number(tok: str) -> float:
    t = tok.strip().lower()
    if t == "pi":
        return math.pi
    try:
        return _as_float(t)
    except ValueError:
        raise ConfigError(f"cannot parse finite number {tok!r} (use a float or 'pi')")


def _as_float(value) -> float:
    """A finite number as float; a JSON boolean is not a number."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not finite")
    return x


def _as_int(value) -> int:
    """An integral number as int: a fractional value is rejected, not truncated."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def parse_domain(spec: str) -> tuple[str, tuple]:
    """'interval:0:pi' / 'interval:pi' / 'rectangle:0:1:0:2' / 'rectangle:1:2'."""
    kind, *parts = spec.split(":")
    vals = [_parse_number(p) for p in parts]
    ndim = KIND_NDIM.get(kind)
    if ndim and len(vals) == ndim:
        return kind, tuple(vals)
    if ndim and len(vals) == 2 * ndim:
        if any(vals[0::2]):
            raise ConfigError(f"domains are anchored at 0: {kind} must start at the origin")
        return kind, tuple(vals[1::2])
    raise ConfigError(f"cannot parse domain spec {spec!r}")


def parse_value_list(spec: str) -> list[float]:
    """Comma list '0.5,1,2' or inclusive range 'start:stop:step'."""
    s = str(spec).strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {spec!r}")
        start, stop, step = (_parse_number(p) for p in parts)
        if step <= 0:
            raise ConfigError("range step must be positive")
        # counted before it is built; the quotient may overflow to inf
        span = (stop - start) / step + 1e-9
        if span >= MAX_RANGE_VALUES:
            raise ConfigError(f"range {spec!r} has more than {MAX_RANGE_VALUES} values")
        return [start + i * step for i in range(max(math.floor(span) + 1, 0))]
    return [_parse_number(p) for p in s.split(",")]


def build_growth_field(cfg: RunConfig, grid: Grid) -> Field:
    """Resolve the a-spec into a field: constant, sin profile, or file.
    An unknown profile, a bad growth-rate file or a non-finite a is a ConfigError."""
    a = cfg.a
    if isinstance(a, str) and a.startswith("profile:"):
        name = a.split(":", 1)[1]
        if name == "sin":
            # a0 + (a1·sin(πx/Lx))·sin(πy/Ly), one axis factor at a time
            sines = np.sin(math.pi * grid.coords() / grid.extents)
            return Field(grid, cfg.a0 + functools.reduce(operator.mul, sines.T, cfg.a1))
        raise ConfigError(f"unknown profile {name!r} (known: sin)")
    if isinstance(a, str) and a.startswith("file:"):
        path = Path(a.split(":", 1)[1])
        if not path.exists():
            raise ConfigError(f"growth-rate file not found: {path}")
        try:
            return field_from_csv(path, grid)
        except (OSError, ValueError, IndexError) as exc:
            raise ConfigError(f"cannot use growth-rate file {path}: {exc!r}")
    try:
        return Field.constant(grid, _as_float(a))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad growth rate {a!r}: {exc}")


def _merge_config(file_cfg: dict, cli_overrides: dict) -> RunConfig:
    cfg = RunConfig()
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    for source, label in ((file_cfg, "config file"), (cli_overrides, "flag")):
        for key, val in source.items():
            if key not in types:
                raise ConfigError(f"unknown {label} option {key!r}")
            allowed = _SCALAR_TYPES.get(types[key])
            if allowed and type(val) not in allowed:
                raise ConfigError(f"{label} option {key!r} must be {types[key]}, got {val!r}")
            if types[key] == "float":
                try:
                    _as_float(val)
                except (ValueError, OverflowError) as exc:
                    raise ConfigError(f"{label} option {key!r}: {exc}")
            setattr(cfg, key, val)
    try:
        cfg.extents = tuple(_as_float(e) for e in cfg.extents)
        cfg.resolution = tuple(_as_int(n) for n in cfg.resolution)
        cfg.snapshot_times = tuple(_as_float(t) for t in cfg.snapshot_times)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad extents, resolution or snapshot_times: {exc}")
    if isinstance(cfg.a, str) and not cfg.a.startswith(("profile:", "file:")):
        cfg.a = _parse_number(cfg.a)
    return cfg


def validate_config(cfg: RunConfig, command: str) -> Grid:
    """Check every numeric range before any solve and return the run's grid;
    a ValueError of the library's own checks (module docstring) becomes a
    ConfigError. The a-spec is checked by build_growth_field, which reads it."""
    try:
        grid = Grid(cfg.kind, cfg.extents, cfg.resolution)
        if command in ("steady", "verify", "evolve", "sweep"):
            ratio_coefficients(cfg.b, cfg.c)
        if command == "evolve":
            step_schedule(cfg.dt, cfg.t_end, cfg.store_every, cfg.snapshot_times, nodes=grid.size)
        if command == "spectrum":
            eigen_window(cfg.k, grid.size)
        elif command in ("verify", "sweep"):  # 2k values of each family, 2k coupled ones
            eigen_window(2 * cfg.k, grid.size)
            eigen_window(2 * cfg.k, 2 * grid.size, extra=COUPLED_EXTRA_VALUES, symmetric=False)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if cfg.tol <= 0:
        raise ConfigError(f"tol must be positive, got {cfg.tol}")
    if cfg.k < 1:
        raise ConfigError(f"k must be >= 1, got {cfg.k}")
    if command == "evolve" and cfg.amplitude < 0:
        raise ConfigError(f"amplitude must be nonnegative, got {cfg.amplitude}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    if cfg.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {cfg.workers}")
    if cfg.seed < 0 or cfg.seed > 2**64 - 1:
        raise ConfigError(f"seed must be a u64, got {cfg.seed}")
    return grid


def _sweep_jobs(cfg: RunConfig, axes: dict) -> list[RunConfig]:
    """Expand the sweep axes into one validated RunConfig per job, sorted by
    (a, b, c, n); an axis left out takes its value from cfg. The sweep's only
    check: a value of cfg that every job replaces is never checked."""
    if not axes:
        raise ConfigError("empty sweep: no axes given")
    if set(axes) - set(SWEEP_AXES):
        raise ConfigError(f"unknown sweep axes {sorted(set(axes) - set(SWEEP_AXES))}")
    if "a" not in axes and isinstance(cfg.a, str):
        raise ConfigError("sweep requires a constant growth rate")
    if "resolution" not in axes and len(set(cfg.resolution)) > 1:
        raise ConfigError("a rectangle sweep runs on n x n grids: give a square --n or --sweep-n")
    values = []
    for name in SWEEP_AXES:
        default = list(cfg.resolution[:1]) if name == "resolution" else [getattr(cfg, name)]
        vals = axes.get(name, default)
        if not isinstance(vals, list):
            raise ConfigError(f"sweep axis {name!r} must be a list")
        if not vals:
            raise ConfigError(f"empty sweep: axis {name!r} has no values")
        try:
            values.append([_as_int(v) if name == "resolution" else _as_float(v) for v in vals])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"sweep axis {name!r}: {exc}")
    jobs = []
    for a, b, c, n in sorted(itertools.product(*values)):
        job = dataclasses.replace(cfg, a=a, b=b, c=c, resolution=(n,) * len(cfg.resolution))
        try:
            validate_config(job, "sweep")
        except ConfigError as exc:
            raise ConfigError(f"sweep job a={a} b={b} c={c} n={n}: {exc}")
        jobs.append(job)
    return jobs


def fmt_g17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def _write_csv(path, header: list[str], rows) -> None:
    """One CSV table: the header, then each row with its ints as they are
    and every other number through fmt_g17."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([x if isinstance(x, int) else fmt_g17(x) for x in row] for row in rows)


def write_field_csv(f: Field, path):
    """Field file format: index,coord1[,coord2],value with 17 significant digits."""
    header = ["index", *(f"coord{d + 1}" for d in range(f.grid.ndim)), "value"]
    _write_csv(path, header, ([k, *x, v] for k, (x, v) in enumerate(zip(f.grid.coords(), f.values))))


def read_field_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a field file; returns (coords, values) without grid reconstruction."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None:
            raise ValueError(f"field file {path} is empty")
        ncoord = len(header) - 2
        coords, values = [], []
        for row in r:
            coords.append([float(c) for c in row[1 : 1 + ncoord]])
            values.append(float(row[1 + ncoord]))
    return np.asarray(coords), np.asarray(values)


def field_from_csv(path, grid: Grid) -> Field:
    """Load a field file onto a known grid, validating node count and coordinates."""
    coords, values = read_field_csv(path)
    if values.size != grid.size:
        raise ValueError(
            f"field file {path} has {values.size} nodes, grid expects {grid.size}"
        )
    if coords.shape[1] != grid.ndim:
        raise ValueError(f"field file {path} is {coords.shape[1]}D, grid is {grid.ndim}D")
    if not np.allclose(coords, grid.coords(), rtol=1e-12, atol=1e-12):
        raise ValueError(f"field file {path} coordinates do not match the grid")
    if not np.isfinite(values).all():
        raise ValueError(f"field file {path} holds a non-finite value")
    return Field(grid, values)


def stability_report_dict(report: StabilityReport) -> dict:
    """JSON-ready dict of every report field, complex eigenvalues as [re, im] pairs."""
    d = dataclasses.asdict(report)
    d["coupled_eigs"] = [[v.real, v.imag] for v in report.coupled_eigs]
    return d


def write_eigentable_csv(report: StabilityReport, path):
    """Eigenvalue table: i,coupled_re,coupled_im,predicted,rel_err."""
    _write_csv(path, ["i", "coupled_re", "coupled_im", "predicted", "rel_err"], (
        [i, mu.real, mu.imag, pred, abs(mu.real - pred) / max(abs(pred), 1e-300)]
        for i, (mu, pred) in enumerate(zip(report.coupled_eigs, report.predicted_eigs))
    ))


def write_trajectory_csv(traj: Trajectory, reference: SteadyState, path):
    """Plot-ready distances: t,norm_u_dist,norm_v_dist,total_dist."""
    dists = ((l2_norm(u - reference.u), l2_norm(v - reference.v)) for u, v in traj.states)
    _write_csv(path, ["t", "norm_u_dist", "norm_v_dist", "total_dist"],
               ([t, du, dv, math.hypot(du, dv)] for t, (du, dv) in zip(traj.times, dists)))


def _json_dump(obj, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_field(fld: Field, base: Path, fmt: str) -> None:
    if fmt == "csv":
        write_field_csv(fld, base.with_suffix(".csv"))
    else:
        _json_dump({"coords": fld.grid.coords().tolist(), "values": fld.values.tolist()},
                   base.with_suffix(".json"))


def cmd_theta(cfg: RunConfig, out: Path, grid: Grid, a: Field) -> int:
    sol = solve_logistic(grid, a, tol=cfg.tol)
    _write_field(sol.theta, out / "theta", cfg.format)
    _json_dump(
        {
            "residual_norm": sol.residual_norm,
            "newton_iterations": sol.newton_iterations,
            "lambda1_of_a": sol.lambda1_of_a,
        },
        out / "summary.json",
    )
    print(f"theta solved: residual {sol.residual_norm:.3e} in {sol.newton_iterations} Newton steps")
    return EXIT_OK


def cmd_steady(cfg: RunConfig, out: Path, grid: Grid, a: Field) -> int:
    params = ModelParams(a=a, b=cfg.b, c=cfg.c)
    sol = solve_logistic(grid, a, tol=cfg.tol)
    steady = synchronized_state(params, sol)
    r_u, r_v = system_residual(steady.u, steady.v, params)
    _write_field(steady.u, out / "u", cfg.format)
    _write_field(steady.v, out / "v", cfg.format)
    _json_dump(
        {"alpha": steady.alpha, "beta": steady.beta, "residuals": {"r_u": r_u, "r_v": r_v}},
        out / "summary.json",
    )
    print(f"synchronized state: alpha={steady.alpha:.6g} beta={steady.beta:.6g} "
          f"residuals=({r_u:.3e}, {r_v:.3e})")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, out: Path, grid: Grid, a: Field) -> int:
    spec = eigenpairs(WeightedOperator(grid, a), cfg.k, tol=cfg.tol)
    if cfg.format == "csv":
        _write_csv(out / "spectrum.csv", ["index", "lambda", "residual"],
                   ([i, p.lam, p.residual] for i, p in enumerate(spec.pairs)))
    else:
        _json_dump(
            [
                {"index": i, "lambda": p.lam, "residual": p.residual}
                for i, p in enumerate(spec.pairs)
            ],
            out / "spectrum.json",
        )
    if cfg.functions:
        for i, p in enumerate(spec.pairs):
            _write_field(p.phi, out / f"eigenfunction_{i:03d}", cfg.format)
    print(f"computed {len(spec.pairs)} eigenvalues; lambda1 = {spec.pairs[0].lam:.9g}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out: Path, grid: Grid, a: Field) -> int:
    params = ModelParams(a=a, b=cfg.b, c=cfg.c)
    report = verify_theorem(params, grid, cfg.k, tol=cfg.tol)
    _json_dump(stability_report_dict(report), out / "report.json")
    if report.coupled_eigs:
        write_eigentable_csv(report, out / "eigentable.csv")
    print(
        f"verdict: {report.verdict}"
        + (f" ({report.cause})" if report.cause else "")
        + (
            f"; mu1 = {report.mu1:.9g}, max mismatch = {report.max_rel_mismatch:.3e}"
            if report.coupled_eigs
            else ""
        )
        + (" [degenerate]" if report.degenerate else "")
        + (" [near-degenerate band]" if report.band_warning and not report.degenerate else "")
    )
    if report.verdict in ("stable", "unstable"):
        return EXIT_OK
    if report.cause and report.cause.startswith(SUBCRITICAL_CAUSE):
        return EXIT_SUBCRITICAL
    return EXIT_ERROR


def cmd_evolve(cfg: RunConfig, out: Path, grid: Grid, a: Field) -> int:
    params = ModelParams(a=a, b=cfg.b, c=cfg.c)
    sol = solve_logistic(grid, a, tol=cfg.tol)
    steady = synchronized_state(params, sol)
    u0, v0 = random_perturbation(steady, cfg.amplitude, seed=cfg.seed)
    traj = evolve(u0, v0, params, dt=cfg.dt, t_end=cfg.t_end, store_every=cfg.store_every)
    write_trajectory_csv(traj, steady, out / "trajectory.csv")
    for i, tau in enumerate(cfg.snapshot_times):
        idx = int(np.argmin(np.abs(traj.times - tau)))
        u, v = traj.states[idx]
        _write_field(u, out / f"snapshot_u_{i:03d}", cfg.format)
        _write_field(v, out / f"snapshot_v_{i:03d}", cfg.format)
    # predicted slowest decay: smaller principal eigenvalue of the two families
    eig_tol = max(cfg.tol, 1e-8)
    mu1 = min(principal_eigenpair(WeightedOperator(grid, sol.a - s * sol.theta), tol=eig_tol).lam
              for s in (s_parameter(cfg.b, cfg.c), 2.0))
    try:
        fit = decay_rate(traj, steady)
        fit_dict = {**dataclasses.asdict(fit), "mu1_predicted": mu1}
        print(f"decay rate {fit.rate:.6g} (predicted -mu1 = {-mu1:.6g}), r^2 = {fit.r_squared:.6f}")
    except Exception as exc:  # fit is diagnostic; trajectory files already written
        fit_dict = {"error": str(exc), "mu1_predicted": mu1}
        print(f"decay fit unavailable: {exc}")
    _json_dump(fit_dict, out / "decay.json")
    return EXIT_OK


def _sweep_shared(job: RunConfig) -> ThetaHalf:
    """θ and the a - 2θ family of the (a, n) group of jobs that `job` heads,
    solved once for all of them. A failure outside the solvers becomes the
    group's cause, `job failure: ...`, which every job of the group records."""
    try:
        grid = Grid(job.kind, job.extents, job.resolution)
        return theta_half(Field.constant(grid, job.a), grid, job.k, job.tol)
    except Exception as exc:
        return ThetaHalf(None, None, f"job failure: {exc}")


def _sweep_job(job: RunConfig, shared: ThetaHalf) -> dict:
    """One verify job on its group's shared half; returns the deterministic
    record plus the job's own wall time."""
    t0 = time.perf_counter()
    params = ModelParams(a=job.a, b=job.b, c=job.c)
    try:
        grid = Grid(job.kind, job.extents, job.resolution)
        report = verify_theorem(params, grid, job.k, tol=job.tol, shared=shared)
    except Exception as exc:  # any failure becomes an inconclusive record
        report = inconclusive_report(params, job.k, f"job failure: {exc}")
    record = {
        "a": job.a,
        "b": job.b,
        "c": job.c,
        "resolution": job.resolution[0],
        "s": report.s_value,
        "degenerate": report.degenerate,
        "degenerate_band": report.band_warning,
        "mu1": report.mu1,
        "max_rel_mismatch": report.max_rel_mismatch,
        "max_imag": report.max_imag,
        "verdict": report.verdict,
        "cause": report.cause,
    }
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return {"record": record, "wall_time_ms": wall_ms}


def cmd_sweep(cfg: RunConfig, out: Path, jobs: list[RunConfig]) -> int:
    keys = [(job.a, job.b, job.c, job.resolution[0]) for job in jobs]
    na, nb, nc, nn = (len(set(axis)) for axis in zip(*keys))
    print(f"sweep: {len(jobs)} jobs ({na} a x {nb} b x {nc} c x {nn} n)")
    near_degenerate = sum(
        degenerate_distance(job.b, job.c) <= DEGENERATE_WARN_BAND for job in jobs
    )
    if near_degenerate:
        print(f"note: {near_degenerate} job(s) in the degenerate-locus band")

    # θ and the a - 2θ family depend on (a, n) only: one shared half per
    # group, solved where the jobs run, so that with a pool the solvers'
    # memory stays out of this process
    groups: dict[tuple, RunConfig] = {}
    for job in jobs:
        groups.setdefault((job.a, job.resolution), job)
    # the pool starts every worker at once: never more than jobs or cores
    workers = min(cfg.workers, len(jobs), os.cpu_count() or 1)
    pool_cm = ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
    with pool_cm as pool:
        run = map if pool is None else pool.map
        shared = dict(zip(groups, run(_sweep_shared, groups.values())))
        halves = [shared[job.a, job.resolution] for job in jobs]
        outputs = list(run(_sweep_job, jobs, halves))

    records = [o["record"] for o in outputs]
    with open(out / "results.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")
    with open(out / "timing.jsonl", "w") as fh:
        for key, o in zip(keys, outputs):
            fh.write(json.dumps({"job": list(key), "wall_time_ms": o["wall_time_ms"]}))
            fh.write("\n")

    verdicts = dict(Counter(rec["verdict"] for rec in records))
    mu1s = [rec["mu1"] for rec in records if not math.isnan(rec["mu1"])]
    summary = {
        "n_jobs": len(records),
        "min_mu1": min(mu1s) if mu1s else None,
        "verdicts": verdicts,
        "non_stable_jobs": [
            {key: r[key] for key in ("a", "b", "c", "resolution", "verdict", "cause")}
            for r in records
            if r["verdict"] != "stable"
        ],
    }
    _json_dump(summary, out / "summary.json")
    print(f"sweep done: {verdicts}")
    return EXIT_OK


# name -> (help, handler); every handler gets (cfg, out, *inputs) from main
COMMANDS = {
    "theta": ("solve the logistic steady state", cmd_theta),
    "steady": ("build the synchronized steady state", cmd_steady),
    "spectrum": ("eigenpairs of the weighted operator for the given a-field", cmd_spectrum),
    "verify": ("verify linear stability via spectral equivalence", cmd_verify),
    "evolve": ("integrate a perturbed state and fit the decay rate", cmd_evolve),
    "sweep": ("verify over a Cartesian parameter grid", cmd_sweep),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file mirroring RunConfig fields")
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", choices=["csv", "json"], help="tabular output format")
    p.add_argument("--seed", type=int, help="64-bit seed for stochastic choices")
    p.add_argument("--workers", type=int, help="parallel workers (sweep)")
    p.add_argument("--domain", help="interval:0:pi | interval:L | rectangle:0:Lx:0:Ly")
    p.add_argument("--n", help="interior nodes per axis, e.g. 400 or 40,80")
    p.add_argument("--a", help="growth rate: number | profile:sin | file:<path>")
    p.add_argument("--a0", type=float, help="profile offset")
    p.add_argument("--a1", type=float, help="profile amplitude")
    p.add_argument("--b", type=float, help="predation rate, in (0,1)")
    p.add_argument("--c", type=float, help="conversion rate, > 0")
    p.add_argument("--tol", type=float, help="solver tolerance")
    p.add_argument("--k", type=int, help="eigenvalue count")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lvsync", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, _) in COMMANDS.items():
        # SUPPRESS: the namespace holds only the flags the user gave
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        _add_common(p)
        if name == "spectrum":
            p.add_argument("--functions", action="store_true",
                           help="also write one field file per eigenfunction")
        if name == "evolve":
            p.add_argument("--dt", type=float, help="time step")
            p.add_argument("--t-end", dest="t_end", type=float, help="final time")
            p.add_argument("--amplitude", type=float, help="perturbation amplitude")
            p.add_argument("--store-every", dest="store_every", type=int,
                           help="store every k-th step")
            p.add_argument("--snapshots", help="comma list of snapshot times")
        if name == "sweep":
            for axis in SWEEP_AXES:
                flag = "n" if axis == "resolution" else axis
                p.add_argument(f"--sweep-{flag}", dest=f"sweep_{axis}",
                               help=f"{flag} axis values: comma list or start:stop:step")
    return parser


def _load_config(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    """Merge the --config file and the given flags; returns (config, sweep axes)."""
    flags = {k: v for k, v in vars(args).items() if k != "command"}
    file_cfg: dict = {}
    if "config" in flags:
        path = Path(flags.pop("config"))
        try:
            with open(path) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    axes = file_cfg.pop("axes", {})
    if not isinstance(axes, dict):
        raise ConfigError("sweep axes must be a JSON object")
    for axis in SWEEP_AXES:
        if f"sweep_{axis}" in flags:
            axes[axis] = parse_value_list(flags.pop(f"sweep_{axis}"))
    if "domain" in flags:
        flags["kind"], flags["extents"] = parse_domain(flags.pop("domain"))
    for flag, key in (("n", "resolution"), ("snapshots", "snapshot_times")):
        if flag in flags:
            flags[key] = parse_value_list(flags.pop(flag))
    return _merge_config(file_cfg, flags), axes


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, axes = _load_config(args)
        if args.command == "sweep":
            inputs = (_sweep_jobs(cfg, axes),)
        else:
            grid = validate_config(cfg, args.command)
            inputs = (grid, build_growth_field(cfg, grid))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _json_dump(dataclasses.asdict(cfg), out / "config.json")
    try:
        return COMMANDS[args.command][1](cfg, out, *inputs)
    except SubcriticalError as exc:
        if isinstance(cfg.a, str):
            print(f"subcritical: lambda1(a) = {exc.lambda1:.6g} >= 0", file=sys.stderr)
        else:
            print(f"subcritical: a <= lambda1 ~= {float(cfg.a) + exc.lambda1:.6g}",
                  file=sys.stderr)
        return EXIT_SUBCRITICAL
    except (NewtonDivergenceError, EigenSolveError, StepSizeError, PositivityError,
            InitialDataError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
