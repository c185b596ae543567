"""The benchmark's workloads: the CLI call each op makes and the check on its outputs.

An op is one ``lvsync`` CLI call. Its inputs come only from the workload
seed and the op index, so a seed fixes the whole sequence of inputs. Every
op's outputs are checked; an op that fails its check counts in ``failed``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# acceptance criterion 5 of the package: decay rate within 5 % of -mu1, r^2 >= 0.999
DECAY_REL_TOL = 0.05
DECAY_MIN_R2 = 0.999
# acceptance criterion 4: b over 0.1:0.9:0.1 and c over {0.5, 1, 2, 4}
SWEEP_JOBS = 36
# verify-2d redraws (b, c) while s1 = (2+c-b)/(1+bc) is at least this. From
# s1 = 3.73 up, the degenerate (2,3)/(3,2) pair of the a - 2θ family sits at
# positions 11 and 12 of the 2k = 12 coupled eigenvalues on the 30x30 square,
# and the coupled solve's fixed start vector misses one copy of it in about
# half of such draws (README, "Known defect"). The traced run measures one
# such draw instead: Workload.defect_probe.
VERIFY_S1_MAX = 3.6
# the perturbation of acceptance criterion 5; README, "Known limitation"
EVOLVE_PERTURBATION_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    argv(seed, index, out, workers) gives the CLI arguments of op `index`;
    check(exit_code, out) returns (failure reason or None, diagnostics).
    `workers` is what the timed ops pass to --workers; traced ops always
    pass 1 so that every layer call runs in the benchmark's own process.
    `expected_spans` are the layer spans that must record at least one call
    in a traced op. `defect_probe`, if set, is (metric, argv, diagnostic
    key): one op with fixed inputs on which a known defect shows, run once
    in a traced run and reported as that metric; it is not a timed op and
    its check does not count in `failed`.
    """

    name: str
    argv: Callable[[int, int, Path, int], list[str]]
    check: Callable[[int | None, Path], tuple[str | None, dict]]
    workers: int
    expected_spans: tuple[str, ...]
    defect_probe: tuple[str, Callable[[Path], list[str]], str] | None = None


def _fmt(x: float) -> str:
    return repr(float(x))  # round-trips exactly through argparse's float()


def _load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def s1_of(b: float, c: float) -> float:
    return (2.0 + c - b) / (1.0 + b * c)


def verify_params(seed: int, index: int) -> tuple[float, float]:
    """(b, c) of verify op `index`: c log-uniform in [0.25, 4], b uniform in
    [0.05, 0.95], redrawn while s1 >= VERIFY_S1_MAX; op 0 sits on the
    degenerate locus b = c/(2c+1), where s1 = 2."""
    rng = random.Random(f"verify-2d:{seed}:{index}")
    while True:
        c = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        b = c / (2.0 * c + 1.0) if index == 0 else rng.uniform(0.05, 0.95)
        if s1_of(b, c) < VERIFY_S1_MAX:
            return b, c


def _verify_call(b: float, c: float, seed: int, out: Path, workers: int) -> list[str]:
    return [
        "verify", "--domain", "rectangle:pi:pi", "--n", "30,30", "--a", "4",
        "--b", _fmt(b), "--c", _fmt(c), "--k", "6",
        "--workers", str(workers), "--seed", str(seed), "--out", str(out),
    ]


def _verify_argv(seed: int, index: int, out: Path, workers: int) -> list[str]:
    return _verify_call(*verify_params(seed, index), seed, out, workers)


def _verify_edge_pair_argv(out: Path) -> list[str]:
    # s1 = 3.979: a draw of the issue's range that VERIFY_S1_MAX excludes,
    # and on which the coupled solve misses one copy of the edge pair
    return _verify_call(0.0887739738730586, 3.1962470317855978, 0, out, 1)


def check_verify(code: int | None, out: Path) -> tuple[str | None, dict]:
    """exit code 0, verdict "stable", max_rel_mismatch <= mismatch_threshold."""
    if not (out / "report.json").is_file():
        return f"exit code {code}, no report.json", {}
    # an inconclusive verify exits 1 but still writes its report
    report = _load_json(out / "report.json")
    diag = {"max_rel_mismatch": report["max_rel_mismatch"]}
    if code != 0:
        return f"exit code {code}, verdict {report['verdict']!r} ({report.get('cause')})", diag
    if report["verdict"] != "stable":
        return f"verdict {report['verdict']!r} ({report.get('cause')})", diag
    if not report["max_rel_mismatch"] <= report["mismatch_threshold"]:
        return (
            f"max_rel_mismatch {report['max_rel_mismatch']} exceeds "
            f"threshold {report['mismatch_threshold']}",
            diag,
        )
    return None, diag


def _sweep_argv(seed: int, index: int, out: Path, workers: int) -> list[str]:
    # the sweep grid is fixed by criterion 4; the seed only reaches --seed
    return [
        "sweep", "--domain", "interval:0:pi", "--n", "100", "--a", "2", "--k", "6",
        "--sweep-b", "0.1:0.9:0.1", "--sweep-c", "0.5,1,2,4",
        "--workers", str(workers), "--seed", str(seed), "--out", str(out),
    ]


def check_sweep(code: int | None, out: Path) -> tuple[str | None, dict]:
    """36 records, every one "stable" with mu1 > 0."""
    if code != 0:
        return f"exit code {code}", {}
    with open(out / "results.jsonl") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    with open(out / "timing.jsonl") as fh:
        job_ms = [json.loads(line)["wall_time_ms"] for line in fh if line.strip()]
    mismatches = [r["max_rel_mismatch"] for r in records]
    diag = {
        "job_ms": job_ms,
        "max_rel_mismatch": max(mismatches) if mismatches else math.nan,
    }
    if len(records) != SWEEP_JOBS:
        return f"{len(records)} records, expected {SWEEP_JOBS}", diag
    for r in records:
        if r["verdict"] != "stable" or not r["mu1"] > 0.0:
            return (
                f"job b={r['b']} c={r['c']}: verdict {r['verdict']!r}, "
                f"mu1 {r['mu1']} ({r.get('cause')})",
                diag,
            )
    return None, diag


def evolve_amplitude(seed: int, index: int) -> float:
    """Perturbation amplitude of evolve op `index`: log-uniform in
    [2.5e-4, 1e-3], inside the linear regime of criterion 5."""
    rng = random.Random(f"evolve-1d:{seed}:{index}")
    return math.exp(rng.uniform(math.log(2.5e-4), math.log(1e-3)))


def _evolve_call(amplitude: float, perturbation_seed: int, out: Path,
                 workers: int) -> list[str]:
    return [
        "evolve", "--domain", "interval:0:pi", "--n", "200", "--a", "2",
        "--b", "0.5", "--c", "1", "--dt", "1e-3", "--t-end", "22",
        "--store-every", "100", "--amplitude", _fmt(amplitude),
        "--workers", str(workers), "--seed", str(perturbation_seed), "--out", str(out),
    ]


def _evolve_argv(seed: int, index: int, out: Path, workers: int) -> list[str]:
    # the workload seed draws the amplitude; the perturbation's shape is
    # criterion 5's, so the criterion-5 check applies as specified
    return _evolve_call(evolve_amplitude(seed, index), EVOLVE_PERTURBATION_SEED, out, workers)


def _evolve_weak_start_argv(out: Path) -> list[str]:
    # perturbation seed 22 projects weakly onto the slowest mode: the fitted
    # rate is about 12 % off -mu1 at t_end = 22
    return _evolve_call(1e-3, 22, out, 1)


def check_evolve(code: int | None, out: Path) -> tuple[str | None, dict]:
    """|rate + mu1| / mu1 <= 0.05 and r^2 >= 0.999 (criterion 5)."""
    if code != 0:
        return f"exit code {code}", {}
    fit = _load_json(out / "decay.json")
    if "rate" not in fit:
        return f"no decay fit: {fit.get('error')}", {}
    mu1 = fit["mu1_predicted"]
    rel = abs(fit["rate"] + mu1) / mu1 if mu1 > 0 else math.inf
    diag = {"decay_rel_err": rel}
    if not rel <= DECAY_REL_TOL:
        return f"rate {fit['rate']} is {rel:.3%} off -mu1 = {-mu1}", diag
    if not fit["r_squared"] >= DECAY_MIN_R2:
        return f"r_squared {fit['r_squared']} below {DECAY_MIN_R2}", diag
    return None, diag


_SCALAR_VERIFY_SPANS = (
    "linstab.verify_theorem",
    "linstab.predicted_spectrum",
    "linstab.coupled_eigenpairs",
    "linstab.jacobian_matrix",
    "spectral.eigenpairs",
    "spectral.principal_eigenpair",
    "elliptic.solve_logistic",
    "model.synchronized_state",
    "grid.operator_matrix",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-2d",
            argv=_verify_argv,
            check=check_verify,
            workers=1,
            expected_spans=_SCALAR_VERIFY_SPANS + ("cli.io",),
            defect_probe=("linstab.edge_pair_mismatch", _verify_edge_pair_argv,
                          "max_rel_mismatch"),
        ),
        Workload(
            name="sweep-1d",
            argv=_sweep_argv,
            check=check_sweep,
            workers=2,
            # sweep writes its JSON lines directly, through none of the writers
            expected_spans=_SCALAR_VERIFY_SPANS,
        ),
        Workload(
            name="evolve-1d",
            argv=_evolve_argv,
            check=check_evolve,
            workers=1,
            expected_spans=(
                "elliptic.solve_logistic",
                "spectral.principal_eigenpair",
                "grid.operator_matrix",
                "model.synchronized_state",
                "dynamics.evolve",
                "dynamics.decay_rate",
                "cli.io",
            ),
            defect_probe=("dynamics.weak_start_decay_rel_err", _evolve_weak_start_argv,
                          "decay_rel_err"),
        ),
    )
}
