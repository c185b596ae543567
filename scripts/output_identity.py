"""Check that the working tree writes the same output files as a base revision.

    python scripts/output_identity.py --base <rev> [--slow] [--rounding RTOL]

The base revision's tree is exported with `git archive` into a temporary
directory, so no network and no git worktree is involved. Every CLI case of
CASES (and, with --slow, of SLOW_CASES) and every script of SCRIPT_CASES
runs once on each tree, each run in a fresh interpreter with that tree's
`src` on PYTHONPATH. For each case the exit code, stdout and every output
file are compared; `timing.jsonl` (a wall-clock diagnostic) and the `out`
field of `config.json` are left out. A script writes no file, so its
stdout is its output.
A file that is not identical is reported with the largest absolute and
relative difference over the numbers it holds.

Exits 1 on any difference. With --rounding RTOL, a file or stdout whose
text differs only in numbers that agree within RTOL (relative) is accepted;
a changed exit code, a missing file or a change of any other text is not.

The BLAS thread count is inherited: run it under OPENBLAS_NUM_THREADS=1 and
=2 to cover both.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# left out of every comparison: a wall-clock diagnostic
IGNORED_FILES = {"timing.jsonl"}
# the slowest case, the 150x150 verify, takes about 3 s
RUN_TIMEOUT_S = 600

SQUARE = ["--domain", "rectangle:pi:pi", "--n", "30,30", "--a", "4", "--k", "6"]
EVOLVE_1D = ["evolve", "--domain", "interval:0:pi", "--n", "200", "--a", "2", "--b", "0.5",
             "--c", "1", "--dt", "1e-3"]
SWEEP_1D = ["sweep", "--domain", "interval:0:pi", "--n", "100", "--a", "2", "--k", "6",
            "--sweep-b", "0.1:0.9:0.1", "--sweep-c", "0.5,1,2,4", "--seed", "0"]

# (name, arguments); "{data}" is a directory holding DATA_FILES, "{tree}"
# the tree under test. The benchmark ops use the inputs of perfbench seed 0.
CASES = [
    ("theta-1d-sin-profile", ["theta", "--domain", "interval:0:pi", "--n", "400",
                              "--a", "profile:sin", "--a0", "1.5", "--a1", "0.5"]),
    ("theta-2d-json", ["theta", "--domain", "rectangle:1:1", "--n", "24,24", "--a", "25",
                       "--format", "json"]),
    # large a on coarse grids, where Newton from the scaled principal eigenfunction
    # ends at zero (1D) or at a sign-changing root (2D)
    ("theta-large-a", ["theta", "--domain", "interval:0:pi", "--n", "20", "--a", "60"]),
    ("theta-2d-large-a", ["theta", "--domain", "rectangle:1:1", "--n", "8,8", "--a", "200"]),
    ("theta-growth-file", ["theta", "--n", "20", "--a", "file:{data}/a20.csv"]),
    ("steady", ["steady", "--domain", "interval:0:pi", "--n", "200", "--a", "2",
                "--b", "0.5", "--c", "1"]),
    ("spectrum-2d-functions-json", ["spectrum", "--domain", "rectangle:pi:pi", "--n", "14,14",
                                    "--a", "4", "--k", "6", "--functions", "--format", "json"]),
    ("spectrum-1d-functions-json", ["spectrum", "--domain", "interval:0:pi", "--n", "300",
                                    "--a", "2", "--k", "10", "--functions", "--format", "json"]),
    # the three *-gate-failure cases ask for a tol far below the residual gate's rounding
    # floor, where the floor decides
    ("spectrum-gate-failure", ["spectrum", "--n", "200", "--a", "2", "--tol", "1e-16"]),
    # the edge of the eigen window: k = N - 2, and 2k = N - 2 for verify's families
    ("spectrum-k-window-edge", ["spectrum", "--n", "12", "--a", "2", "--k", "10"]),
    ("verify-2k-window-edge", ["verify", "--n", "14", "--a", "2", "--k", "6"]),
    ("verify-1d-n200", ["verify", "--domain", "interval:0:pi", "--n", "200", "--a", "2",
                        "--b", "0.5", "--c", "1", "--k", "6"]),
    ("verify-2d-op0-locus", ["verify", *SQUARE, "--b", "0.2734181884726217",
                             "--c", "0.603354229162353"]),
    ("verify-2d-op1", ["verify", *SQUARE, "--b", "0.16881439780308355",
                       "--c", "1.7198994193456842"]),
    ("verify-2d-op2", ["verify", *SQUARE, "--b", "0.5695542503122306",
                       "--c", "0.7083898144525834"]),
    ("verify-2d-op3", ["verify", *SQUARE, "--b", "0.6622512412345792",
                       "--c", "1.05788720331309"]),
    ("verify-2d-s1-3.98-edge-pair", ["verify", *SQUARE, "--b", "0.0887739738730586",
                                     "--c", "3.1962470317855978"]),
    # a = λ₁ + 2e-6 on the 40x40 square: μ₁ is near 2e-6·(s₁ - 1), so a mismatch at
    # rounding level is large relative to μ₁ but not to the residual bound
    ("verify-2d-near-threshold", ["verify", "--domain", "rectangle:pi:pi", "--n", "40,40",
                                  "--a", "1.9990236465364597", "--k", "6"]),
    # off the locus by 1e-7 (κ₂(S) ≈ 1.85e7): the two families' copies share clusters,
    # whose bound takes max ρ_c + |s₁ - 2|·‖θ‖∞ where that is below κ₂(S)·max ρ_c
    ("verify-2d-near-locus", ["verify", *SQUARE, "--b", "0.3333334333333333", "--c", "1"]),
    # within DEGENERATE_TOL of the locus: flagged degenerate, both families solved
    ("verify-2d-locus-sliver", ["verify", "--domain", "rectangle:pi:pi", "--n", "12,12",
                                "--a", "4", "--k", "3", "--b", "0.3333333333342333",
                                "--c", "1"]),
    # op 0 of perfbench verify-2d at seeds 183, 195 and 556, on the locus: the coupled
    # eigs has stopped in dneupd (ARPACK error 1) at some shift and window; one failure
    # restarts it from a second seed, two end inconclusive with report.json
    ("verify-2d-locus-arpack-failure", ["verify", *SQUARE, "--b", "0.3437759627974551",
                                        "--c", "1.1002659032289266"]),
    ("verify-2d-locus-seed-195", ["verify", *SQUARE, "--b", "0.43994768711467147",
                                  "--c", "3.6630369920536006"]),
    ("verify-2d-locus-seed-556", ["verify", *SQUARE, "--b", "0.34783427185678173",
                                  "--c", "1.1429455111252134"]),
    # k = 3 at b = 0.1, c = 4: the a - s₁θ family's (i,j)/(j,i) pair sits astride
    # position 2k = 6 of the prediction, so the coupled solve asks for 7 values
    ("verify-2d-window-straddle", ["verify", "--domain", "rectangle:pi:pi", "--n", "30,30",
                                   "--a", "4", "--b", "0.1", "--c", "4", "--k", "3"]),
    # the default 1D verify and the 30x30 square with extents times 10³ and a over 10⁶:
    # every eigenvalue over 10⁶, the shifts at the matrices' own bounds
    ("verify-1d-scaled-1e3", ["verify", "--domain", "interval:0:3141.592653589793",
                              "--n", "200", "--a", "2e-06", "--b", "0.5", "--c", "1",
                              "--k", "6"]),
    ("verify-2d-scaled-1e3", ["verify", "--domain",
                              "rectangle:3141.592653589793:3141.592653589793", "--n", "30,30",
                              "--a", "4e-06", "--k", "6"]),
    ("verify-2d-k1-window", ["verify", "--domain", "rectangle:pi:pi", "--n", "30,30",
                             "--a", "4", "--b", "0.3", "--c", "1.7", "--k", "1"]),
    ("verify-2d-8x8-large-a", ["verify", "--domain", "rectangle:1:1", "--n", "8,8",
                               "--a", "200", "--k", "3"]),
    # a/λ₁ = 20: Newton from the scaled principal eigenfunction fails
    ("verify-2d-40x40-large-a", ["verify", "--domain", "rectangle:pi:pi", "--n", "40,40",
                                 "--a", "40", "--k", "6"]),
    ("verify-subcritical", ["verify", "--n", "50", "--a", "0.5"]),
    ("verify-gate-failure", ["verify", "--n", "200", "--a", "2", "--tol", "1e-14"]),
    ("evolve-1d-op", [*EVOLVE_1D, "--t-end", "22", "--store-every", "100",
                      "--amplitude", "0.0007230782509222755", "--seed", "0"]),
    # 1,100 steps at a 20 times larger dt, stored every 5
    ("evolve-1d-dt2e-2", ["evolve", "--domain", "interval:0:pi", "--n", "200", "--a", "2",
                          "--b", "0.5", "--c", "1", "--dt", "2e-2", "--t-end", "22",
                          "--store-every", "5"]),
    # 550 steps stored every 100: the final step falls off the interval
    ("evolve-snapshots-final-step", [*EVOLVE_1D, "--t-end", "0.55", "--store-every", "100",
                                     "--snapshots", "0,0.1,0.55"]),
    # one side each of s₁ = 2: μ₁ is λ₁(a - min(s₁, 2)·θ), solved once
    ("evolve-s1-above-2", ["evolve", "--n", "200", "--a", "2", "--b", "0.1", "--c", "2",
                           "--t-end", "2"]),
    ("evolve-s1-below-2-near-locus", ["evolve", "--n", "200", "--a", "2",
                                      "--b", "0.3333334333333333", "--c", "1",
                                      "--t-end", "2"]),
    ("evolve-2d-json", ["evolve", "--domain", "rectangle:1:1", "--n", "20,20", "--a", "25",
                        "--dt", "2e-3", "--t-end", "1", "--snapshots", "0,1",
                        "--format", "json"]),
    # 101 nodes across: I - dt·Δ goes past the band limit to SuperLU
    ("evolve-2d-superlu", ["evolve", "--domain", "rectangle:4:1", "--n", "101,4", "--a", "20",
                           "--dt", "1e-3", "--t-end", "0.5", "--store-every", "50"]),
    ("sweep-1d-op-workers-1", [*SWEEP_1D, "--workers", "1"]),
    ("sweep-1d-op-workers-2", [*SWEEP_1D, "--workers", "2"]),
    ("sweep-mixed-axes", ["sweep", "--n", "40", "--k", "4", "--sweep-a", "0.5,2,3",
                          "--sweep-n", "40,60", "--sweep-b", "0.4,0.7", "--sweep-c", "1,2"]),
    ("sweep-gate-failure", ["sweep", "--n", "100", "--a", "2", "--tol", "5e-13",
                            "--sweep-b", "0.3,0.5"]),
    ("example-config-verify", ["verify", "--config", "{tree}/docs/config.example.json",
                               "--n", "40"]),
    ("example-config-evolve", ["evolve", "--config", "{tree}/docs/config.example.json",
                               "--n", "40", "--t-end", "2"]),
    # config errors: exit 1 before --out exists. Only inputs that both trees
    # reject belong here; a case that one tree would run unbounded does not.
    ("config-sweep-b-out-of-range", ["sweep", "--sweep-b", "1.5"]),
    ("config-steady-b-out-of-range", ["steady", "--n", "20", "--b", "1.5"]),
    ("config-verify-c-zero", ["verify", "--n", "20", "--c", "0"]),
    ("config-evolve-dt-negative", ["evolve", "--n", "20", "--dt=-1e-3"]),
    ("config-evolve-store-every-zero", ["evolve", "--n", "20", "--store-every", "0"]),
    ("config-evolve-snapshot-unstored", [*EVOLVE_1D, "--t-end", "0.5", "--store-every", "100",
                                         "--snapshots", "0.04"]),
    ("config-evolve-snapshot-after-t-end", ["evolve", "--n", "20", "--t-end", "0.5",
                                            "--snapshots", "0,1e9"]),
    ("config-evolve-step-count-overflows", ["evolve", "--n", "20", "--t-end", "1",
                                            "--dt", "1e-320"]),
    # h·h underflows to 0, so the stencil's 1/h² would not be finite
    ("config-theta-spacing-underflows", ["theta", "--domain", "interval:0:1e-300", "--n", "20",
                                         "--a", "2"]),
    # a0 + a1·sin overflows to inf
    ("config-theta-profile-overflows", ["theta", "--domain", "interval:0:pi", "--n", "20",
                                        "--a", "profile:sin", "--a0", "1e308", "--a1", "1e308"]),
]

# the verify rungs of CI, and the widest SuperLU IMEX path
SLOW_CASES = [
    ("verify-2d-100x100", ["verify", "--domain", "rectangle:pi:pi", "--n", "100,100",
                           "--a", "4", "--k", "6"]),
    ("verify-2d-150x150", ["verify", "--domain", "rectangle:pi:pi", "--n", "150,150",
                           "--a", "4", "--k", "6"]),
    ("verify-2d-200x50", ["verify", "--domain", "rectangle:4:1", "--n", "200,50",
                          "--a", "20", "--k", "6"]),
    ("verify-1d-n10000", ["verify", "--domain", "interval:0:pi", "--n", "10000", "--a", "2",
                          "--k", "6"]),
    # 150 nodes across: 200 IMEX steps, each a SuperLU solve of I - dt·Δ
    ("evolve-2d-150x150-superlu", ["evolve", "--domain", "rectangle:pi:pi", "--n", "150,150",
                                   "--a", "4", "--dt", "1e-3", "--t-end", "0.2",
                                   "--store-every", "20", "--amplitude", "1e-5",
                                   "--snapshots", "0.2"]),
]


# (name, script in scripts/, arguments), as CI runs them; make_goldens.py
# prints wall times, so it is left out
SCRIPT_CASES = [
    ("script-equivalence-table", "equivalence_table.py", []),
    ("script-equivalence-table-locus", "equivalence_table.py",
     ["2", "0.3333333333333333", "1", "200", "6"]),
    ("script-decay-experiment", "decay_experiment.py", []),
]


def _field_csv(n: int, length: float, value) -> str:
    h = length / (n + 1)
    return "index,coord1,value\n" + "".join(f"{i},{h * (i + 1)!r},{value(i)!r}\n"
                                           for i in range(n))


# a growth rate on the default interval's 20-node grid
DATA_FILES = {"a20.csv": _field_csv(20, math.pi, lambda i: 2.0 + 0.01 * i)}


@dataclass(frozen=True)
class Run:
    """One CLI run: its exit code, its stdout and its --out directory,
    which a config error leaves uncreated."""

    code: int
    stdout: str
    out: Path


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|NaN|Infinity|inf)")


def text_difference(base: str, head: str) -> tuple[float, float] | None:
    """(largest absolute, largest relative) difference of the numbers in two
    texts that agree everywhere else; None when anything but the numbers
    differs. Two NaNs agree."""
    if NUMBER.split(base) != NUMBER.split(head):
        return None
    max_abs = max_rel = 0.0
    for x, y in zip(map(float, NUMBER.findall(base)), map(float, NUMBER.findall(head))):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        diff = abs(x - y)
        if not math.isfinite(diff):  # a NaN or an infinity against a number
            return math.inf, math.inf
        max_abs = max(max_abs, diff)
        max_rel = max(max_rel, diff / max(abs(x), abs(y)))
    return max_abs, max_rel


def _comparable(path: Path) -> str:
    text = path.read_text()
    if path.name == "config.json":  # the run's own --out is no output
        cfg = json.loads(text)
        cfg.pop("out", None)
        text = json.dumps(cfg, indent=2, sort_keys=True)
    return text


def _compare_text(label: str, base: str, head: str, rtol: float | None) -> tuple[bool, str]:
    if base == head:
        return True, f"{label}: identical"
    diff = text_difference(base, head)
    if diff is None:
        return False, f"{label}: differs beyond its numbers"
    max_abs, max_rel = diff
    same = rtol is not None and max_rel <= rtol
    status = "within rounding" if same else "differs"
    return same, f"{label}: {status}, max abs diff {max_abs:.3e}, max rel diff {max_rel:.3e}"


def compare_runs(base: Run, head: Run, rtol: float | None = None) -> tuple[bool, list[str]]:
    """(whether the runs match, one report line per compared item)."""
    lines = []
    same = base.code == head.code
    lines.append(f"exit code: {base.code} -> {head.code}" if not same
                 else f"exit code: {base.code}")
    ok, line = _compare_text("stdout", base.stdout, head.stdout, rtol)
    same &= ok
    lines.append(line)
    if base.out.exists() != head.out.exists():
        return False, lines + [f"--out created: {base.out.exists()} -> {head.out.exists()}"]
    names = {p.name for d in (base.out, head.out) if d.exists() for p in d.iterdir()}
    for name in sorted(names - IGNORED_FILES):
        b, h = base.out / name, head.out / name
        if not (b.exists() and h.exists()):
            same = False
            lines.append(f"{name}: only in {'base' if b.exists() else 'head'}")
            continue
        ok, line = _compare_text(name, _comparable(b), _comparable(h), rtol)
        same &= ok
        lines.append(line)
    return same, lines


def _run(tree: Path, args: list[str], out: Path, data: Path) -> Run:
    """Run the interpreter on `args`, with "{data}", "{tree}" and "{out}"
    filled in."""
    argv = [a.format(data=data, tree=tree, out=out) for a in args]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    # a run that never ends fails the check with TimeoutExpired
    proc = subprocess.run([sys.executable, *argv],
                          env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    return Run(proc.returncode, proc.stdout, out)


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--slow", action="store_true", help="also run SLOW_CASES")
    parser.add_argument("--rounding", type=float, metavar="RTOL",
                        help="accept numeric differences within this relative tolerance")
    args = parser.parse_args(argv)

    cases = [(name, ["-m", "lvsync.cli", *cli_args, "--out", "{out}"])
             for name, cli_args in CASES + (SLOW_CASES if args.slow else [])]
    cases += [(name, ["{tree}/scripts/" + script, *script_args])
              for name, script, script_args in SCRIPT_CASES]
    failed = []
    with tempfile.TemporaryDirectory(prefix="output_identity_") as tmp:
        work = Path(tmp)
        base_tree = work / "base"
        _export(args.base, base_tree)
        data = work / "data"
        data.mkdir()
        for name, text in DATA_FILES.items():
            (data / name).write_text(text)
        for name, case_args in cases:
            base = _run(base_tree, case_args, work / "out-base" / name, data)
            head = _run(REPO, case_args, work / "out-head" / name, data)
            same, lines = compare_runs(base, head, args.rounding)
            print(f"{'same' if same else 'DIFFERENT'}  {name}")
            for line in lines:
                print(f"    {line}")
            if not same:
                failed.append(name)
    print(f"{len(cases) - len(failed)} of {len(cases)} cases the same"
          + (f"; different: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
