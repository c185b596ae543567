#!/usr/bin/env python3
"""lvsync benchmark: drives ``lvsync.cli.main`` in-process on fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify-2d --seed 0 --seconds 30 --trace 0

``--trace 0`` times untraced ops for ``--seconds`` seconds and reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates traced and
untraced ops and reports the per-layer metrics. Every op's outputs are
checked. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the environment record and a
human-readable summary come before it. perfbench/README.md describes the
workloads and every metric.

BLAS is pinned to one thread in this process and in every process it
starts (see README: with the default thread count the 2-worker sweep
oversubscribes the cores). Only the traced run's ``cli.sweep.unpinned_s``
probe runs unpinned.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import ROOT_SPAN, SPAN_NAMES, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median of this many fresh-interpreter set-ups (this
# process plus SETUP_SAMPLES - 1 probes)
SETUP_SAMPLES = 3
MIN_OPS = 5  # timed ops per run, however short --seconds is
MIN_TRACED_PAIRS = 3  # traced and untraced ops each, in a traced run
POOL_OPS = 3  # sweep ops on the process pool, in a traced run
PROBE_TIMEOUT_S = 120
UNPINNED_TIMEOUT_S = 20
# spans whose metric is named <span>.s rather than <span>.self_s: they have
# no child spans, so their self time is their whole time
LEAF_SPANS = {"grid.operator_matrix", "linstab.jacobian_matrix", "dynamics.decay_rate", "cli.io"}
CALL_SPANS = (
    "spectral.eigenpairs",
    "spectral.principal_eigenpair",
    "elliptic.solve_logistic",
    "linstab.coupled_eigenpairs",
    "linstab.verify_theorem",
    "grid.operator_matrix",
)
# one known-defect diagnostic per workload that has one (Workload.defect_probe)
DEFECT_METRICS = tuple(w.defect_probe[0] for w in WORKLOADS.values() if w.defect_probe)
# counters taken as the per-op median (they repeat exactly op to op)
COUNTERS = (
    "elliptic.newton_iterations",
    "dynamics.steps",
    "spectral.eigenpairs.unknowns",
    "spectral.principal_eigenpair.unknowns",
    "linstab.coupled_eigenpairs.unknowns",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one fresh-interpreter set-up (import + first op), run as a child
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--unpinned", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process, by library file."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                found[Path(lib).name] = int(getattr(handle, symbol)())
                break
    return found


def _blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment(seed: int, workers: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in PIN_VARS},
        "workers": workers,
        "seed": seed,
    }


def call_and_check(cli_main, wl, argv: list[str], out: Path, traced=None):
    """One CLI call, timed; its outputs are checked after the clock stops.
    Returns (wall seconds, failure or None, diagnostics, captured output)."""
    log = io.StringIO()
    code = None
    t0 = time.perf_counter()
    try:
        with (contextlib.redirect_stdout(log), contextlib.redirect_stderr(log),
              traced or contextlib.nullcontext()):
            code = cli_main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # any solver error fails this op, not the run
        log.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    try:
        failure, diag = wl.check(code, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        failure, diag = f"unreadable output: {exc!r}", {}
    shutil.rmtree(out, ignore_errors=True)
    return wall, failure, diag, log.getvalue()


def run_op(cli_main, wl, seed: int, index: int, run_dir: Path, workers: int,
           tracer: Tracer | None = None) -> dict:
    """Op `index` of the workload; a failed check is reported on stderr."""
    out = run_dir / f"op{index}-w{workers}"
    argv = wl.argv(seed, index, out, workers)
    traced = tracer.traced_op(index) if tracer is not None else None
    wall, failure, diag, log = call_and_check(cli_main, wl, argv, out, traced)
    if failure is not None:
        tail = "\n".join(log.splitlines()[-15:])
        print(f"op {index} ({' '.join(argv)}) failed: {failure}\n{tail}", file=sys.stderr)
    return {"index": index, "workers": workers, "traced": tracer is not None,
            "wall_s": wall, "failure": failure, "diag": diag}


def run_defect_probe(cli_main, wl, run_dir: Path) -> dict:
    """The workload's known-defect op, once, untraced. Its diagnostic reads
    -1 if the op wrote no output to read it from."""
    metric, argv_of, key = wl.defect_probe
    out = run_dir / "defect-probe"
    argv = argv_of(out)
    wall, failure, diag, _ = call_and_check(cli_main, wl, argv, out)
    value = diag.get(key, -1.0)
    print(f"known-defect probe {metric} = {value:.4g} ({' '.join(argv[:-2])}): "
          f"check {'passed' if failure is None else 'failed: ' + failure}")
    return {"metric": metric, "value": value, "failure": failure, "wall_s": wall}


def probe(wl, seed: int, pinned: bool) -> dict:
    """Import lvsync and run op 0 in a fresh interpreter; returns its timings.

    The unpinned probe is cut after UNPINNED_TIMEOUT_S and then reports that
    limit with "timed_out": oversubscribed BLAS threads can stall it for
    minutes. The child runs in its own session so that killing the session
    also ends the sweep's pool workers.
    """
    env = dict(os.environ)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
           "--seed", str(seed), "--probe"]
    if not pinned:
        cmd.append("--unpinned")
        for var in PIN_VARS:
            env.pop(var, None)
    timeout = PROBE_TIMEOUT_S if pinned else UNPINNED_TIMEOUT_S
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        shutil.rmtree(RUNS / f"{wl.name}-{child.pid}", ignore_errors=True)
        if pinned:
            raise RuntimeError(f"set-up probe ran over {timeout} s")
        return {"import_s": None, "op_s": float(timeout), "failure": None,
                "blas_threads": None, "timed_out": True}
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe exited {child.returncode}:\n{stderr}")
    return {**json.loads(stdout.strip().splitlines()[-1]), "timed_out": False}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def run_end_to_end(cli_main, wl, seed, seconds, import_s, run_dir):
    """Warm-up op, then timed ops for `seconds`, then set-up probes."""
    warm = run_op(cli_main, wl, seed, 0, run_dir, wl.workers)
    timed = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(timed) < MIN_OPS:
        timed.append(run_op(cli_main, wl, seed, len(timed), run_dir, wl.workers))
    rss = peak_rss_mb()
    probes = [probe(wl, seed, pinned=True) for _ in range(SETUP_SAMPLES - 1)]
    setups = [import_s + warm["wall_s"]] + [p["import_s"] + p["op_s"] for p in probes]
    failures = [o["failure"] for o in [warm] + timed] + [p["failure"] for p in probes]
    metrics = {
        "op_s_p50": statistics.median(o["wall_s"] for o in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    details = {"warm_up": warm, "timed": timed, "probes": probes, "setup_samples": setups}
    print(f"op_s_p50 = {metrics['op_s_p50']:.4f} s over {len(timed)} timed ops "
          f"(quartiles {quartiles([o['wall_s'] for o in timed])})")
    print(f"setup_s = {metrics['setup_s']:.4f} s (median of {setups}; "
          f"import {import_s:.4f} s in this process)")
    print(f"peak_rss_mb = {rss:.1f} MB")
    return metrics, failures, details


def quartiles(values) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}-{q3:.4f} s"


def run_traced(cli_main, wl, seed, seconds, run_dir):
    """Traced and untraced ops alternate on --workers 1; a sweep adds pool ops
    and one unpinned probe."""
    tracer = Tracer()
    warm = run_op(cli_main, wl, seed, 0, run_dir, 1)
    traced, untraced = [], []
    start = time.perf_counter()
    index = 0
    while (time.perf_counter() - start < seconds or len(traced) < MIN_TRACED_PAIRS
           or len(untraced) < MIN_TRACED_PAIRS):
        if index % 2 == 0:
            traced.append(run_op(cli_main, wl, seed, index, run_dir, 1, tracer))
        else:
            untraced.append(run_op(cli_main, wl, seed, index, run_dir, 1))
        index += 1
    pool, unpinned = [], None
    if wl.workers > 1:
        pool = [run_op(cli_main, wl, seed, index + j, run_dir, wl.workers)
                for j in range(POOL_OPS)]
        unpinned = probe(wl, seed, pinned=False)
    defect = run_defect_probe(cli_main, wl, run_dir) if wl.defect_probe else None

    table = tracer.per_op()
    missing = sorted(
        f"{name} (op {o['index']})"
        for o in traced
        for name in wl.expected_spans
        if table.get(o["index"], {}).get(name, (0.0, 0))[1] == 0
    )
    if missing:
        raise RuntimeError(f"expected spans recorded no calls: {', '.join(missing)}")

    rows = [table[o["index"]] for o in traced]
    counters = [tracer.counters[o["index"]] for o in traced]

    def mean_self(name):
        return statistics.fmean(row.get(name, (0.0, 0))[0] for row in rows)

    def median_of(values):
        return statistics.median(values) if values else 0.0

    ops = [warm] + traced + untraced + pool
    traced_p50 = statistics.median(o["wall_s"] for o in traced)
    untraced_p50 = statistics.median(o["wall_s"] for o in untraced)
    metrics = {
        "trace.op_s_p50": traced_p50,
        "trace.untraced_op_s_p50": untraced_p50,
        "trace.overhead": traced_p50 / untraced_p50 - 1.0,
        "trace.op_s_mean": statistics.fmean(
            s.end - s.start for s in tracer.spans if s.name == ROOT_SPAN
        ),
        "trace.uncovered_s": mean_self(ROOT_SPAN),
    }
    for name in SPAN_NAMES:
        metrics[f"{name}.{'s' if name in LEAF_SPANS else 'self_s'}"] = mean_self(name)
    for name in CALL_SPANS:
        metrics[f"{name}.calls"] = median_of([row.get(name, (0.0, 0))[1] for row in rows])
    for name in COUNTERS:
        metrics[name] = median_of([c.get(name, 0) for c in counters])
    steps = metrics["dynamics.steps"]
    metrics["dynamics.step_us"] = 1e6 * metrics["dynamics.evolve.self_s"] / steps if steps else 0.0
    metrics["spectral.residual_max"] = max(c.get("spectral.residual_max", 0.0) for c in counters)
    for key, metric in (("max_rel_mismatch", "linstab.max_rel_mismatch"),
                        ("decay_rel_err", "dynamics.decay_rel_err")):
        values = [o["diag"].get(key, math.nan) for o in ops]
        metrics[metric] = max((v for v in values if math.isfinite(v)), default=0.0)
    job_ms = [ms for o in pool for ms in o["diag"].get("job_ms", [])]
    metrics["cli.sweep.job_ms_p50"] = median_of(job_ms)
    metrics["cli.sweep.pool_efficiency"] = median_of([
        sum(o["diag"]["job_ms"]) / 1000.0 / (o["workers"] * o["wall_s"])
        for o in pool if o["diag"].get("job_ms")
    ])
    metrics["cli.sweep.unpinned_s"] = unpinned["op_s"] if unpinned else 0.0
    for metric in DEFECT_METRICS:
        metrics[metric] = defect["value"] if defect and defect["metric"] == metric else 0.0

    failures = [o["failure"] for o in ops]
    if unpinned and not unpinned["timed_out"]:
        failures.append(unpinned["failure"])
    details = {"warm_up": warm, "traced": traced, "untraced": untraced, "pool": pool,
               "unpinned_probe": unpinned, "defect_probe": defect,
               "spans_per_op": {str(k): v for k, v in table.items()}}
    print(f"traced op_s_p50 = {traced_p50:.4f} s over {len(traced)} ops, untraced "
          f"{untraced_p50:.4f} s over {len(untraced)} ops "
          f"(overhead {metrics['trace.overhead']:+.2%})")
    layer_s = {n: mean_self(n) for n in SPAN_NAMES if mean_self(n) > 0}
    for name, s in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:32s} {s:9.4f} s/op  {s / metrics['trace.op_s_mean']:6.1%}")
    print(f"  {'(no layer span)':32s} {metrics['trace.uncovered_s']:9.4f} s/op  "
          f"{metrics['trace.uncovered_s'] / metrics['trace.op_s_mean']:6.1%}")
    if unpinned:
        print(f"unpinned sweep op (fresh interpreter, default BLAS threads): "
              f"{'cut at ' if unpinned['timed_out'] else ''}{unpinned['op_s']:.3f} s, "
              f"threads {unpinned['blas_threads']}")
    return metrics, failures, details, tracer


def emit(section: str, metrics: dict) -> dict:
    """Attach units from BENCHMARK.json; the names must match it exactly."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    if set(declared) != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {section}: missing "
            f"{sorted(set(declared) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(declared))}"
        )
    return {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if not (SRC / "lvsync" / "cli.py").is_file():
        print(f"perfbench: no lvsync sources at {SRC}", file=sys.stderr)
        return 2
    if not args.unpinned:
        for var in PIN_VARS:
            os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import lvsync.cli

    import_s = time.perf_counter() - t0
    if Path(lvsync.cli.__file__).resolve().parent != (SRC / "lvsync").resolve():
        print(f"perfbench: imported lvsync from {lvsync.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment(args.seed, wl.workers)
    if not args.unpinned and any(n != 1 for n in env["blas_threads"].values()):
        print(f"perfbench: BLAS not pinned to 1 thread: {env['blas_threads']}", file=sys.stderr)
        return 2

    run_dir = RUNS / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe:
            op = run_op(lvsync.cli.main, wl, args.seed, 0, run_dir, wl.workers)
            print(json.dumps({"import_s": import_s, "op_s": op["wall_s"],
                              "failure": op["failure"], "blas_threads": env["blas_threads"]}))
            return 0
        print("# env " + json.dumps(env, sort_keys=True))
        if args.trace:
            metrics, failures, details, tracer = run_traced(
                lvsync.cli.main, wl, args.seed, args.seconds, run_dir)
            tracer.write_spans(RUNS / f"{args.workload}-seed{args.seed}-spans.jsonl")
            section = "per_layer"
        else:
            metrics, failures, details = run_end_to_end(
                lvsync.cli.main, wl, args.seed, args.seconds, import_s, run_dir)
            section = "end_to_end"
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(f is not None for f in failures)
    print(f"fail_ratio = {failed / len(failures):.4f} ({failed} of {len(failures)} ops)")
    result = {"correct": failed == 0, "attempted": len(failures), "failed": failed,
              "metrics": emit(section, metrics)}
    with open(RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "import_s": import_s, "details": details, **result}, fh,
                  indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
