#!/usr/bin/env python3
"""Print the coupled-vs-predicted eigenvalue table for one parameter set.

Usage:  python3 scripts/equivalence_table.py [a] [b] [c] [n] [k]

Shows the 2k smallest coupled stability eigenvalues next to the merged
two-family prediction {lambda_i(a - s1*theta)} u {lambda_i(a - 2*theta)},
the per-value relative mismatch, and the component-ratio fit against
z1 = b/c and z2 = (1-b)/(1+c). Exits 1 unless the verdict is `stable`.
"""

import math
import sys

import numpy as np

from lvsync import Domain, Grid, ModelParams, verify_theorem
from lvsync.linstab import mode_ratios


def main():
    argv = sys.argv[1:]
    a = float(argv[0]) if len(argv) > 0 else 2.0
    b = float(argv[1]) if len(argv) > 1 else 0.5
    c = float(argv[2]) if len(argv) > 2 else 1.0
    n = int(argv[3]) if len(argv) > 3 else 200
    k = int(argv[4]) if len(argv) > 4 else 6

    grid = Grid(Domain("interval", (math.pi,), (n,)))
    report = verify_theorem(ModelParams(a=a, b=b, c=c), grid, k, tol=1e-10)
    z1, z2, _ = mode_ratios(b, c)

    print(f"a={a} b={b} c={c} n={n} k={k}")
    print(f"s1 = {report.s_value:.12f}  (second family weight exponent: {report.s_second})")
    print(f"degenerate locus: {report.degenerate}  (band warning: {report.band_warning})")
    print(f"component ratios: z1 = b/c = {z1:.6f}, z2 = (1-b)/(1+c) = {z2:.6f}")
    print()
    print(f"{'i':>3} {'coupled Re':>18} {'coupled Im':>12} {'predicted':>18} {'family':>10} {'rel err':>10}")
    coupled = sorted(report.coupled_eigs, key=lambda v: (v.real, v.imag))
    for i, (mu, pred, fam) in enumerate(
        zip(coupled, report.predicted_eigs, report.predicted_families)
    ):
        rel = abs(mu.real - pred) / max(abs(pred), 1e-300)
        print(f"{i:>3} {mu.real:>18.12f} {mu.imag:>12.2e} {pred:>18.12f} {fam:>10} {rel:>10.2e}")
    print()
    print(f"max relative mismatch (cluster-aware): {report.max_rel_mismatch:.3e}")
    print(f"max |Im mu|: {report.max_imag:.3e}")
    if report.ratio_errors:
        print(f"worst component-ratio error: {max(report.ratio_errors):.3e}")
    print(f"mu1 = {report.mu1:.12f}  ->  verdict: {report.verdict}")
    if report.cause:
        print(f"cause: {report.cause}")
    return 0 if report.verdict == "stable" else 1


if __name__ == "__main__":
    sys.exit(main())
