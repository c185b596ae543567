#!/usr/bin/env python3
"""Time-domain check of the predicted decay rate.

Usage:  python3 scripts/decay_experiment.py [amplitude] [seed]

Perturbs the synchronized steady state (a=2, b=0.5, c=1 on (0, pi), n=200),
integrates with the IMEX scheme at two step sizes, and compares the fitted
decay rate of the distance to the steady state against -mu1 from the
spectral verification. Amplitudes well above 1e-3 leave the linear regime;
the fit quality degrades visibly there, which is the point of trying them.
Exits 1 unless the verdict is `stable` and the dt = 1e-3 fit meets
acceptance criterion 5: within 5 % of -mu1 with r^2 >= 0.999.
"""

import math
import sys

from lvsync import (
    Grid,
    ModelParams,
    decay_rate,
    evolve,
    random_perturbation,
    solve_logistic,
    synchronized_state,
    verify_theorem,
)

# acceptance criterion 5, checked on the dt = 1e-3 fit
DECAY_REL_TOL = 0.05
DECAY_MIN_R2 = 0.999


def main():
    amplitude = float(sys.argv[1]) if len(sys.argv) > 1 else 1e-3
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0

    grid = Grid("interval", (math.pi,), (200,))
    params = ModelParams(a=2.0, b=0.5, c=1.0)
    report = verify_theorem(params, grid, 6, tol=1e-10)
    print(f"spectral verdict: {report.verdict}, mu1 = {report.mu1:.9f}")

    sol = solve_logistic(grid, 2.0, tol=1e-10)
    steady = synchronized_state(params, sol)
    u0, v0 = random_perturbation(steady, amplitude, seed=seed)
    print(f"perturbation amplitude {amplitude:g}, seed {seed}")

    for dt in (1e-3, 5e-4):
        traj = evolve(u0, v0, params, dt=dt, t_end=22.0,
                      store_every=max(1, int(round(0.1 / dt))))
        fit = decay_rate(traj, steady)
        dev = abs(fit.rate + report.mu1) / report.mu1
        print(f"dt={dt:g}: fitted rate {fit.rate:.6f} "
              f"(deviation from -mu1: {dev:.2%}), r^2 = {fit.r_squared:.6f}, "
              f"window {fit.window[0]:.1f}..{fit.window[1]:.1f}, "
              f"monotone={fit.monotone}")
        if dt == 1e-3:
            criterion_5 = dev <= DECAY_REL_TOL and fit.r_squared >= DECAY_MIN_R2
    return 0 if report.verdict == "stable" and criterion_5 else 1


if __name__ == "__main__":
    sys.exit(main())
