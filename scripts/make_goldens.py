#!/usr/bin/env python3
"""Regenerate the frozen oracle values used in the test suite.

Run from the repository root:  python3 scripts/make_goldens.py

Every number printed here is computed by an independent route (fine-grid
Richardson extrapolation, dense eigendecomposition, closed forms) and then
frozen into the tests by hand. Re-run after any change to the solvers to
confirm the frozen values still reproduce.
"""

import math
import time

import numpy as np
import scipy.linalg as sla

from lvsync import (
    Field,
    Grid,
    ModelParams,
    WeightedOperator,
    interpolate,
    solve_logistic,
    synchronized_state,
    verify_theorem,
)
from lvsync.dynamics import decay_rate, evolve, random_perturbation
from lvsync.linstab import s_parameter


def grid1d(n, length=math.pi):
    return Grid("interval", (length,), (n,))


def main():
    print("== logistic theta(pi/2) oracle, a=2 on (0, pi) ==")
    vals = {}
    for n in (400, 2000, 4000):
        g = grid1d(n)
        # Newton residual floor scales with eps*h^-2; keep tol above it
        sol = solve_logistic(g, 2.0, tol=1e-10 if n <= 800 else 1e-8)
        vals[n] = interpolate(sol.theta, [math.pi / 2])
        print(f"  n={n:5d}: theta(pi/2) = {vals[n]:.15f}   max theta = {sol.theta.max():.15f}")
    richardson = vals[4000] + (vals[4000] - vals[2000]) / 3.0
    print(f"  Richardson (n=2000,4000, order 2): theta(pi/2) ~= {richardson:.15f}")
    print(f"  n=400 discretization error vs oracle: {abs(vals[400] - richardson):.3e}")

    print("\n== dense-oracle eigenvalues of weight a - s1*theta, a=2, b=0.5, c=1, n=400, k=10 ==")
    g = grid1d(400)
    sol = solve_logistic(g, 2.0, tol=1e-10)
    s1 = s_parameter(0.5, 1.0)
    op = WeightedOperator(g, sol.a - s1 * sol.theta)
    for i, lam in enumerate(sla.eigh((-op.matrix).toarray(), eigvals_only=True)[:10]):
        print(f"  lambda[{i}] = {lam:.15f}")

    print("\n== steady-state identity error, b~U(0.01,0.99), c~U(0.05,4), seed 20260810, n=1000 ==")
    rng = np.random.default_rng(20260810)
    worst_1 = worst_2 = 0.0
    for _ in range(1000):
        b = rng.uniform(0.01, 0.99)
        c = rng.uniform(0.05, 4.0)
        denom = 1.0 + b * c
        alpha, beta = (1.0 - b) / denom, (1.0 + c) / denom
        worst_1 = max(worst_1, abs(alpha + b * beta - 1.0))
        worst_2 = max(worst_2, abs(beta - c * alpha - 1.0))
    print(f"  max |alpha + b*beta - 1| = {worst_1:.3e}")
    print(f"  max |beta - c*alpha - 1| = {worst_2:.3e}")

    print("\n== decay-rate tuning, a=2, b=0.5, c=1, (0,pi), n=200, amplitude 1e-3, seed 0 ==")
    g = grid1d(200)
    params = ModelParams(a=2.0, b=0.5, c=1.0)
    report = verify_theorem(params, g, 6, tol=1e-10)
    mu1 = report.mu1
    print(f"  mu1 = {mu1:.12f}  (verdict {report.verdict})")
    sol = solve_logistic(g, 2.0, tol=1e-10)
    steady = synchronized_state(params, sol)
    u0, v0 = random_perturbation(steady, 1e-3, seed=0)
    for dt in (1e-3, 5e-4):
        t0 = time.perf_counter()
        traj = evolve(u0, v0, params, dt=dt, t_end=22.0, store_every=max(1, int(0.1 / dt)))
        fit = decay_rate(traj, steady)
        print(
            f"  dt={dt:g}: rate = {fit.rate:.9f}  rel dev from -mu1 = "
            f"{abs(fit.rate + mu1) / mu1:.3e}  r^2 = {fit.r_squared:.6f}  "
            f"({time.perf_counter() - t0:.1f}s, window {fit.window})"
        )

    print("\n== near-bifurcation amplitude scaling, a = 1 + eps on (0,pi), n=400 ==")
    g = grid1d(400)
    prev = None
    for eps in (0.05, 0.025, 0.0125):
        sol = solve_logistic(g, 1.0 + eps, tol=1e-10)
        m = sol.theta.max()
        ratio = "" if prev is None else f"   ratio vs previous = {prev / m:.4f}"
        print(f"  eps={eps:7.4f}: max theta = {m:.8f}{ratio}")
        prev = m

    print("\n== residual of theta == a (constant interior), a=2, (0,pi), n=100 ==")
    g = grid1d(100)
    h = g.spacing[0]
    closed_form = 2.0 * math.sqrt(2.0 / h**3)
    from lvsync import logistic_residual

    measured = logistic_residual(Field.constant(g, 2.0), Field.constant(g, 2.0))
    print(f"  closed form a*sqrt(2/h^3) = {closed_form:.12f}   measured = {measured:.12f}")

    print("\n== lambda1(a - theta_a) ~ 0 check, n=400 ==")
    g = grid1d(400)
    for a in (1.5, 2.0, 5.0):
        sol = solve_logistic(g, a, tol=1e-10)
        from lvsync import principal_eigenpair

        lam = principal_eigenpair(WeightedOperator(g, sol.a - sol.theta), tol=1e-10).lam
        print(f"  a={a}: lambda1(a - theta_a) = {lam:+.3e}")


if __name__ == "__main__":
    main()
