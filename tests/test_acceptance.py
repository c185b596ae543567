"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them).

Criteria 1 and 2 exist in two variants. The literal forms assert that the
twelve smallest coupled eigenvalues are the six eigenvalues of the single
weight a - s1*theta each duplicated (and that both component ansatz vectors
pair with that one weight). Direct substitution of the eigenvector ansatz
shows the coupled spectrum is instead the union of TWO scalar families,
with weights a - s1*theta and a - 2*theta: the two roots of the component
quadratic belong to different decoupling exponents, and the constant 2x2
mixing matrix [[alpha+1, b*alpha], [-c*beta, beta+1]] has eigenvalues
exactly {s1, 2}. The literal tests are therefore expected failures (strict:
the suite errors if reality ever stops contradicting them), and the
corrected two-family forms assert the same tolerances and pass. The
stability conclusion itself is unaffected: both families are positive.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from lvsync import (
    CoupledJacobian,
    Field,
    Grid,
    ModelParams,
    WeightedOperator,
    decay_rate,
    eigenpairs,
    evolve,
    interpolate,
    principal_eigenpair,
    random_perturbation,
    solve_logistic,
    synchronized_state,
    uniqueness_probe,
    verify_theorem,
)
from lvsync.cli import main as cli_main
from lvsync.grid import laplacian
from lvsync.linstab import (
    ansatz_coefficients,
    ansatz_residual,
    component_projection,
    coupled_eigenpairs,
    predicted_spectrum,
    s_parameter,
)

A_DEFAULT, B_DEFAULT, C_DEFAULT = 2.0, 0.5, 1.0
S1_DEFAULT = 5.0 / 3.0


def report_line(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({label}): {status}" + (f" — {detail}" if detail else ""))


def grid1d(n, length=math.pi):
    return Grid("interval", (length,), (n,))


@pytest.fixture(scope="module")
def coupled12(grid200, steady200, params_default):
    J = CoupledJacobian(grid200, steady200.u, steady200.v, params_default)
    t0 = time.perf_counter()
    vals, vecs = coupled_eigenpairs(J, 12, tol=1e-10)
    elapsed = time.perf_counter() - t0
    return J, vals, vecs, elapsed


@pytest.fixture(scope="module")
def scalar_s1_six(grid200, theta200):
    op = WeightedOperator(grid200, theta200.a - S1_DEFAULT * theta200.theta)
    return eigenpairs(op, 6, tol=1e-10)


@pytest.mark.xfail(
    strict=True,
    reason="the coupled spectrum is the union of the a-s1*theta and a-2*theta "
    "families, not one family duplicated; see module docstring",
)
def test_criterion_1_spectral_equivalence_as_stated(coupled12, scalar_s1_six):
    _, vals, _, elapsed = coupled12
    predicted = np.repeat(scalar_s1_six.values, 2)
    rel = np.abs(np.sort(vals.real) - predicted) / np.abs(predicted)
    ok = (
        rel.max() <= 1e-8
        and np.abs(vals.imag).max() <= 1e-8
        and elapsed <= 10.0
    )
    report_line(1, "spectral equivalence, literal duplicated-family form", ok,
                f"max rel mismatch {rel.max():.3e} vs 1e-8")
    assert ok


def test_criterion_1_spectral_equivalence_two_families(
    coupled12, grid200, theta200, params_default
):
    J, vals, _, elapsed = coupled12
    t0 = time.perf_counter()
    predicted, _ = predicted_spectrum(
        grid200, theta200.a, theta200.theta, B_DEFAULT, C_DEFAULT, 12, tol=1e-10
    )
    elapsed += time.perf_counter() - t0
    pred_vals = np.array([p[0] for p in predicted])
    rel = np.abs(np.sort(vals.real) - pred_vals) / np.abs(pred_vals)
    # independent oracle: raw dense eigendecomposition of the same matrix
    oracle = np.sort(sla.eigvals((-J.matrix).toarray()).real)[:12]
    oracle_rel = np.abs(np.sort(vals.real) - oracle) / np.abs(oracle)
    ok = (
        rel.max() <= 1e-8
        and np.abs(vals.imag).max() <= 1e-8
        and oracle_rel.max() <= 1e-8
        and elapsed <= 10.0
    )
    report_line(1, "spectral equivalence, corrected two-family union", ok,
                f"max rel mismatch {rel.max():.3e}, max imag {np.abs(vals.imag).max():.1e}, "
                f"runtime {elapsed:.2f}s")
    assert rel.max() <= 1e-8
    assert np.abs(vals.imag).max() <= 1e-8
    assert oracle_rel.max() <= 1e-8
    assert elapsed <= 10.0


@pytest.mark.xfail(
    strict=True,
    reason="(1-b, 1+c) pairs with eigenfunctions of a-2*theta, not a-s1*theta; "
    "applying it to the s1 family leaves an O(1) defect",
)
def test_criterion_2_direct_ansatz_as_stated(coupled12, scalar_s1_six, params_default):
    J, _, _, _ = coupled12
    b, c = params_default.b, params_default.c
    worst = 0.0
    for pair in scalar_s1_six.pairs:
        for coeffs in ((b, c), (1.0 - b, 1.0 + c)):
            worst = max(worst, ansatz_residual(J, pair, coeffs))
    ok = worst <= 1e-9
    report_line(2, "direct ansatz, literal single-weight form", ok,
                f"worst residual {worst:.3e} vs 1e-9")
    assert ok


def test_criterion_2_direct_ansatz_correct_pairing(
    coupled12, grid200, theta200, params_default
):
    # no coupled eigensolver anywhere in this check: scalar eigenpairs in,
    # matrix-vector application out
    J, _, _, _ = coupled12
    b, c = params_default.b, params_default.c
    _, spectra = predicted_spectrum(
        grid200, theta200.a, theta200.theta, b, c, 12, tol=1e-10
    )
    worst = 0.0
    for family in ("s1", "two"):
        for pair in spectra[family].pairs[:6]:
            res = ansatz_residual(J, pair, ansatz_coefficients(b, c, family))
            worst = max(worst, res)
    ok = worst <= 1e-9
    report_line(2, "direct ansatz, corrected family pairing", ok,
                f"worst residual {worst:.3e} vs 1e-9")
    assert ok


def test_criterion_3_degenerate_case(grid200):
    c = 1.0
    b = 1.0 / 3.0
    s = s_parameter(b, c)
    s_ok = abs(s - 2.0) <= 4 * math.ulp(2.0)

    sol = solve_logistic(grid200, A_DEFAULT, tol=1e-10)
    params = ModelParams(a=A_DEFAULT, b=b, c=c)
    steady = synchronized_state(params, sol)
    J = CoupledJacobian(grid200, steady.u, steady.v, params)
    vals, vecs = coupled_eigenpairs(J, 12, tol=1e-10)
    scalar = eigenpairs(
        WeightedOperator(grid200, sol.a - 2.0 * sol.theta), 6, tol=1e-10
    ).values
    predicted = np.repeat(scalar, 2)
    rel = np.abs(np.sort(vals.real) - predicted) / predicted
    spectrum_ok = rel.max() <= 1e-6
    # robust form: defective pairs compared by their means
    pair_means = np.sort(vals.real).reshape(6, 2).mean(axis=1)
    means_ok = (np.abs(pair_means - scalar) / scalar).max() <= 1e-8

    # reduction xi = (2c+1)phi - psi lands in the a-2*theta eigenspace (or 0)
    M2 = laplacian(grid200) + sp.diags(sol.a.values - 2.0 * sol.theta.values)
    scale = math.sqrt(grid200.cell_volume)
    worst_red = 0.0
    for j in range(vals.size):
        xi = component_projection(vecs[:, j], 2.0 * c + 1.0, -1.0, grid200)
        worst_red = max(worst_red, float(np.linalg.norm(M2 @ xi + vals[j] * xi) * scale))
    reduction_ok = worst_red <= 1e-6

    ok = s_ok and spectrum_ok and means_ok and reduction_ok
    report_line(3, "degenerate locus b=c/(2c+1)", ok,
                f"|s-2|={abs(s-2.0):.1e}, spectrum rel {rel.max():.3e}, "
                f"reduction residual {worst_red:.3e}")
    assert s_ok
    assert spectrum_ok
    assert means_ok
    assert reduction_ok


def test_criterion_4_stability_sweep(tmp_path):
    out = tmp_path / "sweep"
    t0 = time.perf_counter()
    code = cli_main([
        "sweep", "--domain", "interval:0:pi", "--n", "100", "--a", "2", "--k", "6",
        "--sweep-b", "0.1:0.9:0.1", "--sweep-c", "0.5,1,2,4", "--out", str(out),
    ])
    elapsed = time.perf_counter() - t0
    assert code == 0
    records = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
    n_ok = len(records) == 36
    all_stable = all(r["verdict"] == "stable" for r in records)
    mu1_ok = all(r["mu1"] > 0 for r in records)
    time_ok = elapsed <= 300.0
    degenerate_jobs = [r for r in records if r["degenerate"]]
    ok = n_ok and all_stable and mu1_ok and time_ok
    report_line(4, "36-point stability sweep", ok,
                f"{len(records)} jobs, min mu1 {min(r['mu1'] for r in records):.4f}, "
                f"{len(degenerate_jobs)} degenerate, runtime {elapsed:.1f}s")
    assert n_ok and all_stable and mu1_ok and time_ok


def test_criterion_5_decay_rate(grid200, steady200, params_default, report200):
    mu1 = report200.mu1
    u0, v0 = random_perturbation(steady200, 1e-3, seed=0)
    rates = {}
    r2 = {}
    for dt in (1e-3, 5e-4):
        traj = evolve(u0, v0, params_default, dt=dt, t_end=22.0,
                      store_every=max(1, int(round(0.1 / dt))))
        fit = decay_rate(traj, steady200)
        rates[dt] = fit.rate
        r2[dt] = fit.r_squared
    dev = abs(rates[1e-3] + mu1) / mu1
    halving_change = abs(rates[1e-3] - rates[5e-4]) / abs(rates[5e-4])
    ok = dev <= 0.05 and r2[1e-3] >= 0.999 and halving_change < 0.01
    report_line(5, "decay-rate confirmation", ok,
                f"rate {rates[1e-3]:.5f} vs -mu1 {-mu1:.5f} (dev {dev:.2%}), "
                f"r2 {r2[1e-3]:.5f}, dt-halving change {halving_change:.3%}")
    assert dev <= 0.05
    assert r2[1e-3] >= 0.999
    assert halving_change < 0.01


def test_criterion_6_scalar_infrastructure():
    # (a) discrete Laplacian eigenvalues against the closed form
    closed_ok = True
    for n in (3, 50, 200):
        g = grid1d(n)
        h = g.spacing[0]
        k = min(5, n - 2)  # the eigen window: at n = 3 only λ1
        spec = eigenpairs(WeightedOperator(g, Field.constant(g, 0.0)), k, tol=1e-10)
        for j in range(k):
            exact = (4.0 / h**2) * math.sin((j + 1) * h / 2.0) ** 2
            closed_ok &= abs(spec.values[j] - exact) / exact <= 1e-12

    # (b) lambda1(a - theta_a) = 0 for several growth rates
    g400 = grid1d(400)
    zero_ok = True
    zero_worst = 0.0
    for a in (1.5, 2.0, 5.0):
        sol = solve_logistic(g400, a, tol=1e-10)
        lam = principal_eigenpair(
            WeightedOperator(g400, sol.a - sol.theta), tol=1e-9
        ).lam
        zero_worst = max(zero_worst, abs(lam))
        zero_ok &= abs(lam) <= 1e-8

    # (c) eigenvalue monotonicity on 50 random weight pairs
    rng = np.random.default_rng(20260810)
    g = grid1d(40)
    mono_ok = True
    for _ in range(50):
        m1 = rng.uniform(-2.0, 2.0, size=g.size)
        m2 = m1 + rng.uniform(0.0, 1.5, size=g.size)
        s1 = eigenpairs(WeightedOperator(g, Field(g, m1)), 3, tol=1e-10).values
        s2 = eigenpairs(WeightedOperator(g, Field(g, m2)), 3, tol=1e-10).values
        mono_ok &= bool(np.all(s1 >= s2 - 1e-10)) and s1[0] > s2[0]

    ok = closed_ok and zero_ok and mono_ok
    report_line(6, "scalar infrastructure", ok,
                f"closed-form 1e-12: {closed_ok}, worst |lambda1(a-theta)| "
                f"{zero_worst:.2e}, monotonicity 50 pairs: {mono_ok}")
    assert closed_ok and zero_ok and mono_ok


def test_criterion_7_steady_state_identities(theta200, steady200, params_default):
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(1000):
        b = rng.uniform(0.01, 0.99)
        c = rng.uniform(0.05, 4.0)
        denom = 1.0 + b * c
        alpha, beta = (1.0 - b) / denom, (1.0 + c) / denom
        worst = max(worst, abs(alpha + b * beta - 1.0), abs(beta - c * alpha - 1.0))
    identities_ok = worst <= 1e-15

    from lvsync import system_residual

    r_u, r_v = system_residual(steady200.u, steady200.v, params_default)
    rho = theta200.residual_norm
    residual_ok = max(r_u, r_v) <= 10.0 * rho
    ok = identities_ok and residual_ok
    report_line(7, "steady-state identities", ok,
                f"worst identity error {worst:.2e} vs 1e-15; system residual "
                f"({r_u:.2e}, {r_v:.2e}) vs 10x logistic {10 * rho:.2e}")
    assert identities_ok and residual_ok


def test_criterion_8_uniqueness_probes(grid200):
    rep1 = uniqueness_probe(grid200, 2.0, 20, tol=1e-10, seed=0)
    g2 = Grid("rectangle", (1.0, 1.0), (24, 24))
    rep2 = uniqueness_probe(g2, 25.0, 20, tol=1e-9, seed=0)
    ok = rep1.n_distinct_positive == 1 and rep2.n_distinct_positive == 1
    report_line(8, "uniqueness probes", ok,
                f"1D: {rep1.n_distinct_positive} distinct "
                f"({rep1.n_positive} positive / {rep1.n_zero} zero); "
                f"2D: {rep2.n_distinct_positive} distinct "
                f"({rep2.n_positive} positive / {rep2.n_zero} zero)")
    assert rep1.n_distinct_positive == 1
    assert rep2.n_distinct_positive == 1


def test_criterion_9_grid_convergence():
    lam_err = {}
    theta_val = {}
    for n in (100, 200, 400, 800):
        g = grid1d(n)
        lam_err[n] = abs(
            principal_eigenpair(WeightedOperator(g, Field.constant(g, 0.0)), tol=1e-8).lam
            - 1.0
        )
        sol = solve_logistic(g, 2.0, tol=1e-9)
        theta_val[n] = interpolate(sol.theta, [math.pi / 2])
    ns = (100, 200, 400, 800)
    lam_orders = [
        math.log2(lam_err[ns[i]] / lam_err[ns[i + 1]]) for i in range(3)
    ]
    diffs = [theta_val[ns[i]] - theta_val[ns[i + 1]] for i in range(3)]
    theta_orders = [math.log2(diffs[0] / diffs[1]), math.log2(diffs[1] / diffs[2])]
    lam_ok = all(1.8 <= p <= 2.2 for p in lam_orders)
    theta_ok = all(1.8 <= p <= 2.2 for p in theta_orders)
    ok = lam_ok and theta_ok
    report_line(9, "grid convergence order 2 +/- 0.2", ok,
                f"lambda1 orders {[f'{p:.2f}' for p in lam_orders]}, "
                f"theta orders {[f'{p:.2f}' for p in theta_orders]}")
    assert lam_ok and theta_ok


def test_criterion_10_determinism(tmp_path):
    cases = {
        "theta": ["theta", "--domain", "interval:0:pi", "--n", "100", "--a", "2"],
        "verify": ["verify", "--domain", "interval:0:pi", "--n", "80", "--a", "2",
                   "--b", "0.5", "--c", "1", "--k", "3"],
        "evolve": ["evolve", "--domain", "interval:0:pi", "--n", "60", "--a", "2",
                   "--b", "0.5", "--c", "1", "--dt", "1e-3", "--t-end", "1",
                   "--store-every", "100", "--seed", "42"],
        "sweep": ["sweep", "--domain", "interval:0:pi", "--n", "40", "--a", "2",
                  "--k", "2", "--sweep-b", "0.3,0.5", "--sweep-c", "1,2"],
    }
    ok = True
    for name, args in cases.items():
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) == 0
        first = {
            p.name: p.read_bytes() for p in out.iterdir() if p.name != "timing.jsonl"
        }
        assert cli_main(args + ["--out", str(out)]) == 0
        second = {
            p.name: p.read_bytes() for p in out.iterdir() if p.name != "timing.jsonl"
        }
        ok &= first == second
    report_line(10, "bit-identical reruns", ok,
                "theta/verify/evolve/sweep outputs (timing.jsonl excluded by design)")
    assert ok
