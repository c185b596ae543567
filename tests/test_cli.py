import itertools
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from lvsync.cli import (
    field_from_csv,
    fmt_g17,
    main,
    parse_domain,
    parse_value_list,
    read_field_csv,
    write_field_csv,
)
from lvsync.grid import Field, Grid
from lvsync.spectral import principal_eigenpair


def run(*args):
    return main(list(args))


def grid1d(n, length=math.pi):
    return Grid("interval", (length,), (n,))


class TestParsing:
    def test_domain_interval_pi(self):
        kind, extents = parse_domain("interval:0:pi")
        assert kind == "interval"
        assert extents == (math.pi,)

    def test_domain_rectangle(self):
        assert parse_domain("rectangle:0:1:0:2") == ("rectangle", (1.0, 2.0))
        assert parse_domain("rectangle:1:2") == ("rectangle", (1.0, 2.0))

    def test_domain_rejects_offset_boxes(self):
        from lvsync.cli import ConfigError

        with pytest.raises(ConfigError, match="anchored"):
            parse_domain("interval:1:2")

    def test_value_list(self):
        assert parse_value_list("0.5,1,2") == [0.5, 1.0, 2.0]
        vals = parse_value_list("0.1:0.4:0.1")
        assert np.allclose(vals, [0.1, 0.2, 0.3, 0.4])

    def test_value_list_range_length_is_capped(self):
        from lvsync.cli import MAX_RANGE_VALUES, ConfigError

        assert len(parse_value_list(f"1:{MAX_RANGE_VALUES}:1")) == MAX_RANGE_VALUES
        with pytest.raises(ConfigError, match="more than"):
            parse_value_list(f"0:{MAX_RANGE_VALUES}:1")


class TestFieldFiles:
    def test_field_csv_roundtrip_1d(self, tmp_path):
        g = grid1d(7)
        f = Field.from_function(g, lambda x: np.sin(3 * x))
        path = tmp_path / "f.csv"
        write_field_csv(f, path)
        header = path.read_text().splitlines()[0]
        assert header == "index,coord1,value"
        back = field_from_csv(path, g)
        assert np.array_equal(back.values, f.values)

    def test_field_csv_roundtrip_2d(self, tmp_path):
        g = Grid("rectangle", (1.0, 2.0), (4, 5))
        rng = np.random.default_rng(0)
        f = Field(g, rng.normal(size=g.size))
        path = tmp_path / "f.csv"
        write_field_csv(f, path)
        header = path.read_text().splitlines()[0]
        assert header == "index,coord1,coord2,value"
        coords, values = read_field_csv(path)
        assert coords.shape == (20, 2)
        assert np.array_equal(values, f.values)

    def test_field_csv_grid_validation(self, tmp_path):
        g = grid1d(7)
        f = Field.constant(g, 1.0)
        path = tmp_path / "f.csv"
        write_field_csv(f, path)
        with pytest.raises(ValueError, match="nodes"):
            field_from_csv(path, grid1d(8))

    @pytest.mark.parametrize("length, moved", [(1e-9, 1.0005e-9), (1e6, 1e6 * (1 + 2e-12))])
    def test_field_csv_coordinates_compare_relatively(self, tmp_path, length, moved):
        """Coordinates match to a relative tolerance at every scale: a file for
        (0, L) loads on its own grid and not on one whose nodes moved."""
        g = grid1d(20, length)
        path = tmp_path / "f.csv"
        write_field_csv(Field.constant(g, 1.0), path)
        assert np.array_equal(field_from_csv(path, g).values, np.ones(20))
        with pytest.raises(ValueError, match="coordinates do not match"):
            field_from_csv(path, grid1d(20, moved))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_field_csv_rejects_non_finite_values(self, tmp_path, bad):
        g = grid1d(7)
        path = tmp_path / "f.csv"
        write_field_csv(Field.constant(g, 1.0), path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="non-finite"):
            field_from_csv(path, g)

    def test_empty_field_file_is_a_value_error(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="is empty"):
            read_field_csv(path)
        with pytest.raises(ValueError, match="is empty"):
            field_from_csv(path, grid1d(7))

    def test_fmt_g17_roundtrip(self):
        for x in (math.pi, 1.0 / 3.0, 1e-300, -2.5e17):
            assert float(fmt_g17(x)) == x


class TestTheta:
    def test_writes_field_and_summary(self, tmp_path):
        out = tmp_path / "run"
        code = run("theta", "--domain", "interval:0:pi", "--n", "400", "--a", "2",
                   "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["residual_norm"] <= 1e-10
        assert summary["lambda1_of_a"] < 0
        coords, values = read_field_csv(out / "theta.csv")
        assert len(values) == 400
        # interpolated midpoint against the fine-grid oracle (goldens script)
        mid = 0.5 * (values[199] + values[200])
        assert abs(mid - 1.162538238436310) <= 5e-6

    def test_subcritical_exit_code(self, tmp_path, capsys):
        code = run("theta", "--domain", "interval:0:pi", "--n", "100", "--a", "0.5",
                   "--out", str(tmp_path / "o"))
        assert code == 2
        assert "subcritical: a <= lambda1" in capsys.readouterr().err

    def test_sin_profile(self, tmp_path):
        out = tmp_path / "o"
        code = run("theta", "--domain", "interval:0:pi", "--n", "150",
                   "--a", "profile:sin", "--a0", "1.5", "--a1", "0.5", "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["residual_norm"] <= 1e-10
        # b and c are not theta inputs, so an out-of-range b is not an error
        assert run("theta", "--n", "30", "--b", "1.5", "--out", str(tmp_path / "b")) == 0

    def test_file_profile_matches_named_profile(self, tmp_path):
        # write the sin profile as a field file, then solve via file: and via
        # profile:sin; the routes must agree bitwise
        from lvsync import Field, Grid
        g = Grid("interval", (math.pi,), (100,))
        # same float expression the sin profile evaluates, for a bitwise match
        a = Field.from_function(g, lambda x: 1.5 + 0.5 * np.sin(math.pi * x / math.pi))
        a_path = tmp_path / "a.csv"
        write_field_csv(a, a_path)
        out1, out2 = tmp_path / "by_file", tmp_path / "by_profile"
        assert run("theta", "--domain", "interval:0:pi", "--n", "100",
                   "--a", f"file:{a_path}", "--out", str(out1)) == 0
        assert run("theta", "--domain", "interval:0:pi", "--n", "100",
                   "--a", "profile:sin", "--a0", "1.5", "--a1", "0.5",
                   "--out", str(out2)) == 0
        assert (out1 / "theta.csv").read_bytes() == (out2 / "theta.csv").read_bytes()

    def test_missing_growth_file(self, tmp_path, capsys):
        code = run("theta", "--a", "file:/nonexistent.csv", "--out", str(tmp_path / "o"))
        assert code == 1
        assert "not found" in capsys.readouterr().err


class TestSteadyAndSpectrum:
    def test_steady_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = run("steady", "--domain", "interval:0:pi", "--n", "100", "--a", "2",
                   "--b", "0.5", "--c", "1", "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["alpha"] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert summary["beta"] == pytest.approx(4.0 / 3.0, rel=1e-14)
        _, u = read_field_csv(out / "u.csv")
        _, v = read_field_csv(out / "v.csv")
        assert np.allclose(u / v, 0.25, rtol=1e-12)

    def test_2d_theta_with_tensorized_profile(self, tmp_path):
        out = tmp_path / "o"
        code = run("theta", "--domain", "rectangle:0:1:0:1", "--n", "12,12",
                   "--a", "profile:sin", "--a0", "25", "--a1", "5", "--out", str(out))
        assert code == 0
        coords, values = read_field_csv(out / "theta.csv")
        assert coords.shape == (144, 2)
        assert values.min() > 0

    def test_spectrum_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = run("spectrum", "--domain", "interval:0:pi", "--n", "80", "--a", "0",
                   "--k", "3", "--functions", "--out", str(out))
        assert code == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "index,lambda,residual"
        assert len(lines) == 4
        lam1 = float(lines[1].split(",")[1])
        assert lam1 == pytest.approx(1.0, abs=1e-3)
        assert (out / "eigenfunction_000.csv").exists()
        assert (out / "eigenfunction_002.csv").exists()

    @pytest.mark.parametrize("domain, n", [("interval:0:pi", "60"), ("rectangle:2:1", "12,8")])
    def test_spectrum_csv_and_json_agree_bit_for_bit(self, tmp_path, domain, n):
        def spectrum(fmt):
            out = tmp_path / fmt
            assert run("spectrum", "--domain", domain, "--n", n, "--a", "2", "--k", "4",
                       "--functions", "--format", fmt, "--out", str(out)) == 0
            return out

        csv_out, json_out = spectrum("csv"), spectrum("json")
        table = np.loadtxt(csv_out / "spectrum.csv", delimiter=",", skiprows=1)
        records = json.loads((json_out / "spectrum.json").read_text())
        assert np.array_equal(table, [[r["index"], r["lambda"], r["residual"]] for r in records])
        for i in range(4):
            coords, values = read_field_csv(csv_out / f"eigenfunction_{i:03d}.csv")
            field = json.loads((json_out / f"eigenfunction_{i:03d}.json").read_text())
            assert np.array_equal(coords, field["coords"])
            assert np.array_equal(values, field["values"])

    @pytest.mark.parametrize("domain, n, k, simple", [
        pytest.param("interval:0:pi", "300", "10", [5, 6, 9], id="interval-300"),
        pytest.param("rectangle:pi:pi", "20,20", "11", [0, 3, 10], id="square-20x20"),
    ])
    def test_eigenfunction_signs_do_not_depend_on_the_kernel(
        self, tmp_path, monkeypatch, domain, n, k, simple
    ):
        # the same simple-eigenvalue eigenfunctions whether factorize picks
        # a LAPACK kernel or SuperLU. On (0, π) the ± peaks of modes 5, 6
        # and 9 agree to rounding; index 3 of the square is its (2, 2)
        # mode, orthogonal to every weight linear in x and y
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        import lvsync.spectral

        def spectrum(out):
            assert run("spectrum", "--domain", domain, "--n", n, "--a", "2", "--k", k,
                       "--functions", "--out", str(out)) == 0
            lam = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)[:, 1]
            return lam, [read_field_csv(out / f"eigenfunction_{i:03d}.csv")[1] for i in simple]

        lam, lapack = spectrum(tmp_path / "lapack")
        monkeypatch.setattr(
            lvsync.spectral, "factorize",
            lambda A, sigma: spla.splu((A - sigma * sp.identity(A.shape[0])).tocsc(),
                                       permc_spec="MMD_AT_PLUS_A"))
        _, superlu = spectrum(tmp_path / "superlu")
        gaps = np.abs(lam[:, None] - lam[None, :]) + np.eye(len(lam))
        for i, x, y in zip(simple, lapack, superlu):
            assert gaps[i].min() > 0.1  # a simple eigenvalue
            assert np.abs(x - y).max() <= 1e-8 * np.abs(x).max()


class TestVerify:
    def test_stable_case(self, tmp_path):
        out = tmp_path / "o"
        code = run("verify", "--domain", "interval:0:pi", "--n", "200", "--a", "2",
                   "--b", "0.5", "--c", "1", "--k", "6", "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "stable"
        assert report["max_rel_mismatch"] <= 1e-8
        table = (out / "eigentable.csv").read_text().splitlines()
        assert len(table) == 1 + 12

    def test_degenerate_flag(self, tmp_path):
        out = tmp_path / "o"
        code = run("verify", "--domain", "interval:0:pi", "--n", "100", "--a", "2",
                   "--b", "0.333333333333", "--c", "1", "--k", "3", "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        # b is 3.3e-13 from c/(2c+1), within DEGENERATE_TOL: flagged, and both families
        # are solved as anywhere else
        assert report["degenerate"] is True
        assert report["verdict"] == "stable"
        assert report["max_rel_mismatch"] <= 1e-6
        assert report["max_rel_mismatch"] <= report["mismatch_threshold"]

    def test_exact_degenerate(self, tmp_path):
        out = tmp_path / "o"
        code = run("verify", "--domain", "interval:0:pi", "--n", "100", "--a", "2",
                   "--b", "0.4", "--c", "2", "--k", "3", "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["degenerate"] is True
        assert report["s_value"] == pytest.approx(2.0, abs=1e-14)

    def test_arpack_failure_exits_1_with_a_report(self, monkeypatch, tmp_path, capsys,
                                                   arpack_error):
        import scipy.sparse.linalg as spla

        def failing(*args, **kwargs):
            raise arpack_error

        monkeypatch.setattr(spla, "eigs", failing)
        out = tmp_path / "o"
        code = run("verify", "--n", "40", "--a", "2", "--k", "3", "--out", str(out))
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "inconclusive"
        assert report["cause"].startswith("solver failure: ARPACK error")
        assert capsys.readouterr().out.startswith("verdict: inconclusive (solver failure: ARPACK")

    def test_invalid_b_fails_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = run("verify", "--b", "1.5", "--out", str(out))
        assert code == 1
        assert "(0, 1)" in capsys.readouterr().err
        assert not out.exists()  # validation precedes any output or solve

    def test_subcritical_exit(self, tmp_path):
        code = run("verify", "--domain", "interval:0:pi", "--n", "80", "--a", "0.5",
                   "--b", "0.5", "--c", "1", "--out", str(tmp_path / "o"))
        assert code == 2


class TestEvolve:
    def test_outputs_and_decay(self, tmp_path):
        # t_end long enough that the default fit window outruns the
        # second-mode transient
        out = tmp_path / "o"
        code = run("evolve", "--domain", "interval:0:pi", "--n", "100", "--a", "2",
                   "--b", "0.5", "--c", "1", "--dt", "1e-3", "--t-end", "22",
                   "--store-every", "100", "--amplitude", "1e-3", "--seed", "7",
                   "--snapshots", "0,6", "--out", str(out))
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,norm_u_dist,norm_v_dist,total_dist"
        first = float(lines[1].split(",")[3])
        last = float(lines[-1].split(",")[3])
        assert last < 1e-3 * first
        decay = json.loads((out / "decay.json").read_text())
        assert abs(decay["rate"] + decay["mu1_predicted"]) / decay["mu1_predicted"] <= 0.05
        assert (out / "snapshot_u_000.csv").exists()
        assert (out / "snapshot_v_001.csv").exists()

    def test_snapshots_only_at_stored_steps(self, tmp_path, capsys):
        args = ("evolve", "--n", "50", "--a", "2", "--b", "0.5", "--c", "1", "--dt", "1e-3",
                "--t-end", "0.25", "--store-every", "100")
        assert run(*args, "--snapshots", "0.06", "--out", str(tmp_path / "never")) == 1
        assert "store_every * dt = 0.1" in capsys.readouterr().err
        # the final step is stored too, off the store interval
        out = tmp_path / "o"
        assert run(*args, "--snapshots", "0.2,0.25", "--out", str(out)) == 0
        times = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[:, 0]
        assert np.allclose(times, [0.0, 0.1, 0.2, 0.25], rtol=1e-12)
        assert (out / "snapshot_v_001.csv").exists()

    def test_final_stored_step_past_t_end_is_a_snapshot(self, tmp_path, capsys):
        # ⌈0.01 / 3e-3⌉ = 4 steps end at 0.012: the run to t_end = 0.012
        # takes the same steps and stores the same final state
        args = ("evolve", "--n", "20", "--dt", "3e-3", "--store-every", "1")
        assert run(*args, "--t-end", "0.01", "--snapshots", "0.01",
                   "--out", str(tmp_path / "never")) == 1
        assert "the final time 0.012, got [0.01]" in capsys.readouterr().err
        for t_end in ("0.01", "0.012"):
            assert run(*args, "--t-end", t_end, "--snapshots", "0.012",
                       "--out", str(tmp_path / t_end)) == 0
        assert ((tmp_path / "0.01" / "snapshot_u_000.csv").read_bytes()
                == (tmp_path / "0.012" / "snapshot_u_000.csv").read_bytes())

    @pytest.mark.parametrize("b", [0.5, 0.1, 1 / 3])
    def test_two_principal_solves(self, b, tmp_path, monkeypatch):
        # the elliptic solve's λ₁(a) gate and one μ₁ solve, for s₁ below 2,
        # above it and on the locus, where s₁ = (2 + c - b)/(1 + bc) is exactly 2
        import lvsync.cli
        import lvsync.elliptic

        calls = []

        def counted(op, **kwargs):
            calls.append(op)
            return principal_eigenpair(op, **kwargs)

        monkeypatch.setattr(lvsync.cli, "principal_eigenpair", counted)
        monkeypatch.setattr(lvsync.elliptic, "principal_eigenpair", counted)
        assert run("evolve", "--n", "40", "--b", repr(b), "--c", "1", "--t-end", "0.05",
                   "--out", str(tmp_path / "o")) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("domain, n, a", [
        ("interval:0:pi", (40,), 2.0), ("rectangle:pi:pi", (12, 12), 4.0),
    ], ids=["1d", "2d"])
    @pytest.mark.parametrize("b, c", [
        (0.5, 1.0), (0.1, 2.0), (1 / 3, 1.0), (1 / 3 + 1e-7, 1.0), (1 / 3 - 1e-7, 1.0),
    ], ids=["s1-below-2", "s1-above-2", "locus", "locus+1e-7", "locus-1e-7"])
    def test_mu1_is_the_smaller_family_value(self, domain, n, a, b, c, tmp_path):
        # λ₁(a - sθ) increases strictly in s, so the one solve at min(s₁, 2)
        # gives the smaller of the two families' principal eigenvalues, bit for bit
        import scipy.linalg as sla

        from lvsync.elliptic import solve_logistic
        from lvsync.grid import WeightedOperator
        from lvsync.linstab import s_parameter

        out = tmp_path / "o"
        assert run("evolve", "--domain", domain, "--n", ",".join(map(str, n)), "--a", repr(a),
                   "--b", repr(b), "--c", repr(c), "--t-end", "0.05", "--out", str(out)) == 0
        mu1 = json.loads((out / "decay.json").read_text())["mu1_predicted"]
        grid = Grid(*parse_domain(domain), n)
        sol = solve_logistic(grid, a, tol=1e-10)
        ops = [WeightedOperator(grid, sol.a - s * sol.theta) for s in (s_parameter(b, c), 2.0)]
        assert mu1 == min(principal_eigenpair(op, tol=1e-10).lam for op in ops)
        dense = min(sla.eigvalsh((-op.matrix).toarray())[0] for op in ops)
        assert np.isclose(mu1, dense, rtol=1e-9, atol=1e-9)

    def test_zero_amplitude_fit_unavailable(self, tmp_path):
        out = tmp_path / "o"
        code = run("evolve", "--domain", "interval:0:pi", "--n", "60", "--a", "2",
                   "--b", "0.5", "--c", "1", "--dt", "1e-3", "--t-end", "0.5",
                   "--store-every", "50", "--amplitude", "0", "--out", str(out))
        assert code == 0
        decay = json.loads((out / "decay.json").read_text())
        assert "error" in decay

    def test_step_size_failure_exits_1(self, tmp_path, capsys):
        code = run("evolve", "--domain", "interval:0:pi", "--n", "20", "--a", "2",
                   "--b", "0.5", "--c", "1", "--t-end", "0.1", "--dt", "10",
                   "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("solver failure: dt = 1.000e+01 too large")

    def test_negative_initial_data_exits_1(self, tmp_path, capsys):
        # the perturbation outweighs the steady state near the boundary
        code = run("evolve", "--domain", "rectangle:1:1", "--n", "20,20", "--a", "25",
                   "--b", "0.5", "--c", "1", "--dt", "2e-3", "--t-end", "1",
                   "--amplitude", "0.5", "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("perturbation error: the steady state plus noise of "
                              "--amplitude 0.5 is not valid initial data (initial data "
                              "must be finite and nonnegative: u[")
        assert err.endswith("); lower --amplitude\n")
        assert err.count("\n") == 1


class TestSweep:
    def test_mini_sweep(self, tmp_path):
        out = tmp_path / "o"
        code = run("sweep", "--domain", "interval:0:pi", "--n", "50", "--a", "2",
                   "--k", "3", "--sweep-b", "0.3,0.5", "--sweep-c", "1,2",
                   "--out", str(out))
        assert code == 0
        records = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert len(records) == 4
        keys = [(r["a"], r["b"], r["c"], r["resolution"]) for r in records]
        assert keys == sorted(keys)
        assert all(r["verdict"] == "stable" for r in records)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_jobs"] == 4
        assert summary["min_mu1"] > 0
        assert (out / "timing.jsonl").exists()

    def test_workers_do_not_change_results(self, tmp_path):
        args = ["sweep", "--domain", "interval:0:pi", "--n", "40", "--a", "2",
                "--k", "2", "--sweep-b", "0.3,0.6", "--sweep-c", "0.5,1"]
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run(*args, "--workers", "1", "--out", str(out1)) == 0
        assert run(*args, "--workers", "2", "--out", str(out2)) == 0
        assert (out1 / "results.jsonl").read_bytes() == (out2 / "results.jsonl").read_bytes()

    def test_pool_capped_at_job_count(self, tmp_path, monkeypatch):
        import lvsync.cli

        seen = []

        class InProcessPool:  # records the pool size, starts no process
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(lvsync.cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        out = tmp_path / "o"
        code = run("sweep", "--domain", "interval:0:pi", "--n", "40", "--a", "2", "--k", "2",
                   "--sweep-b", "0.3,0.5", "--workers", "2000", "--out", str(out))
        assert code == 0
        assert seen == [2]
        assert len((out / "results.jsonl").read_text().splitlines()) == 2

    @pytest.mark.parametrize("args", [
        ("--n", "10", "--k", "12", "--sweep-n", "40,60", "--sweep-b", "0.5"),
        ("--n", "40", "--a", "profile:sin", "--sweep-a", "1.5,2", "--sweep-b", "0.5"),
    ], ids=["k-above-base-n", "profile-a-replaced-by-axis"])
    def test_checked_through_its_jobs_only(self, tmp_path, args):
        # the base value that fails (n = 10 < k, a non-constant a) is one
        # that no job takes
        out = tmp_path / "o"
        assert run("sweep", *args, "--out", str(out)) == 0
        records = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert len(records) == 2
        assert {r["verdict"] for r in records} == {"stable"}

    def test_profile_a_without_an_a_axis_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert run("sweep", "--n", "40", "--a", "profile:sin", "--sweep-b", "0.5",
                   "--out", str(out)) == 1
        assert "config error: sweep requires a constant growth rate" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_axis_errors(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 2.0, "axes": {"b": []}}))
        code = run("sweep", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "empty sweep" in capsys.readouterr().err

    def test_job_failure_record_has_success_keys(self, tmp_path, monkeypatch):
        import lvsync.cli

        verify = lvsync.cli.verify_theorem

        def failing_verify(params, grid, k, tol, shared):
            if params.b == 0.3:
                raise RuntimeError("injected")
            return verify(params, grid, k, tol=tol, shared=shared)

        monkeypatch.setattr(lvsync.cli, "verify_theorem", failing_verify)
        out = tmp_path / "o"
        code = run("sweep", "--domain", "interval:0:pi", "--n", "40", "--a", "2", "--k", "2",
                   "--sweep-b", "0.3,0.5", "--workers", "1", "--out", str(out))
        assert code == 0
        failed, ok = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert failed["verdict"] == "inconclusive"
        assert failed["cause"].startswith("job failure:")
        assert ok["verdict"] == "stable"
        assert failed.keys() == ok.keys()

    # b=0.4, c=2 lies on the degenerate locus, a=0.5 is subcritical
    ORACLE_ARGS = ("sweep", "--domain", "interval:0:pi", "--n", "40", "--k", "3",
                   "--sweep-a", "0.5,2", "--sweep-n", "40,60", "--sweep-b", "0.4,0.7",
                   "--sweep-c", "1,2")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_shared_half_matches_per_job_verify(self, tmp_path, workers):
        from lvsync import Grid, ModelParams, verify_theorem

        out = tmp_path / "o"
        assert run(*self.ORACLE_ARGS, "--workers", workers, "--out", str(out)) == 0
        expected = []
        for a, b, c, n in itertools.product((0.5, 2.0), (0.4, 0.7), (1.0, 2.0), (40, 60)):
            grid = Grid("interval", (math.pi,), (n,))
            report = verify_theorem(ModelParams(a=a, b=b, c=c), grid, 3, tol=1e-10)
            expected.append(json.dumps({
                "a": a, "b": b, "c": c, "resolution": n,
                "s": report.s_value, "degenerate": report.degenerate,
                "mu1": report.mu1,
                "max_rel_mismatch": report.max_rel_mismatch, "max_imag": report.max_imag,
                "verdict": report.verdict, "cause": report.cause,
            }, sort_keys=True))
        assert (out / "results.jsonl").read_text().splitlines() == expected
        records = [json.loads(line) for line in expected]
        assert sum(r["degenerate"] for r in records) == 4
        assert {r["verdict"] for r in records if r["a"] == 0.5} == {"inconclusive"}
        assert {r["verdict"] for r in records if r["a"] == 2.0} == {"stable"}

    def test_theta_solved_once_per_a_and_n(self, tmp_path, monkeypatch):
        import lvsync.linstab

        solve = lvsync.linstab.solve_logistic
        calls = []

        def counting_solve(grid, a, **kwargs):
            calls.append((float(a.values[0]), grid.size))
            return solve(grid, a, **kwargs)

        monkeypatch.setattr(lvsync.linstab, "solve_logistic", counting_solve)
        code = run(*self.ORACLE_ARGS, "--workers", "1", "--out", str(tmp_path / "o"))
        assert code == 0
        assert calls == [(0.5, 40), (0.5, 60), (2.0, 40), (2.0, 60)]

    def test_failed_two_family_is_each_jobs_cause(self, tmp_path, monkeypatch):
        # the a - 2θ solve runs once per (a, n), and every job of the group,
        # on the degenerate locus or off it, reports its failure exactly as
        # verify_theorem alone does
        import lvsync.linstab
        from lvsync import ModelParams, verify_theorem
        from lvsync.spectral import EigenSolveError

        solve_logistic, eigenpairs = lvsync.linstab.solve_logistic, lvsync.linstab.eigenpairs
        two_weights, failed = [], []

        def recording_solve(grid, a, **kwargs):
            sol = solve_logistic(grid, a, **kwargs)
            two_weights.append((sol.a - 2.0 * sol.theta).values)
            return sol

        def failing_eigenpairs(op, k, tol):
            if any(np.array_equal(op.weight.values, w) for w in two_weights):
                failed.append((op.grid.size, k))
                raise EigenSolveError("injected a - 2θ failure")
            return eigenpairs(op, k, tol)

        monkeypatch.setattr(lvsync.linstab, "solve_logistic", recording_solve)
        monkeypatch.setattr(lvsync.linstab, "eigenpairs", failing_eigenpairs)
        out = tmp_path / "o"
        assert run(*self.ORACLE_ARGS, "--workers", "1", "--out", str(out)) == 0
        assert failed == [(40, 6), (60, 6)]
        records = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        for r in records:
            grid = Grid("interval", (math.pi,), (r["resolution"],))
            params = ModelParams(a=r["a"], b=r["b"], c=r["c"])
            report = verify_theorem(params, grid, 3, tol=1e-10)
            assert r["verdict"] == report.verdict == "inconclusive"
            assert r["cause"] == report.cause
        causes = {r["cause"] for r in records if r["a"] == 2.0}
        assert causes == {"solver failure: injected a - 2θ failure"}
        assert sum(r["degenerate"] for r in records if r["a"] == 2.0) == 2

    def test_arpack_failure_is_a_solver_failure_record(self, tmp_path, monkeypatch,
                                                        arpack_error):
        # a coupled ARPACK failure is the job's solver failure, not a job failure
        import scipy.sparse.linalg as spla

        def failing(*args, **kwargs):
            raise arpack_error

        monkeypatch.setattr(spla, "eigs", failing)
        out = tmp_path / "o"
        assert run(*self.ORACLE_ARGS, "--workers", "1", "--out", str(out)) == 0
        records = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        causes = {r["cause"] for r in records if r["a"] == 2.0}
        assert causes == {f"solver failure: {arpack_error}"}

    def test_failed_shared_half_is_each_jobs_cause(self, tmp_path, monkeypatch):
        # a failure outside the solvers runs once per (a, n) group, and each
        # job of the group records it as its job failure
        import lvsync.cli
        import lvsync.linstab

        calls = []

        def failing_half(a, grid, k, tol):
            calls.append((float(a.values[0]), grid.size))
            raise RuntimeError("injected shared failure")

        monkeypatch.setattr(lvsync.cli, "theta_half", failing_half)
        monkeypatch.setattr(lvsync.linstab, "theta_half", failing_half)
        out = tmp_path / "o"
        assert run(*self.ORACLE_ARGS, "--workers", "1", "--out", str(out)) == 0
        assert calls == [(0.5, 40), (0.5, 60), (2.0, 40), (2.0, 60)]
        records = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert len(records) == 16
        assert {r["verdict"] for r in records} == {"inconclusive"}
        assert {r["cause"] for r in records} == {"job failure: injected shared failure"}
        assert sum(r["degenerate"] for r in records) == 4

    def test_failed_jobs_recorded_inconclusive(self, tmp_path):
        out = tmp_path / "o"
        code = run("sweep", "--domain", "interval:0:pi", "--n", "40", "--k", "2",
                   "--sweep-a", "0.5,2", "--sweep-b", "0.5", "--sweep-c", "1",
                   "--out", str(out))
        assert code == 0
        records = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert len(records) == 2  # record count equals the product size
        verdicts = {r["a"]: r["verdict"] for r in records}
        assert verdicts[0.5] == "inconclusive"
        assert verdicts[2.0] == "stable"


class TestFactorizationRoute:
    @staticmethod
    def spy_kernels(monkeypatch):
        """Record every factorization: SuperLU's C entry point (scipy's splu
        and arpack's own imported copy of it both end there) as its column
        ordering and the order of the matrix, LAPACK's dpttrf and dpbtrf as
        the order of the matrix."""
        import lvsync.grid
        from scipy.sparse.linalg._dsolve import _superlu

        superlu, lapack = [], []
        gstrf = _superlu.gstrf
        dpttrf, dpbtrf = lvsync.grid.dpttrf, lvsync.grid.dpbtrf

        def spy_gstrf(n, *args, **kwargs):
            superlu.append((kwargs["options"]["ColPerm"], n))
            return gstrf(n, *args, **kwargs)

        def spy_dpttrf(d, e):
            lapack.append(d.size)
            return dpttrf(d, e)

        def spy_dpbtrf(ab, **kwargs):
            lapack.append(ab.shape[1])
            return dpbtrf(ab, **kwargs)

        monkeypatch.setattr(_superlu, "gstrf", spy_gstrf)
        monkeypatch.setattr(lvsync.grid, "dpttrf", spy_dpttrf)
        monkeypatch.setattr(lvsync.grid, "dpbtrf", spy_dpbtrf)
        return superlu, lapack

    def test_every_factorization_orders_by_minimum_degree(self, tmp_path, monkeypatch):
        # every run factors something, through some kernel, and every
        # matrix that reaches SuperLU is ordered by minimum degree
        superlu, lapack = self.spy_kernels(monkeypatch)
        square = ("--domain", "rectangle:pi:pi", "--a", "4")
        runs = [
            ("theta", *square, "--n", "10,10"),
            ("spectrum", *square, "--n", "10,10", "--k", "4"),
            ("verify", *square, "--n", "12,12", "--b", "0.3", "--c", "1.7", "--k", "3"),
            ("evolve", *square, "--n", "8,8", "--dt", "1e-3", "--t-end", "0.05"),
            ("sweep", "--domain", "interval:0:pi", "--n", "40", "--a", "2", "--k", "2",
             "--sweep-b", "0.3,0.6", "--sweep-c", "1", "--workers", "1"),
        ]
        for i, args in enumerate(runs):
            before = len(superlu) + len(lapack)
            assert run(*args, "--out", str(tmp_path / str(i))) == 0
            assert len(superlu) + len(lapack) > before, args[0]
        assert superlu and {ordering for ordering, _ in superlu} == {"MMD_AT_PLUS_A"}

    def test_spd_matrices_skip_superlu(self, tmp_path, monkeypatch):
        # 1D and 2D theta, spectrum and evolve runs hand every symmetric
        # positive definite matrix (the shifted scalar operator, Newton's
        # -J, I - dt·Δ) to LAPACK's dpttrf or dpbtrf. Here that is every
        # matrix: -J is positive definite at each Newton iterate of these
        # runs, so nothing reaches SuperLU
        superlu, lapack = self.spy_kernels(monkeypatch)
        domains = [("--domain", "interval:0:pi", "--n", "40", "--a", "2"),
                   ("--domain", "rectangle:pi:pi", "--n", "10,10", "--a", "4")]
        runs = [(command, *domain, *extra)
                for domain in domains
                for command, *extra in [("theta",), ("spectrum", "--k", "4"),
                                        ("evolve", "--dt", "1e-3", "--t-end", "0.05")]]
        for i, args in enumerate(runs):
            before = len(lapack)
            assert run(*args, "--out", str(tmp_path / str(i))) == 0
            assert len(lapack) > before, args
        assert set(lapack) == {40, 100}
        assert superlu == []


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "interval", "extents": [math.pi], "resolution": [80],
            "a": 2.0, "b": 0.3, "c": 1.0, "k": 2,
        }))
        out = tmp_path / "o"
        code = run("verify", "--config", str(cfg), "--b", "0.5", "--out", str(out))
        assert code == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["b"] == 0.5
        assert echoed["resolution"] == [80]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        code = run("theta", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "unknown config file option" in capsys.readouterr().err

    def test_determinism_same_seed(self, tmp_path):
        # identical config (including the out dir) rerun in place
        out = tmp_path / "r"
        args = ["evolve", "--domain", "interval:0:pi", "--n", "60", "--a", "2",
                "--b", "0.5", "--c", "1", "--dt", "1e-3", "--t-end", "1",
                "--store-every", "100", "--seed", "123", "--out", str(out)]
        assert run(*args) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(*args) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_json_format_field_output(self, tmp_path):
        out = tmp_path / "o"
        code = run("theta", "--domain", "interval:0:pi", "--n", "50", "--a", "2",
                   "--format", "json", "--out", str(out))
        assert code == 0
        data = json.loads((out / "theta.json").read_text())
        assert len(data["values"]) == 50


FIELD_100_NODES = "index,coord1,value\n" + "".join(f"{i},{i},2\n" for i in range(100))
# a growth-rate file on the default interval's 20-node grid with a NaN at node 10
FIELD_20_NODES_NAN = "index,coord1,value\n" + "".join(
    f"{i},{x!r},{'nan' if i == 10 else 2}\n"
    for i, x in enumerate(Grid("interval", (math.pi,), (20,)).coords()[:, 0].tolist())
)


@pytest.mark.parametrize("files, args", [
    pytest.param({"cfg.json": '{"resolution": 80}'}, ["theta", "--config", "{tmp}/cfg.json"],
                 id="resolution-not-a-list"),
    pytest.param({"cfg.json": '{"axes": {"b": ["x"]}}'}, ["sweep", "--config", "{tmp}/cfg.json"],
                 id="sweep-axis-not-a-number"),
    pytest.param({"a.csv": FIELD_100_NODES}, ["theta", "--n", "50", "--a", "file:{tmp}/a.csv"],
                 id="growth-file-wrong-node-count"),
    pytest.param({}, ["sweep", "--sweep-b", "1.5"], id="sweep-b-out-of-range"),
    pytest.param({}, ["sweep", "--domain", "rectangle:1:2", "--n", "8,16", "--sweep-b", "0.5"],
                 id="rectangle-sweep-non-square-n"),
    pytest.param({}, ["sweep", "--sweep-n", "20.7"], id="sweep-n-not-an-integer"),
    pytest.param({"cfg.json": '{"b": "x"}'}, ["steady", "--config", "{tmp}/cfg.json"],
                 id="config-value-wrong-type"),
    pytest.param({"cfg.json": "{bad"}, ["theta", "--config", "{tmp}/cfg.json"],
                 id="config-not-json"),
    pytest.param({}, ["theta", "--n", "20", "--a", "inf"], id="growth-rate-not-finite"),
    pytest.param({}, ["steady", "--n", "20", "--c", "inf"], id="c-not-finite"),
    pytest.param({"a.csv": ""}, ["theta", "--n", "20", "--a", "file:{tmp}/a.csv"],
                 id="growth-file-empty"),
    pytest.param({"cfg.json": '{"tol": true, "k": true}'}, ["verify", "--config", "{tmp}/cfg.json"],
                 id="boolean-tol-and-k"),
    pytest.param({"cfg.json": '{"a": true}'}, ["theta", "--config", "{tmp}/cfg.json"],
                 id="boolean-growth-rate"),
    pytest.param({"cfg.json": '{"axes": {"c": [true, 2]}}'},
                 ["sweep", "--config", "{tmp}/cfg.json"], id="boolean-sweep-axis-value"),
    pytest.param({"cfg.json": '{"extents": [true]}'}, ["theta", "--config", "{tmp}/cfg.json"],
                 id="boolean-extent"),
    pytest.param({}, ["evolve", "--n", "20", "--t-end", "0.1", "--dt", "nan"], id="dt-nan"),
    pytest.param({}, ["evolve", "--n", "20", "--t-end", "inf"], id="t-end-inf"),
    pytest.param({}, ["evolve", "--n", "20", "--t-end", "nan"], id="t-end-nan"),
    pytest.param({}, ["evolve", "--n", "20", "--t-end", "0.1", "--amplitude", "nan"],
                 id="amplitude-nan"),
    pytest.param({}, ["evolve", "--n", "20", "--t-end", "0.1", "--snapshots", "nan"],
                 id="snapshot-time-nan"),
    pytest.param({}, ["evolve", "--n", "20", "--t-end", "0.5", "--snapshots=-3"],
                 id="snapshot-time-negative"),
    pytest.param({}, ["evolve", "--n", "20", "--t-end", "0.5", "--snapshots", "0,1e9"],
                 id="snapshot-time-after-t-end"),
    pytest.param({}, ["evolve", "--n", "50", "--a", "2", "--b", "0.5", "--c", "1", "--dt", "1e-3",
                      "--t-end", "0.5", "--store-every", "100", "--snapshots", "0.04,0.06"],
                 id="snapshot-time-between-stored-steps"),
    pytest.param({}, ["theta", "--n", "20", "--a", "profile:sin", "--a1", "inf"],
                 id="profile-amplitude-inf"),
    pytest.param({}, ["theta", "--n", "20", "--a", "profile:sin", "--a0", "inf"],
                 id="profile-offset-inf"),
    pytest.param({}, ["theta", "--n", "20", "--a", "profile:const"], id="profile-unknown"),
    pytest.param({}, ["theta", "--domain", "interval:0:pi", "--n", "20", "--a", "profile:sin",
                      "--a0", "1e308", "--a1", "1e308"], id="profile-overflows"),
    pytest.param({}, ["theta", "--domain", "interval:0:1e-300", "--n", "20", "--a", "2"],
                 id="spacing-underflows"),
    pytest.param({}, ["theta", "--domain", "interval:0:1e300", "--n", "20", "--a", "2"],
                 id="spacing-overflows"),
    pytest.param({"a.csv": FIELD_20_NODES_NAN}, ["theta", "--n", "20", "--a", "file:{tmp}/a.csv"],
                 id="growth-file-nan"),
    pytest.param({}, ["sweep", "--n", "20", "--sweep-b", "0.1:nan:0.1"], id="sweep-range-nan"),
    pytest.param({}, ["sweep", "--n", "20", "--sweep-b", "0.1:inf:0.1"], id="sweep-range-inf"),
    pytest.param({}, ["sweep", "--n", "20", "--sweep-b", "0:1e12:1"], id="sweep-range-too-long"),
    pytest.param({}, ["sweep", "--n", "20", "--sweep-b", "0:1:1e-320"],
                 id="sweep-range-count-overflows"),
    pytest.param({}, ["verify", "--n", "50", "--tol", "inf"], id="verify-tol-inf"),
    pytest.param({}, ["theta", "--n", "20", "--tol", "inf"], id="theta-tol-inf"),
    pytest.param({"cfg.json": '{"tol": NaN}'}, ["theta", "--n", "20", "--config", "{tmp}/cfg.json"],
                 id="config-tol-nan"),
    pytest.param({}, ["evolve", "--n", "20", "--t-end", "1", "--dt", "1e-320"],
                 id="step-count-overflows-subnormal-dt"),
    pytest.param({}, ["evolve", "--n", "20", "--t-end", "1e308", "--dt", "1e-3"],
                 id="step-count-overflows-huge-t-end"),
    pytest.param({}, ["evolve", "--n", "20", "--t-end", "1e300", "--dt", "1e-3"],
                 id="step-count-above-bound"),
    pytest.param({}, ["evolve", "--n", "200", "--t-end", "1e5", "--dt", "1e-3", "--store-every", "1"],
                 id="stored-values-above-bound"),
    pytest.param({}, ["theta", "--n", "20", "--tol", "0"], id="theta-tol-zero"),
    pytest.param({}, ["theta", "--n", "20", "--tol=-1"], id="theta-tol-negative"),
    pytest.param({}, ["theta", "--n", "20", "--k", "0"], id="theta-k-zero"),
    pytest.param({}, ["spectrum", "--n", "20", "--k", "21"], id="spectrum-k-above-nodes"),
    pytest.param({}, ["verify", "--n", "20", "--k", "21"], id="verify-k-above-nodes"),
    # the eigen window ends at k = N - 2, and verify's families need 2k values each
    pytest.param({}, ["spectrum", "--n", "20", "--a", "2", "--k", "19"], id="spectrum-k-past-window"),
    pytest.param({}, ["verify", "--n", "20", "--a", "2", "--k", "10"], id="verify-2k-past-window"),
    pytest.param({}, ["sweep", "--n", "20", "--a", "2", "--k", "10", "--sweep-b", "0.5"],
                 id="sweep-2k-past-window"),
    pytest.param({}, ["evolve", "--n", "20", "--t-end", "0.1", "--amplitude=-1"],
                 id="amplitude-negative"),
    pytest.param({"cfg.json": '{"format": "xml"}'}, ["theta", "--n", "20", "--config",
                                                     "{tmp}/cfg.json"], id="format-unknown"),
    pytest.param({}, ["sweep", "--n", "20", "--sweep-b", "0.5", "--workers", "0"],
                 id="sweep-workers-zero"),
    pytest.param({}, ["theta", "--n", "20", "--seed=-1"], id="seed-negative"),
    pytest.param({}, ["theta", "--n", "20", "--seed", str(2**64)], id="seed-above-u64"),
])
def test_config_errors_exit_before_out_is_created(files, args, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "never"
    assert run(*(a.format(tmp=tmp_path) for a in args), "--out", str(out)) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def refuse_to_solve(*args, **kwargs):
    raise AssertionError("an eigen solve ran for a window that should fail validation")


def test_window_past_the_memory_limit_is_a_config_error(tmp_path, monkeypatch, capsys):
    # k = N - 2 on the 150x150 square would hold ARPACK's 22,500-vector
    # basis, 4 GB; no solve may start, even where validation lets it through
    import lvsync.cli

    monkeypatch.setattr(lvsync.cli, "eigenpairs", refuse_to_solve)
    out = tmp_path / "never"
    assert run("spectrum", "--domain", "rectangle:pi:pi", "--n", "150,150", "--k", "22498",
               "--out", str(out)) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_verify_checks_the_coupled_window_too(tmp_path, monkeypatch, capsys):
    # with a limit that both families of a k = 6 verify on n = 40 fit
    # (12 values of 40 unknowns) but its coupled solve (12 values of
    # 80 complex unknowns) does not, verify and sweep are rejected up front
    import lvsync.cli
    import lvsync.spectral
    from lvsync.spectral import eigen_window

    monkeypatch.setattr(lvsync.spectral, "MAX_EIGEN_VALUES", 5000)
    assert eigen_window(12, 40) == 12
    with pytest.raises(ValueError, match="eigen window"):
        eigen_window(12, 80, symmetric=False)
    monkeypatch.setattr(lvsync.cli, "verify_theorem", refuse_to_solve)
    for command in (["verify"], ["sweep", "--sweep-b", "0.5"]):
        out = tmp_path / command[0]
        assert run(*command, "--n", "40", "--a", "2", "--k", "6", "--out", str(out)) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "docs" / "config.example.json"


@pytest.mark.parametrize("command", ["theta", "steady", "spectrum", "verify", "evolve", "sweep"])
def test_example_config_runs(command, tmp_path):
    extra = ["--t-end", "2"] if command == "evolve" else []
    assert run(command, "--config", str(EXAMPLE_CONFIG), "--n", "40", *extra,
               "--out", str(tmp_path / "o")) == 0


def test_coupled_window_past_the_memory_limit_is_inconclusive(tmp_path, monkeypatch, capsys):
    # on the 12x12 square at b = 0.1, c = 4 a predicted cluster straddles
    # position 2k = 6, so the coupled solve asks for 7 values of 288 complex
    # unknowns (15,552 held). With a limit of 15,000 the 6 values that
    # validation checks fit (14,976 held) and the window does not: the run
    # ends inconclusive with that cause and its report, not a traceback
    import lvsync.spectral

    monkeypatch.setattr(lvsync.spectral, "MAX_EIGEN_VALUES", 15_000)
    out = tmp_path / "o"
    assert run("verify", "--domain", "rectangle:pi:pi", "--n", "12,12", "--a", "4",
               "--b", "0.1", "--c", "4", "--k", "3", "--out", str(out)) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "inconclusive"
    assert report["cause"] == ("solver failure: a window of 7 eigenvalues of 288 unknowns "
                               "holds 15,552 of at most 15,000 values")
    assert "Traceback" not in capsys.readouterr().err
