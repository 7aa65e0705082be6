"""End-to-end command-line workflows: exit codes, artifacts, reproducibility."""

import csv
import json
import math

import numpy as np
import pytest

from oscxfer import cli
from oscxfer.cli import main


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_optimal_profile_fidelity_band(self, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--profile", "optimal", "--gamma", "1",
                     "--T", "5", "--dt-cut", "1e-3", "--steps", "4000",
                     "--out", str(out)])
        assert code == 0
        rep = _read_json(out / "report.json")
        # infidelity dominated by the truncation budget gamma*dt_cut
        assert rep["fidelity"] > 1.0 - 1e-4 - 1.1e-3
        assert rep["budget"]["infidelity_total"] == pytest.approx(
            1.0226999648812424e-03, abs=1e-15)

    def test_constant_profile_peak(self, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--profile", "constant:1.0", "--gamma", "1",
                     "--T", "1", "--steps", "2000", "--out", str(out)])
        assert code == 0
        rep = _read_json(out / "report.json")
        assert rep["peak_fidelity"] == pytest.approx(0.7357588823428846,
                                                     abs=1e-6)
        assert rep["peak_time"] == pytest.approx(1.0, abs=1e-3)

    def test_zero_profile(self, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--profile", "constant:0", "--T", "1",
                     "--steps", "200", "--out", str(out)])
        assert code == 0
        assert _read_json(out / "report.json")["fidelity"] == 0.0

    def test_curve_csv_has_oracle_column(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--profile", "constant:1.0", "--T", "1",
              "--steps", "100", "--out", str(out)])
        rows = _read_csv(out / "fidelity_curve.csv")
        assert len(rows) == 101
        mid = rows[50]
        t = float(mid["t"])
        assert float(mid["F_oracle"]) == pytest.approx(
            2.0 * t * math.exp(-t), rel=1e-12)
        assert float(mid["abs_err"]) < 1e-9

    def test_kernel_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--profile", "constant:1.0", "--T", "1",
                     "--steps", "400", "--kernels", "--out", str(out)])
        assert code == 0
        rep = _read_json(out / "report.json")
        assert max(rep["commutator_max"]) < 1e-4
        assert (out / "commutator.csv").exists()

    def test_format_json_suppresses_csv(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--profile", "constant:1.0", "--T", "1",
              "--steps", "100", "--format", "json", "--out", str(out)])
        assert (out / "report.json").exists()
        assert not (out / "fidelity_curve.csv").exists()

    def test_format_csv_suppresses_report(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--profile", "constant:1.0", "--T", "1",
              "--steps", "100", "--format", "csv", "--out", str(out)])
        assert (out / "fidelity_curve.csv").exists()
        assert not (out / "report.json").exists()


class TestOptimize:
    def test_converged_run(self, tmp_path):
        out = tmp_path / "run"
        code = main(["optimize", "--gamma", "1", "--T", "2",
                     "--steps", "300", "--out", str(out)])
        assert code == 0
        rep = _read_json(out / "optimize_report.json")
        assert rep["converged"] is True
        assert rep["functional"] < math.sqrt(-math.expm1(-4.0)) + 1e-12
        assert (out / "profile.csv").exists()
        assert (out / "trace.csv").exists()

    def test_zero_iterations_exits_4_with_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = main(["optimize", "--gamma", "1", "--T", "2",
                     "--steps", "100", "--max-iters", "0", "--out", str(out)])
        assert code == 4
        rep = _read_json(out / "optimize_report.json")
        assert rep["converged"] is False
        assert rep["iterations"] == 0
        assert (out / "profile.csv").exists()

    def test_profile_csv_roundtrips_into_simulate(self, tmp_path):
        opt_out = tmp_path / "opt"
        code = main(["optimize", "--gamma", "1", "--T", "2",
                     "--steps", "250", "--out", str(opt_out)])
        assert code == 0
        functional = _read_json(opt_out / "optimize_report.json")["functional"]
        sim_out = tmp_path / "sim"
        code = main(["simulate", "--gamma", "1", "--T", "2", "--steps", "250",
                     "--profile", f"file:{opt_out / 'profile.csv'}",
                     "--out", str(sim_out)])
        assert code == 0
        fid = _read_json(sim_out / "report.json")["fidelity"]
        # quadrature functional vs ODE route: the profile rides the box cap
        # 1/(2 dt), so the integrator's substepped error floor (~3e-9 at
        # gamma1*h = 0.03 per stage) sets the achievable agreement
        assert fid == pytest.approx(functional, abs=1e-8)


class TestSweep:
    def test_eta_sqrt_law(self, tmp_path):
        out = tmp_path / "run"
        code = main(["sweep", "--sweep", "eta:0.64:1.0:3", "--gamma", "1",
                     "--T", "5", "--steps", "1000", "--out", str(out)])
        assert code == 0
        rows = _read_csv(out / "sweep.csv")
        fs = {float(r["eta"]): float(r["F_sim"]) for r in rows}
        base = fs[1.0]
        for eta, f in fs.items():
            assert f / base == pytest.approx(math.sqrt(eta), abs=1e-9)

    def test_horizon_sweep_tracks_oracle(self, tmp_path):
        out = tmp_path / "run"
        code = main(["sweep", "--sweep", "T:0.5:6.0:12", "--gamma", "1",
                     "--steps", "1000", "--out", str(out)])
        assert code == 0
        rep = _read_json(out / "sweep_report.json")
        assert rep["n_points"] == 12
        # per-point truncation budget: dt = T/1000, slack gamma*dt
        for row in _read_csv(out / "sweep.csv"):
            T = float(row["T"])
            assert float(row["abs_err"]) < 1e-5 + T / 1000.0

    def test_single_point(self, tmp_path):
        out = tmp_path / "run"
        code = main(["sweep", "--sweep", "gamma:2.0:2.0:1", "--T", "2",
                     "--steps", "500", "--out", str(out)])
        assert code == 0
        assert len(_read_csv(out / "sweep.csv")) == 1

    def test_point_numerical_failure_exits_3(self, tmp_path, capsys):
        # the gamma=1e9 point fails inside a pool worker; its error must
        # cross the process boundary intact instead of breaking the pool
        code = main(["sweep", "--sweep", "gamma:1:1e9:2",
                     "--profile", "constant:1e9", "--T", "1", "--steps", "10",
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert "(at step 0)" in capsys.readouterr().err

    def test_point_config_error_exits_2(self, tmp_path, capsys):
        # gamma_loss = 1 = gamma is invalid only at the middle point
        code = main(["sweep", "--sweep", "gamma_loss:0:2:3", "--gamma", "1",
                     "--T", "2", "--steps", "50",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: gamma_loss=1: gamma_loss < gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        "eta:1.0:0.5:3",      # empty range
        "zeta:0:1:3",         # unknown parameter
        "eta:0.5:1.0:0",      # no points
        "eta:a:b:3",          # unparseable bounds
        "eta:0.5:1.0",        # wrong arity
    ])
    def test_bad_specs_exit_2(self, tmp_path, spec):
        assert main(["sweep", "--sweep", spec,
                     "--out", str(tmp_path / "x")]) == 2


class TestBudget:
    def test_frozen_terms(self, tmp_path):
        out = tmp_path / "run"
        code = main(["budget", "--gamma", "1", "--T", "5", "--dt-cut", "1e-3",
                     "--out", str(out)])
        assert code == 0
        b = _read_json(out / "budget.json")
        assert b["infidelity_terms"]["exponential"] == pytest.approx(
            2.2699964881242426e-05, abs=1e-17)
        assert b["infidelity_terms"]["truncation"] == pytest.approx(
            1e-3, abs=1e-15)

    def test_no_cut_means_pure_exponential(self, tmp_path):
        out = tmp_path / "run"
        code = main(["budget", "--gamma", "1", "--T", "5", "--out", str(out)])
        assert code == 0
        b = _read_json(out / "budget.json")
        assert b["infidelity_terms"]["truncation"] == 0.0

    def test_circuit_mode(self, tmp_path):
        out = tmp_path / "run"
        code = main(["budget", "--sender-rlc", "10:1e-9:1e-12",
                     "--receiver-rlc", "50:1e-9:1e-12", "--T", "5e-10",
                     "--dt-cut", "1e-12", "--target-fidelity", "0.99",
                     "--out", str(out)])
        assert code == 0
        b = _read_json(out / "budget.json")
        assert b["circuits"]["receiver"]["gamma"] == pytest.approx(2.5e10)
        assert "circuit_validity" in b

    def test_circuit_frequency_mismatch_exits_2(self, tmp_path):
        code = main(["budget", "--sender-rlc", "10:1e-9:1e-12",
                     "--receiver-rlc", "50:1.1e-9:1e-12", "--T", "5e-10",
                     "--dt-cut", "1e-12", "--target-fidelity", "0.99",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_one_sided_circuit_exits_2(self, tmp_path):
        code = main(["budget", "--sender-rlc", "10:1e-9:1e-12",
                     "--T", "5e-10", "--out", str(tmp_path / "x")])
        assert code == 2


class TestConfigHandling:
    def test_echo_roundtrip_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        code = main(["simulate", "--gamma", "1.5", "--T", "2",
                     "--steps", "500", "--kernels", "--out", str(first)])
        assert code == 0
        second = tmp_path / "b"
        code = main(["simulate", "--config", str(first / "config.json"),
                     "--out", str(second)])
        assert code == 0
        a = (first / "fidelity_curve.csv").read_bytes()
        b = (second / "fidelity_curve.csv").read_bytes()
        assert a == b
        ra = _read_json(first / "report.json")
        rb = _read_json(second / "report.json")
        assert ra == rb

    @pytest.mark.parametrize("below", ["", "run"],
                             ids=["names-a-file", "under-a-file"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, below):
        afile = tmp_path / "afile"
        afile.write_text("")
        code = main(["simulate", "--steps", "100",
                     "--out", str(afile / below)])
        assert code == 2
        assert "error: cannot write output:" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1.0, "transfer_time": 1.0,
                                   "n_steps": 100}))
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(cfg), "--gamma", "2.0",
                     "--out", str(out)])
        assert code == 0
        echoed = _read_json(out / "config.json")
        assert echoed["gamma"] == 2.0
        assert echoed["n_steps"] == 100

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1.0, "typo_key": 3}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_removed_parametrization_key_exits_2(self, tmp_path, capsys):
        # config files from versions with two optimizer parametrizations
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1.0, "parametrization": "gdot"}))
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert "unknown config keys: parametrization" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--profile", "wedge:1"],
        ["simulate", "--gamma", "-1"],
        ["simulate", "--method", "rk4", "--steps", "5"],
        ["simulate", "--eta", "1.5"],
    ])
    def test_invalid_values_exit_2(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2

    def test_missing_profile_file_exits_2(self, tmp_path):
        assert main(["simulate", "--profile", "file:/no/such/file.csv",
                     "--out", str(tmp_path / "x")]) == 2

    def test_profile_file_grid_mismatch_exits_2(self, tmp_path):
        bad = tmp_path / "p.csv"
        with open(bad, "w") as fh:
            fh.write("t,gamma1\n")
            for i in range(11):
                fh.write(f"{i * 0.1:.17g},1.0\n")
        assert main(["simulate", "--profile", f"file:{bad}", "--T", "1",
                     "--steps", "100", "--out", str(tmp_path / "x")]) == 2

    def test_large_rate_gap_oracle_no_traceback(self, tmp_path):
        # (gamma - gamma1)*t reaches 3e5: the constant-coupling oracle used
        # to overflow in expm1 and end the run in a traceback
        out = tmp_path / "run"
        code = main(["simulate", "--profile", "constant:1", "--gamma", "3e5",
                     "--omega0", "1e12", "--T", "1", "--steps", "10",
                     "--out", str(out)])
        assert code == 0
        oracle = [float(r["F_oracle"])
                  for r in _read_csv(out / "fidelity_curve.csv")]
        assert all(math.isfinite(v) for v in oracle)
        assert oracle[-1] == pytest.approx(0.0013433102668475141, rel=1e-14,
                                         abs=0.0)

    def test_numerical_failure_stderr_is_two_lines(self, tmp_path, capsys):
        # no numpy RuntimeWarning may reach stderr on the way to exit 3
        code = main(["simulate", "--profile", "constant:1", "--gamma", "1e9",
                     "--T", "1", "--steps", "10", "--out", str(tmp_path / "x")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "warning: weak damping violated: gamma*10 exceeds omega0 "
            "(rotating-frame treatment marginal)",
            "numerical failure: non-finite transfer coefficient (at step 5)",
        ]

    @pytest.mark.parametrize("error, code, line", [
        (OverflowError("math range error"), 3,
         "numerical failure: math range error"),
        (ZeroDivisionError("float division by zero"), 3,
         "numerical failure: float division by zero"),
        (MemoryError("cannot allocate"), 2,
         "error: not enough memory: cannot allocate"),
    ])
    def test_last_resort_exit_codes(self, tmp_path, capsys, monkeypatch,
                                    error, code, line):
        def fail(*args):
            raise error

        monkeypatch.setattr(cli, "_run_integration", fail)
        assert main(["simulate", "--steps", "10",
                     "--out", str(tmp_path / "x")]) == code
        assert capsys.readouterr().err.splitlines() == [line]

    def test_stiff_profile_file_exits_3(self, tmp_path):
        bad = tmp_path / "p.csv"
        n = 50
        with open(bad, "w") as fh:
            fh.write("t,gamma1\n")
            for i in range(n + 1):
                fh.write(f"{i * (1.0 / n):.17g},1e300\n")
        assert main(["simulate", "--profile", f"file:{bad}", "--T", "1",
                     "--steps", str(n), "--out", str(tmp_path / "x")]) == 3


def test_determinism_across_runs(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["simulate", "--profile", "optimal", "--gamma", "1",
                     "--T", "3", "--dt-cut", "0.01", "--steps", "500",
                     "--out", str(out)])
        assert code == 0
        outs.append((out / "fidelity_curve.csv").read_bytes())
    assert outs[0] == outs[1]


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
