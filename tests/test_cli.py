"""End-to-end command-line workflows: exit codes, artifacts, reproducibility."""

import argparse
import ast
import csv
import dataclasses
import errno
import importlib.util
import inspect
import io
import json
import math
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oscxfer import artifacts, cli, optimize, workers
from oscxfer.oracles import fidelity_lossy, reference_curve
from oscxfer.simulate import (
    STABILITY_EDGE,
    IntegrationError,
    IntegratorConfig,
    integrate_transfer,
)
from oscxfer.types import (CouplingProfile, SystemParams, TimeGrid,
                           profile_values)


def _reject(token):
    raise ValueError(f"{token} is not standard JSON")


def _read_json(path):
    """A JSON artifact, refusing the NaN and Infinity tokens."""
    return json.loads(Path(path).read_text(), parse_constant=_reject)


def main(argv):
    """``cli.main``, then every JSON artifact of the run read strictly."""
    code = cli.main(argv)
    if "--out" in argv:
        for path in Path(argv[argv.index("--out") + 1]).glob("*.json"):
            _read_json(path)
    return code


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# numeric flag values at and past the edges of what a run can take
_EDGE_FLOATS = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e-300", "1e308"]
# a sweep's end points: NaN, ±inf, 0, a negative value, 1e308, ordinary ones
_SWEEP_ENDS = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e308",
                               "0.5", "1", "2.5"])

# every flag, the config key it sets and a value other than the default,
# written out here rather than read back from cli's option table
_FLAG_KEYS = {
    "--config": (None, None), "--out": ("out_dir", "elsewhere"),
    "--gamma": ("gamma", 2.0), "--gamma-loss": ("gamma_loss", 0.1),
    "--eta": ("eta", 0.5), "--T": ("transfer_time", 2.0),
    "--omega0": ("omega0", 1e7), "--margin": ("margin", 5.0),
    "--dt-cut": ("dt_cut", 0.01), "--gamma1-max": ("gamma1_max", 5.0),
    "--steps": ("n_steps", 100), "--format": ("format", "json"),
    "--profile": ("profile", "constant:1"),
    "--target-fidelity": ("target_fidelity", 0.9),
    "--kernels": ("kernels", True), "--sweep": ("sweep", "T:1:2:2"),
    "--sender-rlc": ("sender_rlc", "1:1:1"),
    "--receiver-rlc": ("receiver_rlc", "1:1:1"),
    "--topology": ("topology", "parallel"),
}
_EVERY_COMMAND = {"--config", "--out", "--gamma", "--gamma-loss", "--eta",
                  "--T", "--omega0", "--margin", "--dt-cut", "--gamma1-max"}
# the flags each command takes: those of every command and its own
_TAKES = {
    "simulate": _EVERY_COMMAND | {"--steps", "--format", "--profile",
                                  "--target-fidelity", "--kernels"},
    "optimize": _EVERY_COMMAND | {"--steps", "--format"},
    "sweep": _EVERY_COMMAND | {"--steps", "--format", "--profile", "--sweep"},
    "budget": _EVERY_COMMAND | {"--target-fidelity", "--sender-rlc",
                                "--receiver-rlc", "--topology"},
}


def _collected_artifacts(out, p, n, kernels):
    """What ``simulate`` wrote into ``out`` for the default optimal profile
    on n steps, written instead from :func:`integrate_transfer`'s whole
    arrays in one piece, as before the run streamed, into a directory
    beside it: the oracle of the block-by-block writer.  Keyed by file
    name, as bytes."""
    streamed_report = _read_json(out / "report.json")
    out = out.with_name(out.name + "-collected")
    out.mkdir()
    grid = TimeGrid(p.transfer_time, n)
    profile = CouplingProfile.optimal(truncation=grid.dt)
    state = integrate_transfer(profile, p, IntegratorConfig(
        n_steps=n, kernel_tracking=kernels))
    times, curve = grid.nodes(), state.a21
    oracle = reference_curve(p, profile, times)
    artifacts._write_csv(out / "fidelity_curve.csv",
                         ["t", "F_sim", "F_oracle", "abs_err"],
                         (times, curve, oracle, np.abs(curve - oracle)))
    # the fields that stream; params, n_steps and budget do not
    report = {**streamed_report,
              "fidelity": state.fidelity,
              "peak_fidelity": float(np.max(curve)),
              "peak_time": float(times[int(np.argmax(curve))])}
    if kernels:
        d1, d2 = state.deficits
        report["commutator_max"] = [float(np.max(np.abs(d1))),
                                    float(np.max(np.abs(d2)))]
        artifacts._write_csv(out / "commutator.csv",
                             ["t", "deficit_osc1", "deficit_osc2"],
                             (times, d1, d2))
    artifacts._write_json(out / "report.json", report)
    return {path.name: path.read_bytes() for path in out.iterdir()}


def _traced_peak(run):
    """Peak bytes traced by tracemalloc while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _kill_own_worker(job):
    """A sweep point whose worker process is killed, as the OOM killer
    would kill it."""
    os.kill(os.getpid(), signal.SIGKILL)


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

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # gamma' > gamma, and a cap for a profile with no hold window
    @example(rates=("1", "3", "0.8", "2.5"), profile="optimal",
             hold=(None, None), steps=200)
    @example(rates=("1", "1", None, None), profile="constant:1",
             hold=("0.001", None), steps=100)
    # a cap of 1e308 held near T = 1e-300: 2**25 substeps, refused up front
    @example(rates=(None, "1e-300", None, None), profile="optimal",
             hold=("1e308", None), steps=86)
    @given(rates=st.tuples(*[
               st.one_of(st.none(), st.sampled_from(_EDGE_FLOATS),
                         st.sampled_from(ordinary))
               for ordinary in (["1", "2.5"], ["1", "5"], ["0.5", "0.81"],
                                ["0.05", "1", "2.5"])]),
           profile=st.sampled_from(["optimal", "constant:0", "constant:1",
                                    "constant:2.5"]),
           hold=st.tuples(*[
               st.one_of(st.none(), st.sampled_from(_EDGE_FLOATS),
                         st.sampled_from(ordinary))
               for ordinary in (["5", "50"], ["0.1", "0.01"])]),
           steps=st.integers(10, 200))
    def test_numeric_flags_exit_cleanly(self, capsys, rates, profile, hold,
                                        steps):
        # every draw exits 0, 2 or 3 with a clean stderr and strict JSON
        # (gamma' >= gamma included)
        flags = [f"{flag}={value}" for flag, value in zip(
            ["--gamma", "--T", "--eta", "--gamma-loss", "--gamma1-max",
             "--dt-cut"], rates + hold) if value is not None]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            code = main(["simulate", *flags, "--profile", profile,
                         "--steps", str(steps), "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 2, 3)
            assert "Traceback" not in err and "RuntimeWarning" not in err
            if code == 0:
                rep = _read_json(out / "report.json")
                assert math.isfinite(rep["fidelity"])

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

    @pytest.mark.parametrize("kernels", [[], ["--kernels"]],
                             ids=["plain", "kernels"])
    @pytest.mark.parametrize("loss", [[], ["--eta", "0.81",
                                           "--gamma-loss", "0.05"]],
                             ids=["lossless", "lossy"])
    @pytest.mark.parametrize("n", [8191, 8192, 8193, 16385])
    def test_blocks_write_the_collectors_bytes(self, tmp_path, n, loss,
                                               kernels):
        # the run streams blocks of 8192 steps: one block short of an edge,
        # on it, one step past it and one step into a third block, the
        # stiff tail in the last block, write what the whole arrays write
        out = tmp_path / "run"
        assert main(["simulate", "--T", "3", *loss, "--steps", str(n),
                     *kernels, "--out", str(out)]) == 0
        streamed = {path.name: path.read_bytes() for path in out.iterdir()
                    if path.name != "config.json"}
        assert sorted(streamed) == sorted(
            ["fidelity_curve.csv", "report.json"]
            + (["commutator.csv"] if kernels else []))
        p = SystemParams(gamma=1.0, transfer_time=3.0,
                         **({"eta": 0.81, "gamma_loss": 0.05} if loss else {}))
        assert _collected_artifacts(out, p, n, bool(kernels)) == streamed

    @pytest.mark.parametrize("fmt", ["both", "csv"])
    @pytest.mark.parametrize("kernels", [[], ["--kernels"]],
                             ids=["plain", "kernels"])
    def test_failure_in_a_later_block_leaves_no_table(self, tmp_path, capsys,
                                                      fmt, kernels):
        # the cap 1e308 is held on the last step, 9999, in the second block:
        # a table written block by block would be left with its first block
        out = tmp_path / "run"
        assert main(["simulate", "--gamma", "1", "--T", "1", "--gamma1-max",
                     "1e308", "--steps", "10000", "--format", fmt, *kernels,
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: profile too stiff to substep (at step 9999)"]
        assert [p.name for p in out.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("argv, line", [
        # at the stability edge, beta*dt = 2.785, RK4 is stable but its
        # curve goes negative: a21(T) = -0.170 against the closed form's
        # 0.100
        (["simulate", "--profile", "constant:1", "--gamma", "55.7", "--T",
          "1", "--steps", "20"],
         "numerical failure: a21 = -0.01318771799095207 leaves the physical "
         "range [0, 1] by more than 1e-05 (at step 0)"),
        (["sweep", "--profile", "constant:1", "--sweep", "gamma:55.7:55.7:1",
          "--T", "1", "--steps", "20"],
         "numerical failure: gamma=55.7: a21 = -0.1700875697506956 leaves "
         "the physical range [0, 1] by more than 1e-05 (at step 19)"),
        # ten steps of 2 under a hold of 1e3: a21 overshoots 1 by 1.6e-3
        (["simulate", "--gamma", "1", "--T", "20", "--dt-cut", "1e-6",
          "--gamma1-max", "1000", "--steps", "10"],
         "numerical failure: a21 = 1.0016166508833517 leaves the physical "
         "range [0, 1] by more than 1e-05 (at step 9)"),
    ], ids=["simulate", "sweep", "above-1"])
    def test_curve_outside_the_physical_range_exits_3(self, tmp_path, capsys,
                                                      argv, line):
        assert main([*argv, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.splitlines() == [line]
        assert _names(tmp_path) == ["config.json"]

    def test_first_bad_node_comes_before_the_cut(self, tmp_path, capsys):
        # at the stability edge, with a coupling of 1e300 from node 10: the
        # curve leaves the range at step 0, before the step too stiff to
        # substep cuts the block short at step 10
        path = tmp_path / "profile.csv"
        rates = np.where(np.arange(21) < 10, 1.0, 1e300)
        np.savetxt(path, np.column_stack((np.arange(21) / 20, rates)),
                   delimiter=",", header="t,gamma1", comments="")
        out = tmp_path / "run"
        assert main(["simulate", "--profile", f"file:{path}", "--gamma",
                     "55.7", "--T", "1", "--steps", "20", "--out",
                     str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: a21 = -0.01318771799095207 leaves the "
            "physical range [0, 1] by more than 1e-05 (at step 0)"]

    def test_curve_within_the_range_slack_exits_0(self, tmp_path):
        # 300 steps to T = 40: a21 passes 1 by 4.9e-7, inside the slack,
        # while the curve stays within 4.1e-6 of its closed form
        assert main(["simulate", "--gamma", "1", "--T", "40", "--dt-cut",
                     "1e-6", "--steps", "300", "--out", str(tmp_path)]) == 0
        peak = _read_json(tmp_path / "report.json")["peak_fidelity"]
        assert 1.0 < peak < 1.0 + 1e-6

    @pytest.mark.parametrize("kernels", [[], ["--kernels"]],
                             ids=["plain", "kernels"])
    def test_memory_is_flat_in_the_step_count(self, tmp_path, kernels):
        # before the run streamed, 1e6 steps traced 65 MB here, 1e4 steps
        # 1.3 MB
        def peak(n):
            argv = ["simulate", "--format", "json", "--T", "3", "--steps",
                    str(n), *kernels, "--out", str(tmp_path / str(n))]
            return _traced_peak(lambda: main(argv))

        peak(1000)  # fills numpy's per-process caches, which stay
        assert peak(1_000_000) - peak(10_000) <= 1e6


class TestOptimize:
    def test_converged_run(self, tmp_path):
        out = tmp_path / "run"
        code = main(["optimize", "--gamma", "1", "--T", "2",
                     "--steps", "300", "--out", str(out)])
        assert code == 0
        rep = _read_json(out / "optimize_report.json")
        assert rep["kkt_residual"] <= 1e-9
        assert rep["functional"] < math.sqrt(-math.expm1(-4.0)) + 1e-12
        assert (out / "profile.csv").exists()
        assert not (out / "trace.csv").exists()

    def test_huge_cap_gives_the_optimum(self, tmp_path, capsys):
        # the search stops at gamma + 700/dt, past which the stage slope is
        # negative: huge caps used to give a near-zero profile with exit 0
        # (1e50 to 1e300) or a NaN residual with exit 3 (1e308)
        functionals = []
        for cap in ("1e3", "1e50", "1e100", "1e300", "1e308"):
            out = tmp_path / cap
            assert main(["optimize", "--gamma1-max", cap, "--steps", "100",
                         "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            rep = _read_json(out / "optimize_report.json")
            assert rep["gamma1_max"] == float(cap)
            functionals.append(rep["functional"])
        assert functionals[0] == pytest.approx(0.98958756481145, abs=1e-12)
        assert functionals[1:] == pytest.approx([functionals[0]] * 4,
                                                abs=1e-12)

    def test_nonfinite_diagnostic_exits_3(self, tmp_path, capsys,
                                          monkeypatch):
        real = cli.optimize_profile

        def nan_residual(*args, **kwargs):
            profile, result = real(*args, **kwargs)
            return profile, dataclasses.replace(result, kkt_residual=math.nan)

        monkeypatch.setattr(cli, "optimize_profile", nan_residual)
        out = tmp_path / "run"
        assert main(["optimize", "--steps", "100", "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: optimizer kkt_residual is nan"]
        assert not (out / "optimize_report.json").exists()
        assert not (out / "profile.csv").exists()

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(gamma=st.sampled_from(_EDGE_FLOATS + ["1", "2.5"]),
           T=st.sampled_from(_EDGE_FLOATS + ["1", "5"]),
           cap=st.sampled_from(_EDGE_FLOATS + ["0.5", "1e3"]),
           steps=st.integers(10, 200))
    def test_numeric_flags_exit_cleanly(self, capsys, gamma, T, cap, steps):
        # every draw exits 0, 2 or 3 with a clean stderr and strict JSON,
        # and a run that succeeds stays below the closed-form optimum
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            code = main(["optimize", f"--gamma={gamma}", f"--T={T}",
                         f"--gamma1-max={cap}", "--steps", str(steps),
                         "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 2, 3)
            assert "Traceback" not in err and "RuntimeWarning" not in err
            if code == 0:
                functional = _read_json(out / "optimize_report.json")[
                    "functional"]
                bound = math.sqrt(-math.expm1(-2.0 * float(gamma) * float(T)))
                assert math.isfinite(functional)
                assert functional <= bound * (1.0 + 1e-12)

    def test_all_capped_run_exits_0(self, tmp_path, capsys):
        # every node sits at the cap; the KKT residual certifies the optimum
        # there too, and the report has no Euler-Lagrange block
        out = tmp_path / "run"
        assert main(["optimize", "--gamma1-max", "1e-3", "--steps", "100",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rep = _read_json(out / "optimize_report.json")
        assert math.isfinite(rep["kkt_residual"])
        assert "stationarity" not in rep

    def test_huge_cells_on_a_tiny_horizon_exit_0(self, tmp_path, capsys):
        # cells up to 1.3e301: the Euler-Lagrange differences of the former
        # stationarity block overflowed to NaN and turned this into exit 3
        out = tmp_path / "run"
        assert main(["optimize", "--gamma", "1", "--T", "1e-300",
                     "--gamma1-max", "1e308", "--steps", "10",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rep = _read_json(out / "optimize_report.json")
        assert 0.0 < rep["functional"] <= math.sqrt(-math.expm1(-2e-300))

    def test_cell_out_of_evaluations_exits_3(self, tmp_path, capsys,
                                             monkeypatch):
        # the root solve's last exit: a cell that runs out of slope
        # evaluations has a NaN maximizer and stage value
        monkeypatch.setattr(optimize, "_MAX_ROOT_EVALS", 2)
        line = "stage value nan is not finite and positive in cell 8"
        with pytest.raises(FloatingPointError) as exc:
            optimize.optimize_profile(SystemParams(gamma=1.0,
                                                   transfer_time=3.0),
                                      TimeGrid(3.0, 10))
        assert str(exc.value) == line
        assert main(["optimize", "--gamma", "1", "--T", "3", "--steps", "10",
                     "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"numerical failure: {line}"]

    def test_removed_iteration_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--max-iters", "5",
                  "--out", str(tmp_path / "run")])
        assert exc.value.code == 2

    def test_profile_csv_roundtrips_into_simulate(self, tmp_path):
        # a lossy functional carries the factor sqrt(eta) exp(-gamma' T)
        # of the simulated amplitude
        for name, loss in (("lossless", []),
                           ("lossy", ["--eta", "0.81", "--gamma-loss", "0.05"])):
            flags = ["--gamma", "1", "--T", "2", "--steps", "250", *loss]
            opt_out = tmp_path / name / "opt"
            assert main(["optimize", *flags, "--out", str(opt_out)]) == 0
            functional = _read_json(opt_out / "optimize_report.json")[
                "functional"]
            sim_out = tmp_path / name / "sim"
            assert main(["simulate", *flags,
                         "--profile", f"file:{opt_out / 'profile.csv'}",
                         "--out", str(sim_out)]) == 0
            fid = _read_json(sim_out / "report.json")["fidelity"]
            # quadrature functional vs ODE route: the profile rides the box
            # cap 1/(2 dt), so the integrator's substepped error floor
            # (~3e-9 at gamma1*h = 0.03 per stage) sets the achievable
            # agreement
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

    def test_file_profile_sweep_has_no_reference(self, tmp_path):
        # an optimized profile swept in gamma: its rows have no closed form
        # to compare with, so abs_err is NaN and max_abs_err is null
        opt = tmp_path / "opt"
        assert main(["optimize", "--gamma", "1", "--T", "1", "--steps", "10",
                     "--out", str(opt)]) == 0
        out = tmp_path / "sweep"
        assert main(["sweep", "--profile", f"file:{opt / 'profile.csv'}",
                     "--sweep", "gamma:1:2:2", "--T", "1", "--steps", "10",
                     "--out", str(out)]) == 0
        assert _read_json(out / "sweep_report.json")["max_abs_err"] is None
        rows = _read_csv(out / "sweep.csv")
        assert [r["gamma"] for r in rows] == ["1", "2"]
        assert all(r["F_oracle"] == r["abs_err"] == "nan" for r in rows)
        assert all(0.0 < float(r["F_sim"]) < 1.0 for r in rows)

    @pytest.mark.parametrize("spec, flags", [
        ("T:2:2:1", ["--T", "2"]),
        ("eta:0.8:0.8:1", ["--T", "3", "--eta", "0.8", "--gamma-loss", "0.05"]),
        ("eta:0.8:0.8:1", ["--T", "3", "--eta", "0.8", "--gamma-loss", "0.05",
                           "--profile", "constant:1"]),
    ], ids=["lossless", "lossy", "constant-lossy"])
    def test_point_is_the_simulate_run(self, tmp_path, spec, flags):
        # a sweep point and simulate share one run path and one reference
        # curve, bit for bit
        common = ["--gamma", "1", "--steps", "700", *flags]
        assert main(["sweep", "--sweep", spec, *common,
                     "--out", str(tmp_path / "sweep")]) == 0
        assert main(["simulate", *common, "--out", str(tmp_path / "sim")]) == 0
        (row,) = _read_csv(tmp_path / "sweep" / "sweep.csv")
        rep = _read_json(tmp_path / "sim" / "report.json")
        last = _read_csv(tmp_path / "sim" / "fidelity_curve.csv")[-1]
        assert float(row["F_sim"]) == rep["fidelity"]
        assert float(row["F_oracle"]) == float(last["F_oracle"])

    @pytest.mark.parametrize("n", [8191, 8192, 8193, 16385])
    def test_point_keeps_the_collectors_fidelity(self, n):
        # a point keeps only the last block's a21(T), bit for bit
        grid = TimeGrid(3.0, n)
        state = integrate_transfer(
            CouplingProfile.optimal(truncation=grid.dt),
            SystemParams(gamma=1.0, transfer_time=3.0),
            IntegratorConfig(n_steps=n))
        (job,) = cli._sweep_jobs(cli.RunConfig(n_steps=n), "T", [3.0])
        _, f_sim = cli._sweep_point(job)
        assert f_sim.hex() == state.fidelity.hex()

    def test_point_memory_is_flat_in_the_step_count(self):
        # a point held a11, a21 and a22 whole, 12 MB at 5e5 steps, to read
        # a21(T); now it holds the blocks' workspace alone, 0.88 MB
        def peak(n):
            return _traced_peak(lambda: cli._sweep_point(
                *cli._sweep_jobs(cli.RunConfig(n_steps=n), "T", [3.0])))

        peak(1000)  # fills numpy's per-process caches, which stay
        small, large = peak(50_000), peak(500_000)
        assert abs(large - small) <= 8e3

    def test_pool_fits_the_affinity_mask(self, tmp_path, monkeypatch):
        # a process limited to one CPU gets one worker, however many CPUs
        # the machine has
        seen = []

        def rows(point, jobs, n):
            seen.append(n)
            return [point(job) for job in jobs]

        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(workers, "_sweep_rows", rows)
        argv = ["sweep", "--sweep", "T:1:3:4", "--steps", "100",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        # without an affinity mask, every CPU counts
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert main(argv) == 0
        assert seen == [1, 3]

    def test_lost_worker_exits_2(self, tmp_path, capsys, monkeypatch):
        # a worker ended by a signal or the OOM killer broke the pool, and
        # the run ended in a BrokenProcessPool traceback
        monkeypatch.setattr(cli, "_sweep_point", _kill_own_worker)
        out = tmp_path / "x"
        assert main(["sweep", "--sweep", "T:1:2:2", "--steps", "100",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: a sweep worker ended without a result (killed by a signal "
            "or out of memory); no result for T=1, T=2"]
        assert [p.name for p in out.iterdir()] == ["config.json"]

    def test_rows_come_in_point_order(self):
        # 7 points on 3 workers: each row is the point's own run, bit for bit
        jobs = cli._sweep_jobs(cli.RunConfig(n_steps=100), "T",
                               np.linspace(1, 2, 7).tolist())
        assert workers._sweep_rows(cli._sweep_point, jobs, 3) == [
            cli._sweep_point(j) for j in jobs]

    def test_a_slow_point_holds_up_only_itself(self):
        # point 0 sleeps; the other worker runs every other point
        def point(job):
            if job == 0:
                time.sleep(1.0)
            return os.getpid(), job

        rows = workers._sweep_rows(point, list(range(5)), 2)
        assert [job for _, job in rows] == list(range(5))
        pids = [pid for pid, _ in rows]
        assert pids[0] != pids[1] == pids[2] == pids[3] == pids[4]
        assert os.getpid() not in pids

    def test_earliest_failure_is_reported(self, tmp_path, capsys,
                                          monkeypatch):
        # gamma = 300.5 and 600 both fail; the earlier is named
        assert main(["sweep", "--sweep", "gamma:1:600:3", "--T", "1",
                     "--steps", "20", "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: gamma=300.5: ")

        # the earlier point fails last, and with another exit code; no
        # point starts after a failure
        def point(job):
            (tmp_path / str(job)).touch()
            if job == 0:
                time.sleep(0.5)
                raise cli.ConfigError("point 0")
            raise IntegrationError("point 1", 0)

        with pytest.raises(cli.ConfigError, match="^point 0$"):
            workers._sweep_rows(point, [0, 1, 2], 2)
        assert (tmp_path / "1").exists() and not (tmp_path / "2").exists()

    def test_no_worker_or_thread_is_left(self, tmp_path, monkeypatch):
        argv = ["sweep", "--sweep", "T:1:2:3", "--steps", "100"]
        assert main([*argv, "--out", str(tmp_path / "ok")]) == 0
        assert main(["sweep", "--sweep", "eta:0.5:1.5:3", "--steps", "100",
                     "--out", str(tmp_path / "fail")]) == 2
        monkeypatch.setattr(cli, "_sweep_point", _kill_own_worker)
        assert main([*argv, "--out", str(tmp_path / "lost")]) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert threading.active_count() == 1

    def test_without_fork_the_same_bytes_come_out(self, tmp_path,
                                                  monkeypatch):
        argv = ["sweep", "--sweep", "T:1:2:5", "--steps", "100"]
        assert main([*argv, "--out", str(tmp_path / "fork")]) == 0
        monkeypatch.delattr(cli.os, "fork")
        assert main([*argv, "--out", str(tmp_path / "here")]) == 0
        for name in ("sweep.csv", "sweep_report.json"):
            assert ((tmp_path / "fork" / name).read_bytes()
                    == (tmp_path / "here" / name).read_bytes())

    def test_without_fork_a_failing_point_stops_the_sweep(
            self, tmp_path, capsys, monkeypatch):
        # the second of three points fails: it is named with its exit code,
        # and the third never starts
        started = []
        point = cli._sweep_point

        def record(job):
            started.append(job[1].gamma)
            return point(job)

        monkeypatch.delattr(cli.os, "fork")
        monkeypatch.setattr(cli, "_sweep_point", record)
        assert main(["sweep", "--sweep", "gamma:1:600:3", "--T", "1",
                     "--steps", "20", "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: gamma=300.5: receiver too stiff for the grid")
        assert started == [1.0, 300.5]

    def test_file_profile_is_read_once(self, tmp_path, monkeypatch):
        # every point of an eta sweep shares the grid, so the file is read
        # once, in this process, before any point runs; each point used to
        # read it again
        opt = tmp_path / "opt"
        assert main(["optimize", "--gamma", "1", "--T", "1", "--steps", "10",
                     "--out", str(opt)]) == 0
        reads = []
        read = artifacts._profile_from_file

        def record(path, grid):
            reads.append(path)
            return read(path, grid)

        monkeypatch.delattr(cli.os, "fork")
        monkeypatch.setattr(artifacts, "_profile_from_file", record)
        assert main(["sweep", "--profile", f"file:{opt / 'profile.csv'}",
                     "--sweep", "eta:0.25:1:4", "--T", "1", "--steps", "10",
                     "--out", str(tmp_path / "sweep")]) == 0
        assert reads == [str(opt / "profile.csv")]
        rows = _read_csv(tmp_path / "sweep" / "sweep.csv")
        assert [r["eta"] for r in rows] == ["0.25", "0.5", "0.75", "1"]

    def test_a_bad_profile_file_names_the_first_point(self, tmp_path,
                                                      capsys):
        # the file is read once, for the first point, which the error names
        missing = tmp_path / "missing.csv"
        assert main(["sweep", "--profile", f"file:{missing}", "--sweep",
                     "eta:0.5:1:2", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: eta=0.5: cannot read profile file: {missing} not found."]

    @pytest.mark.parametrize("spec, built", [
        ("T:1:2:3", 3), ("eta:0.5:1:4", 1), ("gamma:1:2:3", 1),
        ("gamma_loss:0:0.5:2", 1), ("T:2:2:3", 1)])
    def test_a_profile_is_built_once_per_grid(self, spec, built,
                                              monkeypatch):
        # only a T sweep moves the grid, and with it the optimal profile's
        # default cut dt
        grids = []
        build = cli._build_profile

        def record(cfg, grid):
            grids.append(grid)
            return build(cfg, grid)

        monkeypatch.setattr(cli, "_build_profile", record)
        name, lo, hi, n = cli._parse_sweep(spec)
        jobs = cli._sweep_jobs(cli.RunConfig(n_steps=100), name,
                               np.linspace(lo, hi, n).tolist())
        assert len(grids) == len(set(grids)) == built
        assert [grid for _, _, grid, _ in jobs] == [
            grids[min(k, built - 1)] for k in range(n)]
        assert len({id(profile) for *_, profile in jobs}) == built

    def test_an_invalid_point_is_refused_before_any_runs(
            self, tmp_path, capsys, monkeypatch):
        # eta = 1.5 is invalid; gamma = 300 makes the valid eta = 0.5 fail
        # to integrate, which used to decide the exit (3), as it ran first
        def fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(workers.os, "fork", fork)
        out = tmp_path / "x"
        assert main(["sweep", "--sweep", "eta:0.5:1.5:3", "--gamma", "300",
                     "--T", "1", "--steps", "20", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: eta=1.5: eta must lie in (0, 1]"]
        assert [p.name for p in out.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
    @pytest.mark.parametrize("spec, flags, lines", [
        ("eta:0.5:1:4", ["--gamma", "2e5", "--T", "0.001"], 1),
        ("gamma:1:2:2", ["--omega0", "15"], 1),
        ("gamma:1:1.4:2", ["--omega0", "15"], 0),
    ], ids=["every-point", "last-point", "no-point"])
    def test_weak_damping_warning_comes_once(self, tmp_path, capsys,
                                             monkeypatch, fork, spec, flags,
                                             lines):
        # each point's worker printed it: four lines for four points
        if not fork:
            monkeypatch.delattr(cli.os, "fork")
        assert main(["sweep", "--sweep", spec, *flags, "--steps", "100",
                     "--out", str(tmp_path / "x")]) == 0
        assert capsys.readouterr().err.splitlines() == lines * [
            "warning: weak damping violated: gamma*10 exceeds omega0 "
            "(rotating-frame treatment marginal)"]

    def test_grid_overrunning_T_by_one_ulp(self, tmp_path):
        # 100 * (T / 100) lands one ulp past T: the reference curve must
        # take the last node as T rather than refuse it
        T = 7.523304400995947
        assert 100 * (T / 100) > T
        flags = ["--T", repr(T), "--steps", "100"]
        assert main(["simulate", *flags, "--out", str(tmp_path / "sim")]) == 0
        assert main(["sweep", "--sweep", f"T:{T!r}:{T!r}:1", *flags,
                     "--out", str(tmp_path / "sweep")]) == 0
        want = fidelity_lossy(SystemParams(gamma=1.0, transfer_time=T), T)
        last = _read_csv(tmp_path / "sim" / "fidelity_curve.csv")[-1]
        (row,) = _read_csv(tmp_path / "sweep" / "sweep.csv")
        assert float(last["F_oracle"]) == want
        assert float(row["F_oracle"]) == want

    def test_point_numerical_failure_exits_3(self, tmp_path, capsys):
        # the gamma=1e9 point fails inside a pool worker; its error must
        # cross the process boundary intact instead of breaking the pool
        code = main(["sweep", "--sweep", "gamma:1:1e9:2",
                     "--profile", "constant:1e9", "--T", "1", "--steps", "10",
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert "(at step 0)" in capsys.readouterr().err

    def test_point_config_error_exits_2(self, tmp_path, capsys):
        # eta = 1.5 is invalid only at the last point
        code = main(["sweep", "--sweep", "eta:0.5:1.5:3", "--gamma", "1",
                     "--T", "2", "--steps", "50",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: eta=1.5: eta must lie in (0, 1]"]

    @pytest.mark.parametrize("spec, flags, line", [
        ("gamma:1:600:2", ["--T", "1", "--steps", "20"],
         "numerical failure: gamma=600: receiver too stiff for the grid: "
         "(gamma + gamma_loss)*dt = 30 exceeds the rk4 stability edge "
         "2.785; the grid needs at least 216 steps (at step 0)"),
        ("T:1e-300:2e-300:2", ["--gamma1-max", "1e308", "--steps", "86"],
         "error: T=1e-300: profile needs 33554474 substeps, more than the "
         "bound 4194304 (2**22); its first stiff step is 76"),
    ], ids=["integration-error", "value-error"])
    def test_point_failure_names_the_point(self, tmp_path, capsys, spec,
                                           flags, line):
        # a refusal and a numerical failure at a point both name it
        code = main(["sweep", "--sweep", spec, *flags,
                     "--out", str(tmp_path / "x")])
        assert code == (3 if line.startswith("numerical") else 2)
        assert capsys.readouterr().err.splitlines() == [line]

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

    @pytest.mark.parametrize("spec", ["T:1:inf:2", "gamma_loss:0:inf:3"])
    def test_nonfinite_bounds_exit_2(self, tmp_path, capsys, spec):
        # linspace made the points [nan, inf], and the refusal of the first
        # named it T=nan although the user gave 1
        assert main(["sweep", "--sweep", spec, "--steps", "10",
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: sweep bounds must be finite in {spec!r}"]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(name="T", bounds=("1", "inf"), n=2, hold=(None, None), steps=10)
    @example(name="gamma_loss", bounds=("0", "inf"), n=3, hold=(None, None),
             steps=10)
    @example(name="T", bounds=("0.5", "1"), n=2, hold=("1e308", None),
             steps=10)
    @given(name=st.sampled_from(sorted(cli._SWEEPABLE)),
           bounds=st.tuples(_SWEEP_ENDS, _SWEEP_ENDS),
           n=st.integers(1, 3),
           hold=st.tuples(*[st.one_of(st.none(), st.sampled_from(ordinary))
                            for ordinary in (["5", "50", "1e308"],
                                             ["0.1", "0.01"])]),
           steps=st.integers(10, 50))
    def test_numeric_flags_exit_cleanly(self, capsys, name, bounds, n, hold,
                                        steps):
        # every draw exits 0, 2 or 3 with a clean stderr and strict JSON
        flags = [f"{flag}={value}" for flag, value in zip(
            ["--gamma1-max", "--dt-cut"], hold) if value is not None]
        spec = ":".join([name, *bounds, str(n)])
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            code = main(["sweep", f"--sweep={spec}", *flags,
                         "--steps", str(steps), "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 2, 3)
            assert "Traceback" not in err and "RuntimeWarning" not in err
            if code == 0:
                rep = _read_json(out / "sweep_report.json")
                assert rep["n_points"] == n


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
        assert "validity" in b
        assert "circuit_validity" not in b
        # q_separation and q_floor restated the two rate windows
        assert "q_separation" not in b["validity"]
        assert "q_floor" not in b["validity"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--profile", "optimal", "--dt-cut", "1", "--T", "5"],
        ["budget", "--dt-cut", "1", "--T", "5"],
        ["budget", "--dt-cut", "2", "--T", "800"],
    ], ids=["simulate-T5", "budget-T5", "budget-T800"])
    def test_prediction_at_or_below_zero_exits_0(self, tmp_path, argv):
        # the first-order prediction F <= 0 was taken as the default
        # target, which the validity windows refused
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 0
        name = "report.json" if argv[0] == "simulate" else "budget.json"
        rep = _read_json(out / name)
        budget = rep["budget"] if argv[0] == "simulate" else rep
        assert "validity" not in budget
        assert any("--target-fidelity" in w for w in budget["warnings"])
        assert any("gamma*dt_cut > 0.1" in w for w in budget["warnings"])

    @pytest.mark.parametrize("argv", [
        ["budget", "--dt-cut", "1", "--T", "5", "--target-fidelity", "1.5"],
        ["simulate", "--steps", "10", "--target-fidelity", "2"],
        ["budget", "--dt-cut", "0.01", "--target-fidelity", "2"],
        ["budget", "--target-fidelity", "2"],
    ])
    def test_explicit_target_out_of_range_exits_2(self, tmp_path, capsys,
                                                  argv):
        out = tmp_path / "x"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: target_fidelity must lie strictly between 0 and 1"]
        assert not out.exists()

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(values=(None,) * 7 + ("2", None))
    @example(values=(None,) * 5 + ("0.01", None, "2", None))
    @given(values=st.tuples(*[
        st.one_of(st.none(), st.sampled_from(_EDGE_FLOATS),
                  st.sampled_from(ordinary))
        for ordinary in (["1", "2.5"], ["1", "5"], ["0.5", "0.81"],
                         ["0.05", "1"], ["1e6", "1e9"], ["0.1", "0.01"],
                         ["5", "50"], ["0.5", "0.99"], ["3", "10"])]))
    def test_numeric_flags_exit_cleanly(self, capsys, values):
        # every draw exits 0, 2 or 3 with a clean stderr and strict JSON
        flags = [f"{flag}={value}" for flag, value in zip(
            ["--gamma", "--T", "--eta", "--gamma-loss", "--omega0",
             "--dt-cut", "--gamma1-max", "--target-fidelity", "--margin"],
            values) if value is not None]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "run"
            code = main(["budget", *flags, "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 2, 3)
            assert "Traceback" not in err and "RuntimeWarning" not in err
            if code == 0:
                assert (out / "budget.json").exists()

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

    @pytest.mark.parametrize("topology", ["series", "parallel"])
    @pytest.mark.parametrize("element, value", [("1e300", "inf"),
                                                ("1e-300", "0.0")])
    def test_circuit_out_of_float_range_exits_2(self, tmp_path, capsys,
                                                topology, element, value):
        # every element is positive and finite, but L*C is not
        rlc = ":".join([element] * 3)
        out = tmp_path / "x"
        assert main(["budget", "--sender-rlc", rlc, "--receiver-rlc", rlc,
                     "--dt-cut", "0.1", "--topology", topology,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: the circuit's L*C must be positive and finite, got {value}"]
        assert _names(out) == ["config.json"]


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

    @pytest.mark.parametrize("argv, line, exact", [
        (["simulate", "--config", "{tmp}/missing.json"],
         "error: cannot read config file: [Errno 2] No such file or "
         "directory: ", False),
        (["simulate", "--config", "{tmp}/array.json"],
         "error: config file must hold a JSON object", True),
        (["simulate", "--config", "{tmp}/xml.json"],
         "error: unknown format: 'xml'", True),
        (["budget", "--config", "{tmp}/ring.json"],
         "error: unknown topology: 'ring'", True),
        (["simulate", "--profile", "file:{tmp}/words.csv", "--T", "1",
          "--steps", "10"],
         "error: cannot parse profile file '{tmp}/words.csv': ", False),
        (["simulate", "--profile", "file:{tmp}/times.csv", "--T", "1",
          "--steps", "10"],
         "error: profile file needs columns: t, gamma1", True),
        (["simulate", "--profile", "file:{tmp}/stretched.csv", "--T", "1",
          "--steps", "10"],
         "error: profile file times do not match the run grid", True),
        (["simulate", "--profile", "constant:inf", "--steps", "100"],
         "error: bad profile 'constant:inf': constant profile needs a "
         "finite gamma1 >= 0", True),
        (["simulate", "--profile", "constant:nan", "--steps", "100"],
         "error: bad profile 'constant:nan': constant profile needs a "
         "finite gamma1 >= 0", True),
        (["sweep"], "error: sweep subcommand needs --sweep param:lo:hi:n",
         True),
        (["sweep", "--sweep", "omega0:1:2:2"],
         "error: cannot sweep 'omega0'; choose one of ('T', 'gamma', 'eta', "
         "'gamma_loss')", True),
        (["budget", "--sender-rlc", "1:2", "--receiver-rlc", "1:1:1"],
         "error: circuit spec must look like R:L:C", True),
        (["budget", "--sender-rlc", "a:b:c", "--receiver-rlc", "1:1:1"],
         "error: bad circuit spec: could not convert string to float: 'a'",
         True),
        (["budget", "--sender-rlc=-1:1e-9:1e-12",
          "--receiver-rlc", "50:1e-9:1e-12"],
         "error: resistance must be positive and finite", True),
        (["budget", "--dt-cut", "-1"], "error: dt-cut must be nonnegative",
         True),
        (["budget", "--sender-rlc", "10:1e-9:1e-12",
          "--receiver-rlc", "50:1e-9:1e-12"],
         "error: circuit validity needs --gamma1-max or a positive --dt-cut",
         True),
    ], ids=["config-missing", "config-array", "config-format",
            "config-topology", "profile-rows", "profile-one-column",
            "profile-times", "constant-inf", "constant-nan",
            "sweep-without-spec", "sweep-unknown-param",
            "rlc-two-parts",
            "rlc-words", "rlc-negative", "budget-negative-cut",
            "circuits-without-cap"])
    def test_refusals_exit_2(self, tmp_path, capsys, argv, line, exact):
        # each input is refused with one error line (after any warnings),
        # no traceback and no artifact; a refused config file leaves no
        # output directory, and later refusals leave only config.json.
        # Where the line quotes an OS or numpy message, its prefix is fixed
        inputs = {
            "array.json": "[1, 2]",
            "xml.json": '{"format": "xml"}',
            "ring.json": json.dumps({"topology": "ring",
                                     "sender_rlc": "10:1e-9:1e-12",
                                     "receiver_rlc": "50:1e-9:1e-12"}),
            "words.csv": "t,gamma1\n0,a\n1,b\n",
            "times.csv": "t\n" + "".join(f"{i / 10!r}\n" for i in range(11)),
            "stretched.csv": "t,gamma1\n" + "".join(
                f"{1.01 * i / 10!r},1\n" for i in range(11)),
        }
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "run"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        line = line.format(tmp=tmp_path)
        assert main([*argv, "--out", str(out)]) == 2
        *warnings, last = capsys.readouterr().err.splitlines()
        assert all(w.startswith("warning: ") for w in warnings)
        assert last == line if exact else last.startswith(line)
        assert {p.name for p in out.glob("*")} <= {"config.json"}

    def test_profile_file_columns_past_the_second_are_not_parsed(
            self, tmp_path):
        profile = tmp_path / "p.csv"
        profile.write_text("t,gamma1,note\n" + "".join(
            f"{i / 10!r},1,word\n" for i in range(11)))
        assert main(["simulate", "--profile", f"file:{profile}", "--T", "1",
                     "--steps", "10", "--out", str(tmp_path / "run")]) == 0

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

    def test_removed_method_key_exits_2(self, tmp_path, capsys):
        # config files from versions with a choice of two step maps
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1.0, "method": "rk4"}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert "unknown config keys: method" in capsys.readouterr().err

    def test_removed_method_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--method", "rk4",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_every_flag_is_a_config_field(self):
        # resolve_config reads only RunConfig fields, so a flag without a
        # field would be accepted and ignored, and a field without a flag
        # could be set from a file only
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for p in [parser, *sub.choices.values()]
                 for a in p._actions if a.dest != "help"}
        fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
        assert dests - {"config", "command"} == fields
        # and by the written-out key sets, every field is read somewhere
        keys = {c: {_FLAG_KEYS[f][0] for f in flags} - {None}
                for c, flags in _TAKES.items()}
        assert {c: len(k) for c, k in keys.items()} == {
            "simulate": 14, "optimize": 11, "sweep": 13, "budget": 13}
        assert set().union(*keys.values()) == fields

    @pytest.mark.parametrize("command", sorted(_TAKES))
    def test_each_command_takes_exactly_its_options(self, tmp_path, command):
        # every other flag exits 2, and every other config key too unless
        # it holds its default, as in the command's own config.json
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {s for a in sub.choices[command]._actions
                 for s in a.option_strings} - {"-h", "--help"}
        assert flags == _TAKES[command]
        assert len(flags) == {"simulate": 15, "optimize": 12, "sweep": 14,
                              "budget": 14}[command]
        path = tmp_path / "cfg.json"
        for flag, (key, value) in _FLAG_KEYS.items():
            if flag not in _TAKES[command]:
                argv = [command, flag] + ([] if value is True else ["1"])
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 2, flag
            if key is None:
                continue
            path.write_text(json.dumps({key: value}))
            if flag in _TAKES[command]:
                assert cli.load_config(str(path), command) == {key: value}
            else:
                with pytest.raises(cli.ConfigError) as exc:
                    cli.load_config(str(path), command)
                assert str(exc.value) == (
                    f"config keys not read by {command}: {key}")
            default = dataclasses.asdict(cli.RunConfig())[key]
            path.write_text(json.dumps({key: default}))
            assert cli.load_config(str(path), command) == {key: default}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--steps", "10"],
        ["optimize", "--steps", "10"],
        ["sweep", "--sweep", "T:1:1:1", "--steps", "10"],
        ["budget"],
    ], ids=lambda argv: argv[0])
    def test_a_run_registers_only_its_commands_options(self, tmp_path,
                                                       monkeypatch, argv):
        # each add_argument builds a help formatter, so main() registers
        # the invoked command's options alone; every parser still takes
        # argparse's own -h
        added = []
        add = argparse.ArgumentParser.add_argument

        def record(parser, *flags, **kwargs):
            added.append(flags)
            return add(parser, *flags, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", record)
        assert main([*argv, "--out", str(tmp_path / "x")]) == 0
        helps = [f for f in added if f == ("-h", "--help")]
        # the top-level parser and the four subcommands
        assert len(helps) == 5
        assert sorted(f for f in added if f not in helps) == sorted(
            (flag,) for flag in _TAKES[argv[0]])

    @pytest.mark.parametrize("argv, unread", [
        (["optimize", "--profile", "constant:1"], "--profile constant:1"),
        (["sweep", "--kernels", "--sweep", "T:1:2:2", "--steps", "100"],
         "--kernels"),
        (["budget", "--format", "csv", "--dt-cut", "1e-3"], "--format csv"),
        (["budget", "--profile", "file:nope.csv"], "--profile file:nope.csv"),
        (["budget", "--steps", "5"], "--steps 5"),
        (["optimize", "--steps", "10", "--target-fidelity", "-1"],
         "--target-fidelity -1"),
        (["sweep", "--sweep", "T:1:2:2", "--steps", "10",
          "--target-fidelity", "5"], "--target-fidelity 5"),
    ], ids=["optimize-profile", "sweep-kernels", "budget-format",
            "budget-profile", "budget-steps", "optimize-target",
            "sweep-target"])
    def test_unread_flag_exits_2(self, tmp_path, capsys, argv, unread):
        # each of these exited 0 with the flag dropped, except budget
        # --steps 5, which was refused for a value budget never read
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        # under the command's own usage line, which lists what it takes
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: oscxfer {argv[0]} [-h] [--config")
        assert err[-1] == (
            f"oscxfer {argv[0]}: error: unrecognized arguments: {unread}")
        assert not out.exists()

    @pytest.mark.parametrize("command, values, keys", [
        ("simulate", {"sweep": "T:1:2:2", "sender_rlc": "10:1e-9:1e-12"},
         "sender_rlc, sweep"),
        # a sweep point ran without its kernels, whatever the file said
        ("sweep", {"sweep": "T:1:2:2", "kernels": True}, "kernels"),
        ("budget", {"format": "csv"}, "format"),
    ], ids=["simulate-sweep-rlc", "sweep-kernels", "budget-format"])
    def test_unread_config_key_exits_2(self, tmp_path, capsys, command,
                                       values, keys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "x"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: config keys not read by {command}: {keys}"]
        assert not out.exists()

    def test_target_needs_the_optimal_profile(self, tmp_path, capsys):
        # only the optimal profile's budget block reads the target
        assert main(["simulate", "--profile", "constant:1",
                     "--target-fidelity", "0.9", "--steps", "100",
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --target-fidelity applies only to --profile optimal, "
            "not 'constant:1'"]

    @pytest.mark.parametrize("key, value", [
        ("max_iters", 5000),
        ("step_size", 1.0),
        ("tolerance", 1e-10),
    ])
    def test_removed_ascent_key_exits_2(self, tmp_path, capsys, key, value):
        # config files from versions with the iterative ascent's knobs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1.0, key: value}))
        assert main(["optimize", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["budget", "simulate"])
    @pytest.mark.parametrize("margin", ["nan", "inf", "0", "-1"])
    def test_margin_must_be_finite_and_positive(self, tmp_path, capsys,
                                                command, margin):
        out = tmp_path / "x"
        steps = ["--steps", "100"] if command == "simulate" else []
        assert main([command, "--margin", margin, "--dt-cut", "1e-3",
                     *steps, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: margin must be finite and positive"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "optimize", "sweep",
                                         "budget"])
    @pytest.mark.parametrize("flag, key", [
        ("--gamma", "gamma"), ("--T", "transfer_time"), ("--eta", "eta"),
        ("--gamma-loss", "gamma_loss"), ("--omega0", "omega0"),
        ("--dt-cut", "dt_cut"), ("--gamma1-max", "gamma1_max"),
        ("--target-fidelity", "target_fidelity"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_flag_exits_2(self, tmp_path, capsys, command, flag,
                                    key, value):
        # refused before the output directory is made, naming the key, or
        # by the parser where the command does not take the flag
        out = tmp_path / "x"
        sweep = ["--sweep", "T:1:2:2"] if command == "sweep" else []
        steps = ["--steps", "100"] if "--steps" in _TAKES[command] else []
        argv = [command, f"{flag}={value}", *sweep, *steps, "--out", str(out)]
        if flag in _TAKES[command]:
            assert main(argv) == 2
            assert capsys.readouterr().err.splitlines() == [
                f"error: {key} must be finite, not {float(value)!r}"]
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_config_value_exits_2(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"gamma": %s}' % value)
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--steps", "100",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: gamma must be finite, not {json.loads(value)!r}"]
        assert not out.exists()

    def test_json_writer_refuses_nan(self, tmp_path):
        path = tmp_path / "r.json"
        with pytest.raises(ValueError):
            artifacts._write_json(path, {"ok": 1.0, "bad": [math.nan]})
        assert not path.exists()

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("command, values, steps", [
        ("simulate", {"gamma": "2"}, ["--steps", "100"]),
        ("simulate", {"margin": "x"}, ["--steps", "100"]),
        ("budget", {"margin": "x"}, []),
        ("simulate", {"n_steps": 100.5}, []),
        ("simulate", {"kernels": "no"}, ["--steps", "100"]),
        ("simulate", {"gamma": True}, ["--steps", "100"]),
    ])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys,
                                                command, values, steps):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main([command, "--config", str(cfg), *steps,
                     "--out", str(tmp_path / "x")]) == 2
        (key,) = values
        assert f"config key {key!r} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--profile", "wedge:1"],
        ["simulate", "--gamma", "-1"],
        ["simulate", "--steps", "5"],
        ["simulate", "--eta", "1.5"],
    ])
    def test_invalid_values_exit_2(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("command, T", [
        ("optimize", "5e-324"), ("optimize", "1e-310"), ("simulate", "5e-324"),
    ])
    def test_subnormal_grid_step_exits_2(self, tmp_path, capsys, command, T):
        # the step T/10 underflowed to 0 or to a subnormal, and the run
        # ended in a division by zero, a NaN stage value or a misleading
        # "truncation = 0"
        assert main([command, "--gamma", "1", "--T", T, "--steps", "10",
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: grid step T/n_steps = {T}/10 is below the smallest "
            "normal double 2.2250738585072014e-308"]

    @pytest.mark.parametrize("profile, flags, flag", [
        ("constant:1", ["--gamma1-max", "0.001"], "--gamma1-max"),
        ("file", ["--gamma1-max", "0.5", "--dt-cut", "0.5"], "--dt-cut"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_hold_flags_need_the_optimal_profile(self, tmp_path, capsys,
                                                 command, profile, flags,
                                                 flag):
        # only the optimal profile has a hold window; a constant or file
        # profile ran with the same bits as without the flags
        if profile == "file":
            path = tmp_path / "p.csv"
            path.write_text("t,gamma1\n" + "".join(
                f"{i / 100!r},1\n" for i in range(101)))
            profile = f"file:{path}"
        sweep = ["--sweep", "gamma:1:1:1"] if command == "sweep" else []
        out = tmp_path / "x"
        assert main([command, *sweep, "--profile", profile, "--T", "1",
                     "--steps", "100", *flags, "--out", str(out)]) == 2
        point = "gamma=1: " if command == "sweep" else ""
        assert capsys.readouterr().err.splitlines() == [
            f"error: {point}{flag} applies only to --profile optimal, "
            f"not {profile!r}"]
        assert not (out / "report.json").exists()

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

    @pytest.mark.parametrize("text", ["t,gamma1\n", ""],
                             ids=["header-only", "empty"])
    def test_profile_file_without_rows_exits_2(self, tmp_path, capsys,
                                               recwarn, text):
        # numpy's "UserWarning: loadtxt: input contained no data", and the
        # source line that raised it, came before the error line (pytest
        # records warnings, so they do not reach capsys here)
        profile = tmp_path / "p.csv"
        profile.write_text(text)
        assert main(["simulate", "--profile", f"file:{profile}", "--T", "1",
                     "--steps", "10", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: profile file has 0 rows; the grid has 11 nodes "
            "(t=0 .. T inclusive)"]
        assert [str(w.message) for w in recwarn] == []

    def test_large_rate_gap_oracle_no_traceback(self):
        # (gamma - gamma1)*t reaches 3e5: the constant-coupling oracle used
        # to overflow in expm1 and end the run in a traceback.  No grid of
        # 10 steps resolves gamma = 3e5 (see the next test), so the oracle
        # is checked on that grid's nodes directly.
        p = SystemParams(gamma=3e5, transfer_time=1.0, omega0=1e12)
        oracle = reference_curve(p, CouplingProfile.constant(1.0),
                                 TimeGrid(1.0, 10).nodes())
        assert np.all(np.isfinite(oracle))
        assert oracle[-1] == pytest.approx(0.0013433102668475141, rel=1e-14,
                                           abs=0.0)

    @pytest.mark.parametrize("edge_name, steps", [("rk4", 107720)])
    def test_unresolved_receiver_rate_exits_3(self, tmp_path, capsys,
                                              edge_name, steps):
        # (gamma + gamma_loss)*dt = 3e4 is far past the stability edge: the
        # run used to exit 0 with fidelity -1.1e304
        out = tmp_path / "run"
        code = main(["simulate", "--profile", "constant:1", "--gamma", "3e5",
                     "--omega0", "1e12", "--T", "1", "--steps", "10",
                     "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: receiver too stiff for the grid: "
            "(gamma + gamma_loss)*dt = 30000 exceeds the "
            f"{edge_name} stability edge {STABILITY_EDGE:g}; "
            f"the grid needs at least {steps} steps (at step 0)"]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("flag, value, steps", [
        ("--gamma-loss", "1e300", "3.591e+299"),
        ("--gamma", "1e20", "3.591e+19"),
    ])
    def test_step_count_past_2_53_is_rounded_up(self, tmp_path, capsys,
                                                flag, value, steps):
        # past 2**53 a count's last digits are float noise; the hint shows
        # 4 significant digits, rounded up so that "at least" still holds
        code = main(["simulate", flag, value, "--T", "1", "--steps", "10",
                     "--out", str(tmp_path / "run")])
        assert code == 3
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"the grid needs at least {steps} steps (at step 0)")

    def test_coarsest_default_run_exits_0(self, tmp_path):
        # the default T = 5 at the fewest steps: gamma*dt = 0.5
        assert main(["simulate", "--steps", "10",
                     "--out", str(tmp_path / "x")]) == 0

    def test_numerical_failure_stderr_is_two_lines(self, tmp_path, capsys):
        # no numpy RuntimeWarning may reach stderr on the way to exit 3.
        # The profile's cell of 1.7e308 overflows the stage sums of step 6
        # (a grid this fine resolves it); omega0 = 5 adds the warning line
        T, n = 1e-306, 10
        profile = tmp_path / "p.csv"
        with open(profile, "w") as fh:
            fh.write("t,gamma1\n")
            for i in range(n + 1):
                fh.write(f"{i * (T / n):.17g},{1.7e308 if i == 6 else 1.0}\n")
        code = main(["simulate", "--profile", f"file:{profile}",
                     "--omega0", "5", "--T", repr(T), "--steps", str(n),
                     "--out", str(tmp_path / "x")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "warning: weak damping violated: gamma*10 exceeds omega0 "
            "(rotating-frame treatment marginal)",
            "numerical failure: non-finite transfer coefficient (at step 6)",
        ]

    @pytest.mark.parametrize("error, code, line", [
        (OverflowError("math range error"), 3,
         "numerical failure: math range error"),
        (ZeroDivisionError("float division by zero"), 3,
         "numerical failure: float division by zero"),
        (MemoryError("cannot allocate"), 2,
         "error: not enough memory: cannot allocate"),
        # a bare MemoryError() left nothing after the colon
        (MemoryError(), 2, "error: not enough memory: simulate --steps 10"),
    ])
    def test_last_resort_exit_codes(self, tmp_path, capsys, monkeypatch,
                                    error, code, line):
        def fail(*args):
            raise error

        monkeypatch.setattr(cli, "integrate_blocks", fail)
        assert main(["simulate", "--steps", "10",
                     "--out", str(tmp_path / "x")]) == code
        assert capsys.readouterr().err.splitlines() == [line]

    @pytest.mark.parametrize("argv, line", [
        (["simulate", "--gamma1-max", "0", "--steps", "100"],
         "error: bad profile 'optimal': gamma1_max must be positive"),
        (["optimize", "--dt-cut", "0"],
         "error: truncation = 0 is rejected: the closed-form profile is "
         "singular at t = T; pass None to leave it untruncated"),
        (["optimize", "--dt-cut", "-1"], "error: truncation must be positive"),
    ], ids=["simulate-cap-0", "optimize-cut-0", "optimize-cut-negative"])
    def test_hold_window_refused_before_any_work(self, tmp_path, capsys,
                                                 monkeypatch, argv, line):
        # simulate used to integrate and write fidelity_curve.csv, and
        # optimize to run the whole optimization, before exiting 2
        def never(*args, **kwargs):
            pytest.fail("ran before the hold window was checked")

        monkeypatch.setattr(cli, "optimize_profile", never)
        monkeypatch.setattr(cli, "integrate_blocks", never)
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert [p.name for p in out.iterdir()] == ["config.json"]

    def test_stiff_profile_file_exits_3(self, tmp_path):
        bad = tmp_path / "p.csv"
        n = 50
        with open(bad, "w") as fh:
            fh.write("t,gamma1\n")
            for i in range(n + 1):
                fh.write(f"{i * (1.0 / n):.17g},1e300\n")
        assert main(["simulate", "--profile", f"file:{bad}", "--T", "1",
                     "--steps", str(n), "--out", str(tmp_path / "x")]) == 3

    def test_too_many_substeps_exits_2(self, tmp_path, capsys):
        # the held step near T = 1e-300 halves 25 times: the run used to
        # spend 2**25 substeps (over 10 s) before it exited 3
        out = tmp_path / "run"
        code = main(["simulate", "--gamma", "1", "--T", "1e-300",
                     "--gamma1-max", "1e308", "--steps", "86",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: profile needs 33554474 substeps, more than the bound "
            "4194304 (2**22); its first stiff step is 76"]
        assert not (out / "report.json").exists()


def _names(out):
    """The names in ``out``, sorted."""
    return sorted(p.name for p in out.iterdir())


class TestOutputDirectory:
    """A run's files replace its command's earlier ones only on exit 0."""

    @pytest.mark.parametrize("kernels", [[], ["--kernels"]],
                             ids=["plain", "kernels"])
    def test_failed_run_leaves_no_earlier_table(self, tmp_path, capsys,
                                                kernels):
        # the failing run used to leave the first run's fidelity_curve.csv
        # and report.json beside its own config.json
        out = str(tmp_path / "run")
        assert main(["simulate", "--T", "1", "--steps", "100", *kernels,
                     "--out", out]) == 0
        assert main(["simulate", "--gamma", "1", "--T", "1", "--gamma1-max",
                     "1e308", "--steps", "10000", *kernels,
                     "--out", out]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: profile too stiff to substep (at step 9999)"]
        assert _names(tmp_path / "run") == ["config.json"]
        assert _read_json(tmp_path / "run" / "config.json")[
            "gamma1_max"] == 1e308

    @pytest.mark.parametrize("first, second, left", [
        (["--format", "csv"], ["--format", "json"], ["report.json"]),
        (["--format", "csv", "--kernels"], ["--format", "json"],
         ["report.json"]),
        (["--format", "json"], ["--format", "csv"], ["fidelity_curve.csv"]),
        (["--kernels"], [], ["fidelity_curve.csv", "report.json"]),
    ], ids=["csv-json", "kernels-csv-json", "json-csv", "kernels-plain"])
    def test_one_runs_tables_only(self, tmp_path, first, second, left):
        # a T = 1 curve used to stay beside a T = 2 config.json
        out = tmp_path / "run"
        for T, flags in (("1", first), ("2", second)):
            assert main(["simulate", "--T", T, "--steps", "100", *flags,
                         "--out", str(out)]) == 0
        assert _names(out) == ["config.json", *left]
        fresh = tmp_path / "fresh"
        assert main(["simulate", "--T", "2", "--steps", "100", *second,
                     "--out", str(fresh)]) == 0
        for name in left:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    def test_optimize_json_removes_an_earlier_profile(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["optimize", "--steps", "100", "--out", out]) == 0
        assert main(["optimize", "--steps", "100", "--format", "json",
                     "--out", out]) == 0
        assert _names(tmp_path / "run") == ["config.json",
                                            "optimize_report.json"]

    def test_forked_sweep_replaces_its_table(self, tmp_path):
        out = tmp_path / "run"
        for spec in ("T:1:2:2", "T:1:3:3"):
            assert main(["sweep", "--sweep", spec, "--steps", "100",
                         "--format", "csv", "--out", str(out)]) == 0
        assert _names(out) == ["config.json", "sweep.csv"]
        assert [row["T"] for row in _read_csv(out / "sweep.csv")] == [
            "1", "2", "3"]

    @pytest.mark.parametrize("error, code", [
        (MemoryError("cannot allocate"), 2),
        (ZeroDivisionError("float division by zero"), 3),
    ], ids=["memory", "arithmetic"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--steps", "100", "--kernels"],
        ["optimize", "--steps", "100"],
        ["sweep", "--sweep", "T:1:2:2", "--steps", "100"],
    ], ids=["simulate", "optimize", "sweep"])
    def test_failure_mid_write_leaves_none_of_the_commands_files(
            self, tmp_path, monkeypatch, argv, error, code):
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 0

        def fail(fh, columns):
            fh.write(b"0,")
            raise error

        monkeypatch.setattr(artifacts, "_write_rows", fail)
        assert main([*argv, "--out", str(out)]) == code
        assert _names(out) == ["config.json"]

    def test_directory_of_a_killed_run_is_left_alone(self, tmp_path, capsys,
                                                     monkeypatch):
        # a killed run of the same pid left its staging directory, under
        # the name this run draws first: the run takes another name and
        # commits its own files, and nothing of the stale directory
        out = tmp_path / "run"
        stale = out / f".run-{os.getpid()}-00000000"
        stale.mkdir(parents=True)
        (stale / "report.json").write_text("{}\n")
        draws = [bytes(4)]
        urandom = os.urandom
        monkeypatch.setattr(cli.os, "urandom",
                            lambda n: draws.pop() if draws else urandom(n))
        assert main(["simulate", "--T", "2", "--steps", "100",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert draws == []
        assert _names(out) == [stale.name, "config.json",
                               "fidelity_curve.csv", "report.json"]
        fresh = tmp_path / "fresh"
        assert main(["simulate", "--T", "2", "--steps", "100",
                     "--out", str(fresh)]) == 0
        for name in ("fidelity_curve.csv", "report.json"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        assert _names(stale) == ["report.json"]
        assert (stale / "report.json").read_text() == "{}\n"

    def test_optimize_then_simulate_keeps_the_profile(self, tmp_path):
        # another command's files are left alone, so simulate can read the
        # profile that optimize wrote into the same directory
        flags = ["--gamma", "1", "--T", "2", "--steps", "250"]
        out = tmp_path / "run"
        assert main(["optimize", *flags, "--out", str(out)]) == 0
        profile = (out / "profile.csv").read_bytes()
        assert main(["simulate", *flags, "--profile",
                     f"file:{out / 'profile.csv'}", "--out", str(out)]) == 0
        assert _names(out) == ["config.json", "fidelity_curve.csv",
                               "optimize_report.json", "profile.csv",
                               "report.json"]
        assert (out / "profile.csv").read_bytes() == profile
        assert _read_json(out / "config.json")["profile"].startswith("file:")


# runs argv[1:] with simulate's table writer forked, as on two CPUs; prints
# whether this process then has a child left, running or unreaped
_STOP_PROBE = """
import os, sys
from oscxfer import cli

cli.os.sched_getaffinity = lambda pid: {0, 1}
# as the console script calls it, or with argv, as a caller in Python does
code = cli.main() if sys.argv.pop(1) == "console" else cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left")
except ChildProcessError:
    print("no child is left")
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer forks")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
@pytest.mark.parametrize("caller", ["argv", "console"])
def test_stopped_run_exits_with_one_line(tmp_path, signum, caller):
    # stopped once the writer child has written table rows (the header
    # comes before the fork), while the run integrates
    out = tmp_path / "run"
    proc = subprocess.Popen(
        [sys.executable, "-c", _STOP_PROBE, caller, "simulate", "--profile",
         "optimal", "--T", "5", "--steps", "3000000", "--out", str(out)],
        env={**os.environ,
             "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not any(path.stat().st_size > 1 << 16 for path
                      in out.glob(".run-*/fidelity_curve.csv")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signum)
        printed = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    line = f"interrupted: {signal.Signals(signum).name}\n"
    if caller == "console":
        # it ends by the signal, so that a calling shell stops too
        assert proc.returncode == -signum
        assert printed == ("", line)
    else:
        assert proc.returncode == 128 + signum
        assert printed == ("no child is left\n", line)
    assert _names(out) == ["config.json"]


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_stop_in_the_commit_step_waits_for_it(tmp_path, monkeypatch,
                                              signum):
    # the stop comes as the first artifact is moved in: all of them are,
    # and the staging directory goes, before the run stops
    replace = Path.replace

    def stopped(self, target):
        os.kill(os.getpid(), signum)
        monkeypatch.setattr(Path, "replace", replace)
        return replace(self, target)

    monkeypatch.setattr(Path, "replace", stopped)
    assert main(["simulate", "--T", "1", "--steps", "100",
                 "--out", str(tmp_path)]) == 128 + signum
    assert _names(tmp_path) == ["config.json", "fidelity_curve.csv",
                                "report.json"]


_SRC_ENV = {**os.environ,
            "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

# runs argv[1:] on one CPU, so that no writer child outlives a SIGKILL
_ONE_CPU_PROBE = """
import sys
from oscxfer import cli

cli.os.sched_getaffinity = lambda pid: {0}
sys.exit(cli.main(sys.argv[1:]))
"""


def _simulate_into(out):
    """A short ``simulate`` into ``out``, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "oscxfer.cli", "simulate", "--T", "1",
         "--steps", "100", "--out", str(out)],
        env=_SRC_ENV, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.skipif(cli.fcntl is None, reason="no flock")
def test_next_run_removes_a_killed_runs_directory(tmp_path):
    # killed by SIGKILL once its first block is written, while it
    # integrates the next: its staging directory holds a partial table
    out = tmp_path / "run"
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_PROBE, "simulate", "--T", "5",
         "--steps", "3000000", "--format", "csv", "--out", str(out)],
        env=_SRC_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not any(path.stat().st_size > 100 for path
                      in out.glob(".run-*/fidelity_curve.csv")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
    finally:
        proc.kill()
        proc.communicate()
    stage, = out.glob(".run-*")
    assert _names(stage) == ["fidelity_curve.csv", "lock"]
    _simulate_into(out)
    assert _names(out) == ["config.json", "fidelity_curve.csv",
                           "report.json"]


@pytest.mark.skipif(cli.fcntl is None, reason="no flock")
@pytest.mark.parametrize("lock", ["held", "none"])
def test_next_run_keeps_a_directory_it_cannot_tell_dead(tmp_path, lock):
    # one whose lock a live process holds, and one without a lock file
    out = tmp_path / "run"
    stage = out / ".run-1-00000000"
    stage.mkdir(parents=True)
    (stage / "fidelity_curve.csv").write_bytes(b"t,F_sim,F_oracle,abs_err\n")
    holder = None
    if lock == "held":
        (stage / "lock").touch()
        holder = subprocess.Popen(
            [sys.executable, "-c", "import fcntl, sys\n"
             "fh = open(sys.argv[1], 'rb')\n"
             "fcntl.flock(fh, fcntl.LOCK_EX)\n"
             "print('held', flush=True)\n"
             "sys.stdin.read()", str(stage / "lock")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        if holder:
            assert holder.stdout.readline() == "held\n"
        _simulate_into(out)
        assert _names(out) == [stage.name, "config.json",
                               "fidelity_curve.csv", "report.json"]
        assert _names(stage) == (["fidelity_curve.csv"]
                                 + (["lock"] if holder else []))
    finally:
        if holder:
            holder.communicate()
    if holder:
        # once the holder is gone, the lock is free and the next run
        # removes the directory
        _simulate_into(out)
        assert not stage.exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the run forks")
@pytest.mark.parametrize("argv", [
    ["simulate", "--T", "1", "--steps", "20000"],
    ["sweep", "--sweep", "T:1:2:2", "--steps", "100"],
    ["optimize", "--T", "3", "--steps", "10000"],
], ids=["writer", "sweep", "profile-writer"])
def test_stop_at_a_fork_reaps_the_child(tmp_path, monkeypatch, argv):
    # SIGTERM comes as the fork returns, before the child is registered
    forks = _table_writer_as(monkeypatch, "writer")
    fork = workers._fork

    def stopped(*args):
        child = fork(*args)
        os.kill(os.getpid(), signal.SIGTERM)
        return child

    monkeypatch.setattr(workers, "_fork", stopped)
    assert main([*argv, "--out", str(tmp_path)]) == 128 + signal.SIGTERM
    assert forks
    _no_child_is_left()
    assert _names(tmp_path) == ["config.json"]


def test_sigterm_handler_is_restored(tmp_path):
    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        assert main(["simulate", "--T", "1", "--steps", "100",
                     "--out", str(tmp_path)]) == 0
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_run_off_the_main_thread(tmp_path):
    # where no signal handler can be set, the command still runs
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main([
        "simulate", "--T", "1", "--steps", "100", "--out", str(tmp_path)])))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert codes == [0]
    assert _names(tmp_path) == ["config.json", "fidelity_curve.csv",
                                "report.json"]


def _no_child_is_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _table_writer_as(monkeypatch, mode):
    """Make ``simulate`` and ``optimize`` write their tables in ``mode``:
    through their forked writer (as on two CPUs), or in process without
    ``os.fork`` or on one CPU.  Returns the list of the forks
    ``workers._fork``
    makes."""
    if mode == "no-fork":
        monkeypatch.delattr(cli.os, "fork")
    else:
        cpus = {0, 1} if mode == "writer" else {0}
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
    forks = []
    fork = workers._fork

    def spy(*args):
        forks.append(args)
        return fork(*args)

    monkeypatch.setattr(workers, "_fork", spy)
    return forks


def _runs_by_mode(tmp_path, capsys, monkeypatch, fill, argv, modes,
                  **patches):
    """Exit code, stderr lines, forks and the files of ``argv`` run in each
    mode of :func:`_table_writer_as`, into a directory that the argv
    ``fill`` filled first, with the attributes that ``patches`` names set
    to its values for the run, each in the module that looks it up:
    ``artifacts`` or ``workers`` where it is defined (``_write_rows``,
    ``_child_formats``), else ``cli``."""
    runs = {}
    for mode in modes:
        out = tmp_path / mode
        assert main([*fill, "--out", str(out)]) == 0
        capsys.readouterr()
        with monkeypatch.context() as patch:
            forks = _table_writer_as(patch, mode)
            for name, value in patches.items():
                home = next(module for module in (artifacts, workers, cli)
                            if name in vars(module))
                patch.setattr(home, name, value)
            code = main([*argv, "--out", str(out)])
        _no_child_is_left()
        runs[mode] = (code, capsys.readouterr().err.splitlines(),
                      len(forks), {path.name: path.read_bytes()
                                   for path in out.iterdir()
                                   if path.name != "config.json"})
    return runs


# a lossy --kernels run of three blocks, the last one short
_LOSSY_KERNELS = ["simulate", "--T", "3", "--dt-cut", "0.25", "--gamma1-max",
                  "1.54", "--eta", "0.81", "--gamma-loss", "0.05",
                  "--steps", "20000", "--kernels"]


class TestTableWriter:
    """A multi-block ``simulate`` formats its tables in one forked child;
    every run gives what the in-process writer gives, and leaves no child."""

    def _runs(self, tmp_path, capsys, monkeypatch, argv, modes,
              write_rows=None):
        """:func:`_runs_by_mode` into directories that a short ``--kernels``
        simulate filled."""
        return _runs_by_mode(tmp_path, capsys, monkeypatch,
                             ["simulate", "--steps", "100", "--kernels"],
                             argv, modes, **(
                                 {"_write_rows": write_rows} if write_rows
                                 else {}))

    @pytest.mark.parametrize("fmt", ["csv", "both"])
    def test_writer_writes_the_in_process_bytes(self, tmp_path, capsys,
                                                monkeypatch, fmt):
        runs = self._runs(tmp_path, capsys, monkeypatch,
                          [*_LOSSY_KERNELS, "--format", fmt],
                          ["writer", "no-fork", "one-cpu"])
        code, err, forks, files = runs.pop("writer")
        assert (code, err, forks) == (0, [], 1)
        assert sorted(files) == sorted(
            ["commutator.csv", "fidelity_curve.csv"]
            + (["report.json"] if fmt == "both" else []))
        for mode, run in runs.items():
            assert run == (0, [], 0, files), mode

    @pytest.mark.parametrize("steps", ["8192", "8193"])
    def test_only_a_run_of_more_than_one_block_forks(
            self, tmp_path, capsys, monkeypatch, steps):
        runs = self._runs(tmp_path, capsys, monkeypatch,
                          ["simulate", "--T", "3", "--steps", steps],
                          ["writer", "one-cpu"])
        assert runs["writer"][2] == (steps == "8193")
        assert runs["writer"][3] == runs["one-cpu"][3]

    def test_json_run_does_not_fork(self, tmp_path, capsys, monkeypatch):
        runs = self._runs(tmp_path, capsys, monkeypatch,
                          [*_LOSSY_KERNELS, "--format", "json"], ["writer"])
        assert runs["writer"][:3] == (0, [], 0)

    @pytest.mark.parametrize("error, code, line", [
        (MemoryError("cannot allocate"), 2,
         "error: not enough memory: cannot allocate"),
        (MemoryError(), 2,
         "error: not enough memory: simulate --steps 20000"),
        (ZeroDivisionError("float division by zero"), 3,
         "numerical failure: float division by zero"),
    ], ids=["memory", "bare-memory", "arithmetic"])
    @pytest.mark.parametrize("call", [1, 3], ids=["first", "later"])
    def test_failure_mid_write_is_the_in_process_failure(
            self, tmp_path, capsys, monkeypatch, error, code, line, call):
        # the writer fails in its first table's first block, or in the
        # first table's second block
        calls = []

        def fail(fh, columns):
            calls.append(1)
            if len(calls) == call:
                fh.write(b"0,")
                raise error
            return write_rows(fh, columns)

        write_rows = artifacts._write_rows
        runs = self._runs(tmp_path, capsys, monkeypatch, _LOSSY_KERNELS,
                          ["writer", "one-cpu"], fail)
        assert runs["writer"] == (code, [line], 1, {})
        assert runs["one-cpu"] == (code, [line], 0, {})

    @pytest.mark.parametrize("kernels", [[], ["--kernels"]],
                             ids=["plain", "kernels"])
    def test_failure_in_block_two_is_the_in_process_failure(
            self, tmp_path, capsys, monkeypatch, kernels):
        runs = self._runs(tmp_path, capsys, monkeypatch, [
            "simulate", "--gamma", "1", "--T", "1", "--gamma1-max", "1e308",
            "--steps", "10000", *kernels], ["writer", "one-cpu"])
        line = "numerical failure: profile too stiff to substep (at step 9999)"
        assert runs["writer"] == (3, [line], 1, {})
        assert runs["one-cpu"] == (3, [line], 0, {})

    @pytest.mark.parametrize("kernels, tables", [
        ([], "fidelity_curve.csv"),
        (["--kernels"], "fidelity_curve.csv, commutator.csv"),
    ], ids=["plain", "kernels"])
    def test_killed_writer_exits_2(self, tmp_path, capsys, monkeypatch,
                                   kernels, tables):
        # as the OOM killer would kill it, on its first block
        parent = os.getpid()

        def kill(fh, columns):
            assert os.getpid() != parent, "the writer did not fork"
            os.kill(os.getpid(), signal.SIGKILL)

        runs = self._runs(tmp_path, capsys, monkeypatch, [
            "simulate", "--T", "3", "--steps", "16385", *kernels],
            ["writer"], kill)
        assert runs["writer"] == (2, [
            "error: the table writer ended without a result (killed by a "
            f"signal or out of memory); no table for {tables}"], 1, {})

    @staticmethod
    def _split_as(monkeypatch, split):
        """Make the writer's parent format the chunks ``split`` picks: all
        of them, none, or every second one.  Returns the rule's answers,
        True for each chunk sent raw."""
        answers = []

        def rule(backlog, limit):
            answers.append(split == "none" or split == "alternate"
                           and len(answers) % 2 == 0)
            return answers[-1]

        monkeypatch.setattr(workers, "_child_formats", rule)
        return answers

    @staticmethod
    def _count_own_formats(monkeypatch, answers):
        """Count the ``_format_rows`` calls this process makes once the
        rule has ``answers`` (not the writer's, whose list is its own)."""
        parent, calls = os.getpid(), []
        format_rows = artifacts._format_rows

        def count(block):
            if os.getpid() == parent and answers:
                calls.append(len(block))
            return format_rows(block)

        monkeypatch.setattr(artifacts, "_format_rows", count)
        return calls

    @pytest.mark.parametrize("fmt", ["csv", "both"])
    @pytest.mark.parametrize("split", ["all", "none", "alternate"])
    def test_every_split_writes_the_in_process_bytes(
            self, tmp_path, capsys, monkeypatch, split, fmt):
        argv = [*_LOSSY_KERNELS, "--format", fmt]
        want = self._runs(tmp_path, capsys, monkeypatch, argv, ["one-cpu"])
        with monkeypatch.context() as patch:
            answers = self._split_as(patch, split)
            own = self._count_own_formats(patch, answers)
            runs = self._runs(tmp_path, capsys, patch, argv, ["writer"])
        assert runs["writer"] == (0, [], 1, want["one-cpu"][3])
        # three blocks of 8193, 8192 and 3616 rows in 9 + 8 + 4 chunks,
        # for each of the two tables
        assert len(answers) == 42
        assert len(own) == answers.count(False)

    @pytest.mark.parametrize("error, code, line", [
        (MemoryError("cannot allocate"), 2,
         "error: not enough memory: cannot allocate"),
        (ZeroDivisionError("float division by zero"), 3,
         "numerical failure: float division by zero"),
    ], ids=["memory", "arithmetic"])
    def test_failure_in_a_parent_chunk_is_the_in_process_failure(
            self, tmp_path, capsys, monkeypatch, error, code, line):
        # the parent fails on its second chunk of 1024 rows (not the earlier
        # run's 101): forked, the run's fourth chunk, with raw chunks before
        # and after it sent to the writer; in process, the run's second
        parent, calls = os.getpid(), []
        format_rows = artifacts._format_rows

        def fail(block):
            if os.getpid() == parent and len(block) == artifacts._CSV_BLOCK:
                calls.append(1)
                if len(calls) == 2:
                    raise error
            return format_rows(block)

        monkeypatch.setattr(artifacts, "_format_rows", fail)
        self._split_as(monkeypatch, "alternate")
        fds = _open_descriptors()
        runs = self._runs(tmp_path, capsys, monkeypatch, _LOSSY_KERNELS,
                          ["writer"])
        assert fds == _open_descriptors()
        calls.clear()
        runs.update(self._runs(tmp_path, capsys, monkeypatch, _LOSSY_KERNELS,
                               ["one-cpu"]))
        assert runs["writer"] == (code, [line], 1, {})
        assert runs["one-cpu"] == (code, [line], 0, {})

    def test_writer_killed_with_parent_chunks_queued_exits_2(
            self, tmp_path, capsys, monkeypatch):
        # killed on its second raw chunk, after the parent has had time to
        # queue its own formatted chunks behind it
        parent = os.getpid()
        calls = []

        def kill(fh, columns):
            assert os.getpid() != parent, "the writer did not fork"
            calls.append(1)
            if len(calls) == 2:
                time.sleep(0.1)
                os.kill(os.getpid(), signal.SIGKILL)
            return write_rows(fh, columns)

        write_rows = artifacts._write_rows
        self._split_as(monkeypatch, "alternate")
        fds = _open_descriptors()
        runs = self._runs(tmp_path, capsys, monkeypatch, [
            "simulate", "--T", "3", "--steps", "16385", "--kernels"],
            ["writer"], kill)
        assert fds == _open_descriptors()
        assert runs["writer"] == (2, [
            "error: the table writer ended without a result (killed by a "
            "signal or out of memory); no table for fidelity_curve.csv, "
            "commutator.csv"], 1, {})

    @pytest.mark.parametrize("argv", [
        _LOSSY_KERNELS,
        ["simulate", "--profile", "optimal", "--gamma", "1", "--T", "5",
         "--dt-cut", "1e-3", "--steps", "100000"],
    ], ids=["lossy-kernels", "plain"])
    def test_parent_reads_the_writers_progress(self, tmp_path, capsys,
                                               monkeypatch, argv):
        # with 5 ms before each decision the writer keeps up, so the
        # backlog the parent reads stays below the limit; a count that the
        # writer's writes never reach would climb to it
        seen = []

        def rule(backlog, limit):
            seen.append((backlog, limit))
            time.sleep(0.005)
            return child_formats(backlog, limit)

        child_formats = workers._child_formats
        monkeypatch.setattr(workers, "_child_formats", rule)
        runs = self._runs(tmp_path, capsys, monkeypatch, argv, ["writer"])
        assert runs["writer"][:3] == (0, [], 1)
        assert seen and all(0 <= backlog < limit for backlog, limit in seen)

    def test_child_writes_each_table_in_row_order(self):
        # the writer child's loop, fed in process: two tables of 2500 rows
        # in three chunks each, sent in reverse row order, raw and
        # formatted; the raw ones go through the row builder, which gets
        # each chunk's first row
        n, block = 2500, artifacts._CSV_BLOCK
        x = [np.linspace(0.0, 1.0, n) ** 3, np.sqrt(np.arange(n) / 7.0)]

        def build(at, col):
            return np.arange(at, at + col.size) * 0.25, col

        want = []
        for col in x:
            artifacts._write_rows(whole := io.BytesIO(), build(0, col))
            want.append(whole.getvalue())
        stream, raw = io.BytesIO(), 0
        for k, at in enumerate([2048, 1024, 0]):
            for table in (1, 0):
                col = x[table][at:at + block]
                if (k + table) % 2:  # raw
                    raw += 1
                    stream.write(workers._CHUNK_HEAD.pack(
                        table, at, col.size, 1, 8 * col.size))
                    stream.write(col.tobytes())
                else:
                    data = artifacts._format_rows(
                        np.column_stack(build(at, col)))
                    stream.write(workers._CHUNK_HEAD.pack(
                        table, at, col.size, 0, len(data)))
                    stream.write(data)
        end = stream.tell()
        stream.write(b"past the tables' last rows")
        stream.seek(0)
        files, done = [io.BytesIO(), io.BytesIO()], [0]
        workers._write_tables(stream, files, done, n, build)
        assert [fh.getvalue() for fh in files] == want
        assert (stream.tell(), done) == (end, [raw])

    def test_child_formats_while_fewer_than_the_limit_wait(self):
        # the comparison is strict: at the limit, the parent formats
        assert workers._child_formats(0, 1)
        assert not workers._child_formats(1, 1)

    @pytest.mark.skipif(not hasattr(workers.fcntl, "F_SETPIPE_SZ"),
                        reason="no pipe size to set")
    @pytest.mark.parametrize("pipe", ["no-setpipe", "setpipe-refused"])
    def test_pipe_that_cannot_grow_writes_the_same_bytes(
            self, tmp_path, capsys, monkeypatch, pipe):
        # in a fresh interpreter, so that a deadlock ends in the timeout
        argv = ["simulate", "--profile", "optimal", "--gamma", "1", "--T",
                "5", "--dt-cut", "1e-3", "--steps", "100000"]
        want = self._runs(tmp_path, capsys, monkeypatch, argv, ["one-cpu"])
        out = tmp_path / pipe
        proc = subprocess.run(
            [sys.executable, "-c", _PIPE_PROBE, pipe, *argv, "--out",
             str(out)],
            env={**os.environ,
                 "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        # the writer forked, on a pipe of Linux's default 64 KiB
        assert json.loads(proc.stdout) == {"forks": 1, "capacity": [65536]}
        assert {path.name: path.read_bytes() for path in out.iterdir()
                if path.name != "config.json"} == want["one-cpu"][3]


# exit 3 in cell 2047 of 2049, once the block of cell 2048 has gone to the
# profile writer: the zero-coupling stage value overflows
_OPTIMIZE_FAILS = ["optimize", "--gamma", "1454790", "--T", "1",
                   "--gamma1-max", "1e308", "--omega0", "1e9",
                   "--steps", "2049"]
_FAILS_LINE = ("numerical failure: stage value inf is not finite and "
               "positive in cell 2047")


class TestProfileWriter:
    """An ``optimize`` run of more than one 1024-cell block hands each block
    of its sweep to one forked writer child as the sweep finishes it; every
    run gives what the in-process writer gives, and leaves no child."""

    def _runs(self, tmp_path, capsys, monkeypatch, argv, modes, **patches):
        """:func:`_runs_by_mode` into directories that a short optimize
        filled, each leaving no descriptor."""
        fds = _open_descriptors()
        runs = _runs_by_mode(tmp_path, capsys, monkeypatch,
                             ["optimize", "--steps", "100"], argv, modes,
                             **patches)
        assert _open_descriptors() == fds
        return runs

    @staticmethod
    def _logged(log, dt=None):
        """A ``_write_rows`` that appends to the file ``log`` where each
        call's rows go: "held" (formatted to be held) or "file", and, given
        the grid step ``dt``, the row of their first node."""
        write_rows = artifacts._write_rows

        def logged(fh, columns):
            with open(log, "a") as out:
                out.write("held" if isinstance(fh, io.BytesIO) else "file")
                if dt is not None:
                    out.write(f" {round(columns[0][0] / dt)}")
                out.write("\n")
            return write_rows(fh, columns)

        return logged

    @pytest.mark.parametrize("steps", ["1023", "1024", "2047", "2048",
                                       "10000"])
    def test_writer_writes_the_in_process_bytes(self, tmp_path, capsys,
                                                monkeypatch, steps):
        # 1024, 1025, 2048 and 2049 rows: the last node alone past a block
        # edge, and a grid of one block, which does not fork
        runs = self._runs(tmp_path, capsys, monkeypatch,
                          ["optimize", "--gamma", "1", "--T", "3",
                           "--steps", steps],
                          ["writer", "no-fork", "one-cpu"])
        code, err, forks, files = runs.pop("writer")
        assert (code, err, forks) == (0, [], int(steps) > 1024)
        assert sorted(files) == ["optimize_report.json", "profile.csv"]
        for mode, run in runs.items():
            assert run == (0, [], 0, files), mode

    def test_rows_are_the_whole_grids(self, tmp_path):
        # each block's rows have the bits of the columns built whole
        p, grid = SystemParams(gamma=1.0, transfer_time=3.0), TimeGrid(3.0,
                                                                       2049)
        profile, _ = optimize.optimize_profile(p, grid)
        times = grid.nodes()
        closed = profile_values(CouplingProfile.optimal(truncation=grid.dt),
                                p, times)
        rel = np.where(closed > 0,
                       np.abs(profile.values - closed) / closed, math.nan)
        artifacts._write_csv(
            tmp_path / "whole.csv",
            ["t", "gamma1_opt", "gamma1_closed_form", "rel_err"],
            (times, profile.values, closed, rel))
        out = tmp_path / "run"
        assert main(["optimize", "--gamma", "1", "--T", "3", "--steps",
                     "2049", "--out", str(out)]) == 0
        assert ((out / "profile.csv").read_bytes()
                == (tmp_path / "whole.csv").read_bytes())

    @pytest.mark.parametrize("held", [0, 3, 51])
    def test_child_holds_at_most_the_held_blocks(self, tmp_path, capsys,
                                                 monkeypatch, held):
        # ten blocks: the first `held` that the sweep finishes are held,
        # formatted; the rest come after the sweep, in row order, and go
        # straight to the file, as does the first block once it comes.
        # Every chunk goes raw, so the child formats each one, and each
        # block of 1024 cells (785 rows for the last) is one chunk
        log = tmp_path / "log"
        want = self._runs(tmp_path, capsys, monkeypatch,
                          ["optimize", "--steps", "10000"], ["one-cpu"])
        monkeypatch.setattr(cli, "_HELD_ROWS", 1024 * held)
        runs = self._runs(tmp_path, capsys, monkeypatch,
                          ["optimize", "--steps", "10000"], ["writer"],
                          _write_rows=self._logged(log, 5 / 10000),
                          _child_formats=lambda backlog, limit: True)
        assert runs["writer"] == (0, [], 1, want["one-cpu"][3])
        kept = min(held, 9)
        assert log.read_text().splitlines() == [
            f"held {1024 * block}" for block in range(9, 9 - kept, -1)] + [
            f"file {1024 * block}" for block in range(10 - kept)]

    @pytest.mark.parametrize("size, blocks", [(512, 20), (3000, 4)])
    def test_child_takes_the_sweeps_block_edges(self, tmp_path, capsys,
                                                monkeypatch, size, blocks):
        # the sweep's block size has one owner, optimize.SWEEP_BLOCK: with
        # another size the child takes each block's 1024-row chunks and
        # writes the same bytes, holding every block but the first.  Every
        # chunk goes raw, so the child formats each one
        log = tmp_path / "log"
        want = self._runs(tmp_path, capsys, monkeypatch,
                          ["optimize", "--steps", "10000"], ["one-cpu"])
        monkeypatch.setattr(optimize, "SWEEP_BLOCK", size)
        runs = self._runs(tmp_path, capsys, monkeypatch,
                          ["optimize", "--steps", "10000"], ["writer"],
                          SWEEP_BLOCK=size,
                          _write_rows=self._logged(log, 5 / 10000),
                          _child_formats=lambda backlog, limit: True)
        assert runs["writer"] == (0, [], 1, want["one-cpu"][3])
        # each block's chunks in row order, the last block first
        starts = range((blocks - 1) * size, -1, -size)
        assert log.read_text().splitlines() == [
            f"{'file' if start == 0 else 'held'} {row}" for start in starts
            for row in range(start, min(start + size, 10000), 1024)]

    def test_sweep_failure_is_the_in_process_failure(self, tmp_path, capsys,
                                                     monkeypatch):
        log = tmp_path / "log"
        runs = self._runs(tmp_path, capsys, monkeypatch, _OPTIMIZE_FAILS,
                          ["writer", "one-cpu"],
                          _write_rows=self._logged(log))
        assert runs["writer"] == (3, [_FAILS_LINE], 1, {})
        assert runs["one-cpu"] == (3, [_FAILS_LINE], 0, {})
        # the child formatted the block of cell 2048 before the pipe ended
        assert log.read_text().split() == ["held"]

    @pytest.mark.parametrize("error, code, line", [
        (MemoryError("cannot allocate"), 2,
         "error: not enough memory: cannot allocate"),
        (MemoryError(), 2,
         "error: not enough memory: optimize --steps 10000"),
        (OSError(errno.ENOSPC, "No space left on device"), 2,
         "error: cannot write output: [Errno 28] No space left on device"),
    ], ids=["memory", "bare-memory", "no-space"])
    @pytest.mark.parametrize("call", [1, 10], ids=["first", "last"])
    def test_failure_in_the_writer_is_the_in_process_failure(
            self, tmp_path, capsys, monkeypatch, error, code, line, call):
        # forked, the child fails on the first block it is sent (held) or
        # on the last one, which it writes; in process, on the first or
        # the last block that finish() writes
        calls = []

        def fail(fh, columns):
            calls.append(1)
            if len(calls) == call:
                fh.write(b"0,")
                raise error
            return write_rows(fh, columns)

        write_rows = artifacts._write_rows
        runs = self._runs(tmp_path, capsys, monkeypatch,
                          ["optimize", "--steps", "10000"],
                          ["writer", "one-cpu"], _write_rows=fail)
        assert runs["writer"] == (code, [line], 1, {})
        assert runs["one-cpu"] == (code, [line], 0, {})

    def test_error_of_the_run_comes_before_the_writers(
            self, tmp_path, capsys, monkeypatch):
        # in process the rows are written after the run's checks, so a
        # check that fails is the error, whatever the child then did
        real = cli.optimize_profile

        def nan_residual(*args, **kwargs):
            profile, result = real(*args, **kwargs)
            return profile, dataclasses.replace(result, kkt_residual=math.nan)

        def fail(fh, columns):
            raise MemoryError("cannot allocate")

        line = "numerical failure: optimizer kkt_residual is nan"
        runs = self._runs(tmp_path, capsys, monkeypatch,
                          ["optimize", "--steps", "10000"],
                          ["writer", "one-cpu"], _write_rows=fail,
                          optimize_profile=nan_residual)
        assert runs["writer"] == (3, [line], 1, {})
        assert runs["one-cpu"] == (3, [line], 0, {})

    def test_killed_writer_exits_2(self, tmp_path, capsys, monkeypatch):
        # as the OOM killer would kill it, on its first block
        parent = os.getpid()

        def kill(fh, columns):
            assert os.getpid() != parent, "the writer did not fork"
            os.kill(os.getpid(), signal.SIGKILL)

        runs = self._runs(tmp_path, capsys, monkeypatch,
                          ["optimize", "--steps", "10000"], ["writer"],
                          _write_rows=kill)
        assert runs["writer"] == (2, [
            "error: the profile writer ended without a result (killed by a "
            "signal or out of memory); no table for profile.csv"], 1, {})

    @pytest.mark.skipif(not hasattr(os, "waitid"), reason="no waitid")
    def test_child_exits_before_the_run_ends(self, tmp_path, monkeypatch):
        # once it has written every row the child exits, while this process
        # still computes the functional, so the reap need not wait for it
        children, exited = [], []
        fork, functional_value = workers._fork, cli.functional_value
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(workers, "_fork", lambda *args: children.append(
            fork(*args)) or children[-1])

        def waiting(*args):
            # WNOWAIT leaves the child to the reap
            flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if os.waitid(os.P_PID, children[0][0], flags):
                    exited.append(1)
                    break
                time.sleep(0.001)
            return functional_value(*args)

        monkeypatch.setattr(cli, "functional_value", waiting)
        assert main(["optimize", "--steps", "10000", "--out",
                     str(tmp_path)]) == 0
        assert (len(children), exited) == (1, [1])
        _no_child_is_left()

    def test_json_run_does_not_fork(self, tmp_path, capsys, monkeypatch):
        runs = self._runs(tmp_path, capsys, monkeypatch,
                          ["optimize", "--steps", "10000", "--format",
                           "json"], ["writer"])
        assert runs["writer"][:3] == (0, [], 0)
        assert sorted(runs["writer"][3]) == ["optimize_report.json"]


# runs argv[2:] with the table writer's pipe unable to grow: no
# F_SETPIPE_SZ, or one that the host refuses; prints the forks made and the
# capacities the writer found
_PIPE_PROBE = """
import errno, fcntl, json, sys
from oscxfer import cli, workers

if sys.argv[1] == "no-setpipe":
    del fcntl.F_SETPIPE_SZ
else:
    def refuse(fd, cmd, arg=0, fcntl_=fcntl.fcntl):
        if cmd == fcntl.F_SETPIPE_SZ:
            raise PermissionError(errno.EPERM, "Operation not permitted")
        return fcntl_(fd, cmd, arg)
    fcntl.fcntl = refuse
cli.os.sched_getaffinity = lambda pid: {0, 1}
forks, capacities = [], []
fork, pipe_capacity = workers._fork, workers._pipe_capacity
workers._fork = lambda *args: forks.append(1) or fork(*args)
workers._pipe_capacity = lambda fd: capacities.append(pipe_capacity(fd)) or capacities[-1]
code = cli.main(sys.argv[2:])
print(json.dumps({"forks": len(forks), "capacity": capacities}))
sys.exit(code)
"""


def _open_descriptors():
    """The descriptors this process has open (none listed without /proc)."""
    if not os.path.isdir("/proc/self/fd"):
        return []
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--T", "3", "--steps", "16385", "--kernels"], 0),
    (["simulate", "--T", "3", "--steps", "100"], 0),
    (["simulate", "--gamma", "1", "--T", "1", "--gamma1-max", "1e308",
      "--steps", "10000", "--kernels"], 3),
    (["sweep", "--sweep", "T:1:2:3", "--steps", "100"], 0),
    (["sweep", "--sweep", "eta:0.5:1.5:3", "--steps", "100"], 2),
    (["optimize", "--T", "3", "--steps", "10000"], 0),
    (_OPTIMIZE_FAILS, 3),
], ids=["simulate", "simulate-one-block", "simulate-fails", "sweep",
        "sweep-fails", "optimize", "optimize-fails"])
def test_no_child_is_left(tmp_path, monkeypatch, argv, code):
    # on two CPUs, where the writers and the sweep's workers fork
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert main([*argv, "--out", str(tmp_path)]) == code
    _no_child_is_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc to list descriptors in")
@pytest.mark.parametrize("argv, code", [
    (["simulate", "--T", "3", "--steps", "16385", "--kernels"], 0),
    (["simulate", "--gamma", "1", "--T", "1", "--gamma1-max", "1e308",
      "--steps", "10000", "--kernels"], 3),
    (["sweep", "--sweep", "T:1:2:3", "--steps", "100"], 0),
    (["sweep", "--sweep", "eta:0.5:1.5:3", "--steps", "100"], 2),
    (["optimize", "--T", "3", "--steps", "10000"], 0),
    (_OPTIMIZE_FAILS, 3),
], ids=["simulate", "simulate-fails", "sweep", "sweep-fails", "optimize",
        "optimize-fails"])
def test_no_descriptor_is_left(tmp_path, monkeypatch, argv, code):
    # on two CPUs, where the writers and the sweep's workers fork
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    before = _open_descriptors()
    assert main([*argv, "--out", str(tmp_path)]) == code
    assert _open_descriptors() == before


def _shared_mappings():
    """How many anonymous shared mappings this process has: the lines of
    /proc/self/maps that name ``/dev/zero (deleted)``."""
    with open("/proc/self/maps") as fh:
        return sum("/dev/zero (deleted)" in line for line in fh)


@pytest.mark.skipif(not os.path.isfile("/proc/self/maps"),
                    reason="no /proc to list mappings in")
@pytest.mark.parametrize("argv, code", [
    (["simulate", "--T", "3", "--steps", "16385", "--kernels"], 0),
    (["simulate", "--gamma", "1", "--T", "1", "--gamma1-max", "1e308",
      "--steps", "10000", "--kernels"], 3),
], ids=["simulate", "simulate-fails"])
def test_no_shared_mapping_is_left(tmp_path, monkeypatch, argv, code):
    # the table writer's count is mapped once, before the fork, and unmapped
    # when the run ends
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    forks = []
    fork = workers._fork
    monkeypatch.setattr(workers, "_fork", lambda *args: forks.append(
        _shared_mappings()) or fork(*args))
    before = _shared_mappings()
    assert main([*argv, "--out", str(tmp_path)]) == code
    assert forks == [before + 1]
    assert _shared_mappings() == before


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


def test_imports_only_public_names():
    # cli uses other modules through their public API only, so what the
    # bench tracer wraps (the names cli imports) are public entry points
    tree = ast.parse(inspect.getsource(cli))
    private = [f"{node.module}.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("oscxfer"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_cmp_argv_lines_parse():
    # tools/cmp_artifacts.py runs each line under two source trees; a line
    # that no longer parses would compare two identical usage errors.  The
    # lines under the "refused:" comment must stay refused, and those under
    # "the parser's own exits" must end in the parser
    path = Path(__file__).parents[1] / "tools" / "cmp_argv.txt"
    parser = cli.build_parser()
    parsed, refused = [], []
    section = None
    for line in map(str.strip, path.read_text().splitlines()):
        if line.startswith("#"):
            section = line
        elif line:
            try:
                parser.parse_args(shlex.split(line))
                parsed.append(line)
            except SystemExit:
                refused.append(line)
            want = section in (
                "# refused: a flag the command does not read",
                "# the parser's own exits: help, and a command it does not "
                "know")
            assert (line in refused) == want, line
    assert parsed and refused


def _cmp_tool():
    """``tools/cmp_artifacts.py`` as a module."""
    path = Path(__file__).parents[1] / "tools" / "cmp_artifacts.py"
    spec = importlib.util.spec_from_file_location("cmp_artifacts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_rule_decides_the_science_artifacts(tmp_path):
    # every file a command may write is one, config.json is one without
    # its out_dir, and no other name is
    names = [name for _, files, _ in cli._COMMANDS.values() for name in files]
    for name in [*names, "telemetry.json", "notes.txt", "report.json.tmp"]:
        (tmp_path / name).write_bytes(name.encode())
    (tmp_path / "config.json").write_text('{"gamma": 2.0, "out_dir": "x"}')
    assert artifacts.science_artifacts(tmp_path) == {
        **{name: name.encode() for name in names},
        "config.json": {"gamma": 2.0, "out_dir": None}}
    # tools/cmp_artifacts.py calls the rule and reads no artifact itself
    tree = ast.parse(inspect.getsource(_cmp_tool()))
    nodes = list(ast.walk(tree))
    assert ("oscxfer.artifacts", "science_artifacts") in {
        (node.module, alias.name) for node in nodes
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "science_artifacts" in {
        node.func.id for node in nodes
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not {"rglob", "glob", "iterdir", "read_bytes", "suffix",
                "endswith"} & {node.attr for node in nodes
                               if isinstance(node, ast.Attribute)}


def test_science_artifacts_do_not_depend_on_simd(tmp_path, capsys):
    # every exp and expm1 takes libm's bits, so numpy's SIMD kernels, which
    # round some arguments differently, must never reach an artifact: run
    # the seed-1 optimize horizon and a lossy --kernels simulate with every
    # dispatched feature off, and compare with this process's runs
    tool = _cmp_tool()
    if not tool.dispatched_features():
        pytest.skip("numpy dispatches to no CPU feature here")
    src = Path(cli.__file__).resolve().parents[1]
    for k, line in enumerate([
            "optimize --gamma 1 --T 2.955612169929494 --steps 10000",
            "simulate --profile optimal --T 3 --dt-cut 0.25 --gamma1-max 1.54 "
            "--eta 0.81 --gamma-loss 0.05 --steps 4000 --kernels"]):
        argv, here = shlex.split(line), tmp_path / f"{k}-here"
        code = cli.main([*argv, "--out", str(here)])
        printed = capsys.readouterr()
        want = {"exit code": code,
                "stdout": printed.out.replace(str(here), "OUT"),
                "stderr": printed.err.replace(str(here), "OUT"),
                **artifacts.science_artifacts(here)}
        assert tool.run(src, argv, tmp_path / f"{k}-off",
                        tool.simd_off()) == want, line


_STARTUP_PROBE = """
import sys
import oscxfer.cli as cli

print(sorted({"concurrent.futures.process", "multiprocessing"}
             & set(sys.modules)))
for argv in (["simulate", "--steps", "10", "--kernels"],
             ["simulate", "--steps", "16385", "--kernels"],
             ["optimize", "--steps", "10"], ["budget", "--dt-cut", "1e-3"],
             ["sweep", "--sweep", "T:1:2:3", "--steps", "10"]):
    before = set(sys.modules)
    assert cli.main([*argv, "--out", sys.argv[1] + "/" + argv[0]]) == 0
    print(sorted(set(sys.modules) - before - {"select"}))
"""


def test_no_command_imports_a_process_pool(tmp_path):
    # in a fresh interpreter: importing the CLI loads no process pool, no
    # simulate (its table writer too), optimize or budget run pays for an
    # import, and a sweep imports only select
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"] * 6


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
