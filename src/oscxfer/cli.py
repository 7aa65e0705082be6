"""Command-line front end: simulate, optimize, sweep, and budget workflows.

Each subcommand reads its configuration from flags and/or a JSON config file
(flags override file values override defaults), echoes the effective
configuration into the output directory for reproducibility, and writes
plot-ready CSV plus JSON reports.  ``simulate`` and every ``sweep`` point
run the same code and compare against the same closed form,
:func:`oscxfer.oracles.reference_curve`.  Exit codes: 0 success, 2 invalid
configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .circuit import CircuitSpec, Topology, carrier_frequency, circuit_to_rates
from .oracles import budget_report, reference_curve
from .optimize import functional_value, optimize_profile, verify_stationarity
from .simulate import (
    IntegrationError,
    IntegratorConfig,
    Method,
    commutator_check,
    integrate_transfer,
)
from .types import (
    CouplingProfile,
    ProfileKind,
    SystemParams,
    TimeGrid,
    profile_values,
    validate_params,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# sweep name -> RunConfig field it sets
_SWEEPABLE = {"T": "transfer_time", "gamma": "gamma", "eta": "eta",
              "gamma_loss": "gamma_loss"}


class ConfigError(ValueError):
    """Unusable run configuration (bad flag value, bad file, bad combination)."""


@dataclass
class RunConfig:
    """Flattened run configuration shared by all subcommands."""

    gamma: float = 1.0
    gamma_loss: float = 0.0
    eta: float = 1.0
    transfer_time: float = 5.0
    omega0: float = 1.0e6
    dt_cut: Optional[float] = None
    gamma1_max: Optional[float] = None
    profile: str = "optimal"
    n_steps: int = 10_000
    method: str = "rk4"
    kernels: bool = False
    sweep: Optional[str] = None
    target_fidelity: Optional[float] = None
    margin: float = 10.0
    sender_rlc: Optional[str] = None
    receiver_rlc: Optional[str] = None
    topology: str = "series"
    out_dir: str = "oscxfer-out"
    format: str = "both"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_CSV_BLOCK = 4096  # rows formatted by one %-operation


def _write_csv(path: Path, header: Sequence[str],
               columns: Sequence[Sequence[float]]) -> None:
    """Write equal-length columns as CSV rows.

    Every value is written with 17 significant digits (``%.17g``), so
    oracle comparisons keep all digits and profiles round-trip exactly;
    NaN is written as ``nan``.
    """
    columns = [np.asarray(col, dtype=float) for col in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK):
            block = np.column_stack([col[lo:lo + _CSV_BLOCK] for col in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return raw


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config-file values, then explicit flags."""
    values = {}
    if getattr(args, "config", None):
        values.update(load_config(args.config))
    for f in dataclasses.fields(RunConfig):
        flag_val = getattr(args, f.name, None)
        if flag_val is not None:
            values[f.name] = flag_val
    if values.get("kernels") is None:
        values.pop("kernels", None)
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.method not in ("rk4", "heun"):
        raise ConfigError(f"unknown method: {cfg.method!r}")
    if cfg.format not in ("csv", "json", "both"):
        raise ConfigError(f"unknown format: {cfg.format!r}")
    if cfg.n_steps < 10:
        raise ConfigError("steps must be at least 10")
    return cfg


def _build_params(cfg: RunConfig) -> SystemParams:
    p = SystemParams(gamma=cfg.gamma, transfer_time=cfg.transfer_time,
                     gamma_loss=cfg.gamma_loss, eta=cfg.eta, omega0=cfg.omega0)
    issues = validate_params(p, margin=cfg.margin)
    errors = [i.message for i in issues if i.severity == "error"]
    if errors:
        raise ConfigError("; ".join(errors))
    for issue in issues:
        if issue.severity == "warning":
            print(f"warning: {issue.message}", file=sys.stderr)
    return p


def _resolved_dt_cut(cfg: RunConfig, grid: TimeGrid) -> float:
    return grid.dt if cfg.dt_cut is None else cfg.dt_cut


def _build_profile(cfg: RunConfig, grid: TimeGrid) -> CouplingProfile:
    spec = cfg.profile
    try:
        if spec == "optimal":
            return CouplingProfile.optimal(truncation=_resolved_dt_cut(cfg, grid),
                                           gamma1_max=cfg.gamma1_max)
        if spec.startswith("constant:"):
            value = float(spec.split(":", 1)[1])
            return CouplingProfile.constant(value, gamma1_max=cfg.gamma1_max)
        if spec.startswith("file:"):
            return _profile_from_file(spec[5:], grid, cfg)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad profile {spec!r}: {exc}") from exc
    raise ConfigError(
        f"unknown profile {spec!r} (expected constant:<v>, optimal, or file:<path>)"
    )


def _profile_from_file(path: str, grid: TimeGrid, cfg: RunConfig) -> CouplingProfile:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read profile file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse profile file {path!r}: {exc}") from exc
    if data.shape[1] < 2:
        raise ConfigError("profile file needs columns: t, gamma1")
    if data.shape[0] != grid.n_nodes:
        raise ConfigError(
            f"profile file has {data.shape[0]} rows; the grid has "
            f"{grid.n_nodes} nodes (t=0 .. T inclusive)"
        )
    nodes = grid.nodes()
    if not np.allclose(data[:, 0], nodes, rtol=0, atol=1e-9 * max(1.0, grid.t_end)):
        raise ConfigError("profile file times do not match the run grid")
    return CouplingProfile.sampled(grid, data[:, 1], gamma1_max=cfg.gamma1_max)


def _simulate(cfg: RunConfig):
    """Build the run's params, grid and profile and integrate; returns
    ``(params, profile, state)``."""
    p = _build_params(cfg)
    grid = TimeGrid(p.transfer_time, cfg.n_steps)
    profile = _build_profile(cfg, grid)
    state = integrate_transfer(profile, p, IntegratorConfig(
        method=Method(cfg.method), n_steps=cfg.n_steps,
        kernel_tracking=cfg.kernels))
    return p, profile, state


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    p, profile, state = _simulate(cfg)

    times, curve = state.fidelity_curve()
    oracle = reference_curve(p, profile, times)
    abs_err = np.abs(curve - oracle)
    if cfg.format in ("csv", "both"):
        _write_csv(out / "fidelity_curve.csv",
                   ["t", "F_sim", "F_oracle", "abs_err"],
                   (times, curve, oracle, abs_err))

    report = {
        "fidelity": float(state.fidelity),
        "peak_fidelity": float(np.max(curve)),
        "peak_time": float(times[int(np.argmax(curve))]),
        "params": {
            "gamma": p.gamma,
            "transfer_time": p.transfer_time,
            "gamma_loss": p.gamma_loss,
            "eta": p.eta,
        },
        "n_steps": cfg.n_steps,
        "method": cfg.method,
    }
    if profile.kind is ProfileKind.OPTIMAL_CLOSED_FORM:
        rep = budget_report(p, dt_cut=profile.truncation or 0.0,
                            gamma1_max=profile.gamma1_max,
                            target_fidelity=cfg.target_fidelity,
                            margin=cfg.margin)
        report["budget"] = rep.to_dict()

    if cfg.kernels:
        d1, d2 = commutator_check(state)
        report["commutator_max"] = [float(np.max(np.abs(d1))),
                                    float(np.max(np.abs(d2)))]
        if cfg.format in ("csv", "both"):
            _write_csv(out / "commutator.csv",
                       ["t", "deficit_osc1", "deficit_osc2"],
                       (times, d1, d2))

    if cfg.format in ("json", "both"):
        _write_json(out / "report.json", report)
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, out: Path) -> int:
    p = _build_params(cfg)
    grid = TimeGrid(p.transfer_time, cfg.n_steps)
    trunc = _resolved_dt_cut(cfg, grid)
    profile, result = optimize_profile(p, grid, gamma1_max=cfg.gamma1_max)

    times = grid.nodes()
    reference = CouplingProfile.optimal(truncation=trunc)
    closed = profile_values(reference, p, times)
    opt_vals = np.asarray(profile.values, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(closed > 0, np.abs(opt_vals - closed) / closed, math.nan)
    if cfg.format in ("csv", "both"):
        _write_csv(out / "profile.csv",
                   ["t", "gamma1_opt", "gamma1_closed_form", "rel_err"],
                   (times, opt_vals, closed, rel))

    stat = verify_stationarity(profile, p, grid)
    report = {
        "functional": functional_value(profile, p, grid),
        "iterations": result.iterations,
        "kkt_residual": result.kkt_residual,
        "gamma1_max": profile.gamma1_max,
        "truncation": trunc,
        "stationarity": {
            "max_abs_residual": stat.max_abs_residual,
            "n_points": stat.n_points,
        },
    }
    if cfg.format in ("json", "both"):
        _write_json(out / "optimize_report.json", report)
    return EXIT_OK


def _parse_sweep(spec: str) -> tuple[str, float, float, int]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ConfigError("sweep must look like param:lo:hi:n")
    name, lo_s, hi_s, n_s = parts
    if name not in _SWEEPABLE:
        raise ConfigError(
            f"cannot sweep {name!r}; choose one of {tuple(_SWEEPABLE)}")
    try:
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise ConfigError(f"bad sweep bounds: {exc}") from exc
    if n < 1:
        raise ConfigError("sweep needs at least one point")
    if hi < lo:
        raise ConfigError("sweep range is empty (hi < lo)")
    if n == 1 and hi != lo:
        raise ConfigError("a single-point sweep needs lo == hi")
    return name, lo, hi, n


def _sweep_point(job: tuple) -> tuple[float, float]:
    """One sweep evaluation, ``(F_oracle, F_sim)``; runs in a worker process."""
    cfg, name, value = job
    cfg = dataclasses.replace(cfg, **{_SWEEPABLE[name]: value})
    try:
        p, profile, state = _simulate(cfg)
    except ConfigError as exc:
        raise ConfigError(f"{name}={value:g}: {exc}") from None
    t_end = state.grid.nodes()[-1]  # where simulate's curve ends
    return reference_curve(p, profile, t_end), float(state.fidelity)


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    if not cfg.sweep:
        raise ConfigError("sweep subcommand needs --sweep param:lo:hi:n")
    name, lo, hi, n = _parse_sweep(cfg.sweep)
    points = np.linspace(lo, hi, n).tolist()
    with ProcessPoolExecutor(max_workers=min(n, os.cpu_count() or 1)) as pool:
        rows = list(pool.map(_sweep_point, [(cfg, name, v) for v in points]))

    table = [(value, analytic, simulated, abs(simulated - analytic))
             for value, (analytic, simulated) in zip(points, rows)]
    if cfg.format in ("csv", "both"):
        _write_csv(out / "sweep.csv",
                   [name, "F_oracle", "F_sim", "abs_err"], list(zip(*table)))
    if cfg.format in ("json", "both"):
        _write_json(out / "sweep_report.json", {
            "parameter": name,
            "n_points": n,
            "max_abs_err": max(r[3] for r in table),
        })
    return EXIT_OK


def _parse_rlc(spec: str, topology: str) -> CircuitSpec:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError("circuit spec must look like R:L:C")
    try:
        r, l, c = (float(v) for v in parts)
    except ValueError as exc:
        raise ConfigError(f"bad circuit spec: {exc}") from exc
    topo = {"series": Topology.SERIES_LC,
            "parallel": Topology.PARALLEL_LC}.get(topology)
    if topo is None:
        raise ConfigError(f"unknown topology: {topology!r}")
    try:
        return CircuitSpec(topology=topo, resistance=r, inductance=l,
                           capacitance=c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_budget(cfg: RunConfig, out: Path) -> int:
    dt_cut = cfg.dt_cut if cfg.dt_cut is not None else 0.0
    if dt_cut < 0:
        raise ConfigError("dt-cut must be nonnegative")

    circuits = None
    if (cfg.sender_rlc is None) != (cfg.receiver_rlc is None):
        raise ConfigError("give both sender and receiver circuits, or neither")
    if cfg.sender_rlc is not None:
        sender = _parse_rlc(cfg.sender_rlc, cfg.topology)
        receiver = _parse_rlc(cfg.receiver_rlc, cfg.topology)
        circuits = {"sender": circuit_to_rates(sender),
                    "receiver": circuit_to_rates(receiver)}
        try:
            omega0 = carrier_frequency(circuits["sender"],
                                       circuits["receiver"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        cfg = dataclasses.replace(cfg, gamma=circuits["receiver"].gamma,
                                  omega0=omega0)

    p = _build_params(cfg)
    gamma1_max = cfg.gamma1_max
    if gamma1_max is None and dt_cut > 0:
        gamma1_max = 1.0 / (2.0 * dt_cut)
    rep = budget_report(p, dt_cut=dt_cut, gamma1_max=gamma1_max,
                        target_fidelity=cfg.target_fidelity, margin=cfg.margin)
    payload = rep.to_dict()

    if circuits is not None:
        if gamma1_max is None:
            raise ConfigError(
                "circuit validity needs --gamma1-max or a positive --dt-cut")
        payload["circuits"] = {role: dataclasses.asdict(rates)
                               for role, rates in circuits.items()}

    _write_json(out / "budget.json", payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (flags override it)")
    common.add_argument("--out", dest="out_dir", help="output directory")
    common.add_argument("--gamma", type=float, help="receiver coupling rate")
    common.add_argument("--gamma-loss", dest="gamma_loss", type=float,
                        help="parasitic damping rate of each oscillator")
    common.add_argument("--eta", type=float, help="line power transmission")
    common.add_argument("--T", dest="transfer_time", type=float,
                        help="protocol duration")
    common.add_argument("--omega0", type=float, help="carrier frequency")
    common.add_argument("--dt-cut", dest="dt_cut", type=float,
                        help="truncation interval before T")
    common.add_argument("--gamma1-max", dest="gamma1_max", type=float,
                        help="hold cap for the coupling profile")
    common.add_argument("--profile",
                        help="constant:<v> | optimal | file:<path>")
    common.add_argument("--steps", dest="n_steps", type=int,
                        help="integration grid steps")
    common.add_argument("--method", choices=("rk4", "heun"))
    common.add_argument("--kernels", action="store_const", const=True,
                        default=None,
                        help="track noise kernels and check the commutator "
                             "sum rules (O(n) memory, about 32 B per step)")
    common.add_argument("--format", choices=("csv", "json", "both"))
    common.add_argument("--target-fidelity", dest="target_fidelity", type=float)
    common.add_argument("--margin", type=float,
                        help="scale-separation factor for validity checks")

    parser = argparse.ArgumentParser(
        prog="oscxfer",
        description="cascaded-oscillator state-transfer toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", parents=[common],
                   help="integrate the transfer and compare to closed forms")

    sub.add_parser("optimize", parents=[common],
                   help="optimal coupling profile on the grid (ignores "
                        "--profile)")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="sweep one parameter, one row per point")
    p_sweep.add_argument("--sweep", help="param:lo:hi:n over "
                         + "/".join(_SWEEPABLE))

    p_budget = sub.add_parser("budget", parents=[common],
                              help="analytic infidelity budget and validity")
    p_budget.add_argument("--sender-rlc", dest="sender_rlc",
                          help="sender circuit R:L:C (SI units)")
    p_budget.add_argument("--receiver-rlc", dest="receiver_rlc",
                          help="receiver circuit R:L:C (SI units)")
    p_budget.add_argument("--topology", choices=("series", "parallel"))

    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
    "budget": cmd_budget,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "config.json", cfg.to_dict())
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # reading an input turns its OSError into ConfigError, so what gets
        # here comes from creating the output directory or writing into it
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # last resorts, so that no input ends in a traceback
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
