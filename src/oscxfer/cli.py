"""Command-line front end: simulate, optimize, sweep, and budget workflows.

Each subcommand takes only the options it reads (``_OPTIONS``), from flags
and/or a JSON config file (flags override file values override defaults),
echoes the effective configuration into the output directory for
reproducibility, and writes plot-ready CSV plus JSON reports, whose bytes
:mod:`oscxfer.artifacts` owns, into a locked staging directory inside it.
:func:`main` moves them to their names only when the command returns 0;
otherwise the command's files, earlier ones included, are removed.  A run
first removes the staging directories of dead runs.  ``simulate`` and
every ``sweep`` point run the same step maps, which refuse an a21 outside
[0, 1], and compare against the same closed form,
:func:`oscxfer.oracles.reference_curve`.  A ``sweep`` builds every
point's params, grid and profile here, in point order, before any point
runs, and a profile once per grid, so its first invalid point is refused
first and a ``file:`` profile is read once for an ``eta``, ``gamma`` or
``gamma_loss`` sweep.  Forked children (:mod:`oscxfer.workers`) write the
tables of ``simulate`` and ``optimize`` and integrate a ``sweep``'s points.
Exit codes: 0 success, 2 invalid configuration, 3 numerical failure."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import locale  # build_parser() needs it (argparse gettext): load it at import
import math
import os
import signal
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

try:
    import fcntl  # locks the staging directory
except ImportError:  # Windows
    fcntl = None

import numpy as np

from . import artifacts, workers
from .artifacts import ConfigError
from .circuit import CircuitSpec, Topology, carrier_frequency, circuit_to_rates
from .oracles import budget_report, reference_curve
from .optimize import SWEEP_BLOCK, functional_value, optimize_profile
from .simulate import (
    IntegrationError,
    IntegratorConfig,
    integrate_blocks,
    transfer_amplitude,
)
from .types import (
    CouplingProfile,
    ProfileKind,
    SystemParams,
    TimeGrid,
    profile_values,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# the JSON values a config file may give a RunConfig field of each type
_JSON_TYPES = {"float": (int, float), "int": int, "bool": bool, "str": str}

# sweep name -> RunConfig field it sets
_SWEEPABLE = {"T": "transfer_time", "gamma": "gamma", "eta": "eta",
              "gamma_loss": "gamma_loss"}


@dataclass
class RunConfig:
    """Flattened run configuration; a subcommand sets the fields it reads."""

    gamma: float = 1.0
    gamma_loss: float = 0.0
    eta: float = 1.0
    transfer_time: float = 5.0
    omega0: float = 1.0e6
    dt_cut: Optional[float] = None
    gamma1_max: Optional[float] = None
    profile: str = "optimal"
    n_steps: int = 10_000
    kernels: bool = False
    sweep: Optional[str] = None
    target_fidelity: Optional[float] = None
    margin: float = 10.0
    sender_rlc: Optional[str] = None
    receiver_rlc: Optional[str] = None
    topology: str = "series"
    out_dir: str = "oscxfer-out"
    format: str = "both"


# (group, flag, dest, argparse kwargs) of every option; a command takes the
# groups its _COMMANDS row gives it, as flags and as config keys (RunConfig
# fields).
_OPTIONS = (
    ("run", "--config", "config", dict(help="JSON config file (flags override it)")),
    ("run", "--out", "out_dir", dict(help="output directory")),
    ("physics", "--gamma", "gamma", dict(type=float, help="receiver coupling rate")),
    ("physics", "--gamma-loss", "gamma_loss",
     dict(type=float, help="parasitic damping rate of each oscillator")),
    ("physics", "--eta", "eta", dict(type=float, help="line power transmission")),
    ("physics", "--T", "transfer_time", dict(type=float, help="protocol duration")),
    ("physics", "--omega0", "omega0", dict(type=float, help="carrier frequency")),
    ("physics", "--margin", "margin",
     dict(type=float, help="scale-separation factor for validity checks")),
    ("hold", "--dt-cut", "dt_cut", dict(type=float, help="truncation interval before T")),
    ("hold", "--gamma1-max", "gamma1_max", dict(type=float, help="hold cap of the profile")),
    ("grid", "--steps", "n_steps", dict(type=int, help="integration grid steps")),
    ("output", "--format", "format", dict(choices=("csv", "json", "both"))),
    ("profile", "--profile", "profile", dict(help="constant:<v> | optimal | file:<path>")),
    ("validity", "--target-fidelity", "target_fidelity", dict(type=float)),
    ("kernels", "--kernels", "kernels", dict(
        action="store_const", const=True, help="track noise kernels and check "
        "the commutator sum rules (memory fixed in the step count)")),
    ("sweep", "--sweep", "sweep",
     dict(help="param:lo:hi:n over " + "/".join(_SWEEPABLE))),
    ("circuit", "--sender-rlc", "sender_rlc", dict(help="sender R:L:C (SI units)")),
    ("circuit", "--receiver-rlc", "receiver_rlc", dict(help="receiver R:L:C (SI units)")),
    ("circuit", "--topology", "topology", dict(choices=("series", "parallel"))),
)


def load_config(path: str, command: str) -> dict:
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
    for f in dataclasses.fields(RunConfig):
        value = raw.get(f.name)
        kind = f.type.removeprefix("Optional[").removesuffix("]")
        # JSON true/false are Python bools, which are ints to isinstance
        if f.name in raw and not (value is None and kind != f.type or (
                isinstance(value, _JSON_TYPES[kind])
                and isinstance(value, bool) == (kind == "bool"))):
            raise ConfigError(
                f"config key {f.name!r} must be {f.type}, not {value!r}")
    # an unread key may hold its default, as in the command's own config.json
    _, _, groups = _COMMANDS[command]
    reads = {dest for group, _, dest, _ in _OPTIONS if group in groups}
    defaults = dataclasses.asdict(RunConfig())
    unread = sorted(key for key in set(raw) - reads if raw[key] != defaults[key])
    if unread:
        raise ConfigError(
            f"config keys not read by {command}: {', '.join(unread)}")
    for _, _, key, kwargs in _OPTIONS:
        if key in raw and raw[key] not in kwargs.get("choices", (raw[key],)):
            raise ConfigError(f"unknown {key}: {raw[key]!r}")
    return raw


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config-file values, then explicit flags.

    Every float must be finite; ``margin`` must also be positive, and
    ``target_fidelity`` must lie in (0, 1).
    """
    values = {}
    if args.config:
        values.update(load_config(args.config, args.command))
    for f in dataclasses.fields(RunConfig):
        flag_val = getattr(args, f.name, None)
        if flag_val is not None:
            values[f.name] = flag_val
    cfg = RunConfig(**values)
    if cfg.n_steps < 10:
        raise ConfigError("steps must be at least 10")
    if not 0.0 < cfg.margin < math.inf:
        raise ConfigError("margin must be finite and positive")
    # refused here, before the output directory is made, not by the JSON
    # writer of config.json inside it
    for key, value in dataclasses.asdict(cfg).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, not {value!r}")
    if cfg.target_fidelity is not None and not 0.0 < cfg.target_fidelity < 1.0:
        raise ConfigError("target_fidelity must lie strictly between 0 and 1")
    return cfg


def _build_params(cfg: RunConfig, warn: bool = True) -> SystemParams:
    """The run's params; where ``warn``, :func:`_warn_weak_damping` on them."""
    try:
        p = SystemParams(gamma=cfg.gamma, transfer_time=cfg.transfer_time,
                         gamma_loss=cfg.gamma_loss, eta=cfg.eta,
                         omega0=cfg.omega0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if warn:
        _warn_weak_damping(cfg, [p])
    return p


def _warn_weak_damping(cfg: RunConfig, params: Sequence[SystemParams]) -> None:
    """One warning on stderr if the damping of any of ``params`` is not weak."""
    if any(p.gamma * cfg.margin > p.omega0 for p in params):
        print(f"warning: weak damping violated: gamma*{cfg.margin:g} exceeds "
              "omega0 (rotating-frame treatment marginal)", file=sys.stderr)


def _resolved_dt_cut(cfg: RunConfig, grid: TimeGrid) -> float:
    return grid.dt if cfg.dt_cut is None else cfg.dt_cut


def _build_profile(cfg: RunConfig, grid: TimeGrid) -> CouplingProfile:
    """The run's profile; only the optimal one has a hold window and a
    budget, so only it takes ``--dt-cut``, ``--gamma1-max`` and
    ``--target-fidelity``."""
    spec = cfg.profile
    if spec != "optimal" and not spec.startswith(("constant:", "file:")):
        raise ConfigError(f"unknown profile {spec!r} (expected constant:<v>, "
                          "optimal, or file:<path>)")
    for flag, value in (("--dt-cut", cfg.dt_cut),
                        ("--gamma1-max", cfg.gamma1_max),
                        ("--target-fidelity", cfg.target_fidelity)):
        if value is not None and spec != "optimal":
            raise ConfigError(f"{flag} applies only to --profile optimal, "
                              f"not {spec!r}")
    try:
        if spec == "optimal":
            return CouplingProfile.optimal(truncation=_resolved_dt_cut(cfg, grid),
                                           gamma1_max=cfg.gamma1_max)
        if spec.startswith("constant:"):
            return CouplingProfile.constant(float(spec.split(":", 1)[1]))
        return artifacts._profile_from_file(spec[5:], grid)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad profile {spec!r}: {exc}") from exc


# formatted rows of profile.csv that its writer child may hold: about
# 5 MB, as a row takes at most 100 bytes (four fields of 24 characters and
# a separator)
_HELD_ROWS = (5 << 20) // 100


def _profile_rows(reference: CouplingProfile, p: SystemParams,
                  grid: TimeGrid, start: int, u: np.ndarray) -> tuple:
    """The ``profile.csv`` columns of the nodes from ``start`` whose
    maximizers are ``u``, element by element as the whole grid's: t =
    j dt, gamma1 = u^2, the closed form ``reference`` and the relative
    error."""
    opt = u * u
    times = np.arange(start, start + opt.size) * grid.dt
    closed = profile_values(reference, p, times)
    rel = np.where(closed > 0, np.abs(opt - closed) / closed, math.nan)
    return times, opt, closed, rel


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    """Integrate the transfer and compare to closed forms."""
    p = _build_params(cfg)
    grid = TimeGrid(p.transfer_time, cfg.n_steps)
    profile = _build_profile(cfg, grid)
    blocks = integrate_blocks(profile, p, IntegratorConfig(
        n_steps=cfg.n_steps, kernel_tracking=cfg.kernels))

    tables = {}  # file name -> header
    if cfg.format in ("csv", "both"):
        tables["fidelity_curve.csv"] = b"t,F_sim,F_oracle,abs_err\n"
        if cfg.kernels:
            tables["commutator.csv"] = b"t,deficit_osc1,deficit_osc2\n"
    # the curve's first maximum, and the deficits' largest magnitudes,
    # which np.maximum keeps NaN in
    peak, peak_time, deficit_max = -math.inf, math.nan, -math.inf
    node = 0  # the block's first node
    write = None
    with contextlib.ExitStack() as stack:
        for block in blocks:
            _, curve, _, *deficits = block
            j = int(np.argmax(curve))
            if curve[j] > peak:
                # node * dt, as grid.nodes() has it
                peak, peak_time = float(curve[j]), (node + j) * grid.dt
            if deficits:
                deficit_max = np.maximum(deficit_max, [
                    np.max(np.abs(d)) for d in deficits])
            if tables:
                if write is None:  # forks where a first block is short
                    write, _ = workers._table_writer(
                        stack, "table writer", out, tables, grid.n_nodes,
                        curve.size <= cfg.n_steps, True,
                        lambda at, *columns: columns)
                times = np.arange(node, node + curve.size) * grid.dt
                oracle = reference_curve(p, profile, times)
                write(0, node, times, curve, oracle, np.abs(curve - oracle))
                if deficits:
                    write(1, node, times, *deficits)
            node += curve.size

    report = {
        "fidelity": float(curve[-1]), "peak_fidelity": peak,
        "peak_time": peak_time, "n_steps": cfg.n_steps,
        "params": {"gamma": p.gamma, "transfer_time": p.transfer_time,
                   "gamma_loss": p.gamma_loss, "eta": p.eta},
    }
    if profile.kind is ProfileKind.OPTIMAL_CLOSED_FORM:
        report["budget"] = budget_report(
            p, dt_cut=profile.truncation, gamma1_max=profile.gamma1_max,
            target_fidelity=cfg.target_fidelity, margin=cfg.margin)

    if cfg.kernels:
        report["commutator_max"] = deficit_max.tolist()

    if cfg.format in ("json", "both"):
        artifacts._write_json(out / "report.json", report)
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, out: Path) -> int:
    """Optimal coupling profile on the grid."""
    p = _build_params(cfg)
    grid = TimeGrid(p.transfer_time, cfg.n_steps)
    trunc = _resolved_dt_cut(cfg, grid)
    # refuses a bad --dt-cut before the optimizer runs
    reference = CouplingProfile.optimal(truncation=trunc)
    later = []  # the blocks to write after the run's checks, last first
    with contextlib.ExitStack() as stack:
        hand_over = None
        if cfg.format in ("csv", "both"):
            write, forked = workers._table_writer(
                stack, "profile writer", out,
                {"profile.csv": b"t,gamma1_opt,gamma1_closed_form,rel_err\n"},
                grid.n_nodes, grid.n_steps > SWEEP_BLOCK, False,
                partial(_profile_rows, reference, p, grid))

            def send(start: int, u: np.ndarray) -> None:
                with contextlib.suppress(BrokenPipeError):  # the child failed
                    write(0, start, u)

            def hand_over(start: int, u: np.ndarray) -> None:
                # the sweep's blocks of node rows come last first, so the
                # child holds the last _HELD_ROWS rows at most
                if forked and start >= grid.n_nodes - _HELD_ROWS:
                    send(start, u)
                else:
                    later.append((start, u))
        profile, result = optimize_profile(p, grid, gamma1_max=cfg.gamma1_max,
                                           hand_over=hand_over)
        functional = functional_value(profile, p, grid)
        for name, value in (("functional", functional),
                            ("kkt_residual", result.kkt_residual)):
            if not math.isfinite(value):
                raise FloatingPointError(f"optimizer {name} is {value!r}")
        for start, u in reversed(later):
            send(start, u)

    report = {"functional": functional, "iterations": result.iterations,
              "kkt_residual": result.kkt_residual,
              "gamma1_max": result.gamma1_max, "truncation": trunc}
    if cfg.format in ("json", "both"):
        artifacts._write_json(out / "optimize_report.json", report)
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
    # linspace would turn an infinite end into NaN points named by value
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"sweep bounds must be finite in {spec!r}")
    if n < 1:
        raise ConfigError("sweep needs at least one point")
    if hi < lo:
        raise ConfigError("sweep range is empty (hi < lo)")
    if n == 1 and hi != lo:
        raise ConfigError("a single-point sweep needs lo == hi")
    return name, lo, hi, n


def _sweep_jobs(cfg: RunConfig, name: str, points: list) -> list:
    """Each point's job ``(label, params, grid, profile)``, in point order,
    with a profile built once per grid; the first invalid point is refused,
    named by its label ``name=value``.  Warns once on weak damping."""
    jobs, profiles = [], {}
    for value in points:
        label = f"{name}={value:g}"
        point = dataclasses.replace(cfg, **{_SWEEPABLE[name]: value})
        try:
            p = _build_params(point, warn=False)
            grid = TimeGrid(p.transfer_time, point.n_steps)
            if grid not in profiles:
                profiles[grid] = _build_profile(point, grid)
        except ValueError as exc:  # ConfigError among them
            raise ConfigError(f"{label}: {exc}") from None
        jobs.append((label, p, grid, profiles[grid]))
    _warn_weak_damping(cfg, [p for _, p, _, _ in jobs])
    return jobs


def _sweep_point(job: tuple) -> tuple[float, float]:
    """One sweep evaluation of a job of :func:`_sweep_jobs`, ``(F_oracle,
    F_sim)``; runs in a worker process."""
    label, p, grid, profile = job
    try:
        a21 = transfer_amplitude(profile, p, IntegratorConfig(
            n_steps=grid.n_steps))
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from None
    except IntegrationError as exc:
        raise IntegrationError(f"{label}: {exc.reason}", exc.step) from None
    # at the last node of simulate's curve, n_steps * dt
    return reference_curve(p, profile, grid.n_steps * grid.dt), a21


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    """Sweep one parameter, one row per point, on one forked worker per CPU."""
    if not cfg.sweep:
        raise ConfigError("sweep subcommand needs --sweep param:lo:hi:n")
    name, lo, hi, n = _parse_sweep(cfg.sweep)
    points = np.linspace(lo, hi, n).tolist()
    rows = workers._sweep_rows(_sweep_point, _sweep_jobs(cfg, name, points),
                               min(n, workers._cpus()))

    table = [(value, analytic, simulated, abs(simulated - analytic))
             for value, (analytic, simulated) in zip(points, rows)]
    if cfg.format in ("csv", "both"):
        artifacts._write_csv(out / "sweep.csv", [name, "F_oracle", "F_sim",
                                                 "abs_err"], list(zip(*table)))
    if cfg.format in ("json", "both"):
        worst = max(r[3] for r in table)
        artifacts._write_json(out / "sweep_report.json", {
            "parameter": name,
            "n_points": n,
            # a file: profile has no reference, so every abs_err is NaN
            "max_abs_err": None if math.isnan(worst) else worst,
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
            "parallel": Topology.PARALLEL_LC}[topology]
    try:
        return CircuitSpec(topology=topo, resistance=r, inductance=l,
                           capacitance=c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_budget(cfg: RunConfig, out: Path) -> int:
    """Analytic infidelity budget and validity."""
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
    gamma1_max = CouplingProfile.optimal(truncation=dt_cut or None,
                                         gamma1_max=cfg.gamma1_max).gamma1_max
    payload = budget_report(p, dt_cut=dt_cut, gamma1_max=gamma1_max,
                            target_fidelity=cfg.target_fidelity,
                            margin=cfg.margin)

    if circuits is not None:
        if gamma1_max is None:
            raise ConfigError(
                "circuit validity needs --gamma1-max or a positive --dt-cut")
        payload["circuits"] = {role: dataclasses.asdict(rates)
                               for role, rates in circuits.items()}

    artifacts._write_json(out / "budget.json", payload)
    return EXIT_OK


class _CommandParser(argparse.ArgumentParser):
    """Refuses a flag its command does not take under its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser, with every subcommand; only ``command``'s takes
    its options (every one's when None).  Each ``add_argument`` builds a
    help formatter, which asks the terminal its size, and a parse reads
    only the options of the command it names."""
    parser = argparse.ArgumentParser(
        prog="oscxfer",
        description="cascaded-oscillator state-transfer toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    for name, (run, _, groups) in _COMMANDS.items():
        p_command = sub.add_parser(name, help=run.__doc__)
        if command in (None, name):
            for group, flag, dest, kwargs in _OPTIONS:
                if group in groups:
                    p_command.add_argument(flag, dest=dest, **kwargs)
    return parser


# each command, the names of the files it may write and the groups of
# _OPTIONS it reads
_COMMANDS = {
    "simulate": (cmd_simulate, ("fidelity_curve.csv", "commutator.csv",
                                "report.json"),
                 ("run", "physics", "hold", "grid", "output", "profile",
                  "validity", "kernels")),
    "optimize": (cmd_optimize, ("profile.csv", "optimize_report.json"),
                 ("run", "physics", "hold", "grid", "output")),
    "sweep": (cmd_sweep, ("sweep.csv", "sweep_report.json"),
              ("run", "physics", "hold", "grid", "output", "profile",
               "sweep")),
    "budget": (cmd_budget, ("budget.json",),
               ("run", "physics", "hold", "validity", "circuit")),
}


@contextlib.contextmanager
def _staging_directory(out: Path, names: Sequence[str]):
    """A new directory ``.run-<pid>-<8 hex digits>`` in ``out`` for the
    block to write into, whose lock file the block and its forked children
    hold (where there is ``fcntl``).  Then the commit step, which only a
    SIGKILL cuts short: the files ``names`` replace those in ``out`` if the
    block returns, and otherwise both go."""
    while True:
        stage = out / f".run-{os.getpid()}-{os.urandom(4).hex()}"
        with contextlib.suppress(FileExistsError):
            stage.mkdir()
            break
    with contextlib.ExitStack() as held:
        if fcntl:
            # locked before it takes its name, so no other run finds it free
            lock = held.enter_context(open(stage / "lock.new", "wb"))
            fcntl.flock(lock, fcntl.LOCK_EX)
            os.rename(stage / "lock.new", stage / "lock")
        done = False
        try:
            yield stage
            done = True
        finally:
            with workers._stops_wait():
                for name in names:
                    if done and (stage / name).exists():
                        (stage / name).replace(out / name)
                    else:
                        (stage / name).unlink(missing_ok=True)
                        (out / name).unlink(missing_ok=True)
                (stage / "lock").unlink(missing_ok=True)
                stage.rmdir()


def _remove_dead_runs(out: Path) -> None:
    """Remove each staging directory in ``out`` whose lock no process holds,
    as a SIGKILL leaves one; keep one without a lock file, and every one
    without ``fcntl``, as a pid is no test across pid namespaces.  It scans
    with ``os.scandir``: ``Path.glob`` takes 0.2 ms to build a matcher."""
    runs = [entry for entry in os.scandir(out) if entry.name[:5] == ".run-"]
    for run in runs if fcntl else ():
        # a live run holds its lock; another run may remove it first
        with contextlib.suppress(OSError), open(Path(run, "lock"), "rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            for path in Path(run).iterdir():
                path.unlink()
            os.rmdir(run)


def _stop(signum: int, frame) -> None:
    """SIGTERM's handler while a command runs: it stops the run as SIGINT
    does, naming the signal."""
    raise KeyboardInterrupt(signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    console = argv is None  # the command line's own run
    argv = sys.argv[1:] if console else argv
    # the top-level parser takes no value, so the first command name in
    # argv is the command parsed
    command = next((word for word in argv if word in _COMMANDS), None)
    args = build_parser(command).parse_args(argv)
    cfg = None
    try:
        with workers._handling(_stop, (signal.SIGTERM,)):
            cfg = resolve_config(args)
            cmd, names, _ = _COMMANDS[args.command]
            out = Path(cfg.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            _remove_dead_runs(out)
            with _staging_directory(out, names) as stage:
                artifacts._write_json(out / "config.json",
                                      dataclasses.asdict(cfg))
                # numpy's floating-point warnings would only repeat on
                # stderr the results that are refused or written as nan
                with np.errstate(all="ignore"):
                    return cmd(cfg, stage)
    except KeyboardInterrupt as exc:  # SIGINT, or SIGTERM by _stop
        signum = exc.args[0] if exc.args else signal.SIGINT
        print(f"interrupted: {signal.Signals(signum).name}", file=sys.stderr)
        if console:
            # the command line ends by the signal, as on a KeyboardInterrupt
            # that Python does not catch, so that a calling shell stops too
            sys.stdout.flush()
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
        return 128 + signum
    # ArithmeticError: a last resort, so that no input ends in a traceback
    except (IntegrationError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # reading an input turns its OSError into ConfigError, so what gets
        # here comes from creating the output directory or writing into it
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a last resort too
        # a bare MemoryError() carries no reason: name the run instead
        run = (args.command if cfg is None
               else f"{args.command} --steps {cfg.n_steps}")
        print(f"error: not enough memory: {str(exc) or run}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
