"""Command-line front end: simulate, optimize, sweep, and budget workflows.

Each subcommand takes only the options it reads (``_OPTIONS``), from flags
and/or a JSON config file (flags override file values override defaults),
echoes the effective configuration into the output directory for
reproducibility, and writes plot-ready CSV plus JSON reports into a staging
directory inside it.  :func:`main` moves them to their names only when the
command returns 0; otherwise the command's files, earlier ones included, are
removed.  ``simulate`` and every ``sweep`` point run the same step maps and
compare against the same closed form, :func:`oscxfer.oracles.reference_curve`,
and a curve that leaves the physical range [0, 1] fails the run.
``simulate`` tables of more than one block, and an ``optimize`` profile of
more than one block of its backward sweep (``optimize.SWEEP_BLOCK``, 1024
cells), go to one forked writer child, :func:`_write_tables`, which formats
their rows while the run computes and writes each table in row order.
``optimize`` hands it the first ``_HELD_BLOCKS`` blocks of maximizers as
the sweep finishes them, the last block first, and the child holds their
rows (about 5 MB at most) until the rows before them are written.  A
``sweep`` runs its points in forked workers.  The writer needs ``os.fork``
and a second CPU, and otherwise the rows are written in process.  Each
child talks to the parent over the two pipes that :func:`_fork` makes.
Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io  # the writer child's held rows
import json
import locale  # build_parser() needs it (argparse gettext): load it at import
import math
import mmap  # the writer child's shared count
import os
import pickle  # numpy loads it: importing it here costs nothing
import signal
import struct  # numpy loads it: importing it here costs nothing
import sys
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

try:
    import fcntl  # grows the writer child's pipe
except ImportError:  # Windows, which has no os.fork either
    fcntl = None

import numpy as np

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


class ConfigError(ValueError):
    """Unusable run configuration (bad flag value, bad file, bad combination)."""


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
# groups _READS gives it, as flags and as config keys (RunConfig fields).
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
_READS = {
    "simulate": ("run", "physics", "hold", "grid", "output", "profile",
                 "validity", "kernels"),
    "optimize": ("run", "physics", "hold", "grid", "output"),
    "sweep": ("run", "physics", "hold", "grid", "output", "profile", "sweep"),
    "budget": ("run", "physics", "hold", "validity", "circuit"),
}


_CSV_BLOCK = 1024  # rows formatted as one array; temporaries stay below 1 MB

# Tables of the %.17g kernel.  Those with a row per decimal exponent k cover
# k = -29..16, one past the fast path's range on each side because log10 can
# miss by one; a negative k indexes from the end, so k itself is the index.
_K = range(-29, 17)


def _by_k(rows) -> np.ndarray:
    """Rows in the order of ``_K`` as a table indexed by k (by 18k + n_sig
    for 18 rows per k, one for each count n_sig of significant digits)."""
    return np.roll(np.asarray(rows), -29 * len(rows) // 46, axis=0)


def _split(a):
    """Dekker's split of ``a`` into two halves of at most 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# 10**(16 - k) = _POW + _POW_TAIL to 2**-106 (the tail is 0 up to 10**22)
_POW = _by_k([float(10 ** (16 - k)) for k in _K])
_POW_TAIL = _by_k([float(10 ** (16 - k) - int(float(10 ** (16 - k))))
                   for k in _K])
_POW_HI, _POW_LO = _split(_POW)
# _GROUP[g]: the four digits of g < 10**4, one per byte, first digit lowest
_D = np.ix_(*[np.arange(10, dtype=np.uint64)] * 4)
_GROUP = (_D[0] | _D[1] << 8 | _D[2] << 16 | _D[3] << 24).ravel()
# _SIG[w][g]: with g as digit group w (digits 4w+1..4w+4 of the 17), the
# number of digits up to its last nonzero one, 0 if g = 0 (1 for w = 0)
_SIG4 = np.maximum(np.maximum(_D[0] > 0, 2 * (_D[1] > 0)), np.maximum(
    3 * (_D[2] > 0), 4 * (_D[3] > 0))).ravel().astype(np.int8)
_SIG = [np.where(_SIG4 > 0, _SIG4 + (4 * w + 1), w == 0) for w in range(4)]


def _layout(k: int) -> tuple[int, int]:
    """``(q, t)`` for exponent k: digits 0..q-1 stay at bytes 1..q of the
    field, and the rest move t bytes up, past the point or '0.000'."""
    return (k + 1, 1) if k >= 0 else (0, 1 - k) if k >= -4 else (1, 1)


def _patterns(k: int) -> list[bytes]:
    """The 24 bytes xor-ed into the moved digits of a field with exponent
    k, for n_sig = 0..17: '0' over each digit kept, the point or '0.000',
    'e-XX' and ','.  Trailing zeros are kept only before the point."""
    q, t = _layout(k)
    if t > 1:                  # 0.000ddd
        body, ends = b"0." + b"0" * (15 + t), [n + t for n in range(18)]
    else:                      # ddd.ddd or d.ddde-XX
        body = b"0" * q + b"." + b"0" * (17 - q)
        ends = [n + 1 if n > q else q for n in range(18)]
    tail = b"e-%02d," % -k if k < -4 else b","
    return [b"\0" + body[:end].ljust(23 - len(tail), b"\0") + tail
            for end in ends]


def _words(fields) -> list[np.ndarray]:
    """Fields of 24 bytes as their three little-endian words, word by word."""
    words = np.frombuffer(b"".join(fields), "<u8").astype(np.uint64)
    return list(_by_k(words.reshape(-1, 3)).T.copy())


_HEAD = _words(b"\0" + b"\xff" * q + bytes(23 - q)
               for q, _ in map(_layout, _K))
_SHIFT = _by_k([np.uint64(8 * t) for _, t in map(_layout, _K)])
_PATTERN = _words(f for k in _K for f in _patterns(k))


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(fast, n, k)``: where the fast path decides ``x``, its 17 digits as
    the integer 10**16 <= n < 10**17 and its decimal exponent k; see
    :func:`_write_csv`.  Its float temporaries die on return."""
    ax = np.abs(x)
    fast = (ax >= 1e-28) & (ax < 1e16)  # False for NaN
    a = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    p = a * _POW[k]            # Dekker: p + e = a * _POW[k] exactly
    a_hi, a_lo = _split(a)
    pow_hi, pow_lo = _POW_HI[k], _POW_LO[k]
    e = (((a_hi * pow_hi - p) + a_hi * pow_lo + a_lo * pow_hi)
         + a_lo * pow_lo)
    e += a * _POW_TAIL[k]
    hi = p + e                 # fast two-sum: hi + lo = p + e exactly
    lo = e - (hi - p)
    floor_lo = np.floor(lo)
    half = lo - floor_lo - 0.5
    n = hi.astype(np.int64) + floor_lo.astype(np.int64)  # floor(hi + lo)
    # 17 digits after rounding (k can miss by one near powers of ten), and
    # a fraction that the error bound cannot carry across 1/2
    fast &= (n >= 10 ** 16) & (np.abs(half) > 1e-6)
    n += half > 0
    fast &= n < 10 ** 17
    return fast, n, k


def _digits(n: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The 17 digits of each n, one per byte at bytes 1..17 of three words,
    and the number of digits up to the last nonzero one."""
    lead = n // 10 ** 16
    n -= lead * 10 ** 16
    groups = []
    for e in (12, 8, 4):
        groups.append(n // 10 ** e)
        n -= groups[-1] * 10 ** e
    groups.append(n)
    n_sig = _SIG[0][groups[0]]
    for w in (1, 2, 3):
        np.maximum(n_sig, _SIG[w][groups[w]], out=n_sig)
    h1 = _GROUP[groups[0]] | _GROUP[groups[1]] << 32
    h2 = _GROUP[groups[2]] | _GROUP[groups[3]] << 32
    return [lead.view(np.uint64) << 8 | h1 << 16, h1 >> 48 | h2 << 16,
            h2 >> 48], n_sig


def _format_rows(block: np.ndarray) -> bytearray:
    """The CSV rows of a (rows, cols) float array, as ``%.17g`` writes them;
    see :func:`_write_csv`."""
    cols = block.shape[1]
    x = block.ravel()
    fast, n, k = _decimal(x)
    words, n_sig = _digits(n)
    row = k * 18 + n_sig
    shift = _SHIFT[k]
    buf = bytearray(24 * x.size)
    out = np.frombuffer(buf, "<u8").reshape(-1, 3)  # stored little-endian
    back = 64 - shift
    for w, tail in enumerate(words):
        # the head stays; the tail moves up, and its top carries over
        head = tail & _HEAD[w][k]
        tail ^= head
        if w:
            head |= carry
        if w < 2:
            carry = tail >> back
        tail <<= shift
        head |= tail
        np.bitwise_xor(head, _PATTERN[w][row], out=out[:, w])
    out[:, 0] |= (x.view(np.uint64) >> 63) * ord("-")
    out[cols - 1::cols, 2] ^= (ord(",") ^ ord("\n")) << 56
    slow = np.flatnonzero(~fast)
    if slow.size:  # %.17g formats these, in place of a marker byte
        out[slow, :2] = 1, 0
        out[slow, 2] &= 0xFF << 56
        return buf.translate(None, b"\0").replace(b"\1", b"%.17g") % tuple(
            x[slow].tolist())
    return buf.translate(None, b"\0")


def _write_csv(path: Path, header: Sequence[str],
               columns: Sequence[Sequence[float]]) -> None:
    """Write equal-length columns as CSV rows.

    Every value is written as ``"%.17g" % v`` would write it (17
    significant digits, correctly rounded), so oracle comparisons keep all
    digits and profiles round-trip exactly; NaN is written as ``nan``.
    The rows are formatted by a numpy kernel, one block of rows at a time,
    and each block is written to ``path`` as soon as it is done.

    The kernel takes finite values with 1e-28 <= |v| < 1e16.  With
    k = floor(log10|v|) and p = 16 - k it forms |v|*10**p as an unevaluated
    sum hi + lo of doubles, from one Dekker product by the double-double
    10**p = P + P' (P' = 0 for p <= 22, |10**p - P - P'| <= 2**-106 P):
    |v|*P is exact, and |v|*P' (at most 2**-53 |v|P <= 11.2) and its sum
    with the product's error (at most 8) round once each.  Below 1e17 the
    error is at most 1.3e-15 + 1.3e-15 + 2.2e-15 < 5e-15, 2e8 times inside
    the 1e-6 window below.  A value is kept only if 10**16 <= hi + lo <
    10**17 - 1/2 and the fraction of lo is more than 1e-6 from 1/2, so the
    error cannot move the rounding; then hi + round(lo) are the 17 digits.
    Every other value (0, -0, NaN, +-inf, subnormals, |v| >= 1e16, a k that
    log10 got wrong, near-ties) is formatted by ``%.17g`` itself.

    A field is 24 bytes, three little-endian uint64 words: the sign, the
    value in bytes 1..22 and the separator.  The digits, one per byte, move
    past the point or '0.000' by a shift of the words; a table by (k,
    significant digits) xors in '0' over the digits kept, the point, the
    prefix, 'e-XX' and ',', so trailing zeros stay NUL bytes, which
    ``translate`` drops.  The words are stored through a '<u8' array, so a
    big-endian host byte-swaps them in that one store.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        _write_rows(fh, [np.asarray(col, dtype=float) for col in columns])


def _write_rows(fh, columns: Sequence[np.ndarray]) -> None:
    """Append equal-length float columns to the open file ``fh`` as rows of
    :func:`_write_csv`, one block of rows at a time."""
    for lo in range(0, len(columns[0]), _CSV_BLOCK):
        fh.write(_format_rows(np.column_stack(
            [col[lo:lo + _CSV_BLOCK] for col in columns])))


def _write_json(path: Path, payload: dict) -> None:
    """Standard JSON only: a NaN or infinity raises before the file opens."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


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
    reads = {dest for group, _, dest, _ in _OPTIONS if group in _READS[command]}
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


def _build_params(cfg: RunConfig) -> SystemParams:
    """The run's params; warns on stderr where the damping is not weak."""
    try:
        p = SystemParams(gamma=cfg.gamma, transfer_time=cfg.transfer_time,
                         gamma_loss=cfg.gamma_loss, eta=cfg.eta,
                         omega0=cfg.omega0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if p.gamma * cfg.margin > p.omega0:
        print(f"warning: weak damping violated: gamma*{cfg.margin:g} exceeds "
              "omega0 (rotating-frame treatment marginal)", file=sys.stderr)
    return p


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
        return _profile_from_file(spec[5:], grid)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad profile {spec!r}: {exc}") from exc


def _profile_from_file(path: str, grid: TimeGrid) -> CouplingProfile:
    """The profile in columns t and gamma1 of a CSV file with a header
    line; later columns are not parsed."""
    read = partial(np.loadtxt, path, delimiter=",", skiprows=1, ndmin=2)
    try:
        with warnings.catch_warnings():  # numpy's on no rows: refused below
            warnings.simplefilter("ignore", UserWarning)
            data = read(usecols=(0, 1))
    except OSError as exc:
        raise ConfigError(f"cannot read profile file: {exc}") from exc
    except ValueError as exc:
        try:  # a one-column file fails the usecols
            narrow = read(max_rows=1).shape[1] < 2
        except ValueError:
            narrow = False
        if narrow:
            raise ConfigError(
                "profile file needs columns: t, gamma1") from None
        raise ConfigError(f"cannot parse profile file {path!r}: {exc}") from exc
    if data.shape[0] != grid.n_nodes:
        raise ConfigError(
            f"profile file has {data.shape[0]} rows; the grid has "
            f"{grid.n_nodes} nodes (t=0 .. T inclusive)"
        )
    nodes = grid.nodes()
    if not np.allclose(data[:, 0], nodes, rtol=0, atol=1e-9 * max(1.0, grid.t_end)):
        raise ConfigError("profile file times do not match the run grid")
    return CouplingProfile.sampled(grid, data[:, 1])


def _simulate(cfg: RunConfig, integrate):
    """Build the run's params, grid and profile and hand them to
    ``integrate``; returns ``(params, profile, grid, result)``, the result
    being :func:`~oscxfer.simulate.integrate_blocks`' blocks, still to run,
    or :func:`~oscxfer.simulate.transfer_amplitude`'s a21(T)."""
    p = _build_params(cfg)
    grid = TimeGrid(p.transfer_time, cfg.n_steps)
    profile = _build_profile(cfg, grid)
    return p, profile, grid, integrate(profile, p, IntegratorConfig(
        n_steps=cfg.n_steps, kernel_tracking=cfg.kernels))


# The exact a21 lies in [0, 1]: |a21| <= 1 by the sum rule, and a21 >= 0
# as an integral of non-negative terms.  A value past either end by more
# than this slack, the accuracy a run is held to, is wrong by more than
# it.  Measured on optimal-profile runs (gamma 1 and 7, T 10 to 80, 10 to
# 1e5 steps, each hold): every curve within 1e-5 of its closed form stayed
# within 1.5e-6 of the range, and values below 0 came only at the
# stability edge, by 0.048 or more.
_RANGE_SLACK = 1e-5


def _check_range(a21: np.ndarray, node: int) -> None:
    """Raise the failure of the first of the values ``a21``, of the nodes
    from ``node`` on, that leaves [0, 1] by more than ``_RANGE_SLACK``."""
    out = (a21 < -_RANGE_SLACK) | (a21 > 1.0 + _RANGE_SLACK)
    if out.any():
        k = int(np.argmax(out))
        raise IntegrationError(
            f"a21 = {float(a21[k])!r} leaves the physical range [0, 1] by "
            f"more than {_RANGE_SLACK:g}", node + k - 1)


_PIPE_SIZE = 1 << 20  # the writer child's pipe, where the host lets it grow
_BACKLOG = 8  # raw chunks the writer may hold: one 8192-step block's rows


def _pipe_capacity(fd: int) -> int:
    """Grow the pipe of ``fd`` to ``_PIPE_SIZE`` where the host lets it;
    returns the pipe's capacity in bytes."""
    try:
        return fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_SIZE)
    except OSError:  # over the host's limit: the pipe keeps its size
        return fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)
    except AttributeError:  # no F_SETPIPE_SZ: Linux's default size
        return 1 << 16


def _child_formats(backlog: int, limit: int) -> bool:
    """Whether the writer child gets the next chunk raw, to format it: only
    while fewer than ``limit`` raw chunks wait for it (``backlog``)."""
    return backlog < limit


def _can_fork() -> bool:
    """Whether a writer child may format rows while this process computes:
    ``os.fork`` exists and the process may run on more than one CPU."""
    return hasattr(os, "fork") and _cpus() > 1


# a chunk's header: its table, first row, rows, columns (0 if formatted) and
# bytes
_CHUNK_HEAD = struct.Struct("<5Q")


def _write_tables(requests, files: list, done, n_rows: int, build) -> None:
    """Write the chunks that :func:`_table_writer` sends to the tables
    ``files``, each in row order, then flush them.  A raw chunk's columns
    are ``build(at, *payload)``, written through :func:`_write_rows` and
    then counted in the shared ``done[0]``; a formatted chunk is written as
    it comes.  A chunk ahead of its table's next row is held, formatted,
    until the rows before it are written.  Returns once every table has
    ``n_rows`` rows, so the child exits while the parent finishes its run,
    or when the pipe ends."""
    rows = [0] * len(files)  # each table's next row
    held = {}  # (table, first row) -> (rows, bytes) of the chunks ahead
    while min(rows) < n_rows and len(
            head := requests.read(_CHUNK_HEAD.size)) == _CHUNK_HEAD.size:
        table, at, count, cols, size = _CHUNK_HEAD.unpack(head)
        if len(data := requests.read(size)) < size:
            break  # the parent stopped part way, as it failed
        ahead = at != rows[table]
        fh = io.BytesIO() if ahead else files[table]
        if cols:
            _write_rows(fh, build(at, *np.frombuffer(data).reshape(cols, -1)))
            done[0] += 1
        else:
            fh.write(data)
        if ahead:
            held[table, at] = count, fh.getvalue()
            continue
        rows[table] += count
        while (table, rows[table]) in held:
            count, data = held.pop((table, rows[table]))
            files[table].write(data)
            rows[table] += count
    for fh in files:
        fh.flush()


def _table_writer(stack: contextlib.ExitStack, name: str, tables: dict,
                  n_rows: int, fork: bool, first: bool, build) -> tuple:
    """``(write, forked)``: ``write(table, at, *payload)`` appends the rows
    ``build(at, *payload)`` from row ``at`` to the ``table``-th of the open
    files ``tables`` (by file name), as :func:`_write_rows` does, and
    ``forked`` tells whether a child writes them.  Each table is to have
    ``n_rows`` rows.

    Where ``fork`` holds and :func:`_can_fork`, one forked child (the
    ``name`` of its messages) formats most rows while this process
    computes.  The payload goes in chunks of ``_CSV_BLOCK`` rows, each
    behind a header (table, first row, rows, columns, bytes).  While fewer
    than ``_BACKLOG`` chunks (fewer if the pipe cannot hold them) wait for
    the child, a chunk goes as its payload's raw doubles, one column after
    another, and the child adds each one it has formatted to an 8-byte
    count in a page both processes share; otherwise this process builds
    and formats the chunk and sends its bytes, with 0 columns.  The child
    writes each table in row order, holding a chunk that comes ahead, so
    the split follows the speed of each side and the bytes stay the same.
    The pipe is grown to ``_PIPE_SIZE`` to hold the raw backlog and this
    process's chunks.  ``stack`` reaps the child and raises what stopped
    it: its own error, or a ``ConfigError`` naming the tables if it ended
    without an answer.  Where ``first``, the child's rows come before
    anything this process does, so its error also replaces one of this
    process; otherwise it is raised only when this process has none.
    Otherwise the rows are written here, as they come.
    """
    files = list(tables.values())
    if not (fork and _can_fork()):
        return (lambda table, at, *payload: _write_rows(
            files[table], build(at, *payload))), False
    for fh in files:  # else the headers are written again, by both processes
        fh.flush()
    # raw chunks the child has formatted, in a page shared across the fork
    done = stack.enter_context(memoryview(
        stack.enter_context(mmap.mmap(-1, 8))).cast("Q"))
    serve = partial(_write_tables, files=files, done=done, n_rows=n_rows,
                    build=build)

    def finish(exc_type, exc, tb) -> None:
        with _stops_wait():
            outcome = _reap(*child)
        if exc is None or first and isinstance(exc, Exception):
            if outcome is None:
                raise ConfigError(
                    f"the {name} ended without a result (killed by a signal "
                    "or out of memory); no table for " + ", ".join(tables))
            if not outcome[0]:
                raise outcome[1]

    with _stops_wait():  # a stopped run reaps the child too
        child = _fork(lambda requests, answer: answer(_attempt(serve,
                                                               requests)))
        stack.push(finish)
    pipe = child[1]
    capacity = _pipe_capacity(pipe.fileno())
    sent = 0  # raw chunks sent

    def write(table: int, at: int, *payload) -> None:
        nonlocal sent
        limit = min(_BACKLOG, capacity // (_CHUNK_HEAD.size
                                           + 8 * len(payload) * _CSV_BLOCK))
        for lo in range(0, len(payload[0]), _CSV_BLOCK):
            chunk = [col[lo:lo + _CSV_BLOCK] for col in payload]
            head = table, at + lo, len(chunk[0])
            if _child_formats(sent - done[0], limit):
                sent += 1
                head += len(chunk), 8 * len(chunk) * len(chunk[0])
            else:
                chunk = [_format_rows(np.column_stack(build(at + lo, *chunk)))]
                head += 0, len(chunk[0])
            pipe.write(_CHUNK_HEAD.pack(*head))
            for data in chunk:
                pipe.write(data)
        pipe.flush()

    return write, True


# formatted blocks of profile.csv that its writer child may hold: about
# 5 MB, as a row takes at most 100 bytes (four fields of 24 characters and
# a separator) and a block of the sweep at most SWEEP_BLOCK + 1 rows
_HELD_BLOCKS = (5 << 20) // (100 * (SWEEP_BLOCK + 1))


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
    p, profile, grid, blocks = _simulate(cfg, integrate_blocks)

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
        files = [stack.enter_context(open(out / name, "wb")) for name in tables]
        for fh, header in zip(files, tables.values()):
            fh.write(header)
        for block in blocks:
            _, curve, _, *deficits = block
            _check_range(curve, node)
            j = int(np.argmax(curve))
            if curve[j] > peak:
                # node * dt, as grid.nodes() has it
                peak, peak_time = float(curve[j]), (node + j) * grid.dt
            if deficits:
                deficit_max = np.maximum(deficit_max, [
                    np.max(np.abs(d)) for d in deficits])
            if files:
                if write is None:  # forks where a first block is short
                    write, _ = _table_writer(
                        stack, "table writer", dict(zip(tables, files)),
                        grid.n_nodes, curve.size <= cfg.n_steps, True,
                        lambda at, *columns: columns)
                times = np.arange(node, node + curve.size) * grid.dt
                oracle = reference_curve(p, profile, times)
                write(0, node, times, curve, oracle, np.abs(curve - oracle))
                if deficits:
                    write(1, node, times, *deficits)
            node += curve.size

    report = {
        "fidelity": float(curve[-1]),
        "peak_fidelity": peak,
        "peak_time": peak_time,
        "params": {
            "gamma": p.gamma,
            "transfer_time": p.transfer_time,
            "gamma_loss": p.gamma_loss,
            "eta": p.eta,
        },
        "n_steps": cfg.n_steps,
    }
    if profile.kind is ProfileKind.OPTIMAL_CLOSED_FORM:
        report["budget"] = budget_report(
            p, dt_cut=profile.truncation, gamma1_max=profile.gamma1_max,
            target_fidelity=cfg.target_fidelity, margin=cfg.margin)

    if cfg.kernels:
        report["commutator_max"] = deficit_max.tolist()

    if cfg.format in ("json", "both"):
        _write_json(out / "report.json", report)
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
            fh = stack.enter_context(open(out / "profile.csv", "wb"))
            fh.write(b"t,gamma1_opt,gamma1_closed_form,rel_err\n")
            write, forked = _table_writer(
                stack, "profile writer", {"profile.csv": fh}, grid.n_nodes,
                grid.n_steps > SWEEP_BLOCK, False,
                partial(_profile_rows, reference, p, grid))
            room = _HELD_BLOCKS if forked else 0  # blocks the child may hold

            def send(start: int, u: np.ndarray) -> None:
                with contextlib.suppress(BrokenPipeError):  # the child failed
                    write(0, start, u)

            def hand_over(start: int, u: np.ndarray) -> None:
                # the sweep's blocks come last first; the last node copies
                # the last cell's maximizer
                nonlocal room
                if start + u.size == grid.n_steps:
                    u = np.append(u, u[-1])
                if room:
                    room -= 1
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

    report = {
        "functional": functional,
        "iterations": result.iterations,
        "kkt_residual": result.kkt_residual,
        "gamma1_max": result.gamma1_max,
        "truncation": trunc,
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


def _sweep_point(job: tuple) -> tuple[float, float]:
    """One sweep evaluation, ``(F_oracle, F_sim)``; runs in a worker process."""
    cfg, name, value = job
    cfg = dataclasses.replace(cfg, **{_SWEEPABLE[name]: value})
    try:
        p, profile, grid, a21 = _simulate(cfg, transfer_amplitude)
        _check_range(np.array([a21]), grid.n_steps)
    except ValueError as exc:  # ConfigError among them
        raise ConfigError(f"{name}={value:g}: {exc}") from None
    except IntegrationError as exc:
        raise IntegrationError(f"{name}={value:g}: {exc.reason}",
                               exc.step) from None
    # where simulate's curve ends: its last node, n_steps * dt
    t_end = grid.n_steps * grid.dt
    return reference_curve(p, profile, t_end), a21


def _attempt(fn, *args) -> tuple:
    """``(True, fn(*args))``, or ``(False, error)`` if it raised one."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def _cpus() -> int:
    """The CPUs this process may run on; os.cpu_count() also counts those
    outside its affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(serve, close: Sequence[int] = ()) -> tuple:
    """Fork a child that runs ``serve(requests, answer)`` and exits.

    ``requests`` reads what the parent writes into the returned writer;
    ``answer(obj)`` sends an 8-byte length and the pickle of ``obj`` to the
    returned reader, where :func:`_answer` reads it.  The child first closes
    the descriptors ``close`` (the parent's ends of earlier children's
    pipes), so that a child's death ends its pipes.  Returns ``(pid,
    writer, reader)``; :func:`_reap` ends the child.
    """
    sys.stdout.flush()  # else a child's line-buffered stderr repeats them
    sys.stderr.flush()
    request_r, request_w = os.pipe()
    answer_r, answer_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # a child leaves only through os._exit
        try:
            # stops end it at once, whatever its parent holds back
            signal.signal(signal.SIGINT, signal.default_int_handler)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            for fd in (request_w, answer_r, *close):
                os.close(fd)
            answers = open(answer_w, "wb")

            def answer(obj) -> None:
                data = pickle.dumps(obj)
                answers.write(len(data).to_bytes(8, "little") + data)
                answers.flush()

            serve(open(request_r, "rb"), answer)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(request_r)
    os.close(answer_w)
    return pid, open(request_w, "wb"), open(answer_r, "rb")


def _answer(reader):
    """The next object a child answered, None if it ended without one."""
    size = int.from_bytes(head := reader.read(8), "little")
    if len(head) == 8 and len(data := reader.read(size)) == size:
        return pickle.loads(data)
    return None


def _reap(pid: int, writer, reader):
    """End a child of :func:`_fork`: close its requests, which it reads to
    their end, and wait for it to exit.  Returns what it answered after
    its last request, None if nothing."""
    with contextlib.suppress(BrokenPipeError):  # bytes a lost child left
        writer.close()
    try:
        return _answer(reader)
    finally:
        reader.close()
        os.waitpid(pid, 0)


def _sweep_rows(jobs: list, workers: int) -> list:
    """Each job's ``_sweep_point`` row, in job order, from ``workers``
    forked children, or from this process without ``os.fork``.  A child
    answers each 8-byte point index on its pipe with :func:`_attempt`'s
    outcome, and gets the next index as soon as its answer is back.  No
    point starts after one fails or a child is lost; the earliest point
    without a row decides what is raised.
    """
    import select

    def serve(indices, answer) -> None:
        while index := indices.read(8):
            answer(_attempt(_sweep_point,
                            jobs[int.from_bytes(index, "little")]))

    outcomes, todo = [None] * len(jobs), list(range(len(jobs)))[::-1]
    children, busy = {}, {}  # by answer pipe: (pid, writer, reader); index
    try:
        for _ in range(workers if hasattr(os, "fork") else 0):
            with _stops_wait():  # a stopped run reaps the child too
                child = _fork(serve, [pipe.fileno() for _, *pipes
                                      in children.values() for pipe in pipes])
                children[child[2].fileno()] = child
        poller = select.poll() if children else None  # Windows has neither
        idle = list(children)
        while todo and idle or busy:
            while todo and idle:
                fd = idle.pop()
                busy[fd] = todo.pop()
                poller.register(fd, select.POLLIN)
                try:
                    children[fd][1].write(busy[fd].to_bytes(8, "little"))
                    children[fd][1].flush()
                except BrokenPipeError:  # the child is gone: its pipe ends
                    pass
            for fd, _ in poller.poll():
                poller.unregister(fd)
                index = busy.pop(fd)
                outcomes[index] = _answer(children[fd][2])
                if outcomes[index] is None or not outcomes[index][0]:
                    todo.clear()
                idle.append(fd)
        while todo:  # no os.fork: this process runs the points
            index = todo.pop()
            outcomes[index] = _attempt(_sweep_point, jobs[index])
            if not outcomes[index][0]:
                todo.clear()
    finally:
        # every request pipe ends first, so that the workers exit together
        with _stops_wait():
            for _, writer, _ in children.values():
                with contextlib.suppress(BrokenPipeError):
                    writer.close()
            for child in children.values():
                _reap(*child)
    for outcome in outcomes:
        if outcome is None:
            raise ConfigError(
                "a sweep worker ended without a result (killed by a signal or "
                "out of memory); no result for " + ", ".join(
                    f"{name}={value:g}" for (_, name, value), o
                    in zip(jobs, outcomes) if o is None))
        if not outcome[0]:
            raise outcome[1]
    return [row for _, row in outcomes]


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    """Sweep one parameter, one row per point, on one forked worker per CPU."""
    if not cfg.sweep:
        raise ConfigError("sweep subcommand needs --sweep param:lo:hi:n")
    name, lo, hi, n = _parse_sweep(cfg.sweep)
    points = np.linspace(lo, hi, n).tolist()
    rows = _sweep_rows([(cfg, name, v) for v in points], min(n, _cpus()))

    table = [(value, analytic, simulated, abs(simulated - analytic))
             for value, (analytic, simulated) in zip(points, rows)]
    if cfg.format in ("csv", "both"):
        _write_csv(out / "sweep.csv",
                   [name, "F_oracle", "F_sim", "abs_err"], list(zip(*table)))
    if cfg.format in ("json", "both"):
        worst = max(r[3] for r in table)
        _write_json(out / "sweep_report.json", {
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

    _write_json(out / "budget.json", payload)
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
        description="cascaded-oscillator state-transfer toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    for name, (run, _) in _COMMANDS.items():
        p_command = sub.add_parser(name, help=run.__doc__)
        if command in (None, name):
            for group, flag, dest, kwargs in _OPTIONS:
                if group in _READS[name]:
                    p_command.add_argument(flag, dest=dest, **kwargs)
    return parser


# each command and the names of the files it may write
_COMMANDS = {
    "simulate": (cmd_simulate, ("fidelity_curve.csv", "commutator.csv",
                                "report.json")),
    "optimize": (cmd_optimize, ("profile.csv", "optimize_report.json")),
    "sweep": (cmd_sweep, ("sweep.csv", "sweep_report.json")),
    "budget": (cmd_budget, ("budget.json",)),
}


def _staging_directory(out: Path) -> Path:
    """A new directory in ``out`` for the command to write into, named
    ``.run-<pid>-<8 hex digits>``.  A name that is taken (a killed run's
    directory, which nothing commits or removes) is passed over."""
    while True:
        stage = out / f".run-{os.getpid()}-{os.urandom(4).hex()}"
        try:
            stage.mkdir()
            return stage
        except FileExistsError:
            pass


_STOPS = (signal.SIGINT, signal.SIGTERM)


def _stop(signum: int, frame) -> None:
    """SIGTERM's handler while a command runs: it stops the run as SIGINT
    does, naming the signal."""
    raise KeyboardInterrupt(signum)


@contextlib.contextmanager
def _handling(handler, signums: Sequence[int]):
    """``handler`` handles the signals ``signums`` in the block, and the
    previous handlers come back after.  Off the main thread, where no
    handler can be set, nothing changes."""
    try:
        previous = [signal.signal(signum, handler) for signum in signums]
    except ValueError:  # not the main thread
        yield
        return
    try:
        yield
    finally:
        for signum, old in zip(signums, previous):
            # None: a handler not set from Python, which cannot be set again
            signal.signal(signum, signal.SIG_DFL if old is None else old)


@contextlib.contextmanager
def _stops_wait():
    """SIGINT and SIGTERM wait for the end of the block, which is never cut
    short, and then raise ``KeyboardInterrupt(signum)`` for the first of
    them: around a fork and the reap it registers, and the commit step.
    The handlers are Python's, not a signal mask, which would not hold
    the signal back from the process's other threads (numpy's BLAS
    starts some)."""
    caught = []
    try:
        with _handling(lambda signum, frame: caught.append(signum), _STOPS):
            yield
    finally:
        if caught:
            raise KeyboardInterrupt(caught[0])


def main(argv: Optional[Sequence[str]] = None) -> int:
    console = argv is None  # the command line's own run
    argv = sys.argv[1:] if console else argv
    # the top-level parser takes no value, so the first command name in
    # argv is the command parsed
    command = next((word for word in argv if word in _COMMANDS), None)
    args = build_parser(command).parse_args(argv)
    cfg = None
    try:
        with _handling(_stop, (signal.SIGTERM,)):
            cfg = resolve_config(args)
            cmd, names = _COMMANDS[args.command]
            out = Path(cfg.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            stage, code = _staging_directory(out), None
            try:
                _write_json(out / "config.json", dataclasses.asdict(cfg))
                # non-finite results are refused or written as nan, so
                # numpy's floating-point warnings would only repeat them on
                # stderr
                with np.errstate(all="ignore"):
                    code = cmd(cfg, stage)
                return code
            # the commit step, which moves all or none; only a SIGKILL
            # inside it can leave some of the files moved in
            finally:
                with _stops_wait():
                    for name in names:
                        if code == EXIT_OK and (stage / name).exists():
                            (stage / name).replace(out / name)
                        else:
                            (stage / name).unlink(missing_ok=True)
                            (out / name).unlink(missing_ok=True)
                    stage.rmdir()
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
    except IntegrationError as exc:
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
    # last resorts, so that no input ends in a traceback
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        # a bare MemoryError() carries no reason: name the run instead
        run = (args.command if cfg is None
               else f"{args.command} --steps {cfg.n_steps}")
        print(f"error: not enough memory: {str(exc) or run}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
