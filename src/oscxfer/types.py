"""Core parameter, grid, and profile types shared across the package.

Everything downstream (closed-form references, the ODE simulator, the profile
optimizer, the CLI) builds on the small value types defined here.  All rates
are angular (1/time) and all coefficient dynamics are real: the carrier
frequency is rotated away and the remaining phase freedom is fixed so that
the transfer amplitudes stay real-valued.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "SystemParams",
    "TimeGrid",
    "ProfileKind",
    "CouplingProfile",
    "TransferState",
    "ValidityWindows",
    "FidelityReport",
    "ParamIssue",
    "ProfileSingularityError",
    "validate_params",
    "profile_value",
    "profile_values",
    "DAMPING_CAP_FACTOR",
]

# Fraction of the grid step beyond which the integrator refuses a single
# step and halves instead: gamma1 * h <= DAMPING_CAP_FACTOR.
DAMPING_CAP_FACTOR = 0.05


class ProfileSingularityError(ValueError):
    """Raised when an untruncated closed-form profile is evaluated at its pole."""


@dataclass(frozen=True)
class SystemParams:
    """Physical rates of the two-oscillator cascade.

    Parameters
    ----------
    gamma : float
        Line coupling rate of the receiving oscillator (rate units).  The
        sending oscillator's coupling is the time-dependent control and lives
        in :class:`CouplingProfile`.
    transfer_time : float
        Total protocol duration T.
    gamma_loss : float, optional
        Uniform parasitic damping rate applied to both oscillators.
    eta : float, optional
        Power transmission of the connecting line, in (0, 1].
    omega0 : float, optional
        Carrier frequency (rad/time); only consulted by validity checks,
        never by the rotating-frame dynamics.

    Construction never raises: feed instances to :func:`validate_params`
    for a report of violated invariants.
    """

    gamma: float
    transfer_time: float
    gamma_loss: float = 0.0
    eta: float = 1.0
    omega0: float = 1.0e6


class ParamIssue(NamedTuple):
    severity: str  # "error" | "warning"
    message: str


def validate_params(p: SystemParams, margin: float = 10.0) -> list[ParamIssue]:
    """Report violated parameter invariants without raising.

    Hard violations come back with severity ``"error"``; soft conditions
    (currently only weak damping, ``gamma * margin <= omega0``) come back as
    ``"warning"``.  An empty list means every hard invariant holds and no
    warning fired.
    """
    issues: list[ParamIssue] = []

    def err(msg: str) -> None:
        issues.append(ParamIssue("error", msg))

    if not math.isfinite(p.gamma) or p.gamma <= 0:
        err("gamma must be positive and finite")
    if not math.isfinite(p.transfer_time) or p.transfer_time <= 0:
        err("transfer_time must be positive and finite")
    if not math.isfinite(p.gamma_loss) or p.gamma_loss < 0:
        err("gamma_loss must be >= 0")
    elif p.gamma_loss > 0 and p.gamma_loss >= p.gamma:
        err("gamma_loss < gamma required for lossy oracle")
    if not (0.0 < p.eta <= 1.0):
        err("eta must lie in (0, 1]")
    if not math.isfinite(p.omega0) or p.omega0 <= 0:
        err("omega0 must be positive and finite")
    elif p.gamma > 0 and p.gamma * margin > p.omega0:
        issues.append(
            ParamIssue(
                "warning",
                f"weak damping violated: gamma*{margin:g} exceeds omega0 "
                "(rotating-frame treatment marginal)",
            )
        )
    return issues


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with nodes ``t_j = j * dt``, ``dt = T / n_steps``."""

    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.t_end <= 0 or not math.isfinite(self.t_end):
            raise ValueError("t_end must be positive and finite")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    def nodes(self) -> np.ndarray:
        """All node times, computed as j*dt (not accumulated)."""
        return np.arange(self.n_nodes) * self.dt


class ProfileKind(enum.Enum):
    CONSTANT = "constant"
    OPTIMAL_CLOSED_FORM = "optimal_closed_form"
    SAMPLED_GRID = "sampled_grid"


@dataclass(frozen=True)
class CouplingProfile:
    """Time-dependent coupling rate gamma1(t) of the sending oscillator.

    Three kinds are supported:

    * ``CONSTANT`` — fixed value ``gamma1``.
    * ``OPTIMAL_CLOSED_FORM`` — the variational optimum
      ``gamma1(t) = gamma / (exp(2*gamma*(T - t)) - 1)``, which diverges at
      ``t = T`` and therefore is normally truncated.
    * ``SAMPLED_GRID`` — node values on a :class:`TimeGrid`, interpreted as
      piecewise-constant from the left node of each cell (the same
      convention the quadrature and the simulator use, so the two agree
      bit-for-bit).

    ``truncation`` holds the profile at ``gamma1_max`` on the final window
    ``[T - truncation, T]``; when unset, ``gamma1_max`` defaults to
    ``1 / (2 * truncation)``, the rate whose drain time matches the window.
    """

    kind: ProfileKind
    gamma1: Optional[float] = None
    grid: Optional[TimeGrid] = None
    values: Optional[np.ndarray] = None
    truncation: Optional[float] = None
    gamma1_max: Optional[float] = None

    def __post_init__(self) -> None:
        if self.truncation is not None:
            if self.truncation == 0.0:
                raise ValueError(
                    "truncation = 0 is rejected: the closed-form profile is "
                    "singular at t = T; pass None to leave it untruncated"
                )
            if self.truncation < 0 or not math.isfinite(self.truncation):
                raise ValueError("truncation must be positive")
            if self.gamma1_max is None:
                object.__setattr__(self, "gamma1_max", 1.0 / (2.0 * self.truncation))
        if self.gamma1_max is not None and self.gamma1_max < 0:
            raise ValueError("gamma1_max must be >= 0")

        if self.kind is ProfileKind.CONSTANT:
            if self.gamma1 is None or self.gamma1 < 0 or not math.isfinite(self.gamma1):
                raise ValueError("constant profile needs gamma1 >= 0")
        elif self.kind is ProfileKind.SAMPLED_GRID:
            if self.grid is None or self.values is None:
                raise ValueError("sampled profile needs a grid and node values")
            vals = np.asarray(self.values, dtype=float)
            if vals.shape != (self.grid.n_nodes,):
                raise ValueError(
                    f"expected {self.grid.n_nodes} node values, got {vals.shape}"
                )
            if not np.all(np.isfinite(vals)) or np.any(vals < 0):
                raise ValueError("profile values must be finite and >= 0")
            object.__setattr__(self, "values", vals)

    @classmethod
    def constant(
        cls,
        gamma1: float,
        truncation: Optional[float] = None,
        gamma1_max: Optional[float] = None,
    ) -> "CouplingProfile":
        return cls(ProfileKind.CONSTANT, gamma1=gamma1, truncation=truncation,
                   gamma1_max=gamma1_max)

    @classmethod
    def optimal(
        cls,
        truncation: Optional[float],
        gamma1_max: Optional[float] = None,
    ) -> "CouplingProfile":
        return cls(ProfileKind.OPTIMAL_CLOSED_FORM, truncation=truncation,
                   gamma1_max=gamma1_max)

    @classmethod
    def sampled(
        cls,
        grid: TimeGrid,
        values: np.ndarray,
        truncation: Optional[float] = None,
        gamma1_max: Optional[float] = None,
    ) -> "CouplingProfile":
        return cls(ProfileKind.SAMPLED_GRID, grid=grid, values=values,
                   truncation=truncation, gamma1_max=gamma1_max)


# Block length for elementwise Python-level evaluation, so that the lists of
# Python floats it builds stay small.
_BLOCK = 8192


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (a scalar ``math`` function) applied to each element of ``x``.

    ``math.expm1`` and ``math.exp`` are used instead of their numpy
    counterparts because the two libraries round differently in the last
    place on some arguments, and the scalar results are the reference.
    """
    x = np.asarray(x, dtype=float).ravel()
    out = np.empty(x.size)
    for lo in range(0, x.size, _BLOCK):
        out[lo:lo + _BLOCK] = list(map(fn, x[lo:lo + _BLOCK].tolist()))
    return out


def _optimal_closed_form(gamma: float, t_remaining: np.ndarray) -> np.ndarray:
    """gamma / (exp(2*gamma*t_remaining) - 1) elementwise, safe against overflow."""
    x = 2.0 * gamma * np.asarray(t_remaining, dtype=float)
    if np.any(x <= 0.0):
        raise ProfileSingularityError(
            "closed-form coupling profile diverges at t = T; apply a truncation"
        )
    # beyond x = 700 expm1 would overflow; the value has long underflowed
    big = x > 700.0
    out = np.empty(x.shape)
    out[big] = gamma * _elementwise(math.exp, -x[big])
    out[~big] = gamma / _elementwise(math.expm1, x[~big])
    return out


def profile_value(c: CouplingProfile, p: SystemParams, t: float) -> float:
    """Evaluate the coupling rate gamma1 at time ``t``.

    The one-element case of :func:`profile_values`; see there.
    """
    return float(profile_values(c, p, np.array([t], dtype=float))[0])


def profile_values(c: CouplingProfile, p: SystemParams, ts: np.ndarray) -> np.ndarray:
    """Evaluate the coupling rate gamma1 at every time in ``ts``.

    Inside the truncation window ``[T - truncation, T]`` every profile kind
    returns the hold value ``gamma1_max``.  Elsewhere a constant profile
    returns its rate, the closed-form optimum is evaluated elementwise with
    ``math.expm1`` (and raises :class:`ProfileSingularityError` at
    ``t >= T``), and a sampled profile returns the value at the left node of
    the enclosing cell, snapping times within 1e-9 of a cell width below a
    node onto that node.  The result has the shape of ``ts``; element by
    element it is independent of the other times in the array.
    """
    t = np.asarray(ts, dtype=float)
    T = p.transfer_time
    out = np.empty(t.shape)
    if c.truncation is None:
        free = np.ones(t.shape, dtype=bool)
    else:
        free = ~(t >= T - c.truncation)  # NaN times are not held
        out[~free] = c.gamma1_max
    t = t[free]

    if c.kind is ProfileKind.CONSTANT:
        out[free] = c.gamma1
    elif c.kind is ProfileKind.OPTIMAL_CLOSED_FORM:
        out[free] = _optimal_closed_form(p.gamma, T - t)
    else:
        # SAMPLED_GRID: left-endpoint lookup with node snapping
        grid = c.grid
        assert grid is not None and c.values is not None
        s = t / grid.dt
        j = np.floor(s)
        j[s - j > 1.0 - 1e-9] += 1.0  # within float fuzz of the next node
        j = np.clip(j, 0, grid.n_nodes - 1).astype(np.intp)
        out[free] = c.values[j]
    return out


@dataclass
class TransferState:
    """Result of integrating the cascade's coefficient equations.

    The receiving oscillator's annihilation operator is expanded as::

        a2(t) = a21(t) a1(0) + a22(t) a2(0) + noise-kernel terms

    so ``a21`` is the state-independent transfer amplitude; there is no
    initial-state input anywhere by construction.

    With kernel tracking enabled the state also holds the O(n) generators
    of the six noise kernels listed in :mod:`oscxfer.simulate` (``None``
    otherwise): ``step_maps``, shape ``(3, n_steps)``, whose column i is
    macro step i's map ``(mxx, myx, myy)``; ``k1_births``, ``sqrt(2 g1)`` on
    the nodes; and ``channel_births``, the constant births of ``k2``, of the
    loss ports and of the beam-splitter port.  :meth:`kernel_row` rebuilds
    one row of all six.
    """

    params: SystemParams
    grid: TimeGrid
    a11: np.ndarray
    a21: np.ndarray
    a22: np.ndarray
    step_maps: Optional[np.ndarray] = None
    k1_births: Optional[np.ndarray] = None
    channel_births: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @property
    def fidelity(self) -> float:
        """Transfer amplitude at the end of the protocol, a21(T)."""
        return float(self.a21[-1])

    def fidelity_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, a21) series over the whole grid."""
        return self.grid.nodes(), self.a21.copy()

    def kernel_row(self, i: int) -> dict[str, np.ndarray]:
        """Row ``i`` of every noise kernel: ``k(t_i, t_j)`` for ``j = 0..i``.

        The product of step maps j..i-1 is built backward from row i, one map
        at a time, so no ratio of accumulated maps appears and nothing
        underflows that the kernel itself does not.
        """
        if self.step_maps is None:
            raise ValueError("kernel_row needs a state integrated with "
                             "kernel_tracking enabled")
        if not 0 <= i <= self.grid.n_steps:
            raise IndexError(f"row {i} is outside 0..{self.grid.n_steps}")
        pxx, pyx, pyy = np.empty((3, i + 1))
        xx, yx, yy = 1.0, 0.0, 1.0
        pxx[i], pyx[i], pyy[i] = xx, yx, yy
        backward = (memoryview(m[:i][::-1]) for m in self.step_maps)
        for j, mxx, myx, myy in zip(range(i - 1, -1, -1), *backward):
            yx = yx * mxx + yy * myx
            xx *= mxx
            yy *= myy
            pxx[j], pyx[j], pyy[j] = xx, yx, yy
        b1 = self.k1_births[:i + 1]
        b2, bl, bv = self.channel_births
        return {"k1": pxx * b1, "k2": pyx * b1 + pyy * b2,
                "kl1": pxx * bl, "kl12": pyx * bl,
                "kl2": pyy * bl, "kv2": pyy * bv}


@dataclass(frozen=True)
class ValidityWindows:
    """Scale-separation checks for the physical validity of the rate model.

    Both windows restate the same requirements; they are reported in rate
    form and in quality-factor form because hardware specs quote either.
    ``margin`` operationalizes "much greater than" as a ratio.
    """

    margin: float
    q2: float                      # omega0 / gamma of the receiver
    q1_min: float                  # omega0 / gamma1_max of the sender
    carrier_above_coupling: bool   # omega0 >= margin * gamma1_max
    coupling_above_drain: bool     # gamma1_max >= margin * gamma / (1 - F)
    q_separation: bool             # (1 - F) * q2 >= margin * q1_min
    q_floor: bool                  # q1_min >= margin

    @property
    def all_ok(self) -> bool:
        return (self.carrier_above_coupling and self.coupling_above_drain
                and self.q_separation and self.q_floor)

    def to_dict(self) -> dict:
        return {
            "margin": self.margin,
            "q2": self.q2,
            "q1_min": self.q1_min,
            "carrier_above_coupling": self.carrier_above_coupling,
            "coupling_above_drain": self.coupling_above_drain,
            "q_separation": self.q_separation,
            "q_floor": self.q_floor,
            "all_ok": self.all_ok,
        }


@dataclass(frozen=True)
class FidelityReport:
    """Predicted fidelity with its infidelity budget broken out by mechanism.

    Terms: ``exponential`` is the finite-duration term ``exp(-2*gamma*T)/2``,
    ``truncation`` is the profile-cutoff term ``gamma*dt_cut``, and the two
    loss terms are ``1 - sqrt(eta)`` (line) and ``1 - exp(-gamma_loss*T)``
    (oscillators).
    """

    fidelity: float
    exponential: float
    truncation: float
    loss_line: float = 0.0
    loss_oscillator: float = 0.0
    validity: Optional[ValidityWindows] = None
    warnings: tuple[str, ...] = field(default=())

    @property
    def infidelity_total(self) -> float:
        return (self.exponential + self.truncation
                + self.loss_line + self.loss_oscillator)

    def to_dict(self) -> dict:
        out = {
            "fidelity": self.fidelity,
            "infidelity_terms": {
                "exponential": self.exponential,
                "truncation": self.truncation,
                "loss_line": self.loss_line,
                "loss_oscillator": self.loss_oscillator,
            },
            "infidelity_total": self.infidelity_total,
            "warnings": list(self.warnings),
        }
        if self.validity is not None:
            out["validity"] = self.validity.to_dict()
        return out
