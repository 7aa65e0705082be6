"""Core parameter, grid, and profile types shared across the package.

Everything downstream (closed-form references, the ODE simulator, the profile
optimizer, the CLI) builds on the small value types defined here.  All rates
are angular (1/time) and all coefficient dynamics are real: the carrier
frequency is rotated away and the remaining phase freedom is fixed so that
the transfer amplitudes stay real-valued.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "SystemParams",
    "TimeGrid",
    "ProfileKind",
    "CouplingProfile",
    "TransferState",
    "ProfileSingularityError",
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

    Construction raises ``ValueError`` naming every violated invariant,
    joined by "; ": gamma, transfer_time and omega0 must be positive and
    finite, gamma_loss finite and >= 0, and eta in (0, 1].  So every
    instance describes a physical cascade, and no route needs to check one
    again.
    """

    gamma: float
    transfer_time: float
    gamma_loss: float = 0.0
    eta: float = 1.0
    omega0: float = 1.0e6

    def __post_init__(self) -> None:
        errors = []
        if not math.isfinite(self.gamma) or self.gamma <= 0:
            errors.append("gamma must be positive and finite")
        if not math.isfinite(self.transfer_time) or self.transfer_time <= 0:
            errors.append("transfer_time must be positive and finite")
        if not math.isfinite(self.gamma_loss) or self.gamma_loss < 0:
            errors.append("gamma_loss must be >= 0")
        if not (0.0 < self.eta <= 1.0):
            errors.append("eta must lie in (0, 1]")
        if not math.isfinite(self.omega0) or self.omega0 <= 0:
            errors.append("omega0 must be positive and finite")
        if errors:
            raise ValueError("; ".join(errors))


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
        # a subnormal step loses digits, and 1/dt overflows the default cap
        if self.t_end / self.n_steps < sys.float_info.min:
            raise ValueError(
                f"grid step T/n_steps = {self.t_end!r}/{self.n_steps} is "
                f"below the smallest normal double {sys.float_info.min!r}")

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

    Only the closed-form optimum has a hold window: ``truncation`` holds it
    at ``gamma1_max`` on the final window ``[T - truncation, T]``, and when
    unset, ``gamma1_max`` defaults to ``1 / (2 * truncation)``, the rate
    whose drain time matches the window.  The other kinds refuse both.  A
    cap must be positive, as in the optimizer's box and the validity
    windows.
    """

    kind: ProfileKind
    gamma1: Optional[float] = None
    grid: Optional[TimeGrid] = None
    values: Optional[np.ndarray] = None
    truncation: Optional[float] = None
    gamma1_max: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind is not ProfileKind.OPTIMAL_CLOSED_FORM and (
                self.truncation is not None or self.gamma1_max is not None):
            raise ValueError("only the closed-form optimal profile has a "
                             "hold window (truncation, gamma1_max)")
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
        if self.gamma1_max is not None and not self.gamma1_max > 0:
            raise ValueError("gamma1_max must be positive")

        if self.kind is ProfileKind.CONSTANT:
            if self.gamma1 is None or self.gamma1 < 0 or not math.isfinite(self.gamma1):
                raise ValueError("constant profile needs a finite gamma1 >= 0")
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
            # a column view, such as a profile file's, would make every
            # cell lookup a strided gather; the copy keeps every bit
            object.__setattr__(self, "values", np.ascontiguousarray(vals))

    @classmethod
    def constant(cls, gamma1: float) -> "CouplingProfile":
        return cls(ProfileKind.CONSTANT, gamma1=gamma1)

    @classmethod
    def optimal(
        cls,
        truncation: Optional[float],
        gamma1_max: Optional[float] = None,
    ) -> "CouplingProfile":
        return cls(ProfileKind.OPTIMAL_CLOSED_FORM, truncation=truncation,
                   gamma1_max=gamma1_max)

    @classmethod
    def sampled(cls, grid: TimeGrid, values: np.ndarray) -> "CouplingProfile":
        return cls(ProfileKind.SAMPLED_GRID, grid=grid, values=values)


Times = Union[float, np.ndarray]


def _shaped(t: Times, out: np.ndarray) -> Times:
    """``out``, computed elementwise over ``t``, as a float or in ``t``'s shape."""
    if np.ndim(t) == 0:
        return float(np.reshape(out, ()))
    return np.reshape(out, np.shape(t))


# the numpy ufunc whose strided loop may stand in for each math function
_UFUNCS = {math.exp: np.exp, math.expm1: np.expm1}


@functools.cache
def _libm_ufunc(fn):
    """numpy's ufunc for ``fn`` if its strided loop, writing through a
    reversed view, gives ``fn``'s bits on 509 points of [-40, 40], else
    None.  Probed once per process."""
    ufunc = _UFUNCS[fn]
    probe = np.linspace(-40.0, 40.0, 509)
    want = np.fromiter(map(fn, memoryview(probe)), float, probe.size)
    got = np.empty(probe.size)[::-1]
    ufunc(probe, out=got)
    return ufunc if got.tobytes() == want.tobytes() else None


def _elementwise(fn, x: np.ndarray, buf: Optional[np.ndarray] = None
                 ) -> np.ndarray:
    """``fn`` (``math.exp`` or ``math.expm1``) applied to each element of
    ``x``, flattened in C order, with the bits of ``fn`` itself.

    numpy's ``np.exp``/``np.expm1`` run SIMD kernels that round differently
    from libm in the last place on some arguments, and the scalar results
    are the reference.  But numpy runs those kernels only into a unit-stride
    output: into a reversed one it takes its scalar loop, which calls the
    same libm function as ``math`` at a fifth of the cost of a Python map.
    So the ufunc writes the forward, contiguous input through a reversed
    view of ``buf``, a float buffer of ``x``'s size that must not overlap
    it (a fresh one when None), and that view is returned (with both
    strides reversed numpy would flip them and run SIMD again).  Two cases
    keep the map of ``fn``: fewer than two elements, because numpy drops a
    length-1 axis's stride and runs SIMD; and a process in which the
    one-time probe of :func:`_libm_ufunc` finds the loop's bits differ from
    ``fn``'s.  As ``fn`` does, a finite argument whose result overflows
    raises ``OverflowError``: where the loop ran, one NaN-ignoring
    reduction over ``buf`` looks for an inf, which allocates nothing, and
    only an inf found sends the elements to be tested.
    """
    x = np.ascontiguousarray(x, dtype=float).ravel()
    if buf is None:
        buf = np.empty(x.size)
    out = buf[::-1]
    ufunc = _libm_ufunc(fn) if x.size > 1 else None
    if ufunc is None:
        out[...] = np.fromiter(map(fn, memoryview(x)), float, x.size)
        return out
    with np.errstate(over="ignore"):
        ufunc(x, out=out)
    # a NaN would hide an inf from np.max; the forward buffer reduces faster
    if np.fmax.reduce(buf, initial=-math.inf) == math.inf:
        if np.isfinite(x[out == math.inf]).any():
            raise OverflowError("math range error")
    return out


def _phi(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi(z) = expm1(z) / z in ``z``'s shape, and the libm ``expm1(z)`` it
    divides, from one ``expm1`` per element.

    Where |z| < 1e-5, phi is the series 1 + z/2 + z^2/6 instead, formed
    only there, so a huge |z| elsewhere never meets z^2.  As
    ``math.expm1`` does, a z above about 709.78 raises ``OverflowError``.
    """
    m = _elementwise(math.expm1, z).reshape(z.shape)
    small = np.abs(z) < 1e-5
    # the closed form divides by z, which the series replaces near 0
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.divide(m, z, out=np.empty_like(m))
    zs = z[small]
    phi[small] = 1.0 + zs / 2.0 + zs * zs / 6.0
    return phi, m


def _loss_factor(p: SystemParams, ts: Times) -> Times:
    """sqrt(eta) * exp(-gamma_loss*t) at a time or at every time in ``ts``,
    by libm: a float in gives a float out, an array an array of its shape.
    Without parasitic damping every exp(-0*t) is 1.0, so the factor is the
    float sqrt(eta) whatever ``ts``, which scales an amplitude to the same
    bits."""
    if p.gamma_loss == 0.0:
        return math.sqrt(p.eta)
    return math.sqrt(p.eta) * _shaped(
        ts, _elementwise(math.exp, -p.gamma_loss * ts))


def _optimal_closed_form(gamma: float, x: np.ndarray,
                         held: Optional[np.ndarray], work: np.ndarray) -> None:
    """gamma / (exp(2*gamma*r) - 1), safe against overflow, in place on
    the contiguous remaining times r in ``x``, with ``work`` as scratch;
    entries at the indices ``held`` are left undefined."""
    np.multiply(2.0 * gamma, x, out=x)
    if held is not None:
        # their times may lie anywhere past T - truncation
        x[held] = 1.0
    # one pass each, and both pass over NaN, as comparisons do
    if np.fmin.reduce(x, initial=math.inf) <= 0.0:
        raise ProfileSingularityError(
            "closed-form coupling profile diverges at t = T; apply a truncation"
        )
    big = None
    if np.fmax.reduce(x, initial=-math.inf) > 700.0:
        # beyond x = 700 expm1 would overflow; the value has long underflowed
        big = np.flatnonzero(x > 700.0)
        tail = gamma * _elementwise(math.exp, -x[big])
        np.minimum(x, 700.0, out=x)
    np.divide(gamma, _elementwise(math.expm1, x, work), out=x)
    if big is not None:
        x[big] = tail


def profile_values(c: CouplingProfile, p: SystemParams, ts: Times,
                   out: Optional[np.ndarray] = None,
                   work: Optional[np.ndarray] = None) -> Times:
    """Evaluate the coupling rate gamma1 at a time or at every time in ``ts``.

    A constant profile returns its rate.  The closed-form optimum returns
    its hold value ``gamma1_max`` inside the truncation window
    ``[T - truncation, T]`` and elsewhere is evaluated elementwise with
    ``math.expm1`` (raising :class:`ProfileSingularityError` at ``t >= T``
    when untruncated).  A sampled profile returns the value at the left
    node of the enclosing cell, snapping times within 1e-9 of a cell width
    below a node onto that node.  A float in gives a float out, an array
    gives an array of its shape; element by element the result is
    independent of the other times in the array.

    ``out``, a C-contiguous float array of ``ts``'s shape, receives the
    values and is returned; ``work``, a float array of ``ts``'s size, is
    the scratch of the closed form and the sampled lookup.  Neither may
    overlap ``ts`` or the other; each is a fresh array when None.
    """
    if out is None:
        out = np.empty(np.shape(ts))
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    t = np.asarray(ts, dtype=float).reshape(-1)
    o = out.reshape(-1)
    w = np.empty(t.size) if work is None else work.reshape(-1)
    T = p.transfer_time
    if c.kind is ProfileKind.CONSTANT:
        o.fill(c.gamma1)
    elif c.kind is ProfileKind.OPTIMAL_CLOSED_FORM:
        np.subtract(T, t, out=o)
        held = None
        if c.truncation is not None:
            # NaN times are not held
            held = np.flatnonzero(t >= T - c.truncation)
        _optimal_closed_form(p.gamma, o, held, w)
        if held is not None:
            o[held] = c.gamma1_max
    else:
        # SAMPLED_GRID: left-endpoint lookup with node snapping
        grid = c.grid
        assert grid is not None and c.values is not None
        s = np.divide(t, grid.dt, out=w)
        j = np.floor(s, out=o)
        np.subtract(s, j, out=s)
        # within float fuzz of the next node
        np.add(j, 1.0, out=j, where=s > 1.0 - 1e-9)
        np.clip(j, 0, grid.n_nodes - 1, out=j)
        index = s.view(np.intp)
        np.copyto(index, j, casting="unsafe")
        np.take(c.values, index, out=o)
    return _shaped(ts, out)


@dataclass
class TransferState:
    """Result of integrating the cascade's coefficient equations.

    The receiving oscillator's annihilation operator is expanded as::

        a2(t) = a21(t) a1(0) + a22(t) a2(0) + noise-kernel terms

    so ``a21`` is the state-independent transfer amplitude; there is no
    initial-state input anywhere by construction.

    With kernel tracking enabled, ``deficits`` holds ``(d1, d2)``, the
    deficits of the two commutator sum rules on every grid node (defined in
    :mod:`oscxfer.simulate`); without it, ``deficits`` is ``None``.
    """

    params: SystemParams
    grid: TimeGrid
    a11: np.ndarray
    a21: np.ndarray
    a22: np.ndarray
    deficits: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def fidelity(self) -> float:
        """Transfer amplitude at the end of the protocol, a21(T)."""
        return float(self.a21[-1])
