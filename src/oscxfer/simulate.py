"""Fixed-step integrator for the cascade's coefficient equations.

The rotating-frame Heisenberg equations of the cascade reduce to real linear
ODEs for the transfer coefficients

    a11' = -(g1(t) + gl) a11
    a21' = -(g + gl) a21 + 2 sqrt(eta g g1(t)) a11
    a22' = -(g + gl) a22

with g the receiver coupling, g1(t) the sender's control profile, gl the
parasitic damping and eta the line transmission (lossless: eta = 1, gl = 0).
Noise kernels obey the same pair of equations column by column, each column
born on the diagonal with the white-noise source strength of its channel:

    k1(t, t)  = sqrt(2 g1(t))      line input into oscillator 1
    k2(t, t)  = -sqrt(2 g eta)     line input into oscillator 2
    kl1(t, t) = sqrt(2 gl)         oscillator-1 loss port
    kl2(t, t) = sqrt(2 gl)         oscillator-2 loss port
    kv2(t, t) = sqrt(2 g (1-eta))  beam-splitter port carrying discarded flux
    kl12(t, t) = 0                 oscillator-1 loss forwarded down the line

Because every equation is linear with scalar coefficients, one integrator
step is a lower-triangular 2x2 map; the map is built once per substep by
propagating basis vectors through the Runge-Kutta stages, and the substeps
of a macro step fold into one map.  A column born at t_j reaches t_i through
the maps of steps j..i-1, so with kernel tracking the integrator keeps only
those maps and the k1 births (O(n) memory, 32 bytes per step): any kernel
row is rebuilt on demand by :meth:`~oscxfer.types.TransferState.kernel_row`,
and :func:`commutator_check` sums the rows' norms without forming them.

Steps are halved adaptively whenever ``g1 * h`` exceeds
:data:`~oscxfer.types.DAMPING_CAP_FACTOR`, which keeps the integrator
accurate through the near-singular tail of truncated optimal profiles.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .types import (
    DAMPING_CAP_FACTOR,
    CouplingProfile,
    ProfileKind,
    SystemParams,
    TimeGrid,
    TransferState,
    profile_value,
    profile_values,
)

__all__ = [
    "Method",
    "IntegratorConfig",
    "IntegrationError",
    "integrate_transfer",
    "integrate_transfer_lossy",
    "commutator_check",
]

_MAX_HALVINGS = 26


class Method(enum.Enum):
    RK4 = "rk4"
    HEUN = "heun"


class IntegrationError(RuntimeError):
    """Numerical failure (NaN/overflow) during integration.

    Carries the macro step index at which the failure was detected.
    """

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (at step {step})")
        self.reason = message
        self.step = step

    def __reduce__(self):
        # the default rebuilds from ``args`` (the formatted text alone), which
        # does not match __init__; sweep workers send this error across
        # processes, so it has to unpickle intact
        return (type(self), (self.reason, self.step))


@dataclass(frozen=True)
class IntegratorConfig:
    method: Method = Method.RK4
    n_steps: int = 10_000
    kernel_tracking: bool = False  # records step maps: O(n_steps) memory, 32 B/step

    def __post_init__(self) -> None:
        if self.n_steps < 10:
            raise ValueError("n_steps must be at least 10")
        if not isinstance(self.method, Method):
            raise ValueError(f"unknown method: {self.method!r}")


def _rk4_map(g1_at: Callable[[float], float], beta: float, root: float,
             gl: float, t: float, h: float) -> tuple[float, float, float]:
    """One RK4 step of x' = -(g1+gl) x, y' = -beta y + root*sqrt(g1) x.

    Returns the lower-triangular map (mxx, myx, myy) with
    x_new = mxx*x, y_new = myx*x + myy*y.  ``root`` carries the constant
    factor 2*sqrt(eta*g) so the cross term is root*sqrt(g1(t)).
    """
    a0 = g1_at(t)
    am = g1_at(t + 0.5 * h)
    # the end-of-step stage stays inside the cell being integrated: a step
    # ending exactly on a sampled-profile cell boundary must not read the
    # next cell's value
    a1 = g1_at(t + h * (1.0 - 1e-8))
    s0 = root * math.sqrt(a0)
    sm = root * math.sqrt(am)
    s1 = root * math.sqrt(a1)
    a0 += gl
    am += gl
    a1 += gl

    # basis (x=1, y=0)
    kx1 = -a0
    ky1 = s0
    x2 = 1.0 + 0.5 * h * kx1
    y2 = 0.5 * h * ky1
    kx2 = -am * x2
    ky2 = -beta * y2 + sm * x2
    x3 = 1.0 + 0.5 * h * kx2
    y3 = 0.5 * h * ky2
    kx3 = -am * x3
    ky3 = -beta * y3 + sm * x3
    x4 = 1.0 + h * kx3
    y4 = h * ky3
    kx4 = -a1 * x4
    ky4 = -beta * y4 + s1 * x4
    mxx = 1.0 + h / 6.0 * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4)
    myx = h / 6.0 * (ky1 + 2.0 * ky2 + 2.0 * ky3 + ky4)

    # basis (x=0, y=1): x stays 0, y is pure decay
    ky1 = -beta
    ky2 = -beta * (1.0 + 0.5 * h * ky1)
    ky3 = -beta * (1.0 + 0.5 * h * ky2)
    ky4 = -beta * (1.0 + h * ky3)
    myy = 1.0 + h / 6.0 * (ky1 + 2.0 * ky2 + 2.0 * ky3 + ky4)
    return mxx, myx, myy


def _heun_map(g1_at: Callable[[float], float], beta: float, root: float,
              gl: float, t: float, h: float) -> tuple[float, float, float]:
    """One Heun (explicit trapezoid) step of the same pair; see _rk4_map."""
    a0 = g1_at(t)
    a1 = g1_at(t + h * (1.0 - 1e-8))  # stay inside the cell; see _rk4_map
    s0 = root * math.sqrt(a0)
    s1 = root * math.sqrt(a1)
    a0 += gl
    a1 += gl

    kx1 = -a0
    ky1 = s0
    xp = 1.0 + h * kx1
    yp = h * ky1
    kx2 = -a1 * xp
    ky2 = -beta * yp + s1 * xp
    mxx = 1.0 + 0.5 * h * (kx1 + kx2)
    myx = 0.5 * h * (ky1 + ky2)

    ky1 = -beta
    ky2 = -beta * (1.0 + h * ky1)
    myy = 1.0 + 0.5 * h * (ky1 + ky2)
    return mxx, myx, myy


def _integrate(c: CouplingProfile, p: SystemParams, cfg: IntegratorConfig,
               eta: float, gamma_loss: float) -> TransferState:
    grid = TimeGrid(p.transfer_time, cfg.n_steps)
    if c.kind is ProfileKind.OPTIMAL_CLOSED_FORM and c.truncation is None:
        raise ValueError(
            "the closed-form optimal profile must be truncated before "
            "integration (it diverges at t = T)"
        )
    n = cfg.n_steps
    dt = grid.dt
    g = p.gamma
    gl = gamma_loss
    beta = g + gl
    root = 2.0 * math.sqrt(eta * g)
    step_map = _rk4_map if cfg.method is Method.RK4 else _heun_map

    def g1_at(t: float) -> float:
        return profile_value(c, p, t)

    # For a sampled profile whose grid the integrator grid refines exactly,
    # resolve each macro step's cell by index: time-based lookups cannot
    # distinguish "end of this cell" from "start of the next" at every
    # grid scale, and one wrong stage value per cell costs an order of
    # accuracy.
    cells_direct = None
    if c.kind is ProfileKind.SAMPLED_GRID and c.grid is not None:
        pg = c.grid
        if (pg.n_steps <= n and n % pg.n_steps == 0
                and math.isclose(pg.t_end, grid.t_end, rel_tol=1e-12)):
            cells_direct = (np.asarray(c.values, dtype=float),
                            n // pg.n_steps)

    a11 = np.empty(n + 1)
    a21 = np.empty(n + 1)
    a22 = np.empty(n + 1)
    a11[0], a21[0], a22[0] = 1.0, 0.0, 1.0

    track = cfg.kernel_tracking
    step_maps = np.empty((3, n)) if track else None

    A11, A21, A22 = 1.0, 0.0, 1.0
    for i in range(n):
        t0 = i * dt

        if cells_direct is not None:
            vals, ratio = cells_direct
            g_cell = float(vals[i // ratio])
            g1_step = lambda tau, _v=g_cell: _v  # noqa: E731
            g_peak = g_cell
        else:
            g1_step = g1_at
            # right-endpoint query clamped inside the step (see _rk4_map)
            g_peak = max(g1_at(t0), g1_at(t0 + 0.5 * dt),
                         g1_at(t0 + dt * (1.0 - 1e-8)))

        # choose substep so the stiffest stage satisfies g1*h <= cap
        m = 1
        h = dt
        halvings = 0
        while (g_peak + gl) * h > DAMPING_CAP_FACTOR:
            m *= 2
            h = dt / m
            halvings += 1
            if halvings > _MAX_HALVINGS:
                raise IntegrationError("profile too stiff to substep", i)

        # accumulate the step map across substeps
        mxx, myx, myy = 1.0, 0.0, 1.0
        for sub in range(m):
            pxx, pyx, pyy = step_map(g1_step, beta, root, gl, t0 + sub * h, h)
            myx = pyx * mxx + pyy * myx
            mxx = pxx * mxx
            myy = pyy * myy

        A21 = myx * A11 + myy * A21
        A11 = mxx * A11
        A22 = myy * A22
        if not (math.isfinite(A11) and math.isfinite(A21) and math.isfinite(A22)):
            raise IntegrationError("non-finite transfer coefficient", i)
        a11[i + 1], a21[i + 1], a22[i + 1] = A11, A21, A22
        if track:
            step_maps[:, i] = mxx, myx, myy

    state = TransferState(params=p, grid=grid, a11=a11, a21=a21, a22=a22)
    if track:
        state.step_maps = step_maps
        state.k1_births = np.sqrt(2.0 * profile_values(c, p, grid.nodes()))
        state.channel_births = (-math.sqrt(2.0 * g * eta),
                                math.sqrt(2.0 * gl),
                                math.sqrt(2.0 * g * (1.0 - eta)))
    return state


def integrate_transfer(c: CouplingProfile, p: SystemParams,
                       cfg: IntegratorConfig) -> TransferState:
    """Integrate the lossless cascade (eta = 1, no parasitic damping).

    Returns the transfer coefficients on the grid; ``a21(T)`` is the
    achieved transfer amplitude.  Enable ``cfg.kernel_tracking`` to also
    record the noise kernels' generators needed by :func:`commutator_check`
    and :meth:`~oscxfer.types.TransferState.kernel_row`.
    """
    return _integrate(c, p, cfg, eta=1.0, gamma_loss=0.0)


def integrate_transfer_lossy(c: CouplingProfile, p: SystemParams,
                             cfg: IntegratorConfig) -> TransferState:
    """Integrate the cascade with line transmission and parasitic damping.

    Uses ``p.eta`` and ``p.gamma_loss``; with ``eta = 1`` and
    ``gamma_loss = 0`` the arithmetic is identical to
    :func:`integrate_transfer` (the loss channels' births are all zero).
    """
    return _integrate(c, p, cfg, eta=p.eta, gamma_loss=p.gamma_loss)


def commutator_check(s: TransferState) -> tuple[np.ndarray, np.ndarray]:
    """Per-time deficits of the commutator sum rules.

    Returns ``(d1, d2)`` with

        d1(t) = 1 - [a11^2 + sum_j k1(t,t_j)^2 dt (+ loss channels)]
        d2(t) = 1 - [a21^2 + a22^2 + sum_j k2(t,t_j)^2 dt (+ loss channels)]

    Kernel norms use trapezoid weights (half weight on the first node and on
    the diagonal), which keeps the bias at O(dt^2); the deficit magnitude is
    the end-to-end unitarity error of the run.  Requires kernel tracking.

    Every channel is a column (x, y) moved by the same step maps, so the
    weighted row norms only need the columns' summed second moments
    (xx, xy, yy).  They are propagated step by step, with each node's births
    added after the step; the column born at t_0 enters at half weight, and
    the diagonal's half weight is taken off at the end.  Nothing here is a
    ratio of accumulated maps, so the sums stay finite at any gamma*T.
    """
    if s.step_maps is None:
        raise ValueError("commutator_check needs a state integrated with "
                         "kernel_tracking enabled")
    # second moments of one node's births, summed over the channels; only
    # the k1 birth varies in time
    b1 = s.k1_births
    b2, bl, bv = s.channel_births
    bxx = b1 * b1 + bl * bl
    bxy = b1 * b2
    byy = b2 * b2 + bl * bl + bv * bv

    sxx, sxy, syy = 0.5 * float(bxx[0]), 0.5 * float(bxy[0]), 0.5 * byy
    norm_x, norm_y = array("d", [sxx]), array("d", [syy])
    # memoryviews hand out one float at a time, so no per-step list is built
    for a, b, c, pxx, pxy in zip(*map(memoryview, s.step_maps),
                                 memoryview(bxx[1:]), memoryview(bxy[1:])):
        sxx, sxy, syy = (a * a * sxx + pxx,
                         a * (b * sxx + c * sxy) + pxy,
                         b * b * sxx + 2.0 * b * c * sxy + c * c * syy + byy)
        norm_x.append(sxx)
        norm_y.append(syy)

    dt = s.grid.dt
    d1 = 1.0 - (s.a11 ** 2 + dt * (np.frombuffer(norm_x) - 0.5 * bxx))
    d2 = 1.0 - (s.a21 ** 2 + s.a22 ** 2
                + dt * (np.frombuffer(norm_y) - 0.5 * byy))
    return d1, d2
