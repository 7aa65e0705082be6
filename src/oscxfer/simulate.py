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
step is a lower-triangular 2x2 map (mxx, myx, myy); the map is built by
propagating basis vectors through the Runge-Kutta stages.  The maps are
built as arrays, one block of about 8k macro steps at a time, so
temporaries stay O(block): the profile is evaluated at every stage time of
the block at once, and the stage formulas run elementwise in the order a
single step would use, so the arrays hold the bits of a step-by-step loop.
Then A11 and A22 are running products (``np.cumprod``, which multiplies in
step order), and A21, the first-order recurrence
A21 <- myx*A11 + myy*A21, is folded in step order by one tight scalar loop;
an associative scan would regroup the products and change the last bits.

Steps are halved adaptively whenever ``(g1 + gl) * h`` exceeds
:data:`~oscxfer.types.DAMPING_CAP_FACTOR`, which keeps the integrator
accurate through the near-singular tail of truncated optimal profiles.  The
few stiff steps get their 2**k substeps evaluated in bounded blocks and
folded, in substep order, into one map each.  A failure is reported at the
earliest failing step: a step that 26 halvings cannot make stable, or the
first non-finite coefficient.

A column born at t_j reaches t_i through the maps of steps j..i-1, so with
kernel tracking the integrator keeps only those maps and the k1 births
(O(n) memory, 32 bytes per step): any kernel row is rebuilt on demand by
:meth:`~oscxfer.types.TransferState.kernel_row`, and
:func:`commutator_check` sums the rows' norms without forming them.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .types import (
    DAMPING_CAP_FACTOR,
    CouplingProfile,
    ProfileKind,
    SystemParams,
    TimeGrid,
    TransferState,
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
_BLOCK = 8192  # macro steps, or substeps, evaluated as one array


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


def _rk4_maps(a0, am, a1, beta: float, root: float, gl: float, h):
    """RK4 steps of x' = -(g1+gl) x, y' = -beta y + root*sqrt(g1) x.

    ``a0``, ``am`` and ``a1`` hold g1 at each step's start, middle and end
    stage; ``h`` is the step width, a scalar or one per step.  Returns the
    lower-triangular maps (mxx, myx, myy) with x_new = mxx*x and
    y_new = myx*x + myy*y.  ``root`` carries the constant factor
    2*sqrt(eta*g), so the cross term is root*sqrt(g1(t)).
    """
    s0 = root * np.sqrt(a0)
    sm = root * np.sqrt(am)
    s1 = root * np.sqrt(a1)
    a0 = a0 + gl
    am = am + gl
    a1 = a1 + gl

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
    return mxx, myx, np.broadcast_to(myy, np.shape(mxx))


def _heun_maps(a0, am, a1, beta: float, root: float, gl: float, h):
    """Heun (explicit trapezoid) steps of the same pair; see _rk4_maps.

    The midpoint stage ``am`` is not used.
    """
    s0 = root * np.sqrt(a0)
    s1 = root * np.sqrt(a1)
    a0 = a0 + gl
    a1 = a1 + gl

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
    return mxx, myx, np.broadcast_to(myy, np.shape(mxx))


def _halvings(rate: np.ndarray, dt: float) -> np.ndarray:
    """Per step, how often dt is halved so that ``rate * h <= cap``.

    A count above ``_MAX_HALVINGS`` marks a step too stiff to substep.
    """
    k = np.zeros(rate.shape, dtype=np.intp)
    h = np.full(rate.shape, dt)
    todo = rate * h > DAMPING_CAP_FACTOR
    while todo.any():
        k[todo] += 1
        h[todo] = dt / 2.0 ** k[todo]
        todo &= (rate * h > DAMPING_CAP_FACTOR) & (k <= _MAX_HALVINGS)
    return k


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
    step_maps_of = _rk4_maps if cfg.method is Method.RK4 else _heun_maps

    # For a sampled profile whose grid the integrator grid refines exactly,
    # resolve each macro step's cell by index: time-based lookups cannot
    # distinguish "end of this cell" from "start of the next" at every
    # grid scale, and one wrong stage value per cell costs an order of
    # accuracy.
    cells = None
    if c.kind is ProfileKind.SAMPLED_GRID and c.grid is not None:
        pg = c.grid
        if (pg.n_steps <= n and n % pg.n_steps == 0
                and math.isclose(pg.t_end, grid.t_end, rel_tol=1e-12)):
            cells, ratio = np.asarray(c.values, dtype=float), n // pg.n_steps

    def stages(i: np.ndarray, t: np.ndarray, h):
        """g1 at the start, middle and end stage of (sub)steps of macro
        steps ``i`` that start at times ``t`` and are ``h`` wide."""
        if cells is not None:
            g_cell = cells[i // ratio]
            return g_cell, g_cell, g_cell
        # the end stage stays inside the cell being integrated: a step
        # ending exactly on a sampled-profile cell boundary must not read
        # the next cell's value
        return (profile_values(c, p, t), profile_values(c, p, t + 0.5 * h),
                profile_values(c, p, t + h * (1.0 - 1e-8)))

    def substep_maps(steps: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Maps of macro ``steps``, halved ``k`` times each: the in-order
        fold of each step's 2**k substeps, evaluated _BLOCK at a time."""
        m = 2 ** k
        ends = np.cumsum(m)
        folded = np.empty((3, steps.size))
        x, y, z = 1.0, 0.0, 1.0
        for lo in range(0, int(ends[-1]), _BLOCK):
            q = np.arange(lo, min(lo + _BLOCK, int(ends[-1])))
            j = np.searchsorted(ends, q, side="right")
            sub = q - (ends[j] - m[j])
            h = dt / m[j]
            maps = step_maps_of(*stages(steps[j], steps[j] * dt + sub * h, h),
                                beta, root, gl, h)
            cuts = np.flatnonzero(np.diff(j)) + 1
            for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), q.size]):
                if sub[a] == 0:
                    x, y, z = 1.0, 0.0, 1.0
                for pxx, pyx, pyy in zip(*(memoryview(mp[a:b]) for mp in maps)):
                    y = pyx * x + pyy * y
                    x = pxx * x
                    z = pyy * z
                folded[:, j[a]] = x, y, z
        return folded

    a11 = np.empty(n + 1)
    a21 = np.empty(n + 1)
    a22 = np.empty(n + 1)
    a11[0], a21[0], a22[0] = 1.0, 0.0, 1.0

    track = cfg.kernel_tracking
    step_maps = np.empty((3, n)) if track else None

    with np.errstate(all="ignore"):
        for lo in range(0, n, _BLOCK):
            i = np.arange(lo, min(lo + _BLOCK, n))
            g0, gm, g1 = stages(i, i * dt, dt)
            # the stiffest stage sets the substep, as max(g0, gm, g1) would
            g_peak = np.where(gm > g0, gm, g0)
            g_peak = np.where(g1 > g_peak, g1, g_peak)
            k = _halvings(g_peak + gl, dt)
            too_stiff = np.flatnonzero(k > _MAX_HALVINGS)
            if too_stiff.size:
                cut = too_stiff[0]
                i, g0, gm, g1, k = (v[:cut] for v in (i, g0, gm, g1, k))
            hi = lo + i.size

            pxx, pyx, pyy = step_maps_of(g0, gm, g1, beta, root, gl, dt)
            # one substep folded into the identity map
            mxx, myx, myy = pxx * 1.0, pyx * 1.0 + pyy * 0.0, pyy * 1.0
            stiff = np.flatnonzero(k)
            if stiff.size:
                mxx[stiff], myx[stiff], myy[stiff] = substep_maps(i[stiff],
                                                                  k[stiff])

            # A11 and A22 are running products; A21 = myx*A11 + myy*A21 is
            # folded in step order, as the products it builds on
            np.cumprod(np.concatenate((a11[lo:lo + 1], mxx)), out=a11[lo:hi + 1])
            np.cumprod(np.concatenate((a22[lo:lo + 1], myy)), out=a22[lo:hi + 1])
            y = float(a21[lo])
            fold = []
            for b, a in zip(memoryview(myx * a11[lo:hi]), memoryview(myy)):
                y = b + a * y
                fold.append(y)
            a21[lo + 1:hi + 1] = fold
            if track:
                step_maps[:, lo:hi] = mxx, myx, myy

            ok = (np.isfinite(a11[lo + 1:hi + 1]) & np.isfinite(a21[lo + 1:hi + 1])
                  & np.isfinite(a22[lo + 1:hi + 1]))
            if not ok.all():
                raise IntegrationError("non-finite transfer coefficient",
                                       lo + int(np.argmin(ok)))
            if too_stiff.size:
                raise IntegrationError("profile too stiff to substep", hi)

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
