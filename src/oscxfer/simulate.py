"""Fixed-step integrator for the cascade's coefficient equations.

The rotating-frame Heisenberg equations of the cascade reduce to real linear
ODEs for the transfer coefficients

    a11' = -(g1(t) + gl) a11
    a21' = -(g + gl) a21 + 2 sqrt(eta g g1(t)) a11
    a22' = -(g + gl) a22

with g the receiver coupling, g1(t) the sender's control profile, gl the
parasitic damping and eta the line transmission.  :func:`integrate_transfer`
reads eta and gl from the system parameters; lossless transfer is not a
separate path but the case eta = 1, gl = 0.
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
propagating basis vectors through the four stages of classical RK4, the
one step map.  The maps are built as arrays, one block of about 8k macro
steps at a time, so temporaries stay O(block): the profile is evaluated at
every stage time of the block at once, and the stage formulas run
elementwise in the order a single step would use, so the arrays hold the
bits of a step-by-step loop.  Then A11 and A22 are running products
(``np.cumprod``, which multiplies in step order), and A21, the first-order
recurrence A21 <- myx*A11 + myy*A21, is folded in step order by one tight
scalar loop; an associative scan would regroup the products and change the
last bits.

The receiver's rate is constant, so halving steps on it would only be a
larger grid done badly: a grid whose (g + gl) * dt exceeds RK4's real-axis
stability edge 2.785 (Hairer & Wanner, *Solving ODEs II*, IV.2) is refused
at step 0, before any work, with the smallest step count that resolves it.

Steps are halved adaptively whenever ``(g1 + gl) * h`` exceeds
:data:`~oscxfer.types.DAMPING_CAP_FACTOR`, which keeps the integrator
accurate through the near-singular tail of truncated optimal profiles.  The
few stiff steps get their 2**k substeps evaluated in bounded blocks and
folded, in substep order, into one map each.  A failure is reported at the
earliest failing step: a step that 26 halvings cannot make stable, or the
first non-finite coefficient.  A run whose stiff steps would need more than
2**22 substeps in all is refused (``ValueError``) before their substeps run;
steps past 26 halvings, which fail anyway, are not counted.

A column born at t_j reaches t_i through the maps of steps j..i-1, and
every channel's column moves by the same maps, so the commutator sum rules

    d1(t) = 1 - [a11^2 + sum_j k1(t,t_j)^2 dt (+ loss channels)]
    d2(t) = 1 - [a21^2 + a22^2 + sum_j k2(t,t_j)^2 dt (+ loss channels)]

need only the columns' summed second moments (xx, xy, yy).  With kernel
tracking the integrator carries them through each block, step by step,
and keeps only d1 and d2 (16 bytes per step).  The k1 birth at t_j takes
g1 from step j's start stage, the same time j*dt and the same cell.
Trapezoid weights (half on the first node and on the diagonal) keep the
bias at O(dt^2); no ratio of accumulated maps appears, so the sums stay
finite at any gamma*T.
"""

from __future__ import annotations

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
    "IntegratorConfig",
    "IntegrationError",
    "STABILITY_EDGE",
    "integrate_transfer",
]

_MAX_HALVINGS = 26
# substeps a run's stiff steps may take in all, about 3 s of work on a
# 2-vCPU x86-64 VM; past it the run is refused before their substeps run
_MAX_SUBSTEPS = 2**22
_BLOCK = 8192  # macro steps, or substeps, evaluated as one array


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


# largest (g + gl) * dt for which RK4's decay map y' = -(g + gl) y is stable
# on the real axis
STABILITY_EDGE = 2.785


@dataclass(frozen=True)
class IntegratorConfig:
    n_steps: int = 10_000
    kernel_tracking: bool = False  # commutator deficits: 16 B per step

    def __post_init__(self) -> None:
        if self.n_steps < 10:
            raise ValueError("n_steps must be at least 10")


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


def _moment_sums(maps, bxx, bxy, byy: float, s: tuple[float, float, float]):
    """Summed second moments (xx, xy, yy) of the kernel columns, from ``s``
    on: each step moves them by its map and adds its end node's births
    (``bxx`` and ``bxy`` per step, ``byy`` constant).  Returns the xx and yy
    sums after each step and the last (xx, xy, yy)."""
    sxx, sxy, syy = s
    norm_x, norm_y = array("d"), array("d")
    # memoryviews hand out one float at a time, so no per-step list is built
    for a, b, c, pxx, pxy in zip(*map(memoryview, (*maps, bxx, bxy))):
        sxx, sxy, syy = (a * a * sxx + pxx,
                         a * (b * sxx + c * sxy) + pxy,
                         b * b * sxx + 2.0 * b * c * sxy + c * c * syy + byy)
        norm_x.append(sxx)
        norm_y.append(syy)
    return np.frombuffer(norm_x), np.frombuffer(norm_y), (sxx, sxy, syy)


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


def integrate_transfer(c: CouplingProfile, p: SystemParams,
                       cfg: IntegratorConfig) -> TransferState:
    """Integrate the cascade with line transmission ``p.eta`` and parasitic
    damping ``p.gamma_loss``.

    There is one path for every run: the lossless cascade is the case
    eta = 1, gamma_loss = 0, whose loss births are all zero.

    Returns the transfer coefficients on the grid; ``a21(T)`` is the
    achieved transfer amplitude.  Enable ``cfg.kernel_tracking`` to also
    get the commutator sum rules' deficits on the grid, as
    ``state.deficits``.
    """
    grid = TimeGrid(p.transfer_time, cfg.n_steps)
    if c.kind is ProfileKind.OPTIMAL_CLOSED_FORM and c.truncation is None:
        raise ValueError(
            "the closed-form optimal profile must be truncated before "
            "integration (it diverges at t = T)"
        )
    n = cfg.n_steps
    dt = grid.dt
    g, gl, eta = p.gamma, p.gamma_loss, p.eta
    beta = g + gl
    root = 2.0 * math.sqrt(eta * g)
    if beta * dt > STABILITY_EDGE:
        need = beta * grid.t_end / STABILITY_EDGE
        if math.isfinite(need):
            n_min = math.ceil(need)
            # dt = T / n_min can round up past the edge
            n_min += beta * (grid.t_end / n_min) > STABILITY_EDGE
            hint = f"the grid needs at least {n_min} steps"
        else:
            hint = "the grid would need more than 1e308 steps"
        raise IntegrationError(
            f"receiver too stiff for the grid: (gamma + gamma_loss)*dt = "
            f"{beta * dt:.6g} exceeds the rk4 stability edge "
            f"{STABILITY_EDGE:g}; {hint}", 0)

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
        times = (t, t + 0.5 * h, t + h * (1.0 - 1e-8))
        return tuple(profile_values(c, p, s) for s in times)

    def halved_maps(steps: np.ndarray, k: np.ndarray) -> np.ndarray:
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
            maps = _rk4_maps(*stages(steps[j], steps[j] * dt + sub * h, h),
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
    if track:
        # constant births of k2, of the loss ports and of the beam-splitter
        # port; only the k1 birth sqrt(2 g1) varies in time
        b2, bl = -math.sqrt(2.0 * g * eta), math.sqrt(2.0 * gl)
        bv = math.sqrt(2.0 * g * (1.0 - eta))
        byy = b2 * b2 + bl * bl + bv * bv
        d1, d2 = np.empty(n + 1), np.empty(n + 1)

        def births(g_nodes: np.ndarray):  # their (xx, xy), summed over channels
            b1 = np.sqrt(2.0 * g_nodes)
            return b1 * b1 + bl * bl, b1 * b2

        def deficits(at: slice, norm_x, norm_y, bxx) -> None:
            # the diagonal's half weight is taken off
            d1[at] = 1.0 - (a11[at] ** 2 + dt * (norm_x - 0.5 * bxx))
            d2[at] = 1.0 - (a21[at] ** 2 + a22[at] ** 2
                            + dt * (norm_y - 0.5 * byy))

        # the column born at t_0 enters at half weight
        bxx, bxy = births(profile_values(c, p, np.zeros(1)))
        sums = 0.5 * float(bxx[0]), 0.5 * float(bxy[0]), 0.5 * byy
        deficits(slice(0, 1), np.array([sums[0]]), np.array([sums[2]]), bxx)

    substeps, first_stiff = 0, None
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

            pxx, pyx, pyy = _rk4_maps(g0, gm, g1, beta, root, gl, dt)
            # one substep folded into the identity map
            mxx, myx, myy = pxx * 1.0, pyx * 1.0 + pyy * 0.0, pyy * 1.0
            stiff = np.flatnonzero(k)
            if stiff.size:
                substeps += int(np.sum(2 ** k[stiff]))
                if first_stiff is None:
                    first_stiff = lo + int(stiff[0])
                if substeps > _MAX_SUBSTEPS:
                    raise ValueError(
                        f"profile needs {substeps} substeps, more than the "
                        f"bound {_MAX_SUBSTEPS} (2**22); its first stiff "
                        f"step is {first_stiff}")
                mxx[stiff], myx[stiff], myy[stiff] = halved_maps(i[stiff],
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

            ok = (np.isfinite(a11[lo + 1:hi + 1]) & np.isfinite(a21[lo + 1:hi + 1])
                  & np.isfinite(a22[lo + 1:hi + 1]))
            if not ok.all():
                raise IntegrationError("non-finite transfer coefficient",
                                       lo + int(np.argmin(ok)))
            if too_stiff.size:
                raise IntegrationError("profile too stiff to substep", hi)

            if track:
                # node j's rate is step j's start stage g0; the block's last
                # node starts the next block, so it is looked up here
                bxx, bxy = births(np.append(g0[1:],
                                            profile_values(c, p, hi * dt)))
                norm_x, norm_y, sums = _moment_sums((mxx, myx, myy), bxx, bxy,
                                                    byy, sums)
                deficits(slice(lo + 1, hi + 1), norm_x, norm_y, bxx)

    return TransferState(params=p, grid=grid, a11=a11, a21=a21, a22=a22,
                         deficits=(d1, d2) if track else None)

