"""Variational optimization of the sender's coupling profile.

The end-of-protocol transfer amplitude is the functional

    F[g1] = 2 sqrt(gamma) * integral_0^T exp(-gamma (T - t)) sqrt(g1(t)) exp(-G(t)) dt,
    G(t) = integral_0^t g1,

discretized with the same left-rectangle / piecewise-constant-cell convention
the simulator uses, so a profile's functional value and its simulated
transfer amplitude agree up to quadrature order.  On the grid,

    F = 2 sqrt(gamma) dt * sum_j E_j exp(-G_j) sqrt(g_j) phi((gamma - g_j) dt),

with E_j = exp(-gamma (T - t_j)) and G_j = dt * sum_{k<j} g_k.  The factor
exp(-G_j) multiplies every later term, so the best value of the tail from
cell j on is linear in it, and the discrete optimum over the box
0 <= g_j <= gamma1_max follows exactly from Bellman's backward recursion:
one sweep from the last cell to the first, one box-bounded 1-D maximization
per cell, in u = sqrt(g).  Each cell searches u in [0, sqrt(min(gamma1_max,
gamma + 700/dt))]: past that bound the stage slope is negative, so a larger
cap changes nothing but the search (see :func:`optimize_profile`).  The
optimum's certificate is its KKT residual, the first-order condition of
this discrete problem (:class:`OptimizerResult`).

Line transmission eta and parasitic damping gamma_loss scale the amplitude
of every profile by sqrt(eta) exp(-gamma_loss T) (substitute a ->
exp(-gamma_loss t) a), so they leave the optimum where it is: the sweep
maximizes the lossless functional, and :func:`functional_value` and
:func:`functional_gradient` carry the factor.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .types import (CouplingProfile, SystemParams, TimeGrid, _elementwise,
                    _loss_factor, _phi, profile_values)

__all__ = [
    "OptimizerResult",
    "functional_value",
    "functional_gradient",
    "optimize_profile",
    "SWEEP_BLOCK",
]

# Cells per block of the backward sweep, aligned from cell 0: a caller's
# hand_over gets each block's maximizers as soon as the sweep finishes it.
SWEEP_BLOCK = 1024

# A cell's root solve stops once the Newton step is below this fraction of u;
# the stage value is flat to second order there, so the last step's error
# costs nothing.
_ROOT_RTOL = 1e-12
_MAX_ROOT_EVALS = 200  # bisection alone narrows [0, sqrt(cap)] to round-off


@dataclass(frozen=True)
class OptimizerResult:
    """What the backward sweep did and how stationary its optimum is.

    ``iterations`` counts the stage-derivative evaluations of all cells'
    root solves: 12 668 for gamma = 1, T = 3 on 10 000 cells, about 1.27
    per cell.  ``kkt_residual`` is the max-norm of the projected gradient
    in u = sqrt(gamma1), divided by ``2 sqrt(gamma) dt``.  ``gamma1_max``
    is the cap of the box the sweep searched.
    """

    iterations: int
    kkt_residual: float
    gamma1_max: float


def _cell_values(c: CouplingProfile, p: SystemParams, grid: TimeGrid) -> np.ndarray:
    """Profile values at the left node of each cell (the quadrature samples)."""
    ts = grid.nodes()[:-1]
    return profile_values(c, p, ts)


def _phi_pair(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi(z) = (exp(z) - 1) / z and its derivative phi'(z), in ``z``'s
    shape, from one libm ``expm1`` per element.

    phi is :func:`~oscxfer.types._phi`.  These are the backward sweep's
    formulas and series cut-offs, so each element has the bits of the
    sweep's scalar phi and phi': phi takes its series at |z| < 1e-5 and phi'
    at |z| < 1e-4.  phi' = (exp(z) (z - 1) + 1) / z^2 is written
    1/z + expm1(z) (z - 1) / z^2, whose cancellation costs ~eps/|z| rather
    than ~eps/z^2 and which stays finite wherever expm1(z) is.  As
    ``math.expm1`` does, a z above about 709.78 raises ``OverflowError``.
    """
    phi, m = _phi(z)
    zz = z * z
    # the closed form divides by z, which the series replaces near 0
    with np.errstate(divide="ignore", invalid="ignore"):
        dphi = np.where(np.abs(z) < 1e-4, 0.5 + z / 3.0 + zz / 8.0,
                        1.0 / z + m * ((z - 1.0) / zz))
    return phi, dphi


def functional_value(c: CouplingProfile, p: SystemParams, grid: TimeGrid) -> float:
    """Quadrature of the transfer functional, cell-exact for grid profiles.

    Each cell takes its profile value from the left node and ``G``
    accumulates those same cells, after which the cell's integral has the
    closed form ``left-sample * phi((gamma - g_j) dt)``.  Under the package's
    piecewise-constant profile convention this quadrature is exact, so a
    sampled profile's functional value matches its ODE-integrated transfer
    amplitude a21(T) to integrator precision rather than quadrature order,
    lossy runs included: the value carries the loss factor
    ``sqrt(eta) exp(-gamma_loss T)``, which is exactly 1.0 when lossless.
    """
    cells = _cell_values(c, p, grid)
    expo, z = _weights(cells, p, grid)
    w = expo * np.sqrt(cells) * _phi(z)[0]
    return _loss_factor(p, grid.t_end) * (
        2.0 * math.sqrt(p.gamma) * grid.dt * float(np.sum(w)))


def _weights(cells: np.ndarray, p: SystemParams, grid: TimeGrid):
    dt = grid.dt
    ts = grid.nodes()[:-1]
    big_g = np.concatenate(([0.0], np.cumsum(cells[:-1]) * dt))
    expo = _elementwise(math.exp, -p.gamma * (grid.t_end - ts) - big_g)
    z = (p.gamma - cells) * dt
    return expo, z


def functional_gradient(c: CouplingProfile, p: SystemParams,
                        grid: TimeGrid) -> np.ndarray:
    """Exact gradient of :func:`functional_value` in the profile's node values.

    Computed by reverse accumulation over the quadrature sum; requires
    strictly positive cell values (the derivative of sqrt is singular at
    zero).  The entry for the final node is zero: it lies outside every
    quadrature cell.
    """
    cells = _cell_values(c, p, grid)
    if np.any(cells <= 0):
        raise ValueError("gradient needs strictly positive profile values")
    root = np.sqrt(cells)
    # chain rule through gamma1 = u^2
    return _loss_factor(p, grid.t_end) * np.concatenate(
        (_u_gradient(root, p, grid) / (2.0 * root), [0.0]))


def _u_gradient(u: np.ndarray, p: SystemParams, grid: TimeGrid) -> np.ndarray:
    """Gradient of the functional in the square roots u = sqrt(cells).

    Finite everywhere on the box, u = 0 included.
    """
    dt = grid.dt
    cells = u * u
    expo, z = _weights(cells, p, grid)
    phi, dphi = _phi_pair(z)
    w = expo * u * phi
    # suffix[j] = sum of w over cells strictly after j (reverse accumulation
    # of G's dependence on cell j)
    suffix = np.concatenate((np.cumsum(w[::-1])[-2::-1], [0.0]))
    # direct term: d/du of u*phi((gamma-u^2)dt) at fixed G
    direct = expo * (phi - 2.0 * cells * dphi * dt)
    return 2.0 * math.sqrt(p.gamma) * dt * (direct - 2.0 * dt * u * suffix)


def _projected_gradient_norm(v: np.ndarray, grad: np.ndarray,
                             lo: float, hi: float) -> float:
    pg = grad.copy()
    pg[(v >= hi) & (grad > 0)] = 0.0
    pg[(v <= lo) & (grad < 0)] = 0.0
    return float(np.max(np.abs(pg))) if pg.size else 0.0


def optimize_profile(
    p: SystemParams,
    grid: TimeGrid,
    gamma1_max: Optional[float] = None,
    hand_over: Optional[Callable[[int, np.ndarray], None]] = None,
) -> tuple[CouplingProfile, OptimizerResult]:
    """Exact maximizer of the discrete transfer functional over the box
    ``0 <= gamma1 <= gamma1_max`` on the grid's cells.

    ``gamma1_max`` defaults to ``1 / (2 dt)``, the stiffest coupling the
    grid can resolve.  With V_j the best value of the cells from j on,
    ``V_j = max_g E_j r(g) + exp(-g dt) V_{j+1}`` and ``V_n = 0``.  Dividing
    stage j by V_{j+1} leaves the stage value ``s u phi(a - dt u^2) + c
    exp(-dt u^2)`` to maximize in u = sqrt(g), with a = gamma dt, c = 1 and
    ``s = sigma_j = E_j / V_{j+1}``; its maximum W_j gives ``sigma_{j-1} =
    exp(-gamma dt) sigma_j / W_j``.  The last cell has s = 1, c = 0.  sigma
    only shrinks going backward, so this form stays finite at any gamma*T,
    where V_{j+1} / E_j would overflow.

    The stage slope is ``s (phi - 2 q phi') - 2 dt u c exp(-q)`` with q =
    dt u^2, and it is positive at u = 0.  The search box is ``[0, top]``
    with ``top = sqrt(min(gamma1_max, gamma + 700 / dt))``: past that bound
    z = (gamma - g) dt < -700, where ``phi - 2 q phi'`` is (z - 2 gamma
    dt) / z^2 < 0 up to exp(z) terms below 1e-298, so the slope is negative
    and the maximizer lies inside.  Searching a huge cap's whole box would
    read the slope there from a closed form of phi' that cancels to
    round-off at z ~ -gamma1_max dt.  The default cap is always below the
    bound.

    The stage value is taken to be unimodal, so each cell's maximizer is
    the box end when the slope there is still positive, and otherwise the
    root of the slope, found by Newton steps inside a shrinking sign
    bracket, with bisection whenever a step leaves it.  The maximizer
    decays smoothly going backward (u ~ exp(-gamma (T - t)) in the
    continuum), so the warm start is the cubic extrapolation of log u from
    the next four cells' maximizers u1..u4 (u1 nearest), u1 (r1/r2)^3 r3
    with r_k = u_k / u_(k+1), which needs no log or exp.  Where fewer than
    four cells follow, one of them is 0, or the extrapolation leaves
    (0, top), the start is the next cell's maximizer (top for the last
    cell).  Each Newton step is tested against ``_ROOT_RTOL`` before
    anything else, so a start within round-off of the root costs one
    evaluation; the stage value is flat to second order there, so that
    evaluation's value stands as the cell's maximum.  Otherwise the slope's
    sign at the box end is read only where the slope at the start is
    positive (where it is negative, so is the slope at the box end), and
    the bracket starts as [0, top].  Where s has underflowed to 0 the slope
    is negative on all of (0, top], so the maximizer is 0.  The box end and
    u = 0 are per-run constants, whose phi, phi', exp(-q) and stage value
    are taken once; every exit of a cell sets its maximizer and stage value
    where it decides.  phi and phi' switch to their series where
    :func:`_phi_pair` does; the second slope only steers Newton steps, and
    its closed form cancels like eps/z^2, so its series takes over at
    |z| < 1e-2.

    The sweep is interpreter-bound, so it is one flat loop with the Newton
    evaluation inline.  ``tests/test_optimize_oracle.py`` keeps it as
    functions (``oracle_sweep``, ``warm_start``, ``stage_argmax``,
    ``stage_slopes``) that evaluate the box end in every cell, and pins the
    loop to them bit for bit, and to the former sweep (``former_sweep``,
    started at the next cell's maximizer) up to round-off.  At gamma = 1,
    T = 3 on 10 000 cells it spends 1.27 slope evaluations per cell.

    The cells run in blocks of ``SWEEP_BLOCK`` from cell 0, the last block
    first.  As soon as the sweep finishes a block, starting at cell
    ``start``, it calls ``hand_over(start, u)``, if given, with the block's
    node values u = sqrt(gamma1), a view of the sweep's own array, which no
    later cell writes: the maximizers of its cells, and for the last block
    the last node too, which copies the last cell's.  So a caller can use
    the node values of the late cells while the sweep goes on:
    ``cmd_optimize`` has them formatted into ``profile.csv``, as table
    rows, by a forked child.  Each cell runs the same
    operations, in the same order, with or without ``hand_over``.

    Returns the optimal sampled profile and an :class:`OptimizerResult`.
    Raises ``FloatingPointError`` naming the cell whose stage value is not
    finite.
    """
    n = grid.n_steps
    dt = grid.dt
    cap = 1.0 / (2.0 * dt) if gamma1_max is None else float(gamma1_max)
    if not cap > 0.0:
        raise ValueError("gamma1_max must be positive")
    top = math.sqrt(min(cap, p.gamma + 700.0 / dt))
    a = p.gamma * dt
    decay = math.exp(-a)
    dt2 = 2.0 * dt
    expm1, exp = math.expm1, math.exp
    # the box end's terms, and the stage value 0 phi(a) + 1 at u = 0 (read
    # where s = 0, so c = 1), each left inf where its expm1 overflows.
    # expm1 overflows at top only where it overflows on all of [0, top],
    # and then the last cell's first evaluation raises before any is read
    qt = dt * top * top
    et = exp(-qt)
    ft = f1t = best0 = math.inf
    try:
        ft, f1t = map(float, _phi_pair(np.array(a - qt)))
        best0 = 0.0 * expm1(a) + 1.0
    except OverflowError:
        pass
    k1, k2 = ft - 2.0 * qt * f1t, dt2 * top * et

    u = array("d", [0.0]) * (n + 1)  # 8 B per node
    s, c, iterations = 1.0, 0.0, 0
    # the maximizers of cells j+1..j+4; u1 is top before the last cell,
    # and only the cells below n - 4 have four real ones
    u1, u2, u3, u4 = top, 0.0, 0.0, 0.0
    n4 = n - 4
    root = np.frombuffer(u)
    for start in range((n - 1) // SWEEP_BLOCK * SWEEP_BLOCK, -1,
                       -SWEEP_BLOCK):
        for j in range(min(start + SWEEP_BLOCK, n) - 1, start - 1, -1):
            evals = 0
            try:
                if s == 0.0:
                    uj, best = 0.0, best0
                else:
                    sdt = s * dt
                    x, lo, hi = u1, 0.0, top
                    if (j < n4 and u1 > 0.0 and u2 > 0.0 and u3 > 0.0
                            and u4 > 0.0):
                        # cubic extrapolation of log u: u1 (r1/r2)^3 r3
                        # with r_k = u_k / u_(k+1)
                        r = (u1 / u2) / (u2 / u3)
                        y = u1 * (r * r * r) * (u3 / u4)
                        if 0.0 < y < top:
                            x = y
                    while True:
                        # the two slopes at x
                        q = dt * x * x
                        z = a - q
                        az = abs(z)
                        zz = z * z
                        m = expm1(z)
                        f = 1.0 + z / 2.0 + zz / 6.0 if az < 1e-5 else m / z
                        if az < 1e-4:
                            f1 = 0.5 + z / 3.0 + zz / 8.0
                        else:
                            f1 = 1.0 / z + m * ((z - 1.0) / zz)
                        if az < 1e-2:
                            f2 = 1.0 / 3.0 + z * (0.25 + z * (0.1 + z / 36.0))
                        else:
                            f2 = ((z - 2.0) / zz
                                  + m * (((z - 2.0) * z + 2.0) / (zz * z)))
                        e = c * exp(-q)
                        q2 = 2.0 * q
                        d1 = s * (f - q2 * f1) - dt2 * x * e
                        d2 = (sdt * x * (4.0 * q * f2 - 6.0 * f1)
                              + dt2 * e * (q2 - 1.0))
                        evals += 1
                        step = -d1 / d2 if d2 < 0.0 else math.inf
                        # converged steps may land on a bracket end, and a
                        # start near the root needs no probe: test them
                        # first.  The stage value is flat to second order
                        # here, so x's value stands for the maximizer's.
                        if abs(step) <= _ROOT_RTOL * x:
                            uj = x + step  # clipped into [0, top]
                            uj = 0.0 if uj < 0.0 else top if top < uj else uj
                            best = s * x * f + e
                            break
                        if d1 > 0.0:
                            if evals == 1:
                                # the slope's sign at the box end, counted as
                                # a probe unless x is top, where it has d1's
                                # bits
                                evals += x != top
                                if s * k1 - c * k2 > 0.0:
                                    uj, best = top, s * top * ft + c * et
                                    break
                            lo = x
                        else:
                            hi = x
                        if evals >= _MAX_ROOT_EVALS:
                            uj = best = math.nan
                            break
                        x += step
                        if not lo < x < hi:
                            x = 0.5 * (lo + hi)
            except OverflowError:
                best = math.inf
            if not 0.0 < best < math.inf:
                raise FloatingPointError(f"stage value {best!r} is not "
                                         f"finite and positive in cell {j}")
            u[j] = uj
            u4, u3, u2, u1 = u3, u2, u1, uj
            iterations += evals
            s, c = decay * s / best, 1.0

        stop = start + SWEEP_BLOCK
        if stop >= n:  # the last node copies the last cell's maximizer
            u[n], stop = u[n - 1], n + 1
        if hand_over is not None:
            hand_over(start, root[start:stop])

    cells = root[:n]
    kkt = _projected_gradient_norm(cells, _u_gradient(cells, p, grid), 0.0,
                                   math.sqrt(cap))
    profile = CouplingProfile.sampled(grid, root * root)
    return profile, OptimizerResult(
        iterations, kkt / (2.0 * math.sqrt(p.gamma) * dt), cap)

