"""Variational optimization of the sender's coupling profile.

The end-of-protocol transfer amplitude is the functional

    F[g1] = 2 sqrt(gamma) * integral_0^T exp(-gamma (T - t)) sqrt(g1(t)) exp(-G(t)) dt,
    G(t) = integral_0^t g1,

discretized with the same left-rectangle / piecewise-constant-cell convention
the simulator uses, so a profile's functional value and its simulated
transfer amplitude agree up to quadrature order.  The optimizer runs
projected gradient ascent (box constraints: a tiny positive floor and the
hold cap ``gamma1_max``) with a Barzilai-Borwein trial step and an Armijo
backtracking line search.  It ascends in the square roots u = sqrt(gamma1),
where nonnegativity of dG/dt is built in and the sqrt singularity of the
functional at gamma1 = 0 becomes a smooth dependence on u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .oracles import euler_lagrange_residual
from .types import CouplingProfile, SystemParams, TimeGrid, profile_values

__all__ = [
    "OptimizerConfig",
    "OptimizerTrace",
    "StationarityReport",
    "functional_value",
    "functional_gradient",
    "optimize_profile",
    "verify_stationarity",
]

FLOOR_FRACTION = 1e-12  # floor = FLOOR_FRACTION * gamma; reported as zero coupling
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 5000
    step_size: float = 1.0
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass
class OptimizerTrace:
    """Per-iteration record of an optimization run.

    ``functional`` holds the accepted objective values (non-decreasing) and
    ``grad_norm`` the max-norm of the projected gradient in the square-root
    variables at each accepted iterate.
    """

    functional: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    message: str = ""


def _cell_values(c: CouplingProfile, p: SystemParams, grid: TimeGrid) -> np.ndarray:
    """Profile values at the left node of each cell (the quadrature samples)."""
    ts = grid.nodes()[:-1]
    return profile_values(c, p, ts)


def _phi(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1) / z, series-stabilized near z = 0."""
    small = np.abs(z) < 1e-5
    zs = np.where(small, 0.0, z)
    out = np.where(small, 1.0 + z / 2.0 + z * z / 6.0,
                   np.expm1(zs) / np.where(small, 1.0, zs))
    return out


def _phi_prime(z: np.ndarray) -> np.ndarray:
    """d/dz of (exp(z) - 1)/z, series-stabilized near z = 0."""
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    out = np.where(small, 0.5 + z / 3.0 + z * z / 8.0,
                   (np.exp(zs) * (zs - 1.0) + 1.0) / (zs * zs))
    return out


def functional_value(c: CouplingProfile, p: SystemParams, grid: TimeGrid) -> float:
    """Quadrature of the transfer functional, cell-exact for grid profiles.

    Each cell takes its profile value from the left node and ``G``
    accumulates those same cells, after which the cell's integral has the
    closed form ``left-sample * phi((gamma - g_j) dt)``.  Under the package's
    piecewise-constant profile convention this quadrature is exact, so a
    sampled profile's functional value matches its ODE-integrated transfer
    amplitude to integrator precision rather than quadrature order.
    """
    cells = _cell_values(c, p, grid)
    return _functional_from_cells(cells, p, grid)


def _weights(cells: np.ndarray, p: SystemParams, grid: TimeGrid):
    dt = grid.dt
    ts = grid.nodes()[:-1]
    big_g = np.concatenate(([0.0], np.cumsum(cells[:-1]) * dt))
    expo = np.exp(-p.gamma * (grid.t_end - ts) - big_g)
    z = (p.gamma - cells) * dt
    return expo, z


def _functional_from_cells(cells: np.ndarray, p: SystemParams,
                           grid: TimeGrid) -> float:
    if np.any(cells < 0):
        raise ValueError("profile must be nonnegative on the grid")
    expo, z = _weights(cells, p, grid)
    w = expo * np.sqrt(cells) * _phi(z)
    return 2.0 * math.sqrt(p.gamma) * grid.dt * float(np.sum(w))


def functional_gradient(c: CouplingProfile, p: SystemParams,
                        grid: TimeGrid) -> np.ndarray:
    """Exact gradient of :func:`functional_value` in the profile's node values.

    Computed by reverse accumulation over the quadrature sum; requires
    strictly positive cell values (the derivative of sqrt is singular at
    zero — the optimizer floors its iterates before calling).  The entry for
    the final node is zero: it lies outside every quadrature cell.
    """
    cells = _cell_values(c, p, grid)
    grad_cells = _gradient_from_cells(cells, p, grid)
    return np.concatenate((grad_cells, [0.0]))


def _gradient_from_cells(cells: np.ndarray, p: SystemParams,
                         grid: TimeGrid) -> np.ndarray:
    if np.any(cells <= 0):
        raise ValueError("gradient needs strictly positive profile values")
    dt = grid.dt
    expo, z = _weights(cells, p, grid)
    root = np.sqrt(cells)
    phi = _phi(z)
    w = expo * root * phi
    # suffix[j] = sum of w over cells strictly after j (reverse accumulation
    # of G's dependence on cell j)
    suffix = np.concatenate((np.cumsum(w[::-1])[-2::-1], [0.0]))
    # direct term: d/dg of sqrt(g)*phi((gamma-g)dt) at fixed G
    direct = expo * (phi / (2.0 * root) - root * _phi_prime(z) * dt)
    return 2.0 * math.sqrt(p.gamma) * dt * (direct - dt * suffix)


def _projected_gradient_norm(v: np.ndarray, grad: np.ndarray,
                             lo: float, hi: float) -> float:
    pg = grad.copy()
    pg[(v >= hi) & (grad > 0)] = 0.0
    pg[(v <= lo) & (grad < 0)] = 0.0
    return float(np.max(np.abs(pg))) if pg.size else 0.0


def optimize_profile(
    p: SystemParams,
    grid: TimeGrid,
    cfg: OptimizerConfig,
    gamma1_max: Optional[float] = None,
    initial: Union[CouplingProfile, np.ndarray, None] = None,
) -> tuple[CouplingProfile, OptimizerTrace]:
    """Maximize the transfer functional over box-constrained grid profiles.

    Parameters
    ----------
    p, grid : system parameters and the optimization grid.
    cfg : ascent controls (iterations, initial step, stopping tolerance).
    gamma1_max : upper box bound; defaults to ``1 / (2 dt)``, the stiffest
        coupling the grid can resolve.
    initial : starting profile (a :class:`CouplingProfile`, an array of node
        values, or None for the constant profile ``gamma1 = gamma``).

    Returns the optimized sampled profile and the iteration trace.  If the
    improvement never falls below ``cfg.tolerance`` within ``cfg.max_iters``
    iterations the trace is flagged ``converged=False`` — the profile is
    still the best iterate found.
    """
    n = grid.n_steps
    dt = grid.dt
    cap = 1.0 / (2.0 * dt) if gamma1_max is None else float(gamma1_max)
    floor = FLOOR_FRACTION * p.gamma
    if cap <= floor:
        raise ValueError("gamma1_max must exceed the positivity floor")

    if initial is None:
        cells = np.full(n, p.gamma)
    elif isinstance(initial, CouplingProfile):
        cells = _cell_values(initial, p, grid)
    else:
        arr = np.asarray(initial, dtype=float)
        if arr.shape not in ((n,), (n + 1,)):
            raise ValueError(f"initial profile must have {n} or {n + 1} values")
        cells = arr[:n].copy()
    cells = np.clip(cells, floor, cap)

    u = np.sqrt(cells)
    lo, hi = math.sqrt(floor), math.sqrt(cap)

    def value(uu: np.ndarray) -> float:
        return _functional_from_cells(uu * uu, p, grid)

    def gradient(uu: np.ndarray) -> np.ndarray:
        # chain rule through gamma1 = u^2
        return 2.0 * uu * _gradient_from_cells(uu * uu, p, grid)

    trace = OptimizerTrace()
    f_cur = value(u)
    grad = gradient(u)
    alpha = cfg.step_size
    u_prev: Optional[np.ndarray] = None
    grad_prev: Optional[np.ndarray] = None

    it = 0
    for it in range(1, cfg.max_iters + 1):
        if u_prev is not None:
            # Spectral (Barzilai-Borwein) trial step: fits the effective
            # curvature along the last move, which accelerates the slow
            # long-wavelength modes far beyond a doubling heuristic.
            s = u - u_prev
            y = grad - grad_prev
            sy = float(s @ y)
            if sy < 0.0:
                alpha = min(float(s @ s) / (-sy), cfg.step_size * 1e12)
            else:
                alpha = min(alpha * 2.0, cfg.step_size * 1e12)
        u_prev, grad_prev = u, grad
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            u_new = np.clip(u + alpha * grad, lo, hi)
            slope = float(grad @ (u_new - u))
            if slope <= 0.0:
                break  # projected stationary: nothing uphill within the box
            f_new = value(u_new)
            if f_new >= f_cur + _ARMIJO * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            trace.converged = True
            trace.message = "projected gradient vanished within the box"
            break
        improvement = f_new - f_cur
        u, f_cur = u_new, f_new
        # the one gradient per iteration: recorded here, reused by the next
        # iteration's spectral step and Armijo slope
        grad = gradient(u)
        trace.functional.append(f_cur)
        trace.grad_norm.append(_projected_gradient_norm(u, grad, lo, hi))
        if improvement < cfg.tolerance:
            trace.converged = True
            trace.message = (
                f"improvement {improvement:.3e} below tolerance {cfg.tolerance:.3e}"
            )
            break
    trace.iterations = it if cfg.max_iters > 0 else 0
    if not trace.converged:
        trace.message = trace.message or "iteration budget exhausted before convergence"

    cells_out = u * u
    cells_out = np.where(cells_out <= floor, 0.0, cells_out)  # report floor as zero
    node_values = np.concatenate((cells_out, [cells_out[-1]]))
    profile = CouplingProfile.sampled(grid, node_values, gamma1_max=cap)
    return profile, trace


@dataclass(frozen=True)
class StationarityReport:
    """Max Euler-Lagrange residual of a profile away from its capped tail."""

    max_abs_residual: float
    n_points: int
    times: np.ndarray
    residuals: np.ndarray


def verify_stationarity(c: CouplingProfile, p: SystemParams, grid: TimeGrid,
                        cap_fraction: float = 0.99) -> StationarityReport:
    """Euler-Lagrange residual of a profile on its unconstrained interior.

    Nodes at or near the cap (above ``cap_fraction * gamma1_max``) sit on an
    active box constraint where stationarity does not apply, so they are
    excluded along with their finite-difference neighbours.
    """
    ts, res = euler_lagrange_residual(c, p, grid)
    g1 = profile_values(c, p, ts)
    keep = np.ones(ts.size, dtype=bool)
    if c.gamma1_max is not None:
        capped = g1 >= cap_fraction * c.gamma1_max
        # drop capped nodes and both neighbours (central-difference contamination)
        keep &= ~capped
        keep[:-1] &= ~capped[1:]
        keep[1:] &= ~capped[:-1]
    if not np.any(keep):
        return StationarityReport(math.nan, 0, ts[:0], res[:0])
    return StationarityReport(
        max_abs_residual=float(np.max(np.abs(res[keep]))),
        n_points=int(np.sum(keep)),
        times=ts[keep],
        residuals=res[keep],
    )
