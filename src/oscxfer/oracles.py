"""Closed-form reference expressions for the cascaded-oscillator transfer.

These are the analytic results the numerical machinery is tested against:
the constant-coupling transfer curve, the variationally optimal coupling
profile with its fidelity, the lossy generalization, the infidelity budget
of a truncated protocol, and the scale-separation (validity) windows.

All expressions are evaluated in numerically stable forms (``expm1`` /
``exp`` of negative arguments) so they hold to round-off over many decades
of ``gamma*T``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .types import (
    CouplingProfile,
    FidelityReport,
    ProfileKind,
    SystemParams,
    TimeGrid,
    ValidityWindows,
    _elementwise,
    _optimal_closed_form,
    profile_values,
)

__all__ = [
    "fidelity_constant_coupling",
    "optimal_profile",
    "fidelity_optimal",
    "fidelity_lossy",
    "infidelity_budget",
    "budget_report",
    "validity_windows",
    "euler_lagrange_residual",
]


def _constant_coupling_curve(gamma: float, gamma1: float,
                             t: np.ndarray) -> np.ndarray:
    """:func:`fidelity_constant_coupling` with ``gamma1`` given, elementwise in ``t``."""
    t = np.asarray(t, dtype=float)
    if gamma1 == 0.0:
        return np.zeros(t.shape)
    # 2 sqrt(g g1) e^(-g t) * t * phi((g - g1) t),  phi(z) = (e^z - 1)/z
    z = (gamma - gamma1) * t
    small = np.abs(z) < 1e-8
    big = z > 700.0  # e^z overflows past ~709
    mid = ~(small | big)
    phi = np.ones(t.shape)
    zs, zm = z[small], z[mid]
    phi[small] = 1.0 + zs / 2.0 + zs * zs / 6.0
    phi[mid] = _elementwise(math.expm1, zm) / zm
    scale = 2.0 * math.sqrt(gamma * gamma1)
    out = scale * _elementwise(math.exp, -gamma * t) * t * phi
    # there e^(-g t) (e^z - 1) = e^(-g1 t) (1 - e^(-z)), with no overflow
    tb, zb = t[big], z[big]
    out[big] = (scale * tb * _elementwise(math.exp, -gamma1 * tb)
                * -_elementwise(math.expm1, -zb) / zb)
    out[t == 0.0] = 0.0
    return out


def fidelity_constant_coupling(gamma: float, t: float,
                               gamma1: Optional[float] = None) -> float:
    """Transfer amplitude for a constant sender coupling.

    With the couplings matched (``gamma1`` omitted or equal to ``gamma``)
    this is ``2*gamma*t*exp(-gamma*t)``, peaking at ``t = 1/gamma`` with
    value ``2/e``.  A mismatched constant coupling gives
    ``2*sqrt(gamma*gamma1) * (exp(-gamma1*t) - exp(-gamma*t)) / (gamma - gamma1)``,
    evaluated here in a form that stays smooth through the matched point
    and finite where ``(gamma - gamma1)*t`` is large.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if gamma1 is None:
        return 2.0 * gamma * t * math.exp(-gamma * t)
    if gamma1 < 0:
        raise ValueError("gamma1 must be nonnegative")
    return float(_constant_coupling_curve(gamma, gamma1, np.array([t]))[0])


def optimal_profile(gamma: float, transfer_time: float, t: float) -> float:
    """The optimal coupling rate gamma / (exp(2*gamma*(T - t)) - 1).

    Diverges as ``1 / (2*(T - t))`` for ``t -> T``; evaluation at ``t >= T``
    raises :class:`~oscxfer.types.ProfileSingularityError`.
    """
    if gamma <= 0 or transfer_time <= 0:
        raise ValueError("gamma and transfer_time must be positive")
    return float(_optimal_closed_form(gamma, np.array([transfer_time - t]))[0])


def _optimal_curve(gamma: float, transfer_time: float,
                   t: np.ndarray) -> np.ndarray:
    """:func:`fidelity_optimal` elementwise in ``t``, without the range check."""
    t = np.asarray(t, dtype=float)
    denom = -math.expm1(-2.0 * gamma * transfer_time)  # 1 - exp(-2 g T)
    num = -_elementwise(math.expm1, -2.0 * gamma * t)   # 1 - exp(-2 g t)
    return (_elementwise(math.exp, -gamma * (transfer_time - t)) * num
            / math.sqrt(denom))


def fidelity_optimal(gamma: float, transfer_time: float, t: float) -> float:
    """Transfer amplitude under the optimal profile: 2*sinh(gamma*t)/sqrt(exp(2*gamma*T)-1).

    Computed as ``exp(-gamma*(T-t)) * (1 - exp(-2*gamma*t)) / sqrt(1 - exp(-2*gamma*T))``,
    which is the same expression arranged to stay accurate for large
    ``gamma*T``.  At ``t = T`` it reduces to ``sqrt(1 - exp(-2*gamma*T))``.
    """
    if gamma <= 0 or transfer_time <= 0:
        raise ValueError("gamma and transfer_time must be positive")
    if t < 0 or t > transfer_time:
        raise ValueError("t must lie in [0, transfer_time]")
    return float(_optimal_curve(gamma, transfer_time, np.array([t]))[0])


def fidelity_lossy(p: SystemParams, t: float) -> float:
    """Transfer amplitude with line transmission eta and parasitic damping.

    Equals ``sqrt(eta) * exp(-gamma_loss*t)`` times the lossless optimal
    amplitude; the factorization is exact because the parasitic damping
    commutes with the transfer dynamics.  Requires ``gamma_loss < gamma``.
    """
    if p.gamma_loss >= p.gamma:
        raise ValueError("gamma_loss must be smaller than gamma")
    if p.gamma_loss < 0 or not (0.0 < p.eta <= 1.0):
        raise ValueError("need gamma_loss >= 0 and eta in (0, 1]")
    lossless = fidelity_optimal(p.gamma, p.transfer_time, t)
    return math.sqrt(p.eta) * math.exp(-p.gamma_loss * t) * lossless


def infidelity_budget(gamma: float, transfer_time: float,
                      dt_cut: float) -> FidelityReport:
    """First-order infidelity budget of the truncated optimal protocol.

    ``1 - F = exp(-2*gamma*T)/2 + gamma*dt_cut`` to first order in the
    truncation.  Warnings flag regimes where the expansion degrades
    (``gamma*dt_cut > 0.1``) or where the protocol is too short for the
    budget to mean much (``gamma*T < 2``).
    """
    if gamma <= 0 or transfer_time <= 0 or dt_cut < 0:
        raise ValueError("gamma, transfer_time must be positive; dt_cut >= 0")
    exp_term = 0.5 * math.exp(-2.0 * gamma * transfer_time)
    cut_term = gamma * dt_cut
    warnings = []
    if cut_term > 0.1:
        warnings.append("gamma*dt_cut > 0.1: first-order truncation budget inaccurate")
    if gamma * transfer_time < 2.0:
        warnings.append("gamma*T < 2: protocol too short for the budget expansion")
    return FidelityReport(
        fidelity=1.0 - exp_term - cut_term,
        exponential=exp_term,
        truncation=cut_term,
        warnings=tuple(warnings),
    )


def budget_report(p: SystemParams, dt_cut: float,
                  gamma1_max: Optional[float] = None,
                  target_fidelity: Optional[float] = None,
                  margin: float = 10.0) -> FidelityReport:
    """Full infidelity budget including loss terms and validity flags.

    Extends :func:`infidelity_budget` with the line term ``1 - sqrt(eta)``
    and the oscillator term ``1 - exp(-gamma_loss*T)``; when ``gamma1_max``
    is given, the scale-separation windows are evaluated against
    ``target_fidelity`` (default: the budget's own prediction).
    """
    base = infidelity_budget(p.gamma, p.transfer_time, dt_cut)
    loss_line = 1.0 - math.sqrt(p.eta)
    loss_osc = -math.expm1(-p.gamma_loss * p.transfer_time)
    fidelity = 1.0 - base.exponential - base.truncation - loss_line - loss_osc
    validity = None
    if gamma1_max is not None:
        target = fidelity if target_fidelity is None else target_fidelity
        validity = validity_windows(p, gamma1_max, target, margin=margin)
    return FidelityReport(
        fidelity=fidelity,
        exponential=base.exponential,
        truncation=base.truncation,
        loss_line=loss_line,
        loss_oscillator=loss_osc,
        validity=validity,
        warnings=base.warnings,
    )


def validity_windows(p: SystemParams, gamma1_max: float,
                     target_fidelity: float, margin: float = 10.0) -> ValidityWindows:
    """Check the scale separations required for the rate model to apply.

    Rate form: ``omega0 >= margin * gamma1_max`` and
    ``gamma1_max >= margin * gamma / (1 - F)``.  Quality-factor form (with
    ``Q = omega0 / gamma``): ``(1 - F) * Q2 >= margin * Q1_min`` and
    ``Q1_min >= margin``.  The two forms are algebraically equivalent and
    both are reported.
    """
    if not (0.0 < target_fidelity < 1.0):
        raise ValueError("target_fidelity must lie strictly between 0 and 1")
    if gamma1_max <= 0 or margin <= 0:
        raise ValueError("gamma1_max and margin must be positive")
    infid = 1.0 - target_fidelity
    q2 = p.omega0 / p.gamma
    q1_min = p.omega0 / gamma1_max
    return ValidityWindows(
        margin=margin,
        q2=q2,
        q1_min=q1_min,
        carrier_above_coupling=p.omega0 >= margin * gamma1_max,
        coupling_above_drain=gamma1_max >= margin * p.gamma / infid,
        q_separation=infid * q2 >= margin * q1_min,
        q_floor=q1_min >= margin,
    )


def euler_lagrange_residual(c: CouplingProfile, p: SystemParams,
                            grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Stationarity residual 2*g1^2 + 2*gamma*g1 - g1' on interior grid nodes.

    The variationally optimal profile satisfies ``g1' = 2*g1^2 + 2*gamma*g1``
    exactly, so its residual vanishes; the derivative is taken by central
    differences on the grid, which adds O(dt^2) for smooth profiles.
    Returns ``(times, residuals)`` at the interior nodes.
    """
    ts = grid.nodes()
    g1 = profile_values(c, p, ts)
    dt = grid.dt
    interior = ts[1:-1]
    deriv = (g1[2:] - g1[:-2]) / (2.0 * dt)
    res = 2.0 * g1[1:-1] ** 2 + 2.0 * p.gamma * g1[1:-1] - deriv
    return interior, res
