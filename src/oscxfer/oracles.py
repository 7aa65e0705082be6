"""Closed-form reference expressions for the cascaded-oscillator transfer.

These are the analytic results the numerical machinery is tested against:
the constant-coupling transfer curve, the fidelity of the variationally
optimal coupling profile, the lossy generalization, the reference curve of
a run, the infidelity budget of a truncated protocol, and the
scale-separation (validity) windows.

Each closed form has one entry point, which takes a float or an array of
times: a float in gives a float out, an array gives an array of its shape.
:func:`reference_curve` picks the closed form that belongs to a coupling
profile, so ``simulate`` and ``sweep`` compare against the same numbers.
The optimal profile itself is :func:`~oscxfer.types.profile_values` of
``CouplingProfile.optimal(None)``.

All expressions are evaluated in numerically stable forms (``expm1`` /
``exp`` of negative arguments) so they hold to round-off over many decades
of ``gamma*T``.  phi(z) = expm1(z)/z is the optimizer's own,
:func:`~oscxfer.types._phi`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .types import (
    CouplingProfile,
    ProfileKind,
    SystemParams,
    Times,
    TimeGrid,
    _elementwise,
    _loss_factor,
    _phi,
    _shaped,
    profile_values,
)

__all__ = [
    "fidelity_constant_coupling",
    "fidelity_optimal",
    "fidelity_lossy",
    "reference_curve",
    "budget_report",
    "validity_windows",
    "euler_lagrange_residual",
]


def fidelity_constant_coupling(gamma: float, t: Times,
                               gamma1: Optional[float] = None) -> Times:
    """Transfer amplitude for a constant sender coupling ``gamma1``.

    ``2*sqrt(gamma*gamma1) * (exp(-gamma1*t) - exp(-gamma*t)) / (gamma - gamma1)``,
    evaluated as ``2*sqrt(gamma*gamma1) * t * exp(-min(gamma, gamma1)*t) *
    phi(-|gamma - gamma1|*t)``, since ``exp(-gamma*t) (e^z - 1) =
    exp(-gamma1*t) (1 - e^-z)``: phi never sees a ``z > 0``, so nothing
    overflows, and it is smooth through the matched point.  With the
    couplings matched (``gamma1`` omitted means ``gamma1 = gamma``) it is
    ``2*gamma*t*exp(-gamma*t)``, peaking at ``t = 1/gamma`` with value ``2/e``.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if gamma1 is None:
        gamma1 = gamma
    if gamma1 < 0:
        raise ValueError("gamma1 must be nonnegative")
    ts = np.ravel(np.asarray(t, dtype=float))
    return _shaped(t, 2.0 * math.sqrt(gamma * gamma1)
                   * _elementwise(math.exp, -min(gamma, gamma1) * ts) * ts
                   * _phi(-abs(gamma - gamma1) * ts)[0])


def fidelity_optimal(gamma: float, transfer_time: float, t: Times) -> Times:
    """Transfer amplitude under the optimal profile: 2*sinh(gamma*t)/sqrt(exp(2*gamma*T)-1).

    Computed as ``exp(-gamma*(T-t)) * (1 - exp(-2*gamma*t)) / sqrt(1 - exp(-2*gamma*T))``,
    which is the same expression arranged to stay accurate for large
    ``gamma*T``.  At ``t = T`` it reduces to ``sqrt(1 - exp(-2*gamma*T))``.
    Every time must lie in ``[0, T]``.
    """
    if gamma <= 0 or transfer_time <= 0:
        raise ValueError("gamma and transfer_time must be positive")
    ts = np.ravel(np.asarray(t, dtype=float))
    if np.any((ts < 0) | (ts > transfer_time)):
        raise ValueError("t must lie in [0, transfer_time]")
    denom = -math.expm1(-2.0 * gamma * transfer_time)  # 1 - exp(-2 g T)
    num = -_elementwise(math.expm1, -2.0 * gamma * ts)  # 1 - exp(-2 g t)
    return _shaped(t, _elementwise(math.exp, -gamma * (transfer_time - ts))
                   * num / math.sqrt(denom))


def fidelity_lossy(p: SystemParams, t: Times) -> Times:
    """Transfer amplitude with line transmission eta and parasitic damping.

    Equals ``sqrt(eta) * exp(-gamma_loss*t)`` times the lossless optimal
    amplitude; the factorization is exact because the parasitic damping
    commutes with the transfer dynamics (substitute a -> exp(-gamma_loss t)
    a), for any ``gamma_loss >= 0``.  ``p`` holds its own invariants, so
    only the times are checked (by :func:`fidelity_optimal`).
    """
    ts = np.asarray(t, dtype=float)
    lossless = fidelity_optimal(p.gamma, p.transfer_time, ts)
    return _shaped(t, _loss_factor(p, ts) * lossless)


def reference_curve(p: SystemParams, profile: CouplingProfile,
                    t: Times) -> Times:
    """The closed-form amplitude a run with ``profile`` is compared against.

    For the closed-form optimum it is :func:`fidelity_lossy`; for a
    constant profile, the same loss factor ``sqrt(eta)*exp(-gamma_loss*t)``
    times :func:`fidelity_constant_coupling`.  The optimum's truncation is
    ignored: past ``T - truncation`` the curve follows the untruncated
    closed form up to ``F(T)``, so there the difference from a simulated
    run is the truncation cost plus the integration error.  Times are
    clamped to ``T``, because the last grid node ``n*(T/n)`` can land one
    ulp past it.
    A sampled profile has no closed form, and its curve is NaN.
    """
    ts = np.minimum(np.asarray(t, dtype=float), p.transfer_time)
    if profile.kind is ProfileKind.OPTIMAL_CLOSED_FORM:
        out = fidelity_lossy(p, ts)
    elif profile.kind is ProfileKind.CONSTANT:
        lossless = fidelity_constant_coupling(p.gamma, ts, profile.gamma1)
        out = _loss_factor(p, ts) * lossless
    else:
        out = np.full(np.shape(ts), math.nan)
    return _shaped(t, out)


def budget_report(p: SystemParams, dt_cut: float,
                  gamma1_max: Optional[float] = None,
                  target_fidelity: Optional[float] = None,
                  margin: float = 10.0) -> dict:
    """Infidelity budget of the truncated optimal protocol, with validity flags.

    ``1 - F = exp(-2*gamma*T)/2 + gamma*dt_cut + (1 - sqrt(eta))
    + (1 - exp(-gamma_loss*T))`` to first order in the truncation, returned
    as the dict ``budget.json`` holds: ``fidelity``, the four
    ``infidelity_terms`` (``exponential``, ``truncation``, ``loss_line``,
    ``loss_oscillator``), their sum ``infidelity_total``, ``warnings``, and
    ``validity`` where the windows are evaluated.
    Warnings flag regimes where the expansion degrades
    (``gamma*dt_cut > 0.1``) or where the protocol is too short for the
    budget to mean much (``gamma*T < 2``).  When ``gamma1_max`` is given,
    the scale-separation windows are evaluated against ``target_fidelity``
    (default: the budget's own prediction; where that lies outside (0, 1)
    the windows are left out with a warning).  ``p`` holds its own
    invariants, so only ``dt_cut`` is checked here.
    """
    if dt_cut < 0:
        raise ValueError("dt_cut must be >= 0")
    exp_term = 0.5 * math.exp(-2.0 * p.gamma * p.transfer_time)
    cut_term = p.gamma * dt_cut
    warnings = []
    if cut_term > 0.1:
        warnings.append("gamma*dt_cut > 0.1: first-order truncation budget inaccurate")
    if p.gamma * p.transfer_time < 2.0:
        warnings.append("gamma*T < 2: protocol too short for the budget expansion")
    loss_line = 1.0 - math.sqrt(p.eta)
    loss_osc = -math.expm1(-p.gamma_loss * p.transfer_time)
    fidelity = 1.0 - exp_term - cut_term - loss_line - loss_osc
    report = {
        "fidelity": fidelity,
        "infidelity_terms": {
            "exponential": exp_term,
            "truncation": cut_term,
            "loss_line": loss_line,
            "loss_oscillator": loss_osc,
        },
        "infidelity_total": exp_term + cut_term + loss_line + loss_osc,
        "warnings": warnings,
    }
    if gamma1_max is not None:
        if target_fidelity is None and not 0.0 < fidelity < 1.0:
            warnings.append(
                f"first-order fidelity {fidelity:.6g} lies outside (0, 1): "
                "validity windows left out; give --target-fidelity to check "
                "them")
        else:
            target = fidelity if target_fidelity is None else target_fidelity
            report["validity"] = validity_windows(p, gamma1_max, target,
                                                  margin=margin)
    return report


def validity_windows(p: SystemParams, gamma1_max: float,
                     target_fidelity: float, margin: float = 10.0) -> dict:
    """Check the scale separations required for the rate model to apply.

    The windows are ``carrier_above_coupling``, ``omega0 >= margin *
    gamma1_max``, and ``coupling_above_drain``, ``gamma1_max >= margin *
    gamma / (1 - F)``; ``all_ok`` is both.  They come in a dict with
    ``margin`` and the quality factors ``q2 = omega0 / gamma`` of the
    receiver and ``q1_min = omega0 / gamma1_max`` of the sender, which
    hardware specs quote: in them the windows read ``q1_min >= margin`` and
    ``(1 - F) * q2 >= margin * q1_min``.  ``margin`` operationalizes "much
    greater than" as a ratio.
    """
    if not (0.0 < target_fidelity < 1.0):
        raise ValueError("target_fidelity must lie strictly between 0 and 1")
    if not (gamma1_max > 0 and margin > 0):
        raise ValueError("gamma1_max and margin must be positive")
    carrier = p.omega0 >= margin * gamma1_max
    drain = gamma1_max >= margin * p.gamma / (1.0 - target_fidelity)
    return {
        "margin": margin,
        "q2": p.omega0 / p.gamma,
        "q1_min": p.omega0 / gamma1_max,
        "carrier_above_coupling": carrier,
        "coupling_above_drain": drain,
        "all_ok": carrier and drain,
    }


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
