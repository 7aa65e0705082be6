"""Acceptance gate: every deliverable behavior at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py``: the verbose listing gives
one pass/fail line per criterion.  Each test also prints its measured
margin (visible with ``-s`` or on failure).

Criteria and tolerances:
  1. constant-coupling peak F = 2/e at t = 1/gamma, +-1e-5, n = 1e4, < 1 s
  2. truncated optimal transfer at gamma*T = 5: F(T) > 1 - 1e-4 - 1.1*gamma*dt
     and cut-node error <= 1e-6, < 5 s
  3. 12-point horizon sweep matches sqrt(1 - exp(-2 gamma T)) within
     1e-5 + per-point truncation budget, < 1 min
  4. infidelity-vs-cut law: slope 1.00 +- 0.05, intercept exp(-2gT)/2 +- 10%
  5. loss grid: F = sqrt(eta) exp(-gamma' T) sqrt(1 - exp(-2 g T)) within
     1e-5 + truncation budget
  6. commutator sum-rule deficit <= 1e-6 for constant and optimal profiles
  7. optimizer: functional within 1e-4 of the truncated closed form,
     pointwise profile error <= 2% on [0, T - 10 dt], EL residual <= 10x
     the discretized ansatz's, < 2 min
  8. analytic gradient vs central differences: <= 1e-6 relative,
     >= 10 coordinates on >= 3 random profiles
  9. endpoint identity to round-off and bitwise lossless reduction
"""

import gc
import math
import time

import numpy as np

from oscxfer.optimize import (
    functional_gradient,
    functional_value,
    optimize_profile,
)
from oscxfer.oracles import (
    euler_lagrange_residual,
    fidelity_lossy,
    fidelity_optimal,
)
from oscxfer.simulate import IntegratorConfig, integrate_transfer
from oscxfer.types import CouplingProfile, SystemParams, TimeGrid, profile_values


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_constant_coupling_peak():
    start = time.perf_counter()
    p = SystemParams(gamma=1.0, transfer_time=3.0)
    state = integrate_transfer(CouplingProfile.constant(1.0), p,
                               IntegratorConfig(n_steps=10_000))
    ts, curve = state.grid.nodes(), state.a21
    i_peak = int(np.argmax(curve))
    err = abs(curve[i_peak] - 2.0 / math.e)
    t_err = abs(ts[i_peak] - 1.0)
    elapsed = time.perf_counter() - start
    _report(1, err <= 1e-5 and t_err <= 1e-2 and elapsed < 1.0,
            f"peak |F - 2/e| = {err:.3e} (tol 1e-5), "
            f"|t_peak - 1/gamma| = {t_err:.3e}, runtime {elapsed:.2f} s (< 1 s)")


def test_criterion_2_truncated_optimal_transfer():
    start = time.perf_counter()
    gamma, T, cut = 1.0, 5.0, 1e-4
    n = 50_000                      # dt = 1e-4: the cut lands on a node
    p = SystemParams(gamma=gamma, transfer_time=T)
    state = integrate_transfer(CouplingProfile.optimal(truncation=cut), p,
                               IntegratorConfig(n_steps=n))
    floor = 1.0 - 1e-4 - 1.1 * gamma * cut
    cut_err = abs(state.a21[n - 1] - fidelity_optimal(gamma, T, T - cut))
    elapsed = time.perf_counter() - start
    _report(2, state.fidelity > floor and cut_err <= 1e-6 and elapsed < 5.0,
            f"F(T) = {state.fidelity:.9f} (> {floor:.5f}), "
            f"cut-node error = {cut_err:.3e} (tol 1e-6), "
            f"runtime {elapsed:.2f} s (< 5 s)")


def test_criterion_3_horizon_sweep():
    start = time.perf_counter()
    cut, n = 1e-4, 20_000
    worst = 0.0
    for T in np.linspace(0.5, 6.0, 12):
        p = SystemParams(gamma=1.0, transfer_time=float(T))
        state = integrate_transfer(CouplingProfile.optimal(truncation=cut), p,
                                   IntegratorConfig(n_steps=n))
        want = math.sqrt(-math.expm1(-2.0 * T))
        allowance = 1e-5 + 1.0 * cut          # truncation budget gamma*dt
        worst = max(worst, abs(state.fidelity - want) / allowance)
    elapsed = time.perf_counter() - start
    _report(3, worst <= 1.0 and elapsed < 60.0,
            f"worst error = {worst:.2f}x its per-point allowance "
            f"(12 points, gamma*T in [0.5, 6]), runtime {elapsed:.1f} s (< 60 s)")


def test_criterion_4_truncation_law():
    gamma, T, n = 1.0, 5.0, 50_000
    p = SystemParams(gamma=gamma, transfer_time=T)
    cuts = np.array([1e-2, 1e-3, 1e-4])
    infid = []
    for cut in cuts:
        state = integrate_transfer(CouplingProfile.optimal(truncation=cut), p,
                                   IntegratorConfig(n_steps=n))
        cells = round(cut / (T / n))
        infid.append(1.0 - state.a21[n - cells])
    # relative weighting: the three points span two decades, and the
    # quadratic term at gamma*dt = 1e-2 would otherwise bias the intercept
    slope, intercept = np.polyfit(cuts, np.array(infid), 1, w=1.0 / cuts)
    want_intercept = 0.5 * math.exp(-2.0 * gamma * T)
    ratio = intercept / want_intercept
    _report(4, abs(slope - 1.0) <= 0.05 and abs(ratio - 1.0) <= 0.10,
            f"slope = {slope:.4f} (1.00 +- 0.05), "
            f"intercept/exact = {ratio:.4f} (1.00 +- 0.10)")


def test_criterion_5_loss_factorization():
    gamma, T, cut, n = 1.0, 5.0, 1e-4, 50_000
    worst = 0.0
    for eta in (1.0, 0.81, 0.64):
        for gl in (0.0, 0.01, 0.05):
            p = SystemParams(gamma=gamma, transfer_time=T, eta=eta,
                             gamma_loss=gl)
            state = integrate_transfer(
                CouplingProfile.optimal(truncation=cut), p,
                IntegratorConfig(n_steps=n))
            want = fidelity_lossy(p, T)
            allowance = 1e-5 + gamma * cut
            worst = max(worst, abs(state.fidelity - want) / allowance)
    _report(5, worst <= 1.0,
            f"worst error = {worst:.2f}x its allowance over the 3x3 "
            f"(eta, gamma') grid")


def test_criterion_6_commutator_preservation():
    n = 10_000
    p = SystemParams(gamma=1.0, transfer_time=3.0)

    state = integrate_transfer(CouplingProfile.constant(1.0), p,
                               IntegratorConfig(n_steps=n,
                                                kernel_tracking=True))
    d1, d2 = state.deficits
    deficit_const = max(np.max(np.abs(d1)), np.max(np.abs(d2)))
    del state, d1, d2
    gc.collect()

    cut = 0.25
    cap = 1.0 / math.expm1(2.0 * cut)   # continues the profile with no jump
    state = integrate_transfer(
        CouplingProfile.optimal(truncation=cut, gamma1_max=cap), p,
        IntegratorConfig(n_steps=n, kernel_tracking=True))
    d1, d2 = state.deficits
    deficit_opt = max(np.max(np.abs(d1)), np.max(np.abs(d2)))
    del state, d1, d2
    gc.collect()

    _report(6, deficit_const <= 1e-6 and deficit_opt <= 1e-6,
            f"max sum-rule deficit: constant {deficit_const:.3e}, "
            f"optimal {deficit_opt:.3e} (tol 1e-6)")


def test_criterion_7_optimizer_convergence():
    start = time.perf_counter()
    gamma, T, n = 1.0, 3.0, 60_000
    cut = 2e-4
    p = SystemParams(gamma=gamma, transfer_time=T)
    grid = TimeGrid(T, n)
    dt = grid.dt

    ansatz = CouplingProfile.optimal(truncation=cut)
    f_target = functional_value(ansatz, p, grid)

    window_end = T - 10.0 * cut
    mids = (np.arange(n) + 0.5) * dt
    in_window = mids <= window_end
    # the untruncated closed form gamma / (exp(2 gamma (T - t)) - 1) at the
    # cell midpoints
    closed_mid = profile_values(CouplingProfile.optimal(truncation=None), p,
                                mids[in_window])

    ts_el, res_ansatz = euler_lagrange_residual(ansatz, p, grid)
    el_window = ts_el <= window_end
    res_ansatz_max = np.max(np.abs(res_ansatz[el_window]))

    cap = 2.0 / cut                      # box cap, decoupled from the grid
    prof, _ = optimize_profile(p, grid, gamma1_max=cap)
    gap = abs(functional_value(prof, p, grid) - f_target)
    cells = np.asarray(prof.values)[:n]
    pointwise = np.max(np.abs(cells[in_window] - closed_mid) / closed_mid)
    _, res_opt = euler_lagrange_residual(prof, p, grid)
    el_ratio = np.max(np.abs(res_opt[el_window])) / res_ansatz_max
    elapsed = time.perf_counter() - start

    ok = (gap <= 1e-4 and pointwise <= 0.02
          and el_ratio <= 10.0 and elapsed < 120.0)
    _report(7, ok,
            f"functional gap = {gap:.3e} (tol 1e-4), "
            f"pointwise profile error = {100 * pointwise:.2f}% (tol 2%), "
            f"EL residual ratio = {el_ratio:.2f} (tol 10), "
            f"runtime {elapsed:.1f} s (< 120 s)")


def test_criterion_8_gradient_correctness():
    p = SystemParams(gamma=1.3, transfer_time=2.0)
    grid = TimeGrid(2.0, 40)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(3):
        vals = 0.2 + 2.0 * rng.random(grid.n_nodes)
        c = CouplingProfile.sampled(grid, vals)
        grad = functional_gradient(c, p, grid)
        for j in rng.choice(grid.n_steps, size=12, replace=False):
            h = 1e-6 * max(1.0, vals[j])
            up, dn = vals.copy(), vals.copy()
            up[j] += h
            dn[j] -= h
            fd = (functional_value(CouplingProfile.sampled(grid, up), p, grid)
                  - functional_value(CouplingProfile.sampled(grid, dn), p, grid)
                  ) / (2.0 * h)
            worst = max(worst, abs(grad[j] - fd) / max(abs(fd), 1e-12))
    _report(8, worst <= 1e-6,
            f"worst relative gradient error = {worst:.3e} "
            f"(tol 1e-6, 36 coordinates on 3 random profiles)")


def test_criterion_9_oracle_identities():
    worst_rel = 0.0
    for gt in np.geomspace(1e-3, 20.0, 40):
        lhs = fidelity_optimal(1.0, float(gt), float(gt))
        rhs = math.sqrt(-math.expm1(-2.0 * gt))
        worst_rel = max(worst_rel, abs(lhs - rhs) / rhs)
    bitwise = all(
        fidelity_lossy(SystemParams(gamma=g, transfer_time=T), t)
        == fidelity_optimal(g, T, t)
        for g, T, t in ((1.0, 5.0, 5.0), (0.3, 2.0, 1.1), (2.0, 8.0, 0.0)))
    _report(9, worst_rel <= 5e-15 and bitwise,
            f"endpoint identity max relative error = {worst_rel:.2e} "
            f"(round-off), lossless reduction bitwise: {bitwise}")
