"""Functional, gradient, and optimum of the profile optimizer.

``TestAscent`` checks the backward sweep and the test-only gradient ascent
that the sweep is compared against (``test_optimize_oracle.ascent_oracle``):
the ascent must behave as a monotone, warm-startable climber for its
"never below the ascent" comparisons to mean anything.
"""

import math

import numpy as np
import pytest

import test_optimize_oracle as oracle_mod
from oscxfer.optimize import (
    functional_gradient,
    functional_value,
    optimize_profile,
)
from oscxfer.oracles import fidelity_optimal
from oscxfer.types import CouplingProfile, SystemParams, TimeGrid


def _random_profile(rng, grid):
    vals = 0.2 + 2.0 * rng.random(grid.n_nodes)
    return CouplingProfile.sampled(grid, vals)


class TestGradient:
    def test_matches_central_differences(self):
        p = SystemParams(gamma=1.3, transfer_time=2.0)
        grid = TimeGrid(2.0, 40)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(3):
            c = _random_profile(rng, grid)
            grad = functional_gradient(c, p, grid)
            vals = np.asarray(c.values, dtype=float)
            coords = rng.choice(grid.n_steps, size=12, replace=False)
            for j in coords:
                h = 1e-6 * max(1.0, vals[j])
                up, dn = vals.copy(), vals.copy()
                up[j] += h
                dn[j] -= h
                fd = (functional_value(CouplingProfile.sampled(grid, up), p, grid)
                      - functional_value(CouplingProfile.sampled(grid, dn), p, grid)
                      ) / (2.0 * h)
                rel = abs(grad[j] - fd) / max(abs(fd), 1e-12)
                worst = max(worst, rel)
        assert worst < 1e-6

    def test_final_node_has_no_influence(self):
        # cells are left-sampled: the value at t = T multiplies nothing
        p = SystemParams(gamma=1.0, transfer_time=1.0)
        grid = TimeGrid(1.0, 30)
        c = _random_profile(np.random.default_rng(3), grid)
        grad = functional_gradient(c, p, grid)
        assert grad.shape == (31,)
        assert grad[-1] == 0.0

    def test_zero_cell_is_refused(self):
        # d sqrt(g1) / d g1 is singular at g1 = 0
        grid = TimeGrid(1.0, 4)
        c = CouplingProfile.sampled(grid, np.array([1.0, 0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="strictly positive"):
            functional_gradient(c, SystemParams(gamma=1.0, transfer_time=1.0),
                                grid)

    def test_vanishes_at_truncated_closed_form(self):
        # the closed-form profile is the stationary point; on its smooth
        # interior the discrete gradient must be small and shrink with dt
        p = SystemParams(gamma=1.0, transfer_time=2.0)
        c = CouplingProfile.optimal(truncation=0.01)

        def window_max(n):
            grid = TimeGrid(2.0, n)
            grad = functional_gradient(c, p, grid)
            inside = grid.nodes() <= 2.0 - 0.1
            return np.max(np.abs(grad[inside]))

        g1000 = window_max(1000)
        assert g1000 < 2e-5
        assert window_max(2000) < g1000


def _dp_value(p, grid, cap=None):
    prof, _ = optimize_profile(p, grid, gamma1_max=cap)
    return functional_value(prof, p, grid)


class TestAscent:
    def test_monotone_trace(self):
        p = SystemParams(gamma=1.0, transfer_time=2.0)
        grid = TimeGrid(2.0, 300)
        _, trace = oracle_mod.ascent_oracle(p, grid, max_iters=200)
        f = np.array(trace.functional)
        assert f.size > 0
        assert np.all(np.diff(f) >= -1e-15)
        assert f[-1] <= _dp_value(p, grid) + 1e-13

    def test_never_beats_continuum_bound(self):
        p = SystemParams(gamma=1.0, transfer_time=2.0)
        grid = TimeGrid(2.0, 500)
        prof, _ = optimize_profile(p, grid)
        f = functional_value(prof, p, grid)
        assert f <= fidelity_optimal(1.0, 2.0, 2.0) + 1e-12

    def test_max_iters_zero_reports_unconverged(self):
        # no step taken: the oracle hands back its clipped start
        p = SystemParams(gamma=1.0, transfer_time=2.0)
        grid = TimeGrid(2.0, 100)
        cells, trace = oracle_mod.ascent_oracle(p, grid, max_iters=0)
        assert trace.iterations == 0
        assert trace.converged is False
        assert trace.functional == []
        assert np.all(cells == 1.0)
        assert oracle_mod.cell_functional(cells, p, grid) < _dp_value(p, grid)

    def test_respects_box(self):
        p = SystemParams(gamma=1.0, transfer_time=2.0)
        grid = TimeGrid(2.0, 400)
        cap = 5.0
        prof, _ = optimize_profile(p, grid, gamma1_max=cap)
        vals = np.asarray(prof.values)
        assert np.all(vals <= cap + 1e-12)
        assert np.all(vals >= 0.0)

    def test_one_gradient_per_iteration(self, monkeypatch):
        # the gradient at each accepted iterate feeds the next spectral step
        # and the next Armijo slope; only the starting point needs one more
        calls = []
        real = oracle_mod._u_gradient

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(oracle_mod, "_u_gradient", counted)
        p = SystemParams(gamma=1.0, transfer_time=2.0)
        grid = TimeGrid(2.0, 300)
        _, trace = oracle_mod.ascent_oracle(p, grid, max_iters=500)
        assert trace.converged
        assert trace.stop == "tolerance"
        assert trace.iterations > 1
        assert len(calls) == trace.iterations + 1

    def test_scale_invariance(self):
        # (gamma, T) -> (c*gamma, T/c) maps optima onto each other with
        # profiles scaled by c; the functional value is invariant
        pa = SystemParams(gamma=1.0, transfer_time=3.0)
        ga = TimeGrid(3.0, 1500)
        prof_a, _ = optimize_profile(pa, ga)
        pb = SystemParams(gamma=2.0, transfer_time=1.5)
        gb = TimeGrid(1.5, 1500)
        prof_b, _ = optimize_profile(pb, gb)
        fa = functional_value(prof_a, pa, ga)
        fb = functional_value(prof_b, pb, gb)
        assert abs(fa - fb) < 1e-6
        va = np.asarray(prof_a.values)[:1400]
        vb = np.asarray(prof_b.values)[:1400]
        rel = np.abs(vb - 2.0 * va) / (2.0 * va)
        assert np.max(rel) < 3e-2

    def test_short_horizon_matches_closed_form(self):
        p = SystemParams(gamma=1.0, transfer_time=0.2)
        grid = TimeGrid(0.2, 2000)
        prof, _ = optimize_profile(p, grid)
        f = functional_value(prof, p, grid)
        want = math.sqrt(-math.expm1(-0.4))
        assert abs(f - want) < 1e-3

    def test_warm_start_from_profile(self):
        p = SystemParams(gamma=1.0, transfer_time=2.0)
        grid = TimeGrid(2.0, 400)
        init = CouplingProfile.optimal(truncation=grid.dt)
        cells, trace = oracle_mod.ascent_oracle(p, grid, initial=init,
                                                max_iters=500)
        assert trace.converged
        f = oracle_mod.cell_functional(cells, p, grid)
        assert f >= functional_value(init, p, grid) - 1e-15
        assert f <= _dp_value(p, grid) + 1e-13


def test_config_validation():
    with pytest.raises(ValueError):
        optimize_profile(SystemParams(gamma=1.0, transfer_time=1.0),
                         TimeGrid(1.0, 50), gamma1_max=0.0)


def test_value_overflow_raises():
    # gamma*dt = 1000 at gamma1 = 1: libm's expm1 overflows in phi, as it
    # does in the sweep's stage value, where the sum would be NaN
    p = SystemParams(gamma=1000.0, transfer_time=10.0)
    with pytest.raises(OverflowError):
        functional_value(CouplingProfile.constant(1.0), p, TimeGrid(10.0, 10))


def _breaks_unimodality(v: np.ndarray, rtol: float = 1e-12) -> bool:
    """Whether ``v`` falls before its argmax or rises after it by more than
    ``rtol`` of its largest magnitude."""
    k = int(np.argmax(v))
    step = np.diff(v)
    tol = rtol * float(np.max(np.abs(v)))
    return bool(np.any(step[:k] < -tol) or np.any(step[k:] > tol))


def test_hand_over_blocks_are_node_rows():
    # the sweep hands over its blocks last first, the top one with the last
    # node, which copies the last cell's maximizer: together they hold the
    # profile's node values
    p, grid = SystemParams(gamma=1.0, transfer_time=3.0), TimeGrid(3.0, 2048)
    blocks = []
    profile, _ = optimize_profile(
        p, grid, hand_over=lambda start, u: blocks.append((start, u.copy())))
    assert [(start, u.size) for start, u in blocks] == [(1024, 1025),
                                                        (0, 1024)]
    top = blocks[0][1]
    assert top[-1] == top[-2]
    u = np.concatenate([u for _, u in reversed(blocks)])
    assert (u * u).tobytes() == profile.values.tobytes()


def test_stage_value_is_unimodal():
    # optimize_profile maximizes each cell's stage value s u phi(a - dt u^2)
    # + c exp(-dt u^2) by one root of its slope, which is exact only if the
    # stage value has one maximum.  In q = dt u^2 it is sigma sqrt(q)
    # phi(a - q) + c exp(-q), sigma = s / sqrt(dt); the sweep's search box
    # ends at q = a + 700.
    assert _breaks_unimodality(np.array([0.0, 1.0, 0.5, 0.9, 0.0]))
    assert not _breaks_unimodality(np.array([0.0, 1.0, 1.0, 0.5, 0.0]))
    rng = np.random.default_rng(20)
    for _ in range(500):
        a = 10.0 ** rng.uniform(-8.0, 2.5)
        sigma = 10.0 ** rng.uniform(-12.0, 12.0)
        c = float(rng.integers(2))
        q = np.concatenate(([0.0], np.geomspace(1e-40, a + 700.0, 19_999)))
        z = a - q
        small = np.abs(z) < 1e-5
        zs = np.where(small, 1.0, z)
        phi = np.where(small, 1.0 + z / 2.0 + z * z / 6.0, np.expm1(zs) / zs)
        v = sigma * np.sqrt(q) * phi + c * np.exp(-q)
        assert not _breaks_unimodality(v), (a, sigma, c)
