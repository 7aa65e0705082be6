"""The backward-sweep optimum against brute force, the former sweep and the
former ascent.

:func:`oracle_sweep` is the backward sweep as functions rather than one flat
loop: a per-cell root solve (:func:`stage_argmax`) from a warm start
(:func:`warm_start`) that calls a per-evaluation slope function
(:func:`stage_slopes`).  Every floating-point operation of the flat loop is
the same operation on the same operands in the same order, so the two must
agree bit for bit wherever the cap lies below the flat loop's search bound
gamma + 700/dt.

:func:`former_sweep` is the sweep as it was before its warm start became an
extrapolation: each root solve starts at the next cell's maximizer, probes
the box end before testing its first Newton step, and the stage value is
evaluated again at the maximizer.  The two differ only in round-off, so the
flat loop must agree with it to a few root tolerances, with about as few
evaluations or fewer.

The ascent oracle below is the projected Barzilai-Borwein/Armijo gradient ascent
in u = sqrt(gamma1) that the backward sweep replaced: from a starting
profile clipped into [floor, cap] (floor = 1e-12 gamma) it takes a spectral
trial step, halves it until the Armijo condition holds, and stops when an
accepted step improves the functional by less than the tolerance or when no
uphill step is left in the box.  It only ever approaches the discrete
optimum, so the sweep must never end below it.

``probe_first_argmax`` is an earlier per-cell root solve of the former
sweep, which evaluated the slope at the box end before the warm start; the
sweep must reach the same optimum with no more evaluations.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscxfer.optimize import (
    _MAX_ROOT_EVALS,
    _ROOT_RTOL,
    OptimizerResult,
    _phi_pair,
    _projected_gradient_norm,
    _u_gradient,
    functional_value,
    optimize_profile,
)
from oscxfer.types import CouplingProfile, SystemParams, TimeGrid, profile_values

FLOOR_FRACTION = 1e-12
ARMIJO = 1e-4
MAX_BACKTRACKS = 60


def cell_functional(cells, p, grid):
    """:func:`functional_value` of the grid profile whose cells hold
    ``cells`` (the last node repeats the last cell)."""
    values = np.append(cells, cells[-1])
    return functional_value(CouplingProfile.sampled(grid, values), p, grid)


@dataclass
class AscentTrace:
    """What the ascent did: the functional after each accepted step, the
    iterations begun, and why it stopped ("tolerance", "no uphill step" or
    "budget"; only the last is unconverged)."""

    functional: list = field(default_factory=list)
    iterations: int = 0
    stop: str = "budget"

    @property
    def converged(self):
        return self.stop != "budget"


def ascent_oracle(p, grid, gamma1_max=None, initial=None, max_iters=5000,
                  tolerance=1e-10):
    """Cell values of the ascent's final iterate (floored cells reported as
    zero), started from ``initial`` (a profile) or gamma1 = gamma, and its
    :class:`AscentTrace`."""
    n, dt = grid.n_steps, grid.dt
    cap = 1.0 / (2.0 * dt) if gamma1_max is None else float(gamma1_max)
    floor = FLOOR_FRACTION * p.gamma
    if initial is None:
        cells = np.full(n, p.gamma)
    else:
        cells = profile_values(initial, p, grid.nodes()[:-1])
    u = np.sqrt(np.clip(cells, floor, cap))
    lo, hi = math.sqrt(floor), math.sqrt(cap)

    def value(uu):
        return cell_functional(uu * uu, p, grid)

    trace = AscentTrace()
    f_cur = value(u)
    grad = _u_gradient(u, p, grid)
    alpha = 1.0
    u_prev = grad_prev = None
    for trace.iterations in range(1, max_iters + 1):
        if u_prev is not None:
            s, y = u - u_prev, grad - grad_prev
            sy = float(s @ y)
            alpha = min(float(s @ s) / (-sy) if sy < 0.0 else 2.0 * alpha, 1e12)
        u_prev, grad_prev = u, grad
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            u_new = np.clip(u + alpha * grad, lo, hi)
            slope = float(grad @ (u_new - u))
            if slope <= 0.0:
                break  # nothing uphill within the box
            f_new = value(u_new)
            if f_new >= f_cur + ARMIJO * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            trace.stop = "no uphill step"
            break
        improvement = f_new - f_cur
        u, f_cur = u_new, f_new
        # the one gradient per iteration: reused by the next spectral step
        # and Armijo slope
        grad = _u_gradient(u, p, grid)
        trace.functional.append(f_cur)
        if improvement < tolerance:
            trace.stop = "tolerance"
            break
    cells = u * u
    return np.where(cells <= floor, 0.0, cells), trace


def stage_phis(z):
    """``math.expm1(z)``, phi(z) and phi'(z) as the sweep forms them: phi
    and phi' switch to their series where ``_phi_pair`` does."""
    az = abs(z)
    m = math.expm1(z)
    f = 1.0 + z / 2.0 + z * z / 6.0 if az < 1e-5 else m / z
    if az < 1e-4:
        d1 = 0.5 + z / 3.0 + z * z / 8.0
    else:
        d1 = 1.0 / z + m * ((z - 1.0) / (z * z))
    return m, f, d1


def stage_slopes(u, s, c, a, b):
    """First and second u-derivatives of the stage value
    ``s*u*phi(a - b*u^2) + c*exp(-b*u^2)``, from a single ``math.expm1``.

    phi and phi' are :func:`stage_phis`; phi'' takes its series at
    |z| < 1e-2.
    """
    q = b * u * u
    z = a - q
    m, f, d1 = stage_phis(z)
    if abs(z) < 1e-2:
        d2 = 1.0 / 3.0 + z * (0.25 + z * (0.1 + z / 36.0))
    else:
        d2 = (z - 2.0) / (z * z) + m * (((z - 2.0) * z + 2.0) / (z * z * z))
    e = c * math.exp(-q)
    return (s * (f - 2.0 * q * d1) - 2.0 * b * u * e,
            s * b * u * (4.0 * q * d2 - 6.0 * d1) + 2.0 * b * e * (2.0 * q - 1.0))


def stage_value(u, s, c, a, b):
    """The stage value ``s*u*phi(a - b*u^2) + c*exp(-b*u^2)``."""
    q = b * u * u
    z = a - q
    f = 1.0 + z / 2.0 + z * z / 6.0 if abs(z) < 1e-5 else math.expm1(z) / z
    return s * u * f + c * math.exp(-q)


def warm_start(later, top):
    """Where a cell's root solve starts, from ``later``, the maximizers of
    the cells after it, nearest first: u1 (r1/r2)^3 r3 with r_k = u_k /
    u_(k+1), the cubic extrapolation of log u from the last four, where
    those four are positive and it lies inside (0, top); else the next
    cell's maximizer, or top for the last cell."""
    if not later:
        return top
    if len(later) >= 4 and min(later[:4]) > 0.0:
        u1, u2, u3, u4 = later[:4]
        r = (u1 / u2) / (u2 / u3)
        x = u1 * (r * r * r) * (u3 / u4)
        if 0.0 < x < top:
            return x
    return later[0]


def stage_argmax(s, c, a, b, top, guess):
    """Maximizer over [0, top] of the stage value, the evaluations spent and
    the stage value the sweep takes.

    Safeguarded Newton steps from ``guess`` find the slope's root; each step
    is tested against the root tolerance first, and an accepted step returns
    the stage value of the evaluation it came from.  Otherwise, where the
    first slope is positive, the box end is probed and returned if the slope
    there is positive too.  Every other exit returns the stage value at the
    maximizer."""
    if s == 0.0:
        return 0.0, 0, stage_value(0.0, s, c, a, b)
    u, lo, hi, evals = guess, 0.0, top, 0
    while True:
        d1, d2 = stage_slopes(u, s, c, a, b)
        evals += 1
        step = -d1 / d2 if d2 < 0.0 else math.inf
        if abs(step) <= _ROOT_RTOL * u:
            return (min(max(u + step, 0.0), top), evals,
                    stage_value(u, s, c, a, b))
        if d1 > 0.0:
            if evals == 1:
                if u == top:
                    return top, evals, stage_value(top, s, c, a, b)
                evals += 1
                if stage_slopes(top, s, c, a, b)[0] > 0.0:
                    return top, evals, stage_value(top, s, c, a, b)
            lo = u
        else:
            hi = u
        if evals >= _MAX_ROOT_EVALS:
            return math.nan, evals, stage_value(math.nan, s, c, a, b)
        u += step
        if not lo < u < hi:
            u = 0.5 * (lo + hi)


def oracle_sweep(p, grid, cap=None):
    """The backward sweep over the box [0, sqrt(cap)], one
    :func:`stage_argmax` call per cell from its :func:`warm_start`; returns
    the cells and an :class:`OptimizerResult`."""
    n, dt = grid.n_steps, grid.dt
    cap = 1.0 / (2.0 * dt) if cap is None else float(cap)
    top = math.sqrt(cap)
    a = p.gamma * dt
    decay = math.exp(-a)
    u = np.empty(n)
    s, c, iterations = 1.0, 0.0, 0
    for j in range(n - 1, -1, -1):
        guess = warm_start(u[j + 1:j + 5].tolist(), top)
        try:
            uj, evals, best = stage_argmax(s, c, a, dt, top, guess)
        except OverflowError:
            best = math.inf
        if not (math.isfinite(best) and best > 0.0):
            raise FloatingPointError(
                f"stage value {best!r} is not finite and positive in cell {j}")
        u[j] = uj
        iterations += evals
        s, c = decay * s / best, 1.0
    kkt = _projected_gradient_norm(u, _u_gradient(u, p, grid), 0.0, top)
    return u * u, OptimizerResult(
        iterations, kkt / (2.0 * math.sqrt(p.gamma) * dt), cap)


def former_argmax(s, c, a, b, top, guess):
    """The former sweep's root solve: the maximizer over [0, top] and the
    evaluations spent.  The box end is probed only when the slope at
    ``guess`` is positive, before any Newton step is tested."""
    if s == 0.0:
        return 0.0, 0
    u = guess
    d1, d2 = stage_slopes(u, s, c, a, b)
    evals = 1
    if d1 > 0.0:
        if u == top:
            return top, evals
        evals += 1
        if stage_slopes(top, s, c, a, b)[0] > 0.0:
            return top, evals
    lo, hi = 0.0, top
    while evals < _MAX_ROOT_EVALS:
        if d1 > 0.0:
            lo = u
        else:
            hi = u
        step = -d1 / d2 if d2 < 0.0 else math.inf
        if abs(step) <= _ROOT_RTOL * u:
            return min(max(u + step, 0.0), top), evals
        u += step
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
        d1, d2 = stage_slopes(u, s, c, a, b)
        evals += 1
    return math.nan, evals


def former_sweep(p, grid, cap=None, argmax=former_argmax):
    """The former backward sweep: one ``argmax`` call per cell from the next
    cell's maximizer, and the stage value evaluated again at the result;
    returns the cells and an :class:`OptimizerResult`."""
    n, dt = grid.n_steps, grid.dt
    cap = 1.0 / (2.0 * dt) if cap is None else float(cap)
    top = math.sqrt(cap)
    a = p.gamma * dt
    decay = math.exp(-a)
    u = np.empty(n)
    s, c, guess, iterations = 1.0, 0.0, top, 0
    for j in range(n - 1, -1, -1):
        try:
            uj, evals = argmax(s, c, a, dt, top, guess)
            best = stage_value(uj, s, c, a, dt)
        except OverflowError:
            best = math.inf
        if not (math.isfinite(best) and best > 0.0):
            raise FloatingPointError(
                f"stage value {best!r} is not finite and positive in cell {j}")
        u[j] = guess = uj
        iterations += evals
        s, c = decay * s / best, 1.0
    kkt = _projected_gradient_norm(u, _u_gradient(u, p, grid), 0.0, top)
    return u * u, OptimizerResult(
        iterations, kkt / (2.0 * math.sqrt(p.gamma) * dt), cap)


def probe_first_argmax(s, c, a, b, top, guess):
    """The root solve as it was before the box-end probe became lazy: the
    slope at ``top`` first, then Newton steps from ``guess`` (each slope
    evaluation counted, the probe included)."""
    if s == 0.0:
        return 0.0, 0
    d1, d2 = stage_slopes(top, s, c, a, b)
    if d1 > 0.0:
        return top, 1
    lo, hi, u = 0.0, top, top
    evals = 1
    if guess < top:
        u = guess
        d1, d2 = stage_slopes(u, s, c, a, b)
        evals += 1
    while evals < _MAX_ROOT_EVALS:
        if d1 > 0.0:
            lo = u
        else:
            hi = u
        step = -d1 / d2 if d2 < 0.0 else math.inf
        if abs(step) <= _ROOT_RTOL * u:
            return min(max(u + step, 0.0), top), evals
        u += step
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
        d1, d2 = stage_slopes(u, s, c, a, b)
        evals += 1
    return math.nan, evals


def _dp(p, grid, cap=None):
    prof, result = optimize_profile(p, grid, gamma1_max=cap)
    return functional_value(prof, p, grid), result


def _batch_functional(u, p, grid):
    """The cell functional of each row of ``u`` (square roots of cells)."""
    cells = u * u
    dt = grid.dt
    ts = grid.nodes()[:-1]
    big_g = np.concatenate((np.zeros((u.shape[0], 1)),
                            np.cumsum(cells[:, :-1], axis=1) * dt), axis=1)
    expo = np.exp(-p.gamma * (grid.t_end - ts) - big_g)
    w = expo * u * _phi_pair((p.gamma - cells) * dt)[0]
    return 2.0 * math.sqrt(p.gamma) * dt * np.sum(w, axis=1)


def _brute_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for n, points in ((2, 401), (3, 61), (4, 25)):
        for k in range(10):
            gamma = float(rng.uniform(0.2, 3.0))
            T = float(rng.uniform(0.5, 6.0)) / gamma
            cap = None if k % 3 == 0 else gamma * float(rng.uniform(0.5, 50.0))
            cases.append(pytest.param(n, points, gamma, T, cap,
                                      id=f"n{n}-{k}"))
    return cases


@pytest.mark.parametrize("n, points, gamma, T, cap", _brute_cases())
def test_brute_force_grid_never_beats_dp(n, points, gamma, T, cap):
    p = SystemParams(gamma=gamma, transfer_time=T)
    grid = TimeGrid(T, n)
    f_dp, _ = _dp(p, grid, cap)
    top = math.sqrt(1.0 / (2.0 * grid.dt) if cap is None else cap)
    axes = np.meshgrid(*[np.linspace(0.0, top, points)] * n, indexing="ij")
    u = np.stack([a.ravel() for a in axes], axis=1)
    assert np.max(_batch_functional(u, p, grid)) <= f_dp + 1e-13


@settings(max_examples=25, deadline=None)
@given(gamma=st.floats(0.2, 3.0), gamma_t=st.floats(0.5, 6.0),
       n=st.integers(10, 400),
       cap_factor=st.one_of(st.none(), st.floats(0.5, 50.0)))
def test_dp_never_below_ascent(gamma, gamma_t, n, cap_factor):
    T = gamma_t / gamma
    p = SystemParams(gamma=gamma, transfer_time=T)
    grid = TimeGrid(T, n)
    cap = None if cap_factor is None else cap_factor * gamma
    f_dp, result = _dp(p, grid, cap)
    cells, _ = ascent_oracle(p, grid, cap)
    f_asc = cell_functional(cells, p, grid)
    assert f_dp >= f_asc - 1e-13
    assert result.kkt_residual <= 1e-9
    assert result.iterations >= n


def _flat(p, grid, cap):
    """The flat loop's cells and result."""
    prof, result = optimize_profile(p, grid, gamma1_max=cap)
    return prof.values[:-1], result


def _assert_agrees(p, grid, cells, result, ref_cells):
    """The flat loop's optimum equals a former sweep's up to round-off: the
    same zero cells, each cell within a few root tolerances, the functional
    to 1e-15 and a KKT residual of at most 1e-9."""
    assert np.array_equal(cells == 0.0, ref_cells == 0.0)
    assert np.all(np.abs(cells - ref_cells) <= 4.0 * _ROOT_RTOL * ref_cells)
    f, f_ref = (cell_functional(x, p, grid) for x in (cells, ref_cells))
    assert abs(f - f_ref) <= 1e-15 * f_ref
    assert result.kkt_residual <= 1e-9


@settings(max_examples=40, deadline=None)
@given(gamma=st.floats(0.2, 3.0), gamma_t=st.floats(0.5, 6.0),
       n=st.integers(10, 400),
       cap_factor=st.one_of(st.none(), st.floats(0.5, 50.0)))
@example(gamma=1.0, gamma_t=720.0, n=20_000, cap_factor=None)
@example(gamma=1.0, gamma_t=7050.0, n=10, cap_factor=None)  # sigma underflows
def test_dp_is_the_probe_first_dp(gamma, gamma_t, n, cap_factor):
    T = gamma_t / gamma
    p = SystemParams(gamma=gamma, transfer_time=T)
    grid = TimeGrid(T, n)
    cap = None if cap_factor is None else cap_factor * gamma
    cells, result = _flat(p, grid, cap)
    ref_cells, ref = former_sweep(p, grid, cap, argmax=probe_first_argmax)
    _assert_agrees(p, grid, cells, result, ref_cells)
    assert result.iterations <= ref.iterations


def _sweep_cases(test):
    """Draws of gamma, gamma*T, n and a cap of 10**log_cap times the flat
    loop's search bound gamma + 700/dt (None: the default 1/(2 dt)), so
    capped, uncapped and huge-but-below-the-bound caps alike leave the
    searched box [0, sqrt(cap)]."""
    # the bench point; gamma dt = 70; the cap at the bound; every cell capped
    for gamma, gamma_t, n, log_cap in ((1.0, 3.0, 3000, None),
                                       (1.0, 700.0, 10, None),
                                       (50.0, 700.0, 10, 0.0),
                                       (1.0, 5.0, 100, -8.0)):
        test = example(gamma=gamma, gamma_t=gamma_t, n=n,
                       log_cap=log_cap)(test)
    test = given(gamma=st.floats(0.05, 50.0), gamma_t=st.floats(0.1, 700.0),
                 n=st.integers(10, 3000),
                 log_cap=st.one_of(st.none(), st.floats(-8.0, 0.0)))(test)
    return settings(max_examples=60, deadline=None)(test)


def _problem(gamma, gamma_t, n, log_cap):
    T = gamma_t / gamma
    p = SystemParams(gamma=gamma, transfer_time=T)
    grid = TimeGrid(T, n)
    cap = None
    if log_cap is not None:
        cap = (gamma + 700.0 / grid.dt) * 10.0 ** log_cap
    return p, grid, cap


@_sweep_cases
def test_flat_loop_is_the_oracle_sweep(gamma, gamma_t, n, log_cap):
    p, grid, cap = _problem(gamma, gamma_t, n, log_cap)
    cells, result = _flat(p, grid, cap)
    ref_cells, ref = oracle_sweep(p, grid, cap)
    assert cells.tobytes() == ref_cells.tobytes()
    assert result.iterations == ref.iterations
    assert result.kkt_residual == ref.kkt_residual


@_sweep_cases
def test_flat_loop_agrees_with_former_sweep(gamma, gamma_t, n, log_cap):
    # the extrapolated start moves the cells by round-off only, and never
    # costs more than a few evaluations over the former warm start
    p, grid, cap = _problem(gamma, gamma_t, n, log_cap)
    cells, result = _flat(p, grid, cap)
    ref_cells, ref = former_sweep(p, grid, cap)
    _assert_agrees(p, grid, cells, result, ref_cells)
    assert result.iterations <= 1.1 * ref.iterations


def test_vector_phis_are_the_sweeps():
    # the value, the gradient and the KKT residual take phi and phi' from
    # _phi_pair, and each element must have the bits of the sweep's scalars,
    # at and beside both series cut-offs too
    cuts = [sign * cut for cut in (1e-5, 1e-4) for sign in (-1.0, 1.0)]
    beside = [np.nextafter(cut, to) for cut in cuts for to in (-1.0, 1.0)]
    small = np.geomspace(1e-12, 1e-2, 5000)
    z = np.concatenate((np.linspace(-700.0, 5.0, 200_001), small, -small,
                        [0.0, -0.0], cuts, beside))
    phi, dphi = _phi_pair(z)
    want = np.array([stage_phis(x)[1:] for x in z.tolist()])
    assert np.array_equal(phi, want[:, 0])
    assert np.array_equal(dphi, want[:, 1])
    # a batch of rows keeps its shape
    rows = _phi_pair(z[:200].reshape(8, 25))
    assert [r.shape for r in rows] == [(8, 25), (8, 25)]
    assert np.array_equal(rows[0].ravel(), phi[:200])


def test_box_end_probed_when_guess_slopes_up():
    # the slope is positive on all of [0, 1]: from a guess below the box
    # end, only the probe at the end can return it exactly
    s, c, a, b, top = 1.0, 1.0, 1e-3, 1e-3, 1.0
    assert stage_slopes(top, s, c, a, b)[0] > 0.0
    value = stage_value(top, s, c, a, b)
    assert stage_argmax(s, c, a, b, top, 0.5) == (top, 2, value)
    assert stage_argmax(s, c, a, b, top, top) == (top, 1, value)
    assert probe_first_argmax(s, c, a, b, top, 0.5) == (top, 1)


def test_sweep_evaluations_per_cell():
    # a count, not a timing: the extrapolated start takes most cells in one
    # evaluation (1.267 n here), where the next cell's maximizer took 2.63 n
    # and a per-cell probe of the box end 3.63 n
    n = 10_000
    _, result = optimize_profile(SystemParams(1.0, 3.0), TimeGrid(3.0, n))
    assert result.iterations <= 1.35 * n


@pytest.mark.parametrize("gamma_t", [720.0, 2000.0])
def test_long_horizon_stays_finite(gamma_t):
    # sigma_j = E_j / V_{j+1} only shrinks going backward, where the forward
    # ratio V_{j+1} / E_j overflows beyond gamma*T ~ 709.  The ascent from
    # gamma1 = gamma stalls at F = 0 here (exp(-G) underflows), so the oracle
    # starts from the truncated closed form.
    p = SystemParams(gamma=1.0, transfer_time=gamma_t)
    grid = TimeGrid(gamma_t, 20_000)
    f_dp, result = _dp(p, grid)
    start = CouplingProfile.optimal(truncation=grid.dt)
    cells, _ = ascent_oracle(p, grid, initial=start)
    f_asc = cell_functional(cells, p, grid)
    assert math.isfinite(f_dp)
    assert f_dp >= f_asc - 1e-13
    assert result.kkt_residual <= 1e-9


def test_stage_overflow_names_the_cell():
    # gamma*dt = 1000: phi((gamma - g) dt) overflows in every cell
    p = SystemParams(gamma=1000.0, transfer_time=10.0)
    with pytest.raises(FloatingPointError, match="in cell 9"):
        optimize_profile(p, TimeGrid(10.0, 10))


def test_underflowed_stages_take_zero_coupling():
    # gamma*dt = 705: the last cell's stage value is ~1e303, so sigma
    # underflows to 0 in every earlier cell, whose best coupling is then 0
    p = SystemParams(gamma=1.0, transfer_time=7050.0)
    grid = TimeGrid(7050.0, 10)
    prof, result = optimize_profile(p, grid)
    assert np.all(prof.values[:9] == 0.0)
    assert prof.values[9] == result.gamma1_max
    f_dp = functional_value(prof, p, grid)
    cells, _ = ascent_oracle(p, grid)
    f_asc = cell_functional(cells, p, grid)
    assert math.isfinite(f_dp)
    assert f_dp >= f_asc - 1e-13
    assert result.kkt_residual <= 1e-9
