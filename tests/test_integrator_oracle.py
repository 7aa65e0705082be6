"""Array-shaped integrator and profile evaluation against the scalar loop.

The oracle below is the step-by-step integrator the array version replaced:
per macro step it evaluates the profile at each stage time with a scalar
lookup, halves the step while ``(g_peak + gl) * h`` exceeds the cap, runs
one scalar RK4 map per substep and folds the substeps into the
coefficients.  It also returns each step's map and the births, the
generators of the noise kernels, and :func:`commutator_oracle` sums the
commutator rows over them the way a separate second pass did.  The array
version must reproduce it bit for bit: the coefficients, the commutator
deficits and the failures, with the same reason and step.
"""

import math
from array import array
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscxfer import simulate
from oscxfer.optimize import functional_value
from oscxfer.simulate import (
    _BLOCK,
    IntegrationError,
    IntegratorConfig,
    integrate_transfer,
    transfer_amplitude,
)
from oscxfer.types import (
    DAMPING_CAP_FACTOR,
    CouplingProfile,
    ProfileKind,
    ProfileSingularityError,
    SystemParams,
    TimeGrid,
    profile_values,
)

MAX_HALVINGS = 26


def scalar_profile_value(c, p, t):
    """gamma1(t) by the scalar lookup, one time at a time."""
    T = p.transfer_time
    if c.kind is ProfileKind.CONSTANT:
        return float(c.gamma1)
    if c.kind is ProfileKind.OPTIMAL_CLOSED_FORM:
        if c.truncation is not None and t >= T - c.truncation:
            return float(c.gamma1_max)
        x = 2.0 * p.gamma * (T - t)
        if x <= 0.0:
            raise ProfileSingularityError("closed form diverges at t = T")
        if x > 700.0:
            return p.gamma * math.exp(-x)
        return p.gamma / math.expm1(x)
    grid = c.grid
    s = t / grid.dt
    j = math.floor(s)
    if s - j > 1.0 - 1e-9:
        j += 1
    j = min(max(j, 0), grid.n_nodes - 1)
    return float(c.values[j])


def rk4_map(g1_at, beta, root, gl, t, h):
    a0 = g1_at(t)
    am = g1_at(t + 0.5 * h)
    a1 = g1_at(t + h * (1.0 - 1e-8))
    s0 = root * math.sqrt(a0)
    sm = root * math.sqrt(am)
    s1 = root * math.sqrt(a1)
    a0 += gl
    am += gl
    a1 += gl

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

    ky1 = -beta
    ky2 = -beta * (1.0 + 0.5 * h * ky1)
    ky3 = -beta * (1.0 + 0.5 * h * ky2)
    ky4 = -beta * (1.0 + h * ky3)
    myy = 1.0 + h / 6.0 * (ky1 + 2.0 * ky2 + 2.0 * ky3 + ky4)
    return mxx, myx, myy


class Generators(NamedTuple):
    """The scalar loop's coefficients and the noise kernels' generators.

    ``step_maps``, shape ``(3, n_steps)``, holds macro step i's map
    ``(mxx, myx, myy)`` in column i; ``k1_births`` is ``sqrt(2 g1)`` on the
    nodes; ``channel_births`` are the constant births of ``k2``, of the
    loss ports and of the beam-splitter port.  Row i of a kernel is the
    births of nodes j <= i carried through the maps of steps j..i-1.
    """

    grid: TimeGrid
    a11: np.ndarray
    a21: np.ndarray
    a22: np.ndarray
    step_maps: np.ndarray
    k1_births: np.ndarray
    channel_births: tuple[float, float, float]


def refining_cells(c, grid):
    """``(node values, macro steps per cell)`` of a sampled profile whose grid
    ``grid`` refines exactly, whose stages read the cell by index; else None."""
    if c.kind is ProfileKind.SAMPLED_GRID:
        pg, n = c.grid, grid.n_steps
        if (pg.n_steps <= n and n % pg.n_steps == 0
                and math.isclose(pg.t_end, grid.t_end, rel_tol=1e-12)):
            return c.values, n // pg.n_steps
    return None


def scalar_integrate(c, p, cfg):
    """The scalar loop; returns its :class:`Generators`."""
    grid = TimeGrid(p.transfer_time, cfg.n_steps)
    n, dt = cfg.n_steps, grid.dt
    g, gl, eta = p.gamma, p.gamma_loss, p.eta
    beta = g + gl
    root = 2.0 * math.sqrt(eta * g)

    def g1_at(t):
        return scalar_profile_value(c, p, t)

    cells = refining_cells(c, grid)

    a11, a21, a22 = (np.empty(n + 1) for _ in range(3))
    a11[0], a21[0], a22[0] = 1.0, 0.0, 1.0
    step_maps = np.empty((3, n))
    A11, A21, A22 = 1.0, 0.0, 1.0
    for i in range(n):
        t0 = i * dt
        if cells is not None:
            g_cell = float(cells[0][i // cells[1]])

            def g1_step(tau, _v=g_cell):
                return _v
        else:
            g1_step = g1_at
        g_peak = max(g1_step(t0), g1_step(t0 + 0.5 * dt),
                     g1_step(t0 + dt * (1.0 - 1e-8)))
        m, h, halvings = 1, dt, 0
        while (g_peak + gl) * h > DAMPING_CAP_FACTOR:
            m *= 2
            h = dt / m
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise IntegrationError("profile too stiff to substep", i)
        mxx, myx, myy = 1.0, 0.0, 1.0
        for sub in range(m):
            pxx, pyx, pyy = rk4_map(g1_step, beta, root, gl, t0 + sub * h, h)
            myx = pyx * mxx + pyy * myx
            mxx = pxx * mxx
            myy = pyy * myy
        A21 = myx * A11 + myy * A21
        A11 = mxx * A11
        A22 = myy * A22
        if not (math.isfinite(A11) and math.isfinite(A21)
                and math.isfinite(A22)):
            raise IntegrationError("non-finite transfer coefficient", i)
        a11[i + 1], a21[i + 1], a22[i + 1] = A11, A21, A22
        step_maps[:, i] = mxx, myx, myy
    births = np.sqrt(2.0 * np.array([g1_at(t) for t in grid.nodes()]))
    channels = (-math.sqrt(2.0 * g * eta), math.sqrt(2.0 * gl),
                math.sqrt(2.0 * g * (1.0 - eta)))
    return Generators(grid, a11, a21, a22, step_maps, births, channels)


def commutator_oracle(gen):
    """Per-node deficits ``(d1, d2)`` of the commutator sum rules, summed in
    a second pass over the generators.

    Every channel is a column (x, y) moved by the same step maps, so the
    weighted row norms only need the columns' summed second moments
    (xx, xy, yy).  They are propagated step by step, with each node's births
    added after the step; the column born at t_0 enters at half weight, and
    the diagonal's half weight is taken off at the end.
    """
    # second moments of one node's births, summed over the channels; only
    # the k1 birth varies in time
    b1 = gen.k1_births
    b2, bl, bv = gen.channel_births
    bxx = b1 * b1 + bl * bl
    bxy = b1 * b2
    byy = b2 * b2 + bl * bl + bv * bv

    sxx, sxy, syy = 0.5 * float(bxx[0]), 0.5 * float(bxy[0]), 0.5 * byy
    norm_x, norm_y = array("d", [sxx]), array("d", [syy])
    for a, b, c, pxx, pxy in zip(*map(memoryview, gen.step_maps),
                                 memoryview(bxx[1:]), memoryview(bxy[1:])):
        sxx, sxy, syy = (a * a * sxx + pxx,
                         a * (b * sxx + c * sxy) + pxy,
                         b * b * sxx + 2.0 * b * c * sxy + c * c * syy + byy)
        norm_x.append(sxx)
        norm_y.append(syy)

    dt = gen.grid.dt
    d1 = 1.0 - (gen.a11 ** 2 + dt * (np.frombuffer(norm_x) - 0.5 * bxx))
    d2 = 1.0 - (gen.a21 ** 2 + gen.a22 ** 2
                + dt * (np.frombuffer(norm_y) - 0.5 * byy))
    return d1, d2


def _sampled(T, cells, values):
    return CouplingProfile.sampled(TimeGrid(T, cells), np.asarray(values))


def _ramp(T, cells):
    t = np.arange(cells + 1) * (T / cells)
    return _sampled(T, cells, 0.3 + 2.0 * np.sin(1.7 * t) ** 2)


# a ramp held at 5.0 on the final window [1.7, 2.0], the hold written into
# the node values the way the optimizer writes its box cap
HELD = _sampled(2.0, 100, np.where(np.arange(101) >= 85, 5.0,
                                   0.5 + np.linspace(0, 1, 101)))


# one cell per step: stiff cells (rate 30, two halvings) alternate with
# non-stiff ones (rate 0.5) from a stiff first step on, and cell 201 (rate
# 300, five halvings) joins its stiff neighbours, so stiff steps break the
# runs of non-stiff steps, whose myy is one decay factor, in mid-block
def _alternating():
    values = np.where(np.arange(401) % 2, 0.5, 30.0)
    values[201] = 300.0
    return _sampled(2.0, 400, values)


ALTERNATING = _alternating()


def _signed_zeros(cells):
    """Zero rates alternating +0.0 and -0.0, with a stiff spike of 30.0 on
    every 7th node; sqrt(-0.0) is -0.0, so the signs reach the stage sums."""
    values = np.where(np.arange(cells + 1) % 2, -0.0, 0.0)
    values[::7] = 30.0
    return _sampled(2.0, cells, values)


CASES = {
    "constant": (CouplingProfile.constant(0.8),
                 SystemParams(gamma=1.0, transfer_time=2.0), 500),
    # cut = dt: the last steps halve up to four times
    "optimal-cut-dt": (CouplingProfile.optimal(truncation=0.01),
                       SystemParams(gamma=1.0, transfer_time=3.0), 300),
    # the tail halves up to 14 times, so single steps span substep blocks
    "optimal-deep-tail": (CouplingProfile.optimal(truncation=1e-5),
                          SystemParams(gamma=1.0, transfer_time=3.0), 300),
    # every step halves once, across more than one block of macro steps
    "constant-every-step-stiff": (CouplingProfile.constant(600.0),
                                  SystemParams(gamma=1.0, transfer_time=1.0),
                                  10_000),
    "sampled-refining": (_ramp(2.0, 100),
                         SystemParams(gamma=1.0, transfer_time=2.0), 400),
    "sampled-non-refining": (_ramp(2.0, 150),
                             SystemParams(gamma=1.0, transfer_time=2.0), 400),
    # a held tail on a refining grid: each cell's substeps read its value
    "sampled-refining-held": (HELD,
                              SystemParams(gamma=1.0, transfer_time=2.0), 400),
    "sampled-alternating-stiff": (ALTERNATING,
                                  SystemParams(gamma=1.0, transfer_time=2.0),
                                  400),
    # zero rates of either sign, read by index and by time
    "sampled-signed-zeros-refining": (
        _signed_zeros(100), SystemParams(gamma=1.0, transfer_time=2.0), 400),
    "sampled-signed-zeros-non-refining": (
        _signed_zeros(150), SystemParams(gamma=1.0, transfer_time=2.0), 400),
    # two full blocks of macro steps, then a block of 7 that reuses the
    # workspace at a narrower width: four stiff steps of the closed form,
    # then three held at a rate of 0.5, which are not stiff
    "optimal-short-tail-block": (
        CouplingProfile.optimal(truncation=3 * 3.0 / (2 * _BLOCK + 7),
                                gamma1_max=0.5),
        SystemParams(gamma=1.0, transfer_time=3.0), 2 * _BLOCK + 7),
    "lossy-optimal": (CouplingProfile.optimal(truncation=1e-3),
                      SystemParams(gamma=1.0, transfer_time=3.0, eta=0.81,
                                   gamma_loss=0.05), 1000),
}


# The ids keep the names these cases ran under while the step map was a
# parameter of the integrator
def _rk4_id(name):
    return f"{name}-Method.RK4"


@pytest.mark.parametrize("name", sorted(CASES), ids=_rk4_id)
def test_array_integrator_is_the_scalar_loop(name):
    c, p, n = CASES[name]
    cfg = IntegratorConfig(n_steps=n, kernel_tracking=True)
    got = integrate_transfer(c, p, cfg)
    gen = scalar_integrate(c, p, cfg)
    # bytes, not values: the CSV writer prints the sign of a zero
    assert got.a11.tobytes() == gen.a11.tobytes()
    assert got.a21.tobytes() == gen.a21.tobytes()
    assert got.a22.tobytes() == gen.a22.tobytes()
    d1, d2 = commutator_oracle(gen)
    assert got.deficits[0].tobytes() == d1.tobytes()
    assert got.deficits[1].tobytes() == d2.tobytes()


def test_stiff_substeps_are_evaluated_at_once(monkeypatch):
    # the block's stiff steps halve one to four times, and all their
    # substeps, of four widths, are evaluated in one call after the macro
    # steps' one
    c, p, n = CASES["optimal-cut-dt"]
    dt = p.transfer_time / n
    counts = []
    for i in range(n):
        rate = max(scalar_profile_value(c, p, t) for t in (
            i * dt, i * dt + 0.5 * dt, i * dt + dt * (1.0 - 1e-8)))
        k = 0
        while rate * (dt / 2**k) > DAMPING_CAP_FACTOR:
            k += 1
        counts.append(k)
    assert set(counts) == {0, 1, 2, 3, 4}
    sizes = []

    def counting(c, p, ts, **kwargs):
        sizes.append(np.size(ts))
        return profile_values(c, p, ts, **kwargs)

    monkeypatch.setattr(simulate, "profile_values", counting)
    transfer_amplitude(c, p, IntegratorConfig(n_steps=n))
    substeps = sum(2**k for k in counts if k)
    assert sizes == [3 * n, 3 * substeps]


@pytest.mark.parametrize("name", sorted(CASES))
def test_births_are_the_start_stages(name):
    # the integrator takes node j's birth from step j's start stage: the
    # same time j*dt, but on a refining grid the stage reads the cell by
    # index while the scalar loop's births look the time up
    c, p, n = CASES[name]
    grid = TimeGrid(p.transfer_time, n)
    births = [scalar_profile_value(c, p, t) for t in grid.nodes()[:-1]]
    cells = refining_cells(c, grid)
    if cells is None:
        starts = [scalar_profile_value(c, p, j * grid.dt) for j in range(n)]
    else:
        starts = [float(cells[0][j // cells[1]]) for j in range(n)]
    assert np.array(starts).tobytes() == np.array(births).tobytes()


def test_hold_applies_on_a_refining_grid():
    # the cells path must carry the held tail exactly as the functional's
    # left-node cells do, the jump onto the hold included
    p = SystemParams(gamma=1.0, transfer_time=2.0)
    got = integrate_transfer(HELD, p, IntegratorConfig(n_steps=400))
    assert abs(got.fidelity - functional_value(HELD, p, HELD.grid)) < 1e-8


def _spiked(cells, spikes, gamma1=1.0):
    """Node values ``gamma1`` with the ``{node: value}`` spikes."""
    values = np.full(cells + 1, gamma1)
    for j, v in spikes.items():
        values[j] = v
    return values


# A cell whose rate no substep can resolve
STIFF = 1e300
# With the receiver resolved, a coefficient still overflows inside a step
# when the stage sums of the sender's decay, about 6*gamma1, pass the
# largest double, as they do for gamma1 = 5e307.  Halving resolves such a
# cell only on a grid with dt near 1e-307.  There the largest double is
# resolved too, but with a loss rate added it overflows the rate itself,
# which no halving resolves.  The step 1e-307 is still a normal double,
# which ``TimeGrid`` requires.
TINY_T = 1e-306
MAX = float(np.finfo(float).max)
LOSSY = SystemParams(gamma=2e300, gamma_loss=1e300, transfer_time=TINY_T,
                     omega0=1e308)

FAILURES = {
    # one cell whose rate no substep can resolve; by index and by time
    "too-stiff-refining": (_sampled(1.0, 100, _spiked(100, {37: STIFF})),
                           SystemParams(gamma=1.0, transfer_time=1.0), 100),
    "too-stiff-non-refining": (_sampled(1.0, 30, _spiked(30, {11: STIFF})),
                               SystemParams(gamma=1.0, transfer_time=1.0), 100),
    "too-stiff-second-block": (
        _sampled(1.0, 10_000, _spiked(10_000, {9000: STIFF})),
        SystemParams(gamma=1.0, transfer_time=1.0), 10_000),
    # an overflowing cell: the map of step 5 is non-finite
    "non-finite": (_sampled(TINY_T, 10, _spiked(10, {5: 5e307})),
                   SystemParams(gamma=1.0, transfer_time=TINY_T), 10),
    # a cell of 1.7e308, itself within a factor of 1.06 of the largest
    # double: the same step fails
    "non-finite-both-methods": (
        _sampled(TINY_T, 10, _spiked(10, {5: 1.7e308})),
        SystemParams(gamma=1.0, transfer_time=TINY_T), 10),
    "non-finite-before-too-stiff": (
        _sampled(TINY_T, 10, _spiked(10, {5: 1.7e308, 7: MAX})), LOSSY, 10),
    "too-stiff-before-non-finite": (
        _sampled(TINY_T, 10, _spiked(10, {3: MAX, 5: 1.7e308})), LOSSY, 10),
}


def _failure(fn):
    """(reason, step) of the IntegrationError ``fn`` raises, or None."""
    try:
        fn()
    except IntegrationError as exc:
        return exc.reason, exc.step
    return None


@pytest.mark.parametrize("name", sorted(FAILURES), ids=_rk4_id)
def test_failures_match_the_scalar_loop(name):
    c, p, n = FAILURES[name]
    cfg = IntegratorConfig(n_steps=n)
    got = _failure(lambda: integrate_transfer(c, p, cfg))
    assert got is not None
    assert got == _failure(lambda: scalar_integrate(c, p, cfg))


def test_failure_steps_are_pinned():
    def step(name):
        c, p, n = FAILURES[name]
        return _failure(lambda: integrate_transfer(
            c, p, IntegratorConfig(n_steps=n)))

    stiff, finite = "profile too stiff to substep", "non-finite transfer coefficient"
    assert step("too-stiff-refining") == (stiff, 37)
    assert step("too-stiff-second-block") == (stiff, 9000)
    assert step("non-finite") == (finite, 5)
    assert step("non-finite-both-methods") == (finite, 5)
    assert step("non-finite-before-too-stiff") == (finite, 5)
    assert step("too-stiff-before-non-finite") == (stiff, 3)


T_PROP = 2.0
P_PROP = SystemParams(gamma=1.3, transfer_time=T_PROP)
GRID = TimeGrid(T_PROP, 40)
PROFILES = [
    (CouplingProfile.constant(0.7), P_PROP),
    (CouplingProfile.optimal(truncation=GRID.dt), P_PROP),
    (CouplingProfile.optimal(truncation=1e-9, gamma1_max=3.0), P_PROP),
    (CouplingProfile.sampled(GRID, 0.5 + np.arange(41) % 7), P_PROP),
    # gamma*(T - t) passes 350 for t < 0.25: the closed form's exp branch
    # (2*gamma*(T - t) > 700) and its expm1 branch meet in one array
    (CouplingProfile.optimal(truncation=GRID.dt),
     SystemParams(gamma=200.0, transfer_time=T_PROP)),
]
# nodes, just below and above them, and the edges of the truncation windows
SPECIAL_TIMES = sorted({
    x for j in range(GRID.n_nodes) for x in (
        j * GRID.dt, np.nextafter(j * GRID.dt, -1.0),
        np.nextafter(j * GRID.dt, 3.0), j * GRID.dt - 1e-10 * GRID.dt)
} | {
    x for c, _ in PROFILES if c.truncation is not None for x in (
        T_PROP - c.truncation, np.nextafter(T_PROP - c.truncation, 0.0))
})
TIMES = st.lists(
    st.one_of(st.floats(min_value=0.0, max_value=T_PROP),
              st.sampled_from(SPECIAL_TIMES)),
    min_size=1, max_size=60)


@given(which=st.integers(0, len(PROFILES) - 1), ts=TIMES)
@example(which=4, ts=[0.0, 0.1, 0.25, 1.0, 1.9, 2.0])
@settings(max_examples=200, deadline=None)
def test_profile_values_match_scalar_lookup(which, ts):
    c, p = PROFILES[which]
    got = profile_values(c, p, np.array(ts))
    want = [scalar_profile_value(c, p, t) for t in ts]
    one_by_one = [profile_values(c, p, t) for t in ts]
    assert np.array_equal(got, want)
    assert one_by_one == want
    assert all(type(v) is float for v in one_by_one)


@given(ts=st.lists(st.floats(min_value=0.0, max_value=T_PROP - 1e-6),
                   max_size=20),
       bad=st.floats(min_value=T_PROP, max_value=2.0 * T_PROP))
@settings(max_examples=50, deadline=None)
def test_untruncated_optimal_still_raises_at_the_pole(ts, bad):
    c = CouplingProfile.optimal(truncation=None)
    np.testing.assert_array_equal(
        profile_values(c, P_PROP, np.array(ts)),
        [scalar_profile_value(c, P_PROP, t) for t in ts])
    with pytest.raises(ProfileSingularityError):
        profile_values(c, P_PROP, np.array([*ts, bad]))
    with pytest.raises(ProfileSingularityError):
        profile_values(c, P_PROP, bad)
