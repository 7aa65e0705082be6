"""Array-shaped integrator and profile evaluation against the scalar loop.

The oracle below is the step-by-step integrator the array version replaced:
per macro step it evaluates the profile at each stage time with a scalar
lookup, halves the step while ``(g_peak + gl) * h`` exceeds the cap, runs
one scalar RK4 or Heun map per substep and folds the substeps into the
coefficients.  The array version must reproduce it bit for bit: the
coefficients, the recorded step maps, the k1 births and the failures, with
the same reason and step.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscxfer.simulate import (
    IntegrationError,
    IntegratorConfig,
    Method,
    integrate_transfer_lossy,
)
from oscxfer.types import (
    DAMPING_CAP_FACTOR,
    CouplingProfile,
    ProfileKind,
    ProfileSingularityError,
    SystemParams,
    TimeGrid,
    profile_value,
    profile_values,
)

MAX_HALVINGS = 26


def scalar_profile_value(c, p, t):
    """gamma1(t) by the scalar lookup, one time at a time."""
    T = p.transfer_time
    if c.truncation is not None and t >= T - c.truncation:
        return float(c.gamma1_max)
    if c.kind is ProfileKind.CONSTANT:
        return float(c.gamma1)
    if c.kind is ProfileKind.OPTIMAL_CLOSED_FORM:
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


def heun_map(g1_at, beta, root, gl, t, h):
    a0 = g1_at(t)
    a1 = g1_at(t + h * (1.0 - 1e-8))
    s0 = root * math.sqrt(a0)
    s1 = root * math.sqrt(a1)
    a0 += gl
    a1 += gl

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
    return mxx, myx, myy


def scalar_integrate(c, p, cfg):
    """The scalar loop; returns (a11, a21, a22, step_maps, k1_births)."""
    grid = TimeGrid(p.transfer_time, cfg.n_steps)
    n, dt = cfg.n_steps, grid.dt
    g, gl, eta = p.gamma, p.gamma_loss, p.eta
    beta = g + gl
    root = 2.0 * math.sqrt(eta * g)
    step_map = rk4_map if cfg.method is Method.RK4 else heun_map

    def g1_at(t):
        return scalar_profile_value(c, p, t)

    cells = None
    if c.kind is ProfileKind.SAMPLED_GRID:
        pg = c.grid
        if (pg.n_steps <= n and n % pg.n_steps == 0
                and math.isclose(pg.t_end, grid.t_end, rel_tol=1e-12)):
            cells = (c.values, n // pg.n_steps)

    a11, a21, a22 = (np.empty(n + 1) for _ in range(3))
    a11[0], a21[0], a22[0] = 1.0, 0.0, 1.0
    step_maps = np.empty((3, n))
    A11, A21, A22 = 1.0, 0.0, 1.0
    for i in range(n):
        t0 = i * dt
        if cells is not None:
            g_cell = float(cells[0][i // cells[1]])
            g1_step = lambda tau, _v=g_cell: _v  # noqa: E731
            g_peak = g_cell
        else:
            g1_step = g1_at
            g_peak = max(g1_at(t0), g1_at(t0 + 0.5 * dt),
                         g1_at(t0 + dt * (1.0 - 1e-8)))
        m, h, halvings = 1, dt, 0
        while (g_peak + gl) * h > DAMPING_CAP_FACTOR:
            m *= 2
            h = dt / m
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise IntegrationError("profile too stiff to substep", i)
        mxx, myx, myy = 1.0, 0.0, 1.0
        for sub in range(m):
            pxx, pyx, pyy = step_map(g1_step, beta, root, gl, t0 + sub * h, h)
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
    return a11, a21, a22, step_maps, births


def _sampled(T, cells, values):
    return CouplingProfile.sampled(TimeGrid(T, cells), np.asarray(values))


def _ramp(T, cells):
    t = np.arange(cells + 1) * (T / cells)
    return _sampled(T, cells, 0.3 + 2.0 * np.sin(1.7 * t) ** 2)


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
    "lossy-optimal": (CouplingProfile.optimal(truncation=1e-3),
                      SystemParams(gamma=1.0, transfer_time=3.0, eta=0.81,
                                   gamma_loss=0.05), 1000),
}


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("name", sorted(CASES))
def test_array_integrator_is_the_scalar_loop(name, method):
    c, p, n = CASES[name]
    cfg = IntegratorConfig(method=method, n_steps=n, kernel_tracking=True)
    got = integrate_transfer_lossy(c, p, cfg)
    a11, a21, a22, maps, births = scalar_integrate(c, p, cfg)
    assert np.array_equal(got.a11, a11)
    assert np.array_equal(got.a21, a21)
    assert np.array_equal(got.a22, a22)
    assert np.array_equal(got.step_maps, maps)
    assert np.array_equal(got.k1_births, births)


def _spiked(cells, at, gamma1=1.0):
    values = np.full(cells + 1, gamma1)
    for j in at:
        values[j] = 1e300
    return values


FAILURES = {
    # one cell whose rate no substep can resolve; by index and by time
    "too-stiff-refining": (_sampled(1.0, 100, _spiked(100, [37])),
                           SystemParams(gamma=1.0, transfer_time=1.0), 100),
    "too-stiff-non-refining": (_sampled(1.0, 30, _spiked(30, [11])),
                               SystemParams(gamma=1.0, transfer_time=1.0), 100),
    "too-stiff-second-block": (_sampled(1.0, 10_000, _spiked(10_000, [9000])),
                               SystemParams(gamma=1.0, transfer_time=1.0),
                               10_000),
    # gamma*dt = 1e8: RK4's decay map of the receiver overflows by step 5
    # (Heun's, 5e15 per step, only later); at gamma*dt = 1e39 both do
    "non-finite": (CouplingProfile.constant(1.0),
                   SystemParams(gamma=1e9, transfer_time=1.0, omega0=1e12), 10),
    "non-finite-both-methods": (
        CouplingProfile.constant(1.0),
        SystemParams(gamma=1e40, transfer_time=1.0, omega0=1e42), 10),
    "non-finite-before-too-stiff": (
        _sampled(1.0, 10, _spiked(10, [7])),
        SystemParams(gamma=1e9, transfer_time=1.0, omega0=1e12), 10),
    "too-stiff-before-non-finite": (
        _sampled(1.0, 10, _spiked(10, [3])),
        SystemParams(gamma=1e9, transfer_time=1.0, omega0=1e12), 10),
}


def _failure(fn):
    """(reason, step) of the IntegrationError ``fn`` raises, or None."""
    try:
        fn()
    except IntegrationError as exc:
        return exc.reason, exc.step
    return None


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failures_match_the_scalar_loop(name, method):
    c, p, n = FAILURES[name]
    cfg = IntegratorConfig(method=method, n_steps=n)
    got = _failure(lambda: integrate_transfer_lossy(c, p, cfg))
    assert got == _failure(lambda: scalar_integrate(c, p, cfg))
    if method is Method.RK4 or name != "non-finite":
        assert got is not None


def test_failure_steps_are_pinned():
    def step(name):
        c, p, n = FAILURES[name]
        return _failure(lambda: integrate_transfer_lossy(
            c, p, IntegratorConfig(n_steps=n)))

    stiff, finite = "profile too stiff to substep", "non-finite transfer coefficient"
    assert step("too-stiff-refining") == (stiff, 37)
    assert step("too-stiff-second-block") == (stiff, 9000)
    assert step("non-finite") == (finite, 5)
    assert step("non-finite-before-too-stiff") == (finite, 5)
    assert step("too-stiff-before-non-finite") == (stiff, 3)


T_PROP = 2.0
P_PROP = SystemParams(gamma=1.3, transfer_time=T_PROP)
GRID = TimeGrid(T_PROP, 40)
PROFILES = [
    CouplingProfile.constant(0.7, truncation=0.05),
    CouplingProfile.optimal(truncation=GRID.dt),
    CouplingProfile.optimal(truncation=1e-9, gamma1_max=3.0),
    CouplingProfile.sampled(GRID, 0.5 + np.arange(41) % 7),
    CouplingProfile.sampled(GRID, 0.5 + np.arange(41) % 5, truncation=0.13),
]
# nodes, just below and above them, and the edges of the truncation windows
SPECIAL_TIMES = sorted({
    x for j in range(GRID.n_nodes) for x in (
        j * GRID.dt, np.nextafter(j * GRID.dt, -1.0),
        np.nextafter(j * GRID.dt, 3.0), j * GRID.dt - 1e-10 * GRID.dt)
} | {
    x for c in PROFILES if c.truncation is not None for x in (
        T_PROP - c.truncation, np.nextafter(T_PROP - c.truncation, 0.0))
})
TIMES = st.lists(
    st.one_of(st.floats(min_value=0.0, max_value=T_PROP),
              st.sampled_from(SPECIAL_TIMES)),
    min_size=1, max_size=60)


@given(which=st.integers(0, len(PROFILES) - 1), ts=TIMES)
@settings(max_examples=200, deadline=None)
def test_profile_values_match_scalar_lookup(which, ts):
    c = PROFILES[which]
    got = profile_values(c, P_PROP, np.array(ts))
    want = np.array([scalar_profile_value(c, P_PROP, t) for t in ts])
    one_by_one = np.array([profile_value(c, P_PROP, t) for t in ts])
    assert np.array_equal(got, want)
    assert np.array_equal(one_by_one, want)


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
        profile_value(c, P_PROP, bad)
