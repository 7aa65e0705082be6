"""Commutator deficits against the dense live-column construction.

The integrator carries only the kernels' summed second moments.  The dense
oracle below takes each macro step's map and the births from the scalar
loop of ``test_integrator_oracle``, rebuilds all six (n+1)^2 kernel
matrices the direct way, by stepping every live column through each map,
and sums the commutator rows one by one.  It is meant for n <= 2000 (six
matrices of 32 MB each there).  ``kernel_row`` rebuilds one row of all six
from the generators alone.
"""

import math
import tracemalloc

import numpy as np
import pytest

from oscxfer.simulate import IntegratorConfig, integrate_transfer
from oscxfer.types import CouplingProfile, SystemParams, TimeGrid, profile_values
from test_integrator_oracle import scalar_integrate

NAMES = ("k1", "k2", "kl1", "kl12", "kl2", "kv2")


def kernel_row(st, i):
    """Row ``i`` of every noise kernel: ``k(t_i, t_j)`` for ``j = 0..i``,
    from the scalar loop's generators ``st``.

    The product of step maps j..i-1 is built backward from row i, one map
    at a time, so no ratio of accumulated maps appears and nothing
    underflows that the kernel itself does not.
    """
    if not 0 <= i <= st.grid.n_steps:
        raise IndexError(f"row {i} is outside 0..{st.grid.n_steps}")
    pxx, pyx, pyy = np.empty((3, i + 1))
    xx, yx, yy = 1.0, 0.0, 1.0
    pxx[i], pyx[i], pyy[i] = xx, yx, yy
    backward = (memoryview(m[:i][::-1]) for m in st.step_maps)
    for j, mxx, myx, myy in zip(range(i - 1, -1, -1), *backward):
        yx = yx * mxx + yy * myx
        xx *= mxx
        yy *= myy
        pxx[j], pyx[j], pyy[j] = xx, yx, yy
    b1 = st.k1_births[:i + 1]
    b2, bl, bv = st.channel_births
    return {"k1": pxx * b1, "k2": pyx * b1 + pyy * b2,
            "kl1": pxx * bl, "kl12": pyx * bl,
            "kl2": pyy * bl, "kv2": pyy * bv}


def dense_kernels(st):
    """All six kernels as lower-triangular matrices k[i, j] = k(t_i, t_j)."""
    n = st.grid.n_steps
    assert n <= 2000, "the dense oracle is for small grids only"
    b2, bl, bv = st.channel_births
    mats = {name: np.zeros((n + 1, n + 1)) for name in NAMES}
    # live columns: (x, y) of the line input, (x, y) of the oscillator-1
    # loss port, and the y-only oscillator-2 loss and beam-splitter ports
    x, y, xl, yl, z2, zv = (np.zeros(n + 1) for _ in range(6))
    cols = dict(zip(NAMES, (x, y, xl, yl, z2, zv)))

    def give_birth(i):
        x[i], y[i] = st.k1_births[i], b2
        xl[i], yl[i] = bl, 0.0
        z2[i], zv[i] = bl, bv
        for name in NAMES:
            mats[name][i, i] = cols[name][i]

    for i in range(n):
        give_birth(i)
        mxx, myx, myy = st.step_maps[:, i]
        live = slice(0, i + 1)
        y[live] = myx * x[live] + myy * y[live]
        x[live] *= mxx
        yl[live] = myx * xl[live] + myy * yl[live]
        xl[live] *= mxx
        z2[live] *= myy
        zv[live] *= myy
        for name in NAMES:
            mats[name][i + 1, live] = cols[name][live]
    give_birth(n)  # diagonal of the final row
    return mats


def dense_commutator(st, mats):
    """Row-by-row trapezoid sums of the dense kernels; see
    :mod:`oscxfer.simulate` for the deficits' definition."""
    n, dt = st.grid.n_steps, st.grid.dt

    def row_norm(names, i):
        if i == 0:
            return 0.0
        total = 0.0
        for name in names:
            row = mats[name][i, :i + 1]
            total += float(row @ row) - 0.5 * (row[0] ** 2 + row[i] ** 2)
        return total * dt

    d1 = np.array([1.0 - (st.a11[i] ** 2 + row_norm(("k1", "kl1"), i))
                   for i in range(n + 1)])
    d2 = np.array([1.0 - (st.a21[i] ** 2 + st.a22[i] ** 2
                          + row_norm(("k2", "kl12", "kl2", "kv2"), i))
                   for i in range(n + 1)])
    return d1, d2


def _run(c, p, n):
    cfg = IntegratorConfig(n_steps=n, kernel_tracking=True)
    return c, integrate_transfer(c, p, cfg), scalar_integrate(c, p, cfg)


def _lossless_constant():
    p = SystemParams(gamma=1.0, transfer_time=2.0)
    return _run(CouplingProfile.constant(1.0), p, 400)


def _lossy_sampled_ramp():
    p = SystemParams(gamma=1.0, transfer_time=2.0, eta=0.9, gamma_loss=0.08)
    c = CouplingProfile.sampled(TimeGrid(2.0, 800), np.linspace(0.2, 2.0, 801))
    return _run(c, p, 800)


def _lossy_optimal_stiff():
    # no cap given: the hold value is 1/(2 cut) = 500, so with dt = 3e-3 the
    # last steps halve five times and their substeps fold into one map each
    p = SystemParams(gamma=1.0, transfer_time=3.0, eta=0.81, gamma_loss=0.05)
    return _run(CouplingProfile.optimal(truncation=1e-3), p, 1000)


CASES = {"lossless-constant": _lossless_constant,
         "lossy-sampled-ramp": _lossy_sampled_ramp,
         "lossy-optimal-stiff": _lossy_optimal_stiff}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    c, st, gen = CASES[request.param]()
    return c, st, gen, dense_kernels(gen)


def test_generators_reproduce_the_coefficients(case):
    # the scalar loop's maps are exactly the ones the integrator applied to
    # a11, a21 and a22, and the k1 births are sqrt(2 g1) on the nodes
    c, st, gen, _ = case
    mxx, myx, myy = gen.step_maps
    assert np.array_equal(st.a11[1:], mxx * st.a11[:-1])
    assert np.array_equal(st.a21[1:], myx * st.a11[:-1] + myy * st.a21[:-1])
    assert np.array_equal(st.a22[1:], myy * st.a22[:-1])
    g1 = profile_values(c, st.params, st.grid.nodes())
    assert np.array_equal(gen.k1_births, np.sqrt(2.0 * g1))


def test_kernel_rows_match_dense(case):
    _, _, gen, mats = case
    n = gen.grid.n_steps
    for i in (0, 1, 2, n // 3, n // 2, n - 1, n):
        row = kernel_row(gen, i)
        for name in NAMES:
            assert row[name].shape == (i + 1,)
            assert np.max(np.abs(row[name] - mats[name][i, :i + 1])) <= 1e-12, (
                name, i)


def test_commutator_matches_dense(case):
    _, st, gen, mats = case
    d1, d2 = st.deficits
    r1, r2 = dense_commutator(gen, mats)
    assert np.max(np.abs(d1 - r1)) <= 1e-12
    assert np.max(np.abs(d2 - r2)) <= 1e-12


def test_kernel_row_bounds_and_tracking():
    _, _, gen = _lossless_constant()
    with pytest.raises(IndexError):
        kernel_row(gen, gen.grid.n_steps + 1)
    with pytest.raises(IndexError):
        kernel_row(gen, -1)
    untracked = integrate_transfer(CouplingProfile.constant(1.0),
                                   SystemParams(gamma=1.0, transfer_time=2.0),
                                   IntegratorConfig(n_steps=100))
    assert untracked.deficits is None


def test_lossy_deficits_stay_finite_at_large_gamma_t():
    # gamma*T = 400: a11 falls to e^-420 and a11^2 underflows; the moments
    # are propagated, never divided, so the deficits stay finite and within
    # criterion 6's 1e-6, scaled by (dt / 3e-4)^2 to this grid
    T, n = 400.0, 100_000
    p = SystemParams(gamma=1.0, transfer_time=T, eta=0.81, gamma_loss=0.05)
    st = integrate_transfer(CouplingProfile.constant(1.0), p,
                            IntegratorConfig(n_steps=n, kernel_tracking=True))
    d1, d2 = st.deficits
    tol = 1e-6 * (T / n / 3e-4) ** 2
    assert np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))
    assert max(np.max(np.abs(d1)), np.max(np.abs(d2))) <= tol


def test_kernel_memory_is_linear():
    # six dense matrices would need 6 * 10001^2 * 8 B = 4.8 GB here
    n = 10_000
    p = SystemParams(gamma=1.0, transfer_time=3.0, eta=0.81, gamma_loss=0.05)
    cut = 0.25
    c = CouplingProfile.optimal(truncation=cut,
                                gamma1_max=1.0 / math.expm1(2.0 * cut))
    tracemalloc.start()
    try:
        st = integrate_transfer(c, p, IntegratorConfig(
            n_steps=n, kernel_tracking=True))
        assert st.deficits is not None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6
