"""Integrator checks against closed forms and structural invariants."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscxfer.oracles import (
    fidelity_constant_coupling,
    fidelity_optimal,
)
from oscxfer.optimize import functional_value
from oscxfer.simulate import (
    IntegrationError,
    STABILITY_EDGE,
    IntegratorConfig,
    integrate_blocks,
    integrate_transfer,
    transfer_amplitude,
)
from oscxfer.types import (
    CouplingProfile,
    SystemParams,
    TimeGrid,
    profile_values,
)
from test_integrator_oracle import scalar_integrate
from test_kernels import kernel_row


P12 = SystemParams(gamma=1.0, transfer_time=2.0)


def test_constant_profile_matches_closed_form_everywhere():
    p = SystemParams(gamma=1.0, transfer_time=3.0)
    st = integrate_transfer(CouplingProfile.constant(1.0), p,
                            IntegratorConfig(n_steps=10_000))
    ts, curve = st.grid.nodes(), st.a21
    oracle = 2.0 * ts * np.exp(-ts)
    assert np.max(np.abs(curve - oracle)) < 1e-12


def test_mismatched_constant_profile():
    st = integrate_transfer(CouplingProfile.constant(2.0), P12,
                            IntegratorConfig(n_steps=4000))
    want = fidelity_constant_coupling(1.0, 2.0, 2.0)
    assert st.fidelity == pytest.approx(want, abs=1e-12)


def test_optimal_profile_hits_closed_form_at_cut():
    p = SystemParams(gamma=1.0, transfer_time=5.0)
    n = 50_000
    st = integrate_transfer(CouplingProfile.optimal(truncation=0.05), p,
                            IntegratorConfig(n_steps=n))
    cut_node = n - 500          # t = 5 - 0.05 exactly on the grid
    want = fidelity_optimal(1.0, 5.0, 4.95)
    assert abs(st.a21[cut_node] - want) < 1e-12


def test_decay_coefficients():
    st = integrate_transfer(CouplingProfile.constant(1.0), P12,
                            IntegratorConfig(n_steps=400))
    # a11 and a22 decay at the bare rates independently of the transfer
    assert st.a11[-1] == pytest.approx(math.exp(-2.0), abs=1e-10)
    assert st.a22[-1] == pytest.approx(math.exp(-2.0), abs=1e-10)


@pytest.mark.parametrize("lo, hi", [
    # 4th order: halving dt cuts the error about 16x
    pytest.param(8.0, 40.0, id="Method.RK4-8.0-40.0"),
])
def test_refinement_order(lo, hi):
    want = 4.0 * math.exp(-2.0)

    def err(n):
        st = integrate_transfer(CouplingProfile.constant(1.0), P12,
                                IntegratorConfig(n_steps=n))
        return abs(st.fidelity - want)

    ratio = err(250) / err(500)
    assert lo < ratio < hi


class TestDualRoute:
    """The quadrature functional and the ODE route must agree tightly.

    For piecewise-constant profiles the functional is exact, so the only
    discrepancy is the integrator's own global error.
    """

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.pg = TimeGrid(2.0, 500)
        vals = 0.25 + 2.5 * rng.random(501)
        self.profile = CouplingProfile.sampled(self.pg, vals)
        self.quad = functional_value(self.profile, P12, self.pg)

    @pytest.mark.parametrize("n_ode, tol", [(500, 1e-10), (2000, 1e-12)])
    def test_rk4(self, n_ode, tol):
        st = integrate_transfer(self.profile, P12,
                                IntegratorConfig(n_steps=n_ode))
        assert abs(st.fidelity - self.quad) < tol

    def test_quadrature_exact_for_constant(self):
        for g1 in (0.3, 1.0, 2.7):
            quad = functional_value(CouplingProfile.constant(g1), P12,
                                    TimeGrid(2.0, 777))
            assert quad == pytest.approx(
                fidelity_constant_coupling(1.0, 2.0, g1), abs=1e-13)


class TestKernels:
    def test_constant_coupling_kernel_closed_forms(self):
        # matched constant rates: k1(t,s) = sqrt(2g) e^{-g(t-s)} and
        # k2(t,s) = sqrt(2g) e^{-g(t-s)} (2g(t-s) - 1)
        n = 400
        gen = scalar_integrate(CouplingProfile.constant(1.0), P12,
                               IntegratorConfig(n_steps=n))
        tau = 2.0 - np.arange(n + 1) * (2.0 / n)
        k1_cf = math.sqrt(2.0) * np.exp(-tau)
        k2_cf = k1_cf * (2.0 * tau - 1.0)
        row = kernel_row(gen, n)
        assert np.max(np.abs(row["k1"] - k1_cf)) < 1e-10
        assert np.max(np.abs(row["k2"] - k2_cf)) < 1e-9

    def test_commutator_rules_constant(self):
        st = integrate_transfer(CouplingProfile.constant(1.0),
                                SystemParams(gamma=1.0, transfer_time=3.0),
                                IntegratorConfig(n_steps=10_000,
                                                 kernel_tracking=True))
        d1, d2 = st.deficits
        assert np.max(np.abs(d1)) < 1e-6
        assert np.max(np.abs(d2)) < 1e-6

    def test_commutator_rules_optimal(self):
        p = SystemParams(gamma=1.0, transfer_time=3.0)
        cut = 0.25
        # hold value chosen to continue the profile without a jump
        cap = 1.0 / math.expm1(2.0 * cut)
        c = CouplingProfile.optimal(truncation=cut, gamma1_max=cap)
        st = integrate_transfer(c, p, IntegratorConfig(n_steps=10_000,
                                                       kernel_tracking=True))
        d1, d2 = st.deficits
        assert np.max(np.abs(d1)) < 1e-6
        assert np.max(np.abs(d2)) < 1e-6

    def test_commutator_rules_lossy_sampled_ramp(self):
        # a sampled ramp has birth-value jumps at every node, so the kernel
        # quadrature error is O(dt * total variation) rather than O(dt^2)
        p = SystemParams(gamma=1.0, transfer_time=2.0, eta=0.9,
                         gamma_loss=0.08)
        grid = TimeGrid(2.0, 800)
        vals = np.linspace(0.2, 2.0, 801)
        c = CouplingProfile.sampled(grid, vals)
        st = integrate_transfer(c, p, IntegratorConfig(
            n_steps=800, kernel_tracking=True))
        d1, d2 = st.deficits
        assert np.max(np.abs(d1)) < 2e-3
        assert np.max(np.abs(d2)) < 2e-3

    def test_commutator_needs_tracking(self):
        st = integrate_transfer(CouplingProfile.constant(1.0), P12,
                                IntegratorConfig(n_steps=100))
        assert st.deficits is None


class TestLossyIntegration:
    @given(gamma=st.floats(0.1, 3.0), gamma1=st.floats(0.0, 3.0),
           T=st.floats(0.5, 5.0), eta=st.floats(0.3, 1.0),
           loss=st.floats(0.0, 0.9, exclude_max=True))
    @settings(max_examples=100, deadline=None)
    def test_constant_coupling_matches_lossy_closed_form(self, gamma, gamma1,
                                                          T, eta, loss):
        # the loss result factorizes: sqrt(eta) e^(-gamma' T) times the
        # lossless amplitude, here the constant-coupling closed form
        p = SystemParams(gamma=gamma, transfer_time=T, eta=eta,
                         gamma_loss=loss * gamma)
        state = integrate_transfer(CouplingProfile.constant(gamma1), p,
                                   IntegratorConfig(n_steps=2000))
        want = (math.sqrt(eta) * math.exp(-p.gamma_loss * T)
                * fidelity_constant_coupling(gamma, T, gamma1))
        assert abs(state.fidelity - want) < 1e-11

    def test_factorization_against_oracle(self):
        p = SystemParams(gamma=1.0, transfer_time=5.0, eta=0.81,
                         gamma_loss=0.05)
        n = 20_000
        c = CouplingProfile.optimal(truncation=0.05)
        st = integrate_transfer(c, p, IntegratorConfig(n_steps=n))
        cut_node = n - 200
        want = (math.sqrt(0.81) * math.exp(-0.05 * 4.95)
                * fidelity_optimal(1.0, 5.0, 4.95))
        assert abs(st.a21[cut_node] - want) < 1e-9


def test_zero_profile_transfers_nothing():
    st = integrate_transfer(CouplingProfile.constant(0.0), P12,
                            IntegratorConfig(n_steps=100))
    assert st.fidelity == 0.0
    assert np.all(st.a21 == 0.0)
    assert st.a11[-1] == pytest.approx(1.0, abs=1e-12)


def test_untruncated_optimal_profile_rejected():
    c = CouplingProfile.optimal(truncation=None)
    with pytest.raises(ValueError):
        integrate_transfer(c, P12, IntegratorConfig(n_steps=100))


def test_stiff_profile_raises_with_step_info():
    grid = TimeGrid(1.0, 50)
    vals = np.full(51, 1e300)
    c = CouplingProfile.sampled(grid, vals)
    p = SystemParams(gamma=1.0, transfer_time=1.0)
    with pytest.raises(IntegrationError) as exc:
        integrate_transfer(c, p, IntegratorConfig(n_steps=50))
    assert exc.value.step == 0


@pytest.mark.parametrize("edge", [
    pytest.param(STABILITY_EDGE, id="Method.RK4"),
])
def test_receiver_rate_past_stability_edge_refused(edge):
    # gamma*dt just past the edge is refused before any work, and the step
    # count the message names runs; at the edge itself the run goes ahead
    assert edge == 2.785
    T, n = 1.0, 40
    c = CouplingProfile.constant(1.0)
    at_edge = SystemParams(gamma=edge * n / T, transfer_time=T)
    assert at_edge.gamma * (T / n) <= edge
    integrate_transfer(c, at_edge, IntegratorConfig(n_steps=n))

    past = SystemParams(gamma=math.nextafter(at_edge.gamma, math.inf),
                        transfer_time=T)
    assert past.gamma * (T / n) > edge
    with pytest.raises(IntegrationError) as exc:
        integrate_transfer(c, past, IntegratorConfig(n_steps=n))
    assert exc.value.step == 0
    n_min = int(exc.value.reason.rsplit("at least ", 1)[1].split()[0])
    assert n_min == n + 1
    run = integrate_transfer(c, past, IntegratorConfig(n_steps=n_min))
    assert np.all(np.abs(run.a22) <= 1.0)


def test_receiver_stability_counts_the_loss_rate():
    # beta = gamma + gamma_loss = 3 per unit time, dt = 1; gamma*dt = 2
    # alone is inside the edge 2.785
    p = SystemParams(gamma=2.0, gamma_loss=1.0, transfer_time=10.0)
    with pytest.raises(IntegrationError, match="at least 11 steps"):
        integrate_transfer(CouplingProfile.constant(1.0), p,
                           IntegratorConfig(n_steps=10))
    integrate_transfer(CouplingProfile.constant(1.0), p,
                       IntegratorConfig(n_steps=11))


def test_receiver_rate_beyond_any_grid():
    p = SystemParams(gamma=1e308, transfer_time=1e10)
    with pytest.raises(IntegrationError,
                       match="would need more than 1e308 steps .at step 0.$"):
        integrate_transfer(CouplingProfile.constant(1.0), p,
                           IntegratorConfig(n_steps=10))


def _integration_peak(n, p=SystemParams(gamma=1.0, transfer_time=3.0),
                      c=None, track=False):
    """Peak traced bytes of an n-step run of the blocks, each dropped as
    the next comes; a lossless run of the optimal profile by default."""
    c = c or CouplingProfile.optimal(truncation=3.0 / n)
    tracemalloc.start()
    try:
        for _ in integrate_blocks(c, p, IntegratorConfig(
                n_steps=n, kernel_tracking=track)):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_integrator_memory_is_fixed():
    # a run holds one workspace, fixed before it starts, and its blocks
    # are views of it: 0.91 MB at both sizes (x86-64, numpy 2.4)
    small, large = _integration_peak(100_000), _integration_peak(1_000_000)
    assert small < 1.15e6
    assert abs(large - small) <= 0.05 * small


def test_substepped_memory_is_fixed():
    # 2**21 substeps, two steps to a chunk, run in the same workspace
    peak = _integration_peak(1000, SystemParams(gamma=1.0, transfer_time=1.0),
                             CouplingProfile.constant(1e5))
    assert peak < 1.15e6


@pytest.mark.parametrize("n", [100_000, 1_000_000])
def test_tracked_memory_is_two_rows_more(n):
    # kernel tracking adds two rows for a block's births (0.131 MB), with a
    # few kB of interpreter frames; its d1, d2 and deficits use the block's
    # rows, so no block allocates
    p = SystemParams(gamma=1.0, transfer_time=3.0, eta=0.81, gamma_loss=0.05)
    c = CouplingProfile.optimal(truncation=0.25, gamma1_max=1.54)
    # a first run fills numpy's per-process caches, which stay
    _integration_peak(1000, p, c, track=True)
    tracked = _integration_peak(n, p, c, track=True)
    assert tracked - _integration_peak(n, p, c) <= 0.14e6


def test_integration_error_survives_pickling():
    # sweep workers raise it in a child process; the pool pickles it back
    err = IntegrationError("profile too stiff to substep", 3)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is IntegrationError
    assert back.step == 3
    assert str(back) == str(err) == "profile too stiff to substep (at step 3)"


def _amplitude_case(case, n):
    """(profile, params) of one transfer_amplitude parity case at n steps."""
    p = SystemParams(gamma=1.0, transfer_time=3.0)
    if case == "lossless":
        return CouplingProfile.optimal(truncation=3.0 / n), p
    if case == "lossy":
        lossy = SystemParams(gamma=1.0, transfer_time=3.0, eta=0.81,
                             gamma_loss=0.05)
        return CouplingProfile.optimal(truncation=3.0 / n), lossy
    if case == "stiff-tail":
        return CouplingProfile.optimal(truncation=1e-4, gamma1_max=1e6), p
    if case == "all-stiff":
        # every step halved two or three times
        return (CouplingProfile.constant(1e5),
                SystemParams(gamma=1.0, transfer_time=0.02))
    # a sampled profile whose cells the run's steps refine, 1 to 5 apiece
    ratio = next(r for r in (2, 3, 5, 1) if n % r == 0)
    grid = TimeGrid(3.0, n // ratio)
    ramp = profile_values(
        CouplingProfile.optimal(truncation=0.25, gamma1_max=1.54), p,
        grid.nodes())
    return CouplingProfile.sampled(grid, ramp), p


@pytest.mark.parametrize("case", ["lossless", "lossy", "stiff-tail",
                                  "all-stiff", "sampled"])
@pytest.mark.parametrize("n", [8191, 8192, 8193, 16385])
def test_transfer_amplitude_is_the_last_a21(n, case):
    # the final-only fold gives the streamed run's last a21 bit for bit,
    # on either side of a block edge and through stiff steps' own myy
    c, p = _amplitude_case(case, n)
    cfg = IntegratorConfig(n_steps=n)
    for block in integrate_blocks(c, p, cfg):
        last = float(block[1, -1])
    assert transfer_amplitude(c, p, cfg).hex() == last.hex()


def _one_cell(T, n, at, value):
    """A sampled profile of 1 but at node ``at``, on the run's own grid."""
    values = np.ones(n + 1)
    values[at] = value
    return CouplingProfile.sampled(TimeGrid(T, n), values)


@pytest.mark.parametrize("c, p, n, text", [
    (CouplingProfile.optimal(truncation=1e-4, gamma1_max=1e308),
     SystemParams(gamma=1.0, transfer_time=1.0), 10_000,
     "profile too stiff to substep (at step 9999)"),
    (_one_cell(1.0, 8200, 8195, 0.05 * 2**23.5 * 8200),
     SystemParams(gamma=1.0, transfer_time=1.0), 8200,
     "profile needs 16777216 substeps, more than the bound 4194304 "
     "(2**22); its first stiff step is 8195"),
    (CouplingProfile.constant(1.0),
     SystemParams(gamma=300.0, transfer_time=1.0), 100,
     "receiver too stiff for the grid: (gamma + gamma_loss)*dt = 3 exceeds "
     "the rk4 stability edge 2.785; the grid needs at least 108 steps "
     "(at step 0)"),
    (CouplingProfile.optimal(truncation=1e-300 / 86, gamma1_max=1e308),
     SystemParams(gamma=1.0, transfer_time=1e-300), 86,
     "profile needs 33554474 substeps, more than the bound 4194304 "
     "(2**22); its first stiff step is 76"),
    # the cell overflows the stage sums of its 2**9 substeps
    (_one_cell(8.2e-304, 8200, 8195, 1.7e308),
     SystemParams(gamma=1.0, transfer_time=8.2e-304), 8200,
     "non-finite transfer coefficient (at step 8195)"),
], ids=["too-stiff-in-block-2", "substep-bound-in-block-2", "stability-edge",
        "substep-bound", "non-finite-in-block-2"])
def test_transfer_amplitude_fails_as_the_run(c, p, n, text):
    # the same exception, with the same text, as the streamed run
    cfg = IntegratorConfig(n_steps=n)
    with pytest.raises((ValueError, IntegrationError)) as run:
        for _ in integrate_blocks(c, p, cfg):
            pass
    with pytest.raises((ValueError, IntegrationError)) as final:
        transfer_amplitude(c, p, cfg)
    assert type(final.value) is type(run.value)
    assert str(final.value) == str(run.value) == text


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(n_steps=5)
