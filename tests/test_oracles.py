"""Closed-form reference values.

High-precision literals in this file were computed independently with mpmath
at 40 digits and frozen; the functions under test use ordinary doubles and
must land within a few ulp.
"""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscxfer import types
from oscxfer.oracles import (
    budget_report,
    euler_lagrange_residual,
    fidelity_constant_coupling,
    fidelity_lossy,
    fidelity_optimal,
    reference_curve,
    validity_windows,
)
from oscxfer.types import (
    CouplingProfile,
    SystemParams,
    TimeGrid,
    profile_values,
)


TWO_OVER_E = 0.7357588823428846


class TestConstantCoupling:
    def test_peak_value(self):
        # max of 2*gamma*t*exp(-gamma*t) sits at t = 1/gamma with value 2/e
        assert fidelity_constant_coupling(1.0, 1.0) == pytest.approx(
            TWO_OVER_E, abs=1e-15)

    def test_known_point(self):
        got = fidelity_constant_coupling(1.0, 2.0)
        assert type(got) is float   # a float in gives a float out
        assert got == pytest.approx(0.5413411329464508, abs=1e-15)

    def test_gamma_scaling(self):
        # F depends on gamma*t only
        assert fidelity_constant_coupling(4.0, 0.25) == pytest.approx(
            TWO_OVER_E, abs=1e-15)

    @pytest.mark.parametrize("gamma, gamma1, t, expected", [
        (1.0, 2.0, 1.0, 0.6577342040041341),
        (1.5, 0.5, 2.0, 0.55095215119593831),
    ])
    def test_mismatched_rates(self, gamma, gamma1, t, expected):
        got = fidelity_constant_coupling(gamma, t, gamma1)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_mismatched_series_branch(self):
        # (gamma - gamma1)*t below the series threshold: continuous limit
        got = fidelity_constant_coupling(1.0, 1.0, 1.0 + 1e-9)
        assert got == pytest.approx(0.73575888234288464, abs=1e-12)

    def test_matched_rates_reduce(self):
        for t in (0.3, 1.0, 2.5):
            assert fidelity_constant_coupling(1.0, t, 1.0) == pytest.approx(
                fidelity_constant_coupling(1.0, t), abs=1e-15)

    def test_zero_coupling_gives_zero(self):
        assert fidelity_constant_coupling(1.0, 2.0, 0.0) == 0.0
        assert fidelity_constant_coupling(1.0, 0.0, 3.0) == 0.0

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            fidelity_constant_coupling(0.0, 1.0)
        with pytest.raises(ValueError):
            fidelity_constant_coupling(1.0, 1.0, -0.5)

    @given(gt=st.floats(min_value=1e-3, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_peak(self, gt):
        assert fidelity_constant_coupling(1.0, gt) <= TWO_OVER_E + 1e-15

    @pytest.mark.parametrize("gamma, gamma1, t, expected", [
        (3e5, 1.0, 0.1, 0.00330401011158721792),
        (3e5, 1.0, 1.0, 0.0013433102668475141002),
        (1.0, 0.5, 1401.0, 1.6914548913262670559e-304),
        # (gamma - gamma1)*t = 699.5, but e^(-gamma t) underflows to 0
        (1.0, 0.5, 1399.0, 4.5978510947503608659e-304),
        # z*z overflows for z = -1e160, so phi's series must not meet it
        (1e160, 1.0, 1.0, 7.3575888234288464079e-81),
    ])
    def test_large_rate_gap_stays_finite(self, gamma, gamma1, t, expected):
        # (gamma - gamma1)*t > 700, where expm1 of it overflows, or
        # gamma*t > 700, where e^(-gamma t) loses the product's digits;
        # RuntimeWarnings are errors here
        got = fidelity_constant_coupling(gamma, t, gamma1)
        assert math.isfinite(got)
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("gamma, gamma1, T", [
        (3e5, 1.0, 1.0), (55.7, 1.0, 1.0), (2.0, 0.02, 10.0),
        (1.0, 0.5, 1400.0), (1.0, 1.0 - 3e-6, 3.0), (0.3, 5.0, 3.0),
    ])
    def test_accurate_against_decimal(self, gamma, gamma1, T):
        # the textbook difference of exponentials at 60 digits, at the
        # exact value of every double involved: large rate gaps, gamma*t
        # past 700, a near-matched pair and gamma1 > gamma, to 1e-15
        # relative on every node
        ts = TimeGrid(T, 1000).nodes()
        got = fidelity_constant_coupling(gamma, ts, gamma1)
        with decimal.localcontext(decimal.Context(prec=60)):
            g, g1 = Decimal(gamma), Decimal(gamma1)
            scale = 2 * (g * g1).sqrt() / (g - g1)
            for t, a in zip(map(Decimal, ts.tolist()), got.tolist()):
                want = scale * ((-g1 * t).exp() - (-g * t).exp())
                assert abs(Decimal(a) - want) <= Decimal("1e-15") * abs(want), t

    def test_stable_form_is_continuous_at_its_threshold(self):
        # gamma*t on either side of 700, with e^(-gamma t) still a normal
        # double
        below = fidelity_constant_coupling(1.0, 699.999999, 1e-3)
        above = fidelity_constant_coupling(1.0, 700.000001, 1e-3)
        assert above == pytest.approx(below, rel=1e-8, abs=0.0)


def _optimal_rate(gamma, T, t):
    # the untruncated closed-form profile gamma / (exp(2 gamma (T - t)) - 1)
    p = SystemParams(gamma=gamma, transfer_time=T)
    return profile_values(CouplingProfile.optimal(None), p, np.array([t]))[0]


class TestOptimalProfile:
    @pytest.mark.parametrize("t, expected", [
        (1.0, 0.15651764274966565),
        (1.9, 4.5166555661269948),
    ])
    def test_values(self, t, expected):
        assert _optimal_rate(1.0, 2.0, t) == pytest.approx(expected, rel=1e-14)

    def test_divergence_scale(self):
        # near the endpoint the rate goes like 1/(2*(T - t))
        got = _optimal_rate(1.0, 2.0, 2.0 - 1e-6)
        assert got == pytest.approx(0.5e6, rel=1e-5)

    def test_el_residual_vanishes_for_closed_form(self):
        p = SystemParams(gamma=1.0, transfer_time=2.0)
        c = CouplingProfile.optimal(truncation=0.3)
        ts, res = euler_lagrange_residual(c, p, TimeGrid(2.0, 4000))
        smooth = ts <= 2.0 - 0.35   # clear of the hold window and its edge
        assert np.max(np.abs(res[smooth])) < 1e-4

    def test_el_residual_flags_constant_profile(self):
        p = SystemParams(gamma=1.0, transfer_time=2.0)
        c = CouplingProfile.constant(1.0)
        _, res = euler_lagrange_residual(c, p, TimeGrid(2.0, 100))
        # residual of a constant is 2 g1^2 + 2 gamma g1 = 4, nowhere near zero
        assert np.min(np.abs(res)) > 3.9


class TestOptimalFidelity:
    @pytest.mark.parametrize("gamma, T, t, expected", [
        (1.0, 5.0, 5.0, 0.9999772997774687),    # sqrt(1 - e^-10)
        (0.5, 5.0, 5.0, 0.9966253323094464),    # sqrt(1 - e^-5)
        (1.0, 5.0, 2.0, 0.048876295905102978),  # 2 sinh(2)/sqrt(e^10 - 1)
        (1.0, 2.0, 0.75, 0.22464368921038611),  # 2 sinh(.75)/sqrt(e^4 - 1)
    ])
    def test_frozen_points(self, gamma, T, t, expected):
        got = fidelity_optimal(gamma, T, t)
        assert type(got) is float
        assert got == pytest.approx(expected, abs=1e-15)

    def test_endpoint_identity_to_roundoff(self):
        # F(T) == sqrt(1 - exp(-2 gamma T)) across the whole regime
        for gt in np.geomspace(1e-3, 20.0, 25):
            lhs = fidelity_optimal(1.0, gt, gt)
            rhs = math.sqrt(-math.expm1(-2.0 * gt))
            assert abs(lhs - rhs) <= 4 * np.finfo(float).eps * rhs

    def test_monotone_in_horizon(self):
        vals = [fidelity_optimal(1.0, T, T) for T in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_checks(self):
        # any time outside [0, T], alone or as one element of an array
        for t in (2.5, np.array([0.0, 1.0, 2.5]), np.array([[1.0], [-1e-9]])):
            with pytest.raises(ValueError):
                fidelity_optimal(1.0, 2.0, t)
        with pytest.raises(ValueError):
            fidelity_optimal(-1.0, 2.0, 1.0)


def _scalar_constant(gamma, t, gamma1):
    # the per-point formula the CLI's oracle column is computed with
    z = -abs(gamma - gamma1) * t
    phi = 1.0 + z / 2.0 + z * z / 6.0 if abs(z) < 1e-5 else math.expm1(z) / z
    return (2.0 * math.sqrt(gamma * gamma1) * math.exp(-min(gamma, gamma1) * t)
            * t * phi)


def _scalar_optimal(gamma, T, t):
    denom = -math.expm1(-2.0 * gamma * T)
    num = -math.expm1(-2.0 * gamma * t)
    return math.exp(-gamma * (T - t)) * num / math.sqrt(denom)


class TestCurves:
    """Given an array of times, the closed forms reproduce the per-point
    formulas bitwise, and each element equals the float-in result."""

    @pytest.mark.parametrize("gamma, gamma1", [
        (1.0, 0.7), (1.0, 1.0), (1.0, 1.0 + 1e-9), (1.0, 1.0 - 3e-6),
        (2.0, 0.0), (0.3, 5.0),
    ])
    def test_constant_coupling(self, gamma, gamma1):
        ts = TimeGrid(3.0, 5000).nodes()
        want = [_scalar_constant(gamma, t, gamma1) for t in ts.tolist()]
        got = fidelity_constant_coupling(gamma, ts, gamma1)
        assert np.array_equal(got, want)
        assert [fidelity_constant_coupling(gamma, t, gamma1)
                for t in ts[::997].tolist()] == got[::997].tolist()

    @pytest.mark.parametrize("gamma, T", [(1.0, 5.0), (0.3, 2.0), (4.0, 200.0)])
    def test_optimal(self, gamma, T):
        ts = np.minimum(TimeGrid(T, 5000).nodes(), T - 1e-3)
        want = [_scalar_optimal(gamma, T, t) for t in ts.tolist()]
        got = fidelity_optimal(gamma, T, ts)
        assert np.array_equal(got, want)
        assert [fidelity_optimal(gamma, T, t)
                for t in ts[::997].tolist()] == got[::997].tolist()

    @pytest.mark.parametrize("kind", ["constant", "optimal", "sampled"])
    def test_reference_curve(self, kind):
        # the untruncated closed form of the run's profile times the loss
        # factor; NaN where the profile has no closed form
        T = 3.0
        p = SystemParams(gamma=1.0, transfer_time=T, eta=0.81, gamma_loss=0.05)
        grid = TimeGrid(T, 5000)
        ts = grid.nodes()
        profile = {"constant": CouplingProfile.constant(0.7),
                   "optimal": CouplingProfile.optimal(truncation=0.1),
                   "sampled": CouplingProfile.sampled(
                       grid, np.ones(grid.n_nodes))}[kind]
        got = reference_curve(p, profile, ts)
        if kind == "sampled":
            assert np.isnan(got).all() and math.isnan(
                reference_curve(p, profile, T))
            return
        # the loss factor carries libm's bits, as the closed forms do
        damp = 0.9 * np.array([math.exp(-0.05 * t) for t in ts.tolist()])
        want = damp * (fidelity_constant_coupling(1.0, ts, 0.7)
                       if kind == "constant" else fidelity_optimal(1.0, T, ts))
        assert np.array_equal(got, want)
        assert type(reference_curve(p, profile, T)) is float
        assert [reference_curve(p, profile, t)
                for t in ts[::997].tolist()] == got[::997].tolist()

    def test_lossless_curve_runs_no_loss_factor_exp(self, monkeypatch):
        # without parasitic damping the loss factor is sqrt(eta), so the
        # curve skips its libm pass and keeps the closed form's bits
        calls = []
        elementwise = types._elementwise

        def record(fn, *args, **kwargs):
            calls.append(fn)
            return elementwise(fn, *args, **kwargs)

        monkeypatch.setattr(types, "_elementwise", record)
        T = 3.0
        ts = TimeGrid(T, 5000).nodes()
        profile = CouplingProfile.optimal(truncation=0.1)
        p = SystemParams(gamma=1.0, transfer_time=T)
        assert np.array_equal(reference_curve(p, profile, ts),
                              fidelity_optimal(1.0, T, ts))
        lossy_line = SystemParams(gamma=1.0, transfer_time=T, eta=0.81)
        assert np.array_equal(reference_curve(lossy_line, profile, ts),
                              0.9 * fidelity_optimal(1.0, T, ts))
        assert math.exp not in calls


class TestLossyFidelity:
    @pytest.mark.parametrize("eta, gamma_loss, expected", [
        (0.81, 0.05, 0.7009047937082894),
        (0.64, 0.01, 0.7609662651048796),
    ])
    def test_frozen_points(self, eta, gamma_loss, expected):
        p = SystemParams(gamma=1.0, transfer_time=5.0, eta=eta,
                         gamma_loss=gamma_loss)
        got = fidelity_lossy(p, 5.0)
        assert type(got) is float
        assert got == pytest.approx(expected, abs=1e-15)

    def test_lossless_reduction_is_bitwise(self):
        p = SystemParams(gamma=1.3, transfer_time=4.0)
        for t in (0.0, 1.7, 4.0):
            assert fidelity_lossy(p, t) == fidelity_optimal(1.3, 4.0, t)
        ts = np.array([0.0, 1.7, 4.0])
        assert np.array_equal(fidelity_lossy(p, ts),
                              fidelity_optimal(1.3, 4.0, ts))

    @given(eta=st.floats(min_value=0.05, max_value=1.0),
           gl=st.floats(min_value=0.0, max_value=0.4))
    @settings(max_examples=50, deadline=None)
    def test_factorization_exact(self, eta, gl):
        p = SystemParams(gamma=1.0, transfer_time=3.0, eta=eta, gamma_loss=gl)
        t = 2.0
        expected = math.sqrt(eta) * math.exp(-gl * t) * fidelity_optimal(1.0, 3.0, t)
        assert fidelity_lossy(p, t) == pytest.approx(expected, rel=1e-14)

    def test_overdamped_factorizes(self):
        # gamma_loss >= gamma used to be refused, but the substitution
        # a -> exp(-gamma_loss t) a removes gamma_loss at any rate
        for gl in (1.0, 2.5):
            p = SystemParams(gamma=1.0, transfer_time=3.0, eta=0.8,
                             gamma_loss=gl)
            want = (math.sqrt(0.8) * math.exp(-gl * 1.7)
                    * fidelity_optimal(1.0, 3.0, 1.7))
            assert fidelity_lossy(p, 1.7) == pytest.approx(want, rel=1e-14)


class TestBudget:
    def test_exponential_term(self):
        rep = budget_report(SystemParams(1.0, 5.0), 0.0)
        terms = rep["infidelity_terms"]
        assert terms["exponential"] == pytest.approx(2.2699964881242426e-05,
                                                     abs=1e-19)
        assert terms["truncation"] == 0.0

    def test_total_with_cut(self):
        rep = budget_report(SystemParams(1.0, 5.0), 1e-3)
        assert rep["infidelity_total"] == pytest.approx(
            1.0226999648812424e-03, abs=1e-17)

    def test_negative_cut_is_refused(self):
        with pytest.raises(ValueError, match="dt_cut must be >= 0"):
            budget_report(SystemParams(1.0, 5.0), dt_cut=-1)

    def test_warning_on_coarse_cut(self):
        rep = budget_report(SystemParams(1.0, 5.0), 0.2)
        assert any("truncation" in w for w in rep["warnings"])

    def test_warning_on_short_protocol(self):
        rep = budget_report(SystemParams(1.0, 1.0), 1e-4)
        assert any("short" in w for w in rep["warnings"])

    @pytest.mark.parametrize("T, cut, warned", [
        (5.0, 0.1, []),
        (5.0, math.nextafter(0.1, 1.0), ["gamma*dt_cut > 0.1"]),
        (2.0, 1e-4, []),
        (math.nextafter(2.0, 0.0), 1e-4, ["gamma*T < 2"]),
    ], ids=["cut-at-0.1", "cut-past-0.1", "T-at-2", "T-below-2"])
    def test_warning_thresholds_are_strict(self, T, cut, warned):
        # each warning starts just past its threshold, not at it
        rep = budget_report(SystemParams(1.0, T), cut)
        assert [w.split(":")[0] for w in rep["warnings"]] == warned

    def test_budget_report_loss_terms(self):
        p = SystemParams(gamma=1.0, transfer_time=5.0, eta=0.81,
                         gamma_loss=0.01)
        rep = budget_report(p, dt_cut=1e-3)
        terms = rep["infidelity_terms"]
        assert terms["loss_line"] == pytest.approx(1.0 - 0.9, abs=1e-15)
        assert terms["loss_oscillator"] == pytest.approx(-math.expm1(-0.05),
                                                         abs=1e-15)
        assert "validity" not in rep

    @pytest.mark.parametrize("T, cut", [(5.0, 1.0), (800.0, 2.0)])
    def test_prediction_outside_unit_interval_skips_validity(self, T, cut):
        # the first-order prediction F <= 0 is no target to judge the
        # windows against; without a given target they are left out
        p = SystemParams(gamma=1.0, transfer_time=T)
        rep = budget_report(p, dt_cut=cut, gamma1_max=1.0 / (2.0 * cut))
        assert rep["fidelity"] <= 0.0
        assert "validity" not in rep
        assert any("--target-fidelity" in w for w in rep["warnings"])
        assert any("gamma*dt_cut > 0.1" in w for w in rep["warnings"])
        given = budget_report(p, dt_cut=cut, gamma1_max=1.0 / (2.0 * cut),
                              target_fidelity=0.9)
        assert "validity" in given
        with pytest.raises(ValueError):
            budget_report(p, dt_cut=cut, gamma1_max=1.0 / (2.0 * cut),
                          target_fidelity=1.5)

    def test_budget_report_attaches_validity(self):
        p = SystemParams(gamma=1.0, transfer_time=5.0, omega0=1e8)
        rep = budget_report(p, dt_cut=0.0, gamma1_max=1e4)
        assert "validity" in rep
        assert rep["validity"]["q2"] == pytest.approx(1e8)
        assert rep["validity"]["q1_min"] == pytest.approx(1e4)


class TestValidityWindows:
    def test_rate_and_q_forms_agree(self):
        p = SystemParams(gamma=1.0, transfer_time=5.0, omega0=1e8)
        w = validity_windows(p, gamma1_max=1e4, target_fidelity=0.999)
        # carrier 1e8 >= 10 * 1e4 and 1e4 >= 10 * 1 / 1e-3 = 1e4
        assert w["carrier_above_coupling"]
        assert w["coupling_above_drain"]
        assert w["all_ok"] == (w["carrier_above_coupling"]
                               and w["coupling_above_drain"])
        # the same windows in quality-factor form, from the reported Qs
        assert (w["q1_min"] >= w["margin"]) == w["carrier_above_coupling"]
        assert ((1.0 - 0.999) * w["q2"] >= w["margin"] * w["q1_min"]) == (
            w["coupling_above_drain"])
        assert set(w) == {"margin", "q2", "q1_min", "carrier_above_coupling",
                          "coupling_above_drain", "all_ok"}

    def test_drain_window_fails_when_cap_small(self):
        p = SystemParams(gamma=1.0, transfer_time=5.0, omega0=1e8)
        w = validity_windows(p, gamma1_max=100.0, target_fidelity=0.999)
        assert not w["coupling_above_drain"]
        assert not w["all_ok"]

    def test_target_domain(self):
        p = SystemParams(gamma=1.0, transfer_time=5.0)
        with pytest.raises(ValueError):
            validity_windows(p, 1e4, target_fidelity=1.0)

    def test_nan_cap_and_margin_rejected(self):
        # NaN fails every comparison, so it must not slip past as q1_min = nan
        p = SystemParams(gamma=1.0, transfer_time=5.0)
        with pytest.raises(ValueError, match="gamma1_max"):
            validity_windows(p, math.nan, target_fidelity=0.999)
        with pytest.raises(ValueError, match="margin"):
            validity_windows(p, 1e4, target_fidelity=0.999, margin=math.nan)
