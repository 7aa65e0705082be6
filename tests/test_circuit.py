"""RLC-to-rate conversions and circuit-level validity checks."""

import math

import pytest

from oscxfer.circuit import (
    HBAR_SI,
    CircuitSpec,
    Topology,
    carrier_frequency,
    circuit_to_rates,
)
from oscxfer.oracles import validity_windows
from oscxfer.types import SystemParams

# 1 nH / 1 pF tank: omega0 = 1/sqrt(LC) = 3.1622776601683793e10 rad/s
L = 1e-9
C = 1e-12
OMEGA0 = 31622776601.683793


def _series(r):
    return CircuitSpec(Topology.SERIES_LC, r, L, C)


def _parallel(r):
    return CircuitSpec(Topology.PARALLEL_LC, r, L, C)


class TestSeriesCircuit:
    def test_frozen_rates(self):
        rates = circuit_to_rates(_series(50.0))
        assert rates.omega0 == pytest.approx(OMEGA0, rel=1e-15)
        assert rates.gamma == pytest.approx(2.5e10, rel=1e-15)      # R/(2L)
        assert rates.q_factor == pytest.approx(1.2649110640673518, rel=1e-14)
        assert rates.scale_coordinate == "charge"

    def test_ground_state_charge_spread(self):
        # sqrt(hbar / (2 omega0 L))
        rates = circuit_to_rates(_series(50.0))
        assert rates.ground_state_scale == pytest.approx(
            1.2912879032079322e-18, rel=1e-14)

    def test_impedance_matched_resistor(self):
        # R = sqrt(L/C) gives gamma = omega0 / 2 (Q = 2)
        r_match = math.sqrt(L / C)
        assert r_match == pytest.approx(31.622776601683793, rel=1e-15)
        rates = circuit_to_rates(_series(r_match))
        assert rates.gamma == pytest.approx(15811388300.841897, rel=1e-14)
        assert rates.gamma == pytest.approx(rates.omega0 / 2.0, rel=1e-14)

    def test_small_resistance_weak_damping(self):
        gammas = [circuit_to_rates(_series(r)).gamma for r in (10.0, 1.0, 0.1)]
        assert gammas[0] > gammas[1] > gammas[2]
        assert circuit_to_rates(_series(1e-6)).gamma == pytest.approx(
            5e2, rel=1e-12)


class TestParallelCircuit:
    def test_frozen_rates(self):
        rates = circuit_to_rates(_parallel(50.0))
        assert rates.omega0 == pytest.approx(OMEGA0, rel=1e-15)
        assert rates.gamma == pytest.approx(1e10, rel=1e-15)        # 1/(2RC)
        assert rates.q_factor == pytest.approx(3.1622776601683793, rel=1e-14)
        assert rates.scale_coordinate == "voltage"

    def test_ground_state_voltage_spread(self):
        # sqrt(hbar omega0 / (2 C))
        rates = circuit_to_rates(_parallel(50.0))
        assert rates.ground_state_scale == pytest.approx(
            1.2912879032079322e-06, rel=1e-14)

    def test_damping_decreases_with_resistance(self):
        # parallel topology: larger shunt resistance means less damping
        g_lo = circuit_to_rates(_parallel(1000.0)).gamma
        g_hi = circuit_to_rates(_parallel(10.0)).gamma
        assert g_lo < g_hi


def test_custom_hbar_scales_zero_point_only():
    a = circuit_to_rates(_series(50.0), hbar=HBAR_SI)
    b = circuit_to_rates(_series(50.0), hbar=4.0 * HBAR_SI)
    assert b.gamma == a.gamma
    assert b.omega0 == a.omega0
    assert b.ground_state_scale == pytest.approx(2.0 * a.ground_state_scale,
                                                 rel=1e-15)


@pytest.mark.parametrize("field", ["resistance", "inductance", "capacitance"])
def test_nonpositive_elements_rejected(field):
    kwargs = {"resistance": 50.0, "inductance": L, "capacitance": C}
    kwargs[field] = 0.0
    with pytest.raises(ValueError):
        CircuitSpec(Topology.SERIES_LC, **kwargs)


@pytest.mark.parametrize("elements, name, series, parallel", [
    ((1e300, 1e300, 1e300), "L*C", "inf", "inf"),
    ((1e-300, 1e-300, 1e-300), "L*C", "0.0", "0.0"),
    ((1e300, 1e-10, 1e10), "gamma", "inf", "0.0"),
    ((1e-300, 1e300, 1e-300), "gamma", "0.0", "inf"),
], ids=["lc-overflows", "lc-underflows", "gamma-big-r", "gamma-small-r"])
@pytest.mark.parametrize("topology", list(Topology))
def test_rates_out_of_float_range_refused(topology, elements, name, series,
                                          parallel):
    # each element passes CircuitSpec, but L*C or gamma leaves the floats:
    # refused by name, where a division once raised ZeroDivisionError
    value = series if topology is Topology.SERIES_LC else parallel
    with pytest.raises(ValueError) as exc:
        circuit_to_rates(CircuitSpec(topology, *elements))
    assert str(exc.value) == (
        f"the circuit's {name} must be positive and finite, got {value}")


def test_zero_point_scale_that_underflows_refused():
    # L*C = 1, but hbar / (2 omega0 L) is below the smallest subnormal
    with pytest.raises(ValueError, match="zero-point scale must be positive"):
        circuit_to_rates(CircuitSpec(Topology.SERIES_LC, 1e300, 1e300, 1e-300))


def _windows(sender, receiver):
    # the budget command's circuit path: the receiver's damping is the drain
    # rate, the sender's coupling is tunable up to 1e8
    r_send, r_recv = circuit_to_rates(sender), circuit_to_rates(receiver)
    p = SystemParams(gamma=r_recv.gamma, transfer_time=1.0,
                     omega0=carrier_frequency(r_send, r_recv))
    return validity_windows(p, 1e8, target_fidelity=0.99)


class TestRatesToValidity:
    def test_identical_pair_accepted(self):
        w = _windows(_series(0.001), _series(50.0))
        assert w["q2"] > 0
        assert isinstance(w["all_ok"], bool)

    def test_within_one_ppm_accepted(self):
        # delta(omega)/omega = delta(L)/(2L); 1e-6 relative L shift passes
        other = CircuitSpec(Topology.SERIES_LC, 0.001, L * (1.0 + 1e-6), C)
        carrier_frequency(circuit_to_rates(other),
                          circuit_to_rates(_series(50.0)))

    def test_beyond_one_ppm_refused(self):
        other = CircuitSpec(Topology.SERIES_LC, 0.001, L * (1.0 + 3e-6), C)
        with pytest.raises(ValueError, match="1 ppm"):
            carrier_frequency(circuit_to_rates(other),
                              circuit_to_rates(_series(50.0)))

    def test_receiver_sets_drain_rate(self):
        # doubling the receiver's R doubles gamma and halves Q2
        w1 = _windows(_series(0.001), _series(50.0))
        w2 = _windows(_series(0.001), _series(100.0))
        assert w2["q2"] == pytest.approx(w1["q2"] / 2.0, rel=1e-12)
