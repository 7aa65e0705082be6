"""Mapping lumped-element LC resonators onto the cascade's rate parameters.

A series RLC damps the charge coordinate at gamma = R / (2L); a parallel RLC
damps the voltage coordinate at gamma = 1 / (2RC).  Both share
omega0 = 1 / sqrt(LC).  The ground-state spread of the damped coordinate
(charge for series, voltage for parallel) sets the scale on which quantum
effects live and is reported alongside the rates.  Two circuits form one
cascade only if they resonate at the same frequency
(:func:`carrier_frequency`); the receiver's damping rate is then the
model's ``gamma``, and ``oscxfer.oracles.validity_windows`` checks the
scale separations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "Topology",
    "CircuitSpec",
    "CircuitRates",
    "circuit_to_rates",
    "carrier_frequency",
    "HBAR_SI",
]

HBAR_SI = 1.054571817e-34  # J*s


class Topology(enum.Enum):
    SERIES_LC = "series"
    PARALLEL_LC = "parallel"


@dataclass(frozen=True)
class CircuitSpec:
    """R, L, C of one oscillator (SI units unless you rescale consistently)."""

    topology: Topology
    resistance: float
    inductance: float
    capacitance: float

    def __post_init__(self) -> None:
        for name in ("resistance", "inductance", "capacitance"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class CircuitRates:
    """Rates and scales derived from a circuit spec.

    ``ground_state_scale`` is the zero-point spread of the damped coordinate:
    charge (coulomb) for a series circuit, voltage (volt) for a parallel one,
    as named by ``scale_coordinate``.
    """

    gamma: float
    omega0: float
    ground_state_scale: float
    q_factor: float
    scale_coordinate: str


def _checked(name: str, num: float, den: float = 1.0) -> float:
    """``num / den``, refused with a :class:`ValueError` that names it unless
    it is finite and positive; a zero ``den`` makes it infinite."""
    value = num / den if den else math.inf
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"the circuit's {name} must be positive and finite, "
                         f"got {value!r}")
    return value


def circuit_to_rates(spec: CircuitSpec, hbar: float = HBAR_SI) -> CircuitRates:
    """Damping rate, resonance frequency, zero-point scale and Q of a circuit.

    Elements far from unity can take L*C, or a derived quantity, out of the
    float range; that is refused with a :class:`ValueError` naming it.
    """
    lc = _checked("L*C", spec.inductance * spec.capacitance)
    omega0 = _checked("omega0", 1.0, math.sqrt(lc))
    if spec.topology is Topology.SERIES_LC:
        gamma = _checked("gamma", spec.resistance, 2.0 * spec.inductance)
        # the scale's square: a finite positive one has a finite positive root
        scale2 = _checked("zero-point scale", hbar,
                          2.0 * omega0 * spec.inductance)
        coord = "charge"
    else:
        gamma = _checked("gamma", 1.0,
                         2.0 * spec.resistance * spec.capacitance)
        scale2 = _checked("zero-point scale", hbar * omega0,
                          2.0 * spec.capacitance)
        coord = "voltage"
    return CircuitRates(
        gamma=gamma,
        omega0=omega0,
        ground_state_scale=math.sqrt(scale2),
        q_factor=_checked("Q", omega0, gamma),
        scale_coordinate=coord,
    )


def carrier_frequency(sender: CircuitRates, receiver: CircuitRates) -> float:
    """The common resonance frequency of a sender and a receiver circuit.

    The model assumes identical oscillators: resonance frequencies that
    disagree by more than one part per million are refused with a
    :class:`ValueError` rather than extrapolated.  Otherwise their mean is
    returned.
    """
    w_ref = 0.5 * (sender.omega0 + receiver.omega0)
    if abs(sender.omega0 - receiver.omega0) > 1e-6 * w_ref:
        raise ValueError(
            "non-identical oscillators: resonance frequencies differ by more "
            f"than 1 ppm ({sender.omega0:.9e} vs {receiver.omega0:.9e})"
        )
    return w_ref
