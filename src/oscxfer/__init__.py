"""Cascaded-oscillator state transfer: simulation, optimization, circuits.

Two harmonic oscillators exchange a quantum state through a one-way
transmission line; the package computes the state-independent transfer
amplitude, optimizes the sender's time-dependent coupling profile, checks
the commutator sum rules that certify the dynamics stay canonical, and maps
lumped-element circuit parameters onto the model's rates.
"""

from .types import (
    CouplingProfile,
    FidelityReport,
    ProfileKind,
    ProfileSingularityError,
    SystemParams,
    TimeGrid,
    TransferState,
    ValidityWindows,
    profile_values,
)
from .oracles import (
    budget_report,
    euler_lagrange_residual,
    fidelity_constant_coupling,
    fidelity_lossy,
    fidelity_optimal,
    reference_curve,
    validity_windows,
)
from .simulate import (
    IntegrationError,
    IntegratorConfig,
    integrate_transfer,
)
from .optimize import (
    OptimizerResult,
    functional_gradient,
    functional_value,
    optimize_profile,
)
from .circuit import (
    CircuitRates,
    CircuitSpec,
    Topology,
    carrier_frequency,
    circuit_to_rates,
)

__version__ = "0.1.0"

__all__ = [
    "SystemParams", "TimeGrid", "ProfileKind", "CouplingProfile",
    "TransferState", "ValidityWindows", "FidelityReport",
    "ProfileSingularityError", "profile_values",
    "fidelity_constant_coupling", "fidelity_optimal", "fidelity_lossy",
    "reference_curve", "budget_report",
    "validity_windows", "euler_lagrange_residual",
    "IntegratorConfig", "IntegrationError", "integrate_transfer",
    "OptimizerResult",
    "functional_value", "functional_gradient", "optimize_profile",
    "Topology", "CircuitSpec", "CircuitRates", "circuit_to_rates",
    "carrier_frequency",
    "__version__",
]
