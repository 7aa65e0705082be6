"""Cascaded-oscillator state transfer: simulation, optimization, circuits.

Two harmonic oscillators exchange a quantum state through a one-way
transmission line; the package computes the state-independent transfer
amplitude, optimizes the sender's time-dependent coupling profile, checks
the commutator sum rules that certify the dynamics stay canonical, and maps
lumped-element circuit parameters onto the model's rates.
"""

from .types import *
from .oracles import *
from .simulate import *
from .optimize import *
from .circuit import *

__version__ = "0.1.0"

__all__ = [*types.__all__, *oracles.__all__, *simulate.__all__,
           *optimize.__all__, *circuit.__all__, "__version__"]
