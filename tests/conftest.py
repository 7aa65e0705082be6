"""Test-suite settings: every Hypothesis test draws the same examples on
each run, so a failure reproduces and a pass stays a pass."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
