"""Shared test configuration.

Hypothesis draws the same examples on every run and keeps no example
database, so a failure repeats until it is fixed.  A test's own
``@settings`` overrides only the values it names.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
