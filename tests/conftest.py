"""Pytest configuration for the Phastlane reproduction test suite.

Shared helpers live in :mod:`helpers` (added to ``pythonpath`` via
``pyproject.toml``).  Hypothesis runs under one of two profiles, picked by
the ``REPRO_HYPOTHESIS_PROFILE`` environment variable:

- ``tier1`` (default): derandomized and without an example database, so
  every run replays the same examples and a failure reproduces exactly;
- ``fuzz``: fresh random examples on every run, ``helpers.FUZZ_SCALE``
  times as many per test (CI's differential job uses it).
"""

from hypothesis import settings

from helpers import HYPOTHESIS_PROFILE

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fuzz", derandomize=False)
settings.load_profile(HYPOTHESIS_PROFILE)
