"""Shared pytest configuration.

Property tests run under a deterministic hypothesis profile: examples are
derived from each test's source rather than drawn at random, nothing is read
from or saved to an example database, and no per-example deadline applies,
so every run of the suite tries the same inputs in the same order.
"""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("deterministic")
