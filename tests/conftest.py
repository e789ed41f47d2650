"""Hypothesis settings shared by every property test: the examples are
derived from the test, so runs repeat exactly, with no deadline and no
example database."""
from hypothesis import settings

settings.register_profile("kharita", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("kharita")
