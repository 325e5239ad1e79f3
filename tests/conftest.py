"""Shared test configuration.

Property tests run under a derandomized hypothesis profile, so every run of
the suite tries the same examples.  Select another profile with
``pytest --hypothesis-profile=NAME``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
