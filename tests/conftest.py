"""Shared test settings: property tests draw the same examples on every run."""

from hypothesis import settings

settings.register_profile("cavityqfc", derandomize=True, deadline=None)
settings.load_profile("cavityqfc")
