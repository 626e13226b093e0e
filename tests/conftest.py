"""Hypothesis draws the same examples on every run: tests that set their own
``max_examples`` keep it, and no example depends on the clock."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
