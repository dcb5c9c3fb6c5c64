"""Hypothesis runs derandomized and without deadlines, so a property test
draws the same examples on every run and a slow, shared host cannot turn a
pass into a timing failure."""

from hypothesis import settings

settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")
