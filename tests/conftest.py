"""Hypothesis draws the same examples on every run, with no per-example
deadline: timings on a shared machine would make failures come and go."""
from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
