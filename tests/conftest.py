"""Hypothesis draws the same examples on every run and keeps no example
database, so two runs of the suite test the same cases."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")
