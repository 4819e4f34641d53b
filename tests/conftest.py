"""One Hypothesis profile for the whole suite: every property test draws the
same examples on every run and keeps no example database, so a run's verdict
is a function of the commit alone, and a failure reproduces from it."""

from hypothesis import settings

settings.register_profile("specshift", derandomize=True, database=None, deadline=None)
settings.load_profile("specshift")
