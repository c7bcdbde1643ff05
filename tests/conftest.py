"""One hypothesis profile for every property test: derandomized, so each
run draws the same cases, and without a deadline, since a draw's time
depends on the machine, not on the code under test."""

from hypothesis import settings

settings.register_profile("maslovlab", derandomize=True, deadline=None)
settings.load_profile("maslovlab")
