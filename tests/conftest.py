"""Test-session set-up: BLAS pinned to one thread, and one hypothesis profile.

BLAS reads its thread count when numpy loads, which happens after this
file runs, so the wall-clock budgets of test_acceptance.py do not depend
on how many threads BLAS would pick beside other jobs. These are the
variables bench/run.py sets; a value already in the environment wins.

The hypothesis profile is derandomized, so each run draws the same
cases, and has no deadline, since a draw's time depends on the machine,
not on the code under test.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("maslovlab", derandomize=True, deadline=None)
settings.load_profile("maslovlab")
