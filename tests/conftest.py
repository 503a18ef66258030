"""Shared test settings.

Property tests run under one fixed hypothesis profile: derandomized, so a
run draws the same examples every time; no per-example deadline, since
timings on a shared machine vary; and a bounded example count, so the suite's
run time stays flat.  The example database is off, so no example saved by
an earlier run is replayed.
"""

from hypothesis import settings

settings.register_profile("klsf", derandomize=True, deadline=None, max_examples=50, database=None)
settings.load_profile("klsf")
