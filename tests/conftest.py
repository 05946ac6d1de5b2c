"""Settings shared by the test modules."""

from hypothesis import settings

# Hypothesis draws a fixed set of examples and keeps no example database,
# so the suite gives the same result on every run; no per-example deadline,
# because the first call of a kernel can be slow.
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")
