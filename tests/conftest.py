"""Settings shared by the test modules."""

import pytest
from hypothesis import settings

from symcone import distributions as dist

# Hypothesis draws a fixed set of examples and keeps no example database,
# so the suite gives the same result on every run; no per-example deadline,
# because the first call of a kernel can be slow.
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")


@pytest.fixture
def mcmc_settings(monkeypatch):
    """Sets Metropolis constants of ``symcone.distributions`` for one test:
    ``mcmc_settings(BURN_IN=0, CHAINS=1)``."""

    def apply(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(dist, name, value)  # raises on an unknown name

    return apply
