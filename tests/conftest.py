import numpy as np
import pytest

from ges4 import verify
from ges4.basis import explicit_basis
from ges4.circuit import BRANCH_PRIME, BRANCH_DOUBLE_PRIME, ges_target_state


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def run_check():
    """Run one row of `verify.CHECKS`, by name, on the given rng; a log entry
    the row writes goes into `log`."""
    def run(name, rng, fault=None, log=None):
        [row] = [row for row in verify.CHECKS if row[0] == name]
        return verify._run_check(row, verify._Run(0, rng, fault, {} if log is None else log))
    return run


@pytest.fixture(scope="session")
def basis16():
    # the explicit sixteen-state basis is immutable; build it once
    return explicit_basis()


@pytest.fixture(scope="session")
def target_prime():
    return ges_target_state(BRANCH_PRIME)


@pytest.fixture(scope="session")
def target_dprime():
    return ges_target_state(BRANCH_DOUBLE_PRIME)
