import numpy as np
import pytest

from seasonthresh import InsectParams, TwoSeasonLinearization, jacobian
from seasonthresh.verify_suite import random_metzler


def random_metzler_pair(rng, n, period=1.0, scale=3.0):
    return TwoSeasonLinearization(
        random_metzler(rng, n, scale), random_metzler(rng, n, scale), period
    )


def shared_eigenvector_pair(rng, n, shift_lo=-2.0, shift_hi=1.0, period=1.0):
    """Two shifts of one random Metzler matrix: same eigenvectors, known rho."""
    base = random_metzler(rng, n)
    return TwoSeasonLinearization(
        base + shift_lo * np.eye(n), base + shift_hi * np.eye(n), period
    )


@pytest.fixture
def pi_unfavorable():
    return InsectParams(b=1.0, h=0.5, dJ=1.0, cJ=1.0, dA=1.0)


@pytest.fixture
def pi_favorable():
    return InsectParams(b=2.0, h=1.0, dJ=0.5, cJ=1.0, dA=0.5)


@pytest.fixture
def insect_linearization(pi_unfavorable, pi_favorable):
    return TwoSeasonLinearization(
        jacobian(pi_unfavorable, np.zeros(2)),
        jacobian(pi_favorable, np.zeros(2)),
        1.0,
    )
