import dataclasses
import json
import math

import numpy as np
import pytest

from seasonthresh import InsectParams, TwoSeasonLinearization, jacobian, splitting
from seasonthresh.linalg import is_irreducible
from seasonthresh.verify_suite import random_metzler


def reference_metzler(rng, n, scale=3.0):
    """random_metzler one numpy try at a time: clamp the draw, then test it."""
    while True:
        a = rng.uniform(-scale, scale, (n, n))
        off = ~np.eye(n, dtype=bool)
        a[off] = np.maximum(a[off], 0.0)
        if is_irreducible(a):
            return a


def reference_schedule(theta, k, rng):
    """random_schedule with each simplex cut by np.sort and np.diff."""

    def simplex(total):
        if k == 1:
            return (total,)
        cuts = np.sort(rng.uniform(0.0, total, k - 1))
        return tuple(float(p) for p in np.diff(np.concatenate([[0.0], cuts, [total]])))

    sigma = simplex(theta)
    sigma_prime = simplex(1.0 - theta)
    return splitting.SplitSchedule(sigma, splitting._absorb_drift(sigma, sigma_prime))


def reference_jsonable(obj):
    """A report payload as plain JSON values: numpy arrays and scalars as
    their Python values, dataclasses as the dict of their fields, dict keys
    as str, and a non-finite float as its repr string."""
    if isinstance(obj, np.ndarray):
        return [reference_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: reference_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    return obj


def reference_json(obj) -> str:
    """The report file text of a payload, by json.dumps."""
    return json.dumps(reference_jsonable(obj), indent=2, sort_keys=True) + "\n"


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
