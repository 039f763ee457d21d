"""Periodic piecewise-autonomous systems.

A system of period T is a list of autonomous pieces, the k-th active while
the fractional part of t/T lies in [theta_{k-1}, theta_k). The structural
hypotheses on the pieces are checked through the flow they generate, by
simulate.verify_flow_properties.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .linalg import as_square_matrix

_ZERO_FIELD_TOL = 1e-12


@dataclass(frozen=True)
class AutonomousPiece:
    """One season's autonomous dynamics: field, Jacobian, linearization at 0."""

    vector_field: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    linearization_at_zero: np.ndarray

    def __post_init__(self):
        lin = as_square_matrix(self.linearization_at_zero)
        object.__setattr__(self, "linearization_at_zero", lin)
        origin = np.zeros(lin.shape[0])
        f0 = np.asarray(self.vector_field(origin), dtype=float)
        if f0.shape != origin.shape:
            raise InvalidInputError(
                f"vector_field returns shape {f0.shape}, expected {origin.shape}"
            )
        if np.max(np.abs(f0)) > _ZERO_FIELD_TOL:
            raise InvalidInputError("vector_field does not vanish at the origin")

    @property
    def dimension(self) -> int:
        return self.linearization_at_zero.shape[0]

    @classmethod
    def linear(cls, a) -> "LinearPiece":
        """Piece with linear dynamics x' = A x."""
        m = as_square_matrix(a)
        return LinearPiece(
            vector_field=lambda x, _m=m: _linear_field(_m, x),
            jacobian=lambda x, _m=m: _m,
            linearization_at_zero=m,
        )


@dataclass(frozen=True)
class LinearPiece(AutonomousPiece):
    """A season x' = A x, A its linearization_at_zero, which determines it."""


def _linear_field(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x, taken as the one-column product m @ x[:, None], whose bits
    the tests pin: m @ x itself may round differently."""
    return (m @ x[..., None])[..., 0]


@dataclass(frozen=True)
class SeasonalSchedule:
    """Period plus the nondecreasing season breakpoints 0 = th_0 <= ... <= th_K = 1."""

    period_T: float
    breakpoints: tuple

    def __post_init__(self):
        if not (self.period_T > 0.0 and np.isfinite(self.period_T)):
            raise InvalidInputError(f"period_T must be positive, got {self.period_T}")
        bp = tuple(float(b) for b in self.breakpoints)
        if len(bp) < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise InvalidInputError("breakpoints must start at 0 and end at 1")
        if any(b1 > b2 for b1, b2 in zip(bp, bp[1:])):
            raise InvalidInputError("breakpoints must be nondecreasing")
        object.__setattr__(self, "breakpoints", bp)

    @property
    def num_seasons(self) -> int:
        return len(self.breakpoints) - 1

    def durations(self) -> np.ndarray:
        """Length of each season in time units."""
        bp = np.asarray(self.breakpoints)
        return np.diff(bp) * self.period_T


@dataclass(frozen=True)
class SeasonalSystem:
    schedule: SeasonalSchedule
    pieces: tuple

    def __post_init__(self):
        pieces = tuple(self.pieces)
        if len(pieces) != self.schedule.num_seasons:
            raise InvalidInputError(
                f"{len(pieces)} pieces for {self.schedule.num_seasons} seasons"
            )
        dims = {p.dimension for p in pieces}
        if len(dims) != 1:
            raise InvalidInputError(f"pieces disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "pieces", pieces)

    @property
    def dimension(self) -> int:
        return self.pieces[0].dimension

    @property
    def period_T(self) -> float:
        return self.schedule.period_T


def season_index(schedule: SeasonalSchedule, t: float) -> int:
    """1-based season index active at time t (right-continuous at breakpoints).

    Zero-length seasons are skipped, never returned.
    """
    return int(season_indices(schedule, [t])[0])


def season_indices(schedule: SeasonalSchedule, times) -> np.ndarray:
    """season_index of each entry of an array of times."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise InvalidInputError(f"t must be nonnegative, got {times[times < 0.0][0]}")
    frac = times / schedule.period_T
    frac -= np.floor(frac)
    bp = np.asarray(schedule.breakpoints)
    # the k with bp[k - 1] <= frac < bp[k]; equal breakpoints skip empty seasons
    k = np.searchsorted(bp, frac, side="right")
    # frac rounded up to 1.0: belongs to the last nonempty season
    return np.where(k < len(bp), k, np.flatnonzero(np.diff(bp) > 0.0)[-1] + 1)
