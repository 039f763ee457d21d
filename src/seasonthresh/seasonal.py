"""Periodic piecewise-autonomous systems and their structural hypotheses.

A system of period T is a list of autonomous pieces, the k-th active while
the fractional part of t/T lies in [theta_{k-1}, theta_k). Structural checks
(cooperativity, positivity, concavity, irreducibility at zero) are sample
based: they certify the hypotheses on a finite grid, nothing more.
"""

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError
from .linalg import as_square_matrix, is_irreducible

_ZERO_FIELD_TOL = 1e-12
_SAMPLE_COUNT = 50
_SAMPLE_SEED = 2718
_STRUCTURE_TOL = 1e-9  # violation allowed before a sampled hypothesis fails
_FD_STEP = 1e-6


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
    def linear(cls, a) -> "AutonomousPiece":
        """Piece with linear dynamics x' = A x, on a state or a (B, n) stack."""
        m = as_square_matrix(a)
        return cls(
            vector_field=lambda x, _m=m: _linear_field(_m, x),
            jacobian=lambda x, _m=m: _m,
            linearization_at_zero=m,
        )


def _linear_field(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a state, row by row for a (B, n) stack."""
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

    def piece_at(self, t: float) -> AutonomousPiece:
        return self.pieces[season_index(self.schedule, t) - 1]


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


@dataclass(frozen=True)
class ValidationReport:
    """Sampled checks of the structural hypotheses.

    Margins are the worst (most violating) values seen; positive margins mean
    the inequality held with room to spare.
    """

    metzler_at_samples: bool
    positive: bool
    concave_at_samples: bool
    irreducible_at_zero: bool
    margins: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return (
            self.metzler_at_samples
            and self.positive
            and self.concave_at_samples
            and self.irreducible_at_zero
        )


def default_sample_states(dimension: int):
    """Random nonnegative states in [0, 10]^N plus axis boundary points."""
    rng = np.random.default_rng(_SAMPLE_SEED)
    states = [rng.uniform(0.0, 10.0, dimension) for _ in range(_SAMPLE_COUNT)]
    for i in range(dimension):
        for r in (0.5, 2.0):
            e = np.zeros(dimension)
            e[i] = r
            states.append(e)
    states.append(np.zeros(dimension))
    return states


def validate_structure(
    system: SeasonalSystem,
    sample_states: Sequence[np.ndarray] | None = None,
) -> ValidationReport:
    """Check Metzler / positivity / concavity / irreducibility on samples."""
    n = system.dimension
    if sample_states is None:
        sample_states = default_sample_states(n)
    samples = [np.asarray(s, dtype=float) for s in sample_states]
    for s in samples:
        if s.shape != (n,):
            raise InvalidInputError(f"sample of shape {s.shape} does not match dimension {n}")
        if np.any(s < 0.0):
            raise InvalidInputError("sample states must be nonnegative")

    metzler_margin = np.inf
    for piece in system.pieces:
        for s in samples:
            j = as_square_matrix(piece.jacobian(s))
            off = j[~np.eye(n, dtype=bool)]
            if off.size:
                metzler_margin = min(metzler_margin, float(off.min()))

    positive_margin = np.inf
    for piece in system.pieces:
        for s in samples:
            for i in range(n):
                boundary = s.copy()
                boundary[i] = 0.0
                fi = float(np.asarray(piece.vector_field(boundary))[i])
                positive_margin = min(positive_margin, fi)

    concave_margin = np.inf
    pairs = ordered_pairs(samples)
    for piece in system.pieces:
        for x, y in pairs:
            diff = as_square_matrix(piece.jacobian(x)) - as_square_matrix(piece.jacobian(y))
            concave_margin = min(concave_margin, float(diff.min()))

    irreducible = all(is_irreducible(p.linearization_at_zero) for p in system.pieces)

    margins = {
        "metzler": metzler_margin,
        "positive": positive_margin,
        "concave": concave_margin,
        "ordered_pairs": len(pairs),
    }
    return ValidationReport(
        metzler_at_samples=metzler_margin >= -_STRUCTURE_TOL,
        positive=positive_margin >= -_STRUCTURE_TOL,
        concave_at_samples=concave_margin >= -_STRUCTURE_TOL,
        irreducible_at_zero=irreducible,
        margins=margins,
    )


def ordered_pairs(samples) -> list:
    """All (x, y) pairs from the list with x strictly below y componentwise."""
    pairs = []
    for x in samples:
        for y in samples:
            if x is not y and np.all(x < y):
                pairs.append((x, y))
    return pairs


def jacobian_consistency(piece: AutonomousPiece, states) -> float:
    """Worst entrywise gap between the Jacobian and a central finite difference."""
    worst = 0.0
    for s in states:
        s = np.asarray(s, dtype=float)
        n = s.size
        j = as_square_matrix(piece.jacobian(s))
        fd = np.empty_like(j)
        for k in range(n):
            dp = s.copy()
            dm = s.copy()
            dp[k] += _FD_STEP
            dm[k] -= _FD_STEP
            fd[:, k] = (
                np.asarray(piece.vector_field(dp)) - np.asarray(piece.vector_field(dm))
            ) / (2.0 * _FD_STEP)
        worst = max(worst, float(np.max(np.abs(j - fd))))
    return worst
