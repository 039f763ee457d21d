"""Two-stage insect population model: juveniles with quadratic competition
feeding an adult compartment.

State is (J, A) >= 0 and the rates are

    dJ/dt = b A - J (h + dJ + cJ J)
    dA/dt = h J - dA A

with all five parameters nonnegative. The basic offspring number
R0 = b h / (dA (h + dJ)) decides the autonomous fate: extinction at the
origin for R0 <= 1, a unique positive globally attracting steady state for
R0 > 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .seasonal import AutonomousPiece, SeasonalSchedule, SeasonalSystem

_R0_DEGENERATE_BAND = 1e-12
_PARAM_NAMES = ("b", "h", "dJ", "cJ", "dA")


@dataclass(frozen=True)
class InsectParams:
    """Birth, hatching, juvenile death, juvenile competition, adult death."""

    b: float
    h: float
    dJ: float
    cJ: float
    dA: float

    def __post_init__(self):
        for name in _PARAM_NAMES:
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise InvalidInputError(f"parameter {name} must be >= 0, got {value}")


def _rates(pi: InsectParams, j, a):
    return pi.b * a - j * (pi.h + pi.dJ + pi.cJ * j), pi.h * j - pi.dA * a


def _jacobian_entries(pi: InsectParams, j):
    return (-pi.h - pi.dJ - 2.0 * pi.cJ * j, pi.b), (pi.h, -pi.dA)


def vector_field(pi: InsectParams, x) -> np.ndarray:
    """Rates at a state (J, A), or at each row of a (B, 2) stack of states."""
    if getattr(x, "ndim", 1) == 2:
        out = np.empty_like(x)
        out[:, 0], out[:, 1] = _rates(pi, x[:, 0], x[:, 1])
        return out
    return np.array(_rates(pi, float(x[0]), float(x[1])))


def jacobian(pi: InsectParams, x) -> np.ndarray:
    """2 x 2 Jacobian at a state, or the (B, 2, 2) stack at each row of x."""
    if getattr(x, "ndim", 1) == 2:
        out = np.empty((len(x), 2, 2))
        (out[:, 0, 0], out[:, 0, 1]), (out[:, 1, 0], out[:, 1, 1]) = _jacobian_entries(pi, x[:, 0])
        return out
    return np.array(_jacobian_entries(pi, float(x[0])))


def r0(pi: InsectParams) -> float:
    """Basic offspring number b h / (dA (h + dJ))."""
    denom = pi.dA * (pi.h + pi.dJ)
    if denom <= 0.0:
        raise InvalidInputError("r0 needs dA > 0 and h + dJ > 0")
    return pi.b * pi.h / denom


@dataclass(frozen=True)
class EquilibriumReport:
    """Steady states with their local classification.

    s1 is present exactly when r0 > 1. direction_delta1 is the approach angle
    at the origin in the degenerate r0 = 1 case; unstable_slope_k1 is the
    slope A/J of the unstable manifold of the origin when r0 > 1.
    """

    r0: float
    s0_classification: str
    s1: np.ndarray | None
    s1_classification: str | None
    direction_delta1: float | None
    unstable_slope_k1: float | None


def equilibria(pi: InsectParams) -> EquilibriumReport:
    if pi.b <= 0.0:
        raise InvalidInputError("equilibria() needs b > 0")
    value = r0(pi)  # validates dA > 0 and h + dJ > 0; h = 0 lands on the r0 = 0 path
    if value > 1.0 and pi.cJ <= 0.0:
        raise InvalidInputError("positive steady state needs cJ > 0")
    if abs(value - 1.0) <= _R0_DEGENERATE_BAND:
        return EquilibriumReport(
            r0=value,
            s0_classification="higher_order_attracting",
            s1=None,
            s1_classification=None,
            direction_delta1=math.atan((pi.h + pi.dJ) / pi.b),
            unstable_slope_k1=None,
        )
    if value > 1.0:
        scale = value - 1.0
        s1 = np.array(
            [
                scale * (pi.h + pi.dJ) / pi.cJ,
                scale * pi.h * (pi.h + pi.dJ) / (pi.cJ * pi.dA),
            ]
        )
        gap = pi.h + pi.dJ - pi.dA
        k1 = (gap + math.sqrt(gap * gap + 4.0 * pi.b * pi.h)) / (2.0 * pi.b)
        return EquilibriumReport(
            r0=value,
            s0_classification="saddle",
            s1=s1,
            s1_classification="stable_node",
            direction_delta1=None,
            unstable_slope_k1=k1,
        )
    return EquilibriumReport(
        r0=value,
        s0_classification="stable_node",
        s1=None,
        s1_classification=None,
        direction_delta1=None,
        unstable_slope_k1=None,
    )


@dataclass(frozen=True)
class InvariantBox:
    """Forward-invariant rectangles [0, L] x [0, tau_star L] for L >= j_star.

    tau_star bounds the adult/juvenile ratio sustained by hatching against
    adult death; j_star is the juvenile level above which competition
    dominates the inflow on the right edge.
    """

    tau_star: float
    j_star: float

    @property
    def min_level(self) -> float:
        return max(0.0, self.j_star)

    def upper_corner(self, level: float) -> np.ndarray:
        if level < self.min_level:
            raise InvalidInputError(
                f"box level {level} below the invariant minimum {self.min_level}"
            )
        return np.array([level, self.tau_star * level])


def invariant_box(params_over_time) -> InvariantBox:
    """Invariant-box data for a schedule of parameter sets.

    Accepts any iterable of InsectParams (the distinct seasonal values).
    Requires cJ and dA bounded away from zero so the suprema are finite.
    """
    params = list(params_over_time)
    if not params:
        raise InvalidInputError("empty parameter schedule")
    for pi in params:
        if pi.cJ <= 0.0 or pi.dA <= 0.0:
            raise InvalidInputError("invariant box needs cJ > 0 and dA > 0 throughout")
    tau_star = max(pi.h / pi.dA for pi in params)
    j_star = max((pi.b * tau_star - pi.h - pi.dJ) / pi.cJ for pi in params)
    return InvariantBox(tau_star=tau_star, j_star=j_star)


def divergence(pi: InsectParams, x) -> float:
    """Divergence bound -(h + dJ + cJ J + dA) used by the planar no-cycle test."""
    if pi.h + pi.dJ + pi.dA <= 0.0:
        raise InvalidInputError("divergence needs h + dJ + dA > 0")
    j = float(x[0])
    if j < 0.0:
        raise InvalidInputError("state must be nonnegative")
    return -(pi.h + pi.dJ + pi.cJ * j + pi.dA)


def piece_from_params(pi: InsectParams) -> AutonomousPiece:
    return AutonomousPiece(
        vector_field=lambda x, _p=pi: vector_field(_p, x),
        jacobian=lambda x, _p=pi: jacobian(_p, x),
        linearization_at_zero=jacobian(pi, np.zeros(2)),
    )


def as_seasonal_system(
    pi_unfavorable: InsectParams,
    pi_favorable: InsectParams,
    theta: float,
    period_T: float = 1.0,
) -> SeasonalSystem:
    """Two-season system: unfavorable parameters on [0, theta), favorable after."""
    if not (0.0 <= theta <= 1.0):
        raise InvalidInputError(f"theta must lie in [0, 1], got {theta}")
    schedule = SeasonalSchedule(period_T=period_T, breakpoints=(0.0, theta, 1.0))
    return SeasonalSystem(
        schedule=schedule,
        pieces=(piece_from_params(pi_unfavorable), piece_from_params(pi_favorable)),
    )
