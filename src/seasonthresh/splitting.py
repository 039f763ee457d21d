"""Optimization of the dominant multiplier over split-season schedules.

A schedule interleaves K unfavorable blocks (fractions sigma) with K
favorable blocks (sigma'), subject to sum(sigma) = theta and
sum(sigma') = 1 - theta. Season matrices here absorb the period:
m = T * (linearization at zero).
"""

import itertools
import numbers
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .errors import InvalidInputError
from .linalg import (
    as_square_matrix,
    exp_products,
    spectral_abscissa,
    spectral_radii,
    spectral_radius,
)

_MEMBERSHIP_TOL = 1e-12
_GRID_CELL_CAP = 5_000_000
_BOUND_TOL = 1e-9  # excess of rho over the factor bound that counts as a violation


@dataclass(frozen=True)
class SplitSchedule:
    """Interleaved season fractions; rightmost block in the product is sigma[0]."""

    sigma: tuple
    sigma_prime: tuple

    def __post_init__(self):
        sig = tuple(float(v) for v in self.sigma)
        sigp = tuple(float(v) for v in self.sigma_prime)
        if len(sig) != len(sigp) or not sig:
            raise InvalidInputError("sigma and sigma_prime must have equal positive length")
        allv = sig + sigp
        if any(not (0.0 <= v <= 1.0) for v in allv):
            raise InvalidInputError("schedule fractions must lie in [0, 1]")
        if abs(sum(allv) - 1.0) > _MEMBERSHIP_TOL:
            raise InvalidInputError(
                f"schedule fractions must total 1, got {sum(allv)!r}"
            )
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "sigma_prime", sigp)

    @property
    def k(self) -> int:
        return len(self.sigma)

    @property
    def theta(self) -> float:
        return sum(self.sigma)


def single_block(theta: float) -> SplitSchedule:
    return SplitSchedule(sigma=(theta,), sigma_prime=(1.0 - theta,))


def random_schedule(theta: float, k: int, rng) -> SplitSchedule:
    """Uniform-ish random member of the split-schedule set for given theta."""
    sigma = _random_simplex(theta, k, rng)
    sigma_prime = _random_simplex(1.0 - theta, k, rng)
    return SplitSchedule(sigma=sigma, sigma_prime=_absorb_drift(sigma, sigma_prime))


def _absorb_drift(sigma, sigma_prime) -> tuple:
    """sigma_prime with the float drift of the total from 1 added to its last
    fraction, clamped at 0: a zero last fraction and a negative drift would
    otherwise leave the unit interval, and the clamp stays inside
    _MEMBERSHIP_TOL of a total of 1."""
    drift = 1.0 - (sum(sigma) + sum(sigma_prime))
    return sigma_prime[:-1] + (max(0.0, sigma_prime[-1] + drift),)


def _random_simplex(total: float, k: int, rng) -> tuple:
    if k == 1:
        return (total,)
    cuts = np.sort(rng.uniform(0.0, total, k - 1))
    parts = np.diff(np.concatenate([[0.0], cuts, [total]]))
    return tuple(float(p) for p in parts)


def split_monodromy(m1, m2, schedule: SplitSchedule) -> np.ndarray:
    """Ordered 2K-factor product of block exponentials, first block rightmost."""
    blocks = _blocks(schedule.sigma, schedule.sigma_prime)
    return exp_products(_season_pair(m1, m2), [blocks], {})[0]


def _season_pair(m1, m2):
    a = as_square_matrix(m1)
    b = as_square_matrix(m2)
    if a.shape != b.shape:
        raise InvalidInputError("m1 and m2 must share a shape")
    return a, b


def _blocks(sigma, sigma_prime) -> list:
    """A schedule's block durations sigma[0], sigma_prime[0], sigma[1], ...,
    first block rightmost: an exp_products row over the seasons (m1, m2)."""
    return [d for pair in zip(sigma, sigma_prime) for d in pair]


def _compositions(total: int, parts: int):
    """Nonnegative integer tuples of given length summing to total."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for bar in bars + (total + parts - 1,):
            out.append(bar - prev - 1)
            prev = bar
        yield tuple(out)


def optimize_split(
    m1,
    m2,
    theta: float,
    k: int,
    mode: str = "max",
    resolution: int = 50,
    method: str = "grid",
    restarts: int = 8,
    seed: int = 0,
) -> tuple[SplitSchedule, float]:
    """Best schedule and its multiplier over the split-schedule set.

    method="grid" enumerates the product of two integer simplex grids with
    `resolution` subdivisions each; the result is exact on the grid, hence a
    lower (max) or upper (min) estimate of the true optimum. method="descent"
    is a coordinate-descent heuristic with random restarts for larger K; it
    carries no optimality guarantee.

    Both methods exponentiate each distinct block once per call and form
    their products in stacks: the grid one per row (one unfavorable
    composition against every favorable one, one stacked eigen-solve),
    descent one per pair sweep, scoring each distinct schedule once. k,
    resolution and restarts must be ints (not bools), k and resolution >= 1.
    """
    if mode not in ("max", "min"):
        raise InvalidInputError(f"mode must be 'max' or 'min', got {mode!r}")
    if not (0.0 <= theta <= 1.0):
        raise InvalidInputError(f"theta must lie in [0, 1], got {theta}")
    for name, value in (("k", k), ("resolution", resolution), ("restarts", restarts)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidInputError(f"{name} must be an int, got {value!r}")
    if k < 1 or resolution < 1:
        raise InvalidInputError(f"k and resolution must be >= 1, got {k} and {resolution}")
    if method == "grid":
        if k > 4:
            raise InvalidInputError("grid search supports k <= 4; use method='descent'")
        return _optimize_grid(m1, m2, theta, k, mode, resolution)
    if method == "descent":
        return _optimize_descent(m1, m2, theta, k, mode, resolution, restarts, seed)
    raise InvalidInputError(f"unknown method {method!r}")


def _optimize_grid(m1, m2, theta, k, mode, resolution):
    cells = comb(resolution + k - 1, k - 1) ** 2
    if cells > _GRID_CELL_CAP:
        raise InvalidInputError(
            f"simplex grid would have {cells} cells; lower the resolution or k"
        )
    seasons = _season_pair(m1, m2)
    table = {}
    sign = 1.0 if mode == "max" else -1.0
    favorable = [
        tuple((1.0 - theta) * c / resolution for c in wf) for wf in _compositions(resolution, k)
    ]
    best = None
    best_value = -np.inf
    for wu in _compositions(resolution, k):
        sigma = tuple(theta * c / resolution for c in wu)
        row = [_absorb_drift(sigma, sigma_prime) for sigma_prime in favorable]
        products = exp_products(seasons, [_blocks(sigma, sp) for sp in row], table)
        values = sign * spectral_radii(products)
        # argmax takes the first maximum: the strict > of a cell-by-cell scan
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_value = float(values[i])
            best = (sigma, row[i])
    return SplitSchedule(*best), sign * best_value


def _optimize_descent(m1, m2, theta, k, mode, resolution, restarts, seed):
    seasons = _season_pair(m1, m2)
    table = {}
    sign = 1.0 if mode == "max" else -1.0
    rng = np.random.default_rng(seed)
    scores = {}  # each pair sweep revisits the schedule it starts from

    def score(schedules) -> list:
        """sign * rho of each schedule; the ones not yet scored are one stack."""
        keys = [(s.sigma, s.sigma_prime) for s in schedules]
        new = list(dict.fromkeys(key for key in keys if key not in scores))
        if new:
            products = exp_products(seasons, [_blocks(*key) for key in new], table)
            scores.update(zip(new, (sign * spectral_radii(products)).tolist()))
        return [scores[key] for key in keys]

    def polish(schedule):
        current = schedule
        value = score([current])[0]
        improved = True
        while improved:
            improved = False
            for which in ("sigma", "sigma_prime"):
                for i in range(k):
                    for j in range(i + 1, k):
                        # an improvement moves only fractions i and j, which every
                        # candidate sets itself: the sweep is fixed up front
                        parts = getattr(current, which)
                        budget = parts[i] + parts[j]
                        candidates = []
                        for frac in np.linspace(0.0, 1.0, resolution + 1):
                            trial = list(parts)
                            trial[i] = budget * frac
                            trial[j] = budget * (1.0 - frac)
                            candidates.append(replace(current, **{which: tuple(trial)}))
                        for candidate, v in zip(candidates, score(candidates)):
                            if v > value + 1e-14:
                                current, value, improved = candidate, v, True
        return current, value

    seeds = [
        SplitSchedule(
            sigma=tuple(theta / k for _ in range(k)),
            sigma_prime=tuple((1.0 - theta) / k for _ in range(k)),
        )
    ]
    seeds += [random_schedule(theta, k, rng) for _ in range(max(0, restarts - 1))]
    best, best_value = None, -np.inf
    for start in seeds:
        candidate, value = polish(start)
        if value > best_value:
            best, best_value = candidate, value
    return best, sign * best_value


@dataclass(frozen=True)
class GelfandProbeReport:
    """Observed multipliers against the product-of-factors bound.

    The bound (factor_bound) relies on submultiplicativity of the spectral
    radius, which is not guaranteed for these products; rows with rho
    exceeding the bound by more than 1e-9 land in `violations`.
    """

    rho_values: np.ndarray
    bounds: np.ndarray
    violations: list
    mu1: float
    mu2: float

    @property
    def violation_count(self) -> int:
        return len(self.violations)


def factor_bound(mu1: float, mu2: float, theta: float) -> float:
    """exp(theta mu1 + (1 - theta) mu2), the product of the factors' bounds,
    for season spectral abscissas mu1, mu2 and unfavorable share theta."""
    return float(np.exp(theta * mu1 + (1.0 - theta) * mu2))


def bound_violated(value: float, bound: float) -> bool:
    """Whether a multiplier exceeds its factor bound by more than 1e-9."""
    return value > bound + _BOUND_TOL


def gelfand_bound_probe(m1, m2, schedules) -> GelfandProbeReport:
    a = as_square_matrix(m1)
    b = as_square_matrix(m2)
    mu1 = spectral_abscissa(a)
    mu2 = spectral_abscissa(b)
    rhos = []
    bounds = []
    violations = []
    for schedule in schedules:
        value = spectral_radius(split_monodromy(a, b, schedule))
        bound = factor_bound(mu1, mu2, schedule.theta)
        rhos.append(value)
        bounds.append(bound)
        if bound_violated(value, bound):
            violations.append((schedule, value, bound))
    return GelfandProbeReport(
        rho_values=np.asarray(rhos),
        bounds=np.asarray(bounds),
        violations=violations,
        mu1=mu1,
        mu2=mu2,
    )


def shared_eigenvector_threshold(mu_unfavorable: float, mu_favorable: float) -> float:
    """Closed-form interior threshold when the seasons share a Perron vector.

    Requires growth in the favorable season and decay in the unfavorable one
    (mu_favorable > 0 > mu_unfavorable); then log rho interpolates linearly
    and the root is mu_favorable / (mu_favorable - mu_unfavorable).
    """
    if not (mu_favorable > 0.0 > mu_unfavorable):
        raise InvalidInputError(
            "requires mu_favorable > 0 > mu_unfavorable, got "
            f"({mu_unfavorable}, {mu_favorable})"
        )
    return mu_favorable / (mu_favorable - mu_unfavorable)
