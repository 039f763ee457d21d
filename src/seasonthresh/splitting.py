"""Optimization of the dominant multiplier over split-season schedules.

A schedule interleaves K unfavorable blocks (fractions sigma) with K
favorable blocks (sigma'), subject to sum(sigma) = theta and
sum(sigma') = 1 - theta. Season matrices here absorb the period:
m = T * (linearization at zero).
"""

import itertools
import numbers
from dataclasses import dataclass
from math import comb

import numpy as np

from . import linalg
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
        _check_fractions(sig, sigp)
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "sigma_prime", sigp)

    @property
    def k(self) -> int:
        return len(self.sigma)

    @property
    def theta(self) -> float:
        return sum(self.sigma)

    @property
    def blocks(self) -> list:
        """Block durations, first block rightmost: an exp_products row over (m1, m2)."""
        return _blocks(self.sigma, self.sigma_prime)


def _check_fractions(sig: tuple, sigp: tuple):
    """Raise unless the float tuples sig and sigp make a schedule: equal
    positive lengths, every fraction in [0, 1], a total within
    _MEMBERSHIP_TOL of 1."""
    if len(sig) != len(sigp) or not sig:
        raise InvalidInputError("sigma and sigma_prime must have equal positive length")
    allv = sig + sigp
    if any(not (0.0 <= v <= 1.0) for v in allv):
        raise InvalidInputError("schedule fractions must lie in [0, 1]")
    if abs(sum(allv) - 1.0) > _MEMBERSHIP_TOL:
        raise InvalidInputError(
            f"schedule fractions must total 1, got {sum(allv)!r}"
        )


def single_block(theta: float) -> SplitSchedule:
    return SplitSchedule(sigma=(theta,), sigma_prime=(1.0 - theta,))


def random_schedule(theta: float, k: int, rng) -> SplitSchedule:
    """Uniform-ish random member of the split-schedule set for given theta."""
    theta = theta + 0.0  # -0.0 as 0.0, as numpy refuses uniform(0.0, -0.0); other thetas keep their bits
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
    cuts = sorted(rng.uniform(0.0, total, k - 1).tolist())
    return tuple(b - a for a, b in zip([0.0, *cuts], [*cuts, total]))


def split_monodromy(m1, m2, schedule: SplitSchedule) -> np.ndarray:
    """Ordered 2K-factor product of block exponentials, first block rightmost."""
    return exp_products(_season_pair(m1, m2), [schedule.blocks], {})[0]


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
    their products in stacks. The grid scans its cells in row-major order
    (unfavorable composition outer) in stacks of at most
    linalg._STACK_ENTRIES // n^2 schedules, one stacked eigen-solve each,
    builds each stack's durations from the composition arrays and keeps the
    first best cell. Descent sweeps each start on its own and scores ahead:
    a round stacks the next sweep positions of every live start, built from
    its current schedule (the moves it makes if none before them improves),
    at most linalg._STACK_ENTRIES // n^2 rows a stack, and each start then
    takes its positions in order up to the first that improves. So each
    start makes the moves it would make alone, the result and any error are
    those of a lockstep sweep of all starts, and each distinct schedule is
    scored once. k, resolution and restarts must be ints (not bools) and at
    least 1.
    """
    if mode not in ("max", "min"):
        raise InvalidInputError(f"mode must be 'max' or 'min', got {mode!r}")
    if not (0.0 <= theta <= 1.0):
        raise InvalidInputError(f"theta must lie in [0, 1], got {theta}")
    for name, value in (("k", k), ("resolution", resolution), ("restarts", restarts)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidInputError(f"{name} must be an int, got {value!r}")
        if value < 1:
            raise InvalidInputError(f"{name} must be >= 1, got {value}")
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
    weights = np.array(list(_compositions(resolution, k)), dtype=float)
    unfavorable = theta * weights / resolution
    favorable = (1.0 - theta) * weights / resolution
    # Python's sum of each composition, as _absorb_drift's drift takes it, so
    # the rows keep its bits on every version (3.12+ compensates float sums)
    totals = [np.array([sum(row) for row in parts.tolist()]) for parts in (unfavorable, favorable)]
    size = max(1, linalg._STACK_ENTRIES // len(seasons[0]) ** 2)
    best = None
    best_value = -np.inf
    # row-major: one unfavorable composition against every favorable one,
    # each stack's rows built from their cell numbers
    for start in range(0, cells, size):
        u, f = np.divmod(np.arange(start, min(start + size, cells)), len(weights))
        rows = np.empty((len(u), 2 * k))
        rows[:, 0::2] = unfavorable[u]
        rows[:, 1::2] = favorable[f]
        drift = 1.0 - (totals[0][u] + totals[1][f])
        # max(0.0, x) as _absorb_drift takes it: + 0.0 turns -0.0 into 0.0
        rows[:, -1] = np.maximum(0.0, rows[:, -1] + drift) + 0.0
        values = sign * spectral_radii(exp_products(seasons, rows, table))
        # argmax takes a stack's first maximum and the strict > keeps an
        # earlier stack's: the first best cell of a row-major scan
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_value = float(values[i])
            best = rows[i].tolist()
    return SplitSchedule(best[0::2], best[1::2]), sign * best_value


def _optimize_descent(m1, m2, theta, k, mode, resolution, restarts, seed):
    seasons = _season_pair(m1, m2)
    table = {}
    sign = 1.0 if mode == "max" else -1.0
    rng = np.random.default_rng(seed)
    size = max(1, linalg._STACK_ENTRIES // len(seasons[0]) ** 2)
    # sign * rho by row bytes, -0.0 keyed as 0.0 as a tuple key has it: each
    # pass revisits the schedule it starts from. A row that overflows scores
    # nan and keeps its error, raised only if the sweep comes to the row
    scores, errors = {}, {}

    def score(rows) -> tuple[list, dict]:
        """The score of each row of a (rows, 2K) durations array, and the
        errors of its rows that have one by row index; the rows not yet
        scored go in stacks of at most `size`."""
        keys = (rows + 0.0).view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
        new = {key: at for at, key in enumerate(keys) if key not in scores}
        names, fresh = list(new), list(new.values())
        for first in range(0, len(fresh), size):
            part = rows[fresh[first:first + size]]
            try:
                values = (sign * spectral_radii(exp_products(seasons, part, table))).tolist()
            except InvalidInputError:
                values = [alone(key, row) for key, row in zip(names[first:], part)]
            scores.update(zip(names[first:first + size], values))
        failed = {at: errors[key] for at, key in enumerate(keys) if key in errors} if errors else {}
        return list(map(scores.__getitem__, keys)), failed

    def alone(key, row) -> float:
        """One row's score; a row that overflows scores nan and keeps
        (False, error) if a block overflows, (True, error) if only its
        product does, the order in which one stack raises them."""
        product = None
        try:
            product = exp_products(seasons, row[None], table)
            return float(sign * spectral_radii(product)[0])
        except InvalidInputError as exc:
            errors[key] = (product is not None, exc)
            return np.nan

    def moves(base, columns) -> np.ndarray:
        """The candidates of each row of base at its (i, j) durations columns:
        i and j re-split at each of fracs, as budget * frac and
        budget * (1.0 - frac), `width` rows a base row."""
        out = base.repeat(width, axis=0)
        every = np.arange(len(out))
        first, second = columns.repeat(width, axis=0).T
        budget = out[every, first] + out[every, second]
        out[every, first] = budget * np.tile(fracs, len(base))
        out[every, second] = budget * np.tile(1.0 - fracs, len(base))
        return out

    fracs = np.linspace(0.0, 1.0, resolution + 1)
    width = len(fracs)
    # sweep position (which, i, j) re-splits durations columns 2i + which and
    # 2j + which: fractions i and j of sigma (which 0) or of sigma_prime
    pairs = np.array(
        [(2 * i + which, 2 * j + which) for which in (0, 1) for i in range(k) for j in range(i + 1, k)],
        dtype=np.intp,
    ).reshape(-1, 2)
    order = np.r_[0:2 * k:2, 1:2 * k:2]  # sigma, then sigma_prime, as _check_fractions sums
    starts = [
        SplitSchedule(
            sigma=tuple(theta / k for _ in range(k)),
            sigma_prime=tuple((1.0 - theta) / k for _ in range(k)),
        )
    ]
    starts += [random_schedule(theta, k, rng) for _ in range(restarts - 1)]
    current = np.array([s.blocks for s in starts])
    values, failed = score(current)
    if failed:
        raise min(failed.values(), key=lambda f: f[0])[1]
    # each start sweeps on its own, so it makes the moves it would make
    # alone: it is at position cursor[s] of its pass passes[s], moved[s]
    # tells whether that pass has improved, and it leaves after a pass that
    # improves nothing. It scores ahead[s] positions a round: a whole pass
    # at first, then as many as it took to improve, doubled after a round
    # with no move. An error is kept with its place in a lockstep sweep of
    # all starts, (pass, position, 0, start) for a check and
    # (pass, position, 1, stage) for a score, and the first is raised
    cursor, passes, moved = [0] * restarts, [0] * restarts, [False] * restarts
    ahead = [len(pairs)] * restarts
    failures = []
    live = list(range(restarts)) if len(pairs) else []
    while live:
        # a round scores the next positions of each live start from its
        # current row: the moves it makes if none before them improves. A
        # round's rows stay near one stack
        cap = max(1, size // (width * len(live)))
        spans = [(s, cursor[s], min(len(pairs), cursor[s] + min(cap, ahead[s]))) for s in live]
        where = np.concatenate([np.arange(a, b) for _, a, b in spans])
        rows = moves(current[np.repeat(live, [b - a for _, a, b in spans])], pairs[where])
        scored, failed = score(rows)
        inrange = ((rows >= 0.0) & (rows <= 1.0)).all(axis=1).tolist()
        ordered = rows[:, order].tolist()
        kept, at = [], 0
        for s, first, last in spans:
            failure, improved = None, False
            # the start's positions in order, up to the first that improves:
            # each one's candidates checked as SplitSchedule checks them,
            # then compared in order against the running best
            for q in range(first, last):
                lo = at + (q - first) * width
                group = range(lo, lo + width)
                # _check_fractions' tests, abs(total - 1.0) > tol taken as
                # max - 1.0 and 1.0 - min; a refused group is checked again
                # candidate by candidate for the error
                totals = list(map(sum, ordered[lo:lo + width]))
                if (not all(inrange[lo:lo + width]) or max(totals) - 1.0 > _MEMBERSHIP_TOL
                        or 1.0 - min(totals) > _MEMBERSHIP_TOL):
                    try:
                        for c in group:
                            _check_fractions(tuple(rows[c, 0::2].tolist()), tuple(rows[c, 1::2].tolist()))
                    except InvalidInputError as exc:
                        failure = (passes[s], q, 0, s), exc
                        break
                refused = [failed[c] for c in group if c in failed] if failed else None
                if refused:
                    stage, exc = min(refused, key=lambda f: f[0])
                    failure = (passes[s], q, 1, stage), exc
                    break
                cursor[s] = q + 1
                for c in group:
                    if scored[c] > values[s] + 1e-14:
                        current[s], values[s], improved = rows[c], scored[c], True
                if improved:
                    break
            at += (last - first) * width
            ahead[s] = cursor[s] - first if improved else 2 * (last - first)
            moved[s] = moved[s] or improved
            if failure:
                failures.append(failure)
            elif cursor[s] < len(pairs):
                kept.append(s)
            elif moved[s]:
                cursor[s], passes[s], moved[s] = 0, passes[s] + 1, False
                kept.append(s)
        live = kept
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    best, best_value = None, -np.inf
    for row, value in zip(current, values):
        if value > best_value:
            best, best_value = row, value
    return SplitSchedule(best[0::2].tolist(), best[1::2].tolist()), sign * best_value


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
