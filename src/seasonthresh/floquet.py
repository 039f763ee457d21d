"""Monodromy matrices, their dominant eigenvalue rho(theta), and the season
threshold solving rho = 1.

Conventions, fixed once: season 1 (unfavorable) occupies the fraction
[0, theta) of each period and season 2 (favorable) the rest, so the period
map of the linearization at zero is

    M(theta) = exp((1 - theta) T m2) @ exp(theta T m1).

With S = m1 - m2 and (rho, V, V*) the Perron data of M(theta),

    (log rho)'(theta) = T <S V, V*>,

and the second derivative follows from the constrained resolvent of
(M - rho I) on the complement of the Perron direction.

One evaluator, `_evaluate`, computes all of it for an array of theta at
once, on one linearization or on a sequence of them of one dimension. It
never forms M: each season is shifted by its spectral abscissa mu_k, so
M = exp(T (theta mu1 + (1 - theta) mu2)) P with P the product of the
shifted exponentials, whose entries stay within double range at any period,
and log rho = log rho(P) + T (theta mu1 + (1 - theta) mu2). Its answer is
one record, a RhoProfile, in that log form; rho, rho', rho'' and the
monodromies are formed on the record's first read of them, so a reader that
never reads them works at any period. rho_profiles cuts a stacked record into
one per linearization, and makes a stack that raises one call at a time.
"""

import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (
    ERRORS,
    CertificateError,
    ConditioningError,
    ConvergenceError,
    InvalidInputError,
)
from .linalg import (
    PerronPair,
    _dot,
    _matvec,
    as_matrix_stack,
    as_square_matrix,
    is_irreducible,
    is_metzler,
    mat_exp,
    ordered_products,
    perron_pair,
    spectral_abscissa,
)

DEFAULT_PERRON_TOL = 1e-12
DEFAULT_BISECT_TOL = 1e-10
DEFAULT_MAX_BISECT = 200
_ORTHO_TOL = 1e-9  # relative size of <b, v_star> that counts as orthogonal
DEFAULT_GRID_POINTS = 101
_TINY = np.finfo(float).tiny  # below it a double has lost precision


@dataclass(frozen=True)
class TwoSeasonLinearization:
    """Linearizations at zero of the two seasons, plus the period.

    m1 rules the unfavorable season, m2 the favorable one. Both must be
    Metzler and irreducible so the monodromy matrix is entrywise positive.
    """

    m1: np.ndarray
    m2: np.ndarray
    period_T: float

    def __post_init__(self):
        m1 = as_square_matrix(self.m1)
        m2 = as_square_matrix(self.m2)
        if m1.shape != m2.shape:
            raise InvalidInputError(f"season shapes differ: {m1.shape} vs {m2.shape}")
        _require_period(self.period_T)
        for name, m in (("m1", m1), ("m2", m2)):
            if not is_metzler(m):
                raise InvalidInputError(f"{name} is not Metzler")
            if not is_irreducible(m):
                raise InvalidInputError(f"{name} is not irreducible")
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m2", m2)

    @property
    def s(self) -> np.ndarray:
        """Season difference m1 - m2."""
        return self.m1 - self.m2

    @property
    def dimension(self) -> int:
        return self.m1.shape[0]

    def with_period(self, period_T: float) -> "TwoSeasonLinearization":
        """The same seasons at another period, which alone is checked; the
        seasons and, once computed, their period-free shifts carry over."""
        _require_period(period_T)
        copy = object.__new__(TwoSeasonLinearization)
        copy.__dict__.update(self.__dict__, period_T=period_T)
        return copy

    @cached_property
    def _shifted_seasons(self) -> tuple:
        """(mu1, mu2, m1 - mu1 I, m2 - mu2 I): each season shifted by its
        spectral abscissa, computed once per linearization."""
        mu1 = spectral_abscissa(self.m1)
        mu2 = spectral_abscissa(self.m2)
        eye = np.eye(self.dimension)
        return mu1, mu2, self.m1 - mu1 * eye, self.m2 - mu2 * eye


def _require_period(period_T):
    if not (period_T > 0.0 and np.isfinite(period_T)):
        raise InvalidInputError(f"period_T must be positive, got {period_T}")


@dataclass(frozen=True)
class _Stacked:
    """A sequence of linearizations of one dimension, each repeated once per
    theta: the attributes the evaluator reads, stacked one row per
    (linearization, theta), linearization-major."""

    m1: np.ndarray
    m2: np.ndarray
    period_T: np.ndarray
    _shifted_seasons: tuple


def _stacked(lins, count: int) -> _Stacked:
    def rows(values) -> np.ndarray:
        return np.repeat(np.array(values), count, axis=0)

    return _Stacked(
        rows([lin.m1 for lin in lins]),
        rows([lin.m2 for lin in lins]),
        rows([lin.period_T for lin in lins]),
        tuple(map(rows, zip(*(lin._shifted_seasons for lin in lins)))),
    )


def _cycle(lin: TwoSeasonLinearization, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log_scale, shifted) at each theta of a 1-D array, with
    log_scale = T (theta mu1 + (1 - theta) mu2) and
    shifted = exp((1 - theta) T (m2 - mu2)) exp(theta T (m1 - mu1)), the
    monodromy divided by exp(log_scale). The 2G exponentials are one call,
    their G products one ordered_products call. lin may be _Stacked, one
    row per theta."""
    outside = np.flatnonzero(~((thetas >= 0.0) & (thetas <= 1.0)))
    if outside.size:
        raise InvalidInputError(f"theta must lie in [0, 1], got {thetas[outside[0]]}")
    mu1, mu2, a1, a2 = lin._shifted_seasons
    t = lin.period_T
    d1 = thetas * t
    d2 = (1.0 - thetas) * t
    factors = mat_exp(np.concatenate([d1[:, None, None] * a1, d2[:, None, None] * a2]))
    return d1 * mu1 + d2 * mu2, ordered_products(factors.reshape((2, len(thetas)) + a1.shape[-2:]))


def _unshift(log_scale: np.ndarray, shifted: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The monodromies exp(log_scale) * shifted; InvalidInputError at the first
    theta whose monodromy leaves double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.exp(log_scale)[:, None, None] * shifted
    peak = m.max(axis=(1, 2))
    bad = np.flatnonzero(~(np.isfinite(peak) & (peak >= _TINY)))
    if bad.size:
        g = bad[0]
        raise InvalidInputError(
            f"the monodromy at theta = {thetas[g]:.17g} leaves double precision range "
            f"(it is exp({log_scale[g]:.6g}) times a matrix of norm ~1)"
        )
    return m


def monodromy(lin: TwoSeasonLinearization, theta: float) -> np.ndarray:
    """Period map exp((1-theta) T m2) exp(theta T m1), formed from the shifted
    product; InvalidInputError when it leaves double precision range."""
    thetas = np.array([theta], dtype=float)
    return _unshift(*_cycle(lin, thetas), thetas)[0]


@dataclass(frozen=True)
class RhoProfile:
    """The Floquet evaluator's record of lin at G values of theta.

    log rho = log_shifted + log_scale, with log_shifted = log rho(shifted);
    log_rho_prime = (log rho)' = T <S V, V*>; curvature = rho'' / rho (None
    unless asked for); v and v_star stack the Perron vectors as (G, n); the
    monodromies are exp(log_scale) * shifted, shifted of shape (G, n, n).
    rho, rho_prime, rho_second and the monodromies are formed on first read,
    not before, once, and raise InvalidInputError at the first theta where
    one leaves double precision range; the rest reads at any period.
    """

    lin: TwoSeasonLinearization
    thetas: np.ndarray
    log_shifted: np.ndarray
    log_scale: np.ndarray
    log_rho_prime: np.ndarray
    curvature: np.ndarray | None
    v: np.ndarray
    v_star: np.ndarray
    shifted: np.ndarray

    @cached_property
    def log_rho(self) -> np.ndarray:
        return self.log_shifted + self.log_scale

    @cached_property
    def _scaled(self) -> tuple:
        """(rho, rho', rho'' or None); InvalidInputError at the first theta
        where one of them leaves double precision range."""
        log_rho = self.log_rho
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.exp(log_rho)
            prime = values * self.log_rho_prime
            second = None if self.curvature is None else values * self.curvature
        ok = (values >= _TINY) & np.isfinite(values) & np.isfinite(prime)
        if second is not None:
            ok &= np.isfinite(second)
        bad = np.flatnonzero(~ok)
        if bad.size:
            g = bad[0]
            raise InvalidInputError(
                f"rho at theta = {self.thetas[g]:.17g} is exp({log_rho[g]:.6g}); it or a "
                "derivative leaves double precision range"
            )
        return values, prime, second

    rho = property(lambda self: self._scaled[0])
    rho_prime = property(lambda self: self._scaled[1])
    rho_second = property(lambda self: self._scaled[2])

    @cached_property
    def monodromies(self) -> np.ndarray:
        return _unshift(self.log_scale, self.shifted, self.thetas)

    def violations(self) -> list:
        """Grid cells (theta_i, theta_{i+1}) where rho fails to strictly
        decrease, read from log rho and its slope; none means the grid
        certifies it."""
        log_rho, slope = self.log_rho, self.log_rho_prime
        failed = ~((log_rho[1:] < log_rho[:-1]) & (slope[:-1] < 0.0))
        out = [(float(self.thetas[i]), float(self.thetas[i + 1])) for i in np.flatnonzero(failed)]
        if slope[-1] >= 0.0:
            out.append((float(self.thetas[-1]), float(self.thetas[-1])))
        return out


def _evaluate(lin, thetas, tol: float, second: bool = False) -> RhoProfile:
    """The Floquet evaluator: log rho, (log rho)', (when asked) rho'' / rho,
    the Perron vectors and the shifted monodromies at each theta of a
    nonempty 1-D sequence (any other thetas is an InvalidInputError), from
    one stacked exponential, one stacked Perron pair and one stacked
    bordered solve. Entry g has the bits of a call on theta[g] alone, as
    perron_pair's entries do.

    lin is one TwoSeasonLinearization or a sequence of them of one
    dimension, evaluated in the same three stacks: entry l * G + g is
    linearization l at theta[g], with the bits of a call on it alone. The
    stack's record has a _Stacked lin, and its errors are raised as they
    are; rho_profiles makes a loop's error of them.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1 or not thetas.size:
        raise InvalidInputError(f"thetas must be a nonempty 1-D array, got shape {thetas.shape}")
    if isinstance(lin, TwoSeasonLinearization):
        return _evaluate_rows(lin, thetas, tol, second)
    if len({one.dimension for one in lin}) != 1:
        raise InvalidInputError("expected a nonempty sequence of linearizations of one dimension")
    return _evaluate_rows(_stacked(lin, len(thetas)), np.tile(thetas, len(lin)), tol, second)


def _evaluate_rows(lin, thetas: np.ndarray, tol: float, second: bool) -> RhoProfile:
    """_evaluate's stacks on one linearization, or on _Stacked rows with
    thetas[r] the theta of row r."""
    log_scale, shifted = _cycle(lin, thetas)
    pair = perron_pair(shifted, tol=tol)
    v, v_star = pair.v, pair.v_star
    t = lin.period_T
    s = lin.m1 - lin.m2
    sv = _matvec(s, v)
    r = _dot(sv, v_star)
    curvature = None
    if second:
        mixed = _dot(_matvec(lin.m2 @ s - s @ lin.m1, v), v_star)
        # (Pi - I) S^T V*, with Pi the projection x -> <x, V> V*
        b = r[:, None] * v_star - _matvec(s.swapaxes(-1, -2), v_star)
        # rho <x, SV> does not change when M and rho are divided by one number:
        # the solve runs on shifted / max(shifted), which is M / max(M)
        peak = shifted.max(axis=(1, 2))
        ratio = pair.rho / peak
        x = constrained_resolvent(shifted / peak[:, None, None], ratio, v, v_star, b, side="adjoint")
        curvature = t * t * (2.0 * r * r + mixed + 2.0 * ratio * _dot(x, sv))
    return RhoProfile(lin, thetas, np.log(pair.rho), log_scale, t * r, curvature, v, v_star, shifted)


def rho(
    lin: TwoSeasonLinearization, theta: float, tol: float = DEFAULT_PERRON_TOL
) -> tuple[float, PerronPair]:
    """Dominant Floquet multiplier of the linearization with its Perron pair."""
    ev = _evaluate(lin, [theta], tol)
    value = float(ev.rho[0])
    return value, PerronPair(rho=value, v=ev.v[0], v_star=ev.v_star[0])


def rho_prime(lin: TwoSeasonLinearization, theta: float, tol: float = DEFAULT_PERRON_TOL) -> float:
    """d rho / d theta = T rho <S V, V*>, from the Perron pair of the monodromy matrix."""
    return float(_evaluate(lin, [theta], tol).rho_prime[0])


def rho_second(lin: TwoSeasonLinearization, theta: float, tol: float = DEFAULT_PERRON_TOL) -> float:
    """d^2 rho / d theta^2 via the constrained resolvent on the Perron complement."""
    return float(_evaluate(lin, [theta], tol, second=True).rho_second[0])


def constrained_resolvent(
    m,
    rho_value,
    v,
    v_star,
    b,
    side: str = "right",
) -> np.ndarray:
    """Solve (M - rho I) x = b on the complement of the Perron direction.

    side="right": b must satisfy <b, v_star> = 0; returns x with <v, x> = 0.
    side="adjoint": solves (M^T - rho I) x = b for <b, v> = 0, <x, v> = 0.

    Implemented as a bordered (n+1) x (n+1) system: the orthogonality
    constraint is appended as a row and the co-kernel direction as a column,
    which is nonsingular whenever the Perron root is simple.

    M may be a (G, n, n) stack, with rho_value of shape (G,) and v, v_star
    and b of shape (G, n): the G bordered systems are one batched solve, and
    each is held to its own orthogonality and residual checks.
    """
    stack = as_matrix_stack(m)
    g_count, n = stack.shape[:2]
    shape = np.shape(m)[:-1]
    try:
        vectors = np.array([v, v_star, b], dtype=float)
    except ValueError as exc:
        raise InvalidInputError(f"v, v_star and b must have shape {shape}") from exc
    if vectors.shape[1:] != shape:
        raise InvalidInputError(f"v, v_star and b must have shape {shape}, got {vectors.shape[1:]}")
    if not np.isfinite(vectors).all():
        raise InvalidInputError("vector has non-finite entries")
    v, v_star, b = vectors.reshape(3, g_count, n)
    b_norm = np.sqrt(_dot(b, b))
    shift = np.asarray(rho_value, dtype=float).reshape(-1, 1, 1) * np.eye(n)
    if side == "right":
        if (np.abs(_dot(b, v_star)) > _ORTHO_TOL * np.maximum(1.0, b_norm)).any():
            raise InvalidInputError("right-side b is not orthogonal to v_star")
        core = stack - shift
        column = v_star
    elif side == "adjoint":
        if (np.abs(_dot(b, v)) > _ORTHO_TOL * np.maximum(1.0, b_norm)).any():
            raise InvalidInputError("adjoint-side b is not orthogonal to v")
        core = stack.transpose(0, 2, 1) - shift
        column = v
    else:
        raise InvalidInputError(f"side must be 'right' or 'adjoint', got {side!r}")

    bordered = np.zeros((g_count, n + 1, n + 1))
    bordered[:, :n, :n] = core
    bordered[:, :n, n] = column
    bordered[:, n, :n] = v
    rhs = np.zeros((g_count, n + 1, 1))
    rhs[:, :n, 0] = b
    try:
        x = np.linalg.solve(bordered, rhs)[:, :n, 0]
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"bordered resolvent solve failed: {exc}") from exc
    gap = _matvec(core, x) - b
    residual = np.sqrt(_dot(gap, gap))
    core_norm = np.abs(core).sum(axis=-1).max(axis=-1)
    # absolute floor: a roundoff-sized b legitimately produces a roundoff-sized x
    allowed = np.maximum(
        1e-12 * (1.0 + core_norm), 1e-6 * (b_norm + core_norm * np.sqrt(_dot(x, x)))
    )
    if (residual > allowed).any():
        g = np.argmax(residual > allowed)
        raise ConditioningError(
            f"resolvent solve is rank-deficient beyond the Perron direction "
            f"(residual {residual[g]:.3e} > allowed {allowed[g]:.3e})"
        )
    return x.reshape(shape)


def _above_one(log_rho) -> np.ndarray:
    """rho > 1, with rho = exp(log rho) rounded as `rho` reports it; an
    exponential past double range keeps its side of 1."""
    with np.errstate(over="ignore"):
        return np.exp(log_rho) > 1.0


def rho_profile(
    lin: TwoSeasonLinearization,
    thetas=None,
    tol: float = DEFAULT_PERRON_TOL,
    second: bool = False,
) -> RhoProfile:
    """The evaluator's record of lin on a nonempty 1-D theta grid (101
    points on [0, 1] by default), entry g with the bits of rho, rho_prime
    and rho_second at theta[g]. Nothing is formed before it returns: rho,
    its derivatives and the monodromies raise where they are read."""
    if thetas is None:
        thetas = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
    return _evaluate(lin, thetas, tol, second)


def rho_profiles(lins, thetas, tol: float = DEFAULT_PERRON_TOL, second: bool = False) -> list:
    """rho_profile(lin, thetas, tol, second) for each of a sequence of
    linearizations, from one stacked evaluation per dimension, each profile
    with the bits of its own call and views of its stack's rows; like those
    calls, it forms nothing before it returns. A dimension whose stack
    raises a typed error is left unmade, and each unmade profile is made
    alone, in order, so the error raised is the one a loop of rho_profile
    calls stops at."""
    groups = {}
    for i, lin in enumerate(lins):
        groups.setdefault(lin.dimension, []).append(i)
    profiles = [None] * len(lins)
    for index in groups.values():
        try:
            stacked = _evaluate([lins[i] for i in index], thetas, tol, second)
        except ERRORS:
            continue
        values = [getattr(stacked, f.name) for f in fields(RhoProfile)[1:]]
        count = len(stacked.thetas) // len(index)
        for k, i in enumerate(index):
            rows = slice(k * count, (k + 1) * count)
            profiles[i] = RhoProfile(lins[i], *(None if v is None else v[rows] for v in values))
    return [rho_profile(lin, thetas, tol, second) if profile is None else profile
            for lin, profile in zip(lins, profiles)]


@dataclass(frozen=True)
class ThresholdReport:
    """Critical unfavorable-season fraction and how it was certified.

    regime is "interior_root", "always_extinct" (rho(0) <= 1, theta* = 0) or
    "always_persistent" (rho(1) > 1, theta* = 1). bracket carries the final
    Newton/bisection bracket for interior roots: rho(lo) > 1 >= rho(hi) up to
    the orientation of the crossing, with theta* one of its ends.
    """

    theta_star: float
    regime: str
    monotone_certificate: bool
    bracket: tuple | None
    rho_at_theta_star: float
    tol: float
    grid_points: int


def find_threshold(
    lin: TwoSeasonLinearization,
    tol: float = DEFAULT_BISECT_TOL,
    grid_points: int = DEFAULT_GRID_POINTS,
    override_monotonic: bool = False,
    perron_tol: float = DEFAULT_PERRON_TOL,
) -> ThresholdReport:
    """Solve rho(theta) = 1 after certifying monotonicity on a grid.

    The grid is one evaluation. In the grid cell where rho crosses 1, a
    safeguarded Newton iteration solves log rho = 0 with
    (log rho)' = T <S V, V*>, stepping from the bracket end nearer the root.
    It bisects when the Newton point leaves the bracket or its step is over
    half the step before last (Brent's rule). Once the nearer end meets
    |rho - 1| <= tol it steps a quarter tolerance past the Newton point, so
    that the bracket closes from both sides, twice as far after each such
    step that falls short, and bisects once the bracket is within twice that
    distance. It stops when
    |rho(theta*) - 1| <= tol and hi - lo <= max(tol, 4 eps), or after
    DEFAULT_MAX_BISECT evaluations. Every decision reads log rho, so no
    monodromy is formed and no period overflows.

    Without a strict-decrease certificate the function still classifies the
    all-above-one and all-below-one cases; an interior crossing with a failed
    certificate raises CertificateError unless override_monotonic is set.
    A grid needs both ends: grid_points must be an int, not a bool, >= 2;
    tol must be positive.
    rho_at_theta_star of the one-sided regimes may lie past double range
    (inf or 0).
    """
    if isinstance(grid_points, bool) or not isinstance(grid_points, numbers.Integral):
        raise InvalidInputError(f"grid_points must be an int, got {grid_points!r}")
    if grid_points < 2:
        raise InvalidInputError(f"grid_points must be >= 2, got {grid_points}")
    if not tol > 0.0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    grid = _evaluate(lin, np.linspace(0.0, 1.0, grid_points), perron_tol)
    log_rho, slope = grid.log_rho, grid.log_rho_prime
    violations = grid.violations()
    certificate = not violations
    above = _above_one(log_rho)

    def report(theta_star, regime, bracket, log_rho_star):
        with np.errstate(over="ignore"):
            rho_star = float(np.exp(log_rho_star))
        return ThresholdReport(
            theta_star=theta_star,
            regime=regime,
            monotone_certificate=certificate,
            bracket=bracket,
            rho_at_theta_star=rho_star,
            tol=tol,
            grid_points=grid_points,
        )

    # with the certificate, above is a prefix of True: its first crossing is the one
    if above.all():
        return report(1.0, "always_persistent", None, log_rho[-1])
    if not above.any():
        return report(0.0, "always_extinct", None, log_rho[0])
    if not certificate and not override_monotonic:
        raise CertificateError(
            "rho is not strictly decreasing on the grid; "
            "pass override_monotonic=True to solve for the crossing anyway",
            violations=violations,
        )
    idx = int(np.nonzero(above[:-1] != above[1:])[0][0])

    # each end of the bracket as [theta, log rho, (log rho)']
    ends = [[float(grid.thetas[i]), float(log_rho[i]), float(slope[i])] for i in (idx, idx + 1)]
    lo_above = bool(above[idx])
    width_floor = max(tol, 4.0 * np.finfo(float).eps)
    push = 0.25 * width_floor
    steps = [np.inf, np.inf]
    for _ in range(DEFAULT_MAX_BISECT):
        (lo, _, _), (hi, _, _) = ends
        near = min(ends, key=lambda end: abs(end[1]))
        theta, f, df = near
        newton = theta - f / df if df else np.nan
        pushed = None
        if _meets(f, tol) and hi - lo > 2.0 * push:
            # the near end is converged: step just past the root, to close the
            # far side, and twice as far after each step that falls short
            pushed = near
            point = min(max(newton, lo), hi) + (push if near is ends[0] else -push)
        elif lo < newton < hi and abs(newton - theta) <= 0.5 * steps[-2]:
            point = newton
        else:
            point = np.nan
        if not lo < point < hi:
            point = 0.5 * (lo + hi)
        steps.append(abs(point - theta))
        ev = _evaluate(lin, [point], perron_tol)
        side = 0 if bool(_above_one(ev.log_rho[0])) == lo_above else 1
        if ends[side] is pushed:
            push *= 2.0
        ends[side] = [point, float(ev.log_rho[0]), float(ev.log_rho_prime[0])]
        near = min(ends, key=lambda end: abs(end[1]))
        if _meets(near[1], tol) and ends[1][0] - ends[0][0] <= width_floor:
            break
    return report(near[0], "interior_root", (ends[0][0], ends[1][0]), near[1])


def _meets(log_rho: float, tol: float) -> bool:
    """|rho - 1| <= tol, read from log rho."""
    with np.errstate(over="ignore"):
        return bool(abs(np.expm1(log_rho)) <= tol)


@dataclass(frozen=True)
class LogConvexityReport:
    thetas: np.ndarray
    log_rho: np.ndarray
    second_differences: np.ndarray
    convex: bool
    min_second_difference: float
    endpoint_slope_product: float
    mu1: float
    mu2: float


def log_convexity_probe(
    lin: TwoSeasonLinearization,
    thetas=None,
    tol: float = DEFAULT_PERRON_TOL,
) -> LogConvexityReport:
    """Numeric convexity check of log rho plus the endpoint-slope product.

    The product combines the one-season Perron pairs: it is positive exactly
    when the derivative of log rho has the same sign at theta = 0 and 1.
    """
    if thetas is None:
        thetas = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
    thetas = np.asarray(thetas, dtype=float)
    log_rho = _evaluate(lin, thetas, tol).log_rho
    second = log_rho[2:] - 2.0 * log_rho[1:-1] + log_rho[:-2]
    (v1, v2), (v1s, v2s) = season_vectors(lin, tol=tol)
    mu1 = float((lin.m1 @ v1) @ v1s)
    mu2 = float((lin.m2 @ v2) @ v2s)
    product = (mu2 - float((lin.m1 @ v2) @ v2s)) * (float((lin.m2 @ v1) @ v1s) - mu1)
    return LogConvexityReport(
        thetas=thetas,
        log_rho=log_rho,
        second_differences=second,
        convex=bool(np.all(second >= -1e-9)),
        min_second_difference=float(second.min()) if second.size else 0.0,
        endpoint_slope_product=product,
        mu1=mu1,
        mu2=mu2,
    )


def season_vectors(lin: TwoSeasonLinearization, tol: float = DEFAULT_PERRON_TOL) -> tuple:
    """(v, v_star): the Perron vectors of m1 (row 0) and m2 (row 1), stacked
    as (2, n), with ||v|| = 1 and <v, v_star> = 1, from one perron_pair call.

    m - (min diag m - 1) I is nonnegative and irreducible with a positive
    diagonal, hence primitive, and has m's eigenvectors, so its Perron pair
    gives them.
    """
    seasons = np.array([lin.m1, lin.m2])
    shift = seasons.diagonal(axis1=1, axis2=2).min(axis=1) - 1.0
    pair = perron_pair(seasons - shift[:, None, None] * np.eye(lin.dimension), tol=tol)
    return pair.v, pair.v_star


@dataclass(frozen=True)
class TimescaleReport:
    """Large- and small-period behavior of rho at a fixed theta.

    corrections[i] = log rho - T (theta mu1 + (1-theta) mu2) at T = t_values[i]
    is the evaluator's log rho of the shifted cycle matrix, so huge periods
    cannot overflow. The limit is log(V*(0)^T V(1) V*(1)^T V(0)) built from
    the one-season pairs.
    """

    theta: float
    t_values: np.ndarray
    log_rho_over_t: np.ndarray
    corrections: np.ndarray
    limit_correction: float
    mu1: float
    mu2: float
    t_small: float
    rho_at_t_small: float


def timescale_asymptotics(
    lin: TwoSeasonLinearization,
    t_values,
    theta: float = 0.5,
    t_small: float = 1e-6,
    tol: float = DEFAULT_PERRON_TOL,
) -> TimescaleReport:
    """rho at theta over the increasing periods t_values and at the short
    period t_small, from one rho_profiles call on lin's copies at those
    periods (t_small the last), each with the bits of its own call."""
    t_values = np.asarray(t_values, dtype=float)
    if np.any(t_values <= 0.0) or np.any(np.diff(t_values) <= 0.0):
        raise InvalidInputError("t_values must be positive and increasing")
    mu1, mu2 = lin._shifted_seasons[:2]
    linear_rate = theta * mu1 + (1.0 - theta) * mu2
    # the copies share lin's season shifts
    profiles = rho_profiles([lin.with_period(t) for t in [*t_values, t_small]], [theta], tol)
    corrections = np.array([profile.log_shifted[0] for profile in profiles[:-1]])
    log_rho_over_t = linear_rate + corrections / t_values

    (v1, v2), (v1s, v2s) = season_vectors(lin, tol=tol)
    limit = float(np.log((v2s @ v1) * (v1s @ v2)))

    rho_small = float(np.exp(profiles[-1].log_rho[0]))
    return TimescaleReport(
        theta=theta,
        t_values=t_values,
        log_rho_over_t=log_rho_over_t,
        corrections=corrections,
        limit_correction=limit,
        mu1=mu1,
        mu2=mu2,
        t_small=t_small,
        rho_at_t_small=rho_small,
    )
