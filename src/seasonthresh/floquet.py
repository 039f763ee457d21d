"""Monodromy matrices, their dominant eigenvalue rho(theta), and the season
threshold solving rho = 1.

Conventions, fixed once: season 1 (unfavorable) occupies the fraction
[0, theta) of each period and season 2 (favorable) the rest, so the period
map of the linearization at zero is

    M(theta) = exp((1 - theta) T m2) @ exp(theta T m1).

With S = m1 - m2 and (rho, V, V*) the Perron data of M(theta),

    rho'(theta) = T rho <S V, V*>,

and the second derivative follows from the constrained resolvent of
(M - rho I) on the complement of the Perron direction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateError,
    ConditioningError,
    InvalidInputError,
)
from .linalg import (
    PerronPair,
    as_square_matrix,
    as_vector,
    exp_product,
    is_irreducible,
    is_metzler,
    mat_exp,
    perron_pair,
    spectral_abscissa,
    spectral_radius,
)
from .seasonal import SeasonalSystem

DEFAULT_PERRON_TOL = 1e-12
DEFAULT_BISECT_TOL = 1e-10
DEFAULT_MAX_BISECT = 200
_ORTHO_TOL = 1e-9  # relative size of <b, v_star> that counts as orthogonal
DEFAULT_GRID_POINTS = 101


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
        if not (self.period_T > 0.0 and np.isfinite(self.period_T)):
            raise InvalidInputError(f"period_T must be positive, got {self.period_T}")
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
        return TwoSeasonLinearization(self.m1, self.m2, period_T)


def monodromy(lin: TwoSeasonLinearization, theta: float) -> np.ndarray:
    """Period map exp((1-theta) T m2) exp(theta T m1)."""
    if not (0.0 <= theta <= 1.0):
        raise InvalidInputError(f"theta must lie in [0, 1], got {theta}")
    t = lin.period_T
    return exp_product([(lin.m1, theta * t), (lin.m2, (1.0 - theta) * t)])


def monodromy_general(system: SeasonalSystem) -> np.ndarray:
    """Ordered product of per-season exponentials; rightmost factor is season 1."""
    return exp_product(
        (piece.linearization_at_zero, dt)
        for piece, dt in zip(system.pieces, system.schedule.durations())
    )


def _evaluate(
    lin: TwoSeasonLinearization, theta: float, tol: float, second: bool = False
) -> tuple[PerronPair, float, float | None, np.ndarray]:
    """Perron pair, rho', (when asked) rho'' and the monodromy at one theta,
    from one monodromy and one Perron pair."""
    m = monodromy(lin, theta)
    pair = perron_pair(m, tol=tol)
    value, v, v_star = pair.rho, pair.v, pair.v_star
    t = lin.period_T
    s = lin.s
    sv = s @ v
    r = float(sv @ v_star)
    prime = t * value * r
    if not second:
        return pair, prime, None, m
    mixed = float(((lin.m2 @ s - s @ lin.m1) @ v) @ v_star)
    # (Pi - I) S^T V*, with Pi the projection x -> <x, V> V*
    b = r * v_star - s.T @ v_star
    # rho <x, SV> does not change when M and rho are divided by one number:
    # solving on M / max(M) keeps x finite for huge and tiny monodromies
    peak = float(m.max())
    x = constrained_resolvent(m / peak, value / peak, v, v_star, b, side="adjoint")
    return pair, prime, t * t * value * (2.0 * r * r + mixed + 2.0 * value / peak * float(x @ sv)), m


def rho(
    lin: TwoSeasonLinearization, theta: float, tol: float = DEFAULT_PERRON_TOL
) -> tuple[float, PerronPair]:
    """Dominant Floquet multiplier of the linearization with its Perron pair."""
    pair = _evaluate(lin, theta, tol)[0]
    return pair.rho, pair


def rho_prime(lin: TwoSeasonLinearization, theta: float, tol: float = DEFAULT_PERRON_TOL) -> float:
    """d rho / d theta = T rho <S V, V*>, from the Perron pair of the monodromy matrix."""
    return _evaluate(lin, theta, tol)[1]


def rho_second(lin: TwoSeasonLinearization, theta: float, tol: float = DEFAULT_PERRON_TOL) -> float:
    """d^2 rho / d theta^2 via the constrained resolvent on the Perron complement."""
    return _evaluate(lin, theta, tol, second=True)[2]


def constrained_resolvent(
    m,
    rho_value: float,
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
    """
    m = as_square_matrix(m)
    n = m.shape[0]
    v = as_vector(v, n)
    v_star = as_vector(v_star, n)
    b = as_vector(b, n)
    scale = max(1.0, float(np.linalg.norm(b)))
    if side == "right":
        if abs(float(b @ v_star)) > _ORTHO_TOL * scale:
            raise InvalidInputError("right-side b is not orthogonal to v_star")
        core = m - rho_value * np.eye(n)
        column = v_star
    elif side == "adjoint":
        if abs(float(b @ v)) > _ORTHO_TOL * scale:
            raise InvalidInputError("adjoint-side b is not orthogonal to v")
        core = m.T - rho_value * np.eye(n)
        column = v
    else:
        raise InvalidInputError(f"side must be 'right' or 'adjoint', got {side!r}")

    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = core
    bordered[:n, n] = column
    bordered[n, :n] = v
    rhs = np.concatenate([b, [0.0]])
    try:
        sol = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"bordered resolvent solve failed: {exc}") from exc
    x = sol[:n]
    residual = float(np.linalg.norm(core @ x - b))
    scale = float(np.linalg.norm(core, np.inf))
    # absolute floor: a roundoff-sized b legitimately produces a roundoff-sized x
    allowed = max(
        1e-12 * (1.0 + scale),
        1e-6 * (float(np.linalg.norm(b)) + scale * float(np.linalg.norm(x))),
    )
    if residual > allowed:
        raise ConditioningError(
            f"resolvent solve is rank-deficient beyond the Perron direction "
            f"(residual {residual:.3e} > allowed {allowed:.3e})"
        )
    return x


@dataclass(frozen=True)
class RhoProfile:
    """rho and its first two theta-derivatives on a grid of lin, with the
    Perron pairs and the monodromies (stacked as (G, n, n)) they come from."""

    lin: TwoSeasonLinearization
    thetas: np.ndarray
    rho: np.ndarray
    rho_prime: np.ndarray
    rho_second: np.ndarray | None
    perron_pairs: tuple
    monodromies: np.ndarray

    @property
    def strictly_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.rho) < 0.0) and np.all(self.rho_prime < 0.0))

    def violations(self) -> list:
        """Grid cells (theta_i, theta_{i+1}) where rho fails to strictly decrease."""
        out = []
        for i in range(len(self.thetas) - 1):
            if not self.rho[i + 1] < self.rho[i] or not self.rho_prime[i] < 0.0:
                out.append((float(self.thetas[i]), float(self.thetas[i + 1])))
        if len(self.thetas) and self.rho_prime[-1] >= 0.0:
            out.append((float(self.thetas[-1]), float(self.thetas[-1])))
        return out


def rho_profile(
    lin: TwoSeasonLinearization,
    thetas=None,
    tol: float = DEFAULT_PERRON_TOL,
    second: bool = False,
) -> RhoProfile:
    if thetas is None:
        thetas = np.linspace(0.0, 1.0, DEFAULT_GRID_POINTS)
    thetas = np.asarray(thetas, dtype=float)
    points = [_evaluate(lin, float(th), tol, second) for th in thetas]
    pairs = tuple(point[0] for point in points)
    return RhoProfile(
        lin=lin,
        thetas=thetas,
        rho=np.array([pair.rho for pair in pairs]),
        rho_prime=np.array([point[1] for point in points]),
        rho_second=np.array([point[2] for point in points]) if second else None,
        perron_pairs=pairs,
        monodromies=np.array([point[3] for point in points]),
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Critical unfavorable-season fraction and how it was certified.

    regime is "interior_root", "always_extinct" (rho(0) <= 1, theta* = 0) or
    "always_persistent" (rho(1) > 1, theta* = 1). bracket carries the final
    bisection bracket for interior roots.
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
    """Solve rho(theta) = 1 by bisection after certifying monotonicity.

    Without a strict-decrease certificate the function still classifies the
    all-above-one and all-below-one cases; an interior crossing with a failed
    certificate raises CertificateError unless override_monotonic is set.
    A grid needs both ends, so grid_points < 2 raises InvalidInputError.
    """
    if grid_points < 2:
        raise InvalidInputError(f"grid_points must be >= 2, got {grid_points}")
    profile = rho_profile(lin, np.linspace(0.0, 1.0, grid_points), tol=perron_tol)
    certificate = profile.strictly_decreasing
    values = profile.rho

    def rho_at(th: float) -> float:
        return rho(lin, th, tol=perron_tol)[0]

    def report(theta_star, regime, bracket, rho_star):
        return ThresholdReport(
            theta_star=theta_star,
            regime=regime,
            monotone_certificate=certificate,
            bracket=bracket,
            rho_at_theta_star=rho_star,
            tol=tol,
            grid_points=grid_points,
        )

    if certificate:
        if values[0] <= 1.0:
            return report(0.0, "always_extinct", None, float(values[0]))
        if values[-1] > 1.0:
            return report(1.0, "always_persistent", None, float(values[-1]))
        idx = int(np.nonzero(values > 1.0)[0][-1])
    else:
        if np.all(values > 1.0):
            return report(1.0, "always_persistent", None, float(values[-1]))
        if np.all(values <= 1.0):
            return report(0.0, "always_extinct", None, float(values[0]))
        if not override_monotonic:
            raise CertificateError(
                "rho is not strictly decreasing on the grid; "
                "pass override_monotonic=True to bisect anyway",
                violations=profile.violations(),
            )
        crossings = np.nonzero(np.sign(values[:-1] - 1.0) != np.sign(values[1:] - 1.0))[0]
        idx = int(crossings[0])

    lo = float(profile.thetas[idx])
    hi = float(profile.thetas[idx + 1])
    flo = float(values[idx]) - 1.0
    theta_star = lo
    f_star = flo
    for _ in range(DEFAULT_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        fmid = rho_at(mid) - 1.0
        theta_star, f_star = mid, fmid
        if abs(fmid) <= tol and (hi - lo) <= max(tol, 4.0 * np.finfo(float).eps):
            break
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return report(theta_star, "interior_root", (lo, hi), f_star + 1.0)


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
    log_rho = np.log(rho_profile(lin, thetas, tol=tol).rho)
    second = log_rho[2:] - 2.0 * log_rho[1:-1] + log_rho[:-2]
    mu1, v1, v1s = metzler_perron(lin.m1, tol=tol)
    mu2, v2, v2s = metzler_perron(lin.m2, tol=tol)
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


def metzler_perron(a, tol: float = DEFAULT_PERRON_TOL) -> tuple[float, np.ndarray, np.ndarray]:
    """Spectral abscissa and Perron vectors of an irreducible Metzler matrix.

    Works through the (entrywise positive) exponential, which shares the
    eigenvectors; the abscissa is then the Rayleigh quotient on the matrix
    itself. Returns (mu, v, v_star) with ||v|| = 1 and <v, v_star> = 1.
    """
    m = as_square_matrix(a)
    if not is_metzler(m):
        raise InvalidInputError("matrix is not Metzler")
    if not is_irreducible(m):
        raise InvalidInputError("matrix is not irreducible")
    pair = perron_pair(mat_exp(m), tol=tol)
    mu = float((m @ pair.v) @ pair.v_star)
    return mu, pair.v, pair.v_star


@dataclass(frozen=True)
class TimescaleReport:
    """Large- and small-period behavior of rho at a fixed theta.

    corrections[i] = log rho - T (theta mu1 + (1-theta) mu2) at T = t_values[i],
    computed on rescaled exponentials so huge periods cannot overflow. The
    limit is log(V*(0)^T V(1) V*(1)^T V(0)) built from the one-season pairs.
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
    t_values = np.asarray(t_values, dtype=float)
    if np.any(t_values <= 0.0) or np.any(np.diff(t_values) <= 0.0):
        raise InvalidInputError("t_values must be positive and increasing")
    mu1 = spectral_abscissa(lin.m1)
    mu2 = spectral_abscissa(lin.m2)
    linear_rate = theta * mu1 + (1.0 - theta) * mu2

    shifted1 = lin.m1 - mu1 * np.eye(lin.dimension)
    shifted2 = lin.m2 - mu2 * np.eye(lin.dimension)

    def correction(t: float) -> float:
        scaled = exp_product([(shifted1, theta * t), (shifted2, (1.0 - theta) * t)])
        return float(np.log(spectral_radius(scaled)))

    corrections = np.array([correction(t) for t in t_values])
    log_rho_over_t = linear_rate + corrections / t_values

    _, v1, v1s = metzler_perron(lin.m1, tol=tol)
    _, v2, v2s = metzler_perron(lin.m2, tol=tol)
    limit = float(np.log((v2s @ v1) * (v1s @ v2)))

    rho_small = float(np.exp(t_small * linear_rate + correction(t_small)))
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
