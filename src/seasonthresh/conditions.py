"""Certificates that the dominant multiplier rho(theta) is strictly decreasing,
plus the parameter hypotheses and the full 2-D insect threshold chain.

Each check returns a ConditionCertificate whose margins are the worst slack
seen; a certificate only holds when every required margin clears the
strictness floor (open conditions with hair-thin margins are reported but
not certified). The grid certificates judge a floquet.RhoProfile: its (G, n)
Perron vectors and (G, n, n) monodromies are computed once, and each
certificate reads them in stacked products. None reads rho, so they judge at
any period: past double range the shifted products stand in for monodromies.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDiagonalizationError, InvalidInputError
from .floquet import RhoProfile, TwoSeasonLinearization, season_vectors
from .insect import InsectParams, jacobian, r0
from .linalg import _dot, _matvec, as_matrix_stack, as_square_matrix

STRICTNESS = 1e-9
_SHARED_ANGLE_TOL = 1e-8  # largest Perron-vector angle that counts as shared
_EQ_TOL = 1e-8  # residual allowed in the bilinear identity p V* = -q V


@dataclass(frozen=True)
class ConditionCertificate:
    condition: str
    holds: bool
    margins: np.ndarray
    theta_grid: np.ndarray | None = None
    details: dict = field(default_factory=dict)

    @property
    def worst_margin(self) -> float:
        return float(np.min(self.margins)) if np.size(self.margins) else float("nan")


def check_shared_eigenvector(
    lin: TwoSeasonLinearization,
    perron_tol: float = 1e-12,
) -> ConditionCertificate:
    """Do the two season linearizations share a principal eigenvector?

    Agreement of either the right or the left Perron vectors (angle within
    _SHARED_ANGLE_TOL) certifies the condition, so `holds` is true when the best of the
    two margins is positive.
    """
    sides = np.array(season_vectors(lin, tol=perron_tol))  # [right, left][season]
    unit = sides / np.sqrt(_dot(sides, sides))[..., None]
    chord = unit[:, 0] - unit[:, 1]
    # chord form stays accurate near zero, unlike arccos of the dot
    angle_right, angle_left = (
        float(2.0 * np.arcsin(min(1.0, 0.5 * c))) for c in np.sqrt(_dot(chord, chord)).tolist()
    )
    margins = np.array([_SHARED_ANGLE_TOL - angle_right, _SHARED_ANGLE_TOL - angle_left])
    return ConditionCertificate(
        condition="shared_eigenvector",
        holds=bool(margins.max() > 0.0),
        margins=margins,
        details={"angle_right": angle_right, "angle_left": angle_left,
                 "tol": _SHARED_ANGLE_TOL},
    )


def check_decrease_left(profile: RhoProfile, p=None) -> ConditionCertificate:
    """Certify rho' < 0 through the left Perron vectors of the profile.

    Without p: checks S^T V*(theta) < 0 componentwise on the grid (the sharp
    form). With p: checks p S < 0 entrywise and (p^{-1})^T V*(theta) > 0.
    """
    return _check_decrease(profile, p, "left")


def check_decrease_right(profile: RhoProfile, p=None) -> ConditionCertificate:
    """Mirror of check_decrease_left using the right Perron vectors:
    S V(theta) < 0 without p, or S p < 0 and p^{-1} V(theta) > 0 with p."""
    return _check_decrease(profile, p, "right")


def _check_decrease(profile, p, side) -> ConditionCertificate:
    """The right form on (S, V); the left form is the same on (S^T, V*)."""
    lin, left = profile.lin, side == "left"
    s, vectors = (lin.s.T, profile.v_star) if left else (lin.s, profile.v)
    details = {}
    if p is None:
        margins = -_matvec(s, vectors).max(axis=1)
        if left:
            details["certified_by"] = _sufficient_candidate_left(lin.s, vectors, margins)
    else:
        p = as_square_matrix(p)
        if p.shape[0] != lin.dimension:
            raise InvalidInputError("p must match the system dimension")
        try:
            p_inv = np.linalg.inv(p)
        except np.linalg.LinAlgError as exc:
            raise InvalidInputError("p must be invertible") from exc
        if left:
            # S^T p^T = (p S)^T: same entries, formed as p S
            static = -float(np.max(p @ lin.s))
            p_inv = p_inv.T
        else:
            static = -float(np.max(s @ p))
        low = _matvec(p_inv, vectors).min(axis=1)
        margins = np.where(low < static, low, static)  # min(static, low), as Python takes it
        details["static_margin"] = static
    return ConditionCertificate(
        condition=f"decrease_{side}",
        holds=bool(np.all(margins > STRICTNESS)),
        margins=margins,
        theta_grid=profile.thetas,
        details=details,
    )


def _sufficient_candidate_left(s, v_star, margins) -> str | None:
    """The simplest p that certifies the left decrease; margins are the sharp form's."""
    if float(np.max(s)) < -STRICTNESS:
        return "identity"
    if s.shape[0] == 2:
        p = np.array([[1.0, 1.0], [0.0, 1.0]])
        if float(np.max(p @ s)) < -STRICTNESS and np.all(v_star[:, 1] - v_star[:, 0] > STRICTNESS):
            return "triangular"
    if np.all(margins > STRICTNESS):
        return "eigenvector_form"
    return None


def check_decrease_bilinear(profile: RhoProfile, p=None, q=None) -> ConditionCertificate:
    """Certify rho' <= 0 from S < p^T q entrywise plus p V* = -q V on the grid.

    No search is performed; the caller supplies the candidate pair (p, q).
    """
    if p is None or q is None:
        raise InvalidInputError("both p and q must be supplied")
    p = as_square_matrix(p)
    q = as_square_matrix(q)
    if p.shape != q.shape or p.shape[0] != profile.lin.dimension:
        raise InvalidInputError("p and q must match the system dimension")
    entry_margin = float(np.min(p.T @ q - profile.lin.s))
    gap = _matvec(p, profile.v_star) + _matvec(q, profile.v)
    eq_errors = np.sqrt(_dot(gap, gap))
    margins = np.minimum(entry_margin, _EQ_TOL - eq_errors)
    holds = entry_margin > STRICTNESS and bool(np.all(eq_errors <= _EQ_TOL))
    return ConditionCertificate(
        condition="decrease_bilinear",
        holds=holds,
        margins=margins,
        theta_grid=profile.thetas,
        details={"entry_margin": entry_margin, "max_eq_error": float(eq_errors.max())},
    )


def check_hyp_parameters(
    pi_unfavorable: InsectParams, pi_favorable: InsectParams
) -> ConditionCertificate:
    """Seasonal contrast hypothesis: the favorable season must beat the
    unfavorable one entrywise in the season-difference matrix."""
    u, f = pi_unfavorable, pi_favorable
    margins = np.array(
        [
            u.dJ - f.dJ,
            (f.b - f.dA) - (u.b - u.dA),
            f.h - u.h,
            u.dA - f.dA,
        ]
    )
    return ConditionCertificate(
        condition="hyp_parameters",
        holds=bool(np.all(margins > STRICTNESS)),
        margins=margins,
    )


def check_hyp_alternative(
    pi_unfavorable: InsectParams, pi_favorable: InsectParams
) -> ConditionCertificate:
    """Stronger contrast hypothesis under which the identity transform already
    certifies the decrease of rho (hatching gain must beat the juvenile
    death-rate drop)."""
    u, f = pi_unfavorable, pi_favorable
    margins = np.array(
        [
            (u.h + u.dJ) - (f.h + f.dJ),
            f.b - u.b,
            f.h - u.h,
            u.dA - f.dA,
        ]
    )
    return ConditionCertificate(
        condition="hyp_alternative",
        holds=bool(np.all(margins > STRICTNESS)),
        margins=margins,
    )


@dataclass(frozen=True)
class LeftOrderResult:
    """Ordering of the left Perron vector components of a positive 2x2 matrix.

    eigen_order is w2 > w1 from the eigenvector itself; sum_order is the
    column-sum comparison s11 + s21 < s12 + s22. The two agree away from the
    boundary case of exactly equal column sums. For a (G, 2, 2) stack every
    field is an array of shape (G,).
    """

    eigen_order: bool
    sum_order: bool
    boundary: bool
    ratio: float
    column_gap: float

    @property
    def disagreements(self) -> int:
        """How many matrices off the boundary have orders that disagree."""
        return int(np.count_nonzero((self.eigen_order != self.sum_order) & np.logical_not(self.boundary)))


def left_eigenvector_order(s) -> LeftOrderResult:
    """The left-vector order of a positive 2x2 matrix, or of each matrix of a
    (G, 2, 2) stack, entry g with the bits of its own call."""
    m = as_matrix_stack(s)
    if m.shape[1:] != (2, 2):
        raise InvalidInputError("left_eigenvector_order expects a 2x2 matrix")
    if (m <= 0.0).any():
        raise InvalidInputError("matrix must be entrywise positive")
    # the ratio is scale-free; dividing by the largest entry keeps the squares finite
    k00, k01, k10, k11 = (m / m.max(axis=(1, 2))[:, None, None]).reshape(-1, 4).T
    diff = k00 - k11
    top = 0.5 * (k00 + k11 + np.sqrt(diff * diff + 4.0 * k01 * k10))
    ratio = (top - k00) / k10
    m00, m01, m10, m11 = m.reshape(-1, 4).T
    gap = (m01 + m11) - (m00 + m10)
    boundary = np.abs(gap) <= 1e-12 * np.maximum(1.0, np.abs(m01 + m11) + np.abs(m00 + m10))
    if np.ndim(s) == 2:
        ratio, gap = float(ratio[0]), float(gap[0])
        return LeftOrderResult(ratio > 1.0, gap > 0.0, bool(boundary[0]), ratio, gap)
    return LeftOrderResult(ratio > 1.0, gap > 0.0, boundary, ratio, gap)


def left_order_certificate(profile: RhoProfile) -> ConditionCertificate:
    """Left-vector ordering of the profile's 2x2 cycle matrices across its grid.

    Margins are the column-sum gaps (the shifted products' where a monodromy
    leaves double range); holds when the eigenvector ordering (w2 > w1) is
    confirmed at every grid theta and the two oracles agree.
    """
    if profile.lin.dimension != 2:
        raise InvalidInputError("left-order certificate is specific to 2x2 systems")
    cycle, scaled_out = _cycle_matrices(profile)
    result = left_eigenvector_order(cycle)
    agree = result.disagreements == 0
    return ConditionCertificate(
        condition="left_order",
        holds=bool(result.eigen_order.all()) and agree,
        margins=result.column_gap,
        theta_grid=profile.thetas,
        details={"oracles_agree": agree, **scaled_out},
    )


def _cycle_matrices(profile: RhoProfile) -> tuple[np.ndarray, dict]:
    """The monodromies, or when one leaves double range the shifted products
    (each a positive multiple of its monodromy, so signs and left-vector
    orders are the same) with the details key that says so."""
    try:
        return profile.monodromies, {}
    except InvalidInputError:
        return profile.shifted, {"column_gaps_of": "shifted_products"}


@dataclass(frozen=True)
class DiagonalizationData:
    """Eigenvalues and eigenvector slopes of one season's linearization at 0.

    The eigenvector for lambda_plus is (1, x_plus), for lambda_minus
    (1, x_minus).
    """

    lambda_plus: float
    lambda_minus: float
    x_plus: float
    x_minus: float

    def weight_ratio(self, duration: float) -> float:
        """exp((lambda_plus - lambda_minus) d), or inf past the double range."""
        try:
            return math.exp((self.lambda_plus - self.lambda_minus) * duration)
        except OverflowError:
            return math.inf


def diagonalize_season(pi: InsectParams) -> DiagonalizationData:
    """Closed-form eigen data of the insect linearization at the origin."""
    if pi.b <= 0.0 or pi.h <= 0.0:
        raise DegenerateDiagonalizationError(
            "diagonalization slopes need b > 0 and h > 0"
        )
    trace_half = 0.5 * (pi.h + pi.dJ + pi.dA)
    disc = (pi.h + pi.dJ - pi.dA) ** 2 + 4.0 * pi.h * pi.b
    root_half = 0.5 * math.sqrt(disc)
    lam_plus = -trace_half + root_half
    lam_minus = -trace_half - root_half
    return DiagonalizationData(
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        x_plus=(lam_plus + pi.h + pi.dJ) / pi.b,
        x_minus=(lam_minus + pi.h + pi.dJ) / pi.b,
    )


def ordering_form(
    beta: float, gamma: float, du: DiagonalizationData, df: DiagonalizationData
) -> float:
    """Bilinear form in the eigen-weight ratios whose negativity certifies the
    column-sum ordering of the two-season cycle matrix.

    Vanishes identically at (1, 1); both partial derivatives are negative on
    beta, gamma > 1 whenever the slope inequalities hold. Where the value
    passes the double range it is returned as an infinity of its sign.
    """
    a = (df.x_minus - du.x_plus) * (1.0 + df.x_plus) * (1.0 + du.x_minus)
    b = (du.x_minus - df.x_minus) * (1.0 + df.x_plus) * (1.0 + du.x_plus)
    c = (du.x_plus - df.x_plus) * (1.0 + du.x_minus) * (1.0 + df.x_minus)
    d = (df.x_plus - du.x_minus) * (1.0 + df.x_minus) * (1.0 + du.x_plus)
    value = a * beta * gamma + b * beta + c * gamma + d
    if math.isfinite(value):
        return value
    # a weight ratio, or their product, passed the double range: the form then
    # has the sign of form / (beta gamma), which stays finite
    return math.copysign(math.inf, a + b / gamma + c / beta + d / (beta * gamma))


@dataclass(frozen=True)
class StageResult:
    name: str
    holds: bool
    margins: np.ndarray
    note: str = ""

    @property
    def worst_margin(self) -> float:
        return float(np.min(self.margins)) if np.size(self.margins) else float("nan")


def insect_threshold_certificate(
    pi_unfavorable: InsectParams,
    pi_favorable: InsectParams,
    profile: RhoProfile,
) -> ConditionCertificate:
    """End-to-end certificate that the seasonal insect model has an interior
    extinction threshold, judged on the grid, period and cycle matrices of
    `profile`, which must be evaluated on the pair's linearization at zero.

    Stage chain: (1) seasonal contrast hypothesis; (2) offspring numbers
    straddling 1; (3) unfavorable growth-vs-death inequality; (4) eigenvector
    slope inequalities; (5) the ordering form vanishing at (1, 1);
    (6) analytic negativity of its partial derivatives past (1, 1);
    (7) negativity of the form at the seasonal weight ratios on the grid;
    (8) sign agreement of stage 7 with the column-sum gap of the profile's
    cycle matrices (its shifted products where one leaves double range).
    """
    u, f = pi_unfavorable, pi_favorable
    lin = profile.lin
    if not (
        np.array_equal(lin.m1, jacobian(u, np.zeros(2)))
        and np.array_equal(lin.m2, jacobian(f, np.zeros(2)))
    ):
        raise InvalidInputError("profile is not evaluated on the insect pair's linearization")
    grid, period_T = profile.thetas, lin.period_T
    stages: list[StageResult] = []

    hyp = check_hyp_parameters(u, f)
    stages.append(StageResult("season_contrast", hyp.holds, hyp.margins))

    r0_u = r0(u)
    r0_f = r0(f)
    margins_r0 = np.array([1.0 - r0_u, r0_f - 1.0])
    stages.append(
        StageResult("offspring_numbers", bool(np.all(margins_r0 > STRICTNESS)), margins_r0)
    )

    growth_margin = np.array([u.b + u.dJ - u.dA])
    stages.append(
        StageResult("unfavorable_growth", bool(growth_margin[0] > STRICTNESS), growth_margin)
    )

    details: dict = {"r0_unfavorable": r0_u, "r0_favorable": r0_f}
    # the profile's seasons are irreducible, so b, h > 0 and both diagonalize
    du = diagonalize_season(u)
    df = diagonalize_season(f)
    slope_margins = np.array(
        [
            -du.x_minus,
            du.x_plus,
            1.0 + du.x_minus,
            -df.x_minus,
            df.x_plus,
            1.0 + df.x_minus,
        ]
    )
    stages.append(
        StageResult(
            "slope_inequalities", bool(np.all(slope_margins > STRICTNESS)), slope_margins
        )
    )

    at_one = ordering_form(1.0, 1.0, du, df)
    stages.append(
        StageResult("form_vanishes_at_one", abs(at_one) <= 1e-12, np.array([1e-12 - abs(at_one)]))
    )

    coeff = (df.x_minus - du.x_plus) * (1.0 + df.x_plus) * (1.0 + du.x_minus)
    bound_gamma = (df.x_minus - df.x_plus) * (1.0 + du.x_minus) * (1.0 + du.x_plus)
    bound_beta = (du.x_minus - du.x_plus) * (1.0 + df.x_minus) * (1.0 + df.x_plus)
    partial_margins = np.array([-coeff, -bound_beta, -bound_gamma])
    stages.append(
        StageResult(
            "form_partials_negative",
            bool(np.all(partial_margins > STRICTNESS)),
            partial_margins,
        )
    )

    form_values = np.array(
        [
            ordering_form(
                df.weight_ratio((1.0 - th) * period_T),
                du.weight_ratio(th * period_T),
                du,
                df,
            )
            for th in grid
        ]
    )
    stages.append(
        StageResult(
            "form_negative_on_grid",
            bool(np.all(-form_values > STRICTNESS)),
            -form_values,
        )
    )

    m, scaled_out = _cycle_matrices(profile)
    column_gaps = m[:, 0, 1] + m[:, 1, 1] - m[:, 0, 0] - m[:, 1, 0]
    agree = (column_gaps > 0.0) == (form_values < 0.0)
    stages.append(
        StageResult(
            "column_sum_crosscheck",
            bool(np.all(agree)),
            np.where(agree, 1.0, -1.0),
        )
    )

    denom_u = (u.h + u.dJ - u.dA) ** 2 + 4.0 * u.h * u.b
    denom_f = (f.h + f.dJ - f.dA) ** 2 + 4.0 * f.h * f.b
    details["alpha"] = u.b * f.b / math.sqrt(denom_u * denom_f)
    details["form_values"] = form_values
    details["column_gaps"] = column_gaps
    details.update(scaled_out)
    details["stages"] = {stage.name: stage for stage in stages}
    return ConditionCertificate(
        condition="insect_threshold",
        holds=all(stage.holds for stage in stages),
        margins=np.array([stage.worst_margin for stage in stages]),
        theta_grid=grid,
        details=details,
    )
