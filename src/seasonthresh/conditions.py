"""Certificates that the dominant multiplier rho(theta) is strictly decreasing,
plus the parameter hypotheses and the full 2-D insect threshold chain.

Each check returns a ConditionCertificate whose margins are the worst slack
seen; a certificate only holds when every required margin clears the
strictness floor (open conditions with hair-thin margins are reported but
not certified).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDiagonalizationError, InvalidInputError
from .floquet import TwoSeasonLinearization, metzler_perron, monodromy, rho_profile
from .insect import InsectParams, jacobian, r0
from .linalg import as_square_matrix

STRICTNESS = 1e-9
_DEFAULT_GRID = 101
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


def _theta_grid(theta_grid):
    if theta_grid is None:
        return np.linspace(0.0, 1.0, _DEFAULT_GRID)
    grid = np.asarray(theta_grid, dtype=float)
    if np.any(grid < 0.0) or np.any(grid > 1.0):
        raise InvalidInputError("theta grid must lie in [0, 1]")
    return grid


def check_shared_eigenvector(
    lin: TwoSeasonLinearization,
    perron_tol: float = 1e-12,
) -> ConditionCertificate:
    """Do the two season linearizations share a principal eigenvector?

    Agreement of either the right or the left Perron vectors (angle within
    _SHARED_ANGLE_TOL) certifies the condition, so `holds` is true when the best of the
    two margins is positive.
    """
    _, v1, v1s = metzler_perron(lin.m1, tol=perron_tol)
    _, v2, v2s = metzler_perron(lin.m2, tol=perron_tol)

    def angle(x, y):
        cx = x / np.linalg.norm(x)
        cy = y / np.linalg.norm(y)
        # chord form stays accurate near zero, unlike arccos of the dot
        return float(2.0 * np.arcsin(min(1.0, 0.5 * np.linalg.norm(cx - cy))))

    angle_right = angle(v1, v2)
    angle_left = angle(v1s, v2s)
    margins = np.array([_SHARED_ANGLE_TOL - angle_right, _SHARED_ANGLE_TOL - angle_left])
    return ConditionCertificate(
        condition="shared_eigenvector",
        holds=bool(margins.max() > 0.0),
        margins=margins,
        details={"angle_right": angle_right, "angle_left": angle_left,
                 "tol": _SHARED_ANGLE_TOL},
    )


def check_decrease_left(
    lin: TwoSeasonLinearization,
    theta_grid=None,
    p=None,
    perron_tol: float = 1e-12,
) -> ConditionCertificate:
    """Certify rho' < 0 through the left Perron vectors of the monodromy.

    Without p: checks S^T V*(theta) < 0 componentwise on the grid (the sharp
    form). With p: checks p S < 0 entrywise and (p^{-1})^T V*(theta) > 0.
    """
    return _check_decrease(lin, theta_grid, p, perron_tol, "left")


def check_decrease_right(
    lin: TwoSeasonLinearization,
    theta_grid=None,
    p=None,
    perron_tol: float = 1e-12,
) -> ConditionCertificate:
    """Mirror of check_decrease_left using the right Perron vectors:
    S V(theta) < 0 without p, or S p < 0 and p^{-1} V(theta) > 0 with p."""
    return _check_decrease(lin, theta_grid, p, perron_tol, "right")


def _check_decrease(lin, theta_grid, p, perron_tol, side) -> ConditionCertificate:
    """The right form on (S, V); the left form is the same on (S^T, V*)."""
    grid = _theta_grid(theta_grid)
    pairs = rho_profile(lin, grid, tol=perron_tol).perron_pairs
    left = side == "left"
    s = lin.s.T if left else lin.s
    vectors = [pair.v_star if left else pair.v for pair in pairs]
    details = {}
    if p is None:
        margins = np.array([-float(np.max(s @ v)) for v in vectors])
        if left:
            details["certified_by"] = _sufficient_candidate_left(lin.s, pairs)
    else:
        p = as_square_matrix(p)
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
        margins = np.array([min(static, float(np.min(p_inv @ v))) for v in vectors])
        details["static_margin"] = static
    return ConditionCertificate(
        condition=f"decrease_{side}",
        holds=bool(np.all(margins > STRICTNESS)),
        margins=margins,
        theta_grid=grid,
        details=details,
    )


def _sufficient_candidate_left(s, pairs) -> str | None:
    if float(np.max(s)) < -STRICTNESS:
        return "identity"
    if s.shape[0] == 2:
        p = np.array([[1.0, 1.0], [0.0, 1.0]])
        if float(np.max(p @ s)) < -STRICTNESS and all(
            pair.v_star[1] - pair.v_star[0] > STRICTNESS for pair in pairs
        ):
            return "triangular"
    if all(float(np.max(s.T @ pair.v_star)) < -STRICTNESS for pair in pairs):
        return "eigenvector_form"
    return None


def check_decrease_bilinear(
    lin: TwoSeasonLinearization,
    theta_grid=None,
    p=None,
    q=None,
    perron_tol: float = 1e-12,
) -> ConditionCertificate:
    """Certify rho' <= 0 from S < p^T q entrywise plus p V* = -q V on the grid.

    No search is performed; the caller supplies the candidate pair (p, q).
    """
    if p is None or q is None:
        raise InvalidInputError("both p and q must be supplied")
    p = as_square_matrix(p)
    q = as_square_matrix(q)
    if p.shape != q.shape or p.shape[0] != lin.dimension:
        raise InvalidInputError("p and q must match the system dimension")
    grid = _theta_grid(theta_grid)
    pairs = rho_profile(lin, grid, tol=perron_tol).perron_pairs
    entry_margin = float(np.min(p.T @ q - lin.s))
    eq_errors = np.array(
        [float(np.linalg.norm(p @ pair.v_star + q @ pair.v)) for pair in pairs]
    )
    margins = np.minimum(entry_margin, _EQ_TOL - eq_errors)
    holds = entry_margin > STRICTNESS and bool(np.all(eq_errors <= _EQ_TOL))
    return ConditionCertificate(
        condition="decrease_bilinear",
        holds=holds,
        margins=margins,
        theta_grid=grid,
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
    boundary case of exactly equal column sums.
    """

    eigen_order: bool
    sum_order: bool
    boundary: bool
    ratio: float
    column_gap: float


def left_eigenvector_order(s) -> LeftOrderResult:
    m = as_square_matrix(s)
    if m.shape != (2, 2):
        raise InvalidInputError("left_eigenvector_order expects a 2x2 matrix")
    if np.any(m <= 0.0):
        raise InvalidInputError("matrix must be entrywise positive")
    # the ratio is scale-free; dividing by the largest entry keeps the squares finite
    k = m / m.max()
    disc = (k[0, 0] - k[1, 1]) ** 2 + 4.0 * k[0, 1] * k[1, 0]
    top = 0.5 * (k[0, 0] + k[1, 1] + math.sqrt(disc))
    ratio = float((top - k[0, 0]) / k[1, 0])
    gap = float((m[0, 1] + m[1, 1]) - (m[0, 0] + m[1, 0]))
    scale = max(1.0, abs(m[0, 1] + m[1, 1]) + abs(m[0, 0] + m[1, 0]))
    return LeftOrderResult(
        eigen_order=ratio > 1.0,
        sum_order=gap > 0.0,
        boundary=abs(gap) <= 1e-12 * scale,
        ratio=ratio,
        column_gap=gap,
    )


def left_order_certificate(
    lin: TwoSeasonLinearization,
    theta_grid=None,
) -> ConditionCertificate:
    """Left-vector ordering of the 2x2 cycle matrix across the grid.

    Margins are the column-sum gaps; holds when the eigenvector ordering
    (w2 > w1) is confirmed at every grid theta and the two oracles agree.
    """
    if lin.dimension != 2:
        raise InvalidInputError("left-order certificate is specific to 2x2 systems")
    grid = _theta_grid(theta_grid)
    margins = np.empty_like(grid)
    agree = True
    ordered = True
    for i, th in enumerate(grid):
        result = left_eigenvector_order(monodromy(lin, float(th)))
        margins[i] = result.column_gap
        ordered = ordered and result.eigen_order
        if not result.boundary and result.eigen_order != result.sum_order:
            agree = False
    return ConditionCertificate(
        condition="left_order",
        holds=ordered and agree,
        margins=margins,
        theta_grid=grid,
        details={"oracles_agree": agree},
    )


@dataclass(frozen=True)
class DiagonalizationData:
    """Eigenvalues and eigenvector slopes of one season's linearization at 0.

    The eigenvector for lambda_plus is (1, x_plus), for lambda_minus
    (1, x_minus); weights(d) are the exponential factors over a stretch of
    length d.
    """

    lambda_plus: float
    lambda_minus: float
    x_plus: float
    x_minus: float

    def eigenvector_matrix(self) -> np.ndarray:
        return np.array([[1.0, 1.0], [self.x_plus, self.x_minus]])

    def reconstruct(self) -> np.ndarray:
        p = self.eigenvector_matrix()
        d = np.diag([self.lambda_plus, self.lambda_minus])
        return p @ d @ np.linalg.inv(p)

    def weights(self, duration: float) -> tuple[float, float]:
        return math.exp(self.lambda_plus * duration), math.exp(self.lambda_minus * duration)

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
    period_T: float = 1.0,
    theta_grid=None,
) -> ConditionCertificate:
    """End-to-end certificate that the seasonal insect model has an interior
    extinction threshold.

    Stage chain: (1) seasonal contrast hypothesis; (2) offspring numbers
    straddling 1; (3) unfavorable growth-vs-death inequality; (4) eigenvector
    slope inequalities; (5) the ordering form vanishing at (1, 1);
    (6) analytic negativity of its partial derivatives past (1, 1);
    (7) negativity of the form at the seasonal weight ratios on the grid;
    (8) sign agreement of stage 7 with the directly computed column-sum gap
    of the cycle matrix. Failed preconditions skip only the stages they make
    undefined.
    """
    u, f = pi_unfavorable, pi_favorable
    grid = _theta_grid(theta_grid)
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
    try:
        du = diagonalize_season(u)
        df = diagonalize_season(f)
    except DegenerateDiagonalizationError as exc:
        stages.append(
            StageResult("slope_inequalities", False, np.array([]), note=str(exc))
        )
        return _assemble_certificate(stages, grid, details)

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

    lin = TwoSeasonLinearization(
        jacobian(u, np.zeros(2)), jacobian(f, np.zeros(2)), period_T
    )
    column_gaps = np.empty_like(form_values)
    for i, th in enumerate(grid):
        m = monodromy(lin, float(th))
        column_gaps[i] = m[0, 1] + m[1, 1] - m[0, 0] - m[1, 0]
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
    return _assemble_certificate(stages, grid, details)


def _assemble_certificate(stages, grid, details) -> ConditionCertificate:
    details = dict(details)
    details["stages"] = {stage.name: stage for stage in stages}
    margins = np.array([stage.worst_margin for stage in stages])
    return ConditionCertificate(
        condition="insect_threshold",
        holds=all(stage.holds for stage in stages),
        margins=margins,
        theta_grid=grid,
        details=details,
    )
