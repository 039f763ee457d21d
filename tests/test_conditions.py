import math
import sys

import numpy as np
import pytest

from seasonthresh import (
    InsectParams,
    TwoSeasonLinearization,
    check_decrease_bilinear,
    check_decrease_left,
    check_decrease_right,
    check_hyp_alternative,
    check_hyp_parameters,
    check_shared_eigenvector,
    diagonalize_season,
    insect_threshold_certificate,
    jacobian,
    left_eigenvector_order,
    left_order_certificate,
    r0,
    rho,
    rho_prime,
    rho_profile,
)
from seasonthresh import floquet
from seasonthresh.conditions import (
    _EQ_TOL,
    STRICTNESS,
    ConditionCertificate,
    LeftOrderResult,
    ordering_form,
)
from seasonthresh.errors import DegenerateDiagonalizationError, InvalidInputError

from conftest import random_metzler_pair

K = np.array([[0.0, 1.0], [1.0, 0.0]])
GRID7 = np.linspace(0.0, 1.0, 7)


def random_contrast_pair(rng):
    """Random insect pair satisfying the contrast hypothesis, the offspring
    straddle, and the unfavorable growth condition."""
    while True:
        b_u = rng.uniform(0.5, 2.0)
        h_u = rng.uniform(0.3, 2.0)
        dj_u = rng.uniform(0.3, 2.0)
        da_hi = min(2.0, b_u + dj_u - 0.05)
        if da_hi <= 0.25:
            continue
        da_u = rng.uniform(0.2, da_hi)
        pi_u = InsectParams(b_u, h_u, dj_u, rng.uniform(0.2, 2.0), da_u)
        if r0(pi_u) >= 0.98:
            continue
        dj_f = dj_u * rng.uniform(0.2, 0.9)
        h_f = h_u + rng.uniform(0.05, 1.0)
        da_f = da_u * rng.uniform(0.2, 0.9)
        b_f = b_u + (da_f - da_u) + rng.uniform(0.05, 2.0)
        if b_f <= 0.0:
            continue
        pi_f = InsectParams(b_f, h_f, dj_f, rng.uniform(0.2, 2.0), da_f)
        if r0(pi_f) <= 1.02:
            continue
        return pi_u, pi_f


def insect_pair_lin(pi_u, pi_f):
    return TwoSeasonLinearization(jacobian(pi_u, np.zeros(2)), jacobian(pi_f, np.zeros(2)), 1.0)


class TestSharedEigenvector:
    def test_shifts_share_eigenvectors(self):
        lin = TwoSeasonLinearization(K - 2.0 * np.eye(2), K + np.eye(2), 1.0)
        assert check_shared_eigenvector(lin).holds

    def test_equal_seasons(self):
        assert check_shared_eigenvector(TwoSeasonLinearization(K, K, 1.0)).holds

    def test_running_insect_pair_shares_vectors(self, insect_linearization):
        # both season Jacobians have right vector (1, 1) and left vector (1, 2):
        # the slope formulas give x+ = 1 for each season
        cert = check_shared_eigenvector(insect_linearization)
        assert cert.holds
        du = diagonalize_season(InsectParams(1.0, 0.5, 1.0, 1.0, 1.0))
        df = diagonalize_season(InsectParams(2.0, 1.0, 0.5, 1.0, 0.5))
        assert du.x_plus == pytest.approx(df.x_plus, abs=1e-14)

    def test_generic_pair_fails(self):
        m1 = np.array([[-2.0, 1.0], [0.5, -1.0]])
        m2 = np.array([[1.0, 2.0], [3.0, 0.5]])
        cert = check_shared_eigenvector(TwoSeasonLinearization(m1, m2, 1.0))
        assert not cert.holds
        assert cert.details["angle_right"] > 1e-3


class TestDecreaseLeft:
    def test_entrywise_negative_difference_with_identity(self):
        # m2 > m1 entrywise so S < 0: the identity transform certifies
        m1 = np.array([[-2.0, 0.5], [0.5, -2.0]])
        m2 = m1 + np.array([[1.0, 0.5], [0.5, 1.0]])
        cert = check_decrease_left(rho_profile(TwoSeasonLinearization(m1, m2, 1.0), GRID7))
        assert cert.holds
        assert cert.details["certified_by"] == "identity"

    def test_insect_pair_with_triangular_transform(self, insect_linearization):
        p = np.array([[1.0, 1.0], [0.0, 1.0]])
        cert = check_decrease_left(rho_profile(insect_linearization, GRID7), p=p)
        assert cert.holds
        assert cert.details["static_margin"] > 0.0

    def test_insect_pair_without_transform(self, insect_linearization):
        cert = check_decrease_left(rho_profile(insect_linearization, GRID7))
        assert cert.holds
        assert cert.details["certified_by"] in ("triangular", "eigenvector_form")

    def test_increasing_rho_fails(self):
        lin = TwoSeasonLinearization(K + np.eye(2), K - 2.0 * np.eye(2), 1.0)
        cert = check_decrease_left(rho_profile(lin, GRID7))
        assert not cert.holds
        assert cert.margins.min() < 0.0
        assert rho_prime(lin, 0.5) > 0.0

    def test_singular_p_rejected(self, insect_linearization):
        with pytest.raises(InvalidInputError):
            check_decrease_left(rho_profile(insect_linearization, GRID7), p=np.zeros((2, 2)))

    @pytest.mark.parametrize("check", [check_decrease_left, check_decrease_right])
    def test_p_of_another_dimension_rejected(self, insect_linearization, check):
        with pytest.raises(InvalidInputError, match="^p must match the system dimension$"):
            check(rho_profile(insect_linearization, GRID7), p=np.eye(3))

    def test_holds_implies_rho_decreasing(self):
        rng = np.random.default_rng(47)
        confirmed = 0
        for _ in range(500):
            lin = random_metzler_pair(rng, int(rng.integers(2, 4)))
            cert = check_decrease_left(rho_profile(lin, GRID7))
            if not cert.holds:
                continue
            confirmed += 1
            for th in GRID7:
                assert rho_prime(lin, float(th)) < 0.0
        assert confirmed > 10


class TestDecreaseRight:
    def test_entrywise_negative_difference(self):
        m1 = np.array([[-2.0, 0.5], [0.5, -2.0]])
        m2 = m1 + np.array([[1.0, 0.5], [0.5, 1.0]])
        cert = check_decrease_right(rho_profile(TwoSeasonLinearization(m1, m2, 1.0), GRID7), p=np.eye(2))
        assert cert.holds

    def test_symmetric_commuting_margins_match_left(self):
        # symmetric commuting pair: the cycle matrix is symmetric, so the
        # right and left Perron vectors coincide and both checks agree
        lin = TwoSeasonLinearization(K - 2.0 * np.eye(2), K + np.eye(2), 1.0)
        left = check_decrease_left(rho_profile(lin, GRID7))
        right = check_decrease_right(rho_profile(lin, GRID7))
        assert left.holds and right.holds
        assert np.allclose(left.margins, right.margins, atol=1e-9)

    def test_zero_difference_fails(self):
        cert = check_decrease_right(rho_profile(TwoSeasonLinearization(K, K, 1.0), GRID7))
        assert not cert.holds
        assert np.allclose(cert.margins, 0.0, atol=1e-12)

    def test_holds_implies_rho_decreasing(self):
        rng = np.random.default_rng(59)
        confirmed = 0
        for _ in range(500):
            lin = random_metzler_pair(rng, int(rng.integers(2, 4)))
            cert = check_decrease_right(rho_profile(lin, GRID7))
            if not cert.holds:
                continue
            confirmed += 1
            for th in GRID7:
                assert rho_prime(lin, float(th)) < 0.0
        assert confirmed > 10


class TestDecreaseBilinear:
    def test_zero_candidates_with_negative_difference(self):
        m1 = np.array([[-2.0, 0.5], [0.5, -2.0]])
        m2 = m1 + np.array([[1.0, 0.5], [0.5, 1.0]])
        lin = TwoSeasonLinearization(m1, m2, 1.0)
        cert = check_decrease_bilinear(rho_profile(lin, GRID7), p=np.zeros((2, 2)), q=np.zeros((2, 2)))
        assert cert.holds

    def test_zero_candidates_with_positive_entry(self, insect_linearization):
        # S of the running pair has a zero entry: strictness fails
        cert = check_decrease_bilinear(
            rho_profile(insect_linearization, GRID7), p=np.zeros((2, 2)), q=np.zeros((2, 2))
        )
        assert not cert.holds

    def test_equality_at_one_theta_only(self):
        rng = np.random.default_rng(61)
        lin = random_metzler_pair(rng, 2)
        _, pair0 = rho(lin, 0.0)
        q = np.eye(2)
        p = -np.diag(pair0.v / pair0.v_star)
        cert = check_decrease_bilinear(rho_profile(lin, np.array([0.0, 1.0])), p=p, q=q)
        eq_errors = [float(np.linalg.norm(p @ pr.v_star + q @ pr.v))
                     for pr in (rho(lin, 0.0)[1], rho(lin, 1.0)[1])]
        assert eq_errors[0] <= 1e-10
        assert eq_errors[1] > 1e-6
        assert not cert.holds

    def test_requires_candidates(self, insect_linearization):
        with pytest.raises(InvalidInputError):
            check_decrease_bilinear(rho_profile(insect_linearization, GRID7))


class TestParameterHypotheses:
    def test_running_pair_margins(self, pi_unfavorable, pi_favorable):
        cert = check_hyp_parameters(pi_unfavorable, pi_favorable)
        assert cert.holds
        assert np.allclose(cert.margins, [0.5, 1.5, 0.5, 0.5], atol=1e-15)

    def test_equal_parameters_fail(self, pi_unfavorable):
        cert = check_hyp_parameters(pi_unfavorable, pi_unfavorable)
        assert not cert.holds
        assert np.allclose(cert.margins, 0.0)

    def test_equal_adult_death_fails(self, pi_unfavorable, pi_favorable):
        pinned = InsectParams(
            pi_favorable.b, pi_favorable.h, pi_favorable.dJ, pi_favorable.cJ, pi_unfavorable.dA
        )
        cert = check_hyp_parameters(pi_unfavorable, pinned)
        assert not cert.holds
        assert cert.margins[3] == pytest.approx(0.0, abs=1e-15)

    def test_alternative_holds_with_modified_hatching(self, pi_unfavorable):
        pi_f = InsectParams(b=2.0, h=0.6, dJ=0.5, cJ=1.0, dA=0.5)
        cert = check_hyp_alternative(pi_unfavorable, pi_f)
        assert cert.holds
        assert np.allclose(cert.margins, [0.4, 1.0, 0.1, 0.5], atol=1e-15)

    def test_alternative_fails_on_running_pair(self, pi_unfavorable, pi_favorable):
        cert = check_hyp_alternative(pi_unfavorable, pi_favorable)
        assert not cert.holds
        assert cert.margins[0] == pytest.approx(0.0, abs=1e-15)

    def test_alternative_fails_on_equal_parameters(self, pi_unfavorable):
        assert not check_hyp_alternative(pi_unfavorable, pi_unfavorable).holds


def reference_left_order(m):
    """left_eigenvector_order of one matrix, on numpy scalars, the difference
    squared as an IEEE product as the stacked form squares it."""
    k = m / m.max()
    diff = k[0, 0] - k[1, 1]
    disc = diff * diff + 4.0 * k[0, 1] * k[1, 0]
    top = 0.5 * (k[0, 0] + k[1, 1] + math.sqrt(disc))
    ratio = float((top - k[0, 0]) / k[1, 0])
    gap = float((m[0, 1] + m[1, 1]) - (m[0, 0] + m[1, 0]))
    scale = max(1.0, abs(m[0, 1] + m[1, 1]) + abs(m[0, 0] + m[1, 0]))
    return LeftOrderResult(ratio > 1.0, gap > 0.0, abs(gap) <= 1e-12 * scale, ratio, gap)


class TestLeftEigenvectorOrder:
    def test_increasing_example(self):
        result = left_eigenvector_order(np.array([[1.0, 2.0], [3.0, 4.0]]))
        expected_rho = (5.0 + math.sqrt(33.0)) / 2.0
        assert result.eigen_order and result.sum_order
        assert result.ratio == pytest.approx((expected_rho - 1.0) / 3.0, abs=1e-12)

    def test_transposed_example(self):
        result = left_eigenvector_order(np.array([[4.0, 3.0], [2.0, 1.0]]))
        assert not result.eigen_order and not result.sum_order

    def test_symmetric_boundary(self):
        result = left_eigenvector_order(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert result.boundary
        assert not result.eigen_order and not result.sum_order

    def test_equivalence_on_random_matrices(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            s = rng.uniform(0.05, 5.0, (2, 2))
            result = left_eigenvector_order(s)
            if not result.boundary:
                assert result.eigen_order == result.sum_order

    def test_requires_positive_entries(self):
        with pytest.raises(InvalidInputError):
            left_eigenvector_order(np.array([[1.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            left_eigenvector_order(np.array([np.ones((2, 2)), [[1.0, 0.0], [1.0, 1.0]]]))

    def test_stack_matches_one_matrix_reference(self):
        # every field of every stacked entry has the bits of the one-matrix
        # formula; among them column gaps of exactly 0 and equal entries
        rng = np.random.default_rng(5)
        cases = [
            rng.uniform(0.05, 5.0, (2000, 2, 2)),
            rng.uniform(0.05, 5.0, (200, 2, 2)) * 10.0 ** rng.integers(-300, 300, (200, 1, 1)),
            [[[1.0, 2.0], [3.0, 2.0]], [[0.5, 0.25], [0.25, 0.5]], [[1e-300, 3e-300], [2e-300, 1e-300]]],
            [np.full((2, 2), c) for c in (1e-300, 1e-5, 1.0, 3.7, 1e300)],
            [[[a, b], [b, a]] for a, b in rng.uniform(0.05, 5.0, (50, 2)).tolist()],
            [[[1.0, 1.0 + 1e-12], [1.0, 1.0]], [[1.0, 1.0 + 1e-11], [1.0, 1.0]]],
        ]
        boundary = 0
        for stack in cases:
            stack = np.asarray(stack, dtype=float)
            result = left_eigenvector_order(stack)
            for g, m in enumerate(stack):
                expected = reference_left_order(m)
                assert left_eigenvector_order(m) == expected
                got = LeftOrderResult(
                    bool(result.eigen_order[g]), bool(result.sum_order[g]), bool(result.boundary[g]),
                    float(result.ratio[g]), float(result.column_gap[g]),
                )
                assert got == expected
                assert math.copysign(1.0, got.column_gap) == math.copysign(1.0, expected.column_gap)
                boundary += expected.boundary
            assert result.disagreements == sum(
                not r.boundary and r.eigen_order != r.sum_order for r in map(reference_left_order, stack)
            )
        assert boundary >= 60

    def test_grid_certificate_on_insect_pair(self, insect_linearization):
        cert = left_order_certificate(rho_profile(insect_linearization, GRID7))
        assert cert.holds
        assert cert.details["oracles_agree"]
        assert np.all(cert.margins > 0.0)

    def test_grid_certificate_fails_when_order_reversed(self):
        # transposing the cycle matrix swaps the ordering; build a pair whose
        # monodromy has the larger first column sum
        lin = TwoSeasonLinearization(
            np.array([[-1.0, 0.5], [2.0, -2.0]]), np.array([[0.5, 0.25], [2.5, -1.0]]), 1.0
        )
        cert = left_order_certificate(rho_profile(lin, GRID7))
        assert not cert.holds
        assert cert.margins.min() < 0.0


class TestDiagonalizeSeason:
    def test_unfavorable_closed_form(self, pi_unfavorable):
        data = diagonalize_season(pi_unfavorable)
        assert data.lambda_plus == pytest.approx(-0.5, abs=1e-14)
        assert data.lambda_minus == pytest.approx(-2.0, abs=1e-14)
        assert data.x_plus == pytest.approx(1.0, abs=1e-14)
        assert data.x_minus == pytest.approx(-0.5, abs=1e-14)

    def test_slope_inequalities(self, pi_unfavorable):
        data = diagonalize_season(pi_unfavorable)
        assert data.x_minus < 0.0 < data.x_plus
        assert 1.0 + data.x_minus > 0.0

    def test_reconstruction_matches_jacobian(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            pi = InsectParams(*(rng.uniform(0.1, 4.0, 5)))
            data = diagonalize_season(pi)
            j = jacobian(pi, np.zeros(2))
            for lam, x in ((data.lambda_plus, data.x_plus), (data.lambda_minus, data.x_minus)):
                vector = np.array([1.0, x])
                assert np.abs(j @ vector - lam * vector).max() <= 1e-10

    def test_weight_ordering(self, pi_favorable):
        data = diagonalize_season(pi_favorable)
        for duration in (0.1, 0.5, 2.0):
            assert data.weight_ratio(duration) > 1.0

    def test_degenerate_birth_rate(self):
        with pytest.raises(DegenerateDiagonalizationError):
            diagonalize_season(InsectParams(b=0.0, h=1.0, dJ=1.0, cJ=1.0, dA=1.0))

    def test_degenerate_hatching(self):
        with pytest.raises(DegenerateDiagonalizationError):
            diagonalize_season(InsectParams(b=1.0, h=0.0, dJ=1.0, cJ=1.0, dA=1.0))


class TestOrderingForm:
    def test_vanishes_at_unit_ratios(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            du = diagonalize_season(InsectParams(*(rng.uniform(0.1, 4.0, 5))))
            df = diagonalize_season(InsectParams(*(rng.uniform(0.1, 4.0, 5))))
            assert abs(ordering_form(1.0, 1.0, du, df)) <= 1e-12


class TestInsectThresholdCertificate:
    def test_running_pair_all_stages(self, pi_unfavorable, pi_favorable, insect_linearization):
        cert = insect_threshold_certificate(
            pi_unfavorable, pi_favorable, rho_profile(insect_linearization)
        )
        assert cert.holds
        stages = cert.details["stages"]
        assert set(stages) == {
            "season_contrast",
            "offspring_numbers",
            "unfavorable_growth",
            "slope_inequalities",
            "form_vanishes_at_one",
            "form_partials_negative",
            "form_negative_on_grid",
            "column_sum_crosscheck",
        }
        for stage in stages.values():
            assert stage.holds, stage.name

    def test_endpoint_margins_continuous(self, pi_unfavorable, pi_favorable, insect_linearization):
        grid = np.array([0.0, 0.5, 1.0])
        cert = insect_threshold_certificate(
            pi_unfavorable, pi_favorable, rho_profile(insect_linearization, grid)
        )
        form_values = cert.details["form_values"]
        assert form_values[0] < -1.0
        assert form_values[-1] < -1.0

    def test_supercritical_unfavorable_fails_offspring_stage(self, pi_favorable):
        pi_u = InsectParams(b=5.0, h=1.0, dJ=0.5, cJ=1.0, dA=0.5)
        profile = rho_profile(insect_pair_lin(pi_u, pi_favorable))
        cert = insect_threshold_certificate(pi_u, pi_favorable, profile)
        assert not cert.holds
        assert not cert.details["stages"]["offspring_numbers"].holds

    def test_form_sign_matches_column_sums_random(self):
        rng = np.random.default_rng(89)
        grid = np.linspace(0.0, 1.0, 9)
        for _ in range(100):
            pi_u, pi_f = random_contrast_pair(rng)
            profile = rho_profile(insect_pair_lin(pi_u, pi_f), grid)
            cert = insect_threshold_certificate(pi_u, pi_f, profile)
            assert cert.details["stages"]["column_sum_crosscheck"].holds
            assert cert.holds

    def test_profile_of_another_pair_rejected(self, pi_unfavorable, pi_favorable):
        perturbed = InsectParams(b=2.0, h=1.3, dJ=0.5, cJ=1.0, dA=0.5)
        for lin in (insect_pair_lin(pi_unfavorable, perturbed),
                    insect_pair_lin(pi_favorable, pi_unfavorable)):
            with pytest.raises(InvalidInputError, match="linearization"):
                insect_threshold_certificate(pi_unfavorable, pi_favorable, rho_profile(lin, GRID7))


# The decrease certificates as they read one grid point at a time: the
# references the stacked forms must equal bit for bit.


def reference_candidate_left(s, v_stars):
    if float(np.max(s)) < -STRICTNESS:
        return "identity"
    if s.shape[0] == 2:
        p = np.array([[1.0, 1.0], [0.0, 1.0]])
        if float(np.max(p @ s)) < -STRICTNESS and all(w[1] - w[0] > STRICTNESS for w in v_stars):
            return "triangular"
    if all(float(np.max(s.T @ w)) < -STRICTNESS for w in v_stars):
        return "eigenvector_form"
    return None


def reference_decrease(profile, p, side):
    lin = profile.lin
    left = side == "left"
    s = lin.s.T if left else lin.s
    vectors = list(profile.v_star if left else profile.v)
    details = {}
    if p is None:
        margins = np.array([-float(np.max(s @ v)) for v in vectors])
        if left:
            details["certified_by"] = reference_candidate_left(lin.s, vectors)
    else:
        p_inv = np.linalg.inv(p)
        if left:
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
        theta_grid=profile.thetas,
        details=details,
    )


def reference_bilinear(profile, p, q):
    entry_margin = float(np.min(p.T @ q - profile.lin.s))
    eq_errors = np.array(
        [float(np.linalg.norm(p @ w + q @ v)) for v, w in zip(profile.v, profile.v_star)]
    )
    return ConditionCertificate(
        condition="decrease_bilinear",
        holds=entry_margin > STRICTNESS and bool(np.all(eq_errors <= _EQ_TOL)),
        margins=np.minimum(entry_margin, _EQ_TOL - eq_errors),
        theta_grid=profile.thetas,
        details={"entry_margin": entry_margin, "max_eq_error": float(eq_errors.max())},
    )


def exact_repr(cert) -> str:
    """repr of a certificate with every float at its shortest round-trip
    digits, so equal text means equal bits (signed zeros included)."""
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        return repr(cert)


def certificate_cases():
    """(lin, label): random Metzler pairs at each n, and pairs built to be
    certified by the identity, by the triangular p and by the sharp form."""
    rng = np.random.default_rng(23)
    for n in (2, 3, 4, 6, 8):
        for i in range(3):
            yield random_metzler_pair(rng, n), f"random{n}-{i}"
    m1 = np.array([[-2.0, 0.5], [0.5, -2.0]])
    yield TwoSeasonLinearization(m1, m1 + np.array([[1.0, 0.5], [0.5, 1.0]]), 1.0), "identity"
    yield insect_pair_lin(InsectParams(1.0, 0.5, 1.0, 1.0, 1.0),
                          InsectParams(2.0, 1.0, 0.5, 1.0, 0.5)), "insect"
    # S = -(2 I + a small off-diagonal of both signs): not entrywise negative
    # at n = 3, where no triangular p is tried, yet S^T V* < 0
    base = np.ones((3, 3)) + np.diag([-4.0, -3.0, -5.0])
    shift = 2.0 * np.eye(3) + 0.3 * np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    yield TwoSeasonLinearization(base, base + shift, 1.0), "eigenvector_form"


class TestStackedCertificates:
    """The decrease certificates judge the whole grid by stacked products,
    with the bits of their per-theta forms."""

    @pytest.mark.parametrize("points", [1, 13, 101])
    def test_equal_to_per_theta_forms(self, points):
        grid = np.linspace(0.0, 1.0, points)
        rng = np.random.default_rng(points)
        certified_by = set()
        for lin, label in certificate_cases():
            n = lin.dimension
            profile = rho_profile(lin, grid)
            while True:
                random_p = rng.uniform(-1.0, 1.0, (n, n))
                if abs(np.linalg.det(random_p)) > 1e-3:
                    break
            for p in (None, np.eye(n), np.triu(np.ones((n, n))), random_p):
                for side, check in (("left", check_decrease_left), ("right", check_decrease_right)):
                    cert = check(profile, p=p)
                    assert exact_repr(cert) == exact_repr(reference_decrease(profile, p, side)), label
                    if p is None and side == "left":
                        certified_by.add(cert.details["certified_by"])
            for p, q in ((np.zeros((n, n)), np.zeros((n, n))),
                         (random_p, rng.uniform(-1.0, 1.0, (n, n)))):
                cert = check_decrease_bilinear(profile, p=p, q=q)
                assert exact_repr(cert) == exact_repr(reference_bilinear(profile, p, q)), label
        assert certified_by == {"identity", "triangular", "eigenvector_form", None}

    def test_shared_eigenvector_equal_to_per_pair_form(self):
        def angle(x, y):
            cx = x / np.linalg.norm(x)
            cy = y / np.linalg.norm(y)
            return float(2.0 * np.arcsin(min(1.0, 0.5 * np.linalg.norm(cx - cy))))

        for lin, label in certificate_cases():
            (v1, v2), (v1s, v2s) = floquet.season_vectors(lin)
            right, left = angle(v1, v2), angle(v1s, v2s)
            cert = check_shared_eigenvector(lin)
            assert (cert.details["angle_right"], cert.details["angle_left"]) == (right, left), label
            assert exact_repr(cert.margins) == exact_repr(
                np.array([cert.details["tol"] - right, cert.details["tol"] - left])
            )

    def test_shared_eigenvector_reads_one_stacked_pair(self, monkeypatch):
        calls = []
        original = floquet.perron_pair

        def counted(m, *args, **kwargs):
            calls.append(np.shape(m))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(floquet, "perron_pair", counted)
        check_shared_eigenvector(random_metzler_pair(np.random.default_rng(5), 4))
        assert calls == [(2, 4, 4)]
