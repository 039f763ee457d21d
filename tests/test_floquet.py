import math

import numpy as np
import pytest

from seasonthresh import (
    AutonomousPiece,
    SeasonalSchedule,
    SeasonalSystem,
    TwoSeasonLinearization,
    constrained_resolvent,
    find_threshold,
    log_convexity_probe,
    monodromy,
    monodromy_general,
    rho,
    rho_prime,
    rho_profile,
    rho_second,
    timescale_asymptotics,
)
from seasonthresh import floquet
from seasonthresh.errors import CertificateError, InvalidInputError
from seasonthresh.linalg import mat_exp, perron_pair, spectral_abscissa

from conftest import random_metzler_pair

K = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def shifted_pair():
    # common eigenvectors, mu1 = -1, mu2 = 2, rho(theta) = exp(2 - 3 theta)
    return TwoSeasonLinearization(K - 2.0 * np.eye(2), K + 1.0 * np.eye(2), 1.0)


class TestMonodromy:
    def test_endpoints(self, insect_linearization):
        lin = insect_linearization
        assert np.allclose(monodromy(lin, 0.0), mat_exp(lin.period_T * lin.m2), atol=1e-13)
        assert np.allclose(monodromy(lin, 1.0), mat_exp(lin.period_T * lin.m1), atol=1e-13)

    def test_commuting_exponents_add(self, shifted_pair):
        expected = math.exp(-0.5) * np.array(
            [[math.cosh(1.0), math.sinh(1.0)], [math.sinh(1.0), math.cosh(1.0)]]
        )
        assert np.allclose(monodromy(shifted_pair, 0.5), expected, atol=1e-12)

    def test_theta_out_of_range(self, shifted_pair):
        with pytest.raises(InvalidInputError):
            monodromy(shifted_pair, 1.2)

    def test_general_single_season(self):
        a = np.array([[-1.0, 0.5], [0.25, -2.0]])
        system = SeasonalSystem(
            schedule=SeasonalSchedule(2.0, (0.0, 1.0)),
            pieces=(AutonomousPiece.linear(a),),
        )
        assert np.allclose(monodromy_general(system), mat_exp(2.0 * a), atol=1e-13)

    def test_general_matches_two_season(self, insect_linearization):
        lin = insect_linearization
        system = SeasonalSystem(
            schedule=SeasonalSchedule(1.0, (0.0, 0.35, 1.0)),
            pieces=(AutonomousPiece.linear(lin.m1), AutonomousPiece.linear(lin.m2)),
        )
        assert np.allclose(monodromy_general(system), monodromy(lin, 0.35), atol=1e-12)

    def test_general_thirds_collapse(self):
        a = np.array([[-1.0, 1.0], [2.0, -3.0]])
        system = SeasonalSystem(
            schedule=SeasonalSchedule(1.5, (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)),
            pieces=tuple(AutonomousPiece.linear(a) for _ in range(3)),
        )
        assert np.allclose(monodromy_general(system), mat_exp(1.5 * a), atol=1e-12)


class TestRho:
    def test_shared_eigenvector_closed_form(self, shifted_pair):
        for th in np.linspace(0.0, 1.0, 11):
            value, pair = rho(shifted_pair, float(th))
            assert value == pytest.approx(math.exp(2.0 - 3.0 * th), rel=1e-12)
            assert np.all(pair.v > 0.0)

    def test_theta_zero_is_single_season(self, shifted_pair):
        value, _ = rho(shifted_pair, 0.0)
        assert value == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_insect_favorable_endpoint(self, insect_linearization):
        # mu(DF2(0)) = (-2 + sqrt(9)) / 2 = 0.5
        value, _ = rho(insect_linearization, 0.0)
        assert value == pytest.approx(math.exp(0.5), rel=1e-11)

    def test_endpoint_consistency_random(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            lin = random_metzler_pair(rng, int(rng.integers(2, 5)))
            t = lin.period_T
            assert rho(lin, 0.0)[0] == pytest.approx(
                math.exp(t * spectral_abscissa(lin.m2)), rel=1e-9
            )
            assert rho(lin, 1.0)[0] == pytest.approx(
                math.exp(t * spectral_abscissa(lin.m1)), rel=1e-9
            )


class TestRhoPrime:
    def test_shared_eigenvector_rate(self, shifted_pair):
        for th in (0.2, 0.6):
            value, _ = rho(shifted_pair, th)
            assert rho_prime(shifted_pair, th) / value == pytest.approx(-3.0, rel=1e-10)

    def test_equal_seasons_zero(self):
        lin = TwoSeasonLinearization(K, K, 1.0)
        assert rho_prime(lin, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_insect_matches_finite_difference(self, insect_linearization):
        h = 1e-5
        fd = (rho(insect_linearization, 0.5 + h)[0] - rho(insect_linearization, 0.5 - h)[0]) / (
            2.0 * h
        )
        analytic = rho_prime(insect_linearization, 0.5)
        assert analytic < 0.0
        assert analytic == pytest.approx(fd, rel=1e-8)

    def test_random_pairs_match_finite_difference(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            lin = random_metzler_pair(rng, int(rng.integers(2, 6)))
            for th in (0.25, 0.5, 0.75):
                h = 1e-5
                fd = (rho(lin, th + h)[0] - rho(lin, th - h)[0]) / (2.0 * h)
                analytic = rho_prime(lin, th)
                assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(analytic))


class TestRhoSecond:
    def test_equal_seasons_zero(self):
        lin = TwoSeasonLinearization(K, K, 1.0)
        assert rho_second(lin, 0.3) == pytest.approx(0.0, abs=1e-10)

    def test_shared_eigenvector_log_linear(self, shifted_pair):
        # rho = exp(2 - 3 theta): rho'' = 9 rho
        for th in (0.1, 0.5, 0.9):
            value, _ = rho(shifted_pair, th)
            assert rho_second(shifted_pair, th) == pytest.approx(9.0 * value, rel=1e-9)

    def test_shared_eigenvector_other_period(self):
        lin = TwoSeasonLinearization(K - 2.0 * np.eye(2), K + 1.0 * np.eye(2), 2.0)
        value, _ = rho(lin, 0.4)
        assert rho_second(lin, 0.4) == pytest.approx(9.0 * 4.0 * value, rel=1e-9)

    def test_random_pairs_match_second_difference(self):
        rng = np.random.default_rng(37)
        for _ in range(8):
            lin = random_metzler_pair(rng, 3)
            th, h = 0.4, 1e-4
            fd = (rho(lin, th + h)[0] - 2.0 * rho(lin, th)[0] + rho(lin, th - h)[0]) / h**2
            analytic = rho_second(lin, th)
            assert abs(analytic - fd) <= 1e-4 * max(1.0, abs(analytic))


class TestConstrainedResolvent:
    def test_zero_rhs(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        v = np.full(2, 1.0 / math.sqrt(2.0))
        x = constrained_resolvent(m, 3.0, v, v, np.zeros(2), side="right")
        assert np.allclose(x, 0.0, atol=1e-14)

    def test_symmetric_eigendecomposition_oracle(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        v = np.array([inv_sqrt2, inv_sqrt2])
        b = np.array([inv_sqrt2, -inv_sqrt2])
        x = constrained_resolvent(m, 3.0, v, v, b, side="right")
        expected = -np.array([inv_sqrt2, -inv_sqrt2]) / 2.0
        assert np.allclose(x, expected, atol=1e-12)

    def test_residual_on_random_admissible_rhs(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            m = rng.uniform(0.1, 2.0, (4, 4))
            pair = perron_pair(m)
            raw = rng.normal(size=4)
            b = raw - (raw @ pair.v_star) / (pair.v_star @ pair.v_star) * pair.v_star
            x = constrained_resolvent(m, pair.rho, pair.v, pair.v_star, b, side="right")
            assert np.linalg.norm((m - pair.rho * np.eye(4)) @ x - b) <= 1e-9
            assert abs(x @ pair.v) <= 1e-9

    def test_adjoint_side(self):
        rng = np.random.default_rng(43)
        m = rng.uniform(0.1, 2.0, (3, 3))
        pair = perron_pair(m)
        raw = rng.normal(size=3)
        b = raw - (raw @ pair.v) * pair.v
        x = constrained_resolvent(m, pair.rho, pair.v, pair.v_star, b, side="adjoint")
        assert np.linalg.norm((m.T - pair.rho * np.eye(3)) @ x - b) <= 1e-9
        assert abs(x @ pair.v) <= 1e-9

    def test_orthogonality_precondition(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        v = np.full(2, 1.0 / math.sqrt(2.0))
        with pytest.raises(InvalidInputError):
            constrained_resolvent(m, 3.0, v, v, np.array([1.0, 1.0]), side="right")

    def test_unknown_side(self):
        m = np.eye(2)
        with pytest.raises(InvalidInputError):
            constrained_resolvent(m, 1.0, np.ones(2), np.ones(2), np.zeros(2), side="up")


class TestFindThreshold:
    def test_shared_eigenvector_closed_form(self, shifted_pair):
        report = find_threshold(shifted_pair, tol=1e-10)
        assert report.regime == "interior_root"
        assert report.monotone_certificate
        assert report.theta_star == pytest.approx(2.0 / 3.0, abs=1e-9)
        # threshold from the abscissas: muF / (muF - muU) = 2 / 3
        assert report.theta_star == pytest.approx(2.0 / (2.0 + 1.0), abs=1e-9)

    def test_interior_bracket_straddles(self, shifted_pair):
        report = find_threshold(shifted_pair, tol=1e-10)
        delta = 10.0 * report.tol
        assert rho(shifted_pair, report.theta_star - delta)[0] > 1.0
        assert rho(shifted_pair, report.theta_star + delta)[0] < 1.0
        lo, hi = report.bracket
        assert rho(shifted_pair, lo)[0] > 1.0 >= rho(shifted_pair, hi)[0]

    def test_constant_profile_persistent(self):
        lin = TwoSeasonLinearization(K, K, 1.0)  # mu = 1 > 0, rho = e
        report = find_threshold(lin)
        assert report.regime == "always_persistent"
        assert report.theta_star == 1.0
        assert not report.monotone_certificate

    def test_constant_profile_extinct(self):
        m = K - 2.0 * np.eye(2)  # mu = -1 < 0
        report = find_threshold(TwoSeasonLinearization(m, m, 1.0))
        assert report.regime == "always_extinct"
        assert report.theta_star == 0.0

    def test_decreasing_but_all_above_one(self):
        lin = TwoSeasonLinearization(K, K + 2.0 * np.eye(2), 1.0)  # rho: e^3 down to e
        report = find_threshold(lin)
        assert report.regime == "always_persistent"
        assert report.theta_star == 1.0
        assert report.monotone_certificate

    def test_insect_interior_root(self, insect_linearization):
        report = find_threshold(insect_linearization, tol=1e-10)
        assert report.regime == "interior_root"
        assert 0.0 < report.theta_star < 1.0
        assert abs(report.rho_at_theta_star - 1.0) <= 1e-10
        # the running pair shares its Perron vectors: theta* = 0.5 exactly
        assert report.theta_star == pytest.approx(0.5, abs=1e-9)

    def test_increasing_profile_raises(self):
        lin = TwoSeasonLinearization(K + 1.0 * np.eye(2), K - 2.0 * np.eye(2), 1.0)
        with pytest.raises(CertificateError) as excinfo:
            find_threshold(lin)
        assert excinfo.value.violations

    def test_increasing_profile_override(self):
        # rho = exp(3 theta - 1): up-crossing at theta = 1/3
        lin = TwoSeasonLinearization(K + 1.0 * np.eye(2), K - 2.0 * np.eye(2), 1.0)
        report = find_threshold(lin, override_monotonic=True)
        assert report.regime == "interior_root"
        assert report.theta_star == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert not report.monotone_certificate


class TestRhoProfile:
    def test_grid_shapes_and_monotonicity(self, insect_linearization):
        profile = rho_profile(insect_linearization, np.linspace(0.0, 1.0, 21), second=True)
        assert profile.strictly_decreasing
        assert profile.rho_second.shape == (21,)
        assert len(profile.perron_pairs) == 21

    def test_one_monodromy_and_pair_per_theta(self, insect_linearization, monkeypatch):
        calls = []
        for name in ("monodromy", "perron_pair"):
            original = getattr(floquet, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(floquet, name, counted)
        rho_profile(insect_linearization, np.linspace(0.0, 1.0, 5), second=True)
        assert sorted(calls) == ["monodromy"] * 5 + ["perron_pair"] * 5

    def test_continuity_no_jumps(self, insect_linearization):
        thetas = np.linspace(0.0, 1.0, 201)
        values = np.array([rho(insect_linearization, float(t))[0] for t in thetas])
        slopes = np.abs(np.diff(values)) / np.diff(thetas)
        assert slopes.max() < 10.0


class TestLogConvexityProbe:
    def test_shared_eigenvector_affine(self, shifted_pair):
        report = log_convexity_probe(shifted_pair, np.linspace(0.0, 1.0, 21))
        assert report.convex
        assert np.abs(report.second_differences).max() <= 1e-10
        assert report.endpoint_slope_product == pytest.approx(9.0, abs=1e-9)

    def test_equal_seasons_zero_product(self):
        lin = TwoSeasonLinearization(K, K, 1.0)
        report = log_convexity_probe(lin, np.linspace(0.0, 1.0, 11))
        assert report.endpoint_slope_product == pytest.approx(0.0, abs=1e-12)

    def test_second_differences_match_external_grid(self, insect_linearization):
        grid = np.linspace(0.0, 1.0, 26)
        log_rho = np.array([math.log(rho(insect_linearization, float(t))[0]) for t in grid])
        expected = log_rho[2:] - 2.0 * log_rho[1:-1] + log_rho[:-2]
        report = log_convexity_probe(insect_linearization, grid)
        assert np.allclose(report.second_differences, expected, atol=1e-12)


class TestTimescale:
    def test_equal_seasons_zero_correction(self):
        lin = TwoSeasonLinearization(K, K, 1.0)
        report = timescale_asymptotics(lin, [1.0, 2.0, 4.0], theta=0.5)
        assert np.abs(report.corrections).max() <= 1e-12
        assert report.limit_correction == pytest.approx(0.0, abs=1e-12)

    def test_shared_pair_zero_correction(self, shifted_pair):
        report = timescale_asymptotics(shifted_pair, [1.0, 2.0, 4.0, 8.0], theta=0.3)
        assert np.abs(report.corrections).max() <= 1e-12
        assert report.limit_correction == pytest.approx(0.0, abs=1e-12)

    def test_generic_pair_correction_converges(self):
        rng = np.random.default_rng(53)
        lin = random_metzler_pair(rng, 3)
        report = timescale_asymptotics(lin, [1.0, 2.0, 4.0, 8.0, 16.0], theta=0.5)
        assert abs(report.corrections[-1] - report.limit_correction) <= 1e-4
        assert abs(report.rho_at_t_small - 1.0) <= 1e-5
        # the per-period growth rate approaches the abscissa interpolation
        linear_rate = 0.5 * report.mu1 + 0.5 * report.mu2
        rate_gaps = np.abs(report.log_rho_over_t - linear_rate)
        assert rate_gaps[-1] <= rate_gaps[0]
        assert rate_gaps[-1] <= 1e-4 * max(1.0, abs(linear_rate)) + abs(
            report.limit_correction
        ) / report.t_values[-1] + 1e-9

    def test_t_values_must_increase(self, shifted_pair):
        with pytest.raises(InvalidInputError):
            timescale_asymptotics(shifted_pair, [2.0, 1.0])


class TestLinearizationValidation:
    def test_non_metzler_rejected(self):
        with pytest.raises(InvalidInputError):
            TwoSeasonLinearization(np.array([[1.0, -1.0], [1.0, 1.0]]), K, 1.0)

    def test_reducible_rejected(self):
        with pytest.raises(InvalidInputError):
            TwoSeasonLinearization(np.array([[1.0, 1.0], [0.0, 1.0]]), K, 1.0)

    def test_s_is_exact_difference(self, insect_linearization):
        lin = insect_linearization
        assert np.array_equal(lin.s, lin.m1 - lin.m2)
