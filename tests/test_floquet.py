import math
from pathlib import Path

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
    rho,
    rho_prime,
    rho_profile,
    rho_second,
    timescale_asymptotics,
)
from seasonthresh import floquet
from seasonthresh.errors import CertificateError, InvalidInputError
from seasonthresh.linalg import exp_products, mat_exp, perron_pair, spectral_abscissa
from seasonthresh.scenario import linearization_from_scenario, load_scenario
from seasonthresh.verify_suite import random_metzler

from conftest import random_metzler_pair

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = ("insect_two_season", "insect_nonshared", "matrices_shared_eigenvector")


def bundled_linearization(name):
    return linearization_from_scenario(load_scenario(SCENARIOS / f"{name}.json"))


def period_map(system):
    """The ordered product of the seasons' exponentials, season 1 rightmost."""
    seasons = [piece.linearization_at_zero for piece in system.pieces]
    return exp_products(seasons, [system.schedule.durations()], {})[0]


def interior_pair(rng, n, period):
    """Random Metzler seasons with abscissas of opposite signs: rho crosses 1."""
    a, b = random_metzler(rng, n), random_metzler(rng, n)
    eye = np.eye(n)
    return TwoSeasonLinearization(
        a - (spectral_abscissa(a) + rng.uniform(0.3, 1.5)) * eye,
        b - (spectral_abscissa(b) - rng.uniform(0.3, 1.5)) * eye,
        period,
    )

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
        assert np.allclose(period_map(system), mat_exp(2.0 * a), atol=1e-13)

    def test_general_matches_two_season(self, insect_linearization):
        lin = insect_linearization
        system = SeasonalSystem(
            schedule=SeasonalSchedule(1.0, (0.0, 0.35, 1.0)),
            pieces=(AutonomousPiece.linear(lin.m1), AutonomousPiece.linear(lin.m2)),
        )
        assert np.allclose(period_map(system), monodromy(lin, 0.35), atol=1e-12)

    def test_general_thirds_collapse(self):
        a = np.array([[-1.0, 1.0], [2.0, -3.0]])
        system = SeasonalSystem(
            schedule=SeasonalSchedule(1.5, (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)),
            pieces=tuple(AutonomousPiece.linear(a) for _ in range(3)),
        )
        assert np.allclose(period_map(system), mat_exp(1.5 * a), atol=1e-12)


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

    def test_newton_bracket_within_twelve_evaluations(self, monkeypatch):
        # evaluations past the grid, counted by patching the evaluator
        calls = []
        original = floquet._evaluate

        def counted(*args, **kwargs):
            calls.append(len(np.atleast_1d(args[1])))
            return original(*args, **kwargs)

        monkeypatch.setattr(floquet, "_evaluate", counted)
        rng = np.random.default_rng(67)
        pairs = [bundled_linearization(name) for name in BUNDLED]
        pairs += [interior_pair(rng, int(rng.integers(2, 7)), 1.0) for _ in range(20)]
        for base in pairs:
            for period in (0.01, 1.0, 100.0):
                lin = base.with_period(period)
                calls.clear()
                report = find_threshold(lin, override_monotonic=True)
                assert report.regime == "interior_root"
                assert calls[0] == report.grid_points and len(calls) - 1 <= 12
                lo, hi = report.bracket
                assert rho(lin, lo)[0] > 1.0 >= rho(lin, hi)[0]
                assert hi - lo <= report.tol and lo <= report.theta_star <= hi
                assert abs(report.rho_at_theta_star - 1.0) <= report.tol

    @pytest.mark.parametrize("points", [0, 1])
    def test_grid_without_both_ends_rejected(self, insect_linearization, points):
        # a one-point grid holds only theta = 0, whose rho would stand in for rho(1)
        with pytest.raises(InvalidInputError, match="grid_points must be >= 2"):
            find_threshold(insect_linearization, grid_points=points)

    @pytest.mark.parametrize("points", [2.5, True, np.float64(11.0)])
    def test_grid_points_must_be_an_int(self, insect_linearization, points):
        # a float reached np.linspace and a bool was read as 1
        with pytest.raises(InvalidInputError, match="grid_points must be an int"):
            find_threshold(insect_linearization, grid_points=points)

    def test_grid_points_takes_a_numpy_int(self, insect_linearization):
        report = find_threshold(insect_linearization, grid_points=np.int64(11))
        assert report == find_threshold(insect_linearization, grid_points=11)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_tol_must_be_positive(self, insect_linearization, tol):
        # -1 and nan spent all DEFAULT_MAX_BISECT evaluations and still
        # reported an interior root
        with pytest.raises(InvalidInputError, match="tol must be positive"):
            find_threshold(insect_linearization, tol=tol)

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
        assert not profile.violations()
        assert profile.rho_second.shape == (21,)
        assert len(profile.v) == 21

    def test_one_monodromy_and_pair_per_theta(self, insect_linearization, monkeypatch):
        calls = []
        for name in ("monodromy", "perron_pair"):
            original = getattr(floquet, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(floquet, name, counted)
        rho_profile(insect_linearization, np.linspace(0.0, 1.0, 5), second=True)
        # the 5 monodromies come from one stacked product, not from `monodromy`
        assert calls == ["perron_pair"]

    @pytest.mark.parametrize(
        "pair", ["insect_two_season", "insect_nonshared", "random2", "random3", "random6"]
    )
    def test_batch_equals_one_theta_calls(self, pair):
        if pair.startswith("random"):
            lin = random_metzler_pair(np.random.default_rng(71), int(pair[6:]))
        else:
            lin = bundled_linearization(pair)
        grid = np.linspace(0.0, 1.0, 9)
        profile = rho_profile(lin, grid, second=True)
        for g, th in enumerate(grid):
            value, pair_alone = rho(lin, float(th))
            assert profile.rho[g] == value
            assert profile.rho_prime[g] == rho_prime(lin, float(th))
            assert profile.rho_second[g] == rho_second(lin, float(th))
            assert np.array_equal(profile.v[g], pair_alone.v)
            assert np.array_equal(profile.v_star[g], pair_alone.v_star)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_batch_equals_one_theta_calls_at_every_n(self, n):
        # from n = 4 some monodromies of a grid have complex eigenvalues, so
        # the stacked eigen-solve is complex while most one-theta ones are real
        rng = np.random.default_rng(400 + n)
        grid = np.linspace(0.0, 1.0, 9)
        for _ in range(8):
            lin = random_metzler_pair(rng, n)
            profile = rho_profile(lin, grid, second=True)
            for g, th in enumerate(grid):
                value, pair_alone = rho(lin, float(th))
                assert profile.rho[g] == value
                assert profile.rho_prime[g] == rho_prime(lin, float(th))
                assert profile.rho_second[g] == rho_second(lin, float(th))
                assert np.array_equal(profile.v[g], pair_alone.v)
                assert np.array_equal(profile.v_star[g], pair_alone.v_star)

    def test_carries_its_linearization_and_monodromies(self, insect_linearization):
        grid = np.linspace(0.0, 1.0, 5)
        profile = rho_profile(insect_linearization, grid)
        assert profile.lin is insect_linearization
        assert profile.monodromies.shape == (5, 2, 2)
        for th, m in zip(grid, profile.monodromies):
            assert np.array_equal(m, monodromy(insect_linearization, float(th)))

    @pytest.mark.parametrize(
        "thetas, shape", [([[0.1, 0.2]], "(1, 2)"), (0.3, "()"), ([], "(0,)")]
    )
    def test_grid_must_be_nonempty_and_1d(self, insect_linearization, thetas, shape):
        # a 2-D grid lost its second row, a scalar raised TypeError and an
        # empty grid a message about matrix shapes
        with pytest.raises(InvalidInputError) as excinfo:
            rho_profile(insect_linearization, thetas)
        assert str(excinfo.value) == f"thetas must be a nonempty 1-D array, got shape {shape}"

    def test_continuity_no_jumps(self, insect_linearization):
        thetas = np.linspace(0.0, 1.0, 201)
        values = np.array([rho(insect_linearization, float(t))[0] for t in thetas])
        slopes = np.abs(np.diff(values)) / np.diff(thetas)
        assert slopes.max() < 10.0


def profile_bytes(profile):
    fields = ("thetas", "rho", "rho_prime", "rho_second", "v", "v_star", "monodromies", "log_rho")
    return [None if getattr(profile, f) is None else getattr(profile, f).tobytes() for f in fields]


def overflowing_pair(rng, n, shift):
    """A random pair shifted up so far that rho leaves double range at T = 5."""
    lin = random_metzler_pair(rng, n)
    return TwoSeasonLinearization(lin.m1 + shift * np.eye(n), lin.m2 + shift * np.eye(n), 5.0)


class TestRhoProfiles:
    @pytest.mark.parametrize("second", [False, True])
    @pytest.mark.parametrize("points", [1, 9])
    def test_equal_per_linearization_profiles(self, points, second):
        # n = 2 and 3 mixed, each pair at its own period
        rng = np.random.default_rng(90 + points)
        lins = [random_metzler_pair(rng, int(rng.integers(2, 4)), float(10.0 ** rng.uniform(-1, 1)))
                for _ in range(30)]
        grid = np.linspace(0.05, 0.95, points)
        profiles = floquet.rho_profiles(lins, grid, second=second)
        assert len(profiles) == len(lins)
        for lin, profile in zip(lins, profiles):
            assert profile.lin is lin
            assert profile_bytes(profile) == profile_bytes(rho_profile(lin, grid, second=second))

    @pytest.mark.parametrize("n", [4, 6])
    def test_equal_per_linearization_profiles_past_n_3(self, n):
        # some monodromies have complex eigenvalues from n = 4
        rng = np.random.default_rng(120 + n)
        lins = [random_metzler_pair(rng, n) for _ in range(6)]
        grid = np.linspace(0.0, 1.0, 9)
        for lin, profile in zip(lins, floquet.rho_profiles(lins, grid, second=True)):
            assert profile_bytes(profile) == profile_bytes(rho_profile(lin, grid, second=True))

    @pytest.mark.parametrize("points", [1, 9])
    def test_raises_the_error_of_a_loop_in_order(self, points):
        # rho overflows on `first` and on `later`, in the n = 3 and the n = 2
        # stack, and raises where it is read: reading it from a loop of
        # rho_profile calls stops at `first`, and so does reading the stacked
        # call's profiles in order
        rng = np.random.default_rng(7)
        grid = np.linspace(0.1, 0.9, points)
        first, later = overflowing_pair(rng, 3, 300.0), overflowing_pair(rng, 2, 400.0)
        lins = [random_metzler_pair(rng, 2), first, random_metzler_pair(rng, 3), later]
        messages = []
        for lin in (first, later):
            with pytest.raises(InvalidInputError) as alone:
                rho_profile(lin, grid, second=True).rho
            messages.append(str(alone.value))
        assert messages[0] != messages[1]
        profiles = floquet.rho_profiles(lins, grid, second=True)
        with pytest.raises(InvalidInputError) as stacked:
            for profile in profiles:
                profile.rho
        assert str(stacked.value) == messages[0]

    @pytest.mark.parametrize("case", ["overflow", "separation"])
    def test_makes_each_profile_alone_at_most_once(self, monkeypatch, case):
        # "overflow" takes the inputs above: both stacks evaluate, so none
        # is made alone, and reading rho in order stops at `first`.
        # "separation": the stack's evaluation itself raises on `later`,
        # whose period puts its monodromy near I, and the loop stops there
        if case == "overflow":
            rng = np.random.default_rng(7)
            first, later = overflowing_pair(rng, 3, 300.0), overflowing_pair(rng, 2, 400.0)
            lins = [random_metzler_pair(rng, 2), first, random_metzler_pair(rng, 3), later]
            error, alone, grid = InvalidInputError, [], np.linspace(0.1, 0.9, 9)
        else:
            rng = np.random.default_rng(9)
            lins = [random_metzler_pair(rng, 2), random_metzler_pair(rng, 2),
                    random_metzler_pair(rng, 2, period=1e-15)]
            error, alone, grid = floquet.ConvergenceError, lins, [0.5]
        with pytest.raises(error) as looped:
            for lin in lins:
                rho_profile(lin, grid, second=True).rho
        evaluated = []
        original = floquet._evaluate_rows

        def counted(lin, *args):
            evaluated.append(lin)
            return original(lin, *args)

        monkeypatch.setattr(floquet, "_evaluate_rows", counted)
        with pytest.raises(error) as stacked:
            for profile in floquet.rho_profiles(lins, grid, second=True):
                profile.rho
        assert str(stacked.value) == str(looped.value)
        assert isinstance(evaluated[0], floquet._Stacked)
        made_alone = [lin for lin in evaluated if not isinstance(lin, floquet._Stacked)]
        assert [id(lin) for lin in made_alone] == [id(lin) for lin in alone]

    def test_grid_must_be_1d(self):
        # a 2-D grid gave the second profile the first's rho at theta = 0.2
        lins = [bundled_linearization("insect_nonshared"), bundled_linearization("insect_two_season")]
        with pytest.raises(InvalidInputError, match=r"1-D array, got shape \(1, 2\)"):
            floquet.rho_profiles(lins, [[0.1, 0.2]])

    def test_profiles_are_views_of_one_formed_stack(self):
        rng = np.random.default_rng(10)
        lins = [random_metzler_pair(rng, 2) for _ in range(3)]
        profiles = floquet.rho_profiles(lins, np.linspace(0.0, 1.0, 5), second=True)
        for name in ("thetas", "log_shifted", "v", "v_star", "shifted"):
            stack = getattr(profiles[0], name).base
            assert stack is not None and all(getattr(p, name).base is stack for p in profiles)
        # the formed values are each profile's own, formed on its first read
        for profile in profiles:
            assert "_scaled" not in vars(profile) and "monodromies" not in vars(profile)
            assert profile.rho is profile.rho and profile.monodromies is profile.monodromies

    def test_evaluation_takes_one_dimension(self):
        rng = np.random.default_rng(8)
        for lins in ([], [random_metzler_pair(rng, 2), random_metzler_pair(rng, 3)]):
            with pytest.raises(InvalidInputError, match="one dimension"):
                floquet._evaluate(lins, [0.5], floquet.DEFAULT_PERRON_TOL)

    def test_evaluation_raises_the_error_of_a_loop_in_order(self):
        # at a Perron tolerance of 1e-300 `first` fails the residual check;
        # `later`, at a period so short that its monodromy is near I, fails
        # the separation check, which a stack makes for every row first
        rng = np.random.default_rng(9)
        first, between = random_metzler_pair(rng, 2), random_metzler_pair(rng, 2)
        later = random_metzler_pair(rng, 2, period=1e-15)
        messages = []
        for lin in (first, later):
            with pytest.raises(floquet.ConvergenceError) as alone:
                floquet._evaluate(lin, [0.5], 1e-300)
            messages.append(str(alone.value))
        assert "residual" in messages[0] and "separated" in messages[1]
        with pytest.raises(floquet.ConvergenceError) as stacked:
            floquet.rho_profiles([first, between, later], [0.5], 1e-300)
        assert str(stacked.value) == messages[0]


class TestEvaluatorRecord:
    def test_reads_in_log_form_past_double_range(self, insect_linearization):
        # at T = 5000 rho(0) = exp(2500): the record's log-form fields read,
        # rho_profile returns, and the formed values raise where they are
        # read, what rho_profile's rho and monodromy raise
        lin = insect_linearization.with_period(5000.0)
        grid = np.linspace(0.0, 1.0, 11)
        record = floquet._evaluate(lin, grid, floquet.DEFAULT_PERRON_TOL)
        assert isinstance(record, floquet.RhoProfile) and record.lin is lin
        assert record.log_rho[0] == pytest.approx(2500.0) and np.isfinite(record.log_rho).all()
        assert record.v.shape == record.v_star.shape == (11, 2)
        assert record.shifted.shape == (11, 2, 2) and np.isfinite(record.shifted).all()
        assert record.violations() == []
        profile = rho_profile(lin, grid)
        with pytest.raises(InvalidInputError) as alone:
            profile.rho
        with pytest.raises(InvalidInputError) as formed:
            record.rho
        assert str(formed.value) == str(alone.value)
        with pytest.raises(InvalidInputError) as alone:
            monodromy(lin, 0.0)
        with pytest.raises(InvalidInputError) as formed:
            record.monodromies
        assert str(formed.value) == str(alone.value)

    def test_forms_each_value_once(self, insect_linearization):
        grid = np.linspace(0.0, 1.0, 5)
        record = floquet._evaluate(insect_linearization, grid, floquet.DEFAULT_PERRON_TOL, second=True)
        for name in ("log_rho", "rho", "rho_prime", "rho_second", "monodromies"):
            assert getattr(record, name) is getattr(record, name)
        assert profile_bytes(record) == profile_bytes(rho_profile(insect_linearization, grid, second=True))


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

    def test_one_evaluation_with_the_bits_of_one_per_period(self, monkeypatch):
        rng = np.random.default_rng(54)
        lin = random_metzler_pair(rng, 3)
        t_values = [1.0, 2.0, 4.0, 8.0, 16.0]
        alone = [floquet._evaluate(lin.with_period(t), [0.5], floquet.DEFAULT_PERRON_TOL)
                 for t in [*t_values, 1e-6]]
        calls = []
        original = floquet._evaluate

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(floquet, "_evaluate", counted)
        report = timescale_asymptotics(lin, t_values, theta=0.5)
        assert len(calls) == 1 and [one.period_T for one in calls[0]] == [*t_values, 1e-6]
        assert report.corrections.tobytes() == np.array([ev.log_shifted[0] for ev in alone[:-1]]).tobytes()
        assert report.rho_at_t_small == float(np.exp(alone[-1].log_rho[0]))

    def test_with_period_keeps_the_season_shifts(self, insect_linearization, monkeypatch):
        shifts = insect_linearization._shifted_seasons
        fresh = TwoSeasonLinearization(insect_linearization.m1, insect_linearization.m2, 7.0)
        checks = []
        irreducible = floquet.is_irreducible
        monkeypatch.setattr(floquet, "is_irreducible", lambda m: checks.append(m) or irreducible(m))
        copy = insect_linearization.with_period(7.0)
        assert copy.period_T == 7.0 and copy._shifted_seasons is shifts
        # only the period is checked, and the seasons keep a fresh copy's bits
        assert checks == []
        for name in ("m1", "m2"):
            ours, theirs = getattr(copy, name), getattr(fresh, name)
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()
        assert type(copy.period_T) is type(fresh.period_T)
        with pytest.raises(InvalidInputError):
            insect_linearization.with_period(0.0)
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(InvalidInputError) as made:
                TwoSeasonLinearization(insect_linearization.m1, insect_linearization.m2, bad)
            with pytest.raises(InvalidInputError) as copied:
                insect_linearization.with_period(bad)
            assert str(copied.value) == str(made.value)


def season_pair_alone(m):
    """One season's Perron pair from a one-matrix call, on m shifted to a
    primitive nonnegative matrix."""
    return perron_pair(m - (m.diagonal().min() - 1.0) * np.eye(len(m)))


def season_cases():
    rng = np.random.default_rng(800)
    for name in BUNDLED:
        yield bundled_linearization(name)
    for n in (2, 3, 4, 6, 8):
        for _ in range(4):
            yield random_metzler_pair(rng, n)


class TestSeasonVectors:
    """Both seasons' Perron vectors come from one stacked perron_pair call,
    each row with the bits of its season's own call."""

    def test_rows_equal_one_matrix_calls(self):
        for lin in season_cases():
            v, v_star = floquet.season_vectors(lin)
            assert v.shape == v_star.shape == (2, lin.dimension)
            for k, m in enumerate((lin.m1, lin.m2)):
                alone = season_pair_alone(m)
                assert np.array_equal(v[k], alone.v)
                assert np.array_equal(v_star[k], alone.v_star)

    def test_probe_and_limit_read_the_one_matrix_pairs(self):
        for lin in season_cases():
            p1, p2 = map(season_pair_alone, (lin.m1, lin.m2))
            mu1 = float((lin.m1 @ p1.v) @ p1.v_star)
            mu2 = float((lin.m2 @ p2.v) @ p2.v_star)
            product = (mu2 - float((lin.m1 @ p2.v) @ p2.v_star)) * (
                float((lin.m2 @ p1.v) @ p1.v_star) - mu1
            )
            report = log_convexity_probe(lin, np.linspace(0.0, 1.0, 5))
            assert (report.mu1, report.mu2, report.endpoint_slope_product) == (mu1, mu2, product)
            limit = float(np.log((p2.v_star @ p1.v) * (p1.v_star @ p2.v)))
            assert timescale_asymptotics(lin, [1.0], theta=0.5).limit_correction == limit


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
