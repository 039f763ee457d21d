import itertools
import math

import numpy as np
import pytest

from seasonthresh import linalg, splitting
from seasonthresh import (
    TwoSeasonLinearization,
    find_threshold,
    gelfand_bound_probe,
    monodromy,
    optimize_split,
    shared_eigenvector_threshold,
    split_monodromy,
)
from seasonthresh.errors import InvalidInputError
from seasonthresh.linalg import mat_exp, spectral_abscissa, spectral_radius
from seasonthresh.splitting import SplitSchedule, random_schedule, single_block

from conftest import random_metzler

K = np.array([[0.0, 1.0], [1.0, 0.0]])
SHARED_M1 = K - 2.0 * np.eye(2)  # mu = -1
SHARED_M2 = K + 1.0 * np.eye(2)  # mu = 2


class TestSplitSchedule:
    def test_membership_sums(self):
        schedule = SplitSchedule(sigma=(0.1, 0.2), sigma_prime=(0.3, 0.4))
        assert schedule.theta == pytest.approx(0.3, abs=1e-15)
        assert schedule.k == 2

    def test_total_must_be_one(self):
        with pytest.raises(InvalidInputError):
            SplitSchedule(sigma=(0.5,), sigma_prime=(0.6,))

    def test_fractions_in_unit_interval(self):
        with pytest.raises(InvalidInputError):
            SplitSchedule(sigma=(-0.1, 0.5), sigma_prime=(0.3, 0.3))

    def test_random_schedules_members(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            theta = float(rng.uniform(0.0, 1.0))
            schedule = random_schedule(theta, k, rng)
            assert abs(schedule.theta - theta) <= 1e-12
            total = sum(schedule.sigma) + sum(schedule.sigma_prime)
            assert abs(total - 1.0) <= 1e-12


class TestSplitMonodromy:
    def test_single_block_matches_two_season_map(self, insect_linearization):
        lin = insect_linearization
        t = lin.period_T
        for theta in (0.0, 0.3, 1.0):
            product = split_monodromy(t * lin.m1, t * lin.m2, single_block(theta))
            assert np.allclose(product, monodromy(lin, theta), atol=1e-12)

    def test_commuting_blocks_collapse(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            schedule = random_schedule(0.35, 3, rng)
            product = split_monodromy(SHARED_M1, SHARED_M2, schedule)
            reference = mat_exp(0.65 * SHARED_M2) @ mat_exp(0.35 * SHARED_M1)
            assert np.allclose(product, reference, atol=1e-12)

    def test_noncommuting_split_differs(self):
        rng = np.random.default_rng(11)
        m1 = random_metzler(rng, 2)
        m2 = random_metzler(rng, 2)
        one_block = split_monodromy(m1, m2, single_block(0.5))
        halves = SplitSchedule(sigma=(0.25, 0.25), sigma_prime=(0.25, 0.25))
        two_blocks = split_monodromy(m1, m2, halves)
        assert np.abs(one_block - two_blocks).max() > 0.0


class TestOptimizeSplit:
    def test_shared_eigenvector_pair_is_flat(self):
        theta = 0.4
        expected = math.exp(theta * -1.0 + (1.0 - theta) * 2.0)
        for k in (1, 2, 3):
            best_max, value_max = optimize_split(
                SHARED_M1, SHARED_M2, theta, k, mode="max", resolution=8
            )
            best_min, value_min = optimize_split(
                SHARED_M1, SHARED_M2, theta, k, mode="min", resolution=8
            )
            assert value_max == pytest.approx(expected, rel=1e-11)
            assert value_min == pytest.approx(expected, rel=1e-11)

    def test_single_block_is_the_only_schedule(self, insect_linearization):
        lin = insect_linearization
        theta = 0.3
        schedule, value = optimize_split(lin.m1, lin.m2, theta, 1, resolution=17)
        assert schedule.sigma == (theta,)
        assert value == pytest.approx(
            spectral_radius(split_monodromy(lin.m1, lin.m2, single_block(theta))), rel=1e-12
        )

    def test_noncommuting_pair_has_spread(self):
        rng = np.random.default_rng(13)
        m1 = random_metzler(rng, 2)
        m2 = random_metzler(rng, 2)
        _, vmax = optimize_split(m1, m2, 0.5, 2, mode="max", resolution=50)
        _, vmin = optimize_split(m1, m2, 0.5, 2, mode="min", resolution=50)
        assert vmax - vmin > 1e-6
        single = spectral_radius(split_monodromy(m1, m2, single_block(0.5)))
        assert vmin <= single + 1e-12
        assert single <= vmax + 1e-12

    def test_nesting_in_block_count(self):
        rng = np.random.default_rng(17)
        m1 = random_metzler(rng, 2)
        m2 = random_metzler(rng, 2)
        values = [
            optimize_split(m1, m2, 0.5, k, mode="max", resolution=12)[1] for k in (1, 2, 3)
        ]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    def test_descent_heuristic_not_worse_than_equal_split(self):
        rng = np.random.default_rng(19)
        m1 = random_metzler(rng, 2)
        m2 = random_metzler(rng, 2)
        equal = SplitSchedule(sigma=(0.1,) * 5, sigma_prime=(0.1,) * 5)
        baseline = spectral_radius(split_monodromy(m1, m2, equal))
        schedule, value = optimize_split(
            m1, m2, 0.5, 5, mode="max", resolution=10, method="descent", restarts=3
        )
        assert value >= baseline - 1e-12
        assert abs(sum(schedule.sigma) - 0.5) <= 1e-12

    def test_grid_cell_cap(self):
        with pytest.raises(InvalidInputError):
            optimize_split(SHARED_M1, SHARED_M2, 0.5, 4, resolution=200)

    def test_grid_requires_small_k(self):
        with pytest.raises(InvalidInputError):
            optimize_split(SHARED_M1, SHARED_M2, 0.5, 5, resolution=5)


def _grid_cells(theta, k, resolution):
    """Every grid schedule in scan order, the drift absorbed by the last fraction."""
    weights = sorted(
        w for w in itertools.product(range(resolution + 1), repeat=k) if sum(w) == resolution
    )
    for wu in weights:
        for wf in weights:
            sigma = tuple(theta * c / resolution for c in wu)
            sigma_prime = [(1.0 - theta) * c / resolution for c in wf]
            drift = 1.0 - (sum(sigma) + sum(sigma_prime))
            sigma_prime[-1] = max(0.0, sigma_prime[-1] + drift)
            yield SplitSchedule(sigma=sigma, sigma_prime=tuple(sigma_prime))


def _brute_force_grid(m1, m2, theta, k, mode, resolution):
    """Score every grid cell with split_monodromy; the first strict best wins."""
    sign = 1.0 if mode == "max" else -1.0
    best, best_value = None, -np.inf
    for schedule in _grid_cells(theta, k, resolution):
        value = spectral_radius(split_monodromy(m1, m2, schedule))
        if sign * value > best_value:
            best, best_value = schedule, sign * value
    return best, sign * best_value


def _count_mat_exp(monkeypatch):
    calls = []
    original = linalg.mat_exp

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (linalg, splitting):
        monkeypatch.setattr(module, "mat_exp", counted)
    return calls


class TestSplitDrift:
    @pytest.mark.parametrize("theta", [0.2, 0.65])
    def test_k3_resolution6_fractions_stay_in_unit_interval(self, theta):
        rng = np.random.default_rng(37)
        m1 = random_metzler(rng, 3)
        m2 = random_metzler(rng, 3)
        for mode in ("max", "min"):
            schedule, _ = optimize_split(m1, m2, theta, 3, mode=mode, resolution=6)
            fractions = schedule.sigma + schedule.sigma_prime
            assert all(0.0 <= f <= 1.0 for f in fractions)
            assert abs(sum(schedule.sigma) - theta) <= 1e-12
            assert abs(sum(schedule.sigma_prime) - (1.0 - theta)) <= 1e-12


class TestBlockTable:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_grid_equals_brute_force(self, n, k):
        rng = np.random.default_rng(100 + 10 * n + k)
        m1 = random_metzler(rng, n)
        m2 = random_metzler(rng, n)
        resolution = 6 if k == 3 else 9
        for theta in (0.65, float(rng.uniform(0.05, 0.95))):
            for mode in ("max", "min"):
                got = optimize_split(m1, m2, theta, k, mode=mode, resolution=resolution)
                want = _brute_force_grid(m1, m2, theta, k, mode, resolution)
                assert got == want

    def test_descent_keeps_its_values(self):
        rng = np.random.default_rng(31)
        m1 = random_metzler(rng, 3)
        m2 = random_metzler(rng, 3)
        pinned = {"max": 31.836482593056534, "min": 31.12593834507515}
        for mode, value in pinned.items():
            _, got = optimize_split(
                m1, m2, 0.4, 5, mode=mode, resolution=3, method="descent", restarts=3, seed=7
            )
            assert got == value

    @pytest.mark.parametrize("theta", [0.2, 0.37, 0.65])
    def test_grid_exponentiates_each_block_once(self, theta, monkeypatch):
        rng = np.random.default_rng(41)
        m1 = random_metzler(rng, 3)
        m2 = random_metzler(rng, 3)
        calls = _count_mat_exp(monkeypatch)
        optimize_split(m1, m2, theta, 2, resolution=20)
        keys = {
            (season, d)
            for cell in _grid_cells(theta, 2, 20)
            for season, fractions in enumerate((cell.sigma, cell.sigma_prime))
            for d in fractions
            if d != 0.0
        }
        # 20 nonzero fractions a season, plus one key for each drift-corrected
        # last fraction that differs from them (two at theta = 0.2)
        assert len(calls) == len(keys)
        if theta == 0.2:
            assert len(calls) <= 2 * 21 + 2

    def test_descent_exponentiates_each_visited_block_once(self, monkeypatch):
        rng = np.random.default_rng(43)
        m1 = random_metzler(rng, 3)
        m2 = random_metzler(rng, 3)
        calls = _count_mat_exp(monkeypatch)
        keys = set()
        products = []
        original = splitting.exp_product

        def recorded(blocks, exp=None):
            blocks = list(blocks)
            keys.update((m.tobytes(), d) for m, d in blocks if d != 0.0)
            products.append(1)
            return original(blocks, exp)

        monkeypatch.setattr(splitting, "exp_product", recorded)
        optimize_split(m1, m2, 0.4, 5, resolution=3, method="descent", restarts=3, seed=7)
        assert len(calls) == len(keys)
        assert len(calls) < len(products)

    @pytest.mark.parametrize("k", [5, 6])
    def test_descent_scores_each_distinct_schedule_once(self, k, monkeypatch):
        rng = np.random.default_rng(53)
        m1 = random_metzler(rng, 3)
        m2 = random_metzler(rng, 3)
        schedules = []
        original = splitting._schedule_product

        def recorded(a, b, sigma, sigma_prime, exp=None):
            schedules.append((tuple(sigma), tuple(sigma_prime)))
            return original(a, b, sigma, sigma_prime, exp)

        monkeypatch.setattr(splitting, "_schedule_product", recorded)
        optimize_split(m1, m2, 0.37, k, resolution=1, method="descent")
        assert len(schedules) == len(set(schedules))


class TestGelfandProbe:
    def test_commuting_pair_equality(self):
        rng = np.random.default_rng(23)
        schedules = [random_schedule(float(rng.uniform(0.1, 0.9)), int(rng.integers(1, 4)), rng)
                     for _ in range(20)]
        report = gelfand_bound_probe(SHARED_M1, SHARED_M2, schedules)
        assert report.violation_count == 0
        assert np.abs(report.rho_values - report.bounds).max() <= 1e-10

    def test_violations_are_collected_not_hidden(self):
        rng = np.random.default_rng(29)
        found = 0
        for _ in range(100):
            m1 = random_metzler(rng, 2)
            m2 = random_metzler(rng, 2)
            schedule = random_schedule(0.5, 1, rng)
            report = gelfand_bound_probe(m1, m2, [schedule])
            found += report.violation_count
            for _, value, bound in report.violations:
                assert value > bound + 1e-9
        # the bound genuinely fails for generic pairs; the probe must say so
        assert found > 0


class TestSharedEigenvectorThreshold:
    def test_ratio_examples(self):
        assert shared_eigenvector_threshold(-1.0, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert shared_eigenvector_threshold(-1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_sign_preconditions(self):
        with pytest.raises(InvalidInputError):
            shared_eigenvector_threshold(1.0, 2.0)
        with pytest.raises(InvalidInputError):
            shared_eigenvector_threshold(-1.0, -0.5)

    def test_matches_bisection_on_shared_pair(self):
        lin = TwoSeasonLinearization(SHARED_M1, SHARED_M2, 1.0)
        closed = shared_eigenvector_threshold(
            spectral_abscissa(SHARED_M1), spectral_abscissa(SHARED_M2)
        )
        report = find_threshold(lin, tol=1e-10)
        assert abs(report.theta_star - closed) <= 1e-9
