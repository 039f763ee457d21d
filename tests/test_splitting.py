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

    @pytest.mark.parametrize("method", ["grid", "descent"])
    @pytest.mark.parametrize(
        "name, value",
        [
            ("resolution", 0),
            ("resolution", -1),
            ("resolution", 2.5),
            ("resolution", True),
            ("k", 2.5),
            ("k", True),
            ("restarts", 2.5),
            ("restarts", False),
        ],
    )
    def test_counts_must_be_positive_ints(self, method, name, value):
        counts = {"k": 2, "resolution": 4, "restarts": 2, name: value}
        with pytest.raises(InvalidInputError):
            optimize_split(SHARED_M1, SHARED_M2, 0.4, method=method, **counts)

    def test_numpy_int_counts_are_ints(self):
        got = optimize_split(SHARED_M1, SHARED_M2, 0.4, np.int64(2), resolution=np.int64(4))
        assert got == optimize_split(SHARED_M1, SHARED_M2, 0.4, 2, resolution=4)

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
    """The number of matrices in each mat_exp call, a stack counted by its size."""
    calls = []
    original = linalg.mat_exp

    def counted(a, *args, **kwargs):
        calls.append(len(linalg.as_matrix_stack(a)))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "mat_exp", counted)
    return calls


def _record_exp_products(monkeypatch):
    """Every durations row splitting hands exp_products, in call order."""
    rows = []
    original = splitting.exp_products

    def recorded(seasons, durations, table):
        rows.extend(tuple(row) for row in durations)
        return original(seasons, durations, table)

    monkeypatch.setattr(splitting, "exp_products", recorded)
    return rows


def _sequential_product(m1, m2, schedule):
    """The 2K-factor product one 2-D mat_exp and one matmul at a time, first
    block rightmost and zero-length blocks skipped."""
    result = np.eye(len(m1))
    for frac_u, frac_f in zip(schedule.sigma, schedule.sigma_prime):
        for season, duration in ((m1, frac_u), (m2, frac_f)):
            if duration != 0.0:
                result = mat_exp(duration * season) @ result
    return result


class TestExpProducts:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stacked_products_match_one_schedule_products(self, n):
        rng = np.random.default_rng(70 + n)
        m1 = random_metzler(rng, n)
        m2 = random_metzler(rng, n)
        cells = list(_grid_cells(0.2, 3, 6))
        # the grid holds zero fractions and drift-corrected last fractions
        assert any(0.0 in cell.sigma + cell.sigma_prime for cell in cells)
        plain = {0.8 * c / 6 for c in range(7)}
        assert any(cell.sigma_prime[-1] not in plain for cell in cells)
        rows = [[d for pair in zip(c.sigma, c.sigma_prime) for d in pair] for c in cells]
        stacked = linalg.exp_products((m1, m2), rows, {})
        assert stacked.shape == (len(cells), n, n)
        for cell, product in zip(cells, stacked):
            single = split_monodromy(m1, m2, cell)
            assert product.tobytes() == single.tobytes()
            assert np.array_equal(single, _sequential_product(m1, m2, cell))

    def test_shared_table_computes_each_block_once(self, monkeypatch):
        rng = np.random.default_rng(79)
        m1 = random_metzler(rng, 3)
        m2 = random_metzler(rng, 3)
        rows = [[0.1, 0.2, 0.3, 0.4], [0.3, 0.2, 0.1, 0.4], [0.0, 0.5, 0.1, 0.4]]
        fresh = linalg.exp_products((m1, m2), rows, {})
        calls = _count_mat_exp(monkeypatch)
        table = {}
        first = linalg.exp_products((m1, m2), rows[:2], table)
        second = linalg.exp_products((m1, m2), rows, table)
        # (0, 0.1), (1, 0.2), (0, 0.3), (1, 0.4), then (0, 0.0) and (1, 0.5)
        assert calls == [4, 2]
        assert len(table) == 6
        assert first.tobytes() == fresh[:2].tobytes()
        assert second.tobytes() == fresh.tobytes()


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
        # the benchmark deck's descent shape: resolution 1, K = 6, n = 2
        rng = np.random.default_rng(61)
        m1 = random_metzler(rng, 2)
        m2 = random_metzler(rng, 2)
        pinned = {"max": 34.40551006208197, "min": 34.39617145092973}
        for mode, value in pinned.items():
            _, got = optimize_split(m1, m2, 0.37, 6, mode=mode, resolution=1, method="descent", seed=3)
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
        }
        # 21 fractions a season (zero among them), plus one key for each
        # drift-corrected last fraction that differs from them (two at
        # theta = 0.2); at most one stacked call for each of the 21 rows
        assert sum(calls) == len(keys)
        assert len(calls) <= 21
        if theta == 0.2:
            assert sum(calls) <= 2 * 21 + 2

    def test_descent_exponentiates_each_visited_block_once(self, monkeypatch):
        rng = np.random.default_rng(43)
        m1 = random_metzler(rng, 3)
        m2 = random_metzler(rng, 3)
        calls = _count_mat_exp(monkeypatch)
        products = _record_exp_products(monkeypatch)
        optimize_split(m1, m2, 0.4, 5, resolution=3, method="descent", restarts=3, seed=7)
        keys = {(index % 2, d) for row in products for index, d in enumerate(row)}
        assert sum(calls) == len(keys)
        assert sum(calls) < len(products)

    @pytest.mark.parametrize("k", [5, 6])
    def test_descent_scores_each_distinct_schedule_once(self, k, monkeypatch):
        rng = np.random.default_rng(53)
        m1 = random_metzler(rng, 3)
        m2 = random_metzler(rng, 3)
        schedules = _record_exp_products(monkeypatch)
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
