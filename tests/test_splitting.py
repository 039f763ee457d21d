import collections
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

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

from conftest import random_metzler, reference_schedule

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

    @pytest.mark.parametrize("k", range(1, 7))
    def test_random_schedule_matches_sort_and_diff_reference(self, k):
        # the cuts sorted and differenced on floats: the same bits and draws
        for seed in range(50):
            drawn, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for theta in (0.05, 0.4, float(np.random.default_rng(seed).uniform(0.0, 1.0)), 0.95):
                schedule = random_schedule(theta, k, drawn)
                expected = reference_schedule(theta, k, reference)
                assert schedule.sigma == expected.sigma
                assert schedule.sigma_prime == expected.sigma_prime
                assert all(type(v) is float for v in schedule.sigma + schedule.sigma_prime)
            assert drawn.bit_generator.state == reference.bit_generator.state


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
            ("restarts", 0),
            ("restarts", -1),
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

    def test_descent_takes_signed_zero_theta(self):
        # numpy's uniform refused the range [0.0, -0.0] of the random starts
        # with an untyped ValueError; -0.0 now draws the starts of 0.0
        rng = np.random.default_rng(29)
        m1, m2 = random_metzler(rng, 2), random_metzler(rng, 2)
        got = optimize_split(m1, m2, -0.0, 5, method="descent", restarts=3)
        positive = optimize_split(m1, m2, 0.0, 5, method="descent", restarts=3)
        assert got[1] == positive[1]
        assert all(f == 0.0 for f in got[0].sigma)
        assert got[0].sigma_prime == positive[0].sigma_prime

    def test_random_schedule_of_signed_zero_draws_as_zero(self):
        got = random_schedule(-0.0, 4, np.random.default_rng(3))
        assert got == random_schedule(0.0, 4, np.random.default_rng(3))

    def test_overflowing_product_is_typed_error_without_warning(self):
        # each of the starts' favorable blocks is ~exp(200), their product
        # ~exp(1000); the product used to warn "overflow encountered in matmul"
        m2 = np.full((2, 2), 1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="matrix has non-finite entries"):
                optimize_split(-np.eye(2), m2, 0.5, 5, method="descent", restarts=3)


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


def _record_stacks(monkeypatch):
    """The number of schedules in each exp_products call splitting makes."""
    sizes = []
    original = splitting.exp_products

    def recorded(seasons, durations, table):
        sizes.append(len(durations))
        return original(seasons, durations, table)

    monkeypatch.setattr(splitting, "exp_products", recorded)
    return sizes


def _sequential_descent(m1, m2, theta, k, mode, resolution, restarts, seed):
    """Descent's starts polished one at a time, each schedule's product
    formed alone: (schedule, sign * rho, passes) of each start in seed order."""
    sign = 1.0 if mode == "max" else -1.0
    rng = np.random.default_rng(seed)
    scores, table = {}, {}

    def score(schedule):
        if schedule not in scores:
            product = linalg.exp_products((m1, m2), [schedule.blocks], table)[0]
            scores[schedule] = sign * spectral_radius(product)
        return scores[schedule]

    def polish(schedule):
        current, value, passes = schedule, score(schedule), 0
        improved = True
        while improved:
            improved, passes = False, passes + 1
            for which in ("sigma", "sigma_prime"):
                for i in range(k):
                    for j in range(i + 1, k):
                        parts = getattr(current, which)
                        budget = parts[i] + parts[j]
                        candidates = []
                        for frac in np.linspace(0.0, 1.0, resolution + 1):
                            trial = list(parts)
                            trial[i] = budget * frac
                            trial[j] = budget * (1.0 - frac)
                            candidates.append(replace(current, **{which: tuple(trial)}))
                        for candidate in candidates:
                            v = score(candidate)
                            if v > value + 1e-14:
                                current, value, improved = candidate, v, True
        return current, value, passes

    seeds = [SplitSchedule(sigma=(theta / k,) * k, sigma_prime=((1.0 - theta) / k,) * k)]
    seeds += [random_schedule(theta, k, rng) for _ in range(restarts - 1)]
    return [polish(start) for start in seeds]


def _lockstep_descent(m1, m2, theta, k, mode, resolution, restarts, seed):
    """Descent as it was before its sweep turned speculative, kept as the
    reference its results and errors are held to: all starts are polished in
    lockstep, each sweep position's candidates of every live start one stack,
    every candidate built as a tuple pair and checked where it is made."""
    seasons = splitting._season_pair(m1, m2)
    table = {}
    sign = 1.0 if mode == "max" else -1.0
    rng = np.random.default_rng(seed)
    scores = {}  # each pair sweep revisits the schedule it starts from

    def score(keys) -> list:
        """sign * rho of each (sigma, sigma_prime); the ones not yet scored are one stack."""
        new = list(dict.fromkeys(key for key in keys if key not in scores))
        if new:
            products = linalg.exp_products(seasons, [splitting._blocks(*key) for key in new], table)
            scores.update(zip(new, (sign * linalg.spectral_radii(products)).tolist()))
        return [scores[key] for key in keys]

    def moves(key, which, i, j) -> list:
        """(sigma, sigma_prime) with fractions i and j of part `which` (0 for
        sigma, 1 for sigma_prime) re-split at each of fracs, each checked as
        SplitSchedule checks it, so a drifting total raises where it arises."""
        parts = key[which]
        budget = parts[i] + parts[j]
        out = []
        for frac in fracs:
            trial = list(parts)
            trial[i] = budget * frac
            trial[j] = budget * (1.0 - frac)
            candidate = (tuple(trial), key[1]) if which == 0 else (key[0], tuple(trial))
            splitting._check_fractions(*candidate)
            out.append(candidate)
        return out

    fracs = np.linspace(0.0, 1.0, resolution + 1).tolist()
    width = len(fracs)
    starts = [
        SplitSchedule(
            sigma=tuple(theta / k for _ in range(k)),
            sigma_prime=tuple((1.0 - theta) / k for _ in range(k)),
        )
    ]
    starts += [random_schedule(theta, k, rng) for _ in range(restarts - 1)]
    current = [(s.sigma, s.sigma_prime) for s in starts]
    values = score(current)
    # the starts are polished in lockstep, each by its own moves: a start
    # stays live until a full pass improves nothing
    live = range(len(current))
    while live:
        improved = set()
        for which in (0, 1):
            for i in range(k):
                for j in range(i + 1, k):
                    # an improvement moves only fractions i and j, which every
                    # candidate sets itself: the sweep is fixed up front
                    groups = [moves(current[s], which, i, j) for s in live]
                    scored = score([c for group in groups for c in group])
                    for at, (s, group) in enumerate(zip(live, groups)):
                        for candidate, v in zip(group, scored[at * width:(at + 1) * width]):
                            if v > values[s] + 1e-14:
                                current[s], values[s] = candidate, v
                                improved.add(s)
        live = sorted(improved)
    best, best_value = None, -np.inf
    for start, value in zip(current, values):
        if value > best_value:
            best, best_value = start, value
    return SplitSchedule(*best), sign * best_value


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

    def test_array_durations_match_row_lists(self, monkeypatch):
        rng = np.random.default_rng(83)
        m1 = random_metzler(rng, 3)
        m2 = random_metzler(rng, 3)
        # column 0 holds 0.0 and -0.0; 0.25 is a duration of both seasons
        rows = [
            [0.0, 0.25, 0.25, 0.5],
            [-0.0, 0.25, 0.5, 0.25],
            [0.25, 0.0, -0.0, 0.75],
            [0.5, 0.25, 0.0, 0.25],
        ]
        lists = linalg.exp_products((m1, m2), rows, {})
        table = {}
        stacked = linalg.exp_products((m1, m2), np.array(rows), table)
        assert stacked.tobytes() == lists.tobytes()
        for row, product in zip(rows, stacked):
            schedule = SplitSchedule(sigma=row[0::2], sigma_prime=row[1::2])
            assert product.tobytes() == split_monodromy(m1, m2, schedule).tobytes()
            assert np.array_equal(product, _sequential_product(m1, m2, schedule))
        # a duration shared by the seasons is two keys with two exponentials,
        # and 0.0 and -0.0 are one key a season, both the identity
        assert table[(0, 0.25)].tobytes() == mat_exp(0.25 * m1).tobytes()
        assert table[(1, 0.25)].tobytes() == mat_exp(0.25 * m2).tobytes()
        assert not np.array_equal(table[(0, 0.25)], table[(1, 0.25)])
        assert sorted(table) == [(0, 0.0), (0, 0.25), (0, 0.5),
                                 (1, 0.0), (1, 0.25), (1, 0.5), (1, 0.75)]
        for s, m in enumerate((m1, m2)):
            assert table[(s, 0.0)].tobytes() == np.eye(3).tobytes()
            assert mat_exp(-0.0 * m).tobytes() == np.eye(3).tobytes()
        # a pre-filled table is read, not recomputed or replaced
        prefilled = {(0, 0.25): table[(0, 0.25)], (1, 0.0): table[(1, 0.0)]}
        kept = dict(prefilled)
        calls = _count_mat_exp(monkeypatch)
        again = linalg.exp_products((m1, m2), np.array(rows), prefilled)
        assert again.tobytes() == lists.tobytes()
        assert calls == [5]
        assert all(prefilled[key] is value for key, value in kept.items())

    @pytest.mark.parametrize("form", [list, np.array])
    def test_nan_duration_raises_the_non_finite_error(self, form):
        rng = np.random.default_rng(89)
        m1 = random_metzler(rng, 2)
        m2 = random_metzler(rng, 2)
        table = {(0, 0.5): mat_exp(0.5 * m1)}
        rows = [[0.5, 0.25, 0.0, 0.25], [0.5, float("nan"), 0.0, 0.5]]
        with pytest.raises(InvalidInputError, match="matrix has non-finite entries"):
            linalg.exp_products((m1, m2), form(rows), table)
        assert list(table) == [(0, 0.5)]


class TestGridDurations:
    """The durations rows the grid hands exp_products, stack by stack, against
    the one-cell-at-a-time reference, with the products and their radii
    stubbed out: only the rows are under test here."""

    @staticmethod
    def _check_rows(monkeypatch, theta, k, resolution, every=1):
        """Run the grid with each row at a multiple of `every` (and each
        stack's last row) compared by repr with the reference cell; the stack
        sizes. Every row is compared in turn with _grid_cells; a sample of a
        grid too large to walk, with _sampled_cell."""
        reference = _grid_cells(theta, k, resolution)
        weights = sorted(
            w for w in itertools.product(range(resolution + 1), repeat=k) if sum(w) == resolution
        )
        sizes = []

        def recorded(seasons, durations, table):
            start = sum(sizes)
            sizes.append(len(durations))
            assert isinstance(durations, np.ndarray) and durations.shape == (len(durations), 2 * k)
            if every == 1:
                cells = enumerate(itertools.islice(reference, len(durations)))
            else:
                picked = sorted({*range(-start % every, len(durations), every), len(durations) - 1})
                cells = ((i, TestGridDurations._sampled_cell(theta, resolution, weights, start + i))
                         for i in picked)
            for i, cell in cells:
                assert [repr(d) for d in durations[i].tolist()] == [repr(d) for d in cell.blocks]
            return np.zeros((len(durations),) + seasons[0].shape)

        monkeypatch.setattr(splitting, "exp_products", recorded)
        monkeypatch.setattr(splitting, "spectral_radii", lambda stack: np.zeros(len(stack)))
        optimize_split(SHARED_M1, SHARED_M2, theta, k, resolution=resolution)
        assert sum(sizes) == len(weights) ** 2
        if every == 1:
            assert next(reference, None) is None
        return sizes

    @staticmethod
    def _sampled_cell(theta, resolution, weights, cell):
        """The grid cell of row-major number `cell`, built as _grid_cells
        builds it."""
        wu, wf = (weights[i] for i in divmod(cell, len(weights)))
        sigma = tuple(theta * c / resolution for c in wu)
        sigma_prime = [(1.0 - theta) * c / resolution for c in wf]
        drift = 1.0 - (sum(sigma) + sum(sigma_prime))
        sigma_prime[-1] = max(0.0, sigma_prime[-1] + drift)
        return SplitSchedule(sigma=sigma, sigma_prime=tuple(sigma_prime))

    @pytest.mark.parametrize("resolution", [6, 9, 20])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("theta", [0.2, 0.37, 0.65])
    def test_rows_equal_reference_cells(self, theta, k, resolution, monkeypatch):
        # the 3.1M cells of K = 4 at resolution 20 are checked at every
        # 997th row: the reference takes ~10 us a cell
        every = 997 if (k, resolution) == (4, 20) else 1
        self._check_rows(monkeypatch, theta, k, resolution, every)

    @pytest.mark.parametrize("theta", [-0.0, 1.0])
    def test_signed_zero_and_end_thetas(self, theta, monkeypatch):
        # theta = -0.0 makes every unfavorable fraction -0.0 in the reference
        self._check_rows(monkeypatch, theta, 3, 6)

    def test_stack_size_bound(self, monkeypatch):
        monkeypatch.setattr(linalg, "_STACK_ENTRIES", 64)
        sizes = self._check_rows(monkeypatch, 0.37, 3, 6)
        assert sizes == [16] * 49  # 784 cells, 64 // 2^2 rows a stack

    def test_grid_holds_one_stack_of_durations(self, monkeypatch):
        # K = 4 at resolution 20 is 3.1M cells, whose durations would take
        # 200 MB at once; a stack of them is 4096 rows at n = 2
        tracemalloc.start()
        try:
            sizes = self._check_rows(monkeypatch, 0.37, 4, 20, every=50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(sizes) == 4096
        assert peak < 8 * 2**20


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

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k, resolution", [(2, 9), (3, 5)])
    def test_grid_in_several_stacks_equals_brute_force(self, n, k, resolution, monkeypatch):
        monkeypatch.setattr(linalg, "_STACK_ENTRIES", 64)
        bound = 64 // n**2
        cells = math.comb(resolution + k - 1, k - 1) ** 2
        rng = np.random.default_rng(300 + 10 * n + k)
        pairs = [(random_metzler(rng, n), random_metzler(rng, n))]
        if n == 2:
            # commuting seasons: every cell ties up to rounding, and the
            # first row-major maximum must win
            pairs.append((SHARED_M1, SHARED_M2))
        sizes = _record_stacks(monkeypatch)
        for m1, m2 in pairs:
            for theta, mode in itertools.product((0.2, 0.65), ("max", "min")):
                want = _brute_force_grid(m1, m2, theta, k, mode, resolution)
                sizes.clear()
                assert optimize_split(m1, m2, theta, k, mode=mode, resolution=resolution) == want
                assert sum(sizes) == cells
                assert len(sizes) == -(-cells // bound) > 1
                assert max(sizes) <= bound

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

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 5, 6])
    def test_lockstep_descent_equals_sequential_descent(self, n, k, monkeypatch):
        rng = np.random.default_rng(200 + 10 * n + k)
        m1 = random_metzler(rng, n)
        m2 = random_metzler(rng, n)
        theta = float(rng.uniform(0.1, 0.9))
        sizes = _record_stacks(monkeypatch)
        positions = k * (k - 1)  # (which, i, j) in one pass
        for resolution, mode in itertools.product((1, 3), ("max", "min")):
            # the starts of fewer restarts are a prefix of these
            polished = _sequential_descent(m1, m2, theta, k, mode, resolution, 8, seed=5)
            sign = 1.0 if mode == "max" else -1.0
            for restarts in (1, 3, 8):
                want, want_value = None, -np.inf
                for schedule, v, _ in polished[:restarts]:
                    if v > want_value:  # the first best start in seed order
                        want, want_value = schedule, v
                sizes.clear()
                got, value = optimize_split(
                    m1, m2, theta, k, mode=mode, resolution=resolution, method="descent",
                    restarts=restarts, seed=5,
                )
                assert got == want
                assert value == sign * want_value
                # the starts' stack, then at most one stack per sweep position,
                # however many starts are still live there
                passes = max(count for _, _, count in polished[:restarts])
                assert len(sizes) <= 1 + positions * passes

    @pytest.mark.parametrize("k", [5, 6])
    def test_descent_scores_each_distinct_schedule_once(self, k, monkeypatch):
        rng = np.random.default_rng(53)
        m1 = random_metzler(rng, 3)
        m2 = random_metzler(rng, 3)
        schedules = _record_exp_products(monkeypatch)
        optimize_split(m1, m2, 0.37, k, resolution=1, method="descent")
        assert len(schedules) == len(set(schedules))

    @pytest.mark.parametrize("k, resolution", [(2, 3), (3, 3), (5, 3)])
    def test_descent_drift_guard_fires_at_the_schedule_check(self, k, resolution, monkeypatch):
        # with no slack on the total, a re-split whose parts do not add back to
        # their budget exactly is refused where it is made, with the error
        # SplitSchedule raises for it; one start walks the sweep in the order
        # of the one-start reference, which builds every candidate as a
        # SplitSchedule, so both raise for the same candidate
        monkeypatch.setattr(splitting, "_MEMBERSHIP_TOL", 0.0)
        fired = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m1, m2 = random_metzler(rng, 2), random_metzler(rng, 2)
            theta = float(rng.uniform(0.1, 0.9))
            outcomes = []
            for run in (optimize_split, _sequential_descent):
                kwargs = {"method": "descent"} if run is optimize_split else {}
                try:
                    result = run(m1, m2, theta, k, "max", resolution, restarts=1, seed=seed, **kwargs)
                    outcomes.append(result if run is optimize_split else result[0][:2])
                except InvalidInputError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            try:  # the first start, before any move
                SplitSchedule(sigma=(theta / k,) * k, sigma_prime=((1.0 - theta) / k,) * k)
            except InvalidInputError:
                continue
            fired += isinstance(outcomes[0], str) and "must total 1" in outcomes[0]
        assert fired  # in a move, not at the start


def _outcome(run, *args, **kwargs) -> str:
    """repr of a run's (schedule, value), or its error's type and message."""
    try:
        return repr(run(*args, **kwargs))
    except ValueError as exc:  # InvalidInputError, and numpy's own
        return f"{type(exc).__name__}: {exc}"


class TestSpeculativeDescent:
    """Descent scores each start's remaining sweep ahead in one stack; every
    result and every error must be the lockstep reference's."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 5, 6])
    def test_equals_lockstep_reference(self, n, k):
        rng = np.random.default_rng(400 + 10 * n + k)
        m1 = random_metzler(rng, n)
        m2 = random_metzler(rng, n)
        # -0.0 gives -0.0 equal-split starts and random starts drawn as at
        # 0.0; 1.0 leaves sigma_prime all zero
        for theta in (-0.0, 1.0, float(rng.uniform(0.1, 0.9))):
            settings = itertools.product((1, 3, 10), (1, 3, 8))
            for at, (resolution, restarts) in enumerate(settings):
                mode = ("max", "min")[at % 2]
                got = _outcome(
                    optimize_split, m1, m2, theta, k, mode=mode, resolution=resolution,
                    method="descent", restarts=restarts, seed=5,
                )
                assert got == _outcome(_lockstep_descent, m1, m2, theta, k, mode, resolution, restarts, 5)

    def test_check_errors_equal_lockstep_reference(self, monkeypatch):
        # with no slack on the total most re-splits are refused; the error
        # raised is the one the lockstep sweep meets first, in (pass,
        # position, start, frac) order, though the starts walk apart
        monkeypatch.setattr(splitting, "_MEMBERSHIP_TOL", 0.0)
        raised = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, k = int(rng.integers(2, 5)), int(rng.choice([2, 3, 5, 6]))
            m1, m2 = random_metzler(rng, n), random_metzler(rng, n)
            theta = float(rng.uniform(0.1, 0.9))
            resolution, restarts = int(rng.choice([1, 3, 10])), int(rng.choice([3, 8]))
            mode = ("max", "min")[seed % 2]
            got = _outcome(
                optimize_split, m1, m2, theta, k, mode=mode, resolution=resolution,
                method="descent", restarts=restarts, seed=seed,
            )
            assert got == _outcome(_lockstep_descent, m1, m2, theta, k, mode, resolution, restarts, seed)
            raised += "must total 1" in got
        assert raised >= 10

    def test_score_errors_raise_where_the_lockstep_sweep_raises(self, monkeypatch):
        # a stand-in exp_products refuses the stacks holding chosen rows, as
        # mat_exp refuses an overflowing block, or makes their products
        # infinite, which spectral_radii refuses. Rows only the speculative
        # sweep scores must not raise; rows both sweeps reach raise the
        # error the lockstep sweep meets first. With no slack on the total,
        # check errors mix in, which a lockstep position raises before it
        # scores anything
        exp_products = linalg.exp_products
        poison, seen = {}, []

        def poisoned(seasons, durations, table):
            rows = [tuple(row) for row in np.asarray(durations).tolist()]
            seen.extend(rows)
            if any(poison.get(row) == 0 for row in rows):
                raise InvalidInputError("matrix exponential overflowed double precision")
            products = exp_products(seasons, durations, table)
            products[[poison.get(row) == 1 for row in rows]] = np.inf
            return products

        monkeypatch.setattr(linalg, "exp_products", poisoned)
        monkeypatch.setattr(splitting, "exp_products", poisoned)
        outcomes = collections.Counter()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, k = int(rng.integers(2, 5)), int(rng.choice([3, 5]))
            m1, m2 = random_metzler(rng, n), random_metzler(rng, n)
            theta = float(rng.uniform(0.1, 0.9))
            resolution, restarts = int(rng.choice([1, 3])), int(rng.choice([3, 8]))
            mode = ("max", "min")[seed % 2]
            args = (m1, m2, theta, k, mode, resolution, restarts, seed)
            kwargs = {"mode": mode, "resolution": resolution, "method": "descent",
                      "restarts": restarts, "seed": seed}
            monkeypatch.setattr(splitting, "_MEMBERSHIP_TOL", 0.0 if seed % 3 == 0 else 1e-12)
            poison.clear()
            seen.clear()
            want = _outcome(_lockstep_descent, *args)
            reached = list(dict.fromkeys(seen))
            seen.clear()
            assert _outcome(optimize_split, m1, m2, theta, k, **kwargs) == want
            # every row scored ahead and never reached refused: no change
            poison.update((row, int(rng.integers(2))) for row in set(seen) - set(reached))
            assert _outcome(optimize_split, m1, m2, theta, k, **kwargs) == want
            outcomes["ahead", bool(poison)] += 1
            # one in twenty reached rows refused too, each at one of the two
            # stages, so that starts walking apart meet them out of order
            for at in rng.choice(len(reached), size=-(-len(reached) // 20), replace=False):
                poison[reached[at]] = int(rng.integers(2))
            want = _outcome(_lockstep_descent, *args)
            assert _outcome(optimize_split, m1, m2, theta, k, **kwargs) == want
            outcomes[want.split(":")[0], want.split(":")[1][:16]] += 1
        assert outcomes["ahead", True] >= 10
        assert outcomes["InvalidInputError", " matrix exponent"] >= 3
        assert outcomes["InvalidInputError", " matrix has non-"] >= 3
        assert outcomes["InvalidInputError", " schedule fracti"] >= 3

    def test_a_check_error_comes_before_a_score_error_at_one_position(self, monkeypatch):
        # the lockstep sweep checks every start's candidates at a position
        # before it scores any of them: where the equal split's re-split
        # first drifts, its error is raised although the random start's
        # candidates there are refused. The seasons commute, so no start moves
        monkeypatch.setattr(splitting, "_MEMBERSHIP_TOL", 0.0)
        k, theta = 4, 0.3
        positions = [(which, i, j) for which in (0, 1) for i, j in itertools.combinations(range(k), 2)]

        def moves(schedule, position):
            which, i, j = position
            parts = [schedule.sigma, schedule.sigma_prime]
            budget = parts[which][i] + parts[which][j]
            for frac in (0.0, 1.0):
                trial = list(parts[which])
                trial[i], trial[j] = budget * frac, budget * (1.0 - frac)
                candidate = list(parts)
                candidate[which] = tuple(trial)
                yield tuple(candidate)

        def drifts(candidate):
            try:
                splitting._check_fractions(*candidate)
            except InvalidInputError:
                return True
            return False

        exp_products, poison = linalg.exp_products, set()

        def poisoned(seasons, durations, table):
            if poison & {tuple(row) for row in np.asarray(durations).tolist()}:
                raise InvalidInputError("matrix exponential overflowed double precision")
            return exp_products(seasons, durations, table)

        monkeypatch.setattr(linalg, "exp_products", poisoned)
        monkeypatch.setattr(splitting, "exp_products", poisoned)
        first = SplitSchedule(sigma=(theta / k,) * k, sigma_prime=((1.0 - theta) / k,) * k)
        checked = 0
        for seed in range(40):
            try:
                second = random_schedule(theta, k, np.random.default_rng(seed))
            except InvalidInputError:  # drifts as it is drawn
                continue
            at = next(p for p in positions if any(map(drifts, moves(first, p))))
            poison = {tuple(splitting._blocks(*candidate)) for candidate in moves(second, at)}
            want = _outcome(_lockstep_descent, SHARED_M1, SHARED_M2, theta, k, "max", 1, 2, seed)
            got = _outcome(optimize_split, SHARED_M1, SHARED_M2, theta, k, resolution=1,
                           method="descent", restarts=2, seed=seed)
            assert got == want
            checked += "must total 1" in want
        assert checked >= 10

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacks_stay_within_the_bound(self, n, monkeypatch):
        monkeypatch.setattr(linalg, "_STACK_ENTRIES", 64)
        bound = 64 // n**2
        rng = np.random.default_rng(500 + n)
        m1 = random_metzler(rng, n)
        m2 = random_metzler(rng, n)
        sizes = _record_stacks(monkeypatch)
        for k, resolution in ((5, 3), (6, 1), (5, 10)):
            sizes.clear()
            got = _outcome(optimize_split, m1, m2, 0.37, k, resolution=resolution, method="descent", seed=9)
            assert got == _outcome(_lockstep_descent, m1, m2, 0.37, k, "max", resolution, 8, 9)
            assert len(sizes) > 1
            assert max(sizes) <= bound

    def test_descent_holds_bounded_stacks_at_n50(self, monkeypatch):
        # K = 5 at resolution 10 scores 20 positions of 11 candidates a pass;
        # unbounded, one start's first round would be 220 rows of ten
        # 50 x 50 blocks, ~44 MB, against a bound of 6 rows a stack. A start
        # then looks one position ahead, so it scores what the lockstep
        # sweep scores and no more
        rng = np.random.default_rng(71)
        m1 = random_metzler(rng, 50) / 50
        m2 = random_metzler(rng, 50) / 50
        exp_products, lockstep_rows = linalg.exp_products, []

        def recorded(seasons, durations, table):
            lockstep_rows.extend(durations)
            return exp_products(seasons, durations, table)

        with monkeypatch.context() as patch:
            patch.setattr(linalg, "exp_products", recorded)
            want = repr(_lockstep_descent(m1, m2, 0.4, 5, "max", 10, 1, 2))
        sizes = _record_stacks(monkeypatch)
        tracemalloc.start()
        try:
            got = optimize_split(m1, m2, 0.4, 5, resolution=10, method="descent", restarts=1, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert repr(got) == want
        assert max(sizes) <= linalg._STACK_ENTRIES // 50**2
        assert sum(sizes) == len(lockstep_rows)
        assert peak < 16e6


class TestGelfandProbe:
    def test_commuting_pair_equality(self):
        rng = np.random.default_rng(23)
        schedules = [random_schedule(float(rng.uniform(0.1, 0.9)), int(rng.integers(1, 4)), rng)
                     for _ in range(20)]
        report = gelfand_bound_probe(SHARED_M1, SHARED_M2, schedules)
        assert len(report.violations) == 0
        assert np.abs(report.rho_values - report.bounds).max() <= 1e-10

    def test_violations_are_collected_not_hidden(self):
        rng = np.random.default_rng(29)
        found = 0
        for _ in range(100):
            m1 = random_metzler(rng, 2)
            m2 = random_metzler(rng, 2)
            schedule = random_schedule(0.5, 1, rng)
            report = gelfand_bound_probe(m1, m2, [schedule])
            found += len(report.violations)
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
