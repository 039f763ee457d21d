import numpy as np
import pytest

from seasonthresh import (
    AutonomousPiece,
    SeasonalSchedule,
    SeasonalSystem,
    as_seasonal_system,
    season_index,
)
from seasonthresh.errors import InvalidInputError


@pytest.fixture
def three_window_schedule():
    return SeasonalSchedule(period_T=1.0, breakpoints=(0.0, 0.3, 1.0))


class TestSeasonIndex:
    def test_first_window(self, three_window_schedule):
        assert season_index(three_window_schedule, 0.1) == 1

    def test_half_open_boundary(self, three_window_schedule):
        assert season_index(three_window_schedule, 0.3) == 2

    def test_wraps_periods(self, three_window_schedule):
        assert season_index(three_window_schedule, 2.95) == 2

    def test_periodicity(self, three_window_schedule):
        rng = np.random.default_rng(1)
        for t in rng.uniform(0.0, 5.0, 100):
            assert season_index(three_window_schedule, t) == season_index(
                three_window_schedule, t + 1.0
            )

    def test_zero_length_window_skipped(self):
        schedule = SeasonalSchedule(period_T=2.0, breakpoints=(0.0, 0.3, 0.3, 1.0))
        for t in np.linspace(0.0, 1.99, 200):
            assert season_index(schedule, t) in (1, 3)

    def test_partition_covers_once(self, three_window_schedule):
        # every fraction belongs to exactly one window
        bp = three_window_schedule.breakpoints
        for frac in np.linspace(0.0, 0.999, 500):
            hits = [
                k
                for k in range(1, len(bp))
                if bp[k - 1] <= frac < bp[k]
            ]
            assert len(hits) == 1
            assert season_index(three_window_schedule, frac) == hits[0]

    def test_negative_time_rejected(self, three_window_schedule):
        with pytest.raises(InvalidInputError):
            season_index(three_window_schedule, -0.5)


class TestScheduleValidation:
    def test_breakpoints_must_span(self):
        with pytest.raises(InvalidInputError):
            SeasonalSchedule(period_T=1.0, breakpoints=(0.0, 0.5))

    def test_breakpoints_must_be_sorted(self):
        with pytest.raises(InvalidInputError):
            SeasonalSchedule(period_T=1.0, breakpoints=(0.0, 0.7, 0.3, 1.0))

    def test_durations(self, three_window_schedule):
        assert np.allclose(three_window_schedule.durations(), [0.3, 0.7])


class TestAutonomousPiece:
    def test_zero_at_origin_enforced(self):
        with pytest.raises(InvalidInputError):
            AutonomousPiece(
                vector_field=lambda x: x + 1.0,
                jacobian=lambda x: np.eye(2),
                linearization_at_zero=np.eye(2),
            )

    def test_linear_constructor(self):
        a = np.array([[-1.0, 2.0], [3.0, -4.0]])
        piece = AutonomousPiece.linear(a)
        x = np.array([1.0, 2.0])
        assert np.allclose(piece.vector_field(x), a @ x)
        assert np.allclose(piece.jacobian(x), a)


class TestSystemConstruction:
    def test_piece_count_must_match(self):
        with pytest.raises(InvalidInputError):
            SeasonalSystem(
                schedule=SeasonalSchedule(1.0, (0.0, 0.5, 1.0)),
                pieces=(AutonomousPiece.linear(np.eye(2) * -1.0),),
            )

    def test_insect_two_season_membership(self, pi_unfavorable, pi_favorable):
        system = as_seasonal_system(pi_unfavorable, pi_favorable, 0.4, 1.0)
        assert season_index(system.schedule, 0.39) == 1
        assert season_index(system.schedule, 0.4) == 2
        unfavorable, favorable = (system.pieces[season_index(system.schedule, t) - 1] for t in (0.39, 0.4))
        assert unfavorable.linearization_at_zero[0, 1] == pi_unfavorable.b
        assert favorable.linearization_at_zero[0, 1] == pi_favorable.b
