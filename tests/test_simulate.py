import math

import numpy as np
import pytest

from seasonthresh import (
    AutonomousPiece,
    SeasonalSchedule,
    SeasonalSystem,
    as_seasonal_system,
    empirical_threshold,
    find_periodic_orbit,
    integrate,
    monodromy,
    poincare_jacobian,
    poincare_map,
    rho,
    verify_flow_properties,
)
from seasonthresh.errors import DivergenceError, InconsistencyError, InvalidInputError
from seasonthresh.linalg import spectral_radius


@pytest.fixture
def insect_system(pi_unfavorable, pi_favorable):
    return as_seasonal_system(pi_unfavorable, pi_favorable, 0.4, 1.0)


def linear_system(a, period=1.0):
    return SeasonalSystem(
        schedule=SeasonalSchedule(period, (0.0, 1.0)),
        pieces=(AutonomousPiece.linear(np.asarray(a, dtype=float)),),
    )


class TestIntegrate:
    def test_zero_state_stays_zero(self, insect_system):
        traj = integrate(insect_system, np.zeros(2), 0.0, 2.0, step=0.01)
        assert np.abs(traj.states).max() == 0.0

    def test_linear_decay(self):
        system = linear_system(-np.eye(2))
        traj = integrate(system, np.array([2.0, 3.0]), 0.0, 1.5, step=0.01)
        expected = math.exp(-1.5) * np.array([2.0, 3.0])
        assert np.allclose(traj.states[-1], expected, atol=1e-8)

    def test_favorable_system_reaches_steady_state(self, pi_unfavorable, pi_favorable):
        system = as_seasonal_system(pi_unfavorable, pi_favorable, 0.0, 1.0)
        traj = integrate(system, np.array([1.0, 1.0]), 0.0, 120.0, step=1.0 / 200)
        assert np.allclose(traj.states[-1], [2.5, 5.0], atol=1e-6)

    def test_season_boundaries_are_sample_points(self, insect_system):
        traj = integrate(insect_system, np.array([1.0, 1.0]), 0.0, 3.0, step=0.013)
        for boundary in (0.4, 1.0, 1.4, 2.0, 2.4):
            assert np.min(np.abs(traj.times - boundary)) == 0.0
        assert np.all(np.diff(traj.times) > 0.0)

    def test_divergence_truncates(self):
        system = linear_system(np.array([[2.0, 1.0], [1.0, 2.0]]))
        traj = integrate(
            system, np.array([10.0, 10.0]), 0.0, 20.0, step=0.01, divergence_bound=1e3
        )
        assert traj.diverged
        assert traj.times[-1] < 20.0

    def test_nonnegative_states_kept(self, insect_system):
        traj = integrate(insect_system, np.array([5.0, 5.0]), 0.0, 5.0, step=0.002)
        assert traj.min_component >= -1e-10
        assert traj.clamp_count == 0

    def test_rejects_negative_start(self, insect_system):
        with pytest.raises(InvalidInputError):
            integrate(insect_system, np.array([-0.1, 1.0]), 0.0, 1.0)


class TestPoincareMap:
    def test_origin_fixed(self, insect_system):
        assert np.array_equal(poincare_map(insect_system, np.zeros(2)), np.zeros(2))

    def test_single_season_matches_flow(self, pi_unfavorable, pi_favorable):
        system = as_seasonal_system(pi_unfavorable, pi_favorable, 0.0, 1.0)
        x0 = np.array([1.0, 2.0])
        mapped = poincare_map(system, x0, step=0.002)
        traj = integrate(system, x0, 0.0, 1.0, step=0.002)
        assert np.allclose(mapped, traj.states[-1], atol=1e-12)

    def test_order_preservation_random_pairs(self, insect_system):
        rng = np.random.default_rng(101)
        for _ in range(100):
            y = rng.uniform(0.0, 2.0, 2)
            x = y + rng.uniform(0.05, 2.0, 2)
            py = poincare_map(insect_system, y, step=1.0 / 250)
            px = poincare_map(insect_system, x, step=1.0 / 250)
            assert np.all(py < px)

    def test_step_halving_fourth_order(self, insect_system):
        x0 = np.array([1.5, 0.7])
        p1 = poincare_map(insect_system, x0, step=1.0 / 50)
        p2 = poincare_map(insect_system, x0, step=1.0 / 100)
        p3 = poincare_map(insect_system, x0, step=1.0 / 200)
        ratio = np.linalg.norm(p1 - p2) / np.linalg.norm(p2 - p3)
        order = math.log2(ratio)
        assert 3.5 <= order <= 4.5


class TestPoincareJacobian:
    def test_matches_monodromy_at_zero(self, insect_system, insect_linearization):
        dp0 = poincare_jacobian(insect_system, np.zeros(2))
        expected = monodromy(insect_linearization, 0.4)
        assert np.abs(dp0 - expected).max() <= 1e-6

    def test_rho_consistency_across_thetas(self, pi_unfavorable, pi_favorable, insect_linearization):
        for th in (0.2, 0.5, 0.8):
            system = as_seasonal_system(pi_unfavorable, pi_favorable, th, 1.0)
            lam = spectral_radius(poincare_jacobian(system, np.zeros(2)))
            reference = rho(insect_linearization, th)[0]
            assert abs(lam - reference) / reference <= 1e-6

    def test_strictly_positive_at_zero(self, insect_system):
        assert poincare_jacobian(insect_system, np.zeros(2)).min() > 0.0

    def test_nonnegative_at_positive_states(self, insect_system):
        rng = np.random.default_rng(103)
        for _ in range(5):
            x = rng.uniform(0.1, 3.0, 2)
            assert poincare_jacobian(insect_system, x).min() >= 0.0

    def test_decreasing_along_ordered_states(self, insect_system):
        rng = np.random.default_rng(107)
        for _ in range(5):
            x = rng.uniform(0.1, 1.5, 2)
            y = x + rng.uniform(0.1, 1.5, 2)
            gap = poincare_jacobian(insect_system, x) - poincare_jacobian(insect_system, y)
            assert gap.min() >= -1e-12
            assert gap.max() > 1e-9

    def test_divergence_reports_time_and_base_state(self):
        system = linear_system(np.array([[1.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(DivergenceError) as info:
            poincare_jacobian(system, np.array([50.0, 50.0]), step=0.01, divergence_bound=1e2)
        assert 0.0 < info.value.time <= 1.0
        assert info.value.state.shape == (2,)


class TestFindPeriodicOrbit:
    def test_subcritical_orbit_from_two_starts(self, pi_unfavorable, pi_favorable):
        system = as_seasonal_system(pi_unfavorable, pi_favorable, 0.25, 1.0)
        a = find_periodic_orbit(system, np.array([0.1, 0.1]), tol=1e-9, step=1.0 / 500)
        b = find_periodic_orbit(system, np.array([5.0, 5.0]), tol=1e-9, step=1.0 / 500)
        assert a.classification == b.classification == "periodic_positive"
        assert np.all(a.fixed_point > 0.0)
        assert a.residual <= 1e-9
        assert np.linalg.norm(a.fixed_point - b.fixed_point) <= 1e-7
        assert a.multiplier_lambda > 1.0

    def test_found_orbit_is_two_periodic(self, pi_unfavorable, pi_favorable):
        system = as_seasonal_system(pi_unfavorable, pi_favorable, 0.25, 1.0)
        result = find_periodic_orbit(system, np.array([1.0, 1.0]), tol=1e-9, step=1.0 / 500)
        traj = integrate(system, result.fixed_point, 0.0, 2.0, step=1.0 / 500)
        assert np.linalg.norm(traj.states[-1] - result.fixed_point) <= 1e-8

    def test_supercritical_extinction(self, pi_unfavorable, pi_favorable):
        system = as_seasonal_system(pi_unfavorable, pi_favorable, 0.75, 1.0)
        result = find_periodic_orbit(system, np.array([1.0, 1.0]), tol=1e-9, step=1.0 / 500)
        assert result.classification == "extinction"
        assert result.multiplier_lambda < 1.0
        assert np.linalg.norm(result.fixed_point) <= 1e-9

    def test_subunit_multiplier_means_extinction_all_starts(self, pi_unfavorable, pi_favorable):
        system = as_seasonal_system(pi_unfavorable, pi_favorable, 0.75, 1.0)
        rng = np.random.default_rng(109)
        for _ in range(5):
            x0 = rng.uniform(0.05, 4.0, 2)
            result = find_periodic_orbit(system, x0, tol=1e-9, step=1.0 / 500)
            assert result.multiplier_lambda <= 1.0 - 1e-6
            assert result.classification == "extinction"

    def test_divergent_classification(self):
        system = linear_system(np.array([[1.0, 0.5], [0.5, 1.0]]))
        result = find_periodic_orbit(
            system, np.array([50.0, 50.0]), step=0.01, divergence_bound=1e4
        )
        assert result.classification == "divergent"


class TestEmpiricalThreshold:
    def test_always_persistent_family(self, pi_favorable):
        family = lambda th: as_seasonal_system(pi_favorable, pi_favorable, th, 1.0)
        assert empirical_threshold(family, [0.0, 0.5, 1.0], step=1.0 / 300) == 1.0

    def test_always_extinct_family(self, pi_unfavorable):
        family = lambda th: as_seasonal_system(pi_unfavorable, pi_unfavorable, th, 1.0)
        assert empirical_threshold(family, [0.0, 0.5, 1.0], step=1.0 / 300) == 0.0

    def test_insect_family_matches_spectral(self, pi_unfavorable, pi_favorable):
        family = lambda th: as_seasonal_system(pi_unfavorable, pi_favorable, th, 1.0)
        value = empirical_threshold(
            family, [0.0, 0.25, 0.5, 0.75, 1.0], tol=0.01, step=1.0 / 500
        )
        assert abs(value - 0.5) <= 0.02

    def test_non_monotone_labels_raise(self, pi_unfavorable, pi_favorable):
        # seasons swapped: persistence appears at large theta instead
        family = lambda th: as_seasonal_system(pi_favorable, pi_unfavorable, th, 1.0)
        with pytest.raises(InconsistencyError) as excinfo:
            empirical_threshold(family, [0.1, 0.5, 0.9], step=1.0 / 300)
        assert excinfo.value.classifications

    def test_grid_too_small(self, pi_unfavorable, pi_favorable):
        family = lambda th: as_seasonal_system(pi_unfavorable, pi_favorable, th, 1.0)
        with pytest.raises(InvalidInputError):
            empirical_threshold(family, [0.0, 1.0])


class TestFlowProperties:
    def test_insect_system_all_pass(self, pi_unfavorable, pi_favorable):
        system = as_seasonal_system(pi_unfavorable, pi_favorable, 0.5, 1.0)
        report = verify_flow_properties(system, step=1.0 / 500)
        assert report.all_ok
        assert report.order_margin > 1e-9
        assert report.derivative_positive_margin > 1e-9
        assert report.derivative_monotone_margin > 1e-9
        assert not report.derivative_boundary

    def test_linear_system_hits_concavity_boundary(self):
        system = linear_system(np.array([[-1.0, 0.5], [0.5, -2.0]]))
        report = verify_flow_properties(system, step=1.0 / 500)
        assert report.positivity and report.order and report.derivative_positive
        assert not report.derivative_monotone
        assert report.derivative_boundary

    def test_non_metzler_piece_breaks_order(self):
        system = linear_system(np.array([[0.0, -2.0], [2.0, 0.0]]))
        report = verify_flow_properties(system, step=1.0 / 500)
        assert not report.order
