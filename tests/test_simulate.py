import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from seasonthresh import simulate
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
from seasonthresh.scenario import linearization_from_scenario, load_scenario, system_from_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
NONSHARED = SCENARIOS / "insect_nonshared.json"


@pytest.fixture
def insect_system(pi_unfavorable, pi_favorable):
    return as_seasonal_system(pi_unfavorable, pi_favorable, 0.4, 1.0)


def linear_system(a, period=1.0):
    return SeasonalSystem(
        schedule=SeasonalSchedule(period, (0.0, 1.0)),
        pieces=(AutonomousPiece.linear(np.asarray(a, dtype=float)),),
    )


def lane_systems(kind, count, pi_unfavorable, pi_favorable):
    """count systems at distinct theta, so distinct season knots; every third
    lane has period 1.5, so lanes finish at different steps"""
    nonshared = load_scenario(NONSHARED)
    m1 = np.array([[-1.0, 0.5], [0.5, -2.0]])
    m2 = np.array([[0.5, 1.0], [1.0, 0.2]])
    systems = []
    for lane, theta in enumerate(np.linspace(0.15, 0.85, count)):
        period = 1.5 if lane % 3 == 2 else 1.0
        insect = lane % 2 == 0 if kind == "mixed" else kind == "insect"
        if not insect:
            schedule = SeasonalSchedule(period, (0.0, theta, 1.0))
            pieces = (AutonomousPiece.linear(m1), AutonomousPiece.linear(m2))
            systems.append(SeasonalSystem(schedule=schedule, pieces=pieces))
        elif lane % 4 == 1:  # another parameter pair of the same lane form
            pair = (nonshared.pi_unfavorable, nonshared.pi_favorable)
            systems.append(as_seasonal_system(*pair, theta, period))
        else:
            systems.append(as_seasonal_system(pi_unfavorable, pi_favorable, theta, period))
    return systems


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


BUNDLED = ["insect_two_season", "insect_nonshared", "matrices_shared_eigenvector"]
THETAS = np.linspace(0.0, 1.0, 11)


def bundled_systems(name, period):
    """The bundled scenario at this period, one system per theta of THETAS."""
    scenario = dataclasses.replace(load_scenario(SCENARIOS / f"{name}.json"), period_T=period)
    return scenario, [system_from_scenario(scenario, th) for th in THETAS]


class TestPropagatorAtZero:
    """DP(0) by repeated squaring is the step-by-step RK4 variational pass."""

    @pytest.mark.parametrize("name, period", [
        (name, period) for name in BUNDLED for period in (1e-6, 1e-4, 1.0, 3.5, 100.0)
    ] + [("insect_two_season", 800.0), ("insect_nonshared", 800.0)])
    def test_squaring_matches_step_by_step_pass(self, name, period):
        _, systems = bundled_systems(name, period)
        zeros = np.zeros((len(systems), 2))
        # the lane-batched pass has the bits of one-lane passes (TestLanes)
        stepped = simulate._variational(systems, zeros, [period / 2000] * len(systems))[1]
        for squared, dp in zip(poincare_jacobian(systems, zeros), stepped):
            assert np.abs(squared - dp).max() <= 1e-12 * np.abs(dp).max()

    def test_lanes_match_one_lane_calls(self, pi_unfavorable, pi_favorable):
        systems = lane_systems("mixed", 7, pi_unfavorable, pi_favorable)
        stack = poincare_jacobian(systems, np.zeros((7, 2)), step=1.0 / 200)
        for lane, system in enumerate(systems):
            assert np.array_equal(stack[lane], poincare_jacobian(system, np.zeros(2), step=1.0 / 200))

    def test_mixed_lanes_match_one_lane_calls(self, pi_unfavorable, pi_favorable):
        # lanes at zero take the propagator, the others one pass, whatever their neighbours
        systems = lane_systems("mixed", 7, pi_unfavorable, pi_favorable)
        states = np.random.default_rng(7).uniform(0.0, 2.0, (7, 2))
        states[[0, 3, 4]] = 0.0
        stack = poincare_jacobian(systems, states, step=1.0 / 200)
        for lane, system in enumerate(systems):
            alone = poincare_jacobian(system, states[lane], step=1.0 / 200)
            assert np.array_equal(stack[lane], alone)

    def test_propagator_follows_the_jacobian_at_zero(self):
        # a piece whose linearization_at_zero disagrees with its Jacobian: DP(0)
        # is what the variational pass, which steps the Jacobian, computes
        a = np.array([[-1.0, 0.5], [0.5, -2.0]])
        piece = AutonomousPiece(
            vector_field=lambda x: a @ x,
            jacobian=lambda x: a,
            linearization_at_zero=np.array([[0.3, 0.1], [0.1, 0.2]]),
        )
        system = SeasonalSystem(schedule=SeasonalSchedule(1.0, (0.0, 1.0)), pieces=(piece,))
        dp = simulate._variational(system, np.zeros(2), 1.0 / 2000)[1]
        squared = poincare_jacobian(system, np.zeros(2))
        assert np.abs(squared - dp).max() <= 1e-12 * np.abs(dp).max()

    def test_unstable_step_raises_before_any_work(self, monkeypatch, insect_system,
                                                  pi_unfavorable, pi_favorable):
        # the default step T / 2000 = 2.5 puts h|lambda| = 2.5 * 2.5 past 2.785
        powers = []
        monkeypatch.setattr(simulate, "_rk4_power", lambda *args: powers.append(args))
        system = as_seasonal_system(pi_unfavorable, pi_favorable, 0.7, 5000.0)
        with pytest.raises(InvalidInputError, match=r"h\*\|lambda\| = 6.25"):
            poincare_jacobian(system, np.zeros(2))
        with pytest.raises(InvalidInputError, match=r"h\*\|lambda\| = 6.25"):
            poincare_jacobian([insect_system, system], np.zeros((2, 2)))
        assert powers == []

    @pytest.mark.parametrize("name", BUNDLED[:2])
    @pytest.mark.parametrize("period", [1e-6, 1e-4, 1.0, 100.0])
    def test_multiplier_matches_rho(self, name, period):
        scenario, systems = bundled_systems(name, period)
        lin = linearization_from_scenario(scenario)
        for th, system in zip(THETAS, systems):
            lam = spectral_radius(poincare_jacobian(system, np.zeros(2)))
            reference = rho(lin, th)[0]
            assert abs(lam - reference) <= 1e-6 * reference

    def test_overflow_is_a_typed_error(self):
        # at theta <= 0.5 the growing season's factor passes double range
        _, systems = bundled_systems("matrices_shared_eigenvector", 800.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lanes, zero in ((systems[2], np.zeros(2)), (systems[4:], np.zeros((7, 2)))):
                with pytest.raises(InvalidInputError, match="overflowed double precision"):
                    poincare_jacobian(lanes, zero)
            assert np.all(np.isfinite(poincare_jacobian(systems[6:], np.zeros((5, 2)))))


class TestLanes:
    """A lane-batched pass gives each lane the bits of its one-lane pass."""

    @pytest.mark.parametrize("kind", ["insect", "linear", "mixed"])
    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_variational_lanes_match_one_lane_passes(self, kind, count, pi_unfavorable,
                                                     pi_favorable):
        systems = lane_systems(kind, count, pi_unfavorable, pi_favorable)
        states = np.random.default_rng(count).uniform(0.0, 2.0, (count, 2))
        steps = [s.period_T / 200 for s in systems]
        mapped, jac = simulate._variational(systems, states, steps)
        for lane, system in enumerate(systems):
            p, dp = simulate._variational(system, states[lane], steps[lane])
            assert np.array_equal(mapped[lane], p)
            assert np.array_equal(jac[lane], dp)

    @pytest.mark.parametrize("kind", ["insect", "linear", "mixed"])
    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_poincare_map_lanes_match_one_lane_passes(self, kind, count, pi_unfavorable,
                                                      pi_favorable):
        systems = lane_systems(kind, count, pi_unfavorable, pi_favorable)
        states = np.random.default_rng(count).uniform(0.0, 2.0, (count, 2))
        mapped = poincare_map(systems, states, step=1.0 / 200)
        for lane, system in enumerate(systems):
            assert np.array_equal(mapped[lane], poincare_map(system, states[lane], step=1.0 / 200))

    @pytest.mark.parametrize("period_map", [poincare_map, poincare_jacobian])
    def test_step_list_gives_each_lane_its_step(self, period_map, pi_unfavorable, pi_favorable):
        systems = lane_systems("mixed", 2, pi_unfavorable, pi_favorable)
        states = np.array([[0.5, 1.0], [1.0, 0.5]])
        steps = [s.period_T / 200 for s in systems]
        batched = period_map(systems, states, step=steps)
        for lane, system in enumerate(systems):
            assert np.array_equal(batched[lane], period_map(system, states[lane], step=steps[lane]))

    @pytest.mark.parametrize("period_map", [poincare_map, poincare_jacobian])
    @pytest.mark.parametrize(
        "steps", [[0.01], [0.01, 0.01, 0.01], [0.01, -0.01], [0.01, float("inf")], [0.01, None],
                  [0.01, "0.01"], [[0.01], [0.01]], np.array([0.01, 0.0])],
    )
    def test_other_step_lists_are_typed_errors(self, period_map, steps, pi_unfavorable,
                                               pi_favorable):
        systems = lane_systems("insect", 2, pi_unfavorable, pi_favorable)
        with pytest.raises(InvalidInputError):
            period_map(systems, np.ones((2, 2)), step=steps)

    def test_step_list_for_one_system_is_typed_error(self, insect_system):
        with pytest.raises(InvalidInputError):
            poincare_map(insect_system, np.ones(2), step=[0.01])

    @pytest.mark.parametrize("period_map", [poincare_map, poincare_jacobian])
    def test_first_diverging_lane_raises_after_the_pass(self, period_map):
        # lane 0 passes the bound later than lane 1; a run of one-lane passes
        # in lane order would have raised lane 0's error
        slow = linear_system(np.array([[0.5, 0.0], [0.0, 0.5]]))
        fast = linear_system(np.array([[2.0, 0.0], [0.0, 2.0]]))
        states = np.array([[50.0, 50.0], [50.0, 50.0]])
        with pytest.raises(DivergenceError) as alone:
            period_map(slow, states[0], step=0.01, divergence_bound=100.0)
        with pytest.raises(DivergenceError) as lanes:
            period_map([slow, fast], states, step=0.01, divergence_bound=100.0)
        assert lanes.value.time == alone.value.time
        assert np.array_equal(lanes.value.state, alone.value.state)


class TestNewtonOrbit:
    @pytest.mark.parametrize("case", ["below", "above", "nonshared"])
    def test_newton_matches_long_picard(self, case, pi_unfavorable, pi_favorable):
        if case == "nonshared":  # theta 0.4 below its theta* 0.542
            scenario = load_scenario(NONSHARED)
            system = system_from_scenario(scenario, scenario.theta)
        else:
            theta = 0.4 if case == "below" else 0.6  # theta* = 0.5
            system = as_seasonal_system(pi_unfavorable, pi_favorable, theta, 1.0)
        step = 1.0 / 50
        result = find_periodic_orbit(system, np.array([1.0, 1.0]), step=step)
        assert result.iterations <= 10  # Newton, not the Picard fallback
        assert result.classification == ("extinction" if case == "above" else "periodic_positive")
        x = np.array([1.0, 1.0])
        for _ in range(2000):
            x = poincare_map(system, x, step=step)
        assert np.linalg.norm(result.fixed_point - x) <= 1e-8

    def test_newton_landing_on_unstable_zero_falls_back_to_picard(self, monkeypatch):
        system = linear_system(np.array([[1.0, 0.5], [0.5, 1.0]]))
        x0 = np.array([50.0, 50.0])
        # the period map is linear, so one Newton step lands on 0 up to rounding
        step_to = x0 + np.linalg.solve(
            poincare_jacobian(system, x0, step=0.01) - np.eye(2),
            x0 - poincare_map(system, x0, step=0.01),
        )
        assert np.linalg.norm(step_to) < 1e-9
        starts = []
        original = simulate._picard

        def spy(system, x, *args):
            starts.append(x.copy())
            return original(system, x, *args)

        monkeypatch.setattr(simulate, "_picard", spy)
        result = find_periodic_orbit(system, x0, step=0.01, divergence_bound=1e4)
        assert result.multiplier_lambda > 1.0
        assert result.classification == "divergent"
        assert len(starts) == 1 and np.array_equal(starts[0], x0)

    def test_newton_extinction_maps_three_periods(self, monkeypatch):
        system = linear_system(np.array([[-1.0, 0.5], [0.5, -1.0]]))
        calls = []
        original = simulate.poincare_map

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(simulate, "poincare_map", counted)
        result = find_periodic_orbit(system, np.array([1.0, 2.0]), step=0.01)
        assert result.classification == "extinction"
        assert result.multiplier_lambda < 1.0
        assert len(calls) == 3
        assert result.iterations == 1 + 3
        assert np.linalg.norm(result.fixed_point) < 1e-9


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
