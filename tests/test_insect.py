import math

import numpy as np
import pytest

from seasonthresh import (
    InsectParams,
    as_seasonal_system,
    divergence,
    equilibria,
    invariant_box,
    jacobian,
    r0,
    vector_field,
)
from seasonthresh.errors import InvalidInputError
from seasonthresh.linalg import is_metzler
from seasonthresh.seasonal import season_index


def random_params(rng, lo=0.2, hi=4.0):
    return InsectParams(*(rng.uniform(lo, hi, 5)))


class TestVectorField:
    def test_origin_is_equilibrium(self, pi_favorable):
        assert np.array_equal(vector_field(pi_favorable, np.zeros(2)), np.zeros(2))

    def test_positive_steady_state(self, pi_favorable):
        # R0 = 8/3; S1* = (R0 - 1)((h+dJ)/cJ, h(h+dJ)/(cJ dA)) = (2.5, 5)
        s1 = np.array([2.5, 5.0])
        assert np.allclose(vector_field(pi_favorable, s1), np.zeros(2), atol=1e-12)

    def test_boundary_flux_inward(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pi = random_params(rng)
            rates = vector_field(pi, np.array([0.0, 1.0]))
            assert rates[0] == pytest.approx(pi.b)
            assert rates[1] == pytest.approx(-pi.dA)


class TestJacobian:
    def test_linearization_at_zero(self, pi_unfavorable):
        expected = np.array([[-1.5, 1.0], [0.5, -1.0]])
        assert np.allclose(jacobian(pi_unfavorable, np.zeros(2)), expected)

    def test_general_form(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            pi = random_params(rng)
            x = rng.uniform(0.0, 5.0, 2)
            j = jacobian(pi, x)
            expected = np.array(
                [[-pi.h - pi.dJ - 2.0 * pi.cJ * x[0], pi.b], [pi.h, -pi.dA]]
            )
            assert np.allclose(j, expected)
            assert is_metzler(j)

    def test_concavity_difference(self, pi_favorable):
        x = np.array([0.5, 2.0])
        y = np.array([1.5, 3.0])
        diff = jacobian(pi_favorable, x) - jacobian(pi_favorable, y)
        expected = np.array([[2.0 * pi_favorable.cJ * (y[0] - x[0]), 0.0], [0.0, 0.0]])
        assert np.allclose(diff, expected)
        assert diff.min() >= 0.0


class TestR0:
    def test_favorable(self, pi_favorable):
        assert r0(pi_favorable) == pytest.approx(8.0 / 3.0, abs=1e-15)

    def test_unfavorable(self, pi_unfavorable):
        assert r0(pi_unfavorable) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_exact_threshold(self):
        pi = InsectParams(b=1.5, h=1.0, dJ=0.5, cJ=1.0, dA=1.0)
        assert r0(pi) == pytest.approx(1.0, abs=1e-15)

    def test_zero_denominator(self):
        with pytest.raises(InvalidInputError):
            r0(InsectParams(b=1.0, h=0.0, dJ=0.0, cJ=1.0, dA=1.0))


class TestEquilibria:
    def test_favorable_saddle_and_node(self, pi_favorable):
        report = equilibria(pi_favorable)
        assert report.s0_classification == "saddle"
        assert np.allclose(report.s1, [2.5, 5.0], atol=1e-12)
        assert report.s1_classification == "stable_node"
        # k1 = (h + dJ - dA + sqrt((h+dJ-dA)^2 + 4 b h)) / (2 b) = 1
        assert report.unstable_slope_k1 == pytest.approx(1.0, abs=1e-14)

    def test_unfavorable_stable_node(self, pi_unfavorable):
        report = equilibria(pi_unfavorable)
        assert report.s0_classification == "stable_node"
        assert report.s1 is None
        assert report.unstable_slope_k1 is None

    def test_degenerate_direction(self):
        pi = InsectParams(b=1.5, h=1.0, dJ=0.5, cJ=1.0, dA=1.0)
        report = equilibria(pi)
        assert report.s0_classification == "higher_order_attracting"
        assert report.direction_delta1 == pytest.approx(math.pi / 4.0, abs=1e-14)

    def test_no_hatching_is_stable_node(self):
        report = equilibria(InsectParams(b=2.0, h=0.0, dJ=1.0, cJ=1.0, dA=0.5))
        assert report.r0 == 0.0
        assert report.s0_classification == "stable_node"

    def test_s1_present_iff_r0_above_one(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            pi = random_params(rng)
            report = equilibria(pi)
            assert (report.s1 is not None) == (report.r0 > 1.0)
            if report.s1 is not None:
                assert np.all(report.s1 > 0.0)

    def test_fixed_point_identity_random(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 50:
            pi = random_params(rng)
            report = equilibria(pi)
            if report.s1 is None:
                continue
            checked += 1
            res = np.linalg.norm(vector_field(pi, report.s1))
            assert res <= 1e-12 * (1.0 + np.linalg.norm(report.s1))

    def test_steady_state_sign_tracks_r0(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            pi = random_params(rng)
            value = r0(pi)
            formula = (value - 1.0) * np.array(
                [(pi.h + pi.dJ) / pi.cJ, pi.h * (pi.h + pi.dJ) / (pi.cJ * pi.dA)]
            )
            assert np.all(np.sign(formula) == np.sign(value - 1.0))

    def test_origin_eigenvalue_signs(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            pi = random_params(rng)
            j = jacobian(pi, np.zeros(2))
            product = np.linalg.det(j)
            total = np.trace(j)
            assert total == pytest.approx(-(pi.h + pi.dJ + pi.dA), abs=1e-12)
            assert np.sign(product) == np.sign(1.0 - r0(pi)) or product == 0.0


class TestInvariantBox:
    def test_constant_favorable(self, pi_favorable):
        box = invariant_box([pi_favorable])
        assert box.tau_star == pytest.approx(2.0, abs=1e-15)
        assert box.j_star == pytest.approx(2.5, abs=1e-15)

    def test_two_season_suprema(self, pi_unfavorable, pi_favorable):
        box = invariant_box([pi_unfavorable, pi_favorable])
        assert box.tau_star == pytest.approx(2.0, abs=1e-15)
        assert box.j_star == pytest.approx(2.5, abs=1e-15)

    def test_top_edge_flux(self, pi_unfavorable, pi_favorable):
        box = invariant_box([pi_unfavorable, pi_favorable])
        rng = np.random.default_rng(3)
        for _ in range(50):
            level = box.min_level + rng.uniform(0.0, 5.0)
            j = rng.uniform(0.0, level)
            for pi in (pi_unfavorable, pi_favorable):
                flux = pi.h * j - pi.dA * box.tau_star * level
                assert flux <= 1e-12

    def test_right_edge_flux(self, pi_unfavorable, pi_favorable):
        box = invariant_box([pi_unfavorable, pi_favorable])
        rng = np.random.default_rng(5)
        for _ in range(50):
            level = box.min_level + rng.uniform(0.0, 5.0)
            a = rng.uniform(0.0, box.tau_star * level)
            for pi in (pi_unfavorable, pi_favorable):
                flux = pi.b * a - level * (pi.h + pi.dJ + pi.cJ * level)
                assert flux <= 1e-12

    def test_level_below_minimum_rejected(self, pi_favorable):
        box = invariant_box([pi_favorable])
        with pytest.raises(InvalidInputError):
            box.upper_corner(box.min_level - 0.5)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            invariant_box([InsectParams(b=1.0, h=1.0, dJ=1.0, cJ=0.0, dA=1.0)])


class TestDivergence:
    def test_at_origin(self, pi_favorable):
        assert divergence(pi_favorable, np.zeros(2)) == pytest.approx(-2.0, abs=1e-15)

    def test_juvenile_dependence(self, pi_favorable):
        assert divergence(pi_favorable, np.array([3.0, 7.0])) == pytest.approx(-5.0, abs=1e-15)

    def test_always_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pi = random_params(rng)
            x = rng.uniform(0.0, 10.0, 2)
            assert divergence(pi, x) < 0.0


class TestAsSeasonalSystem:
    def test_theta_zero_all_favorable(self, pi_unfavorable, pi_favorable):
        system = as_seasonal_system(pi_unfavorable, pi_favorable, 0.0, 1.0)
        for t in np.linspace(0.0, 0.99, 20):
            assert season_index(system.schedule, t) == 2

    def test_theta_one_all_unfavorable(self, pi_unfavorable, pi_favorable):
        system = as_seasonal_system(pi_unfavorable, pi_favorable, 1.0, 1.0)
        for t in np.linspace(0.0, 0.99, 20):
            assert season_index(system.schedule, t) == 1

    def test_linearizations_match_jacobians(self, pi_unfavorable, pi_favorable):
        system = as_seasonal_system(pi_unfavorable, pi_favorable, 0.4, 1.0)
        assert np.allclose(
            system.pieces[0].linearization_at_zero, jacobian(pi_unfavorable, np.zeros(2))
        )
        assert np.allclose(
            system.pieces[1].linearization_at_zero, jacobian(pi_favorable, np.zeros(2))
        )

    def test_jacobian_matches_central_difference(self, pi_unfavorable, pi_favorable):
        # each piece's Jacobian against a central difference of its field
        system = as_seasonal_system(pi_unfavorable, pi_favorable, 0.4, 1.0)
        h = 1e-6
        for piece in system.pieces:
            for state in (np.array([0.5, 1.0]), np.array([2.0, 3.0])):
                fd = np.column_stack([
                    (piece.vector_field(state + h * e) - piece.vector_field(state - h * e)) / (2.0 * h)
                    for e in np.eye(2)
                ])
                assert np.max(np.abs(piece.jacobian(state) - fd)) <= 1e-5

    def test_negative_parameter_rejected(self):
        with pytest.raises(InvalidInputError):
            InsectParams(b=-1.0, h=0.5, dJ=1.0, cJ=1.0, dA=1.0)

    @pytest.mark.parametrize("value", [True, False, "1", None, [1.0], np.array([1.0])])
    def test_non_number_parameter_rejected(self, value):
        # a bool is not read as 1 or 0, and a string, None or list is no number
        with pytest.raises(InvalidInputError, match="parameter b must be a number"):
            InsectParams(b=value, h=0.5, dJ=1.0, cJ=1.0, dA=1.0)

    def test_parameters_kept_as_floats(self):
        pi = InsectParams(b=2, h=np.float64(0.5), dJ=np.int64(1), cJ=1.0, dA=np.float32(0.5))
        assert all(type(getattr(pi, name)) is float for name in ("b", "h", "dJ", "cJ", "dA"))
        assert pi == InsectParams(b=2.0, h=0.5, dJ=1.0, cJ=1.0, dA=0.5)

    @pytest.mark.parametrize("name", ["theta", "period_T"])
    @pytest.mark.parametrize("value", [True, "0.5", None, [0.5]])
    def test_non_number_theta_or_period_rejected(self, name, value, pi_unfavorable,
                                                 pi_favorable):
        kwargs = {"theta": 0.4, "period_T": 1.0, name: value}
        with pytest.raises(InvalidInputError, match=f"{name} must be a number"):
            as_seasonal_system(pi_unfavorable, pi_favorable, **kwargs)

    def test_non_params_rejected(self, pi_favorable):
        with pytest.raises(InvalidInputError, match="expected InsectParams, got dict"):
            as_seasonal_system({"b": 1.0}, pi_favorable, 0.4)
