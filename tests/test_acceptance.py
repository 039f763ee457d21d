"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Seeds are fixed; every expected value is a closed form, an
independent finite-difference oracle, or a cross-module consistency check.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from seasonthresh import (
    InsectParams,
    TwoSeasonLinearization,
    as_seasonal_system,
    check_hyp_parameters,
    empirical_threshold,
    find_periodic_orbit,
    find_threshold,
    gelfand_bound_probe,
    insect_threshold_certificate,
    invariant_box,
    left_eigenvector_order,
    poincare_jacobian,
    r0,
    rho,
    rho_prime,
    rho_profile,
    rho_second,
    timescale_asymptotics,
    vector_field,
    verify_flow_properties,
)
from seasonthresh.insect import jacobian
from seasonthresh.linalg import spectral_abscissa, spectral_radius
from seasonthresh.simulate import integrate
from seasonthresh.splitting import random_schedule, split_monodromy

from conftest import random_metzler

PI_U = InsectParams(b=1.0, h=0.5, dJ=1.0, cJ=1.0, dA=1.0)
PI_F = InsectParams(b=2.0, h=1.0, dJ=0.5, cJ=1.0, dA=0.5)


def insect_lin():
    return TwoSeasonLinearization(
        jacobian(PI_U, np.zeros(2)), jacobian(PI_F, np.zeros(2)), 1.0
    )


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {summary}")
        raise
    print(f"criterion {number}: PASS - {summary}")


def test_criterion_1_derivatives_match_finite_differences():
    with criterion(1, "rho'/rho'' match FD on 50 random Metzler pairs"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        thetas = np.linspace(0.1, 0.9, 9)
        for trial in range(50):
            n = 2 + trial % 4
            lin = TwoSeasonLinearization(
                random_metzler(rng, n), random_metzler(rng, n), 1.0
            )
            for th in thetas:
                th = float(th)
                h1, h2 = 1e-5, 1e-4
                center = rho(lin, th)[0]
                fd1 = (rho(lin, th + h1)[0] - rho(lin, th - h1)[0]) / (2.0 * h1)
                fd2 = (rho(lin, th + h2)[0] - 2.0 * center + rho(lin, th - h2)[0]) / h2**2
                first = rho_prime(lin, th)
                second = rho_second(lin, th)
                assert abs(first - fd1) <= 1e-6 * max(1.0, abs(first))
                assert abs(second - fd2) <= 1e-4 * max(1.0, abs(second))
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_shared_eigenvector_closed_form():
    with criterion(2, "closed-form rho and threshold for 20 shifted pairs"):
        rng = np.random.default_rng(2024)
        grid = np.linspace(0.0, 1.0, 101)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            base = random_metzler(rng, n, scale=1.0)
            base = base - spectral_abscissa(base) * np.eye(n)
            mu_u = float(rng.uniform(-2.0, -0.2))
            mu_f = float(rng.uniform(0.2, 1.2))
            lin = TwoSeasonLinearization(
                base + mu_u * np.eye(n), base + mu_f * np.eye(n), 1.0
            )
            a1 = spectral_abscissa(lin.m1)
            a2 = spectral_abscissa(lin.m2)
            worst = max(
                abs(rho(lin, float(th))[0] - math.exp(th * a1 + (1.0 - th) * a2))
                for th in grid
            )
            assert worst <= 1e-10
            report = find_threshold(lin, tol=1e-10)
            assert abs(report.theta_star - a2 / (a2 - a1)) <= 1e-9


def test_criterion_3_insect_certificate_end_to_end():
    with criterion(3, "running insect pair: hypotheses, certificate, threshold"):
        hyp = check_hyp_parameters(PI_U, PI_F)
        assert hyp.holds
        assert np.allclose(hyp.margins, [0.5, 1.5, 0.5, 0.5], atol=1e-15)

        assert abs(r0(PI_U) - 1.0 / 3.0) <= 1e-12
        assert abs(r0(PI_F) - 8.0 / 3.0) <= 1e-12

        lin = insect_lin()
        profile = rho_profile(lin, np.linspace(0.0, 1.0, 101))
        cert = insect_threshold_certificate(PI_U, PI_F, profile)
        assert cert.holds
        assert all(stage.holds for stage in cert.details["stages"].values())

        assert not profile.violations()

        report = find_threshold(lin, tol=1e-10)
        assert report.regime == "interior_root"
        assert 0.0 < report.theta_star < 1.0
        assert abs(report.rho_at_theta_star - 1.0) <= 1e-10


def test_criterion_4_spectral_simulation_consistency():
    with criterion(4, "simulated threshold and orbit classifications agree"):
        start = time.monotonic()
        lin = insect_lin()
        theta_star = find_threshold(lin, tol=1e-10).theta_star

        family = lambda th: as_seasonal_system(PI_U, PI_F, th, 1.0)
        empirical = empirical_threshold(family, [0.0, 0.25, 0.5, 0.75, 1.0], tol=0.005)
        assert abs(empirical - theta_star) <= 0.02

        below = as_seasonal_system(PI_U, PI_F, theta_star - 0.1, 1.0)
        a = find_periodic_orbit(below, np.array([0.1, 0.1]), tol=1e-9)
        b = find_periodic_orbit(below, np.array([5.0, 5.0]), tol=1e-9)
        assert a.classification == b.classification == "periodic_positive"
        assert np.all(a.fixed_point > 0.0) and np.all(b.fixed_point > 0.0)
        assert np.linalg.norm(a.fixed_point - b.fixed_point) <= 1e-7

        above = as_seasonal_system(PI_U, PI_F, theta_star + 0.1, 1.0)
        for x0 in (np.array([0.1, 0.1]), np.array([5.0, 5.0])):
            result = find_periodic_orbit(above, x0, tol=1e-9)
            assert result.classification == "extinction"

        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_poincare_cross_check():
    with criterion(5, "variational multiplier matches monodromy rho at 11 thetas"):
        lin = insect_lin()
        for th in np.linspace(0.0, 1.0, 11):
            th = float(th)
            system = as_seasonal_system(PI_U, PI_F, th, 1.0)
            lam = spectral_radius(poincare_jacobian(system, np.zeros(2)))
            reference = rho(lin, th)[0]
            assert abs(lam - reference) / reference <= 1e-6


def test_criterion_6_flow_property_suite():
    with criterion(6, "order/concavity flow properties at three season mixes"):
        for th in (0.25, 0.5, 0.75):
            system = as_seasonal_system(PI_U, PI_F, th, 1.0)
            report = verify_flow_properties(system)
            assert report.all_ok, f"theta={th}"
            assert report.order_margin > 1e-9
            assert report.derivative_positive_margin > 1e-9
            assert report.derivative_monotone_margin > 1e-9


def test_criterion_7_left_order_oracle_equivalence():
    with criterion(7, "eigen ordering equals column-sum test on 1000 matrices"):
        rng = np.random.default_rng(7)
        boundary = 0
        for _ in range(1000):
            s = rng.uniform(0.05, 5.0, (2, 2))
            result = left_eigenvector_order(s)
            if result.boundary:
                boundary += 1
                continue
            assert result.eigen_order == result.sum_order
        assert boundary < 1000


def test_criterion_8_equilibrium_and_box_identities():
    with criterion(8, "steady-state identity and invariant-box containment"):
        rng = np.random.default_rng(88)
        checked = 0
        while checked < 200:
            pi = InsectParams(*(rng.uniform(0.2, 4.0, 5)))
            value = r0(pi)
            if value <= 1.0:
                continue
            checked += 1
            s1 = (value - 1.0) * np.array(
                [(pi.h + pi.dJ) / pi.cJ, pi.h * (pi.h + pi.dJ) / (pi.cJ * pi.dA)]
            )
            assert np.linalg.norm(vector_field(pi, s1)) <= 1e-12 * (1.0 + np.linalg.norm(s1))

        for _ in range(50):
            pi_u = InsectParams(*(rng.uniform(0.2, 3.0, 5)))
            pi_f = InsectParams(*(rng.uniform(0.2, 3.0, 5)))
            box = invariant_box([pi_u, pi_f])
            level = box.min_level + float(rng.uniform(0.1, 3.0))
            corner = box.upper_corner(level)
            x0 = np.array([rng.uniform(0.0, corner[0]), rng.uniform(0.0, corner[1])])
            system = as_seasonal_system(pi_u, pi_f, float(rng.uniform(0.0, 1.0)), 1.0)
            trajectory = integrate(system, x0, 0.0, 2.0, step=1.0 / 500)
            assert trajectory.min_component >= -1e-8
            assert np.all(trajectory.states <= corner + 1e-8)


def test_criterion_9_split_invariance_and_gelfand():
    with criterion(9, "split-schedule invariance and factor-bound probe"):
        rng = np.random.default_rng(99)
        base = random_metzler(rng, 3, scale=1.0)
        m1 = base - 1.5 * np.eye(3)
        m2 = base + 0.5 * np.eye(3)
        values = []
        schedules = []
        for _ in range(100):
            k = int(rng.integers(1, 5))
            schedule = random_schedule(0.4, k, rng)
            schedules.append(schedule)
            values.append(spectral_radius(split_monodromy(m1, m2, schedule)))
        spread = (max(values) - min(values)) / max(values)
        assert spread <= 1e-9

        report = gelfand_bound_probe(m1, m2, schedules)
        assert len(report.violations) == 0
        assert np.abs(report.rho_values - report.bounds).max() <= 1e-10

        violations = 0
        for _ in range(1000):
            n = int(rng.integers(2, 4))
            a = random_metzler(rng, n)
            b = random_metzler(rng, n)
            schedule = random_schedule(float(rng.uniform(0.1, 0.9)), int(rng.integers(1, 4)), rng)
            violations += len(gelfand_bound_probe(a, b, [schedule]).violations)
        # informational: the bound is not a theorem for generic pairs
        print(f"  gelfand probe: {violations} violations / 1000 random pairs")


def test_criterion_10_timescale_asymptotics():
    with criterion(10, "large-period correction converges, tiny period gives rho=1"):
        lin = insect_lin()
        report = timescale_asymptotics(
            lin, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0], theta=0.5, t_small=1e-6
        )
        gaps = np.abs(report.corrections - report.limit_correction)
        diffs = np.abs(np.diff(report.corrections))
        # successive differences shrink monotonically (roundoff allowance)
        for earlier, later in zip(diffs, diffs[1:]):
            assert later <= earlier + 1e-12
        assert diffs[-1] <= 1e-4
        assert gaps[-1] <= 1e-4
        assert abs(report.rho_at_t_small - 1.0) <= 1e-5
