"""The verify suite's stacked checks give the rows of per-problem calls.

Each reference below is a check written one problem at a time with the
public calls (rho, rho_prime, rho_second, split_monodromy,
gelfand_bound_probe, left_eigenvector_order) or one evaluation per period,
on the same random draws in the same order, each drawn one numpy try at a
time (reference_metzler, reference_schedule).
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from seasonthresh import conditions, floquet, simulate, verify_suite
from seasonthresh.linalg import spectral_abscissa, spectral_radius
from seasonthresh.scenario import linearization_from_scenario, load_scenario, system_from_scenario
from seasonthresh.splitting import gelfand_bound_probe, split_monodromy
from seasonthresh.verify_suite import VerifyRow, random_metzler

from conftest import reference_metzler, reference_schedule

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
BUNDLED = ("insect_two_season", "insect_nonshared", "matrices_shared_eigenvector")


def derivatives(scenario, rng):
    worst = 0.0
    for _ in range(8):
        n = int(rng.integers(2, 4))
        lin = floquet.TwoSeasonLinearization(reference_metzler(rng, n), reference_metzler(rng, n), 1.0)
        for th in (0.2, 0.5, 0.8):
            h = 1e-5
            fd = (floquet.rho(lin, th + h)[0] - floquet.rho(lin, th - h)[0]) / (2 * h)
            an = floquet.rho_prime(lin, th)
            worst = max(worst, abs(an - fd) / max(1.0, abs(an)))
    return worst <= 1e-6, f"worst rel gap {worst:.3e}"


def second_derivatives(scenario, rng):
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 4))
        lin = floquet.TwoSeasonLinearization(reference_metzler(rng, n), reference_metzler(rng, n), 1.0)
        for th in (0.3, 0.6):
            h = 1e-4
            fd = (floquet.rho(lin, th + h)[0] - 2 * floquet.rho(lin, th)[0]
                  + floquet.rho(lin, th - h)[0]) / h**2
            an = floquet.rho_second(lin, th)
            worst = max(worst, abs(an - fd) / max(1.0, abs(an)))
    return worst <= 1e-4, f"worst rel gap {worst:.3e}"


def endpoints(scenario, rng):
    lin = linearization_from_scenario(scenario)
    t = lin.period_T
    gap0 = abs(floquet.rho(lin, 0.0)[0] - np.exp(t * spectral_abscissa(lin.m2)))
    gap1 = abs(floquet.rho(lin, 1.0)[0] - np.exp(t * spectral_abscissa(lin.m1)))
    worst = max(gap0, gap1)
    return worst <= 1e-9, f"worst gap {worst:.3e}"


def threshold(scenario, rng):
    lin = linearization_from_scenario(scenario)
    tol = scenario.tolerances.bisect_tol
    report = floquet.find_threshold(lin, tol=tol)
    if report.regime != "interior_root":
        return None, f"regime {report.regime}"
    lo = floquet.rho(lin, max(0.0, report.theta_star - 10.0 * tol))[0]
    hi = floquet.rho(lin, min(1.0, report.theta_star + 10.0 * tol))[0]
    ok = lo > 1.0 > hi and abs(report.rho_at_theta_star - 1.0) <= tol
    return ok, f"theta*={report.theta_star:.12g}"


def shared_eigenvector_form(scenario, rng):
    base = reference_metzler(rng, 3)
    lin = floquet.TwoSeasonLinearization(base - 2.0 * np.eye(3), base + 1.0 * np.eye(3), 1.0)
    mu1, mu2 = spectral_abscissa(lin.m1), spectral_abscissa(lin.m2)
    worst = 0.0
    for th in np.linspace(0.0, 1.0, 21):
        closed = np.exp(th * mu1 + (1.0 - th) * mu2)
        worst = max(worst, abs(floquet.rho(lin, float(th))[0] - closed) / closed)
    return worst <= 1e-10, f"worst rel gap {worst:.3e}"


def poincare_consistency(scenario, rng):
    lin = linearization_from_scenario(scenario)
    worst = 0.0
    for th in (0.1, 0.3, 0.5, 0.7, 0.9):
        dp = simulate.poincare_jacobian(system_from_scenario(scenario, th), np.zeros(lin.dimension))
        gap = abs(spectral_radius(dp) - floquet.rho(lin, th)[0]) / floquet.rho(lin, th)[0]
        worst = max(worst, gap)
    return worst <= 1e-6, f"worst rel gap {worst:.3e}"


def left_order(scenario, rng):
    disagreements = 0
    for _ in range(500):
        result = conditions.left_eigenvector_order(rng.uniform(0.05, 5.0, (2, 2)))
        if not result.boundary and result.eigen_order != result.sum_order:
            disagreements += 1
    return disagreements == 0, f"{disagreements} disagreements / 500"


def split_invariance(scenario, rng):
    base = reference_metzler(rng, 2)
    m1, m2 = base - 1.5 * np.eye(2), base + 0.5 * np.eye(2)
    values = []
    for _ in range(50):
        schedule = reference_schedule(0.4, int(rng.integers(1, 5)), rng)
        values.append(spectral_radius(split_monodromy(m1, m2, schedule)))
    spread = (max(values) - min(values)) / max(values)
    return spread <= 1e-9, f"relative spread {spread:.3e}"


def gelfand(scenario, rng):
    count = 0
    for _ in range(200):
        n = int(rng.integers(2, 4))
        m1 = reference_metzler(rng, n)
        m2 = reference_metzler(rng, n)
        schedule = reference_schedule(float(rng.uniform(0.2, 0.8)), int(rng.integers(1, 4)), rng)
        count += len(gelfand_bound_probe(m1, m2, [schedule]).violations)
    return None, f"{count} bound violations / 200 (informational)"


def timescale(scenario, rng):
    lin = linearization_from_scenario(scenario)

    def at(t):
        return floquet._evaluate(lin.with_period(t), [0.5], floquet.DEFAULT_PERRON_TOL)

    corrections = [at(t).log_shifted[0] for t in (1.0, 2.0, 4.0, 8.0, 16.0)]
    (v1, v2), (v1s, v2s) = floquet.season_vectors(lin)
    final_gap = abs(corrections[-1] - float(np.log((v2s @ v1) * (v1s @ v2))))
    small_gap = abs(float(np.exp(at(1e-6).log_rho[0])) - 1.0)
    ok = final_gap <= 1e-3 and small_gap <= 1e-4
    return ok, f"correction gap {final_gap:.3e}, rho(T->0) gap {small_gap:.3e}"


REFERENCES = {
    "derivative_vs_fd": derivatives,
    "second_derivative_vs_fd": second_derivatives,
    "single_season_endpoints": endpoints,
    "shared_eigenvector_closed_form": shared_eigenvector_form,
    "threshold": threshold,
    "poincare_vs_monodromy": poincare_consistency,
    "left_order_equivalence": left_order,
    "split_invariance": split_invariance,
    "gelfand_probe": gelfand,
    "timescale_limits": timescale,
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", BUNDLED)
def test_stacked_checks_match_per_problem_calls(name, seed):
    # the suite's checks in order, each stacked one against its reference on
    # an rng in the same state; the flow check draws nothing and is slow
    scenario = load_scenario(SCENARIOS / f"{name}.json")
    stacked, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    compared = 0
    for check_name, check in verify_suite.CHECKS:
        if check_name in REFERENCES:
            assert check(scenario, stacked) == REFERENCES[check_name](scenario, reference)
            compared += 1
        elif check_name != "flow_properties":
            assert check(scenario, stacked) == check(scenario, reference)
        assert stacked.bit_generator.state == reference.bit_generator.state
    assert compared == len(REFERENCES)


@pytest.mark.parametrize("scale", (1.0, 3.0))
@pytest.mark.parametrize("n", range(1, 7))
def test_random_metzler_matches_one_try_reference(n, scale):
    # the same matrix bits, after the same draws, as clamping every try
    for seed in range(50):
        drawn, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            a = random_metzler(drawn, n, scale)
            assert a.tobytes() == reference_metzler(reference, n, scale).tobytes()
        assert drawn.bit_generator.state == reference.bit_generator.state


def counted_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_verify_evaluates_in_stacks(monkeypatch):
    # seed 0 on insect_nonshared: one evaluation per dimension in each
    # derivative check, one in each other check but the threshold's, which
    # adds find_threshold's grid and Newton steps (29 one call at a time)
    scenario = load_scenario(SCENARIOS / "insect_nonshared.json")
    calls = counted_calls(monkeypatch, floquet, "_evaluate")
    rows = verify_suite.run_verification(scenario, seed=0)
    assert all(row.status != "error" for row in rows)
    assert len(calls) == 13


def test_split_check_is_one_product_stack(monkeypatch):
    scenario = load_scenario(SCENARIOS / "insect_nonshared.json")
    calls = counted_calls(monkeypatch, verify_suite, "exp_products")
    verify_suite._check_split_invariance(scenario, np.random.default_rng(0))
    assert len(calls) == 1 and len(calls[0][1]) == 50


def test_a_raising_check_gives_an_error_row_under_its_table_name(monkeypatch):
    scenario = load_scenario(SCENARIOS / "matrices_shared_eigenvector.json")
    names = [row.name for row in verify_suite.run_verification(scenario, seed=0)]

    def raising(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(simulate, "poincare_jacobian", raising)
    rows = verify_suite.run_verification(scenario, seed=0)
    assert [row for row in rows if row.status == "error"] == [
        VerifyRow("poincare_vs_monodromy", "error", "RuntimeError('boom')")
    ]
    assert [row.name for row in rows] == names
    assert names == [name for name, _ in verify_suite.CHECKS]


def test_long_period_error_rows_carry_their_table_names():
    # at T = 5000 rho(0) leaves double range, and the flow check's default
    # step is refused: three error rows, each named as its pass row is
    scenario = load_scenario(SCENARIOS / "insect_two_season.json")
    rows = verify_suite.run_verification(dataclasses.replace(scenario, period_T=5000.0), seed=0)
    errors = [row.name for row in rows if row.status == "error"]
    assert errors == ["single_season_endpoints", "poincare_vs_monodromy", "flow_properties"]
    assert [row.name for row in rows] == [name for name, _ in verify_suite.CHECKS]
