"""rho, its derivatives and the CLI reports at extreme periods, and against a
50-digit oracle; the simulated period map and multiplier at long periods.

The insect pair of the bundled scenario shares its Perron eigenvector between
seasons, so theta* = 1/2 exactly at every period. Any numpy overflow or
invalid-value warning fails these tests.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from seasonthresh import (
    find_threshold,
    poincare_jacobian,
    poincare_map,
    rho,
    rho_prime,
    rho_second,
    simulate,
)
from seasonthresh.cli import main
from seasonthresh.linalg import spectral_radius
from seasonthresh.scenario import linearization_from_scenario, load_scenario, system_from_scenario

from conftest import random_metzler_pair

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PERIODS = (1e-6, 1e-4, 800.0)
# rho(0) = exp(T / 2) and rho(1) = exp(-T / 2) leave double range: only log rho
# is finite over the whole grid
LONG_PERIODS = (5000.0, 1e4)

INSECT = {
    "mode": "insect",
    "insect": {
        "piU": {"b": 1.0, "h": 0.5, "dJ": 1.0, "cJ": 1.0, "dA": 1.0},
        "piF": {"b": 2.0, "h": 1.0, "dJ": 0.5, "cJ": 1.0, "dA": 0.5},
    },
}


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run_cli(tmp_path, command, period):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**INSECT, "period_T": period}))
    return main([command, "--scenario", str(path), "--out", str(tmp_path)])


@pytest.mark.parametrize("period", PERIODS + LONG_PERIODS)
def test_threshold_is_one_half(insect_linearization, period):
    report = find_threshold(insect_linearization.with_period(period))
    assert report.regime == "interior_root"
    assert abs(report.theta_star - 0.5) <= 1e-9


@pytest.mark.parametrize("period", PERIODS)
def test_check_certifies_insect_threshold(tmp_path, period):
    assert run_cli(tmp_path, "check", period) == 0
    certs = {c["condition"]: c for c in json.loads((tmp_path / "certificates.json").read_text())}
    assert certs["insect_threshold"]["holds"]


@pytest.mark.parametrize("period", PERIODS[:2])
def test_floquet_sweep_has_no_row_errors(tmp_path, period):
    assert run_cli(tmp_path, "floquet", period) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 102
    assert all(line.endswith(",") for line in lines[1:])


@pytest.mark.parametrize("period", LONG_PERIODS)
def test_threshold_command_at_long_periods(tmp_path, period):
    assert run_cli(tmp_path, "threshold", period) == 0
    report = json.loads((tmp_path / "threshold.json").read_text())
    assert report["regime"] == "interior_root"
    assert abs(report["theta_star"] - 0.5) <= 1e-9


@pytest.mark.parametrize("period", LONG_PERIODS)
@pytest.mark.parametrize("name", ["insect_two_season", "insect_nonshared"])
def test_check_at_long_periods_keeps_the_verdicts(tmp_path, name, period):
    # no certificate reads rho; where the monodromies leave double range the
    # cycle-matrix certificates read the shifted products, a positive
    # multiple of them, and say so
    certs = {}
    for t in (800.0, period):
        raw = json.loads((SCENARIOS / f"{name}.json").read_text())
        out = tmp_path / f"T{t:g}"
        out.mkdir()
        (out / "scenario.json").write_text(json.dumps({**raw, "period_T": t}))
        assert main(["check", "--scenario", str(out / "scenario.json"), "--out", str(out)]) == 0
        certs[t] = {c["condition"]: c for c in json.loads((out / "certificates.json").read_text())}
    assert {k: c["holds"] for k, c in certs[period].items()} == {
        k: c["holds"] for k, c in certs[800.0].items()
    }
    assert "column_gaps_of" not in certs[800.0]["left_order"]["details"]
    for condition in ("left_order", "insect_threshold"):
        assert certs[period][condition]["details"]["column_gaps_of"] == "shifted_products"


@pytest.mark.parametrize("period", LONG_PERIODS)
def test_floquet_rows_in_double_range_are_right(tmp_path, period):
    # log rho = T (1/2 - theta) on the shared pair, to 1e-10 absolute at these
    # periods; a row whose rho or derivatives leave double range carries a
    # typed error instead
    assert run_cli(tmp_path, "floquet", period) == 1
    rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    good = [row for row in rows if not row[5]]
    assert len(good) >= 10
    for row in rows:
        theta, log_rho = float(row[0]), period * (0.5 - float(row[0]))
        if row[5]:
            assert row[5].startswith("InvalidInputError") and "double precision range" in row[5]
            assert abs(log_rho) > 700.0
        else:
            assert float(row[1]) == pytest.approx(np.exp(log_rho), rel=1e-10)
            assert float(row[2]) == pytest.approx(-period * np.exp(log_rho), rel=1e-10)


class TestMpmathOracle:
    """rho, rho' and rho'' on random Metzler pairs against 50-digit arithmetic."""

    def oracle(self, mp, lin, theta):
        """(rho, V, V*) of the monodromy with ||V|| = 1 and <V, V*> = 1."""
        t = mp.mpf(lin.period_T)
        theta = mp.mpf(theta)
        m = mp.expm((1 - theta) * t * mp.matrix(lin.m2.tolist())) * mp.expm(
            theta * t * mp.matrix(lin.m1.tolist())
        )
        values, left, right = mp.eig(m, left=True, right=True)
        k = max(range(len(values)), key=lambda i: abs(values[i]))
        v = right[:, k]
        v = v / (mp.norm(v) * mp.sign(mp.re(v[0])))
        w = left[k, :].T
        w = w / (v.T * w)[0]
        return mp.re(values[k]), v, w

    def test_random_pairs(self):
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 50
        rng = np.random.default_rng(61)
        for n in (2, 3, 4):
            for _ in range(4):
                lin = random_metzler_pair(rng, n)
                s = mp.matrix(lin.s.tolist())
                for theta in (0.2, 0.5, 0.8):
                    value, v, w = self.oracle(mp, lin, theta)
                    prime = lin.period_T * value * mp.re((v.T * s.T * w)[0])
                    h = mp.mpf("1e-12")
                    second = (
                        self.oracle(mp, lin, theta + h)[0] - 2 * value + self.oracle(mp, lin, theta - h)[0]
                    ) / h**2
                    for got, ref in (
                        (rho(lin, theta)[0], value),
                        (rho_prime(lin, theta), prime),
                        (rho_second(lin, theta), second),
                    ):
                        ref = float(ref)
                        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (n, theta, got, ref)


def bundled(name, period):
    return dataclasses.replace(load_scenario(SCENARIOS / f"{name}.json"), period_T=period)


class TestSimulationAtLongPeriods:
    """The default RK4 step against a finer pass and the spectral multiplier
    where the season lengths dwarf the rates: the step follows stiffness and
    growth, not the period."""

    def test_period_map_at_period_800(self):
        # both seasons run to their equilibria: P(1, 1) is the favorable one,
        # (3.4, 8.84); T / 2000 gives (1.010, 5.890). The reference is RK4 at a
        # 16 times finer step (DOP853 blows up at this period)
        system = system_from_scenario(bundled("insect_nonshared", 800.0), 0.4)
        x = np.ones(2)
        step = simulate._default_step(system, None, x)
        mapped = poincare_map(system, x)
        reference = poincare_map(system, x, step=step / 16)
        assert np.abs(mapped - reference).max() <= 1e-6
        assert np.abs(mapped - (3.4, 8.84)).max() <= 1e-6

    # the thetas whose DP(0) factors stay in double range at each period
    @pytest.mark.parametrize("name", ["insect_two_season", "insect_nonshared"])
    @pytest.mark.parametrize("period, thetas", [
        (800.0, np.linspace(0.0, 1.0, 11)), (2000.0, (0.5, 0.6, 0.7)),
    ])
    def test_insect_multiplier_matches_rho(self, name, period, thetas):
        self.multiplier_matches_rho(bundled(name, period), thetas)

    @pytest.mark.parametrize("period", [30.0, 100.0])
    def test_matrices_multiplier_matches_rho(self, period):
        # growth at rate 2 over the period: T / 2000 is 2.7e-7 (T = 30) and
        # 1.1e-4 (T = 100) off at theta 0.3
        self.multiplier_matches_rho(bundled("matrices_shared_eigenvector", period),
                                    np.linspace(0.0, 1.0, 11))

    @staticmethod
    def multiplier_matches_rho(scenario, thetas):
        lin = linearization_from_scenario(scenario)
        for th in thetas:
            system = system_from_scenario(scenario, th)
            lam = spectral_radius(poincare_jacobian(system, np.zeros(2)))
            reference = rho(lin, th)[0]
            assert abs(lam - reference) <= 1e-6 * reference, (th, lam, reference)
