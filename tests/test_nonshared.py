"""The bundled insect pair whose seasons share no Perron eigenvector.

Its favorable hatching rate h = 1.3 (1.0 in insect_two_season.json) moves the
favorable season's eigenvectors off the unfavorable one's, so theta* is no
longer the closed-form 1/2 and every layer takes its generic path.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from seasonthresh import simulate
from seasonthresh.cli import main
from seasonthresh.scenario import linearization_from_scenario, load_scenario, system_from_scenario

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "insect_nonshared.json"
THETA_STAR = 0.5421413039  # scipy expm + brentq


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(SCENARIO)


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_check_certifies_threshold_without_shared_eigenvector(tmp_path):
    assert main(["check", "--scenario", str(SCENARIO), "--out", str(tmp_path)]) == 0
    certs = {c["condition"]: c for c in json.loads((tmp_path / "certificates.json").read_text())}
    assert certs["shared_eigenvector"]["holds"] is False
    assert certs["insect_threshold"]["holds"] is True


def test_threshold_matches_scipy_oracle(tmp_path, scenario):
    linalg = pytest.importorskip("scipy.linalg")
    optimize = pytest.importorskip("scipy.optimize")
    lin = linearization_from_scenario(scenario)

    def log_rho(theta):
        m = linalg.expm((1.0 - theta) * lin.m2) @ linalg.expm(theta * lin.m1)
        return np.log(np.abs(np.linalg.eigvals(m)).max())

    oracle = optimize.brentq(log_rho, 0.0, 1.0, xtol=1e-14)
    assert abs(oracle - THETA_STAR) <= 1e-9
    assert main(["threshold", "--scenario", str(SCENARIO), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "threshold.json").read_text())
    assert report["regime"] == "interior_root"
    assert abs(report["theta_star"] - oracle) <= 1e-9


def test_empirical_threshold_reads_the_variational_multiplier(monkeypatch, scenario):
    calls = count_calls(monkeypatch, simulate, "poincare_map")
    family = lambda th: system_from_scenario(scenario, th)
    value = simulate.empirical_threshold(family, [0.0, 0.25, 0.5, 0.75, 1.0], tol=0.005)
    assert abs(value - THETA_STAR) <= 0.02
    assert calls == []


def test_flow_properties_take_one_pass_per_state(monkeypatch, scenario):
    # n = 2: one pass of the one system, one stack row per state: P and DP
    # at the 7 sample states (0, e1, e2 and 4 positive) and at both ends of
    # the 6 ordered pairs
    rows = []
    original = simulate._rk4

    def counted(system, x, *args):
        rows.append(len(x))
        return original(system, x, *args)

    monkeypatch.setattr(simulate, "_rk4", counted)
    report = simulate.verify_flow_properties(system_from_scenario(scenario, scenario.theta),
                                             step=1.0 / 500)
    assert report.all_ok
    assert rows == [1 + 2 + 4 + 12]
