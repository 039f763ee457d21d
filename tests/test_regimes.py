"""rho, its derivatives and the CLI reports at extreme periods, and against a
50-digit oracle.

The insect pair of the bundled scenario shares its Perron eigenvector between
seasons, so theta* = 1/2 exactly at every period. Any numpy overflow or
invalid-value warning fails these tests.
"""

import json

import numpy as np
import pytest

from seasonthresh import find_threshold, rho, rho_prime, rho_second
from seasonthresh.cli import main

from conftest import random_metzler_pair

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PERIODS = (1e-6, 1e-4, 800.0)

INSECT = {
    "mode": "insect",
    "insect": {
        "piU": {"b": 1.0, "h": 0.5, "dJ": 1.0, "cJ": 1.0, "dA": 1.0},
        "piF": {"b": 2.0, "h": 1.0, "dJ": 0.5, "cJ": 1.0, "dA": 0.5},
    },
}


def run_cli(tmp_path, command, period):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**INSECT, "period_T": period}))
    return main([command, "--scenario", str(path), "--out", str(tmp_path)])


@pytest.mark.parametrize("period", PERIODS)
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
