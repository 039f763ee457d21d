import json

import numpy as np
import pytest

from seasonthresh import floquet
from seasonthresh.cli import main, run_sweep
from seasonthresh.errors import ScenarioError
from seasonthresh.scenario import (
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

INSECT = {
    "mode": "insect",
    "period_T": 1.0,
    "insect": {
        "piU": {"b": 1.0, "h": 0.5, "dJ": 1.0, "cJ": 1.0, "dA": 1.0},
        "piF": {"b": 2.0, "h": 1.0, "dJ": 0.5, "cJ": 1.0, "dA": 0.5},
    },
    "theta": 0.4,
    "tolerances": {"ode_step": 0.002},
}

MATRICES = {
    "mode": "matrices",
    "matrices": {
        "m1": [[-2.0, 1.0], [1.0, -2.0]],
        "m2": [[1.0, 1.0], [1.0, 1.0]],
    },
    "theta": 0.5,
    "split": {"K": 2, "resolution": 20, "mode": "max"},
}


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestLoadScenario:
    def test_minimal_insect_defaults(self, tmp_path):
        payload = {k: v for k, v in INSECT.items() if k in ("mode", "insect")}
        scenario = load_scenario(write_scenario(tmp_path, payload))
        assert scenario.mode == "insect"
        assert scenario.period_T == 1.0
        assert len(scenario.theta_grid) == 101
        assert scenario.tolerances.perron_tol == 1e-12
        assert scenario.pi_favorable.b == 2.0

    def test_matrices_mode(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, MATRICES))
        assert scenario.mode == "matrices"
        assert scenario.pi_unfavorable is None
        m1, m2 = scenario.matrix_pair()
        assert m1.shape == (2, 2)

    def test_negative_parameter_names_key(self, tmp_path):
        payload = json.loads(json.dumps(INSECT))
        payload["insect"]["piU"]["dA"] = -0.5
        with pytest.raises(ScenarioError, match="insect.piU.dA"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_both_sections_rejected(self, tmp_path):
        payload = dict(INSECT)
        payload["matrices"] = MATRICES["matrices"]
        with pytest.raises(ScenarioError, match="exactly one"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_neither_section_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, {"mode": "insect"}))

    def test_unknown_key_named(self, tmp_path):
        payload = dict(INSECT)
        payload["extraneous"] = 1
        with pytest.raises(ScenarioError, match="extraneous"):
            load_scenario(write_scenario(tmp_path, payload))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "absent.json")

    def test_explicit_grid_list(self, tmp_path):
        payload = dict(INSECT)
        payload["theta_grid"] = [0.0, 0.5, 1.0]
        scenario = load_scenario(write_scenario(tmp_path, payload))
        assert scenario.theta_grid == (0.0, 0.5, 1.0)

    def test_round_trip_is_value_identical(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, INSECT))
        again = scenario_from_dict(scenario_to_dict(scenario))
        assert again == scenario

    def test_matrices_round_trip(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, MATRICES))
        again = scenario_from_dict(scenario_to_dict(scenario))
        assert again == scenario


class TestRunSweep:
    def test_insect_rows_decreasing(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, INSECT))
        rows = run_sweep(scenario)
        assert len(rows) == 101
        assert all(r.error == "" for r in rows)
        values = [r.rho for r in rows]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_equal_matrices_constant_rho(self, tmp_path):
        payload = {
            "mode": "matrices",
            "matrices": {"m1": [[0.0, 1.0], [1.0, 0.0]], "m2": [[0.0, 1.0], [1.0, 0.0]]},
            "theta_grid": 11,
        }
        scenario = load_scenario(write_scenario(tmp_path, payload))
        rows = run_sweep(scenario)
        values = np.array([r.rho for r in rows])
        assert np.abs(values - values[0]).max() <= 1e-12

    def test_endpoint_grid_matches_single_season(self, tmp_path):
        payload = dict(INSECT)
        payload["theta_grid"] = [0.0, 1.0]
        scenario = load_scenario(write_scenario(tmp_path, payload))
        rows = run_sweep(scenario)
        assert rows[0].rho == pytest.approx(np.exp(0.5), rel=1e-11)
        assert rows[1].rho == pytest.approx(np.exp(-0.5), rel=1e-11)

    def test_one_perron_pair_per_row(self, tmp_path, monkeypatch):
        calls = []
        original = floquet.perron_pair

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(floquet, "perron_pair", counted)
        scenario = load_scenario(write_scenario(tmp_path, {**INSECT, "theta_grid": 7}))
        rows = run_sweep(scenario)
        assert all(r.error == "" and r.rho_second is not None for r in rows)
        assert len(calls) == 7


class TestCommands:
    def test_threshold_command(self, tmp_path, capsys):
        scenario_path = write_scenario(tmp_path, INSECT)
        out = tmp_path / "out"
        assert main(["threshold", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        report = json.loads((out / "threshold.json").read_text())
        assert report["regime"] == "interior_root"
        assert 0.0 < report["theta_star"] < 1.0
        assert "theta*" in capsys.readouterr().out

    def test_threshold_determinism(self, tmp_path):
        scenario_path = write_scenario(tmp_path, INSECT)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["threshold", "--scenario", str(scenario_path), "--out", str(out1)])
        main(["threshold", "--scenario", str(scenario_path), "--out", str(out2)])
        assert (out1 / "threshold.json").read_bytes() == (out2 / "threshold.json").read_bytes()

    def test_floquet_sweep_determinism(self, tmp_path):
        scenario_path = write_scenario(tmp_path, INSECT)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["floquet", "--scenario", str(scenario_path), "--grid", "21"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        header = (out1 / "sweep.csv").read_text().splitlines()[0]
        assert header == "theta,rho,rho_prime,rho_second,classification,error"

    def test_check_command(self, tmp_path):
        scenario_path = write_scenario(tmp_path, INSECT)
        out = tmp_path / "out"
        assert main(["check", "--scenario", str(scenario_path), "--out", str(out),
                     "--grid", "11"]) == 0
        certs = {c["condition"]: c for c in json.loads((out / "certificates.json").read_text())}
        assert certs["hyp_parameters"]["holds"] is True
        assert certs["hyp_alternative"]["holds"] is False
        assert certs["insect_threshold"]["holds"] is True
        assert certs["decrease_left"]["holds"] is True
        assert certs["left_order"]["holds"] is True

    def test_check_command_matrices_mode(self, tmp_path):
        scenario_path = write_scenario(tmp_path, MATRICES)
        out = tmp_path / "out"
        assert main(["check", "--scenario", str(scenario_path), "--out", str(out),
                     "--grid", "11"]) == 0
        certs = {c["condition"]: c for c in json.loads((out / "certificates.json").read_text())}
        # the sample pair shares eigenvectors and its cycle matrix is symmetric,
        # so the left-order certificate sits exactly on its boundary
        assert certs["shared_eigenvector"]["holds"] is True
        assert certs["decrease_left"]["holds"] is True
        assert certs["left_order"]["holds"] is False
        assert "hyp_parameters" not in certs

    def test_simulate_command(self, tmp_path):
        scenario_path = write_scenario(tmp_path, INSECT)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "time,J,A,season"
        assert len(lines) > 100

    def test_poincare_command(self, tmp_path):
        scenario_path = write_scenario(tmp_path, INSECT)
        out = tmp_path / "out"
        assert main(["poincare", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        result = json.loads((out / "poincare.json").read_text())
        assert result["classification"] == "periodic_positive"
        assert result["multiplier_lambda"] > 1.0

    def test_split_command(self, tmp_path):
        scenario_path = write_scenario(tmp_path, MATRICES)
        out = tmp_path / "out"
        assert main(["split", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        payload = json.loads((out / "split.json").read_text())
        assert payload["K"] == 2
        assert payload["rho"] > 0.0
        assert len(payload["sigma"]) == 2

    def test_row_errors_give_exit_code_one(self, tmp_path):
        # the exponential overflows at this period: rows record the failure
        payload = {
            "mode": "matrices",
            "period_T": 2000.0,
            "matrices": {"m1": [[0.0, 1.0], [1.0, 0.0]], "m2": [[0.0, 1.0], [1.0, 0.0]]},
            "theta_grid": 5,
        }
        scenario_path = write_scenario(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["floquet", "--scenario", str(scenario_path), "--out", str(out)]) == 1
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 6
        assert any("Error" in line for line in lines[1:])

    def test_missing_theta_is_usage_error(self, tmp_path):
        payload = {k: v for k, v in INSECT.items() if k != "theta"}
        scenario_path = write_scenario(tmp_path, payload)
        assert main(["poincare", "--scenario", str(scenario_path), "--out", str(tmp_path)]) == 2

    def test_missing_scenario_file(self, tmp_path):
        assert main(["threshold", "--scenario", str(tmp_path / "nope.json")]) == 2

    def test_bad_grid_flag(self, tmp_path):
        scenario_path = write_scenario(tmp_path, INSECT)
        assert main(["floquet", "--scenario", str(scenario_path), "--grid", "1"]) == 2

    def test_verify_command(self, tmp_path):
        scenario_path = write_scenario(tmp_path, MATRICES)
        out = tmp_path / "out"
        assert main(["verify", "--scenario", str(scenario_path), "--out", str(out),
                     "--seed", "1"]) == 0
        lines = (out / "verify.csv").read_text().splitlines()
        assert lines[0] == "check,status,detail"
        statuses = {line.split(",")[1] for line in lines[1:]}
        assert statuses <= {"pass", "fail", "info"}
        assert "fail" not in statuses

    def test_theta_override(self, tmp_path):
        scenario_path = write_scenario(tmp_path, INSECT)
        out = tmp_path / "out"
        assert main(["poincare", "--scenario", str(scenario_path), "--out", str(out),
                     "--theta", "0.75"]) == 0
        result = json.loads((out / "poincare.json").read_text())
        assert result["classification"] == "extinction"
