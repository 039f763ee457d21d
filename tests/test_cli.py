import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from seasonthresh import cli, floquet, simulate
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

# one JSON true per numeric scenario key, each of which must be rejected
BOOLEAN_VALUES = [
    ("period_T", {"period_T": True}),
    ("theta", {"theta": True}),
    ("theta_grid", {"theta_grid": [0.0, True, 1.0]}),
    *[(f"tolerances.{name}", {"tolerances": {name: True}}) for name in
      ("perron_tol", "bisect_tol", "ode_step", "extinction_threshold", "divergence_bound")],
    ("split.K", {"split": {"K": True}}),
    ("split.resolution", {"split": {"resolution": True}}),
]


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

    @pytest.mark.parametrize("where, patch", [
        pytest.param(where, patch, id=where) for where, patch in BOOLEAN_VALUES
    ])
    def test_json_boolean_is_not_a_number(self, where, patch):
        # bool subclasses int in Python, so a bare isinstance check reads true as 1
        with pytest.raises(ScenarioError, match=where):
            scenario_from_dict({**MATRICES, **patch})

    @pytest.mark.parametrize("section, value", [
        ("tolerances", 1), ("split", True), ("insect", 3), ("matrices", 3),
    ])
    def test_non_object_section_is_usage_error(self, tmp_path, capsys, section, value):
        base = MATRICES if section == "matrices" else INSECT
        scenario_path = write_scenario(tmp_path, {**base, section: value})
        assert main(["threshold", "--scenario", str(scenario_path), "--out", str(tmp_path)]) == 2
        assert f"{section}: expected an object" in capsys.readouterr().err

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
        # one stacked pair for the 7 rows
        assert len(calls) == 1


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

    @pytest.mark.parametrize("payload, monodromies", [(MATRICES, 0), (INSECT, 0)])
    def test_check_evaluates_its_grid_once(self, tmp_path, monkeypatch, payload, monodromies):
        # one profile on the 7-point grid; the insect certificate's stage-8
        # column-sum cross-check reads the profile's cycle matrices
        calls = []
        for module, name in ((floquet, "monodromy"), (floquet, "perron_pair")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        scenario_path = write_scenario(tmp_path, payload)
        assert main(["check", "--scenario", str(scenario_path), "--out", str(tmp_path),
                     "--grid", "7"]) == 0
        assert calls.count("monodromy") == monodromies
        # one stacked pair for the grid, plus one per season for shared_eigenvector
        assert calls.count("perron_pair") == 1 + 2

    def test_floquet_with_simulation_is_one_pass(self, tmp_path, monkeypatch):
        lanes = []
        original = simulate._rk4

        def counted(system, x, *args):
            lanes.append(len(x))
            return original(system, x, *args)

        monkeypatch.setattr(simulate, "_rk4", counted)
        scenario_path = write_scenario(tmp_path, INSECT)
        argv = ["floquet", "--scenario", str(scenario_path), "--out", str(tmp_path),
                "--with-simulation", "--grid", "6"]
        assert main(argv) == 0
        assert lanes == []
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 6 and all(row.split(",")[5] for row in rows)

    @pytest.mark.parametrize("command", ["poincare", "simulate"])
    def test_unstable_rk4_step_is_usage_error(self, tmp_path, capsys, command):
        # the pair's stiffest season eigenvalue at zero is -2.5, so the default
        # step T / 2000 = 2.5 at T = 5000 puts h|lambda| = 6.25 past 2.785
        payload = {k: v for k, v in INSECT.items() if k != "tolerances"}
        scenario_path = write_scenario(tmp_path, {**payload, "period_T": 5000.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--scenario", str(scenario_path), "--out", str(tmp_path)]) == 2
        assert "h*|lambda| = 6.25 exceeds its real stability bound 2.785" in capsys.readouterr().err

    def test_poincare_overflow_is_typed_error(self, tmp_path, capsys):
        # at T = 800 the growing season of DP(0) passes double range at theta 0.2
        scenario_path = write_scenario(tmp_path, {**MATRICES, "period_T": 800.0})
        argv = ["poincare", "--scenario", str(scenario_path), "--out", str(tmp_path), "--theta", "0.2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert "RK4 propagator at zero overflowed double precision" in err

    def test_floquet_overflow_fails_only_its_row(self, tmp_path, monkeypatch):
        # the spectral side works at theta 0.4-0.9 at T = 800, but the DP(0) of
        # the 0.4 and 0.5 rows overflows; the system of the theta 0.7 row gets
        # period 1600, whose DP(0) overflows too
        original = cli.system_from_scenario

        def system_from_scenario(scenario, theta):
            if abs(theta - 0.7) < 1e-9:
                scenario = dataclasses.replace(scenario, period_T=1600.0)
            return original(scenario, theta)

        monkeypatch.setattr(cli, "system_from_scenario", system_from_scenario)
        scenario_path = write_scenario(tmp_path, {**MATRICES, "period_T": 800.0})
        argv = ["floquet", "--scenario", str(scenario_path), "--out", str(tmp_path),
                "--with-simulation", "--grid", "11"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        overflowed = [row[0] for row in rows if "RK4 propagator" in row[6]]
        assert overflowed == ["0.40000000000000002", "0.5", "0.70000000000000007"]
        assert [row[0] for row in rows if row[5]] == [
            "0.60000000000000009", "0.80000000000000004", "0.90000000000000002"
        ]

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

    def test_split_k3_at_a_drift_theta(self, tmp_path):
        bundled = Path(__file__).resolve().parents[1] / "scenarios" / "insect_two_season.json"
        payload = dict(json.loads(bundled.read_text()), split={"K": 3, "resolution": 6})
        scenario_path = write_scenario(tmp_path, payload)
        out = tmp_path / "out"
        argv = ["split", "--scenario", str(scenario_path), "--out", str(out), "--theta", "0.2"]
        assert main(argv) == 0
        result = json.loads((out / "split.json").read_text())
        assert all(0.0 <= f <= 1.0 for f in result["sigma"] + result["sigma_prime"])

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

    def test_threshold_one_point_grid_is_usage_error(self, tmp_path, capsys):
        scenario_path = write_scenario(tmp_path, {**INSECT, "theta_grid": [0.3]})
        out = tmp_path / "out"
        assert main(["threshold", "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert "grid_points must be >= 2, got 1" in capsys.readouterr().err
        assert not (out / "threshold.json").exists()

    @pytest.mark.parametrize("scenario, flow_status", [
        ("matrices", "info"), ("insect_two_season", "pass"), ("insect_nonshared", "pass"),
    ])
    def test_verify_command(self, tmp_path, scenario, flow_status):
        # the insect scenarios take the flow-property pass
        if scenario == "matrices":
            scenario_path = write_scenario(tmp_path, MATRICES)
        else:
            scenario_path = Path(__file__).resolve().parents[1] / "scenarios" / f"{scenario}.json"
        out = tmp_path / "out"
        assert main(["verify", "--scenario", str(scenario_path), "--out", str(out),
                     "--seed", "1"]) == 0
        lines = (out / "verify.csv").read_text().splitlines()
        assert lines[0] == "check,status,detail"
        rows = dict(line.split(",")[:2] for line in lines[1:])
        assert len(rows) == len(lines) - 1 == 12
        assert set(rows.values()) <= {"pass", "fail", "info"}
        assert "fail" not in rows.values()
        assert rows["flow_properties"] == flow_status

    def test_theta_override(self, tmp_path):
        scenario_path = write_scenario(tmp_path, INSECT)
        out = tmp_path / "out"
        assert main(["poincare", "--scenario", str(scenario_path), "--out", str(out),
                     "--theta", "0.75"]) == 0
        result = json.loads((out / "poincare.json").read_text())
        assert result["classification"] == "extinction"
