import collections
import csv
import dataclasses
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import reference_json
from seasonthresh import cli, conditions, errors, floquet, simulate
from seasonthresh.cli import main, run_sweep
from seasonthresh.errors import ScenarioError
from seasonthresh.scenario import load_scenario, scenario_from_dict
from seasonthresh.verify_suite import run_verification

SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIOS = SRC.parent / "scenarios"
BUNDLED = ("insect_two_season", "insect_nonshared", "matrices_shared_eigenvector")

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

    @pytest.mark.parametrize("value, error, message", [
        # infinity passes the >= 0 check; it was refused only by InsectParams,
        # as an InvalidInputError that did not name the key
        (float("inf"), ScenarioError, "insect.piF.cJ: must be finite, got inf"),
        (float("-inf"), ScenarioError, "insect.piF.cJ: must be >= 0, got -inf"),
        (float("nan"), ScenarioError, "insect.piF.cJ: must be >= 0, got nan"),
        (-0.5, ScenarioError, "insect.piF.cJ: must be >= 0, got -0.5"),
        (True, ScenarioError, "insect.piF.cJ: expected a number"),
        ("1.0", ScenarioError, "insect.piF.cJ: expected a number"),
    ], ids=["inf", "minus_inf", "nan", "negative", "bool", "string"])
    def test_bad_insect_parameter_message_and_exit_code(self, tmp_path, capsys, value, error,
                                                         message):
        payload = json.loads(json.dumps(INSECT))
        payload["insect"]["piF"]["cJ"] = value
        scenario_path = write_scenario(tmp_path, payload)
        with pytest.raises(error) as caught:
            load_scenario(scenario_path)
        assert type(caught.value) is error
        assert str(caught.value) == message
        assert main(["threshold", "--scenario", str(scenario_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_huge_integer_insect_parameter_names_its_key(self, tmp_path, capsys):
        # a JSON integer beyond the float range passes the number checks and
        # used to raise an untyped OverflowError from float()
        payload = json.loads(json.dumps(INSECT))
        payload["insect"]["piF"]["cJ"] = 10**400
        scenario_path = write_scenario(tmp_path, payload)
        message = "insect.piF.cJ: too large for a float"
        with pytest.raises(ScenarioError) as caught:
            load_scenario(scenario_path)
        assert str(caught.value) == message
        assert main(["threshold", "--scenario", str(scenario_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("where, patch", [
        ("period_T", {"period_T": 10**400}),
        ("theta_grid", {"theta_grid": [0.0, 10**400]}),
        ("tolerances.ode_step", {"tolerances": {"ode_step": 10**400}}),
        ("matrices.m1", {"matrices": {"m1": [[10**400, 1.0], [1.0, -2.0]], "m2": MATRICES["matrices"]["m2"]}}),
    ], ids=["period_T", "theta_grid", "tolerances", "matrix"])
    def test_huge_integer_names_its_key(self, where, patch):
        with pytest.raises(ScenarioError, match=f"^{where}: "):
            scenario_from_dict({**MATRICES, **patch})

    @pytest.mark.parametrize("key", [
        "period_T", "tolerances.perron_tol", "tolerances.bisect_tol", "tolerances.ode_step",
        "tolerances.extinction_threshold", "tolerances.divergence_bound",
    ])
    def test_infinite_number_names_its_key(self, tmp_path, capsys, key):
        # the JSON reader turns 1e400 into inf, which passes the > 0 checks;
        # an inf extinction_threshold called a persistent orbit extinct
        payload = json.loads(json.dumps(INSECT))
        section, _, name = key.rpartition(".")
        (payload[section] if section else payload)[name] = "INFINITE"
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(payload).replace('"INFINITE"', "1e400"))
        message = f"{key}: must be finite, got inf"
        with pytest.raises(ScenarioError) as caught:
            load_scenario(scenario_path)
        assert str(caught.value) == message
        assert main(["poincare", "--scenario", str(scenario_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

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
        # one stacked pair for the grid, plus one for both seasons of shared_eigenvector
        assert calls.count("perron_pair") == 1 + 1

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
        # the pair's stiffest season eigenvalue at zero is -2.5, so the step
        # 2.5 puts h|lambda| = 6.25 past 2.785
        payload = {**INSECT, "period_T": 5000.0, "tolerances": {"ode_step": 2.5}}
        scenario_path = write_scenario(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--scenario", str(scenario_path), "--out", str(tmp_path)]) == 2
        assert "h*|lambda| = 6.25 exceeds its real stability bound 2.785" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["poincare", "simulate"])
    def test_default_step_past_the_budget_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                         command):
        # at T = 5000 the default step needs more than 2**19 steps a period:
        # refused before any pass, with the ode_step override named
        passes = []
        for name in ("_rk4", "_rk4_power", "_float_state_pass", "_float_joint_pass"):
            monkeypatch.setattr(simulate, name, lambda *args, _name=name: passes.append(_name))
        payload = {k: v for k, v in INSECT.items() if k != "tolerances"}
        scenario_path = write_scenario(tmp_path, {**payload, "period_T": 5000.0})
        started = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--scenario", str(scenario_path), "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - started < 1.0
        assert passes == []
        err = capsys.readouterr().err
        assert "steps a period" in err and "more than the budget of 524288" in err
        assert "ode_step" in err

    def test_poincare_overflow_is_typed_error(self, tmp_path, capsys):
        # at T = 800 the growing season of DP(0) passes double range at theta 0.2
        scenario_path = write_scenario(tmp_path, {**MATRICES, "period_T": 800.0})
        argv = ["poincare", "--scenario", str(scenario_path), "--out", str(tmp_path), "--theta", "0.2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert "RK4 propagator at zero overflowed double precision" in err

    @pytest.mark.parametrize("command", ["threshold", "check"])
    def test_unseparated_perron_solve_is_one_error_line(self, tmp_path, capsys, command):
        # at T = 1e-14 the monodromy is the identity to rounding, so the
        # Perron solve's ConvergenceError ends the run: one line, exit 2
        payload = json.loads((SCENARIOS / "insect_two_season.json").read_text())
        scenario_path = write_scenario(tmp_path, {**payload, "period_T": 1e-14})
        assert main([command, "--scenario", str(scenario_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dominant eigenvalue modulus is not separated")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("error", errors.ERRORS, ids=lambda error: error.__name__)
    def test_every_package_error_is_one_error_line(self, tmp_path, capsys, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("made to fail")

        monkeypatch.setattr(floquet, "find_threshold", fail)
        scenario_path = write_scenario(tmp_path, INSECT)
        assert main(["threshold", "--scenario", str(scenario_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: made to fail\n"

    def test_other_exceptions_propagate(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ZeroDivisionError("made to fail")

        monkeypatch.setattr(floquet, "find_threshold", fail)
        scenario_path = write_scenario(tmp_path, INSECT)
        with pytest.raises(ZeroDivisionError):
            main(["threshold", "--scenario", str(scenario_path), "--out", str(tmp_path)])

    def test_errors_lists_every_error_class(self):
        classes = {value for value in vars(errors).values()
                   if isinstance(value, type) and value.__module__ == errors.__name__}
        assert set(errors.ERRORS) == classes and len(errors.ERRORS) == len(classes)

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
        # a failed DP(0) leaves the row's spectral columns as plain floquet writes them
        spectral = tmp_path / "spectral"
        assert main(["floquet", "--scenario", str(scenario_path), "--out", str(spectral),
                     "--grid", "11"]) == 1
        plain = [line.split(",") for line in (spectral / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[:5] for row in rows] == [row[:5] for row in plain]
        for row in rows:
            if row[0] in overflowed:
                assert row[1] and row[2] and row[3] and row[4] in ("persistent", "extinct")
                assert row[5] == ""

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

    def test_split_descent_at_signed_zero_theta(self, tmp_path, capsys):
        # descent drew its random starts by numpy's uniform(0.0, -0.0), whose
        # untyped ValueError ended main in a traceback
        scenario_path = write_scenario(tmp_path, {**MATRICES, "split": {"K": 5, "resolution": 1}})
        out = tmp_path / "out"
        argv = ["split", "--scenario", str(scenario_path), "--out", str(out), "--theta", "-0.0"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        result = json.loads((out / "split.json").read_text())
        assert result["sigma"] == [0.0] * 5

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

    @pytest.mark.parametrize("command, value", [
        ("threshold", "-1"), ("threshold", "0"), ("threshold", "nan"), ("threshold", "inf"),
        ("poincare", "-1"),
    ])
    def test_bad_tol_flag(self, tmp_path, capsys, command, value):
        scenario_path = write_scenario(tmp_path, INSECT)
        out = tmp_path / "out"
        assert main([command, "--scenario", str(scenario_path), "--out", str(out),
                     "--tol", value]) == 2
        assert f"--tol must be a finite positive number, got {float(value)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "split"])
    def test_negative_seed_flag(self, tmp_path, capsys, command):
        scenario_path = write_scenario(tmp_path, {**INSECT, "split": {"K": 5}})
        out = tmp_path / "out"
        assert main([command, "--scenario", str(scenario_path), "--out", str(out),
                     "--seed", "-1"]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_threshold_one_point_grid_is_usage_error(self, tmp_path, capsys):
        # threshold reads only the grid's count; the error names the key the
        # user set, not find_threshold's grid_points
        scenario_path = write_scenario(tmp_path, {**INSECT, "theta_grid": [0.3]})
        out = tmp_path / "out"
        assert main(["threshold", "--scenario", str(scenario_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: theta_grid: threshold needs at least 2 points, got 1\n"
        assert not (out / "threshold.json").exists()
        assert main(["threshold", "--scenario", str(scenario_path), "--out", str(out), "--grid", "5"]) == 0

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


def step_lines(trajectory, rows=None) -> list:
    """trajectory.csv's data lines for the given rows of a trajectory (all
    of them by default): each value to 17 significant digits, then the season."""
    rows = range(len(trajectory.times)) if rows is None else rows
    return [
        ",".join([*(format(v, ".17g") for v in (trajectory.times[i], *trajectory.states[i])),
                  str(trajectory.season_tags[i])])
        for i in rows
    ]


class TestSimulateRows:
    """simulate writes the first and last rows, every k-th, and the season
    knots of the trajectory integrate returns, at most 256 rows a period
    besides the knots, each with its bytes."""

    @staticmethod
    def run(monkeypatch, tmp_path, capsys, scenario_path):
        """(the trajectory integrate returned, trajectory.csv's lines)."""
        returned = []
        integrate = simulate.integrate
        monkeypatch.setattr(simulate, "integrate",
                            lambda *args, **kwargs: returned.append(integrate(*args, **kwargs))
                            or returned[-1])
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert f"({len(lines) - 1} samples," in capsys.readouterr().out
        [trajectory] = returned
        return trajectory, lines

    def test_rows_are_integrate_rows_at_period_100(self, tmp_path, monkeypatch, capsys):
        # the default step takes ~18 700 steps a period here
        payload = {key: value for key, value in INSECT.items() if key != "tolerances"}
        scenario_path = write_scenario(tmp_path, {**payload, "period_T": 100.0})
        trajectory, lines = self.run(monkeypatch, tmp_path, capsys, scenario_path)
        assert lines[0] == "time,J,A,season"
        # a written time is the 17-digit form of a step's time, so it finds its row
        kept = np.searchsorted(trajectory.times, [float(line.split(",")[0]) for line in lines[1:]])
        assert step_lines(trajectory, kept) == lines[1:]
        kept = kept.tolist()
        steps = len(trajectory.times) - 1
        assert kept == sorted(set(kept))
        assert kept[0] == 0 and kept[-1] == steps
        tags = trajectory.season_tags
        changes = np.flatnonzero(tags[1:] != tags[:-1])
        # at theta and at the end of each period: the last row, at 10 T, has
        # the next period's first season
        assert len(changes) == 2 * cli.SIMULATE_PERIODS
        knots = {*changes.tolist(), *(changes + 1).tolist()}
        assert knots <= set(kept)
        periods = np.floor(trajectory.times / 100.0).astype(int)
        per_period = collections.Counter(periods[i] for i in kept if i not in knots)
        assert max(per_period[p] for p in range(cli.SIMULATE_PERIODS)) <= 256
        assert len(kept) <= 256 * cli.SIMULATE_PERIODS + len(knots) + 1 < steps // 50

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_scenarios_keep_every_row(self, tmp_path, monkeypatch, capsys, name):
        trajectory, lines = self.run(monkeypatch, tmp_path, capsys, SCENARIOS / f"{name}.json")
        assert lines[1:] == step_lines(trajectory)

    def test_knot_rows_kept_whichever_side_they_are_tagged(self):
        steps = 7 * cli.SIMULATE_PERIODS * 256  # a stride of 7
        tags = np.ones(steps + 1, dtype=int)
        tags[1000:3000] = 2  # row 1000 is tagged as the season it starts, 2999 as the one it ends
        kept = cli._kept_rows(tags).tolist()
        assert kept == sorted({*range(0, steps + 1, 7), 999, 1000, 2999, 3000, steps})
        assert cli._kept_rows(tags[:-1]).tolist()[-1] == steps - 1
        assert cli._kept_rows(tags[:1]).tolist() == [0]


@dataclasses.dataclass
class Leaf:
    label: str
    value: object


@dataclasses.dataclass(frozen=True)
class Node:
    children: tuple
    meta: dict


# strings the writer must escape as json.dumps does: quotes, backslashes,
# control characters, DEL, non-ASCII text and a lone surrogate
STRINGS = ["", "theta*", 'a "quoted" word', "back\\slash", "tab\there\nnew line",
           "\x00\x1f\x7f", "caf\u00e9 \u03b8* \u2264 \u03c1", "\U0001f41b", "\ud800"]
FLOATS = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
          0.1, 1.0 / 3.0, 1e16, 123456789.0, -2.5e-7, float("inf"), float("-inf"), float("nan")]
NUMPY_SCALARS = [np.float64, np.float32, np.float16, np.int8, np.int16, np.int32, np.int64,
                 np.uint8, np.uint16, np.uint32, np.uint64, np.bool_]


def random_leaf(rng):
    kind = int(rng.integers(8))
    if kind == 0:
        return FLOATS[rng.integers(len(FLOATS))] if rng.random() < 0.5 else \
            float(rng.normal() * 10.0 ** rng.integers(-300, 300))
    if kind == 1:
        return int(rng.integers(-10**6, 10**6)) * int(rng.choice([1, 2**40]))
    if kind == 2:
        return [True, False, None][rng.integers(3)]
    if kind == 3:
        return STRINGS[rng.integers(len(STRINGS))]
    if kind == 4:
        scalar = NUMPY_SCALARS[rng.integers(len(NUMPY_SCALARS))]
        value = FLOATS[rng.integers(len(FLOATS))] if scalar in (np.float64, np.float32, np.float16) \
            else rng.integers(0, 100)
        with np.errstate(over="ignore"):  # a large double is inf as a float32 or float16
            return scalar(value)
    if kind == 5:
        shape = [(0,), (5,), (2, 3), (1, 0)][rng.integers(4)]
        values = rng.normal(size=shape)
        if values.size and rng.random() < 0.3:
            values.flat[0] = FLOATS[rng.integers(len(FLOATS))]
        return values.astype([float, int, bool, np.float32][rng.integers(4)])
    # a float list, as margins and grids are, now and then with a bool or an int in it
    values = [float(v) for v in rng.normal(size=rng.integers(1, 6))]
    if rng.random() < 0.5:
        values.insert(int(rng.integers(len(values) + 1)), [True, 0, 7, -0.0][rng.integers(4)])
    return values


def random_payload(rng, depth=0):
    if depth >= 4 or rng.random() < 0.3:
        return random_leaf(rng)
    kind = int(rng.integers(5))
    children = [random_payload(rng, depth + 1) for _ in range(rng.integers(0, 4))]
    if kind == 0:
        return children
    if kind == 1:
        return tuple(children)
    if kind == 2:
        keys = [STRINGS[rng.integers(len(STRINGS))] + str(i) for i in range(len(children))]
        return dict(zip(keys, children))
    if kind == 3:
        return Leaf(STRINGS[rng.integers(len(STRINGS))], children[0] if children else None)
    return Node(tuple(children), {"depth": depth, 7: children[:1]})


class TestReportWriter:
    """_write_json writes the bytes of json.dumps(indent=2, sort_keys=True)."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_every_cli_payload_matches_json_dumps(self, tmp_path, monkeypatch, name, capsys):
        written = []
        write = cli._write_json
        monkeypatch.setattr(cli, "_write_json", lambda path, payload: written.append((path, payload))
                            or write(path, payload))
        scenario = str(SCENARIOS / f"{name}.json")
        for command in ("threshold", "check", "poincare", "split"):
            assert main([command, "--scenario", scenario, "--out", str(tmp_path)]) == 0
        assert main(["poincare", "--scenario", scenario, "--out", str(tmp_path / "low"),
                     "--theta", "0.3"]) == 0
        kinds = [type(payload) for _, payload in written]
        assert kinds == [floquet.ThresholdReport, list, simulate.PoincareResult, dict,
                         simulate.PoincareResult]
        assert {type(cert) for cert in written[1][1]} == {conditions.ConditionCertificate}
        for path, payload in written:
            assert path.read_text() == reference_json(payload)

    def test_random_payloads_match_json_dumps(self, tmp_path):
        rng = np.random.default_rng(18)
        path = tmp_path / "payload.json"
        for _ in range(300):
            payload = random_payload(rng)
            cli._write_json(path, payload)
            assert path.read_bytes() == reference_json(payload).encode()

    def test_empty_containers_and_edge_floats(self, tmp_path):
        payload = {"a": [], "b": {}, "c": (), "d": [-0.0, 5e-324, True, 1, 1.5],
                   "e": np.zeros((0, 2)), "f": Leaf("", [])}
        path = tmp_path / "payload.json"
        cli._write_json(path, payload)
        assert path.read_text() == reference_json(payload)
        assert '"a": [],' in path.read_text() and '"b": {},' in path.read_text()

    def test_non_finite_values_are_repr_strings(self, tmp_path):
        # a numpy scalar inf was written as a bare Infinity, which is not JSON
        payload = {"a": np.float64("inf"), "b": float("inf"), "c": np.float32("nan"),
                   "d": np.array([-np.inf, 1.0]), "e": [np.float64("-inf"), float("nan")]}
        path = tmp_path / "payload.json"
        cli._write_json(path, payload)
        assert json.loads(path.read_text()) == {
            "a": "inf", "b": "inf", "c": "nan", "d": ["-inf", 1.0], "e": ["-inf", "nan"],
        }
        assert "Infinity" not in path.read_text() and "NaN" not in path.read_text()

    @pytest.mark.parametrize("value", [np.longdouble(1.5), np.complex128(1j), 1j, object()])
    def test_what_json_cannot_write_is_a_type_error(self, tmp_path, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            reference_json([value])
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._write_json(tmp_path / "payload.json", [value])


class TestCsvWriter:
    """A CSV field holding a comma, a quote or a line break is quoted, its
    quotes doubled (RFC 4180), so csv.reader reads every row back whole."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_verify_rows_read_back_whole(self, tmp_path, name):
        path = SCENARIOS / f"{name}.json"
        assert main(["verify", "--scenario", str(path), "--out", str(tmp_path), "--seed", "0"]) == 0
        with open(tmp_path / "verify.csv", newline="") as f:
            rows = list(csv.reader(f))
        expected = [[r.name, r.status, r.detail] for r in run_verification(load_scenario(path), seed=0)]
        assert rows == [["check", "status", "detail"], *expected]
        assert "," in dict((row[0], row[2]) for row in rows)["timescale_limits"]

    def test_step_budget_errors_read_back_whole(self, tmp_path):
        # past the default step's budget, each row's error names the period
        # and the budget in one field that holds commas
        raw = json.loads((SCENARIOS / "insect_two_season.json").read_text())
        path = write_scenario(tmp_path, {**raw, "period_T": 3000.0})
        out = tmp_path / "out"
        assert main(["floquet", "--scenario", str(path), "--out", str(out),
                     "--with-simulation", "--grid", "11"]) == 1
        with open(out / "sweep.csv", newline="") as f:
            header, *rows = csv.reader(f)
        scenario = dataclasses.replace(load_scenario(path), theta_grid=tuple(np.linspace(0.0, 1.0, 11)))
        expected = [r.error for r in run_sweep(scenario, with_simulation=True)]
        assert len(rows) == 11 and all(len(row) == len(header) == 7 for row in rows)
        assert [row[-1] for row in rows] == expected
        assert any("more than the budget" in error and "," in error for error in expected)

    def test_quoting(self, tmp_path):
        fields = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", 1.5, None, -0.0]
        path = tmp_path / "rows.csv"
        cli._write_csv(path, ["h"] * len(fields), [fields])
        text = path.read_bytes().decode()
        assert text.splitlines()[1].startswith('plain,"a,b","say ""hi""","two')
        with open(path, newline="") as f:
            assert list(csv.reader(f))[1] == [*fields[:6], "1.5", "", "-0"]


class TestParserReuse:
    """One parser serves every cli.main call of a process, and keeps nothing
    from one call to the next."""

    JOBS = [
        ["floquet", "--with-simulation", "--grid", "6"],
        ["threshold", "--grid", "11", "--tol", "1e-8"],
        ["poincare", "--theta", "0.3", "--tol", "1e-10"],
        ["threshold", "--grid", "eleven"],  # argparse rejects it: exit 2
        ["floquet"],
        ["threshold"],
        ["check", "--grid", "7"],
    ]

    def test_each_call_matches_a_fresh_process(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
        scenario = str(SCENARIOS / "insect_nonshared.json")
        runs = {}
        for side in ("in_process", "fresh"):
            (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / "in_process")
        for i, job in enumerate(self.JOBS):
            argv = [*job, "--scenario", scenario, "--out", f"r{i}"]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            runs[i] = [(code, captured.out, captured.err)]
            done = subprocess.run(
                [sys.executable, "-m", "seasonthresh.cli", *argv], cwd=tmp_path / "fresh",
                env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
            )
            runs[i].append((done.returncode, done.stdout, done.stderr))
        assert [run[0][0] for run in runs.values()] == [0, 0, 0, 2, 0, 0, 0]
        for i, (in_process, fresh) in runs.items():
            assert in_process == fresh, self.JOBS[i]
            here, there = tmp_path / "in_process" / f"r{i}", tmp_path / "fresh" / f"r{i}"
            files = sorted(p.name for p in here.glob("*")) if here.exists() else []
            assert files == (sorted(p.name for p in there.glob("*")) if there.exists() else [])
            for name in files:
                assert (here / name).read_bytes() == (there / name).read_bytes(), (self.JOBS[i], name)
        assert "invalid int value: 'eleven'" in runs[3][0][2]
