"""Scenario files: the JSON surface of the command-line toolkit.

Schema (all keys optional unless noted):

    {
      "mode": "insect" | "matrices",            # required
      "period_T": 1.0,
      "insect":   {"piU": {"b","h","dJ","cJ","dA"}, "piF": {...}},
      "matrices": {"m1": [[...], ...], "m2": [[...], ...]},
      "theta": 0.5,
      "theta_grid": 101 | [0.0, 0.01, ...],
      "tolerances": {"perron_tol", "bisect_tol", "ode_step",
                     "extinction_threshold", "divergence_bound"},
      "split": {"K", "resolution", "mode"}
    }

Exactly one of "insect" / "matrices" must be populated and must agree with
"mode". Defaults: period 1, a 101-point uniform theta grid, and the module
tolerances. "perron_tol" bounds the two-sided residual of every Perron
eigen-solve, measured on the monodromy divided by its largest entry.

`linearization_from_scenario` and `system_from_scenario` build the models a
scenario describes: the two-season linearization at zero and the seasonal
system at a given theta.
"""

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ScenarioError
from .floquet import TwoSeasonLinearization
from .insect import InsectParams, as_seasonal_system, jacobian
from .seasonal import AutonomousPiece, SeasonalSchedule, SeasonalSystem

_PARAM_KEYS = ("b", "h", "dJ", "cJ", "dA")
_TOP_KEYS = {"mode", "period_T", "insect", "matrices", "theta", "theta_grid", "tolerances", "split"}
_TOL_KEYS = {"perron_tol", "bisect_tol", "ode_step", "extinction_threshold", "divergence_bound"}
_SPLIT_KEYS = {"K", "resolution", "mode"}


@dataclass(frozen=True)
class Tolerances:
    perron_tol: float = 1e-12
    bisect_tol: float = 1e-10
    ode_step: float | None = None
    extinction_threshold: float = 1e-9
    divergence_bound: float = 1e9


@dataclass(frozen=True)
class SplitSettings:
    k: int = 2
    resolution: int = 50
    mode: str = "max"


@dataclass(frozen=True)
class Scenario:
    mode: str
    period_T: float = 1.0
    pi_unfavorable: InsectParams | None = None
    pi_favorable: InsectParams | None = None
    m1: tuple | None = None
    m2: tuple | None = None
    theta: float | None = None
    theta_grid: tuple = field(default_factory=lambda: tuple(np.linspace(0.0, 1.0, 101)))
    tolerances: Tolerances = field(default_factory=Tolerances)
    split: SplitSettings = field(default_factory=SplitSettings)

    def grid_array(self) -> np.ndarray:
        return np.asarray(self.theta_grid, dtype=float)

    def matrix_pair(self) -> tuple[np.ndarray, np.ndarray]:
        if self.mode != "matrices":
            raise ScenarioError("matrix_pair() requires matrices mode")
        return np.asarray(self.m1, dtype=float), np.asarray(self.m2, dtype=float)


def _require(condition: bool, message: str):
    if not condition:
        raise ScenarioError(message)


def _check_keys(mapping: dict, allowed: set, where: str):
    unknown = set(mapping) - allowed
    _require(not unknown, f"{where}: unknown key(s) {sorted(unknown)}")


def _parse_params(raw: dict, where: str) -> InsectParams:
    _require(isinstance(raw, dict), f"{where}: expected an object")
    _check_keys(raw, set(_PARAM_KEYS), where)
    missing = [k for k in _PARAM_KEYS if k not in raw]
    _require(not missing, f"{where}: missing key(s) {missing}")
    values = {}
    for key in _PARAM_KEYS:
        value = raw[key]
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 f"{where}.{key}: expected a number")
        _require(value >= 0.0, f"{where}.{key}: must be >= 0, got {value}")
        values[key] = float(value)
    return InsectParams(**values)


def _parse_matrix(raw, where: str) -> tuple:
    try:
        m = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: not a numeric matrix ({exc})") from exc
    _require(m.ndim == 2 and m.shape[0] == m.shape[1] and m.shape[0] >= 1,
             f"{where}: must be a square matrix, got shape {m.shape}")
    _require(bool(np.all(np.isfinite(m))), f"{where}: entries must be finite")
    return tuple(tuple(float(x) for x in row) for row in m)


def scenario_from_dict(raw: dict) -> Scenario:
    _require(isinstance(raw, dict), "scenario: top level must be an object")
    _check_keys(raw, _TOP_KEYS, "scenario")
    _require("mode" in raw, "scenario: missing key 'mode'")
    mode = raw["mode"]
    _require(mode in ("insect", "matrices"), f"mode: must be 'insect' or 'matrices', got {mode!r}")

    has_insect = "insect" in raw and raw["insect"] is not None
    has_matrices = "matrices" in raw and raw["matrices"] is not None
    _require(has_insect != has_matrices, "scenario: exactly one of 'insect'/'matrices' must be populated")
    _require((mode == "insect") == has_insect, f"mode: '{mode}' does not match the populated section")

    period = raw.get("period_T", 1.0)
    _require(isinstance(period, (int, float)) and period > 0.0, f"period_T: must be positive, got {period!r}")

    pi_u = pi_f = None
    m1 = m2 = None
    if has_insect:
        section = raw["insect"]
        _check_keys(section, {"piU", "piF"}, "insect")
        _require("piU" in section and "piF" in section, "insect: both piU and piF are required")
        pi_u = _parse_params(section["piU"], "insect.piU")
        pi_f = _parse_params(section["piF"], "insect.piF")
    else:
        section = raw["matrices"]
        _check_keys(section, {"m1", "m2"}, "matrices")
        _require("m1" in section and "m2" in section, "matrices: both m1 and m2 are required")
        m1 = _parse_matrix(section["m1"], "matrices.m1")
        m2 = _parse_matrix(section["m2"], "matrices.m2")
        _require(len(m1) == len(m2), "matrices: m1 and m2 must have the same shape")

    theta = raw.get("theta")
    if theta is not None:
        _require(isinstance(theta, (int, float)) and 0.0 <= theta <= 1.0,
                 f"theta: must lie in [0, 1], got {theta!r}")
        theta = float(theta)

    grid_raw = raw.get("theta_grid", 101)
    if isinstance(grid_raw, int) and not isinstance(grid_raw, bool):
        _require(grid_raw >= 2, f"theta_grid: count must be >= 2, got {grid_raw}")
        grid = tuple(np.linspace(0.0, 1.0, grid_raw))
    elif isinstance(grid_raw, (list, tuple)):
        grid = tuple(float(g) for g in grid_raw)
        _require(all(0.0 <= g <= 1.0 for g in grid), "theta_grid: values must lie in [0, 1]")
        _require(len(grid) >= 1, "theta_grid: must not be empty")
    else:
        raise ScenarioError(f"theta_grid: expected a count or a list, got {grid_raw!r}")

    tol_raw = raw.get("tolerances", {})
    _check_keys(tol_raw, _TOL_KEYS, "tolerances")
    tol_values = {}
    for key in _TOL_KEYS:
        if key in tol_raw:
            value = tol_raw[key]
            _require(isinstance(value, (int, float)) and value > 0.0,
                     f"tolerances.{key}: must be a positive number, got {value!r}")
            tol_values[key] = float(value)
    tolerances = Tolerances(**tol_values)

    split_raw = raw.get("split", {})
    _check_keys(split_raw, _SPLIT_KEYS, "split")
    split_values = {}
    if "K" in split_raw:
        _require(isinstance(split_raw["K"], int) and split_raw["K"] >= 1,
                 f"split.K: must be a positive integer, got {split_raw['K']!r}")
        split_values["k"] = split_raw["K"]
    if "resolution" in split_raw:
        _require(isinstance(split_raw["resolution"], int) and split_raw["resolution"] >= 1,
                 f"split.resolution: must be a positive integer, got {split_raw['resolution']!r}")
        split_values["resolution"] = split_raw["resolution"]
    if "mode" in split_raw:
        _require(split_raw["mode"] in ("max", "min"),
                 f"split.mode: must be 'max' or 'min', got {split_raw['mode']!r}")
        split_values["mode"] = split_raw["mode"]
    split = SplitSettings(**split_values)

    return Scenario(
        mode=mode,
        period_T=float(period),
        pi_unfavorable=pi_u,
        pi_favorable=pi_f,
        m1=m1,
        m2=m2,
        theta=theta,
        theta_grid=grid,
        tolerances=tolerances,
        split=split,
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of scenario_from_dict, for round-tripping."""
    out: dict = {"mode": scenario.mode, "period_T": scenario.period_T}
    if scenario.mode == "insect":
        out["insect"] = {
            "piU": asdict(scenario.pi_unfavorable),
            "piF": asdict(scenario.pi_favorable),
        }
    else:
        out["matrices"] = {
            "m1": [list(row) for row in scenario.m1],
            "m2": [list(row) for row in scenario.m2],
        }
    if scenario.theta is not None:
        out["theta"] = scenario.theta
    out["theta_grid"] = list(scenario.theta_grid)
    out["tolerances"] = {
        k: v for k, v in asdict(scenario.tolerances).items() if v is not None
    }
    out["split"] = {
        "K": scenario.split.k,
        "resolution": scenario.split.resolution,
        "mode": scenario.split.mode,
    }
    return out


def linearization_from_scenario(scenario: Scenario) -> TwoSeasonLinearization:
    if scenario.mode == "insect":
        return TwoSeasonLinearization(
            jacobian(scenario.pi_unfavorable, np.zeros(2)),
            jacobian(scenario.pi_favorable, np.zeros(2)),
            scenario.period_T,
        )
    m1, m2 = scenario.matrix_pair()
    return TwoSeasonLinearization(m1, m2, scenario.period_T)


def system_from_scenario(scenario: Scenario, theta: float) -> SeasonalSystem:
    if scenario.mode == "insect":
        return as_seasonal_system(
            scenario.pi_unfavorable, scenario.pi_favorable, theta, scenario.period_T
        )
    m1, m2 = scenario.matrix_pair()
    return SeasonalSystem(
        schedule=SeasonalSchedule(scenario.period_T, (0.0, theta, 1.0)),
        pieces=(AutonomousPiece.linear(m1), AutonomousPiece.linear(m2)),
    )
