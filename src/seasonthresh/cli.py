"""Command-line batch surface: scenario in, CSV/JSON reports out.

Commands:
  floquet    sweep rho and its derivatives over the theta grid -> sweep.csv
  threshold  locate the critical season fraction -> threshold.json
  check      evaluate all applicable certificates -> certificates.json
  simulate   integrate the seasonal system -> trajectory.csv
  poincare   iterate the period map to classify the orbit -> poincare.json
  split      optimize the multiplier over split schedules -> split.json
  verify     run the self-verification suite -> verify.csv

Outputs are deterministic: identical scenarios produce byte-identical files.
Numbers are printed with 17 significant digits, CSV is comma-separated with
LF line endings.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import conditions, floquet, simulate, splitting
from .errors import InvalidInputError, ScenarioError
from .linalg import spectral_radius
from .scenario import Scenario, linearization_from_scenario, load_scenario, system_from_scenario
from .verify_suite import run_verification

COMMANDS = ("floquet", "threshold", "check", "simulate", "poincare", "split", "verify")
SIMULATE_PERIODS = 10


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path: Path, payload):
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    path.write_text(text, newline="\n")


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _require_theta(scenario: Scenario, override) -> float:
    theta = override if override is not None else scenario.theta
    if theta is None:
        raise ScenarioError("this command requires 'theta' (scenario key or --theta)")
    if not 0.0 <= theta <= 1.0:
        raise ScenarioError(f"theta: must lie in [0, 1], got {theta}")
    return float(theta)


@dataclasses.dataclass(frozen=True)
class SweepRow:
    theta: float
    rho: float | None
    rho_prime: float | None
    rho_second: float | None
    classification: str
    lambda_simulated: float | None
    error: str


def run_sweep(scenario: Scenario, with_simulation: bool = False) -> list[SweepRow]:
    """Evaluate rho, derivatives, and the spectral classification per theta.

    Per-row failures are recorded in the error column; the sweep continues.
    """
    lin = linearization_from_scenario(scenario)
    tol = scenario.tolerances.perron_tol
    rows = []
    for th in scenario.grid_array():
        th = float(th)
        try:
            profile = floquet.rho_profile(lin, [th], tol=tol, second=True)
            value = float(profile.rho[0])
            prime = float(profile.rho_prime[0])
            second = float(profile.rho_second[0])
            classification = "persistent" if value > 1.0 else "extinct"
            lam = None
            if with_simulation:
                system = system_from_scenario(scenario, th)
                lam = spectral_radius(
                    simulate.poincare_jacobian(system, np.zeros(system.dimension),
                                               step=scenario.tolerances.ode_step)
                )
            rows.append(SweepRow(th, value, prime, second, classification, lam, ""))
        except Exception as exc:
            rows.append(SweepRow(th, None, None, None, "", None, repr(exc)))
    return rows


def _cmd_floquet(scenario, args, out: Path):
    rows = run_sweep(scenario, with_simulation=args.with_simulation)
    header = ["theta", "rho", "rho_prime", "rho_second", "classification"]
    if args.with_simulation:
        header.append("lambda_simulated")
    header.append("error")
    csv_rows = []
    for r in rows:
        row = [r.theta, r.rho, r.rho_prime, r.rho_second, r.classification]
        if args.with_simulation:
            row.append(r.lambda_simulated)
        row.append(r.error)
        csv_rows.append(row)
    _write_csv(out / "sweep.csv", header, csv_rows)
    errors = sum(1 for r in rows if r.error)
    print(f"floquet: wrote {out / 'sweep.csv'} ({len(rows)} rows, {errors} row errors)")
    return errors


def _cmd_threshold(scenario, args, out: Path):
    lin = linearization_from_scenario(scenario)
    tol = args.tol if args.tol is not None else scenario.tolerances.bisect_tol
    grid_points = args.grid if args.grid is not None else len(scenario.theta_grid)
    report = floquet.find_threshold(
        lin, tol=tol, grid_points=grid_points, perron_tol=scenario.tolerances.perron_tol
    )
    _write_json(out / "threshold.json", report)
    print(f"threshold: regime={report.regime} theta*={_fmt(report.theta_star)}")
    print(f"  rho(theta*)={_fmt(report.rho_at_theta_star)}  monotone_certificate={report.monotone_certificate}")
    if report.bracket is not None:
        print(f"  bracket=({_fmt(report.bracket[0])}, {_fmt(report.bracket[1])})")
    print(f"threshold: wrote {out / 'threshold.json'}")
    return 0


def _cmd_check(scenario, args, out: Path):
    lin = linearization_from_scenario(scenario)
    grid = scenario.grid_array()
    tol = scenario.tolerances.perron_tol
    zeros = np.zeros_like(lin.m1)
    certs = [
        conditions.check_shared_eigenvector(lin, perron_tol=tol),
        conditions.check_decrease_left(lin, grid, perron_tol=tol),
        conditions.check_decrease_right(lin, grid, perron_tol=tol),
        conditions.check_decrease_bilinear(lin, grid, p=zeros, q=zeros, perron_tol=tol),
    ]
    if lin.dimension == 2:
        certs.append(conditions.left_order_certificate(lin, grid))
    if scenario.mode == "insect":
        u, f = scenario.pi_unfavorable, scenario.pi_favorable
        certs.append(conditions.check_hyp_parameters(u, f))
        certs.append(conditions.check_hyp_alternative(u, f))
        certs.append(conditions.insect_threshold_certificate(u, f, scenario.period_T, grid))
    _write_json(out / "certificates.json", certs)
    for cert in certs:
        print(f"check: {cert.condition}: {'holds' if cert.holds else 'fails'} "
              f"(worst margin {_fmt(cert.worst_margin)})")
    print(f"check: wrote {out / 'certificates.json'}")
    return 0


def _cmd_simulate(scenario, args, out: Path):
    theta = _require_theta(scenario, args.theta)
    system = system_from_scenario(scenario, theta)
    x0 = np.ones(system.dimension)
    horizon = SIMULATE_PERIODS * scenario.period_T
    trajectory = simulate.integrate(
        system, x0, 0.0, horizon,
        step=scenario.tolerances.ode_step,
        divergence_bound=scenario.tolerances.divergence_bound,
    )
    if scenario.mode == "insect":
        state_names = ["J", "A"]
    else:
        state_names = [f"x{i+1}" for i in range(system.dimension)]
    header = ["time", *state_names, "season"]
    rows = [
        [float(t), *[float(v) for v in x], int(tag)]
        for t, x, tag in zip(trajectory.times, trajectory.states, trajectory.season_tags)
    ]
    _write_csv(out / "trajectory.csv", header, rows)
    print(f"simulate: wrote {out / 'trajectory.csv'} ({len(rows)} samples, "
          f"diverged={trajectory.diverged}, clamps={trajectory.clamp_count})")
    return 0


def _cmd_poincare(scenario, args, out: Path):
    theta = _require_theta(scenario, args.theta)
    system = system_from_scenario(scenario, theta)
    tol = args.tol if args.tol is not None else 1e-9
    result = simulate.find_periodic_orbit(
        system,
        np.ones(system.dimension),
        tol=tol,
        step=scenario.tolerances.ode_step,
        extinction_threshold=scenario.tolerances.extinction_threshold,
        divergence_bound=scenario.tolerances.divergence_bound,
    )
    _write_json(out / "poincare.json", result)
    print(f"poincare: classification={result.classification} "
          f"lambda={_fmt(result.multiplier_lambda)} iterations={result.iterations}")
    print(f"poincare: wrote {out / 'poincare.json'}")
    return 0


def _cmd_split(scenario, args, out: Path):
    theta = _require_theta(scenario, args.theta)
    lin = linearization_from_scenario(scenario)
    m1 = scenario.period_T * lin.m1
    m2 = scenario.period_T * lin.m2
    settings = scenario.split
    method = "grid" if settings.k <= 4 else "descent"
    schedule, value = splitting.optimize_split(
        m1, m2, theta, settings.k, mode=settings.mode,
        resolution=settings.resolution, method=method, seed=args.seed,
    )
    probe = splitting.gelfand_bound_probe(m1, m2, [schedule])
    payload = {
        "theta": theta,
        "K": settings.k,
        "mode": settings.mode,
        "resolution": settings.resolution,
        "method": method,
        "sigma": list(schedule.sigma),
        "sigma_prime": list(schedule.sigma_prime),
        "rho": value,
        "factor_bound": float(probe.bounds[0]),
        "bound_violated": probe.violation_count > 0,
    }
    _write_json(out / "split.json", payload)
    print(f"split: {settings.mode} rho={_fmt(value)} over K={settings.k} blocks ({method})")
    print(f"split: wrote {out / 'split.json'}")
    return 0


def _cmd_verify(scenario, args, out: Path):
    rows = run_verification(scenario, seed=args.seed)
    _write_csv(out / "verify.csv", ["check", "status", "detail"],
               [[r.name, r.status, r.detail] for r in rows])
    width = max(len(r.name) for r in rows)
    for r in rows:
        print(f"verify: {r.name:<{width}}  {r.status:<5} {r.detail}")
    print(f"verify: wrote {out / 'verify.csv'}")
    return sum(1 for r in rows if r.status == "error")


_DISPATCH = {
    "floquet": _cmd_floquet,
    "threshold": _cmd_threshold,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "poincare": _cmd_poincare,
    "split": _cmd_split,
    "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seasonthresh",
        description="Seasonal extinction/persistence threshold toolkit",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", required=True, help="path to the scenario JSON file")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--theta", type=float, help="override the scenario season fraction")
    parser.add_argument("--grid", type=int, help="override the theta grid point count")
    parser.add_argument("--with-simulation", action="store_true", dest="with_simulation",
                        help="add the simulated multiplier column to sweeps")
    parser.add_argument("--tol", type=float, help="override the command tolerance")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized verification")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.grid is not None:
            if args.grid < 2:
                raise ScenarioError(f"--grid must be >= 2, got {args.grid}")
            scenario = dataclasses.replace(
                scenario, theta_grid=tuple(np.linspace(0.0, 1.0, args.grid))
            )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        row_errors = _DISPATCH[args.command](scenario, args, out)
    except (ScenarioError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if row_errors else 0


if __name__ == "__main__":
    sys.exit(main())
