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
from .linalg import spectral_abscissa, spectral_radius
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


def _write_csv(path: Path, header, rows, row_format=None):
    """One line per row: each value by _fmt, or the whole row, a tuple of
    plain numbers, by the %-format row_format ("%.17g" for the floats)."""
    if row_format is None:
        lines = [",".join(_fmt(v) for v in row) for row in rows]
    else:
        lines = [row_format % row for row in rows]
    path.write_text("\n".join([",".join(header), *lines]) + "\n", newline="\n")


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

    The grid is one evaluation; when it raises a typed error, each theta is
    evaluated alone, so only the failing rows carry it in their error column
    and the sweep continues. With simulation, each row's lambda_simulated is
    the spectral radius of its DP(0).
    """
    lin = linearization_from_scenario(scenario)
    tol = scenario.tolerances.perron_tol
    thetas = [float(th) for th in scenario.grid_array()]
    try:
        rows = _sweep_rows(floquet.rho_profile(lin, thetas, tol=tol, second=True))
    except floquet.TYPED_ERRORS:
        rows = []
        for th in thetas:
            try:
                rows += _sweep_rows(floquet.rho_profile(lin, [th], tol=tol, second=True))
            except Exception as exc:
                rows.append(_error_row(th, exc))
    if with_simulation:
        _simulate_lambdas(scenario, rows)
    return rows


def _sweep_rows(profile) -> list[SweepRow]:
    return [
        SweepRow(th, value, prime, second, "persistent" if value > 1.0 else "extinct", None, "")
        for th, value, prime, second in zip(
            profile.thetas.tolist(), profile.rho.tolist(),
            profile.rho_prime.tolist(), profile.rho_second.tolist(),
        )
    ]


def _error_row(theta: float, exc: Exception) -> SweepRow:
    return SweepRow(theta, None, None, None, "", None, repr(exc))


def _simulate_lambdas(scenario: Scenario, rows: list):
    """Fill lambda_simulated of the rows without an error, in place; a row
    whose system, DP(0) or spectral radius fails becomes an error row."""
    step = scenario.tolerances.ode_step
    for i, row in enumerate(rows):
        if row.error:
            continue
        try:
            system = system_from_scenario(scenario, row.theta)
            dp = simulate.poincare_jacobian(system, np.zeros(system.dimension), step=step)
            rows[i] = dataclasses.replace(row, lambda_simulated=spectral_radius(dp))
        except Exception as exc:
            rows[i] = _error_row(row.theta, exc)


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
    tol = scenario.tolerances.perron_tol
    zeros = np.zeros_like(lin.m1)
    certs = [conditions.check_shared_eigenvector(lin, perron_tol=tol)]
    profile = floquet.rho_profile(lin, scenario.grid_array(), tol=tol)
    certs += [
        conditions.check_decrease_left(profile),
        conditions.check_decrease_right(profile),
        conditions.check_decrease_bilinear(profile, p=zeros, q=zeros),
    ]
    if lin.dimension == 2:
        certs.append(conditions.left_order_certificate(profile))
    if scenario.mode == "insect":
        u, f = scenario.pi_unfavorable, scenario.pi_favorable
        certs.append(conditions.check_hyp_parameters(u, f))
        certs.append(conditions.check_hyp_alternative(u, f))
        certs.append(conditions.insect_threshold_certificate(u, f, profile))
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
        (t, *x, tag) for t, x, tag in zip(
            trajectory.times.tolist(), trajectory.states.tolist(), trajectory.season_tags.tolist()
        )
    ]
    row_format = ",".join(["%.17g"] * (1 + system.dimension) + ["%d"])
    _write_csv(out / "trajectory.csv", header, rows, row_format)
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
    # value is the schedule's rho as gelfand_bound_probe computes it; only the bound is new
    bound = splitting.factor_bound(spectral_abscissa(m1), spectral_abscissa(m2), schedule.theta)
    payload = {
        "theta": theta,
        "K": settings.k,
        "mode": settings.mode,
        "resolution": settings.resolution,
        "method": method,
        "sigma": list(schedule.sigma),
        "sigma_prime": list(schedule.sigma_prime),
        "rho": value,
        "factor_bound": bound,
        "bound_violated": splitting.bound_violated(value, bound),
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
