"""Command-line batch surface: scenario in, CSV/JSON reports out.

Commands:
  floquet    sweep rho and its derivatives over the theta grid -> sweep.csv
  threshold  locate the critical season fraction -> threshold.json
  check      evaluate all applicable certificates -> certificates.json
  simulate   integrate the seasonal system -> trajectory.csv (<= 256 rows a period)
  poincare   iterate the period map to classify the orbit -> poincare.json
  split      optimize the multiplier over split schedules -> split.json
  verify     run the self-verification suite -> verify.csv

Outputs are deterministic: identical scenarios produce byte-identical files.
CSV is comma-separated with LF line endings and numbers to 17 significant
digits; a field holding a comma, a quote or a line break is quoted, its
quotes doubled (RFC 4180). JSON is json.dumps(indent=2, sort_keys=True) text:
floats as their shortest round-trip repr, and a non-finite value as the
string "inf", "-inf" or "nan".
"""

import argparse
import dataclasses
import functools
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import conditions, floquet, simulate, splitting
from .errors import ERRORS, ScenarioError
from .linalg import spectral_abscissa, spectral_radius
from .scenario import Scenario, linearization_from_scenario, load_scenario, system_from_scenario
from .verify_suite import run_verification

COMMANDS = ("floquet", "threshold", "check", "simulate", "poincare", "split", "verify")
SIMULATE_PERIODS = 10
SIMULATE_ROWS_PER_PERIOD = 256  # trajectory.csv rows a period, besides the season knots


def _fmt(value) -> str:
    """value as a report writes it; a text holding a comma, a quote or a line
    break is quoted, its quotes doubled, as a CSV field (RFC 4180)."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _json(obj, pad: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it at
    indentation pad, after conversion: numpy arrays and scalars become their
    Python values, dataclasses the dict of their fields, dict keys str, and
    a non-finite float its repr string ("inf", "-inf", "nan")."""
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else f'"{float.__repr__(obj)}"'
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        sep = f",\n{inner}"
        try:  # a list of floats is one join; of float reprs only inf and nan hold an "n"
            body = sep.join(map(float.__repr__, obj))
        except TypeError:  # an entry is not a float
            body = None
        if body is None or "n" in body:
            body = sep.join([_json(v, inner) for v in obj])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(obj, np.ndarray):
        return _json(obj.tolist(), pad)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = sorted({str(k): v for k, v in obj.items()}.items())
        body = f",\n{inner}".join([f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in items])
        return f"{{\n{inner}{body}\n{pad}}}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, np.generic) and not isinstance(value := obj.item(), np.generic):
        return _json(value, pad)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, payload):
    path.write_text(_json(payload, "") + "\n", newline="\n")


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
    except ERRORS:
        rows = []
        for th in thetas:
            try:
                rows += _sweep_rows(floquet.rho_profile(lin, [th], tol=tol, second=True))
            except Exception as exc:
                rows.append(SweepRow(th, None, None, None, "", None, repr(exc)))
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


def _simulate_lambdas(scenario: Scenario, rows: list):
    """Fill lambda_simulated of the rows without an error, in place; a row
    whose system, DP(0) or spectral radius fails keeps its spectral columns,
    with lambda_simulated empty and the failure in its error column."""
    step = scenario.tolerances.ode_step
    for i, row in enumerate(rows):
        if row.error:
            continue
        try:
            system = system_from_scenario(scenario, row.theta)
            dp = simulate.poincare_jacobian(system, np.zeros(system.dimension), step=step)
            rows[i] = dataclasses.replace(row, lambda_simulated=spectral_radius(dp))
        except Exception as exc:
            rows[i] = dataclasses.replace(row, error=repr(exc))


def _cmd_floquet(scenario, args, out: Path):
    rows = run_sweep(scenario, with_simulation=args.with_simulation)
    header = [f.name for f in dataclasses.fields(SweepRow)]
    if not args.with_simulation:
        header.remove("lambda_simulated")
    _write_csv(out / "sweep.csv", header, [[getattr(r, name) for name in header] for r in rows])
    errors = sum(1 for r in rows if r.error)
    print(f"floquet: wrote {out / 'sweep.csv'} ({len(rows)} rows, {errors} row errors)")
    return errors


def _cmd_threshold(scenario, args, out: Path):
    lin = linearization_from_scenario(scenario)
    tol = args.tol if args.tol is not None else scenario.tolerances.bisect_tol
    grid_points = args.grid if args.grid is not None else len(scenario.theta_grid)
    if args.grid is None and grid_points < 2:
        raise ScenarioError(f"theta_grid: threshold needs at least 2 points, got {grid_points}")
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


def _kept_rows(season_tags: np.ndarray) -> np.ndarray:
    """Indices of the trajectory rows simulate writes: the first and the last,
    every k-th, k the least stride that leaves at most SIMULATE_ROWS_PER_PERIOD
    rows a period over the whole trajectory, and every row whose season differs
    from a neighbour's, so each season knot is kept whichever side it is
    tagged. Below that many steps a period k is 1 and every row is kept."""
    steps = len(season_tags) - 1
    stride = max(1, -(-steps // (SIMULATE_PERIODS * SIMULATE_ROWS_PER_PERIOD)))
    keep = np.zeros(len(season_tags), dtype=bool)
    keep[::stride] = True
    knot = season_tags[1:] != season_tags[:-1]
    keep[1:] |= knot
    keep[:-1] |= knot
    keep[-1] = True
    return np.flatnonzero(keep)


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
    kept = _kept_rows(trajectory.season_tags)
    rows = list(zip(
        trajectory.times[kept].tolist(), *trajectory.states[kept].T.tolist(),
        trajectory.season_tags[kept].tolist(),
    ))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args returns a
    fresh Namespace each call and leaves the parser as it was."""
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
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0.0):
            raise ScenarioError(f"--tol must be a finite positive number, got {args.tol}")
        if args.seed < 0:
            raise ScenarioError(f"--seed must be >= 0, got {args.seed}")
        if args.grid is not None:
            if args.grid < 2:
                raise ScenarioError(f"--grid must be >= 2, got {args.grid}")
            scenario = dataclasses.replace(
                scenario, theta_grid=tuple(np.linspace(0.0, 1.0, args.grid))
            )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        row_errors = _DISPATCH[args.command](scenario, args, out)
    except ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if row_errors else 0


if __name__ == "__main__":
    sys.exit(main())
