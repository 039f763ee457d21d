"""Independent answers for every job the benchmark runs.

Nothing here imports the package under test. Spectral answers come from
``scipy.linalg.expm`` and ``numpy.linalg.eig``; simulation answers from
``scipy.integrate.solve_ivp`` run season by season. Every checker takes the
job's expectation record and its output directory and returns ``None`` when
the output is right, or a one-line reason when it is not.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

try:
    from scipy.integrate import solve_ivp
    from scipy.linalg import expm
    from scipy.optimize import brentq
except ImportError as exc:  # pragma: no cover - depends on the environment
    raise SystemExit(
        "perfbench: the answer oracle needs scipy (scipy.linalg.expm, "
        f"scipy.integrate.solve_ivp); it is not importable here: {exc}"
    ) from exc

RHO_RTOL = 1e-8
PRIME_TOL = 1e-6
SECOND_TOL = 1e-6
THETA_TOL = 1e-7
MARGIN_TOL = 1e-6
ARITH_TOL = 1e-12  # margins that are plain arithmetic on the inputs
ORBIT_TOL = 1e-6
STATE_RTOL = 1e-6
LAMBDA_RTOL = 1e-6
SPLIT_RTOL = 1e-9
# certificates hold when every margin clears this floor; the bilinear one
# also allows this error in its eigenvector equation
STRICTNESS = 1e-9
BILINEAR_EQ_TOL = 1e-8


# ---------------------------------------------------------------- model data

def insect_jacobian(p: dict) -> np.ndarray:
    """Linearization at zero of the juvenile/adult insect model."""
    return np.array([[-p["h"] - p["dJ"], p["b"]], [p["h"], -p["dA"]]])


def insect_field(p: dict):
    def f(_t, x):
        j, a = x
        return [p["b"] * a - j * (p["h"] + p["dJ"] + p["cJ"] * j), p["h"] * j - p["dA"] * a]

    return f


def season_matrices(scenario: dict) -> tuple[np.ndarray, np.ndarray]:
    if scenario["mode"] == "insect":
        return insect_jacobian(scenario["insect"]["piU"]), insect_jacobian(scenario["insect"]["piF"])
    return np.asarray(scenario["matrices"]["m1"], float), np.asarray(scenario["matrices"]["m2"], float)


# ------------------------------------------------------------ spectral oracle

def perron(m: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Perron root with right/left vectors: ||v|| = 1, <v, w> = 1."""
    vals, vecs = np.linalg.eig(m)
    i = int(np.argmax(vals.real))
    v = np.abs(vecs[:, i].real)
    v /= np.linalg.norm(v)
    lvals, lvecs = np.linalg.eig(m.T)
    w = np.abs(lvecs[:, int(np.argmax(lvals.real))].real)
    w /= float(v @ w)
    return float(vals[i].real), v, w


def _scaled_perron(m1, m2, period, theta):
    """Perron data of the monodromy with each season shifted by its abscissa.

    Returns (log rho, v, w); the shift keeps T = 800 and beyond finite.
    """
    mu1, mu2 = abscissa(m1), abscissa(m2)
    eye = np.eye(len(m1))
    m = expm((1.0 - theta) * period * (m2 - mu2 * eye)) @ expm(theta * period * (m1 - mu1 * eye))
    value, v, w = perron(m)
    return math.log(value) + period * ((1.0 - theta) * mu2 + theta * mu1), v, w


def log_rho(m1, m2, period, theta) -> float:
    return _scaled_perron(m1, m2, period, theta)[0]


def rho(m1, m2, period, theta) -> float:
    return math.exp(log_rho(m1, m2, period, theta))


def perron_vectors(m1, m2, period, theta) -> tuple[np.ndarray, np.ndarray]:
    _, v, w = _scaled_perron(m1, m2, period, theta)
    return v, w


def rho_prime(m1, m2, period, theta) -> float:
    log_value, v, w = _scaled_perron(m1, m2, period, theta)
    return period * math.exp(log_value) * float(((m1 - m2) @ v) @ w)


def rho_second(m1, m2, period, theta) -> float:
    """d^2 rho / d theta^2 from eigenvalue perturbation theory on the full
    eigendecomposition of the abscissa-shifted monodromy.

    With M' and M'' the theta-derivatives of M and (v_j, w_j) its
    eigenvectors (W = V^-1), lambda'' = w M'' v + 2 sum_j (w M' v_j)(w_j M' v)
    / (lambda - lambda_j); the shift e^{c(theta)} is differentiated apart.
    """
    mu1, mu2 = abscissa(m1), abscissa(m2)
    eye = np.eye(len(m1))
    a1, a2 = m1 - mu1 * eye, m2 - mu2 * eye
    m = expm((1.0 - theta) * period * a2) @ expm(theta * period * a1)
    d1 = period * (m @ a1 - a2 @ m)
    d2 = period * period * (a2 @ a2 @ m - 2.0 * a2 @ m @ a1 + m @ a1 @ a1)
    vals, vecs = np.linalg.eig(m)
    inv = np.linalg.inv(vecs)
    i = int(np.argmax(vals.real))
    p1, p2 = inv @ d1 @ vecs, inv @ d2 @ vecs
    lam, first = vals[i], p1[i, i]
    second = p2[i, i] + 2.0 * sum(p1[i, j] * p1[j, i] / (lam - vals[j]) for j in range(len(vals)) if j != i)
    lam, first, second = float(lam.real), float(first.real), float(second.real)
    slope = period * (mu1 - mu2)
    scale = math.exp(period * ((1.0 - theta) * mu2 + theta * mu1))
    return scale * (slope * slope * lam + 2.0 * slope * first + second)


def abscissa(m) -> float:
    return float(np.max(np.linalg.eigvals(m).real))


def season_gap(m) -> float:
    """Distance from the spectral abscissa to the next eigenvalue real part."""
    re = np.sort(np.linalg.eigvals(m).real)[::-1]
    return float(re[0] - re[1])


def decreasing_on_grid(m1, m2, period, points: int) -> bool:
    s = m1 - m2
    for th in np.linspace(0.0, 1.0, points):
        v, w = perron_vectors(m1, m2, period, th)
        if not float((s @ v) @ w) < 0.0:
            return False
    return True


def theta_star(m1, m2, period) -> float:
    """Root of rho(theta) = 1 for a pair with mu1 < 0 < mu2."""
    return brentq(lambda th: log_rho(m1, m2, period, th), 0.0, 1.0, xtol=1e-14, rtol=1e-14)


def shares_eigenvector(m1, m2, tol: float = 1e-8) -> bool:
    _, v1, w1 = perron(expm(m1))
    _, v2, w2 = perron(expm(m2))
    return np.linalg.norm(v1 - v2) < tol or np.linalg.norm(w1 / np.linalg.norm(w1) - w2 / np.linalg.norm(w2)) < tol


def closed_form_threshold(m1, m2) -> float:
    mu1, mu2 = abscissa(m1), abscissa(m2)
    return mu2 / (mu2 - mu1)


# ---------------------------------------------------------- simulation oracle

def flow(scenario: dict, theta: float, x0, periods: int) -> np.ndarray:
    """Insect state after `periods` periods from phase zero, integrated per season."""
    period = scenario["period_T"]
    fields = [insect_field(scenario["insect"]["piU"]), insect_field(scenario["insect"]["piF"])]
    x = np.asarray(x0, float)
    for _ in range(periods):
        for f, a, b in ((fields[0], 0.0, theta * period), (fields[1], theta * period, period)):
            if b > a:
                sol = solve_ivp(f, (a, b), x, method="DOP853", rtol=1e-11, atol=1e-13)
                x = sol.y[:, -1]
    return x


# ------------------------------------------------------------------ checkers

def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(expect: dict, out: Path) -> str | None:
    scenario = expect["scenario"]
    m1, m2 = season_matrices(scenario)
    period = scenario["period_T"]
    rows = read_csv(out / "sweep.csv")
    if len(rows) != expect["grid_points"]:
        return f"sweep.csv has {len(rows)} rows, expected {expect['grid_points']}"
    scale = (1.0 + np.abs(m1 - m2).max()) ** 2 * period * period
    for row in rows:
        th = float(row["theta"])
        if row["error"]:
            return f"row theta={th} carries error {row['error'][:80]}"
        value = rho(m1, m2, period, th)
        if _rel(float(row["rho"]), value) > RHO_RTOL:
            return f"rho({th}) = {row['rho']}, oracle {value!r}"
        prime = rho_prime(m1, m2, period, th)
        if abs(float(row["rho_prime"]) - prime) > PRIME_TOL * max(abs(prime), period * value * 1e-3, 1e-12):
            return f"rho_prime({th}) = {row['rho_prime']}, oracle {prime!r}"
        second = rho_second(m1, m2, period, th)
        if abs(float(row["rho_second"]) - second) > SECOND_TOL * max(abs(second), value * scale):
            return f"rho_second({th}) = {row['rho_second']}, oracle {second!r}"
        if abs(value - 1.0) > 1e-9:
            label = "persistent" if value > 1.0 else "extinct"
            if row["classification"] != label:
                return f"classification({th}) = {row['classification']}, oracle {label}"
        if "lambda_simulated" in expect.get("columns", ()):
            if _rel(float(row["lambda_simulated"]), value) > LAMBDA_RTOL:
                return f"lambda_simulated({th}) = {row['lambda_simulated']}, oracle {value!r}"
    return None


def check_threshold(expect: dict, out: Path) -> str | None:
    report = json.loads((out / "threshold.json").read_text())
    if report["regime"] != "interior_root":
        return f"regime {report['regime']}, expected interior_root"
    if abs(report["theta_star"] - expect["theta_star"]) > THETA_TOL:
        return f"theta* = {report['theta_star']!r}, oracle {expect['theta_star']!r}"
    return None


def _strict_holds(name: str, reported: bool, margins, floor: float, tol: float) -> str | None:
    """A certificate with strict margins holds exactly when every oracle margin
    clears the floor; margins within tol of the floor leave it undecided."""
    margins = np.asarray(margins, float)
    if np.any(np.abs(margins - floor) <= tol):
        return None
    want = bool(np.all(margins > floor))
    if reported != want:
        return f"{name} holds={reported}, but the oracle margins give {want} (worst {float(margins.min())!r})"
    return None


def _margins_agree(name: str, got, want, scale) -> str | None:
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    if got.shape != want.shape:
        return f"{name} has {got.size} margins, expected {want.size}"
    bad = np.abs(got - want) > MARGIN_TOL * np.maximum(scale, np.abs(want))
    if np.any(bad):
        i = int(np.argmax(bad))
        return f"{name} margin {i} is {float(got[i])!r}, oracle {float(want[i])!r}"
    return None


def _column_gaps(m1, m2, period, grid) -> tuple[list, np.ndarray]:
    """Column-sum gap s12 + s22 - s11 - s21 of the cycle matrix at each grid
    theta, with the entry scale each gap is compared at."""
    cycles = [expm((1.0 - th) * period * m2) @ expm(th * period * m1) for th in grid]
    gaps = [m[0, 1] + m[1, 1] - m[0, 0] - m[1, 0] for m in cycles]
    return gaps, np.array([np.abs(m).sum() for m in cycles])


def _hypotheses(u: dict, f: dict) -> dict:
    """Season-contrast hypotheses on the insect parameters, as margins that
    must be positive: the favorable season ahead of the unfavorable one, and
    the stronger alternative in which the hatching gain beats the drop in
    juvenile death rate."""
    return {
        "hyp_parameters": [u["dJ"] - f["dJ"], (f["b"] - f["dA"]) - (u["b"] - u["dA"]),
                           f["h"] - u["h"], u["dA"] - f["dA"]],
        "hyp_alternative": [(u["h"] + u["dJ"]) - (f["h"] + f["dJ"]), f["b"] - u["b"],
                            f["h"] - u["h"], u["dA"] - f["dA"]],
    }


def _check_left_order(cert: dict, m1, m2, period) -> str | None:
    """Margins are the column-sum gaps of the cycle matrix; the certificate
    holds when the left Perron vector has w2 > w1 at every grid theta."""
    grid = cert["theta_grid"]
    reason = _margins_agree("left_order", cert["margins"], *_column_gaps(m1, m2, period, grid))
    if reason:
        return reason
    ratios = [w[1] / w[0] for w in (perron_vectors(m1, m2, period, th)[1] for th in grid)]
    if all(abs(r - 1.0) > 1e-9 for r in ratios):
        want = all(r > 1.0 for r in ratios)
        if cert["holds"] != want:
            return f"left_order holds={cert['holds']}, oracle w2 > w1 on the grid is {want}"
    return None


def _check_insect_threshold(cert: dict, expect: dict, m1, m2, period) -> str | None:
    stages = cert["details"]["stages"]
    if cert["holds"] != all(stage["holds"] for stage in stages.values()):
        return f"insect_threshold holds={cert['holds']}, but its stages give the opposite"
    # certificates.json sorts the stages by name, so the margins (one per
    # stage, the stage's worst, in chain order) are compared as a multiset
    worst = sorted(min(v) for v in ([m for m in st["margins"] if isinstance(m, float)] for st in stages.values()) if v)
    if worst != sorted(m for m in cert["margins"] if isinstance(m, float)):
        return f"insect_threshold margins {cert['margins']} are not its stages' worst margins {worst}"
    mu1, mu2 = abscissa(m1), abscissa(m2)
    if min(abs(mu1), abs(mu2)) > 1e-9 and stages["offspring_numbers"]["holds"] != (mu1 < 0.0 < mu2):
        return f"offspring_numbers holds={stages['offspring_numbers']['holds']}, oracle abscissas {mu1!r}, {mu2!r}"
    if "column_gaps" in cert["details"]:
        reason = _margins_agree("insect_threshold column gap", cert["details"]["column_gaps"],
                                *_column_gaps(m1, m2, period, cert["theta_grid"]))
        if reason:
            return reason
    if cert["holds"] and not (expect["decreasing"] and mu1 < 0.0 < mu2):
        return "insect_threshold holds but the oracle finds no decreasing rho with an interior root"
    return None


def check_certificates(expect: dict, out: Path) -> str | None:
    """Every certificate's margins against the oracle, and its `holds` flag
    against those margins. worst_margin is a property that certificates.json
    does not carry, so there is nothing to check for it."""
    scenario = expect["scenario"]
    m1, m2 = season_matrices(scenario)
    period = scenario["period_T"]
    certs = {c["condition"]: c for c in json.loads((out / "certificates.json").read_text())}
    want_names = {"shared_eigenvector", "decrease_left", "decrease_right", "decrease_bilinear"}
    if len(m1) == 2:
        want_names.add("left_order")
    if scenario["mode"] == "insect":
        want_names |= {"hyp_parameters", "hyp_alternative", "insect_threshold"}
    if set(certs) != want_names:
        return f"certificates {sorted(certs)}, expected {sorted(want_names)}"

    shared = certs["shared_eigenvector"]
    if shared["holds"] != expect["shared"]:
        return f"shared_eigenvector holds={shared['holds']}, oracle {expect['shared']}"
    if shared["holds"] != (max(shared["margins"]) > 0.0):
        return f"shared_eigenvector holds={shared['holds']} disagrees with its margins {shared['margins']}"

    s = m1 - m2
    for name, side in (("decrease_left", "left"), ("decrease_right", "right")):
        cert = certs[name]
        want = []
        for th in cert["theta_grid"]:
            v, w = perron_vectors(m1, m2, period, th)
            want.append(-float(np.max(s.T @ w if side == "left" else s @ v)))
        reason = (_margins_agree(name, cert["margins"], want, 1.0)
                  or _strict_holds(name, cert["holds"], want, STRICTNESS, MARGIN_TOL))
        if reason:
            return reason
        if cert["holds"] and not expect["decreasing"]:
            return f"{name} holds but the oracle finds rho not decreasing"

    # with p = q = 0 the bilinear condition is S < 0 entrywise; its equation
    # part holds exactly, so every margin is min(-max S, BILINEAR_EQ_TOL)
    cert = certs["decrease_bilinear"]
    entry = -float(np.max(s))
    want = [min(entry, BILINEAR_EQ_TOL)] * len(cert["theta_grid"])
    reason = (_margins_agree("decrease_bilinear", cert["margins"], want, 1.0)
              or _strict_holds("decrease_bilinear", cert["holds"], [entry], STRICTNESS, ARITH_TOL))
    if reason:
        return reason

    if "left_order" in certs:
        reason = _check_left_order(certs["left_order"], m1, m2, period)
        if reason:
            return reason
    if scenario["mode"] == "insect":
        hyps = _hypotheses(scenario["insect"]["piU"], scenario["insect"]["piF"])
        for name, want in hyps.items():
            reason = (_margins_agree(name, certs[name]["margins"], want, 1.0)
                      or _strict_holds(name, certs[name]["holds"], want, STRICTNESS, ARITH_TOL))
            if reason:
                return reason
        return _check_insect_threshold(certs["insect_threshold"], expect, m1, m2, period)
    return None


def check_poincare(expect: dict, out: Path) -> str | None:
    result = json.loads((out / "poincare.json").read_text())
    scenario = expect["scenario"]
    theta = expect["theta"]
    want = "periodic_positive" if expect["rho"] > 1.0 else "extinction"
    if result["classification"] != want:
        return f"classification {result['classification']}, oracle {want} (rho {expect['rho']:.6g})"
    if _rel(result["multiplier_lambda"], expect["rho"]) > LAMBDA_RTOL:
        return f"multiplier_lambda {result['multiplier_lambda']!r}, oracle {expect['rho']!r}"
    x = np.asarray(result["fixed_point"], float)
    if want == "extinction":
        if np.linalg.norm(x) > ORBIT_TOL:
            return f"extinct fixed point has norm {np.linalg.norm(x):.3e}"
        return None
    residual = float(np.linalg.norm(flow(scenario, theta, x, 1) - x))
    if residual > ORBIT_TOL * max(1.0, float(np.linalg.norm(x))):
        return f"fixed point moves by {residual:.3e} over one period under the oracle flow"
    return None


def check_trajectory(expect: dict, out: Path) -> str | None:
    with (out / "trajectory.csv").open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        last = None
        for last in reader:
            pass
    scenario = expect["scenario"]
    horizon = expect["periods"] * scenario["period_T"]
    if last is None or abs(float(last[0]) - horizon) > 1e-9 * horizon:
        return f"trajectory ends at t={last and last[0]}, expected {horizon}"
    state = np.array([float(v) for v in last[1:-1]])
    want = flow(scenario, expect["theta"], np.ones(len(state)), expect["periods"])
    if np.linalg.norm(state - want) > STATE_RTOL * max(1.0, float(np.linalg.norm(want))):
        return f"end state {state.tolist()}, oracle {want.tolist()}"
    return None


def check_verify(expect: dict, out: Path) -> str | None:
    rows = read_csv(out / "verify.csv")
    if len(rows) != expect["checks"]:
        return f"verify.csv has {len(rows)} rows, expected {expect['checks']}"
    for row in rows:
        if row["status"] not in ("pass", "info"):
            return f"verify check {row['check']} reports {row['status']}: {row['detail'][:80]}"
        if row["check"] == "threshold":
            got = float(row["detail"].split("=", 1)[1])
            if abs(got - expect["theta_star"]) > 1e-9:
                return f"verify theta* {got!r}, oracle {expect['theta_star']!r}"
    return None


def schedule_rho(m1, m2, sigma, sigma_prime) -> float:
    prod = np.eye(len(m1))
    for fu, ff in zip(sigma, sigma_prime):
        prod = expm(ff * m2) @ expm(fu * m1) @ prod
    return float(np.max(np.abs(np.linalg.eigvals(prod))))


def check_split(expect: dict, out: Path) -> str | None:
    payload = json.loads((out / "split.json").read_text())
    scenario = expect["scenario"]
    m1, m2 = (scenario["period_T"] * m for m in season_matrices(scenario))
    theta = expect["theta"]
    sigma, sigma_prime = payload["sigma"], payload["sigma_prime"]
    if len(sigma) != expect["k"] or len(sigma_prime) != expect["k"]:
        return f"schedule has {len(sigma)} blocks, expected {expect['k']}"
    if any(not 0.0 <= f <= 1.0 for f in sigma + sigma_prime):
        return "schedule fraction outside [0, 1]"
    if abs(sum(sigma) - theta) > 1e-12 or abs(sum(sigma_prime) - (1.0 - theta)) > 1e-12:
        return "schedule fractions do not total theta and 1 - theta"
    value = schedule_rho(m1, m2, sigma, sigma_prime)
    if _rel(payload["rho"], value) > SPLIT_RTOL:
        return f"split rho {payload['rho']!r}, oracle re-score {value!r}"
    bound = math.exp(theta * abscissa(m1) + (1.0 - theta) * abscissa(m2))
    if _rel(payload["factor_bound"], bound) > SPLIT_RTOL:
        return f"factor_bound {payload['factor_bound']!r}, oracle {bound!r}"
    if expect["shared"] and _rel(value, bound) > SPLIT_RTOL:
        return f"shared pair: split rho {value!r} differs from the invariant {bound!r}"
    single = schedule_rho(m1, m2, [theta], [1.0 - theta])
    better = value >= single * (1 - SPLIT_RTOL) if expect["mode"] == "max" else value <= single * (1 + SPLIT_RTOL)
    if expect["method"] == "grid" and not better:
        return f"grid {expect['mode']} rho {value!r} is worse than the single block {single!r}"
    return None


CHECKERS = {
    "floquet": check_sweep,
    "threshold": check_threshold,
    "check": check_certificates,
    "poincare": check_poincare,
    "simulate": check_trajectory,
    "verify": check_verify,
    "split": check_split,
}


def check(expect: dict, out: Path) -> str | None:
    """Compare one job's output files with the oracle; None when they agree."""
    try:
        return CHECKERS[expect["command"]](expect, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
