"""Quick self-verification suite behind the `verify` CLI command.

Desk-scale versions of the package's cross-cutting invariants: analytic
derivatives against finite differences, closed forms, spectral/simulation
consistency, and the randomized oracle equivalences. Each check returns a
row (name, status, detail) with status "pass", "fail", or "info".
"""

from dataclasses import dataclass

import numpy as np

from . import conditions, floquet, insect, simulate, splitting
from .linalg import is_irreducible, spectral_abscissa, spectral_radius
from .scenario import Scenario, linearization_from_scenario, system_from_scenario


@dataclass(frozen=True)
class VerifyRow:
    name: str
    status: str
    detail: str


def _row(name, ok, detail) -> VerifyRow:
    return VerifyRow(name=name, status="pass" if ok else "fail", detail=detail)


def random_metzler(rng, n: int, scale: float = 3.0) -> np.ndarray:
    """Random irreducible Metzler matrix, off-diagonal clamped at zero."""
    while True:
        a = rng.uniform(-scale, scale, (n, n))
        off = ~np.eye(n, dtype=bool)
        a[off] = np.maximum(a[off], 0.0)
        if is_irreducible(a):
            return a


def run_verification(scenario: Scenario, seed: int = 0) -> list[VerifyRow]:
    rng = np.random.default_rng(seed)
    rows: list[VerifyRow] = []
    checks = [
        _check_derivatives,
        _check_second_derivatives,
        _check_endpoints,
        _check_shared_eigenvector_form,
        _check_threshold,
        _check_poincare_consistency,
        _check_flow_properties,
        _check_left_order,
        _check_equilibria,
        _check_split_invariance,
        _check_gelfand,
        _check_timescale,
    ]
    for check in checks:
        try:
            rows.append(check(scenario, rng))
        except Exception as exc:  # surface, never hide, per-check failures
            rows.append(VerifyRow(check.__name__.lstrip("_"), "error", repr(exc)))
    return rows


def _check_derivatives(scenario, rng) -> VerifyRow:
    worst = 0.0
    for _ in range(8):
        n = int(rng.integers(2, 4))
        lin = floquet.TwoSeasonLinearization(
            random_metzler(rng, n), random_metzler(rng, n), 1.0
        )
        for th in (0.2, 0.5, 0.8):
            h = 1e-5
            fd = (floquet.rho(lin, th + h)[0] - floquet.rho(lin, th - h)[0]) / (2 * h)
            an = floquet.rho_prime(lin, th)
            worst = max(worst, abs(an - fd) / max(1.0, abs(an)))
    return _row("derivative_vs_fd", worst <= 1e-6, f"worst rel gap {worst:.3e}")


def _check_second_derivatives(scenario, rng) -> VerifyRow:
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 4))
        lin = floquet.TwoSeasonLinearization(
            random_metzler(rng, n), random_metzler(rng, n), 1.0
        )
        for th in (0.3, 0.6):
            h = 1e-4
            fd = (
                floquet.rho(lin, th + h)[0]
                - 2 * floquet.rho(lin, th)[0]
                + floquet.rho(lin, th - h)[0]
            ) / h**2
            an = floquet.rho_second(lin, th)
            worst = max(worst, abs(an - fd) / max(1.0, abs(an)))
    return _row("second_derivative_vs_fd", worst <= 1e-4, f"worst rel gap {worst:.3e}")


def _check_endpoints(scenario, rng) -> VerifyRow:
    lin = linearization_from_scenario(scenario)
    t = lin.period_T
    gap0 = abs(floquet.rho(lin, 0.0)[0] - np.exp(t * spectral_abscissa(lin.m2)))
    gap1 = abs(floquet.rho(lin, 1.0)[0] - np.exp(t * spectral_abscissa(lin.m1)))
    worst = max(gap0, gap1)
    return _row("single_season_endpoints", worst <= 1e-9, f"worst gap {worst:.3e}")


def _check_shared_eigenvector_form(scenario, rng) -> VerifyRow:
    base = random_metzler(rng, 3)
    lin = floquet.TwoSeasonLinearization(base - 2.0 * np.eye(3), base + 1.0 * np.eye(3), 1.0)
    mu1 = spectral_abscissa(lin.m1)
    mu2 = spectral_abscissa(lin.m2)
    worst = 0.0
    for th in np.linspace(0.0, 1.0, 21):
        closed = np.exp(th * mu1 + (1.0 - th) * mu2)
        worst = max(worst, abs(floquet.rho(lin, float(th))[0] - closed) / closed)
    return _row("shared_eigenvector_closed_form", worst <= 1e-10, f"worst rel gap {worst:.3e}")


def _check_threshold(scenario, rng) -> VerifyRow:
    lin = linearization_from_scenario(scenario)
    report = floquet.find_threshold(lin, tol=scenario.tolerances.bisect_tol)
    if report.regime != "interior_root":
        return VerifyRow("threshold", "info", f"regime {report.regime}")
    delta = 10.0 * scenario.tolerances.bisect_tol
    lo = floquet.rho(lin, max(0.0, report.theta_star - delta))[0]
    hi = floquet.rho(lin, min(1.0, report.theta_star + delta))[0]
    ok = lo > 1.0 > hi and abs(report.rho_at_theta_star - 1.0) <= scenario.tolerances.bisect_tol
    return _row("threshold", ok, f"theta*={report.theta_star:.12g}")


def _check_poincare_consistency(scenario, rng) -> VerifyRow:
    lin = linearization_from_scenario(scenario)
    thetas = (0.1, 0.3, 0.5, 0.7, 0.9)
    systems = [system_from_scenario(scenario, th) for th in thetas]
    lams = simulate.poincare_jacobian(systems, np.zeros((len(thetas), lin.dimension)))
    worst = 0.0
    for th, lam in zip(thetas, lams):
        gap = abs(spectral_radius(lam) - floquet.rho(lin, th)[0]) / floquet.rho(lin, th)[0]
        worst = max(worst, gap)
    return _row("poincare_vs_monodromy", worst <= 1e-6, f"worst rel gap {worst:.3e}")


def _check_flow_properties(scenario, rng) -> VerifyRow:
    if scenario.mode != "insect":
        return VerifyRow("flow_properties", "info", "linear dynamics: strict concavity not expected")
    theta = scenario.theta if scenario.theta is not None else 0.5
    system = system_from_scenario(scenario, theta)
    report = simulate.verify_flow_properties(system)
    return _row(
        "flow_properties",
        report.all_ok,
        f"order margin {report.order_margin:.3e}, monotone margin {report.derivative_monotone_margin:.3e}",
    )


def _check_left_order(scenario, rng) -> VerifyRow:
    disagreements = 0
    for _ in range(500):
        s = rng.uniform(0.05, 5.0, (2, 2))
        result = conditions.left_eigenvector_order(s)
        if not result.boundary and result.eigen_order != result.sum_order:
            disagreements += 1
    return _row("left_order_equivalence", disagreements == 0, f"{disagreements} disagreements / 500")


def _check_equilibria(scenario, rng) -> VerifyRow:
    worst = 0.0
    for _ in range(100):
        pi = insect.InsectParams(*(rng.uniform(0.2, 4.0, 5)))
        report = insect.equilibria(pi)
        if report.s1 is None:
            continue
        res = np.linalg.norm(insect.vector_field(pi, report.s1))
        worst = max(worst, res / (1.0 + np.linalg.norm(report.s1)))
    return _row("equilibrium_identity", worst <= 1e-12, f"worst scaled residual {worst:.3e}")


def _check_split_invariance(scenario, rng) -> VerifyRow:
    base = random_metzler(rng, 2)
    m1 = base - 1.5 * np.eye(2)
    m2 = base + 0.5 * np.eye(2)
    values = []
    for _ in range(50):
        k = int(rng.integers(1, 5))
        schedule = splitting.random_schedule(0.4, k, rng)
        values.append(spectral_radius(splitting.split_monodromy(m1, m2, schedule)))
    spread = (max(values) - min(values)) / max(values)
    return _row("split_invariance", spread <= 1e-9, f"relative spread {spread:.3e}")


def _check_gelfand(scenario, rng) -> VerifyRow:
    count = 0
    total = 200
    for _ in range(total):
        n = int(rng.integers(2, 4))
        m1 = random_metzler(rng, n)
        m2 = random_metzler(rng, n)
        schedule = splitting.random_schedule(float(rng.uniform(0.2, 0.8)), int(rng.integers(1, 4)), rng)
        report = splitting.gelfand_bound_probe(m1, m2, [schedule])
        count += report.violation_count
    return VerifyRow("gelfand_probe", "info", f"{count} bound violations / {total} (informational)")


def _check_timescale(scenario, rng) -> VerifyRow:
    lin = linearization_from_scenario(scenario)
    report = floquet.timescale_asymptotics(lin, [1.0, 2.0, 4.0, 8.0, 16.0], theta=0.5)
    final_gap = abs(report.corrections[-1] - report.limit_correction)
    small_gap = abs(report.rho_at_t_small - 1.0)
    ok = final_gap <= 1e-3 and small_gap <= 1e-4
    return _row("timescale_limits", ok, f"correction gap {final_gap:.3e}, rho(T->0) gap {small_gap:.3e}")
