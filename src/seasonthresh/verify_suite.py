"""Quick self-verification suite behind the `verify` CLI command.

Desk-scale versions of the package's cross-cutting invariants: analytic
derivatives against finite differences, closed forms, spectral/simulation
consistency, and the randomized oracle equivalences. CHECKS holds them as
(name, check) pairs in run order, the one place a check's name is stated.
A check returns (verdict, detail): a True, False or None verdict gives a
"pass", "fail" or "info" row, and a check that raises an "error" row.

A check draws all its random problems first, then evaluates them in
stacks: one Floquet evaluation over every linearization of a dimension and
every theta they need (floquet.rho_profiles), one over all the periods of
the timescale check, one exp_products stack over every split schedule (the
shorter ones padded with zero durations, whose exponentials are exactly
the identity) and one product stack per (n, K) in the Gelfand probe. Each
entry of a stack has the bits of its own per-problem call (rho, rho_prime,
rho_second, split_monodromy, gelfand_bound_probe), so every row is what
those calls give. A stacked evaluation that raises a typed error is made
again one problem at a time, in draw order, so an error row is the one
those calls give too.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import conditions, floquet, insect, simulate, splitting
from .errors import ERRORS
from .linalg import (
    exp_products,
    mat_exp,
    ordered_products,
    spectral_abscissa,
    spectral_radii,
    spectral_radius,
    strongly_connected,
)
from .scenario import Scenario, linearization_from_scenario, system_from_scenario


@dataclass(frozen=True)
class VerifyRow:
    name: str
    status: str
    detail: str


def random_metzler(rng, n: int, scale: float = 3.0) -> np.ndarray:
    """Random irreducible Metzler matrix, off-diagonal clamped at zero.

    Each try is one uniform (n, n) draw, kept when the digraph of its
    positive entries is strongly connected: the pattern the clamped matrix
    has off the diagonal, so only the accepted draw is clamped. The verdict
    is looked up by the pattern's bytes.
    """
    while True:
        a = rng.uniform(-scale, scale, (n, n))
        if _connected_pattern((a > 0.0).tobytes()):
            return np.maximum(a, 0.0, out=a, where=_off_diagonal(n))


@lru_cache(maxsize=4096)
def _connected_pattern(pattern: bytes) -> bool:
    """strongly_connected of the square boolean array with these bytes."""
    n = math.isqrt(len(pattern))
    return strongly_connected(np.frombuffer(pattern, dtype=bool).reshape(n, n).tolist())


@lru_cache(maxsize=16)
def _off_diagonal(n: int) -> np.ndarray:
    """The read-only off-diagonal mask of an n x n matrix."""
    mask = ~np.eye(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def run_verification(scenario: Scenario, seed: int = 0) -> list[VerifyRow]:
    rng = np.random.default_rng(seed)
    rows: list[VerifyRow] = []
    for name, check in CHECKS:  # each draws from rng after the one before it
        try:
            verdict, detail = check(scenario, rng)
            status = "info" if verdict is None else "pass" if verdict else "fail"
        except Exception as exc:  # surface, never hide, per-check failures
            status, detail = "error", repr(exc)
        rows.append(VerifyRow(name, status, detail))
    return rows


def _random_linearizations(rng, count: int) -> list:
    """count random pairs of irreducible Metzler seasons, n in {2, 3}, at T = 1."""
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 4))
        out.append(floquet.TwoSeasonLinearization(random_metzler(rng, n), random_metzler(rng, n), 1.0))
    return out


def _check_derivatives(scenario, rng) -> tuple:
    worst = 0.0
    h = 1e-5
    thetas = (0.2, 0.5, 0.8)
    grid = [th + d for d in (h, -h, 0.0) for th in thetas]
    for profile in floquet.rho_profiles(_random_linearizations(rng, 8), grid):
        up, down, _ = profile.rho.reshape(3, -1).tolist()
        for plus, minus, an in zip(up, down, profile.rho_prime.reshape(3, -1)[2].tolist()):
            fd = (plus - minus) / (2 * h)
            worst = max(worst, abs(an - fd) / max(1.0, abs(an)))
    return worst <= 1e-6, f"worst rel gap {worst:.3e}"


def _check_second_derivatives(scenario, rng) -> tuple:
    worst = 0.0
    h = 1e-4
    thetas = (0.3, 0.6)
    grid = [th + d for d in (h, 0.0, -h) for th in thetas]
    for profile in floquet.rho_profiles(_random_linearizations(rng, 5), grid, second=True):
        up, mid, down = profile.rho.reshape(3, -1).tolist()
        for plus, at, minus, an in zip(up, mid, down, profile.rho_second.reshape(3, -1)[1].tolist()):
            fd = (plus - 2 * at + minus) / h**2
            worst = max(worst, abs(an - fd) / max(1.0, abs(an)))
    return worst <= 1e-4, f"worst rel gap {worst:.3e}"


def _rhos(lin, thetas) -> list:
    """floquet.rho(lin, theta)[0] at each theta, from one rho_profile; after a
    typed error, from one rho call per theta in order, as a loop of them gives."""
    try:
        return floquet.rho_profile(lin, thetas).rho.tolist()
    except ERRORS:
        return [floquet.rho(lin, th)[0] for th in thetas]


def _check_endpoints(scenario, rng) -> tuple:
    lin = linearization_from_scenario(scenario)
    t = lin.period_T
    rho0, rho1 = _rhos(lin, [0.0, 1.0])
    gap0 = abs(rho0 - np.exp(t * spectral_abscissa(lin.m2)))
    gap1 = abs(rho1 - np.exp(t * spectral_abscissa(lin.m1)))
    worst = max(gap0, gap1)
    return worst <= 1e-9, f"worst gap {worst:.3e}"


def _check_shared_eigenvector_form(scenario, rng) -> tuple:
    base = random_metzler(rng, 3)
    lin = floquet.TwoSeasonLinearization(base - 2.0 * np.eye(3), base + 1.0 * np.eye(3), 1.0)
    mu1 = spectral_abscissa(lin.m1)
    mu2 = spectral_abscissa(lin.m2)
    worst = 0.0
    thetas = np.linspace(0.0, 1.0, 21)
    for th, value in zip(thetas, floquet.rho_profile(lin, thetas).rho.tolist()):
        closed = np.exp(th * mu1 + (1.0 - th) * mu2)
        worst = max(worst, abs(value - closed) / closed)
    return worst <= 1e-10, f"worst rel gap {worst:.3e}"


def _check_threshold(scenario, rng) -> tuple:
    lin = linearization_from_scenario(scenario)
    report = floquet.find_threshold(lin, tol=scenario.tolerances.bisect_tol)
    if report.regime != "interior_root":
        return None, f"regime {report.regime}"
    delta = 10.0 * scenario.tolerances.bisect_tol
    lo, hi = _rhos(lin, [max(0.0, report.theta_star - delta), min(1.0, report.theta_star + delta)])
    ok = lo > 1.0 > hi and abs(report.rho_at_theta_star - 1.0) <= scenario.tolerances.bisect_tol
    return ok, f"theta*={report.theta_star:.12g}"


def _check_poincare_consistency(scenario, rng) -> tuple:
    lin = linearization_from_scenario(scenario)
    thetas = (0.1, 0.3, 0.5, 0.7, 0.9)
    worst = 0.0
    for th, value in zip(thetas, floquet.rho_profile(lin, thetas).rho.tolist()):
        dp = simulate.poincare_jacobian(system_from_scenario(scenario, th), np.zeros(lin.dimension))
        worst = max(worst, abs(spectral_radius(dp) - value) / value)
    return worst <= 1e-6, f"worst rel gap {worst:.3e}"


def _check_flow_properties(scenario, rng) -> tuple:
    if scenario.mode != "insect":
        return None, "linear dynamics: strict concavity not expected"
    theta = scenario.theta if scenario.theta is not None else 0.5
    system = system_from_scenario(scenario, theta)
    report = simulate.verify_flow_properties(system)
    return (
        report.all_ok,
        f"order margin {report.order_margin:.3e}, monotone margin {report.derivative_monotone_margin:.3e}",
    )


def _check_left_order(scenario, rng) -> tuple:
    # one (500, 2, 2) draw is the stream of 500 (2, 2) draws
    disagreements = conditions.left_eigenvector_order(rng.uniform(0.05, 5.0, (500, 2, 2))).disagreements
    return disagreements == 0, f"{disagreements} disagreements / 500"


def _check_equilibria(scenario, rng) -> tuple:
    worst = 0.0
    for _ in range(100):
        pi = insect.InsectParams(*(rng.uniform(0.2, 4.0, 5)))
        report = insect.equilibria(pi)
        if report.s1 is None:
            continue
        res = np.linalg.norm(insect.vector_field(pi, report.s1))
        worst = max(worst, res / (1.0 + np.linalg.norm(report.s1)))
    return worst <= 1e-12, f"worst scaled residual {worst:.3e}"


def _check_split_invariance(scenario, rng) -> tuple:
    base = random_metzler(rng, 2)
    m1 = base - 1.5 * np.eye(2)
    m2 = base + 0.5 * np.eye(2)
    schedules = [splitting.random_schedule(0.4, int(rng.integers(1, 5)), rng) for _ in range(50)]
    # exp(0) = I and I X = X exactly: zero durations at the end keep a product's bits
    width = 2 * max(s.k for s in schedules)
    rows = [s.blocks + [0.0] * (width - 2 * s.k) for s in schedules]
    values = spectral_radii(exp_products((m1, m2), rows, {})).tolist()
    spread = (max(values) - min(values)) / max(values)
    return spread <= 1e-9, f"relative spread {spread:.3e}"


def _grouped(items, key) -> list:
    """items in groups of equal key(item), each group in draw order."""
    groups = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return list(groups.values())


def _check_gelfand(scenario, rng) -> tuple:
    total = 200
    problems = []
    for _ in range(total):
        n = int(rng.integers(2, 4))
        m1 = random_metzler(rng, n)
        m2 = random_metzler(rng, n)
        schedule = splitting.random_schedule(float(rng.uniform(0.2, 0.8)), int(rng.integers(1, 4)), rng)
        problems.append((m1, m2, schedule))
    count = 0
    for group in _grouped(problems, lambda p: (len(p[0]), p[2].k)):
        m1s, m2s, schedules = zip(*group)
        seasons = np.array([m1s, m2s])
        durations = np.array([s.blocks for s in schedules]).T
        # block l of problem g is exp(durations[l, g] * seasons[l % 2, g])
        exponents = durations[:, :, None, None] * seasons[np.arange(len(durations)) % 2]
        blocks = mat_exp(exponents.reshape((-1,) + seasons.shape[2:])).reshape(exponents.shape)
        values = spectral_radii(ordered_products(blocks)).tolist()
        mu1s, mu2s = (spectral_abscissa(stack).tolist() for stack in seasons)
        for value, mu1, mu2, schedule in zip(values, mu1s, mu2s, schedules):
            count += splitting.bound_violated(value, splitting.factor_bound(mu1, mu2, schedule.theta))
    return None, f"{count} bound violations / {total} (informational)"


def _check_timescale(scenario, rng) -> tuple:
    lin = linearization_from_scenario(scenario)
    report = floquet.timescale_asymptotics(lin, [1.0, 2.0, 4.0, 8.0, 16.0], theta=0.5)
    final_gap = abs(report.corrections[-1] - report.limit_correction)
    small_gap = abs(report.rho_at_t_small - 1.0)
    ok = final_gap <= 1e-3 and small_gap <= 1e-4
    return ok, f"correction gap {final_gap:.3e}, rho(T->0) gap {small_gap:.3e}"


CHECKS = (
    ("derivative_vs_fd", _check_derivatives),
    ("second_derivative_vs_fd", _check_second_derivatives),
    ("single_season_endpoints", _check_endpoints),
    ("shared_eigenvector_closed_form", _check_shared_eigenvector_form),
    ("threshold", _check_threshold),
    ("poincare_vs_monodromy", _check_poincare_consistency),
    ("flow_properties", _check_flow_properties),
    ("left_order_equivalence", _check_left_order),
    ("equilibrium_identity", _check_equilibria),
    ("split_invariance", _check_split_invariance),
    ("gelfand_probe", _check_gelfand),
    ("timescale_limits", _check_timescale),
)
