"""Fixed-step integration of seasonal systems, the period map, and the
classification of long-run behavior.

The stepper is classical RK4 with mandatory mesh points at every season
boundary, so the piecewise-autonomous right-hand side is never evaluated
across a discontinuity inside a step. Within a chunk the active piece is
resolved once, at the chunk midpoint.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, InconsistencyError, InvalidInputError
from .linalg import spectral_radius
from .seasonal import SeasonalSystem, season_index

DEFAULT_STEPS_PER_PERIOD = 2000
DEFAULT_EXTINCTION_THRESHOLD = 1e-9
DEFAULT_DIVERGENCE_BOUND = 1e9
_EXTINCT_PERIODS = 3
_MAX_PERIODS = 2000  # Picard budget of find_periodic_orbit
# invasion probe: start amplitude, period budget, periods before the growth
# rate may count as settled, and the relative change that counts as settled
_PROBE_SCALE = 1e-8
_PROBE_PERIODS = 400
_PROBE_SETTLE = 6
_PROBE_REL_TOL = 0.02
_FLOW_SAMPLE_SEED = 99
_FLOW_STRICTNESS = 1e-9


@dataclass
class _Clamp:
    """Clamp diagnostics of the state flow. `settle` is the rule _rk4 runs
    after each step: snap negative components to zero and count them, stop at
    the divergence bound, and hand the sample to record."""

    bound: float
    record: Callable | None = None
    clamp_count: int = 0
    min_component: float = np.inf

    def settle(self, t: float, x: np.ndarray) -> np.ndarray:
        low = float(x.min())
        if low < self.min_component:
            self.min_component = low
        if low < 0.0:
            self.clamp_count += int(np.count_nonzero(x < 0.0))
            x = np.maximum(x, 0.0)
        if float(np.linalg.norm(x)) > self.bound:
            raise DivergenceError("trajectory norm exceeded divergence bound", time=t, state=x)
        if self.record is not None:
            self.record(t, x)
        return x


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: one row per accepted step, season boundaries included.

    min_component is the most negative raw component seen before clamping;
    clamp_count how many components were snapped back to zero.
    """

    times: np.ndarray
    states: np.ndarray
    season_tags: np.ndarray
    clamp_count: int
    min_component: float
    diverged: bool = False


def _boundary_times(system: SeasonalSystem, t0: float, t1: float) -> list:
    t = system.period_T
    bps = system.schedule.breakpoints
    out = set()
    n_lo = int(np.floor(t0 / t)) - 1
    n_hi = int(np.floor(t1 / t)) + 1
    for n in range(n_lo, n_hi + 1):
        for bp in bps:
            s = (n + bp) * t
            if t0 < s < t1:
                out.add(s)
    return sorted(out)


def _chunks(system: SeasonalSystem, t0: float, t1: float):
    knots = [t0] + _boundary_times(system, t0, t1) + [t1]
    for a, b in zip(knots, knots[1:]):
        if b > a:
            yield a, b, system.pieces[season_index(system.schedule, 0.5 * (a + b)) - 1]


def _rk4(system: SeasonalSystem, x, t0: float, t1: float, step: float, rhs, settle):
    """Classical RK4 from t0 to t1 in equal steps that land on every season knot.

    rhs(piece) is the field used on that piece's chunks; settle(t, x) runs
    after every step and returns the state the next step starts from.
    """
    for a, b, piece in _chunks(system, t0, t1):
        f = rhs(piece)
        nsteps = max(1, int(np.ceil((b - a) / step - 1e-12)))
        h = (b - a) / nsteps
        for i in range(nsteps):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # land exactly on the chunk endpoint (season boundaries are knots)
            x = settle(b if i == nsteps - 1 else a + (i + 1) * h, x)
    return x


def _state_field(piece):
    return piece.vector_field


def _default_step(system: SeasonalSystem, step) -> float:
    if step is None:
        return system.period_T / DEFAULT_STEPS_PER_PERIOD
    if not (step > 0.0 and np.isfinite(step)):
        raise InvalidInputError(f"step must be positive, got {step}")
    return float(step)


def integrate(
    system: SeasonalSystem,
    x0,
    t0: float,
    t1: float,
    step: float | None = None,
    divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
) -> Trajectory:
    """RK4 trajectory from t0 to t1 sampled at every accepted step.

    On hitting the divergence bound the trajectory is truncated and flagged
    instead of raising.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.dimension,):
        raise InvalidInputError(f"x0 shape {x0.shape} does not match dimension")
    if np.any(x0 < 0.0):
        raise InvalidInputError("x0 must be nonnegative")
    if t1 < t0:
        raise InvalidInputError("t1 must be >= t0")
    step = _default_step(system, step)
    times = [t0]
    states = [x0.copy()]

    def record(t, x):
        times.append(t)
        states.append(x.copy())

    clamp = _Clamp(divergence_bound, record, min_component=float(x0.min()))
    diverged = False
    try:
        _rk4(system, x0, t0, t1, step, _state_field, clamp.settle)
    except DivergenceError:
        diverged = True
    times = np.asarray(times)
    states = np.asarray(states)
    tags = np.array([season_index(system.schedule, float(t)) for t in times])
    return Trajectory(
        times=times,
        states=states,
        season_tags=tags,
        clamp_count=clamp.clamp_count,
        min_component=clamp.min_component,
        diverged=diverged,
    )


def poincare_map(
    system: SeasonalSystem,
    x,
    step: float | None = None,
    divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
) -> np.ndarray:
    """State after exactly one period, started at phase zero."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise InvalidInputError("state must be nonnegative")
    step = _default_step(system, step)
    settle = _Clamp(divergence_bound).settle
    return _rk4(system, x, 0.0, system.period_T, step, _state_field, settle)


def poincare_jacobian(
    system: SeasonalSystem,
    x,
    step: float | None = None,
    divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
) -> np.ndarray:
    """Derivative of the period map at x, by the joint variational system.

    The base state and the fundamental matrix share one augmented RK4 pass so
    both see identical season boundaries.
    """
    x = np.asarray(x, dtype=float)
    n = system.dimension
    if x.shape != (n,):
        raise InvalidInputError(f"state shape {x.shape} does not match dimension")
    step = _default_step(system, step)

    def joint_field(piece):
        f, jac = piece.vector_field, piece.jacobian

        def rhs(z):
            base = z[:n]
            fund = z[n:].reshape(n, n)
            return np.concatenate([f(base), (jac(base) @ fund).ravel()])

        return rhs

    def settle(t, z):
        if float(np.linalg.norm(z[:n])) > divergence_bound:
            raise DivergenceError("base trajectory diverged", time=t, state=z[:n])
        return z

    aug0 = np.concatenate([x, np.eye(n).ravel()])
    aug = _rk4(system, aug0, 0.0, system.period_T, step, joint_field, settle)
    return aug[n:].reshape(n, n)


@dataclass(frozen=True)
class PoincareResult:
    """Outcome of iterating the period map from one start.

    classification is "extinction", "periodic_positive", "divergent" or
    "undecided"; multiplier_lambda is the dominant multiplier of the
    linearization at zero, always reported.
    """

    fixed_point: np.ndarray
    residual: float
    iterations: int
    classification: str
    multiplier_lambda: float


def find_periodic_orbit(
    system: SeasonalSystem,
    x0,
    tol: float = 1e-9,
    step: float | None = None,
    extinction_threshold: float = DEFAULT_EXTINCTION_THRESHOLD,
    divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
) -> PoincareResult:
    """Iterate the period map until it settles, dies out, or blows up.

    Plain Picard iteration: the contraction structure of concave monotone
    flows makes it globally convergent, so no root finder is needed.
    Extinction requires the state norm to stay below the threshold for three
    consecutive periods; classifications near the exact threshold may come
    back "undecided" within the period budget.
    """
    step = _default_step(system, step)
    lam = spectral_radius(poincare_jacobian(system, np.zeros(system.dimension), step=step))
    x = np.asarray(x0, dtype=float).copy()
    positivity_floor = 10.0 * extinction_threshold
    below = 0
    iterations = 0
    try:
        while iterations < _MAX_PERIODS:
            nxt = poincare_map(system, x, step=step, divergence_bound=divergence_bound)
            iterations += 1
            diff = float(np.linalg.norm(nxt - x))
            if float(np.linalg.norm(nxt)) < extinction_threshold:
                below += 1
                if below >= _EXTINCT_PERIODS:
                    return PoincareResult(nxt, diff, iterations, "extinction", lam)
            else:
                below = 0
                if diff <= tol and float(nxt.min()) > positivity_floor:
                    check = poincare_map(system, nxt, step=step, divergence_bound=divergence_bound)
                    residual = float(np.linalg.norm(check - nxt))
                    return PoincareResult(nxt, residual, iterations, "periodic_positive", lam)
            x = nxt
        residual = float(
            np.linalg.norm(poincare_map(system, x, step=step, divergence_bound=divergence_bound) - x)
        )
    except DivergenceError:
        return PoincareResult(x, float("nan"), iterations, "divergent", lam)
    return PoincareResult(x, residual, iterations, "undecided", lam)


def linear_growth_persistent(system: SeasonalSystem, step: float | None = None) -> bool:
    """Invasion probe: does a tiny population grow over the periods?

    Simulates the full nonlinear system from 1e-8 * (1, ..., 1) and watches
    the per-period log growth; at this amplitude the dynamics are effectively
    the linearization at zero, so the stabilized sign measures the dominant
    multiplier against 1.
    """
    step = _default_step(system, step)
    x = np.full(system.dimension, _PROBE_SCALE)
    prev_norm = float(np.linalg.norm(x))
    prev_delta = None
    delta = 0.0
    for i in range(_PROBE_PERIODS):
        x = poincare_map(system, x, step=step)
        cur = float(np.linalg.norm(x))
        if cur > _PROBE_SCALE * 1e6:
            return True
        if cur <= _PROBE_SCALE * 1e-6:
            return False
        delta = float(np.log(cur / prev_norm))
        if (
            prev_delta is not None
            and i >= _PROBE_SETTLE
            and abs(delta - prev_delta) <= _PROBE_REL_TOL * max(abs(delta), 1e-10)
        ):
            return delta > 0.0
        prev_delta = delta
        prev_norm = cur
    return delta > 0.0


def empirical_threshold(
    family,
    grid,
    tol: float = 0.005,
    step: float | None = None,
) -> float:
    """Simulated extinction/persistence boundary over a family theta -> system.

    Classifies every grid theta by the invasion probe, requires the labels to
    be monotone (persistent below, extinct above), then bisects the boundary
    cell down to tol. Returns 1.0 and 0.0 for the all-persistent and
    all-extinct families.
    """
    grid = sorted(float(g) for g in grid)
    if len(grid) < 3:
        raise InvalidInputError("grid must contain at least 3 points")

    def probe(theta: float) -> bool:
        return linear_growth_persistent(family(theta), step=step)

    labels = [probe(th) for th in grid]
    for earlier, later in zip(labels, labels[1:]):
        if later and not earlier:
            raise InconsistencyError(
                "persistence labels are not monotone across the grid",
                classifications=list(zip(grid, labels)),
            )
    if all(labels):
        return 1.0
    if not any(labels):
        return 0.0
    lo = max(th for th, lab in zip(grid, labels) if lab)
    hi = min(th for th, lab in zip(grid, labels) if not lab)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FlowPropertyReport:
    """Sampled checks of the period map's order and concavity structure.

    positivity: solutions from nonnegative starts stay nonnegative.
    order: the period map preserves strict ordering of states.
    derivative_positive: DP(0) strictly positive, DP(x) nonnegative.
    derivative_monotone: DP decreases (entrywise, somewhere strictly) along
    ordered state pairs; `derivative_boundary` flags the non-strict case of
    linear dynamics.
    """

    positivity: bool
    positivity_margin: float
    order: bool
    order_margin: float
    derivative_positive: bool
    derivative_positive_margin: float
    derivative_monotone: bool
    derivative_monotone_margin: float
    derivative_boundary: bool
    details: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return (
            self.positivity
            and self.order
            and self.derivative_positive
            and self.derivative_monotone
        )


def default_flow_samples(dimension: int):
    rng = np.random.default_rng(_FLOW_SAMPLE_SEED)
    states = [np.zeros(dimension)]
    for i in range(dimension):
        e = np.zeros(dimension)
        e[i] = 1.0
        states.append(e)
    states += [rng.uniform(0.0, 3.0, dimension) for _ in range(4)]
    pairs = []
    for _ in range(6):
        x = rng.uniform(0.1, 2.0, dimension)
        y = x + rng.uniform(0.1, 1.5, dimension)
        pairs.append((x, y))
    return states, pairs


def verify_flow_properties(
    system: SeasonalSystem, step: float | None = None
) -> FlowPropertyReport:
    """Check the flow properties on the states and ordered pairs of
    default_flow_samples."""
    step = _default_step(system, step)
    sample_states, ordered_pairs = default_flow_samples(system.dimension)

    positivity_margin = np.inf
    for s in sample_states:
        traj = integrate(system, s, 0.0, system.period_T, step=step)
        positivity_margin = min(positivity_margin, traj.min_component)

    order_margin = np.inf
    for x, y in ordered_pairs:
        px = poincare_map(system, x, step=step)
        py = poincare_map(system, y, step=step)
        order_margin = min(order_margin, float((py - px).min()))

    dp0 = poincare_jacobian(system, np.zeros(system.dimension), step=step)
    dp0_margin = float(dp0.min())
    nonneg_margin = np.inf
    for s in sample_states:
        if np.all(np.asarray(s) > 0.0):
            nonneg_margin = min(nonneg_margin, float(poincare_jacobian(system, s, step=step).min()))
    if not np.isfinite(nonneg_margin):
        nonneg_margin = dp0_margin

    mono_entry = np.inf
    mono_strict = np.inf
    for x, y in ordered_pairs:
        gap = poincare_jacobian(system, x, step=step) - poincare_jacobian(system, y, step=step)
        mono_entry = min(mono_entry, float(gap.min()))
        mono_strict = min(mono_strict, float(gap.max()))

    return FlowPropertyReport(
        positivity=positivity_margin >= -1e-9,
        positivity_margin=positivity_margin,
        order=order_margin > _FLOW_STRICTNESS,
        order_margin=order_margin,
        derivative_positive=dp0_margin > _FLOW_STRICTNESS and nonneg_margin >= -1e-12,
        derivative_positive_margin=min(dp0_margin, nonneg_margin),
        derivative_monotone=mono_entry >= -_FLOW_STRICTNESS and mono_strict > _FLOW_STRICTNESS,
        derivative_monotone_margin=mono_strict,
        derivative_boundary=abs(mono_strict) <= _FLOW_STRICTNESS,
        details={
            "dp0_min_entry": dp0_margin,
            "dp_nonneg_min_entry": nonneg_margin,
            "monotone_entry_min": mono_entry,
        },
    )
