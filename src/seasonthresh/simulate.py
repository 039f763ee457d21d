"""Fixed-step integration of seasonal systems, the period map, and the
classification of long-run behavior.

The stepper is classical RK4 with mandatory mesh points at every season
boundary, so the piecewise-autonomous right-hand side is never evaluated
across a discontinuity inside a step. Within a chunk the active piece is
resolved once, at the chunk midpoint.

One pass can carry many lanes: a sequence of B systems stepping a state of
shape (B, m). Each lane takes exactly the steps, and the arithmetic, of a
pass of its system alone, so its rows have that pass's bits. Lanes in the
same piece, or in pieces of one lane form (AutonomousPiece.lane_form), share
each field evaluation.

At zero the variational pass is linear, so DP(0) takes no pass: it is the
product of RK4's stability polynomial at each chunk's h*A, raised to the
chunk's step count by repeated squaring.
"""

import bisect
import math
import numbers
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import DivergenceError, InconsistencyError, InvalidInputError
from .linalg import as_square_matrix, spectral_radius
from .seasonal import SeasonalSystem, season_index, season_indices

DEFAULT_STEPS_PER_PERIOD = 2000
DEFAULT_EXTINCTION_THRESHOLD = 1e-9
DEFAULT_DIVERGENCE_BOUND = 1e9
_EXTINCT_PERIODS = 3
_MAX_PERIODS = 2000  # Picard budget of find_periodic_orbit
_NEWTON_STEPS = 30  # Newton budget of find_periodic_orbit before Picard takes over
_RK4_REAL_BOUND = 2.785  # RK4 is stable on the negative real axis up to h|lambda| = 2.785
_FLOW_SAMPLE_SEED = 99
_FLOW_STRICTNESS = 1e-9
_TRAJECTORY_DIVERGED = "trajectory norm exceeded divergence bound"
_BASE_DIVERGED = "base trajectory diverged"


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
        if math.sqrt(x.dot(x)) > self.bound:  # the bits of np.linalg.norm(x)
            raise DivergenceError(_TRAJECTORY_DIVERGED, time=t, state=x)
        if self.record is not None:
            self.record(t, x)
        return x


class _Lanes:
    """Divergence of a lane-batched pass. A lane whose base state passes the
    bound keeps its DivergenceError and is zeroed, so it stays finite and
    inert while the others finish; `raise_first` then raises the error a run
    of one-lane passes in lane order would have raised."""

    def __init__(self, bound: float, count: int, message: str):
        self.bound = bound
        self.message = message
        self.errors = [None] * count
        self.alive = np.ones(count, dtype=bool)

    def cull(self, t: np.ndarray, x: np.ndarray, base: np.ndarray) -> np.ndarray:
        over = np.sqrt((base * base).sum(axis=1)) > self.bound
        if over.any():
            for lane in np.flatnonzero(over):
                self.errors[lane] = DivergenceError(
                    self.message, time=float(t[lane, 0]), state=base[lane].copy()
                )
            self.alive &= ~over
            x = np.where(over[:, None], 0.0, x)
        return x

    def raise_first(self):
        for error in self.errors:
            if error is not None:
                raise error


class _LaneClamp(_Lanes):
    """_Clamp over lanes: negatives snapped to zero, each lane's most negative
    raw component, and divergence per lane."""

    def __init__(self, bound: float, x0: np.ndarray):
        super().__init__(bound, len(x0), _TRAJECTORY_DIVERGED)
        self.min_component = x0.min(axis=1)

    def settle(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        low = x.min(axis=1)
        lower = self.alive & (low < self.min_component)
        self.min_component = np.where(lower, low, self.min_component)
        if low.min() < 0.0:
            x = np.maximum(x, 0.0)
        return self.cull(t, x, x)


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


def _chunks(system: SeasonalSystem, t0: float, t1: float, step: float) -> list:
    """(a, b, piece, nsteps, h) per chunk: equal steps h <= step from a to b."""
    knots = [t0] + _boundary_times(system, t0, t1) + [t1]
    out = []
    for a, b in zip(knots, knots[1:]):
        if b > a:
            nsteps = max(1, int(np.ceil((b - a) / step - 1e-12)))
            piece = system.pieces[season_index(system.schedule, 0.5 * (a + b)) - 1]
            out.append((a, b, piece, nsteps, (b - a) / nsteps))
    return out


def _runs(system, t0, t1, step):
    """Runs of RK4 steps over which every lane keeps its piece and step size.

    Yields (groups, h, times, mask): `groups` pairs each piece with the rows
    it steps (None: all rows), `h` is the step, `times[i]` the time step i
    lands on, and `mask` marks the lanes still stepping (None when all are).
    One system yields its chunks with scalars; lanes yield (B, 1) columns,
    and a lane that has finished rides along in its last piece, masked.
    """
    if isinstance(system, SeasonalSystem):
        for a, b, piece, nsteps, h in _chunks(system, t0, t1, step):
            yield [(piece, None)], h, [a + (i + 1) * h for i in range(nsteps - 1)] + [b], None
        return
    plans = [_chunks(s, t0, t, dt) for s, t, dt in zip(system, t1, step)]
    starts = [np.cumsum([0] + [c[3] for c in plan]).tolist() for plan in plans]
    cuts = sorted({s for lane in starts for s in lane})
    for s0, s1 in zip(cuts, cuts[1:]):
        a, h, end = (np.zeros((len(plans), 1)) for _ in range(3))
        offset = np.zeros((len(plans), 1), dtype=int)
        mask = np.ones((len(plans), 1), dtype=bool)
        pieces = []
        for lane, (plan, start) in enumerate(zip(plans, starts)):
            c = bisect.bisect_right(start, s0) - 1
            if c == len(plan):
                mask[lane] = False
                pieces.append(plan[-1][2] if plan else system[lane].pieces[0])
                continue
            a[lane], b, piece, _, h[lane] = plan[c]
            offset[lane] = s0 - start[c]
            # land exactly on the chunk endpoint (season boundaries are knots)
            end[lane] = b if start[c + 1] == s1 else a[lane] + (offset[lane] + s1 - s0) * h[lane]
            pieces.append(piece)
        times = _lane_times(a, offset, h, end, s1 - s0)
        yield _lane_groups(pieces), h, times, None if mask.all() else mask


def _lane_times(a, offset, h, end, count):
    """Each lane's time after each step of a run, as a one-lane chunk has it."""
    for i in range(count - 1):
        yield a + (offset + i + 1) * h
    yield end


def _lane_groups(pieces: list) -> list:
    """Cover the lanes with as few field calls as possible: one piece for all
    rows, the row-wise piece of a lane form every piece shares, or else each
    piece with its rows."""
    if all(p is pieces[0] for p in pieces):
        return [(pieces[0], None)]
    form = pieces[0].lane_form
    if form is not None and all(p.lane_form is form for p in pieces):
        vector_field, jacobian = form([p.params for p in pieces])
        return [(SimpleNamespace(vector_field=vector_field, jacobian=jacobian), None)]
    groups = {}
    for lane, p in enumerate(pieces):
        groups.setdefault(id(p), (p, []))[1].append(lane)
    return [(p, np.asarray(rows)) for p, rows in groups.values()]


def _field(rhs, groups):
    """The field of a run: one piece's rhs, or each group's rhs on its rows."""
    if groups[0][1] is None:
        return rhs(groups[0][0])
    parts = [(rhs(piece), rows) for piece, rows in groups]

    def f(x):
        out = np.empty_like(x)
        for g, rows in parts:
            out[rows] = g(x[rows])
        return out

    return f


def _check_stability(system, step):
    """Refuse a step past RK4's real stability bound at zero, before stepping."""
    lanes = [(system, step)] if isinstance(system, SeasonalSystem) else zip(system, step)
    rates = {}
    for lane, h in lanes:
        for piece in lane.pieces:
            if id(piece) not in rates:
                rates[id(piece)] = float(np.abs(np.linalg.eigvals(piece.linearization_at_zero)).max())
        rate = max(rates[id(piece)] for piece in lane.pieces)
        if h * rate > _RK4_REAL_BOUND:
            raise InvalidInputError(
                f"RK4 is unstable at this step: h*|lambda| = {h * rate:.6g} exceeds its real "
                f"stability bound {_RK4_REAL_BOUND} (h = {h:.6g}, |lambda| = {rate:.6g}, the "
                "largest eigenvalue modulus of the seasons' Jacobians at zero); use a smaller ode_step"
            )


def _rk4(system, x, t0, t1, step, rhs, settle):
    """Classical RK4 from t0 to t1 in equal steps that land on every season knot.

    One system steps a state of shape (m,). A sequence of B systems steps
    lanes, a state of shape (B, m), with t1 and step given per lane.
    rhs(piece) is the field used on that piece's chunks, for either shape;
    settle(t, x) runs after every step and returns the state the next step
    starts from.
    """
    _check_stability(system, step)
    for groups, h, times, mask in _runs(system, t0, t1, step):
        f = _field(rhs, groups)
        half, sixth = 0.5 * h, h / 6.0
        for t in times:
            k1 = f(x)
            k2 = f(x + half * k1)
            k3 = f(x + half * k2)
            k4 = f(x + h * k3)
            new = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if mask is not None:  # finished lanes step by h = 0, but keep their bits
                new = np.where(mask, new, x)
            x = settle(t, new)
    return x


def _state_field(piece):
    return piece.vector_field


def _default_step(system, step):
    """The step of one system, or the list of per-lane steps. Lanes take one
    step (or None) for all of them, or a sequence of one step per lane."""
    lanes = not isinstance(system, SeasonalSystem)
    if isinstance(step, (list, tuple)) or np.ndim(step) > 0:
        if not (lanes and len(step) == len(system)):
            raise InvalidInputError(f"a step sequence needs one step per lane, got {step!r}")
        return [_positive_step(h) for h in step]
    if lanes:
        return [_default_step(lane, step) for lane in system]
    if step is None:
        return system.period_T / DEFAULT_STEPS_PER_PERIOD
    return _positive_step(step)


def _positive_step(step) -> float:
    if not isinstance(step, numbers.Real):
        raise InvalidInputError(f"step must be a number, got {step!r}")
    if not (step > 0.0 and np.isfinite(step)):
        raise InvalidInputError(f"step must be positive, got {step}")
    return float(step)


def _period(system):
    if isinstance(system, SeasonalSystem):
        return system.period_T
    return [lane.period_T for lane in system]


def _state_shape(system) -> tuple:
    """(n,) for one system, (B, n) for B lanes."""
    if isinstance(system, SeasonalSystem):
        return (system.dimension,)
    dims = {lane.dimension for lane in system}
    if len(dims) != 1:
        raise InvalidInputError(f"lanes disagree on dimension: {sorted(dims)}")
    return (len(system), dims.pop())


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
    return Trajectory(
        times=times,
        states=states,
        season_tags=season_indices(system.schedule, times),
        clamp_count=clamp.clamp_count,
        min_component=clamp.min_component,
        diverged=diverged,
    )


def poincare_map(
    system,
    x,
    step: float | None = None,
    divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
) -> np.ndarray:
    """State after exactly one period, started at phase zero.

    `system` may be a sequence of B systems with x of shape (B, n): one
    lane-batched pass whose rows have the bits of one-lane passes. A lane
    that diverges raises after the pass, the first one in lane order.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise InvalidInputError("state must be nonnegative")
    step = _default_step(system, step)
    if isinstance(system, SeasonalSystem):
        settle = _Clamp(divergence_bound).settle
        return _rk4(system, x, 0.0, system.period_T, step, _state_field, settle)
    if x.shape != _state_shape(system):
        raise InvalidInputError(f"state shape {x.shape} does not match the lanes")
    clamp = _LaneClamp(divergence_bound, x)
    x = _rk4(system, x, 0.0, _period(system), step, _state_field, clamp.settle)
    clamp.raise_first()
    return x


def _variational(
    system,
    x: np.ndarray,
    step,
    divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
) -> tuple[np.ndarray, np.ndarray]:
    """P(x) and DP(x) from one RK4 pass of the joint variational system.

    The base state and the fundamental matrix share the augmented pass, so
    both see identical season boundaries; the base part takes the steps
    poincare_map takes, without its clamp. Over lanes (a sequence of B
    systems, x of shape (B, n), per-lane steps) P is (B, n) and DP
    (B, n, n), and a diverged lane raises after the pass, the first in lane
    order.
    """
    n = x.shape[-1]
    lead = x.shape[:-1]
    single = isinstance(system, SeasonalSystem)
    # a group of lanes has rows of its own, so lanes reshape with -1
    base_of, fund_of = (np.s_[:n], np.s_[n:]) if single else (np.s_[:, :n], np.s_[:, n:])
    square, flat = ((n, n), (n * n,)) if single else ((-1, n, n), (-1, n * n))

    def joint_field(piece):
        f, jac = piece.vector_field, piece.jacobian

        def rhs(z):
            base = z[base_of]
            dfund = jac(base) @ z[fund_of].reshape(square)
            return np.concatenate([f(base), dfund.reshape(flat)], axis=-1)

        return rhs

    if single:
        def settle(t, z):
            base = z[:n]
            if math.sqrt(base.dot(base)) > divergence_bound:  # the bits of np.linalg.norm
                raise DivergenceError(_BASE_DIVERGED, time=t, state=base)
            return z

        guard = None
    else:
        guard = _Lanes(divergence_bound, len(x), _BASE_DIVERGED)

        def settle(t, z):
            return guard.cull(t, z, z[:, :n])

    fund0 = np.broadcast_to(np.eye(n).ravel(), lead + (n * n,))
    aug0 = np.concatenate([x, fund0], axis=-1)
    aug = _rk4(system, aug0, 0.0, _period(system), step, joint_field, settle)
    if guard is not None:
        guard.raise_first()
    return aug[..., :n], aug[..., n:].reshape(lead + (n, n))


def _offset(e: np.ndarray) -> tuple:
    """A power R^k held as a pair (m, offset): (R^k - I, True) while that
    offset's row-sum norm is below 1/2, which keeps the digits an RK4 step
    adds to I; else the plain matrix, (R^k, False)."""
    if np.abs(e).sum(axis=1).max() < 0.5:
        return e, True
    return e + np.eye(len(e)), False


def _times(a: tuple, b: tuple) -> tuple:
    """The product of two matrices held as _offset pairs, as such a pair."""
    (x, x_offset), (y, y_offset) = a, b
    if x_offset and y_offset:  # (I + x)(I + y) = I + (x + y + xy)
        return _offset(x + y + x @ y)
    eye = np.eye(len(x))
    return (x + eye if x_offset else x) @ (y + eye if y_offset else y), False


def _rk4_power(a: np.ndarray, h: float, n: int) -> tuple:
    """R(hA)^n by binary squaring, for RK4's stability polynomial
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24: n RK4 steps of x' = Ax."""
    z = h * a
    z2 = z @ z
    base = _offset(z + z2 @ (0.5 * np.eye(len(a)) + z / 6.0 + z2 / 24.0))
    power = (np.zeros_like(z), True)
    while True:
        if n & 1:
            power = _times(power, base)
        n >>= 1
        if not n:
            return power
        base = _times(base, base)


def _propagator_at_zero(system: SeasonalSystem, step: float) -> np.ndarray:
    """DP(0): the product over the period's chunks of R(hA)^nsteps, A the
    chunk's Jacobian at zero, which is what the RK4 variational pass at zero
    computes step by step."""
    origin = np.zeros(system.dimension)
    product = (np.zeros((system.dimension,) * 2), True)
    with np.errstate(over="ignore", invalid="ignore"):
        for _, _, piece, nsteps, h in _chunks(system, 0.0, system.period_T, step):
            a = as_square_matrix(piece.jacobian(origin))
            product = _times(_rk4_power(a, h, nsteps), product)
    dp = product[0] + np.eye(system.dimension) if product[1] else product[0]
    if not np.all(np.isfinite(dp)):
        raise InvalidInputError(
            f"the RK4 propagator at zero overflowed double precision (period {system.period_T:g})"
        )
    return dp


def poincare_jacobian(
    system,
    x,
    step: float | None = None,
    divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
) -> np.ndarray:
    """Derivative of the period map at x, by the joint variational system.

    At x = 0 the base state stays at 0, so the pass applies one matrix per
    step: DP(0) is the RK4 propagator of each piece's Jacobian at zero,
    R(hA)^nsteps per chunk, computed by repeated squaring in about
    2 log2(nsteps) products instead of stepping. It raises InvalidInputError
    when that overflows double precision.

    Over lanes (a sequence of B systems, x of shape (B, n)) it returns the
    (B, n, n) stack: the lanes at zero take their propagators and the others
    one pass, so each row has the bits of its one-lane call. A diverging lane
    of the pass raises before a lane at zero whose propagator overflows.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != _state_shape(system):
        raise InvalidInputError(f"state shape {x.shape} does not match dimension")
    step = _default_step(system, step)
    if isinstance(system, SeasonalSystem):
        if x.any():
            return _variational(system, x, step, divergence_bound)[1]
        _check_stability(system, step)
        return _propagator_at_zero(system, step)
    _check_stability(system, step)
    dp = np.empty(x.shape + x.shape[-1:])
    moving = x.any(axis=1)
    if moving.any():
        rows = np.flatnonzero(moving)
        lanes, steps = [system[k] for k in rows], [step[k] for k in rows]
        dp[rows] = _variational(lanes, x[rows], steps, divergence_bound)[1]
    for k in np.flatnonzero(~moving):
        dp[k] = _propagator_at_zero(system[k], step[k])
    return dp


@dataclass(frozen=True)
class PoincareResult:
    """Outcome of solving for a fixed point of the period map from one start.

    classification is "extinction", "periodic_positive", "divergent" or
    "undecided"; multiplier_lambda is the dominant multiplier of the
    linearization at zero, always reported. iterations counts the
    variational passes and mapped periods taken.
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
    """Solve P(x) = x by Newton from x0, or iterate P when Newton cannot.

    Each Newton step takes P(x) and DP(x) from one variational pass and solves
    (DP(x) - I) d = x - P(x). x is "periodic_positive" once
    |P(x) - x| <= tol with every component above 10 * extinction_threshold
    (the residual reported is that |P(x) - x|). An iterate whose norm falls
    below the threshold is "extinction" once three more mapped periods stay
    below it. Picard iteration from x0 takes over, with the labels and rules
    above, when DP(x) - I is singular, a step leaves the nonnegative cone or
    the divergence bound, Newton lands on 0 while lambda > 1 (zero is then
    unstable), a pass diverges, or Newton has not settled within its budget.
    Classifications near the exact threshold may come back "undecided".
    """
    step = _default_step(system, step)
    n = system.dimension
    x = x0 = np.array(x0, dtype=float)
    if x.shape != (n,):
        raise InvalidInputError(f"x0 shape {x.shape} does not match dimension")
    if np.any(x < 0.0):
        raise InvalidInputError("state must be nonnegative")
    lam = spectral_radius(poincare_jacobian(system, np.zeros(n), step=step))
    iterations = 0
    while iterations < _NEWTON_STEPS:
        try:
            px, jac = _variational(system, x, step, divergence_bound)
        except DivergenceError:
            break
        iterations += 1
        residual = float(np.linalg.norm(px - x))
        if residual <= tol and float(x.min()) > 10.0 * extinction_threshold:
            return PoincareResult(x, residual, iterations, "periodic_positive", lam)
        try:
            x = x + np.linalg.solve(jac - np.eye(n), x - px)
        except np.linalg.LinAlgError:
            break
        if float(np.linalg.norm(x)) < extinction_threshold:
            if lam > 1.0:
                break
            # landed on 0: rounding may leave it a hair outside the cone
            result = _confirm_extinction(
                system, np.maximum(x, 0.0), step, extinction_threshold, divergence_bound,
                lam, iterations,
            )
            if result is not None:
                return result
            iterations += _EXTINCT_PERIODS
            break
        if not np.all(x >= 0.0) or float(np.linalg.norm(x)) > divergence_bound:
            break
    return _picard(system, x0, tol, step, extinction_threshold, divergence_bound, lam, iterations)


def _confirm_extinction(system, x, step, threshold, divergence_bound, lam, iterations):
    """The extinction result if x stays below the threshold for three mapped
    periods, else None."""
    for _ in range(_EXTINCT_PERIODS):
        nxt = poincare_map(system, x, step=step, divergence_bound=divergence_bound)
        iterations += 1
        diff = float(np.linalg.norm(nxt - x))
        x = nxt
        if float(np.linalg.norm(x)) >= threshold:
            return None
    return PoincareResult(x, diff, iterations, "extinction", lam)


def _picard(system, x, tol, step, extinction_threshold, divergence_bound, lam, iterations):
    """Iterate the period map from x until it settles, dies out, or blows up,
    within _MAX_PERIODS periods; iterations counts on from the given value."""
    positivity_floor = 10.0 * extinction_threshold
    below = 0
    budget = iterations + _MAX_PERIODS
    try:
        while iterations < budget:
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


def empirical_threshold(
    family,
    grid,
    tol: float = 0.005,
    step: float | None = None,
) -> float:
    """Simulated extinction/persistence boundary over a family theta -> system.

    Labels theta persistent when the simulated dominant multiplier at zero,
    the spectral radius of poincare_jacobian(family(theta), 0), exceeds 1;
    the grid points are labeled from one lane-batched call. Requires the
    labels to be monotone (persistent below, extinct above), then bisects the
    boundary cell down to tol. Returns 1.0 and 0.0 for the all-persistent and
    all-extinct families.
    """
    grid = sorted(float(g) for g in grid)
    if len(grid) < 3:
        raise InvalidInputError("grid must contain at least 3 points")
    systems = [family(th) for th in grid]
    zeros = np.zeros(_state_shape(systems))
    labels = [spectral_radius(dp) > 1.0 for dp in poincare_jacobian(systems, zeros, step=step)]
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
        if spectral_radius(poincare_jacobian(family(mid), zeros[0], step=step)) > 1.0:
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
    default_flow_samples, in two lane-batched passes: one period of the
    clamped flow from every sample state (truncated where it diverges, as
    integrate does), and one variational pass at 0, at the positive samples
    and at both ends of every pair."""
    step = _default_step(system, step)
    sample_states, ordered_pairs = default_flow_samples(system.dimension)

    starts = np.array(sample_states)
    clamp = _LaneClamp(DEFAULT_DIVERGENCE_BOUND, starts)
    lanes = [system] * len(starts)
    _rk4(lanes, starts, 0.0, _period(lanes), [step] * len(lanes), _state_field, clamp.settle)
    positivity_margin = float(clamp.min_component.min())

    positive = [s for s in sample_states if np.all(s > 0.0)]
    points = [np.zeros(system.dimension)] + positive + [s for pair in ordered_pairs for s in pair]
    lanes = [system] * len(points)
    mapped, dp = _variational(lanes, np.array(points), [step] * len(lanes))

    dp0_margin = float(dp[0].min())
    nonneg_margin = np.inf
    for d in dp[1:1 + len(positive)]:
        nonneg_margin = min(nonneg_margin, float(d.min()))
    if not np.isfinite(nonneg_margin):
        nonneg_margin = dp0_margin

    # the pair lanes give both P, for the order margin, and DP
    order_margin = np.inf
    mono_entry = np.inf
    mono_strict = np.inf
    for x in range(1 + len(positive), len(points), 2):
        order_margin = min(order_margin, float((mapped[x + 1] - mapped[x]).min()))
        gap = dp[x] - dp[x + 1]
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
