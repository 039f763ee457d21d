"""Fixed-step integration of seasonal systems, the period map, and the
classification of long-run behavior.

The stepper is classical RK4 on one state, with mandatory mesh points at
every season boundary, so the piecewise-autonomous right-hand side is never
evaluated across a discontinuity inside a step. Within a chunk the active
piece is resolved once, at the chunk midpoint. The step is fixed within a
call: the caller's, or one sized from the system's fields (see _sized_step).

At zero the variational pass is linear, so DP(0) takes no pass: it is the
product of RK4's stability polynomial at each chunk's h*A, raised to the
chunk's step count by repeated squaring.

A system whose every piece is an insect piece (insect.InsectPiece) is
stepped on Python floats instead: the state (J, A), and in the joint pass
the four entries of the fundamental matrix, with no numpy call per step.
That kernel restates _rk4 in scalar form with the insect model's
operations, so P(x), every trajectory field and every divergence error
keep the numpy pass's bits, and so does DP wherever numpy's 2 x 2 product
rounds as a plain sum (see _float_joint_pass). Every other system (matrices
mode, n-D or hand-built pieces) takes the numpy pass: a linear piece's
m @ x does not round as a plain sum, and from n = 3 numpy is faster. A
pass of either kind whose result leaves double range is an
InvalidInputError, raised without a warning.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, InconsistencyError, InvalidInputError, is_number
from .insect import InsectPiece
from .linalg import as_matrix_stack, as_square_matrix, is_metzler, spectral_abscissa, spectral_radius
from .seasonal import LinearPiece, SeasonalSystem, season_index, season_indices

DEFAULT_EXTINCTION_THRESHOLD = 1e-9
DEFAULT_DIVERGENCE_BOUND = 1e9
_EXTINCT_PERIODS = 3
_MAX_PERIODS = 2000  # Picard budget of find_periodic_orbit
_NEWTON_STEPS = 30  # Newton budget of find_periodic_orbit before Picard takes over
_RK4_REAL_BOUND = 2.785  # RK4 is stable on the negative real axis up to h|lambda| = 2.785
# The default step (_sized_step): h * L = _STIFF_STEP for the stiffest rate L,
# and h * mu * G**(1/4) = _GROWTH_STEP for the growth rate mu compounded over
# G e-folds a period, which holds RK4's relative error z**5 / 120 a step to
# _GROWTH_STEP**4 / 120 ~ 1.3e-9 over the period
_STIFF_STEP = 0.05
_GROWTH_STEP = 0.02
_STEP_BUDGET = 2**19  # steps a period a default step may take
_BOX_GROWTH = 1.25  # the box corner grows by this factor where a field points out
_BOX_TRIES = 100  # 1.25**100 ~ 5e9: past the default divergence bound
# a linear Metzler season whose abscissa passes this share of its largest
# entry grows some component of every y > 0, rounding of A y included
_BOX_FREE_ABSCISSA = 1e-6
_STIFFNESS_ENTRIES = 64  # (pieces, start) whose stiffness _stiffness keeps
_STIFFNESS: dict = {}
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)
_FLOW_SAMPLE_SEED = 99
_FLOW_STRICTNESS = 1e-9
_TRAJECTORY_DIVERGED = "trajectory norm exceeded divergence bound"
_BASE_DIVERGED = "base trajectory diverged"


@dataclass
class _Clamp:
    """Clamp diagnostics of the state flow. `settle` is the rule _rk4 runs
    after each step: snap negative components to zero and count them, stop at
    the divergence bound, and append the sample to columns, if set: a list of
    times, then one list per component."""

    bound: float
    columns: tuple | None = None
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
        if self.columns is not None:
            for column, value in zip(self.columns, [t, *x.tolist()]):
                column.append(value)
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


def _check_stability(system: SeasonalSystem, step: float):
    """Refuse a step past RK4's real stability bound at zero, before stepping."""
    rate = max(
        float(np.abs(np.linalg.eigvals(piece.linearization_at_zero)).max())
        for piece in system.pieces
    )
    if step * rate > _RK4_REAL_BOUND:
        raise InvalidInputError(
            f"RK4 is unstable at this step: h*|lambda| = {step * rate:.6g} exceeds its real "
            f"stability bound {_RK4_REAL_BOUND} (h = {step:.6g}, |lambda| = {rate:.6g}, the "
            "largest eigenvalue modulus of the seasons' Jacobians at zero); use a smaller ode_step"
        )


def _rk4(system: SeasonalSystem, x, t0, t1, step, rhs, settle):
    """Classical RK4 from t0 to t1 in equal steps that land on every season knot.

    x is one state of shape (n,). rhs(piece) is the field used on that
    piece's chunks; settle(t, x) runs after every step and returns the state
    the next step starts from.
    A pass whose result leaves double range is an InvalidInputError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        for a, b, piece, nsteps, h in _chunks(system, t0, t1, step):
            f = rhs(piece)
            half, sixth = 0.5 * h, h / 6.0
            for i in range(1, nsteps + 1):
                k1 = f(x)
                k2 = f(x + half * k1)
                k3 = f(x + half * k2)
                k4 = f(x + h * k3)
                t = b if i == nsteps else a + i * h  # the last step lands exactly on the knot
                x = settle(t, x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    _require_finite(system, x)
    return x


def _state_field(piece):
    return piece.vector_field


# The float kernel: _rk4 restated on Python floats for systems of insect
# pieces. Each step runs _rk4's operations in its order (k1..k4, the knot
# time, the combination k1 + 2 k2 + 2 k3 + k4 scaled by h/6), and the state
# pass settles each step as _Clamp.settle does, so each result keeps its bits.


def _on_floats(system: SeasonalSystem) -> bool:
    return all(isinstance(piece, InsectPiece) for piece in system.pieces)


def _divergence_screen(bound: float) -> float:
    """A level that j*j + a*a passes whenever numpy's x.dot(x), which may
    fuse a product into the sum, can pass bound**2, so only states near the
    bound take numpy's own test. Below 1e-150 the squares underflow, so every
    state takes it."""
    return bound * abs(bound) * (1.0 - 1e-9) if abs(bound) > 1e-150 else -1.0


def _past(j: float, a: float, bound: float) -> bool:
    """_Clamp.settle's test math.sqrt(x.dot(x)) > bound at x = (j, a)."""
    x = np.array((j, a))
    return math.sqrt(x.dot(x)) > bound


def _require_finite(system: SeasonalSystem, *values):
    """A pass that overflows leaves inf or NaN behind, the float one without
    a warning: refuse it."""
    if not np.isfinite(values).all():
        raise InvalidInputError(
            f"the RK4 pass overflowed double precision (period {system.period_T:g})"
        )


def _float_state_pass(system: SeasonalSystem, x, t0, t1, step, clamp: _Clamp) -> np.ndarray:
    """_rk4 from t0 to t1 with clamp.settle after every step, on floats, the
    rates evaluated inline in insect._rates' operations; clamp.columns, if
    set, take each step's time, J and A."""
    j, a = float(x[0]), float(x[1])
    least, clamps = clamp.min_component, clamp.clamp_count
    screen = _divergence_screen(clamp.bound)
    record = clamp.columns is not None
    if record:
        put_t, put_j, put_a = (column.append for column in clamp.columns)
    try:
        for lo, hi, piece, nsteps, h in _chunks(system, t0, t1, step):
            pi = piece.params
            b, hatch, cJ, dA, loss = pi.b, pi.h, pi.cJ, pi.dA, pi.h + pi.dJ
            half, sixth = 0.5 * h, h / 6.0
            for i in range(1, nsteps + 1):
                k1j, k1a = b * a - j * (loss + cJ * j), hatch * j - dA * a
                sj, sa = j + half * k1j, a + half * k1a
                k2j, k2a = b * sa - sj * (loss + cJ * sj), hatch * sj - dA * sa
                sj, sa = j + half * k2j, a + half * k2a
                k3j, k3a = b * sa - sj * (loss + cJ * sj), hatch * sj - dA * sa
                sj, sa = j + h * k3j, a + h * k3a
                k4j, k4a = b * sa - sj * (loss + cJ * sj), hatch * sj - dA * sa
                j = j + sixth * (k1j + 2.0 * k2j + 2.0 * k3j + k4j)
                a = a + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
                low = j if j < a else a  # x.min() takes the later entry on a tie
                if low < least:
                    least = low
                if low < 0.0:
                    clamps += (j < 0.0) + (a < 0.0)
                    # np.maximum(x, 0.0): +0.0 for -0.0, NaN kept
                    j = 0.0 if j <= 0.0 else j
                    a = 0.0 if a <= 0.0 else a
                if j * j + a * a > screen and _past(j, a, clamp.bound):
                    t = hi if i == nsteps else lo + i * h
                    raise DivergenceError(_TRAJECTORY_DIVERGED, time=t, state=np.array((j, a)))
                if record:
                    put_t(hi if i == nsteps else lo + i * h)
                    put_j(j)
                    put_a(a)
    finally:
        clamp.min_component, clamp.clamp_count = least, clamps
    _require_finite(system, j, a, least)
    return np.array((j, a))


def _float_joint_pass(system: SeasonalSystem, x, step, bound) -> tuple:
    """_variational on floats: P(x), DP(x) and the least raw base component
    over the start and every step.

    Each stage evaluates the joint field inline, which halves the pass
    against calling insect._rates and insect._jacobian_entries: the rates in
    their operations, then J(x) F by row-times-column sums, with J(x) =
    ((p, b), (h, -dA)) and p = -h - dJ - 2 cJ J. numpy's 2 x 2 matmul may
    fuse each sum's second product into the addition (OpenBLAS does on FMA
    hardware); the two agree wherever that product is exact, as with the
    bundled pairs' b and dA.
    """
    j, a = float(x[0]), float(x[1])
    f00, f01, f10, f11 = 1.0, 0.0, 0.0, 1.0
    least = j if j < a else a
    screen = _divergence_screen(bound)
    for lo, hi, piece, nsteps, h in _chunks(system, 0.0, system.period_T, step):
        pi = piece.params
        b, hatch, cJ, dA, m = pi.b, pi.h, pi.cJ, pi.dA, -pi.dA
        loss, p0, c2 = pi.h + pi.dJ, -pi.h - pi.dJ, 2.0 * pi.cJ
        half, sixth = 0.5 * h, h / 6.0
        for i in range(1, nsteps + 1):
            p = p0 - c2 * j
            k1j, k1a = b * a - j * (loss + cJ * j), hatch * j - dA * a
            k100, k101 = p * f00 + b * f10, p * f01 + b * f11
            k110, k111 = hatch * f00 + m * f10, hatch * f01 + m * f11
            sj, sa = j + half * k1j, a + half * k1a
            g00, g01, g10, g11 = f00 + half * k100, f01 + half * k101, f10 + half * k110, f11 + half * k111
            p = p0 - c2 * sj
            k2j, k2a = b * sa - sj * (loss + cJ * sj), hatch * sj - dA * sa
            k200, k201 = p * g00 + b * g10, p * g01 + b * g11
            k210, k211 = hatch * g00 + m * g10, hatch * g01 + m * g11
            sj, sa = j + half * k2j, a + half * k2a
            g00, g01, g10, g11 = f00 + half * k200, f01 + half * k201, f10 + half * k210, f11 + half * k211
            p = p0 - c2 * sj
            k3j, k3a = b * sa - sj * (loss + cJ * sj), hatch * sj - dA * sa
            k300, k301 = p * g00 + b * g10, p * g01 + b * g11
            k310, k311 = hatch * g00 + m * g10, hatch * g01 + m * g11
            sj, sa = j + h * k3j, a + h * k3a
            g00, g01, g10, g11 = f00 + h * k300, f01 + h * k301, f10 + h * k310, f11 + h * k311
            p = p0 - c2 * sj
            k4j, k4a = b * sa - sj * (loss + cJ * sj), hatch * sj - dA * sa
            k400, k401 = p * g00 + b * g10, p * g01 + b * g11
            k410, k411 = hatch * g00 + m * g10, hatch * g01 + m * g11
            j = j + sixth * (k1j + 2.0 * k2j + 2.0 * k3j + k4j)
            a = a + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
            f00 = f00 + sixth * (k100 + 2.0 * k200 + 2.0 * k300 + k400)
            f01 = f01 + sixth * (k101 + 2.0 * k201 + 2.0 * k301 + k401)
            f10 = f10 + sixth * (k110 + 2.0 * k210 + 2.0 * k310 + k410)
            f11 = f11 + sixth * (k111 + 2.0 * k211 + 2.0 * k311 + k411)
            low = j if j < a else a
            if low < least:
                least = low
            if j * j + a * a > screen and _past(j, a, bound):
                t = hi if i == nsteps else lo + i * h
                raise DivergenceError(_BASE_DIVERGED, time=t, state=np.array((j, a)))
    _require_finite(system, j, a, f00, f01, f10, f11, least)
    return np.array((j, a)), np.array(((f00, f01), (f10, f11))), least


def _default_step(system: SeasonalSystem, step, starts) -> float:
    """The given step, checked to be a positive number at which RK4 is
    stable (_check_stability), or for None the step _sized_step gives for
    these start states, a state (n,) or a (B, n) stack, which is stable by
    construction (h L <= _STIFF_STEP)."""
    if step is None:
        return _sized_step(system, starts)
    if not is_number(step):
        raise InvalidInputError(f"step must be a number, got {step!r}")
    if not (step > 0.0 and np.isfinite(step)):
        raise InvalidInputError(f"step must be positive, got {step}")
    _check_stability(system, step)
    return float(step)


def _sized_step(system: SeasonalSystem, starts) -> float:
    """The default step: the smaller of _STIFF_STEP / L and
    _GROWTH_STEP / (mu G**(1/4)), refused past _STEP_BUDGET steps a period.

    L bounds the spectral radius of every season's Jacobian at 0 and at the
    corner y of a box [0, y] that holds the starts and that every field
    points into (_box_corner), the stiffest the flow gets inside the box;
    with no such box (a linear season) it is taken at 0 alone. mu is the
    largest spectral abscissa of the seasons at 0 and G the e-folds of growth
    a period compounds, the sum over seasons of duration times positive
    abscissa. Past double range (G > log of the largest double) a linear
    pass overflows whatever the step, so growth does not limit it. L and the
    abscissas do not depend on the season lengths, so _stiffness keeps them.
    """
    start = tuple(np.maximum(1.0, np.max(np.reshape(starts, (-1, system.dimension)), axis=0)).tolist())
    rate, abscissas = _stiffness(system.pieces, start)
    step = _STIFF_STEP / rate if rate > 0.0 else math.inf
    growth = float(system.schedule.durations() @ abscissas)
    if 0.0 < growth <= _LOG_DOUBLE_MAX:
        step = min(step, _GROWTH_STEP / (float(abscissas.max()) * growth**0.25))
    period = system.period_T
    steps = math.ceil(period / step) if step < period else 1
    if steps > _STEP_BUDGET:
        raise InvalidInputError(
            f"the default RK4 step {step:.6g} needs {steps} steps a period (period {period:g}), "
            f"more than the budget of {_STEP_BUDGET}; set a step with ode_step to run it"
        )
    return min(step, period)


def _stiffness(pieces: tuple, start: tuple) -> tuple:
    """L and the seasons' positive abscissas at 0 for _sized_step, from the
    box search that begins at the corner start, kept in a table of up to
    _STIFFNESS_ENTRIES (pieces, start), emptied when full. An insect piece
    is known by its parameters, a linear one by its matrix's bits and any
    other piece by its identity; the kept entry holds its pieces, so no
    other piece takes that identity while it is kept."""
    key = (tuple(map(_piece_key, pieces)), start)
    if key not in _STIFFNESS:
        zero = np.zeros(len(start))
        jacobians = [piece.jacobian(zero) for piece in pieces]
        corner = _box_corner(pieces, start)
        if corner is not None:
            jacobians += [piece.jacobian(corner) for piece in pieces]
        spectra = np.linalg.eigvals(as_matrix_stack(jacobians))
        rate = float(np.abs(spectra).max())
        abscissas = np.maximum(spectra[: len(pieces)].real.max(axis=1), 0.0)
        abscissas.flags.writeable = False  # every later call reads this array
        if len(_STIFFNESS) >= _STIFFNESS_ENTRIES:
            _STIFFNESS.clear()
        _STIFFNESS[key] = (pieces, rate, abscissas)
    return _STIFFNESS[key][1:]


def _piece_key(piece):
    if isinstance(piece, InsectPiece):
        return piece.params
    if isinstance(piece, LinearPiece):
        return piece.linearization_at_zero.shape, piece.linearization_at_zero.tobytes()
    return id(piece)


def _box_corner(pieces: tuple, start: tuple):
    """A corner y >= start at which every piece's field is <= 0, grown by
    _BOX_GROWTH in each component where some field is positive, or None
    within _BOX_TRIES growths. For a cooperative field the box [0, y] is then
    forward-invariant. A linear Metzler season with a positive abscissa at
    0 has no such corner (_no_box), and the search is not made."""
    if any(map(_no_box, pieces)):
        return None
    y = list(start)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_BOX_TRIES):
            corner = np.array(y)
            out = [False] * len(y)
            for piece in pieces:
                for i, rate in enumerate(piece.vector_field(corner).tolist()):
                    if not rate <= 0.0:  # NaN counts as out
                        out[i] = True
            if not any(out):
                return corner
            y = [_BOX_GROWTH * v if grow else v for v, grow in zip(y, out)]
    return None


def _no_box(piece) -> bool:
    """Whether piece is a season x' = A x, A Metzler with s(A) > 0: then no
    y > 0 has A y <= 0 (Collatz-Wielandt), so every growth of the box fails."""
    if not isinstance(piece, LinearPiece):
        return False
    a = piece.linearization_at_zero
    return is_metzler(a) and spectral_abscissa(a) > _BOX_FREE_ABSCISSA * float(np.abs(a).max())


def _system(system) -> SeasonalSystem:
    if not isinstance(system, SeasonalSystem):
        raise InvalidInputError(f"expected one SeasonalSystem, got {type(system).__name__}")
    return system


def _state(system: SeasonalSystem, x) -> np.ndarray:
    """x as a float array, if it is one finite, nonnegative state of the
    system's dimension."""
    x = np.asarray(x, dtype=float)
    n = _system(system).dimension
    if x.shape != (n,):
        raise InvalidInputError(f"state shape {x.shape} does not match dimension {n}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"state must be finite, got {x}")
    if np.any(x < 0.0):
        raise InvalidInputError("state must be nonnegative")
    return x


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
    x0 = _state(system, x0)
    for name, value in (("t0", t0), ("t1", t1)):
        if not (is_number(value) and math.isfinite(value)):
            raise InvalidInputError(f"{name} must be a finite number, got {value!r}")
    if t0 < 0.0:
        raise InvalidInputError(f"t0 must be nonnegative, got {t0}")
    if t1 < t0:
        raise InvalidInputError("t1 must be >= t0")
    step = _default_step(system, step, x0)
    columns = ([t0], *([value] for value in x0.tolist()))
    clamp = _Clamp(divergence_bound, columns, min_component=float(x0.min()))
    diverged = False
    try:
        _state_pass(system, x0, t0, t1, step, clamp)
    except DivergenceError:
        diverged = True
    times = np.array(columns[0])
    return Trajectory(
        times=times,
        states=np.column_stack(columns[1:]),
        season_tags=season_indices(system.schedule, times),
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
    x = _state(system, x)
    step = _default_step(system, step, x)
    return _state_pass(system, x, 0.0, system.period_T, step, _Clamp(divergence_bound))


def _state_pass(system: SeasonalSystem, x: np.ndarray, t0, t1, step, clamp: _Clamp):
    """The state from t0 to t1, settled by clamp after every step."""
    if _on_floats(system):
        return _float_state_pass(system, x, t0, t1, step, clamp)
    x = _rk4(system, x, t0, t1, step, _state_field, clamp.settle)
    _require_finite(system, clamp.min_component)  # a clamp may have snapped -inf to 0
    return x


def _variational(
    system: SeasonalSystem,
    x: np.ndarray,
    step: float,
    divergence_bound: float = DEFAULT_DIVERGENCE_BOUND,
) -> tuple[np.ndarray, np.ndarray]:
    """P(x) and DP(x) at one state, raising where the base state passes the
    divergence bound."""
    return _variational_row(system, x, step, divergence_bound)[:2]


def _variational_row(system: SeasonalSystem, x: np.ndarray, step: float, bound: float) -> tuple:
    """_variational's P(x) and DP(x), and the least raw base component over
    the start and every step, from one RK4 pass of the joint variational
    system: the base state and the fundamental matrix share its steps, the
    ones poincare_map takes, without its clamp."""
    if _on_floats(system):
        return _float_joint_pass(system, x, step, bound)
    n = len(x)
    least = float(x.min())

    def joint_field(piece):
        f, jac = piece.vector_field, piece.jacobian

        def rhs(z):
            base = z[:n]
            return np.concatenate([f(base), (jac(base) @ z[n:].reshape(n, n)).reshape(n * n)])

        return rhs

    def settle(t, z):
        nonlocal least
        base = z[:n]
        least = min(least, float(base.min()))
        if math.sqrt(base.dot(base)) > bound:  # the bits of np.linalg.norm
            raise DivergenceError(_BASE_DIVERGED, time=t, state=base)
        return z

    aug0 = np.concatenate([x, np.eye(n).reshape(n * n)])
    aug = _rk4(system, aug0, 0.0, system.period_T, step, joint_field, settle)
    return aug[:n], aug[n:].reshape(n, n), least


def _variational_stack(
    system: SeasonalSystem, states: np.ndarray, step: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """P and DP at each row of a (B, n) stack of states, one pass a row, and
    the least raw base component over the starts and every step. Of the rows
    that pass DEFAULT_DIVERGENCE_BOUND, the one that passes it at the
    earliest step, the lowest on a tie, raises its error."""
    least = float(states.min())
    rows, first = [], None
    for x in states:
        try:
            rows.append(_variational_row(system, x, step, DEFAULT_DIVERGENCE_BOUND))
        except DivergenceError as exc:
            if first is None or exc.time < first.time:
                first = exc
    if first is not None:
        raise first
    mapped, dp, lows = zip(*rows)
    return np.array(mapped), np.array(dp), min(least, *lows)


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
    computes step by step. A product that overflows, or underflows to zero
    (R has no real root, so only underflow brings it there), is an
    InvalidInputError: a later chunk's growth cannot restore what it lost."""
    origin = np.zeros(system.dimension)
    product = (np.zeros((system.dimension,) * 2), True)
    with np.errstate(over="ignore", invalid="ignore"):
        for _, _, piece, nsteps, h in _chunks(system, 0.0, system.period_T, step):
            a = as_square_matrix(piece.jacobian(origin))
            product = _times(_rk4_power(a, h, nsteps), product)
            if not product[1] and np.abs(product[0]).max() == 0.0:
                raise InvalidInputError(
                    "the RK4 propagator at zero underflowed double precision "
                    f"(period {system.period_T:g})"
                )
    dp = product[0] + np.eye(system.dimension) if product[1] else product[0]
    if not np.all(np.isfinite(dp)):
        raise InvalidInputError(
            f"the RK4 propagator at zero overflowed double precision (period {system.period_T:g})"
        )
    return dp


def poincare_jacobian(
    system: SeasonalSystem,
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
    """
    x = _state(system, x)
    step = _default_step(system, step, x)
    if x.any():
        return _variational(system, x, step, divergence_bound)[1]
    return _propagator_at_zero(system, step)


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
    (the residual reported is that |P(x) - x|). A Newton iterate whose norm
    falls below the threshold while lambda <= 1 is handed, clamped to the
    cone, to Picard iteration, which calls it "extinction" once three mapped
    periods stay below the threshold. Picard iteration from x0 takes over,
    with the labels and rules above, when DP(x) - I is singular, a step
    leaves the nonnegative cone or the divergence bound, Newton lands on 0
    while lambda > 1 (zero is then unstable), a pass diverges, or Newton has
    not settled within its budget. Classifications near the exact threshold
    may come back "undecided".
    """
    x = x0 = _state(system, x0).copy()
    step = _default_step(system, step, x0)
    n = system.dimension
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
            return _picard(system, np.maximum(x, 0.0), tol, step, extinction_threshold,
                           divergence_bound, lam, iterations)
        if not np.all(x >= 0.0) or float(np.linalg.norm(x)) > divergence_bound:
            break
    return _picard(system, x0, tol, step, extinction_threshold, divergence_bound, lam, iterations)


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
    the spectral radius of poincare_jacobian(family(theta), 0), exceeds 1.
    Requires the labels to be monotone (persistent below, extinct above),
    then bisects the boundary cell down to tol, which must be positive.
    Returns 1.0 and 0.0 for the all-persistent and all-extinct families.
    """
    grid = sorted(float(g) for g in grid)
    if len(grid) < 3:
        raise InvalidInputError("grid must contain at least 3 points")
    if not tol > 0.0:
        raise InvalidInputError(f"tol must be positive, got {tol}")

    def persistent(theta):
        system = _system(family(theta))
        dp = poincare_jacobian(system, np.zeros(system.dimension), step=step)
        return spectral_radius(dp) > 1.0

    labels = [persistent(th) for th in grid]
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
        if persistent(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FlowPropertyReport:
    """Sampled checks of the period map's order and concavity structure.

    positivity: solutions from nonnegative starts stay nonnegative; its
    margin is the least raw component of the unclamped RK4 flow over the
    sample pass, starts included.
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
    default_flow_samples, from the variational passes of _variational_stack
    over every sample state and both ends of every pair. The positivity
    margin is the least raw component of their unclamped RK4 flow, over the
    starts and every step. A row past the divergence bound raises
    DivergenceError."""
    sample_states, pairs = default_flow_samples(_system(system).dimension)
    points = np.array(sample_states + [s for pair in pairs for s in pair])
    step = _default_step(system, step, points)
    mapped, dp, positivity_margin = _variational_stack(system, points, step)

    dp0_margin = float(dp[0].min())
    nonneg_margin = np.inf
    for state, d in zip(sample_states, dp):
        if np.all(state > 0.0):
            nonneg_margin = min(nonneg_margin, float(d.min()))
    if not np.isfinite(nonneg_margin):
        nonneg_margin = dp0_margin

    # the pair rows give both P, for the order margin, and DP
    order_margin = np.inf
    mono_entry = np.inf
    mono_strict = np.inf
    for x in range(len(sample_states), len(points), 2):
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
