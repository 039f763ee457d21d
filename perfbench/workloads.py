"""Seeded job decks for the three workloads.

A deck is a list of jobs, each one CLI invocation on a scenario file written
here. The seed picks the pairs, periods and season fractions; the program
only ever sees the generated scenario files. A deck holds each stratum of
its workload once, in a fixed interleaved order, so two seeds give decks of
the same shape and cost profile. A run makes several passes over the whole
deck, so every run measures the same mix of jobs.

Known defects stay in the decks on purpose. A job that may hit one carries
``known_defect``: the failures it is expected to show today. When a fix lands
the job simply passes its oracle check.
"""

import json
import math
from pathlib import Path

import numpy as np

import oracle

WHY = {
    "spectral": (
        "floquet/threshold/check on insect and random Metzler pairs over periods "
        "0.01-100: mat_exp, perron_pair, floquet and conditions do the work; cost "
        "grows ~100x as the period shrinks"
    ),
    "simulation": (
        "poincare/simulate/floquet --with-simulation/verify on insect pairs on both "
        "sides of theta*: the RK4 stepper, poincare_map and poincare_jacobian do the work"
    ),
    "split": (
        "split on insect and Metzler pairs, K 1-3 by grid and 5-6 by descent: thousands "
        "of small repeated block exponentials and eigvals, no power iteration"
    ),
}


SPECTRAL_COMMANDS = ("floquet", "threshold", "check")
# equal strata of log10(T) over [-2, 2]; an odd count puts the median job of
# a deck inside the middle stratum instead of at the cost gap between two
# the strata are narrow so that job costs, three per stratum, spread evenly:
# with 9 the deck's median and tail job sat in the gaps between strata
SPECTRAL_BINS = 15
# where in its stratum a period may fall: job cost moves ~T^-0.85, so a draw
# over the whole stratum moves a job's cost by up to ~1.7x between seeds, and
# over its middle half job_tail_ms still moved by 15% (IQR/median, 10 seeds)
SPECTRAL_JITTER = (0.4, 0.6)
SPECTRAL_EDGE_JOBS = 6
# theta grid of the spectral scenarios: at 101 points one pass over the deck
# takes ~20 s, too long for a run to make several passes over it
SPECTRAL_GRID = 13
METZLER_DIMS = (2, 3, 4, 6, 8)
EDGE_PERIODS = (1e-4, 800.0)
EDGE_FLOQUET_GRID = 5
SIM_PERIODS = (3.0, 4.0)
SIM_DISTANCE = (0.15, 0.25)  # |theta - theta*| of poincare jobs
SIM_FLOQUET_GRID = 6
# two poincare jobs, the first below theta* and the second above
SIM_PLAN = ("poincare", "simulate", "floquet", "simulate", "verify", "floquet", "poincare", "floquet")
SIMULATE_PERIODS = 10  # the simulate command integrates ten periods
VERIFY_CHECKS = 12
# verify runs its suite with one --seed at one theta in every deck: the
# suite's random draws set its cost, which moved 1.5-2.6 s between draws,
# and it is the slowest job of the deck, so job_tail_ms followed the draw
VERIFY_SEED = 0
VERIFY_THETA = 0.5
# (K, method, resolution). Sorted by cost a round is 2 K = 1 jobs (~2 ms),
# 6 K = 2 (~0.13 s), 5 K = 3 (~0.3 s) and 2 descent jobs: the median job
# then sits inside the K = 2 jobs and the tail inside the K = 3 ones, not
# at the gap between them, where it moved with how many jobs hit the drift
SPLIT_PLAN = (
    (1, "grid", 20), (2, "grid", 20), (3, "grid", 6), (2, "grid", 20),
    (3, "grid", 6), (5, "descent", 1), (2, "grid", 20), (2, "grid", 20),
    (3, "grid", 6), (1, "grid", 20), (2, "grid", 20), (3, "grid", 6),
    (6, "descent", 1), (2, "grid", 20), (3, "grid", 6),
)
# the scaled season blocks T*m have an inf-norm in this range: mat_exp's
# squaring count follows the norm, so this keeps a job's cost set by K
SPLIT_NORM = (1.5, 2.5)
# theta on the k/20 grid where K = 3, resolution 6 hits the drift defect today
SPLIT_DRIFT_THETAS = (0.2, 0.65)
SEASON_GAP = 2.0

DEFECT_CONVERGENCE = ["ConvergenceError", "Perron iteration did not reach"]
DEFECT_COLLAPSE = ["StructureError", "power iteration collapsed to zero"]
DEFECT_ROW_ERRORS = ["exit 1", "row errors"]
DEFECT_SPLIT_DRIFT = ["exit 2", "schedule fractions must lie in [0, 1]"]


def _fixed_order(count: int, salt: int) -> list[int]:
    """Seed-independent interleaving, so every deck runs its strata in one order."""
    return [int(i) for i in np.random.default_rng(salt).permutation(count)]


def load_bundled(root: Path) -> dict:
    return {"insect": json.loads((root / "scenarios" / "insect_two_season.json").read_text())}


def perturbed_insect(rng, bundled: dict) -> dict:
    """Bundled insect pair with the favorable hatching rate and birth rate moved.

    The bundled pair shares a Perron vector (theta* = 1/2 in closed form); a
    moved h breaks that, so the generic non-shared path runs.
    """
    pair = json.loads(json.dumps(bundled["insect"]["insect"]))
    pair["piF"]["h"] = float(rng.uniform(1.1, 1.6))
    pair["piF"]["b"] = float(rng.uniform(1.8, 2.4))
    pair["piU"]["b"] = float(rng.uniform(0.8, 1.2))
    return pair


def _normalized_metzler(rng, n: int, mu: float) -> np.ndarray:
    """Dense irreducible Metzler matrix with abscissa mu and season gap SEASON_GAP.

    Fixing the gap makes the period, not the draw, set the power-iteration
    cost of a job.
    """
    while True:
        a = rng.uniform(0.1, 2.0, (n, n))
        np.fill_diagonal(a, rng.uniform(-3.0, 0.0, n))
        gap = oracle.season_gap(a)
        if gap > 1e-3:
            return (a - oracle.abscissa(a) * np.eye(n)) * (SEASON_GAP / gap) + mu * np.eye(n)


def metzler_pair(rng, n: int, period: float) -> dict:
    """Shifted random Metzler pair, mu1 < 0 < mu2, kept only if rho decreases."""
    while True:
        m1 = _normalized_metzler(rng, n, float(rng.uniform(-1.5, -0.3)))
        m2 = _normalized_metzler(rng, n, float(rng.uniform(0.3, 1.5)))
        if oracle.decreasing_on_grid(m1, m2, period, SPECTRAL_GRID):
            return {"m1": m1.tolist(), "m2": m2.tolist()}


def insect_pair_for(rng, bundled: dict, use_bundled: bool, period: float) -> dict:
    while True:
        pair = json.loads(json.dumps(bundled["insect"]["insect"])) if use_bundled else perturbed_insect(rng, bundled)
        scenario = {"mode": "insect", "period_T": period, "insect": pair}
        m1, m2 = oracle.season_matrices(scenario)
        if oracle.abscissa(m1) < 0.0 < oracle.abscissa(m2) and oracle.decreasing_on_grid(m1, m2, period, SPECTRAL_GRID):
            return pair


def _scenario(family: str, pair: dict, period: float, **extra) -> dict:
    out = {"mode": family, "period_T": period, family: pair}
    out.update(extra)
    return out


def _facts(scenario: dict, grid: int, threshold: bool = True) -> dict:
    """Oracle answers a spectral job is checked against: whether the pair
    shares a Perron vector, whether rho decreases on the job's theta grid,
    and theta* when the job asks for it."""
    m1, m2 = oracle.season_matrices(scenario)
    period = scenario["period_T"]
    shared = oracle.shares_eigenvector(m1, m2)
    facts = {"shared": shared, "decreasing": oracle.decreasing_on_grid(m1, m2, period, grid)}
    if threshold:
        facts["theta_star"] = (
            oracle.closed_form_threshold(m1, m2) if shared else oracle.theta_star(m1, m2, period)
        )
    return facts


class Deck:
    """Collects jobs and writes each job's scenario file."""

    def __init__(self, scenario_dir: Path):
        self.dir = scenario_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.jobs = []

    def add(self, command: str, scenario: dict, args=(), known_defect=None, label=None, **expect):
        job_id = f"j{len(self.jobs):03d}"
        path = self.dir / f"{job_id}.json"
        path.write_text(json.dumps(scenario, indent=1))
        expect.update(command=command, scenario=scenario)
        self.jobs.append({
            "id": job_id,
            "label": label or command,
            "argv": [command, "--scenario", str(path), *[str(a) for a in args]],
            "known_defect": known_defect,
            "expect": expect,
        })


def spectral(deck: Deck, rng, bundled: dict):
    """floquet, threshold and check over log-uniform periods in [0.01, 100].

    One period in each of SPECTRAL_BINS equal log strata for each command,
    half on insect pairs (a quarter bundled) and half on Metzler pairs
    cycling through METZLER_DIMS. SPECTRAL_EDGE_JOBS edge jobs sit at the
    failing periods 1e-4 and 800.
    """
    combos = [(ci, k) for ci in range(len(SPECTRAL_COMMANDS)) for k in range(SPECTRAL_BINS)]
    order = [combos[i] for i in _fixed_order(len(combos), 11)]
    every = len(order) // SPECTRAL_EDGE_JOBS
    for pos, (ci, k) in enumerate(order):
        command = SPECTRAL_COMMANDS[ci]
        period = 10.0 ** (-2.0 + 4.0 * (k + rng.uniform(*SPECTRAL_JITTER)) / SPECTRAL_BINS)
        if (k + ci) % 2 == 0:
            pair = insect_pair_for(rng, bundled, (k + ci) % 4 == 0, period)
            scenario = _scenario("insect", pair, period, theta_grid=SPECTRAL_GRID)
        else:
            n = METZLER_DIMS[(3 * k + ci) % len(METZLER_DIMS)]
            pair = metzler_pair(rng, n, period)
            scenario = _scenario("matrices", pair, period, theta_grid=SPECTRAL_GRID)
        facts = _facts(scenario, SPECTRAL_GRID, threshold=command == "threshold")
        deck.add(command, scenario, grid_points=SPECTRAL_GRID, **facts)
        if pos % every == every - 1:
            _spectral_edge(deck, rng, bundled, pos // every)


def _spectral_edge(deck: Deck, rng, bundled: dict, slot: int):
    """One of today's failing edge jobs: T = 1e-4 stalls, T = 800 overflows."""
    command = SPECTRAL_COMMANDS[slot % 3]
    period = EDGE_PERIODS[slot // 3 % 2]
    pair = bundled["insect"]["insect"] if slot % 2 == 0 else perturbed_insect(rng, bundled)
    scenario = _scenario("insect", pair, period, theta_grid=SPECTRAL_GRID)
    defects = [DEFECT_CONVERGENCE if period < 1.0 else DEFECT_COLLAPSE]
    args = ()
    grid = SPECTRAL_GRID
    if command == "floquet":
        args, grid, defects = ("--grid", EDGE_FLOQUET_GRID), EDGE_FLOQUET_GRID, [DEFECT_ROW_ERRORS]
    facts = _facts(scenario, grid, threshold=command == "threshold")
    deck.add(command, scenario, args, known_defect=defects, label=f"{command}@edge", grid_points=grid, **facts)


def _stratified_period(slot: int, slots: int, rng) -> float:
    """A period from the middle of the slot's own log stratum of SIM_PERIODS:
    a job's cost grows with T, and with T drawn over the whole range the
    deck's median job moved by 12% between seeds."""
    low, high = map(math.log, SIM_PERIODS)
    return math.exp(low + (high - low) * (slot + rng.uniform(*SPECTRAL_JITTER)) / slots)


def simulation(deck: Deck, rng, bundled: dict):
    """poincare on both sides of theta*, simulate, floquet --with-simulation, verify.

    Insect pairs only (bundled every other job, perturbed otherwise), with
    periods stratified over SIM_PERIODS. poincare draws theta at a distance
    SIM_DISTANCE from theta*, into the slow Picard band next to theta*.
    """
    for slot, command in enumerate(SIM_PLAN):
        period = _stratified_period(slot, len(SIM_PLAN), rng)
        pair = insect_pair_for(rng, bundled, slot % 2 == 0, period)
        scenario = _scenario("insect", pair, period)
        m1, m2 = oracle.season_matrices(scenario)
        facts = _facts(scenario, SIM_FLOQUET_GRID)
        star = facts["theta_star"]
        if command == "poincare":
            side = -1.0 if slot == SIM_PLAN.index("poincare") else 1.0
            theta = star + side * rng.uniform(*SIM_DISTANCE)
            deck.add("poincare", scenario, ("--theta", repr(theta)), theta=theta,
                     rho=oracle.rho(m1, m2, period, theta))
        elif command == "simulate":
            theta = float(rng.uniform(0.1, 0.9))
            deck.add("simulate", scenario, ("--theta", repr(theta)), theta=theta,
                     periods=SIMULATE_PERIODS)
        elif command == "floquet":
            deck.add("floquet", scenario, ("--with-simulation", "--grid", SIM_FLOQUET_GRID),
                     label="floquet --with-simulation", grid_points=SIM_FLOQUET_GRID,
                     columns=("lambda_simulated",), **facts)
        else:
            verify_scenario = dict(scenario, theta=VERIFY_THETA)
            deck.add("verify", verify_scenario, ("--seed", VERIFY_SEED), checks=VERIFY_CHECKS, theta_star=star)


def split(deck: Deck, rng, bundled: dict):
    """split over stratified theta in (0.05, 0.95) with the plan in SPLIT_PLAN.

    Jobs alternate insect pairs (bundled or perturbed) and Metzler pairs with
    n in 2-4, and the mode alternates max and min. Descent runs at resolution
    1: at 3 one job takes 1-5 s depending on the pair, which made a run's
    throughput hinge on how many descent jobs it held. Grid jobs may hit
    today's drift defect in the schedule builder, so they carry it as known;
    two extra K = 3 jobs sit at thetas where it is hit.
    """
    for slot, (k, method, resolution) in enumerate(SPLIT_PLAN):
        theta = 0.05 + 0.9 * (slot + rng.uniform()) / len(SPLIT_PLAN)
        _split_job(deck, rng, bundled, slot, theta, k, method, resolution)
    for index, theta in enumerate(SPLIT_DRIFT_THETAS):
        _split_job(deck, rng, bundled, index, theta, 3, "grid", 6, edge=True)


def _split_job(deck, rng, bundled, index, theta, k, method, resolution, edge=False):
    mode = "max" if index % 2 == 0 else "min"
    settings = {"K": k, "resolution": resolution, "mode": mode}
    if index % 2 == 0:
        family, pair = "insect", insect_pair_for(rng, bundled, index % 4 == 0, 1.0)
    else:
        family, pair = "matrices", metzler_pair(rng, (2, 3, 4)[index % 3], 1.0)
    m1, m2 = oracle.season_matrices(_scenario(family, pair, 1.0))
    norm = max(np.abs(m).sum(axis=1).max() for m in (m1, m2))
    period = float(rng.uniform(*SPLIT_NORM)) / norm
    scenario = _scenario(family, pair, period, theta=theta, split=settings)
    deck.add("split", scenario, ("--seed", int(rng.integers(1 << 16))),
             known_defect=[DEFECT_SPLIT_DRIFT] if method == "grid" else None,
             label=f"split K={k}{'@edge' if edge else ''}", theta=theta, k=k, mode=mode,
             method=method, shared=oracle.shares_eigenvector(m1, m2))


def build(workload: str, seed: int, root: Path, scenario_dir: Path) -> list[dict]:
    """The jobs of each builder the workload runs, from one seeded stream."""
    deck = Deck(scenario_dir)
    rng = np.random.default_rng([seed, sorted(WHY).index(workload)])
    for builder in BUILDERS[workload]:
        builder(deck, rng, load_bundled(root))
    return deck.jobs


# split jobs are short, so its deck holds three rounds of SPLIT_PLAN: enough
# correct jobs for job_tail_ms to sit above p70
BUILDERS = {"spectral": (spectral,), "simulation": (simulation,), "split": (split, split, split)}
