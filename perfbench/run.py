"""seasonthresh benchmark: seeded CLI jobs, checked against an independent oracle.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectral|simulation|split \
        --seed N --seconds S --trace 0|1

It builds the workload's deck from the seed (perfbench/workloads.py) and
runs whole passes over it, each in a fresh workload process
(perfbench/worker.py), for about S seconds. Before each pass it times set-up
in a fresh interpreter. It checks every job's output files with
perfbench/oracle.py and prints one line per metric (name, value, unit,
sample count) followed by a JSON summary as the last line. With --trace 0
the summary carries the end-to-end metrics; with --trace 1 the per-layer
ones from an outside-in traced pass (perfbench/spans.py).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, set before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
# fewest passes in a run: a job's time is its median pass, which a burst of
# host slowness in one pass does not move
MIN_PASSES = 3
SETUP_SCENARIO = "scenarios/insect_two_season.json"
TAIL_BEYOND = 10
WORKLOADS = ("spectral", "simulation", "split")


class BenchError(Exception):
    """The benchmark cannot produce a result; it exits non-zero."""


# Metric names and units live in BENCHMARK.json. A per-layer metric is read
# by its suffix (`<function>.calls`, `<function>.self_ms`,
# `<function>.distinct_share`, `cli.<command>.p50_ms`) or is one of these.
SPECIAL_LAYER_METRICS = {
    "floquet.find_threshold.rho_calls": ("per_call", "floquet.find_threshold"),
    "simulate.find_periodic_orbit.periods": ("per_call", "simulate.find_periodic_orbit"),
    "conditions.monodromy_calls": ("extra", None),
    "cli.write.bytes": ("extra", None),
    "cli.numpy_warnings": ("warnings", None),
    "trace.overhead_share": ("overhead", None),
}
SUFFIX_KINDS = {"calls": "calls", "self_ms": "self_ms", "distinct_share": "distinct"}


def layer_kind(name: str) -> tuple[str, str | None]:
    """(kind, key) of a per-layer metric: what it measures and of which span."""
    if name in SPECIAL_LAYER_METRICS:
        return SPECIAL_LAYER_METRICS[name]
    prefix, _, suffix = name.rpartition(".")
    if name.startswith("cli.") and suffix == "p50_ms":
        return "command_p50", prefix.removeprefix("cli.")
    if suffix in SUFFIX_KINDS:
        return SUFFIX_KINDS[suffix], prefix
    raise BenchError(f"BENCHMARK.json names a per-layer metric run.py cannot measure: {name}")


# ------------------------------------------------------------------ helpers

def percentile_beyond(values: list, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Value at the highest percentile with at least `beyond` samples above it.

    Returns (value, percentile). With too few samples it falls back to the
    maximum, reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n


def provenance() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # older numpy has no dict mode; the name is informational
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure_setup(root: Path, work: Path, tag: str) -> tuple[float, float, str | None]:
    """Wall time of a fresh interpreter that imports seasonthresh.cli and
    answers one threshold job on the bundled insect scenario, with the mean
    host-speed kernel time before and after it; also checks the answer."""
    code = (
        "import sys; sys.path.insert(0, 'src'); import seasonthresh.cli as c; "
        f"sys.exit(c.main(['threshold', '--scenario', {SETUP_SCENARIO!r}, '--out', sys.argv[1]]))"
    )
    out = work / f"setup{tag}"
    before = calibrate.kernel_seconds()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, str(out)], cwd=root,
                          capture_output=True, text=True, timeout=60)
    seconds = time.perf_counter() - start
    kernel_s = (before + calibrate.kernel_seconds()) / 2.0
    if proc.returncode != 0:
        raise BenchError(f"set-up job failed: {proc.stderr.strip()[-300:]}")
    theta = json.loads((out / "threshold.json").read_text())["theta_star"]
    if abs(theta - 0.5) > 1e-7:
        return seconds, kernel_s, f"set-up threshold job gave theta* = {theta!r}, closed form 0.5"
    return seconds, kernel_s, None


def run_pass(root: Path, work: Path, tag: str, trace: int, spans: Path | None) -> dict:
    """One pass over the deck in a fresh workload process."""
    results = work / f"results{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--jobs", str(work / "jobs.json"), "--out", str(work / "out"),
           "--tag", tag, "--trace", str(trace), "--results", str(results)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"workload process failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(results.read_text())


def judge(runs: list, jobs_by_id: dict) -> None:
    """Label each execution ok / known defect / wrong answer / unexpected failure."""
    import oracle

    for run in runs:
        job = jobs_by_id[run["job"]]
        out = Path(run["out"])
        if run["error_type"] is None:
            reason = oracle.check(job["expect"], out)
            run["status"] = "ok" if reason is None else "wrong_answer"
            if reason is not None:
                run["error_type"], run["message"] = "WrongAnswer", reason
            continue
        if run["error_type"] == "exit 1" and (out / "sweep.csv").exists():
            first = next((r["error"] for r in oracle.read_csv(out / "sweep.csv") if r["error"]), "")
            run["message"] = f"{run['message']}; first row error {first[:160]}"
        known = any(run["error_type"] == kind and text in run["message"]
                    for kind, text in job["known_defect"] or ())
        run["status"] = "known_defect" if known else "unexpected_failure"


# ------------------------------------------------------------------ metrics

def job_times(runs: list, jobs: list, key) -> tuple[list, list]:
    """Each job's median over its passes of key(run): (every job, correct jobs only).

    A job is correct only if every pass of it is.
    """
    seconds, correct = {j["id"]: [] for j in jobs}, {j["id"]: True for j in jobs}
    for r in runs:
        seconds[r["job"]].append(key(r))
        correct[r["job"]] &= r["status"] == "ok"
    median = {job: statistics.median(times) for job, times in seconds.items()}
    return list(median.values()), [median[job] for job in median if correct[job]]


def timing(every: list, ok: list) -> dict:
    ok_ms = [1e3 * t for t in ok]
    tail, pct = percentile_beyond(ok_ms)
    return {"jobs_per_s": len(ok) / sum(every), "job_p50_ms": statistics.median(ok_ms),
            "job_tail_ms": tail, "tail_pct": pct}


def end_to_end(runs: list, jobs: list, passes: int, setup: list, peak_kb: int) -> dict:
    """Timing metrics at the reference host speed (calibrate.py); the notes
    give the raw wall-clock figures and the host's slowdown beside them."""
    every, ok = job_times(runs, jobs, lambda r: calibrate.scaled(r["seconds"], r["kernel_s"]))
    if not ok:
        raise BenchError("no job completed correctly")
    scaled, raw = timing(every, ok), timing(*job_times(runs, jobs, lambda r: r["seconds"]))
    slowdown = statistics.median(r["kernel_s"] for r in runs) / calibrate.REFERENCE_S
    note = f"median of {passes} passes per job; host slowdown {slowdown:.3f}, raw wall"
    setup_scaled = statistics.median(calibrate.scaled(s, k) for s, k in setup)
    return {
        "jobs_per_s": (scaled["jobs_per_s"], len(ok), f"correct jobs over the deck's time; {note} "
                                                       f"{raw['jobs_per_s']:.4g}"),
        "job_p50_ms": (scaled["job_p50_ms"], len(ok), f"median over correct jobs; {note} {raw['job_p50_ms']:.4g}"),
        "job_tail_ms": (scaled["job_tail_ms"], len(ok), f"p{scaled['tail_pct']:.1f}, {TAIL_BEYOND} jobs beyond; "
                                                        f"{note} {raw['job_tail_ms']:.4g}"),
        "setup_s": (setup_scaled, len(setup), f"median of fresh interpreters; raw wall "
                                              f"{statistics.median(s for s, _ in setup):.4g}"),
        "peak_rss_mb": (peak_kb / 1024.0, passes, "largest workload process ru_maxrss"),
    }


def command_p50(runs: list, command: str) -> float:
    """Median latency in ms of the correct runs of one CLI command (0 if none)."""
    times = [1e3 * r["seconds"] for r in runs if r["status"] == "ok" and r["argv0"] == command]
    return statistics.median(times) if times else 0.0


def per_layer(names: list, untraced: list, traced: list, layers: dict) -> dict:
    n = len(traced)
    calls, self_s, distinct, extra = (layers[k] for k in ("calls", "self_s", "distinct", "extra"))
    out = {}
    for name in names:
        kind, key = layer_kind(name)
        if kind == "calls":
            value, count = calls.get(key, 0) / n, n
        elif kind == "self_ms":
            value, count = 1e3 * self_s.get(key, 0.0) / n, n
        elif kind == "distinct":
            total = calls.get(key, 0)
            value, count = (distinct.get(key, 0) / total if total else 0.0), total
        elif kind == "per_call":
            total = calls.get(key, 0)
            value, count = (extra.get(name, 0) / total if total else 0.0), total
        elif kind == "extra":
            value, count = extra.get(name, 0) / n, n
        elif kind == "command_p50":
            value = command_p50(untraced, key)
            count = sum(r["argv0"] == key and r["status"] == "ok" for r in untraced)
        elif kind == "warnings":
            value, count = sum(r["warnings"] for r in untraced) / len(untraced), len(untraced)
        else:  # overhead: same executions, traced against untraced
            base = sum(r["seconds"] for r in untraced)
            value, count = sum(r["seconds"] for r in traced) / base - 1.0, n
        out[name] = (value, count, "")
    return out


# --------------------------------------------------------------------- main

def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "seasonthresh" / "cli.py").is_file() or not (root / SETUP_SCENARIO).is_file():
        raise BenchError(f"run from a seasonthresh checkout: no src/seasonthresh or {SETUP_SCENARIO} under {root}")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    import workloads  # imports the oracle, which needs scipy

    state = root / ".perfbench"
    work = state / f"run-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        started = time.perf_counter()
        jobs = workloads.build(args.workload, args.seed, root, work / "scenarios")
        build_s = time.perf_counter() - started
        (work / "jobs.json").write_text(json.dumps([{k: j[k] for k in ("id", "label", "argv")} for j in jobs]))
        spans = state / f"spans-{args.workload}.csv" if args.trace else None
        setup_runs, setup_problems, results = [], [], []
        started = time.perf_counter()
        while True:  # whole passes, stopping before one would overrun --seconds
            seconds, kernel_s, problem = measure_setup(root, work, f"p{len(results)}")
            setup_runs.append((seconds, kernel_s))
            setup_problems.append(problem)
            results.append(run_pass(root, work, f"p{len(results)}-", args.trace, spans))
            loop_s = time.perf_counter() - started
            if args.trace or (len(results) >= MIN_PASSES and loop_s * (1 + 1 / len(results)) > args.seconds):
                break
        passes = len(results)
        untraced = [r for result in results for r in result["runs"]]
        traced = [r for result in results for r in result.get("traced", [])]
        runs = untraced + traced
        jobs_by_id = {j["id"]: j for j in jobs}
        for r in runs:
            r["argv0"] = jobs_by_id[r["job"]]["argv"][0]
        judge(runs, jobs_by_id)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_problem = next((p for p in setup_problems if p), None)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if args.trace:
        metrics = per_layer(list(units), untraced, traced, results[0]["layers"])
    else:
        peak_kb = max(result["peak_rss_kb"] for result in results)
        metrics = end_to_end(untraced, jobs, passes, setup_runs, peak_kb)
        if set(metrics) != set(units):
            raise BenchError(f"BENCHMARK.json lists {sorted(units)}; run.py measures {sorted(metrics)}")
    failed = [r for r in runs if r["status"] != "ok"]
    problems = [r for r in failed if r["status"] != "known_defect"]
    return {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "provenance": provenance(),
        "deck_jobs": len(jobs),
        "passes": passes,
        "deck_build_s": build_s,
        "setup_runs_s": setup_runs,
        "setup_problem": setup_problem,
        "loop_seconds": loop_s,
        "attempted": len(jobs),
        "failed_jobs": len({r["job"] for r in failed}),
        "failed": failed,
        "runs": [{k: r.get(k) for k in ("job", "label", "out", "seconds", "kernel_s", "status")} for r in runs],
        "correct": not problems and setup_problem is None,
        "metrics": metrics,
        "units": units,
        "spans": results[0].get("layers", {}).get("spans"),
    }


def report(record: dict, trace: int) -> None:
    p = record["provenance"]
    print(f"perfbench workload={record['workload']} seed={record['seed']} trace={trace}")
    print(f"  why: {record['why']}")
    print(f"  provenance: python {p['python']}, numpy {p['numpy']} ({p['blas']}), cpu_count {p['cpu_count']}, "
          f"nproc {p['nproc']}, blas threads {p['blas_threads']}")
    print(f"  deck: {record['deck_jobs']} jobs built in {record['deck_build_s']:.2f} s; "
          f"{record['passes']} passes with set-up in {record['loop_seconds']:.2f} s")
    if record["setup_problem"]:
        print(f"  set-up answer WRONG: {record['setup_problem']}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  metric fail_share {record['failed_jobs'] / attempted:.6g} share (n={attempted} jobs, "
          f"failed={record['failed_jobs']}; a job fails if any pass of it fails)")
    kinds = {}
    for r in failed:
        kinds.setdefault((r["status"], r["label"], r["error_type"]), []).append(r)
    for (status, label, kind), rows in sorted(kinds.items()):
        print(f"  failure [{status}] {label}: {kind}: {rows[0]['message'][:160]} (x{len(rows)}; jobs "
              f"{', '.join(sorted({r['job'] for r in rows}))})")
    for name, (value, count, note) in record["metrics"].items():
        print(f"  metric {name} {value:.6g} {record['units'][name]} (n={count}{'; ' + note if note else ''})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seasonthresh benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(record, args.trace)
    state = Path.cwd() / ".perfbench"
    (state / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed_jobs"],
        "metrics": {name: {"value": value, "unit": record["units"][name]}
                    for name, (value, _n, _note) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
