"""Workload process: runs a job deck once through ``cli.main``.

One client, one process: each job starts when the previous one returns,
in deck order. ``run.py`` starts a fresh workload process for every pass
over the deck, so nothing the program keeps in memory carries over from
one pass to the next.
With ``--trace 1`` the deck runs once untraced, then the same jobs run
again under ``spans.Tracer``.

This process never imports scipy, so its peak RSS is the program's own.

    python3 perfbench/worker.py --jobs JOBS.json --out DIR --tag TAG \
        --trace 0|1 --results RESULTS.json [--spans SPANS.csv]
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import warnings
from pathlib import Path


def import_cli(root: Path):
    """Import seasonthresh.cli from the checkout's src/, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from seasonthresh import cli

    if Path(cli.__file__).resolve().parents[1] != src:
        raise SystemExit(f"perfbench: imported seasonthresh from {cli.__file__}, not {src}")
    return cli


def run_job(cli, job: dict, out: Path, tracer=None) -> dict:
    argv = job["argv"] + ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.span(f"cli.{job['argv'][0]}", cli.main, argv)
            except SystemExit as exc:  # argparse rejects an argument
                rc = exc.code
            except Exception as exc:  # a job that raises is a failed job, never a crash
                error = exc
            seconds = time.perf_counter() - start
    if error is not None:
        kind, message = type(error).__name__, str(error)
    elif rc != 0:
        lines = (stderr.getvalue() + stdout.getvalue()).strip().splitlines()
        kind, message = f"exit {rc}", lines[-1] if lines else ""
    else:
        kind, message = None, ""
    return {
        "job": job["id"],
        "label": job["label"],
        "out": str(out),
        "seconds": seconds,
        "error_type": kind,
        "message": message[:300],
        "warnings": sum(1 for w in caught if issubclass(w.category, RuntimeWarning)),
    }


def run_deck(cli, jobs: list, out_root: Path, tag: str) -> list:
    """Each job once, with the host-speed kernel timed before the first job
    and after every job; a job's kernel time is the mean of the two next to it."""
    from calibrate import kernel_seconds

    runs, before = [], kernel_seconds()
    for i, job in enumerate(jobs):
        run = run_job(cli, job, out_root / f"{tag}{i:03d}")
        after = kernel_seconds()
        run["kernel_s"] = (before + after) / 2.0
        runs.append(run)
        before = after
    return runs


def replay_traced(cli, jobs: list, out_root: Path, spans_path: Path) -> tuple[list, dict]:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        for i, job in enumerate(jobs):
            tracer.begin_job(f"t{i:03d}")
            traced.append(run_job(cli, job, out_root / f"t{i:03d}", tracer))
            tracer.end_job()
    finally:
        tracer.uninstall()
    if spans_path is not None:
        tracer.write(spans_path)
    layers = {
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "distinct": dict(tracer.distinct),
        "extra": dict(tracer.extra),
        "spans": len(tracer.spans),
    }
    return traced, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    cli = import_cli(Path.cwd())
    jobs = json.loads(Path(args.jobs).read_text())
    out_root = Path(args.out)
    result = {"runs": run_deck(cli, jobs, out_root, args.tag)}
    if args.trace:
        traced, layers = replay_traced(cli, jobs, out_root, args.spans and Path(args.spans))
        result.update(traced=traced, layers=layers)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.results).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
