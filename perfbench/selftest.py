"""Self-checks of the benchmark itself.

    python3 perfbench/selftest.py          # from the root of a checkout
    python3 -m pytest perfbench/selftest.py

1. The oracle finds theta* = 1/2 on the bundled insect pair and 2/3 on the
   bundled matrices pair, both by root-finding and in closed form.
2. A job whose output file is tampered with is judged a failed job: a
   moved theta* in threshold.json, and each certificate's `holds` flipped
   in certificates.json.
3. cli.<command>.p50_ms is reported for every command on the two bundled
   scenarios, for comparison with the ROADMAP baseline table.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

BUNDLED = ("scenarios/insect_two_season.json", "scenarios/matrices_shared_eigenvector.json")


def _scratch():
    import tempfile

    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=state)


def _pair(path: str):
    scenario = json.loads((ROOT / path).read_text())
    return (*oracle.season_matrices(scenario), scenario["period_T"])


def test_oracle_thresholds():
    for path, want in zip(BUNDLED, (0.5, 2.0 / 3.0)):
        m1, m2, period = _pair(path)
        assert abs(oracle.theta_star(m1, m2, period) - want) < 1e-12, path
        assert abs(oracle.closed_form_threshold(m1, m2) - want) < 1e-12, path
        assert oracle.shares_eigenvector(m1, m2), path


def _bundled_job(tmp: Path, command: str, **expect) -> tuple[dict, dict]:
    """Run one command on the bundled insect scenario; returns (job, run)."""
    scenario = json.loads((ROOT / BUNDLED[0]).read_text())
    job = {
        "id": "j000",
        "label": command,
        "argv": [command, "--scenario", str(ROOT / BUNDLED[0])],
        "known_defect": None,
        "expect": {"command": command, "scenario": scenario, **expect},
    }
    cli = worker.import_cli(ROOT)
    return job, worker.run_job(cli, job, tmp / command)


def test_tampered_output_counts_as_failed():
    with _scratch() as tmp:
        job, clean = _bundled_job(Path(tmp), "threshold", theta_star=0.5)
        run.judge([clean], {job["id"]: job})
        assert clean["status"] == "ok", clean

        report_path = Path(clean["out"]) / "threshold.json"
        report = json.loads(report_path.read_text())
        report["theta_star"] += 1e-4
        report_path.write_text(json.dumps(report))
        tampered = dict(clean, status=None)
        run.judge([tampered], {job["id"]: job})
        assert tampered["status"] == "wrong_answer", tampered
        assert "theta*" in tampered["message"]


def test_tampered_certificate_counts_as_failed():
    """Flipping `holds` on any one certificate of the bundled insect pair is
    judged a wrong answer."""
    with _scratch() as tmp:
        job, clean = _bundled_job(Path(tmp), "check", shared=True, decreasing=True)
        run.judge([clean], {job["id"]: job})
        assert clean["status"] == "ok", clean

        path = Path(clean["out"]) / "certificates.json"
        certs = json.loads(path.read_text())
        assert len(certs) == 8, [c["condition"] for c in certs]
        for i, cert in enumerate(certs):
            flipped = json.loads(json.dumps(certs))
            flipped[i]["holds"] = not cert["holds"]
            path.write_text(json.dumps(flipped))
            tampered = dict(clean, status=None, error_type=None)
            run.judge([tampered], {job["id"]: job})
            assert tampered["status"] == "wrong_answer", (cert["condition"], tampered)
            assert cert["condition"] in tampered["message"], tampered["message"]


def bundled_command_p50() -> dict:
    """cli.<command>.p50_ms over both bundled scenarios, run in-process."""
    cli = worker.import_cli(ROOT)
    runs = []
    with _scratch() as tmp:
        for command in cli.COMMANDS:
            for path in BUNDLED:
                job = {"id": command, "label": command, "argv": [command, "--scenario", str(ROOT / path)]}
                result = worker.run_job(cli, job, Path(tmp) / f"{command}-{Path(path).stem}")
                assert result["error_type"] is None, result
                runs.append(dict(result, status="ok", argv0=command))
    return {f"cli.{c}.p50_ms": run.command_p50(runs, c) for c in cli.COMMANDS}


def test_bundled_command_p50_reported():
    table = bundled_command_p50()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(table) == {m["name"] for m in spec["per_layer"] if m["name"].endswith(".p50_ms")}
    assert all(value > 0.0 for value in table.values()), table


if __name__ == "__main__":
    test_oracle_thresholds()
    print("ok  oracle theta* = 1/2 (insect) and 2/3 (matrices)")
    test_tampered_output_counts_as_failed()
    print("ok  tampered threshold.json is judged a wrong answer")
    test_tampered_certificate_counts_as_failed()
    print("ok  each flipped certificate in certificates.json is judged a wrong answer")
    for name, value in bundled_command_p50().items():
        print(f"ok  {name} {value:.1f} ms (n=2: both bundled scenarios)")
