"""The command-line contract of ``perfbench/run.py``."""

import json
import shutil
import subprocess
import sys

import pytest
from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, table", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_reports_every_metric_with_its_unit(trace, table):
    done = run(ROOT, "--workload", "case-study", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    *comments, last = done.stdout.strip().splitlines()
    assert all(line.startswith("#") for line in comments)
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {metric["name"]: metric["unit"] for metric in SPEC[table]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_calibrated_latencies_are_scaled_to_the_reference_speed(
    prepared, expected, tmp_path, monkeypatch
):
    import run

    # A machine at half the reference speed: every latency is halved.
    monkeypatch.setattr(run, "reference_seconds", lambda: 2 * run.REFERENCE_S)
    workload = prepared("case-study")
    client = run.Client(workload, expected["case-study"], tmp_path)
    latencies = client.cycle(calibrated=True)
    assert len(latencies) == len(client.references) == len(workload.cycle)
    assert sum(latencies.values()) == pytest.approx(client.timed_s / 2)
    assert client.failed == 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run(tmp_path, "--workload", "case-study", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "{" not in done.stdout
