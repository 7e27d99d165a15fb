"""Gate the benchmark's exact counts: the ``tracing.EXACT`` metrics of a
short traced run of every workload must equal the checked-in file.

Run from the repository root::

    python3 benchmarks/exact_counts.py           # check, exit 1 on a difference
    python3 benchmarks/exact_counts.py --write   # regenerate EXACT_counts.json

Each workload runs as ``perfbench/run.py --workload W --seed 1 --seconds
0.1 --trace 1``.  Those counts (states, edges, enabledness checks, solver
systems, cache traffic, ...) are per-request means over whole cycles, so
they repeat exactly from run to run and a short run gives the same
numbers as a long one.  Timings are deliberately not gated here.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = Path(__file__).resolve().parent / "EXACT_counts.json"
RUN = ROOT / "perfbench" / "run.py"
ARGS = ("--seed", "1", "--seconds", "0.1", "--trace", "1")

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from tracing import EXACT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def measure(workload: str) -> dict[str, float]:
    """The exact counts of one short traced run of ``workload``."""
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, *ARGS],
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: the benchmark reported wrong answers")
    metrics = result["metrics"]
    return {name: metrics[name]["value"] for name in EXACT}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="regenerate the checked-in file"
    )
    args = parser.parse_args(argv)
    measured = {workload: measure(workload) for workload in WORKLOADS}
    if args.write:
        COUNTS.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        print(f"wrote {COUNTS.relative_to(ROOT)}")
        return 0
    expected = json.loads(COUNTS.read_text())
    differences = [
        f"{workload} {name}: expected {expected.get(workload, {}).get(name)!r},"
        f" measured {value!r}"
        for workload, counts in measured.items()
        for name, value in counts.items()
        if expected.get(workload, {}).get(name) != value
    ]
    for line in differences:
        print(line, file=sys.stderr)
    if differences:
        return 1
    print(f"exact counts ok: {len(WORKLOADS)} workloads, {len(EXACT)} counts each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
