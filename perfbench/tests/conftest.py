"""Make the program (``src``) and the benchmark modules importable, and
share prepared workloads between the benchmark's tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH / "tests", BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

CORPUS = ROOT / "tests" / "corpus"


@pytest.fixture(scope="session")
def expected() -> dict:
    return json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def prepared(tmp_path_factory):
    """``prepared(workload, seed=0)``: the workload's inputs, generated
    once per session into a temporary directory."""
    from workloads import prepare

    cache = {}

    def get(workload: str, seed: int = 0):
        if (workload, seed) not in cache:
            workdir = tmp_path_factory.mktemp(f"{workload}-{seed}")
            cache[workload, seed] = prepare(workload, seed, workdir, CORPUS)
        return cache[workload, seed]

    return get
