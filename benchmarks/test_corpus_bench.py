"""Corpus sweep as a benchmark workload.

Runs the checked-in mini-corpus (the same fixture the unit tests use —
see ``tests/conftest.py``) through every engine and records the
per-engine state totals, so a regression in any engine's exploration
shows up as a trajectory diff.

The ``smoke`` test is run by CI's quick-mode benchmark job.
"""

from pathlib import Path

from repro.bench.corpus import run_corpus
from repro.obs.emit import write_benchmark

BENCH_PATH = Path(__file__).parent / "BENCH_corpus.json"


def test_corpus_matrix_smoke(corpus_paths):
    report = run_corpus(corpus_paths, max_states=50_000)
    assert report.disagreements == []
    assert len(report.instances) >= 20

    # The symbolic cell enumerates nothing, so it has no state count.
    instances = report.state_counts()
    totals: dict[str, int] = {}
    for counts in instances.values():
        for engine, states in counts.items():
            totals[engine] = totals.get(engine, 0) + states
    # por explores no more than the full space, corpus-wide.
    assert totals["por"] <= totals["onthefly"]

    write_benchmark(
        BENCH_PATH, "corpus-matrix-state-counts", "explored states", instances
    )
