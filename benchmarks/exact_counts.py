"""Gate the benchmark's exact counts: the ``tracing.EXACT`` metrics of a
short traced run of every workload, the corpus-matrix state counts and
the partial-order-reduction state counts must equal the checked-in
files.

Run from the repository root::

    python3 benchmarks/exact_counts.py           # check, exit 1 on a difference
    python3 benchmarks/exact_counts.py --write   # regenerate all three files

Each workload runs as ``perfbench/run.py --workload W --seed 1 --seconds
0.1 --trace 1``.  Those counts (states, edges, enabledness checks, solver
systems, cache traffic, ...) are per-request means over whole cycles, so
they repeat exactly from run to run and a short run gives the same
numbers as a long one; they are gated against ``EXACT_counts.json``.
The corpus matrix is ``tests/corpus`` through every ``cip bench`` cell
at a 50,000-state budget; the states each enumerating cell explores per
instance are gated against ``BENCH_corpus.json``, the trajectory
``test_corpus_bench.py`` writes.  The seven instances of
``BENCH_por.json``, the trajectory ``test_por_engine.py`` writes, are
recomputed with that module's own calls: explored states under
``onthefly`` and ``por`` of the Fig 5-8 receptiveness checks, whose
early exit on Fig 8||7 pins where the search stops, and of the
channel-bank explorations.  Timings are deliberately not gated here.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = Path(__file__).resolve().parent / "EXACT_counts.json"
CORPUS_COUNTS = Path(__file__).resolve().parent / "BENCH_corpus.json"
POR_COUNTS = Path(__file__).resolve().parent / "BENCH_por.json"
CORPUS = ROOT / "tests" / "corpus"
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


def corpus_counts() -> dict[str, dict[str, int]]:
    """Explored states per corpus instance and enumerating cell, in the
    layout of ``BENCH_corpus.json``."""
    from repro.bench.corpus import run_corpus

    report = run_corpus(CORPUS, max_states=50_000)
    if report.disagreements:
        raise SystemExit(f"corpus matrix disagrees: {report.disagreements}")
    return report.state_counts()


def por_counts() -> dict[str, dict[str, int]]:
    """Explored states per ``BENCH_por.json`` instance and engine, by the
    calls ``test_por_engine.py`` makes."""
    from repro.models import protocol_translator as paper
    from repro.petri.product import LazyStateSpace
    from test_por_engine import channel_bank, engine_states

    sender, translator = paper.sender(), paper.translator()
    pairs = {
        "fig5||fig7 sender||translator": (sender, translator),
        "fig7||fig6 translator||receiver": (translator, paper.receiver()),
        "fig8||fig7 inconsistent||translator": (
            paper.inconsistent_sender(),
            translator,
        ),
    }
    counts = {
        name: {
            engine: engine_states(*pair, engine) for engine in ("onthefly", "por")
        }
        for name, pair in pairs.items()
    }
    for channels in range(1, 5):
        net = channel_bank(channels).net
        full = LazyStateSpace(net)
        full.explore_all()
        reduced = LazyStateSpace(net, reduction=True, visible_actions=())
        reduced.explore_all()
        counts[f"channel-bank({channels}) deadlock-preserving"] = {
            "onthefly": full.stats.states,
            "por": reduced.stats.states,
        }
    return counts


def differences(expected: dict, measured: dict, label: str) -> list[str]:
    """One line per count that is not the same in ``expected`` and
    ``measured`` (two levels of names: workload or instance, then
    count), including counts only one side has."""
    lines = []
    for group in sorted(expected.keys() | measured.keys()):
        want, got = expected.get(group, {}), measured.get(group, {})
        for name in sorted(want.keys() | got.keys()):
            if want.get(name) != got.get(name):
                lines.append(
                    f"{label}{group} {name}: expected {want.get(name)!r},"
                    f" measured {got.get(name)!r}"
                )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="regenerate the checked-in files"
    )
    args = parser.parse_args(argv)
    measured = {workload: measure(workload) for workload in WORKLOADS}
    corpus = corpus_counts()
    por = por_counts()
    if args.write:
        from repro.obs.emit import write_benchmark

        COUNTS.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        write_benchmark(
            CORPUS_COUNTS, "corpus-matrix-state-counts", "explored states", corpus
        )
        write_benchmark(POR_COUNTS, "por-engine-state-counts", "explored states", por)
        for path in (COUNTS, CORPUS_COUNTS, POR_COUNTS):
            print(f"wrote {path.relative_to(ROOT)}")
        return 0
    problems = differences(json.loads(COUNTS.read_text()), measured, "")
    problems += differences(
        json.loads(CORPUS_COUNTS.read_text())["instances"], corpus, "corpus "
    )
    problems += differences(
        json.loads(POR_COUNTS.read_text())["instances"], por, "por "
    )
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        return 1
    print(
        f"exact counts ok: {len(WORKLOADS)} workloads, {len(EXACT)} counts"
        f" each; corpus matrix, {len(corpus)} instances; por, {len(por)}"
        " instances"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
