"""Corpus differential harness: external nets through every engine."""

from repro.bench.corpus import (
    ENGINES,
    CellResult,
    CorpusError,
    InstanceResult,
    diff_cells,
    discover,
    explore_cell,
    fuzz_laws,
    run_corpus,
    run_instance,
)

__all__ = [
    "ENGINES",
    "CellResult",
    "CorpusError",
    "InstanceResult",
    "diff_cells",
    "discover",
    "explore_cell",
    "fuzz_laws",
    "run_corpus",
    "run_instance",
]
