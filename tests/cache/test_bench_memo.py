"""The ``cip bench`` instance memo: one verdict entry per instance.

A warm instance is one store read — no lowering, no exploration — and
its cells are the cold cells flagged ``cached``.  The entry follows the
verdict memo's budget rule (:mod:`repro.cache.verdicts`): it is
inconclusive, and served only at its own budget, when a cell hit the
state budget; otherwise it is served at any budget at or above the
largest state count a cell needed.
"""

import json

import pytest

from repro.bench.corpus import payload_bench_view, run_instance
from repro.cache.store import activated


def _entry_path(store_dir):
    (path,) = sorted(store_dir.rglob("*.json"))
    return path


class TestWarmInstance:
    def test_one_read_and_no_lowering(self, tmp_path, corpus_dir):
        path = corpus_dir / "fig5_sender.net"
        with activated(tmp_path):
            cold = run_instance(path)
            warm = run_instance(path)
        counters = warm.payload["counters"]
        assert counters["cache.hits"] == 1
        assert "cache.misses" not in counters
        names = [span["name"] for span in warm.payload["spans"]]
        assert "compile.net" not in names
        assert names.count("bench.cell") == len(warm.cells) == 3
        assert all(cell.cached for cell in warm.cells)
        assert not any(cell.cached for cell in cold.cells)
        assert warm.cells == cold.cells
        assert payload_bench_view(warm.payload) == payload_bench_view(
            cold.payload
        )


class TestBudgetRule:
    def test_channel_bank_entry_across_budgets(self, tmp_path, corpus_dir):
        path = corpus_dir / "channel_bank_2.net"

        def cached(max_states: int) -> list[bool]:
            return [
                cell.cached
                for cell in run_instance(path, max_states=max_states).cells
            ]

        with activated(tmp_path):
            small = run_instance(path, max_states=10)
            assert [cell.outcome for cell in small.cells] == [
                "bound-exceeded",
                "ok",
                "ok",
            ]
            assert small.cells[1].states == 7
            assert cached(10) == [True] * 3
            full = run_instance(path, max_states=16)
            assert not any(cell.cached for cell in full.cells)
            assert [cell.states for cell in full.cells[:2]] == [16, 7]
            for budget in (16, 17, 1_000):
                assert cached(budget) == [True] * 3
            assert cached(15) == [False] * 3


class TestMalformedEntry:
    @pytest.mark.parametrize(
        "mangle",
        [
            lambda cells: [],
            lambda cells: cells[:-1],
            lambda cells: cells[::-1],
            lambda cells: [1, 2, 3, 4],
            lambda cells: [{"engine": cell["engine"]} for cell in cells],
            lambda cells: [dict(cell, outcome="maybe") for cell in cells],
            lambda cells: [dict(cell, states="many") for cell in cells],
            lambda cells: [dict(cell, deadlocks=None) for cell in cells],
            lambda cells: [dict(cell, dead_actions="a+") for cell in cells],
        ],
        ids=[
            "empty",
            "missing-cell",
            "wrong-order",
            "not-records",
            "missing-fields",
            "unknown-outcome",
            "non-integer-states",
            "null-deadlocks",
            "string-dead-actions",
        ],
    )
    def test_recomputed(self, tmp_path, corpus_dir, mangle):
        path = corpus_dir / "fig5_sender.net"
        with activated(tmp_path):
            cold = run_instance(path)
            entry = _entry_path(tmp_path)
            envelope = json.loads(entry.read_text(encoding="utf-8"))
            result = envelope["data"]["result"]
            result["cells"] = mangle(result["cells"])
            entry.write_text(json.dumps(envelope), encoding="utf-8")
            recomputed = run_instance(path)
        assert not any(cell.cached for cell in recomputed.cells)
        assert recomputed.cells == cold.cells
        assert recomputed.disagreements == []
