"""Cold/warm differential tests across the CLI and the bench sweep.

The contract pinned here is the strongest form of cache transparency:
with a *populated* cache, ``--no-cache`` output is byte-identical to
cached output, and a cold store produces the same observable results as
a warm one (only ``cached`` provenance flags and timings may differ).
"""

import json

import pytest

from repro.bench.corpus import diff_bench_dirs, run_instance
from repro.cache.store import activated
from repro.cli import main
from repro.io.astg import save_astg
from repro.models.library import four_phase_master, four_phase_slave
from repro.obs import metrics as obs


@pytest.fixture()
def master_file(tmp_path):
    path = tmp_path / "master.g"
    save_astg(four_phase_master(), str(path))
    return str(path)


@pytest.fixture()
def slave_file(tmp_path):
    path = tmp_path / "slave.g"
    save_astg(four_phase_slave(), str(path))
    return str(path)


def _cache_files(cache_dir) -> list:
    return sorted(p for p in cache_dir.rglob("*.json") if p.is_file())


class TestRunInstanceDifferential:
    def test_cold_warm_cells_and_payloads_agree(self, tmp_path, corpus_dir):
        path = corpus_dir / "fig7_translator.net"
        with activated(tmp_path / "cache"):
            cold = run_instance(path, max_states=20_000)
            warm = run_instance(path, max_states=20_000)
        assert cold.cells == warm.cells  # `cached` is compare-excluded
        # The cold run computes at least its first full-space cell; the
        # rest may already share it through the store (within-run reuse
        # is the designed behaviour, not a leak).
        assert not cold.cells[0].cached
        assert cold.disagreements == warm.disagreements == []
        # The warm run restores every non-symbolic cell from the store.
        restorable = [c for c in warm.cells if c.engine != "symbolic"]
        assert restorable and all(cell.cached for cell in restorable)

    def test_no_store_differential_unchanged(self, corpus_dir):
        path = corpus_dir / "fig7_translator.net"
        first = run_instance(path, max_states=20_000)
        second = run_instance(path, max_states=20_000)
        assert first.cells == second.cells
        assert not any(cell.cached for cell in first.cells + second.cells)


class TestCliVerifyParity:
    def run(self, capsys, master_file, slave_file, *flags) -> str:
        assert main(["verify", master_file, slave_file, *flags]) == 0
        return capsys.readouterr().out

    def test_no_cache_bytes_equal_warm_bytes(
        self, tmp_path, capsys, master_file, slave_file
    ):
        cache_dir = tmp_path / "cache"
        flags = ("--cache-dir", str(cache_dir))
        cold = self.run(capsys, master_file, slave_file, *flags)
        assert _cache_files(cache_dir), "cold run must populate the store"
        warm = self.run(capsys, master_file, slave_file, *flags)
        bypass = self.run(capsys, master_file, slave_file, "--no-cache")
        assert cold == warm == bypass

    def test_bypass_writes_nothing(
        self, tmp_path, capsys, master_file, slave_file, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.delenv("CIP_NO_CACHE", raising=False)
        monkeypatch.setenv("CIP_CACHE_DIR", str(cache_dir))
        self.run(capsys, master_file, slave_file, "--no-cache")
        assert not cache_dir.exists()

    def test_corrupted_store_is_survivable(
        self, tmp_path, capsys, master_file, slave_file
    ):
        cache_dir = tmp_path / "cache"
        flags = ("--cache-dir", str(cache_dir))
        cold = self.run(capsys, master_file, slave_file, *flags)
        for artifact in _cache_files(cache_dir):
            artifact.write_text("garbage {{", encoding="utf-8")
        recovered = self.run(capsys, master_file, slave_file, *flags)
        assert recovered == cold


class TestCliVerifyAcrossEngines:
    """A verdict stored by one engine or worker count never answers a
    command run with another: the report it prints (state count,
    witnesses, their order and traces, the por epilogue) depends on
    them, so the warm output must equal the cold one."""

    def run(self, capsys, status, *argv) -> str:
        assert main(["verify", *argv]) == status
        return capsys.readouterr().out

    def test_default_entry_does_not_answer_por(
        self, tmp_path, capsys, corpus_dir
    ):
        files = (
            str(corpus_dir / "fig5_sender.json"),
            str(corpus_dir / "fig7_translator.net"),
            "--method",
            "reachability",
        )
        store = ("--cache-dir", str(tmp_path / "cache"))
        self.run(capsys, 0, *files, *store)
        warm = self.run(capsys, 0, *files, *store, "--engine", "por")
        cold = self.run(capsys, 0, *files, "--no-cache", "--engine", "por")
        assert warm == cold
        assert "# states explored: 228 (por)" in warm
        assert "# eager baseline : 1444 states (228/1444 explored)" in warm

    def test_parallel_entry_does_not_answer_serial(
        self, tmp_path, capsys, corpus_dir
    ):
        files = (
            str(corpus_dir / "fig8_inconsistent.net"),
            str(corpus_dir / "fig7_translator.net"),
            "--method",
            "reachability",
        )
        store = ("--cache-dir", str(tmp_path / "cache"))
        self.run(capsys, 1, *files, *store, "--parallel", "2")
        warm = self.run(capsys, 1, *files, *store)
        cold = self.run(capsys, 1, *files, "--no-cache")
        assert warm == cold
        # Serial witnesses carry their breadth-first traces.
        assert "(after rec~.a0+)" in warm


class TestCliAlgebraParity:
    """``compose --trim`` and ``hide --trim`` write the same file and
    print the same line cold, warm and with ``--no-cache``.  Only the
    ``hide`` and ``trim`` results are stored: ``parallel`` is cheaper
    to redo than to load."""

    def run(self, capsys, tmp_path, master_file, slave_file, *flags):
        legs = []
        for argv in (
            ["compose", master_file, slave_file],
            ["hide", master_file, "-s", "r"],
        ):
            target = tmp_path / f"{argv[0]}.g"
            assert main([*argv, "--trim", "-o", str(target), *flags]) == 0
            legs.append((capsys.readouterr().out, target.read_bytes()))
        return legs

    def test_outputs_agree_and_only_hide_and_trim_are_stored(
        self, tmp_path, capsys, master_file, slave_file
    ):
        cache_dir = tmp_path / "cache"
        flags = ("--cache-dir", str(cache_dir))
        files = (master_file, slave_file)
        bypass = self.run(capsys, tmp_path, *files, "--no-cache")
        cold = self.run(capsys, tmp_path, *files, *flags)
        with obs.record() as recorder:
            warm = self.run(capsys, tmp_path, *files, *flags)
        assert cold == warm == bypass
        stored = _cache_files(cache_dir)
        assert {path.parent.parent.name for path in stored} == {"derived-net"}
        # trim(compose(A, B)), hide(A) and trim(hide(A)).
        assert len(stored) == 3
        spans = recorder.to_dict()["spans"]
        served = sorted(s["name"] for s in spans if s["meta"].get("cached"))
        assert served == ["algebra.hide", "algebra.trim", "algebra.trim"]
        assert "algebra.parallel" in {span["name"] for span in spans}


class TestCliFlagPrecedence:
    def test_both_flags_is_an_error(self, tmp_path, capsys, master_file):
        code = main(
            ["info", master_file, "--no-cache", "--cache-dir", str(tmp_path)]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_cache_dir_overrides_cip_no_cache(
        self, tmp_path, capsys, master_file, monkeypatch
    ):
        # conftest exports CIP_NO_CACHE=1 for hermeticity; an explicit
        # --cache-dir must still win over that ambient opt-out.
        monkeypatch.setenv("CIP_NO_CACHE", "1")
        cache_dir = tmp_path / "cache"
        assert main(["info", master_file, "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert _cache_files(cache_dir)

    def test_cip_no_cache_disables_by_default(
        self, tmp_path, capsys, master_file, monkeypatch
    ):
        monkeypatch.setenv("CIP_NO_CACHE", "1")
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("CIP_CACHE_DIR", str(cache_dir))
        assert main(["info", master_file]) == 0
        capsys.readouterr()
        assert not cache_dir.exists()

    def test_cip_cache_dir_env_selects_root(
        self, tmp_path, capsys, master_file, monkeypatch
    ):
        monkeypatch.delenv("CIP_NO_CACHE", raising=False)
        cache_dir = tmp_path / "envcache"
        monkeypatch.setenv("CIP_CACHE_DIR", str(cache_dir))
        assert main(["info", master_file]) == 0
        capsys.readouterr()
        assert _cache_files(cache_dir)


class TestCliBenchParity:
    def bench(self, capsys, corpus_dir, out_dir, *flags) -> str:
        code = main(
            [
                "bench",
                str(corpus_dir),
                "--max-states",
                "20000",
                "--out",
                str(out_dir),
                *flags,
            ]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_three_way_payload_parity(self, tmp_path, capsys, corpus_dir):
        """no-cache, cold-with-cache and warm-with-cache runs agree on
        every bench-semantic payload field (INDEX.json modulo `cached`
        flags, spans and counters modulo timing/cache metrics)."""
        cache_dir = tmp_path / "cache"
        flags = ("--cache-dir", str(cache_dir))
        self.bench(capsys, corpus_dir, tmp_path / "nocache", "--no-cache")
        self.bench(capsys, corpus_dir, tmp_path / "cold", *flags)
        warm_out = self.bench(capsys, corpus_dir, tmp_path / "warm", *flags)
        assert diff_bench_dirs(tmp_path / "nocache", tmp_path / "cold") == []
        assert diff_bench_dirs(tmp_path / "cold", tmp_path / "warm") == []
        assert "all engines agree" in warm_out
        index = json.loads(
            (tmp_path / "warm" / "INDEX.json").read_text(encoding="utf-8")
        )
        warm_cells = [
            cell
            for inst in index["instances"]
            for cell in inst["cells"].values()
        ]
        assert any(cell["cached"] for cell in warm_cells)
