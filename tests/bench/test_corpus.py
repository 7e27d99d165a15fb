"""The corpus differential harness over the checked-in mini-corpus.

The acceptance gate: every net in ``tests/corpus/`` through every
engine with zero disagreements, one schema-valid
``repro.obs/v1`` payload per instance, and the algebra laws holding on
the parsed nets.
"""

import json

import pytest

from repro.bench.corpus import (
    ENGINES,
    CellResult,
    CorpusError,
    diff_cells,
    discover,
    fuzz_laws,
    run_corpus,
    run_instance,
)
from repro.cli import main
from repro.io.formats import load_stg
from repro.obs.emit import validate_metrics
from repro.petri.marking import Marking


@pytest.fixture(scope="module")
def report(corpus_paths):
    return run_corpus(corpus_paths, check_laws=True)


class TestDiscovery:
    def test_finds_at_least_twenty_nets(self, corpus_paths):
        assert len(corpus_paths) >= 20

    def test_covers_all_four_formats(self, corpus_paths):
        assert {path.suffix for path in corpus_paths} == {
            ".g",
            ".json",
            ".net",
            ".pnml",
        }

    def test_underscore_files_skipped(self, corpus_paths):
        assert not [p for p in corpus_paths if p.name.startswith("_")]

    def test_missing_directory_is_loud(self, tmp_path):
        with pytest.raises(CorpusError, match="no such corpus directory"):
            discover(tmp_path / "ghost")

    def test_empty_directory_is_loud(self, tmp_path):
        with pytest.raises(CorpusError, match="no net files"):
            discover(tmp_path)


class TestFullMatrix:
    def test_zero_disagreements(self, report):
        assert report.disagreements == []

    def test_zero_law_violations(self, report):
        assert report.law_violations == []

    def test_every_instance_ran_the_full_matrix(self, report):
        # One cell per engine, the non-enumerating symbolic one included.
        for instance in report.instances:
            assert [c.engine for c in instance.cells] == list(ENGINES)
            symbolic = [c for c in instance.cells if c.engine == "symbolic"]
            assert len(symbolic) == 1
            assert symbolic[0].conclusive is not None

    def test_one_valid_payload_per_instance(self, report):
        for instance in report.instances:
            payload = validate_metrics(instance.payload)
            names = {span["name"] for span in payload["spans"]}
            assert "bench.instance" in names
            assert "bench.cell" in names

    def test_unbounded_instance_is_proven_by_every_cell(self, report):
        (unbounded,) = [
            i for i in report.instances if i.name == "unbounded_source"
        ]
        explicit = [c for c in unbounded.cells if c.engine != "symbolic"]
        assert {cell.outcome for cell in explicit} == {"unbounded"}
        # The symbolic engine never concludes unboundedness; it must
        # report the query open rather than call the net bounded.
        (symbolic,) = [c for c in unbounded.cells if c.engine == "symbolic"]
        assert symbolic.outcome == "inconclusive"
        assert symbolic.conclusive is False

    def test_state_counts_layout(self, report):
        """Explored states per instance and enumerating cell; instances
        no enumerating cell completed (the unbounded source) drop out."""
        counts = report.state_counts()
        assert counts["channel_bank_2"] == {"onthefly": 16, "por": 7}
        assert "unbounded_source" not in counts

    def test_deadlocking_instance_agrees_on_the_deadlock(self, report):
        (phils,) = [
            i for i in report.instances if i.name == "philosophers_2"
        ]
        deadlock_sets = {
            cell.deadlocks
            for cell in phils.cells
            if cell.engine != "symbolic"  # symbolic enumerates nothing
        }
        assert len(deadlock_sets) == 1
        (deadlocks,) = deadlock_sets
        assert len(deadlocks) == 1  # both philosophers holding one fork


class TestBoundExceeded:
    def test_recorded_as_outcome_not_error(self, corpus_dir):
        instance = run_instance(
            corpus_dir / "fig7_translator.net", max_states=10
        )
        assert all(
            cell.outcome == "bound-exceeded"
            for cell in instance.cells
            if cell.engine != "symbolic"
        )
        # The state-equation cell has no state budget to exceed: its
        # verdict is whatever the linear reasoning concludes.
        (symbolic,) = [
            c for c in instance.cells if c.engine == "symbolic"
        ]
        assert symbolic.outcome in ("ok", "inconclusive")
        assert instance.ok  # agreeing on the budget miss is agreement


class TestDiffCells:
    def ok(self, engine, states=5, edges=7, dead=()):
        return CellResult(engine, "ok", states, edges, frozenset(dead))

    def test_engine_count_mismatch_flagged(self):
        problems = diff_cells([self.ok("onthefly"), self.ok("por", edges=9)])
        assert any("explored more" in p for p in problems)

    def test_por_deadlock_divergence_flagged(self):
        marking = Marking({"p": 1})
        problems = diff_cells(
            [
                self.ok("onthefly", dead=(marking,)),
                self.ok("por", states=3, edges=3),
            ]
        )
        assert any("deadlock set differs" in p for p in problems)

    def test_por_exploring_more_flagged(self):
        problems = diff_cells(
            [self.ok("onthefly"), self.ok("por", states=9)]
        )
        assert any("explored more" in p for p in problems)

    def test_por_bound_exceeded_when_reference_ok_flagged(self):
        problems = diff_cells(
            [
                self.ok("onthefly"),
                CellResult("por", "bound-exceeded"),
            ]
        )
        assert any("although the full space completed" in p for p in problems)

    def test_por_smaller_space_is_fine(self):
        problems = diff_cells(
            [self.ok("onthefly"), self.ok("por", states=3, edges=3)]
        )
        assert problems == []

    def test_outcome_mismatch_across_engines_flagged(self):
        problems = diff_cells(
            [self.ok("onthefly"), CellResult("por", "unbounded")]
        )
        assert any("por reports unbounded" in p for p in problems)

    def symbolic(self, outcome="ok", conclusive=True, dead=()):
        return CellResult(
            "symbolic",
            outcome,
            conclusive=conclusive,
            dead_actions=frozenset(dead),
        )

    def test_symbolic_bounded_against_explicit_unbounded_flagged(self):
        """A conclusive boundedness claim against an explicit strict
        covering is a soundness bug and must be loud."""
        problems = diff_cells(
            [
                CellResult("onthefly", "unbounded"),
                self.symbolic(outcome="ok", conclusive=True),
            ]
        )
        assert any("symbolic claims the net is bounded" in p for p in problems)

    def test_symbolic_inconclusive_against_unbounded_is_fine(self):
        problems = diff_cells(
            [
                CellResult("onthefly", "unbounded"),
                self.symbolic(outcome="inconclusive", conclusive=False),
            ]
        )
        assert problems == []

    def test_symbolic_dead_action_fired_by_explicit_engine_flagged(self):
        cells = [
            CellResult(
                "onthefly",
                "ok",
                5,
                7,
                frozenset(),
                fired_actions=frozenset({"a", "b"}),
            ),
            self.symbolic(dead={"b"}),
        ]
        problems = diff_cells(cells)
        assert any("are dead but" in p and "fired" in p for p in problems)

    def test_symbolic_dead_action_never_fired_is_fine(self):
        cells = [
            CellResult(
                "onthefly",
                "ok",
                5,
                7,
                frozenset(),
                fired_actions=frozenset({"a"}),
            ),
            self.symbolic(dead={"c"}),
        ]
        assert diff_cells(cells) == []


class TestFuzzLaws:
    def test_corpus_nets_satisfy_the_laws(self, corpus_paths):
        nets = [
            (path.name, load_stg(str(path)).net) for path in corpus_paths
        ]
        assert fuzz_laws(nets) == []

    def test_violations_are_reported(self):
        # A deliberately broken "hide": feed two nets with different
        # languages through the Thm 4.5 comparison by lying about the
        # composition — fuzz_laws itself must not be fooled by order.
        from repro.petri.net import PetriNet

        net = PetriNet("tiny")
        net.add_transition({"p0"}, "a", {"p1"})
        net.set_initial(Marking({"p0": 1}))
        # Sanity: a single well-formed net yields no pair and no
        # hidable labels -> no checks, no violations.
        assert fuzz_laws([("tiny", net)]) == []


class TestCliBench:
    def test_clean_corpus_exits_zero(self, corpus_dir, tmp_path, capsys):
        out_dir = tmp_path / "obs"
        status = main(
            [
                "bench",
                str(corpus_dir),
                "--engines",
                "onthefly,por",
                "--max-states",
                "5000",
                "--out",
                str(out_dir),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "# all engines agree" in out
        payloads = sorted(out_dir.glob("*.obs.json"))
        assert len(payloads) >= 20
        for payload_path in payloads:
            validate_metrics(json.loads(payload_path.read_text()))
        index = json.loads((out_dir / "INDEX.json").read_text())
        assert index["disagreements"] == []
        assert len(index["instances"]) == len(payloads)

    def test_symbolic_cells_carry_conclusive_flags(
        self, corpus_dir, tmp_path, capsys
    ):
        out_dir = tmp_path / "obs"
        status = main(
            [
                "bench",
                str(corpus_dir),
                "--engines",
                "onthefly,symbolic",
                "--max-states",
                "5000",
                "--out",
                str(out_dir),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "# all engines agree" in out
        assert "symbolic: " in out
        index = json.loads((out_dir / "INDEX.json").read_text())
        assert index["disagreements"] == []
        for entry in index["instances"]:
            cell = entry["cells"]["symbolic"]
            assert cell["conclusive"] in (True, False)
            assert "dead action" in cell["summary"]

    def test_missing_directory_exits_two(self, tmp_path, capsys):
        status = main(["bench", str(tmp_path / "ghost")])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("cip: error: no such corpus directory")

    def test_unknown_engine_exits_two(self, corpus_dir, capsys):
        status = main(["bench", str(corpus_dir), "--engines", "psychic"])
        assert status == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_unparsable_net_exits_two(self, tmp_path, capsys):
        (tmp_path / "broken.net").write_text("tr t0 p*2 -> q\n")
        status = main(["bench", str(tmp_path)])
        assert status == 2
        err = capsys.readouterr().err
        assert "cannot parse" in err and "weight" in err
