"""Tests for automatic CSC resolution."""

import pytest

from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.stg.coding import coding_report
from repro.stg.csc_resolution import (
    CscResolutionError,
    insert_in_series,
    resolve_csc,
)
from repro.stg.stg import Stg, hide_signals_to_epsilon
from repro.verify.language import languages_equal


def csc_broken_stg() -> Stg:
    """The canonical VME-style conflict: code (b=0, i=1) occurs both
    where b must rise and where it must stay low."""
    net = PetriNet("csc_broken")
    net.add_transition({"q0"}, "i+", {"q1"})
    net.add_transition({"q1"}, "b+", {"q2"})
    net.add_transition({"q2"}, "i-", {"q3"})
    net.add_transition({"q3"}, "b-", {"q4"})
    net.add_transition({"q4"}, "i+", {"q5"})
    net.add_transition({"q5"}, "i-", {"q0"})
    net.set_initial(Marking({"q0": 1}))
    return Stg(net, inputs={"i"}, outputs={"b"})


class TestInsertInSeries:
    def test_series_split(self):
        net = PetriNet()
        net.add_transition({"p"}, "a+", {"q"}, tid=0)
        net.set_initial(Marking({"p": 1}))
        inserted = insert_in_series(net, 0, "x+")
        assert len(inserted.transitions) == 2
        assert inserted.transitions[0].action == "a+"
        # a+ now feeds the middle place; x+ produces q.
        from repro.petri.traces import bounded_language

        assert bounded_language(inserted, 2) == {(), ("a+",), ("a+", "x+")}

    def test_guard_preserved(self):
        from repro.stg.guards import lit

        net = PetriNet()
        net.add_transition({"p"}, "a+", {"q"}, tid=0)
        net.set_guard("p", 0, lit("g"))
        inserted = insert_in_series(net, 0, "x+")
        assert inserted.guard_of("p", 0) == lit("g")


class TestResolveCsc:
    def test_vme_controller_is_repaired(self):
        """The canonical case: one CSC conflict, one inserted signal."""
        from repro.models.library import vme_bus_controller

        broken = vme_bus_controller()
        assert not coding_report(broken).csc
        repaired, insertion = resolve_csc(broken)
        report = coding_report(repaired)
        assert report.synthesizable()
        assert insertion.signal == "csc0"
        assert "csc0" in repaired.internals

    def test_visible_language_preserved(self):
        from repro.models.library import vme_bus_controller

        broken = vme_bus_controller()
        repaired, _ = resolve_csc(broken)
        erased = hide_signals_to_epsilon(repaired, {"csc0"})
        assert languages_equal(erased.net, broken.net)

    def test_repaired_stg_synthesizes(self):
        from repro.models.library import vme_bus_controller
        from repro.synth.implementation import synthesize, verify_implementation

        repaired, _ = resolve_csc(vme_bus_controller())
        implementation = synthesize(repaired)
        assert verify_implementation(repaired, implementation).ok
        # The state signal has a real function now.
        assert "csc0" in implementation.functions

    def test_window_effect_defeats_series_insertion(self):
        """The tight two-signal toy conflict cannot be fixed by series
        insertion of a single signal: every insertion creates a
        'window' state whose code collides again.  The resolver must
        report that honestly rather than return a broken net."""
        with pytest.raises(CscResolutionError):
            resolve_csc(csc_broken_stg())

    def test_already_clean_stg_untouched(self):
        from repro.models.library import four_phase_slave

        clean = four_phase_slave()
        repaired, insertion = resolve_csc(clean)
        assert insertion.rise_after == -1
        assert repaired.net.stats() == clean.net.stats()

    def test_existing_signal_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_csc(csc_broken_stg(), signal="b")

    def test_candidate_budget(self):
        with pytest.raises(CscResolutionError):
            resolve_csc(csc_broken_stg(), max_candidates=1)

    def test_candidates_over_the_state_budget_are_skipped(self):
        """Every insertion adds states, so a budget that just fits the
        baseline skips every candidate instead of raising."""
        from repro.models.library import vme_bus_controller
        from repro.stg.state_graph import build_state_graph

        broken = vme_bus_controller()
        fits = build_state_graph(broken).num_states()
        with pytest.raises(CscResolutionError, match="no single-signal"):
            resolve_csc(broken, max_states=fits)

    def test_inconsistent_stg_rejected(self):
        net = PetriNet()
        net.add_transition({"p0"}, "z+", {"p1"})
        net.add_transition({"p1"}, "z+", {"p0"})
        net.set_initial(Marking({"p0": 1}))
        with pytest.raises(CscResolutionError, match="consistency"):
            resolve_csc(Stg(net, outputs={"z"}))
