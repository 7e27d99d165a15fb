"""Unit tests for the state-equation symbolic engine.

Covers the exact phase-1 simplex, the component-restricted state
equation builder, trap-constraint refinement (on a net where the plain
equation is feasible and only the trap cut decides), the marked-graph
exactness path, boundedness certificates, dead actions and the
language pre-check.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from repro.obs import metrics as obs
from repro.petri.marking import Marking
from repro.petri.net import EPSILON, PetriNet
from repro.petri.reachability import ReachabilityGraph
from repro.petri.symbolic import (
    LinearSystem,
    StateEquation,
    SymbolicVerdict,
    analyze,
    bounded,
    dead_actions,
    initial_actions,
    language_precheck,
    marking_unreachable,
    predicate_unreachable,
    symbolic_receptiveness,
)

CORPUS = Path(__file__).parent.parent / "corpus"


def cycle() -> PetriNet:
    net = PetriNet("cycle")
    net.add_transition({"p0"}, "a", {"p1"})
    net.add_transition({"p1"}, "b", {"p0"})
    net.set_initial(Marking({"p0": 1}))
    return net


def trap_net() -> PetriNet:
    """The canonical refinement-requiring net: the plain state equation
    can "empty" the trap {a, b} (x1 = x2 = 1 cancels out), but the
    initially-marked trap constraint M(a)+M(b) >= 1 cuts it off."""
    net = PetriNet("trap")
    net.add_transition({"a"}, "t1", {"b"})
    net.add_transition({"a", "b"}, "t2", {"a"})
    net.set_initial(Marking({"a": 1}))
    return net


def source_net() -> PetriNet:
    net = PetriNet("source")
    net.add_transition({"p"}, "grow", {"p", "q"})
    net.set_initial(Marking({"p": 1}))
    return net


def drain_net() -> PetriNet:
    net = PetriNet("drain")
    net.add_transition({"p", "q"}, "a", {"q"})
    net.set_initial(Marking({"p": 1, "q": 1}))
    return net


class TestLinearSystem:
    def test_feasible_system_yields_exact_rationals(self):
        system = LinearSystem(("x", "y"))
        system.inequality((2, 1), 4)
        system.equality((1, 3), 3)
        solution = system.solve()
        assert solution is not None
        for value in solution.values():
            assert isinstance(value, Fraction)
        x, y = solution["x"], solution["y"]
        assert 2 * x + y <= 4
        assert x + 3 * y == 3

    def test_infeasible_system(self):
        system = LinearSystem(("x",))
        system.inequality((1,), 1)
        system.inequality((-1,), -2)  # x >= 2 contradicts x <= 1
        assert system.solve() is None

    def test_equality_forces_fractional_solution(self):
        system = LinearSystem(("x",))
        system.equality((3,), 1)
        solution = system.solve()
        assert solution == {"x": Fraction(1, 3)}

    def test_empty_variable_edge_cases(self):
        consistent = LinearSystem(())
        consistent.equality((), 0)
        assert consistent.solve() == {}
        contradictory = LinearSystem(())
        contradictory.equality((), 1)
        assert contradictory.solve() is None

    def test_coefficient_arity_checked(self):
        system = LinearSystem(("x", "y"))
        with pytest.raises(ValueError):
            system.inequality((1,), 0)


class TestStateEquation:
    def test_unknown_focus_place_rejected(self):
        with pytest.raises(ValueError):
            StateEquation(cycle(), {"nope"})

    def test_component_restriction_drops_other_components(self):
        net = PetriNet("two-components")
        net.add_transition({"p0"}, "a", {"p1"})
        net.add_transition({"q0"}, "b", {"q1"})
        net.set_initial(Marking({"p0": 1, "q0": 1}))
        equation = StateEquation(net, {"p0"})
        assert set(equation.places) == {"p0", "p1"}
        assert len(equation.tids) == 1

    def test_no_restriction_keeps_everything(self):
        net = PetriNet("two-components")
        net.add_transition({"p0"}, "a", {"p1"})
        net.add_transition({"q0"}, "b", {"q1"})
        net.set_initial(Marking({"p0": 1, "q0": 1}))
        equation = StateEquation(net, {"p0"}, restrict=False)
        assert set(equation.places) == {"p0", "p1", "q0", "q1"}

    def test_witness_marking_freezes_other_components(self):
        net = PetriNet("two-components")
        net.add_transition({"p0"}, "a", {"p1"})
        net.add_transition({"q0"}, "b", {"q1"})
        net.set_initial(Marking({"p0": 1, "q0": 1}))
        equation = StateEquation(net, {"p0"})
        system = equation.base_system()
        equation.require_marked(system, "p1")
        solution = system.solve()
        witness = equation.witness_marking(solution)
        assert witness["p1"] == 1
        assert witness["q0"] == 1  # untouched component keeps M0


class TestPredicateUnreachable:
    def test_invariant_contradiction_is_conclusive(self):
        """p0 and p1 share one token: both marked at once is impossible,
        and the plain state equation already proves it."""
        verdict = predicate_unreachable(cycle(), marked=("p0", "p1"))
        assert verdict.conclusive and verdict.holds
        assert verdict.stats["refinement_rounds"] == 0

    def test_trap_refinement_is_load_bearing(self):
        """Emptying {a, b} is state-equation feasible; only the
        initially-marked-trap cut makes the verdict conclusive."""
        verdict = predicate_unreachable(trap_net(), empty=("a", "b"))
        assert verdict.conclusive and verdict.holds
        assert verdict.stats["refinement_rounds"] >= 1
        # Ground truth: no reachable marking empties both places.
        for marking in ReachabilityGraph(trap_net()).states:
            assert marking["a"] or marking["b"]

    def test_exact_mode_yields_witness_on_marked_graph(self):
        verdict = predicate_unreachable(cycle(), marked=("p1",))
        assert verdict.conclusive and not verdict.holds
        assert verdict.witness == Marking({"p1": 1})

    def test_feasible_inexact_net_is_inconclusive(self):
        """trap_net is not a marked graph, so a feasible system proves
        nothing: marked=(b,) is actually reachable but the verdict must
        stay inconclusive rather than guess."""
        verdict = predicate_unreachable(trap_net(), marked=("b",))
        assert not verdict.conclusive
        assert verdict.holds is None

    def test_conclusive_verdicts_enforce_holds(self):
        with pytest.raises(ValueError):
            SymbolicVerdict(True, None, "broken")
        with pytest.raises(ValueError):
            SymbolicVerdict(False, True, "broken")


class TestMarkingUnreachable:
    def test_two_tokens_in_one_token_cycle(self):
        verdict = marking_unreachable(cycle(), Marking({"p0": 1, "p1": 1}))
        assert verdict.conclusive and verdict.holds

    def test_reachable_marking_on_marked_graph_is_conclusively_false(self):
        verdict = marking_unreachable(cycle(), Marking({"p1": 1}))
        assert verdict.conclusive and not verdict.holds
        assert verdict.witness == Marking({"p1": 1})

    def test_unknown_target_place_rejected(self):
        with pytest.raises(ValueError):
            marking_unreachable(cycle(), Marking({"ghost": 1}))


class TestBounded:
    def test_invariant_covered_net(self):
        verdict = bounded(cycle())
        assert verdict.conclusive and verdict.holds
        assert "P-invariant" in verdict.reason

    def test_structural_certificate_without_full_coverage(self):
        """A strictly-consumed place lies in no P-semiflow, but a
        positive weighting that never increases still certifies
        boundedness."""
        verdict = bounded(drain_net())
        assert verdict.conclusive and verdict.holds
        assert "structurally bounded" in verdict.reason

    def test_unbounded_source_is_inconclusive_never_wrong(self):
        verdict = bounded(source_net())
        assert not verdict.conclusive

    def test_empty_net(self):
        verdict = bounded(PetriNet("empty"))
        assert verdict.conclusive and verdict.holds

    def test_fig7_translator_certified_without_exact_simplex(
        self, monkeypatch
    ):
        """The Fig 7 translator's P-invariant basis overflows its
        budget; the float proposal, checked in integers, decides alone."""
        from repro.io.formats import load_stg

        net = load_stg(str(CORPUS / "fig7_translator.net")).net

        def refuse(self, pivot_budget=None):
            raise AssertionError("the exact simplex was consulted")

        monkeypatch.setattr(LinearSystem, "solve", refuse)
        verdict = bounded(net)
        assert verdict.conclusive and verdict.holds
        assert verdict.stats["systems"] == 1

    @pytest.mark.parametrize(
        "float_answer",
        [
            lambda self: (
                "feasible",
                {name: -0.5 for name in self.variables},
            ),
            lambda self: ("infeasible", None),
        ],
        ids=["rejected-proposal", "float-infeasible"],
    )
    @pytest.mark.parametrize(
        "make, conclusive",
        [(cycle, True), (drain_net, True), (source_net, False)],
        ids=["cycle", "drain", "source"],
    )
    def test_exact_simplex_decides_without_a_checked_proposal(
        self, monkeypatch, float_answer, make, conclusive
    ):
        calls = []
        solve = LinearSystem.solve

        def counted(self, pivot_budget=None):
            calls.append(self)
            return solve(self, pivot_budget)

        monkeypatch.setattr(LinearSystem, "_solve_float", float_answer)
        monkeypatch.setattr(LinearSystem, "solve", counted)
        verdict = bounded(make())
        assert len(calls) == 1
        assert verdict.conclusive == conclusive
        assert verdict.holds == (True if conclusive else None)


class TestDeadActions:
    def test_dead_transition_found(self):
        """d consumes from a place that can never be marked: its preset
        enabling condition is state-equation infeasible."""
        net = PetriNet("with-dead")
        net.add_transition({"p0"}, "a", {"p1"})
        net.add_transition({"p1"}, "b", {"p0"})
        net.add_transition({"p0", "p1"}, "d", {"p0"})
        net.set_initial(Marking({"p0": 1}))
        dead, stats = dead_actions(net)
        assert dead == frozenset({"d"})
        assert stats["systems"] >= 1
        # Ground truth: no reachable marking enables d.
        for marking in ReachabilityGraph(net).states:
            assert not (marking["p0"] and marking["p1"])

    def test_alphabet_only_action_is_dead(self):
        net = cycle()
        net.actions.add("phantom")
        dead, _ = dead_actions(net)
        assert "phantom" in dead

    def test_live_actions_not_reported(self):
        dead, _ = dead_actions(cycle())
        assert "a" not in dead and "b" not in dead

    def test_initial_actions_exact(self):
        assert initial_actions(cycle()) == frozenset({"a"})


class TestLanguagePrecheck:
    def test_separating_one_letter_word(self):
        left = cycle()  # 'a' fires immediately
        right = PetriNet("silent")
        right.add_transition({"q"}, "c", {"q"})
        right.set_initial(Marking({}))  # c can never fire
        verdict = language_precheck(left, right, mode="equal")
        assert verdict.conclusive and not verdict.holds
        assert verdict.witness == ("a",)

    def test_both_languages_epsilon(self):
        left = PetriNet("idle1")
        left.add_transition({"p"}, "a", {"p"})
        left.set_initial(Marking({}))
        right = PetriNet("idle2")
        right.add_transition({"q"}, "b", {"q"})
        right.set_initial(Marking({}))
        verdict = language_precheck(left, right, mode="equal")
        assert verdict.conclusive and verdict.holds

    def test_containment_of_empty_left(self):
        left = PetriNet("idle")
        left.add_transition({"p"}, "a", {"p"})
        left.set_initial(Marking({}))
        verdict = language_precheck(left, cycle(), mode="contained")
        assert verdict.conclusive and verdict.holds

    def test_equal_nets_are_inconclusive(self):
        verdict = language_precheck(cycle(), cycle(), mode="equal")
        assert not verdict.conclusive

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            language_precheck(cycle(), cycle(), mode="superset")


class TestSymbolicReceptiveness:
    def test_handshake_bank_is_conclusively_safe(self):
        from repro.models.library import four_phase_master, four_phase_slave
        from repro.verify.receptiveness import compose_with_obligations

        composite, obligations = compose_with_obligations(
            four_phase_master(), four_phase_slave()
        )
        outcome = symbolic_receptiveness(composite.net, obligations)
        assert outcome.conclusive
        assert len(outcome.safe) == len(obligations)
        assert not outcome.failed and not outcome.undecided
        assert outcome.stats["systems"] >= 1

    def test_oversized_components_fall_back_to_search(self, monkeypatch):
        """Obligations whose component exceeds the system size limits
        are undecided (no row is built) and the on-the-fly search
        answers them, exactly as the onthefly engine would."""
        from repro.models.library import four_phase_master, four_phase_slave
        from repro.petri import symbolic
        from repro.verify.receptiveness import check_receptiveness

        monkeypatch.setattr(symbolic, "MAX_SYSTEM_VARIABLES", 1)
        reports = {
            engine: check_receptiveness(
                four_phase_master(),
                four_phase_slave(),
                method="reachability",
                engine=engine,
            )
            for engine in ("symbolic", "onthefly")
        }
        symbolic_report, onthefly = reports["symbolic"], reports["onthefly"]
        assert symbolic_report.symbolic["undecided"] == len(
            onthefly.obligations
        )
        assert symbolic_report.symbolic["systems"] == 0
        assert symbolic_report.method == onthefly.method == "reachability"
        assert symbolic_report.is_receptive() == onthefly.is_receptive()
        assert symbolic_report.failures == onthefly.failures
        assert symbolic_report.states_explored == onthefly.states_explored

    def test_counters_emitted(self):
        from repro.models.library import four_phase_master, four_phase_slave
        from repro.verify.receptiveness import compose_with_obligations

        composite, obligations = compose_with_obligations(
            four_phase_master(), four_phase_slave()
        )
        with obs.record() as recorder:
            symbolic_receptiveness(composite.net, obligations)
        payload = recorder.to_dict()
        counters = payload["counters"]
        assert counters["engine.symbolic.systems"] >= 1
        assert counters["engine.symbolic.conclusive"] == len(obligations)
        assert counters.get("engine.symbolic.inconclusive", 0) == 0


class TestAnalyze:
    def test_bounded_net_payload(self):
        with obs.record() as recorder:
            result = analyze(cycle())
        assert result["bounded"].conclusive
        assert result["dead_actions"] == frozenset()
        payload = recorder.to_dict()
        spans = [s for s in payload["spans"] if s["name"] == "engine.symbolic.analyze"]
        assert spans and spans[0]["meta"]["bounded_conclusive"] is True

    def test_unbounded_source_inconclusive(self):
        result = analyze(source_net())
        assert not result["bounded"].conclusive

