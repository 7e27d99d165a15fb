"""Tests for net-class detection and the polynomial marked-graph checks."""

from repro.petri.classify import (
    classify,
    is_asymmetric_choice,
    is_extended_free_choice,
    is_free_choice,
    is_marked_graph,
    is_state_machine,
    marked_graph_is_live,
    marked_graph_is_live_safe,
)
from repro.petri.analysis import is_live, is_live_safe
from repro.petri.marking import Marking
from repro.petri.net import PetriNet


def marked_graph_cycle(tokens: int = 1) -> PetriNet:
    net = PetriNet("mg")
    net.add_transition({"p0"}, "a", {"p1"})
    net.add_transition({"p1"}, "b", {"p0"})
    net.set_initial(Marking({"p0": tokens}))
    return net


def state_machine_choice() -> PetriNet:
    net = PetriNet("sm")
    net.add_transition({"s"}, "a", {"x"})
    net.add_transition({"s"}, "b", {"y"})
    net.add_transition({"x"}, "c", {"s"})
    net.add_transition({"y"}, "d", {"s"})
    net.set_initial(Marking({"s": 1}))
    return net


def non_free_choice() -> PetriNet:
    """Classic arbiter-style confusion: shared place with unequal presets."""
    net = PetriNet("arbiter")
    net.add_transition({"mutex", "r1"}, "g1", {"c1"})
    net.add_transition({"mutex", "r2"}, "g2", {"c2"})
    net.add_transition({"c1"}, "d1", {"mutex", "r1"})
    net.add_transition({"c2"}, "d2", {"mutex", "r2"})
    net.set_initial(Marking({"mutex": 1, "r1": 1, "r2": 1}))
    return net


class TestClasses:
    def test_marked_graph_flags(self):
        flags = classify(marked_graph_cycle())
        assert flags.marked_graph
        assert flags.state_machine  # single pre/post everywhere too
        assert flags.free_choice

    def test_state_machine_with_choice_not_marked_graph(self):
        net = state_machine_choice()
        assert is_state_machine(net)
        assert not is_marked_graph(net)
        assert is_free_choice(net)

    def test_fork_join_is_marked_graph_not_state_machine(self):
        net = PetriNet()
        net.add_transition({"s"}, "fork", {"l", "r"})
        net.add_transition({"l", "r"}, "join", {"s"})
        net.set_initial(Marking({"s": 1}))
        assert is_marked_graph(net)
        assert not is_state_machine(net)

    def test_non_free_choice_detected(self):
        net = non_free_choice()
        assert not is_free_choice(net)
        assert not is_extended_free_choice(net)
        assert not is_asymmetric_choice(net)
        assert classify(net).most_specific() == "general"

    def test_extended_free_choice(self):
        net = PetriNet()
        net.add_transition({"s1", "s2"}, "a", {"x"})
        net.add_transition({"s1", "s2"}, "b", {"y"})
        net.set_initial(Marking({"s1": 1, "s2": 1}))
        assert not is_free_choice(net)
        assert is_extended_free_choice(net)

    def test_asymmetric_choice(self):
        net = PetriNet()
        net.add_transition({"s1"}, "a", {"x"})
        net.add_transition({"s1", "s2"}, "b", {"y"})
        assert not is_extended_free_choice(net)
        assert is_asymmetric_choice(net)

    def test_most_specific_names(self):
        assert classify(marked_graph_cycle()).most_specific() == (
            "state machine + marked graph"
        )
        assert classify(state_machine_choice()).most_specific() == "state machine"


class TestMarkedGraphChecks:
    def test_live_iff_token_on_cycle(self):
        assert marked_graph_is_live(marked_graph_cycle())
        empty = marked_graph_cycle(tokens=0)
        empty.set_initial(Marking({}))
        assert not marked_graph_is_live(empty)

    def test_polynomial_live_matches_reachability(self):
        net = marked_graph_cycle()
        assert marked_graph_is_live(net) == is_live(net)

    def test_live_safe_single_token(self):
        assert marked_graph_is_live_safe(marked_graph_cycle(tokens=1))

    def test_two_tokens_not_safe(self):
        assert not marked_graph_is_live_safe(marked_graph_cycle(tokens=2))

    def test_polynomial_live_safe_matches_reachability(self):
        """Cross-validate the structural check on a fork/join pipeline."""
        net = PetriNet()
        net.add_transition({"s"}, "fork", {"l", "r"})
        net.add_transition({"l"}, "x", {"l2"})
        net.add_transition({"r"}, "y", {"r2"})
        net.add_transition({"l2", "r2"}, "join", {"s"})
        net.set_initial(Marking({"s": 1}))
        assert marked_graph_is_live_safe(net) == is_live_safe(net)

    def test_unmarked_subcycle_kills_liveness(self):
        net = PetriNet()
        # Outer marked cycle plus an inner unmarked cycle sharing nothing.
        net.add_transition({"p0"}, "a", {"p1"})
        net.add_transition({"p1"}, "b", {"p0"})
        net.add_transition({"q0"}, "c", {"q1"})
        net.add_transition({"q1"}, "d", {"q0"})
        net.set_initial(Marking({"p0": 1}))
        assert not marked_graph_is_live(net)
