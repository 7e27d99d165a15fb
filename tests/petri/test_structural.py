"""Tests for structural theory: invariants, siphons, traps, boundedness."""

import pytest

from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import ReachabilityGraph
from repro.petri.structural import (
    SemiflowBudgetError,
    fraction_rank,
    incidence_matrix,
    invariant_value,
    is_covered_by_p_invariants,
    is_siphon,
    is_structurally_bounded,
    is_trap,
    minimal_siphons,
    minimal_traps,
    p_invariants,
    p_invariants_partial,
    siphon_trap_property,
    t_invariants,
    t_invariants_partial,
)


def cycle() -> PetriNet:
    net = PetriNet("cycle")
    net.add_transition({"p0"}, "a", {"p1"})
    net.add_transition({"p1"}, "b", {"p0"})
    net.set_initial(Marking({"p0": 1}))
    return net


def fork_join() -> PetriNet:
    net = PetriNet("fork_join")
    net.add_transition({"s"}, "fork", {"l", "r"})
    net.add_transition({"l", "r"}, "join", {"s"})
    net.set_initial(Marking({"s": 1}))
    return net


class TestIncidence:
    def test_cycle_matrix(self):
        places, tids, matrix = incidence_matrix(cycle())
        assert places == ["p0", "p1"]
        assert tids == [0, 1]
        assert matrix == [[-1, 1], [1, -1]]

    def test_self_loop_contributes_zero(self):
        net = PetriNet()
        net.add_transition({"p", "loop"}, "a", {"q", "loop"})
        places, _, matrix = incidence_matrix(net)
        assert matrix[places.index("loop")] == [0]

    def test_state_equation_consistency(self):
        """M' = M0 + C.count holds along any firing sequence."""
        net = fork_join()
        places, tids, matrix = incidence_matrix(net)
        graph = ReachabilityGraph(net)
        # fire fork once from initial marking.
        t = net.transitions[0]
        after = net.fire(t, net.initial)
        count = [int(tid == 0) for tid in tids]
        predicted = [
            net.initial[p] + sum(c * n for c, n in zip(row, count))
            for p, row in zip(places, matrix)
        ]
        assert predicted == [after[p] for p in places]


class TestInvariants:
    def test_cycle_p_invariant(self):
        invariants = p_invariants(cycle())
        assert invariants == [{"p0": 1, "p1": 1}]

    def test_fork_join_minimal_invariants(self):
        """s+l and s+r are each conserved (their sum 2s+l+r is a valid
        but non-minimal invariant and must not be reported)."""
        invariants = p_invariants(fork_join())
        assert {"s": 1, "l": 1} in invariants
        assert {"s": 1, "r": 1} in invariants
        assert {"s": 2, "l": 1, "r": 1} not in invariants

    def test_invariant_value_constant_over_reachable_states(self):
        net = fork_join()
        invariants = p_invariants(net)
        graph = ReachabilityGraph(net)
        for invariant in invariants:
            values = {invariant_value(invariant, m) for m in graph.states}
            assert len(values) == 1

    def test_cycle_t_invariant(self):
        invariants = t_invariants(cycle())
        assert invariants == [{0: 1, 1: 1}]

    def test_acyclic_net_has_no_t_invariant(self):
        net = PetriNet()
        net.add_transition({"p"}, "a", {"q"})
        assert t_invariants(net) == []

    def test_coverage_by_p_invariants(self):
        assert is_covered_by_p_invariants(cycle())
        producer = PetriNet()
        producer.add_transition({"p"}, "a", {"p", "q"})
        assert not is_covered_by_p_invariants(producer)


class TestSemiflowBudget:
    """The enumeration budget must never be a *silent* truncation: a
    truncated invariant basis loses completeness (coverage claims,
    symbolic constraint strength) even though each surviving row stays
    a valid semiflow, so the caller has to be told."""

    def test_exceeding_the_budget_raises_by_default(self):
        with pytest.raises(SemiflowBudgetError) as info:
            p_invariants(fork_join(), max_vectors=1)
        assert info.value.vectors > info.value.max_vectors == 1
        assert "max_vectors=1" in str(info.value)
        assert "_partial" in str(info.value)

    def test_partial_api_reports_truncation(self):
        invariants, truncated = p_invariants_partial(
            fork_join(), max_vectors=1
        )
        assert truncated
        # Truncation costs completeness, never validity: every
        # surviving vector is still a genuine P-semiflow.
        places, _, matrix = incidence_matrix(fork_join())
        for invariant in invariants:
            weights = [invariant.get(p, 0) for p in places]
            for column in zip(*matrix):
                assert sum(w * c for w, c in zip(weights, column)) == 0

    def test_partial_api_raise_mode(self):
        with pytest.raises(SemiflowBudgetError):
            p_invariants_partial(fork_join(), max_vectors=1, on_budget="raise")

    def test_within_budget_is_not_truncated(self):
        invariants, truncated = p_invariants_partial(fork_join())
        assert not truncated
        assert len(invariants) == 2
        t_inv, t_truncated = t_invariants_partial(cycle())
        assert not t_truncated
        assert t_inv == [{0: 1, 1: 1}]

    def test_t_invariants_budget_raises_too(self):
        net = PetriNet("two_cycles")
        net.add_transition({"p0"}, "a", {"p1"})
        net.add_transition({"p1"}, "b", {"p0"})
        net.add_transition({"p0"}, "c", {"p1"})
        with pytest.raises(SemiflowBudgetError):
            t_invariants(net, max_vectors=1)

    def test_invalid_on_budget_value_rejected(self):
        with pytest.raises(ValueError):
            p_invariants_partial(fork_join(), on_budget="ignore")


class TestStructuralBoundedness:
    def test_conservative_net_structurally_bounded(self):
        assert is_structurally_bounded(cycle())
        assert is_structurally_bounded(fork_join())

    def test_producer_not_structurally_bounded(self):
        net = PetriNet()
        net.add_transition({"p"}, "a", {"p", "q"})
        assert not is_structurally_bounded(net)


class TestRank:
    def test_fraction_rank(self):
        assert fraction_rank([[1, 2], [2, 4]]) == 1
        assert fraction_rank([[1, 0], [0, 1]]) == 2


class TestSiphonsTraps:
    def test_cycle_place_set_is_siphon_and_trap(self):
        net = cycle()
        both = frozenset({"p0", "p1"})
        assert is_siphon(net, both)
        assert is_trap(net, both)

    def test_empty_set_is_neither(self):
        assert not is_siphon(cycle(), frozenset())
        assert not is_trap(cycle(), frozenset())

    def test_sink_place_is_trap_not_siphon(self):
        net = PetriNet()
        net.add_transition({"p"}, "a", {"q"})
        net.set_initial(Marking({"p": 1}))
        assert is_trap(net, frozenset({"q"}))
        assert not is_siphon(net, frozenset({"q"}))
        assert is_siphon(net, frozenset({"p"}))

    def test_minimal_siphons_of_cycle(self):
        assert minimal_siphons(cycle()) == [frozenset({"p0", "p1"})]

    def test_minimal_traps_of_cycle(self):
        assert minimal_traps(cycle()) == [frozenset({"p0", "p1"})]

    def test_commoner_condition_on_live_free_choice_net(self):
        assert siphon_trap_property(cycle())

    def test_commoner_condition_fails_on_token_free_cycle(self):
        net = cycle()
        net.set_initial(Marking({}))
        assert not siphon_trap_property(net)
