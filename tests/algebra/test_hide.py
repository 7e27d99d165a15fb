"""Tests for hiding as net contraction (Def 4.10, Prop 4.6, Thm 4.7, Fig 3)."""

import signal
from contextlib import contextmanager

import pytest

from repro.algebra.hide import (
    DivergenceError,
    hide,
    hide_to_epsilon,
    hide_transition,
)
from repro.algebra.operators import sequence_net
from repro.models.paper_figures import (
    FIG3_HIDDEN_LABEL,
    fig3_general,
    fig3_marked_graph,
    fig3_simple_chain,
)
from repro.models.protocol_translator import sender, translator
from repro.petri.marking import Marking
from repro.petri.net import EPSILON, PetriNet
from repro.petri.traces import bounded_language, hide_language
from repro.stg.stg import compose, hide_signals, signal_actions
from repro.verify.language import distinguishing_trace, languages_equal


def assert_theorem_47(net: PetriNet, label: str, fast_path: bool = True) -> None:
    """Exact form of Theorem 4.7: L(hide(N, a)) = hide(L(N), a),
    via DFA equivalence with `label` silent on the original net."""
    hidden = hide(net, label, fast_path=fast_path)
    original = net.copy()
    assert languages_equal(hidden, original, silent={label, EPSILON}), (
        f"hide({net.name}, {label}) disagrees with trace projection:"
        f" {distinguishing_trace(hidden, original, silent={label, EPSILON})}"
    )


class TestTheorem47:
    def test_fig3_general_net(self):
        assert_theorem_47(fig3_general(), FIG3_HIDDEN_LABEL)

    def test_fig3_general_net_no_fast_path(self):
        assert_theorem_47(fig3_general(), FIG3_HIDDEN_LABEL, fast_path=False)

    def test_fig3_marked_graph(self):
        assert_theorem_47(fig3_marked_graph(), FIG3_HIDDEN_LABEL)

    def test_fig3_simple_chain_fast_path(self):
        assert_theorem_47(fig3_simple_chain(), FIG3_HIDDEN_LABEL)

    def test_hide_every_label_of_general_net_one_at_a_time(self):
        net = fig3_general()
        for label in sorted(net.used_actions()):
            assert_theorem_47(net, label)

    def test_hide_label_with_multiple_transitions(self):
        net = PetriNet("multi")
        net.add_transition({"s0"}, "u", {"s1"})
        net.add_transition({"s1"}, "a", {"s2"})
        net.add_transition({"s2"}, "u", {"s3"})
        net.add_transition({"s3"}, "b", {"s0"})
        net.set_initial(Marking({"s0": 1}))
        assert_theorem_47(net, "u")

    def test_hide_in_conflict_with_visible_action(self):
        """Hidden transition competes with a visible one for the token."""
        net = PetriNet("conflict")
        net.add_transition({"s"}, "u", {"q"})
        net.add_transition({"s"}, "a", {"r"})
        net.add_transition({"q"}, "b", {"s"})
        net.set_initial(Marking({"s": 1}))
        assert_theorem_47(net, "u")

    def test_hide_concurrent_with_visible_action(self):
        net = PetriNet("concurrent")
        net.add_transition({"x"}, "u", {"x2"})
        net.add_transition({"y"}, "a", {"y2"})
        net.add_transition({"x2", "y2"}, "b", {"x", "y"})
        net.set_initial(Marking({"x": 1, "y": 1}))
        assert_theorem_47(net, "u")

    def test_hide_nonsafe_net(self):
        """The algebra is not restricted to safe nets: two tokens flow
        through the hidden transition."""
        net = PetriNet("two_tokens")
        net.add_transition({"p"}, "u", {"q"})
        net.add_transition({"q"}, "a", {"r"})
        net.set_initial(Marking({"p": 2}))
        assert_theorem_47(net, "u")

    def test_hide_branching_outputs(self):
        """Hidden transition's output places feed conflicting choices."""
        net = PetriNet("branching")
        net.add_transition({"p"}, "u", {"q1", "q2"})
        net.add_transition({"q1"}, "a", {"r1"})
        net.add_transition({"q1"}, "b", {"r2"})
        net.add_transition({"q2"}, "c", {"r3"})
        net.set_initial(Marking({"p": 1}))
        assert_theorem_47(net, "u")


class TestMechanics:
    def test_hidden_label_removed_from_alphabet(self):
        hidden = hide(fig3_general(), FIG3_HIDDEN_LABEL)
        assert FIG3_HIDDEN_LABEL not in hidden.actions

    def test_preset_places_removed(self):
        net = fig3_general()
        hidden = hide(net, FIG3_HIDDEN_LABEL)
        assert "p1" not in hidden.places
        assert "p2" not in hidden.places

    def test_successors_kept_and_duplicated(self):
        net = fig3_general()
        hidden = hide(net, FIG3_HIDDEN_LABEL, fast_path=False)
        # g consumed q1: kept (real q1 token) + duplicate (product places).
        assert len(hidden.transitions_with_action("g")) == 2

    def test_fast_path_collapses_places(self):
        net = fig3_simple_chain()
        hidden = hide(net, FIG3_HIDDEN_LABEL)
        # p and q merged: 3 places originally, minus one.
        assert len(hidden.places) == 2
        assert len(hidden.transitions) == 2

    def test_self_loop_rejected_as_divergence(self):
        net = PetriNet("diverging")
        net.add_transition({"p"}, "u", {"p", "q"})
        net.set_initial(Marking({"p": 1}))
        with pytest.raises(DivergenceError):
            hide(net, "u")

    def test_source_transition_rejected(self):
        net = PetriNet("source")
        t = net.add_transition(set(), "u", {"q"})
        with pytest.raises(ValueError):
            hide_transition(net, t.tid)

    def test_hide_action_without_transitions_only_trims_alphabet(self):
        net = sequence_net(["a"])
        net.actions.add("ghost")
        hidden = hide(net, "ghost")
        assert "ghost" not in hidden.actions
        assert languages_equal(hidden, net)

    def test_proposition_46_order_independence(self):
        """Hiding all 'u' transitions yields the same language regardless
        of contraction order (we check language, the semantic content)."""
        net = PetriNet("two_hidden")
        net.add_transition({"s0"}, "u", {"a1"}, tid=0)
        net.add_transition({"s0"}, "u", {"b1"}, tid=1)
        net.add_transition({"a1"}, "a", {"s0"}, tid=2)
        net.add_transition({"b1"}, "b", {"s0"}, tid=3)
        net.set_initial(Marking({"s0": 1}))
        first_order = hide_transition(net, 0, fast_path=False)
        first_order = hide(first_order, "u", fast_path=False)
        second_order = hide_transition(net, 1, fast_path=False)
        second_order = hide(second_order, "u", fast_path=False)
        assert languages_equal(first_order, second_order)
        assert_theorem_47(net, "u")

    def test_initial_tokens_copied_to_product_places(self):
        net = PetriNet("marked_preset")
        net.add_transition({"p"}, "u", {"q1", "q2"}, tid=0)
        net.add_transition({"q1"}, "a", {"r"}, tid=1)
        net.add_transition({"q2"}, "b", {"r2"}, tid=2)
        net.set_initial(Marking({"p": 1}))
        contracted = hide_transition(net, 0, fast_path=False)
        # One product row (p x {q1,q2}) with one token each.
        assert contracted.initial.total() == 2

    def test_guard_propagated_to_duplicate_successor(self):
        net = PetriNet("guarded")
        net.add_transition({"p"}, "u", {"q"}, tid=0)
        net.add_transition({"q"}, "a", {"r"}, tid=1)
        net.add_transition({"x"}, "k", {"q"}, tid=2)  # defeat the fast path
        net.add_transition({"p"}, "c", {"y"}, tid=3)
        net.set_initial(Marking({"p": 1, "x": 1}))
        net.set_guard("p", 0, "G")
        contracted = hide_transition(net, 0, fast_path=False)
        guards = set(contracted.input_guards.values())
        assert "G" in guards


class _TimeLimit(Exception):
    pass


@contextmanager
def time_limit(seconds: int):
    """Raise inside the body once it runs past ``seconds``, so a hang
    fails the test instead of stalling the suite."""

    def expire(signum, frame):
        raise _TimeLimit(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestCascadedHide:
    def test_signal_with_many_transitions_on_the_case_study(self):
        """Hiding ``n`` on S||T (Fig 5||7) contracts one transition after
        another; each contraction multiplies product places, so without
        the duplicate-place merge in between the hide does not finish.
        The merged result still satisfies Theorem 4.7."""
        composite = compose(sender(), translator())
        with time_limit(30):
            hidden = hide_signals(composite, {"n"})
        silent = signal_actions(composite.net.actions, {"n"}) | {EPSILON}
        assert languages_equal(hidden.net, composite.net, silent=silent)


class TestHidePrime:
    def test_relabels_to_epsilon(self):
        net = fig3_general()
        relabeled = hide_to_epsilon(net, FIG3_HIDDEN_LABEL)
        assert not relabeled.transitions_with_action(FIG3_HIDDEN_LABEL)
        assert relabeled.transitions_with_action(EPSILON)

    def test_visible_language_matches_contraction(self):
        net = fig3_general()
        assert languages_equal(
            hide_to_epsilon(net, FIG3_HIDDEN_LABEL),
            hide(net, FIG3_HIDDEN_LABEL),
        )

    def test_structure_is_preserved(self):
        net = fig3_general()
        relabeled = hide_to_epsilon(net, FIG3_HIDDEN_LABEL)
        assert relabeled.places == net.places
        assert len(relabeled.transitions) == len(net.transitions)
