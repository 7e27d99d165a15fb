"""Tests for compositional synthesis (Section 5.2, Theorem 5.1)."""

import json
from pathlib import Path

import pytest

from repro.core.synthesis import (
    compositional_reduction,
    reduction_report,
    simplify_against_environment,
    verify_theorem_51,
)
from repro.models.library import four_phase_master, four_phase_slave
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.stg.stg import Stg
from repro.verify.language import language_contained, languages_equal


def choosy_master() -> Stg:
    """A master that can either do the full handshake or a short pulse
    on a second wire; the slave ignores the second wire."""
    net = PetriNet("choosy")
    net.add_transition({"m0"}, "r+", {"m1"})
    net.add_transition({"m1"}, "a+", {"m2"})
    net.add_transition({"m2"}, "r-", {"m3"})
    net.add_transition({"m3"}, "a-", {"m0"})
    net.add_transition({"m0"}, "led+", {"m4"})
    net.add_transition({"m4"}, "led-", {"m0"})
    net.set_initial(Marking({"m0": 1}))
    return Stg(net, inputs={"a"}, outputs={"r", "led"})


def lazy_slave() -> Stg:
    """A slave that only ever serves one request, then stops."""
    net = PetriNet("lazy")
    net.add_transition({"s0"}, "r+", {"s1"})
    net.add_transition({"s1"}, "a+", {"s2"})
    net.add_transition({"s2"}, "r-", {"s3"})
    net.add_transition({"s3"}, "a-", {"s4"})
    net.set_initial(Marking({"s0": 1}))
    return Stg(net, inputs={"r"}, outputs={"a"})


class TestSimplify:
    def test_interface_restored(self):
        reduced = simplify_against_environment(
            four_phase_slave(), four_phase_master()
        )
        assert reduced.inputs == {"r"}
        assert reduced.outputs == {"a"}

    def test_identity_environment_keeps_language(self):
        """A perfectly matching environment does not remove behaviour."""
        slave = four_phase_slave()
        reduced = simplify_against_environment(slave, four_phase_master())
        assert languages_equal(reduced.net, slave.net)

    def test_restrictive_environment_shrinks_behaviour(self):
        """A one-shot environment cuts the slave to a single handshake."""
        slave = four_phase_slave()
        reduced = simplify_against_environment(slave, lazy_slave_master())
        assert language_contained(reduced.net, slave.net)
        assert not language_contained(slave.net, reduced.net)

    def test_environment_private_signals_removed(self):
        reduced = simplify_against_environment(
            four_phase_slave(), choosy_master()
        )
        assert "led" not in reduced.signals()
        assert not [
            t
            for t in reduced.net.transitions.values()
            if t.action.startswith("led")
        ]

    def test_theorem_51_holds(self):
        assert verify_theorem_51(four_phase_slave(), four_phase_master())
        assert verify_theorem_51(four_phase_slave(), lazy_slave_master())
        assert verify_theorem_51(four_phase_slave(), choosy_master())

    def test_reduced_language_matches_projection(self):
        """The derived net's language IS the projection of the composed
        language onto the target alphabet (the defining equation)."""
        from repro.petri.net import EPSILON
        from repro.stg.stg import compose, signal_actions
        from repro.verify.language import dfa_equal, dfa_of_net

        target = four_phase_slave()
        environment = lazy_slave_master()
        reduced = simplify_against_environment(target, environment)
        composite = compose(environment, target)
        target_actions = signal_actions(
            composite.net.actions | reduced.net.actions, target.signals()
        )
        silent_composite = (composite.net.actions - target_actions) | {EPSILON}
        d_reduced = dfa_of_net(
            reduced.net, silent={EPSILON}, alphabet=target_actions
        )
        d_projected = dfa_of_net(
            composite.net, silent=silent_composite, alphabet=target_actions
        )
        assert dfa_equal(d_reduced, d_projected)


def lazy_slave_master() -> Stg:
    """A master that performs exactly one handshake, then halts."""
    net = PetriNet("one_shot_master")
    net.add_transition({"m0"}, "r+", {"m1"})
    net.add_transition({"m1"}, "a+", {"m2"})
    net.add_transition({"m2"}, "r-", {"m3"})
    net.add_transition({"m3"}, "a-", {"m4"})
    net.set_initial(Marking({"m0": 1}))
    return Stg(net, inputs={"a"}, outputs={"r"})


class TestCompositionalReduction:
    def test_pair_reduction(self):
        reduced_master, reduced_slave = compositional_reduction(
            four_phase_master(), four_phase_slave()
        )
        assert languages_equal(reduced_master.net, four_phase_master().net)
        assert languages_equal(reduced_slave.net, four_phase_slave().net)

    def test_report_fields(self):
        slave = four_phase_slave()
        reduced = simplify_against_environment(slave, lazy_slave_master())
        report = reduction_report(slave, reduced)
        assert report.original_states == 4
        assert report.reduced_states >= report.original_states  # halted tail adds states
        assert report.original_transitions == 4


#: The pinned answers of the benchmark's requests.
EXPECTED = Path(__file__).parents[2] / "perfbench" / "expected.json"


class TestBoundCertificateInheritance:
    """No Fig 9 derivation solves an LP: the first composite inherits
    the union of its operands' weightings, and every contracted and
    trimmed net after it inherits a weighting that passes the exact
    check."""

    @pytest.mark.parametrize(
        "key, derive",
        [
            ("simplify:translator<restricted", "simplified_translator"),
            ("simplify:receiver<fig9c-env", "simplified_receiver"),
        ],
    )
    def test_one_lp_solve_per_derivation(self, monkeypatch, key, derive):
        """Named for the one LP each derivation used to solve: none
        calls ``linprog`` now, and each still gives the pinned answer."""
        import scipy.optimize

        from repro.models import protocol_translator

        solves = []
        linprog = scipy.optimize.linprog

        def counted(*args, **kwargs):
            solves.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counted)
        net = getattr(protocol_translator, derive)().net
        assert solves == []
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
        assert {
            "places": len(net.places),
            "transitions": len(net.transitions),
            "labels": sorted({t.action for t in net.transitions.values()}),
        } == expected["case-study"][key]
