"""Tests for the Stg wrapper: validation, composition, hiding, renaming."""

import pytest

from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.stg.guards import lit
from repro.stg.stg import (
    Stg,
    compose,
    hide_signals,
    hide_signals_to_epsilon,
    rename_signal,
    signal_actions,
)
from repro.verify.language import languages_equal


def handshake_requester(name: str = "req_side") -> Stg:
    """4-phase master: r+ a+ r- a- cyclically; r output, a input."""
    net = PetriNet(name)
    net.add_transition({"p0"}, "r+", {"p1"})
    net.add_transition({"p1"}, "a+", {"p2"})
    net.add_transition({"p2"}, "r-", {"p3"})
    net.add_transition({"p3"}, "a-", {"p0"})
    net.set_initial(Marking({"p0": 1}))
    return Stg(net, inputs={"a"}, outputs={"r"})


def handshake_responder(name: str = "ack_side") -> Stg:
    """4-phase slave: sees r as input, drives a."""
    net = PetriNet(name)
    net.add_transition({"q0"}, "r+", {"q1"})
    net.add_transition({"q1"}, "a+", {"q2"})
    net.add_transition({"q2"}, "r-", {"q3"})
    net.add_transition({"q3"}, "a-", {"q0"})
    net.set_initial(Marking({"q0": 1}))
    return Stg(net, inputs={"r"}, outputs={"a"})


class TestBasics:
    def test_signals_union(self):
        stg = handshake_requester()
        assert stg.signals() == {"r", "a"}

    def test_used_signals(self):
        stg = handshake_requester()
        stg.inputs.add("unused")
        assert stg.used_signals() == {"r", "a"}

    def test_input_output_action_classification(self):
        stg = handshake_requester()
        assert stg.is_output_action("r+")
        assert stg.is_input_action("a-")
        assert not stg.is_input_action("r+")

    def test_signal_transitions(self):
        stg = handshake_requester()
        assert [t.action for t in stg.signal_transitions("r")] == ["r+", "r-"]

    def test_default_initial_values_zero(self):
        assert handshake_requester().level("r") == 0

    def test_add_with_guard(self):
        stg = handshake_requester()
        t = stg.add({"p0"}, "x+", {"p1"}, guard=lit("a"))
        stg.outputs.add("x")
        assert stg.net.guard_of("p0", t.tid) == lit("a")

    def test_classical_report(self):
        report = handshake_requester().classical_report()
        assert report == {
            "strongly_connected": True,
            "live": True,
            "safe": True,
            "classical_labels": True,
        }
        assert handshake_requester().is_classical()

    def test_toggle_label_not_classical(self):
        stg = handshake_requester()
        stg.add({"p0"}, "r~", {"p1"})
        assert not stg.classical_report()["classical_labels"]


class TestValidation:
    def test_valid_stg_passes(self):
        handshake_requester().validate()

    def test_overlapping_io_rejected(self):
        stg = handshake_requester()
        stg.inputs.add("r")
        with pytest.raises(ValueError):
            stg.validate()

    def test_undeclared_signal_rejected(self):
        stg = handshake_requester()
        stg.add({"p0"}, "ghost+", {"p1"})
        with pytest.raises(ValueError):
            stg.validate()

    def test_guard_on_undeclared_signal_rejected(self):
        stg = handshake_requester()
        stg.add({"p0"}, "r+", {"p1"}, guard=lit("ghost"))
        with pytest.raises(ValueError):
            stg.validate()


class TestCompose:
    def test_io_resolution(self):
        composite = compose(handshake_requester(), handshake_responder())
        assert composite.outputs == {"r", "a"}
        assert composite.inputs == set()

    def test_common_outputs_rejected(self):
        with pytest.raises(ValueError):
            compose(handshake_requester(), handshake_requester("other"))

    def test_initial_value_mismatch_rejected(self):
        left = handshake_requester()
        right = handshake_responder()
        right.initial_values["r"] = 1
        with pytest.raises(ValueError):
            compose(left, right)

    def test_composition_synchronizes_handshake(self):
        composite = compose(handshake_requester(), handshake_responder())
        from repro.petri.traces import bounded_language

        language = bounded_language(composite.net, 4)
        assert ("r+", "a+", "r-", "a-") in language
        assert ("a+",) not in language

    def test_unmatched_common_signal_event_impossible(self):
        """The responder lacks r- handling: that event becomes impossible
        in the composition (rendez-vous has no partner)."""
        left = handshake_requester()
        right = handshake_responder()
        stripped = PetriNet("partial")
        stripped.add_transition({"q0"}, "r+", {"q1"})
        stripped.add_transition({"q1"}, "a+", {"q0"})
        stripped.set_initial(Marking({"q0": 1}))
        right = Stg(stripped, inputs={"r"}, outputs={"a"})
        composite = compose(left, right)
        assert not composite.net.transitions_with_action("r-")

    def test_signal_actions_helper(self):
        actions = {"r+", "r-", "a+", "eps"}
        assert signal_actions(actions, {"r"}) == {"r+", "r-"}


class TestHideRename:
    def test_hide_output_signal(self):
        composite = compose(handshake_requester(), handshake_responder())
        hidden = hide_signals(composite, {"a"})
        assert hidden.signals() == {"r"}
        assert not signal_actions(hidden.net.actions, {"a"})
        # Visible behaviour unchanged: r+ r- cycle.
        reference = PetriNet("ref")
        reference.add_transition({"x0"}, "r+", {"x1"})
        reference.add_transition({"x1"}, "r-", {"x0"})
        reference.set_initial(Marking({"x0": 1}))
        assert languages_equal(hidden.net, reference)

    def test_hiding_inputs_rejected(self):
        stg = handshake_requester()
        with pytest.raises(ValueError):
            hide_signals(stg, {"a"})

    def test_hide_to_epsilon_preserves_structure(self):
        composite = compose(handshake_requester(), handshake_responder())
        relabeled = hide_signals_to_epsilon(composite, {"a"})
        assert len(relabeled.net.transitions) == len(composite.net.transitions)
        assert "a" not in relabeled.signals()

    def test_rename_signal(self):
        stg = handshake_requester()
        renamed = rename_signal(stg, "r", "req")
        assert renamed.outputs == {"req"}
        assert [t.action for t in renamed.signal_transitions("req")] == [
            "req+",
            "req-",
        ]

    def test_rename_collision_rejected(self):
        with pytest.raises(ValueError):
            rename_signal(handshake_requester(), "r", "a")


SHARED_OUTPUTS = "['a0', 'a1', 'b0', 'b1']"


class TestInterfaceErrorsAtTheCli:
    """The rejections above end ``cip`` in one exit-2 line that names
    the offending signals, not in a traceback."""

    @pytest.mark.parametrize(
        "argv, signals",
        [
            (["hide", "fig5_sender.net", "-s", "rec"], "['rec']"),
            (["verify", "fig5_sender.net", "fig5_sender.json"], SHARED_OUTPUTS),
            (["compose", "fig5_sender.net", "fig5_sender.json"], SHARED_OUTPUTS),
            (["simplify", "fig5_sender.net", "fig5_sender.json"], SHARED_OUTPUTS),
        ],
        ids=["hide-input", "verify", "compose", "simplify"],
    )
    def test_one_error_line(self, argv, signals, corpus_dir, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "out.g"
        command, *rest = argv
        argv = [command] + [
            str(corpus_dir / arg) if arg.startswith("fig5") else arg
            for arg in rest
        ]
        if command != "verify":
            argv += ["-o", str(output)]
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("cip: error: ")
        assert captured.err.count("\n") == 1
        assert signals in captured.err
        assert not output.exists()
