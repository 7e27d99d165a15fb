"""Tests for mirror-based conformance and structural isomorphism."""

import pytest

from repro.models.library import four_phase_master, four_phase_slave
from repro.petri.marking import Marking
from repro.petri.net import EPSILON, PetriNet
from repro.stg.guards import parse_guard
from repro.stg.stg import Stg, mirror
from repro.verify.conformance import check_conformance, conforms
from repro.verify.isomorphism import isomorphic, place_bijection


def guarded_cycle(guard: str | None, prefix: str = "") -> PetriNet:
    """A two-transition cycle with ``guard`` on the arc ``p -> t0``."""
    net = PetriNet()
    first = net.add_transition({f"{prefix}p"}, "a", {f"{prefix}q"})
    net.add_transition({f"{prefix}q"}, "b", {f"{prefix}p"})
    net.set_initial(Marking({f"{prefix}p": 1}))
    if guard is not None:
        net.set_guard(f"{prefix}p", first.tid, parse_guard(guard))
    return net


def slow_slave() -> Stg:
    """A conforming implementation: same protocol, one internal epsilon
    delay before acknowledging."""
    net = PetriNet("slow_slave")
    net.add_transition({"s0"}, "r+", {"s1"})
    net.add_transition({"s1"}, EPSILON, {"s1b"})
    net.add_transition({"s1b"}, "a+", {"s2"})
    net.add_transition({"s2"}, "r-", {"s3"})
    net.add_transition({"s3"}, "a-", {"s0"})
    net.set_initial(Marking({"s0": 1}))
    return Stg(net, inputs={"r"}, outputs={"a"})


def chatty_slave() -> Stg:
    """A non-conforming implementation: acknowledges before the request
    (an output the spec forbids)."""
    net = PetriNet("chatty")
    net.add_transition({"s0"}, "a+", {"s1"})
    net.add_transition({"s1"}, "r+", {"s2"})
    net.add_transition({"s2"}, "a-", {"s3"})
    net.add_transition({"s3"}, "r-", {"s0"})
    net.set_initial(Marking({"s0": 1}))
    return Stg(net, inputs={"r"}, outputs={"a"})


def deaf_slave() -> Stg:
    """Accepts only one request ever: not receptive to the second."""
    net = PetriNet("deaf")
    net.add_transition({"s0"}, "r+", {"s1"})
    net.add_transition({"s1"}, "a+", {"s2"})
    net.add_transition({"s2"}, "r-", {"s3"})
    net.add_transition({"s3"}, "a-", {"s4"})
    net.set_initial(Marking({"s0": 1}))
    return Stg(net, inputs={"r"}, outputs={"a"})


class TestMirror:
    def test_mirror_swaps_io(self):
        spec = four_phase_slave()
        env = mirror(spec)
        assert env.inputs == spec.outputs
        assert env.outputs == spec.inputs

    def test_mirror_of_mirror_is_original_interface(self):
        spec = four_phase_slave()
        assert mirror(mirror(spec)).inputs == spec.inputs

    def test_mirror_rejects_internals(self):
        spec = four_phase_slave()
        spec.internals.add("x")
        with pytest.raises(ValueError):
            mirror(spec)

    def test_mirror_of_slave_is_master_shaped(self):
        """The slave's mirror behaves like the master (same protocol,
        roles swapped)."""
        from repro.verify.language import languages_equal

        assert languages_equal(
            mirror(four_phase_slave()).net, four_phase_master().net
        )


class TestConformance:
    def test_spec_conforms_to_itself(self):
        assert conforms(four_phase_slave(), four_phase_slave())

    def test_slower_implementation_conforms(self):
        report = check_conformance(slow_slave(), four_phase_slave())
        assert report.conforms(), str(report)

    def test_extra_output_rejected(self):
        report = check_conformance(chatty_slave(), four_phase_slave())
        assert not report.trace_contained
        assert not report.conforms()
        assert "forbids" in str(report)

    def test_non_receptive_implementation_rejected(self):
        report = check_conformance(deaf_slave(), four_phase_slave())
        assert not report.receptiveness.is_receptive()
        assert not report.conforms()

    def test_interface_mismatch_reported(self):
        other = four_phase_slave()
        other.outputs.add("extra")
        report = check_conformance(other, four_phase_slave())
        assert not report.interface_ok
        assert "output mismatch" in str(report)


class TestIsomorphism:
    def test_renamed_net_isomorphic(self):
        net = four_phase_slave().net
        renamed = net.renamed_places({p: f"x_{p}" for p in net.places})
        assert isomorphic(net, renamed)
        bijection = place_bijection(net, renamed)
        assert bijection == {p: f"x_{p}" for p in net.places}

    def test_different_labels_not_isomorphic(self):
        from repro.algebra.operators import sequence_net

        assert not isomorphic(
            sequence_net(["a", "b"]).copy(), sequence_net(["a", "c"])
        )

    def test_different_marking_not_isomorphic(self):
        from repro.algebra.operators import sequence_net

        first = sequence_net(["a", "b"], cyclic=True)
        second = sequence_net(["a", "b"], cyclic=True)
        second.set_initial(Marking({"p1": 1}))
        # Same shape, token elsewhere: still isomorphic (rotation maps
        # p1 to p0 while relabeling transitions... but labels differ:
        # a/b sequence from p1 means b fires first). Structure: place
        # with token must map to place with token AND labels must
        # match; the rotated net is NOT label-isomorphic.
        assert not isomorphic(first, second)

    def test_structure_difference_detected(self):
        left = PetriNet()
        left.add_transition({"p", "q"}, "a", {"r"})
        right = PetriNet()
        right.add_transition({"p"}, "a", {"q", "r"})
        assert not isomorphic(left, right)

    def test_isomorphic_compares_arc_guards(self):
        assert not isomorphic(guarded_cycle("y"), guarded_cycle("!y"))
        assert not isomorphic(guarded_cycle("y"), guarded_cycle(None))
        assert isomorphic(guarded_cycle("y"), guarded_cycle("y", "x_"))

    def test_place_bijection_compares_arc_guards(self):
        assert place_bijection(guarded_cycle("y"), guarded_cycle("!y")) is None
        assert place_bijection(guarded_cycle(None), guarded_cycle("y")) is None
        assert place_bijection(guarded_cycle("y"), guarded_cycle("y", "x_")) == {
            "p": "x_p",
            "q": "x_q",
        }

    def test_derived_vs_reference(self):
        """The fast-path contraction of the simple chain is isomorphic
        to the hand-built 2-place loop."""
        from repro.algebra.hide import hide
        from repro.models.paper_figures import (
            FIG3_HIDDEN_LABEL,
            fig3_simple_chain,
        )

        derived = hide(fig3_simple_chain(), FIG3_HIDDEN_LABEL)
        reference = PetriNet()
        reference.add_transition({"x"}, "a", {"y"})
        reference.add_transition({"y"}, "b", {"x"})
        reference.set_initial(Marking({"x": 1}))
        assert isomorphic(derived, reference)
