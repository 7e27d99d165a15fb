"""The place-bijection matcher against networkx's VF2 as the oracle.

Nets are random, with guards on some input arcs.  Each is compared with
a copy whose places are renamed and whose transitions are renumbered and
re-inserted in another order, and with single mutants of that copy: one
arc toggled, one label changed, one token count changed, or one guard
changed.  VF2 sees the bipartite place/transition graph with tokens and
labels on the nodes and the guard text on the input arcs.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st
from networkx import DiGraph
from networkx.algorithms.isomorphism import DiGraphMatcher

from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.stg.guards import parse_guard
from repro.verify.isomorphism import isomorphic, place_bijection

from tests.strategies import ACTIONS, PLACES, petri_nets

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

GUARDS = [None, None, None, "y", "!y", "x & y"]


def _vf2(net1: PetriNet, net2: PetriNet) -> bool:
    def graph(net):
        result = DiGraph()
        for place in net.places:
            result.add_node(("p", place), colour=("p", net.initial[place]))
        for tid, transition in net.transitions.items():
            result.add_node(("t", tid), colour=("t", transition.action))
            for place in transition.preset:
                guard = net.guard_of(place, tid)
                text = None if guard is None else str(guard)
                result.add_edge(("p", place), ("t", tid), guard=text)
            for place in transition.postset:
                result.add_edge(("t", tid), ("p", place), guard=None)
        return result

    return DiGraphMatcher(
        graph(net1),
        graph(net2),
        node_match=lambda a, b: a["colour"] == b["colour"],
        edge_match=lambda a, b: a["guard"] == b["guard"],
    ).is_isomorphic()


def _transitions(net: PetriNet, rename=lambda place: place) -> Counter:
    """The transition multiset, places renamed, guards as text."""
    return Counter(
        (
            frozenset(map(rename, t.preset)),
            t.action,
            frozenset(map(rename, t.postset)),
            frozenset(
                (rename(p), str(net.guard_of(p, t.tid)))
                for p in t.preset
                if net.guard_of(p, t.tid) is not None
            ),
        )
        for t in net.transitions.values()
    )


def _witnesses(bijection: dict[str, str], net1: PetriNet, net2: PetriNet):
    """``bijection`` maps ``net1`` onto ``net2`` exactly."""
    return (
        sorted(bijection) == sorted(net1.places)
        and sorted(bijection.values()) == sorted(net2.places)
        and all(net1.initial[p] == net2.initial[bijection[p]] for p in net1.places)
        and _transitions(net1, bijection.__getitem__) == _transitions(net2)
    )


def _rebuild(net: PetriNet, transitions, initial, guards, rename, tids):
    """``net``'s places renamed; its transitions, initial marking and
    guards replaced by the given, possibly mutated, ones."""
    copy = PetriNet(net.name)
    for place in sorted(net.places):
        copy.add_place(rename[place])
    for tid, (preset, action, postset) in zip(tids, transitions):
        copy.add_transition(
            {rename[p] for p in preset},
            action,
            {rename[p] for p in postset},
            tid=tid,
        )
    copy.set_initial(Marking({rename[p]: n for p, n in initial.items() if n}))
    for (place, index), text in guards.items():
        if place in transitions[index][0]:
            copy.set_guard(rename[place], tids[index], parse_guard(text))
    return copy


@st.composite
def guarded_nets(draw) -> PetriNet:
    net = draw(petri_nets(max_places=5, max_transitions=6, max_tokens=3))
    for place in draw(st.sets(st.sampled_from(PLACES))):
        net.add_place(place)  # isolated places, sometimes
    for tid, transition in sorted(net.transitions.items()):
        for place in sorted(transition.preset):
            text = draw(st.sampled_from(GUARDS))
            if text is not None:
                net.set_guard(place, tid, parse_guard(text))
    return net


@st.composite
def pairs(draw, mutate: bool):
    """A guarded net and a shuffled copy, mutated once if ``mutate``."""
    net = draw(guarded_nets())
    places = sorted(net.places)
    names = draw(st.permutations([f"q{i}" for i in range(len(places))]))
    rename = dict(zip(places, names))
    order = draw(st.permutations(sorted(net.transitions)))
    transitions = [
        [set(t.preset), t.action, set(t.postset)]
        for t in map(net.transitions.get, order)
    ]
    guards = {
        (place, order.index(tid)): str(guard)
        for (place, tid), guard in net.input_guards.items()
    }
    initial = dict(net.initial)
    if mutate:
        index = draw(st.integers(0, len(transitions) - 1))
        place = draw(st.sampled_from(places))
        kind = draw(st.sampled_from(["arc", "label", "token", "guard"]))
        if kind == "arc":
            side = transitions[index][draw(st.sampled_from([0, 2]))]
            side.symmetric_difference_update({place})
        elif kind == "label":
            transitions[index][1] = draw(st.sampled_from(ACTIONS + ["z"]))
        elif kind == "token":
            step = draw(st.sampled_from([-1, 1]))
            initial[place] = max(0, initial.get(place, 0) + step)
        else:
            guards[(place, index)] = draw(st.sampled_from(["y", "!y", "x | y"]))
    tids = sorted(
        draw(st.sets(st.integers(0, 50), min_size=len(order), max_size=len(order)))
    )
    return net, _rebuild(net, transitions, initial, guards, rename, tids)


@PROPERTY
@given(pair=pairs(mutate=False))
def test_shuffled_copy_is_isomorphic(pair):
    net, copy = pair
    assert _vf2(net, copy)
    bijection = place_bijection(net, copy)
    assert bijection is not None and _witnesses(bijection, net, copy)
    assert isomorphic(copy, net)


@PROPERTY
@given(pair=pairs(mutate=True))
def test_single_mutants_agree_with_vf2(pair):
    net, mutant = pair
    expected = _vf2(net, mutant)
    bijection = place_bijection(net, mutant)
    assert (bijection is not None) == expected
    assert isomorphic(mutant, net) == expected
    if bijection is not None:
        assert _witnesses(bijection, net, mutant)
