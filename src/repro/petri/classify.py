"""Net class detection and polynomial checks for restricted classes.

Section 5 of the paper leans on the classical net-class hierarchy:

* *state machines* (SM): every transition has exactly one input and one
  output place;
* *marked graphs* (MG): every place has exactly one producer and one
  consumer — closed under action prefix, renaming and parallel
  composition (Proposition 5.4) and admitting polynomial liveness /
  safeness checks used by Theorem 5.7;
* *free choice* (FC) and *extended free choice* (EFC): conflicts are
  'free' — if two transitions share an input place they share all of
  them;
* *asymmetric choice* (AC): shared input place sets are ordered by
  inclusion.

Arbiters require general nets (the paper's argument for defining the
algebra on general Petri nets).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.petri.net import PetriNet


@dataclass(frozen=True)
class NetClass:
    """Membership flags in the classical net-class hierarchy."""

    state_machine: bool
    marked_graph: bool
    free_choice: bool
    extended_free_choice: bool
    asymmetric_choice: bool

    def most_specific(self) -> str:
        """The most specific class name, for reporting."""
        if self.state_machine and self.marked_graph:
            return "state machine + marked graph"
        if self.state_machine:
            return "state machine"
        if self.marked_graph:
            return "marked graph"
        if self.free_choice:
            return "free choice"
        if self.extended_free_choice:
            return "extended free choice"
        if self.asymmetric_choice:
            return "asymmetric choice"
        return "general"


def is_state_machine(net: PetriNet) -> bool:
    """Every transition has exactly one input and one output place."""
    return all(
        len(t.preset) == 1 and len(t.postset) == 1 for t in net.transitions.values()
    )


def is_marked_graph(net: PetriNet) -> bool:
    """Every place has exactly one producer and one consumer transition."""
    return all(
        len(net.producers(place)) == 1 and len(net.consumers(place)) == 1
        for place in net.places
    )


def is_free_choice(net: PetriNet) -> bool:
    """If a place has several consumers, it is each consumer's sole input.

    Equivalent classical formulation: for any two transitions sharing an
    input place, both have exactly that one input place.
    """
    for place in net.places:
        consumers = net.consumers(place)
        if len(consumers) > 1 and any(len(t.preset) != 1 for t in consumers):
            return False
    return True


def is_extended_free_choice(net: PetriNet) -> bool:
    """Transitions sharing any input place share all input places."""
    ordered = [t for _, t in sorted(net.transitions.items())]
    for index, first in enumerate(ordered):
        for second in ordered[index + 1 :]:
            if first.preset & second.preset and first.preset != second.preset:
                return False
    return True


def is_asymmetric_choice(net: PetriNet) -> bool:
    """Presets of conflicting transitions are ordered by inclusion."""
    ordered = [t for _, t in sorted(net.transitions.items())]
    for index, first in enumerate(ordered):
        for second in ordered[index + 1 :]:
            if first.preset & second.preset:
                if not (
                    first.preset <= second.preset or second.preset <= first.preset
                ):
                    return False
    return True


def classify(net: PetriNet) -> NetClass:
    """Compute all class-membership flags of a net."""
    return NetClass(
        state_machine=is_state_machine(net),
        marked_graph=is_marked_graph(net),
        free_choice=is_free_choice(net),
        extended_free_choice=is_extended_free_choice(net),
        asymmetric_choice=is_asymmetric_choice(net),
    )


# -- polynomial marked-graph checks (basis of Theorem 5.7) -----------------


def marked_graph_is_live(net: PetriNet) -> bool:
    """Polynomial liveness for marked graphs: every cycle carries a token.

    Commoner/Genrich: a marked graph is live iff every simple cycle of
    places contains at least one initially marked place.  Implemented
    without cycle enumeration: delete all marked places and check the
    remaining place graph is acyclic.
    """
    if not is_marked_graph(net):
        raise ValueError("marked_graph_is_live requires a marked graph")
    marked = net.initial.marked_places()
    unmarked = [p for p in net.places if p not in marked]
    successors: dict[str, set[str]] = {p: set() for p in unmarked}
    for transition in net.transitions.values():
        for source in transition.preset:
            if source in marked:
                continue
            for target in transition.postset:
                if target not in marked:
                    successors[source].add(target)
    return _is_acyclic(unmarked, successors)


def marked_graph_is_live_safe(net: PetriNet) -> bool:
    """Polynomial live-safeness for strongly connected marked graphs.

    A live marked graph is safe iff every place lies on a simple cycle
    whose total token count is exactly one.  Checked via shortest paths
    in a token-count-weighted place graph: for place ``p`` with
    ``M0(p)=k``, the cheapest cycle through ``p`` must cost ``k`` plus
    the path cost; safeness of ``p`` requires a cycle of total weight 1
    through it (weight of entering a place = its token count).
    """
    if not marked_graph_is_live(net):
        return False
    if any(count > 1 for count in net.initial.values()):
        return False
    successors: dict[str, set[str]] = {place: set() for place in net.places}
    predecessors: dict[str, set[str]] = {place: set() for place in net.places}
    for transition in net.transitions.values():
        for source in transition.preset:
            successors[source].update(transition.postset)
            for target in transition.postset:
                predecessors[target].add(source)
    for place in net.places:
        # Cheapest cycle through ``place``: tokens on the cycle must be 1.
        lengths = _token_distances(place, successors, net.initial)
        cycles = [lengths[p] for p in predecessors[place] if p in lengths]
        if not cycles or min(cycles) + net.initial[place] != 1:
            return False
    return True


def _token_distances(
    source: str, successors: dict[str, set[str]], tokens
) -> dict[str, int]:
    """The fewest tokens entered on a path from ``source`` to each place
    it reaches.  Entering a place costs its token count, 0 or 1 on a safe
    marking, so a 0-1 breadth-first search finds them: zero-cost steps
    go to the front of the queue, unit-cost steps to the back."""
    lengths = {source: 0}
    queue = deque([source])
    while queue:
        place = queue.popleft()
        for target in successors[place]:
            length = lengths[place] + tokens[target]
            if length < lengths.get(target, length + 1):
                lengths[target] = length
                if tokens[target]:
                    queue.append(target)
                else:
                    queue.appendleft(target)
    return lengths


def _is_acyclic(nodes: list[str], successors: dict[str, set[str]]) -> bool:
    indegree = {node: 0 for node in nodes}
    for outs in successors.values():
        for target in outs:
            indegree[target] += 1
    queue = deque(node for node in nodes if indegree[node] == 0)
    visited = 0
    while queue:
        node = queue.popleft()
        visited += 1
        for target in successors[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                queue.append(target)
    return visited == len(nodes)
