"""Dead-transition removal and net cleanup (Section 5.2).

After parallel composition, synchronization transitions may be dead
(L0-dead: no reachable marking ever enables them).  The paper notes
their removal is polynomial for marked graphs and free-choice nets; for
general bounded nets we fall back to reachability.
"""

from __future__ import annotations

from repro.obs import metrics as obs
from repro.petri.classify import is_marked_graph
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import ReachabilityGraph, UnboundedNetError


def fireable_transitions_marked_graph(net: PetriNet) -> set[int]:
    """Polynomial fireability for marked graphs.

    In a marked graph there are no conflicts, so a transition can fire
    (at least once) iff each of its input places is marked or its unique
    producer can fire.  Computed as a least fixpoint.
    """
    if not is_marked_graph(net):
        raise ValueError("polynomial fireability requires a marked graph")
    producer_of = {
        place: net.producers(place)[0].tid for place in net.places
    }
    fireable: set[int] = set()
    changed = True
    while changed:
        changed = False
        for tid, transition in net.transitions.items():
            if tid in fireable:
                continue
            if all(
                net.initial[place] > 0 or producer_of[place] in fireable
                for place in transition.preset
            ):
                fireable.add(tid)
                changed = True
    return fireable


def dead_transition_ids(net: PetriNet, max_states: int = 1_000_000) -> set[int]:
    """Ids of transitions that never fire.

    Uses the polynomial marked-graph fixpoint when possible, otherwise
    explicit reachability; on unbounded nets, falls back to the
    Karp-Miller coverability tree (sound: a transition absent from the
    tree is definitely dead, though some dead transitions may be kept
    because omega-markings over-approximate)."""
    if is_marked_graph(net):
        return set(net.transitions) - fireable_transitions_marked_graph(net)
    try:
        graph = ReachabilityGraph(net, max_states=max_states)
    except UnboundedNetError:
        return set(net.transitions) - _coverability_fireable(net)
    return {t.tid for t in graph.dead_transitions()}


def _coverability_fireable(net: PetriNet, max_nodes: int = 200_000) -> set[int]:
    """Transition *actions* that appear in the Karp-Miller tree cannot be
    distinguished per tid from the tree edges alone, so fireability is
    recomputed per transition against the coverability set."""
    from repro.petri.coverability import coverability_tree

    tree = coverability_tree(net, max_nodes=max_nodes)
    fireable: set[int] = set()
    for tid, transition in net.transitions.items():
        for node in tree.nodes:
            counts = dict(node)
            if all(counts.get(place, 0) >= 1 for place in transition.preset):
                fireable.add(tid)
                break
    return fireable


def drop_sink_places(net: PetriNet) -> PetriNet:
    """Remove places no transition consumes from (pure token sinks).

    A consumer-free place never constrains any firing, so removing it
    (and its incoming arcs) preserves the trace language exactly.  This
    also eliminates the unbounded 'garbage collectors' that net
    contraction can leave behind.
    """
    consumed = {
        place for transition in net.transitions.values() for place in transition.preset
    }
    sinks = net.places - consumed
    if not sinks:
        return net.copy()
    result = PetriNet(net.name, net.actions, net.places - sinks)
    for tid, transition in sorted(net.transitions.items()):
        result.add_transition(
            transition.preset, transition.action, transition.postset - sinks, tid=tid
        )
    result.input_guards = dict(net.input_guards)
    result.set_initial(
        Marking({p: c for p, c in net.initial.items() if p not in sinks})
    )
    if net.bound_weights is not None:
        # Dropping places only removes terms from the produced side.
        result.bound_weights = {
            place: weight
            for place, weight in net.bound_weights.items()
            if place not in sinks
        }
    return result


def merge_duplicate_places(net: PetriNet) -> PetriNet:
    """Merge places with identical producers, consumers and initial
    marking.

    Two such places provably hold the same token count in every
    reachable marking (induction over firings), so either one imposes
    the other's enabling constraint and one can be dropped.  Net
    contraction (Definition 4.10) mass-produces such duplicates among
    its product places; merging them after each contraction keeps
    cascaded hiding tractable.

    Guards on arcs from a dropped place are conjoined onto the kept
    place's arc to the same transition.
    """
    from repro.stg.guards import And, Guard

    producers: dict[str, list[int]] = {}
    consumers: dict[str, list[int]] = {}
    for tid, transition in net.transitions.items():
        for place in transition.postset:
            producers.setdefault(place, []).append(tid)
        for place in transition.preset:
            consumers.setdefault(place, []).append(tid)
    groups: dict[tuple, list[str]] = {}
    for place in sorted(net.places):
        signature = (
            frozenset(producers.get(place, ())),
            frozenset(consumers.get(place, ())),
            net.initial[place],
        )
        groups.setdefault(signature, []).append(place)
    drop: dict[str, str] = {}
    for (producers, consumers, _), members in groups.items():
        if len(members) < 2:
            continue
        if not producers and not consumers:
            continue  # isolated places are handled by trim
        keeper = members[0]
        for other in members[1:]:
            drop[other] = keeper
    if not drop:
        return net.copy()
    result = PetriNet(net.name, net.actions, net.places - set(drop))
    for tid, transition in sorted(net.transitions.items()):
        result.add_transition(
            frozenset(p for p in transition.preset if p not in drop),
            transition.action,
            frozenset(p for p in transition.postset if p not in drop),
            tid=tid,
        )
    result.set_initial(
        Marking({p: c for p, c in net.initial.items() if p not in drop})
    )
    for (place, tid), guard in net.input_guards.items():
        target = drop.get(place, place)
        existing = result.input_guards.get((target, tid))
        if existing is None:
            result.input_guards[(target, tid)] = guard
        elif (
            existing is not guard
            and isinstance(existing, Guard)
            and isinstance(guard, Guard)
        ):
            result.input_guards[(target, tid)] = And(existing, guard)
    if net.bound_weights is not None:
        # A keeper stands on every arc and token its duplicates stood on,
        # so adding their weights to it leaves every total unchanged.
        weights = {
            place: weight
            for place, weight in net.bound_weights.items()
            if place not in drop
        }
        for other, keeper in drop.items():
            weights[keeper] = weights.get(keeper, 0) + net.bound_weights.get(
                other, 0
            )
        result.bound_weights = weights
    return result


def remove_dead_transitions(net: PetriNet, max_states: int = 1_000_000) -> PetriNet:
    """A copy of the net with all dead transitions removed.

    Behaviour-preserving: dead transitions contribute nothing to
    ``L(N)``.  This is the cleanup step the paper prescribes after
    compositional synthesis (the cross product of synchronization
    transitions leaves many dead duplicates).
    """
    with obs.span("algebra.remove_dead_transitions", net=net.name) as span:
        dead = dead_transition_ids(net, max_states=max_states)
        result = net.copy(name=net.name)
        for tid in dead:
            result.remove_transition(tid)
        span.set(
            dead=len(dead),
            transitions_before=len(net.transitions),
            transitions_after=len(result.transitions),
        )
        return result


def remove_unreachable_places(net: PetriNet, max_states: int = 1_000_000) -> PetriNet:
    """Remove places that are never marked and the transitions needing them.

    A place never marked in any reachable marking permanently disables
    every transition consuming from it; those transitions are dead, and
    after their removal the place can be dropped entirely.
    """
    try:
        graph = ReachabilityGraph(net, max_states=max_states)
    except UnboundedNetError:
        ever_marked = set(net.places)  # no pruning without a state space
    else:
        ever_marked = graph.marked_places()
    result = remove_dead_transitions(net, max_states=max_states)
    for place in sorted(net.places - ever_marked):
        # Only drop the place if no remaining transition touches it.
        if not result.consumers(place) and not result.producers(place):
            result.remove_place(place)
    return result


def trim(net: PetriNet, max_states: int = 1_000_000) -> PetriNet:
    """Full cleanup: drop sink places, dead transitions, then
    unreferenced unmarked places.  Language-preserving; robust on
    unbounded nets (coverability fallback).  A single reachability pass
    supplies both the fired-transition set and the ever-marked places.
    """
    with obs.span("algebra.trim", net=net.name) as span:
        from repro.cache import derived

        cached = derived.lookup("trim", [net], max_states=max_states)
        if cached is not None:
            span.set(
                cached=True,
                places_before=len(net.places),
                places_after=len(cached.places),
                transitions_before=len(net.transitions),
                transitions_after=len(cached.transitions),
            )
            return cached
        result = merge_duplicate_places(drop_sink_places(net))
        try:
            graph = ReachabilityGraph(result, max_states=max_states)
        except UnboundedNetError:
            dead = set(result.transitions) - _coverability_fireable(result)
            ever_marked = set(result.places)
        else:
            dead = set(result.transitions) - graph.fired_tids()
            ever_marked = graph.marked_places()
        for tid in dead:
            result.remove_transition(tid)
        touched = {
            place
            for transition in result.transitions.values()
            for place in transition.places()
        }
        for place in sorted(result.places - touched):
            if place not in ever_marked or result.initial[place] == 0:
                result.remove_place(place)
        span.set(
            dead=len(dead),
            places_before=len(net.places),
            places_after=len(result.places),
            transitions_before=len(net.transitions),
            transitions_after=len(result.transitions),
        )
        derived.publish("trim", [net], result, max_states=max_states)
        return result
