"""Behavioural and structural property checks for Petri nets.

Wraps :class:`~repro.petri.reachability.ReachabilityGraph` exploration in
the property vocabulary the paper uses: bounded, safe, live,
strongly-connected, deadlock-free (Section 2.1), plus dead-transition
detection used after parallel composition (Section 5.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.petri.net import PetriNet, Transition
from repro.petri.reachability import ReachabilityGraph, UnboundedNetError


@dataclass(frozen=True)
class NetProperties:
    """Summary of the behavioural properties of a bounded net."""

    bounded: bool
    bound: int
    safe: bool
    live: bool
    deadlock_free: bool
    reversible: bool
    states: int
    dead_transition_ids: tuple[int, ...]
    #: Provenance only: ``True`` when this summary was served from the
    #: verdict memo (:mod:`repro.cache`) rather than recomputed.
    #: Excluded from equality and repr so cached and cold results stay
    #: interchangeable values.
    cached: bool = field(default=False, compare=False, repr=False)

    def __str__(self) -> str:
        flags = [
            f"bound={self.bound}" if self.bounded else "UNBOUNDED",
            "safe" if self.safe else "unsafe",
            "live" if self.live else "non-live",
            "deadlock-free" if self.deadlock_free else "DEADLOCKS",
            "reversible" if self.reversible else "irreversible",
            f"states={self.states}",
        ]
        if self.dead_transition_ids:
            flags.append(f"dead={list(self.dead_transition_ids)}")
        return ", ".join(flags)


def analyze(net: PetriNet, max_states: int = 1_000_000) -> NetProperties:
    """Compute the behavioural property summary of a bounded net.

    Raises :class:`UnboundedNetError` when the net is detected to be
    unbounded (use :mod:`repro.petri.coverability` to analyse those).

    When an artifact store is active (:mod:`repro.cache`), the summary
    is memoized by net content hash under the budget-monotonicity rule:
    a summary computed at ``S <= B`` states is served for any budget
    ``>= S``, a proven-unbounded outcome for any budget ``>=`` the
    proving one, and a budget abort only at exactly the recorded budget.
    """
    from repro.cache import verdicts
    from repro.cache.content import net_content_hash, semantic_key

    cache_key: str | None = None
    if verdicts.memo_enabled(net):
        cache_key = semantic_key("analyze", net_content_hash(net))
        entry = verdicts.memo_lookup(
            verdicts.KIND, cache_key, max_states=max_states
        )
        if entry is not None:
            restored = _restore_analyze(entry, max_states)
            if restored is not None:
                return restored
    try:
        graph = ReachabilityGraph(net, max_states=max_states)
    except UnboundedNetError as error:
        if cache_key is not None:
            proven = error.bound is None
            verdicts.memo_store(
                verdicts.KIND,
                cache_key,
                {
                    "kind": "unbounded" if proven else "budget",
                    "message": str(error),
                    "witness": verdicts.marking_items(error.witness),
                    "frontier": verdicts.marking_items(error.frontier),
                },
                conclusive=proven,
                floor=max_states,
                proven_at=max_states,
                provenance={"engine": "eager", "workers": 1},
            )
        raise
    properties = NetProperties(
        bounded=True,
        bound=graph.bound(),
        safe=graph.is_safe(),
        live=graph.is_live(),
        deadlock_free=graph.is_deadlock_free(),
        reversible=graph.is_reversible(),
        states=graph.num_states(),
        dead_transition_ids=tuple(t.tid for t in graph.dead_transitions()),
    )
    if cache_key is not None:
        verdicts.memo_store(
            verdicts.KIND,
            cache_key,
            {
                "kind": "properties",
                "bound": properties.bound,
                "safe": properties.safe,
                "live": properties.live,
                "deadlock_free": properties.deadlock_free,
                "reversible": properties.reversible,
                "states": properties.states,
                "dead_transition_ids": list(properties.dead_transition_ids),
            },
            conclusive=True,
            floor=properties.states,
            proven_at=max_states,
            provenance={"engine": "eager", "workers": 1},
        )
    return properties


def _restore_analyze(entry: dict, max_states: int) -> NetProperties | None:
    """Rebuild the :func:`analyze` outcome from a memo entry.

    A ``properties`` entry becomes a :class:`NetProperties` with
    ``cached=True``; an ``unbounded``/``budget`` entry re-raises the
    original :class:`UnboundedNetError` (witness markings restored).
    Malformed entries return ``None`` (the caller recomputes).
    """
    from repro.cache import verdicts

    result = entry["result"]
    kind = result.get("kind")
    try:
        if kind == "properties":
            return NetProperties(
                bounded=True,
                bound=int(result["bound"]),
                safe=bool(result["safe"]),
                live=bool(result["live"]),
                deadlock_free=bool(result["deadlock_free"]),
                reversible=bool(result["reversible"]),
                states=int(result["states"]),
                dead_transition_ids=tuple(result["dead_transition_ids"]),
                cached=True,
            )
        if kind in ("unbounded", "budget"):
            raise UnboundedNetError(
                str(result["message"]),
                witness=verdicts.marking_from(result.get("witness")),
                bound=None if kind == "unbounded" else max_states,
                frontier=verdicts.marking_from(result.get("frontier")),
            )
    except (KeyError, TypeError, ValueError):
        return None
    return None


def is_bounded(net: PetriNet, max_states: int = 1_000_000) -> bool:
    """``True`` iff the net has a finite state space (Section 2.1)."""
    try:
        ReachabilityGraph(net, max_states=max_states)
    except UnboundedNetError:
        return False
    return True


def is_safe(net: PetriNet, max_states: int = 1_000_000) -> bool:
    """``True`` iff every reachable marking is 1-bounded."""
    return ReachabilityGraph(net, max_states=max_states).is_safe()


def is_live(net: PetriNet, max_states: int = 1_000_000) -> bool:
    """``True`` iff every transition stays fireable from every reachable state."""
    return ReachabilityGraph(net, max_states=max_states).is_live()


def is_live_safe(net: PetriNet, max_states: int = 1_000_000) -> bool:
    """Conjunction of liveness and safety (the classical STG requirement)."""
    graph = ReachabilityGraph(net, max_states=max_states)
    return graph.is_safe() and graph.is_live()


def dead_transitions(net: PetriNet, max_states: int = 1_000_000) -> list[Transition]:
    """Transitions that never fire.

    Section 5.2 of the paper: after parallel composition, synchronization
    transitions may be dead and should be removed before synthesis.
    """
    return ReachabilityGraph(net, max_states=max_states).dead_transitions()


def is_structurally_strongly_connected(net: PetriNet) -> bool:
    """``True`` iff the bipartite place/transition graph of the net is
    strongly connected (the *structural* requirement of Definition 2.3).

    Nets with no transitions count as strongly connected only when they
    have at most one place.
    """
    nodes: list[object] = sorted(net.places) + sorted(net.transitions)
    if len(nodes) <= 1:
        return True
    successors: dict[object, set[object]] = {node: set() for node in nodes}
    for tid, transition in net.transitions.items():
        for place in transition.preset:
            successors[place].add(tid)
        for place in transition.postset:
            successors[tid].add(place)

    def reachable(start: object, edges: dict[object, set[object]]) -> set[object]:
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for target in edges[node]:
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        return seen

    start = nodes[0]
    if reachable(start, successors) != set(nodes):
        return False
    reverse: dict[object, set[object]] = {node: set() for node in nodes}
    for source, targets in successors.items():
        for target in targets:
            reverse[target].add(source)
    return reachable(start, reverse) == set(nodes)


def isolated_places(net: PetriNet) -> set[str]:
    """Places adjacent to no transition."""
    used: set[str] = set()
    for transition in net.transitions.values():
        used |= transition.places()
    return net.places - used


def source_transitions(net: PetriNet) -> list[Transition]:
    """Transitions with empty preset (always enabled; net is unbounded)."""
    return [t for _, t in sorted(net.transitions.items()) if not t.preset]


def conflict_pairs(net: PetriNet) -> list[tuple[Transition, Transition]]:
    """Pairs of distinct transitions sharing an input place (structural conflict)."""
    pairs: list[tuple[Transition, Transition]] = []
    ordered = [t for _, t in sorted(net.transitions.items())]
    for index, first in enumerate(ordered):
        for second in ordered[index + 1 :]:
            if first.preset & second.preset:
                pairs.append((first, second))
    return pairs
