"""A naive breadth-first search over markings: the reference that the
benchmark's pinned state counts are re-derived with.

It reads only a net's initial marking and its transition relation and
builds :class:`~repro.petri.marking.Marking` values itself; no
exploration engine of :mod:`repro.petri` is involved.
"""

from __future__ import annotations

from collections import deque

from repro.petri.marking import Marking


def fire(marking: Marking, preset, postset) -> Marking | None:
    """The successor of ``marking`` under one transition, or ``None``
    when some input place is empty."""
    if any(marking[place] < 1 for place in preset):
        return None
    counts = dict(marking.items())
    for place in preset:
        counts[place] -= 1
    for place in postset:
        counts[place] = counts.get(place, 0) + 1
    return Marking({place: count for place, count in counts.items() if count})


def explore(net, limit: int = 100_000):
    """``(markings, edges, deadlocks)`` of the reachability graph.

    Raises :class:`OverflowError` once more than ``limit`` markings are
    found (an unbounded net never finishes).
    """
    relation = [(t.preset, t.postset) for _, t in sorted(net.transitions.items())]
    initial = Marking({p: c for p, c in net.initial.items() if c})
    seen = {initial}
    queue = deque([initial])
    edges = deadlocks = 0
    while queue:
        marking = queue.popleft()
        fired = 0
        for preset, postset in relation:
            successor = fire(marking, preset, postset)
            if successor is None:
                continue
            fired += 1
            if successor not in seen:
                if len(seen) >= limit:
                    raise OverflowError(f"more than {limit} markings")
                seen.add(successor)
                queue.append(successor)
        edges += fired
        deadlocks += fired == 0
    return seen, edges, deadlocks


def failing_actions(markings, obligations) -> list[str]:
    """Proposition 5.5 checked marking by marking: the actions of the
    obligations whose producer is ready while no consumer is."""

    def ready(marking: Marking, preset) -> bool:
        return all(marking[place] > 0 for place in preset)

    return sorted(
        {
            ob.action
            for ob in obligations
            for marking in markings
            if ready(marking, ob.producer_preset)
            and not any(ready(marking, preset) for preset in ob.consumer_presets)
        }
    )
