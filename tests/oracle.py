"""The naive reference breadth-first search over markings: the single
oracle the exploration core is checked against.

It reads only ``net.initial`` and the tid-sorted transition relation,
fires with its own token arithmetic and builds
:class:`~repro.petri.marking.Marking` values itself; no exploration code
of :mod:`repro.petri` is involved.  On top of the search it answers the
behavioural questions by brute force, Proposition 5.5 included.
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


class Oracle:
    """The reachability graph of a net, breadth-first, up to ``limit``
    markings.  ``rows`` maps every marking, in discovery order, to its
    ``(action, tid, target)`` edges in tid order; ``parent`` maps it to
    ``(predecessor, tid)`` (``None`` for the initial marking).
    ``complete`` is false when the search stopped at ``limit``."""

    def __init__(self, net, limit: int = 5000):
        relation = [
            (t.tid, t.action, t.preset, t.postset)
            for _, t in sorted(net.transitions.items())
        ]
        self.initial = Marking({p: c for p, c in net.initial.items() if c})
        self.rows: dict[Marking, list] = {self.initial: []}
        self.parent: dict[Marking, tuple[Marking, int] | None] = {
            self.initial: None
        }
        self.complete = True
        queue = deque([self.initial])
        while queue:
            marking = queue.popleft()
            for tid, action, preset, postset in relation:
                target = fire(marking, preset, postset)
                if target is None:
                    continue
                if target not in self.rows:
                    if len(self.rows) >= limit:
                        self.complete = False
                        return
                    self.rows[target] = []
                    self.parent[target] = (marking, tid)
                    queue.append(target)
                self.rows[marking].append((action, tid, target))

    def states(self) -> list[Marking]:
        return list(self.rows)

    def deadlocks(self) -> list[Marking]:
        return [marking for marking, row in self.rows.items() if not row]

    def path(self, marking: Marking) -> list[tuple[Marking, int]]:
        """The discovery path to ``marking``: ``(predecessor, tid)``
        steps from the initial marking on."""
        steps = []
        while self.parent[marking] is not None:
            steps.append(self.parent[marking])
            marking = steps[-1][0]
        return steps[::-1]

    def first_covering(self) -> Marking | None:
        """The first marking, in discovery order, that strictly covers a
        marking on its own discovery path (the Karp-Miller condition),
        or ``None``."""
        for marking in self.rows:
            for ancestor, _ in self.path(marking):
                if marking != ancestor and marking.covers(ancestor):
                    return marking
        return None

    # -- behavioural properties, by brute force ------------------------------

    def bound(self) -> int:
        """The largest token count of any place over all markings."""
        return max(
            (count for marking in self.rows for count in marking.values()),
            default=0,
        )

    def reachable_from(self, marking: Marking) -> set[Marking]:
        """Every marking reachable from ``marking`` (itself included)."""
        seen = {marking}
        queue = deque([marking])
        while queue:
            for _, _, target in self.rows[queue.popleft()]:
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        return seen

    def is_live(self, tids) -> bool:
        """Every transition of ``tids`` fires again from every marking."""
        everything = set(tids)
        for marking in self.rows:
            fired = {
                tid
                for source in self.reachable_from(marking)
                for _, tid, _ in self.rows[source]
            }
            if fired != everything:
                return False
        return True

    def is_reversible(self) -> bool:
        """The initial marking is reachable from every marking."""
        return all(
            self.initial in self.reachable_from(marking) for marking in self.rows
        )

    # -- Proposition 5.5, by brute force ---------------------------------------

    def first_failures(self, obligations) -> list[tuple[object, Marking]]:
        """``(obligation, marking)`` for every obligation some marking
        fails, in obligation order: the first marking, in discovery
        order, where the producer preset is marked and no consumer
        preset is (Proposition 5.5)."""

        def marked(marking: Marking, preset) -> bool:
            return all(marking[place] >= 1 for place in preset)

        failures = []
        for obligation in obligations:
            for marking in self.rows:
                if marked(marking, obligation.producer_preset) and not any(
                    marked(marking, preset)
                    for preset in obligation.consumer_presets
                ):
                    failures.append((obligation, marking))
                    break
        return failures
