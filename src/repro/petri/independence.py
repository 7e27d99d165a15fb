"""Static independence analysis and stubborn-set selection.

This is the structural half of the partial-order reduction layer
(``engine="por"``).  The rendez-vous composition of Definition 4.7
produces nets whose components progress concurrently; an explicit
exploration then enumerates every interleaving of independent
transitions — the dominant blow-up on composed nets.  Partial-order
reduction expands, at each marking, only a *stubborn* subset of the
enabled transitions, chosen so that every behaviour the verification
layers observe (deadlocks, the visible-action language, the
Proposition 5.5 failure predicate) is preserved exactly.

Two classes:

* :class:`IndependenceRelation` — the static facts, computed once per
  net from preset/postset overlap: which transitions compete for an
  input place (*conflict*), which transitions strictly produce into a
  place (the only ones that can enable a transition waiting on it), and
  which transitions change the token count of a given place (the ones a
  marking predicate over that place can observe).

* :class:`StubbornSelector` — the per-marking selector.  It closes a
  candidate set under the two classical stubborn-set rules (an enabled
  member brings in its conflicting transitions; a disabled member
  brings in the strict producers of one empty *scapegoat* input place),
  keeps at least one enabled *key* transition, and refuses to reduce at
  all if any enabled member is visible.  The remaining condition for
  language preservation — that no enabled transition is postponed
  around a cycle forever — is enforced by the exploration layer: by
  the DFS-stack proviso of :mod:`repro.petri.dfs` (the default, which
  also layers sleep sets on top of this selector), or by the original
  ``proviso="fresh"`` rule in which
  :class:`repro.petri.product.LazyStateSpace` fully expands any state
  where a reduced successor has already been discovered.

Soundness sketch (the invariants the differential harness in
``tests/petri/test_por_differential.py`` checks empirically):

* an *enabled* stubborn transition stays enabled, and commutes, over
  any sequence of non-stubborn firings — no non-stubborn transition
  shares one of its input places;
* a *disabled* stubborn transition stays disabled over any sequence of
  non-stubborn firings — every transition that could mark its empty
  scapegoat place is itself stubborn;
* therefore the first stubborn transition of any firing sequence can be
  commuted to the front, and since it is invisible the visible
  projection is unchanged.  With the cycle proviso this yields exact
  preservation of deadlock markings and of the visible trace language.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.petri.marking import Marking, Place
from repro.petri.net import PetriNet


@dataclass
class SelectorStats:
    """Work counters of one :class:`StubbornSelector`.

    ``calls`` counts :meth:`StubbornSelector.reduced_enabled`
    invocations, ``seeds_tried`` the closures actually computed, and
    ``proposals`` the calls that returned a proper reduction.  Flushed
    to the metrics layer by
    :meth:`repro.petri.product.LazyStateSpace.publish_metrics`.
    """

    calls: int = 0
    seeds_tried: int = 0
    proposals: int = 0


class IndependenceRelation:
    """Static (in)dependence facts of a net's transitions.

    Built once per net (cost linear in the arc count); all queries are
    lookups.  The relation is purely structural and therefore safe for
    any marking: it may *over*-approximate dependence (two transitions
    sharing a multi-token place are treated as conflicting even when
    the place holds enough tokens for both), which only makes the
    reduction more conservative, never unsound.
    """

    def __init__(self, net: PetriNet):
        self.net = net
        consumers: dict[Place, set[int]] = {}
        strict_producers: dict[Place, list[int]] = {}
        changing: dict[Place, set[int]] = {}
        for transition in net.sorted_transitions():
            tid = transition.tid
            for place in transition.preset:
                consumers.setdefault(place, set()).add(tid)
            for place in transition.postset - transition.preset:
                strict_producers.setdefault(place, []).append(tid)
                changing.setdefault(place, set()).add(tid)
            for place in transition.preset - transition.postset:
                changing.setdefault(place, set()).add(tid)
        self._strict_producers = {
            place: tuple(tids) for place, tids in strict_producers.items()
        }
        self._changing = {
            place: frozenset(tids) for place, tids in changing.items()
        }
        conflicting: dict[int, tuple[int, ...]] = {}
        for tid, transition in net.transitions.items():
            rivals: set[int] = set()
            for place in transition.preset:
                rivals |= consumers.get(place, set())
            rivals.discard(tid)
            conflicting[tid] = tuple(sorted(rivals))
        self._conflicting = conflicting

    def conflicting(self, tid: int) -> tuple[int, ...]:
        """Transitions competing with ``tid`` for an input place
        (``•t ∩ •u ≠ ∅``), in tid order.  Firing any of them may
        disable ``tid``; nothing else can."""
        return self._conflicting[tid]

    def strict_producers(self, place: Place) -> tuple[int, ...]:
        """Transitions whose firing strictly increases ``place``'s token
        count (``place ∈ t• \\ •t``) — the only transitions that can
        mark an empty place."""
        return self._strict_producers.get(place, ())

    def transitions_changing(self, places: Iterable[Place]) -> frozenset[int]:
        """Transitions whose firing changes the token count of any of
        ``places`` — the transitions a marking predicate over those
        places can observe."""
        result: set[int] = set()
        for place in places:
            result |= self._changing.get(place, frozenset())
        return frozenset(result)

    def independent(self, tid1: int, tid2: int) -> bool:
        """Structural independence: the transitions touch disjoint place
        sets, so they can neither disable each other nor race for
        tokens, and their firings commute from any marking."""
        if tid1 == tid2:
            return False
        t1 = self.net.transitions[tid1]
        t2 = self.net.transitions[tid2]
        return not (t1.places() & t2.places())


class StubbornSelector:
    """Per-marking stubborn-set selection over a static relation.

    ``visible_tids`` are the transitions the current verification
    question observes — by label (actions not hidden, so the
    Theorem 4.5/4.7 language checks stay exact) and/or by place (the
    transitions that can change a marking predicate, e.g. the
    Proposition 5.5 obligation places).  A reduction is only proposed
    when every *enabled* member of the closed set is invisible; visible
    transitions may still appear as disabled members (they cannot fire
    before something stubborn does, so nothing observable is lost).
    """

    def __init__(
        self,
        net: PetriNet,
        visible_tids: Iterable[int],
        relation: IndependenceRelation | None = None,
    ):
        self.net = net
        self.relation = relation if relation is not None else IndependenceRelation(net)
        self.visible = frozenset(visible_tids)
        self.stats = SelectorStats()
        self._transitions = net.transitions

    def reduced_enabled(
        self,
        marking: Marking,
        enabled: tuple[int, ...],
        asleep: frozenset[int] = frozenset(),
    ) -> tuple[int, ...] | None:
        """The enabled members of the smallest stubborn set found at
        ``marking``, or ``None`` when no sound proper reduction exists
        (the caller then expands every enabled transition).

        Each enabled transition is tried as the seed; the candidate with
        the fewest enabled members wins (ties to the lowest seed tid, so
        the choice — and with it every ``engine="por"`` run — is
        deterministic).

        ``asleep`` is the caller's sleep set (:mod:`repro.petri.dfs`):
        transitions whose firings are already covered by an earlier
        branch and will be skipped.  Seeds drawn from it are not tried
        (their closures would be centred on transitions the caller
        cannot fire) and candidates are scored by their *awake* member
        count, so the proposal always carries at least one firable
        transition — the seed itself.  With the default empty ``asleep``
        the behaviour is exactly the historic one.
        """
        if len(enabled) <= 1:
            return None
        self.stats.calls += 1
        enabled_set = frozenset(enabled)
        best: set[int] | None = None
        best_awake = 0
        for seed in enabled:
            if seed in self.visible or seed in asleep:
                continue
            self.stats.seeds_tried += 1
            chosen = self._closure(seed, marking, enabled_set)
            if chosen is None:
                continue
            awake = (
                sum(1 for tid in chosen if tid not in asleep)
                if asleep
                else len(chosen)
            )
            if best is None or awake < best_awake:
                best = chosen
                best_awake = awake
                if best_awake == 1:
                    break
        if best is None or len(best) >= len(enabled):
            return None
        self.stats.proposals += 1
        return tuple(sorted(best))

    def _closure(
        self, seed: int, marking: Marking, enabled_set: frozenset[int]
    ) -> set[int] | None:
        """Close ``{seed}`` under the stubborn rules at ``marking``;
        returns the enabled members, or ``None`` as soon as an enabled
        visible transition enters the set (no reduction from this
        seed)."""
        relation = self.relation
        stubborn = {seed}
        work = [seed]
        chosen: set[int] = set()
        while work:
            tid = work.pop()
            if tid in enabled_set:
                if tid in self.visible:
                    return None
                chosen.add(tid)
                if len(chosen) == len(enabled_set):
                    return None  # the whole enabled set: no reduction
                for rival in relation.conflicting(tid):
                    if rival not in stubborn:
                        stubborn.add(rival)
                        work.append(rival)
            else:
                scapegoat = self._scapegoat(tid, marking)
                for producer in relation.strict_producers(scapegoat):
                    if producer not in stubborn:
                        stubborn.add(producer)
                        work.append(producer)
        return chosen

    def _scapegoat(self, tid: int, marking: Marking) -> Place:
        """The empty input place of a disabled transition whose strict
        producers are fewest (deterministic tie-break on place name) —
        the cheapest witness that the transition stays disabled while
        only non-stubborn transitions fire.

        Determinism matters beyond reproducibility: the DFS driver of
        :mod:`repro.petri.dfs` assumes identical selector proposals on
        identical markings across runs.  The candidate
        scan is over the *sorted* preset with a strict ``<`` cost
        comparison (first minimum wins), so the choice is a pure
        function of the net and the marking — no dict/set iteration
        order is ever consulted; ``tests/petri/test_por_determinism.py``
        pins this."""
        best: tuple[int, Place] | None = None
        for place in sorted(self._transitions[tid].preset):
            if marking[place] > 0:
                continue
            cost = len(self.relation.strict_producers(place))
            if best is None or cost < best[0]:
                best = (cost, place)
        assert best is not None, "disabled transition has no empty input place"
        return best[1]
