"""Labeled Petri nets (Definition 2.1 of the paper).

A labeled Petri net is a tuple ``(A, P, ->, M0)`` with ``A`` a set of
action labels, ``P`` a set of places, ``->``  a transition relation of
triples ``(preset, action, postset)`` and ``M0`` an initial marking.

The paper's transition relation is a subset of ``2^P x A x 2^P``; since
the algebra needs to manipulate individual transitions (and nothing in
the paper forbids two transitions with identical presets, labels and
postsets after composition), every transition here carries a stable
integer identity ``tid``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.petri.marking import Marking, Place

if TYPE_CHECKING:
    from repro.petri.compiled import CompiledNet

Action = str

#: The distinguished silent / dummy action label (the paper's epsilon).
EPSILON: Action = "eps"


@dataclass(frozen=True)
class Transition:
    """One element of the transition relation: ``(preset, action, postset)``."""

    tid: int
    preset: frozenset[Place]
    action: Action
    postset: frozenset[Place]
    #: Places a firing strictly drains / fills (``preset \ postset`` and
    #: ``postset \ preset``).  Derived once at construction — firing is
    #: the hot path of every exploration engine and must not recompute
    #: these set differences per step.
    consume: frozenset[Place] = field(init=False, repr=False, compare=False)
    produce: frozenset[Place] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "consume", self.preset - self.postset)
        object.__setattr__(self, "produce", self.postset - self.preset)

    def is_self_looping(self) -> bool:
        """``True`` iff some place is both consumed and produced."""
        return bool(self.preset & self.postset)

    def places(self) -> frozenset[Place]:
        """All places adjacent to this transition."""
        return self.preset | self.postset

    def __repr__(self) -> str:
        pre = ",".join(sorted(self.preset)) or "-"
        post = ",".join(sorted(self.postset)) or "-"
        return f"t{self.tid}:{{{pre}}}-{self.action}->{{{post}}}"


class PetriNet:
    """A general labeled Petri net.

    The class is a mutable builder (``add_place`` / ``add_transition``),
    but all algebra operations in :mod:`repro.algebra` are functional and
    return new nets.

    Parameters
    ----------
    name:
        Human-readable net name, carried through algebra operations.
    actions:
        The alphabet ``A``.  Adding a transition automatically extends
        the alphabet with its label, but an alphabet may also contain
        labels with no transitions (relevant for parallel composition,
        which synchronizes on the *alphabet* intersection).
    """

    def __init__(
        self,
        name: str = "net",
        actions: Iterable[Action] = (),
        places: Iterable[Place] = (),
        initial: Marking | Mapping[Place, int] | None = None,
    ):
        self.name = name
        self.actions: set[Action] = set(actions)
        self.places: set[Place] = set(places)
        self.transitions: dict[int, Transition] = {}
        self.initial: Marking = Marking(initial or {})
        #: Optional boolean guards on input arcs, keyed by ``(place, tid)``.
        #: Guards are opaque to the base net; they are interpreted by the
        #: STG layer (:mod:`repro.stg.guards`).
        self.input_guards: dict[tuple[Place, int], object] = {}
        #: A proposed integer weighting of the places for the token-bound
        #: certificate of :func:`~repro.petri.compiled.compile_net`, or
        #: ``None``.  The algebra operators derive it from their
        #: operands', renaming carries it along, and compilation
        #: replaces it with the weighting it certified.  Only a hint:
        #: compilation checks it in exact integers first, so a wrong
        #: proposal costs a weighting search, never a wrong bound.  Not
        #: part of :meth:`content_hash`, :meth:`structurally_equal`, any
        #: written file or any cache key.  Replaced, never mutated in
        #: place, so copies share it.
        self.bound_weights: Mapping[Place, int] | None = None
        self._next_tid = 0
        #: Lazily built tid-sorted transition tuple (see
        #: :meth:`sorted_transitions`); invalidated on transition mutation.
        self._sorted_transitions: tuple[Transition, ...] | None = None
        #: Lazily built integer-indexed form (see :meth:`compiled`);
        #: additionally invalidated when places or the initial marking
        #: change, since the compiled form bakes both in.
        self._compiled: "CompiledNet | None" = None
        for place in self.initial:
            self.places.add(place)

    # -- construction ----------------------------------------------------

    def add_place(self, place: Place, tokens: int = 0) -> Place:
        """Add a place, optionally with initial tokens.  Idempotent on name."""
        self.places.add(place)
        self._compiled = None
        if tokens:
            counts = dict(self.initial)
            counts[place] = counts.get(place, 0) + tokens
            self.initial = Marking(counts)
        return place

    def add_transition(
        self,
        preset: Iterable[Place],
        action: Action,
        postset: Iterable[Place],
        tid: int | None = None,
    ) -> Transition:
        """Add a transition ``(preset, action, postset)`` and return it.

        Referenced places are created implicitly.  If ``tid`` is given it
        must be unused; otherwise a fresh id is allocated.
        """
        if tid is None:
            while self._next_tid in self.transitions:
                self._next_tid += 1
            tid = self._next_tid
            self._next_tid += 1
        elif tid in self.transitions:
            raise ValueError(f"transition id {tid} already used")
        transition = Transition(tid, frozenset(preset), action, frozenset(postset))
        self.places.update(transition.preset)
        self.places.update(transition.postset)
        self.actions.add(action)
        self.transitions[tid] = transition
        self._sorted_transitions = None
        self._compiled = None
        return transition

    def remove_transition(self, tid: int) -> None:
        """Remove a transition (its adjacent places remain)."""
        transition = self.transitions.pop(tid)
        self._sorted_transitions = None
        self._compiled = None
        for place in transition.preset:
            self.input_guards.pop((place, tid), None)

    def remove_place(self, place: Place) -> None:
        """Remove an isolated place.  Raises if any transition uses it."""
        for transition in self.transitions.values():
            if place in transition.preset or place in transition.postset:
                raise ValueError(f"place {place!r} still used by {transition!r}")
        self.places.discard(place)
        self._compiled = None
        if place in self.initial:
            self.initial = Marking({p: n for p, n in self.initial.items() if p != place})

    def set_initial(self, marking: Marking | Mapping[Place, int]) -> None:
        """Replace the initial marking (places are created implicitly)."""
        self.initial = Marking(marking)
        self.places.update(self.initial)
        self._compiled = None

    def set_guard(self, place: Place, tid: int, guard: object) -> None:
        """Attach a boolean guard to the input arc ``place -> tid``."""
        transition = self.transitions[tid]
        if place not in transition.preset:
            raise ValueError(f"{place!r} is not an input place of transition {tid}")
        self.input_guards[(place, tid)] = guard

    def guard_of(self, place: Place, tid: int) -> object | None:
        """The guard on input arc ``place -> tid`` or ``None``."""
        return self.input_guards.get((place, tid))

    # -- structural queries ----------------------------------------------

    def initial_places(self) -> frozenset[Place]:
        """Places marked in the initial marking (the paper's initial places)."""
        return self.initial.marked_places()

    def sorted_transitions(self) -> tuple[Transition, ...]:
        """All transitions in tid order.

        Cached — the structural queries below and the exploration
        engines iterate this constantly, and re-sorting
        ``transitions.items()`` per call dominated their set-up cost.
        Invalidated on transition mutation.
        """
        if self._sorted_transitions is None:
            self._sorted_transitions = tuple(
                t for _, t in sorted(self.transitions.items())
            )
        return self._sorted_transitions

    def transitions_with_action(self, action: Action) -> list[Transition]:
        """All transitions labeled ``action``, in tid order."""
        return [t for t in self.sorted_transitions() if t.action == action]

    def consumers(self, place: Place) -> list[Transition]:
        """Transitions with ``place`` in their preset (the place's postset)."""
        return [t for t in self.sorted_transitions() if place in t.preset]

    def producers(self, place: Place) -> list[Transition]:
        """Transitions with ``place`` in their postset (the place's preset)."""
        return [t for t in self.sorted_transitions() if place in t.postset]

    def compiled(self) -> "CompiledNet":
        """The integer-indexed compiled form of this net.

        Built once on first use (see :mod:`repro.petri.compiled`) and
        invalidated by any mutation the compiled form bakes in: place
        or transition changes and :meth:`set_initial` /
        :meth:`add_place` with tokens.  Never read from the artifact
        store: lowering a net is cheaper than loading a stored lowering.
        """
        if self._compiled is None:
            from repro.petri.compiled import compile_net

            self._compiled = compile_net(self)
        return self._compiled

    def content_hash(self) -> str:
        """The canonical SHA-256 content hash of this net.

        Deterministic over name, alphabet, places, the tid-keyed
        transition relation, the initial marking and the guards — and
        stable across the lossless load formats: astg/TINA/PNML/JSON
        round-trips of the same net hash equal (the
        :meth:`structurally_equal` contract, pinned on the corpus by
        ``tests/cache/test_content_hash.py``).  Computed fresh per call;
        see :func:`repro.cache.content.net_content_hash`.
        """
        from repro.cache.content import net_content_hash

        return net_content_hash(self)

    def used_actions(self) -> set[Action]:
        """Labels that actually occur on transitions."""
        return {t.action for t in self.transitions.values()}

    def arcs(self) -> int:
        """Total number of arcs (place->transition plus transition->place)."""
        return sum(len(t.preset) + len(t.postset) for t in self.transitions.values())

    # -- dynamics (Definition 2.2) -----------------------------------------

    def is_enabled(self, transition: Transition, marking: Marking) -> bool:
        """A transition can fire iff every preset place holds a token."""
        return all(marking[place] > 0 for place in transition.preset)

    def enabled_transitions(self, marking: Marking) -> list[Transition]:
        """All transitions enabled in ``marking``, in tid order."""
        return [
            t for t in self.sorted_transitions() if self.is_enabled(t, marking)
        ]

    def fire(
        self, transition: Transition, marking: Marking, check: bool = True
    ) -> Marking:
        """Fire an enabled transition and return the successor marking.

        Implements Definition 2.2: tokens are removed from ``preset \\
        postset``, added to ``postset \\ preset`` and left untouched on
        self-loop places (which must still be marked for enabling).

        ``check=False`` skips the enabledness re-check for callers that
        have already filtered on :meth:`is_enabled` (the exploration
        engines fire only transitions from an enabled set).
        """
        if check and not self.is_enabled(transition, marking):
            raise ValueError(f"{transition!r} is not enabled in {marking!r}")
        return marking.fire(transition.consume, transition.produce)

    # -- copying / renaming ----------------------------------------------

    def copy(self, name: str | None = None) -> "PetriNet":
        """A structural deep copy (transitions keep their tids)."""
        net = PetriNet(name or self.name, self.actions, self.places, self.initial)
        net.transitions = dict(self.transitions)
        net.input_guards = dict(self.input_guards)
        net.bound_weights = self.bound_weights
        net._next_tid = self._next_tid
        return net

    def renamed_places(
        self, mapping: Mapping[Place, Place], name: str | None = None
    ) -> "PetriNet":
        """A copy with places renamed through ``mapping``.

        Unlisted places keep their name.  The mapping must not merge two
        distinct places.
        """
        targets: dict[Place, Place] = {}
        for place in self.places:
            target = mapping.get(place, place)
            if target in targets.values() and place not in mapping:
                pass  # collision check below catches real merges
            targets[place] = target
        if len(set(targets.values())) != len(targets):
            raise ValueError("place renaming merges distinct places")
        net = PetriNet(
            name or self.name,
            self.actions,
            targets.values(),
            self.initial.rename(targets),
        )
        for tid, t in self.transitions.items():
            net.transitions[tid] = Transition(
                tid,
                frozenset(targets[p] for p in t.preset),
                t.action,
                frozenset(targets[p] for p in t.postset),
            )
        net.input_guards = {
            (targets[place], tid): guard
            for (place, tid), guard in self.input_guards.items()
        }
        if self.bound_weights is not None:
            net.bound_weights = {
                targets[place]: weight
                for place, weight in self.bound_weights.items()
                if place in targets
            }
        net._next_tid = self._next_tid
        return net

    def prefixed_places(self, prefix: str, name: str | None = None) -> "PetriNet":
        """A copy with every place name prefixed (for disjoint unions)."""
        return self.renamed_places({p: f"{prefix}{p}" for p in self.places}, name)

    def with_fresh_tids(self, start: int) -> "PetriNet":
        """A copy whose transition ids are renumbered from ``start``."""
        net = PetriNet(self.name, self.actions, self.places, self.initial)
        old_to_new: dict[int, int] = {}
        tid = start
        for old_tid, t in sorted(self.transitions.items()):
            net.transitions[tid] = replace(t, tid=tid)
            old_to_new[old_tid] = tid
            tid += 1
        net.input_guards = {
            (place, old_to_new[old_tid]): guard
            for (place, old_tid), guard in self.input_guards.items()
        }
        net.bound_weights = self.bound_weights
        net._next_tid = tid
        return net

    # -- validation / reporting ------------------------------------------

    def validate(self) -> None:
        """Check internal consistency; raises ``ValueError`` on violation."""
        for place in self.initial:
            if place not in self.places:
                raise ValueError(f"initially marked place {place!r} not in P")
        for tid, t in self.transitions.items():
            if tid != t.tid:
                raise ValueError(f"transition {t!r} keyed under wrong id {tid}")
            if t.action not in self.actions:
                raise ValueError(f"label {t.action!r} of {t!r} not in alphabet")
            for place in t.places():
                if place not in self.places:
                    raise ValueError(f"place {place!r} of {t!r} not in P")
        for (place, tid), _ in self.input_guards.items():
            if tid not in self.transitions:
                raise ValueError(f"guard on arc to unknown transition {tid}")
            if place not in self.transitions[tid].preset:
                raise ValueError(f"guard on non-existent arc {place!r}->{tid}")

    def structurally_equal(self, other: "PetriNet") -> bool:
        """Exact structural identity: same name, alphabet, places,
        initial marking, transition relation (keyed by tid) and guards
        (compared by their textual form).

        This is the round-trip contract of the lossless formats
        (``.json``, ``.pnml``, ``.net``) — stricter than language
        equivalence, weaker than object identity.
        """
        if not isinstance(other, PetriNet):
            return NotImplemented
        return (
            self.name == other.name
            and self.actions == other.actions
            and self.places == other.places
            and self.initial == other.initial
            and {
                tid: (t.preset, t.action, t.postset)
                for tid, t in self.transitions.items()
            }
            == {
                tid: (t.preset, t.action, t.postset)
                for tid, t in other.transitions.items()
            }
            and {key: str(guard) for key, guard in self.input_guards.items()}
            == {key: str(guard) for key, guard in other.input_guards.items()}
        )

    def stats(self) -> dict[str, int]:
        """Size statistics: places, transitions, arcs, tokens."""
        return {
            "places": len(self.places),
            "transitions": len(self.transitions),
            "arcs": self.arcs(),
            "tokens": self.initial.total(),
        }

    def __repr__(self) -> str:
        return (
            f"PetriNet({self.name!r}, |P|={len(self.places)},"
            f" |T|={len(self.transitions)}, |A|={len(self.actions)})"
        )


def disjoint_pair(
    n1: PetriNet, n2: PetriNet, sep: str = "."
) -> tuple[PetriNet, PetriNet]:
    """Return copies of ``n1``/``n2`` with disjoint places and transition ids.

    The paper's binary operators all require ``P1 /\\ P2 = {}``; this helper
    establishes that precondition by prefixing colliding place names with
    the net names (or positional prefixes when the names collide too).
    """
    common = n1.places & n2.places
    if common:
        prefix1 = f"{n1.name}{sep}" if n1.name != n2.name else f"L{sep}"
        prefix2 = f"{n2.name}{sep}" if n1.name != n2.name else f"R{sep}"
        n1 = n1.prefixed_places(prefix1)
        n2 = n2.prefixed_places(prefix2)
    else:
        n1 = n1.copy()
        n2 = n2.copy()
    n2 = n2.with_fresh_tids(start=(max(n1.transitions, default=-1) + 1))
    return n1, n2
