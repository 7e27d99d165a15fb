"""Compiled integer-indexed net core: packed markings, precomputed firing.

Every exploration engine in this package ultimately asks the same three
questions millions of times: *which transitions are enabled here*,
*what is the successor marking*, and *have we seen it before*.  Answering
them over string-keyed :class:`~repro.petri.marking.Marking` dicts means
re-hashing a frozenset of ``(place, count)`` pairs per state and chasing
string keys per firing.  Mature net tools (cf. the dense safe-net
encodings of Khomenko et al., PAPERS.md) instead lower the net once to a
dense integer form and explore in that domain.  This module is that
lowering:

* :func:`compile_net` / :class:`CompiledNet` — places get dense indices
  ``0..P-1``, transitions dense indices ``0..T-1`` (in tid order, so
  exploration follows the transition relation in tid order).  Each
  transition carries ``(pre, consume, produce)`` index tuples and the
  list of transitions its firing *affects* (those whose preset meets a
  place it changes); each place carries its consumer adjacency.  All of
  it is computed once at compile time.

* The ``bits`` codec, for every net whose token bound compilation
  certifies.  A marking is one Python int: place ``i`` owns the
  ``field_bits = bound.bit_length() + 1`` bits from bit
  ``i * field_bits`` up, and the top bit of each field is a guard bit
  that no reachable count sets.  Firing ``t`` is one addition,
  ``state + delta[t]``.  "Every place of this set is marked" is one
  probe, ``(state + add) & guard == guard``: ``add`` puts
  ``2**(field_bits - 1) - 1`` into each field, so a field carries into
  its guard bit exactly when its count is non-zero, and ``guard`` holds
  the guard bits of the set.  One addition serves every set: the marked
  mask ``(state + add) & all_guards`` is computed once per state and
  each set is then tested with a mask compare.  A firing re-tests only
  the transitions it affects; the rest of the enabled set carries over.

* The ``wide`` codec, for nets without a certified bound: a ``tuple``
  of counts, with per-state deficit counters (``deficits[t]`` is the
  number of empty preset places of ``t``, enabled iff 0) updated only
  for the consumers of places that became empty or became marked.

* :class:`CompiledSpace` — the one exploration core of this package:
  demand-driven discovery over packed states with the ``max_states``
  budget, the Karp-Miller covering walk and the stubborn-set reduction.
  :class:`~repro.petri.product.LazyStateSpace` wraps it with a
  :class:`Marking`-domain API, and
  :class:`~repro.petri.reachability.ReachabilityGraph` is an
  index-based graph materialised from an exhausted one; states are
  decoded back to :class:`Marking` only at those API boundaries.

Every reader of packed states besides the core itself (the Prop 5.5
predicates, :class:`PackedMarkingView`, the reachability graph's
queries, the sharded explorer) goes through the codec methods of
:class:`CompiledNet` — :meth:`~CompiledNet.marked_mask` with
:meth:`~CompiledNet.place_mask`, :meth:`~CompiledNet.count`,
:meth:`~CompiledNet.marked_indices`, :meth:`~CompiledNet.covers`,
:meth:`~CompiledNet.max_count`, :meth:`~CompiledNet.decode` — never
through the representation.

The codec choice is sound, never heuristic: ``bits`` is used when the
net is token-conservative (no firing increases the total count, so the
initial total bounds every count), or when a place weighting under
which no firing increases the weighted total, checked in exact
integers, bounds every place count.  Fork/join nets from the
rendez-vous composition are not conservative but almost always admit
such a weighting: a composite inherits the union of its operands'
weightings (:func:`propose_union_weights`), and a net with no usable
proposal gets one from the pure-Python :func:`search_weights`.
Anything else takes ``wide``, which has no count limit.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping
from itertools import islice
from typing import Union

from repro.obs import metrics as obs
from repro.petri.dfs import StackProvisoDfs
from repro.petri.marking import Marking, Place
from repro.petri.net import PetriNet
from repro.petri.reachability import UnboundedNetError

#: A packed marking: one int under the ``bits`` codec, a token-count
#: tuple indexed by dense place index under ``wide``.
PackedState = Union[int, "tuple[int, ...]"]

#: Per-state deficit counters, indexed by dense transition index — the
#: ``wide`` codec's enabledness bookkeeping; ``None`` under ``bits``.
Deficits = Union["tuple[int, ...]", None]

#: Net sizes for which a weighted certificate (an inherited proposal,
#: then the search) is attempted when the cheap conservative test fails.
#: Below the lower bound the wide codec costs nothing measurable (and
#: property-based tests compile thousands of tiny nets); above the upper
#: bound the search itself would dominate.
_WEIGHTED_MIN_PLACES = 16
_WEIGHTED_MAX_PLACES = 4096

#: Raises :func:`search_weights` may make per arc of the net before it
#: gives up.
_RAISES_PER_ARC = 16


def checked_token_bound(
    net: PetriNet, weights: Mapping[Place, int] | None
) -> int | None:
    """The token bound a place weighting certifies, checked in exact
    integers, or ``None`` when it certifies none.

    ``weights`` must give every place of the net an integer weight
    ``w >= 1`` (other keys are ignored) under which no transition
    increases the weighted total, ``w . produce <= w . consume``.  Then
    ``w . M`` never exceeds ``w . M0``, so no reachable count exceeds
    ``floor(w . M0 / min w)``, which is the bound returned.
    """
    if weights is None:
        return None
    for place in net.places:
        weight = weights.get(place)
        if not isinstance(weight, int) or weight < 1:
            return None
    for transition in net.sorted_transitions():
        if sum(weights[p] for p in transition.produce) > sum(
            weights[p] for p in transition.consume
        ):
            return None
    total = sum(weights[place] * count for place, count in net.initial.items())
    return total // min((weights[place] for place in net.places), default=1)


def search_weights(net: PetriNet) -> dict[Place, int] | None:
    """Integer place weights under which no transition increases the
    weighted total, found by local repair, or ``None``.

    Every place starts at weight 1.  A last-in, first-out worklist takes
    each transition whose produced weight exceeds its consumed weight
    and adds the excess to its lightest consumed place (ties broken by
    name).  That repairs the transition and can only break the
    transitions producing into the raised place, which are queued
    again.  A transition that produces without consuming cannot be
    repaired, and after ``_RAISES_PER_ARC`` raises per arc the search
    gives up: either way it proposes nothing.  Nothing here is trusted:
    :func:`checked_token_bound` checks the answer.
    """
    places = sorted(net.places)
    index = {place: i for i, place in enumerate(places)}
    transitions = net.sorted_transitions()
    consume = [[index[p] for p in t.consume] for t in transitions]
    produce = [[index[p] for p in t.produce] for t in transitions]
    producers: list[list[int]] = [[] for _ in places]
    for dense, produced in enumerate(produce):
        for i in produced:
            producers[i].append(dense)
    weight = [1] * len(places)
    raises = _RAISES_PER_ARC * net.arcs()
    stack = list(range(len(transitions)))
    queued = [True] * len(transitions)
    while stack:
        dense = stack.pop()
        queued[dense] = False
        consumed = consume[dense]
        excess = sum(weight[i] for i in produce[dense]) - sum(
            weight[i] for i in consumed
        )
        if excess <= 0:
            continue
        if not consumed or not raises:
            return None
        raises -= 1
        lightest = min(consumed, key=lambda i: (weight[i], i))
        weight[lightest] += excess
        for producer in producers[lightest]:
            if not queued[producer]:
                queued[producer] = True
                stack.append(producer)
    return dict(zip(places, weight))


def propose_union_weights(composite: PetriNet, *operands: PetriNet) -> None:
    """Propose the union of the operands' weightings as the token-bound
    weighting of their parallel composition (``docs/ALGEBRA.md`` §6).

    The operands' place sets are disjoint, and a fused transition
    consumes and produces exactly what its halves do, so its produced
    and consumed weights are the sums of its two halves': the union
    passes :func:`checked_token_bound` whenever each operand's
    weighting does.  An operand whose own proposal fails that check is
    searched (:func:`search_weights`); if that finds nothing either,
    the composite gets no proposal and compilation searches it whole.
    """
    union: dict[Place, int] = {}
    for operand in operands:
        weights = operand.bound_weights
        if checked_token_bound(operand, weights) is None:
            weights = search_weights(operand)
            if checked_token_bound(operand, weights) is None:
                return
        union.update((place, weights[place]) for place in operand.places)
    composite.bound_weights = union


class CompiledNet:
    """The integer-indexed form of one :class:`PetriNet`.

    Immutable once built; obtained via :meth:`PetriNet.compiled` (which
    caches it and invalidates the cache on net mutation).  All arrays
    are indexed by dense place index ``0..P-1`` (places in sorted name
    order) or dense transition index ``0..T-1`` (transitions in tid
    order — which is what makes every exploration visit states in tid
    order of the firing transition).  ``codec`` is ``"bits"`` exactly
    when ``token_bound`` is certified (see the module docstring).
    """

    __slots__ = (
        "net",
        "place_names",
        "place_index",
        "tids",
        "tid_index",
        "transitions",
        "actions",
        "pre",
        "consume",
        "produce",
        "consumers",
        "affected",
        "codec",
        "token_bound",
        "bounded_certified",
        "field_bits",
        "num_places",
        "num_transitions",
        "delta",
        "pre_masks",
        "_affected_sets",
        "_ones",
        "_guards",
        "_fill",
        "initial_state",
        "initial_deficits",
        "initial_enabled",
    )

    def __init__(
        self,
        net: PetriNet,
        place_names: tuple[Place, ...],
        token_bound: int | None,
    ):
        self.net = net
        self.place_names = place_names
        self.place_index = {place: i for i, place in enumerate(place_names)}
        self.token_bound = token_bound
        #: ``token_bound`` comes from a sound non-increasing weighted
        #: total (conservation or an exact-checked place weighting).  Under
        #: such a certificate no reachable marking can strictly cover an
        #: ancestor (a strict cover has a strictly larger weighted
        #: total), so the Karp-Miller covering walk is provably a no-op
        #: and the explorers skip it.
        self.bounded_certified = token_bound is not None
        self.codec = "bits" if self.bounded_certified else "wide"
        #: Bits per place under ``bits`` (guard bit included), 0 under
        #: ``wide``.
        self.field_bits = (
            token_bound.bit_length() + 1 if token_bound is not None else 0
        )
        self.num_places = len(place_names)
        transitions = net.sorted_transitions()
        self.transitions = transitions
        self.num_transitions = len(transitions)
        self.tids = tuple(t.tid for t in transitions)
        self.tid_index = {tid: d for d, tid in enumerate(self.tids)}
        self.actions = tuple(t.action for t in transitions)
        index = self.place_index
        self.pre = tuple(
            tuple(sorted(index[p] for p in t.preset)) for t in transitions
        )
        self.consume = tuple(
            tuple(sorted(index[p] for p in t.consume)) for t in transitions
        )
        self.produce = tuple(
            tuple(sorted(index[p] for p in t.produce)) for t in transitions
        )
        consumers: list[list[int]] = [[] for _ in place_names]
        for dense, places in enumerate(self.pre):
            for i in places:
                consumers[i].append(dense)
        self.consumers = tuple(tuple(adj) for adj in consumers)
        self.affected = tuple(
            tuple(
                sorted(
                    {t for i in consume + produce for t in self.consumers[i]}
                )
            )
            for consume, produce in zip(self.consume, self.produce)
        )
        self.lower()
        self.initial_state = self.encode(net.initial)
        self.initial_deficits, self.initial_enabled = self.analyze_state(
            self.initial_state
        )

    def lower(self) -> None:
        """Derive the ``bits`` tables (firing deltas, preset masks) from
        the index tuples; a no-op under ``wide``.  Separate from the
        constructor so a copy rebuilt from plain tuples (the sharded
        explorer's workers) can derive them too."""
        w = self.field_bits
        if not w:
            self.delta = self.pre_masks = self._affected_sets = None
            self._ones = self._guards = self._fill = 0
            return
        self._affected_sets = tuple(frozenset(a) for a in self.affected)
        #: A 1 at the bottom of every field (a repunit in base ``2**w``).
        self._ones = ((1 << (w * self.num_places)) - 1) // ((1 << w) - 1)
        self._guards = self._ones << (w - 1)
        #: ``2**(w - 1) - 1`` in every field: the ``add`` of the probe
        #: over every place.
        self._fill = self._guards - self._ones
        self.delta = tuple(
            sum(1 << (i * w) for i in produce) - sum(1 << (i * w) for i in consume)
            for consume, produce in zip(self.consume, self.produce)
        )
        self.pre_masks = tuple(self.place_mask(pre) for pre in self.pre)

    # -- state codec -------------------------------------------------------

    def encode(self, marking: Marking | Mapping[Place, int]) -> PackedState:
        """Pack a marking.

        Raises ``KeyError`` for places the net does not have and, under
        ``bits``, ``ValueError`` for counts above the certified bound.
        """
        index = self.place_index
        w = self.field_bits
        if w:
            bound = self.token_bound
            state = 0
            for place, count in marking.items():
                i = index[place]
                if count > bound:
                    raise ValueError(
                        f"{count} tokens on {place!r} exceed the certified"
                        f" bound {bound} of {self.net.name!r}"
                    )
                state |= count << (i * w)
            return state
        counts = [0] * self.num_places
        for place, count in marking.items():
            counts[index[place]] = count
        return tuple(counts)

    def decode(self, state: PackedState) -> Marking:
        """Unpack a packed state back into a :class:`Marking`."""
        names = self.place_names
        w = self.field_bits
        if w:
            mask = (1 << w) - 1
            return Marking._fresh(
                {
                    names[i]: (state >> (i * w)) & mask
                    for i in self.marked_indices(state)
                }
            )
        return Marking._fresh(
            {names[i]: count for i, count in enumerate(state) if count}
        )

    def count(self, state: PackedState, i: int) -> int:
        """The token count of place ``i`` in a packed state."""
        w = self.field_bits
        if w:
            return (state >> (i * w)) & ((1 << w) - 1)
        return state[i]

    def counts(self, state: PackedState) -> tuple[int, ...]:
        """Every place's token count, in dense place order."""
        if self.field_bits:
            return tuple(self.count(state, i) for i in range(self.num_places))
        return state

    def marked_mask(self, state: PackedState) -> int:
        """The marked places of a packed state as one int, one bit per
        place at the position :meth:`place_mask` gives it.  Under
        ``bits`` it is a single probe over every field (the guard bits
        that come out set are those of the marked places); under
        ``wide``, one pass over the counts."""
        if self.field_bits:
            return (state + self._fill) & self._guards
        return sum(1 << i for i, count in enumerate(state) if count)

    def place_mask(self, indices: Iterable[int]) -> int:
        """The bits of :meth:`marked_mask` that stand for ``indices``:
        every place of the set is marked in ``state`` iff
        ``marked_mask(state) & mask == mask``."""
        w = self.field_bits
        mask = 0
        for i in indices:
            mask |= 1 << (i * w + w - 1) if w else 1 << i
        return mask

    def marked_indices(self, state: PackedState) -> list[int]:
        """Dense indices of the marked places, ascending."""
        if not self.field_bits:
            return [i for i, count in enumerate(state) if count]
        return self.mask_indices((state + self._fill) & self._guards)

    def mask_indices(self, mask: int) -> list[int]:
        """Dense indices of the places set in a mask laid out as by
        :meth:`place_mask`, ascending."""
        stride = self.field_bits or 1
        indices = []
        while mask:
            low = mask & -mask
            indices.append(low.bit_length() // stride - 1)
            mask ^= low
        return indices

    def covers(self, state: PackedState, other: PackedState) -> bool:
        """Strict covering (the Karp-Miller test): componentwise ``>=``
        and not equal."""
        if state == other:
            return False
        if self.field_bits:
            # Setting every guard bit before subtracting keeps each
            # field's borrow inside it; the guard survives iff the
            # field of ``state`` is at least that of ``other``.
            guards = self._guards
            return ((state | guards) - other) & guards == guards
        for mine, theirs in zip(state, other):
            if mine < theirs:
                return False
        return True

    def max_count(self, states: Iterable[PackedState]) -> int:
        """The largest token count of any place over ``states``."""
        w = self.field_bits
        if not w:
            return max((max(state) for state in states if state), default=0)
        ones, guards = self._ones, self._guards
        half = 1 << (w - 1)
        best = 0
        # ``(state + (half - k) * ones) & guards`` is non-zero iff some
        # field of ``state`` holds at least ``k`` tokens.
        at_least = (half - 1) * ones
        for state in states:
            while (state + at_least) & guards:
                best += 1
                if best == self.token_bound:
                    return best
                at_least = (half - best - 1) * ones
        return best

    # -- enabledness -------------------------------------------------------

    def analyze_state(
        self, state: PackedState
    ) -> tuple[Deficits, tuple[int, ...]]:
        """Full scan of one state: ``(deficits, enabled)`` where
        ``enabled`` lists the enabled dense indices, ascending, and
        ``deficits[t]`` counts the empty preset places of transition
        ``t`` (``None`` under ``bits``).  Used once per exploration (for
        the initial state); everything after is derived incrementally
        by :meth:`derive`.
        """
        if self.field_bits:
            marked = (state + self._fill) & self._guards
            return None, tuple(
                dense
                for dense, mask in enumerate(self.pre_masks)
                if marked & mask == mask
            )
        deficits = [0] * self.num_transitions
        enabled: list[int] = []
        for dense, places in enumerate(self.pre):
            deficit = 0
            for i in places:
                if not state[i]:
                    deficit += 1
            deficits[dense] = deficit
            if not deficit:
                enabled.append(dense)
        return tuple(deficits), tuple(enabled)

    def is_enabled(self, dense: int, state: PackedState) -> bool:
        """Direct enabledness of one transition in one packed state."""
        if self.field_bits:
            mask = self.pre_masks[dense]
            return (state + self._fill) & mask == mask
        for i in self.pre[dense]:
            if not state[i]:
                return False
        return True

    # -- firing ------------------------------------------------------------

    def fire(self, state: PackedState, dense: int) -> PackedState:
        """The successor state alone (no enabledness bookkeeping) — for
        probes like the ignoring-prevention proviso that discard the
        result.  The transition must be enabled in ``state``.
        """
        if self.field_bits:
            return state + self.delta[dense]
        consume = self.consume[dense]
        produce = self.produce[dense]
        if not consume and not produce:
            return state
        vec = list(state)
        for i in consume:
            vec[i] -= 1
        for i in produce:
            vec[i] += 1
        return tuple(vec)

    def derive(
        self,
        child: PackedState,
        deficits: Deficits,
        enabled: tuple[int, ...],
        dense: int,
    ) -> tuple[Deficits, tuple[int, ...], int]:
        """The enabled set (and, under ``wide``, the deficit counters) of
        ``child = fire(state, dense)``, derived incrementally from those
        of ``state``: the second half of :meth:`successor`.

        Returns ``(child_deficits, child_enabled, checked)`` where
        ``checked`` counts the transitions whose enabledness was
        re-derived: the affected transitions of ``dense`` under
        ``bits``, the consumers of places that became empty or became
        marked under ``wide`` (consumed and produced places are
        disjoint, so the child's counts tell which).
        """
        if self.field_bits:
            affected = self.affected[dense]
            if not affected:
                return None, enabled, 0
            marked = (child + self._fill) & self._guards
            pre_masks = self.pre_masks
            skip = self._affected_sets[dense]
            merged = [t for t in enabled if t not in skip]
            for t in affected:
                mask = pre_masks[t]
                if marked & mask == mask:
                    merged.append(t)
            merged.sort()
            return None, tuple(merged), len(affected)
        newly_empty = [i for i in self.consume[dense] if not child[i]]
        newly_marked = [i for i in self.produce[dense] if child[i] == 1]
        if not newly_empty and not newly_marked:
            return deficits, enabled, 0
        consumers = self.consumers
        affected: set[int] = set()
        child_deficits = list(deficits)
        for i in newly_empty:
            for t in consumers[i]:
                child_deficits[t] += 1
                affected.add(t)
        for i in newly_marked:
            for t in consumers[i]:
                child_deficits[t] -= 1
                affected.add(t)
        if not affected:
            return deficits, enabled, 0
        merged = [t for t in enabled if t not in affected]
        merged.extend(t for t in affected if not child_deficits[t])
        merged.sort()
        return tuple(child_deficits), tuple(merged), len(affected)

    def successor(
        self,
        state: PackedState,
        deficits: Deficits,
        enabled: tuple[int, ...],
        dense: int,
    ) -> tuple[PackedState, Deficits, tuple[int, ...], int]:
        """Both halves of one step: :meth:`fire` ``dense`` (enabled in
        ``state``), then :meth:`derive` the child's enabled set.

        Returns ``(child, child_deficits, child_enabled, checked)``.
        For a caller that derives on every edge (the sharded explorer's
        kernel); :class:`CompiledSpace` calls the halves apart, so that
        only a child that turns out to be new pays for the derivation.
        """
        child = self.fire(state, dense)
        return (child, *self.derive(child, deficits, enabled, dense))

    def __repr__(self) -> str:
        return (
            f"CompiledNet({self.net.name!r}, |P|={self.num_places},"
            f" |T|={self.num_transitions}, codec={self.codec!r})"
        )


def compile_net(net: PetriNet) -> CompiledNet:
    """Lower a net to its integer-indexed form (see :class:`CompiledNet`).

    The token bound is certified by the first of: conservation (every
    weight 1); the net's proposed weighting ``net.bound_weights``, as
    the algebra operators derive it from their operands'
    (``inherited``); the weighting :func:`search_weights` finds
    (``search``).  The last two are tried only on nets of
    ``_WEIGHTED_MIN_PLACES``..``_WEIGHTED_MAX_PLACES`` places and 1 to
    ``2 * _WEIGHTED_MAX_PLACES`` transitions, and both pass
    :func:`checked_token_bound` or are discarded; a net none of them
    certifies takes the ``wide`` codec.  The certifying weighting
    becomes the net's proposal, for the nets derived from it.

    Emits ``compile.net`` span and ``compile.*`` gauges to the active
    obs recorders: compile wall time, chosen codec and field width, the
    certificate, the per-state encode width in bytes and the proven
    token bound (when any).
    """
    with obs.span("compile.net", net=net.name) as span:
        place_order = tuple(sorted(net.places))
        transitions = net.sorted_transitions()
        weights: Mapping[Place, int] | None = None
        bound: int | None = None
        certificate = "none"
        if all(len(t.produce) <= len(t.consume) for t in transitions):
            certificate = "conservation"
            weights = dict.fromkeys(place_order, 1)
            bound = net.initial.total()
        elif (
            _WEIGHTED_MIN_PLACES <= len(place_order) <= _WEIGHTED_MAX_PLACES
            and 0 < len(transitions) <= 2 * _WEIGHTED_MAX_PLACES
        ):
            bound = checked_token_bound(net, net.bound_weights)
            if bound is not None:
                certificate, weights = "inherited", net.bound_weights
            else:
                weights = search_weights(net)
                bound = checked_token_bound(net, weights)
                if bound is not None:
                    certificate = "search"
        if bound is not None:
            net.bound_weights = weights
        compiled = CompiledNet(net, place_order, bound)
        span.set(
            places=compiled.num_places,
            transitions=compiled.num_transitions,
            codec=compiled.codec,
            field_bits=compiled.field_bits,
            token_bound=bound if bound is not None else -1,
            certificate=certificate,
        )
    obs.count("compile.nets")
    width = (
        math.ceil(compiled.num_places * compiled.field_bits / 8)
        if compiled.field_bits
        else 8 * compiled.num_places  # nominal: one machine word per place
    )
    obs.gauge("compile.encode_width_bytes", width)
    return compiled


class PackedMarkingView(Mapping[Place, int]):
    """Read-only place -> count view of one packed state.

    Just enough of the :class:`Marking` mapping surface for code written
    against markings — in particular the stubborn selector's scapegoat
    choice (``marking[place] > 0``) — to run unchanged on packed states.
    """

    __slots__ = ("_cnet", "_state")

    def __init__(self, cnet: CompiledNet, state: PackedState):
        self._cnet = cnet
        self._state = state

    def __getitem__(self, place: Place) -> int:
        index = self._cnet.place_index.get(place)
        return 0 if index is None else self._cnet.count(self._state, index)

    def __iter__(self):
        names = self._cnet.place_names
        return iter([names[i] for i in self._cnet.marked_indices(self._state)])

    def __len__(self) -> int:
        return len(self._cnet.marked_indices(self._state))


class CompiledSpace:
    """Demand-driven exploration over packed states — the one
    exploration core behind every serial engine.

    :class:`~repro.petri.product.LazyStateSpace` owns one of these and
    translates at its :class:`Marking`-domain API boundary.  Two ways
    drive it: :meth:`successors`, which memoises each row for callers
    that revisit states, and :meth:`walk`, the breadth-first walk that
    keeps no rows, under the Prop 5.5 search and the
    :class:`~repro.petri.reachability.ReachabilityGraph` build.
    Discovery order (breadth-first, children in tid
    order), memoisation, interner-hit accounting, the ``max_states``
    budget, the Karp-Miller covering walk (with witnesses decoded into
    the error) and the stubborn-set reduction decisions live here and
    only here; ``tests/oracle.py`` is the naive reference they are
    checked against.
    """

    __slots__ = (
        "cnet",
        "max_states",
        "stats",
        "initial",
        "proviso",
        "_check_covering",
        "_selector",
        "_parent",
        "_info",
        "_succ",
        "_dfs",
    )

    def __init__(
        self,
        cnet: CompiledNet,
        max_states: int,
        stats,
        selector=None,
        proviso: str | None = None,
    ):
        self.cnet = cnet
        self.max_states = max_states
        self.stats = stats
        self.proviso = proviso
        self._check_covering = not cnet.bounded_certified
        self._selector = selector
        self.initial = cnet.initial_state
        #: state -> (parent state, dense transition index) | None; doubles
        #: as the visited set (insertion order == discovery order).
        self._parent: dict[PackedState, tuple[PackedState, int] | None] = {
            self.initial: None
        }
        #: Per-state (deficits, enabled); dropped once a state is expanded
        #: — except under the stack proviso, whose DFS driver re-reads the
        #: enabled set of finished states on re-walks and wakes.
        self._info: dict[PackedState, tuple[Deficits, tuple[int, ...]]] = {
            self.initial: (cnet.initial_deficits, cnet.initial_enabled)
        }
        self._succ: dict[PackedState, tuple[tuple[str, int, PackedState], ...]] = {}
        self._dfs: StackProvisoDfs | None = None
        if selector is not None and proviso == "stack":
            self._dfs = StackProvisoDfs(self, selector, stats)

    # -- expansion ---------------------------------------------------------

    def _discover(
        self,
        parent: PackedState,
        deficits: Deficits,
        enabled: tuple[int, ...],
        dense: int,
    ) -> PackedState:
        """Fire ``dense`` from ``parent`` and intern the child.  The
        child's enabled set is derived (from ``parent``'s ``deficits``
        and ``enabled``) only when the child is new: an interner hit
        costs one firing and one lookup."""
        cnet = self.cnet
        child = cnet.fire(parent, dense)
        stats = self.stats
        parents = self._parent
        if child in parents:
            stats.interner_hits += 1
            return child
        if len(parents) >= self.max_states:
            reduced = (
                " (partial-order reduction active: the bound counts"
                " states of the reduced space)"
                if self._selector is not None
                else ""
            )
            decoded = cnet.decode(child)
            raise UnboundedNetError(
                f"more than {self.max_states} reachable states in"
                f" {cnet.net.name!r}; net may be unbounded{reduced}",
                witness=decoded,
                bound=self.max_states,
                frontier=decoded,
            )
        parents[child] = (parent, dense)
        child_deficits, child_enabled, checked = cnet.derive(
            child, deficits, enabled, dense
        )
        stats.enabledness_checks += checked
        self._info[child] = (child_deficits, child_enabled)
        stats.states += 1
        if self._check_covering:
            covers = cnet.covers
            cursor: PackedState | None = parent
            while cursor is not None:
                if covers(child, cursor):
                    decoded = cnet.decode(child)
                    raise UnboundedNetError(
                        f"net {cnet.net.name!r} is unbounded:"
                        f" {decoded!r} strictly covers ancestor"
                        f" {cnet.decode(cursor)!r}",
                        witness=decoded,
                        frontier=decoded,
                    )
                link = parents[cursor]
                cursor = link[0] if link is not None else None
        return child

    def _all_targets_fresh(
        self, state: PackedState, dense_set: tuple[int, ...]
    ) -> bool:
        """Ignoring-prevention proviso: a reduced expansion is accepted
        only if every reduced successor is a *new* state.  Any cycle of
        the reduced graph therefore contains a fully expanded state (its
        last-expanded state sees an already-discovered successor), so no
        enabled transition can be postponed forever."""
        fire = self.cnet.fire
        parents = self._parent
        for dense in dense_set:
            if fire(state, dense) in parents:
                return False
        return True

    def successors(
        self, state: PackedState
    ) -> tuple[tuple[str, int, PackedState], ...]:
        """Outgoing edges as ``(action, tid, target)`` triples, computed
        on first request and memoised, including the stubborn-set
        reduction.  A state that :meth:`walk` expanded has no row to
        serve: it raises the ``KeyError`` of :meth:`expand`."""
        cached = self._succ.get(state)
        if cached is not None:
            return cached
        if self._dfs is not None:
            self.ensure_explored()
            result = self._dfs.successor_edges(state)
        else:
            actions = self.cnet.actions
            tids = self.cnet.tids
            result = tuple(
                (actions[dense], tids[dense], target)
                for dense, target in self.expand(state)
            )
        self._succ[state] = result
        return result

    def expand(self, state: PackedState) -> list[tuple[int, PackedState]]:
        """Discover the successors of one discovered, not yet expanded
        state and return its edge row as ``(dense, target)`` pairs
        *without* memoising it (:meth:`successors` is the memoising
        entry point).  Not for stack-proviso spaces, whose DFS walk owns
        expansion.

        Raises ``KeyError`` for a state that was already expanded
        without a memo, by :meth:`walk`: its row was dropped, and under
        the ``fresh`` proviso it cannot be derived again, because the
        reduction chose it by which states were discovered at the time.
        """
        info = self._info.get(state)
        if info is None:
            raise KeyError(
                f"no successor row for {state!r}: it was expanded without"
                " a memo, or never discovered"
            )
        deficits, enabled = info
        cnet = self.cnet
        expand = enabled
        selector = self._selector
        if selector is not None and len(enabled) > 1:
            tids = cnet.tids
            reduced = selector.reduced_enabled(
                PackedMarkingView(cnet, state),
                tuple(tids[dense] for dense in enabled),
            )
            if reduced is not None:
                tid_index = cnet.tid_index
                dense_set = tuple(tid_index[tid] for tid in reduced)
                if self._all_targets_fresh(state, dense_set):
                    expand = dense_set
                    self.stats.reduced_states += 1
        discover = self._discover
        row = [
            (dense, discover(state, deficits, enabled, dense))
            for dense in expand
        ]
        del self._info[state]
        self.stats.edges += len(row)
        return row

    def walk(
        self, on_row: Callable[[list], None] | None = None
    ) -> Iterator[tuple[int, PackedState]]:
        """Breadth-first exploration that keeps no successor rows.

        Expands every discovered state once, in discovery order, through
        :meth:`expand`, and yields ``(dense, state)`` for each state as
        it is discovered, ``dense`` being the transition on its
        discovery-parent link (``-1`` for the initial state).  The
        order, the counts and the budget are those of :meth:`successors`
        driven breadth-first (``LazyStateSpace.iter_raw``), and so is
        ``stats.frontier_peak``, the most states discovered but not yet
        expanded at any yield.  Each expansion's ``(dense, target)`` row
        goes to ``on_row`` when one is given, right after the expansion
        and before the states it discovered are yielded (the
        :class:`~repro.petri.reachability.ReachabilityGraph` build
        indexes it there), and is then dropped: :meth:`successors`
        cannot serve the states the walk expanded.  Needs a space
        nothing has expanded yet, and not a stack-proviso one.
        """
        if self._dfs is not None:
            raise ValueError(
                "a stack-proviso space is explored by its depth-first"
                " search, not breadth-first"
            )
        stats = self.stats
        parents = self._parent
        expand = self.expand
        queue = deque([self.initial])
        yield -1, self.initial
        while queue:
            known = len(parents)
            row = expand(queue.popleft())
            if on_row is not None:
                on_row(row)
            fresh = len(parents) - known
            if not fresh:
                continue
            # ``_parent`` only grows, in discovery order: the expansion's
            # new states are its last ``fresh`` entries.
            for child, (_, dense) in reversed(
                list(islice(reversed(parents.items()), fresh))
            ):
                queue.append(child)
                if len(queue) > stats.frontier_peak:
                    stats.frontier_peak = len(queue)
                yield dense, child

    # -- traversal ---------------------------------------------------------

    def ensure_explored(self) -> None:
        """Force the stack-proviso DFS to completion (no-op when the
        exploration is not stack-driven)."""
        if self._dfs is not None:
            self._dfs.run_to_completion()

    def iter_dfs(self):
        """Packed states in depth-first discovery order: the streaming
        walk of the stack-proviso driver when one is active, otherwise a
        plain depth-first traversal over :meth:`successors`."""
        if self._dfs is not None:
            yield from self._dfs.iterate()
            return
        yield self.initial
        seen = {self.initial}
        stack = [iter(self.successors(self.initial))]
        while stack:
            for _, _, target in stack[-1]:
                if target not in seen:
                    seen.add(target)
                    yield target
                    stack.append(iter(self.successors(target)))
                    break
            else:
                stack.pop()

    # -- queries -----------------------------------------------------------

    def num_states(self) -> int:
        return len(self._parent)

    def discovered(self, state: PackedState) -> bool:
        return state in self._parent

    def trace_to(self, state: PackedState) -> tuple[tuple[int, str], ...]:
        """A firable ``(tid, action)`` path from the initial state to a
        discovered state, via the discovery-parent pointers."""
        cnet = self.cnet
        steps: list[tuple[int, str]] = []
        cursor = state
        while True:
            link = self._parent[cursor]
            if link is None:
                break
            parent, dense = link
            steps.append((cnet.tids[dense], cnet.actions[dense]))
            cursor = parent
        return tuple(reversed(steps))
