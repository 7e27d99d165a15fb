"""Hiding as generalized net contraction (Definition 4.10, Theorem 4.7).

This is the paper's key technical novelty.  Conventional approaches hide
an action by relabeling its transitions to a silent epsilon; here the
transitions are *removed from the net*, analogous to the epsilon-closure
of automata — a net contraction.

For a transition ``t = (p, a, q)`` to hide:

1. new product places ``p x q`` replace the input places ``p``
   (a token in ``p_i`` is represented by one token in *every*
   ``(p_i, q_j)`` — the token "might be considered" to already sit in
   any output place of ``t``);
2. transitions producing into / consuming from ``p`` are re-routed
   through the full row ``{p_i} x q`` (consuming a ``p_i`` token removes
   all of its copies atomically, so no spurious partial enablings of the
   contracted transition can linger — the paper's 'curved arcs');
3. every *successor* of ``t`` (a consumer of some ``q_j``) is kept (it
   may still consume real ``q`` tokens produced by other transitions)
   **and** duplicated: the duplicate consumes *all* product places
   (atomically performing the virtual firing of ``t``) plus its other
   inputs, and produces its own outputs plus the leftover outputs
   ``q \\ p'`` of the virtual firing;
4. ``t`` itself is deleted.

Transitions with ``p & q != {}`` (self-loops) would introduce divergence
(an unobservable livelock) and are rejected, as the paper assumes.

Theorem 4.7: ``L(hide(N, a)) = hide(L(N), a)`` — validated exhaustively
in the test suite, including on the paper's Figure 3 nets.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.algebra._util import product_place
from repro.obs import metrics as obs
from repro.petri.marking import Marking, Place
from repro.petri.net import Action, PetriNet, Transition


class ContractionError(ValueError):
    """A transition Definition 4.10 cannot contract: a source or sink
    transition (no input or output places to collapse) or, as the
    subclass :class:`DivergenceError`, a self-loop."""


class DivergenceError(ContractionError):
    """Hiding a self-looping transition would create unobservable livelock."""


def hide_transition(
    net: PetriNet, tid: int, fast_path: bool = True
) -> PetriNet:
    """Contract a single transition out of the net (Definition 4.10).

    With ``fast_path=True`` the simplified collapse mentioned at the end
    of Section 4.4 is used when applicable (single conflict-free input
    place and single output place): the two places are merged.
    """
    hidden = net.transitions[tid]
    if hidden.is_self_looping():
        raise DivergenceError(
            f"cannot hide self-looping transition {hidden!r} (divergence)"
        )
    if not hidden.preset or not hidden.postset:
        raise ContractionError(
            f"cannot contract {hidden!r}: source/sink transitions have no"
            " input or output places to collapse"
        )
    if fast_path and _collapsible(net, hidden):
        return _collapse(net, hidden)
    return _contract(net, hidden)


def _collapsible(net: PetriNet, hidden: Transition) -> bool:
    """The Section 4.4 special case: one conflict-free input place and
    one output place — contraction degenerates to merging the places.

    The merge rewrites ``source`` to ``target`` inside set-valued
    pre/postsets, so any other transition touching *both* places would
    silently lose an arc (a postset ``{source, target}`` denotes two
    produced tokens, the merged ``{target}`` only one); such nets must
    take the general contraction."""
    if len(hidden.preset) != 1 or len(hidden.postset) != 1:
        return False
    (source,) = hidden.preset
    (target,) = hidden.postset
    consumers = net.consumers(source)
    if len(consumers) != 1 or consumers[0].tid != hidden.tid:
        return False
    both = {source, target}
    return not any(
        both <= t.preset or both <= t.postset
        for tid, t in net.transitions.items()
        if tid != hidden.tid
    )


def _collapse(net: PetriNet, hidden: Transition) -> PetriNet:
    (source,) = hidden.preset
    (target,) = hidden.postset
    result = PetriNet(net.name, net.actions, net.places - {source}, None)
    counts = {p: c for p, c in net.initial.items() if p != source}
    if net.initial[source]:
        counts[target] = counts.get(target, 0) + net.initial[source]
    for tid, transition in net.transitions.items():
        if tid == hidden.tid:
            continue
        result.add_transition(
            frozenset(target if p == source else p for p in transition.preset),
            transition.action,
            frozenset(target if p == source else p for p in transition.postset),
            tid=tid,
        )
    result.set_initial(Marking(counts))
    result.input_guards = {
        (target if place == source else place, arc_tid): guard
        for (place, arc_tid), guard in net.input_guards.items()
        if arc_tid != hidden.tid
    }
    if net.bound_weights is not None:
        # ``w(target) <= w(source)`` (the hidden transition's own
        # constraint), so rerouting ``source``'s arcs and tokens to
        # ``target`` never raises a weighted total.
        result.bound_weights = {
            place: weight
            for place, weight in net.bound_weights.items()
            if place != source
        }
    return result


def _contract(net: PetriNet, hidden: Transition) -> PetriNet:
    preset = sorted(hidden.preset)
    postset = sorted(hidden.postset)
    result = PetriNet(net.name, set(net.actions), net.places - hidden.preset)
    pair: dict[tuple[Place, Place], Place] = {}
    for p in preset:
        for q in postset:
            name = product_place(p, q, result.places | set(pair.values()))
            pair[(p, q)] = name
            result.add_place(name)

    def remap(places: frozenset[Place]) -> frozenset[Place]:
        """H of Def 4.10 restricted to the preset: each hidden input place
        becomes its full row of product places."""
        mapped: set[Place] = set()
        for place in places:
            if place in hidden.preset:
                mapped.update(pair[(place, q)] for q in postset)
            else:
                mapped.add(place)
        return frozenset(mapped)

    all_products = frozenset(pair.values())
    guard_moves: list[tuple[tuple[Place, int], tuple[Place, int]]] = []
    for tid, transition in sorted(net.transitions.items()):
        if tid == hidden.tid:
            continue
        kept = result.add_transition(
            remap(transition.preset), transition.action, remap(transition.postset)
        )
        for place in transition.preset:
            if net.guard_of(place, tid) is not None:
                for target in (
                    [pair[(place, q)] for q in postset]
                    if place in hidden.preset
                    else [place]
                ):
                    guard_moves.append(((place, tid), (target, kept.tid)))
        if transition.preset & hidden.postset:
            # Successor of the hidden transition: the duplicate performs
            # the virtual firing of ``t`` and its own firing atomically.
            duplicate_preset = all_products | remap(
                transition.preset - hidden.postset
            )
            duplicate_postset = remap(transition.postset) | (
                hidden.postset - transition.preset
            )
            duplicate = result.add_transition(
                duplicate_preset, transition.action, duplicate_postset
            )
            # Guards of the hidden transition's input arcs propagate to
            # the product-place arcs of the duplicates (Section 5.1).
            for place in hidden.preset:
                guard = net.guard_of(place, hidden.tid)
                if guard is not None:
                    for q in postset:
                        guard_moves.append(
                            ((place, hidden.tid), (pair[(place, q)], duplicate.tid))
                        )
            for place in transition.preset - hidden.postset:
                if net.guard_of(place, tid) is not None:
                    for target in (
                        [pair[(place, q)] for q in postset]
                        if place in hidden.preset
                        else [place]
                    ):
                        guard_moves.append(((place, tid), (target, duplicate.tid)))

    counts: dict[Place, int] = {
        place: count
        for place, count in net.initial.items()
        if place not in hidden.preset
    }
    for p in preset:
        if net.initial[p]:
            for q in postset:
                counts[pair[(p, q)]] = net.initial[p]
    result.set_initial(Marking(counts))
    for (old_place, old_tid), (new_place, new_tid) in guard_moves:
        guard = net.input_guards.get((old_place, old_tid))
        if guard is not None:
            result.input_guards[(new_place, new_tid)] = guard
    weights = net.bound_weights
    if weights is not None:
        # A row ``{p} x Q`` weighs ``|Q| w(p)``, so every kept transition
        # weighs ``|Q|`` times its original.  A duplicate weighs what
        # the firing of ``t`` then its original does, unless it also
        # consumes from the hidden preset (``docs/ALGEBRA.md`` §6).
        derived = {
            place: len(postset) * weights.get(place, 0)
            for place in net.places - hidden.preset
        }
        derived.update((name, weights.get(p, 0)) for (p, _), name in pair.items())
        result.bound_weights = derived
    return result


def hide(
    net: PetriNet,
    actions: Action | Iterable[Action],
    fast_path: bool = True,
    max_steps: int = 10_000,
) -> PetriNet:
    """Hide all transitions carrying the given label(s) (Section 4.4).

    Transitions are contracted one at a time; Proposition 4.6 guarantees
    the result is independent of the order.  The labels are removed from
    the alphabet.  ``max_steps`` guards against pathological growth when
    same-label transitions are chained (each contraction can duplicate
    successors, which may themselves carry a hidden label).

    Before every contraction but the first, places with identical
    producers, consumers and initial marking are merged
    (:func:`~repro.algebra.dead.merge_duplicate_places`): each
    contraction multiplies product places, and without the merge a
    signal with a few dozen transitions grows the net by orders of
    magnitude.  A single contraction still returns Definition 4.10's
    construction as is.
    """
    labels = {actions} if isinstance(actions, str) else set(actions)
    with obs.span("algebra.hide", net=net.name, labels=sorted(labels)) as span:
        from repro.algebra.dead import merge_duplicate_places
        from repro.cache import derived

        cached = derived.lookup(
            "hide",
            [net],
            labels=sorted(labels),
            fast_path=bool(fast_path),
            max_steps=max_steps,
            merge_duplicates=True,
        )
        if cached is not None:
            span.set(
                cached=True,
                places_before=len(net.places),
                places_after=len(cached.places),
                transitions_before=len(net.transitions),
                transitions_after=len(cached.transitions),
            )
            return cached
        result = net.copy()
        steps = 0
        contracted = False
        while True:
            candidates = [
                t
                for _, t in sorted(result.transitions.items())
                if t.action in labels
            ]
            if not candidates:
                break
            steps += 1
            if steps > max_steps:
                raise RuntimeError(
                    f"hide({sorted(labels)}) did not converge in {max_steps} steps"
                )
            target = candidates[0]
            if target.preset == target.postset:
                # A hidden transition whose firing provably changes nothing
                # (preset equals postset) is an unobservable no-op; deleting
                # it preserves the visible language.  Such loops arise when
                # contracting one direction of an internal up/down pair.
                result.remove_transition(target.tid)
                continue
            if contracted:
                # Merged places share producers and consumers, so the
                # merge never turns the target into a self-loop.
                result = merge_duplicate_places(result)
            result = hide_transition(result, target.tid, fast_path=fast_path)
            contracted = True
        result.actions -= labels
        result.name = f"hide({net.name})"
        obs.count("algebra.hide.contractions", steps)
        span.set(
            contractions=steps,
            places_before=len(net.places),
            places_after=len(result.places),
            transitions_before=len(net.transitions),
            transitions_after=len(result.transitions),
        )
        derived.publish(
            "hide",
            [net],
            result,
            labels=sorted(labels),
            fast_path=bool(fast_path),
            max_steps=max_steps,
            merge_duplicates=True,
        )
        return result


def hide_to_epsilon(net: PetriNet, actions: Action | Iterable[Action]) -> PetriNet:
    """The paper's ``hide'`` refinement (Section 5.3): relabel instead of
    contract, leaving dummy epsilon transitions in place.

    Receptiveness checking must not lose the information of whether
    synchronization transitions are reached via internal transitions;
    ``hide'`` keeps one epsilon transition where ``hide`` would contract.
    """
    from repro.algebra.operators import rename
    from repro.petri.net import EPSILON

    labels = {actions} if isinstance(actions, str) else set(actions)
    result = rename(net, {label: EPSILON for label in labels})
    result.name = f"hide'({net.name})"
    return result
