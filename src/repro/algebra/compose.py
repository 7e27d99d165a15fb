"""Parallel composition by transition fusion (Definition 4.7, Theorem 4.5).

In a Petri net a transition already *is* a synchronization mechanism —
it fires only when all input places hold tokens.  Rendez-vous parallel
composition therefore needs no product construction: transitions of the
two nets carrying a *common* label are fused pairwise (all combinations,
since a label may occur on several transitions), everything else is kept.

``L(N1 || N2) = L(N1) || L(N2)`` — the reachability graph of the result
is the interleaved intersection of the component reachability graphs.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.obs import metrics as obs
from repro.petri.compiled import propose_union_weights
from repro.petri.net import Action, PetriNet, disjoint_pair


def parallel(
    n1: PetriNet,
    n2: PetriNet,
    synchronize_on: Iterable[Action] | None = None,
) -> PetriNet:
    """The parallel composition ``N1 || N2`` (Definition 4.7).

    Synchronization happens on the intersection of the *alphabets* — a
    label in both alphabets but with transitions in only one net yields
    no fused transition at all (that action can never happen).

    Parameters
    ----------
    synchronize_on:
        Override the synchronization set (defaults to ``A1 & A2``).
        Useful for the circuit algebra, where only shared *signals*
        synchronize.
    """
    with obs.span("algebra.parallel", left=n1.name, right=n2.name) as span:
        left, right = disjoint_pair(n1, n2)
        common = (
            set(synchronize_on)
            if synchronize_on is not None
            else left.actions & right.actions
        )
        result = fuse(left, right, common)
        span.set(
            places_before=len(n1.places) + len(n2.places),
            places_after=len(result.places),
            transitions_before=len(n1.transitions) + len(n2.transitions),
            transitions_after=len(result.transitions),
        )
        return result


def fuse(n1: PetriNet, n2: PetriNet, common: set[Action]) -> PetriNet:
    """The transition fusion of Definition 4.7 on two nets whose places
    and transition ids are already disjoint (see
    :func:`~repro.petri.net.disjoint_pair`): every transition on an
    action outside ``common`` is kept, and every pair of same-action
    transitions on an action in ``common`` becomes one transition.
    Input-arc guards follow their arcs, and the operands' token-bound
    weightings are unioned.  Unlike :func:`parallel` it emits no span,
    so a caller that spans its own composition counts it once."""
    result = PetriNet(
        f"({n1.name}||{n2.name})",
        n1.actions | n2.actions,
        n1.places | n2.places,
        n1.initial.add(
            place for place, count in n2.initial.items() for _ in range(count)
        ),
    )
    guard_sources: dict[int, list[tuple[PetriNet, int]]] = {}
    for net in (n1, n2):
        for tid, transition in sorted(net.transitions.items()):
            if transition.action not in common:
                added = result.add_transition(
                    transition.preset, transition.action, transition.postset
                )
                guard_sources[added.tid] = [(net, tid)]
    for action in sorted(common):
        for t1 in n1.transitions_with_action(action):
            for t2 in n2.transitions_with_action(action):
                fused = result.add_transition(
                    t1.preset | t2.preset, action, t1.postset | t2.postset
                )
                guard_sources[fused.tid] = [(n1, t1.tid), (n2, t2.tid)]
    # Section 5.1: boolean guards remain attached to the same arcs.
    for new_tid, origins in guard_sources.items():
        for net, old_tid in origins:
            old = net.transitions[old_tid]
            for place in old.preset:
                guard = net.guard_of(place, old_tid)
                if guard is not None:
                    result.input_guards[(place, new_tid)] = guard
    propose_union_weights(result, n1, n2)
    return result


def parallel_many(nets: Iterable[PetriNet]) -> PetriNet:
    """Left-associated n-ary parallel composition (|| is associative
    up to place naming and trace equivalence)."""
    iterator = iter(nets)
    try:
        result = next(iterator)
    except StopIteration:
        raise ValueError("parallel_many requires at least one net") from None
    for net in iterator:
        result = parallel(result, net)
    return result
