"""Behaviour-preserving net reductions.

The algebra's derived nets (compositions, contractions, expansions)
accumulate epsilon dummies and redundant structure.  This module
provides classical language-preserving reductions:

* :func:`remove_noop_transitions` — transitions with ``preset ==
  postset`` fire invisibly and change nothing;
* :func:`contract_epsilon_transitions` — epsilon dummies that satisfy
  Definition 4.10's preconditions are contracted away (hide applied to
  the epsilon label, transition by transition, skipping the unsafe
  ones);
* :func:`fuse_series_places` — a place whose single producer and single
  consumer are epsilon-free can absorb chains (special case of the
  Section 4.4 fast path, applied globally);
* :func:`reduce` — a fixpoint of all of the above plus the dead-code
  cleanup of :mod:`repro.algebra.dead`.

Every reduction preserves the visible trace language exactly; the test
suite checks each against DFA equivalence.
"""

from __future__ import annotations

from repro.algebra.dead import merge_duplicate_places, trim
from repro.algebra.hide import _collapsible, hide_transition
from repro.petri.net import EPSILON, PetriNet


def remove_noop_transitions(net: PetriNet) -> PetriNet:
    """Drop epsilon transitions whose firing provably changes nothing
    (``preset == postset``)."""
    result = net.copy()
    for tid, transition in sorted(net.transitions.items()):
        if transition.action == EPSILON and transition.preset == transition.postset:
            result.remove_transition(tid)
    return result


def contract_epsilon_transitions(
    net: PetriNet, max_steps: int = 10_000
) -> PetriNet:
    """Contract every epsilon transition that Definition 4.10 supports.

    Self-looping epsilons and source/sink epsilons are left in place
    (contraction is undefined for them); everything else is removed by
    the hide construction with the Section 4.4 fast path.  Contractions
    that would *grow* the net (product-place blowup on multi-place
    pre/postsets with conflicts) are skipped unless they collapse.
    """
    result = net.copy()
    steps = 0
    changed = True
    while changed and steps < max_steps:
        changed = False
        for tid, transition in sorted(result.transitions.items()):
            if transition.action != EPSILON:
                continue
            if transition.preset == transition.postset:
                result.remove_transition(tid)
                changed = True
                break
            if transition.is_self_looping():
                continue
            if not transition.preset or not transition.postset:
                continue
            if _collapsible(result, transition):
                result = hide_transition(result, tid)
                changed = True
                break
            # General contraction only when it cannot blow up: single
            # input and output place (but with conflicts on the input).
            if len(transition.preset) == 1 and len(transition.postset) == 1:
                result = hide_transition(result, tid, fast_path=False)
                changed = True
                break
        steps += 1
    return result


def fuse_series_places(net: PetriNet) -> PetriNet:
    """Collapse ``place -> eps -> place`` chains left by expansions.

    Alias view of :func:`contract_epsilon_transitions` restricted to the
    pure series case; provided for targeted cleanup after
    :mod:`repro.core.expansion`.
    """
    result = net.copy()
    changed = True
    while changed:
        changed = False
        for tid, transition in sorted(result.transitions.items()):
            if transition.action != EPSILON:
                continue
            if not transition.is_self_looping() and _collapsible(
                result, transition
            ):
                result = hide_transition(result, tid)
                changed = True
                break
    return result


def reduce(net: PetriNet, max_states: int = 1_000_000) -> PetriNet:
    """Fixpoint cleanup: noop/epsilon contraction, duplicate-place
    merging and dead-code removal, iterated until stable."""
    current = net.copy()
    while True:
        before = (
            len(current.places),
            len(current.transitions),
            current.arcs(),
        )
        current = remove_noop_transitions(current)
        current = contract_epsilon_transitions(current)
        current = merge_duplicate_places(current)
        current = trim(current, max_states=max_states)
        after = (
            len(current.places),
            len(current.transitions),
            current.arcs(),
        )
        if after == before:
            return current
