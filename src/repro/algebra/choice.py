"""Nondeterministic choice via root unwinding (Definitions 4.5-4.6, Fig 1).

The subtlety the paper illustrates in Figure 1: when the initial places
lie on cycles, naively merging initial places lets a loop iteration jump
into the *other* branch of the choice.  Root unwinding duplicates the
initially enabled transitions onto fresh copies of the initial places, so
once a branch has been entered, loop iterations return to the *original*
places and the unwound root is never re-entered.

Satisfies ``L(N1 + N2) = L(N1) | L(N2)`` (Proposition 4.4).

.. note::
   Definition 4.5 as printed duplicates only transitions whose preset
   lies *entirely* inside the initial places.  That loses behaviour when
   initial tokens are consumed at different times: after the first
   firing, remaining initial tokens still sit on the fresh copies, and a
   later transition needing one of them together with a newly produced
   token has no enabled variant (e.g. ``M0 = {p0, p1}``, ``t0 = {p0}
   -a-> {p0}``, ``t1 = {p0, p1} -b-> {p0}``: the trace ``a.b`` would be
   lost).  We therefore duplicate every transition once per *non-empty
   subset* of its initially-marked preset places, moving that subset to
   the copies — the printed definition is the special case where the
   whole preset is initial.  This generalization is validated against
   ``L(N1+N2) = L(N1) | L(N2)`` by exhaustive and property-based tests.
"""

from __future__ import annotations

from itertools import chain, combinations

from repro.algebra._util import fresh_place, product_place
from repro.obs import metrics as obs
from repro.petri.marking import Marking, Place
from repro.petri.net import PetriNet, disjoint_pair


def _nonempty_subsets(places: frozenset[Place]):
    ordered = sorted(places)
    return chain.from_iterable(
        combinations(ordered, size) for size in range(1, len(ordered) + 1)
    )


def root_unwinding(net: PetriNet) -> tuple[PetriNet, dict[Place, Place]]:
    """The root unwinding of a net with a safe initial marking (Def 4.5,
    generalized — see the module note).

    Returns ``(net', eta)`` where ``eta`` maps each fresh initial place
    to the original place it copies (the paper's bijection between
    ``P0`` and the initial places).  In ``net'`` the tokens sit on the
    fresh copies; no transition ever marks a copy again.
    """
    if not net.initial.is_safe():
        raise ValueError("root unwinding (Def 4.5) requires a safe initial marking")
    initial_places = net.initial.marked_places()
    result = net.copy()
    eta: dict[Place, Place] = {}
    inverse: dict[Place, Place] = {}
    for place in sorted(initial_places):
        copy = fresh_place(f"{place}0", result.places | set(eta))
        result.add_place(copy)
        eta[copy] = place
        inverse[place] = copy
    for transition in [t for _, t in sorted(net.transitions.items())]:
        shared = transition.preset & initial_places
        for subset in _nonempty_subsets(shared):
            moved = set(subset)
            result.add_transition(
                frozenset(
                    inverse[p] if p in moved else p for p in transition.preset
                ),
                transition.action,
                transition.postset,
            )
    result.set_initial(
        Marking({inverse[p]: net.initial[p] for p in initial_places})
    )
    return result, eta


def choice(n1: PetriNet, n2: PetriNet) -> PetriNet:
    """Nondeterministic choice ``N1 + N2`` (Definition 4.6).

    Both operands are root-unwound; the fresh initial place sets
    ``P01``/``P02`` are replaced by their cartesian product, and every
    copy place in a duplicated transition's preset becomes a full row
    (for ``N1``) or column (for ``N2``) of product places — so firing
    any initial transition of one operand disables every initial
    transition of the other.
    """
    with obs.span("algebra.choice", left=n1.name, right=n2.name) as span:
        result = _choice(n1, n2)
        span.set(
            places_before=len(n1.places) + len(n2.places),
            places_after=len(result.places),
            transitions_before=len(n1.transitions) + len(n2.transitions),
            transitions_after=len(result.transitions),
        )
        return result


def _choice(n1: PetriNet, n2: PetriNet) -> PetriNet:
    n1, n2 = disjoint_pair(n1, n2)
    unwound1, eta1 = root_unwinding(n1)
    unwound2, eta2 = root_unwinding(n2)
    p01 = sorted(eta1)
    p02 = sorted(eta2)

    result = PetriNet(
        f"({n1.name}+{n2.name})",
        n1.actions | n2.actions,
        (n1.places | n2.places),
    )
    pair_name: dict[tuple[Place, Place], Place] = {}
    for x in p01:
        for y in p02:
            name = product_place(x, y, result.places | set(pair_name.values()))
            pair_name[(x, y)] = name
            result.add_place(name)

    def expand(place: Place, row_major: bool) -> set[Place]:
        """A copy place becomes its row/column of product places;
        ordinary places stay."""
        if row_major and place in eta1:
            return {pair_name[(place, y)] for y in p02}
        if not row_major and place in eta2:
            return {pair_name[(x, place)] for x in p01}
        return {place}

    for net, row_major in ((unwound1, True), (unwound2, False)):
        for transition in [t for _, t in sorted(net.transitions.items())]:
            preset: set[Place] = set()
            for place in transition.preset:
                preset |= expand(place, row_major)
            result.add_transition(preset, transition.action, transition.postset)

    marking = {
        pair_name[(x, y)]: min(unwound1.initial[x], unwound2.initial[y])
        for x in p01
        for y in p02
    }
    result.set_initial(Marking(marking))
    # Boolean guards are not propagated through choice: the paper only
    # defines guard propagation for hiding and parallel composition
    # (Section 5.1), and transition identities change across unwinding.
    return result
