"""Structural Petri net theory: incidence matrices, invariants, siphons, traps.

The paper argues (Sections 1, 4, 5) that working at the net level avoids
state-space explosion; structural techniques are the toolbox that makes
net-level reasoning effective.  This module provides:

* the incidence matrix and token-conservation equation,
* minimal-support place and transition invariants (semiflows) via the
  Farkas/Fourier-Motzkin algorithm, exact over the integers,
* structural boundedness (a positive place weighting non-increased by
  any firing),
* siphons and traps, used for structural liveness reasoning.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from repro.petri.net import PetriNet


def incidence_matrix(
    net: PetriNet,
) -> tuple[list[str], list[int], list[list[int]]]:
    """The incidence matrix ``C`` with ``C[i][j] = post(t_j, p_i) - pre(t_j, p_i)``.

    Returns ``(places, tids, C)`` with rows ordered by sorted place name
    and columns by sorted transition id; ``C`` is a list of int rows.
    Self-loop places contribute 0 (consume one, produce one), matching
    the firing rule of Definition 2.2.
    """
    places = sorted(net.places)
    tids = sorted(net.transitions)
    index = {place: i for i, place in enumerate(places)}
    matrix = [[0] * len(tids) for _ in places]
    for column, tid in enumerate(tids):
        transition = net.transitions[tid]
        for place in transition.consume:
            matrix[index[place]][column] -= 1
        for place in transition.produce:
            matrix[index[place]][column] += 1
    return places, tids, matrix


class SemiflowBudgetError(RuntimeError):
    """Semiflow enumeration exceeded its vector budget.

    Raised instead of silently dropping candidate vectors: a truncated
    basis treated as complete would be unsound for any conclusion that
    relies on completeness (e.g. "no invariant covers this place").
    ``vectors`` is the number of candidates alive when the budget
    ``max_vectors`` was exceeded, ``column`` the incidence column under
    elimination at that point.
    """

    def __init__(self, vectors: int, max_vectors: int, column: int):
        self.vectors = vectors
        self.max_vectors = max_vectors
        self.column = column
        super().__init__(
            f"semiflow enumeration exceeded the vector budget:"
            f" {vectors} candidate vectors > max_vectors={max_vectors}"
            f" while eliminating column {column}; raise max_vectors, or"
            f" use the *_partial API to accept an explicitly-truncated"
            f" basis"
        )


def _minimal_semiflows(
    matrix: list[list[int]],
    max_vectors: int = 4096,
    on_budget: str = "raise",
) -> tuple[list[list[int]], bool]:
    """Minimal-support non-negative integer solutions of ``x^T . matrix = 0``.

    Classical Farkas algorithm: start from the identity alongside the
    matrix, eliminate one column at a time by combining rows of opposite
    sign, keep minimal-support rows.  Exact integer arithmetic throughout.

    Returns ``(vectors, truncated)``.  When the intermediate table
    exceeds ``max_vectors``, ``on_budget`` selects the behavior:
    ``"raise"`` (default) raises :class:`SemiflowBudgetError`;
    ``"truncate"`` drops the excess candidates, continues, and reports
    ``truncated=True``.  Every vector returned by the truncating mode is
    still a genuine semiflow (truncation only loses completeness, never
    validity: surviving rows are fully eliminated like any other).
    """
    if on_budget not in ("raise", "truncate"):
        raise ValueError(
            f"unknown on_budget mode {on_budget!r};"
            " expected 'raise' or 'truncate'"
        )
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    truncated = False
    # Each entry: (coefficients over original rows, residual matrix row).
    table: list[tuple[list[int], list[int]]] = [
        ([int(i == k) for k in range(rows)], matrix[i]) for i in range(rows)
    ]
    for column in range(cols):
        positive = [entry for entry in table if entry[1][column] > 0]
        negative = [entry for entry in table if entry[1][column] < 0]
        zero = [entry for entry in table if entry[1][column] == 0]
        combined: list[tuple[list[int], list[int]]] = list(zero)
        for coeff_p, row_p in positive:
            if truncated and len(combined) >= max_vectors:
                break
            for coeff_n, row_n in negative:
                weight_p = -row_n[column]
                weight_n = row_p[column]
                coeff = [
                    p * weight_p + n * weight_n
                    for p, n in zip(coeff_p, coeff_n)
                ]
                # The residual is ``coeff . matrix``, so it divides by
                # the coefficients' gcd exactly.
                divisor = gcd(*coeff) or 1
                if divisor > 1:
                    coeff = [v // divisor for v in coeff]
                residual = [
                    (p * weight_p + n * weight_n) // divisor
                    for p, n in zip(row_p, row_n)
                ]
                combined.append((coeff, residual))
                if len(combined) > max_vectors:
                    if on_budget == "raise":
                        raise SemiflowBudgetError(
                            len(combined), max_vectors, column
                        )
                    truncated = True
                    combined = combined[:max_vectors]
                    break
        table = combined
    # Keep minimal-support, non-zero solutions.
    solutions = [coeff for coeff, _ in table if any(coeff)]
    supports = [
        frozenset(i for i, v in enumerate(vector) if v) for vector in solutions
    ]
    minimal: list[list[int]] = []
    seen: set[frozenset[int]] = set()
    for i, vector in enumerate(solutions):
        if supports[i] in seen:
            continue
        if any(
            supports[j] < supports[i] for j in range(len(solutions)) if j != i
        ):
            continue
        seen.add(supports[i])
        minimal.append(vector)
    return minimal, truncated


def p_invariants(
    net: PetriNet, max_vectors: int = 4096
) -> list[dict[str, int]]:
    """Minimal-support place invariants (P-semiflows).

    A P-invariant ``x >= 0`` satisfies ``x^T C = 0``: the weighted token
    count ``x . M`` is constant over all reachable markings.

    Raises :class:`SemiflowBudgetError` when enumeration exceeds the
    vector budget; use :func:`p_invariants_partial` to accept an
    explicitly-truncated basis instead.
    """
    vectors, _ = p_invariants_partial(
        net, max_vectors=max_vectors, on_budget="raise"
    )
    return vectors


def p_invariants_partial(
    net: PetriNet, max_vectors: int = 4096, on_budget: str = "truncate"
) -> tuple[list[dict[str, int]], bool]:
    """Like :func:`p_invariants` but budget-tolerant.

    Returns ``(invariants, truncated)``.  When ``truncated`` is true the
    basis is incomplete — every returned invariant is still valid (each
    is a genuine semiflow), but absence from the list proves nothing.
    Callers that rely on completeness (e.g. invariant *coverage*) must
    check the flag.
    """
    places, tids, matrix = incidence_matrix(net)
    if not places or not tids:
        return [], False
    vectors, truncated = _minimal_semiflows(
        matrix, max_vectors=max_vectors, on_budget=on_budget
    )
    return [
        {places[i]: int(v) for i, v in enumerate(vector) if v}
        for vector in vectors
    ], truncated


def t_invariants(
    net: PetriNet, max_vectors: int = 4096
) -> list[dict[int, int]]:
    """Minimal-support transition invariants (T-semiflows).

    A T-invariant ``y >= 0`` satisfies ``C y = 0``: firing each transition
    ``y[t]`` times reproduces the marking (cyclic behaviour).

    Raises :class:`SemiflowBudgetError` when enumeration exceeds the
    vector budget; use :func:`t_invariants_partial` to accept an
    explicitly-truncated basis instead.
    """
    vectors, _ = t_invariants_partial(
        net, max_vectors=max_vectors, on_budget="raise"
    )
    return vectors


def t_invariants_partial(
    net: PetriNet, max_vectors: int = 4096, on_budget: str = "truncate"
) -> tuple[list[dict[int, int]], bool]:
    """Like :func:`t_invariants` but budget-tolerant; see
    :func:`p_invariants_partial` for the soundness contract."""
    places, tids, matrix = incidence_matrix(net)
    if not tids or not places:
        return [], False
    vectors, truncated = _minimal_semiflows(
        [list(column) for column in zip(*matrix)],
        max_vectors=max_vectors,
        on_budget=on_budget,
    )
    return [
        {tids[i]: int(v) for i, v in enumerate(vector) if v} for vector in vectors
    ], truncated


def invariant_value(invariant: dict[str, int], marking) -> int:
    """The conserved quantity ``x . M`` of a P-invariant in a marking."""
    return sum(weight * marking[place] for place, weight in invariant.items())


def is_covered_by_p_invariants(net: PetriNet) -> bool:
    """``True`` iff every place has positive weight in some P-invariant.

    Coverage by P-invariants implies structural boundedness.
    """
    covered: set[str] = set()
    for invariant in p_invariants(net):
        covered.update(invariant)
    return covered >= net.places


def is_structurally_bounded(net: PetriNet) -> bool:
    """``True`` iff a strictly positive place weighting exists that no
    firing can increase (``exists x > 0 with x^T C <= 0``).

    Structural boundedness implies boundedness for *every* initial
    marking.  Decided by :func:`repro.petri.symbolic.bounded`, whose
    float proposal for ``x`` is accepted only after an exact integer
    check and whose exact rational simplex decides otherwise.
    """
    from repro.petri.symbolic import bounded

    return bounded(net).conclusive


def fraction_rank(matrix: list[list[int]]) -> int:
    """Exact rank of an integer matrix (a list of rows) over the
    rationals."""
    working = [[Fraction(int(v)) for v in row] for row in matrix]
    rows = len(working)
    cols = len(working[0]) if rows else 0
    rank = 0
    for column in range(cols):
        pivot_row = next(
            (r for r in range(rank, rows) if working[r][column] != 0), None
        )
        if pivot_row is None:
            continue
        working[rank], working[pivot_row] = working[pivot_row], working[rank]
        pivot = working[rank][column]
        working[rank] = [v / pivot for v in working[rank]]
        for r in range(rows):
            if r != rank and working[r][column] != 0:
                factor = working[r][column]
                working[r] = [
                    v - factor * w for v, w in zip(working[r], working[rank])
                ]
        rank += 1
        if rank == rows:
            break
    return rank


# -- siphons and traps -------------------------------------------------------


def preset_transitions(net: PetriNet, places: frozenset[str]) -> set[int]:
    """Transitions producing into any of the given places."""
    return {
        tid
        for tid, transition in net.transitions.items()
        if transition.postset & places
    }


def postset_transitions(net: PetriNet, places: frozenset[str]) -> set[int]:
    """Transitions consuming from any of the given places."""
    return {
        tid
        for tid, transition in net.transitions.items()
        if transition.preset & places
    }


def is_siphon(net: PetriNet, places: frozenset[str]) -> bool:
    """A siphon's producers are a subset of its consumers.

    Once a siphon is empty it stays empty — empty siphons witness
    (partial) deadlock.
    """
    if not places:
        return False
    return preset_transitions(net, places) <= postset_transitions(net, places)


def is_trap(net: PetriNet, places: frozenset[str]) -> bool:
    """A trap's consumers are a subset of its producers.

    Once a trap is marked it stays marked.
    """
    if not places:
        return False
    return postset_transitions(net, places) <= preset_transitions(net, places)


def minimal_siphons(net: PetriNet, max_size: int | None = None) -> list[frozenset[str]]:
    """All minimal siphons up to ``max_size`` places (exhaustive search).

    Exponential in general — the paper's nets are small; a budget guard
    raises ``RuntimeError`` on pathological inputs.
    """
    return _minimal_place_sets(net, is_siphon, max_size)


def minimal_traps(net: PetriNet, max_size: int | None = None) -> list[frozenset[str]]:
    """All minimal traps up to ``max_size`` places (exhaustive search)."""
    return _minimal_place_sets(net, is_trap, max_size)


def _minimal_place_sets(
    net: PetriNet, predicate, max_size: int | None, budget: int = 2_000_000
) -> list[frozenset[str]]:
    places = sorted(net.places)
    limit = max_size if max_size is not None else len(places)
    found: list[frozenset[str]] = []
    examined = 0
    for size in range(1, limit + 1):
        for subset in combinations(places, size):
            examined += 1
            if examined > budget:
                raise RuntimeError("siphon/trap enumeration exceeded budget")
            candidate = frozenset(subset)
            if any(existing <= candidate for existing in found):
                continue
            if predicate(net, candidate):
                found.append(candidate)
    return found


def siphon_trap_property(net: PetriNet) -> bool:
    """Commoner's condition: every minimal siphon contains an initially
    marked trap.  For free-choice nets this is equivalent to liveness.
    """
    marked = net.initial.marked_places()
    for siphon in minimal_siphons(net):
        if not maximal_trap(net, siphon) & marked:
            return False
    return True


def maximal_trap(net: PetriNet, places) -> frozenset[str]:
    """The maximal trap inside ``places`` (empty when there is none).

    Traps are closed under union, so iteratively dropping every place
    with a consumer that puts no token back into the set converges to
    it."""
    current = set(places)
    consumers: dict[str, list] = {place: [] for place in current}
    for transition in net.transitions.values():
        for place in transition.preset & current:
            consumers[place].append(transition)
    changed = True
    while changed:
        changed = False
        for place in list(current):
            if any(not t.postset & current for t in consumers[place]):
                current.discard(place)
                changed = True
    return frozenset(current)
