"""Behavioural equivalences beyond trace semantics.

The paper adopts trace semantics (Section 4), which identifies nets
that differ in deadlock or branching behaviour.  This module provides
the finer equivalences a verification flow needs to tell those apart:

* **strong bisimulation** on reachability graphs,
* **weak bisimulation** (silent labels abstracted),
* **failures semantics** (CSP-style failure pairs and refinement) —
  the natural setting for the paper's receptiveness discussion: a
  non-receptive composition shows up as a failure pair the
  specification does not allow.

All are computed on explicit reachability graphs, so they apply to
bounded nets.  The bisimulation checks first ask the lazy product
engine, which answers exactly whenever it can (deterministic systems,
or a refuting trace difference), before paying for partition
refinement over the full graphs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.cache import verdicts
from repro.obs import metrics as obs
from repro.petri.marking import Marking
from repro.petri.net import EPSILON, PetriNet
from repro.petri.product import (
    DEFAULT_ENGINE,
    compare_languages,
    deterministic_bisimulation,
    resolve_engine,
)
from repro.petri.reachability import ReachabilityGraph

Trace = tuple[str, ...]


class _Lts:
    """A finite labeled transition system extracted from a net."""

    def __init__(self, net: PetriNet, max_states: int):
        graph = ReachabilityGraph(net, max_states=max_states)
        self.states: list[Marking] = sorted(graph.states, key=repr)
        self.index = {state: i for i, state in enumerate(self.states)}
        self.start = self.index[graph.initial]
        self.successors: list[dict[str, set[int]]] = [
            {} for _ in self.states
        ]
        for source, action, _, target in graph.edges:
            self.successors[self.index[source]].setdefault(action, set()).add(
                self.index[target]
            )
        self.labels = {a for row in self.successors for a in row}

    def weak_closure(self, silent: set[str]) -> list[set[int]]:
        """Per-state set of states reachable via silent steps (reflexive)."""
        closures: list[set[int]] = []
        for start in range(len(self.states)):
            seen = {start}
            queue = deque([start])
            while queue:
                state = queue.popleft()
                for label, targets in self.successors[state].items():
                    if label in silent:
                        for target in targets:
                            if target not in seen:
                                seen.add(target)
                                queue.append(target)
            closures.append(seen)
        return closures


def _partition_refinement(
    lts1: _Lts,
    lts2: _Lts,
    moves1: list[dict[str, set[int]]],
    moves2: list[dict[str, set[int]]],
) -> bool:
    """Kanellakis-Smolka style: refine a joint partition of the disjoint
    union of both state sets until stable; bisimilar iff the two start
    states share a block."""
    offset = len(lts1.states)
    total = offset + len(lts2.states)

    def moves(state: int) -> dict[str, set[int]]:
        if state < offset:
            return moves1[state]
        return {
            label: {t + offset for t in targets}
            for label, targets in moves2[state - offset].items()
        }

    block_of = [0] * total
    num_blocks = 1
    while True:
        signatures: dict[tuple, int] = {}
        new_block_of = [0] * total
        next_block = 0
        for state in range(total):
            signature_parts = []
            for label in sorted(set(moves(state))):
                targets = frozenset(
                    block_of[t] for t in moves(state)[label]
                )
                if targets:
                    signature_parts.append((label, targets))
            key = (block_of[state], tuple(signature_parts))
            if key not in signatures:
                signatures[key] = next_block
                next_block += 1
            new_block_of[state] = signatures[key]
        if next_block == num_blocks:
            break
        num_blocks = next_block
        block_of = new_block_of
    return block_of[lts1.start] == block_of[lts2.start + offset]


def strongly_bisimilar(
    net1: PetriNet,
    net2: PetriNet,
    max_states: int = 100_000,
) -> bool:
    """Strong bisimulation equivalence of two bounded nets' behaviours.

    The question is first put to the lazy product engine: a synchronous
    walk decides it exactly — with early exit and without materialising
    either state space — as long as both systems are deterministic, and
    a strong trace difference refutes bisimilarity even when they are
    not.  Only when neither shortcut is conclusive does the check fall
    back to partition refinement.  There is no engine choice: strong
    bisimulation observes every label, so no transition is invisible
    and partial-order reduction has nothing to reduce.
    """
    cache_key = verdicts.pair_key("bisim-strong", net1, net2, ())
    with obs.span("verify.bisim.strong") as span:
        hit = verdicts.pair_lookup(cache_key, max_states)
        if hit is not None:
            span.set(verdict=hit, cached=True)
            return hit
        verdict, _ = deterministic_bisimulation(net1, net2, max_states)
        # Nondeterministic somewhere: strong trace inequality still
        # refutes bisimilarity (traces are coarser than bisimulation).
        if verdict is None and not compare_languages(
            net1, net2, mode="equal", silent=(), max_states=max_states
        ).verdict:
            verdict = False
        if verdict is None:
            lts1 = _Lts(net1, max_states)
            lts2 = _Lts(net2, max_states)
            verdict = _partition_refinement(
                lts1, lts2, lts1.successors, lts2.successors
            )
        span.set(verdict=verdict)
        verdicts.pair_publish(cache_key, verdict, max_states, DEFAULT_ENGINE)
        return verdict


def _weak_moves(lts: _Lts, silent: set[str]) -> list[dict[str, set[int]]]:
    """Weak transition relation: ``s =a=> t`` iff ``s -tau*- a -tau*- t``;
    additionally every state has a silent self-move (``s =eps=> closure``)."""
    closures = lts.weak_closure(silent)
    weak: list[dict[str, set[int]]] = []
    for state in range(len(lts.states)):
        row: dict[str, set[int]] = {}
        # Visible weak moves.
        for mid in closures[state]:
            for label, targets in lts.successors[mid].items():
                if label in silent:
                    continue
                bucket = row.setdefault(label, set())
                for target in targets:
                    bucket |= closures[target]
        # The silent weak move (always possible, reflexive).
        row[EPSILON] = set(closures[state])
        weak.append(row)
    return weak


def weakly_bisimilar(
    net1: PetriNet,
    net2: PetriNet,
    silent: Iterable[str] = (EPSILON,),
    max_states: int = 100_000,
    engine: str = DEFAULT_ENGINE,
) -> bool:
    """Weak bisimulation equivalence with the given silent labels.

    ``engine="onthefly"`` first refutes via on-the-fly weak-language
    comparison (weak trace inequality implies non-bisimilarity, found
    with early exit); ``engine="por"`` runs that refutation under
    stubborn-set partial-order reduction (the weak language is exactly
    preserved, so the refutation stays sound).  A positive answer still
    requires partition refinement over the weak transition relations.
    """
    engine = resolve_engine(engine)
    cache_key = verdicts.pair_key("bisim-weak", net1, net2, silent)
    with obs.span("verify.bisim.weak", engine=engine) as span:
        hit = verdicts.pair_lookup(cache_key, max_states)
        if hit is not None:
            span.set(verdict=hit, cached=True)
            return hit
        if not compare_languages(
            net1,
            net2,
            mode="equal",
            silent=silent,
            max_states=max_states,
            reduction=engine == "por",
        ).verdict:
            span.set(verdict=False)
            verdicts.pair_publish(cache_key, False, max_states, engine)
            return False
        silent_set = set(silent)
        lts1 = _Lts(net1, max_states)
        lts2 = _Lts(net2, max_states)
        verdict = _partition_refinement(
            lts1, lts2, _weak_moves(lts1, silent_set), _weak_moves(lts2, silent_set)
        )
        span.set(verdict=verdict)
        verdicts.pair_publish(cache_key, verdict, max_states, engine)
        return verdict


# -- failures semantics ------------------------------------------------------


def failures(
    net: PetriNet,
    silent: Iterable[str] = (EPSILON,),
    max_states: int = 100_000,
    max_trace_length: int | None = None,
    alphabet: Iterable[str] | None = None,
) -> frozenset[tuple[Trace, frozenset[str]]]:
    """The (finite) failure set: pairs ``(trace, refusal)`` where after
    some execution of ``trace`` the net can refuse the whole ``refusal``
    set (stable states only — no silent move pending).

    Only *maximal* refusal sets per (trace, stable state) are returned;
    subset-closure is implied.  ``max_trace_length`` defaults to the
    number of states (sufficient for distinguishing regular failures of
    deterministic-length counterexamples; raise for deep systems).
    ``alphabet`` widens the refusal universe beyond the net's own labels
    (needed when comparing nets with different alphabets).
    """
    silent_set = set(silent)
    lts = _Lts(net, max_states)
    closures = lts.weak_closure(silent_set)
    universe = set(alphabet) if alphabet is not None else set(lts.labels)
    visible = sorted((universe | lts.labels) - silent_set)
    limit = max_trace_length if max_trace_length is not None else len(lts.states)

    def stable(state: int) -> bool:
        return not any(
            label in silent_set for label in lts.successors[state]
        )

    result: set[tuple[Trace, frozenset[str]]] = set()
    # BFS over (state-set, trace) pairs; to keep the set finite we track
    # visited (stateset) per trace length and bound the trace length.
    start = frozenset(closures[lts.start])
    queue: deque[tuple[frozenset[int], Trace]] = deque([(start, ())])
    seen: set[tuple[frozenset[int], int]] = {(start, 0)}
    while queue:
        states, trace = queue.popleft()
        for state in states:
            if stable(state):
                offered = frozenset(
                    label
                    for label in lts.successors[state]
                    if label not in silent_set
                )
                refusal = frozenset(visible) - offered
                result.add((trace, refusal))
        if len(trace) >= limit:
            continue
        for label in visible:
            targets: set[int] = set()
            for state in states:
                for target in lts.successors[state].get(label, ()):
                    targets |= closures[target]
            if targets:
                key = (frozenset(targets), len(trace) + 1)
                if key not in seen:
                    seen.add(key)
                    queue.append((frozenset(targets), trace + (label,)))
    return frozenset(result)


def failures_refines(
    implementation: PetriNet,
    specification: PetriNet,
    silent: Iterable[str] = (EPSILON,),
    max_states: int = 100_000,
) -> bool:
    """CSP failures refinement: every failure of the implementation is
    allowed by the specification (traces and refusals both contained).

    Refusal containment is checked modulo subset closure: an
    implementation refusal is allowed if some specification refusal for
    the same trace contains it.
    """
    common = (implementation.actions | specification.actions) - set(silent)
    spec = failures(specification, silent, max_states, alphabet=common)
    spec_by_trace: dict[Trace, list[frozenset[str]]] = {}
    for trace, refusal in spec:
        spec_by_trace.setdefault(trace, []).append(refusal)
    for trace, refusal in failures(
        implementation, silent, max_states, alphabet=common
    ):
        allowed = spec_by_trace.get(trace)
        if allowed is None:
            return False
        if not any(refusal <= spec_refusal for spec_refusal in allowed):
            return False
    return True


def deadlock_traces(
    net: PetriNet,
    silent: Iterable[str] = (EPSILON,),
    max_states: int = 100_000,
) -> set[Trace]:
    """Visible traces after which the net can be fully deadlocked
    (refusing everything) — the failures-level view of deadlock."""
    silent_set = set(silent)
    lts = _Lts(net, max_states)
    visible = frozenset(lts.labels - silent_set)
    return {
        trace
        for trace, refusal in failures(net, silent, max_states)
        if refusal == visible
    }
