"""Exact trace-language comparison for bounded nets.

``L(N)`` of a bounded net is a prefix-closed regular language: the
reachability graph is a finite automaton in which *every* state is
accepting.  The checks here — :func:`languages_equal`,
:func:`language_contained` and :func:`distinguishing_trace` — decide
equality and containment (the exact form of the paper's Theorems 4.5
and 4.7 and of Theorem 5.1's containment claim) on the fly, by
:func:`repro.petri.product.compare_languages`.

:func:`dfa_of_net` builds the other route: the whole reachability
graph, subset construction with epsilon-closure over silent labels,
then :func:`minimize`; :func:`dfa_equal` and :func:`dfa_contained`
compare two such DFAs.  It shares no search with the on-the-fly
comparison, which is why the test suites use it as their reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Iterable

from repro.cache import verdicts
from repro.obs import metrics as obs
from repro.petri.net import EPSILON, PetriNet
from repro.petri.product import DEFAULT_ENGINE, compare_languages, resolve_engine
from repro.petri.reachability import ReachabilityGraph


@dataclass(frozen=True)
class Dfa:
    """A total DFA over ``alphabet``.

    ``transitions[state][symbol]`` is always defined; ``sink`` is the
    unique non-accepting trap state (prefix-closed languages need exactly
    one).  Every non-sink state is accepting.
    """

    alphabet: frozenset[str]
    num_states: int
    start: int
    sink: int
    transitions: tuple[tuple[int, ...], ...]  # [state][symbol_index]
    symbols: tuple[str, ...]  # index -> symbol

    def symbol_index(self, symbol: str) -> int:
        return self.symbols.index(symbol)

    def accepts(self, word: Iterable[str]) -> bool:
        state = self.start
        for symbol in word:
            if symbol not in self.alphabet:
                return False
            state = self.transitions[state][self.symbols.index(symbol)]
            if state == self.sink:
                return False
        return True

    def num_live_states(self) -> int:
        return self.num_states - 1


def dfa_of_net(
    net: PetriNet,
    silent: Iterable[str] = (EPSILON,),
    alphabet: Iterable[str] | None = None,
    max_states: int = 1_000_000,
) -> Dfa:
    """The minimal DFA of the visible trace language of a bounded net.

    ``silent`` labels are erased by epsilon-closure during subset
    construction.  ``alphabet`` defaults to the net's alphabet minus the
    silent labels; supplying a larger alphabet lets two nets be compared
    over a common symbol set.
    """
    graph = ReachabilityGraph(net, max_states=max_states)
    silent_set = set(silent)
    if alphabet is None:
        visible = frozenset(net.actions - silent_set)
    else:
        visible = frozenset(set(alphabet) - silent_set)
    symbols = tuple(sorted(visible))
    symbol_index = {symbol: i for i, symbol in enumerate(symbols)}

    # Epsilon-closure over the reachability graph.
    def closure(states: frozenset) -> frozenset:
        seen = set(states)
        queue = deque(states)
        while queue:
            marking = queue.popleft()
            for action, _, target in graph.successors(marking):
                if action in silent_set and target not in seen:
                    seen.add(target)
                    queue.append(target)
        return frozenset(seen)

    start = closure(frozenset({graph.initial}))
    subset_index: dict[frozenset, int] = {start: 0}
    table: list[list[int | None]] = [[None] * len(symbols)]
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        row = table[subset_index[subset]]
        moves: dict[str, set] = {}
        for marking in subset:
            for action, _, target in graph.successors(marking):
                if action in silent_set:
                    continue
                moves.setdefault(action, set()).add(target)
        for action, targets in moves.items():
            if action not in symbol_index:
                # A transition label outside the requested alphabet: the
                # word is not comparable — treat as outside the language.
                continue
            successor = closure(frozenset(targets))
            if successor not in subset_index:
                subset_index[successor] = len(table)
                table.append([None] * len(symbols))
                queue.append(successor)
            row[symbol_index[action]] = subset_index[successor]

    sink = len(table)
    total = [
        tuple(sink if cell is None else cell for cell in row) for row in table
    ]
    total.append(tuple(sink for _ in symbols))
    dfa = Dfa(
        alphabet=visible,
        num_states=len(total),
        start=0,
        sink=sink,
        transitions=tuple(total),
        symbols=symbols,
    )
    return minimize(dfa)


def minimize(dfa: Dfa) -> Dfa:
    """Moore partition-refinement minimization (all non-sink states accept)."""
    # Initial partition: {sink}, {everything else}.
    block_of = [0 if state != dfa.sink else 1 for state in range(dfa.num_states)]
    num_blocks = 2
    changed = True
    while changed:
        changed = False
        signature: dict[tuple, int] = {}
        new_block_of = [0] * dfa.num_states
        next_block = 0
        for state in range(dfa.num_states):
            key = (
                block_of[state],
                tuple(block_of[t] for t in dfa.transitions[state]),
            )
            if key not in signature:
                signature[key] = next_block
                next_block += 1
            new_block_of[state] = signature[key]
        if next_block != num_blocks:
            changed = True
            num_blocks = next_block
            block_of = new_block_of
    representatives: dict[int, int] = {}
    for state in range(dfa.num_states):
        representatives.setdefault(block_of[state], state)
    transitions = []
    for block in range(num_blocks):
        state = representatives[block]
        transitions.append(
            tuple(block_of[t] for t in dfa.transitions[state])
        )
    return Dfa(
        alphabet=dfa.alphabet,
        num_states=num_blocks,
        start=block_of[dfa.start],
        sink=block_of[dfa.sink],
        transitions=tuple(transitions),
        symbols=dfa.symbols,
    )


def _aligned(d1: Dfa, d2: Dfa) -> tuple[Dfa, Dfa]:
    if d1.alphabet != d2.alphabet:
        raise ValueError(
            f"alphabet mismatch: {sorted(d1.alphabet)} vs {sorted(d2.alphabet)}"
        )
    return d1, d2


def dfa_equal(d1: Dfa, d2: Dfa) -> bool:
    """Language equality by synchronous product walk (Hopcroft-Karp style)."""
    d1, d2 = _aligned(d1, d2)
    seen = {(d1.start, d2.start)}
    queue = deque([(d1.start, d2.start)])
    while queue:
        s1, s2 = queue.popleft()
        if (s1 == d1.sink) != (s2 == d2.sink):
            return False
        for index in range(len(d1.symbols)):
            pair = (d1.transitions[s1][index], d2.transitions[s2][index])
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def dfa_contained(d1: Dfa, d2: Dfa) -> bool:
    """``True`` iff ``L(d1) <= L(d2)``."""
    d1, d2 = _aligned(d1, d2)
    seen = {(d1.start, d2.start)}
    queue = deque([(d1.start, d2.start)])
    while queue:
        s1, s2 = queue.popleft()
        if s1 != d1.sink and s2 == d2.sink:
            return False
        for index in range(len(d1.symbols)):
            pair = (d1.transitions[s1][index], d2.transitions[s2][index])
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def languages_equal(
    net1: PetriNet,
    net2: PetriNet,
    silent: Iterable[str] = (EPSILON,),
    max_states: int = 1_000_000,
    engine: str = DEFAULT_ENGINE,
) -> bool:
    """Exact visible-trace-language equality of two bounded nets.

    ``engine="onthefly"`` (default) decides the question on the lazy
    product of the two determinised state spaces, terminating at the
    first difference; ``engine="por"`` additionally applies
    stubborn-set partial-order reduction to both sides (silent
    interleavings collapse, the language is preserved exactly).
    ``engine="symbolic"`` first runs the state-equation pre-check
    (one-letter separating words via conclusively-dead actions) and
    only enumerates when the pre-check is INCONCLUSIVE.  All are exact, so they always agree — which is
    why the verdict memo (:mod:`repro.cache`, active stores only) keys
    entries by content hashes, mode, silent set and budget but *not*
    by engine.
    """
    engine = resolve_engine(engine, extra=("symbolic",))
    cache_key = verdicts.pair_key("language-equal", net1, net2, silent)
    with obs.span("verify.language.equal", engine=engine) as span:
        hit = verdicts.pair_lookup(cache_key, max_states)
        if hit is not None:
            span.set(verdict=hit, cached=True)
            return hit
        if engine == "symbolic":
            from repro.petri.symbolic import language_precheck

            verdict = language_precheck(net1, net2, mode="equal", silent=silent)
            if verdict.conclusive:
                span.set(verdict=verdict.holds, symbolic=True)
                return bool(verdict.holds)
        verdict = compare_languages(
            net1,
            net2,
            mode="equal",
            silent=silent,
            max_states=max_states,
            reduction=engine == "por",
        ).verdict
        span.set(verdict=verdict)
        verdicts.pair_publish(cache_key, bool(verdict), max_states, engine)
        return verdict


def language_contained(
    net1: PetriNet,
    net2: PetriNet,
    silent: Iterable[str] = (EPSILON,),
    max_states: int = 1_000_000,
    engine: str = DEFAULT_ENGINE,
) -> bool:
    """Exact visible-trace containment ``L(net1) <= L(net2)``."""
    engine = resolve_engine(engine, extra=("symbolic",))
    cache_key = verdicts.pair_key("language-contained", net1, net2, silent)
    with obs.span("verify.language.contained", engine=engine) as span:
        hit = verdicts.pair_lookup(cache_key, max_states)
        if hit is not None:
            span.set(verdict=hit, cached=True)
            return hit
        if engine == "symbolic":
            from repro.petri.symbolic import language_precheck

            verdict = language_precheck(
                net1, net2, mode="contained", silent=silent
            )
            if verdict.conclusive:
                span.set(verdict=verdict.holds, symbolic=True)
                return bool(verdict.holds)
        verdict = compare_languages(
            net1,
            net2,
            mode="contained",
            silent=silent,
            max_states=max_states,
            reduction=engine == "por",
        ).verdict
        span.set(verdict=verdict)
        verdicts.pair_publish(cache_key, bool(verdict), max_states, engine)
        return verdict


def distinguishing_trace(
    net1: PetriNet,
    net2: PetriNet,
    silent: Iterable[str] = (EPSILON,),
    max_states: int = 1_000_000,
    engine: str = DEFAULT_ENGINE,
) -> tuple[str, ...] | None:
    """A shortest trace in exactly one of the two languages, or ``None``.

    Useful diagnostics when an equivalence check fails.
    """
    engine = resolve_engine(engine, extra=("symbolic",))
    if engine == "symbolic":
        from repro.petri.symbolic import language_precheck

        verdict = language_precheck(net1, net2, mode="equal", silent=silent)
        if verdict.conclusive and verdict.holds:
            return None
        if verdict.conclusive and verdict.witness is not None:
            return tuple(verdict.witness)
    return compare_languages(
        net1,
        net2,
        mode="equal",
        silent=silent,
        max_states=max_states,
        reduction=engine == "por",
    ).counterexample
