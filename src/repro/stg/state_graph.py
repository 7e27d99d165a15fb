"""Encoded state graphs of STGs (Section 2.2).

The state graph is the reachability graph with every state additionally
labeled by a signal encoding.  Encodings here are three-valued
({0, 1, X}) so that the generalized transitions of [9] — toggle,
stable, unstable, don't care — and boolean guards get a faithful
semantics:

* a *rising* transition requires the signal at 0 (X is tolerated and
  resolved to 1); firing at 1 is a consistency violation;
* *toggle* flips a definite value and keeps X;
* *unstable* sets the value to X (the line may change arbitrarily);
* *stable* resolves an X value by branching into both levels —
  exactly how the paper's protocol translator waits for its DATA and
  STROBE lines to settle before testing them with guards;
* a transition with a boolean guard is blocked until the guard
  evaluates to a definite *true*.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.petri.marking import Marking
from repro.petri.net import Transition
from repro.petri.reachability import UnboundedNetError
from repro.stg.guards import Guard
from repro.stg.signals import EdgeKind, is_signal_action, parse_event
from repro.stg.stg import Level, Stg

Encoding = tuple[Level, ...]


@dataclass(frozen=True)
class StgState:
    """A state-graph node: marking plus signal encoding."""

    marking: Marking
    encoding: Encoding

    def __repr__(self) -> str:
        bits = "".join("X" if v is None else str(v) for v in self.encoding)
        return f"StgState({self.marking!r}, {bits})"


@dataclass(frozen=True)
class ConsistencyViolation:
    """A firing that violates consistent state assignment (Section 2.2):
    e.g. a rising transition for a signal already at 1."""

    state: StgState
    action: str
    reason: str


@dataclass
class StateGraph:
    """The explored encoded state graph of an STG."""

    stg: Stg
    signals: tuple[str, ...] = ()
    states: set[StgState] = field(default_factory=set)
    edges: list[tuple[StgState, str, int, StgState]] = field(default_factory=list)
    violations: list[ConsistencyViolation] = field(default_factory=list)
    initial: StgState | None = None

    def signal_index(self, signal: str) -> int:
        return self.signals.index(signal)

    def value_in(self, state: StgState, signal: str) -> Level:
        return state.encoding[self.signal_index(signal)]

    # -- queries ------------------------------------------------------------

    def is_consistent(self) -> bool:
        """Consistent state assignment: no rise-at-1 / fall-at-0 firing."""
        return not self.violations

    def encoding_map(self) -> dict[Encoding, list[StgState]]:
        grouped: dict[Encoding, list[StgState]] = {}
        for state in self.states:
            grouped.setdefault(state.encoding, []).append(state)
        return grouped

    def usc_violations(self) -> list[tuple[StgState, StgState]]:
        """Unique State Coding: two distinct markings sharing an encoding."""
        pairs = []
        for group in self.encoding_map().values():
            ordered = sorted(group, key=repr)
            for i, first in enumerate(ordered):
                for second in ordered[i + 1 :]:
                    if first.marking != second.marking:
                        pairs.append((first, second))
        return pairs

    def _enabled_outputs(self, state: StgState) -> frozenset[str]:
        enabled = set()
        for _, action, _, _ in self._outgoing(state):
            if self.stg.is_output_action(action):
                enabled.add(action)
        return frozenset(enabled)

    def _outgoing(self, state: StgState):
        return [edge for edge in self.edges if edge[0] == state]

    def csc_violations(self) -> list[tuple[StgState, StgState]]:
        """Complete State Coding: same encoding but different enabled
        output events — the encoding cannot determine the next outputs,
        so no speed-independent logic exists without state signals."""
        pairs = []
        for group in self.encoding_map().values():
            ordered = sorted(group, key=repr)
            for i, first in enumerate(ordered):
                for second in ordered[i + 1 :]:
                    if first.marking == second.marking:
                        continue
                    if self._enabled_outputs(first) != self._enabled_outputs(
                        second
                    ):
                        pairs.append((first, second))
        return pairs

    def has_csc(self) -> bool:
        return not self.csc_violations()

    def has_usc(self) -> bool:
        return not self.usc_violations()

    def output_persistency_violations(self) -> list[tuple[StgState, str, str]]:
        """An enabled *output* event disabled by some other firing:
        ``(state, disabled_output, disabling_action)`` triples."""
        violations = []
        successor_map: dict[StgState, list[tuple[str, StgState]]] = {}
        for source, action, _, target in self.edges:
            successor_map.setdefault(source, []).append((action, target))
        for state, outgoing in successor_map.items():
            enabled_outputs = {
                action for action, _ in outgoing if self.stg.is_output_action(action)
            }
            for action, target in outgoing:
                after = {a for a, _ in successor_map.get(target, ())}
                for output in enabled_outputs:
                    if output == action:
                        continue
                    if output not in after:
                        violations.append((state, output, action))
        return violations

    def num_states(self) -> int:
        return len(self.states)


def _fire_encoding(
    encoding: Encoding,
    index: int | None,
    kind: EdgeKind | None,
) -> tuple[list[Encoding], str | None]:
    """Successor encodings of a signal event; second component is a
    violation reason if the firing is inconsistent."""
    if index is None or kind is None:
        return [encoding], None
    value = encoding[index]

    def with_value(new: Level) -> Encoding:
        return encoding[:index] + (new,) + encoding[index + 1 :]

    if kind is EdgeKind.RISE:
        if value == 1:
            return [], "rising transition while signal is already 1"
        return [with_value(1)], None
    if kind is EdgeKind.FALL:
        if value == 0:
            return [], "falling transition while signal is already 0"
        return [with_value(0)], None
    if kind is EdgeKind.TOGGLE:
        if value is None:
            return [encoding], None
        return [with_value(1 - value)], None
    if kind is EdgeKind.STABLE:
        if value is None:
            return [with_value(0), with_value(1)], None
        return [encoding], None
    if kind is EdgeKind.UNSTABLE:
        return [with_value(None)], None
    return [encoding], None  # DONTCARE


def build_state_graph(stg: Stg, max_states: int = 200_000) -> StateGraph:
    """Explore the encoded, guard-aware state graph of an STG.

    Raises :class:`~repro.petri.reachability.UnboundedNetError` (with
    ``bound=max_states``) when more than ``max_states`` encoded states
    are reachable, and (with ``bound=None``) when unboundedness is
    proven: a new state has the encoding of an ancestor on its
    discovery path and a marking that strictly covers the ancestor's.
    Guards and encoding updates read only the encoding, so the path
    between the two can fire again from the new state, forever.  Nets
    whose token bound compilation certified skip that check.
    """
    signals = tuple(sorted(stg.signals()))
    index_of = {signal: i for i, signal in enumerate(signals)}
    initial_encoding: Encoding = tuple(
        stg.initial_values.get(signal, 0) for signal in signals
    )
    graph = StateGraph(stg=stg, signals=signals)
    start = StgState(stg.net.initial, initial_encoding)
    graph.initial = start
    graph.states.add(start)
    queue: deque[StgState] = deque([start])
    # state -> the state it was discovered from, kept only for the
    # covering check.
    parents: dict[StgState, StgState | None] | None = (
        None if stg.net.compiled().bounded_certified else {start: None}
    )

    def guards_allow(transition: Transition, state: StgState) -> bool:
        for place in transition.preset:
            guard = stg.net.guard_of(place, transition.tid)
            if guard is None:
                continue
            if isinstance(guard, Guard):
                encoding_dict = {
                    signal: state.encoding[index_of[signal]]
                    for signal in guard.signals()
                }
                if guard.eval(encoding_dict) is not True:
                    return False
        return True

    while queue:
        state = queue.popleft()
        for transition in stg.net.enabled_transitions(state.marking):
            if not guards_allow(transition, state):
                continue
            next_marking = stg.net.fire(transition, state.marking)
            if is_signal_action(transition.action):
                parsed = parse_event(transition.action)
                index = index_of.get(parsed.signal)
                kind = parsed.kind
            else:
                index, kind = None, None
            successors, violation = _fire_encoding(state.encoding, index, kind)
            if violation is not None:
                graph.violations.append(
                    ConsistencyViolation(state, transition.action, violation)
                )
                continue
            for encoding in successors:
                successor = StgState(next_marking, encoding)
                graph.edges.append(
                    (state, transition.action, transition.tid, successor)
                )
                if successor not in graph.states:
                    if len(graph.states) >= max_states:
                        raise UnboundedNetError(
                            f"more than {max_states} reachable states in"
                            f" the state graph of {stg.name!r}",
                            witness=next_marking,
                            bound=max_states,
                        )
                    graph.states.add(successor)
                    queue.append(successor)
                    if parents is not None:
                        parents[successor] = state
                        _check_covering(stg, successor, parents)
    return graph


def _check_covering(
    stg: Stg, state: StgState, parents: dict[StgState, StgState | None]
) -> None:
    """Raise the proven-unbounded error if ``state`` strictly covers an
    ancestor with the same encoding."""
    ancestor = parents[state]
    while ancestor is not None:
        if (
            ancestor.encoding == state.encoding
            and ancestor.marking != state.marking
            and state.marking.covers(ancestor.marking)
        ):
            raise UnboundedNetError(
                f"the state graph of {stg.name!r} is unbounded:"
                f" {state.marking!r} strictly covers ancestor"
                f" {ancestor.marking!r} under the same signal encoding",
                witness=state.marking,
            )
        ancestor = parents[ancestor]


def is_consistent(stg: Stg, max_states: int = 200_000) -> bool:
    """Consistent state assignment over the whole state graph."""
    return build_state_graph(stg, max_states).is_consistent()
