"""Trace semantics of labeled Petri nets (Definitions 4.1, 4.8, 4.9).

The semantics used throughout the paper is the prefix-closed language of
firing sequences, ``L(N)``.  For bounded nets this language is regular
(see :mod:`repro.verify.language` for exact automaton-based comparison);
this module provides the *bounded-depth* trace sets used for direct,
definition-level validation of the algebra theorems, together with the
language operators ``project``, ``hide``, ``rename`` and the rendez-vous
parallel composition of traces.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import lru_cache

from repro.petri.net import EPSILON, PetriNet
from repro.petri.reachability import firing_sequences

Trace = tuple[str, ...]
Language = frozenset[Trace]


def bounded_language(net: PetriNet, depth: int) -> Language:
    """All firing sequences of ``net`` of length at most ``depth``.

    This is the depth-``depth`` fragment of ``L(N)`` (Definition 4.1); it
    is always prefix-closed and contains the empty trace.
    """
    return frozenset(firing_sequences(net, depth))


def observable(trace: Trace) -> Trace:
    """The trace with all epsilon (dummy) actions removed."""
    return tuple(action for action in trace if action != EPSILON)


def observable_language(language: Iterable[Trace]) -> Language:
    """Pointwise epsilon removal over a language."""
    return frozenset(observable(trace) for trace in language)


def project_trace(trace: Trace, alphabet: Iterable[str]) -> Trace:
    """``project(t, A)``: keep only the actions in ``alphabet``."""
    keep = set(alphabet)
    return tuple(action for action in trace if action in keep)


def project_language(language: Iterable[Trace], alphabet: Iterable[str]) -> Language:
    """Pointwise projection of a language onto an alphabet."""
    keep = set(alphabet)
    return frozenset(project_trace(trace, keep) for trace in language)


def hide_language(
    language: Iterable[Trace], actions: str | Iterable[str], alphabet: Iterable[str] | None = None
) -> Language:
    """``hide(L, a) = project(L, A \\ {a})`` (Section 4.4).

    ``actions`` may be a single label or an iterable of labels.  If
    ``alphabet`` is omitted it is inferred from the language.
    """
    hidden = {actions} if isinstance(actions, str) else set(actions)
    if alphabet is None:
        alphabet = {action for trace in language for action in trace}
    return project_language(language, set(alphabet) - hidden)


def rename_language(
    language: Iterable[Trace], mapping: Mapping[str, str]
) -> Language:
    """Pointwise renaming of action labels in a language."""
    return frozenset(
        tuple(mapping.get(action, action) for action in trace) for trace in language
    )


def parallel_compose_traces(
    trace1: Trace,
    trace2: Trace,
    alphabet1: Iterable[str],
    alphabet2: Iterable[str],
    max_length: int | None = None,
) -> Language:
    """Rendez-vous composition of two traces (Definition 4.8).

    Returns all traces ``t`` over ``A1 | A2`` with ``project(t, Ai) =
    ti``.  The set is empty when the traces do not synchronize (the
    paper's example: ``a.b.c || c.a.b``).  ``max_length`` truncates the
    enumeration, useful when composing bounded languages.
    """
    a1 = frozenset(alphabet1)
    a2 = frozenset(alphabet2)
    common = a1 & a2
    limit = max_length if max_length is not None else len(trace1) + len(trace2)

    @lru_cache(maxsize=None)
    def shuffles(i: int, j: int, budget: int) -> frozenset[Trace]:
        # ``budget`` is the number of output symbols still allowed; a
        # synchronized step consumes one symbol from each input trace but
        # only one output symbol.
        if i == len(trace1) and j == len(trace2):
            return frozenset({()})
        if budget == 0:
            return frozenset()
        results: set[Trace] = set()
        head1 = trace1[i] if i < len(trace1) else None
        head2 = trace2[j] if j < len(trace2) else None
        if head1 is not None and head1 in common:
            if head2 == head1:
                for rest in shuffles(i + 1, j + 1, budget - 1):
                    results.add((head1,) + rest)
        elif head1 is not None:
            for rest in shuffles(i + 1, j, budget - 1):
                results.add((head1,) + rest)
        if head2 is not None and head2 not in common:
            # A common-label head of trace2 can only be consumed by the
            # synchronizing step above.
            for rest in shuffles(i, j + 1, budget - 1):
                results.add((head2,) + rest)
        return frozenset(results)

    return frozenset(shuffles(0, 0, limit))


def synchronizable(
    trace1: Trace, trace2: Trace, alphabet1: Iterable[str], alphabet2: Iterable[str]
) -> bool:
    """``True`` iff the rendez-vous composition of the traces is non-empty."""
    return bool(parallel_compose_traces(trace1, trace2, alphabet1, alphabet2))


def parallel_compose_languages(
    language1: Iterable[Trace],
    language2: Iterable[Trace],
    alphabet1: Iterable[str],
    alphabet2: Iterable[str],
    max_length: int | None = None,
) -> Language:
    """Rendez-vous composition of two languages (Definition 4.9).

    ``L1 || L2 = { t1 || t2 : t1 in L1, t2 in L2 }``.  For prefix-closed
    inputs the result is prefix-closed.  When ``max_length`` is given, the
    result is truncated to traces of at most that length; composing the
    depth-``k`` languages of two nets with ``max_length=k`` yields exactly
    the depth-``k`` language of the composed net (Theorem 4.5 restricted
    to bounded depth), which is how the theorem is validated in the tests.
    """
    a1 = frozenset(alphabet1)
    a2 = frozenset(alphabet2)
    result: set[Trace] = set()
    for t1 in language1:
        for t2 in language2:
            result |= parallel_compose_traces(t1, t2, a1, a2, max_length)
    return frozenset(result)


def is_prefix_closed(language: Iterable[Trace]) -> bool:
    """``True`` iff every prefix of every trace is in the language."""
    traces = set(language)
    return all(trace[:cut] in traces for trace in traces for cut in range(len(trace)))


def prefix_closure(language: Iterable[Trace]) -> Language:
    """The smallest prefix-closed language containing ``language``."""
    closed: set[Trace] = set()
    for trace in language:
        for cut in range(len(trace) + 1):
            closed.add(trace[:cut])
    return frozenset(closed)
