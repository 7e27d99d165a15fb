"""Automatic CSC resolution by internal state-signal insertion.

When an STG violates complete state coding (two reachable states with
equal binary codes but different enabled outputs), no speed-independent
logic exists over the given signals.  The classical fix inserts an
*internal* state signal whose level disambiguates the conflicting
regions.

This module implements a search-based resolver: it tries inserting a
new internal signal's rising edge in series after one transition and
its falling edge after another, and keeps the first insertion for which
the resulting STG is consistent, CSC-conflict-free and output-
persistent.  The visible behaviour is preserved by construction (the
inserted events are internal; hiding them gives back the original
language — asserted in the tests).

This exhaustive single-signal search is adequate for the module-sized
STGs of this domain; industrial resolvers (petrify and successors) use
region theory to scale further.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra._util import fresh_place
from repro.petri.net import EPSILON, PetriNet
from repro.petri.reachability import UnboundedNetError
from repro.stg.coding import report_from_graph
from repro.stg.signals import fall, rise
from repro.stg.state_graph import build_state_graph
from repro.stg.stg import Stg


class CscResolutionError(Exception):
    """No single-signal insertion resolves the conflicts."""


@dataclass(frozen=True)
class Insertion:
    """A successful resolution: the new signal and where its edges went.

    ``rise_after`` / ``fall_after`` are the tids (in the *original*
    net) of the transitions after which the new signal's edges were
    inserted in series.
    """

    signal: str
    rise_after: int
    fall_after: int


def insert_in_series(net: PetriNet, tid: int, action: str) -> PetriNet:
    """Insert a new transition labeled ``action`` in series after
    transition ``tid``: ``t`` now feeds a fresh place consumed by the
    new transition, which produces ``t``'s original postset."""
    result = net.copy()
    old = result.transitions[tid]
    middle = fresh_place(f"ins_{tid}", result.places)
    result.add_place(middle)
    result.remove_transition(tid)
    result.add_transition(old.preset, old.action, {middle}, tid=tid)
    result.add_transition({middle}, action, old.postset)
    # Guards on the original's input arcs survive (same preset, same tid).
    for (place, guard_tid), guard in net.input_guards.items():
        if guard_tid == tid:
            result.input_guards[(place, tid)] = guard
    return result


def _candidate_tids(stg: Stg) -> list[int]:
    """Transitions after which an edge insertion is considered: every
    non-dummy transition (dummy postsets are equally valid anchors, but
    signal transitions keep the search space aligned with the conflict
    structure)."""
    return [
        tid
        for tid, transition in sorted(stg.net.transitions.items())
        if transition.action != EPSILON
    ]


def resolve_csc(
    stg: Stg,
    signal: str = "csc0",
    max_states: int = 200_000,
    max_candidates: int | None = None,
) -> tuple[Stg, Insertion]:
    """Search for a single internal signal that restores CSC.

    Returns the repaired STG (new signal declared internal, initial
    value 0) and the :class:`Insertion` describing where its edges
    landed.  Raises :class:`CscResolutionError` when no insertion pair
    works (a second signal would be needed).
    """
    if signal in stg.signals():
        raise ValueError(f"signal {signal!r} already exists")
    baseline = build_state_graph(stg, max_states=max_states)
    report = report_from_graph(baseline)
    if not report.consistent:
        raise CscResolutionError(
            "fix state-assignment consistency before CSC resolution"
        )
    if report.synthesizable():
        return stg.copy(), Insertion(signal, -1, -1)
    candidates = _candidate_tids(stg)
    tried = 0
    for rise_after in candidates:
        for fall_after in candidates:
            if rise_after == fall_after:
                continue
            if max_candidates is not None and tried >= max_candidates:
                raise CscResolutionError(
                    f"candidate budget {max_candidates} exhausted"
                )
            tried += 1
            net = insert_in_series(stg.net, rise_after, rise(signal))
            net = insert_in_series(net, fall_after, fall(signal))
            candidate = Stg(
                net,
                inputs=stg.inputs,
                outputs=stg.outputs,
                internals=stg.internals | {signal},
                initial_values={**stg.initial_values, signal: 0},
            )
            try:
                graph = build_state_graph(candidate, max_states=max_states)
            except UnboundedNetError:
                continue
            result = report_from_graph(graph)
            if result.synthesizable():
                candidate.net.name = f"{stg.name}_csc"
                return candidate, Insertion(signal, rise_after, fall_after)
    raise CscResolutionError(
        f"no single-signal insertion resolves the CSC conflicts of"
        f" {stg.name!r} ({report.csc_conflicts} conflicts)"
    )
