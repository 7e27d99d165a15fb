"""Signal Transition Graphs: interpreted labeled Petri nets (Section 2.2).

An :class:`Stg` wraps a labeled Petri net whose transition labels are
signal events (``s+``, ``s-``, ``s~``, ...), epsilon dummies, or — in
the CIP setting of Section 3 — abstract channel events (``c!``, ``c?``)
that are later expanded away.  It adds the semantic split between
*input* signals (controlled by the environment) and *output* signals
(produced by the module), plus initial signal values for the encoded
state graph.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.algebra.compose import parallel
from repro.algebra.hide import hide
from repro.algebra.operators import rename as rename_net
from repro.petri.net import EPSILON, PetriNet, Transition
from repro.stg.guards import Guard
from repro.stg.signals import (
    EdgeKind,
    event,
    is_signal_action,
    signal_of,
    signals_of_net_actions,
)

Level = int | None  # 0, 1 or None (X)


class InterfaceError(ValueError):
    """Modules whose interfaces do not fit the operator or their own
    net: shared outputs or mismatched initial levels in a composition,
    hidden signals that are not outputs, or signal declarations that
    overlap or miss a signal the net's labels or guards use."""


class Stg:
    """An STG: a labeled Petri net plus signal interpretation.

    Parameters
    ----------
    net:
        The underlying labeled Petri net.
    inputs / outputs / internals:
        Disjoint signal sets.  Inputs are controlled by the environment,
        outputs by the module; internal signals are outputs that have
        been hidden from the interface (Section 5.1 treats internal
        signals as outputs that may be hidden).
    initial_values:
        Initial level per signal (0, 1, or ``None`` for X).  Missing
        signals default to 0.
    """

    def __init__(
        self,
        net: PetriNet,
        inputs: Iterable[str] = (),
        outputs: Iterable[str] = (),
        internals: Iterable[str] = (),
        initial_values: Mapping[str, Level] | None = None,
    ):
        self.net = net
        self.inputs = set(inputs)
        self.outputs = set(outputs)
        self.internals = set(internals)
        self.initial_values: dict[str, Level] = {
            signal: 0 for signal in self.signals()
        }
        if initial_values:
            self.initial_values.update(initial_values)

    # -- basic queries ----------------------------------------------------

    @property
    def name(self) -> str:
        return self.net.name

    def signals(self) -> set[str]:
        """All declared signals."""
        return self.inputs | self.outputs | self.internals

    def used_signals(self) -> set[str]:
        """Signals actually occurring on transitions."""
        return signals_of_net_actions(self.net.used_actions())

    def is_input_action(self, action: str) -> bool:
        signal = signal_of(action)
        return signal is not None and signal in self.inputs

    def is_output_action(self, action: str) -> bool:
        signal = signal_of(action)
        return signal is not None and signal in (self.outputs | self.internals)

    def signal_transitions(self, signal: str) -> list[Transition]:
        """All transitions of any edge kind on ``signal``."""
        return [
            t
            for _, t in sorted(self.net.transitions.items())
            if signal_of(t.action) == signal
        ]

    def level(self, signal: str) -> Level:
        return self.initial_values.get(signal, 0)

    # -- construction helpers ---------------------------------------------

    def add(
        self,
        preset: Iterable[str],
        action: str,
        postset: Iterable[str],
        guard: Guard | None = None,
        guard_on: str | None = None,
    ) -> Transition:
        """Add a transition; optionally attach ``guard`` to the incoming
        arc from ``guard_on`` (defaults to the sole preset place)."""
        transition = self.net.add_transition(preset, action, postset)
        if guard is not None:
            if guard_on is None:
                (guard_on,) = transition.preset
            self.net.set_guard(guard_on, transition.tid, guard)
        return transition

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Structural validity: declared signal sets disjoint; every
        signal label refers to a declared signal; guards read declared
        signals.  Each violation raises :class:`InterfaceError`."""
        if self.inputs & self.outputs:
            raise InterfaceError(
                f"signals both input and output: {self.inputs & self.outputs}"
            )
        if (self.inputs | self.outputs) & self.internals:
            raise InterfaceError("internal signals must not be inputs/outputs")
        declared = self.signals()
        for transition in self.net.transitions.values():
            signal = signal_of(transition.action)
            if signal is not None and signal not in declared:
                raise InterfaceError(
                    f"undeclared signal {signal!r} on {transition!r}"
                )
        for (_, tid), guard in self.net.input_guards.items():
            if isinstance(guard, Guard):
                undeclared = guard.signals() - declared
                if undeclared:
                    raise InterfaceError(
                        f"guard on transition {tid} reads undeclared"
                        f" signals {sorted(undeclared)}"
                    )
        self.net.validate()

    def classical_report(self, max_states: int = 1_000_000) -> dict[str, bool]:
        """Definition 2.3's classical STG requirements: strongly
        connected, live, safe, and labels restricted to rise/fall/eps."""
        from repro.petri.analysis import (
            is_structurally_strongly_connected,
        )
        from repro.petri.reachability import ReachabilityGraph

        graph = ReachabilityGraph(self.net, max_states=max_states)
        classical_labels = all(
            t.action == EPSILON
            or (
                is_signal_action(t.action)
                and t.action[-1] in (EdgeKind.RISE.value, EdgeKind.FALL.value)
            )
            for t in self.net.transitions.values()
        )
        return {
            "strongly_connected": is_structurally_strongly_connected(self.net),
            "live": graph.is_live(),
            "safe": graph.is_safe(),
            "classical_labels": classical_labels,
        }

    def is_classical(self, max_states: int = 1_000_000) -> bool:
        return all(self.classical_report(max_states).values())

    # -- copying ------------------------------------------------------------

    def copy(self, name: str | None = None) -> "Stg":
        return Stg(
            self.net.copy(name=name),
            self.inputs,
            self.outputs,
            self.internals,
            self.initial_values,
        )

    def __repr__(self) -> str:
        return (
            f"Stg({self.name!r}, in={sorted(self.inputs)},"
            f" out={sorted(self.outputs)}, |P|={len(self.net.places)},"
            f" |T|={len(self.net.transitions)})"
        )


def signal_actions(alphabet: Iterable[str], signals: Iterable[str]) -> set[str]:
    """All labels in ``alphabet`` referring to one of ``signals``."""
    wanted = set(signals)
    return {a for a in alphabet if signal_of(a) in wanted}


def reject_common_outputs(stg1: Stg, stg2: Stg) -> None:
    """Raise :class:`InterfaceError` when both modules drive a signal
    (Section 5.1: common outputs are not allowed)."""
    common_outputs = (stg1.outputs | stg1.internals) & (
        stg2.outputs | stg2.internals
    )
    if common_outputs:
        raise InterfaceError(
            f"common output signals are not allowed: {sorted(common_outputs)}"
        )


def synchronized_actions(stg1: Stg, stg2: Stg) -> set[str]:
    """The actions on which ``stg1 || stg2`` fuses transitions: every
    event of every *common signal* (an event of a shared wire is seen by
    both modules; if one of them has no matching transition the event
    is simply impossible), and every non-signal, non-epsilon label the
    two alphabets share (abstract channel events, which synchronize by
    plain rendez-vous as in Definition 4.7)."""
    common_signals = stg1.signals() & stg2.signals()
    sync = signal_actions(stg1.net.actions | stg2.net.actions, common_signals)
    sync |= {
        action
        for action in stg1.net.actions & stg2.net.actions
        if action != EPSILON and signal_of(action) is None
    }
    return sync


def with_interface(net: PetriNet, stg1: Stg, stg2: Stg) -> Stg:
    """``net``, the fusion of the two modules' nets, as an STG with their
    composite interface: common input signals stay inputs; a signal
    that is an output on one side and an input on the other becomes an
    output (``I = (I1 | I2) \\ (O1 | O2)``); initial levels are merged."""
    outputs = stg1.outputs | stg2.outputs
    inputs = (stg1.inputs | stg2.inputs) - outputs
    internals = stg1.internals | stg2.internals
    values = dict(stg1.initial_values)
    values.update(stg2.initial_values)
    return Stg(net, inputs, outputs, internals, values)


def compose(stg1: Stg, stg2: Stg) -> Stg:
    """Circuit-algebra parallel composition of STGs (Section 5.1).

    The nets fuse on :func:`synchronized_actions` and the result gets
    the composite interface of :func:`with_interface`.  Common
    *outputs*, and a shared signal whose initial levels differ, are an
    error.
    """
    reject_common_outputs(stg1, stg2)
    for signal in stg1.signals() & stg2.signals():
        if stg1.level(signal) != stg2.level(signal):
            raise InterfaceError(
                f"initial value mismatch on shared signal {signal!r}:"
                f" {stg1.level(signal)} vs {stg2.level(signal)}"
            )
    net = parallel(
        stg1.net, stg2.net, synchronize_on=synchronized_actions(stg1, stg2)
    )
    return with_interface(net, stg1, stg2)


def hide_signals(stg: Stg, signals: Iterable[str], fast_path: bool = True) -> Stg:
    """Hide whole signals: contract every edge-kind transition of each
    signal (Section 5.1: "to hide a signal s means to hide all signal
    transitions for this signal")."""
    hidden = set(signals)
    not_outputs = hidden - (stg.outputs | stg.internals)
    if not_outputs:
        raise InterfaceError(
            "only output/internal signals may be hidden"
            f" (Section 5.1): {sorted(not_outputs)}"
        )
    labels = signal_actions(stg.net.actions, hidden)
    net = hide(stg.net, labels, fast_path=fast_path)
    values = {
        signal: level
        for signal, level in stg.initial_values.items()
        if signal not in hidden
    }
    return Stg(
        net,
        stg.inputs,
        stg.outputs - hidden,
        stg.internals - hidden,
        values,
    )


def hide_signals_to_epsilon(stg: Stg, signals: Iterable[str]) -> Stg:
    """The ``hide'`` variant (Section 5.3): relabel the signals' events
    to epsilon, preserving net structure for receptiveness checking."""
    from repro.algebra.hide import hide_to_epsilon

    hidden = set(signals)
    labels = signal_actions(stg.net.actions, hidden)
    net = hide_to_epsilon(stg.net, labels)
    values = {
        signal: level
        for signal, level in stg.initial_values.items()
        if signal not in hidden
    }
    return Stg(
        net,
        stg.inputs - hidden,
        stg.outputs - hidden,
        stg.internals - hidden,
        values,
    )


def mirror(stg: Stg) -> Stg:
    """The environment view of a module: inputs and outputs swapped.

    The mirror is the canonical *most liberal environment* of a module:
    it offers every input the module might produce and accepts every
    output.  Composing an implementation with the mirror of its
    specification is the trace-theoretic conformance check that the
    paper's receptiveness condition (Section 5.3) instantiates.
    Internal signals have no meaning for the environment and must be
    hidden first.
    """
    if stg.internals:
        raise ValueError(
            "hide internal signals before mirroring:"
            f" {sorted(stg.internals)}"
        )
    mirrored = stg.copy(name=f"mirror({stg.name})")
    mirrored.inputs, mirrored.outputs = set(stg.outputs), set(stg.inputs)
    return mirrored


def rename_signal(stg: Stg, old: str, new: str) -> Stg:
    """Rename a signal consistently across all its edge kinds."""
    if new in stg.signals():
        raise ValueError(f"target signal {new!r} already exists")
    mapping = {}
    for action in stg.net.actions:
        if signal_of(action) == old:
            mapping[action] = event(new, action[-1])
    net = rename_net(stg.net, mapping)

    def swap(group: set[str]) -> set[str]:
        return {new if s == old else s for s in group}

    values = {
        (new if signal == old else signal): level
        for signal, level in stg.initial_values.items()
    }
    return Stg(net, swap(stg.inputs), swap(stg.outputs), swap(stg.internals), values)
