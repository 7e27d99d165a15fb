"""Automatic expansion of abstract channel events to handshakes (Section 3).

An abstract output event ``c!`` expands to the 4-phase sequence
``r+ -> a+ -> r- -> a-`` (or the 2-phase ``r~ -> a~``); a valued event
``c!v`` with delay-insensitive code ``code(v)`` expands to::

    ( ..., r_j+, ... )  ->  a+  ->  ( ..., r_j-, ... )  ->  a-

with the ``r_j`` rises/falls concurrent (the paper's ',' notation), for
all wires ``r_j`` in the code of ``v``.  The receiver side expands to
the same event sequence with the input/output roles of the wires
mirrored, which is what makes the rendez-vous of the abstract event an
invariant of the expansion.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.algebra._util import fresh_place
from repro.algebra.reductions import fuse_series_places
from repro.core.channels import (
    Encoding,
    is_channel_action,
    one_hot,
    parse_channel_action,
    receive,
    send,
)
from repro.core.cip import ChannelSpec, Cip, WireSpec
from repro.petri.net import EPSILON, PetriNet
from repro.stg.signals import fall, rise, toggle
from repro.stg.stg import Stg

Stage = Sequence[str]  # actions fired concurrently


def expand_transition(net: PetriNet, tid: int, stages: Sequence[Stage]) -> PetriNet:
    """Replace one transition by a chain of stages.

    Each stage is a list of concurrent actions; consecutive stages are
    totally ordered.  Single-action stages chain directly; a stage of
    ``k > 1`` concurrent actions gets ``k`` parallel one-transition
    branches, forked from the previous stage's postset (an epsilon fork
    is inserted only when the previous stage is itself concurrent or
    when a concurrent stage opens the chain from a multi-place preset).
    """
    if not stages:
        raise ValueError("expansion needs at least one stage")
    old = net.transitions[tid]
    result = net.copy()
    result.remove_transition(tid)

    def fresh(base: str) -> str:
        name = fresh_place(base, result.places)
        result.add_place(name)
        return name

    current: frozenset[str] = old.preset
    # ``pending_single`` is a single-action transition whose postset we
    # may still rewrite to feed the next stage directly.
    for index, stage in enumerate(stages):
        last = index == len(stages) - 1
        if len(stage) == 1:
            target = old.postset if last else frozenset({fresh(f"x{tid}_{index}")})
            result.add_transition(current, stage[0], target)
            current = target
        else:
            entries = [fresh(f"f{tid}_{index}_{i}") for i in range(len(stage))]
            if len(current) == 1:
                # Split the single current place into the branch entries
                # by re-targeting its producer... simplest uniform move:
                # epsilon fork (a dummy transition, allowed by Def 2.3).
                result.add_transition(current, EPSILON, frozenset(entries))
            else:
                result.add_transition(current, EPSILON, frozenset(entries))
            exits = []
            for entry, action in zip(entries, stage):
                exit_place = fresh(f"g{tid}_{index}_{len(exits)}")
                result.add_transition({entry}, action, {exit_place})
                exits.append(exit_place)
            if last:
                result.add_transition(frozenset(exits), EPSILON, old.postset)
                current = old.postset
            else:
                current = frozenset(exits)
    return result


def four_phase_stages(req_wires: Sequence[str], ack: str) -> list[list[str]]:
    """``(r_j+ ...) -> a+ -> (r_j- ...) -> a-``."""
    return [
        [rise(wire) for wire in req_wires],
        [rise(ack)],
        [fall(wire) for wire in req_wires],
        [fall(ack)],
    ]


def two_phase_stages(req_wires: Sequence[str], ack: str) -> list[list[str]]:
    """Transition signaling: ``(r_j~ ...) -> a~``."""
    return [[toggle(wire) for wire in req_wires], [toggle(ack)]]


def four_phase_early_stages(
    req_wires: Sequence[str], ack: str
) -> list[list[str]]:
    """Early-acknowledge 4-phase: the full ack pulse completes before
    the request wires return to zero (``(r_j+) -> a+ -> a- -> (r_j-)``).

    Trades the receiver's output hold time for an earlier release of
    the next pipeline stage; same rendez-vous semantics.
    """
    return [
        [rise(wire) for wire in req_wires],
        [rise(ack)],
        [fall(ack)],
        [fall(wire) for wire in req_wires],
    ]


_PROTOCOLS = {
    "four_phase": four_phase_stages,
    "four_phase_early": four_phase_early_stages,
    "two_phase": two_phase_stages,
}


def channel_wires(
    channel: ChannelSpec, encoding: Encoding | None = None
) -> tuple[dict[str, list[str]], str]:
    """The request wires per value (or the single bare request wire) and
    the acknowledge wire name of a channel."""
    ack = f"{channel.name}_a"
    if not channel.values:
        return {"": [f"{channel.name}_r"]}, ack
    if encoding is None:
        encoding = one_hot(channel.name, list(channel.values))
    if not encoding.is_valid():
        raise ValueError(
            f"encoding for channel {channel.name!r} is not an antichain:"
            f" {encoding.covering_pairs()}"
        )
    missing = set(channel.values) - set(encoding.values())
    if missing:
        raise ValueError(f"encoding lacks codes for values {sorted(missing)}")
    return (
        {value: sorted(encoding.code_of(value)) for value in channel.values},
        ack,
    )


def _expand_receiver_group(
    net: PetriNet,
    group: list[tuple[int, str]],
    codes: dict[str, list[str]],
    ack: str,
    protocol: str,
) -> PetriNet:
    """Expand a group of valued *receive* transitions sharing a preset.

    Values may share wires (dual-rail, m-of-n), so the receiver must not
    commit to a value on the first rise.  The standard delay-insensitive
    completion-detection structure is built instead:

    * an epsilon fork arms one *watch* place per wire in the union of
      the group's codes;
    * each wire rise moves its watch token to an *up* place (one shared
      transition per wire — no premature branching);
    * per value, the acknowledge join fires only when exactly that
      value's code is up, consuming the unused watch tokens as well
      (the sender raises no further wires until acknowledged);
    * the wire falls and the closing acknowledge then route to the
      value's own postset.

    For the 2-phase protocol the same structure applies with toggles
    for rises and no fall phase.
    """
    result = net.copy()
    (first_tid, _) = group[0]
    preset = result.transitions[first_tid].preset
    union_wires = sorted(
        {wire for _, value in group for wire in codes[value]}
    )
    suffix = f"{first_tid}"
    watch = {w: f"rxw_{suffix}_{w}" for w in union_wires}
    up = {w: f"rxu_{suffix}_{w}" for w in union_wires}
    result.add_transition(
        preset, EPSILON, frozenset(watch.values())
    )
    two_phase = protocol == "two_phase"
    for wire in union_wires:
        event = toggle(wire) if two_phase else rise(wire)
        result.add_transition({watch[wire]}, event, {up[wire]})
    early = protocol == "four_phase_early"
    for tid, value in group:
        old = result.transitions[tid]
        result.remove_transition(tid)
        code = codes[value]
        join_preset = {up[w] for w in code} | {
            watch[w] for w in union_wires if w not in code
        }
        tag = f"{suffix}_{value}"
        if two_phase:
            result.add_transition(join_preset, toggle(ack), old.postset)
            continue
        down = {w: f"rxd_{tag}_{w}" for w in code}
        fallen = {w: f"rxf_{tag}_{w}" for w in code}
        if early:
            # ack pulse completes before the request wires fall.
            pulse = f"rxp_{tag}"
            result.add_transition(join_preset, rise(ack), {pulse})
            result.add_transition({pulse}, fall(ack), frozenset(down.values()))
            for w in code:
                result.add_transition({down[w]}, fall(w), {fallen[w]})
            result.add_transition(
                frozenset(fallen.values()), EPSILON, old.postset
            )
            continue
        result.add_transition(join_preset, rise(ack), frozenset(down.values()))
        for w in code:
            result.add_transition({down[w]}, fall(w), {fallen[w]})
        result.add_transition(
            frozenset(fallen.values()), fall(ack), old.postset
        )
    return result


def expand_module(
    stg: Stg,
    channel: ChannelSpec,
    role: str,
    encoding: Encoding | None = None,
    protocol: str = "four_phase",
    squash: bool = True,
) -> Stg:
    """Expand every event of ``channel`` inside one module.

    ``role`` is ``"sender"`` or ``"receiver"``; it determines both which
    events (``c!`` vs ``c?``) are expanded and the I/O direction of the
    generated wires (the sender drives the request wires and listens to
    the acknowledge; the receiver mirrors that).

    Sender events expand to per-value request chains (the sender knows
    the value it sends).  Valued *receive* events sharing a preset are
    expanded together into a completion-detection structure (see
    :func:`_expand_receiver_group`) so overlapping codes cannot force a
    premature branch choice; a value-generic ``c?`` behaves as a group
    over all declared values.
    """
    stages_of = _PROTOCOLS[protocol]
    codes, ack = channel_wires(channel, encoding)
    all_wires = sorted({wire for wires in codes.values() for wire in wires})
    net = stg.net.copy()
    marker = send if role == "sender" else receive
    targets = [
        (tid, parse_channel_action(t.action)[2])
        for tid, t in sorted(net.transitions.items())
        if is_channel_action(t.action)
        and parse_channel_action(t.action)[0] == channel.name
        and t.action.startswith(marker(channel.name, ""))
    ]
    if role == "sender" or not channel.values:
        for tid, value in targets:
            if value:
                net = expand_transition(net, tid, stages_of(codes[value], ack))
            elif not channel.values:
                net = expand_transition(net, tid, stages_of(codes[""], ack))
            else:
                # Value-generic send: free choice over per-value chains
                # (the sender commits internally).
                old = net.transitions[tid]
                net.remove_transition(tid)
                for value_name in channel.values:
                    branch = net.add_transition(
                        old.preset, f"__branch_{value_name}__", old.postset
                    )
                    net = expand_transition(
                        net, branch.tid, stages_of(codes[value_name], ack)
                    )
    else:
        # Valued receives: group transitions by preset so alternatives
        # over the same waiting place share one completion detector.
        groups: dict[frozenset, list[tuple[int, str]]] = {}
        for tid, value in targets:
            preset = net.transitions[tid].preset
            entries = groups.setdefault(preset, [])
            if value:
                entries.append((tid, value))
            else:
                # Generic receive: split into one alternative per value
                # with the shared postset.
                old = net.transitions[tid]
                net.remove_transition(tid)
                for value_name in channel.values:
                    replacement = net.add_transition(
                        old.preset,
                        receive(channel.name, value_name),
                        old.postset,
                    )
                    entries.append((replacement.tid, value_name))
        for group in groups.values():
            net = _expand_receiver_group(net, group, codes, ack, protocol)
    if squash:
        net = fuse_series_places(net)
    if role == "sender":
        inputs = stg.inputs | {ack}
        outputs = stg.outputs | set(all_wires)
    else:
        inputs = stg.inputs | set(all_wires)
        outputs = stg.outputs | {ack}
    values = dict(stg.initial_values)
    for wire in [*all_wires, ack]:
        values.setdefault(wire, 0)
    return Stg(net, inputs, outputs, stg.internals, values)


def expand_cip(
    cip: Cip,
    encodings: dict[str, Encoding] | None = None,
    protocol: str = "four_phase",
) -> Cip:
    """Expand every channel of a CIP, turning it into a pure wire-level
    CIP (the 'communicating STG network' of Section 5.1)."""
    encodings = encodings or {}
    result = Cip(f"{cip.name}_expanded")
    expanded: dict[str, Stg] = {
        name: stg.copy() for name, stg in cip.modules.items()
    }
    for channel in cip.channels.values():
        encoding = encodings.get(channel.name)
        expanded[channel.sender] = expand_module(
            expanded[channel.sender], channel, "sender", encoding, protocol
        )
        expanded[channel.receiver] = expand_module(
            expanded[channel.receiver], channel, "receiver", encoding, protocol
        )
    for name, stg in expanded.items():
        result.add_module(name, stg)
    for wire in cip.wires.values():
        result.wires[wire.signal] = wire
    for channel in cip.channels.values():
        codes, ack = channel_wires(channel, encodings.get(channel.name))
        for wires in codes.values():
            for wire in wires:
                result.wires[wire] = WireSpec(
                    wire, channel.sender, (channel.receiver,)
                )
        result.wires[ack] = WireSpec(ack, channel.receiver, (channel.sender,))
    return result
