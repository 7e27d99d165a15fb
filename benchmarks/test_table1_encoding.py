"""Table 1: the sender/receiver command translation tables.

Reproduces both tables as data, checks the delay-insensitive
correctness condition on the implied 2-of-4-style codes (no code covers
another), and benchmarks encoding validation and the expansion of an
abstract command channel using exactly these codes.
"""

from repro.core.channels import Encoding, receive, send
from repro.core.cip import ChannelSpec
from repro.core.expansion import expand_module
from repro.models.protocol_translator import (
    RECEIVER_COMMANDS,
    SENDER_COMMANDS,
)
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.stg.stg import Stg


def sender_encoding() -> Encoding:
    return Encoding.of(
        {command: set(wires) for command, wires in SENDER_COMMANDS.items()}
    )


def receiver_encoding() -> Encoding:
    return Encoding.of(
        {command: set(wires) for command, wires in RECEIVER_COMMANDS.items()}
    )


def test_table1a_shape():
    """Table 1(a): rec=(a0,b0), reset=(a0,b1), send0=(a1,b0),
    send1=(a1,b1) — a 1-of-2 x 1-of-2 product code, hence an antichain."""
    encoding = sender_encoding()
    assert encoding.is_valid()
    assert encoding.code_of("rec") == {"a0", "b0"}
    assert encoding.code_of("reset") == {"a0", "b1"}
    assert encoding.code_of("send0") == {"a1", "b0"}
    assert encoding.code_of("send1") == {"a1", "b1"}
    # Every raised pair decodes unambiguously.
    for command, wires in SENDER_COMMANDS.items():
        assert encoding.decode(set(wires)) == command
    print("\nTable 1(a) reproduction:")
    for command, wires in SENDER_COMMANDS.items():
        print(f"  {command}~  ->  {wires[0]}+ {wires[1]}+")


def test_table1b_shape():
    encoding = receiver_encoding()
    assert encoding.is_valid()
    for command, wires in RECEIVER_COMMANDS.items():
        assert encoding.decode(set(wires)) == command
    print("\nTable 1(b) reproduction:")
    for command, wires in RECEIVER_COMMANDS.items():
        print(f"  {wires[0]}+ {wires[1]}+  ->  {command}~")


def test_table1_roundtrip_through_expansion():
    """Sending each Table 1(a) command through an abstract channel
    expanded with exactly that encoding raises exactly that wire pair,
    and no other pair.

    The expansion dispatches with a silent ``eps`` step, and
    ``bounded_language`` counts it (it is the depth-bounded ``L(N)`` of
    Def 4.1), so the two rises of a command need depth 3."""
    from repro.petri.traces import bounded_language, observable_language

    net = PetriNet("cmd_source")
    for command in SENDER_COMMANDS:
        net.add_transition({"idle"}, send("cmd", command), {f"done_{command}"})
    net.set_initial(Marking({"idle": 1}))
    module = Stg(net)
    spec = ChannelSpec("cmd", "src", "dst", values=tuple(SENDER_COMMANDS))
    expanded = expand_module(
        module, spec, "sender", encoding=sender_encoding()
    )
    language = observable_language(bounded_language(expanded.net, 3))
    two_rises = {frozenset(t) for t in language if len(t) == 2}
    assert two_rises == {
        frozenset({f"{w1}+", f"{w2}+"}) for w1, w2 in SENDER_COMMANDS.values()
    }


def test_bench_encoding_validation(benchmark):
    encoding = sender_encoding()
    assert benchmark(encoding.is_valid)


def test_bench_expansion_with_table1_codes(benchmark):
    net = PetriNet("cmd_source")
    for command in SENDER_COMMANDS:
        net.add_transition({"idle"}, send("cmd", command), {"idle"})
    net.set_initial(Marking({"idle": 1}))
    module = Stg(net)
    spec = ChannelSpec("cmd", "src", "dst", values=tuple(SENDER_COMMANDS))
    result = benchmark(
        expand_module, module, spec, "sender", sender_encoding()
    )
    assert "cmd_a" in result.inputs
